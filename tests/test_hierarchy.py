import itertools
import re
import tracemalloc

import numpy as np
import oracles
import pytest
from oracles import closure_contraction as dense_contraction
from oracles import closure_tensor, rel_err, unit_mass_indicator

from slm.errors import ClosureSingularityError, InvalidParameterError
from slm.grid import Grid
from slm.hierarchy import (
    CLOSURES,
    TruncatedState,
    closure_contraction,
    rhs_k1,
    rhs_k2,
    rhs_k2_work,
    solve_hierarchy,
    symmetry_defect,
)
from slm.kernels import (
    Kernel,
    make_gaussian_kernel,
    make_indicator_kernel,
    make_tabulated_kernel,
    make_zero_kernel,
)
from slm.kinetic import Field, kinetic_rhs, solve_kinetic, stability_dt
from slm.model import ModelParams


@pytest.fixture
def grid():
    return Grid(1, 10.0, 64)


@pytest.fixture
def params(grid):
    return ModelParams(0.2, unit_mass_indicator(grid, 0.8), unit_mass_indicator(grid, 0.6))


def wavy_field(grid, base=0.5, amp=0.2):
    x = grid.centers()
    return Field(grid, base + amp * np.sin(2 * np.pi * x / grid.side))


class TestState:
    def test_k2_is_held_without_a_copy(self, grid):
        k2 = np.ones((64, 64))
        assert TruncatedState(Field.constant(grid, 1.0), k2, 1.0).k2 is k2

    def test_wrong_shape_and_2d_grid_are_rejected(self, grid):
        with pytest.raises(InvalidParameterError, match="pair-function shape"):
            TruncatedState(Field.constant(grid, 1.0), np.ones((64, 63)), 1.0)
        plane = Grid(2, 10.0, 8)
        with pytest.raises(InvalidParameterError, match="1-d tori only"):
            TruncatedState(Field.constant(plane, 1.0), np.ones((8, 8)), 1.0)
        with pytest.raises(InvalidParameterError, match="1-d tori only"):
            TruncatedState.poisson_like(Field.constant(plane, 1.0), 1.0)


class TestClosures:
    def test_constant_examples(self, grid):
        # k1 = 1, k2 = 2 everywhere: kirkwood gives 8, mean-field gives 2
        st = TruncatedState(Field.constant(grid, 1.0), np.full((64, 64), 2.0), 1.0)
        assert np.allclose(closure_tensor("kirkwood", st), 8.0)
        assert np.allclose(closure_tensor("mean-field", st), 2.0)

    @pytest.mark.parametrize("rule", ["mean-field", "kirkwood"])
    def test_exact_on_products(self, grid, rule):
        k1 = wavy_field(grid)
        st = TruncatedState.poisson_like(k1, 1.0)
        k3 = closure_tensor(rule, st)
        v = k1.values
        expected = v[:, None, None] * v[None, :, None] * v[None, None, :]
        assert np.allclose(k3, expected, rtol=1e-13)

    def test_closure_symmetry(self, grid):
        rng = np.random.default_rng(3)
        sym = rng.random((64, 64))
        sym = 0.5 * (sym + sym.T) + 1.0
        st = TruncatedState(Field(grid, rng.random(64) + 0.5), sym, 1.0)
        for rule in ("mean-field", "kirkwood"):
            k3 = closure_tensor(rule, st)
            for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
                assert np.allclose(k3, np.transpose(k3, perm), rtol=1e-12)

    def test_kirkwood_floor_error(self, grid, params):
        v = np.full(64, 1.0)
        v[5] = 0.0
        st = TruncatedState(Field(grid, v), np.ones((64, 64)), 1.0)
        with pytest.raises(ClosureSingularityError):
            closure_tensor("kirkwood", st)
        with pytest.raises(ClosureSingularityError):
            rhs_k2(st, "kirkwood", params)

    def test_kirkwood_floor_that_underflows_says_so(self):
        # max k1 = 1e-320 is positive and k1 >= 0 holds, but 1e-8 * max k1 underflows to 0
        g = Grid(1, 10.0, 16)
        params = ModelParams(0.2, unit_mass_indicator(g, 0.8), unit_mass_indicator(g, 0.6))
        st = TruncatedState(Field.constant(g, 1e-320), np.full((16, 16), 1e-320), 1.0)
        message = "kirkwood closure: its density floor 1e-08 * max k1 underflows to 0 at max k1 = 1e-320"
        with pytest.raises(ClosureSingularityError, match=f"^{re.escape(message)}$"):
            rhs_k2(st, "kirkwood", params)
        with pytest.raises(ClosureSingularityError, match=f"^{re.escape(message)}$"):
            closure_tensor("kirkwood", st)

    def test_unknown_rule(self, grid, params):
        st = TruncatedState.poisson_like(Field.constant(grid, 1.0), 1.0)
        with pytest.raises(InvalidParameterError):
            closure_tensor("superposition", st)
        with pytest.raises(InvalidParameterError):
            rhs_k2(st, "superposition", params)


def random_state(grid, seed):
    rng = np.random.default_rng(seed)
    m = grid.cells
    sym = rng.random((m, m))
    sym = 0.5 * (sym + sym.T) + 0.5
    return TruncatedState(Field(grid, rng.random(m) + 0.5), sym, 1.0)


class TestContraction:
    """The O(M^2) contractions against the dense k3 oracle."""

    @pytest.mark.parametrize("cells", [24, 64])
    @pytest.mark.parametrize("rule", ["mean-field", "kirkwood"])
    def test_matches_dense_tensor(self, rule, cells):
        grid = Grid(1, 10.0, cells)
        aminus = make_gaussian_kernel(0.5, 1, grid)
        st = random_state(grid, cells)
        work = (np.empty((cells, cells)), np.empty((cells, cells)))
        got = closure_contraction(rule, st, aminus, aminus.convolve(st.k2), work)
        assert rel_err(got, dense_contraction(rule, st, aminus)) <= 1e-13

    @pytest.mark.parametrize("rule", ["mean-field", "kirkwood"])
    def test_rhs_k2_memory_is_quadratic(self, rule):
        # the dense k3 tensor alone would take 8 * 512^3 B = 1.07 GB
        grid = Grid(1, 10.0, 512)
        params = ModelParams(0.2, unit_mass_indicator(grid, 0.8), unit_mass_indicator(grid, 0.6))
        st = random_state(grid, 1)
        rhs_k2(st, rule, params)  # fill the kernel caches outside the trace
        tracemalloc.start()
        try:
            rhs_k2(st, rule, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("rule", CLOSURES)
    def test_solve_holds_at_most_11_pair_arrays(self, rule):
        # the RK4 state, its three stage buffers and the first snapshot are
        # five M x M arrays (the last snapshot is the state itself), and
        # rhs_k2's spectral work and scratch array five more; the bound
        # leaves one array for the rest
        grid = Grid(1, 32.0, 256)
        params = ModelParams(0.2, unit_mass_indicator(grid, 0.8), unit_mass_indicator(grid, 0.6))
        st = random_state(grid, 11)
        args = (TruncatedState(st.k1, st.k2, 0.5), rule, params, 0.03, 0.015, [0.015, 0.03])
        solve_hierarchy(*args)  # fill the kernel caches outside the trace
        tracemalloc.start()
        try:
            solve_hierarchy(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 11 * st.k2.nbytes


class TestSharedTransform:
    """rhs_k1 and rhs_k2 against separate Kernel.convolve calls."""

    @pytest.mark.parametrize("cells", [63, 64])
    def test_rhs_k1_matches_separate_convolutions(self, cells):
        grid = Grid(1, 10.0, cells)
        params = ModelParams(0.3, make_gaussian_kernel(0.7, 1, grid), make_gaussian_kernel(0.5, 1, grid))
        st = random_state(grid, cells)
        assert rel_err(rhs_k1(st, params).values, oracles.rhs_k1(st, params)) <= 1e-13

    @pytest.mark.parametrize("cells", [63, 64])
    @pytest.mark.parametrize("rule", ["mean-field", "kirkwood"])
    def test_rhs_k2_matches_separate_convolutions(self, rule, cells):
        grid = Grid(1, 10.0, cells)
        params = ModelParams(0.3, make_gaussian_kernel(0.7, 1, grid), make_gaussian_kernel(0.5, 1, grid))
        st = random_state(grid, cells)
        assert rel_err(rhs_k2(st, rule, params), oracles.rhs_k2(st, rule, params)) <= 1e-13

    @pytest.mark.parametrize("rule,forward,inverse", [("mean-field", 2, 3), ("kirkwood", 1, 1)])
    def test_transforms_per_rhs_k2(self, rule, forward, inverse, grid, params, monkeypatch):
        # mean-field: a- * k1, then a- * k2 and a+ * k2 from one transform of
        # k2; kirkwood: a+ * k2 alone.  An inverse counts once per kernel.
        st = random_state(grid, 3)
        rhs_k2(st, rule, params)  # fill the spectrum caches
        rffts, irffts = [], []
        rfft, irfft = np.fft.rfft, np.fft.irfft
        monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: rffts.append(1) or rfft(*a, **k))
        monkeypatch.setattr(np.fft, "irfft", lambda a, *r, **k: irffts.append(len(a)) or irfft(a, *r, **k))
        rhs_k2(st, rule, params)
        assert (len(rffts), sum(irffts)) == (forward, inverse)


class TestRhsK1:
    def test_matches_kinetic_on_products(self, grid, params):
        k1 = wavy_field(grid)
        st = TruncatedState.poisson_like(k1, 1.0)
        out = rhs_k1(st, params)
        expected = kinetic_rhs(k1, params)
        assert np.max(np.abs(out.values - expected.values)) < 1e-13

    def test_pure_death_decoupling(self, grid):
        # with both kernels zero, dk1/dt = -m k1
        params = ModelParams(0.7, make_zero_kernel(grid), make_zero_kernel(grid))
        k1 = wavy_field(grid)
        st = TruncatedState.poisson_like(k1, 1.0)
        assert np.allclose(rhs_k1(st, params).values, -0.7 * k1.values, rtol=1e-14)


class TestRhsK2:
    def test_exact_symmetry(self, grid, params):
        rng = np.random.default_rng(11)
        sym = rng.random((64, 64))
        sym = 0.5 * (sym + sym.T) + 0.5
        st = TruncatedState(Field(grid, rng.random(64) + 0.5), sym, 0.7)
        out = rhs_k2(st, "mean-field", params)
        assert symmetry_defect(out) == 0.0

    def test_asymmetric_input_rejected(self, grid, params):
        bad = np.ones((64, 64))
        bad[0, 1] = 2.0
        st = TruncatedState(Field.constant(grid, 1.0), bad, 1.0)
        with pytest.raises(InvalidParameterError):
            rhs_k2(st, "mean-field", params)

    def test_nan_input_rejected(self, grid, params):
        # max |k2 - k2.T| is NaN here, which a test of "> 0" let through
        bad = np.ones((64, 64))
        bad[3, 5] = bad[5, 3] = np.nan
        st = TruncatedState(Field.constant(grid, 1.0), bad, 1.0)
        with pytest.raises(InvalidParameterError, match="k2 must be symmetric"):
            rhs_k2(st, "mean-field", params)

    def test_epsilon_affine(self, grid, params):
        rng = np.random.default_rng(5)
        sym = rng.random((64, 64))
        sym = 0.5 * (sym + sym.T) + 0.5
        k1 = Field(grid, rng.random(64) + 0.5)
        outs = {}
        for eps in (0.0, 0.5, 1.0):
            st = TruncatedState(k1, sym.copy(), eps)
            outs[eps] = rhs_k2(st, "mean-field", params)
        interp = 0.5 * (outs[0.0] + outs[1.0])
        assert np.max(np.abs(outs[0.5] - interp)) < 1e-12

    def test_pure_death_decoupling(self, grid):
        params = ModelParams(0.7, make_zero_kernel(grid), make_zero_kernel(grid))
        sym = np.full((64, 64), 3.0)
        st = TruncatedState(Field.constant(grid, 1.0), sym, 1.0)
        out = rhs_k2(st, "mean-field", params)
        assert np.allclose(out, -2 * 0.7 * sym, rtol=1e-14)

    def test_flat_kernel_hand_derivation(self, grid):
        # Constant-everything hand check.  With flat kernels of heights
        # alpha (dispersal) and beta (competition) on the full torus of
        # length L, constant k1 = c, k2 = c^2, any product closure gives
        # k3 = c^3 and the pair equation evaluates to
        #   -2 m c^2 - 2 beta L c^3 + 2 alpha L c^2
        #   + eps (-2 beta c^2 + 2 alpha c).
        m, alpha, beta, c, eps, L = 0.3, 0.2, 0.4, 0.7, 0.6, grid.side
        flat_plus = Kernel(grid, np.full(grid.shape, alpha))
        flat_minus = Kernel(grid, np.full(grid.shape, beta))
        params = ModelParams(m, flat_plus, flat_minus)
        st = TruncatedState(Field.constant(grid, c), np.full((64, 64), c * c), eps)
        expected = (
            -2 * m * c**2
            - 2 * beta * L * c**3
            + 2 * alpha * L * c**2
            + eps * (-2 * beta * c**2 + 2 * alpha * c)
        )
        for rule in ("mean-field", "kirkwood"):
            out = rhs_k2(st, rule, params)
            assert np.allclose(out, expected, rtol=1e-12)


class TestSolver:
    def test_vlasov_preserves_products(self, grid, params):
        # at eps = 0 a product initial state stays a product and k1
        # follows the kinetic equation
        k1 = wavy_field(grid, base=0.4, amp=0.1)
        st = TruncatedState.poisson_like(k1, 0.0)
        times = [0.5, 1.0]
        snaps, diag = solve_hierarchy(st, "mean-field", params, 1.0, 0.01, times)
        kin = solve_kinetic(k1, params, 1.0, 0.01, times)
        for s, f in zip(snaps, kin):
            assert np.max(np.abs(s.k1.values - f.values)) < 1e-9
            defect = s.k2 - np.outer(s.k1.values, s.k1.values)
            assert np.max(np.abs(defect)) < 1e-9
        assert diag["max_symmetry_drift"] < 1e-14

    @pytest.mark.parametrize("rule", CLOSURES)
    def test_matches_allocating_rk4(self, rule, grid, params):
        # stepped in reused buffers, the solve must equal the one in fresh
        # arrays to the bit (tolerance 0)
        st = random_state(grid, 4)
        st = TruncatedState(st.k1, st.k2, 0.5)
        initial = st.k1.values.copy(), st.k2.copy()
        times = [0.0, 0.2, 0.4]
        snaps, diag = solve_hierarchy(st, rule, params, 0.4, 0.02, times)
        drift = [0.0]

        def rhs(y):
            s = TruncatedState(Field(grid, y[0]), y[1], st.epsilon)
            return rhs_k1(s, params).values, oracles.fused_rhs_k2(s, rule, params)

        def symmetrize(y):
            drift[0] = max(drift[0], float(np.max(np.abs(y[1] - y[1].T))))
            return y[0], 0.5 * (y[1] + y[1].T)

        want = oracles.integrate_rk4((st.k1.values, st.k2), rhs, times, 0.02, symmetrize)
        for s, (k1, k2) in zip(snaps, want):
            assert np.array_equal(s.k1.values, k1) and np.array_equal(s.k2, k2)
        assert diag["max_symmetry_drift"] == drift[0]
        assert all(np.array_equal(a, b) for a, b in zip((st.k1.values, st.k2), initial))
        # each snapshot is its own array, which later steps did not overwrite
        arrays = [st.k1.values, st.k2] + [v for s in snaps for v in (s.k1.values, s.k2)]
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))

    EVEN_KERNELS = {
        "gaussian": lambda g, width: make_gaussian_kernel(0.5 * width, 1, g),
        "indicator": lambda g, width: make_indicator_kernel(1.0, width, 1, g),
        "tabulated": lambda g, width: make_tabulated_kernel(
            [0.0, 0.5 * width, width], [1.0, 0.8, 0.1], 1, g
        ),
    }

    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("rule", CLOSURES)
    @pytest.mark.parametrize("shape", sorted(EVEN_KERNELS))
    def test_even_kernels_keep_k2_exactly_symmetric(self, shape, rule, eps, grid):
        # every RK4 stage sums exactly symmetric arrays, so the solve needs
        # no projection onto symmetric k2 (tolerance 0)
        make = self.EVEN_KERNELS[shape]
        params = ModelParams(0.3, make(grid, 0.8), make(grid, 0.6))
        st = random_state(grid, 9)
        st = TruncatedState(st.k1, st.k2, eps)
        times = [0.1, 0.2, 0.3, 0.4, 0.5]
        snaps, diag = solve_hierarchy(st, rule, params, 0.5, 0.01, times)
        assert all(np.array_equal(s.k2, s.k2.T) for s in snaps)
        assert diag["max_symmetry_drift"] == 0.0

    @pytest.mark.parametrize("rule", CLOSURES)
    def test_uneven_dispersal_fails_within_the_first_step(self, rule, grid):
        # a+ on the one offset cell +h: at eps > 0 the first stage's k2
        # derivative is asymmetric, and the second stage's rhs_k2 rejects it;
        # at eps = 0 the uneven term drops out and k2 stays symmetric
        values = np.zeros(grid.shape)
        values[1] = 1.0 / grid.spacing
        params = ModelParams(0.3, Kernel(grid, values), unit_mass_indicator(grid, 0.6))
        st = random_state(grid, 10)
        with pytest.raises(InvalidParameterError, match="k2 must be symmetric"):
            solve_hierarchy(TruncatedState(st.k1, st.k2, 0.5), rule, params, 0.01, 0.01, [0.01])
        snaps, diag = solve_hierarchy(TruncatedState(st.k1, st.k2, 0.0), rule, params, 0.1, 0.01, [0.1])
        assert np.array_equal(snaps[0].k2, snaps[0].k2.T)
        assert diag["max_symmetry_drift"] == 0.0

    @pytest.mark.parametrize("rule", CLOSURES)
    def test_rhs_into_reused_buffers(self, rule, grid, params):
        k1, k2 = np.empty(grid.cells), np.empty((grid.cells, grid.cells))
        work = rhs_k2_work(params)
        for seed in (6, 7):  # the second call runs in buffers the first filled
            st = random_state(grid, seed)
            assert rhs_k1(st, params, k1).values is k1
            assert rhs_k2(st, rule, params, k2, work) is k2
            assert np.array_equal(k1, rhs_k1(st, params).values)
            assert np.array_equal(k2, oracles.fused_rhs_k2(st, rule, params))

    @pytest.mark.parametrize("rule", CLOSURES)
    def test_rhs_k2_output_overlapping_its_inputs_is_rejected(self, rule, grid, params):
        # rhs_k2 computes in out before the result goes there, so an out
        # that is the state or a work buffer would give a wrong derivative
        st = random_state(grid, 8)
        k2 = st.k2.copy()
        (spec, conv), w1 = work = rhs_k2_work(params)
        # the late scratch of rhs_k2 is this real view over the a+ spectrum row
        scratch = spec[1].reshape(-1).view(float)[: k2.size].reshape(k2.shape)
        for out in (st.k2, st.k2.T, w1, conv[0], conv[1], scratch, spec[0].real):
            with pytest.raises(InvalidParameterError, match="must not overlap"):
                rhs_k2(st, rule, params, out, work)
        assert np.array_equal(st.k2, k2)

    def test_pure_death_exponential(self, grid):
        params = ModelParams(0.5, make_zero_kernel(grid), make_zero_kernel(grid))
        st = TruncatedState.poisson_like(Field.constant(grid, 1.0), 1.0)
        snaps, _ = solve_hierarchy(st, "kirkwood", params, 2.0, 0.05, [2.0])
        assert np.allclose(snaps[0].k1.values, np.exp(-0.5 * 2.0), rtol=1e-6)
        assert np.allclose(snaps[0].k2, np.exp(-2 * 0.5 * 2.0), rtol=1e-6)

    def test_epsilon_continuity(self, grid, params):
        # snapshots converge as eps -> 0 to the eps = 0 solution
        k1 = wavy_field(grid, base=0.4, amp=0.1)
        results = {}
        for eps in (0.0, 0.1, 0.02):
            st = TruncatedState.poisson_like(k1, eps)
            snaps, _ = solve_hierarchy(st, "mean-field", params, 0.5, 0.01, [0.5])
            results[eps] = snaps[0].k1.values
        err_big = np.max(np.abs(results[0.1] - results[0.0]))
        err_small = np.max(np.abs(results[0.02] - results[0.0]))
        assert err_small < err_big
        assert err_big < 0.05

    def test_dt_guard(self, grid, params):
        st = TruncatedState.poisson_like(Field.constant(grid, 1.0), 1.0)
        with pytest.raises(InvalidParameterError):
            solve_hierarchy(st, "mean-field", params, 1.0, 5.0, [1.0])

    def test_dt_guard_rechecked_per_segment(self):
        # at eps = 0, k1 and k2 grow towards q = 2 and q^2; dt = 0.04 passes
        # the guard at t = 0 but not within the first segment (t = 0.52)
        g = Grid(1, 10.0, 100)
        params = ModelParams(
            0.0, make_indicator_kernel(2.0, 0.5, 1, g), make_indicator_kernel(1.0, 0.5, 1, g)
        )
        st = TruncatedState.poisson_like(Field.constant(g, 0.1), 0.0)
        assert stability_dt(params, oracles.witness_C(st)) > 0.04
        with pytest.raises(InvalidParameterError, match=r"at t=0\.52"):
            solve_hierarchy(st, "mean-field", params, 4.0, 0.04, [2.0, 4.0])

    def test_dt_guard_rechecked_per_step(self):
        # one segment: a guard checked only at the segment start never fails
        g = Grid(1, 10.0, 100)
        params = ModelParams(
            0.0, make_indicator_kernel(2.0, 0.5, 1, g), make_indicator_kernel(1.0, 0.5, 1, g)
        )
        st = TruncatedState.poisson_like(Field.constant(g, 0.1), 0.0)
        with pytest.raises(InvalidParameterError, match=r"stability guard 0\.039809\d at t=0\.52: "
                           r"the state outgrew the guard, its witness C grew from 0\.1 at t=0 to 0\.28359\d$"):
            solve_hierarchy(st, "mean-field", params, 4.0, 0.04, [4.0])

    def test_stability_guard_positive(self, grid, params):
        st = TruncatedState.poisson_like(Field.constant(grid, 1.0), 1.0)
        assert 0 < stability_dt(params, oracles.witness_C(st)) < 1.0


class TestContactModel:
    """With a- = 0 the k3 term vanishes under either closure, so the
    hierarchy is exact and must reach the contact model's closed form
    (oracles.contact_correlations) to RK4's order."""

    @pytest.mark.parametrize("eps", [0.1, 1.0])
    @pytest.mark.parametrize("rule", CLOSURES)
    def test_matches_the_closed_form_to_rk4_order(self, rule, eps):
        # 1-d, L = 10, M = 100, unit-mass indicator of radius 0.5, m = 0.2, rho0 = 0.5
        g = Grid(1, 10.0, 100)
        dispersal = unit_mass_indicator(g, 0.5)
        params = ModelParams(0.2, dispersal, make_zero_kernel(g), eps)
        offsets = np.subtract.outer(np.arange(100), np.arange(100)) % 100
        errors = {}
        for dt in (0.02, 0.01):
            st0 = TruncatedState.poisson_like(Field.constant(g, 0.5), eps)
            snaps, diag = solve_hierarchy(st0, rule, params, 2.0, dt, [1.0, 2.0])
            assert diag["max_symmetry_drift"] == 0.0
            errors[dt] = np.zeros(3)
            for t, st in zip([1.0, 2.0], snaps):
                k1, c = oracles.contact_correlations(dispersal, 0.2, 0.5, eps, t)
                c = c[offsets]
                k1_hat = st.k1.values
                err = [rel_err(k1_hat, np.full(100, k1)), rel_err(st.k2, k1**2 + c),
                       rel_err(st.k2 - np.outer(k1_hat, k1_hat), c)]
                errors[dt] = np.maximum(errors[dt], err)
        # RK4's global error at dt = 0.02 (read: k1 8.6e-10, k2 2.6e-8, c 1.1e-7 at
        # eps = 0.1), about twice that, and it falls by about 2^4 = 16 at half the step
        assert np.all(errors[0.02] <= [2e-9, 5e-8, 2.5e-7])
        ratio = errors[0.02] / errors[0.01]
        assert np.all((12 < ratio) & (ratio < 20))
