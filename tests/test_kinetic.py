import itertools
import tracemalloc

import numpy as np
import oracles
import pytest
from oracles import circulant, rel_err, roll_convolution, unit_mass_indicator

from slm.errors import IncompatibleGridsError, InstabilityError, InvalidParameterError
from slm.grid import Grid
from slm.kernels import (
    Kernel,
    convolve_spectra,
    make_gaussian_kernel,
    make_indicator_kernel,
    make_zero_kernel,
    spectral_work,
)
from slm.kinetic import (
    Field,
    bernoulli_solution,
    convolve_periodic,
    kinetic_rhs,
    solve_kinetic,
    stability_dt,
)
from slm.hierarchy import TruncatedState, solve_hierarchy
from slm.model import SNAPSHOT_TOLERANCE, ModelParams, snapshot_schedule


@pytest.fixture
def grid():
    return Grid(1, 10.0, 100)


@pytest.fixture
def params(grid):
    return ModelParams(0.2, unit_mass_indicator(grid, 0.5), unit_mass_indicator(grid, 0.4))


def model(mortality, aplus_mass, aminus_mass):
    """A model whose kernel masses are exactly the given numbers: a kernel
    of one nonzero cell, on a grid of spacing 1, has the mass of its value."""
    grid = Grid(1, 2.0, 2)
    return ModelParams(mortality, Kernel(grid, [aplus_mass, 0.0]), Kernel(grid, [aminus_mass, 0.0]))


class TestBernoulli:
    def test_q_examples(self):
        assert model(0.2, 1.0, 1.0).carrying_capacity == pytest.approx(0.8)
        assert model(1.0, 1.0, 2.0).carrying_capacity == 0.0
        assert model(0.0, 3.0, 1.5).carrying_capacity == pytest.approx(2.0)

    def test_q_undefined(self):
        with pytest.raises(InvalidParameterError):
            model(0.2, 1.0, 0.0).carrying_capacity

    def test_fixed_point(self):
        p = model(0.2, 1.0, 1.0)
        q = p.carrying_capacity
        for t in (0.0, 1.0, 17.0):
            assert bernoulli_solution(q, t, p) == pytest.approx(q, rel=1e-14)

    def test_critical_case(self):
        p = model(1.0, 1.0, 1.0)
        assert bernoulli_solution(1.0, 1.0, p) == pytest.approx(0.5)

    def test_against_rk4_integration(self):
        # independent oracle: RK4 on the scalar ODE at dt = 1e-5
        p = model(0.2, 1.0, 1.0)
        u, dt = 0.1, 1e-5
        r, c = p.dispersal.mass - p.mortality, p.competition.mass
        f = lambda v: r * v - c * v * v
        for _ in range(int(round(5.0 / dt))):
            k1 = f(u)
            k2 = f(u + 0.5 * dt * k1)
            k3 = f(u + 0.5 * dt * k2)
            k4 = f(u + dt * k3)
            u += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert bernoulli_solution(0.1, 5.0, p) == pytest.approx(u, abs=1e-8)

    def test_subcritical_decay(self):
        p = model(2.0, 1.0, 1.0)
        assert bernoulli_solution(0.5, 50.0, p) < 1e-10

    def test_no_competition_exponential(self):
        p = model(0.5, 1.5, 0.0)
        assert bernoulli_solution(0.3, 2.0, p) == pytest.approx(0.3 * np.exp(2.0))


class TestConvolution:
    def test_constant_eigenfunction(self, grid, params):
        f = Field.constant(grid, 3.0)
        out = convolve_periodic(params.dispersal, f)
        assert np.allclose(out.values, 3.0 * params.dispersal.mass, rtol=1e-13)

    def test_single_cell_delta_is_identity(self, grid):
        vals = np.zeros(grid.shape)
        vals[0] = 1.0 / grid.cell_volume  # discrete delta of unit mass
        delta = Kernel(grid, vals)
        f = Field(grid, np.random.default_rng(0).random(grid.shape))
        out = convolve_periodic(delta, f)
        assert np.allclose(out.values, f.values, rtol=1e-12)

    def test_shift_equivariance(self, grid, params):
        f = Field(grid, np.random.default_rng(1).random(grid.shape))
        shifted = Field(grid, np.roll(f.values, 3))
        a = np.roll(convolve_periodic(params.dispersal, f).values, 3)
        b = convolve_periodic(params.dispersal, shifted).values
        assert np.allclose(a, b, rtol=1e-12)

    def test_2d_constant(self):
        g = Grid(2, 8.0, 32)
        k = make_indicator_kernel(0.3, 1.0, 2, g)
        out = convolve_periodic(k, Field.constant(g, 2.0))
        assert np.allclose(out.values, 2.0 * k.mass, rtol=1e-12)

    def test_grid_mismatch(self, grid, params):
        other = Field.constant(Grid(1, 10.0, 50), 1.0)
        with pytest.raises(IncompatibleGridsError):
            convolve_periodic(params.dispersal, other)

    @pytest.mark.parametrize(
        "dim,cells", [(1, 99), (1, 100), (2, 31), (2, 32), (3, 15), (3, 16)]
    )
    def test_matches_roll_oracle(self, dim, cells):
        g = Grid(dim, 8.0, cells)
        rng = np.random.default_rng(cells)
        f = Field(g, rng.random(g.shape))  # no symmetry
        # an uneven sparse tabulation tells convolution from correlation
        uneven = Kernel(g, rng.random(g.shape) * (rng.random(g.shape) < 0.2))
        for k in (make_indicator_kernel(0.7, 1.3, dim, g), make_gaussian_kernel(0.6, dim, g), uneven):
            out = convolve_periodic(k, f).values
            assert rel_err(out, roll_convolution(k, f.values)) <= 1e-13

    @pytest.mark.parametrize("cells", [63, 64])
    def test_pair_function_first_axis(self, cells):
        # a * k2 in the first argument of a pair function is C @ k2
        g = Grid(1, 10.0, cells)
        k = make_gaussian_kernel(0.5, 1, g)
        k2 = np.random.default_rng(cells).random((cells, cells))
        assert rel_err(k.convolve(k2), circulant(k) @ k2) <= 1e-13

    def test_batch_shape_mismatch(self, grid, params):
        with pytest.raises(IncompatibleGridsError):
            params.dispersal.convolve(np.ones((50, 100)))


class TestRhs:
    def test_equilibrium(self, grid, params):
        q = params.carrying_capacity
        out = kinetic_rhs(Field.constant(grid, q), params)
        assert np.max(np.abs(out.values)) < 1e-14

    def test_extinction_invariant(self, grid, params):
        out = kinetic_rhs(Field.constant(grid, 0.0), params)
        assert np.all(out.values == 0.0)

    def test_constant_matches_bernoulli_rhs(self, grid, params):
        c = 0.7
        out = kinetic_rhs(Field.constant(grid, c), params)
        expected = (params.dispersal.mass - params.mortality) * c - params.competition.mass * c * c
        assert np.allclose(out.values, expected, rtol=1e-13)


class TestSharedTransform:
    """Both convolutions of one transform against two Kernel.convolve calls."""

    @pytest.mark.parametrize(
        "dim,cells", [(1, 99), (1, 100), (2, 31), (2, 32), (3, 15), (3, 16)]
    )
    def test_kinetic_rhs_matches_separate_convolutions(self, dim, cells):
        g = Grid(dim, 8.0, cells)
        rng = np.random.default_rng(cells)
        uneven = Kernel(g, rng.random(g.shape) * (rng.random(g.shape) < 0.2))
        params = ModelParams(0.3, uneven, make_gaussian_kernel(0.6, dim, g))
        f = Field(g, rng.random(g.shape))
        assert rel_err(kinetic_rhs(f, params).values, oracles.kinetic_rhs(f, params)) <= 1e-13

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_one_forward_transform_per_call(self, dim, monkeypatch):
        # a forward transform of a real state starts with one rfft pass, and
        # an inverse ends with one irfft pass, here batched over both kernels
        g = Grid(dim, 8.0, 16)
        params = ModelParams(0.3, make_indicator_kernel(0.7, 1.3, dim, g), make_gaussian_kernel(0.6, dim, g))
        f = Field(g, np.random.default_rng(2).random(g.shape))
        kinetic_rhs(f, params)  # fill the spectrum caches
        rffts, irffts = [], []
        rfft, irfft = np.fft.rfft, np.fft.irfft
        monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: rffts.append(1) or rfft(*a, **k))
        monkeypatch.setattr(np.fft, "irfft", lambda a, *r, **k: irffts.append(len(a)) or irfft(a, *r, **k))
        kinetic_rhs(f, params)
        assert (len(rffts), irffts) == (1, [2])

    def test_grid_mismatch(self, params):
        with pytest.raises(IncompatibleGridsError):
            kinetic_rhs(Field.constant(Grid(1, 5.0, 100), 1.0), params)


class TestWorkBuffers:
    """The solver steps in buffers it reuses; its results must be those of
    fresh arrays to the bit (tolerance 0)."""

    @staticmethod
    def model(dim, cells):
        g = Grid(dim, 8.0, cells)
        return ModelParams(0.3, make_gaussian_kernel(0.6, dim, g), make_indicator_kernel(0.7, 1.3, dim, g))

    @pytest.mark.parametrize("dim,cells,batch", [(1, 99, ()), (1, 100, (7,)), (2, 24, ()), (3, 10, ())])
    def test_convolve_spectra_into_reused_work(self, dim, cells, batch):
        params = self.model(dim, cells)
        g = params.grid
        work = spec, out = spectral_work(params.spectra, g, g.shape + batch)
        rng = np.random.default_rng(cells)
        for _ in range(2):  # the second call runs in buffers the first filled
            f = rng.random(g.shape + batch)
            got = convolve_spectra(params.spectra, g, f, work)
            assert got is out
            assert np.array_equal(got, oracles.convolve_spectra(params.spectra, g, f))
            # the last kernel alone in the last rows, as the kirkwood closure calls it
            got = convolve_spectra(params.spectra[1:], g, f, (spec[1:], out[1:]))
            assert np.shares_memory(got, out[1])
            assert np.array_equal(got, oracles.convolve_spectra(params.spectra[1:], g, f))

    def test_one_kernel_product_needs_no_copy_of_the_transform(self):
        # the product forms in place over the transform; were the two views
        # unequal, numpy would copy the (M/2 + 1) x M complex transform first
        g = Grid(1, 32.0, 256)
        spectra = make_indicator_kernel(1.0, 1.0, 1, g).spectrum[None]
        f = np.random.default_rng(0).random((256, 256))
        work = spectral_work(spectra, g, f.shape)
        convolve_spectra(spectra, g, f, work)  # fill numpy's FFT caches outside the trace
        tracemalloc.start()
        try:
            convolve_spectra(spectra, g, f, work)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < work[0][0].nbytes

    def test_kinetic_rhs_into_out(self, grid, params):
        f = Field(grid, np.random.default_rng(5).random(grid.shape))
        out = np.empty(grid.shape)
        work = spectral_work(params.spectra, grid, grid.shape)
        assert kinetic_rhs(f, params, out, work).values is out
        assert np.array_equal(out, oracles.fused_kinetic_rhs(f.values, params))
        assert np.array_equal(kinetic_rhs(f, params).values, out)

    @pytest.mark.parametrize("dim,cells", [(1, 100), (2, 24), (3, 10)])
    def test_solve_matches_allocating_rk4(self, dim, cells):
        params = self.model(dim, cells)
        rho0 = Field(params.grid, np.random.default_rng(dim).random(params.grid.shape))
        initial = rho0.values.copy()
        times = [0.0, 0.2, 0.5]
        snaps = solve_kinetic(rho0, params, 0.5, 0.01, times)
        want = oracles.integrate_rk4(
            (rho0.values,), lambda y: (oracles.fused_kinetic_rhs(y[0], params),), times, 0.01
        )
        assert all(np.array_equal(f.values, w) for f, (w,) in zip(snaps, want))
        assert np.array_equal(rho0.values, initial)
        # each snapshot is its own array, which later steps did not overwrite
        arrays = [rho0.values] + [f.values for f in snaps]
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))


class TestSolver:
    def test_constant_matches_bernoulli(self, grid, params):
        times = [1.0, 2.0, 5.0, 10.0]
        snaps = solve_kinetic(Field.constant(grid, 0.1), params, 10.0, 1e-3, times)
        for t, f in zip(times, snaps):
            u = bernoulli_solution(0.1, t, params)
            assert np.max(np.abs(f.values - u)) / u < 1e-6
            assert np.ptp(f.values) < 1e-12 * u  # stays spatially constant

    def test_zero_stays_zero(self, grid, params):
        snaps = solve_kinetic(Field.constant(grid, 0.0), params, 1.0, 0.01, [0.5, 1.0])
        for f in snaps:
            assert np.all(f.values == 0.0)

    def test_positivity_random_fields(self, grid, params):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rho0 = Field(grid, rng.uniform(0.0, 1.0, grid.shape))
            dt = 0.5 * stability_dt(params, rho0.max)
            snaps = solve_kinetic(rho0, params, 1.0, dt, [0.5, 1.0])
            for f in snaps:
                assert f.min >= -1e-12 * max(f.max, 1.0)

    def test_dt_guard(self, grid, params):
        # at t = 0 the message names no growth
        with pytest.raises(InvalidParameterError, match=r"^dt=10 exceeds the stability guard 0\.0454545 at t=0$"):
            solve_kinetic(Field.constant(grid, 1.0), params, 1.0, 10.0, [1.0])

    @pytest.mark.parametrize("horizon, dt, times, message", [
        (1.0, np.nan, [1.0], "dt must be positive, got nan"),
        (np.nan, 0.01, [1.0], "horizon: not nonnegative: nan"),
        (np.inf, 0.01, [1.0], "horizon: not finite: inf"),
        (1.0, 0.01, [np.nan], "snapshot_times: nan is not finite"),
    ])
    def test_non_finite_step_or_horizon_is_rejected(self, grid, params, horizon, dt, times, message):
        # a NaN dt leaked "cannot convert float NaN to integer", which is not an SLMError
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            solve_kinetic(Field.constant(grid, 1.0), params, horizon, dt, times)

    @pytest.mark.parametrize("times, message", [
        ([0.5, 0.5], "snapshot_times: 0.5 is repeated"),
        ([-0.5, 1.0], r"snapshot_times: -0.5 is outside \[0, horizon = 1.0\]"),
    ])
    def test_schedule_outside_the_rule_is_rejected(self, grid, params, times, message):
        # both solvers returned a duplicated snapshot for [0.5, 0.5]
        rho0 = Field.constant(grid, 1.0)
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            solve_kinetic(rho0, params, 1.0, 0.01, times)
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            solve_hierarchy(TruncatedState.poisson_like(rho0, 1.0), "mean-field", params, 1.0, 0.01, times)

    @pytest.mark.parametrize("mortality", [np.nan, np.inf])
    def test_non_finite_mortality_is_rejected(self, grid, mortality):
        # a NaN mortality gave the carrying capacity nan
        with pytest.raises(InvalidParameterError, match="mortality must be finite and nonnegative"):
            ModelParams(mortality, unit_mass_indicator(grid, 0.5), unit_mass_indicator(grid, 0.4))

    def test_dt_guard_rechecked_per_segment(self, grid):
        # the guard at t = 0 (0.043) admits dt = 0.04, but rho grows towards
        # q = 2 and the guard falls below dt within the first segment (t = 0.52)
        params = ModelParams(
            0.0, make_indicator_kernel(2.0, 0.5, 1, grid), make_indicator_kernel(1.0, 0.5, 1, grid)
        )
        rho0 = Field.constant(grid, 0.1)
        assert stability_dt(params, rho0.max) > 0.04
        with pytest.raises(InvalidParameterError, match=r"at t=0\.52"):
            solve_kinetic(rho0, params, 4.0, 0.04, [2.0, 4.0])

    def test_dt_guard_rechecked_per_step(self, grid):
        # one segment: a guard checked only at the segment start never fails
        params = ModelParams(
            0.0, make_indicator_kernel(2.0, 0.5, 1, grid), make_indicator_kernel(1.0, 0.5, 1, grid)
        )
        with pytest.raises(InvalidParameterError, match=r"stability guard 0\.039809\d at t=0\.52: "
                           r"the state outgrew the guard, its witness C grew from 0\.1 at t=0 to 0\.28359\d$"):
            solve_kinetic(Field.constant(grid, 0.1), params, 4.0, 0.04, [4.0])

    def test_round_off_negatives_are_clipped_to_zero(self):
        # the README kernels on a start that is 1 on 10 cells and 0 elsewhere:
        # an unclipped step leaves about -2e-18 in the empty cells, which the
        # solver clips to 0 after every step, as the allocating oracle does
        g = Grid(1, 10.0, 100)
        params = ModelParams(0.3, make_indicator_kernel(1.0, 0.5, 1, g), make_gaussian_kernel(0.3, 1, g))
        values = np.zeros(g.shape)
        values[:10] = 1.0

        def rhs(y):
            return (oracles.fused_kinetic_rhs(y[0], params),)

        assert -1e-12 < oracles.rk4_step((values,), 0.02, rhs)[0].min() < 0.0
        times = [0.02, 0.1, 0.5]
        snaps = solve_kinetic(Field(g, values), params, 0.5, 0.02, times)
        want = oracles.integrate_rk4((values,), rhs, times, 0.02)
        assert all(np.array_equal(f.values, w) for f, (w,) in zip(snaps, want))
        assert snaps[0].min == snaps[1].min == 0.0

    def test_negative_initial_rejected(self, grid, params):
        with pytest.raises(InvalidParameterError):
            solve_kinetic(Field.constant(grid, -0.1), params, 1.0, 0.01, [1.0])

    def test_instability_reported_with_location(self, grid):
        # growth with no damping and oversized dt within a rigged guard
        aplus = make_indicator_kernel(3.0, 0.5, 1, grid)
        params = ModelParams(0.0, aplus, make_zero_kernel(grid))
        rho0 = Field(grid, np.full(grid.shape, 1e-6))
        # blow-up here is exponential growth; force negativity via a crafted field
        vals = np.full(grid.shape, 1.0)
        vals[3] = 0.0
        competition = make_indicator_kernel(50.0, 0.5, 1, grid)
        params = ModelParams(5.0, make_indicator_kernel(0.1, 0.5, 1, grid), competition)
        with pytest.raises((InstabilityError, InvalidParameterError)):
            solve_kinetic(Field(grid, vals), params, 5.0, 0.5, [5.0])


class TestSnapshotSchedule:
    """model.snapshot_schedule is the one rule for the config, the simulator
    and the RK4 stepper."""

    def test_returns_the_times_sorted_as_floats(self):
        times = snapshot_schedule(2, [2, np.float64(0.5), 0])
        assert times == [0.0, 0.5, 2.0] and all(type(t) is float for t in times)

    def test_infinite_horizon_and_no_times_are_kept(self):
        assert snapshot_schedule(np.inf, [3.0, 1e300]) == [3.0, 1e300]
        assert snapshot_schedule(0.0, []) == []

    def test_tolerance_past_the_horizon(self):
        assert snapshot_schedule(1.0, [1.0 + SNAPSHOT_TOLERANCE]) == [1.0 + SNAPSHOT_TOLERANCE]
        with pytest.raises(InvalidParameterError, match="is outside"):
            snapshot_schedule(1.0, [1.0 + 2 * SNAPSHOT_TOLERANCE])

    @pytest.mark.parametrize("horizon, times, message", [
        (np.nan, [], "horizon: not nonnegative: nan"),
        (-np.inf, [], "horizon: not nonnegative: -inf"),
        (-1e-300, [], "horizon: not nonnegative: -1e-300"),
        (1.0, [0.5, np.nan], "snapshot_times: nan is not finite"),
        (np.inf, [np.inf], "snapshot_times: inf is not finite"),
        (1.0, [-np.inf], "snapshot_times: -inf is not finite"),
        (1.0, [0.0, 1.0, 0.0], "snapshot_times: 0.0 is repeated"),
        (1.0, [-1e-300], r"snapshot_times: -1e-300 is outside \[0, horizon = 1.0\]"),
        (0.0, [0.5], r"snapshot_times: 0.5 is outside \[0, horizon = 0.0\]"),
    ])
    def test_each_fault_is_named(self, horizon, times, message):
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            snapshot_schedule(horizon, times)
