import numpy as np
import oracles
import pytest
from oracles import circulant, rel_err, roll_convolution

from slm.errors import IncompatibleGridsError, InstabilityError, InvalidParameterError
from slm.grid import Grid
from slm.kernels import Kernel, make_gaussian_kernel, make_indicator_kernel, make_zero_kernel
from slm.kinetic import (
    BernoulliParams,
    Field,
    bernoulli_q,
    bernoulli_solution,
    convolve_periodic,
    kinetic_rhs,
    solve_kinetic,
    stability_dt,
)
from slm.model import ModelParams


@pytest.fixture
def grid():
    return Grid(1, 10.0, 100)


def unit_mass_indicator(grid, radius):
    k = make_indicator_kernel(1.0, radius, grid.dim, grid)
    return make_indicator_kernel(1.0 / k.mass, radius, grid.dim, grid)


@pytest.fixture
def params(grid):
    return ModelParams(0.2, unit_mass_indicator(grid, 0.5), unit_mass_indicator(grid, 0.4))


class TestBernoulli:
    def test_q_examples(self):
        assert bernoulli_q(BernoulliParams(0.2, 1.0, 1.0)) == pytest.approx(0.8)
        assert bernoulli_q(BernoulliParams(1.0, 1.0, 2.0)) == 0.0
        assert bernoulli_q(BernoulliParams(0.0, 3.0, 1.5)) == pytest.approx(2.0)

    def test_q_undefined(self):
        with pytest.raises(InvalidParameterError):
            bernoulli_q(BernoulliParams(0.2, 1.0, 0.0))

    def test_fixed_point(self):
        p = BernoulliParams(0.2, 1.0, 1.0)
        q = bernoulli_q(p)
        for t in (0.0, 1.0, 17.0):
            assert bernoulli_solution(q, t, p) == pytest.approx(q, rel=1e-14)

    def test_critical_case(self):
        p = BernoulliParams(1.0, 1.0, 1.0)
        assert bernoulli_solution(1.0, 1.0, p) == pytest.approx(0.5)

    def test_against_rk4_integration(self):
        # independent oracle: RK4 on the scalar ODE at dt = 1e-5
        p = BernoulliParams(0.2, 1.0, 1.0)
        u, dt = 0.1, 1e-5
        r, c = p.aplus_mass - p.mortality, p.aminus_mass
        f = lambda v: r * v - c * v * v
        for _ in range(int(round(5.0 / dt))):
            k1 = f(u)
            k2 = f(u + 0.5 * dt * k1)
            k3 = f(u + 0.5 * dt * k2)
            k4 = f(u + dt * k3)
            u += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert bernoulli_solution(0.1, 5.0, p) == pytest.approx(u, abs=1e-8)

    def test_subcritical_decay(self):
        p = BernoulliParams(2.0, 1.0, 1.0)
        assert bernoulli_solution(0.5, 50.0, p) < 1e-10

    def test_no_competition_exponential(self):
        p = BernoulliParams(0.5, 1.5, 0.0)
        assert bernoulli_solution(0.3, 2.0, p) == pytest.approx(0.3 * np.exp(2.0))


class TestConvolution:
    def test_constant_eigenfunction(self, grid, params):
        f = Field.constant(grid, 3.0)
        out = convolve_periodic(params.dispersal, f)
        assert np.allclose(out.values, 3.0 * params.dispersal.mass, rtol=1e-13)

    def test_single_cell_delta_is_identity(self, grid):
        vals = np.zeros(grid.shape)
        vals[0] = 1.0 / grid.cell_volume  # discrete delta of unit mass
        delta = Kernel("tabulated-grid", grid, vals)
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
        uneven = Kernel("tabulated-grid", g, rng.random(g.shape) * (rng.random(g.shape) < 0.2))
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
        q = bernoulli_q(BernoulliParams.from_model(params))
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
        uneven = Kernel("tabulated-grid", g, rng.random(g.shape) * (rng.random(g.shape) < 0.2))
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


class TestSolver:
    def test_constant_matches_bernoulli(self, grid, params):
        times = [1.0, 2.0, 5.0, 10.0]
        snaps = solve_kinetic(Field.constant(grid, 0.1), params, 10.0, 1e-3, times)
        bp = BernoulliParams.from_model(params)
        for t, f in zip(times, snaps):
            u = bernoulli_solution(0.1, t, bp)
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
        with pytest.raises(InvalidParameterError):
            solve_kinetic(Field.constant(grid, 1.0), params, 1.0, 10.0, [1.0])

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
        with pytest.raises(InvalidParameterError, match=r"stability guard 0\.0398 at t=0\.52"):
            solve_kinetic(Field.constant(grid, 0.1), params, 4.0, 0.04, [4.0])

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
