import re

import numpy as np
import pytest

import oracles
from oracles import unit_mass_indicator
from slm.errors import IncompatibleGridsError, InvalidParameterError, PreconditionError
from slm.grid import Grid, wrap
from slm.kernels import (
    Kernel,
    ball_volume,
    check_homogenization,
    domination_theta,
    make_gaussian_kernel,
    make_indicator_kernel,
    make_tabulated_kernel,
    make_zero_kernel,
)
from slm.model import ModelParams


@pytest.fixture
def grid():
    return Grid(1, 10.0, 200)


class TestConstruction:
    def test_indicator_mass_matches_interval_length(self, grid):
        k = make_indicator_kernel(1.0, 0.5, 1, grid)
        # midpoint quadrature of the step function; h-level agreement with 2*r
        assert k.mass == pytest.approx(1.0, abs=2 * grid.spacing)
        assert k.sup == 1.0

    def test_indicator_mass_2d_disc(self):
        g = Grid(2, 8.0, 128)
        k = make_indicator_kernel(2.0, 1.0, 2, g)
        assert k.mass == pytest.approx(2.0 * np.pi, rel=0.05)

    def test_indicator_small_radius(self, grid):
        k = make_indicator_kernel(1.0, 0.25, 1, grid)
        assert k.sup == 1.0
        assert k.mass == pytest.approx(0.5, abs=2 * grid.spacing)

    def test_invalid_parameters_rejected(self, grid):
        with pytest.raises(InvalidParameterError):
            make_indicator_kernel(-1.0, 0.5, 1, grid)
        with pytest.raises(InvalidParameterError):
            make_indicator_kernel(1.0, 0.0, 1, grid)
        with pytest.raises(InvalidParameterError):
            make_indicator_kernel(1.0, 6.0, 1, grid)  # support >= L/2

    @pytest.mark.parametrize("build, message", [
        (lambda g: make_gaussian_kernel(0.3, 1, g, cutoff=np.nan),
         "kernel radius nan is not a nonnegative number"),
        (lambda g: make_gaussian_kernel(0.3, 1, g, cutoff=-1.0),
         "kernel radius -1.0 is not a nonnegative number"),
        (lambda g: make_indicator_kernel(1.0, np.nan, 1, g),
         "indicator kernel needs positive height and radius"),
        (lambda g: make_tabulated_kernel([-2, -1], [1, 1], 1, g),
         "kernel radius -1.0 is not a nonnegative number"),
        (lambda g: make_gaussian_kernel(0.3, 1, g, cutoff=np.inf),
         "kernel radius inf must be below half the torus side 5.0"),
    ], ids=["nan-cutoff", "negative-cutoff", "nan-radius", "negative-offsets", "infinite-cutoff"])
    def test_nan_or_negative_reach_is_rejected(self, grid, build, message):
        # before the reach was checked, the first four returned a kernel:
        # an untruncated one, or one of mass 0
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            build(grid)

    def test_reach_at_half_the_side_keeps_its_message(self, grid):
        message = "^kernel radius 5.0 must be below half the torus side 5.0$"
        for build in (lambda: make_indicator_kernel(1.0, 5.0, 1, grid),
                      lambda: make_gaussian_kernel(1.0, 1, grid),
                      lambda: make_tabulated_kernel([0.0, 5.0], [1.0, 0.0], 1, grid)):
            with pytest.raises(InvalidParameterError, match=message):
                build()

    def test_evenness_on_grid(self, grid):
        for k in (
            make_indicator_kernel(1.0, 0.7, 1, grid),
            make_gaussian_kernel(0.3, 1, grid),
            make_tabulated_kernel([0.0, 0.5, 1.0], [2.0, 1.0, 0.0], 1, grid),
        ):
            assert oracles.is_even(k)

    def test_tabulated_requires_increasing_offsets(self, grid):
        with pytest.raises(InvalidParameterError):
            make_tabulated_kernel([0.0, 0.5, 0.5], [1.0, 1.0, 1.0], 1, grid)

    def test_negative_values_rejected(self, grid):
        with pytest.raises(InvalidParameterError):
            Kernel(grid, -np.ones(grid.shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, grid, bad):
        vals = np.ones(grid.shape)
        vals[3] = bad
        with pytest.raises(InvalidParameterError):
            Kernel(grid, vals)

    def test_tabulated_rejects_nan_offsets(self, grid):
        with pytest.raises(InvalidParameterError):
            make_tabulated_kernel([0.0, np.nan, 1.0], [1.0, 1.0, 1.0], 1, grid)

    def test_equality_and_hash_do_not_raise(self, grid):
        # identity semantics: equal tabulations are still distinct kernels
        k_a = make_indicator_kernel(1.0, 0.5, 1, grid)
        k_b = make_indicator_kernel(1.0, 0.5, 1, grid)
        assert (k_a == k_b) is False and k_a == k_a
        assert hash(k_a) == hash(k_a)
        p = ModelParams(0.2, k_a, k_b)
        assert p == ModelParams(0.2, k_a, k_b)
        assert p != ModelParams(0.2, k_b, k_a)
        assert hash(p) == hash(ModelParams(0.2, k_a, k_b))


class TestMoments:
    def test_indicator_moments(self, grid):
        # the cached moments are those of the tabulation
        k = unit_mass_indicator(grid, 0.5)
        assert k.mass == pytest.approx(1.0, rel=1e-12)
        assert (k.mass, k.sup) == (float(grid.cell_volume * k.values.sum()), float(k.values.max()))

    def test_zero_kernel_moments(self, grid):
        k = make_zero_kernel(grid)
        assert (k.mass, k.sup) == (0.0, 0.0)

    def test_gaussian_mass_against_fine_quadrature(self):
        # independent oracle: midpoint quadrature at 10x grid density
        coarse = Grid(1, 10.0, 100)
        fine = Grid(1, 10.0, 1000)
        sigma = 0.2
        k = make_gaussian_kernel(sigma, 1, coarse)
        xs = fine.axis_offsets()
        dense = (2 * np.pi * sigma**2) ** -0.5 * np.exp(-0.5 * (xs / sigma) ** 2)
        dense[np.abs(xs) > 5 * sigma] = 0.0
        oracle = fine.spacing * dense.sum()
        assert k.mass == pytest.approx(oracle, abs=1e-3)
        assert k.mass == pytest.approx(1.0, abs=1e-3)


class TestDomination:
    def test_identical_kernels(self, grid):
        k = make_indicator_kernel(1.0, 0.5, 1, grid)
        assert domination_theta(k, k) == pytest.approx(1.0)

    def test_constant_ratio(self, grid):
        k = make_indicator_kernel(1.0, 0.5, 1, grid)
        k2 = make_indicator_kernel(0.5, 0.5, 1, grid)
        assert domination_theta(k, k2) == pytest.approx(2.0)

    def test_no_finite_theta(self, grid):
        wide = make_indicator_kernel(1.0, 1.0, 1, grid)
        narrow = make_indicator_kernel(1.0, 0.5, 1, grid)
        assert domination_theta(wide, narrow) is None

    def test_grid_mismatch(self, grid):
        other = Grid(1, 10.0, 100)
        with pytest.raises(IncompatibleGridsError):
            domination_theta(
                make_indicator_kernel(1.0, 0.5, 1, grid),
                make_indicator_kernel(1.0, 0.5, 1, other),
            )

    def test_minimality(self, grid):
        aplus = make_gaussian_kernel(0.3, 1, grid, height=1.0, cutoff=1.0)
        aminus = make_indicator_kernel(0.7, 1.2, 1, grid)
        theta = domination_theta(aplus, aminus)
        assert np.max(aplus.values - theta * aminus.values) <= 1e-12
        shaved = theta * (1 - 1e-9)
        assert np.max(aplus.values - shaved * aminus.values) > 0


class TestHomogenization:
    def test_proportional_kernels_any_subcritical_m(self, grid):
        aminus = make_indicator_kernel(0.5, 0.8, 1, grid)
        aplus = make_indicator_kernel(1.5, 0.8, 1, grid)  # 3 * aminus
        for m in (0.0, 0.3, 0.9 * aplus.mass):
            assert check_homogenization(ModelParams(m, aplus, aminus))

    def test_equal_kernels_zero_mortality(self, grid):
        k = make_indicator_kernel(1.0, 0.5, 1, grid)
        assert check_homogenization(ModelParams(0.0, k, k))

    def test_indicator_threshold(self, grid):
        # R = 1, r = 0.5, <a+> = 1: flattening iff 1 - m <= r/R = 0.5
        aplus = unit_mass_indicator(grid, 1.0)
        aminus = make_indicator_kernel(1.0, 0.5, 1, grid)
        assert check_homogenization(ModelParams(0.6, aplus, aminus))
        assert not check_homogenization(ModelParams(0.4, aplus, aminus))

    def test_nonpositive_q_rejected(self, grid):
        k = unit_mass_indicator(grid, 0.5)
        with pytest.raises(PreconditionError):
            check_homogenization(ModelParams(2.0, k, k))

    def test_zero_competition_rejected(self, grid):
        # a precondition of the criterion, not the model's undefined q
        k = unit_mass_indicator(grid, 0.5)
        with pytest.raises(PreconditionError, match="positive mass"):
            check_homogenization(ModelParams(0.5, k, make_zero_kernel(grid)))

    def test_closed_form_agreement_random_indicators(self):
        # discrete criterion vs the (r/R)^d closed form; draws keep a
        # margin wider than the grid's resolution of the threshold
        g = Grid(1, 4.0, 512)
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 100:
            r = rng.uniform(0.2, 0.9)
            R = rng.uniform(r, 1.2)
            hplus = rng.uniform(0.5, 2.0)
            hminus = rng.uniform(0.5, 2.0)
            mass_plus = hplus * ball_volume(1, R)
            m = rng.uniform(0.0, 0.999) * mass_plus
            gap = (r / R) - (1.0 - m / mass_plus)
            if abs(gap) < 0.05:
                continue
            aplus = make_indicator_kernel(hplus, R, 1, g)
            aminus = make_indicator_kernel(hminus, r, 1, g)
            assert check_homogenization(ModelParams(m, aplus, aminus)) == (gap > 0)
            checked += 1


class TestSampling:
    def test_displacements_stay_in_support(self, grid):
        k = make_indicator_kernel(1.0, 0.5, 1, grid)
        d = k.sample_displacement(np.random.default_rng(0), 5000)
        assert d.shape == (5000, 1)
        assert np.max(np.abs(d)) <= 0.5 + 0.5 * grid.spacing

    def test_zero_kernel_cannot_sample(self, grid):
        with pytest.raises(InvalidParameterError):
            make_zero_kernel(grid).sample_displacement(np.random.default_rng(0), 1)


class TestLookup:
    @pytest.mark.parametrize("dim, cells", [(1, 41), (2, 16), (3, 9), (1, 40), (2, 17), (3, 8)])
    def test_flat_lookup_matches_axis_tuples(self, dim, cells):
        # an uneven random table, so a transposed or mis-strided index shows,
        # read at every difference of random wrapped points and of points at
        # 0 and L - 1 ulp on each axis, so dx takes 0 and +-(L - 1 ulp)
        g = Grid(dim, 5.0, cells)
        rng = np.random.default_rng(cells)
        k = Kernel(g, rng.random(g.shape))
        edges = [0.0, np.nextafter(g.side, 0.0)]
        pts = np.concatenate(
            [wrap(rng.uniform(-g.side, 2 * g.side, (150, dim)), g.side), rng.choice(edges, (20, dim))]
        )
        dx = pts[:, None, :] - pts
        assert np.isin([0.0, edges[1], -edges[1]], dx).all()
        got = k.evaluate(dx)
        assert got.shape == (170, 170)
        assert np.array_equal(got, oracles.kernel_at(k, dx))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_even_and_periodic_at_half_cell_offsets(self, dim):
        # every multiple of h/2 in [-L, L] per axis, exact in binary; an
        # indicator of radius h reads 1 at +-h and 0 at +-2h, so +-1.5h
        # must round to the same |offset|.  dx and its image dx - L sign(dx)
        # lie in [-L, L], where evaluate's table covers every rint(dx / h).
        g = Grid(dim, 1.0, 8)
        k = make_indicator_kernel(1.0, g.spacing, dim, g)
        axis = np.arange(-16, 17) * (g.spacing / 2)
        dx = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1)
        assert np.array_equal(k.evaluate(dx), k.evaluate(-dx))
        assert np.array_equal(k.evaluate(dx), k.evaluate(dx - g.side * np.sign(dx)))
        assert k.evaluate(np.full((1, dim), 1.5 * g.spacing))[0] == 0.0

    def test_pair_values_match_pointwise_lookup(self):
        g = Grid(1, 5.0, 41)
        k = Kernel(g, np.random.default_rng(1).random(g.shape))
        i = np.arange(g.cells)
        assert np.array_equal(k.pair_values, k.values[np.subtract.outer(i, i) % g.cells])
        assert k.pair_values is k.pair_values  # built once per kernel
