import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import oracles
from slm.errors import InvalidParameterError
from slm.grid import Grid
from slm.kernels import ball_volume
from slm.stats import (
    _pair_counts,
    default_pair_edges,
    density_estimate,
    estimate_correlations,
    pair_correlation,
    subpoisson_diagnostic,
)


@pytest.fixture
def grid():
    return Grid(1, 10.0, 20)


def poisson_runs(rng, intensity, side, dim, runs):
    out = []
    for _ in range(runs):
        n = rng.poisson(intensity * side**dim)
        out.append(rng.uniform(0.0, side, size=(n, dim)))
    return out


class TestDensity:
    def test_poisson_mean(self, grid):
        rng = np.random.default_rng(0)
        runs = poisson_runs(rng, 2.0, grid.side, 1, 400)
        est = density_estimate(runs, grid)
        z = (est.mean - 2.0) / est.se
        assert np.max(np.abs(z)) < 4.5
        assert abs(est.mean.mean() - 2.0) < 0.1

    def test_counts_partition_exactly(self, grid):
        pts = np.array([[0.1], [0.1], [9.95], [5.0]])
        est = density_estimate([pts, pts], grid)
        assert est.mean.sum() * grid.cell_volume == pytest.approx(4.0)
        assert np.all(est.se == 0.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_wraps_points_as_the_pair_counts_do(self, dim):
        # a point a quarter cell outside the torus counts in the cell it wraps into
        grid = Grid(dim, 10.0, 20)
        h = grid.spacing
        pts = np.array([[-h / 4] * dim, [grid.side + h / 4] * dim])
        counts = density_estimate([pts, pts], grid).mean * grid.cell_volume
        expected = np.zeros(grid.shape)
        expected[(-1,) * dim] = expected[(0,) * dim] = 1.0
        assert np.array_equal(counts, expected)

    def test_requires_two_runs(self, grid):
        with pytest.raises(InvalidParameterError):
            density_estimate([np.zeros((3, 1))], grid)

    def test_translation_covariance(self, grid):
        # shifting every run by one cell width rolls the estimate
        rng = np.random.default_rng(1)
        runs = poisson_runs(rng, 1.5, grid.side, 1, 50)
        shifted = [np.mod(p + grid.spacing, grid.side) for p in runs]
        a = density_estimate(runs, grid)
        b = density_estimate(shifted, grid)
        assert np.allclose(np.roll(a.mean, 1), b.mean, rtol=1e-12)


class TestPairCorrelation:
    def test_poisson_is_flat(self, grid):
        rng = np.random.default_rng(2)
        runs = poisson_runs(rng, 3.0, grid.side, 1, 300)
        edges = np.linspace(0.0, 5.0, 11)
        g, se = pair_correlation(runs, grid.side, 1, edges)
        assert np.all(np.abs(g - 1.0) < 4.5 * np.maximum(se, 1e-3))

    def test_fixed_distance_pair(self, grid):
        # every run holds one pair at distance 1: all mass in one bin
        rng = np.random.default_rng(3)
        runs = []
        for _ in range(50):
            x = rng.uniform(0.0, grid.side)
            runs.append(np.array([[x], [np.mod(x + 1.0, grid.side)]]))
        edges = np.linspace(0.0, 2.0, 4)
        g, _ = pair_correlation(runs, grid.side, 1, edges)
        hot = (edges[:-1] < 1.0) & (1.0 <= edges[1:])
        assert np.count_nonzero(hot) == 1
        assert g[hot][0] > 0
        assert np.all(g[~hot] == 0.0)

    def test_minimum_image_distance_used(self, grid):
        # 0.3 and 9.8 are 0.5 apart through the boundary
        runs = [np.array([[0.3], [9.8]])] * 4
        edges = np.array([0.0, 1.0, 2.0])
        g, _ = pair_correlation(runs, grid.side, 1, edges)
        assert g[0] > 0 and g[1] == 0.0

    def test_bins_beyond_half_side_rejected(self, grid):
        with pytest.raises(InvalidParameterError):
            pair_correlation([np.zeros((2, 1))] * 2, grid.side, 1, np.array([0.0, 6.0]))

    def test_default_edges(self, grid):
        edges = default_pair_edges(10.0, 0.5)
        assert edges[0] == 0.0 and edges[-1] == pytest.approx(2.0)
        assert len(edges) == 25
        assert default_pair_edges(10.0, 5.0)[-1] == pytest.approx(5.0)
        assert default_pair_edges(10.0, 0.0)[-1] == pytest.approx(5.0)

    def test_relabeling_invariance(self, grid):
        rng = np.random.default_rng(4)
        runs = poisson_runs(rng, 2.0, grid.side, 1, 20)
        perm = [p[rng.permutation(len(p))] for p in runs]
        edges = np.linspace(0.0, 4.0, 9)
        a, _ = pair_correlation(runs, grid.side, 1, edges)
        b, _ = pair_correlation(perm, grid.side, 1, edges)
        for x, y in zip(a, b):
            assert x == pytest.approx(y, rel=1e-12)


def ordered_counts(pts, side, edges):
    """Ordered-pair counts per bin recovered from pair_correlation on the
    ensemble [pts, pts] (kappa is then n / L^d)."""
    dim = pts.shape[1]
    g, _ = pair_correlation([pts, pts], side, dim, edges)
    shell = np.diff([ball_volume(dim, e) for e in edges])
    norm = (len(pts) / side**dim) ** 2 * side**dim * shell
    return np.rint(g * norm).astype(int)


class TestPairCounting:
    """Pair counts against np.histogram of the dense distance matrix."""

    @pytest.mark.parametrize("dim, n", [(1, 300), (2, 400), (3, 300)])
    def test_matches_dense_histogram(self, dim, n):
        pts = np.random.default_rng(dim).uniform(0.0, 6.0, size=(n, dim))
        edges = np.linspace(0.0, 3.0, 13)
        want = oracles.pair_distance_counts(pts, 6.0, edges)
        assert want.sum() > 0
        assert np.array_equal(ordered_counts(pts, 6.0, edges), want)

    def test_lattice_ties_keep_histogram_bins(self):
        # points on a dyadic lattice put many distances exactly on the edges
        pts = np.random.default_rng(7).integers(0, 64, size=(80, 2)) / 8.0
        edges = np.linspace(0.0, 4.0, 17)
        want = oracles.pair_distance_counts(pts, 8.0, edges)
        assert np.array_equal(ordered_counts(pts, 8.0, edges), want)

    def test_duplicated_point(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [3.0, 1.0]])
        edges = np.linspace(0.0, 4.0, 5)
        got = ordered_counts(pts, 10.0, edges)
        assert got.tolist() == [2, 0, 4, 0]
        assert np.array_equal(got, oracles.pair_distance_counts(pts, 10.0, edges))

    def test_pair_on_a_dyadic_edge(self):
        # distance 0.5 opens the bin [0.5, 0.75); distance 1 closes the last bin
        edges = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        for pts, hot in (([[0.25], [0.75]], 2), ([[0.0], [1.0]], 3)):
            pts = np.array(pts)
            want = 2 * np.histogram([abs(pts[1, 0] - pts[0, 0])], bins=edges)[0]
            assert np.flatnonzero(want).tolist() == [hot]
            assert np.array_equal(ordered_counts(pts, 10.0, edges), want)

    def test_empty_run(self):
        pts = np.array([[1.0, 1.0], [1.5, 1.0], [9.0, 9.0]])
        edges = np.linspace(0.0, 2.0, 5)
        empty, _ = pair_correlation([np.zeros((0, 2)), pts], 10.0, 2, edges)
        full, _ = pair_correlation([pts, pts], 10.0, 2, edges)
        # kappa halves, so each g doubles and then averages with the empty run's 0
        for e, f in zip(empty, full):
            assert e == pytest.approx(2.0 * f, rel=1e-12)
        assert (empty > 0).tolist() == [False, True, False, False]

    def test_flat_1d_runs_count_every_point(self):
        # a 1-d run may come as shape (n,); kappa must count n points, not one row
        runs = [np.array([1.0, 1.5, 3.0]), np.array([4.0, 4.2, 7.0])]
        edges = np.linspace(0.0, 2.0, 5)
        flat, _ = pair_correlation(runs, 10.0, 1, edges)
        column, _ = pair_correlation([p[:, None] for p in runs], 10.0, 1, edges)
        assert flat.tolist() == column.tolist()

    def test_coordinate_wrapping_onto_the_side(self):
        # np.mod(-1e-20, 10) is 10.0, the open end of the periodic box
        assert np.mod(-1e-20, 10.0) == 10.0
        pts = np.array([[-1e-20, 5.0], [0.5, 5.0], [9.75, 5.0]])
        edges = np.array([0.0, 0.3, 0.6, 0.9])
        assert ordered_counts(pts, 10.0, edges).tolist() == [2, 2, 2]


@st.composite
def counting_cases(draw):
    """(points, side, edges) with r_max = L/2, r_max in (L/3, L/2) (one
    cell per axis) or r_max < L/3 (three or more); points on a dyadic
    lattice with dyadic edges, so that distances fall on edges, or
    uniform; some coordinates pinned to 0 or to -1e-20, which np.mod
    rounds to L."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 60))
    side = draw(st.sampled_from([4.0, 8.0, 20.0]))
    eighths = int(8 * side)  # r_max counts eighths, so it is never L/3
    half, third = eighths // 2, eighths // 3
    low, high = draw(st.sampled_from([(half, half), (third + 1, half), (1, third)]))
    rmax = draw(st.integers(low, high)) / 8
    if draw(st.booleans()):
        pts = draw(st.lists(st.integers(0, eighths - 1), min_size=n * dim, max_size=n * dim))
        pts = np.reshape(pts, (n, dim)) / 8
        inner = draw(st.lists(st.integers(0, int(16 * rmax) - 1), max_size=8)) / np.float64(16)
    else:
        pts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.0, side, (n, dim))
        inner = rmax * np.array(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=8)))
    edges = np.unique(np.append(inner, [0.0, rmax] if draw(st.booleans()) else [rmax]))
    if n:
        pin = st.tuples(
            st.integers(0, n - 1), st.integers(0, dim - 1), st.sampled_from([0.0, -1e-20])
        )
        for i, ax, x in draw(st.lists(pin, max_size=4)):
            pts[i, ax] = x
    return pts, side, edges


@settings(max_examples=150, deadline=None)
@given(counting_cases())
# indexed by x * (k / L), 4 cells of width r_max = 5 would put this pair 5 apart in cells 1 and 3
@example((np.array([[9.999999999999998], [14.999999999999998]]), 20.0, np.array([0.0, 5.0])))
# indexed by x / (L / k), 8 cells of width 0.5 would put this pair 0.5 apart in cells 0 and 2
@example((np.array([[0.49999999999999994], [1.0]]), 4.0, np.array([0.0, 0.5])))
# -1e-20 wraps to 0, not to L: L - (L - 0.1) is not 0.1, and 0.1 is an edge
@example((np.array([[-1e-20], [0.1]]), 10.0, np.array([0.0, 0.1, 0.2])))
def test_pair_counts_match_the_tree_and_the_dense_histogram(case):
    pts, side, edges = case
    radii = np.append(np.nextafter(edges[:-1], 0.0), edges[-1])  # as pair_correlation counts
    got = _pair_counts(pts, side, radii)
    wrapped = np.mod(pts, side)
    wrapped[wrapped == side] = 0.0
    tree = cKDTree(wrapped, boxsize=side)
    assert np.array_equal(got, tree.count_neighbors(tree, radii) - len(pts))
    # radii below each edge give [lo, hi) bins; a first edge at 0 opens the first bin
    if edges[0] == 0.0:
        got[0] = 0
    assert np.array_equal(np.diff(got), oracles.pair_distance_counts(wrapped, side, edges))


class TestSubPoisson:
    def estimate(self, intensity=2.0, runs=200, seed=5):
        grid = Grid(1, 10.0, 20)
        rng = np.random.default_rng(seed)
        data = poisson_runs(rng, intensity, grid.side, 1, runs)
        edges = np.linspace(0.0, 4.0, 9)
        return estimate_correlations(data, grid, edges)

    def test_generous_bound_passes(self):
        report = subpoisson_diagnostic(self.estimate(), C=5.0)
        assert report.passed
        assert report.flagged_cells == [] and report.flagged_bins == []

    def test_tight_bound_flags(self):
        report = subpoisson_diagnostic(self.estimate(), C=0.5)
        assert not report.passed
        assert report.flagged_cells

    def test_minimal_C_is_a_valid_witness(self):
        est = self.estimate()
        report = subpoisson_diagnostic(est, C=0.5)
        again = subpoisson_diagnostic(est, C=report.minimal_C + 1e-9)
        assert again.passed
        # just below the witness something must flag
        below = subpoisson_diagnostic(est, C=report.minimal_C * (1 - 1e-6))
        assert not below.passed

    def test_minimal_C_monotone_in_intensity(self):
        low = subpoisson_diagnostic(self.estimate(intensity=1.0), C=10.0)
        high = subpoisson_diagnostic(self.estimate(intensity=4.0), C=10.0)
        assert low.minimal_C < high.minimal_C

    def test_invalid_C(self):
        with pytest.raises(InvalidParameterError):
            subpoisson_diagnostic(self.estimate(), C=0.0)
