from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slm.grid
from slm.errors import InvalidParameterError
from slm.grid import MAX_CELLS, PAIR_BLOCK, Grid, pair_blocks, sort_by_cell, wrap


@pytest.mark.parametrize("side", [np.nan, np.inf, 0.0, -1.0])
def test_side_must_be_finite_and_positive(side):
    # a NaN or infinite side gave a grid of spacing nan or inf
    with pytest.raises(InvalidParameterError, match="torus side must be finite and positive"):
        Grid(1, side, 10)


@st.composite
def search_cases(draw):
    """(points, side, radius, block) for the pair search: d = 1, 2, 3;
    a radius of L/8 (side/r is an integer, and 7 cells fit), L/4 (3
    cells), L/3 (one cell) or any in (0, L/2); points uniform or on a
    lattice of radius/2 steps, so that pairs sit radius apart; blocks of
    1, 7 or PAIR_BLOCK pairs, the first two smaller than most rows, split
    for a caller whose pairs cost 1 or 4 floats."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 50))
    side = draw(st.sampled_from([4.0, 10.0]))
    radius = draw(st.sampled_from([side / 8, side / 4, side / 3, None]))
    if radius is None:
        radius = draw(st.floats(0.01 * side, 0.5 * side))
    if draw(st.booleans()):
        steps = st.lists(st.integers(0, int(2 * side / radius)), min_size=n * dim, max_size=n * dim)
        pts = 0.5 * radius * np.reshape(draw(steps), (n, dim))
    else:
        pts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.0, side, (n, dim))
    block, cost = draw(st.sampled_from([1, 7, PAIR_BLOCK])), draw(st.sampled_from([1, 4]))
    return wrap(pts, side), side, radius, block, cost


@settings(max_examples=200, deadline=None)
@given(search_cases())
# 0.5 apart as computed, but 8 cells of width 0.5 would put them in cells 0 and 2
@example((np.array([[0.49999999999999994], [1.0]]), 4.0, 0.5, PAIR_BLOCK, 1))
def test_pair_blocks_give_every_near_pair_once(case):
    pts, side, radius, block, cost = case
    n, dim = pts.shape
    with mock.patch.object(slm.grid, "PAIR_BLOCK", block):
        order, keys, k = sort_by_cell(pts, side, radius)
        pairs = Counter()
        for rows, w, j in pair_blocks(keys, k, cost):
            assert len(j) == w.sum() and (len(j) <= block // cost or rows.stop - rows.start == 1)
            i = order[np.repeat(np.arange(rows.start, rows.stop), w)]
            pairs.update(zip(np.minimum(i, order[j]).tolist(), np.maximum(i, order[j]).tolist()))
    assert k == 1 or 3 <= k and side / k >= radius and k**dim <= MAX_CELLS
    assert all(a < b for a, b in pairs) and set(pairs.values()) <= {1}
    # exactly the pairs whose cells differ by at most one on every axis, mod k
    cell = np.empty_like(keys)
    cell[order] = keys
    diff = (cell[:, None] - cell[None]) % k
    adjacent = np.triu(np.all((diff <= 1) | (diff == k - 1), axis=-1), 1)
    assert set(pairs) == set(zip(*map(np.ndarray.tolist, np.nonzero(adjacent))))
    # which holds every pair at most radius apart on each axis, across the boundary too
    dx = np.abs(pts[:, None] - pts[None])
    near = np.triu(np.minimum(dx, side - dx).max(axis=-1, initial=0.0) <= radius, 1)
    assert set(zip(*map(np.ndarray.tolist, np.nonzero(near)))) <= set(pairs)
