import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zerorate as zr
from zerorate.errors import ValidationError

from conftest import make_bsc
from oracles import gaussian_distances_mirrored, likelihood


def test_identical_rows_give_zero():
    pairs = zr.FeasiblePairSet(2, np.array([0, 1]), np.array([1, 0]), np.array([0, 1]))
    kern = zr.discrete_kernel(("a", "b"), [[0.3, 0.7], [0.3, 0.7]])
    d = zr.bhattacharyya(kern, pairs)
    assert d.d[0, 1] == 0.0


def test_gaussian_example():
    pairs = zr.FeasiblePairSet(2, np.array([0, 1]), np.array([1, 0]), np.array([0, 1]))
    kern = zr.gaussian_kernel([0.0, 2.0], 1.0)
    d = zr.bhattacharyya(kern, pairs)
    assert d.d[0, 1] == pytest.approx(0.5, abs=1e-15)


def test_discrete_example():
    pairs = zr.FeasiblePairSet(2, np.array([0, 1]), np.array([1, 0]), np.array([0, 1]))
    kern = zr.discrete_kernel(("a", "b"), [[0.9, 0.1], [0.1, 0.9]])
    d = zr.bhattacharyya(kern, pairs)
    assert d.d[0, 1] == pytest.approx(-np.log(0.6), abs=1e-12)
    assert d.d[0, 1] == pytest.approx(0.51083, abs=5e-6)


def test_disjoint_support_infinite_flag():
    pairs = zr.FeasiblePairSet(2, np.array([0, 1]), np.array([1, 0]), np.array([0, 1]))
    kern = zr.discrete_kernel(("a", "b"), [[1.0, 0.0], [0.0, 1.0]])
    d = zr.bhattacharyya(kern, pairs)
    assert np.isinf(d.d[0, 1])
    assert d.has_infinite


def test_matrix_shape_mismatch_rejected():
    pairs = zr.FeasiblePairSet(2, np.array([0, 1]), np.array([1, 0]), np.array([0, 1]))
    kern = zr.gaussian_kernel([0.0, 1.0, 2.0], 1.0)
    with pytest.raises(ValidationError):
        zr.bhattacharyya(kern, pairs)


def test_pmf_row_normalization_tolerance():
    bad = [[0.9, 0.2], [0.1, 0.9]]
    with pytest.raises(ValidationError):
        zr.discrete_kernel(("a", "b"), bad)
    ok = [[1 / 3, 1 / 3, 1 / 3], [0.5, 0.25, 0.25]]
    kern = zr.discrete_kernel(("a", "b", "c"), ok)
    assert np.allclose(kern.pmf.sum(axis=1), 1.0, atol=0)


def test_likelihood_examples():
    pairs = zr.FeasiblePairSet(2, np.array([0, 1]), np.array([1, 0]), np.array([0, 1]))
    kern = zr.discrete_kernel(("a", "b"), [[1.0, 0.0], [0.5, 0.5]])
    assert likelihood(kern, 0, "a") == 0.0
    assert likelihood(kern, 1, "b") == pytest.approx(np.log(0.5))
    assert likelihood(kern, 0, "b") == -np.inf
    with pytest.raises(ValidationError):
        likelihood(kern, 0, "zzz")
    g = zr.gaussian_kernel([0.0], 1.0)
    assert likelihood(g, 0, 0.0) == pytest.approx(-0.5 * np.log(2 * np.pi))


@given(st.floats(-50, 50), st.floats(0.1, 10), st.floats(0.1, 40))
@settings(max_examples=60, deadline=None)
def test_gaussian_invariances(shift, scale, mu):
    pairs = zr.FeasiblePairSet(2, np.array([0, 1]), np.array([1, 0]), np.array([0, 1]))
    base = zr.bhattacharyya(zr.gaussian_kernel([0.0, mu], 1.0), pairs)
    shifted = zr.bhattacharyya(zr.gaussian_kernel([shift, mu + shift], 1.0), pairs)
    scaled = zr.bhattacharyya(
        zr.gaussian_kernel([0.0, scale * mu], scale * scale), pairs)
    assert shifted.d[0, 1] == pytest.approx(base.d[0, 1], rel=1e-12, abs=1e-12)
    assert scaled.d[0, 1] == pytest.approx(base.d[0, 1], rel=1e-9, abs=1e-12)


@st.composite
def pmf_rows(draw):
    n = draw(st.integers(2, 5))
    raw = [draw(st.floats(1e-3, 1.0)) for _ in range(n)]
    total = sum(raw)
    return [v / total for v in raw]


@given(pmf_rows(), pmf_rows())
@settings(max_examples=60, deadline=None)
def test_discrete_nonnegative_zero_iff_identical(row_a, row_b):
    if len(row_a) != len(row_b):
        return
    pairs = zr.FeasiblePairSet(2, np.array([0, 1]), np.array([1, 0]), np.array([0, 1]))
    kern = zr.discrete_kernel(tuple(range(len(row_a))), [row_a, row_b])
    d = zr.bhattacharyya(kern, pairs)
    assert d.d[0, 1] >= 0.0
    # d = -ln(1 - x) with x = (1/2) sum (sqrt a - sqrt b)^2, so x <= d <= x/(1-x):
    # zero for identical rows and of order |a - b|^2 for near-identical ones
    root = np.sqrt(kern.pmf)
    x = 0.5 * float(((root[0] - root[1]) ** 2).sum())
    assert x - 1e-14 <= d.d[0, 1] <= x / (1.0 - x) + 1e-14
    if np.max(np.abs(np.array(row_a) - np.array(row_b))) > 1e-6:
        assert d.d[0, 1] > 0.0


def test_symmetry_and_zero_diagonal():
    _, pairs, kern, d = make_bsc(0.23)
    assert (d.d == d.d.T).all()
    assert (np.diag(d.d) == 0).all()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12),
       st.floats(1e-6, 1e6))
def test_gaussian_matrix_equals_mirrored_construction(means, variance):
    # (a - b)^2 == (b - a)^2 in IEEE arithmetic, so the full matrix needs no
    # mirroring; overflowing differences give +inf on both sides
    L = len(means)
    pairs = zr.FeasiblePairSet(L, np.arange(L), np.roll(np.arange(L), 1), np.zeros(L))
    with np.errstate(over="ignore"):
        d = zr.bhattacharyya(zr.gaussian_kernel(means, variance), pairs)
        ref = gaussian_distances_mirrored(means, variance)
    assert d.d.tobytes() == ref.tobytes()


def test_monte_carlo_coefficient_cross_check():
    # exp(-d(i,j)) = E[sqrt(p_j(Y)/p_i(Y))] under Y ~ p_i
    rng = np.random.default_rng(5)
    p_i = np.array([0.5, 0.3, 0.2])
    p_j = np.array([0.2, 0.2, 0.6])
    pairs = zr.FeasiblePairSet(2, np.array([0, 1]), np.array([1, 0]), np.array([0, 1]))
    kern = zr.discrete_kernel((0, 1, 2), [p_i, p_j])
    d = zr.bhattacharyya(kern, pairs)
    n = 200_000
    y = rng.choice(3, size=n, p=p_i)
    est = np.sqrt(p_j[y] / p_i[y])
    se = est.std(ddof=1) / np.sqrt(n)
    assert np.exp(-d.d[0, 1]) == pytest.approx(est.mean(), abs=4 * se)
