import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zerorate.errors import InfeasibleError
from zerorate.polytope import Polytope

from oracles import project_by_face_enumeration


def test_project_returns_feasible_point():
    a = np.array([[1.0, 1.0, 1.0, 1.0], [1.1, -0.1, -0.3, 1.6], [-1.3, -0.6, -0.5, 0.6]])
    b = a @ np.array([0.11, 0.1, 0.37, 0.42])
    cost = np.array([0.1, 0.5, 0.7, 0.2])
    gamma = 0.45
    y = Polytope(a, b, cost, gamma).project(np.array([-3.8, -1.3, 4.5, 0.8]))
    assert np.abs(a @ y - b).max() <= 1e-9
    assert cost @ y <= gamma + 1e-9


def _violation(a, b, cost, gamma, x):
    viol = max(-x.min(), np.abs(a @ x - b).max())
    return viol if cost is None else max(viol, cost @ x - gamma)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 7),
       case=st.sampled_from(["budget", "redundant", "boundary", "zero_cost", "inside"]),
       seed=st.integers(0, 2 ** 32 - 1))
# a flat polytope where NNLS leaves 1e-10 on coordinates the face pins at 0
@example(n=3, case="boundary", seed=1343526)
def test_project_matches_face_enumeration(n, case, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(int(rng.integers(1, n)), n))
    if case == "redundant":
        a = np.vstack([a, a[0] - 2.0 * a[-1]])
    inner = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.7)
    inner[0] = 0.0 if case == "boundary" else max(inner[0], 0.1)
    inner[-1] = max(inner[-1], 0.1)
    b = a @ inner
    cost, gamma = rng.random(n), 0.0
    if case == "boundary":
        # cost is zero exactly on supp(inner): the budget 0 is the minimum
        cost[inner > 0] = 0.0
    elif case == "zero_cost":
        cost = np.zeros(n)
    else:
        gamma = float(cost @ inner) * (1.0 + rng.random())
    v = inner.copy() if case == "inside" else rng.normal(size=n) * rng.choice([0.1, 1.0, 5.0])
    y = Polytope(a, b, cost, gamma).project(v)
    oracle_cost = None if case == "zero_cost" else cost
    _, dist = project_by_face_enumeration(a, b, v, oracle_cost, gamma)
    assert _violation(a, b, oracle_cost, gamma, y) <= 1e-9
    assert abs(np.linalg.norm(y - v) - dist) <= 1e-10
    if case == "inside":
        assert np.abs(y - inner).max() <= 1e-12


@pytest.mark.parametrize("a, b, cost, gamma", [
    # the budget is below the cheapest point of the simplex
    (np.ones((1, 3)), [1.0], np.array([1.0, 2.0, 3.0]), 0.5),
    # no nonnegative point has a negative total
    (np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]), [-1.0, 0.0], None, 0.0),
    # the equality rows contradict each other
    (np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]), [1.0, 3.0], None, 0.0),
])
def test_project_on_empty_polytope_raises(a, b, cost, gamma):
    with pytest.raises(InfeasibleError):
        Polytope(a, b, cost, gamma).project(np.array([0.2, -0.3, 0.4]))
