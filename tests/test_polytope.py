import json
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zerorate as zr
from zerorate import codebook, exponent, polytope
from zerorate.cli import load_channel, run
from zerorate.errors import InfeasibleError, ValidationError
from zerorate.polytope import Polytope, _lawson_hanson

from conftest import DEGENERATE_NNLS_DOC, cli_out, duplicate_symbol
from oracles import project_by_face_enumeration


def test_project_returns_feasible_point():
    a = np.array([[1.0, 1.0, 1.0, 1.0], [1.1, -0.1, -0.3, 1.6], [-1.3, -0.6, -0.5, 0.6]])
    b = a @ np.array([0.11, 0.1, 0.37, 0.42])
    cost = np.array([0.1, 0.5, 0.7, 0.2])
    gamma = 0.45
    y = Polytope(a, b, cost, gamma).project(np.array([-3.8, -1.3, 4.5, 0.8]))
    assert np.abs(a @ y - b).max() <= 1e-9
    assert cost @ y <= gamma + 1e-9


def test_linear_range_leaves_the_budget_out():
    a = np.array([[1.0, 1.0, 1.0]])
    cost = np.array([0.0, 1.0, 2.0])
    assert Polytope(a, [1.0], cost, 0.5).linear_range(cost) == (0.0, 2.0)


def test_linear_range_of_a_constant_cost_is_exact():
    # every c in the row space of A is constant on {A x = b}: its range is
    # that one value, and an empty orthant part still raises
    a = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 0.0, 0.0]])
    poly = Polytope(a, [1.0, 0.2], np.array([0.0, 1.0, 2.0, 3.0]), 0.5)
    for c, value in ((np.ones(4), 1.0), (2.0 * a[0] + 3.0 * a[1], 2.6), (np.zeros(4), 0.0)):
        lo, hi = poly.linear_range(c)
        assert lo == pytest.approx(value, abs=1e-9) and hi == pytest.approx(value, abs=1e-9)
    with pytest.raises(InfeasibleError):
        Polytope(a[:1], [-1.0]).linear_range(np.ones(4))


BENCH_SPECS = Path(__file__).resolve().parent.parent / "bench" / "specs"


def count_programs(monkeypatch) -> list:
    """Spy on the one HiGHS entry point at every binding of it: the returned
    list gains 'lp' or 'milp' per program run."""
    highs, calls = polytope._highs, []

    def counted(c, a, lb, ub, upper=None, integrality=None, **kwargs):
        calls.append("lp" if integrality is None else "milp")
        return highs(c, a, lb, ub, upper, integrality, **kwargs)

    for module in (polytope, exponent, codebook):
        monkeypatch.setattr(module, "_highs", counted)
    return calls


def test_optimize_on_a_constant_cost_runs_one_lp(monkeypatch, capsys):
    # quantized_two_tap's arcs all cost 1: its non-concave component needs
    # the cheapest feasible point, and maximize_e0 runs no LP for the range
    # of a cost constant on the hull
    calls = count_programs(monkeypatch)
    assert run(["optimize", "--spec", str(BENCH_SPECS / "quantized_two_tap.json")]) == 0
    capsys.readouterr()
    assert calls == ["lp"]


@pytest.mark.parametrize("argv, code, programs", [
    # the cheapest feasible point, the two range LPs and the weight LP
    (["optimize"], 0, ["lp"] * 4),
    # the same four, then one rounding MILP per plan segment; the rounded
    # types then exceed the budget (the bench's known failure)
    (["build-code", "--n", "512", "--codewords", "8"], 2, ["lp"] * 4 + ["milp"] * 2),
])
def test_time_sharing_programs(monkeypatch, capsys, argv, code, programs):
    calls = count_programs(monkeypatch)
    spec = str(BENCH_SPECS / "time_sharing.json")
    assert run([argv[0], "--spec", spec, *argv[1:]]) == code
    capsys.readouterr()
    assert calls == programs


@pytest.mark.parametrize("spec", ["quantized_two_tap.json", "time_sharing.json"])
def test_a_solver_failure_is_not_an_empty_polytope(monkeypatch, capsys, spec):
    """HiGHS status 4 (numerical difficulties) on the first LP is a failed
    solve, not an empty polytope: maximize_e0 must not skip the component."""
    linprog = scipy.optimize.linprog

    def failing(*args, **kwargs):
        res = linprog(*args, **kwargs)
        res.status, res.success, res.message = 4, False, "forced status 4"
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", failing)
    ch = load_channel(json.loads((BENCH_SPECS / spec).read_text()))
    with pytest.raises(ValidationError, match="forced status 4"):
        zr.maximize_e0(zr.bhattacharyya(ch.kernel, ch.pairs), ch.pairs, ch.cost)
    assert run(["optimize", "--spec", str(BENCH_SPECS / spec)]) == 1
    assert "forced status 4" in capsys.readouterr().err


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


def _case_polytope(case, n, rng):
    """(a, b, cost or None, gamma) of one warm-path case on n coordinates."""
    if case == "digraph":
        # balance rows of a random digraph on 3 states with a self-loop at
        # state 0; the cheap budget pushes the point onto few arcs, so most
        # states keep no free arc and their balance rows vanish on the face
        tails = np.concatenate([[0], rng.integers(0, 3, n - 1)])
        heads = np.concatenate([[0], rng.integers(0, 3, n - 1)])
        bal = (tails == np.arange(3)[:, None]).astype(float) - (heads == np.arange(3)[:, None])
        a = np.vstack([np.ones(n), bal])
        b = np.zeros(4)
        b[0] = 1.0
        cost = rng.random(n)
        cost[0] = 0.0
        return a, b, cost, float(rng.uniform(0.0, 0.3) * cost.mean())
    if case == "cone":
        # {x >= 0, A x = 0} without a cost; with n independent rows it is
        # {0}, whose projection pins every coordinate and has no multipliers
        a = rng.normal(size=(int(rng.integers(1, n + 1)), n))
        return a, np.zeros(len(a)), np.zeros(n), 0.0
    inner = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.7)
    inner[-1] = max(inner[-1], 0.1)
    if case == "boundary":
        # as many generic rows as support coordinates, and a cost that is
        # zero exactly on the support at budget 0: the polytope is {inner}
        inner[0] = 0.0
        a = rng.normal(size=(int((inner > 0).sum()), n))
        cost = rng.random(n)
        cost[inner > 0] = 0.0
        return a, a @ inner, cost, 0.0
    inner[0] = max(inner[0], 0.1)
    a = rng.normal(size=(int(rng.integers(1, n)), n))
    if case == "redundant":
        a = np.vstack([a, a[0] - 2.0 * a[-1]])
    if case == "zero_cost":
        return a, a @ inner, np.zeros(n), 0.0
    cost = rng.random(n)
    return a, a @ inner, cost, float(cost @ inner) * (1.0 + rng.random())


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6),
       case=st.sampled_from(["budget", "redundant", "boundary", "zero_cost", "digraph",
                             "cone"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_warm_projections_match_a_cold_solve(n, case, seed):
    """A sequence of projections on one polytope, as projected gradient
    makes them (small steps along a fixed quadratic's gradient, with random
    jumps and, where there is a budget, moves to sibling budgets), returns
    what a fresh polytope returns, and the exact projection."""
    rng = np.random.default_rng(seed)
    a, b, cost, gamma = _case_polytope(case, n, rng)
    poly = Polytope(a, b, cost, gamma)
    oracle_cost = cost if cost.any() else None
    dmat = rng.normal(size=(n, n))
    dmat = dmat + dmat.T
    x = rng.dirichlet(np.ones(n))
    for _ in range(12):
        if oracle_cost is not None and case != "boundary" and rng.random() < 0.15:
            gamma *= rng.uniform(0.9, 1.1)
            poly = poly.at_budget(gamma)
        if rng.random() < 0.2:
            v = rng.normal(size=n) * rng.choice([0.1, 1.0, 5.0])
        else:
            v = x + 0.05 * (dmat @ x)
        try:
            fresh = Polytope(a, b, cost, gamma).project(v)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                poly.project(v)
            continue
        x = poly.project(v)
        assert np.abs(x - fresh).max() <= 1e-12
        _, dist = project_by_face_enumeration(a, b, v, oracle_cost, gamma)
        assert _violation(a, b, oracle_cost, gamma, x) <= 1e-9
        assert abs(np.linalg.norm(x - v) - dist) <= 1e-10
        # zero coordinates carry no roundoff dust
        assert ((x == 0.0) | (x > 1e-13)).all()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), case=st.sampled_from(["budget", "redundant", "digraph", "cone"]),
       warm=st.sampled_from([1, 3, 30]), seed=st.integers(0, 2 ** 32 - 1))
def test_cache_screen_keeps_every_piece_a_full_check_accepts(n, case, warm, seed):
    """The cache's one-product screen passes every piece whose certificate
    holds, so its lookup returns the point of checking every cached piece
    in full, most recently used first, in caches of one piece to dozens."""
    rng = np.random.default_rng(seed)
    a, b, cost, gamma = _case_polytope(case, n, rng)
    poly = Polytope(a, b, cost, gamma)
    try:
        for _ in range(warm):
            poly.project(rng.normal(size=n) * rng.choice([0.1, 1.0, 5.0]))
    except InfeasibleError:
        return
    cache = poly._pieces
    for _ in range(30):
        v = rng.normal(size=n) * rng.choice([0.1, 1.0, 5.0])
        ext = np.concatenate([v, (1.0, gamma)])
        scale = max(1.0, float(np.abs(ext).max()))
        points = (cache.pieces[i].point(ext, scale, n) for i in np.argsort(-cache.used))
        full = next((x for x in points if x is not None), None)
        found = cache.find(ext, scale, n)
        assert (found is None) == (full is None)
        assert found is None or np.array_equal(found, full)


def test_optimize_reuses_pieces_instead_of_nnls(monkeypatch, tmp_path):
    """Projected gradient on specs/isi_two_tap.json stays on a few faces, so
    almost every projection is a cached piece's certified affine map."""
    from zerorate import cli, polytope

    calls = {"nnls": 0, "project": 0}
    nnls, project = polytope._lawson_hanson, Polytope.project

    def counting_nnls(*args, **kwargs):
        calls["nnls"] += 1
        return nnls(*args, **kwargs)

    def counting_project(self, x):
        calls["project"] += 1
        return project(self, x)

    monkeypatch.setattr(polytope, "_lawson_hanson", counting_nnls)
    monkeypatch.setattr(Polytope, "project", counting_project)
    spec = Path(__file__).resolve().parent.parent / "specs" / "isi_two_tap.json"
    assert cli.run(["optimize", "--spec", str(spec), "--out", str(tmp_path / "o.json")]) == 0
    assert calls["project"] > 100
    assert calls["nnls"] <= 0.1 * calls["project"]


def test_projection_survives_a_wrong_nnls_point():
    """On this spec scipy 1.17.1's NNLS reported a zero residual for a
    point that violates the least-distance program by 0.64 at both slacks;
    the in-package NNLS projects instead of declaring the polytope empty."""
    doc = duplicate_symbol(DEGENERATE_NNLS_DOC, "x0")
    code, text = cli_out(doc, "optimize")
    assert code == 0
    assert json.loads(text)["value"] == pytest.approx(0.3781149578502, abs=1e-12)
    assert cli_out(doc, "uce")[0] == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 16), st.booleans(), st.integers(0, 2**32 - 1))
def test_lawson_hanson_meets_the_nnls_optimality_conditions(m, n, parallel, seed):
    """The NNLS returns w >= 0 with the KKT conditions of min |e w - f|:
    zero gradient where w > 0, nonnegative where w = 0, from a cold start
    and warm-started from a random passive set; half the draws make the
    first columns parallel, a degenerate program."""
    rng = np.random.default_rng(seed)
    e, f = rng.normal(size=(m, n)), rng.normal(size=m)
    if parallel:
        e[:, :(n + 1) // 2] = np.outer(e[:, 0], rng.uniform(0.5, 2.0, (n + 1) // 2))
    start = np.flatnonzero(rng.random(n) < 0.5)
    for w in (_lawson_hanson(e, f, 10 * n), _lawson_hanson(e, f, 10 * n, start)):
        grad = e.T @ (e @ w - f)
        assert (w >= 0).all()
        assert np.abs(grad[w > 0]).max(initial=0.0) <= 1e-9
        assert grad.min() >= -1e-9
