import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zerorate as zr
from zerorate import exponent
from zerorate.cli import load_channel
from zerorate.errors import InfeasibleError, UnsupportedChannelError
from zerorate.exponent import component_polytope
from zerorate.polytope import Polytope, maximize_quadratic

from conftest import (NONCONCAVE_DHAT, NONCONCAVE_GAMMA, NONCONCAVE_PHI,
                      make_bsc, make_dmc, make_isi, random_fsc_docs)
from oracles import (balance_rows_loop, dmc_e0_grid, dmc_uce_two_component_grid,
                     hull_concave, plan_cost, plan_value, reduced_matrix_concave,
                     register_polytope_grid)


# ---------------------------------------------------------------- e0 basics

def test_e0_point_mass_is_zero(order1):
    _, pairs = order1
    d = zr.DistanceMatrix(np.array([[0, 1, 1, 1], [1, 0, 1, 1],
                                    [1, 1, 0, 1], [1, 1, 1, 0]], dtype=float))
    q = zr.PairDistribution(pairs, np.array([1.0, 0, 0, 0]))
    assert zr.e0(q, d) == 0.0


def test_e0_isi_uniform_half():
    _, _, pairs, _, d, _ = make_isi([1.0, 1.0])
    q = zr.PairDistribution(pairs, np.full(4, 0.25))
    assert zr.e0(q, d) == pytest.approx(0.5, abs=1e-12)


def test_e0_bsc_uniform():
    _, pairs, _, d = make_bsc(0.1)
    q = zr.PairDistribution(pairs, np.full(4, 0.25))
    assert zr.e0(q, d) == pytest.approx(0.5 * -np.log(0.6), abs=1e-12)
    assert zr.e0(q, d) == pytest.approx(0.25541, abs=5e-6)


def test_e0_infinite_support_aborts(order1):
    _, pairs = order1
    dm = np.ones((4, 4)) - np.eye(4)
    dm[0, 3] = dm[3, 0] = np.inf
    q = zr.PairDistribution(pairs, np.full(4, 0.25))
    with pytest.raises(UnsupportedChannelError):
        zr.e0(q, zr.DistanceMatrix(dm))


@given(st.permutations(list(range(4))), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_e0_permutation_equivariance(perm, seed):
    rng = np.random.default_rng(seed)
    dm = rng.random((4, 4))
    dm = dm + dm.T
    np.fill_diagonal(dm, 0.0)
    q = rng.dirichlet(np.ones(4))
    p = np.asarray(perm)
    val = q @ dm @ q
    val_p = q[p] @ dm[np.ix_(p, p)] @ q[p]
    assert val_p == pytest.approx(val, rel=1e-12)


# ----------------------------------------------------------- concavity test

def test_concavity_squared_error():
    x = np.array([0.0, 1.0, 2.0, 3.5])
    dm = (x[:, None] - x[None, :]) ** 2
    rep = zr.concavity_test(zr.DistanceMatrix(dm))
    assert rep.concave
    # on {sum q = 0}, q^T D q = -2 (x.q)^2: rank one, largest eigenvalue 0
    assert rep.curvature == pytest.approx(0.0, abs=1e-9)


def test_concavity_hamming():
    K = 4
    dm = np.ones((K, K)) - np.eye(K)
    rep = zr.concavity_test(zr.DistanceMatrix(dm))
    assert rep.concave
    # on {sum q = 0}, q^T D q = -|q|^2
    assert rep.curvature == pytest.approx(-1.0, abs=1e-12)


def test_concavity_indefinite_instance():
    # d(1,2) below (sqrt(d13) - sqrt(d23))^2 makes the reduced form indefinite
    dm = np.array([[0.0, 0.5, 9.0],
                   [0.5, 0.0, 4.0],
                   [9.0, 4.0, 0.0]])
    rep = zr.concavity_test(zr.DistanceMatrix(dm))
    assert not rep.concave
    assert rep.curvature > 1e-6


def test_concavity_crafted_dmc_instance():
    rep = zr.concavity_test(zr.DistanceMatrix(NONCONCAVE_DHAT))
    assert not rep.concave
    assert rep.curvature == pytest.approx(0.2, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(L=st.integers(2, 6), scale=st.sampled_from([1e-3, 0.1, 1.0, 10.0]),
       gaussian=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_concavity_test_matches_reduced_matrix_oracle(L, scale, gaussian, seed):
    """Symmetric zero-diagonal D, half of them Gaussian-type (a squared mean
    difference, concave on the simplex), half with uniform entries."""
    rng = np.random.default_rng(seed)
    if gaussian:
        x = rng.normal(size=L)
        dm = scale * (x[:, None] - x[None, :]) ** 2
    else:
        dm = scale * rng.random((L, L))
        dm = dm + dm.T
        np.fill_diagonal(dm, 0.0)
    assert zr.concavity_test(zr.DistanceMatrix(dm)).concave == reduced_matrix_concave(dm)


# ------------------------------------------------------------- feasibility

def test_sccs_register_single_component(order1):
    _, pairs = order1
    comps = zr.feasibility_sccs(pairs)
    assert len(comps) == 1
    assert len(comps[0].arcs) == 4


def test_sccs_two_disjoint_self_loops():
    pairs = zr.FeasiblePairSet(2, np.array([0, 1]), np.array([0, 1]),
                               np.array([0, 0]))
    comps = zr.feasibility_sccs(pairs)
    assert len(comps) == 2
    assert all(len(c.arcs) == 1 for c in comps)


def test_sccs_chain_arc_excluded():
    # self-loops at both states plus the bridge a -> b
    pairs = zr.FeasiblePairSet(2, np.array([0, 0, 1]), np.array([0, 1, 1]),
                               np.array([0, 1, 0]))
    comps = zr.feasibility_sccs(pairs)
    assert len(comps) == 2
    arcs = sorted(int(a) for c in comps for a in c.arcs)
    assert arcs == [0, 2]  # the bridge (index 1) belongs to no component


def test_support_connectivity_flag(order1):
    _, pairs = order1
    disconnected = np.array([0.5, 0.0, 0.0, 0.5])
    connected = np.array([0.25, 0.25, 0.25, 0.25])
    assert not zr.support_is_connected(disconnected, pairs)
    assert zr.support_is_connected(connected, pairs)


# ------------------------------------------------------------- maximize_e0

def test_maximize_bsc_matches_grid_oracle():
    _, pairs, _, d = make_bsc(0.1)
    res = zr.maximize_e0(d, pairs, zr.CostModel.free(2))
    dhat = np.array([[0.0, -np.log(0.6)], [-np.log(0.6), 0.0]])
    oracle, _ = dmc_e0_grid(dhat)
    assert res.concave
    assert res.value == pytest.approx(oracle, abs=1e-6)
    assert res.value == pytest.approx(0.25541, abs=5e-6)
    assert np.allclose(res.argmax.mixture().q, 0.25, atol=1e-6)


def test_maximize_memoryless_gaussian_budget():
    _, _, pairs, _, d, cost = make_isi([1.0], levels=(1.0, -1.0), gamma=1.0)
    res = zr.maximize_e0(d, pairs, cost)
    assert res.value == pytest.approx(0.25, abs=1e-9)
    assert np.allclose(res.argmax.mixture().q, 0.25, atol=1e-5)


def test_maximize_two_scc_budget_selects_feasible_component():
    # two disjoint 2-cycles; the first is expensive, the second free
    tails = np.array([0, 1, 2, 3])
    heads = np.array([1, 0, 3, 2])
    symbols = np.array([0, 0, 1, 1])
    pairs = zr.FeasiblePairSet(4, tails, heads, symbols)
    dm = np.zeros((4, 4))
    dm[0, 1] = dm[1, 0] = 5.0   # the expensive cycle would be better
    dm[2, 3] = dm[3, 2] = 1.0
    cost = zr.CostModel(np.array([10.0, 0.0]), 1.0)
    res = zr.maximize_e0(zr.DistanceMatrix(dm), pairs, cost)
    assert res.scc_id == 1
    assert res.value == pytest.approx(0.5, abs=1e-8)  # uniform on the 2-cycle
    free = zr.CostModel(np.array([10.0, 0.0]), 100.0)
    res2 = zr.maximize_e0(zr.DistanceMatrix(dm), pairs, free)
    assert res2.scc_id == 0
    assert res2.value == pytest.approx(2.5, abs=1e-8)


def test_maximize_infeasible_budget_raises():
    _, _, pairs, _, d, _ = make_isi([1.0, 0.5])
    cost = zr.CostModel(np.array([1.0, 1.0]), 0.5)  # every arc costs 1
    with pytest.raises(InfeasibleError):
        zr.maximize_e0(d, pairs, cost)


def test_failed_projection_on_a_nonempty_concave_component_raises(monkeypatch):
    # the concave solve tests emptiness by projecting; a failed projection
    # skips the component only when the LP finds the polytope empty too
    _, _, pairs, _, d, cost = make_isi([1.0, 0.5])

    def fail(self, x):
        raise InfeasibleError("projection failed")

    monkeypatch.setattr(Polytope, "project", fail)
    with pytest.raises(InfeasibleError, match="projection failed"):
        zr.maximize_e0(d, pairs, cost)


def test_maximize_unsupported_on_infinite():
    pairs = zr.FeasiblePairSet(2, np.array([0, 1]), np.array([1, 0]),
                               np.array([0, 1]))
    dm = np.array([[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(UnsupportedChannelError):
        zr.maximize_e0(zr.DistanceMatrix(dm), pairs, zr.CostModel.free(2))


def test_degenerate_single_arc_value_zero():
    pairs = zr.FeasiblePairSet(1, np.array([0]), np.array([0]), np.array([0]))
    d = zr.DistanceMatrix(np.zeros((1, 1)))
    res = zr.maximize_e0(d, pairs, zr.CostModel.free(1))
    assert res.value == 0.0
    assert res.argmax.mixture().q[0] == 1.0


def test_register_solver_matches_dense_scan():
    _, _, pairs, _, d, cost = make_isi([1.0, 0.4])
    res = zr.maximize_e0(d, pairs, cost)
    oracle, _ = register_polytope_grid(d.d, res=1024)
    assert res.value == pytest.approx(oracle, abs=1e-4)


# ------------------------------------------- concavity on the feasible set

@pytest.mark.parametrize("spec", ["specs/bsc.json", "specs/isi_two_tap.json",
                                  "bench/specs/quantized_two_tap.json",
                                  "bench/specs/time_sharing.json"])
def test_balance_rows_match_loop_reference(spec):
    """Bit for bit, row order and zero self-loop columns included: the
    polytope's SVD, and so every artifact, depends on these rows."""
    pairs = load_channel(json.loads((Path(__file__).resolve().parent.parent
                                     / spec).read_text())).pairs
    rng = np.random.default_rng(0)
    subsets = [np.arange(len(pairs))] + [c.arcs for c in zr.feasibility_sccs(pairs)]
    subsets += [np.sort(rng.choice(len(pairs), 3, replace=False)) for _ in range(10)]
    for arcs in subsets:
        rows, ref = component_polytope(pairs, arcs).a_eq[1:], balance_rows_loop(pairs, arcs)
        assert rows.shape == ref.shape and rows.tobytes() == ref.tobytes()


@settings(max_examples=30, deadline=None)
@given(doc=random_fsc_docs())
def test_concave_flag_is_concavity_on_the_hull(doc):
    ch = load_channel(doc)
    d = zr.bhattacharyya(ch.kernel, ch.pairs)
    comps = zr.feasibility_sccs(ch.pairs)
    for cid, comp in enumerate(comps):
        # infinite blocks on the other components leave this one the only one solved
        dm = d.d.copy()
        for j, other in enumerate(comps):
            if j != cid:
                dm[np.ix_(other.arcs, other.arcs)] = np.inf
        try:
            res = zr.maximize_e0(zr.DistanceMatrix(dm), ch.pairs, ch.cost, starts=4)
        except (InfeasibleError, UnsupportedChannelError):
            continue  # no arcs, an infinite distance or over budget: not solved
        assert res.scc_id == cid
        assert res.concave == hull_concave(ch.pairs, comp.arcs, d.d)


# A 3-state, 3-symbol channel whose one component is not concave on its hull
# and whose budget binds, so maximize_uce solves it. HiGHS's weight LP puts
# its weight on coarser sweep samples, worth about 1e-7 less than the solve
# at gamma alone.
_UCE_PMF = {
    "s0": {"x0": [0.019275, 0.207365, 0.698036, 0.075324],
           "x1": [0.258217, 0.261771, 0.174537, 0.305475],
           "x2": [0.09705, 0.238691, 0.602621, 0.061638]},
    "s1": {"x0": [0.704296, 0.014839, 0.064723, 0.216142],
           "x1": [0.133379, 0.067694, 0.701177, 0.09775],
           "x2": [0.034558, 0.437859, 0.427786, 0.099797]},
    "s2": {"x0": [0.182618, 0.130471, 0.32131, 0.365601],
           "x1": [0.447568, 0.146208, 0.036619, 0.369605],
           "x2": [0.098753, 0.256446, 0.476945, 0.167856]},
}
UCE_GAP_DOC = {"fsc": {
    "states": ["s0", "s1", "s2"], "alphabet": ["x0", "x1", "x2"],
    "next_state": {"s0": {"x0": "s1", "x1": "s2", "x2": "s1"},
                   "s1": {"x0": "s0", "x1": "s1", "x2": "s1"},
                   "s2": {"x0": "s1", "x1": "s1", "x2": "s1"}},
    "kernel": {"kind": "discrete", "outputs": ["y0", "y1", "y2", "y3"], "pmf": _UCE_PMF},
    "cost": {"phi": {"x0": 2.0, "x1": 1.0, "x2": 1.0}, "gamma": 1.159566}}}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_uce_value_is_never_below_its_single_solve(seed):
    ch = load_channel(UCE_GAP_DOC)
    res = zr.maximize_e0(zr.bhattacharyya(ch.kernel, ch.pairs), ch.pairs, ch.cost, seed=seed)
    assert not res.concave
    assert res.value >= res.single_value
    assert len(res.argmax.components) == 1 and res.argmax.anchor == 0


@settings(max_examples=30, deadline=None)
@given(doc=random_fsc_docs())
def test_value_is_at_least_single_value(doc):
    ch = load_channel(doc)
    d = zr.bhattacharyya(ch.kernel, ch.pairs)
    try:
        res = zr.maximize_e0(d, ch.pairs, ch.cost, starts=8)
    except (InfeasibleError, UnsupportedChannelError):
        return  # no component has arcs, finite distances and a point within budget
    assert res.value >= res.single_value


# A binary register (state = last symbol) with hand-picked output rows. E0 is
# not concave on the simplex but is on the hull {sum 1, balanced} of its one
# component, and the budget 0.3 binds: the pair costs run from 0 to 1.
_HULL_ROWS = {"a": {"a": [0.05, 0.85, 0.1], "b": [0.6, 0.05, 0.35]},
              "b": {"a": [0.4, 0.55, 0.05], "b": [0.1, 0.1, 0.8]}}
HULL_CONCAVE_DOC = {"fsc": {
    "states": ["a", "b"], "alphabet": ["a", "b"],
    "next_state": {"a": {"a": "a", "b": "b"}, "b": {"a": "a", "b": "b"}},
    "recover": {"a": "a", "b": "b"},
    "kernel": {"kind": "discrete", "outputs": ["y0", "y1", "y2"], "pmf": _HULL_ROWS},
    "cost": {"phi": {"a": 1.0, "b": 0.0}, "gamma": 0.3}}}


def test_hull_concave_component_needs_no_time_sharing(monkeypatch):
    ch = load_channel(HULL_CONCAVE_DOC)
    d = zr.bhattacharyya(ch.kernel, ch.pairs)
    poly = component_polytope(ch.pairs, np.arange(4), ch.cost)
    assert not zr.concavity_test(d).concave
    assert hull_concave(ch.pairs, np.arange(4), d.d)
    assert ch.cost.pair_costs(ch.pairs).max() > ch.cost.gamma  # the a->a loop is feasible

    def refuse(*args, **kwargs):
        raise AssertionError("maximize_uce ran on a component concave on its hull")

    monkeypatch.setattr(exponent, "maximize_uce", refuse)
    res = zr.maximize_e0(d, ch.pairs, ch.cost)
    assert res.concave
    rng = np.random.default_rng(0)
    step = 1.0 / (2.0 * np.linalg.norm(d.d, 2))
    best = max(maximize_quadratic(d.d, poly, rng.dirichlet(np.ones(4)), step, 0.0)[1]
               for _ in range(64))
    assert res.value >= best - 1e-9


# ------------------------------------------------------------- maximize_uce

def test_uce_degenerates_when_concave():
    _, pairs, _, d = make_bsc(0.1)
    res = zr.maximize_e0(d, pairs, zr.CostModel.free(2))
    assert res.single_value == pytest.approx(res.value, abs=1e-8)
    assert len(res.argmax.components) == 1


def test_uce_beats_single_on_crafted_instance():
    m, pairs, d, cost = make_dmc(NONCONCAVE_DHAT, phi=NONCONCAVE_PHI,
                                 gamma=NONCONCAVE_GAMMA)
    res = zr.maximize_e0(d, pairs, cost)
    assert not res.concave
    assert res.value > res.single_value + 0.05
    oracle = dmc_uce_two_component_grid(NONCONCAVE_DHAT, NONCONCAVE_PHI,
                                        NONCONCAVE_GAMMA, res=64)
    assert res.value == pytest.approx(oracle, abs=1e-4)
    # mixture meets the budget
    assert plan_cost(res.argmax, cost) <= cost.gamma + 1e-9


@pytest.mark.xfail(strict=True, reason="maximize_uce stops at 0.2388531 on the time-sharing "
                   "spec; a feasible two-segment plan reaches 0.2389220 (ROADMAP item 3)")
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_time_sharing_value_reaches_explicit_plan(seed):
    doc = json.loads((Path(__file__).resolve().parent.parent
                      / "bench/specs/time_sharing.json").read_text())
    ch = load_channel(doc)
    d = zr.bhattacharyya(ch.kernel, ch.pairs)
    labels = ch.pairs.pair_labels()

    def dist(entries):
        q = np.zeros(len(ch.pairs))
        for label, mass in entries.items():
            q[labels.index(label)] = mass
        return zr.PairDistribution(ch.pairs, q)

    rich = dist({"A->A": 0.5, "B->B": 0.5})           # cost 1 per use
    cheap = dist({"B->B": 0.011, "C->C": 0.989})      # cost 0.011 per use
    costs = ch.cost.pair_costs(ch.pairs)
    w = (ch.cost.gamma - costs @ cheap.q) / (costs @ rich.q - costs @ cheap.q)
    plan = zr.TimeSharingPlan(np.array([w, 1.0 - w]), (rich, cheap), anchor=0)
    assert plan_cost(plan, ch.cost) <= ch.cost.gamma + 1e-12
    res = zr.maximize_e0(d, ch.pairs, ch.cost, seed=seed)
    assert res.value >= plan_value(plan, d) - 1e-12


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_uce_reaches_two_component_oracle_on_skewed_dmc():
    """A non-concave 3-symbol channel with a binding budget where the
    sampled value-versus-cost curve misses the best two-segment mixture:
    maximize_e0 gives 0.4758645, the grid oracle 0.4788713."""
    dhat = np.array([[0.0, 0.0286, 1.6697], [0.0286, 0.0, 0.0338], [1.6697, 0.0338, 0.0]])
    phi, gamma = np.array([1.0, 0.0, 2.0]), 0.836
    _, pairs, d, cost = make_dmc(dhat, phi=phi, gamma=gamma)
    res = zr.maximize_e0(d, pairs, cost)
    assert res.value >= dmc_uce_two_component_grid(dhat, phi, gamma, res=64) - 1e-4


def test_uce_upper_bounds_single_always():
    m, pairs, d, cost = make_dmc(NONCONCAVE_DHAT, phi=NONCONCAVE_PHI, gamma=0.8)
    res = zr.maximize_e0(d, pairs, cost)
    assert res.value >= res.single_value - 1e-9


def test_uce_infeasible_below_cheapest():
    m, pairs, d, _ = make_dmc(NONCONCAVE_DHAT, phi=np.array([1.0, 1.0, 1.0]),
                              gamma=0.5)
    cost = zr.CostModel(np.array([1.0, 1.0, 1.0]), 0.5)
    with pytest.raises(InfeasibleError):
        zr.maximize_e0(d, pairs, cost)


@given(st.floats(0.0, 1.0))
@settings(max_examples=12, deadline=None)
def test_uce_plan_meets_budget_and_dominates_single(gamma):
    """On the non-concave instance at any budget, the plan's own value is
    the reported value, its cost is within budget, and it is no worse than
    the best single distribution."""
    _, pairs, d, cost = make_dmc(NONCONCAVE_DHAT, phi=NONCONCAVE_PHI, gamma=gamma)
    res = zr.maximize_e0(d, pairs, cost)
    assert res.value >= res.single_value - 1e-9
    assert plan_cost(res.argmax, cost) <= gamma + 1e-9
    assert abs(plan_value(res.argmax, d) - res.value) <= 1e-9


# --------------------------------------------------------------- invariants

def test_certificate_value_dominates_feasible_points():
    rng = np.random.default_rng(3)
    _, _, p2, _, d, cost = make_isi([1.0, 0.7])
    res = zr.maximize_e0(d, p2, cost)
    poly = component_polytope(p2, np.arange(4), cost)
    for _ in range(25):
        q = poly.project(rng.dirichlet(np.ones(4)))
        assert res.value >= q @ d.d @ q - 1e-8


def test_scaling_invariance():
    _, _, pairs, _, d, cost = make_isi([1.0, 0.5])
    res = zr.maximize_e0(d, pairs, cost)
    scaled = zr.maximize_e0(zr.DistanceMatrix(3.0 * d.d), pairs, cost)
    assert scaled.value == pytest.approx(3.0 * res.value, rel=1e-7)


def test_budget_monotonicity():
    vals = []
    for gamma in (0.2, 0.5, 0.8):
        m, pairs, d, cost = make_dmc(NONCONCAVE_DHAT, phi=NONCONCAVE_PHI,
                                     gamma=gamma)
        vals.append(zr.maximize_e0(d, pairs, cost).value)
    assert vals[0] <= vals[1] + 1e-9 <= vals[2] + 2e-9


def test_pair_distribution_validation(order1):
    _, pairs = order1
    with pytest.raises(zr.ValidationError):
        zr.PairDistribution(pairs, np.array([0.5, 0.5, 0.5, 0.5]))  # sum 2
    with pytest.raises(zr.ValidationError):
        zr.PairDistribution(pairs, np.array([0.5, 0.5, -0.5, 0.5]))
    with pytest.raises(zr.ValidationError):
        zr.PairDistribution(pairs, np.array([0.5, 0.3, 0.1, 0.1]))  # marginals
    q = zr.PairDistribution(pairs, np.array([0.4, 0.1, 0.1, 0.4]))
    assert np.allclose(q.pi, [0.5, 0.5])
