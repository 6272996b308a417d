import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
# round_type imports scipy.optimize on its first call; load it here, so the
# import does not count against the property test's deadline
import scipy.optimize  # noqa: F401
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zerorate as zr
from zerorate import codebook
from zerorate.cli import load_channel, run
from zerorate.codebook import CandidateSet, pairwise_path_distances
from zerorate.errors import ValidationError

from conftest import make_isi
from oracles import (count_euler_circuits, greedy_rotations,
                     pairwise_path_distances_loop, round_type_enumerated,
                     round_type_greedy, spread_rotations_by_roll)

ROOT = Path(__file__).resolve().parent.parent


def reg_q(a, b):
    return np.array([a, b, b, 1.0 - a - 2 * b])


def check_type(spec, n, q):
    pairs = spec.pairs
    assert spec.counts.sum() == n
    out_d = np.bincount(pairs.tails, weights=spec.counts, minlength=pairs.n_states)
    in_d = np.bincount(pairs.heads, weights=spec.counts, minlength=pairs.n_states)
    assert (out_d == in_d).all()
    assert np.abs(spec.counts - n * q).max() <= len(pairs)


# ---------------------------------------------------------------- round_type

# order-2 binary register: a 2-cycle and a 3-cycle through one state
TWO_CYCLES_Q = (0.0, 0.18, 0.41, 0.0, 0.18, 0.23, 0.0, 0.0)


def test_round_failures_name_no_total_that_fails(order2):
    # every length from the support size up has a type, including those the
    # greedy repairs refused (19, 20, 36, 37, 41, 42, 58 and 59), and a
    # failure that suggests another total must name one that rounds
    _, pairs = order2
    q = zr.PairDistribution(pairs, np.array(TWO_CYCLES_Q))
    failed = []
    for n in range(4, 120):
        try:
            zr.round_type(q, n)
        except ValidationError as exc:
            failed.append(n)
            for total in re.findall(r"\d+", str(exc).partition("adjust n")[2]):
                zr.round_type(q, int(total))
    assert not {19, 20, 36, 37, 41, 42, 58, 59} & set(failed)
    assert zr.round_type(q, 19).counts[q.support()].tolist() == [3, 8, 3, 5]


def test_round_exact_rationals_uniform(order1):
    _, pairs = order1
    q = zr.PairDistribution(pairs, np.full(4, 0.25))
    spec = zr.round_type(q, 8)
    assert spec.counts.tolist() == [2, 2, 2, 2]


def test_round_exact_rationals_asymmetric(order1):
    _, pairs = order1
    q = zr.PairDistribution(pairs, np.array([0.3, 0.2, 0.2, 0.3]))
    spec = zr.round_type(q, 10)
    assert spec.counts.tolist() == [3, 2, 2, 3]


def test_round_inexact_balanced_within_bound(order1):
    _, pairs = order1
    qv = np.array([0.35, 0.15, 0.15, 0.35])
    q = zr.PairDistribution(pairs, qv)
    spec = zr.round_type(q, 10)
    check_type(spec, 10, qv)


def test_round_rejects_small_n(order1):
    _, pairs = order1
    q = zr.PairDistribution(pairs, np.full(4, 0.25))
    with pytest.raises(ValidationError):
        zr.round_type(q, 3)


def test_round_rejects_unreachable_total():
    # a 3-cycle only carries totals that are multiples of 3
    pairs = zr.FeasiblePairSet(3, np.array([0, 1, 2]), np.array([1, 2, 0]),
                               np.array([0, 0, 0]))
    q = zr.PairDistribution(pairs, np.full(3, 1 / 3))
    spec = zr.round_type(q, 9)
    assert spec.counts.tolist() == [3, 3, 3]
    with pytest.raises(ValidationError):
        zr.round_type(q, 10)


def test_round_breaks_residual_ties_toward_cheap_arcs():
    # three symbols, the third free: mostly its self-loop plus a uniform
    # blend, so every other arc carries the same fractional residual
    m = zr.shift_register([1.0, -1.0, 0.0], 1)
    pairs = zr.feasible_pairs(m)
    arc_cost = zr.CostModel(np.array([1.0, 1.0, 0.0]), 1.0).pair_costs(pairs)
    theta = 9.0 / 256.0
    q = np.full(len(pairs), theta / len(pairs))
    q[pairs.pair_labels().index("0->0")] += 1.0 - theta
    q = zr.PairDistribution(pairs, q)
    spec = zr.round_type(q, 358, arc_cost)
    check_type(spec, 358, q.q)
    # the floors cost 6; three more units must go to arcs off the free
    # self-loop, each cycle of them enters a costed state, and two cycles
    # suffice; without costs the tie falls anywhere, and the cost-aware type
    # is as close to n q and no dearer
    assert arc_cost @ spec.counts == 8.0
    plain = zr.round_type(q, 358)
    assert np.abs(spec.counts - 358 * q.q).sum() == pytest.approx(
        np.abs(plain.counts - 358 * q.q).sum(), abs=1e-9)
    assert arc_cost @ spec.counts <= arc_cost @ plain.counts


def test_round_type_takes_an_integral_balanced_type_without_a_program(monkeypatch):
    """gauss-sim's argmax (specs/isi_binary.json) blended at n = 512 is
    n q = (254, 2, 2, 254), already a balanced type of total n: it is the
    type, and no integer program runs."""
    _, m, pairs, _, d, cost = make_isi([1.0, 0.5])
    res = zr.maximize_e0(d, pairs, cost)
    q, _, _ = zr.blend_for_construction(res.argmax.mixture(), None, 512)

    def no_program(*args, **kwargs):
        raise AssertionError("milp called")

    monkeypatch.setattr(scipy.optimize, "milp", no_program)
    assert zr.round_type(q, 512, cost.pair_costs(pairs)).counts.tolist() == [254, 2, 2, 254]


def test_round_type_ignores_roundoff_on_symmetric_argmax():
    """isi_long's argmax is 1/4 on each constant-state self-loop. Blended at
    n = 64 every arc of n q has fractional part 1/2, so a huge set of
    types ties in L1 deviation; a 5e-16 perturbation, the size of solver
    roundoff, must not choose among them."""
    _, m, pairs, _, _, cost = make_isi([1.0, 0.5, 0.25], levels=(3.0, 1.0, -1.0, -3.0),
                                       gamma=5.0)
    loops = np.nonzero(pairs.tails == pairs.heads)[0]
    assert len(loops) == 4 and len(pairs) == 64
    arc_cost = cost.pair_costs(pairs)

    def rounded(noise):
        q = np.zeros(len(pairs))
        q[loops] = 0.25 + noise
        blended, _, theta = zr.blend_for_construction(zr.PairDistribution(pairs, q), None, 64)
        assert theta == 0.5
        return zr.round_type(blended, 64, arc_cost).counts

    exact = rounded(0.0)
    rng = np.random.default_rng(0)
    for _ in range(40):
        assert np.array_equal(rounded(rng.choice([-5e-16, 0.0, 5e-16], size=4)), exact)


def test_most_visited_ignores_roundoff(order1):
    _, pairs = order1
    q = zr.PairDistribution(pairs, np.array([0.5 - 1e-16, 0.0, 0.0, 0.5 + 1e-16]))
    assert q.most_visited() == 0
    q = zr.PairDistribution(pairs, np.array([0.4, 0.0, 0.0, 0.6]))
    assert q.most_visited() == 1


def test_round_random_circulations(order2):
    _, pairs = order2
    rng = np.random.default_rng(12)
    from zerorate.exponent import component_polytope
    poly = component_polytope(pairs, np.arange(len(pairs)))
    for trial in range(40):
        q = poly.project(rng.dirichlet(np.ones(len(pairs))))
        q = 0.9 * q + 0.1 / len(pairs)  # keep the support connected
        q = zr.PairDistribution(pairs, q)
        n = int(rng.integers(len(pairs), 200))
        spec = zr.round_type(q, n)
        check_type(spec, n, q.q)


@pytest.mark.parametrize("n, counts", [(10, [4, 1, 1, 4]), (11, [4, 1, 1, 5])])
def test_round_repairs_a_disconnected_rounding(order1, n, counts):
    # the nearest balanced counts leave only the two self-loops positive;
    # the connected optimum adds the cycle 0 -> 1 -> 0 and takes its length
    # back from them
    _, pairs = order1
    qv = np.array([0.495, 0.005, 0.005, 0.495])
    spec = zr.round_type(zr.PairDistribution(pairs, qv), n)
    assert spec.counts.tolist() == counts
    check_type(spec, n, qv)


@st.composite
def register_roundings(draw):
    """A binary shift register of order 1-3 and a sparse balanced q on it: a
    weighted sum of up to three closed walks through the all-zeros state,
    so its support is strongly connected."""
    order = draw(st.integers(1, 3))
    m = zr.shift_register([1.0, -1.0], order)
    lookup = zr.feasible_pairs(m).index_lookup()
    home = 0
    for _ in range(order):
        home = int(m.next_state[home, 0])
    q = np.zeros(2 ** (order + 1))
    for _ in range(draw(st.integers(1, 3))):
        walk = np.zeros_like(q)
        s = home
        for x in draw(st.lists(st.integers(0, 1), max_size=12)) + [0] * order:
            t = int(m.next_state[s, x])
            walk[lookup[s, t]] += 1
            s = t
        q += draw(st.floats(0.05, 1.0)) * walk
    return order, tuple(q / q.sum())


@given(case=register_roundings(), n=st.integers(1, 80))
@example(case=(2, TWO_CYCLES_Q), n=19)
@example(case=(2, TWO_CYCLES_Q), n=20)
@example(case=(2, TWO_CYCLES_Q), n=36)
@example(case=(2, TWO_CYCLES_Q), n=37)
@example(case=(2, TWO_CYCLES_Q), n=41)
@example(case=(2, TWO_CYCLES_Q), n=42)
@example(case=(2, TWO_CYCLES_Q), n=58)
@example(case=(2, TWO_CYCLES_Q), n=59)
def test_round_type_no_worse_than_greedy_repairs(case, n):
    # the program types every length the greedy repairs type, never farther
    # from n q in L1
    order, qv = case
    pairs = zr.feasible_pairs(zr.shift_register([1.0, -1.0], order))
    q = zr.PairDistribution(pairs, np.array(qv))
    try:
        greedy = round_type_greedy(q, n)
    except ValidationError:
        greedy = None
    try:
        spec = zr.round_type(q, n)
    except ValidationError:
        assert greedy is None
        return
    check_type(spec, n, q.q)
    assert zr.support_is_connected(spec.counts, pairs)
    if greedy is not None:
        assert (np.abs(spec.counts - n * q.q).sum()
                <= np.abs(greedy.counts - n * q.q).sum() + 1e-9)


def test_round_connectivity_resolve_keeps_the_tie_rule(order1):
    # n q = (2.7, 0.1, 0.1, 7.1): the nearest balanced counts (3, 0, 0, 7)
    # leave the 2-cycle out, and the connected types (2, 1, 1, 6) and
    # (1, 1, 1, 7) tie at L1 deviation 3.6; the cheaper one costs 10, not 12
    _, pairs = order1
    q = zr.PairDistribution(pairs, np.array([0.27, 0.01, 0.01, 0.71]))
    arc_cost = np.array([3.0, 0.0, 0.0, 1.0])
    spec = zr.round_type(q, 10, arc_cost)
    assert spec.counts.tolist() == [1, 1, 1, 7]
    assert arc_cost @ spec.counts == 10.0


@pytest.mark.parametrize("spec, cost, l1", [
    (ROOT / "bench/specs/isi_long.json", 272.0, 32.0),
    (ROOT / "specs/isi_two_tap.json", 312.0, 29.904762),
], ids=["isi_long", "isi_two_tap"])
def test_golden_roundings_take_the_cheaper_tie(spec, cost, l1):
    """The n = 64 books of the golden sweep: each blend's nearest balanced
    counts are disconnected, and the connectivity re-solve still sends ties
    to the cheaper type (a cost-blind re-solve gave 312 and 348)."""
    ch = load_channel(json.loads(spec.read_text()))
    d = zr.bhattacharyya(ch.kernel, ch.pairs)
    plan = zr.maximize_e0(d, ch.pairs, ch.cost).argmax
    book = zr.build_codebook(plan, d, ch.cost, 64, 4, 0, ch.machine)
    (rounded,) = book.certificate
    q, _, _ = zr.blend_for_construction(plan.components[0], plan.anchor, 64)
    assert rounded.cost(ch.cost) == cost
    assert np.abs(rounded.counts - 64 * q.q).sum() == pytest.approx(l1, abs=1e-6)


@st.composite
def costed_roundings(draw):
    """An order-1 or order-2 binary register, integer weights of a balanced q
    with a strongly connected support, integer arc costs in 0..3 and a
    length n from the support size up to where enumerating the count
    vectors stays cheap. Half the draws are two self-loops joined by one
    thin cycle, whose nearest balanced counts tend to leave the cycle out
    (a disconnected first optimum); the rest sum up to three closed walks
    through the all-zeros state."""
    order = draw(st.integers(1, 2))
    m = zr.shift_register([1.0, -1.0], order)
    lookup = zr.feasible_pairs(m).index_lookup()

    def feed(s, symbols):
        """The state after the symbols, and the arcs they use."""
        arcs = np.zeros(2 ** (order + 1), dtype=np.int64)
        for x in symbols:
            t = int(m.next_state[s, x])
            arcs[lookup[s, t]] += 1
            s = t
        return s, arcs

    zeros, _ = feed(0, [0] * order)
    if draw(st.booleans()):
        ones, _ = feed(0, [1] * order)
        weights = (draw(st.integers(1, 40)) * feed(zeros, [0])[1]
                   + draw(st.integers(1, 40)) * feed(ones, [1])[1]
                   + draw(st.integers(1, 3)) * feed(zeros, [1] * order + [0] * order)[1])
    else:
        weights = sum(draw(st.integers(1, 20))
                      * feed(zeros, draw(st.lists(st.integers(0, 1), max_size=8)) + [0] * order)[1]
                      for _ in range(draw(st.integers(1, 3))))
    k = int((weights > 0).sum())
    cap = k
    while cap < 60 and math.comb(cap + k, k - 1) <= 20_000:
        cap += 1
    costs = draw(st.lists(st.integers(0, 3), min_size=len(weights), max_size=len(weights)))
    return order, tuple(weights.tolist()), tuple(costs), draw(st.integers(k, cap))


@given(case=costed_roundings())
@example(case=(1, (27, 1, 1, 71), (3, 0, 0, 1), 10))
@settings(max_examples=150, deadline=None)
def test_round_type_matches_enumeration(case):
    # the least L1 deviation, then the least cost among its ties; tied types
    # may differ in their counts, so only those two numbers are compared
    order, weights, costs, n = case
    pairs = zr.feasible_pairs(zr.shift_register([1.0, -1.0], order))
    w = np.array(weights, dtype=float)
    q = zr.PairDistribution(pairs, w / w.sum())
    arc_cost = np.array(costs, dtype=float)
    best = round_type_enumerated(q, n, arc_cost)
    if best is None:
        with pytest.raises(ValidationError):
            zr.round_type(q, n, arc_cost)
        return
    spec = zr.round_type(q, n, arc_cost)
    assert np.abs(spec.counts - n * q.q).sum() == pytest.approx(best[0], abs=1e-6)
    assert arc_cost @ spec.counts == best[1]


# -------------------------------------------------------------- euler_circuit

def test_euler_counts_exact_unit(order1):
    _, pairs = order1
    spec = zr.MarkovTypeSpec(pairs, np.array([1, 1, 1, 1]), 4)
    path = zr.euler_circuit(spec, anchor=0, seed=0)
    assert len(path) == 4 and path[0] == 0
    lookup = pairs.index_lookup()
    arcs = lookup[path, np.roll(path, -1)]
    assert sorted(arcs.tolist()) == [0, 1, 2, 3]


def test_euler_single_self_loop():
    pairs = zr.FeasiblePairSet(1, np.array([0]), np.array([0]), np.array([0]))
    spec = zr.MarkovTypeSpec(pairs, np.array([1]), 1)
    path = zr.euler_circuit(spec, anchor=0, seed=3)
    assert path.tolist() == [0]


def test_euler_multiplicity(order1):
    _, pairs = order1
    counts = np.array([2, 2, 2, 2])
    total = count_euler_circuits(pairs.tails, pairs.heads, counts, anchor=0)
    assert total > 1  # several distinct circuits exist at n = 8
    spec = zr.MarkovTypeSpec(pairs, counts, 8)
    seen = {tuple(zr.euler_circuit(spec, 0, seed).tolist()) for seed in range(12)}
    assert len(seen) > 1


def test_euler_determinism(order1):
    _, pairs = order1
    spec = zr.MarkovTypeSpec(pairs, np.array([3, 2, 2, 3]), 10)
    a = zr.euler_circuit(spec, 0, 42)
    b = zr.euler_circuit(spec, 0, 42)
    assert (a == b).all()


def test_euler_rejects_disconnected():
    pairs = zr.FeasiblePairSet(2, np.array([0, 1]), np.array([0, 1]),
                               np.array([0, 0]))
    with pytest.raises(ValidationError):
        zr.MarkovTypeSpec(pairs, np.array([2, 2]), 4)


# ------------------------------------------------------------- emit_codeword

def test_emit_codeword_example(order1):
    m, pairs = order1
    # states: 0 <-> level +1, 1 <-> level -1; path (-,-,+,+) emits (-,+,+,-)
    path = np.array([1, 1, 0, 0])
    x = zr.emit_codeword(path, m)
    vals = [m.values[i] for i in x]
    assert vals == [-1.0, 1.0, 1.0, -1.0]


def test_emit_constant_self_loop(order1):
    m, _ = order1
    path = np.zeros(6, dtype=np.int64)
    x = zr.emit_codeword(path, m)
    assert (x == m.recover[0]).all()


def test_emit_round_trip_many_seeds(order2):
    m, pairs = order2
    q = zr.PairDistribution(pairs, np.full(8, 1 / 8))
    spec = zr.round_type(q, 64)
    for seed in range(100):
        path = zr.euler_circuit(spec, 0, seed)
        x = zr.emit_codeword(path, m)
        s = path[0]
        for t in range(len(path)):
            nxt = int(m.next_state[s, x[t]])
            assert nxt == path[(t + 1) % len(path)]
            s = nxt


def test_emit_rejects_inconsistent(order2):
    m, _ = order2
    # states are 2-bit windows; (0,0) -> (1,1) skips a shift and cannot occur
    with pytest.raises(ValidationError):
        zr.emit_codeword(np.array([0, 3, 0]), m)


# ------------------------------------------------------------ build_ensemble

def test_ensemble_count(order1):
    _, pairs = order1
    q = zr.PairDistribution(pairs, np.full(4, 0.25))
    spec = zr.round_type(q, 16)
    cands = zr.build_ensemble(spec, M=4, n=16, seed=0, anchor=0)
    assert cands.paths.shape == (4, 16)
    assert (cands.paths[:, 0] == 0).all()


def test_ensemble_time_sharing_segments(order1):
    _, pairs = order1
    comp1 = zr.PairDistribution(pairs, np.full(4, 0.25))
    comp2 = zr.PairDistribution(pairs, np.array([0.5, 0.25, 0.25, 0.0]))
    types = [zr.round_type(comp1, 8), zr.round_type(comp2, 8)]
    cands = zr.build_ensemble(types, M=2, n=16, seed=1, anchor=0)
    assert tuple(s.n for s in cands.certificate) == (8, 8)
    assert cands.paths.shape == (2, 16)
    # each segment is closed at the anchor
    assert (cands.paths[:, 0] == 0).all()
    assert (cands.paths[:, 8] == 0).all()


def test_ensemble_segment_too_short(order1):
    m, pairs = order1
    _, _, _, _, d, _ = make_isi([1.0, 0.5])
    comp = zr.PairDistribution(pairs, np.full(4, 0.25))
    plan = zr.TimeSharingPlan(np.array([0.9, 0.1]), (comp, comp), anchor=0)
    with pytest.raises(ValidationError):
        # second segment length 2 < 4
        zr.build_codebook(plan, d, zr.CostModel.free(2), n=20, M=2, seed=0, machine=m)


@pytest.mark.parametrize("gaussian", [False, True])
def test_ensemble_matches_direct_greedy(order1, gaussian):
    # the FFT distance profiles pick what summing every pair arc by arc picks
    _, pairs = order1
    _, _, _, _, d, _ = make_isi([1.0, 0.5])
    q = zr.PairDistribution(pairs, np.array([0.4, 0.1, 0.1, 0.4]))
    n, M, seed = 20, 3, 3
    spec = zr.round_type(q, n)
    cands = zr.build_ensemble(spec, M, n, seed, anchor=0, d=d if gaussian else None)
    pool = np.stack([zr.euler_circuit(spec, 0, (seed, c, 0)) for c in range(2 * M - 1)])
    lookup = pairs.index_lookup()
    arcs = lookup[pool, np.roll(pool, -1, axis=1)]
    D = d.d if gaussian else 1.0 - np.eye(len(pairs))
    picks = greedy_rotations(pool, arcs, D, 0, M)
    expect = np.stack([np.roll(pool[i], -k) for i, k in picks])
    assert (cands.paths == expect).all()


@given(st.integers(1, 2), st.integers(0, 2), st.integers(1, 6), st.integers(0, 10 ** 6),
       st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_spread_matches_roll_oracle(order, q_kind, M, seed, gaussian, data):
    # the buffered greedy picks what np.roll of fresh profiles picks
    m = zr.shift_register([1.0, -1.0], order)
    pairs = zr.feasible_pairs(m)
    if q_kind == 0:
        q = np.full(len(pairs), 1.0 / len(pairs))
    else:  # the stationary pair distribution of random input probabilities
        probs = np.asarray(data.draw(st.lists(st.floats(0.05, 0.95), min_size=m.n_states,
                                              max_size=m.n_states)))
        P = np.zeros((m.n_states, m.n_states))
        P[np.arange(m.n_states), m.next_state[:, 0]] += probs
        P[np.arange(m.n_states), m.next_state[:, 1]] += 1.0 - probs
        lam, vecs = np.linalg.eig(P.T)
        pi = np.abs(np.real(vecs[:, np.argmin(np.abs(lam - 1.0))]))
        pi /= pi.sum()
        q = pi[pairs.tails] * np.where(pairs.symbols == 0, probs[pairs.tails],
                                       1.0 - probs[pairs.tails])
    n = data.draw(st.integers(2 * len(pairs), 48))
    spec = zr.round_type(zr.PairDistribution(pairs, q / q.sum()), n)
    d = make_isi([1.0, 0.5] if order == 1 else [1.0, 0.5, -0.3])[4] if gaussian else None
    sup = np.nonzero(spec.counts)[0]
    features = codebook._arc_features(sup, len(pairs), d)
    anchor = int(spec.support_states()[0])
    pool = np.stack([zr.euler_circuit(spec, anchor, (seed, c, 0)) for c in range(2 * M - 1)])
    arcs = pairs.index_lookup()[pool, np.roll(pool, -1, axis=1)]
    assert (codebook._spread_rotations(pool, arcs, anchor, features, M)
            == spread_rotations_by_roll(pool, arcs, anchor, features, M))


# the time-sharing spec's builds stop at the budget check, before any pick
SHIPPED_SPECS = [p for d in ("specs", "bench/specs") for p in sorted((ROOT / d).glob("*.json"))
                 if p.name != "time_sharing.json"]


@pytest.mark.parametrize("spec", SHIPPED_SPECS, ids=lambda p: p.name)
def test_spread_matches_roll_oracle_on_shipped_specs(spec, monkeypatch, capsys):
    spread, calls = codebook._spread_rotations, []

    def checked(pool, arcs, anchor, features, M):
        picks = spread(pool, arcs, anchor, features, M)
        calls.append(picks == spread_rotations_by_roll(pool, arcs, anchor, features, M))
        return picks

    monkeypatch.setattr(codebook, "_spread_rotations", checked)
    for n, M in ((64, 4), (512, 16)):
        assert run(["build-code", "--spec", str(spec), "--n", str(n), "--codewords", str(M),
                    "--seed", "3", "--starts", "4"]) == 0
    capsys.readouterr()
    assert len(calls) == 2 and all(calls)


@given(st.floats(-1e12, 1e12),
       st.lists(st.one_of(st.sampled_from([0.0, 0.5, 0.999, 1.001, 2.0]),
                          st.floats(2.0, 1e15), st.just(np.inf)), max_size=30),
       st.integers(0, 30), st.booleans())
@settings(max_examples=300, deadline=None)
def test_first_max_matches_its_definition(top, offsets, at, all_neg_inf):
    # offsets are in units of the slack 1e-9 max(1, |top|) below the exact
    # maximum, planted before and after it: 0 is an exact tie, 0.5 and
    # 0.999 lie inside the slack, 1.001 and up outside, inf is -inf
    slack = 1e-9 * max(1.0, abs(top))
    flat = top - np.array(offsets[:at] + [0.0] + offsets[at:]) * slack
    if all_neg_inf:
        flat[:] = -np.inf
    best = flat.max()
    near = 1e-9 * max(1.0, abs(best)) if np.isfinite(best) else 0.0
    expected = int(np.flatnonzero(flat >= best - near)[0])
    assert codebook._first_max(flat) == expected
    assert codebook._first_max(flat.reshape(1, -1)) == expected


def test_spread_rotations_peak_memory(monkeypatch, capsys):
    # the (P, P, ell) distance table is the stage's one large array: built
    # one circuit at a time, the tracemalloc peak stays within 1.5 tables
    # (a whole-table complex product holds about 2.1)
    spread, calls = codebook._spread_rotations, []

    def captured(*args):
        calls.append(args)
        return spread(*args)

    monkeypatch.setattr(codebook, "_spread_rotations", captured)
    assert run(["build-code", "--spec", str(ROOT / "specs" / "isi_binary.json"), "--n", "512",
                "--codewords", "16", "--seed", "3"]) == 0
    capsys.readouterr()
    (pool, arcs, anchor, features, M), = calls
    P, ell = pool.shape
    assert (P, ell, M) == (31, 512, 16)
    tracemalloc.start()
    try:
        spread(pool, arcs, anchor, features, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * P * P * ell * 8


def test_ensemble_time_sharing_segment_types(order1):
    # every segment of every candidate is a closed walk of its own type
    _, pairs = order1
    _, _, _, _, d, _ = make_isi([1.0, 0.5])
    comp1 = zr.PairDistribution(pairs, np.full(4, 0.25))
    comp2 = zr.PairDistribution(pairs, np.array([0.5, 0.25, 0.25, 0.0]))
    types = [zr.round_type(comp1, 16), zr.round_type(comp2, 16)]
    cands = zr.build_ensemble(types, M=3, n=32, seed=2, anchor=0, d=d)
    lookup = pairs.index_lookup()
    start = 0
    for spec in cands.certificate:
        ell = spec.n
        seg = cands.paths[:, start:start + ell]
        assert (seg[:, 0] == 0).all()
        arcs = lookup[seg, np.roll(seg, -1, axis=1)]
        for row in arcs:
            assert (np.bincount(row, minlength=4) == spec.counts).all()
        start += ell
    assert len({tuple(r) for r in cands.paths.tolist()}) == 3


def test_ensemble_type_exactness(order1):
    _, pairs = order1
    q = zr.PairDistribution(pairs, np.array([0.4, 0.2, 0.2, 0.2]))
    spec = zr.round_type(q, 40)
    cands = zr.build_ensemble(spec, M=3, n=40, seed=5, anchor=0)
    for row in cands.arc_paths:
        counts = np.bincount(row, minlength=4)
        assert (counts == spec.counts).all()


# ---------------------------------------------------------------- expurgate

def test_expurgate_single_codeword(order1):
    m, pairs = order1
    _, _, _, _, d, _ = make_isi([1.0, 0.5])
    q = zr.PairDistribution(pairs, np.full(4, 0.25))
    spec = zr.round_type(q, 16)
    cands = zr.build_ensemble(spec, M=1, n=16, seed=0, anchor=0)
    book = zr.expurgate(cands, d, M=1, machine=m)
    assert book.M == 1
    assert book.min_pair_distance == float("inf")


def test_expurgate_never_keeps_identical_pair(order1):
    m, pairs = order1
    _, _, _, _, d, _ = make_isi([1.0, 0.5])
    q = zr.PairDistribution(pairs, np.full(4, 0.25))
    spec = zr.round_type(q, 16)
    base = zr.build_ensemble(spec, M=2, n=16, seed=9, anchor=0)
    paths = base.paths.copy()
    paths[1] = paths[0]  # plant an identical pair among the M candidates
    arcs = base.arc_paths.copy()
    arcs[1] = arcs[0]
    planted = CandidateSet(pairs, paths, arcs, base.certificate, 9)
    with pytest.raises(ValidationError, match="distance 0"):
        zr.expurgate(planted, d, M=2, machine=m)


def test_expurgate_refuses_clones(order1):
    # the alternating type admits one circuit from the anchor: all clones
    m, pairs = order1
    _, _, _, _, d, _ = make_isi([1.0, 0.5])
    spec = zr.MarkovTypeSpec(pairs, np.array([0, 6, 6, 0]), 12)
    cands = zr.build_ensemble(spec, M=2, n=12, seed=0, anchor=0, d=d)
    assert len({tuple(r) for r in cands.paths.tolist()}) == 1
    with pytest.raises(ValidationError, match="distance 0"):
        zr.expurgate(cands, d, M=2, machine=m)


def test_expurgate_needs_enough_candidates(order1):
    m, pairs = order1
    _, _, _, _, d, _ = make_isi([1.0, 0.5])
    q = zr.PairDistribution(pairs, np.full(4, 0.25))
    spec = zr.round_type(q, 16)
    cands = zr.build_ensemble(spec, M=2, n=16, seed=0, anchor=0)
    with pytest.raises(ValidationError):
        zr.expurgate(cands, d, M=3, machine=m)


def test_cost_compliance(order1):
    m, pairs = order1
    cost = zr.CostModel(np.asarray(m.values) ** 2, 1.0)
    q = zr.PairDistribution(pairs, np.array([0.4, 0.2, 0.2, 0.2]))
    spec = zr.round_type(q, 50)
    assert spec.cost(cost) <= 50 * cost.gamma + 1e-9
    cands = zr.build_ensemble(spec, M=2, n=50, seed=0, anchor=0)
    for row in cands.paths:
        x = zr.emit_codeword(row, m)
        total = sum(cost.phi[i] for i in x)
        assert total <= 50 * cost.gamma + 1e-9


def test_blend_repairs_disconnected_argmax():
    _, m, pairs, _, d, cost = make_isi([1.0, 0.5])
    res = zr.maximize_e0(d, pairs, cost)
    assert not res.support_connected
    q, anchor, theta = zr.blend_for_construction(res.argmax.mixture(), None, 512, None)
    assert theta > 0
    assert zr.support_is_connected(q.q, pairs)
    spec = zr.round_type(q, 512)
    assert (spec.counts > 0).sum() == 4


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_min_distance_approaches_value_at_long_blocks(seed):
    # the kept set's normalized distance reaches the exponent value
    _, m, pairs, _, d, cost = make_isi([1.0, 0.5])
    res = zr.maximize_e0(d, pairs, cost)
    n = 16384
    q, anchor, _ = zr.blend_for_construction(res.argmax.mixture(), None, n, None)
    spec = zr.round_type(q, n)
    cands = zr.build_ensemble(spec, M=4, n=n, seed=seed, anchor=anchor)
    book = zr.expurgate(cands, d, M=4, machine=m)
    assert book.min_pair_distance / n >= res.value - 0.05


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_direct_part_distance_other_seeds(seed):
    # acceptance criterion 4's contract holds beyond its own seed 0
    _, m, pairs, _, d, cost = make_isi([1.0, 0.5], gamma=1.0)
    res = zr.maximize_e0(d, pairs, cost)
    n, M = 512, 4
    q, anchor, _ = zr.blend_for_construction(res.argmax.mixture(), None, n, None)
    spec = zr.round_type(q, n)
    cands = zr.build_ensemble(spec, M, n, seed=seed, anchor=anchor)
    book = zr.expurgate(cands, d, M, machine=m)
    assert book.min_pair_distance / n >= res.value - 0.05


def test_codebook_json_round_trip_fields(order1):
    m, pairs = order1
    _, _, _, _, d, _ = make_isi([1.0, 0.5])
    q = zr.PairDistribution(pairs, np.full(4, 0.25))
    spec = zr.round_type(q, 16)
    cands = zr.build_ensemble(spec, M=2, n=16, seed=0, anchor=0)
    book = zr.expurgate(cands, d, M=2, machine=m)
    doc = book.to_json_dict()
    assert set(doc) == {"n", "M", "alphabet", "codewords", "state_paths",
                        "type_counts", "min_pair_distance", "seed", "blend"}
    assert doc["n"] == 16 and doc["M"] == 2
    assert len(doc["codewords"]) == 2 and len(doc["codewords"][0]) == 16


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 3000), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_pairwise_path_distances_match_the_loop(L, C, n, infinite, seed):
    gen = np.random.default_rng(seed)
    D = gen.exponential(size=(L, L))
    D = D + D.T
    if infinite:
        D[gen.random((L, L)) < 0.1] = np.inf
    paths = gen.integers(0, L, size=(C, n))
    dist = pairwise_path_distances(paths, zr.DistanceMatrix(D))
    assert np.array_equal(dist, pairwise_path_distances_loop(paths, D))  # bit for bit
