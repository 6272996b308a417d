import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zerorate as zr
from zerorate.errors import ValidationError
from zerorate.fsm import strong_components

from oracles import mutual_reachability, structure_by_product_graph


def one_state(K=2):
    return zr.StateMachine(("s",), tuple(str(i) for i in range(K)),
                           tuple(float(i) for i in range(K)),
                           np.zeros((1, K), dtype=np.int64))


def test_augment_one_state_binary():
    m = zr.augment(one_state(2))
    assert m.n_states == 2
    assert m.recover is not None
    # recover returns the stored symbol
    assert [int(v) for v in m.recover] == [0, 1]


def test_augment_rejects_recoverable():
    m = zr.shift_register([0.0, 1.0], 1)
    with pytest.raises(ValidationError):
        zr.augment(m)


def test_augment_of_stripped_register_is_isomorphic():
    # a register already stores the last input, so augmenting a copy with
    # the recover map removed must reproduce the same state count
    reg = zr.shift_register([0.0, 1.0, 2.0], 2)
    stripped = zr.StateMachine(reg.states, reg.alphabet, reg.values,
                               reg.next_state.copy())
    aug = zr.augment(stripped)
    assert aug.n_states == reg.n_states
    assert sorted(int(v) for v in aug.recover) == sorted(int(v) for v in reg.recover)
    # the map (augmented state (f(s,x), x)) -> (register state f(s,x)) is an
    # isomorphism: transitions commute with it
    iso = {i: int(orig) for i, (orig, _) in enumerate(
        sorted({(int(stripped.next_state[s, x]), x)
                for s in range(reg.n_states) for x in range(reg.n_symbols)}))}
    for i in range(aug.n_states):
        for x in range(aug.n_symbols):
            assert iso[int(aug.next_state[i, x])] == int(reg.next_state[iso[i], x])


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_shift_register_states_in_sorted_tuple_order(K, k):
    levels = [0.0, 1.0, 2.0][:K]
    reg = zr.shift_register(levels, k)
    tuples = sorted(itertools.product(range(K), repeat=k))
    assert reg.states == tuple("|".join(f"{levels[j]:g}" for j in t) for t in tuples)
    index = {t: i for i, t in enumerate(tuples)}
    assert reg.next_state.tolist() == [[index[t[1:] + (x,)] for x in range(K)] for t in tuples]
    assert reg.recover.tolist() == [t[-1] for t in tuples]


def test_recover_validation_rejects_bad_map():
    with pytest.raises(ValidationError):
        zr.StateMachine(("a", "b"), ("0", "1"), (0.0, 1.0),
                        np.array([[0, 1], [0, 1]]), np.array([0, 0]))


def test_feasible_pairs_order1_register(order1):
    m, pairs = order1
    assert len(pairs) == 4
    assert list(zip(pairs.tails.tolist(), pairs.heads.tolist())) == \
        [(0, 0), (0, 1), (1, 0), (1, 1)]
    # relation s+ = f(s, g(s+)) holds on every pair
    for t, h in zip(pairs.tails, pairs.heads):
        assert m.next_state[t, m.recover[h]] == h


def test_feasible_pairs_order2_register(order2):
    m, pairs = order2
    assert m.n_states == 4
    assert len(pairs) == 8  # the (s, x) -> (s, f(s,x)) bijection: S*K


def test_feasible_pairs_one_state_augmented():
    m = zr.augment(one_state(2))
    pairs = zr.feasible_pairs(m)
    assert len(pairs) == m.n_states * m.n_symbols == 4


def test_feasible_pairs_requires_recover():
    with pytest.raises(ValidationError):
        zr.feasible_pairs(one_state(2))


def test_structure_order1(order1):
    m, _ = order1
    rep = zr.check_structure(m)
    assert rep.irreducible and rep.doubly_irreducible
    sigma, r = rep.approach_state
    assert r == 1
    assert m.next_state[sigma, m.recover[sigma]] == sigma  # self-transition


def test_structure_order2(order2):
    m, _ = order2
    rep = zr.check_structure(m)
    assert rep.irreducible and rep.doubly_irreducible
    assert rep.approach_state[1] == 2  # constant input fills the register


def test_structure_disconnected_absorbing():
    # two disjoint order-1 registers glued into one machine
    ns = np.array([[0, 1], [0, 1], [2, 3], [2, 3]], dtype=np.int64)
    g = np.array([0, 1, 0, 1], dtype=np.int64)
    m = zr.StateMachine(("a0", "a1", "b0", "b1"), ("0", "1"), (0.0, 1.0), ns, g)
    rep = zr.check_structure(m)
    assert not rep.irreducible
    assert not rep.doubly_irreducible
    assert rep.approach_state is None


def test_product_graph_connectivity_oracle(order1):
    # independent strong-connectivity check of the 4-node product graph
    m, _ = order1
    S = m.n_states
    nodes = [(a, b) for a in range(S) for b in range(S)]
    adj = {v: set() for v in nodes}
    for a, b in nodes:
        for x in range(2):
            for y in range(2):
                adj[(a, b)].add((int(m.next_state[a, x]), int(m.next_state[b, y])))

    def reaches_all(start):
        seen = {start}
        stack = [start]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(nodes)

    assert all(reaches_all(v) for v in nodes)
    assert zr.check_structure(m).doubly_irreducible


@st.composite
def recoverable_machines(draw):
    """Random machine with a valid recover map: states partitioned into K
    classes, f(s, x) landing in class x."""
    K = draw(st.integers(2, 3))
    per_class = draw(st.integers(1, 3))
    S = K * per_class
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = np.repeat(np.arange(K), per_class)
    ns = np.empty((S, K), dtype=np.int64)
    for s in range(S):
        for x in range(K):
            members = np.nonzero(g == x)[0]
            ns[s, x] = int(rng.choice(members))
    return zr.StateMachine(tuple(f"s{i}" for i in range(S)),
                           tuple(str(i) for i in range(K)),
                           tuple(float(i) for i in range(K)), ns, g)


@given(recoverable_machines())
@settings(max_examples=60, deadline=None)
def test_recover_identity_and_pair_bijection(m):
    S, K = m.n_states, m.n_symbols
    assert (m.recover[m.next_state] == np.arange(K)[None, :]).all()
    pairs = zr.feasible_pairs(m)
    assert len(pairs) == S * K
    image = {(s, int(m.next_state[s, x])) for s in range(S) for x in range(K)}
    assert image == set(zip(pairs.tails.tolist(), pairs.heads.tolist()))


@given(recoverable_machines())
@settings(max_examples=40, deadline=None)
def test_doubly_irreducible_implies_irreducible(m):
    rep = zr.check_structure(m)
    if rep.doubly_irreducible:
        assert rep.irreducible


@given(recoverable_machines(), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_exact_length_sets_stay_full_beyond_r(m, extra):
    rep = zr.check_structure(m)
    if rep.approach_state is None:
        return
    sigma, r = rep.approach_state
    # every state reaches sigma in r steps, so in r + 1 through any successor
    mask = np.zeros(m.n_states, dtype=bool)
    mask[sigma] = True
    for _ in range(r + extra):
        mask = mask[m.next_state].any(axis=1)
    assert mask.all()


@st.composite
def augmented_machines(draw):
    """A random next-state table on 1-6 states and 2-3 symbols, augmented
    so that it becomes recoverable (periodic and reducible ones included)."""
    S, K = draw(st.integers(1, 6)), draw(st.integers(2, 3))
    ns = draw(st.lists(st.integers(0, S - 1), min_size=S * K, max_size=S * K))
    return zr.augment(zr.StateMachine(tuple(f"s{i}" for i in range(S)),
                                      tuple(str(i) for i in range(K)),
                                      tuple(float(i) for i in range(K)),
                                      np.array(ns, dtype=np.int64).reshape(S, K)))


# a self-loop state s0 needs r = 3, but s1 is reached from every state in 2
NON_LOOP_MINIMUM = zr.StateMachine(
    tuple(f"s{i}" for i in range(6)), ("0", "1"), (0.0, 1.0),
    np.array([[0, 4], [2, 3], [0, 4], [1, 4], [1, 3], [1, 5]]), np.array([0, 0, 0, 1, 1, 1]))


# irreducible of period 48, so no sigma: the search is skipped
CYCLE_48 = zr.augment(zr.StateMachine(
    tuple(f"s{i}" for i in range(48)), ("0", "1"), (0.0, 1.0),
    np.array([[(i + 1) % 48] * 2 for i in range(48)])))


@given(st.one_of(recoverable_machines(), augmented_machines()))
@example(NON_LOOP_MINIMUM)
@example(CYCLE_48)
@settings(max_examples=150, deadline=None)
def test_structure_matches_product_graph_oracle(m):
    rep = zr.check_structure(m)
    irreducible, doubly, approach = structure_by_product_graph(m)
    assert (rep.irreducible, rep.doubly_irreducible) == (irreducible, doubly)
    assert rep.approach_state == approach
    if approach is not None:
        sigma, r = approach
        # r-th boolean power of the adjacency: column sigma is full
        adj = np.zeros((m.n_states, m.n_states), dtype=np.int64)
        adj[np.repeat(np.arange(m.n_states), m.n_symbols), m.next_state.reshape(-1)] = 1
        power = np.eye(m.n_states, dtype=np.int64)
        for _ in range(r):
            power = np.minimum(power @ adj, 1)
        assert power[:, sigma].all()


@st.composite
def digraphs(draw):
    """Small digraphs without repeated arcs; self-loops and states without
    arcs are both common at these sizes."""
    S = draw(st.integers(1, 7))
    arcs = sorted(draw(st.sets(st.tuples(st.integers(0, S - 1), st.integers(0, S - 1)),
                               max_size=2 * S + 2)))
    tails = np.array([t for t, _ in arcs], dtype=np.int64)
    heads = np.array([h for _, h in arcs], dtype=np.int64)
    return S, tails, heads


@given(digraphs(), st.data())
@settings(max_examples=120, deadline=None)
def test_scc_helpers_match_transitive_closure(graph, data):
    S, tails, heads = graph
    same = mutual_reachability(S, tails, heads)
    labels = strong_components(S, tails, heads)
    assert ((labels[:, None] == labels[None, :]) == same).all()

    pairs = zr.FeasiblePairSet(S, tails, heads, np.zeros(len(tails), dtype=np.int64))
    classes = sorted({frozenset(np.nonzero(row)[0].tolist()) for row in same}, key=min)
    comps = zr.feasibility_sccs(pairs)
    assert [c.states for c in comps] == classes
    for c in comps:
        inside = [a for a in range(len(tails)) if tails[a] in c.states and heads[a] in c.states]
        assert c.arcs.tolist() == inside

    weights = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]),
                                          min_size=len(tails), max_size=len(tails))),
                       dtype=float)
    sup = weights > 0
    touched = sorted(set(tails[sup].tolist()) | set(heads[sup].tolist()))
    sub_same = mutual_reachability(S, tails[sup], heads[sup])
    expected = bool(touched) and all(sub_same[i, j] for i in touched for j in touched)
    assert zr.support_is_connected(weights, pairs) == expected
