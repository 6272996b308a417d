"""Finite-state machine channel skeletons.

A machine is a deterministic next-state function over a finite state set,
driven by channel inputs. When every state determines the input symbol
that produced it (a "recover" map), ordered state pairs (s, s+) with
s+ = f(s, g(s+)) stand in one-to-one correspondence with (state, input)
pairs and become the working alphabet of the zero-rate theory. A CostModel
prices the input symbol each arc emits.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class StateMachine:
    """Deterministic FSM: states, input alphabet with numeric values,
    total next-state table, optional input-recover map.

    next_state has shape (S, K) of state indices; recover, when present,
    has shape (S,) of symbol indices and must invert the transition:
    recover[next_state[s, x]] == x for every (s, x).
    """

    states: tuple
    alphabet: tuple
    values: tuple
    next_state: np.ndarray
    recover: np.ndarray | None = None

    def __post_init__(self):
        S, K = len(self.states), len(self.alphabet)
        if S < 1:
            raise ValidationError("need at least one state")
        if K < 2:
            raise ValidationError("need at least two input symbols")
        if len(self.values) != K:
            raise ValidationError("values table must cover the alphabet")
        ns = np.asarray(self.next_state, dtype=np.int64)
        if ns.shape != (S, K):
            raise ValidationError(f"next_state must be {S}x{K}, got {ns.shape}")
        if ns.min() < 0 or ns.max() >= S:
            raise ValidationError("next_state entries must be valid state indices")
        object.__setattr__(self, "next_state", ns)
        if self.recover is not None:
            g = np.asarray(self.recover, dtype=np.int64)
            if g.shape != (S,):
                raise ValidationError("recover must assign one symbol per state")
            if g.min() < 0 or g.max() >= K:
                raise ValidationError("recover entries must be valid symbol indices")
            bad = np.nonzero(g[ns] != np.arange(K)[None, :])
            if bad[0].size:
                s, x = int(bad[0][0]), int(bad[1][0])
                raise ValidationError(
                    f"recover(next_state({self.states[s]!r}, {self.alphabet[x]!r})) "
                    f"!= {self.alphabet[x]!r}; machine is not recoverable"
                )
            object.__setattr__(self, "recover", g)
        self.next_state.setflags(write=False)
        if self.recover is not None:
            self.recover.setflags(write=False)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_symbols(self) -> int:
        return len(self.alphabet)

    @classmethod
    def from_tables(cls, states, alphabet, values, next_state, recover=None):
        """Build from label-keyed dict tables (the external spec format)."""
        states = tuple(states)
        alphabet = tuple(alphabet)
        sidx = {s: i for i, s in enumerate(states)}
        xidx = {x: i for i, x in enumerate(alphabet)}
        if len(sidx) != len(states) or len(xidx) != len(alphabet):
            raise ValidationError("duplicate state or symbol labels")
        vals = tuple(float(values[x]) for x in alphabet)
        ns = np.empty((len(states), len(alphabet)), dtype=np.int64)
        for s in states:
            row = next_state.get(s)
            if row is None:
                raise ValidationError(f"next_state missing row for state {s!r}")
            for x in alphabet:
                if x not in row:
                    raise ValidationError(f"next_state[{s!r}] missing symbol {x!r}")
                ns[sidx[s], xidx[x]] = sidx[row[x]]
        g = None
        if recover is not None:
            g = np.array([xidx[recover[s]] for s in states], dtype=np.int64)
        return cls(states, alphabet, vals, ns, g)


@dataclass(frozen=True, eq=False)
class FeasiblePairSet:
    """The ordered state pairs (s, s+) satisfying s+ = f(s, g(s+)), in
    lexicographic (tail, head) order. For a valid recover map this is the
    image of the bijection (s, x) -> (s, f(s, x)), so L = S*K exactly.

    machine may be None for hand-built pair graphs (synthetic instances);
    symbols then just index into whatever cost table the caller supplies.
    """

    n_states: int
    tails: np.ndarray
    heads: np.ndarray
    symbols: np.ndarray  # g(head): the input emitted on the arc
    machine: StateMachine | None = None

    def __post_init__(self):
        for name in ("tails", "heads", "symbols"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)
        if not (len(self.tails) == len(self.heads) == len(self.symbols)):
            raise ValidationError("tails/heads/symbols must have equal length")
        seen = set(zip(self.tails.tolist(), self.heads.tolist()))
        if len(seen) != len(self.tails):
            raise ValidationError("duplicate pairs are not allowed")

    def __len__(self) -> int:
        return len(self.tails)

    def pair_labels(self):
        if self.machine is None:
            return [f"{t}->{h}" for t, h in zip(self.tails, self.heads)]
        st = self.machine.states
        return [f"{st[t]}->{st[h]}" for t, h in zip(self.tails, self.heads)]

    def index_lookup(self) -> np.ndarray:
        """Dense (S, S) table pair -> arc index, -1 where infeasible."""
        S = self.n_states
        table = np.full((S, S), -1, dtype=np.int64)
        table[self.tails, self.heads] = np.arange(len(self))
        return table


@dataclass(frozen=True)
class CostModel:
    """Per-symbol cost phi and budget; the cost of arc (s, s+) is
    phi(g(s+)), charged to the emitted input symbol."""

    phi: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))
        self.phi.setflags(write=False)
        for name in ("phi", "gamma"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValidationError(f"cost {name} must be finite")

    def pair_costs(self, pairs: FeasiblePairSet) -> np.ndarray:
        return self.phi[pairs.symbols]

    @classmethod
    def free(cls, n_symbols: int) -> "CostModel":
        return cls(np.zeros(n_symbols), 0.0)


@dataclass(frozen=True)
class StructuralReport:
    irreducible: bool
    doubly_irreducible: bool
    approach_state: tuple[int, int] | None  # (sigma index, r)


def augment_origin(machine: StateMachine) -> list[tuple[int, int]]:
    """The (original state, stored symbol) behind each augmented state, in
    the augmented machine's canonical state order."""
    S, K = machine.n_states, machine.n_symbols
    ns = machine.next_state
    return sorted({(int(ns[s, x]), x) for s in range(S) for x in range(K)})


def augment(machine: StateMachine) -> StateMachine:
    """Extend the state with the previous input so it becomes recoverable.

    New states are the one-step image {(f(s, x), x)}; this is the set of
    states reachable after the first symbol regardless of initialization,
    and it is closed under transitions. Recover returns the stored symbol.
    """
    if machine.recover is not None:
        raise ValidationError("machine is already recoverable")
    S, K = machine.n_states, machine.n_symbols
    ns = machine.next_state
    pairs = augment_origin(machine)
    pidx = {p: i for i, p in enumerate(pairs)}
    labels = tuple(f"({machine.states[s]},{machine.alphabet[x]})" for s, x in pairs)
    new_ns = np.empty((len(pairs), K), dtype=np.int64)
    for i, (s, _) in enumerate(pairs):
        for x in range(K):
            new_ns[i, x] = pidx[(int(ns[s, x]), x)]
    g = np.array([x for _, x in pairs], dtype=np.int64)
    return StateMachine(labels, machine.alphabet, machine.values, new_ns, g)


def feasible_pairs(machine: StateMachine) -> FeasiblePairSet:
    """Enumerate pairs (s, f(s, x)) in canonical lexicographic order."""
    if machine.recover is None:
        raise ValidationError("feasible pairs require a recover map (use augment)")
    S, K = machine.n_states, machine.n_symbols
    tails = np.repeat(np.arange(S), K)
    heads = machine.next_state.reshape(-1)
    order = np.lexsort((heads, tails))
    tails, heads = tails[order], heads[order]
    symbols = machine.recover[heads]
    return FeasiblePairSet(S, tails, heads, symbols.copy(), machine)


def strong_components(n_states: int, tails, heads) -> np.ndarray:
    """Strongly connected component label (0..k-1) of every state of the
    digraph with the given arcs; states without arcs are singleton
    components. Tarjan's algorithm with an explicit stack (Tarjan, SIAM J.
    Comput. 1(2), 1972): a visited state without a label is on the stack."""
    succ = [[] for _ in range(n_states)]
    for t, h in zip(np.asarray(tails).tolist(), np.asarray(heads).tolist()):
        succ[t].append(h)
    index, low, labels = [-1] * n_states, [0] * n_states, [-1] * n_states
    stack, work, visited, k = [], [], 0, 0

    def visit(v):
        nonlocal visited
        index[v] = low[v] = visited
        visited += 1
        stack.append(v)
        work.append((v, iter(succ[v])))

    for root in range(n_states):
        if index[root] < 0:
            visit(root)
        while work:
            v, arcs = work[-1]
            for w in arcs:
                if index[w] < 0:
                    visit(w)
                    break
                if labels[w] < 0:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        labels[w] = k
                        if w == v:
                            break
                    k += 1
    return np.asarray(labels, dtype=np.int64)


def _period(ns: np.ndarray) -> int:
    """Period of an irreducible machine with next-state table ns: the gcd
    over arcs u -> v of level(u) + 1 - level(v), where level is the BFS
    distance from state 0."""
    level = np.full(ns.shape[0], -1, dtype=np.int64)
    level[0], frontier, depth = 0, np.zeros(1, dtype=np.int64), 0
    while frontier.size:
        depth += 1
        frontier = np.unique(ns[frontier])
        frontier = frontier[level[frontier] < 0]
        level[frontier] = depth
    return int(np.gcd.reduce((level[:, None] + 1 - level[ns]).ravel()))


def check_structure(machine: StateMachine) -> StructuralReport:
    """Decide irreducibility and double irreducibility (the product machine
    driven by two independent inputs is irreducible), and find a uniformly
    approachable state: a sigma that every state reaches by paths of one
    common length r. The search tries every sigma at once, keeping the
    exact-length reachable sets of all states in one S x S table, and
    returns the minimal r up to S*(S+1) with the lowest sigma at that r.

    Double irreducibility is irreducibility plus such a sigma. If every
    state reaches sigma in exactly r steps, every periodic class of the
    irreducible machine is sigma's class, so it is aperiodic, hence
    primitive, and the direct product of a primitive digraph with itself is
    strongly connected (McAndrew, Proc. AMS 14, 1963). Conversely a
    strongly connected product forces an irreducible, aperiodic machine,
    whose adjacency has a full power by (S-1)^2 + 1 steps (Wielandt), below
    the search's cap, so the search finds a sigma. An irreducible machine
    of period above 1 has no sigma (states of different periodic classes
    reach sigma only by lengths of different residues), so the search is
    skipped there.
    """
    if machine.recover is None:
        raise ValidationError("structure checks require a recover map")
    S, K = machine.n_states, machine.n_symbols
    ns = machine.next_state
    irreducible = bool((strong_components(S, np.repeat(np.arange(S), K),
                                          ns.reshape(-1)) == 0).all())
    # reach[s, t]: state s reaches t by a path of exactly r steps
    reach, step = np.eye(S, dtype=bool), np.empty((S, S), dtype=bool)
    approach = None
    cap = S * (S + 1) if not irreducible or _period(ns) == 1 else 0
    for r in range(1, cap + 1):
        np.take(reach, ns[:, 0], axis=0, out=step)
        for x in range(1, K):
            step |= reach[ns[:, x]]
        reach, step = step, reach
        full = reach.all(axis=0)
        if full.any():
            approach = (int(np.argmax(full)), r)
            break
    return StructuralReport(irreducible, irreducible and approach is not None, approach)


def shift_register(levels, k: int) -> StateMachine:
    """Order-k shift register fed by its input: states are k-tuples of
    symbols, recover reads the newest one. The canonical recoverable FSM."""
    if k < 1:
        raise ValidationError("shift_register needs k >= 1 (augment a 1-state machine for k=0)")
    levels = tuple(levels)
    K = len(levels)
    tuples = list(itertools.product(range(K), repeat=k))  # lexicographic
    tidx = {t: i for i, t in enumerate(tuples)}
    S = len(tuples)
    ns = np.empty((S, K), dtype=np.int64)
    for t, i in tidx.items():
        for x in range(K):
            ns[i, x] = tidx[t[1:] + (x,)]
    g = np.array([t[-1] for t in tuples], dtype=np.int64)
    labels = tuple("|".join(f"{levels[j]:g}" for j in t) for t in tuples)
    names = tuple(f"{v:g}" for v in levels)
    return StateMachine(labels, names, tuple(float(v) for v in levels), ns, g)
