"""Zero-rate codebooks: integer Markov types, randomized Eulerian
circuits, time-sharing concatenation and expurgation.

A block of length n is a closed walk on the feasibility digraph whose
cyclic transition counts realize an integer-rounded pair distribution;
the walk determines the codeword through the recover map. 2M-1 seeded
randomized circuits form a pool; 2M-1 candidates are anchored rotations
of them, chosen greedily so that each lies as far as possible from the
nearest one chosen before it. The M best under the soft pairwise-distance
score are kept, and their minimum pairwise distance d_min bounds every
kept codeword's error probability by (M-1) exp(-d_min). `build_codebook`
runs the whole construction from an exponent argmax.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bhatt import DistanceMatrix
from .errors import InfeasibleError, ValidationError
from .exponent import (CostModel, PairDistribution, TimeSharingPlan,
                       feasibility_sccs, support_is_connected)
from .fsm import FeasiblePairSet, StateMachine, strong_components

RHO_SWEEP = tuple(float(2 ** k) for k in range(0, 11))  # 1, 2, 4, ..., 1024


@dataclass(frozen=True, eq=False)
class MarkovTypeSpec:
    """Integer arc counts with total n, balanced at every state, whose
    positive support is one strongly connected digraph."""

    pairs: FeasiblePairSet
    counts: np.ndarray
    n: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (len(self.pairs),):
            raise ValidationError("counts must cover every feasible pair")
        if (counts < 0).any():
            raise ValidationError("counts must be nonnegative")
        if counts.sum() != self.n:
            raise ValidationError(f"counts total {counts.sum()}, expected {self.n}")
        out_d = np.bincount(self.pairs.tails, weights=counts, minlength=self.pairs.n_states)
        in_d = np.bincount(self.pairs.heads, weights=counts, minlength=self.pairs.n_states)
        if (out_d != in_d).any():
            raise ValidationError("counts are not balanced (in-degree != out-degree)")
        if not support_is_connected(counts, self.pairs):
            raise ValidationError("positive-count support is not strongly connected")
        object.__setattr__(self, "counts", counts)
        counts.setflags(write=False)

    def support_states(self) -> np.ndarray:
        pos = self.counts > 0
        return np.unique(np.concatenate([self.pairs.tails[pos], self.pairs.heads[pos]]))

    def cost(self, cost: CostModel) -> float:
        return float(cost.pair_costs(self.pairs) @ self.counts)


def _cycle_cancel(pairs: FeasiblePairSet, arcs: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Round a fractional circulation on the given arcs to {0,1} while
    preserving every node imbalance: push along undirected cycles of
    fractional arcs until none remain. Existence of the cycles follows
    from the integrality of node imbalances."""
    r = frac.copy()
    tol = 1e-9
    for _ in range(len(arcs) + 1):
        frac_idx = np.nonzero((r > tol) & (r < 1 - tol))[0]
        if not frac_idx.size:
            break
        # walk the undirected fractional multigraph until a node repeats
        incident: dict[int, list[tuple[int, int]]] = {}
        for i in frac_idx:
            u, v = int(pairs.tails[arcs[i]]), int(pairs.heads[arcs[i]])
            incident.setdefault(u, []).append((int(i), +1))
            incident.setdefault(v, []).append((int(i), -1))
        start = int(pairs.tails[arcs[frac_idx[0]]])
        node = start
        seen_at = {node: 0}
        walk: list[tuple[int, int]] = []  # (arc local index, orientation)
        used: set[int] = set()
        while True:
            options = [(i, o) for i, o in incident[node] if i not in used]
            if not options:
                raise ValidationError("fractional subgraph is not cycle-covered; "
                                      "q is not balanced to rounding precision")
            i, o = options[0]
            used.add(i)
            # orientation +1 means we leave the tail (traverse forward)
            u, v = int(pairs.tails[arcs[i]]), int(pairs.heads[arcs[i]])
            node = v if o == +1 else u
            walk.append((i, o))
            if node in seen_at:
                cyc = walk[seen_at[node]:]
                break
            seen_at[node] = len(walk)
        up = min((1 - r[i]) if o == +1 else r[i] for i, o in cyc)
        down = min(r[i] if o == +1 else (1 - r[i]) for i, o in cyc)
        theta = up if up <= down + tol else -down  # near-ties push forward, as exact ones do
        for i, o in cyc:
            r[i] += theta if o == +1 else -theta
        r = np.clip(r, 0.0, 1.0)
        r[r < tol] = 0.0
        r[r > 1 - tol] = 1.0
    return np.round(r).astype(np.int64)


def _shortest_cycle_through(pairs: FeasiblePairSet, allowed: np.ndarray, arc: int):
    """Arc indices of a shortest directed cycle containing `arc`, using
    only `allowed` arcs; None if head cannot reach tail."""
    u, v = int(pairs.tails[arc]), int(pairs.heads[arc])
    if u == v:
        return [arc]
    S = pairs.n_states
    prev_arc = np.full(S, -1, dtype=np.int64)
    dist = np.full(S, -1, dtype=np.int64)
    dist[v] = 0
    frontier = [v]
    by_tail: dict[int, list[int]] = {}
    for a in allowed:
        by_tail.setdefault(int(pairs.tails[a]), []).append(int(a))
    while frontier and dist[u] < 0:
        nxt = []
        for s in frontier:
            for a in by_tail.get(s, ()):  # canonical arc order keeps this deterministic
                h = int(pairs.heads[a])
                if dist[h] < 0:
                    dist[h] = dist[s] + 1
                    prev_arc[h] = a
                    nxt.append(h)
        frontier = nxt
    if dist[u] < 0:
        return None
    path = []
    node = u
    while node != v:
        a = int(prev_arc[node])
        path.append(a)
        node = int(pairs.tails[a])
    path.reverse()
    return [arc] + path


def round_type(q: PairDistribution, n: int, arc_cost: np.ndarray | None = None) -> MarkovTypeSpec:
    """Integer Markov type approximating n*q: floor, then cycle repairs.

    The fractional circulation is rounded by cycle canceling (per-arc error
    below one), the total is then adjusted to exactly n by adding or
    removing unit flow along short directed cycles inside the support,
    preferring the arc with the largest residual; finally connectivity of
    the positive support is restored the same way. Per-arc deviation stays
    within the number of feasible pairs. Rejected when n is below the
    support size or when the support's cycle lengths cannot reach total n.
    Values within 1e-9 tie, both the cycle cancel's push amounts and the
    total repair's residuals, so solver roundoff on a symmetric q does not
    choose the type. Ties in
    the total repair go to the cheaper arc under `arc_cost` (per-pair
    costs) when adding flow and to the dearer one when removing it, so
    ties (the uniform blend) do not raise the type's cost; without costs
    they fall to the arc order.
    """
    pairs = q.pairs
    sup = q.support()
    if not support_is_connected(q, pairs):
        raise ValidationError("q's support must be strongly connected")
    if n < sup.size:
        raise ValidationError(
            f"n={n} is below the support size; need n >= {sup.size} "
            "to place one arc per support element while staying balanced")
    target = n * q.q[sup]
    base = np.floor(target + 1e-9).astype(np.int64)
    frac = np.clip(target - base, 0.0, 1.0)
    add = _cycle_cancel(pairs, sup, frac)
    counts_sup = base + add

    counts = np.zeros(len(pairs), dtype=np.int64)
    counts[sup] = counts_sup
    _repair_total(pairs, counts, sup, n, n * q.q,
                  np.zeros(len(pairs)) if arc_cost is None else arc_cost)
    _repair_connectivity(pairs, counts, sup, n, n * q.q)

    dev = np.abs(counts - n * q.q)
    if dev.max() > len(pairs) + 1e-6:
        raise ValidationError("rounded counts drifted beyond the deviation bound")
    return MarkovTypeSpec(pairs, counts, n)


def _residual_keys(resid: np.ndarray, arcs) -> dict:
    """Sort key per arc for decreasing residual: residuals within 1e-9 below
    a larger one share its key, so roundoff does not order tied arcs."""
    keys: dict = {}
    top = None
    for a in sorted(arcs, key=lambda a: -resid[a]):
        if top is None or resid[a] < top - 1e-9:
            top = resid[a]
        keys[a] = -top
    return keys


def _repair_total(pairs, counts, sup, n, target, arc_cost):
    guard = 4 * (abs(int(counts.sum()) - n) + len(sup) + 1)
    for _ in range(guard):
        total = int(counts.sum())
        if total == n:
            return
        if total < n:
            deficit = n - total
            key = _residual_keys(target - counts, sup)
            order = sorted(sup.tolist(), key=lambda a: (key[a], arc_cost[a], a))
            chosen = None
            for a in order:
                cyc = _shortest_cycle_through(pairs, sup, a)
                if cyc is not None and len(cyc) <= deficit:
                    chosen = cyc
                    break
            if chosen is None:
                raise ValidationError(
                    f"cannot reach total {n}: every support cycle through the "
                    f"deficient arcs is longer than the remaining deficit {deficit}; "
                    f"adjust n (e.g. to {total})")
            for a in chosen:
                counts[a] += 1
        else:
            excess = total - n
            removable = np.array([a for a in sup if counts[a] >= 1], dtype=np.int64)
            key = _residual_keys(counts - target, removable)
            order = sorted(removable.tolist(), key=lambda a: (key[a], -arc_cost[a], a))
            chosen = None
            for a in order:
                pos = np.array([b for b in sup if counts[b] >= 1], dtype=np.int64)
                cyc = _shortest_cycle_through(pairs, pos, a)
                if cyc is not None and len(cyc) <= excess:
                    chosen = cyc
                    break
            if chosen is None:
                raise ValidationError(
                    f"cannot reduce total to {n}; adjust n (e.g. to {total})")
            for a in chosen:
                counts[a] -= 1
    raise ValidationError("total repair did not converge")


def _repair_connectivity(pairs, counts, sup, n, target):
    for _ in range(len(sup) + 1):
        if support_is_connected(counts, pairs):
            return
        pos = np.nonzero(counts > 0)[0]
        zero_sup = [a for a in sup if counts[a] == 0]
        # states the positive arcs do not touch share the label -1, so an
        # arc between two of them is not a bridge
        labels = strong_components(pairs.n_states, pairs.tails[pos], pairs.heads[pos])
        touched = np.zeros(pairs.n_states, dtype=bool)
        touched[pairs.tails[pos]] = touched[pairs.heads[pos]] = True
        labels[~touched] = -1
        bridge = next((a for a in zero_sup
                       if labels[pairs.tails[a]] != labels[pairs.heads[a]]), None)
        if bridge is None:
            bridge = zero_sup[0] if zero_sup else None
        if bridge is None:
            raise ValidationError("support connectivity cannot be repaired")
        cyc = _shortest_cycle_through(pairs, sup, bridge)
        if cyc is None:
            raise ValidationError("support connectivity cannot be repaired")
        for a in cyc:
            counts[a] += 1
        # give the added length back from cycles that stay strictly positive
        excess = int(counts.sum()) - n
        for _ in range(excess):
            cand = np.array([a for a in sup if counts[a] >= 2], dtype=np.int64)
            resid = counts - target
            removed = False
            for a in sorted(cand.tolist(), key=lambda a: (-resid[a], a)):
                rich = np.array([b for b in sup if counts[b] >= 2], dtype=np.int64)
                cyc = _shortest_cycle_through(pairs, rich, a)
                if cyc is not None and len(cyc) <= int(counts.sum()) - n:
                    for b in cyc:
                        counts[b] -= 1
                    removed = True
                    break
            if not removed:
                raise ValidationError(
                    "connectivity repair cannot restore the total; increase n")
            if int(counts.sum()) == n:
                break
    if not support_is_connected(counts, pairs):
        raise ValidationError("support connectivity cannot be repaired")


def euler_circuit(spec: MarkovTypeSpec, anchor: int, seed) -> np.ndarray:
    """A closed walk from the anchor using each arc exactly its count,
    with the next unused arc drawn uniformly (randomized Hierholzer).
    Returns the n states visited; the wrap arc (s_n, s_1) is implied."""
    pairs, counts, n = spec.pairs, spec.counts, spec.n
    rng = np.random.default_rng(np.random.SeedSequence(_as_entropy(seed)))
    out_heads: dict[int, list[int]] = {}
    for a in np.nonzero(counts > 0)[0]:
        t, h = int(pairs.tails[a]), int(pairs.heads[a])
        out_heads.setdefault(t, []).extend([h] * int(counts[a]))
    if anchor not in out_heads:
        raise ValidationError(f"anchor state {anchor} has no arcs in the type")
    for t in out_heads:
        rng.shuffle(out_heads[t])
    stack = [int(anchor)]
    circuit = []
    while stack:
        v = stack[-1]
        heads = out_heads.get(v)
        if heads:
            stack.append(heads.pop())
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    if len(circuit) != n + 1 or circuit[0] != circuit[-1]:
        raise ValidationError("type is not Eulerian from the anchor "
                              "(unbalanced or disconnected counts)")
    return np.asarray(circuit[:-1], dtype=np.int64)


def _as_entropy(seed):
    return seed if isinstance(seed, (int, tuple)) else int(seed)


def emit_codeword(path: np.ndarray, machine: StateMachine) -> np.ndarray:
    """x_t = g(s_{t+1}) with the cyclic convention; verifies that running
    the next-state recursion reproduces the path, wrap arc included."""
    if machine.recover is None:
        raise ValidationError("emit_codeword needs a recover map")
    path = np.asarray(path, dtype=np.int64)
    nxt = np.roll(path, -1)
    x = machine.recover[nxt]
    if (machine.next_state[path, x] != nxt).any():
        raise ValidationError("state path is not consistent with the machine")
    return x


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """2M-1 anchored walks of the per-segment types."""

    pairs: FeasiblePairSet
    paths: np.ndarray            # (n_candidates, n) states
    arc_paths: np.ndarray        # (n_candidates, n) arc indices
    certificate: tuple           # MarkovTypeSpec per segment, in block order
    seed: int

    @property
    def n(self) -> int:
        return self.paths.shape[1]


def _segment_lengths(weights: np.ndarray, n: int) -> np.ndarray:
    raw = n * weights
    base = np.floor(raw).astype(np.int64)
    rem = int(n - base.sum())
    order = np.argsort(-(raw - base), kind="stable")
    base[order[:rem]] += 1
    return base


def build_ensemble(types, M: int, n: int, seed: int, anchor: int,
                   d: DistanceMatrix | None = None) -> CandidateSet:
    """2M-1 candidates chosen by distance among 2M-1 seeded circuits per
    segment.

    `types` is one MarkovTypeSpec or a sequence of them, the segments of a
    time-sharing block in order; their lengths must sum to n. Every segment
    is its own circuit anchored at `anchor`, rotated on its own, so
    concatenation needs no seam repair. The pool is 2M-1
    randomized-Hierholzer circuits of each type. Every candidate segment is
    an anchored rotation of a pool circuit (the same closed walk restarted
    at one of its visits to the anchor, so it keeps the certified arc
    counts), picked greedily to maximize its minimum summed distance to the
    candidates already chosen; see `_spread_rotations`. Distances are those
    of `d`, or the arc Hamming distance (1 wherever the arcs differ) when
    `d` is None.
    """
    if M < 1:
        raise ValidationError("M must be >= 1")
    specs = [types] if isinstance(types, MarkovTypeSpec) else list(types)
    if not specs or sum(spec.n for spec in specs) != n:
        raise ValidationError(
            f"segment lengths total {sum(spec.n for spec in specs)}, requested {n}")
    pairs = specs[0].pairs
    for spec in specs:
        if anchor not in set(spec.support_states().tolist()):
            raise ValidationError(f"anchor {anchor} is outside a segment's support")

    n_cand = 2 * M - 1
    lookup = pairs.index_lookup()
    sup = np.unique(np.concatenate([np.nonzero(spec.counts)[0] for spec in specs]))
    features = _arc_features(sup, len(pairs), d)
    pieces = []
    for s, spec in enumerate(specs):
        pool = np.stack([euler_circuit(spec, anchor, (int(seed), c, s))
                         for c in range(n_cand)])
        arcs = lookup[pool, np.roll(pool, -1, axis=1)]
        picks = _spread_rotations(pool, arcs, anchor, features, n_cand)
        pieces.append([np.roll(pool[i], -k) for i, k in picks])
    paths = np.stack([np.concatenate(row) for row in zip(*pieces)])
    arc_paths = lookup[paths, np.roll(paths, -1, axis=1)]
    if (arc_paths < 0).any():
        raise ValidationError("candidate walk uses an infeasible pair")
    return CandidateSet(pairs, paths, arc_paths, tuple(specs), int(seed))


def _arc_features(sup: np.ndarray, L: int, d: DistanceMatrix | None):
    """Factor the distance on the support arcs as D[a, b] = sum_r
    lam_r phi[a, r] phi[b, r]; a Gaussian D has rank at most 3."""
    if d is None:
        sub = 1.0 - np.eye(len(sup))
    else:
        sub = d.d[np.ix_(sup, sup)]
        if not np.isfinite(sub).all():
            raise ValidationError("infinite distance between arcs of the type")
    lam, vecs = np.linalg.eigh(sub)
    keep = np.abs(lam) > 1e-12 * np.abs(lam).max(initial=0.0)
    phi = np.zeros((L, int(keep.sum())))
    phi[sup] = vecs[:, keep]
    return phi, lam[keep]


def _first_max(obj: np.ndarray) -> int:
    """Flat index of the first entry within roundoff of the maximum, so
    FFT noise never decides a tie."""
    flat = obj.ravel()
    top = flat.max()
    slack = 1e-9 * max(1.0, abs(top)) if np.isfinite(top) else 0.0
    return int(np.flatnonzero(flat >= top - slack)[0])


def _spread_rotations(pool: np.ndarray, arcs: np.ndarray, anchor: int,
                      features, n_cand: int) -> list:
    """Greedy max-min choice of n_cand anchored rotations of pool circuits.

    pool and arcs are the (P, ell) state and arc paths of P circuits. A
    candidate (i, k) is circuit i restarted at position k, a visit to the
    anchor. The distances from every rotation of every circuit to circuit
    i as drawn are circular cross-correlations of the arc features, taken
    by FFT; rotating circuit i by k rotates them by k. A run starts from
    one unrotated circuit and adds, one by one, the rotation farthest from
    its nearest chosen candidate. Every circuit is tried as the start of a
    run of M = (n_cand + 1) / 2 picks; the run whose M picks lie farthest
    apart is continued to n_cand.
    """
    phi, lam = features
    ell = pool.shape[1]
    spec = np.fft.rfft(phi[arcs], axis=1)  # (P, ell // 2 + 1, r)
    # base[i, j, m]: distance from circuit j restarted at m to circuit i
    base = np.fft.irfft(np.einsum("jfr,ifr->ijf", spec * lam, spec.conj()),
                        n=ell, axis=2)
    off_anchor = np.where(pool == anchor, 0.0, -np.inf)

    def run(start, count):
        picks = [(start, 0)]
        nearest = base[start] + off_anchor
        spread = np.inf
        while len(picks) < count:
            i, k = divmod(_first_max(nearest), ell)
            spread = min(spread, nearest[i, k])
            picks.append((i, k))
            nearest = np.minimum(nearest, np.roll(base[i], k, axis=1))
        return picks, spread

    M = (n_cand + 1) // 2
    start = _first_max(np.array([run(i, M)[1] for i in range(len(pool))]))
    return run(start, n_cand)[0]


@dataclass(frozen=True, eq=False)
class Codebook:
    """Expurgated code: M codewords with their state paths and the type
    certificate they were drawn from."""

    machine: StateMachine
    pairs: FeasiblePairSet
    codewords: np.ndarray        # (M, n) symbol indices
    state_paths: np.ndarray      # (M, n) state indices
    arc_paths: np.ndarray        # (M, n) arc indices
    certificate: tuple
    min_pair_distance: float
    seed: int
    rho: float

    @property
    def n(self) -> int:
        return self.codewords.shape[1]

    @property
    def M(self) -> int:
        return self.codewords.shape[0]

    def to_json_dict(self) -> dict:
        states = self.machine.states
        cert = []
        for spec in self.certificate:
            pos = np.nonzero(spec.counts > 0)[0]
            cert.append({
                "length": int(spec.n),
                "counts": [{"from": str(states[self.pairs.tails[a]]),
                            "to": str(states[self.pairs.heads[a]]),
                            "count": int(spec.counts[a])} for a in pos],
            })
        return {
            "n": int(self.n),
            "M": int(self.M),
            "alphabet": [str(a) for a in self.machine.alphabet],
            "codewords": self.codewords.tolist(),
            "state_paths": [[str(states[s]) for s in row] for row in self.state_paths],
            "type_counts": cert,
            "min_pair_distance": self.min_pair_distance,
            "seed": int(self.seed),
            "rho": self.rho,
        }

    @classmethod
    def from_json_dict(cls, doc: dict, machine: StateMachine,
                       pairs: FeasiblePairSet) -> "Codebook":
        """Inverse of to_json_dict on the channel the book was built for. A
        document with a missing key, a state the machine lacks or a pair it
        cannot take raises ValidationError."""
        index = {str(s): i for i, s in enumerate(machine.states)}
        lookup = pairs.index_lookup()

        def state(label):
            if label not in index:
                raise ValidationError(f"codebook state {label!r} is not a state of the channel")
            return index[label]

        def arc(tail, head):
            a = int(lookup[state(tail), state(head)])
            if a < 0:
                raise ValidationError(f"codebook pair {tail} -> {head} is not feasible")
            return a

        try:
            paths = np.array([[state(s) for s in row] for row in doc["state_paths"]],
                             dtype=np.int64)
            codewords = np.asarray(doc["codewords"], dtype=np.int64)
            arc_paths = lookup[paths, np.roll(paths, -1, axis=1)]
            cert = []
            for seg in doc["type_counts"]:
                counts = np.zeros(len(pairs), dtype=np.int64)
                for ent in seg["counts"]:
                    counts[arc(ent["from"], ent["to"])] = int(ent["count"])
                cert.append(MarkovTypeSpec(pairs, counts, int(seg["length"])))
            meta = float(doc["min_pair_distance"]), int(doc["seed"]), float(doc["rho"])
        except ValidationError:
            raise
        except KeyError as exc:
            raise ValidationError(f"codebook lacks the key {exc}") from None
        except (TypeError, ValueError, IndexError) as exc:
            raise ValidationError(f"malformed codebook: {exc}") from None
        if (arc_paths < 0).any():
            raise ValidationError("codebook paths use infeasible pairs")
        if codewords.shape != paths.shape:
            raise ValidationError("codewords and state paths differ in shape")
        return cls(machine, pairs, codewords, paths, arc_paths, tuple(cert), *meta)


def pairwise_path_distances(arc_paths: np.ndarray, d: DistanceMatrix) -> np.ndarray:
    """Symmetric matrix of summed per-step distances between walks."""
    C = arc_paths.shape[0]
    out = np.zeros((C, C))
    for i in range(C):
        for j in range(i + 1, C):
            out[i, j] = out[j, i] = float(d.d[arc_paths[i], arc_paths[j]].sum())
    return out


def expurgate(candidates: CandidateSet, d: DistanceMatrix, M: int,
              rho: float | None = None, machine: StateMachine | None = None) -> Codebook:
    """Keep the M candidates with the smallest soft-distance scores
    B_m(rho) = sum_{m' != m} exp(-dist(m, m')/rho).

    When rho is None a geometric sweep picks the rho whose kept set has the
    largest minimum pairwise distance d_min (the large-rho limit made
    operational). The reported min_pair_distance is that d_min: by the
    union bound over the Bhattacharyya bound of each pair, every kept
    codeword's ML error probability is at most (M-1) exp(-d_min). A kept
    pair at distance 0 (clones, from a type with too few distinct circuits)
    is refused with a ValidationError.
    """
    C = candidates.paths.shape[0]
    if C < 2 * M - 1:
        raise ValidationError(f"need at least {2 * M - 1} candidates, got {C}")
    machine = machine or candidates.pairs.machine
    if machine is None:
        raise ValidationError("a machine is needed to emit codewords")
    dist = pairwise_path_distances(candidates.arc_paths, d)

    def keep_for(r):
        scores = np.exp(-dist / r).sum(axis=1) - 1.0  # minus the self term
        kept = np.argsort(scores, kind="stable")[:M]
        return np.sort(kept)

    def min_dist(kept):
        if len(kept) < 2:
            return float("inf")
        sub = dist[np.ix_(kept, kept)]
        iu = np.triu_indices(len(kept), 1)
        return float(sub[iu].min())

    if rho is None:
        best = None
        for r in RHO_SWEEP:
            kept = keep_for(r)
            md = min_dist(kept)
            if best is None or md >= best[0] - 1e-12:
                best = (md, r, kept)
        md, rho, kept = best
    else:
        kept = keep_for(float(rho))
        md = min_dist(kept)
    if md <= 0.0:
        raise ValidationError(
            f"kept codewords include a pair at distance 0: the type admits too "
            f"few distinct circuits for M={M}")

    paths = candidates.paths[kept]
    codewords = np.stack([emit_codeword(p, machine) for p in paths])
    return Codebook(machine, candidates.pairs, codewords, paths,
                    candidates.arc_paths[kept], candidates.certificate,
                    md, candidates.seed, float(rho))


def blend_for_construction(q: PairDistribution, anchor: int | None, n: int,
                           theta: float | None = None) -> tuple[PairDistribution, int, float]:
    """Make a distribution constructible at block length n: if its support
    is not strongly connected, does not cover the anchor, or is too sparse
    to round, mix in mass theta of the uniform distribution on its
    component's arcs (the arbitrarily-small-degradation repair).

    Returns (usable q, anchor, theta actually applied)."""
    pairs = q.pairs
    comps = feasibility_sccs(pairs)
    weight = np.array([q.q[c.arcs].sum() if len(c.arcs) else 0.0 for c in comps])
    cid = int(np.argmax(weight))
    comp = comps[cid]
    if weight[cid] < 1.0 - 1e-12:
        raise ValidationError("q places mass outside a single strongly connected component")
    if anchor is None:
        anchor = q.most_visited(comp.states)
    elif anchor not in comp.states:
        raise ValidationError(f"anchor {anchor} is outside the support's component")
    L_c = len(comp.arcs)
    needs = (not support_is_connected(q, pairs)) or (q.pi[anchor] <= 1e-12)
    if not needs and theta in (None, 0.0):
        return q, anchor, 0.0
    if theta is None:
        theta = min(0.5, 2.0 * L_c / n) if needs else 0.0
    if theta <= 0.0:
        return q, anchor, 0.0
    uni = np.zeros(len(pairs))
    uni[comp.arcs] = 1.0 / L_c
    blended = PairDistribution(pairs, (1.0 - theta) * q.q + theta * uni)
    return blended, anchor, float(theta)


def build_codebook(plan: TimeSharingPlan, d: DistanceMatrix, cost: CostModel, n: int,
                   M: int, seed: int, machine: StateMachine, theta: float | None = None,
                   rho: float | None = None) -> tuple[Codebook, float]:
    """The codebook construction for an exponent argmax.

    The block is split among the plan's segments of positive weight by the
    largest-remainder rounding of n*w. Each segment's distribution is
    blended at block length n (`blend_for_construction`, mass `theta`,
    default automatic) and rounded to an integer type of its length, with
    residual ties going to the cheaper arc (`round_type`). The types' total
    cost must stay within n*gamma (InfeasibleError otherwise). The 2M-1
    candidates of `build_ensemble` are then expurgated to M at `rho`.

    Returns the codebook and the largest blend theta applied."""
    keep = plan.weights > 1e-12
    comps = [c for c, k in zip(plan.components, keep) if k]
    lengths = _segment_lengths(plan.weights[keep] / plan.weights[keep].sum(), n)
    arc_cost = cost.pair_costs(comps[0].pairs)
    types, thetas = [], []
    for comp, ell in zip(comps, lengths):
        q, _, applied = blend_for_construction(comp, plan.anchor, n, theta)
        types.append(round_type(q, int(ell), arc_cost))
        thetas.append(applied)
    budget = n * cost.gamma
    total = sum(t.cost(cost) for t in types)
    if total > budget + 1e-9 * max(1.0, abs(budget)):
        raise InfeasibleError(
            f"rounded type cost {total:g} exceeds the per-codeword budget {budget:g}")
    cands = build_ensemble(types, M, n, seed, plan.anchor, d)
    return expurgate(cands, d, M, rho, machine), max(thetas)
