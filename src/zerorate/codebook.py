"""Zero-rate codebooks: integer Markov types, randomized Eulerian
circuits, time-sharing concatenation and greedy max-min selection.

A block of length n is a closed walk on the feasibility digraph whose
cyclic transition counts realize an integer-rounded pair distribution:
the balanced, connected counts of total n nearest n*q in L1, found by
one integer program (HiGHS through scipy's `milp`, imported on first
use) on a 1e-9 grid, extended by flow rows when its optimum is
disconnected, with ties going to the cheaper type either way. The walk
determines the codeword through the recover map. 2M-1 seeded randomized
circuits form a pool; the M codewords are anchored rotations
of them, chosen greedily so that each lies as far as possible from the
nearest one chosen before it. Their minimum pairwise distance d_min
bounds every codeword's error probability by (M-1) exp(-d_min) (union
bound over the Bhattacharyya bound of each pair). `build_codebook` runs
the whole construction from an exponent argmax.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .bhatt import DistanceMatrix
from .errors import InfeasibleError, ValidationError
from .exponent import (PairDistribution, TimeSharingPlan, feasibility_sccs,
                       support_is_connected)
from .fsm import CostModel, FeasiblePairSet, StateMachine
from .polytope import _highs


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


def round_type(q: PairDistribution, n: int, arc_cost: np.ndarray | None = None) -> MarkovTypeSpec:
    """Integer Markov type nearest n*q in L1, by one `polytope._highs` MILP.

    Counts live on supp(q). Each is floor(n q) + p1 + p2 - m, with p1 in
    {0, 1} at cost 1 - 2f (f the fractional part of n q) and p2, m >= 0
    at cost 1, so the objective is the L1 deviation sum |x - n q| exactly;
    the rows, head minus tail indicators (`FeasiblePairSet.incidence`) and
    the total, make the counts balanced at every state and of total n. The
    fractional parts are snapped to a 1e-9 grid, so solver roundoff on a
    symmetric q does not choose the type. Deviations within 1e-6 tie, and
    ties go to the cheaper type under `arc_cost` (per-pair costs): the
    objective adds the type's cost over n times the largest arc cost, a
    term of at most 1e-6. A disconnected optimum is re-solved as the same
    program, tie term kept, plus a continuous flow g <= n x from the most
    visited state of which every other state takes in exactly its own
    out-count: every state with a count is then reached along positive
    arcs, and balanced counts so reachable are strongly connected. When
    n q is itself a balanced type of total n (every fractional part zero
    after the snap), it is the one point at deviation 0 and no program is
    solved for it. Rejected when n is below the support size or when no
    balanced, connected type of total n exists on the support.
    """
    pairs = q.pairs
    sup = q.support()
    if not support_is_connected(q.q, pairs):
        raise ValidationError("q's support must be strongly connected")
    if n < sup.size:
        raise ValidationError(
            f"n={n} is below the support size; need n >= {sup.size} "
            "to place one arc per support element while staying balanced")
    k = sup.size
    target = n * q.q[sup]
    base = np.floor(target + 1e-9)
    frac = np.clip(np.round((target - base) * 1e9), 0.0, None) * 1e-9
    leave, arrive = pairs.incidence(sup)
    net_in = arrive - leave  # self-loops cancel
    shift = np.hstack([np.eye(k), np.eye(k), -np.eye(k)])  # x = base + shift @ (p1, p2, m)
    A = np.vstack([net_in @ shift, np.ones((1, k)) @ shift])
    rhs = np.append(-net_in @ base, n - base.sum())
    upper = np.concatenate([np.ones(k), np.full(k, n), base])
    # the deviation in units of 1e-6, far above HiGHS's absolute gap
    obj = 1e6 * np.concatenate([1.0 - 2.0 * frac, np.ones(2 * k)])
    c = np.zeros(k) if arc_cost is None else np.asarray(arc_cost, dtype=float)[sup]
    tie = c @ shift / (n * np.abs(c).max()) if c.any() else 0.0
    counts = np.zeros(len(pairs), dtype=np.int64)
    counts[sup] = base
    try:
        if frac.any() or rhs.any():
            counts[sup] = base + shift @ np.rint(_highs(obj + tie, A, rhs, rhs, upper, 1).x)
        if not support_is_connected(counts, pairs):
            # rows g <= n x and, at every state but the root, inflow - outflow
            # of g equal to its out-count (every support state is a tail)
            others = np.unique(pairs.tails[sup]) != q.most_visited()
            out = leave[others]
            A = np.block([[A, np.zeros((len(A), k))],
                          [-n * shift, np.eye(k)],
                          [-out @ shift, net_in[others]]])
            lb = np.concatenate([rhs, np.full(k, -np.inf), out @ base])
            ub = np.concatenate([rhs, n * base, out @ base])
            z = _highs(np.append(obj + tie, np.zeros(k)), A, lb, ub,
                       np.append(upper, np.full(k, np.inf)), np.repeat([1, 0], [3 * k, k])).x
            counts[sup] = base + shift @ np.rint(z[:3 * k])
    except InfeasibleError:
        raise ValidationError(
            f"no balanced, connected type of total {n} on q's support; adjust n") from None

    dev = np.abs(counts - n * q.q)
    if dev.max() > len(pairs) + 1e-6:
        raise ValidationError("rounded counts drifted beyond the deviation bound")
    return MarkovTypeSpec(pairs, counts, n)


def euler_circuit(spec: MarkovTypeSpec, anchor: int, seed) -> np.ndarray:
    """A closed walk from the anchor using each arc exactly its count,
    with the next unused arc drawn uniformly (randomized Hierholzer).
    Returns the n states visited; the wrap arc (s_n, s_1) is implied."""
    pairs, counts, n = spec.pairs, spec.counts, spec.n
    rng = np.random.default_rng(np.random.SeedSequence(seed))
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
    """M anchored walks of the per-segment types, in greedy pick order."""

    pairs: FeasiblePairSet
    paths: np.ndarray            # (M, n) states
    arc_paths: np.ndarray        # (M, n) arc indices
    certificate: tuple           # MarkovTypeSpec per segment, in block order
    seed: int


def _segment_lengths(weights: np.ndarray, n: int) -> np.ndarray:
    raw = n * weights
    base = np.floor(raw).astype(np.int64)
    rem = int(n - base.sum())
    order = np.argsort(-(raw - base), kind="stable")
    base[order[:rem]] += 1
    return base


def build_ensemble(types, M: int, n: int, seed: int, anchor: int,
                   d: DistanceMatrix | None = None) -> CandidateSet:
    """M walks chosen by distance among 2M-1 seeded circuits per segment.

    `types` is one MarkovTypeSpec or a sequence of them, the segments of a
    time-sharing block in order; their lengths must sum to n. Every segment
    is its own circuit anchored at `anchor`, rotated on its own, so
    concatenation needs no seam repair. The pool is 2M-1
    randomized-Hierholzer circuits of each type. Every walk's segment is
    an anchored rotation of a pool circuit (the same closed walk restarted
    at one of its visits to the anchor, so it keeps the certified arc
    counts), picked greedily to maximize its minimum summed distance to the
    walks already chosen; see `_spread_rotations`. Distances are those
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

    lookup = pairs.index_lookup()
    sup = np.unique(np.concatenate([np.nonzero(spec.counts)[0] for spec in specs]))
    features = _arc_features(sup, len(pairs), d)
    pieces = []
    for s, spec in enumerate(specs):
        pool = np.stack([euler_circuit(spec, anchor, (int(seed), c, s))
                         for c in range(2 * M - 1)])
        arcs = lookup[pool, np.roll(pool, -1, axis=1)]
        picks = _spread_rotations(pool, arcs, anchor, features, M)
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
    FFT noise never decides a tie: one argmax finds the maximum, and the
    first entry within its slack lies at or before it."""
    flat = obj.ravel()
    j = int(flat.argmax())
    top = flat[j]
    slack = 1e-9 * max(1.0, abs(top)) if np.isfinite(top) else 0.0
    return int((flat[:j + 1] >= top - slack).argmax())


def _spread_rotations(pool: np.ndarray, arcs: np.ndarray, anchor: int,
                      features, M: int) -> list:
    """Greedy max-min choice of M anchored rotations of pool circuits.

    pool and arcs are the (P, ell) state and arc paths of P circuits. A
    candidate (i, k) is circuit i restarted at position k, a visit to the
    anchor. The distances from every rotation of every circuit to circuit
    i as drawn are circular cross-correlations of the arc features, taken
    by FFT one circuit i at a time into one preallocated (P, P, ell)
    table; rotating circuit i by k rotates them by k. A run starts from
    one unrotated circuit and adds, one by one, the rotation farthest from
    its nearest chosen candidate, found by one argmax pass (`_first_max`).
    Every circuit is tried as the start of a run of M picks, and the run
    whose picks lie farthest apart is returned. The runs share one buffer
    of nearest distances and one for the rotated distances of each pick,
    so a step allocates no (P, ell) array.
    """
    phi, lam = features
    P, ell = pool.shape
    spec = np.fft.rfft(phi[arcs], axis=1)  # (P, ell // 2 + 1, r)
    weighted = spec * lam
    # base[i, j, m]: distance from circuit j restarted at m to circuit i
    base = np.empty((P, P, ell))
    for i in range(P):
        base[i] = np.fft.irfft(np.einsum("jfr,fr->jf", weighted, spec[i].conj()),
                               n=ell, axis=1)
    off_anchor = np.where(pool == anchor, 0.0, -np.inf)
    nearest, rolled = np.empty_like(off_anchor), np.empty_like(off_anchor)

    def run(start):
        picks = [(start, 0)]
        np.add(base[start], off_anchor, out=nearest)
        spread = np.inf
        while len(picks) < M:
            i, k = divmod(_first_max(nearest), ell)
            spread = min(spread, nearest[i, k])
            picks.append((i, k))
            # rolled = np.roll(base[i], k, axis=1), without allocating
            rolled[:, k:], rolled[:, :k] = base[i, :, :ell - k], base[i, :, ell - k:]
            np.minimum(nearest, rolled, out=nearest)
        return picks, spread

    runs = [run(i) for i in range(P)]
    return runs[_first_max(np.array([spread for _, spread in runs]))][0]


@dataclass(frozen=True, eq=False)
class Codebook:
    """M codewords with their state paths, the type certificate they were
    drawn from and the largest blend theta applied to reach it."""

    machine: StateMachine
    pairs: FeasiblePairSet
    codewords: np.ndarray        # (M, n) symbol indices
    state_paths: np.ndarray      # (M, n) state indices
    arc_paths: np.ndarray        # (M, n) arc indices
    certificate: tuple
    min_pair_distance: float
    seed: int
    blend: float

    @property
    def n(self) -> int:
        return self.codewords.shape[1]

    @property
    def M(self) -> int:
        return self.codewords.shape[0]

    def to_json_dict(self) -> dict:
        labels = np.array([str(s) for s in self.machine.states])
        cert = []
        for spec in self.certificate:
            pos = np.nonzero(spec.counts > 0)[0]
            ends = zip(labels[self.pairs.tails[pos]].tolist(),
                       labels[self.pairs.heads[pos]].tolist(), spec.counts[pos].tolist())
            cert.append({
                "length": int(spec.n),
                "counts": [{"from": a, "to": b, "count": c} for a, b, c in ends],
            })
        return {
            "n": int(self.n),
            "M": int(self.M),
            "alphabet": [str(a) for a in self.machine.alphabet],
            "codewords": self.codewords.tolist(),
            "state_paths": labels[self.state_paths].tolist(),
            "type_counts": cert,
            "min_pair_distance": self.min_pair_distance,
            "seed": int(self.seed),
            "blend": self.blend,
        }

    @classmethod
    def from_json_dict(cls, doc: dict, machine: StateMachine, pairs: FeasiblePairSet,
                       d: DistanceMatrix) -> "Codebook":
        """Inverse of to_json_dict on the channel the book was built for, whose
        distance matrix is d. A document with a missing key, a state the
        machine lacks, a pair it cannot take, codewords other than those its
        state paths emit, an n or M other than the shape of its codewords,
        segment arc counts other than its type_counts, or a
        min_pair_distance other than its paths' d_min under d raises
        ValidationError. The d_min check is exact: the writer computed it the
        same way, and JSON floats round-trip."""
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
            # one dict lookup per row, mapped in C; None marks a label that
            # is not a state
            codes = [list(map(index.get, row)) for row in doc["state_paths"]]
            if any(None in row for row in codes):
                for label in itertools.chain.from_iterable(doc["state_paths"]):
                    state(label)  # raises at the first label that is not a state
            paths = np.array(codes, dtype=np.int64)
            codewords = np.asarray(doc["codewords"], dtype=np.int64)
            arc_paths = lookup[paths, np.roll(paths, -1, axis=1)]
            cert = []
            for seg in doc["type_counts"]:
                counts = np.zeros(len(pairs), dtype=np.int64)
                for ent in seg["counts"]:
                    counts[arc(ent["from"], ent["to"])] = int(ent["count"])
                cert.append(MarkovTypeSpec(pairs, counts, int(seg["length"])))
            meta = float(doc["min_pair_distance"]), int(doc["seed"]), float(doc["blend"])
            shape = int(doc["M"]), int(doc["n"])
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
        if shape != paths.shape:
            raise ValidationError(f"codebook declares M={shape[0]}, n={shape[1]} but holds "
                                  f"{paths.shape[0]} codewords of length {paths.shape[1]}")
        if any((emit_codeword(p, machine) != x).any() for p, x in zip(paths, codewords)):
            raise ValidationError("codewords differ from the symbols their state paths emit")
        M, L = paths.shape[0], len(pairs)
        ends = np.cumsum([0] + [spec.n for spec in cert])
        if ends[-1] != paths.shape[1]:
            raise ValidationError(f"type_counts segments total {ends[-1]}, "
                                  f"codewords have length {paths.shape[1]}")
        for s, (spec, end) in enumerate(zip(cert, ends[1:])):
            block = arc_paths[:, end - spec.n:end] + L * np.arange(M)[:, None]
            if (np.bincount(block.ravel(), minlength=M * L).reshape(M, L) != spec.counts).any():
                raise ValidationError(f"codeword arcs in segment {s} differ from its type_counts")
        md = _min_distance(arc_paths, d)
        if md != meta[0]:
            raise ValidationError(f"codebook min_pair_distance {meta[0]!r} differs from its "
                                  f"paths' minimum pairwise distance {md!r}")
        return cls(machine, pairs, codewords, paths, arc_paths, tuple(cert), *meta)


def pairwise_path_distances(arc_paths: np.ndarray, d: DistanceMatrix) -> np.ndarray:
    """Symmetric matrix of summed per-step distances between walks, one
    (C - i - 1, n) gather per row i."""
    C = arc_paths.shape[0]
    out = np.zeros((C, C))
    for i in range(C - 1):
        out[i, i + 1:] = out[i + 1:, i] = d.d[arc_paths[i], arc_paths[i + 1:]].sum(axis=1)
    return out


def _min_distance(arc_paths: np.ndarray, d: DistanceMatrix) -> float:
    """d_min of the walks: their least pairwise distance, inf for one walk."""
    dist = pairwise_path_distances(arc_paths, d)
    return float(dist[np.triu_indices(len(arc_paths), 1)].min(initial=np.inf))


def expurgate(candidates: CandidateSet, d: DistanceMatrix, M: int,
              machine: StateMachine) -> Codebook:
    """The codebook of the first M candidates, in their greedy order.

    The reported min_pair_distance is their exact minimum pairwise distance
    d_min: by the union bound over the Bhattacharyya bound of each pair,
    every codeword's ML error probability is at most (M-1) exp(-d_min). A
    pair at distance 0 (clones, from a type with too few distinct circuits)
    is refused with a ValidationError. `machine` emits the codewords. The
    book's blend is 0.
    """
    C = candidates.paths.shape[0]
    if C < M:
        raise ValidationError(f"need at least {M} candidates, got {C}")
    paths, arc_paths = candidates.paths[:M], candidates.arc_paths[:M]
    md = _min_distance(arc_paths, d)
    if md <= 0.0:
        raise ValidationError(
            f"kept codewords include a pair at distance 0: the type admits too "
            f"few distinct circuits for M={M}")
    codewords = np.stack([emit_codeword(p, machine) for p in paths])
    return Codebook(machine, candidates.pairs, codewords, paths, arc_paths,
                    candidates.certificate, md, candidates.seed, 0.0)


def blend_for_construction(q: PairDistribution, anchor: int | None, n: int,
                           theta: float | None = None) -> tuple[PairDistribution, int, float]:
    """Make a distribution constructible at block length n: if its support
    is not strongly connected or gives the anchor no stationary mass, mix
    in mass theta = min(1/2, 2 L_c / n) of the uniform distribution on the
    L_c arcs of its component (the arbitrarily-small-degradation repair).
    An explicit positive theta is mixed in whether or not it is needed.

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
    needs = (not support_is_connected(q.q, pairs)) or (q.pi[anchor] <= 1e-12)
    if theta is None:
        theta = min(0.5, 2.0 * L_c / n) if needs else 0.0
    if theta <= 0.0:
        return q, anchor, 0.0
    uni = np.zeros(len(pairs))
    uni[comp.arcs] = 1.0 / L_c
    blended = PairDistribution(pairs, (1.0 - theta) * q.q + theta * uni)
    return blended, anchor, float(theta)


def build_codebook(plan: TimeSharingPlan, d: DistanceMatrix, cost: CostModel, n: int,
                   M: int, seed: int, machine: StateMachine) -> Codebook:
    """The codebook construction for an exponent argmax.

    The block is split among the plan's segments of positive weight by the
    largest-remainder rounding of n*w. Each segment's distribution is
    blended at block length n (`blend_for_construction` with its automatic
    mass) and rounded to an integer type of its length, with
    residual ties going to the cheaper arc (`round_type`). The types' total
    cost must stay within n*gamma (InfeasibleError otherwise). The M walks
    of `build_ensemble` become the codebook, which records the largest blend
    theta applied as its `blend`."""
    keep = plan.weights > 1e-12
    comps = [c for c, k in zip(plan.components, keep) if k]
    lengths = _segment_lengths(plan.weights[keep] / plan.weights[keep].sum(), n)
    arc_cost = cost.pair_costs(comps[0].pairs)
    types, thetas = [], []
    for comp, ell in zip(comps, lengths):
        q, _, applied = blend_for_construction(comp, plan.anchor, n)
        types.append(round_type(q, int(ell), arc_cost))
        thetas.append(applied)
    budget = n * cost.gamma
    total = sum(t.cost(cost) for t in types)
    if total > budget + 1e-9 * max(1.0, abs(budget)):
        raise InfeasibleError(
            f"rounded type cost {total:g} exceeds the per-codeword budget {budget:g}")
    book = expurgate(build_ensemble(types, M, n, seed, plan.anchor, d), d, M, machine)
    return replace(book, blend=max(thetas))
