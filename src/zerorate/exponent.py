"""The quadratic exponent functional over pair distributions and its
constrained maximization, with and without time-sharing.

E0(q) = q^T D q over distributions q on feasible pairs with equal
marginals, connected support within one strongly connected feasibility
component, and marginal cost within budget. `maximize_e0` is the one
solver entry point. Time-sharing mixtures couple their segments only
through the shared cost budget, so they can beat a single distribution
only where E0 is not concave (checked through the reduced matrix) and the
budget binds; there `maximize_uce` approaches the upper concave envelope.
Everywhere else a multi-start projected-gradient solve is the value,
exact where E0 is concave.

The connectivity requirement is handled by closure: the maximum over the
polytope of one strongly connected component equals the supremum over
connected-support distributions (mass epsilon on connecting arcs changes
E0 continuously), so the reported value is the supremum and the argmax is
flagged when its own support is not connected.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bhatt import DistanceMatrix
from .errors import InfeasibleError, UnsupportedChannelError, ValidationError
from .fsm import FeasiblePairSet, strong_components
from .polytope import Polytope, _highs_lp, maximize_quadratic

MARGINAL_TOL = 1e-10
SWEEP_POINTS = 17  # budgets in maximize_uce's value-versus-cost sweep, run only
                   # on non-concave components whose budget binds


@dataclass(frozen=True, eq=False)
class PairDistribution:
    """Probability vector over feasible pairs with equal in/out marginals."""

    pairs: FeasiblePairSet
    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (len(self.pairs),):
            raise ValidationError(f"q must have length {len(self.pairs)}")
        if (q < -MARGINAL_TOL).any():
            raise ValidationError("q entries must be nonnegative")
        q = np.maximum(q, 0.0)
        if abs(q.sum() - 1.0) > MARGINAL_TOL:
            raise ValidationError(f"q sums to {q.sum()!r}, not 1")
        q = q / q.sum()
        out_m = np.bincount(self.pairs.tails, weights=q, minlength=self.pairs.n_states)
        in_m = np.bincount(self.pairs.heads, weights=q, minlength=self.pairs.n_states)
        if np.max(np.abs(out_m - in_m)) > MARGINAL_TOL:
            raise ValidationError("q does not have equal marginals")
        object.__setattr__(self, "q", q)
        q.setflags(write=False)

    @property
    def pi(self) -> np.ndarray:
        """The common state marginal."""
        return np.bincount(self.pairs.tails, weights=self.q,
                           minlength=self.pairs.n_states)

    def support(self, tol: float = 1e-12) -> np.ndarray:
        return np.nonzero(self.q > tol)[0]

    def most_visited(self, states=None) -> int:
        """The state of largest marginal mass among `states` (default: all).
        Masses within 1e-12 tie and go to the lowest index, so roundoff on a
        symmetric optimum does not choose the state."""
        pi = self.pi
        cand = range(len(pi)) if states is None else sorted(states)
        top = max(pi[s] for s in cand)
        return next(int(s) for s in cand if pi[s] >= top - 1e-12)


@dataclass(frozen=True)
class CostModel:
    """Per-symbol cost phi and budget; the cost of arc (s, s+) is
    phi(g(s+)), charged to the emitted input symbol."""

    phi: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))
        self.phi.setflags(write=False)

    def pair_costs(self, pairs: FeasiblePairSet) -> np.ndarray:
        return self.phi[pairs.symbols]

    @classmethod
    def free(cls, n_symbols: int) -> "CostModel":
        return cls(np.zeros(n_symbols), 0.0)


@dataclass(frozen=True, eq=False)
class TimeSharingPlan:
    """Convex combination of pair distributions realized by segmenting the
    block; every segment is anchored at the shared state sigma. A single
    distribution is the plan with one segment."""

    weights: np.ndarray
    components: tuple
    anchor: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if len(w) != len(self.components) or len(w) == 0:
            raise ValidationError("weights and components must align")
        if (w < -1e-12).any() or abs(w.sum() - 1.0) > 1e-9:
            raise ValidationError("weights must be a probability vector")
        object.__setattr__(self, "weights", np.maximum(w, 0.0) / max(w.sum(), 1e-300))
        self.weights.setflags(write=False)

    def mixture(self) -> PairDistribution:
        if len(self.components) == 1:
            return self.components[0]
        q = sum(w * comp.q for w, comp in zip(self.weights, self.components))
        return PairDistribution(self.components[0].pairs, q)

    def value(self, d: DistanceMatrix) -> float:
        return float(sum(w * e0(comp, d)
                         for w, comp in zip(self.weights, self.components)))

    def cost(self, cost: CostModel) -> float:
        c = cost.pair_costs(self.components[0].pairs)
        return float(sum(w * (c @ comp.q)
                         for w, comp in zip(self.weights, self.components)))


@dataclass(frozen=True, eq=False)
class ExponentResult:
    value: float
    single_value: float  # the best single distribution found; at most value
    argmax: TimeSharingPlan  # one segment unless time sharing was solved
    concave: bool
    scc_id: int
    support_connected: bool


class ConcavityReport(NamedTuple):
    concave: bool
    reduced: np.ndarray
    min_eigenvalue: float


@dataclass(frozen=True, eq=False)
class FeasibilityComponent:
    states: frozenset
    arcs: np.ndarray  # indices into the pair set; arcs crossing SCCs excluded


@dataclass
class SolverOptions:
    tol: float = 1e-9
    starts: int = 32
    seed: int = 0


def e0(q, d: DistanceMatrix) -> float:
    """The quadratic functional q^T D q; zero for point masses."""
    vec = q.q if hasattr(q, "q") else np.asarray(q, dtype=float)
    if len(vec) != len(d):
        raise ValidationError("dimension mismatch between q and D")
    sup = np.nonzero(vec > 0)[0]
    if np.isinf(d.d[np.ix_(sup, sup)]).any():
        raise UnsupportedChannelError(
            "infinite Bhattacharyya distance on the support of q "
            "(disjoint output supports); zero-rate theory does not apply")
    return float(vec @ d.d @ vec)


def concavity_test(d: DistanceMatrix, tol: float = 1e-9) -> ConcavityReport:
    """Concavity of q^T D q on the simplex via the reduced matrix with the
    last pair as reference: concave iff -Dt, with entries
    d(x,L) + d(L,x') - d(x,x'), is positive semi-definite."""
    mat = d.d
    L = len(mat)
    if L < 2:
        return ConcavityReport(True, np.zeros((0, 0)), 0.0)
    if np.isinf(mat).any():
        raise ValidationError("concavity test requires finite distances")
    ref = L - 1
    idx = np.arange(L - 1)
    reduced = mat[np.ix_(idx, idx)] - mat[idx, ref][:, None] - mat[ref, idx][None, :]
    neg = -reduced
    neg = 0.5 * (neg + neg.T)
    min_eig = float(np.linalg.eigvalsh(neg)[0])
    return ConcavityReport(min_eig >= -tol, reduced, min_eig)


def feasibility_sccs(pairs: FeasiblePairSet) -> list[FeasibilityComponent]:
    """Strongly connected components of the digraph (states, feasible
    pairs), each with the arcs internal to it; cross-component arcs belong
    to no component. Components are ordered by their smallest state."""
    labels = strong_components(pairs.n_states, pairs.tails, pairs.heads)
    comps = {}
    for s, lab in enumerate(labels):
        comps.setdefault(lab, set()).add(s)
    ordered = sorted(comps.values(), key=min)
    out = []
    for states in ordered:
        mask = np.isin(pairs.tails, list(states)) & np.isin(pairs.heads, list(states))
        out.append(FeasibilityComponent(frozenset(states), np.nonzero(mask)[0]))
    return out


def support_is_connected(q, pairs: FeasiblePairSet, tol: float = 1e-12) -> bool:
    """Whether the support arcs form one strongly connected digraph over
    the states they touch (the class-membership requirement on supports).
    q may be a PairDistribution or any per-pair weight vector."""
    vec = q.q if isinstance(q, PairDistribution) else np.asarray(q, dtype=float)
    sup = np.nonzero(vec > tol)[0]
    if not sup.size:
        return False
    tails, heads = pairs.tails[sup], pairs.heads[sup]
    labels = strong_components(pairs.n_states, tails, heads)
    return len(np.unique(labels[np.concatenate([tails, heads])])) == 1


def _balance_rows(pairs: FeasiblePairSet, arcs: np.ndarray) -> np.ndarray:
    """Out-minus-in rows, one per state touched by the arcs."""
    touched = sorted(set(pairs.tails[arcs].tolist()) | set(pairs.heads[arcs].tolist()))
    rows = np.zeros((len(touched), len(arcs)))
    for i, s in enumerate(touched):
        rows[i, pairs.tails[arcs] == s] += 1.0
        rows[i, pairs.heads[arcs] == s] -= 1.0
    return rows


def component_polytope(pairs: FeasiblePairSet, arcs: np.ndarray,
                       cost: CostModel | None = None,
                       budget: float | None = None) -> Polytope:
    """{q >= 0 on the given arcs, sum q = 1, equal marginals, cost <= budget}."""
    n = len(arcs)
    bal = _balance_rows(pairs, arcs)
    a_eq = np.vstack([np.ones((1, n)), bal])
    b_eq = np.zeros(len(a_eq))
    b_eq[0] = 1.0
    if cost is None:
        return Polytope(a_eq, b_eq)
    g = cost.gamma if budget is None else budget
    return Polytope(a_eq, b_eq, cost.pair_costs(pairs)[arcs].copy(), g)


def _embed(pairs: FeasiblePairSet, arcs: np.ndarray, sub_q: np.ndarray) -> PairDistribution:
    """Lift a distribution on a component's arcs to all pairs."""
    q = np.zeros(len(pairs))
    q[arcs] = np.maximum(sub_q, 0.0)
    q /= q.sum()
    return PairDistribution(pairs, q)


def _multistart_max(sub_d: np.ndarray, poly: Polytope, rng, n_starts: int,
                    opts: SolverOptions, warm=(), tol=None,
                    feasible=None) -> tuple[np.ndarray, float]:
    """Best stationary point of q^T D q over the polytope from several
    starts, `warm` (earlier solutions) among them; deterministic given the
    generator state. `feasible` is the polytope's feasible point when the
    caller already has it."""
    n = poly.dim
    starts = [np.full(n, 1.0 / n)]
    starts.extend(np.asarray(s, dtype=float) for s in warm)
    starts.append(poly.feasible_point() if feasible is None else feasible)
    for _ in range(max(n_starts - len(starts), 0)):
        starts.append(rng.dirichlet(np.ones(n)))
    best_q, best_v = None, -np.inf
    for s in starts:
        q, v = maximize_quadratic(sub_d, poly, s, opts.tol if tol is None else tol)
        if v > best_v + 1e-15:
            best_q, best_v = q, v
    return best_q, best_v


def maximize_e0(d: DistanceMatrix, pairs: FeasiblePairSet, cost: CostModel,
                opts: SolverOptions | None = None) -> ExponentResult:
    """The zero-rate exponent: the best value over the feasibility components
    that have arcs, finite distances and a point within budget.

    A component gets one multi-start single solve (two starts when E0 is
    concave there), unless E0 is not concave and the budget binds
    (gamma below the component's largest cost), where time sharing can beat
    one distribution and `maximize_uce` solves it instead. The argmax is a
    TimeSharingPlan either way; a single solve gives one segment anchored at
    its most visited state."""
    opts = opts or SolverOptions()
    best = None
    single = -np.inf
    saw_finite = False
    for cid, comp in enumerate(feasibility_sccs(pairs)):
        if not len(comp.arcs):
            continue
        sub_d = d.d[np.ix_(comp.arcs, comp.arcs)]
        if np.isinf(sub_d).any():
            continue
        saw_finite = True
        poly = component_polytope(pairs, comp.arcs, cost)
        try:
            feasible = poly.feasible_point()
        except InfeasibleError:
            continue
        concave = concavity_test(DistanceMatrix(sub_d)).concave
        c_range = None if concave else component_polytope(pairs, comp.arcs).linear_range(
            cost.pair_costs(pairs)[comp.arcs])
        if c_range is not None and cost.gamma < c_range[1] - 1e-12:
            val, val_single, arg = maximize_uce(d, pairs, cost, comp, c_range, opts)
        else:
            rng = np.random.default_rng(np.random.SeedSequence((opts.seed, cid)))
            q_sub, val = _multistart_max(sub_d, poly, rng, 2 if concave else opts.starts,
                                         opts, feasible=feasible)
            val_single = val
            q = _embed(pairs, comp.arcs, q_sub)
            arg = TimeSharingPlan(np.array([1.0]), (q,), q.most_visited(comp.states))
        single = max(single, val_single)
        if best is None or val > best[0] + 1e-15:
            best = (val, arg, concave, cid)
    if best is None:
        if saw_finite:
            raise InfeasibleError("no feasibility component meets the cost budget")
        raise UnsupportedChannelError(
            "every feasibility component has an infinite distance entry")
    val, arg, concave, cid = best
    connected = all(support_is_connected(c, pairs) for c in arg.components)
    return ExponentResult(val, single, arg, concave, cid, connected)


def _weight_lp(values: np.ndarray, costs: np.ndarray, gamma: float):
    """max w.values s.t. sum w = 1, w.costs <= gamma, w >= 0."""
    res = _highs_lp(-values, np.ones((1, len(values))), [1.0], costs, gamma)
    if res.status != 0:
        raise InfeasibleError("cost budget below every candidate component")
    return res.x, float(-res.fun)


def maximize_uce(d: DistanceMatrix, pairs: FeasiblePairSet, cost: CostModel,
                 comp: FeasibilityComponent, c_range: tuple[float, float],
                 opts: SolverOptions) -> tuple[float, float, TimeSharingPlan]:
    """Time-sharing value over one component whose cost budget binds:
    gamma lies in c_range, the min and max cost per use over the component.

    Segments each satisfy the class constraints (feasibility, equal
    marginals, support closure within the component); the mixture must meet
    the cost budget -- the only coupling. Solved by a budget sweep (the
    value-versus-cost curve's upper hull locates the split) followed by
    alternating maximization: a weight LP over the candidate pool, then
    per-segment multi-start projected gradient at its allotted budget. For
    indefinite D the result is a certified lower bound (best found).

    Returns the value, the best single distribution at budget gamma, and the
    plan anchored at the component's smallest state."""
    arcs = comp.arcs
    sub_d = d.d[np.ix_(arcs, arcs)]
    costs = cost.pair_costs(pairs)[arcs]
    rng = np.random.default_rng(np.random.SeedSequence((opts.seed, 0x7CE)))
    c_lo, c_hi = c_range

    def solve_at(budget, extra=(), n_starts=4, tol=1e-8):
        poly = component_polytope(pairs, arcs, cost, budget)
        return _multistart_max(sub_d, poly, rng, n_starts, opts, warm=extra, tol=tol)

    pool: list[tuple[np.ndarray, float, float]] = []  # (q, value, cost)

    def add(q, v):
        pool.append((q, v, float(costs @ q)))

    budgets = np.unique(np.concatenate([
        np.linspace(c_lo, c_hi, SWEEP_POINTS), [cost.gamma]]))
    prev = None
    for b in budgets:
        extra = (prev,) if prev is not None else ()
        q, v = solve_at(b, extra=extra, n_starts=max(2, opts.starts // 8))
        add(q, v)
        prev = q
    qg, vg = solve_at(cost.gamma, extra=(prev,), n_starts=opts.starts, tol=opts.tol)
    add(qg, vg)

    best_val = -np.inf
    best_w = best_idx = None
    for _ in range(60):
        vals = np.array([p[1] for p in pool])
        cs = np.array([p[2] for p in pool])
        w, val = _weight_lp(vals, cs, cost.gamma)
        active = np.nonzero(w > 1e-12)[0]
        stalled = val <= best_val + opts.tol
        if val > best_val:
            best_val, best_w, best_idx = val, w, active
        if stalled:
            break
        grew = False
        for u in active:
            others = [i for i in active if i != u]
            spent = sum(w[i] * pool[i][2] for i in others)
            slack = (cost.gamma - spent) / w[u] if w[u] > 1e-12 else c_hi
            slack = float(np.clip(slack, c_lo, c_hi))
            q, v = solve_at(slack, extra=(pool[u][0],), n_starts=max(2, opts.starts // 8))
            if v > pool[u][1] + 1e-12:
                add(q, v)
                grew = True
        if not grew:
            break
    segments = tuple(_embed(pairs, arcs, pool[i][0]) for i in best_idx)
    weights = np.array([best_w[i] for i in best_idx])
    plan = TimeSharingPlan(weights / weights.sum(), segments, min(comp.states))
    return best_val, vg, plan


