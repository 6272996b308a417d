"""The quadratic exponent functional over pair distributions and its
constrained maximization, with and without time-sharing.

E0(q) = q^T D q over distributions q on feasible pairs with equal
marginals, connected support within one strongly connected feasibility
component, and marginal cost within budget. `maximize_e0` is the one
solver entry point. Time-sharing mixtures couple their segments only
through the shared cost budget, so they can beat a single distribution
only where E0 is not concave on the component's feasible set (checked on
the affine hull of its polytope) and the budget binds; there `maximize_uce`
approaches the upper concave envelope. Everywhere else a multi-start
projected-gradient solve is the value, exact where E0 is concave.

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
from .fsm import CostModel, FeasiblePairSet, strong_components
from .polytope import Polytope, _highs_lp, maximize_quadratic

MARGINAL_TOL = 1e-10
SWEEP_POINTS = 17  # budgets in maximize_uce's value-versus-cost sweep, run only
                   # on non-concave components whose budget binds
# projected gradient stops once a step gains at most this much: single solves
# and the solve at the budget itself, then the coarser sweep samples
SOLVE_TOL = 1e-9
SWEEP_TOL = 1e-8


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

    def support(self) -> np.ndarray:
        return np.nonzero(self.q > 1e-12)[0]

    def most_visited(self, states=None) -> int:
        """The state of largest marginal mass among `states` (default: all).
        Masses within 1e-12 tie and go to the lowest index, so roundoff on a
        symmetric optimum does not choose the state."""
        pi = self.pi
        cand = range(len(pi)) if states is None else sorted(states)
        top = max(pi[s] for s in cand)
        return next(int(s) for s in cand if pi[s] >= top - 1e-12)


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
    curvature: float  # largest eigenvalue of N^T D N, N a basis of {sum q = 0}


@dataclass(frozen=True, eq=False)
class FeasibilityComponent:
    states: frozenset
    arcs: np.ndarray  # indices into the pair set; arcs crossing SCCs excluded


def e0(q: PairDistribution, d: DistanceMatrix) -> float:
    """The quadratic functional q^T D q; zero for point masses. Only the
    support of q enters, so D may be infinite off it."""
    if len(q.q) != len(d):
        raise ValidationError("dimension mismatch between q and D")
    sup = np.flatnonzero(q.q)
    block = d.d[np.ix_(sup, sup)]
    if np.isinf(block).any():
        raise UnsupportedChannelError(
            "infinite Bhattacharyya distance on the support of q "
            "(disjoint output supports); zero-rate theory does not apply")
    return float(q.q[sup] @ block @ q.q[sup])


def _hull_curvature(null: np.ndarray, dmat: np.ndarray) -> float:
    """The largest eigenvalue of N^T D N: q^T D q is concave on the affine
    hull x0 + range(N) iff it is at most 0 (-inf on a single point)."""
    return float(np.linalg.eigvalsh(null.T @ dmat @ null).max(initial=-np.inf))


def concavity_test(d: DistanceMatrix) -> ConcavityReport:
    """Concavity of q^T D q on the simplex's affine hull {sum q = 1}: the
    hull curvature is at most 1e-9."""
    if np.isinf(d.d).any():
        raise ValidationError("concavity test requires finite distances")
    curv = _hull_curvature(Polytope(np.ones((1, len(d))), [1.0])._null, d.d)
    return ConcavityReport(curv <= 1e-9, curv)


def feasibility_sccs(pairs: FeasiblePairSet) -> list[FeasibilityComponent]:
    """Strongly connected components of the digraph (states, feasible
    pairs), each with the arcs internal to it; cross-component arcs belong
    to no component. Components are ordered by their smallest state."""
    labels = strong_components(pairs.n_states, pairs.tails, pairs.heads)
    tails, heads = labels[pairs.tails], labels[pairs.heads]
    return [FeasibilityComponent(frozenset(np.flatnonzero(labels == lab).tolist()),
                                 np.flatnonzero((tails == lab) & (heads == lab)))
            for lab in dict.fromkeys(labels.tolist())]


def support_is_connected(q: np.ndarray, pairs: FeasiblePairSet) -> bool:
    """Whether the arcs of positive weight in q (one weight per pair) form
    one strongly connected digraph over the states they touch (the
    class-membership requirement on supports)."""
    sup = np.nonzero(np.asarray(q) > 1e-12)[0]
    if not sup.size:
        return False
    tails, heads = pairs.tails[sup], pairs.heads[sup]
    labels = strong_components(pairs.n_states, tails, heads)
    return len(np.unique(labels[np.concatenate([tails, heads])])) == 1


def _balance_rows(pairs: FeasiblePairSet, arcs: np.ndarray) -> np.ndarray:
    """Out-minus-in rows, one per touched state in state order (0 on self-loops)."""
    ends = np.stack([pairs.tails[arcs], pairs.heads[arcs]])
    hit = np.unique(ends)[:, None, None] == ends
    return hit[:, 0].astype(float) - hit[:, 1]


def component_polytope(pairs: FeasiblePairSet, arcs: np.ndarray,
                       cost: CostModel | None = None) -> Polytope:
    """{q >= 0 on the given arcs, sum q = 1, equal marginals, cost <= gamma}."""
    n = len(arcs)
    bal = _balance_rows(pairs, arcs)
    a_eq = np.vstack([np.ones((1, n)), bal])
    b_eq = np.zeros(len(a_eq))
    b_eq[0] = 1.0
    if cost is None:
        return Polytope(a_eq, b_eq)
    return Polytope(a_eq, b_eq, cost.pair_costs(pairs)[arcs].copy(), cost.gamma)


def _embed(pairs: FeasiblePairSet, arcs: np.ndarray, sub_q: np.ndarray) -> PairDistribution:
    """Lift a distribution on a component's arcs to all pairs."""
    q = np.zeros(len(pairs))
    q[arcs] = np.maximum(sub_q, 0.0)
    q /= q.sum()
    return PairDistribution(pairs, q)


def _multistart_max(sub_d: np.ndarray, poly: Polytope, rng, n_starts: int, tol: float,
                    given=()) -> tuple[np.ndarray, float]:
    """Best stationary point of q^T D q over the polytope from n_starts
    starts: the uniform point, the `given` ones (earlier solutions, a
    feasible point), then Dirichlet draws from rng. Each projected-gradient
    run stops once a step gains at most tol. Deterministic given the
    generator state."""
    n = poly.dim
    starts = [np.full(n, 1.0 / n)]
    starts.extend(np.asarray(s, dtype=float) for s in given)
    for _ in range(max(n_starts - len(starts), 0)):
        starts.append(rng.dirichlet(np.ones(n)))
    step = 1.0 / (2.0 * np.linalg.norm(sub_d, 2) + 1e-30)  # 1 / Lipschitz constant
    best_q, best_v = None, -np.inf
    for s in starts:
        q, v = maximize_quadratic(sub_d, poly, s, step, tol)
        if v > best_v + 1e-15:
            best_q, best_v = q, v
    return best_q, best_v


def maximize_e0(d: DistanceMatrix, pairs: FeasiblePairSet, cost: CostModel,
                starts: int = 32, seed: int = 0) -> ExponentResult:
    """The zero-rate exponent: the best value over the feasibility components
    that have arcs, finite distances and a point within budget.

    Where E0 is concave on the affine hull of a component's polytope, one
    projected-gradient run from the uniform point is the solve, and it
    needs no LP: an empty polytope shows as the projection's
    InfeasibleError. Elsewhere a component gets a multi-start single solve
    that starts from the cheapest feasible point (one LP) among others,
    unless the budget binds (gamma below the component's largest cost:
    two LPs, none where the cost is constant on the hull), where time
    sharing can beat one distribution and `maximize_uce` solves it instead.
    The argmax is a TimeSharingPlan either way; a single solve gives one
    segment anchored at its most visited state."""
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
        concave = _hull_curvature(poly._null, sub_d) <= 1e-9
        feasible = None
        try:
            if concave:
                # the one PG run needs no LP: projecting its start tests emptiness
                poly.project(np.full(poly.dim, 1.0 / poly.dim))
            else:
                feasible = poly.feasible_point()
        except InfeasibleError:
            if not concave:
                continue
            # an empty polytope skips the component, as the LP confirms; a
            # projection that fails on a nonempty one raises
            try:
                poly.feasible_point()
            except InfeasibleError:
                continue
            raise
        if concave:
            c_range = None
        elif poly._cost_norm:
            c_range = poly.linear_range(poly.cost)
        else:
            # a cost constant on {A q = b} takes its one value there: no LP
            c_range = (float(cost.pair_costs(pairs)[comp.arcs] @ poly._x0),) * 2
        if c_range is not None and cost.gamma < c_range[1] - 1e-12:
            val, val_single, arg = maximize_uce(sub_d, poly, feasible, pairs, comp, c_range,
                                                 starts, seed)
        else:
            rng = np.random.default_rng(np.random.SeedSequence((seed, cid)))
            q_sub, val = _multistart_max(sub_d, poly, rng, 1 if concave else starts, SOLVE_TOL,
                                         () if concave else (feasible,))
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
    connected = all(support_is_connected(c.q, pairs) for c in arg.components)
    return ExponentResult(val, single, arg, concave, cid, connected)


def _weight_lp(values: np.ndarray, costs: np.ndarray, gamma: float):
    """max w.values s.t. sum w = 1, w.costs <= gamma, w >= 0. The value is
    that of HiGHS's weights scaled to sum 1, as the plan takes them: its
    weights can sum to 1 + 1e-11, and its objective is off by as much."""
    res = _highs_lp(-values, np.ones((1, len(values))), [1.0], costs, gamma)
    if res.status != 0:
        raise InfeasibleError("cost budget below every candidate component")
    return res.x, float(res.x @ values / res.x.sum())


def maximize_uce(sub_d: np.ndarray, poly: Polytope, cheapest: np.ndarray,
                 pairs: FeasiblePairSet, comp: FeasibilityComponent, c_range: tuple[float, float],
                 starts: int, seed: int) -> tuple[float, float, TimeSharingPlan]:
    """Time-sharing value over one component whose cost budget binds, from
    what `maximize_e0` built for it: the distance block sub_d, the costed
    polytope at the budget gamma, which lies in c_range (the min and max
    cost per use over the component), and its cheapest point.

    Segments each satisfy the class constraints (feasibility, equal
    marginals, support closure within the component); the mixture must meet
    the cost budget -- the only coupling. So the value is the upper concave
    envelope of the value-versus-cost curve at gamma: a budget sweep samples
    the curve with multi-start projected gradient on `poly.at_budget(b)`
    (b >= c_lo, so the cheapest point is feasible), and one weight LP over
    the samples takes the best mixture. For indefinite D the result is a
    certified lower bound (best found).

    The weight LP solves only to HiGHS's tolerance, so where the solve at
    gamma is worth at least its mixture, that solve alone is the plan.
    Returns the value, the best single distribution at budget gamma, and the
    plan anchored at the component's smallest state."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x7CE)))
    c_lo, c_hi = c_range
    budgets = np.unique(np.concatenate([np.linspace(c_lo, c_hi, SWEEP_POINTS), [poly.gamma]]))
    qs, vals = [], []
    for b in budgets:
        q, v = _multistart_max(sub_d, poly.at_budget(b), rng, max(2, starts // 8),
                               SWEEP_TOL, (*qs[-1:], cheapest))
        qs.append(q)
        vals.append(v)
    qg, vg = _multistart_max(sub_d, poly, rng, starts, SOLVE_TOL, (*qs[-1:], cheapest))
    qs.append(qg)
    vals.append(vg)
    w, val = _weight_lp(np.array(vals), np.array([poly.cost @ q for q in qs]), poly.gamma)
    if vg >= val:
        w, val = np.eye(len(qs))[-1], vg
    active = np.nonzero(w > 1e-12)[0]
    segments = tuple(_embed(pairs, comp.arcs, qs[i]) for i in active)
    plan = TimeSharingPlan(w[active] / w[active].sum(), segments, min(comp.states))
    return val, vg, plan
