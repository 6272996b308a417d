"""Projection and first-order optimization over small polytopes.

The feasible sets in this package are intersections of an affine subspace
(probability total and marginal-balance rows), the nonnegative orthant and
at most one cost halfspace. Exact Euclidean projection is computed with
Dykstra's alternating-projection scheme; the quadratic E0 objective is then
maximized by projected gradient with a 1/Lipschitz step, which is monotone
and globally convergent in the concave case. LPs go to HiGHS.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError

FEAS_TOL = 1e-9


def _highs_lp(objective: np.ndarray, a_eq, b_eq, cost: np.ndarray | None = None,
              gamma: float = 0.0):
    """min objective.x over {x >= 0, a_eq x = b_eq, cost.x <= gamma} by HiGHS.

    Every LP of the package goes through here; scipy.optimize is imported on
    the first call, so importing zerorate does not load it."""
    from scipy.optimize import linprog
    return linprog(objective, A_eq=a_eq, b_eq=b_eq,
                   A_ub=None if cost is None else cost[None, :],
                   b_ub=None if cost is None else [gamma],
                   bounds=(0, None), method="highs")


@dataclass
class Polytope:
    """{x >= 0, A x = b, c.x <= gamma}; c may be None for no halfspace."""

    a_eq: np.ndarray
    b_eq: np.ndarray
    cost: np.ndarray | None = None
    gamma: float = 0.0
    _proj: np.ndarray = field(init=False, repr=False)
    _proj_tight: np.ndarray | None = field(init=False, repr=False, default=None)
    _b_tight: np.ndarray | None = field(init=False, repr=False, default=None)
    _a_tight: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.a_eq = np.asarray(self.a_eq, dtype=float)
        self.b_eq = np.asarray(self.b_eq, dtype=float)
        # pseudo-inverse once; A may contain a redundant balance row
        gram = self.a_eq @ self.a_eq.T
        self._proj = self.a_eq.T @ np.linalg.pinv(gram)
        if self.cost is not None:
            self.cost = np.asarray(self.cost, dtype=float)
            if not self.cost.any():
                if self.gamma < -FEAS_TOL:
                    raise InfeasibleError("zero cost vector with negative budget")
                self.cost = None
        if self.cost is not None:
            # projector onto {A x = b, cost.x = gamma} for the active-budget case
            self._a_tight = np.vstack([self.a_eq, self.cost[None, :]])
            self._b_tight = np.concatenate([self.b_eq, [self.gamma]])
            gram_t = self._a_tight @ self._a_tight.T
            self._proj_tight = self._a_tight.T @ np.linalg.pinv(gram_t)

    @property
    def dim(self) -> int:
        return self.a_eq.shape[1]

    def _project_flat(self, v: np.ndarray) -> np.ndarray:
        """Exact projection onto the affine set intersected with the budget
        halfspace (KKT: activate the budget only when violated)."""
        z = v - self._proj @ (self.a_eq @ v - self.b_eq)
        if self.cost is not None and self.cost @ z > self.gamma:
            z = v - self._proj_tight @ (self._a_tight @ v - self._b_tight)
        return z

    def project(self, x: np.ndarray, tol: float = 1e-12, max_sweeps: int = 2000) -> np.ndarray:
        """Dykstra's algorithm over {affine & budget, orthant}."""
        y = np.asarray(x, dtype=float).copy()
        inc_flat = np.zeros_like(y)
        inc_orth = np.zeros_like(y)
        for _ in range(max_sweeps):
            prev = y
            z = self._project_flat(y + inc_flat)
            inc_flat = y + inc_flat - z
            y = np.maximum(z + inc_orth, 0.0)
            inc_orth = z + inc_orth - y
            if np.abs(y - prev).max() < tol:
                break
        return y

    def _linprog(self, objective: np.ndarray):
        return _highs_lp(objective, self.a_eq, self.b_eq, self.cost, self.gamma)

    def feasible_point(self) -> np.ndarray:
        """Any feasible point, or raise. Minimizes the cost as a side effect
        so the budget diagnosis is sharp."""
        obj = self.cost if self.cost is not None else np.zeros(self.dim)
        res = self._linprog(obj)
        if res.status != 0:
            # distinguish "budget too small" from structurally empty
            if self.cost is not None:
                relaxed = Polytope(self.a_eq, self.b_eq, None)
                try:
                    q = relaxed.feasible_point()
                except InfeasibleError:
                    raise InfeasibleError("equality system has no nonnegative solution") from None
                cmin = self._min_cost_unbudgeted()
                raise InfeasibleError(
                    f"cost budget {self.gamma:g} below the cheapest feasible point ({cmin:g})")
            raise InfeasibleError("equality system has no nonnegative solution")
        return res.x

    def _min_cost_unbudgeted(self) -> float:
        res = _highs_lp(self.cost, self.a_eq, self.b_eq)
        return float(res.fun) if res.status == 0 else float("inf")

    def linear_range(self, c: np.ndarray) -> tuple[float, float]:
        """min and max of c.x over the polytope."""
        lo = self._linprog(c)
        hi = self._linprog(-c)
        if lo.status != 0 or hi.status != 0:
            raise InfeasibleError("polytope is empty")
        return float(lo.fun), float(-hi.fun)


@dataclass
class PGOptions:
    tol: float = 1e-9
    max_iter: int = 100_000
    proj_tol: float = 1e-12


def maximize_quadratic(dmat: np.ndarray, poly: Polytope, start: np.ndarray,
                       opts: PGOptions = PGOptions()) -> tuple[np.ndarray, float]:
    """Projected gradient ascent on x^T D x from a given start.

    Step 1/(2||D||) makes the iteration monotone; for D concave on the
    feasible affine hull the limit is the global constrained maximum,
    otherwise a stationary point (callers multi-start).
    """
    lip = 2.0 * np.linalg.norm(dmat, 2) + 1e-30
    step = 1.0 / lip
    x = poly.project(np.asarray(start, dtype=float), tol=opts.proj_tol)
    fx = float(x @ dmat @ x)
    for _ in range(opts.max_iter):
        g = 2.0 * (dmat @ x)
        x_new = poly.project(x + step * g, tol=opts.proj_tol)
        f_new = float(x_new @ dmat @ x_new)
        if f_new <= fx + opts.tol:
            if f_new > fx:
                x, fx = x_new, f_new
            break
        x, fx = x_new, f_new
    return x, fx

