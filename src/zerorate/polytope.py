"""Projection and first-order optimization over small polytopes.

The feasible sets in this package are intersections of an affine subspace
(probability total and marginal-balance rows), the nonnegative orthant and
at most one cost halfspace. Euclidean projection onto them is exact and
finite: a least-distance program over the affine set's null space, solved
by one NNLS (Lawson & Hanson), then re-solved on the face it identifies so
zero coordinates come back exactly zero. An empty polytope raises. The
quadratic E0 objective is maximized by projected gradient with a
1/Lipschitz step, which is monotone and globally convergent in the concave
case. LPs go to HiGHS; scipy.optimize is imported on first use.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError

FEAS_TOL = 1e-9
PG_MAX_ITER = 100_000


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
    _x0: np.ndarray = field(init=False, repr=False)
    _null: np.ndarray = field(init=False, repr=False)
    _g: np.ndarray = field(init=False, repr=False)
    _cost_norm: float = field(init=False, repr=False, default=0.0)
    _gap: float = field(init=False, repr=False)

    def __post_init__(self):
        self.a_eq = np.asarray(self.a_eq, dtype=float)
        self.b_eq = np.asarray(self.b_eq, dtype=float)
        if self.cost is not None:
            self.cost = np.asarray(self.cost, dtype=float)
            if not self.cost.any():
                if self.gamma < -FEAS_TOL:
                    raise InfeasibleError("zero cost vector with negative budget")
                self.cost = None
        # {A x = b} = x0 + range(N), N orthonormal; the SVD rank absorbs the
        # redundant balance row
        u, s, vt = np.linalg.svd(self.a_eq)
        rank = int((s > s.max(initial=0.0) * max(self.a_eq.shape) * np.finfo(float).eps).sum())
        self._x0 = vt[:rank].T @ ((u[:, :rank].T @ self.b_eq) / s[:rank])
        self._null = vt[rank:].T
        # violation that no point can repair: the equality residual, and the
        # budget when the cost is constant on {A x = b}
        self._gap = float(np.abs(self.a_eq @ self._x0 - self.b_eq).max(initial=0.0))
        self._g = self._null
        if self.cost is not None:
            row = self.cost @ self._null
            norm = float(np.linalg.norm(row))
            if norm > 1e-12 * float(np.linalg.norm(self.cost)):
                # scaled to norm 1 (orthant rows have norm at most 1): with
                # large costs the unscaled NNLS returns infeasible points
                self._cost_norm = norm
                self._g = np.vstack([self._null, -row / norm])
            else:
                self._gap = max(self._gap, float(self.cost @ self._x0) - self.gamma)

    @property
    def dim(self) -> int:
        return self.a_eq.shape[1]

    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean projection, exact up to roundoff; raises on an empty
        polytope.

        With p the projection of x onto {A x = b} and x = p + N u, it is the
        least-distance program min |u| s.t. G u >= h, G = [N; -c^T N / k],
        h = [-p; (c.p - gamma) / k], k = |c^T N|, solved as one NNLS (Lawson &
        Hanson, Solving Least Squares Problems, 1974, ch. 23). Emptiness shows
        as a vanishing last residual. The point is then re-projected onto the
        face it identifies, so its zero coordinates are exactly zero."""
        from scipy.optimize import nnls
        if self._gap > FEAS_TOL:
            raise InfeasibleError("polytope is empty")
        v = np.asarray(x, dtype=float)
        p = self._x0 + self._null @ (self._null.T @ (v - self._x0))
        h = -p
        if self._cost_norm:
            h = np.append(h, (self.cost @ p - self.gamma) / self._cost_norm)
        scale = max(1.0, np.abs(h).max())
        e = np.vstack([self._g.T, h])
        f = np.zeros(len(e))
        f[-1] = 1.0
        # Slack on every constraint keeps the multipliers bounded on a flat
        # polytope (a budget at its minimum cost, a single point), where
        # roundoff alone can make the program look infeasible. The larger
        # slack is tried only when the smaller one finds no point.
        for slack in (1e-14, 1e-10):
            e[-1] = h - slack * scale
            try:
                w, _ = nnls(e, f, maxiter=10 * len(h))
            except RuntimeError:  # the iteration cap
                continue
            r = e @ w - f
            if -r[-1] > 1e-14:
                u = -r[:-1] / r[-1]
                if (self._g @ u - h).min() >= -FEAS_TOL * scale:
                    return self._polish(v, p + self._null @ u)
        raise InfeasibleError("polytope is empty")

    def _polish(self, v: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Projection of v onto the face of y: zero coordinates pinned at 0,
        the budget an equality when tight, the free coordinates solved
        exactly. A free coordinate that the face's point has at 0 comes back
        as roundoff of either sign, and is clipped to 0. Falls back to
        max(y, 0) when that point is not feasible."""
        free = y > 1e-10 * max(1.0, np.abs(y).max())
        rows, rhs = self.a_eq[:, free], self.b_eq
        if self.cost is not None and self.cost @ y >= self.gamma - 1e-10:
            rows = np.vstack([rows, self.cost[free]])
            rhs = np.append(rhs, self.gamma)
        out = np.zeros_like(y)
        out[free] = v[free] - np.linalg.lstsq(rows, rows @ v[free] - rhs, rcond=None)[0]
        np.maximum(out, 0.0, out=out)
        if (np.abs(self.a_eq @ out - self.b_eq).max(initial=0.0) <= FEAS_TOL
                and (self.cost is None or self.cost @ out <= self.gamma + FEAS_TOL)):
            return out
        return np.maximum(y, 0.0)

    def _linprog(self, objective: np.ndarray):
        return _highs_lp(objective, self.a_eq, self.b_eq, self.cost, self.gamma)

    def feasible_point(self) -> np.ndarray:
        """The cheapest feasible point (any one without a cost), or raise."""
        obj = self.cost if self.cost is not None else np.zeros(self.dim)
        res = self._linprog(obj)
        if res.status != 0:
            raise InfeasibleError("polytope is empty")
        return res.x

    def linear_range(self, c: np.ndarray) -> tuple[float, float]:
        """min and max of c.x over the polytope."""
        lo = self._linprog(c)
        hi = self._linprog(-c)
        if lo.status != 0 or hi.status != 0:
            raise InfeasibleError("polytope is empty")
        return float(lo.fun), float(-hi.fun)


def maximize_quadratic(dmat: np.ndarray, poly: Polytope, start: np.ndarray,
                       tol: float) -> tuple[np.ndarray, float]:
    """Projected gradient ascent on x^T D x from a given start, stopped when
    a step gains at most tol or after PG_MAX_ITER steps.

    Step 1/(2||D||) makes the iteration monotone; for D concave on the
    feasible affine hull the limit is the global constrained maximum,
    otherwise a stationary point (callers multi-start).
    """
    lip = 2.0 * np.linalg.norm(dmat, 2) + 1e-30
    step = 1.0 / lip
    x = poly.project(np.asarray(start, dtype=float))
    fx = float(x @ dmat @ x)
    for _ in range(PG_MAX_ITER):
        g = 2.0 * (dmat @ x)
        x_new = poly.project(x + step * g)
        f_new = float(x_new @ dmat @ x_new)
        if f_new <= fx + tol:
            if f_new > fx:
                x, fx = x_new, f_new
            break
        x, fx = x_new, f_new
    return x, fx

