"""Projection and first-order optimization over small polytopes.

The feasible sets in this package are intersections of an affine subspace
(probability total and marginal-balance rows), the nonnegative orthant and
at most one cost halfspace. Euclidean projection onto them is exact and
piecewise affine: on each active set it is one affine map of the point.
A polytope caches these maps as pieces, keyed by the face (the free
coordinates and whether the budget is tight) and the independent active
constraints that carry the multipliers. A projection first tries the few
most recently used pieces; one is accepted only with its KKT certificate
(free coordinates positive, multipliers nonnegative, stationarity and
feasibility residuals zero, a loose budget still met), so the warm path
returns the same point as a cold solve. Otherwise one NNLS (Lawson &
Hanson) on the least-distance program finds the face and the active set,
and the piece built for them gives the point, with zero coordinates
exactly zero. An empty polytope raises. Siblings at other budgets share
the null space and the pieces. The quadratic E0 objective is maximized by
projected gradient with a 1/Lipschitz step, which is monotone and
globally convergent in the concave case. LPs go to HiGHS; scipy.optimize
is imported on first use.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError

FEAS_TOL = 1e-9
PG_MAX_ITER = 100_000
FREE_TOL = 1e-10   # a coordinate (or budget slack) above this is off its bound
KKT_TOL = 1e-12    # roundoff allowed in multiplier signs and KKT residuals
RECENT_PIECES = 8  # pieces tried before falling back to NNLS


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


def _lawson_hanson(e: np.ndarray, f: np.ndarray, max_iter: int) -> np.ndarray:
    """min |e w - f| over w >= 0 by Lawson & Hanson's active-set method
    (1974, ch. 23), each passive-set least squares by lstsq. An index whose
    least-squares weight comes back at or below zero right after it enters
    is not tried again until another enters. Raises RuntimeError after
    max_iter entries."""
    n = e.shape[1]
    tol = 10 * np.finfo(float).eps * np.abs(e).sum(axis=0).max(initial=1.0) * max(e.shape)
    w = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    blocked = np.zeros(n, dtype=bool)
    for _ in range(max_iter):
        dual = e.T @ (f - e @ w)
        dual[passive | blocked] = -np.inf
        j = int(np.argmax(dual))
        if dual[j] <= tol:
            return w
        passive[j] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(e[:, passive], f, rcond=None)[0]
            if (z[passive] > 0).all():
                w = z
                blocked[:] = False
                break
            if z[j] <= 0 and w[j] == 0:
                passive[j], blocked[j] = False, True
                break
            neg = passive & (z <= 0)
            alpha = np.min(w[neg] / (w[neg] - z[neg]))
            w = w + alpha * (z - w)
            passive &= w > tol
            w[~passive] = 0.0
    raise RuntimeError("Lawson-Hanson iteration cap")


@dataclass(frozen=True, eq=False)
class _Piece:
    """The projection on one active set as an affine map of (v, 1, gamma):
    rows @ [v, 1, gamma] stacks the free coordinates of the point, then the
    multipliers, the budget slack when the budget is loose, and the
    stationarity and equality residuals with both signs. The projection is
    this piece's point exactly when every entry is at least lower * scale."""

    free: np.ndarray   # indices of the free coordinates
    rows: np.ndarray
    lower: np.ndarray

    def evaluate(self, ext: np.ndarray):
        """(stacked values, free coordinates of the point)."""
        z = self.rows @ ext
        return z, z[:len(self.free)]


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
    _eq_gap: float = field(init=False, repr=False)
    _gap: float = field(init=False, repr=False)
    # shared with at_budget siblings: key -> _Piece, and the most recently
    # accepted pieces, newest first
    _pieces: dict = field(init=False, repr=False, default_factory=dict)
    _recent: list = field(init=False, repr=False, default_factory=list)

    def __post_init__(self):
        self.a_eq = np.asarray(self.a_eq, dtype=float)
        self.b_eq = np.asarray(self.b_eq, dtype=float)
        self.gamma = float(self.gamma)
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
        self._eq_gap = float(np.abs(self.a_eq @ self._x0 - self.b_eq).max(initial=0.0))
        self._g = self._null
        if self.cost is not None:
            row = self.cost @ self._null
            norm = float(np.linalg.norm(row))
            if norm > 1e-12 * float(np.linalg.norm(self.cost)):
                # scaled to norm 1 (orthant rows have norm at most 1): with
                # large costs the unscaled NNLS returns infeasible points
                self._cost_norm = norm
                self._g = np.vstack([self._null, -row / norm])
        self._set_gap()

    def _set_gap(self):
        self._gap = self._eq_gap
        if self.cost is not None and not self._cost_norm:
            self._gap = max(self._gap, float(self.cost @ self._x0) - self.gamma)

    def at_budget(self, gamma: float) -> "Polytope":
        """The same polytope with budget gamma. It shares the null space and
        the projection pieces with this one, since the budget enters a piece
        only through its offset."""
        twin = copy.copy(self)
        twin.gamma = float(gamma)
        twin._set_gap()
        return twin

    @property
    def dim(self) -> int:
        return self.a_eq.shape[1]

    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean projection, exact up to roundoff; raises on an empty
        polytope.

        A recently used piece whose certificate holds at x gives the point.
        Otherwise, with p the projection of x onto {A x = b} and x = p + N u,
        the projection is the least-distance program min |u| s.t. G u >= h,
        G = [N; -c^T N / k], h = [-p; (c.p - gamma) / k], k = |c^T N|, solved
        as one NNLS (Lawson & Hanson, Solving Least Squares Problems, 1974,
        ch. 23). Emptiness shows as a vanishing last residual. The piece of
        the face it identifies, with the multipliers on its passive set,
        then gives the point, so its zero coordinates are exactly zero."""
        if self._gap > FEAS_TOL:
            raise InfeasibleError("polytope is empty")
        v = np.asarray(x, dtype=float)
        ext = np.concatenate([v, (1.0, self.gamma)])
        scale = max(1.0, float(np.abs(ext).max()))
        recent = self._recent
        for i, piece in enumerate(recent):
            z, xf = piece.evaluate(ext)
            if (z >= scale * piece.lower).all():
                if i:
                    recent.insert(0, recent.pop(i))
                out = np.zeros(len(v))
                out[piece.free] = xf
                return out
        return self._project_cold(v, ext, scale)

    def _project_cold(self, v: np.ndarray, ext: np.ndarray, scale: float) -> np.ndarray:
        from scipy.optimize import lsq_linear, nnls
        p = self._x0 + self._null @ (self._null.T @ (v - self._x0))
        h = -p
        if self._cost_norm:
            h = np.append(h, (self.cost @ p - self.gamma) / self._cost_norm)
        h_scale = max(1.0, np.abs(h).max())
        e = np.vstack([self._g.T, h])
        f = np.zeros(len(e))
        f[-1] = 1.0
        # Slack on every constraint keeps the multipliers bounded on a flat
        # polytope (a budget at its minimum cost, a single point), where
        # roundoff alone can make the program look infeasible. The larger
        # slack is tried only when the smaller one finds no point. scipy's
        # NNLS can stop short on a degenerate program (a zero reported
        # residual where the true one is not, or a passive set whose gradient
        # is not zero), so bounded-variable least squares and then
        # `_lawson_hanson` on the same program are the last attempts.
        for slack, solver in ((1e-14, "nnls"), (1e-10, "nnls"), (1e-10, "bvls"),
                              (1e-14, "lh")):
            e[-1] = h - slack * h_scale
            try:
                if solver == "nnls":
                    w = nnls(e, f, maxiter=10 * len(h))[0]
                elif solver == "bvls":
                    w = lsq_linear(e, f, bounds=(0, np.inf), method="bvls").x
                else:
                    w = _lawson_hanson(e, f, 10 * len(h))
            except RuntimeError:  # the iteration cap
                continue
            r = e @ w - f
            if -r[-1] > 1e-14:
                u = -r[:-1] / r[-1]
                if (self._g @ u - h).min() >= -FEAS_TOL * h_scale:
                    return self._on_face(p + self._null @ u, np.nonzero(w > 0)[0],
                                         ext, scale)
        raise InfeasibleError("polytope is empty")

    def _on_face(self, y: np.ndarray, passive: np.ndarray, ext: np.ndarray,
                 scale: float) -> np.ndarray:
        """The point of the piece for y's face and the passive set: zero
        coordinates pinned at 0, the budget an equality when tight, the free
        coordinates solved exactly. A free coordinate that the face's point
        has at 0 comes back as roundoff of either sign, and is clipped to 0.
        Falls back to max(y, 0) when that point is not feasible. A piece
        whose certificate holds here joins the recent ones."""
        n = self.dim
        free = y > FREE_TOL * max(1.0, np.abs(y).max())
        tight = self.cost is not None and bool(self.cost @ y >= self.gamma - FREE_TOL)
        # a multiplier belongs to a bound the face holds: a pinned
        # coordinate, or the budget row (index n) when it is tight
        passive = passive[(passive < n) & ~free[np.minimum(passive, n - 1)]
                          | (passive == n) & tight]
        key = (free.tobytes(), tight, passive.tobytes())
        piece = self._pieces.get(key)
        if piece is None:
            piece = self._pieces[key] = self._build_piece(free, tight, passive)
        z, xf = piece.evaluate(ext)
        out = np.zeros(n)
        out[piece.free] = np.maximum(xf, 0.0)
        if (np.abs(self.a_eq @ out - self.b_eq).max(initial=0.0) > FEAS_TOL
                or self.cost is not None and self.cost @ out > self.gamma + FEAS_TOL):
            return np.maximum(y, 0.0)
        if (z >= scale * piece.lower).all():
            self._recent.insert(0, piece)
            del self._recent[RECENT_PIECES:]
        return out

    def _build_piece(self, free: np.ndarray, tight: bool, passive: np.ndarray) -> _Piece:
        """The affine maps of one active set. The free coordinates are
        x_F = (I - R^+ R) v_F + R^+ r with R the equality rows on F (and the
        cost row when tight), r = (b, gamma). The stationarity gap
        d = N^T (x - v) must equal G_P^T m for the multipliers m >= 0 of the
        passive rows P of G; m = (G_P^T)^+ d, and the residual is the rest
        of d."""
        n = self.dim
        idx = np.nonzero(free)[0]
        n_b = len(self.b_eq)
        rows = self.a_eq[:, idx]
        if tight:
            rows = np.vstack([rows, self.cost[idx]])
        pinv = np.linalg.pinv(rows)
        # the point's free coordinates on the columns (v, 1, gamma)
        point = np.zeros((len(idx), n + 2))
        point[:, idx] = np.eye(len(idx)) - pinv @ rows
        point[:, n] = pinv[:, :n_b] @ self.b_eq
        if tight:
            point[:, n + 1] = pinv[:, n_b]
        # d = N^T (x - v)
        gap = self._null[idx].T @ point
        gap[:, :n] -= self._null.T
        g_p = self._g[passive]
        mult = np.linalg.pinv(g_p.T) @ gap
        resid = gap - g_p.T @ mult
        # equality rows of the face, and the budget row when tight
        primal = rows @ point
        primal[:n_b, n] -= self.b_eq
        if tight:
            primal[n_b, n + 1] -= 1.0
        blocks = [point, mult]
        lower = [np.full(len(idx), FREE_TOL), np.full(len(mult), -KKT_TOL)]
        if self.cost is not None and not tight:
            slack = -self.cost[idx] @ point
            slack[n + 1] += 1.0
            blocks.append(slack[None, :])
            lower.append([FREE_TOL])
        for block in (resid, primal):
            blocks += [block, -block]
            lower.append(np.full(2 * len(block), -KKT_TOL))
        return _Piece(idx, np.vstack(blocks), np.concatenate(lower))

    def feasible_point(self) -> np.ndarray:
        """The cheapest feasible point (any one without a cost), or raise."""
        obj = self.cost if self.cost is not None else np.zeros(self.dim)
        res = _highs_lp(obj, self.a_eq, self.b_eq, self.cost, self.gamma)
        if res.status != 0:
            raise InfeasibleError("polytope is empty")
        return res.x

    def linear_range(self, c: np.ndarray) -> tuple[float, float]:
        """min and max of c.x over {x >= 0, A x = b}: the budget is left out,
        so on a cost vector this is the range every budget can choose from."""
        lo = _highs_lp(c, self.a_eq, self.b_eq)
        hi = _highs_lp(-c, self.a_eq, self.b_eq)
        if lo.status != 0 or hi.status != 0:
            raise InfeasibleError("polytope is empty")
        return float(lo.fun), float(-hi.fun)


def maximize_quadratic(dmat: np.ndarray, poly: Polytope, start: np.ndarray,
                       step: float, tol: float) -> tuple[np.ndarray, float]:
    """Projected gradient ascent on x^T D x from a given start, stopped when
    a step gains at most tol or after PG_MAX_ITER steps.

    A step of 1/(2||D||_2) (the caller computes it once per D) makes the
    iteration monotone; for D concave on the feasible affine hull the limit
    is the global constrained maximum, otherwise a stationary point
    (callers multi-start).
    """
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
