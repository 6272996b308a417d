"""Projection and first-order optimization over small polytopes.

The feasible sets in this package are intersections of an affine subspace
(probability total and marginal-balance rows), the nonnegative orthant and
at most one cost halfspace. Euclidean projection onto them is exact and
piecewise affine: on each active set it is one affine map of the point.
A polytope caches these maps as pieces, keyed by the face (the free
coordinates and whether the budget is tight) and the independent active
constraints that carry the multipliers. A projection tries the most
recently used piece, then screens every cached piece with one product and
tries those that pass, most recently used first; a piece is accepted only
with its KKT certificate (free coordinates positive, multipliers
nonnegative, stationarity and feasibility residuals zero, a loose budget
still met), so the warm path returns the same point as a cold solve.
Otherwise one NNLS (Lawson & Hanson, in-package) on the least-distance
program finds the face and the active set, and the piece built for them
gives the point, with zero coordinates exactly zero. An empty polytope
raises. Siblings at other
budgets share the null space and the pieces. The quadratic E0 objective is
maximized by projected gradient with a 1/Lipschitz step, which is monotone
and globally convergent in the concave case. Projection and projected
gradient load no scipy; LPs go to HiGHS, and scipy.optimize is imported on
the first LP.
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


def _lawson_hanson(e: np.ndarray, f: np.ndarray, max_iter: int,
                   start: np.ndarray | None = None) -> np.ndarray:
    """min |e w - f| over w >= 0 by Lawson & Hanson's active-set method
    (1974, ch. 23) in the normal-equations form of Bro & De Jong (1997):
    each passive-set least squares solves its block of the precomputed
    e^T e, and falls back to lstsq only when that block is singular. A warm
    start begins from the passive set `start` (indices), dropping the
    indices whose least-squares weights are not positive. An index whose
    least-squares weight comes back at or below zero right after it enters
    is not tried again until another enters. Raises RuntimeError after
    max_iter entries."""
    n = e.shape[1]
    tol = 10 * np.finfo(float).eps * np.abs(e).sum(axis=0).max(initial=1.0) * max(e.shape)
    gram, rhs = e.T @ e, e.T @ f
    norms = np.sqrt(gram.diagonal())

    def solve(passive):
        z = np.zeros(n)
        idx = np.flatnonzero(passive)
        block = gram[idx[:, None], idx]
        try:
            # a pivot is its column's distance from the span of those before it
            if (np.linalg.cholesky(block).diagonal() > 1e-6 * norms[idx]).all():
                z[idx] = np.linalg.solve(block, rhs[idx])
                return z
        except np.linalg.LinAlgError:
            pass
        z[idx] = np.linalg.lstsq(e[:, idx], f, rcond=None)[0]
        return z

    w = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    if start is not None:
        passive[start] = True
        while passive.any():
            z = solve(passive)
            if (z[passive] > 0).all():
                w = z
                break
            passive &= z > 0
    blocked = np.zeros(n, dtype=bool)
    for _ in range(max_iter):
        dual = e.T @ (f - e @ w)
        dual[passive | blocked] = -np.inf
        j = int(np.argmax(dual))
        if dual[j] <= tol:
            return w
        passive[j] = True
        while True:
            z = solve(passive)
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

    free: np.ndarray     # indices of the free coordinates
    passive: np.ndarray  # indices of the NNLS columns that carry the multipliers
    rows: np.ndarray
    lower: np.ndarray
    signs: int           # rows before the residuals

    def point(self, ext: np.ndarray, scale: float, n: int) -> np.ndarray | None:
        """The projection when this piece's certificate holds at ext, else None."""
        z = self.rows @ ext
        if not (z >= scale * self.lower).all():
            return None
        out = np.zeros(n)
        out[self.free] = z[:len(self.free)]
        return out


class _Cache:
    """The pieces of a polytope and its at_budget siblings. A lookup tries
    the most recently used piece. Then one product screens every piece on
    the rows before its residuals, stacked with the piece that owns each
    row, and the pieces that pass are checked in full, the most recently
    used first. A piece with no rows before its residuals always passes."""

    def __init__(self):
        self.index: dict = {}   # key -> position
        self.pieces: list = []
        self.used = np.zeros(0, dtype=np.int64)  # last-use stamps
        self.newest = -1        # position of the most recently used piece
        self.rows, self.lower = None, np.zeros(0)
        self.owner = np.zeros(0, dtype=np.intp)  # the piece of each row

    def use(self, i: int):
        self.used[i] = self.used.max() + 1
        self.newest = i

    def add(self, key, piece: _Piece) -> int:
        i, k = len(self.pieces), piece.signs
        block = piece.rows[:k]
        self.rows = block if self.rows is None else np.vstack([self.rows, block])
        self.lower = np.append(self.lower, piece.lower[:k])
        self.owner = np.append(self.owner, np.full(k, i))
        self.index[key] = i
        self.pieces.append(piece)
        self.used = np.append(self.used, 0)
        return i

    def find(self, ext: np.ndarray, scale: float, n: int) -> np.ndarray | None:
        """The point of the most recently used piece whose certificate
        holds at ext, or None."""
        if not self.pieces:
            return None
        out = self.pieces[self.newest].point(ext, scale, n)
        if out is not None:
            return out
        failed = self.rows @ ext < scale * self.lower
        passed = np.bincount(self.owner, failed, len(self.pieces)) == 0
        passed[self.newest] = False  # its full check failed above
        order = np.argsort(-self.used)
        for i in order[passed[order]]:
            out = self.pieces[i].point(ext, scale, n)
            if out is not None:
                self.use(i)
                return out
        return None


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
    # shared with at_budget siblings
    _pieces: _Cache = field(init=False, repr=False, default_factory=_Cache)

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

        A cached piece whose certificate holds at x gives the point
        (`_Cache.find`). Otherwise, with p the projection of x onto
        {A x = b} and x = p + N u, the projection is
        the least-distance program min |u| s.t. G u >= h,
        G = [N; -c^T N / k], h = [-p; (c.p - gamma) / k], k = |c^T N|, solved
        as one NNLS (`_lawson_hanson`; Lawson & Hanson, Solving Least
        Squares Problems, 1974, ch. 23). Emptiness shows as a vanishing last
        residual. The piece of the face it identifies, with the multipliers
        on its passive set, then gives the point, so its zero coordinates
        are exactly zero."""
        if self._gap > FEAS_TOL:
            raise InfeasibleError("polytope is empty")
        v = np.asarray(x, dtype=float)
        ext = np.concatenate([v, (1.0, self.gamma)])
        scale = max(1.0, float(np.abs(ext).max()))
        out = self._pieces.find(ext, scale, len(v))
        if out is not None:
            return out
        return self._project_cold(v, ext, scale)

    def _project_cold(self, v: np.ndarray, ext: np.ndarray, scale: float) -> np.ndarray:
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
        # slack is tried only when the smaller one finds no point. At each
        # slack the NNLS first starts from the passive set of the most
        # recently used piece, a face near this one, and then cold.
        cache = self._pieces
        starts = [cache.pieces[cache.newest].passive, None] if cache.pieces else [None]
        for slack in (1e-14, 1e-10):
            e[-1] = h - slack * h_scale
            for start in starts:
                try:
                    w = _lawson_hanson(e, f, 10 * len(h), start)
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
        Falls back to max(y, 0) when that point is not feasible. The piece
        becomes the most recently used one."""
        n = self.dim
        free = y > FREE_TOL * max(1.0, np.abs(y).max())
        tight = self.cost is not None and bool(self.cost @ y >= self.gamma - FREE_TOL)
        # a multiplier belongs to a bound the face holds: a pinned
        # coordinate, or the budget row (index n) when it is tight
        passive = passive[(passive < n) & ~free[np.minimum(passive, n - 1)]
                          | (passive == n) & tight]
        key = (free.tobytes(), tight, passive.tobytes())
        cache = self._pieces
        i = cache.index.get(key)
        if i is None:
            i = cache.add(key, self._build_piece(free, tight, passive))
        cache.use(i)
        piece = cache.pieces[i]
        out = np.zeros(n)
        out[piece.free] = np.maximum((piece.rows @ ext)[:len(piece.free)], 0.0)
        if (np.abs(self.a_eq @ out - self.b_eq).max(initial=0.0) > FEAS_TOL
                or self.cost is not None and self.cost @ out > self.gamma + FEAS_TOL):
            return np.maximum(y, 0.0)
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
        signs = sum(len(block) for block in blocks)
        for block in (resid, primal):
            blocks += [block, -block]
            lower.append(np.full(2 * len(block), -KKT_TOL))
        return _Piece(idx, passive, np.vstack(blocks), np.concatenate(lower), signs)

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
