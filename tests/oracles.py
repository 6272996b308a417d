"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately dumb: dense grids, exhaustive recursion,
long time averages. None of it shares code with the solvers, except that
power_identity_check holds a time average against the library's phase
averages, and structure_by_product_graph runs the library's Tarjan on
the product machine. Helpers that only tests call (likelihood,
window_distribution_to_pairs, e0_isi, plan_value, plan_cost, harmonic_r_ee,
harmonic_r_xe, quadruple_joint) live here too, and so do
reduced_matrix_concave, the reference-pair concavity test that
`exponent.concavity_test`'s hull test replaced,
gaussian_distances_mirrored, the triangle-and-mirror Gaussian distance
construction that `bhatt.bhattacharyya` no longer needs, and
round_type_greedy, the greedy cycle-repair rounding that the integer
program in `codebook.round_type` replaced; round_type_enumerated is that
program's answer by exhaustive search. discrete_metrics_per_codeword is
the codeword-by-codeword sampling and counting that the shared cells of
`montecarlo._DiscreteStatistic` replaced."""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.linalg import null_space
from scipy.special import jv

from zerorate.errors import ValidationError
from zerorate.codebook import MarkovTypeSpec
from zerorate.exponent import e0, support_is_connected
from zerorate.fsm import strong_components


def dmc_e0_grid(dhat: np.ndarray, phi=None, gamma=None, res=64, refine=4):
    """max pi^T dhat pi over the K-simplex (K <= 3), optionally under
    phi.pi <= gamma, by dense grid search plus local refinement."""
    K = len(dhat)
    phi = np.zeros(K) if phi is None else np.asarray(phi, dtype=float)
    gamma = np.inf if gamma is None else float(gamma)

    def value(pts):
        ok = pts @ phi <= gamma + 1e-12
        vals = np.einsum("ni,ij,nj->n", pts, dhat, pts)
        vals[~ok] = -np.inf
        return vals

    if K == 2:
        p = np.linspace(0.0, 1.0, 200_001)
        pts = np.stack([p, 1.0 - p], axis=1)
        vals = value(pts)
        i = int(np.argmax(vals))
        return float(vals[i]), pts[i]
    if K != 3:
        raise NotImplementedError

    def grid_around(center, half, steps):
        a = np.linspace(max(center[0] - half, 0.0), min(center[0] + half, 1.0), steps)
        b = np.linspace(max(center[1] - half, 0.0), min(center[1] + half, 1.0), steps)
        aa, bb = np.meshgrid(a, b, indexing="ij")
        cc = 1.0 - aa - bb
        mask = cc >= -1e-12
        pts = np.stack([aa[mask], bb[mask], np.maximum(cc[mask], 0.0)], axis=1)
        return pts

    center = np.array([1 / 3, 1 / 3])
    half = 0.5
    best_val, best_pt = -np.inf, None
    steps = res + 1
    for _ in range(refine):
        pts = grid_around(center, half, steps)
        vals = value(pts)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_pt = float(vals[i]), pts[i]
        center = best_pt[:2]
        half = 4.0 * half / res
        steps = res + 1
    return best_val, best_pt


def simplex_grid(K: int, res: int) -> np.ndarray:
    """All probability vectors with denominator res."""
    pts = []

    def rec(prefix, left):
        if len(prefix) == K - 1:
            pts.append(prefix + [left])
            return
        for v in range(left + 1):
            rec(prefix + [v], left - v)

    rec([], res)
    return np.asarray(pts, dtype=float) / res


def dmc_uce_two_component_grid(dhat: np.ndarray, phi: np.ndarray, gamma: float,
                               res=64) -> float:
    """Two-component time-sharing oracle: components on the simplex grid,
    the weight solved in closed form against the budget."""
    pts = simplex_grid(len(dhat), res)
    vals = np.einsum("ni,ij,nj->n", pts, dhat, pts)
    costs = pts @ np.asarray(phi, dtype=float)
    best = vals[costs <= gamma + 1e-12].max()
    n = len(pts)
    a = vals[:, None].repeat(n, 1)
    b = vals[None, :].repeat(n, 0)
    ca = costs[:, None].repeat(n, 1)
    cb = costs[None, :].repeat(n, 0)
    # weight on component a: value is linear in w, so only the interval
    # endpoints of {w in [0,1]: w ca + (1-w) cb <= gamma} matter
    with np.errstate(divide="ignore", invalid="ignore"):
        w_cross = (gamma - cb) / (ca - cb)
    for w in (np.zeros_like(a), np.ones_like(a), np.clip(w_cross, 0.0, 1.0)):
        feas = w * ca + (1 - w) * cb <= gamma + 1e-12
        mix = w * a + (1 - w) * b
        mix[~feas] = -np.inf
        m = float(np.nanmax(mix))
        if m > best:
            best = m
    return float(best)


def count_euler_circuits(tails, heads, counts, anchor) -> int:
    """Exhaustively count distinct arc-usage circuits from the anchor."""
    arcs_by_tail: dict[int, list[int]] = {}
    for i, t in enumerate(tails):
        if counts[i] > 0:
            arcs_by_tail.setdefault(int(t), []).append(i)
    remaining = np.asarray(counts, dtype=np.int64).copy()
    total = int(remaining.sum())
    seen = set()

    def rec(node, used, trail):
        if used == total:
            if node == anchor:
                seen.add(tuple(trail))
            return
        for a in arcs_by_tail.get(node, ()):  # deterministic order
            if remaining[a] > 0:
                remaining[a] -= 1
                trail.append(a)
                rec(int(heads[a]), used + 1, trail)
                trail.pop()
                remaining[a] += 1

    rec(int(anchor), 0, [])
    return len(seen)


def pairwise_path_distances_loop(arc_paths: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Reference for codebook.pairwise_path_distances: one sum per pair."""
    C = arc_paths.shape[0]
    out = np.zeros((C, C))
    for i in range(C):
        for j in range(i + 1, C):
            out[i, j] = out[j, i] = float(D[arc_paths[i], arc_paths[j]].sum())
    return out


def gaussian_two_codeword_error(d_e: float, sigma: float) -> float:
    """Exact ML error between two codewords at Euclidean distance d_e."""
    from scipy.stats import norm
    return float(norm.cdf(-d_e / (2.0 * sigma)))


def discrete_ml_error_exact(kernel, arc_paths: np.ndarray) -> np.ndarray:
    """Each codeword's exact ML error probability on a discrete kernel,
    ties counting as errors, by enumerating all Y^n outputs (tiny books
    only). A metric is the correctly rounded sum (math.fsum) of the
    codeword's per-step log-pmfs, so codewords whose terms agree as
    multisets tie."""
    M, n = arc_paths.shape
    with np.errstate(divide="ignore"):
        logp = np.log(kernel.pmf)  # (L, Y)
    pe = np.zeros(M)
    for y in itertools.product(range(kernel.pmf.shape[1]), repeat=n):
        ll = np.array([math.fsum(row) for row in logp[arc_paths, y]])
        prob = kernel.pmf[arc_paths, y].prod(axis=1)  # of y, codeword m sent
        for m in range(M):
            if np.delete(ll, m).max(initial=-np.inf) >= ll[m]:
                pe[m] += prob[m]
    return pe


def sample_outputs_broadcast(kernel, arcs: np.ndarray, rng, n_trials: int) -> np.ndarray:
    """Reference for the inverse-CDF outputs under rng's uniforms: (n_trials, n)
    outputs by broadcasting the uniforms against every CDF cell at once."""
    n = len(arcs)
    if kernel.kind == "discrete":
        cdf = np.cumsum(kernel.pmf[arcs], axis=1)  # (n, Y)
        cdf[:, -1] = np.inf  # guard the top cell against cumsum roundoff
        u = rng.random((n_trials, n))
        return (u[:, :, None] > cdf[None, :, :]).sum(axis=2)
    mu = kernel.means[arcs]
    sigma = np.sqrt(kernel.variance)
    return mu[None, :] + sigma * rng.standard_normal((n_trials, n))


def discrete_metrics_per_codeword(kernel, arc_paths: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The (M, M, trials) discrete decoder metrics under the (trials, n)
    uniforms u, [m] when codeword m is sent, computed codeword by codeword
    as montecarlo once did: m's inverse-CDF outputs from its own (Y, n)
    output CDFs, m's own count matrix per (column pattern, output), and
    the GEMM of that matrix with the log-pmf table rounded to integers at
    scale 2^s, 2^s n max|ln p| <= 2^52, so that the sum is exact; a
    metric with a zero-pmf term is -inf."""
    M, n = arc_paths.shape
    Y = kernel.pmf.shape[1]
    patterns, pattern = np.unique(arc_paths.T, axis=0, return_inverse=True)
    with np.errstate(divide="ignore"):
        table = np.log(kernel.pmf)[patterns].transpose(0, 2, 1).reshape(-1, M)  # (P Y, M)
    finite = np.isfinite(table)
    s = 52 - math.frexp(n * float(np.abs(table[finite]).max(initial=0.0)))[1]
    scaled = np.where(finite, np.rint(np.ldexp(table, s)), 0.0).T  # (M, P Y)
    zero = (~finite).T.astype(float)
    cdf = np.cumsum(kernel.pmf, axis=1)[arc_paths]  # (M, n, Y)
    cell = np.arange(len(u))[:, None] * len(table) + pattern.reshape(-1) * Y
    out = np.empty((M, M, len(u)))
    for m in range(M):
        y = np.zeros(u.shape, dtype=np.int64)
        for k in range(Y - 1):  # the top cell is never counted
            y += u > cdf[m, :, k]
        counts = np.bincount((cell + y).ravel(), minlength=len(u) * len(table))
        counts = counts.reshape(len(u), len(table)).astype(float)
        out[m] = np.ldexp(scaled @ counts.T, -s)
        out[m][zero @ counts.T > 0] = -np.inf
    return out


def discrete_terms_broadcast(kernel, arc_paths: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(n_trials, M, n) per-step terms ln p(y_t | arc) of every codeword."""
    with np.errstate(divide="ignore"):
        logp = np.log(kernel.pmf)  # (L, Y)
    return logp[arc_paths[None, :, :], y[:, None, :].astype(np.int64)]


def loglik_broadcast(kernel, arc_paths: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reference for the decoder metrics of montecarlo: the full (n_trials, M)
    log-likelihood from a (n_trials, M, n) array of per-step terms."""
    if kernel.kind == "discrete":
        return discrete_terms_broadcast(kernel, arc_paths, y).sum(axis=2)
    mu = kernel.means[arc_paths]  # (M, n)
    diff = y[:, None, :] - mu[None, :, :]
    return -(diff * diff).sum(axis=2) / (2.0 * kernel.variance)


def empirical_exponent_consistency(book, report) -> bool:
    """Union-bound consistency: -ln(pe)/n >= d_min/n - ln(M-1)/n within the
    simulation's three-sigma band."""
    if book.M < 2 or not np.isfinite(book.min_pair_distance):
        return True
    floor_exp = (book.min_pair_distance - np.log(book.M - 1)) / book.n
    return report.exponent_band[1] >= floor_exp - 1e-12


def phase_breakpoints_loop(A: float, delta: float) -> np.ndarray:
    """Reference for isi._phase_breakpoints: one arcsin per level boundary
    k delta inside [-A, A], both solutions of A sin(theta) = k delta kept."""
    ks = np.arange(np.floor(-A / delta), np.floor(A / delta) + 1)
    ths = [0.0, 2.0 * np.pi]
    for k in ks:
        v = k * delta / A
        if -1.0 <= v <= 1.0:
            a = float(np.arcsin(v))
            ths.extend([a % (2 * np.pi), (np.pi - a) % (2 * np.pi)])
    return np.unique(np.asarray(ths))


def phase_averages_per_interval(A: float, delta: float) -> tuple[float, float, float]:
    """Reference for isi._phase_averages: (R_ee(0), R_xe(0), power) as the
    sum of the closed-form integrals over each phase interval, with the
    level found by quantizing the interval's midpoint."""
    from zerorate.isi import quantize_midrise
    ths = phase_breakpoints_loop(A, delta)
    ree0 = rxe0 = power = 0.0
    for lo, hi in zip(ths[:-1], ths[1:]):
        mid = 0.5 * (lo + hi)
        c = float(quantize_midrise(A * np.sin(mid), delta))

        def ierr2(t):  # integral of (c - A sin t)^2
            return c * c * t + 2.0 * c * A * np.cos(t) + A * A * (t / 2.0 - np.sin(2.0 * t) / 4.0)

        def ixe(t):    # integral of A sin t * (c - A sin t)
            return -c * A * np.cos(t) - A * A * (t / 2.0 - np.sin(2.0 * t) / 4.0)

        ree0 += ierr2(hi) - ierr2(lo)
        rxe0 += ixe(hi) - ixe(lo)
        power += c * c * (hi - lo)
    tp = 2.0 * np.pi
    return ree0 / tp, rxe0 / tp, power / tp


def error_harmonics_per_interval(A: float, delta: float, max_m: int) -> np.ndarray:
    """Reference for isi._error_harmonics: |Fourier coefficient|^2 of the
    quantization error at odd order 2m-1, m = 1..max_m, integrating the level
    and the sine part interval by interval over the whole circle."""
    from zerorate.isi import quantize_midrise
    ths = phase_breakpoints_loop(A, delta)
    los, his = ths[:-1][None, :], ths[1:][None, :]
    cs = quantize_midrise(A * np.sin(0.5 * (los + his)), delta)
    orders = (2 * np.arange(1, max_m + 1) - 1).astype(float)[:, None]

    def int_exp(a, lo, hi):  # integral of e^{-i a theta}
        a = np.asarray(a, dtype=float)
        safe = np.where(a == 0, 1.0, a)
        out = (np.exp(-1j * a * hi) - np.exp(-1j * a * lo)) / (-1j * safe)
        return np.where(a == 0, (hi - lo) * np.ones_like(out), out)

    i_level = cs * int_exp(np.broadcast_to(orders, (max_m, los.shape[1])), los, his)
    i_sine = A / (2 * 1j) * (int_exp(orders - 1, los, his) - int_exp(orders + 1, los, his))
    coeff = (i_level - i_sine).sum(axis=1) / (2.0 * np.pi)
    return np.abs(coeff) ** 2


def quantized_sine_time_averages(A, delta, omega0, phase, n):
    """(R_ee(0), R_xe(0), power, R_ee(1), R_ee(2)) by long time averages."""
    t = np.arange(1, n + 1, dtype=float)
    s = A * np.sin(omega0 * t + phase)
    x = delta * (np.floor(s / delta) + 0.5)
    e = x - s
    return (float(np.mean(e * e)),
            float(np.mean(A * e * np.sin(omega0 * t + phase))),
            float(np.mean(x * x)),
            float(np.mean(e[:-1] * e[1:])),
            float(np.mean(e[:-2] * e[2:])))


def harmonic_r_ee(stats, lag: int) -> float:
    """R_ee(lag) of a QuantizedSinusoidStats from its kept harmonics; the
    exact phase average at lag 0."""
    if lag == 0:
        return stats.ree0
    return float(2.0 * (stats.eps * np.cos(2.0 * np.pi * lag * stats.lambdas)).sum())


def harmonic_r_xe(stats, lag: int) -> float:
    """R_xe(lag) = A B cos(w0 lag) of a QuantizedSinusoidStats."""
    return float(stats.A * stats.B * np.cos(stats.omega0 * lag))


def register_polytope_grid(d4: np.ndarray, res=512, phi4=None, gamma=None):
    """Dense scan of the 2-state register polytope q = (a, b, b, c),
    a + 2b + c = 1 (equal marginals force q2 = q3)."""
    a = np.linspace(0, 1, res + 1)
    b = np.linspace(0, 0.5, res + 1)
    aa, bb = np.meshgrid(a, b, indexing="ij")
    cc = 1.0 - aa - 2 * bb
    mask = cc >= -1e-12
    q = np.stack([aa[mask], bb[mask], bb[mask], np.maximum(cc[mask], 0)], axis=1)
    vals = np.einsum("ni,ij,nj->n", q, d4, q)
    if phi4 is not None:
        ok = q @ np.asarray(phi4) <= gamma + 1e-12
        vals[~ok] = -np.inf
    i = int(np.argmax(vals))
    return float(vals[i]), q[i]


def bessel_j_simpson(order: int, z: float, tol: float = 1e-12) -> float:
    """J_order(z) = (1/pi) integral_0^pi cos(order t - z sin t) dt by
    adaptive Simpson; reference implementation for the series formulas."""
    def f(t):
        return np.cos(order * t - z * np.sin(t)) / np.pi

    def simpson(a, fa, fm, fb, b):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(a, b, fa, fm, fb, whole, eps, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = simpson(a, fa, flm, fm, m)
        right = simpson(m, fm, frm, fb, b)
        if depth > 48 or abs(left + right - whole) < 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (rec(a, m, fa, flm, fm, left, eps / 2.0, depth + 1)
                + rec(m, b, fm, frm, fb, right, eps / 2.0, depth + 1))

    # oscillatory integrand: split once per expected oscillation
    n_seg = max(8, int(abs(z) + abs(order)) // 2)
    xs = np.linspace(0.0, np.pi, n_seg + 1)
    total = 0.0
    for lo, hi in zip(xs[:-1], xs[1:]):
        flo, fhi = f(lo), f(hi)
        fmid = f(0.5 * (lo + hi))
        whole = simpson(lo, flo, fmid, fhi, hi)
        total += rec(lo, hi, flo, fmid, fhi, whole, tol / n_seg, 0)
    return float(total)


def eps_bessel_series(m: int, A: float, delta: float, max_ell: int = 100_000) -> float:
    """The classical series eps_m = [ (delta/pi) sum_l J_{2m-1}(2 pi l A/delta)/l ]^2.

    Slow reference: the series converges like l^{-3/2} with oscillation, so
    it is truncated at max_ell and cross-checked against the exact harmonic
    in tests rather than used in production."""
    ell = np.arange(1, max_ell + 1, dtype=float)
    s = float((jv(2 * m - 1, 2.0 * np.pi * ell * A / delta) / ell).sum())
    return (delta / np.pi * s) ** 2


def b_bessel_series(A: float, delta: float, max_ell: int = 100_000) -> float:
    """B = (delta/pi) sum_m J_1(2 pi m A/delta)/m (reference; the exact
    value is R_xe(0)/A from the phase average)."""
    ell = np.arange(1, max_ell + 1, dtype=float)
    return float(delta / np.pi * (jv(1, 2.0 * np.pi * ell * A / delta) / ell).sum())


def mutual_reachability(n_states: int, tails, heads) -> np.ndarray:
    """(S, S) boolean: states i and j reach each other (every state reaches
    itself), from Warshall's transitive closure of the arc relation."""
    reach = np.eye(n_states, dtype=bool)
    for t, h in zip(tails, heads):
        reach[t, h] = True
    for k in range(n_states):
        for i in range(n_states):
            if reach[i, k]:
                reach[i] |= reach[k]
    return reach & reach.T


def structure_by_product_graph(machine) -> tuple[bool, bool, tuple[int, int] | None]:
    """check_structure the long way: irreducibility from the machine's
    strong components, double irreducibility from those of the S^2-state
    product graph driven by independent input pairs, and for each sigma
    separately the shortest r <= S(S+1) by which every state reaches it in
    exactly r steps. Returns (irreducible, doubly irreducible, (sigma, r))
    with the minimal r and the lowest sigma at it, or None for no sigma."""
    S, K = machine.n_states, machine.n_symbols
    ns = machine.next_state
    tails, heads = np.repeat(np.arange(S), K), ns.reshape(-1)
    irreducible = bool((strong_components(S, tails, heads) == 0).all())
    doubly = irreducible and bool((strong_components(
        S * S, (tails[:, None] * S + tails[None, :]).reshape(-1),
        (heads[:, None] * S + heads[None, :]).reshape(-1)) == 0).all())
    best = None
    for sigma in range(S):
        mask = np.zeros(S, dtype=bool)
        mask[sigma] = True
        for r in range(1, S * (S + 1) + 1):
            mask = mask[ns].any(axis=1)  # states that reach sigma in exactly r steps
            if mask.all():
                if best is None or r < best[1]:
                    best = (sigma, r)
                break
    return irreducible, doubly, best


def greedy_rotations(pool: np.ndarray, arcs: np.ndarray, D: np.ndarray, anchor: int,
                     M: int) -> list:
    """Direct reference for the walk selection of build_ensemble: every
    anchored rotation (i, k) of every pool circuit, every distance summed
    arc by arc. Runs of M greedy max-min picks start from each unrotated
    circuit; the run whose picks lie farthest apart is returned. Ties go to
    the first (circuit, position)."""
    P, n = pool.shape
    cands = [(i, k) for i in range(P) for k in range(n) if pool[i, k] == anchor]
    rolled = {c: np.roll(arcs[c[0]], -c[1]) for c in cands}

    def dist(a, b):
        return float(D[rolled[a], rolled[b]].sum())

    def first_max(values):
        top = max(values)
        slack = 1e-9 * max(1.0, abs(top)) if np.isfinite(top) else 0.0
        return next(j for j, v in enumerate(values) if v >= top - slack)

    def run(start):
        picks, spread = [(start, 0)], np.inf
        while len(picks) < M:
            near = [min(dist(c, p) for p in picks) for c in cands]
            j = first_max(near)
            spread = min(spread, near[j])
            picks.append(cands[j])
        return picks, spread

    runs = [run(i) for i in range(P)]
    return runs[first_max([spread for _, spread in runs])][0]


def spread_rotations_by_roll(pool: np.ndarray, arcs: np.ndarray, anchor: int,
                            features, M: int) -> list:
    """codebook._spread_rotations as it was before its buffers: the same FFT
    distance profiles, a fresh nearest array per run, and np.roll of the
    picked circuit's profiles at every step."""
    phi, lam = features
    ell = pool.shape[1]
    spec = np.fft.rfft(phi[arcs], axis=1)
    base = np.fft.irfft(np.einsum("jfr,ifr->ijf", spec * lam, spec.conj()),
                        n=ell, axis=2)
    off_anchor = np.where(pool == anchor, 0.0, -np.inf)

    def first_max(obj):
        flat = obj.ravel()
        top = flat.max()
        slack = 1e-9 * max(1.0, abs(top)) if np.isfinite(top) else 0.0
        return int(np.flatnonzero(flat >= top - slack)[0])

    def run(start):
        picks = [(start, 0)]
        nearest = base[start] + off_anchor
        spread = np.inf
        while len(picks) < M:
            i, k = divmod(first_max(nearest), ell)
            spread = min(spread, nearest[i, k])
            picks.append((i, k))
            nearest = np.minimum(nearest, np.roll(base[i], k, axis=1))
        return picks, spread

    runs = [run(i) for i in range(len(pool))]
    return runs[first_max(np.array([spread for _, spread in runs]))][0]


def zrho_dense_newton(q: np.ndarray, tails, heads, n_states: int, D: np.ndarray,
                      rho: float, tol: float = 1e-15, max_iter: int = 500) -> tuple[float, np.ndarray]:
    """Reference for z_rho: min rho * Delta(w) - <w, D> over (L, L) tables
    whose row and column sums are q and whose heads joint equals their
    tails joint. Plain Newton on supp(q x q) from q x q, with the full dense
    KKT matrix [H A^T; A 0] solved by LU (the right-hand side carries the
    constraint residual, so roundoff does not drift off the affine set) and
    halving backtracking. Delta is written with conditional entropies:
    H(S+|S) of each pair marginal minus H(W | tails cell). Returns (value, w)."""
    q = np.asarray(q, dtype=float)
    L = len(q)
    tails, heads = np.asarray(tails), np.asarray(heads)
    on = np.argwhere(np.outer(q, q) > 0)
    n = len(on)
    left = (on[:, 0][None, :] == np.arange(L)[:, None]).astype(float)
    right = (on[:, 1][None, :] == np.arange(L)[:, None]).astype(float)
    rows = [left, right]
    for a in range(n_states):
        for b in range(n_states):
            rows.append((((heads[on[:, 0]] == a) & (heads[on[:, 1]] == b)).astype(float)
                         - ((tails[on[:, 0]] == a) & (tails[on[:, 1]] == b)).astype(float))[None, :])
    # an orthonormal basis of the constraint rows: the system above is
    # redundant, and the reduced KKT matrix is nonsingular
    U, sv, Vt = np.linalg.svd(np.vstack(rows), full_matrices=False)
    r = int((sv > 1e-10 * sv[0]).sum())
    A = Vt[:r]
    rhs_b = (U[:, :r].T @ np.concatenate([q, q, np.zeros(n_states * n_states)])) / sv[:r]
    cell = tails[on[:, 0]] * n_states + tails[on[:, 1]]
    same_cell = (cell[:, None] == cell[None, :]).astype(float)
    same_tail = (tails[:, None] == tails[None, :]).astype(float)
    dvec = D[on[:, 0], on[:, 1]]

    def cond_entropy(p, same_group):
        """-sum p log(p / mass of p's group); same_group[i, j] = 1 when i, j share a group."""
        total = same_group @ p
        nz = p > 0
        return float(-(p[nz] * np.log(p[nz] / total[nz])).sum())

    def value(x):
        h1 = cond_entropy(left @ x, same_tail)
        h2 = cond_entropy(right @ x, same_tail)
        return rho * (h1 + h2 - cond_entropy(x, same_cell)) - float(x @ dvec)

    x = np.array([q[i] * q[j] for i, j in on])
    for _ in range(max_iter):
        u = same_cell @ x
        grad = rho * np.log(x / u) - dvec
        hess = rho * (np.diag(1.0 / x) - same_cell / u[:, None])
        kkt = np.block([[hess, A.T], [A, np.zeros((len(A), len(A)))]])
        rhs = np.concatenate([-grad, rhs_b - A @ x])
        step = np.linalg.solve(kkt, rhs)[:n]
        lam2 = float(step @ hess @ step)
        if lam2 / 2.0 <= tol * max(1.0, rho):
            break
        t = 1.0
        while (x + t * step <= 0).any():
            t *= 0.5
        while value(x + t * step) > value(x) - 0.25 * t * lam2 and t > 1e-14:
            t *= 0.5
        x = x + t * step
    w = np.zeros((L, L))
    w[on[:, 0], on[:, 1]] = x
    return value(x), w


def project_by_face_enumeration(a, b, v, cost=None, gamma=0.0, tol=1e-12):
    """Euclidean projection of v onto {x >= 0, a x = b, cost.x <= gamma} by
    trying every face: each zero set, with the budget tight or loose, gives an
    affine projection (least squares on the free coordinates); the nearest
    feasible one is the projection. Exact, and 2^(n+1) solves, so for n up to
    about 8. Returns (x, distance), or (None, inf) when the polytope is empty."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    v = np.asarray(v, dtype=float)
    n = len(v)
    best, best_dist = None, np.inf
    for zero in itertools.product((False, True), repeat=n):
        free = ~np.array(zero)
        for tight in ((False, True) if cost is not None else (False,)):
            rows, rhs = a[:, free], b
            if tight:
                rows = np.vstack([rows, np.asarray(cost, dtype=float)[free]])
                rhs = np.append(b, gamma)
            x = np.zeros(n)
            if free.any():
                x[free] = v[free] - np.linalg.lstsq(rows, rows @ v[free] - rhs, rcond=None)[0]
            feasible = (x.min() >= -tol and np.abs(a @ x - b).max() <= tol
                        and (cost is None or np.dot(cost, x) <= gamma + tol))
            dist = float(np.linalg.norm(x - v))
            if feasible and dist < best_dist:
                best, best_dist = x, dist
    return best, best_dist


def quad_constraints_loop(q_star) -> tuple[np.ndarray, np.ndarray]:
    """Reference for montecarlo._quad_constraints, one (L, L) row table at a
    time: left and right pair marginals equal q*, then one stationarity row
    per state pair (a, b) with heads (a, b) minus tails (a, b), all-zero rows
    skipped."""
    pairs = q_star.pairs
    L, S = len(pairs), pairs.n_states
    rows, rhs = [], []
    for i in range(L):
        row = np.zeros((L, L))
        row[i, :] = 1.0
        rows.append(row.ravel())
        rhs.append(q_star.q[i])
    for j in range(L):
        row = np.zeros((L, L))
        row[:, j] = 1.0
        rows.append(row.ravel())
        rhs.append(q_star.q[j])
    for a in range(S):
        for b in range(S):
            row = np.zeros((L, L))
            row[np.ix_(pairs.heads == a, pairs.heads == b)] += 1.0
            row[np.ix_(pairs.tails == a, pairs.tails == b)] -= 1.0
            if np.abs(row).sum():
                rows.append(row.ravel())
                rhs.append(0.0)
    return np.asarray(rows), np.asarray(rhs)


def likelihood(kernel, pair: int, y) -> float:
    """ln p(y | pair) of one output: log-pmf for a discrete kernel (an output
    outside the alphabet raises ValidationError), log-density for a Gaussian."""
    if kernel.kind == "gaussian":
        mu, v = kernel.means[pair], kernel.variance
        return float(-((y - mu) ** 2) / (2.0 * v) - 0.5 * np.log(2.0 * np.pi * v))
    if y not in kernel.outputs:
        raise ValidationError(f"output {y!r} not in the output alphabet")
    p = kernel.pmf[pair, kernel.outputs.index(y)]
    return float(np.log(p)) if p > 0 else float("-inf")


def window_distribution_to_pairs(q_tuples: np.ndarray, machine, pairs) -> np.ndarray:
    """A law over (k+1)-windows (axes oldest..newest) on the feasible pairs
    of the order-k register machine, through the window <-> pair bijection
    (states are the k-tuples in lexicographic order). For k = 0 the window
    law only fixes the emitted symbol, and the product law over (previous,
    current) realizes it with equal marginals."""
    k = q_tuples.ndim - 1
    if k == 0:
        return q_tuples[machine.recover[pairs.tails]] * q_tuples[pairs.symbols]
    tuples = sorted(itertools.product(range(machine.n_symbols), repeat=k))
    return np.array([q_tuples[tuples[t] + (int(a),)]
                     for t, a in zip(pairs.tails, pairs.symbols)])


def e0_isi(q_tuples: np.ndarray, spec: IsiSpec) -> float:
    """Closed-form exponent of a stationary window law:
    (1/4 sigma^2) [sum_ij h_i h_j E(x_0 x_|i-j|) - (sum_i h_i E x_0)^2]."""
    q = np.asarray(q_tuples, dtype=float)
    k = spec.k
    if q.ndim != k + 1 or q.shape != (len(spec.levels),) * (k + 1):
        raise ValidationError(f"q must be a {(len(spec.levels),) * (k + 1)} table")
    if abs(q.sum() - 1.0) > 1e-9 or (q < -1e-12).any():
        raise ValidationError("q must be a probability table")
    if k >= 1:
        left = q.sum(axis=k)
        right = q.sum(axis=0)
        if np.max(np.abs(left - right)) > 1e-9:
            raise ValidationError("window marginals are not shift-consistent")
    x = np.asarray(spec.levels)
    mean = float(np.tensordot(q.sum(axis=tuple(range(1, k + 1))) if k else q, x, axes=1))
    corr = np.empty(k + 1)
    for g in range(k + 1):
        axes = tuple(a for a in range(k + 1) if a not in (0, g))
        marg = q.sum(axis=axes) if axes else q
        if g == 0:
            corr[0] = float(marg @ (x * x)) if k else float(q @ (x * x))
        else:
            corr[g] = float(x @ marg @ x)
    h = spec.h
    quad = sum(h[i] * h[j] * corr[abs(i - j)] for i in range(k + 1) for j in range(k + 1))
    return float((quad - (h.sum() * mean) ** 2) / (4.0 * spec.sigma2))


def power_identity_check(A: float, delta: float, omega0: float,
                         n_samples: int = 10 ** 6, phase: float = 0.0) -> dict:
    """Time-average power of the quantized sinusoid against the library's
    decomposition A^2/2 + 2 R_xe(0) + R_ee(0) from its phase averages."""
    from zerorate.isi import _phase_averages
    emp = quantized_sine_time_averages(A, delta, omega0, phase, n_samples)[2]
    ree0, rxe0, _ = _phase_averages(A, delta)
    series = A * A / 2.0 + 2.0 * rxe0 + ree0
    return {"empirical": emp, "decomposition": series,
            "rel_error": abs(emp - series) / max(abs(series), 1e-300)}


def balance_rows_loop(pairs, arcs: np.ndarray) -> np.ndarray:
    """Out-minus-in rows, one per touched state in state order, built arc by arc."""
    states = sorted(set(pairs.tails[arcs].tolist()) | set(pairs.heads[arcs].tolist()))
    return np.array([[float(pairs.tails[a] == s) - float(pairs.heads[a] == s) for a in arcs]
                     for s in states])


def reduced_matrix_concave(d: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether q^T D q is concave on the simplex, by the reduced matrix with
    the last pair as reference: concave iff -Dt, with entries
    d(x,L) + d(L,x') - d(x,x'), is positive semi-definite (smallest
    eigenvalue at least -tol)."""
    L = len(d)
    if L < 2:
        return True
    idx = np.arange(L - 1)
    neg = d[idx, -1][:, None] + d[-1, idx][None, :] - d[np.ix_(idx, idx)]
    return bool(np.linalg.eigvalsh(0.5 * (neg + neg.T))[0] >= -tol)


def hull_concave(pairs, arcs: np.ndarray, d: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether q^T D q is concave on the affine hull {sum q = 1, balanced}
    of a component's arcs: N^T D N <= tol for N a null basis of the sum row
    and the out-minus-in rows."""
    n = null_space(np.vstack([np.ones(len(arcs)), balance_rows_loop(pairs, arcs)]))
    block = d[np.ix_(arcs, arcs)]
    return bool(np.linalg.eigvalsh(n.T @ block @ n).max(initial=-np.inf) <= tol)


def plan_value(plan, d) -> float:
    """Weighted E0 of a TimeSharingPlan's segments."""
    return float(sum(w * e0(comp, d) for w, comp in zip(plan.weights, plan.components)))


def plan_cost(plan, cost) -> float:
    """Weighted cost per use of a TimeSharingPlan's segments."""
    c = cost.pair_costs(plan.components[0].pairs)
    return float(sum(w * (c @ comp.q) for w, comp in zip(plan.weights, plan.components)))


def gaussian_distances_mirrored(means, variance) -> np.ndarray:
    """Gaussian Bhattacharyya matrix (mu_i - mu_j)^2 / (8 sigma^2) with each
    unordered pair taken from the upper triangle and mirrored onto the
    lower one, so the diagonal is 0 and symmetry is exact by construction."""
    mu = np.asarray(means, dtype=float)
    diff = mu[:, None] - mu[None, :]
    d = np.triu(diff * diff / (8.0 * variance), 1)
    return d + d.T


def quadruple_joint(w, S, nodes) -> np.ndarray:
    """(S, S) joint law of the node pair (nodes[arc], nodes[arc']) under a
    z_rho argmin table w over a pair set of S states; nodes is pairs.tails
    or pairs.heads."""
    cell = nodes[:, None] * S + nodes[None, :]
    return np.bincount(cell.ravel(), weights=w.ravel(), minlength=S * S).reshape(S, S)


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


def round_type_greedy(q, n: int, arc_cost: np.ndarray | None = None):
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
    if not support_is_connected(q.q, pairs):
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
    if arc_cost is None:
        arc_cost = np.zeros(len(pairs))
    _repair_total(pairs, counts, sup, n, n * q.q, arc_cost)
    _repair_connectivity(pairs, counts, sup, n, n * q.q, arc_cost)

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


def _repair_total(pairs, counts, sup, n, target, arc_cost, keep=0):
    """Add or remove unit flow along shortest support cycles until the total
    is n; removal uses only cycles of arcs whose count is above `keep`."""
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
                    "adjust n")
            for a in chosen:
                counts[a] += 1
        else:
            excess = total - n
            removable = np.array([a for a in sup if counts[a] > keep], dtype=np.int64)
            key = _residual_keys(counts - target, removable)
            order = sorted(removable.tolist(), key=lambda a: (key[a], -arc_cost[a], a))
            chosen = None
            for a in order:
                cyc = _shortest_cycle_through(pairs, removable, a)
                if cyc is not None and len(cyc) <= excess:
                    chosen = cyc
                    break
            if chosen is None:
                raise ValidationError(
                    f"cannot reduce total to {n}; adjust n")
            for a in chosen:
                counts[a] -= 1
    raise ValidationError("total repair did not converge")


def _repair_connectivity(pairs, counts, sup, n, target, arc_cost):
    """Add the shortest support cycle through a zero arc that bridges two
    positive components, then remove the added length from arcs above 1."""
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
                       if labels[pairs.tails[a]] != labels[pairs.heads[a]]),
                      zero_sup[0] if zero_sup else None)
        cyc = None if bridge is None else _shortest_cycle_through(pairs, sup, bridge)
        if cyc is None:
            raise ValidationError("support connectivity cannot be repaired")
        for a in cyc:
            counts[a] += 1
        _repair_total(pairs, counts, sup, n, target, arc_cost, keep=1)
    if not support_is_connected(counts, pairs):
        raise ValidationError("support connectivity cannot be repaired")


def round_type_enumerated(q, n: int, arc_cost: np.ndarray | None = None):
    """(L1 deviation, cost) of the integer type that `codebook.round_type`
    seeks, by enumerating every count vector of total n on supp(q): the
    least sum |x - n q| over the balanced, strongly connected ones, then the
    least cost under `arc_cost` (per-pair costs) among those within 1e-6 of
    it. None when no count vector qualifies."""
    pairs = q.pairs
    sup = np.nonzero(q.q > 1e-12)[0]
    k = len(sup)
    tails, heads = pairs.tails[sup], pairs.heads[sup]
    cost = np.zeros(k) if arc_cost is None else np.asarray(arc_cost, dtype=float)[sup]
    # stars and bars: k - 1 bars among n + k - 1 slots split n into k counts
    bars = list(itertools.combinations(range(n + k - 1), k - 1))
    edges = np.hstack([np.full((len(bars), 1), -1),
                       np.array(bars, dtype=np.int64).reshape(len(bars), k - 1),
                       np.full((len(bars), 1), n + k - 1)])
    x = np.diff(edges, axis=1) - 1
    out_minus_in = np.zeros((pairs.n_states, k))
    np.add.at(out_minus_in, (tails, np.arange(k)), 1.0)
    np.add.at(out_minus_in, (heads, np.arange(k)), -1.0)
    x = x[(x @ out_minus_in.T == 0).all(axis=1)]
    dev = np.abs(x - n * q.q[sup]).sum(axis=1)
    found = []  # (deviation, cost) of the connected counts, nearest first
    for i in np.argsort(dev, kind="stable"):
        if found and dev[i] > found[0][0] + 1e-6:
            break
        pos = x[i] > 0
        touched = np.unique(np.concatenate([tails[pos], heads[pos]]))
        reach = mutual_reachability(pairs.n_states, tails[pos], heads[pos])
        if reach[np.ix_(touched, touched)].all():
            found.append((float(dev[i]), float(cost @ x[i])))
    return (found[0][0], min(c for _, c in found)) if found else None
