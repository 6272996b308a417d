"""Validation by simulation and by the large-deviations oracle.

The channel is memoryless over consecutive state pairs, so a trial draws
y_t from the arc's output law and the ML decoder sums per-step
log-likelihoods over all codewords (ties count as errors, keeping bounds
valid). No (trials, M, n) array is built. The discrete decoder sees y only
through its counts per (column pattern, output), a pattern being one
position's tuple of arcs across the codewords, so a trial's metrics are
those counts times a log-pmf table, rounded to integers at a scale that
makes the product exact: codewords whose per-step terms agree as multisets
tie bit for bit. The Gaussian metric is the correlation form
(y.mu - |mu|^2/2) / sigma^2, which drops the -|y|^2/2sigma^2 common to every
hypothesis and sees y only through its projection onto the span of the
distinct mean rows (the theorem of irrelevance), so a trial draws that
projected statistic, r <= M normals, instead of y's n. Each distinct mean
row gets one column, copied to the codewords sharing it, so identical
codewords tie exactly.

A trial sends every codeword through the same channel noise (common random
numbers). Discrete kernels draw n uniforms; a uniform's cell among the
merged output-CDF breakpoints of its position's arcs, read from a table
by the uniform's top bits and counted by compares only near a breakpoint,
fixes every codeword's inverse-CDF output there, so one count matrix per
batch, by (pattern, cell), serves all M codewords sent, each through one
exact GEMM with its own columns of the table. Gaussian kernels draw r
normals, whose one GEMM against the statistic's loadings every codeword
offsets by its own mean row. Each codeword's error count is still exactly
Binomial(trials, pe_m), so its estimate and standard error keep their
law; the counts of different codewords are dependent. The metrics when
one codeword is sent form an (M, trials) array, so each decision reduces
over contiguous rows. The trials fall into chunks of _CHUNK_TRIALS, chunk
c drawing from its own stream SeedSequence((seed, c)), and a chunk runs in
batches of whole rows of its draws, so the batch size does not change the
streams. A batch holds at most min(rows, _CHUNK_TRIALS) trials, `rows`
being the trials whose widest per-trial array fits in about 2**17 values
(1 MiB of float64): max(n, width, M^2) uniforms, count-matrix cells or
metrics for discrete kernels, width being the patterns' total cell count,
and M metrics for Gaussian ones.

When the trials exceed `rows` and no trial log is asked for, the chunks
run on k = min(chunks, CPUs the process may use) worker threads, else
inline (k = 1): one sum of the chunks' counts, through `map` or the pool,
serves both, and a trial log only adds its writer to the chunk calls. numpy
drops the interpreter lock in the draws, lookups and GEMMs. The workers
share one statistic, which nothing writes once it is built; each draw
allocates its own arrays. A worker's batches hold at most
min(rows // k, _CHUNK_TRIALS) trials, so live batch memory does not grow
with k.
A chunk's stream depends neither on the batch size nor on the thread, nor
do its metrics, but for last-bit GEMM roundoff in the Gaussian ones, which
can only move a decision at a tie to the last bit between distinct mean
rows; the chunks' integer counts are summed, so the report does not
depend on k. A run within one batch's rows is too little work to pay for
a pool, and a trial log is written in trial order by the calling thread,
so both run inline.

The z_rho operation minimizes the typed exponent of the soft pairwise
score over coupled pair processes. With both pair marginals pinned, the
objective is -rho * H(W|U) - <w, d> plus a constant, U being the
tails-joint cell of W, so it is convex: equality-constrained Newton from
the conditional-product coupling solves it, never rises above that
coupling's value (minus the exponent functional), and returns the Newton
decrement and KKT residual as its certificate of convergence.
"""
from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .bhatt import DISCRETE, ChannelKernel, DistanceMatrix, log_pmf
from .codebook import Codebook
from .errors import ValidationError
from .exponent import PairDistribution, e0

_BATCH_ELEMENTS = 2 ** 17  # values per batch of the widest per-trial array (1 MiB of float64)
_LOOKUP_BITS = 12  # 2**12 lookup buckets per distinct cut grid, fewer past _BATCH_ELEMENTS
_CHUNK_TRIALS = 1024  # trials per noise stream; the worker threads' unit of work
_NEWTON_TOL = 1e-12  # on half the squared Newton decrement, per unit of max(1, rho)
_NEWTON_MAX_ITER = 100
_VANISH = 1e-30  # quadruple-table entries below this are set to zero


@dataclass(frozen=True, eq=False)
class SimulationReport:
    trials: int
    errors: np.ndarray           # per codeword
    pe_estimates: np.ndarray     # per codeword
    std_errors: np.ndarray
    empirical_exponent: float
    exponent_band: tuple[float, float]
    n: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "trials": int(self.trials),
            "errors": [int(v) for v in self.errors],
            "pe_estimates": self.pe_estimates.tolist(),
            "std_errors": self.std_errors.tolist(),
            "empirical_exponent": self.empirical_exponent,
            "exponent_band": list(self.exponent_band),
            "n": int(self.n),
            "seed": int(self.seed),
        }


def _rows(elements: int, n: int) -> int:
    """Rows of length n that fit in the given number of elements."""
    return max(1, elements // max(n, 1))


class _DiscreteStatistic:
    """Discrete decoder metrics of every codeword sent, from one count
    matrix per batch.

    A position's pattern is its column of arcs across the M codewords, so
    the log-likelihood of codeword j is the sum over patterns p and outputs
    y of count(p, y) ln p(y | arc j of p). The finite log-pmf table, one
    column per (p, y), is rounded to integers at scale 2^s, with
    2^s n max|ln p| <= 2^52, so every partial sum of a metric is an integer
    below 2^53 and any summation order is exact: codewords whose per-step
    terms agree as multisets tie bit for bit. The rounding moves a metric by
    at most n 2^-s / 2, the order of float64 summation roundoff. A 0/1 table
    of the zero-pmf cells, built only when the book uses one, marks -inf
    metrics.

    The codewords share the batch's uniforms, so one pass serves them all.
    Pattern p's arcs' CDF breakpoints, merged and sorted, cut [0, 1) into
    G_p cells, and a position's cell is the number of its cuts below u. Arc
    a emits output y at u exactly when u lies above y of a's breakpoints,
    that is when y of them lie at or below the lower edge of u's cell, so
    the cell fixes every codeword's output, bit for bit as inverse-CDF
    sampling gives it.

    Cells by lookup: bucket k = floor(u 2^K) is exact for u in [0, 1). Each
    distinct cut grid keeps an int16 table of 2^K entries, bucket k's being
    the number b of cuts below k 2^-K, the cell of every u in the bucket, or
    -1 - b when a cut lies in [k 2^-K, (k + 1) 2^-K). A uniform in such a
    bucket, at most a share (G_p - 1) 2^-K at pattern p, adds to b its
    `cut < u` compares with the grid's next `spread` cuts, `spread` being
    the most cuts in one bucket: they hold the bucket's own cuts, and any
    past those lie above u. The compares hold arrays of those uniforms' size
    only. K is _LOOKUP_BITS, less when the tables would exceed
    _BATCH_ELEMENTS entries.

    One bincount per batch counts the cells, `width` = sum_p G_p columns,
    converted to float64 in its own buffer, and the metrics when codeword m
    is sent are that count matrix times the table's columns gathered through
    column[m], which maps m's cell (p, g) to its (p, y): one exact GEMM per
    send. A batch of `rows` trials keeps its uniforms, cells, count matrix
    and (M, M) metrics each within _BATCH_ELEMENTS values.

    Memory: besides the (M, P Y) tables, the (M, width) column index, the
    (n,) pattern-cell and bucket offsets and the lookup tables, each batch
    in flight gathers one send's (M, width) table at a time. G_p - 1 is at
    most a_p (Y - 1), a_p <= min(M, L) being the distinct arcs of pattern p
    out of the kernel's L, so width <= P (1 + min(M, L) (Y - 1)). Measured
    by tracemalloc over one `simulate` of 2000 trials on one thread, on
    n = 512 quantized two-tap books: the peak is 2.41 MiB at M = 8 (the
    discrete-sim bench book, width 862) and 3.81 MiB at M = 32 (width 3218),
    against 3.45 and 5.16 MiB with max G_p - 1 compare passes, (rows, n)
    int64 cell offsets and a float64 copy of the count matrix. __init__
    alone peaks at 3.46 MiB at M = 32, as it gathers the column index per
    flat cell, with no padded (P, M, max G_p) array. Two ways to save the
    per-send gathers were measured and dropped. Keeping all M
    sends' tables from __init__ when they fit the batch budget (431 KiB at
    M = 8) did not move the discrete-sim bench's time per pass: lower in 5
    of 10 alternating pairs. One GEMM for all M sends against those tables
    stacked was no faster on the discrete-sim bench, and its peak RSS read
    about 0.5 MiB higher, as two threads running (64, 862) x (862, 76) GEMMs
    raise ru_maxrss by 0.875 MiB against 0.25 MiB for (8, 862) x (862, 76)
    ones (OpenBLAS 0.3.31). Nothing is written once __init__ returns: each
    batch allocates its own arrays.
    """

    def __init__(self, kernel: ChannelKernel, arc_paths: np.ndarray):
        self.M, n = arc_paths.shape
        patterns, pattern = np.unique(arc_paths.T, axis=0, return_inverse=True)
        pattern = pattern.reshape(-1)
        P, Y = len(patterns), kernel.pmf.shape[1]
        logp = log_pmf(kernel)[patterns].transpose(0, 2, 1)  # (P, Y, M)
        table = logp.reshape(-1, self.M)
        finite = np.isfinite(table)
        top = float(np.abs(table[finite]).max(initial=0.0))
        s = 52 - math.frexp(n * top)[1]  # n top <= 2^(52 - s)
        self.table = np.where(finite, np.rint(np.ldexp(table, s)), 0.0).T.copy()
        self.quantum = math.ldexp(1.0, -s)
        self.zero = None if finite.all() else (~finite).T.astype(float)
        # each pattern's breakpoints, sorted, repeats moved to the end as inf;
        # the top cell is never counted, so its cumsum roundoff is harmless
        breaks = np.cumsum(kernel.pmf, axis=1)[:, :-1]
        grid = np.sort(breaks[patterns].reshape(P, -1), axis=1)
        grid[:, 1:][grid[:, 1:] == grid[:, :-1]] = np.inf
        grid.sort(axis=1)
        cells = 1 + np.isfinite(grid).sum(axis=1)  # G_p
        grid = grid[:, :cells.max() - 1]
        # the flat cells (p, g), pattern by pattern: owner p and lower edge;
        # codeword m's output in one is the number of its arc's breakpoints
        # at or below the edge, below[arc, cell]
        real = np.arange(grid.shape[1] + 1) < cells[:, None]
        owner = np.nonzero(real)[0]
        edge = np.pad(grid, ((0, 0), (1, 0)), constant_values=-np.inf)[real]
        below = np.stack([np.searchsorted(b, edge, side="right") for b in breaks])
        self.width = int(cells.sum())
        self.column = below[patterns[owner].T, np.arange(self.width)] + Y * owner
        self.rows = _rows(_BATCH_ELEMENTS, max(n, self.width, self.M * self.M))
        # count-matrix column of cell 0 at each position
        self.pattern_cell = (np.cumsum(cells) - cells)[pattern]
        # lookup[c 2^K + k]: the cuts of distinct grid c below k 2^-K, the
        # cell of bucket k's uniforms, or -1 minus that where a cut lies in
        # the bucket; cuts at or above 1 lie below no u
        cuts, grid_of = np.unique(grid, axis=0, return_inverse=True)
        self.bits = min(_LOOKUP_BITS,
                        max(0, (_BATCH_ELEMENTS // len(cuts)).bit_length() - 1))
        row, k = np.nonzero(cuts < 1.0)
        bucket = (row << self.bits) + np.ldexp(cuts[row, k], self.bits).astype(np.intp)
        inside = np.zeros(len(cuts) << self.bits,
                          dtype=np.promote_types(np.int16, np.min_scalar_type(grid.shape[1])))
        np.add.at(inside, bucket, 1)
        inside = inside.reshape(len(cuts), -1)
        self.lookup = (np.cumsum(inside, axis=1, dtype=inside.dtype) - inside).reshape(-1)
        self.lookup[bucket] = ~self.lookup[bucket]
        self.spread = int(inside.max(initial=0))  # most cuts in one bucket
        # each grid's cuts, then `spread` inf, flat, for the compares
        self.cuts = np.pad(cuts, ((0, 0), (0, self.spread)), constant_values=np.inf)
        self.bucket_base = (grid_of.reshape(-1) << self.bits)[pattern]

    def draw(self, rng, trials: int) -> np.ndarray:
        """One batch's (M, M, trials) log-likelihoods, [m] when codeword m
        is sent, every codeword through the same uniforms."""
        return self.sends(rng.random((trials, len(self.pattern_cell))))

    def cells(self, u: np.ndarray) -> np.ndarray:
        """The (len(u), n) flat count-matrix cells of the uniforms u, as
        intp, which np.take and np.bincount use without a converted copy."""
        index = np.multiply(u, 1 << self.bits, out=np.empty(u.shape, np.intp),
                            casting="unsafe")  # floor(u 2^K), exact
        index += self.bucket_base
        cell = np.take(self.lookup, index)
        fix = np.flatnonzero(cell < 0)
        count = ~cell.ravel()[fix]  # cuts below the bucket
        # the bucket's own cuts follow them in the grid, and the cuts past
        # those lie above u: compare u with the next `spread`
        at = (index.ravel()[fix] >> self.bits) * self.cuts.shape[1] + count
        uf = u.ravel()[fix]
        for d in range(self.spread):
            count += (self.cuts.ravel()[at + d] < uf).view(np.uint8)
        cell.ravel()[fix] = count
        np.add(cell, self.pattern_cell, out=index)
        index += np.arange(0, len(u) * self.width, self.width)[:, None]
        return index

    def sends(self, u: np.ndarray) -> np.ndarray:
        """(M, M, len(u)) log-likelihoods, [m] when codeword m is sent,
        under the uniforms u."""
        counts = np.bincount(self.cells(u).ravel(), minlength=len(u) * self.width)
        # to float64 in place, so a batch holds one count matrix, not two
        np.copyto(counts.view(float), counts, casting="unsafe")
        counts = counts.view(float).reshape(len(u), self.width)
        ll = np.empty((self.M, self.M, len(u)))
        for m, column in enumerate(self.column):
            np.matmul(np.take(self.table, column, axis=1), counts.T, out=ll[m])
        ll *= self.quantum
        if self.zero is not None:
            for m, column in enumerate(self.column):
                ll[m][np.take(self.zero, column, axis=1) @ counts.T > 0] = -np.inf
        return ll

    @staticmethod
    def metrics(m: int, ll: np.ndarray) -> np.ndarray:
        """(M, trials) log-likelihoods when codeword m is sent."""
        return ll[m]


class _GaussianStatistic:
    """Gaussian decoder metrics drawn through the projected statistic.

    With y = mu_k + sigma z, the correlation metric of mean row j is
    (mu_k.mu_j + sigma mu_j.z - |mu_j|^2/2) / sigma^2, and mu z ~ N(0, mu mu^T).
    The thin SVD mu = U S V^T of the K distinct mean rows, cut at a relative
    singular value of max(K, n) * eps, gives mu z = (U S) w with w = V^T z
    ~ N(0, I_r), r <= min(K, n): r normals per trial instead of n, and one
    GEMM of them against U S / sigma for every codeword sent. Codewords
    sharing a mean row share a column, so they tie exactly. Nothing is
    written once __init__ returns: each batch allocates its own arrays.
    """

    def __init__(self, kernel: ChannelKernel, arc_paths: np.ndarray):
        mu, inverse = np.unique(kernel.means[arc_paths], axis=0, return_inverse=True)
        u, s, vt = np.linalg.svd(mu, full_matrices=False)
        r = int((s > s[0] * max(mu.shape) * np.finfo(float).eps).sum())
        gram = mu @ mu.T
        self.basis = vt[:r]  # V^T, (r, n)
        self.loading = u[:, :r] * (s[:r] / np.sqrt(kernel.variance))  # U S / sigma
        self.column = inverse.reshape(-1)  # codeword -> mean row
        # row k: every codeword's offset when mean row k is sent
        self.offset = ((gram - 0.5 * np.diag(gram)) / kernel.variance)[:, self.column]
        self.M = len(arc_paths)
        self.rows = _rows(_BATCH_ELEMENTS, self.M)

    def draw(self, rng, trials: int) -> np.ndarray:
        """One batch's (K, trials) noise correlations, shared by every codeword."""
        return self.project(rng.standard_normal((trials, len(self.basis))))

    def project(self, w: np.ndarray) -> np.ndarray:
        """The (K, len(w)) noise correlations mu_k.z / sigma when V^T z = w."""
        # trial-major like the draws, then one copy to the row-wise layout
        return (w @ self.loading.T).T.copy()

    def metrics(self, m: int, corr: np.ndarray) -> np.ndarray:
        """(M, trials) metrics when codeword m is sent and the noise
        correlations are corr."""
        ll = np.take(corr, self.column, axis=0)
        ll += self.offset[self.column[m]][:, None]
        return ll


def _statistic(kernel: ChannelKernel, arc_paths: np.ndarray):
    """The decoder statistic of the book's kernel, read-only once built and
    so shared by every worker thread: metrics(m, draw(rng, trials)) gives
    the (M, trials) decoder metrics when codeword m is sent, up to a term
    common to all hypotheses, for at most min(rows, _CHUNK_TRIALS) trials,
    each draw in arrays of its own."""
    if kernel.kind == DISCRETE:
        return _DiscreteStatistic(kernel, arc_paths)
    return _GaussianStatistic(kernel, arc_paths)


def _count_errors(stat, rng, trials: int, sent: int, rows: int, log=None,
                  first: int = 0) -> np.ndarray:
    """Wrong ML decisions of codewords 0, ..., sent - 1 on `trials`
    transmissions each, all of them through the same noise, drawn from rng
    in batches of at most `rows` trials. Ties decode as errors
    (conservative); a lone codeword is never wrong. log, a csv writer,
    receives one row (trial, codeword, decoded, correct) per transmission,
    trial by trial, the trials numbered from `first`."""
    errors = np.zeros(sent, dtype=np.int64)
    for done in range(0, trials, rows):
        batch = min(rows, trials - done)
        noise = stat.draw(rng, batch)
        if log is not None:
            decoded, correct = np.empty((2, sent, batch), dtype=np.int64)
        for m in range(sent):
            ll = stat.metrics(m, noise)
            if log is not None:
                decoded[m] = ll.argmax(axis=0)
            mine = ll[m].copy()
            ll[m] = -np.inf  # this send's metrics: no other send reads them
            wrong = ll.max(axis=0) >= mine
            errors[m] += np.count_nonzero(wrong)
            if log is not None:
                correct[m] = ~wrong
        if log is not None:
            trial = np.arange(first + done, first + done + batch)
            log.writerows(zip(np.repeat(trial, sent).tolist(),
                              np.tile(np.arange(sent), batch).tolist(),
                              decoded.T.ravel().tolist(), correct.T.ravel().tolist()))
    return errors


def _count_chunk(stat, seed: int, c: int, trials: int, rows: int, log=None) -> np.ndarray:
    """_count_errors of every codeword on chunk c of a run of `trials`
    trials, drawn from the chunk's own stream in batches of at most `rows`
    trials."""
    first = c * _CHUNK_TRIALS
    rng = np.random.default_rng(np.random.SeedSequence((seed, c)))
    return _count_errors(stat, rng, min(_CHUNK_TRIALS, trials - first), stat.M, rows, log,
                         first)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate(kernel: ChannelKernel, book: Codebook, trials: int, seed: int,
             trial_log=None) -> SimulationReport:
    """Per-codeword ML error rates with exact binomial standard errors.

    Each trial sends every codeword through the same channel noise, so each
    codeword's error count is binomial and the counts are dependent.
    trial_log, when given, is the path of a CSV file that receives one row
    (trial, codeword, decoded, correct) per transmission, by trial and then
    codeword; it is closed however the run ends. The trial chunks run on
    one worker thread per CPU (see the module docstring for when they run
    inline), each in batches of at most stat.rows // workers trials, so
    that the batches in flight take at most the memory of one of stat.rows.
    An error in a chunk is raised here; on the pool it cancels the chunks
    that have not started, and the run waits for those that have."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    seed, n = int(seed), book.n
    stat = _statistic(kernel, book.arc_paths)
    chunks = range(-(-trials // _CHUNK_TRIALS))  # the last one possibly partial
    # one thread writes the log in trial order, and a run within one
    # batch's rows is too little work to pay for a pool
    workers = (1 if trial_log is not None or trials <= stat.rows
               else min(len(chunks), _cpu_count(), stat.rows))
    with contextlib.ExitStack() as stack:
        log, run = None, map
        if trial_log is not None:
            import csv
            log = csv.writer(stack.enter_context(
                open(trial_log, "w", encoding="utf-8", newline="")))
            log.writerow(["trial", "codeword", "decoded", "correct"])
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor  # ~10 ms to import: only when used
            pool = ThreadPoolExecutor(workers)
            # however the run ends, cancel the chunks not started and wait for the others
            stack.callback(pool.shutdown, cancel_futures=True)
            run = lambda fn, cs: (f.result() for f in [pool.submit(fn, c) for c in cs])
        errors = sum(run(lambda c: _count_chunk(stat, seed, c, trials, stat.rows // workers, log),
                         chunks))
    pe = errors / trials
    se = np.sqrt(pe * (1.0 - pe) / trials)
    worst = float(pe.max())
    # rule-of-three style fallback keeps the band finite at zero errors
    hi = min(1.0, max(worst + 3.0 * float(se[np.argmax(pe)]), 3.0 / trials))
    lo = max(worst - 3.0 * float(se[np.argmax(pe)]), 0.0)
    exponent = float("inf") if worst == 0.0 else -np.log(worst) / n
    band = (-np.log(hi) / n, float("inf") if lo == 0.0 else -np.log(lo) / n)
    return SimulationReport(trials, errors, pe, se, exponent, band, n, seed)


@dataclass(frozen=True)
class PairwiseReport:
    p_hat: float
    stderr: float
    bhattacharyya_bound: float
    distance: float


def pairwise_check(kernel: ChannelKernel, arcs_a: np.ndarray, arcs_b: np.ndarray,
                   trials: int, seed: int, d: DistanceMatrix) -> PairwiseReport:
    """Two-codeword ML error estimate against the Bhattacharyya bound
    exp(-sum_t d_B), with d_B read from the pair distances d; raises if the
    estimate exceeds the bound by more than three standard errors."""
    arcs_a = np.asarray(arcs_a, dtype=np.int64)
    arcs_b = np.asarray(arcs_b, dtype=np.int64)
    if arcs_a.shape != arcs_b.shape:
        raise ValidationError("paths must have equal length")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x9A)))
    stat = _statistic(kernel, np.stack([arcs_a, arcs_b]))
    errs = int(_count_errors(stat, rng, trials, 1, min(stat.rows, _CHUNK_TRIALS))[0])
    p = errs / trials
    se = float(np.sqrt(p * (1 - p) / trials))
    dist = float(d.d[arcs_a, arcs_b].sum())
    bound = float(np.exp(-dist))
    if p > bound + 3.0 * se:
        raise ValidationError(
            f"pairwise error {p:g} exceeds the Bhattacharyya bound {bound:g} "
            f"by more than 3 standard errors ({se:g})")
    return PairwiseReport(p, se, bound, dist)


@dataclass(frozen=True, eq=False)
class ZRhoResult:
    value: float
    # (L, L) joint law of two coupled pair processes, indexed (arc, arc'):
    # both pair marginals are q*, and the head-pair joint equals the tail-pair one
    argmin: np.ndarray
    delta: float
    cross_term: float
    newton_decrement: float  # at the returned point; half its square estimates the gap
    kkt_residual: float      # constraint residual or Lagrangian gradient / max(1, rho)


def _entropy(p: np.ndarray) -> float:
    p = p[p > 1e-300]
    return float(-(p * np.log(p)).sum())


def _quad_constraints(q_star: PairDistribution):
    """Equality system for the coupled quadruple table, flattened (L*L,):
    both pair marginals equal q*, and the joint law of the two heads equals
    that of the two tails: the 2-fold product's in-minus-out balance rows
    kron(H, H) - kron(T, T), T and H the tail and head indicators of every
    arc (`FeasiblePairSet.incidence`), all-zero rows dropped."""
    pairs = q_star.pairs
    L = len(pairs)
    eye, ones = np.eye(L), np.ones((1, L))
    tail, head = pairs.incidence(np.arange(L))
    stat = np.kron(head, head) - np.kron(tail, tail)
    stat = stat[stat.any(axis=1)]
    a_eq = np.vstack([np.kron(eye, ones), np.kron(ones, eye), stat])
    return a_eq, np.concatenate([q_star.q, q_star.q, np.zeros(len(stat))])


def delta_of(w: np.ndarray, pairs) -> float:
    """H(S+|S) + H(S+'|S') - H(S+,S+'|S,S') of a quadruple table, computed
    from the table's own marginals; nonnegative for every joint law by
    submodularity, zero exactly on conditional-product couplings."""
    S = pairs.n_states
    tails = pairs.tails
    w = np.maximum(w, 0.0)
    m1 = w.sum(axis=1)
    m2 = w.sum(axis=0)
    pi1 = np.bincount(tails, weights=m1, minlength=S)
    pi2 = np.bincount(tails, weights=m2, minlength=S)
    tt = (tails[:, None] * S + tails[None, :]).ravel()
    u = np.bincount(tt, weights=w.ravel(), minlength=S * S)
    return float((_entropy(m1) - _entropy(pi1)) + (_entropy(m2) - _entropy(pi2))
                 - (_entropy(w.ravel()) - _entropy(u)))


def z_rho(q_star: PairDistribution, d: DistanceMatrix, rho: float) -> ZRhoResult:
    """Minimize rho * Delta(w) - <w, d> over coupled quadruple laws.

    Delta(w) is the divergence of the coupling from the conditional-product
    family, so it is nonnegative and vanishes exactly there. The pinned pair
    marginals make its two H(S+|S) terms constant on the feasible set, so
    the objective is -rho * H(W|U) - <w, d> plus a constant, U being the
    tails-joint cell of W: a convex program. It is solved by
    equality-constrained Newton from q* x q*, which is feasible, on the
    support of q* x q* (every feasible w vanishes off it). The Hessian
    rho (diag 1/w - B^T diag(1/u) B) is block-diagonal by tail cell, so with
    dx = w y the step reduces to one symmetric system in the constraint
    multipliers nu and one unknown beta per cell:

        [A W A^T / rho, -A W B^T; -B W A^T, 0] [nu; beta] = [-A W g / rho; B W g],
        y = -(g + A^T nu) / rho + beta[cell].

    The step stops short of the boundary and backtracks until the objective
    drops enough below its start value, -E0(q*) (exact: Delta vanishes at
    q* x q*), so the value never exceeds -E0(q*). Entries below 1e-30 leave
    the support: they move neither the value nor the constraints, and
    keeping them would make Newton crawl toward an optimum whose tail cells
    vanish (small rho). The result carries the Newton decrement and the KKT
    residual of the returned point as its certificate; a decrement still
    above tolerance after the iteration cap raises instead of returning.
    """
    if rho <= 0:
        raise ValidationError("rho must be positive")
    pairs = q_star.pairs
    L = len(pairs)
    # every feasible w vanishes off supp(q*)^2, so only distances there enter
    on_q = q_star.q > 0
    support = np.outer(on_q, on_q)
    if np.isinf(d.d[support]).any():
        raise ValidationError("z_rho requires finite distances on the support of q*")
    dmat = np.where(support, d.d, 0.0)
    if pairs.n_states > 8:
        raise ValidationError("state space too large for the quadruple table (S <= 8)")
    S = pairs.n_states
    a_eq, b_eq = _quad_constraints(q_star)
    tails = pairs.tails
    tail_cell = (tails[:, None] * S + tails[None, :]).ravel()
    tol = _NEWTON_TOL * max(1.0, rho)

    def objective(w: np.ndarray) -> float:
        return rho * delta_of(w.reshape(L, L), pairs) - float(w @ dmat.ravel())

    w = np.outer(q_star.q, q_star.q).ravel()
    f = -e0(q_star, d)
    for it in range(_NEWTON_MAX_ITER + 1):
        on = np.nonzero(w)[0]
        x = w[on]
        a = a_eq[:, on]
        m = len(a)
        _, cell = np.unique(tail_cell[on], return_inverse=True)
        n_cells = int(cell.max()) + 1
        ab = np.vstack([a, np.eye(n_cells)[:, cell]])  # constraint rows, then cell indicators
        u = np.bincount(cell, weights=x, minlength=n_cells)
        g = rho * (np.log(x) - np.log(u[cell])) - dmat.ravel()[on]
        gram = (ab * x) @ ab.T
        kkt = np.block([[gram[:m, :m] / rho, -gram[:m, m:]],
                        [-gram[m:, :m], np.zeros((n_cells, n_cells))]])
        rhs = np.concatenate([-(a @ (x * g)) / rho, np.bincount(cell, weights=x * g)])
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        resid = g + a.T @ sol[:m]  # gradient of the Lagrangian, = -H dx
        dx = x * (sol[m:][cell] - resid / rho)
        lam2 = float((x * resid * resid).sum() / rho)  # dx^T H dx
        if lam2 / 2.0 <= tol:
            break
        if it == _NEWTON_MAX_ITER:
            raise ValidationError(
                f"z_rho did not converge at rho={rho:g}: Newton decrement "
                f"{np.sqrt(lam2):.3g} after {_NEWTON_MAX_ITER} iterations")
        shrink = float((-dx / x).max())  # x + t dx stays above (1 - t shrink) x
        t = 1.0 if shrink < 0.99 else 0.99 / shrink
        for _ in range(60):
            w_new = np.zeros_like(w)
            w_new[on] = x + t * dx
            w_new[w_new < _VANISH] = 0.0
            f_new = objective(w_new)
            if f_new <= f - 0.25 * t * lam2:
                break
            t *= 0.5
        else:
            raise ValidationError(
                f"z_rho line search stalled at rho={rho:g}: Newton decrement "
                f"{np.sqrt(lam2):.3g}")
        w, f = w_new, f_new
    kkt_residual = max(float(np.abs(a_eq @ w - b_eq).max()),
                       float(np.abs(resid).max()) / max(1.0, rho))
    w = w.reshape(L, L)
    return ZRhoResult(f, w, delta_of(w, pairs),
                      float((w * dmat).sum()), float(np.sqrt(lam2)), kkt_residual)


def z_rho_sweep(q_star: PairDistribution, d: DistanceMatrix, rhos) -> list[ZRhoResult]:
    """z_rho over a rho grid in increasing order. Exact minima are
    nondecreasing in rho because Delta >= 0, so a value below its
    predecessor by more than the predecessor's tolerance raises."""
    results: list[ZRhoResult] = []
    prev_rho = 0.0
    for rho in sorted(float(r) for r in rhos):
        res = z_rho(q_star, d, rho)
        if results and res.value < results[-1].value - _NEWTON_TOL * max(1.0, prev_rho):
            raise ValidationError(
                f"z_rho decreases from {results[-1].value!r} at rho={prev_rho:g} "
                f"to {res.value!r} at rho={rho:g}")
        results.append(res)
        prev_rho = rho
    return results
