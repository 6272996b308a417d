import hashlib
import inspect
import itertools
import json
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zerorate as zr
from zerorate import bhatt, montecarlo
from zerorate.cli import load_channel
from zerorate.codebook import Codebook
from zerorate.exponent import component_polytope
from zerorate.montecarlo import _DiscreteStatistic, _GaussianStatistic

from conftest import make_bsc, make_isi
from oracles import (discrete_metrics_per_codeword, discrete_ml_error_exact,
                     discrete_terms_broadcast, empirical_exponent_consistency,
                     gaussian_two_codeword_error, loglik_broadcast, quad_constraints_loop,
                     quadruple_joint, sample_outputs_broadcast, zrho_dense_newton)


def small_book(h=(1.0, 0.5), n=16, M=2, seed=0, theta=0.3):
    _, m, pairs, kern, d, cost = make_isi(h)
    res = zr.maximize_e0(d, pairs, cost)
    q, anchor, _ = zr.blend_for_construction(res.argmax.mixture(), None, n, theta)
    spec = zr.round_type(q, n)
    cands = zr.build_ensemble(spec, M, n, seed, anchor)
    return m, pairs, kern, d, zr.expurgate(cands, d, M, machine=m)


def test_single_codeword_never_errs():
    m, pairs, kern, d, book = small_book(M=1)
    rep = zr.simulate(kern, book, trials=500, seed=1)
    assert rep.errors.tolist() == [0]
    assert rep.empirical_exponent == float("inf")


def test_identical_codewords_tie_as_error():
    m, pairs, kern, d, book = small_book(M=2)
    twin = Codebook(book.machine, book.pairs,
                    np.stack([book.codewords[0], book.codewords[0]]),
                    np.stack([book.state_paths[0], book.state_paths[0]]),
                    np.stack([book.arc_paths[0], book.arc_paths[0]]),
                    book.certificate, 0.0, book.seed, book.blend)
    rep = zr.simulate(kern, twin, trials=400, seed=2)
    assert (rep.pe_estimates >= 0.5).all()  # ties decode as errors


def bsc_book(n=64, M=16, seed=0, p=0.1):
    m, pairs, kern, d = make_bsc(p)
    q = zr.PairDistribution(pairs, np.full(len(pairs), 1.0 / len(pairs)))
    cands = zr.build_ensemble(zr.round_type(q, n), M, n, seed, anchor=0)
    return kern, d, zr.expurgate(cands, d, M, machine=m)


def with_copy(book, src, dst, M):
    """The first M codewords of book, codeword src copied over codeword dst."""
    rows = [a[:M].copy() for a in (book.codewords, book.state_paths, book.arc_paths)]
    for a in rows:
        a[dst] = a[src]
    return Codebook(book.machine, book.pairs, *rows, book.certificate, 0.0,
                    book.seed, book.blend)


# With M = 14 the copy lands in a partial GEMM tile, where a plain
# y @ means.T rounds the two equal columns apart at some batch sizes.
@pytest.mark.parametrize("M", [16, 14])
@pytest.mark.parametrize("kind", ["gaussian", "discrete"])
def test_copied_codeword_ties_exactly(kind, M):
    if kind == "gaussian":
        _, _, kern, _, book = small_book(M=16, n=64, theta=0.5)
    else:
        kern, _, book = bsc_book()
    assert book.M == 16 and len(np.unique(book.arc_paths, axis=0)) == 16
    twin = with_copy(book, 0, 13, M)
    for trials in (*range(1, 41), 300):
        rep = zr.simulate(kern, twin, trials=trials, seed=2)
        # every trial ties the two copies exactly, and ties decode as errors
        assert rep.pe_estimates[0] == 1.0
        assert rep.pe_estimates[13] == 1.0


def test_noiseless_discrete_decoder_is_exact(order1):
    m, pairs = order1
    # deterministic outputs: each arc emits its own symbol
    eye = np.eye(4)
    kern = zr.discrete_kernel(tuple(range(4)), eye)
    d = zr.bhattacharyya(kern, pairs)
    q = zr.PairDistribution(pairs, np.full(4, 0.25))
    spec = zr.round_type(q, 12)
    cands = zr.build_ensemble(spec, 2, 12, 3, anchor=0)
    book = zr.expurgate(cands, d, 2, machine=m)
    rep = zr.simulate(kern, book, trials=300, seed=4)
    assert rep.errors.sum() == 0


def test_gaussian_two_codeword_error_matches_exact():
    # craft two short paths at a distance giving a measurable error rate
    _, m, pairs, kern, d, cost = make_isi([1.0, 0.5])
    n = 16
    path_a = np.zeros(n, dtype=np.int64)           # all +1
    path_b = np.array([0, 1] * (n // 2))           # alternating
    lookup = pairs.index_lookup()
    arcs_a = lookup[path_a, np.roll(path_a, -1)]
    arcs_b = lookup[path_b, np.roll(path_b, -1)]
    book = Codebook(m, pairs,
                    np.stack([zr.emit_codeword(path_a, m), zr.emit_codeword(path_b, m)]),
                    np.stack([path_a, path_b]), np.stack([arcs_a, arcs_b]),
                    (), 0.0, 0, 1.0)
    d_e = float(np.sqrt(((kern.means[arcs_a] - kern.means[arcs_b]) ** 2).sum()))
    exact = gaussian_two_codeword_error(d_e, 1.0)
    assert 1e-4 < exact < 0.2  # measurable at 1e5 trials
    trials = 100_000
    rep = zr.simulate(kern, book, trials=trials, seed=5)
    se = np.sqrt(exact * (1 - exact) / trials)
    assert abs(rep.pe_estimates[0] - exact) <= 3 * se
    assert abs(rep.pe_estimates[1] - exact) <= 3 * se


def test_pairwise_identical_paths():
    _, m, pairs, kern, d, cost = make_isi([1.0, 0.5])
    arcs = np.array([0, 1, 2, 3, 0, 0])
    rep = zr.pairwise_check(kern, arcs, arcs, trials=2000, seed=6, d=d)
    assert rep.bhattacharyya_bound == 1.0
    assert rep.p_hat >= 0.5  # every trial ties; ties decode as errors


def test_pairwise_gaussian_bound_holds():
    _, m, pairs, kern, d, cost = make_isi([1.0, 0.5])
    n = 16
    path_a = np.zeros(n, dtype=np.int64)
    path_b = np.array([0, 1] * (n // 2))
    lookup = pairs.index_lookup()
    arcs_a = lookup[path_a, np.roll(path_a, -1)]
    arcs_b = lookup[path_b, np.roll(path_b, -1)]
    rep = zr.pairwise_check(kern, arcs_a, arcs_b, trials=100_000, seed=7, d=d)
    d_e = float(np.sqrt(((kern.means[arcs_a] - kern.means[arcs_b]) ** 2).sum()))
    assert rep.distance == pytest.approx(d_e ** 2 / 8.0, rel=1e-12)
    exact = gaussian_two_codeword_error(d_e, 1.0)
    assert exact <= rep.bhattacharyya_bound
    assert rep.p_hat <= rep.bhattacharyya_bound + 3 * rep.stderr + 1e-12


def test_pairwise_bsc_bound_per_symbol_product():
    from conftest import make_bsc
    p = 0.1
    m, pairs, kern, d = make_bsc(p)
    n = 12
    hamming = 5
    lookup = pairs.index_lookup()
    path_a = np.zeros(n, dtype=np.int64)
    arcs_a = lookup[path_a, np.roll(path_a, -1)]
    arcs_b = arcs_a.copy()
    for t in range(hamming):  # flip the emitted symbol at `hamming` slots
        a = arcs_b[2 * t]
        tail, head = int(pairs.tails[a]), int(pairs.heads[a])
        arcs_b[2 * t] = lookup[tail, 1 - head]
    dist = float(d.d[arcs_a, arcs_b].sum())
    expect = (2 * np.sqrt(p * (1 - p))) ** hamming
    assert np.exp(-dist) == pytest.approx(expect, rel=1e-10)


def test_simulation_reproducible():
    m, pairs, kern, d, book = small_book(M=3, n=24)
    a = zr.simulate(kern, book, trials=2000, seed=11)
    b = zr.simulate(kern, book, trials=2000, seed=11)
    assert a.errors.tolist() == b.errors.tolist()
    assert a.to_json_dict() == b.to_json_dict()
    # the n = 24 book never errs, so seed sensitivity is checked on a book
    # whose every codeword errs hundreds of times
    kern, d, book = bsc_book(n=16, M=4, p=0.2)
    a = zr.simulate(kern, book, trials=2000, seed=11)
    c = zr.simulate(kern, book, trials=2000, seed=12)
    assert a.errors.min() > 100 and c.errors.min() > 100
    assert a.errors.tolist() != c.errors.tolist()


def random_book(gen, L, Y, n, M):
    """(arc paths, pmf) of an M-codeword book on L arcs with Y outputs:
    duplicate and permuted codewords, zero pmf cells, two arcs with one law."""
    paths = gen.integers(0, L, size=(M, n))
    paths[gen.integers(0, M, size=M // 2)] = paths[0]  # duplicate codewords
    # a permuted copy: the same terms as a multiset wherever y is constant
    paths[gen.integers(0, M)] = gen.permutation(paths[0])
    pmf = gen.dirichlet(np.ones(Y), size=L)
    pmf[gen.random((L, Y)) < 0.3] = 0.0  # zero cells give -inf terms
    pmf[:, 0] += pmf.sum(axis=1) == 0
    pmf /= pmf.sum(axis=1, keepdims=True)
    pmf[-1] = pmf[0]  # two arcs with one law
    return paths, pmf


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(4, 48), st.integers(1, 16),
       st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_kernels_match_broadcast_reference(L, Y, n, M, trials, seed):
    gen = np.random.default_rng(seed)
    paths, pmf = random_book(gen, L, Y, n, M)
    means = gen.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=L) * gen.uniform(0.5, 2.0)
    variance = gen.uniform(0.1, 4.0)
    kern = zr.discrete_kernel(tuple(range(Y)), pmf)
    stat = _DiscreteStatistic(kern, paths)
    u = np.random.default_rng(seed).random((trials, n))
    cells = stat.cells(u) % stat.width  # count-matrix columns, trial offsets dropped
    outputs = [sample_outputs_broadcast(kern, arcs, np.random.default_rng(seed), trials)
               for arcs in paths]
    for column, ref_y in zip(stat.column, outputs):
        y = column[cells] % Y  # the codeword's table column of a cell is p Y + y
        assert y.dtype == ref_y.dtype and np.array_equal(y, ref_y)
    # the statistic draws the same uniforms
    ll = stat.metrics(0, stat.draw(np.random.default_rng(seed), trials)).T
    terms = discrete_terms_broadcast(kern, paths, outputs[0])
    ref = terms.sum(axis=2)
    # float summation roundoff of the reference, n max|ref| 2^-53, plus the
    # integer table's rounding: n terms, each moved by at most half the
    # quantum 2^-s <= n max|ln p| 2^-51
    with np.errstate(divide="ignore"):
        logp = np.log(pmf[np.unique(paths)])
    top = np.abs(logp[np.isfinite(logp)]).max(initial=0.0)
    bound = n * (np.abs(ref[np.isfinite(ref)]).max(initial=0.0) + n * top / 4) * 2.0 ** -50
    assert np.array_equal(np.isneginf(ll), np.isneginf(ref))
    finite = np.isfinite(ref)
    assert (np.abs(ll[finite] - ref[finite]) <= bound).all()
    assert_same_decisions(ll, ref, bound)
    # codewords whose terms agree as multisets tie bit for bit
    ordered = np.sort(terms, axis=2)
    same = (ordered[:, :, None, :] == ordered[:, None, :, :]).all(axis=3)
    assert (ll[:, :, None] == ll[:, None, :])[same].all()
    # Gaussian: one full-length noise z through both paths, the projected
    # statistic seeing it as w = V^T z
    kern = zr.gaussian_kernel(means, variance)
    z = np.random.default_rng(seed).standard_normal((trials, n))
    y = kern.means[paths[0]] + np.sqrt(variance) * z
    stat = _GaussianStatistic(kern, paths)
    ll = stat.metrics(0, stat.project(z @ stat.basis.T)).T
    ref = loglik_broadcast(kern, paths, y)
    # the correlation metric omits -|y|^2 / 2 sigma^2
    full = ll - (y * y).sum(axis=1, keepdims=True) / (2.0 * variance)
    np.testing.assert_allclose(full, ref, rtol=1e-9, atol=0.0)
    assert_same_decisions(ll, ref)


def assert_same_decisions(ll, ref, margin=None):
    """Equal decoded codewords and equal per-codeword error indicators, on
    the trials whose top two reference metrics differ by more than margin
    (on every trial when margin is None)."""
    rows = np.ones(len(ref), dtype=bool)
    if margin is not None and ref.shape[1] > 1:
        top = np.sort(ref, axis=1)
        with np.errstate(invalid="ignore"):  # -inf - -inf
            rows = top[:, -1] - top[:, -2] > margin
    ll, ref = ll[rows], ref[rows]
    assert np.array_equal(ll.argmax(axis=1), ref.argmax(axis=1))
    for m in range(1, ll.shape[1]):
        wrong = np.delete(ll, m, axis=1).max(axis=1) >= ll[:, m]
        ref_wrong = np.delete(ref, m, axis=1).max(axis=1) >= ref[:, m]
        assert np.array_equal(wrong, ref_wrong)


def arc_book(machine, pairs, arc_paths):
    """A hand-made book on the given arc paths (walks or not: simulate
    reads only the arcs)."""
    return Codebook(machine, pairs, pairs.symbols[arc_paths], pairs.tails[arc_paths],
                    arc_paths, (), 0.0, 0, 0.0)


def test_permuted_codewords_tie_exactly():
    """The six orders of three arcs whose y = 0 laws are 0.1, 0.2, 0.3. At
    y = 0 every metric sums the same three terms, which float summation in
    codeword order rounds apart (-5.115995809754081 against ...082). With
    n = 3 and two outputs, any y repeats an output, and swapping the arcs
    at the two repeats gives a codeword with the same terms, so every trial
    ties and decodes as an error."""
    m, pairs, _, _ = make_bsc()
    pmf = [[0.1, 0.9], [0.2, 0.8], [0.3, 0.7], [0.5, 0.5]]
    kern = zr.discrete_kernel(("0", "1"), pmf)
    paths = np.array(list(itertools.permutations(range(3))))
    # uniforms at 0 give y = 0 whichever codeword is sent
    ll = _DiscreteStatistic(kern, paths).sends(np.zeros((1, 3)))
    assert (ll == ll[0, 0, 0]).all()
    assert abs(ll[0, 0, 0] - np.log(0.006)) <= 1e-14
    rep = zr.simulate(kern, arc_book(m, pairs, paths), trials=500, seed=3)
    assert rep.errors.tolist() == [500] * 6


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(3, 39), st.integers(1, 8),
       st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_shared_cells_match_per_codeword_metrics(L, Y, n, M, trials, seed):
    """The (M, M, trials) metrics from one count matrix of shared cells
    equal, bit for bit and -inf cells included, those of sampling and
    counting codeword by codeword, also for uniforms that sit exactly on
    a CDF breakpoint of an arc at their position or at 0.0."""
    gen = np.random.default_rng(seed)
    paths, pmf = random_book(gen, L, Y, n, M)
    kern = zr.discrete_kernel(tuple(range(Y)), pmf)
    u = gen.random((trials, n))
    arcs = paths[gen.integers(0, M, size=(trials, n)), np.arange(n)]
    on = np.cumsum(pmf, axis=1)[arcs, gen.integers(0, Y - 1, size=(trials, n))]
    u = np.where((gen.random((trials, n)) < 0.3) & (on < 1.0), on, u)
    u[gen.random((trials, n)) < 0.05] = 0.0
    stat = _DiscreteStatistic(kern, paths)
    assert np.array_equal(stat.sends(u), discrete_metrics_per_codeword(kern, paths, u))


def test_cell_lookup_at_bucket_edges():
    """Breakpoints 1/4, 1/2 and 1 sit on bucket edges. The lookup's cells
    and metrics equal the codeword-by-codeword ones at every edge k 2^-K,
    at the doubles on either side of it, at 0.0 and at 1 - 2^-53, each
    value at every position, and on a draw whose every uniform lies in a
    bucket holding a breakpoint, and so is counted by the compares."""
    kern = zr.discrete_kernel(("a", "b", "c"), [[0.25, 0.25, 0.5], [0.5, 0.5, 0.0]])
    # columns with arcs {0}, {1} and {0, 1}: three distinct cut grids
    paths = np.array([[0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 1, 1], [0, 1, 1, 0, 0, 0]])
    stat = _DiscreteStatistic(kern, paths)
    assert stat.bits == montecarlo._LOOKUP_BITS and len(stat.cuts) == 3
    edges = np.arange(1 << stat.bits) / (1 << stat.bits)
    values = np.unique(np.concatenate([edges, np.nextafter(edges[1:], 0.0),
                                       np.nextafter(edges, 1.0), [0.25, 0.5, 1.0 - 2.0 ** -53]]))
    n = paths.shape[1]
    on_edges = values[(np.arange(len(values))[:, None] + np.arange(n)) % len(values)]
    # every uniform of this draw lies in the bucket of the breakpoint 1/2
    in_cut = 0.5 + np.random.default_rng(5).random((64, n)) * 2.0 ** -stat.bits
    cdf = np.cumsum(kern.pmf, axis=1)[:, :-1]
    for u in (on_edges, in_cut):
        cells = stat.cells(u) % stat.width  # count-matrix columns, trial offsets dropped
        for arcs, column in zip(paths, stat.column):
            # the codeword's inverse-CDF outputs; its table column of a cell is p Y + y
            assert np.array_equal(column[cells] % 3, (u[:, :, None] > cdf[arcs]).sum(axis=2))
        assert np.array_equal(stat.sends(u), discrete_metrics_per_codeword(kern, paths, u))
    bucket = np.ldexp(in_cut, stat.bits).astype(np.intp) + stat.bucket_base
    assert (stat.lookup[bucket] < 0).all()


def test_cell_lookup_memory_on_wide_grids():
    """Each of 4096 positions merges all 32 arcs' 7 breakpoints, 224 cuts,
    so about 5% of a batch's uniforms lie in a bucket holding one and are
    counted by compares. The compares take memory in proportion to those
    uniforms, not to them times the cuts: the peak of `cells` stays within
    twice the uniforms (comparing each with all 224 cuts at once read 14
    times). The cells equal the codewords' inverse-CDF outputs."""
    gen = np.random.default_rng(0)
    L, Y, n = 32, 8, 4096
    kern = zr.discrete_kernel(tuple(range(Y)), gen.dirichlet(np.ones(Y), size=L))
    paths = np.stack([gen.permutation(L) for _ in range(4)], axis=1)[:, np.arange(n) % 4]
    stat = _DiscreteStatistic(kern, paths)
    assert np.isfinite(stat.cuts).sum(axis=1).tolist() == [L * (Y - 1)]
    assert stat.bits == montecarlo._LOOKUP_BITS
    u = gen.random((stat.rows, n))
    tracemalloc.start()
    try:
        cells = stat.cells(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * u.nbytes
    cells %= stat.width  # count-matrix columns, trial offsets dropped
    cdf = np.cumsum(kern.pmf, axis=1)[:, :-1]
    for arcs, column in zip(paths, stat.column):
        assert np.array_equal(column[cells] % Y, (u[:, :, None] > cdf[arcs]).sum(axis=2))


@pytest.mark.parametrize("M, bound_mib", [(8, 3.36), (32, 5.16 + 2.0)])
def test_simulate_peak_memory(M, bound_mib, monkeypatch):
    """One simulate of 2000 trials on an n = 512 quantized two-tap book,
    one batch in flight, each batch gathering one send's table at a time.
    At M = 8 the peak must stay below the 3.45 MiB of the compare passes
    with (rows, n) int64 cell offsets that the bucket lookup replaced. At
    M = 32 the constructor sets the peak, 5.16 MiB, and 2 MiB of room
    catches a table of every send kept from construction."""
    doc = json.loads((Path(__file__).resolve().parent.parent
                      / "bench/specs/quantized_two_tap.json").read_text())
    ch = load_channel(doc)
    d = zr.bhattacharyya(ch.kernel, ch.pairs)
    plan = zr.maximize_e0(d, ch.pairs, ch.cost).argmax
    book = zr.build_codebook(plan, d, ch.cost, 512, M, 0, ch.machine)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 1)
    tracemalloc.start()
    try:
        zr.simulate(ch.kernel, book, trials=2000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2 ** 20


# Reports and trial-log digests of 3172 trials (three chunks and a partial
# one) at seed 9, recorded with the codeword-by-codeword statistic. Every
# golden simulate book sees no errors, so these two pin the decisions.
PINNED_REPORTS = {
    "bsc": ({"trials": 3172, "errors": [350, 271, 259, 375],
             "pe_estimates": [0.11034047919293821, 0.08543505674653215,
                              0.08165195460277427, 0.1182219419924338],
             "std_errors": [0.005563047381413095, 0.004963165323982331,
                            0.0048620604753206115, 0.005732738068137463],
             "empirical_exponent": 0.1334494722990205,
             "exponent_band": [0.12496081659375384, 0.14327499132112545], "n": 16, "seed": 9},
            "c3eef920d89408ab59001ee7db8f5b87dd2940c6a2760472d616c6fcec961c5f"),
    "wide": ({"trials": 3172, "errors": [905, 709, 879, 823],
              "pe_estimates": [0.2853089533417402, 0.22351828499369483,
                               0.2771122320302648, 0.2594577553593947],
              "std_errors": [0.00801770885353286, 0.0073969989242590375,
                             0.007946880765406044, 0.007782903721311314],
              "empirical_exponent": 0.07838641494092578,
              "exponent_band": [0.07332768177894189, 0.08389094828020939], "n": 16, "seed": 9},
             "4ab8215e2970d088ac4ea38f54b9151e19675b1c9962d9297f571ea2d8d68b7e"),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_error_heavy_reports_are_pinned(name, monkeypatch, tmp_path):
    kern, _, book = bsc_book(n=16, M=4, p=0.2) if name == "bsc" else wide_book()
    report, digest = PINNED_REPORTS[name]
    log = tmp_path / "trials.csv"
    assert zr.simulate(kern, book, trials=3172, seed=9, trial_log=log).to_json_dict() == report
    assert hashlib.sha256(log.read_bytes()).hexdigest() == digest
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
    pools = []
    pooled = montecarlo._count_errors_pooled
    monkeypatch.setattr(montecarlo, "_count_errors_pooled",
                        lambda stat, workers, *args: pools.append(workers)
                        or pooled(stat, workers, *args))
    assert zr.simulate(kern, book, trials=3172, seed=9).to_json_dict() == report
    assert pools == [2]


def test_discrete_error_rates_match_exact_enumeration():
    """Every codeword goes through the same uniforms, and each one's error
    count is still Binomial(trials, pe_m): at 20000 trials every estimate
    lies within three standard errors of the exact ML error probability,
    enumerated over all 3^8 outputs of a three-codeword book whose kernel
    has a zero cell."""
    m, pairs, _, _ = make_bsc()
    gen = np.random.default_rng(2)
    pmf = gen.dirichlet(np.ones(3), size=len(pairs))
    pmf[0, 2] = 0.0
    pmf /= pmf.sum(axis=1, keepdims=True)
    kern = zr.discrete_kernel(("a", "b", "c"), pmf)
    paths = gen.integers(0, len(pairs), size=(3, 8))
    assert (paths == 0).any()  # some metrics are -inf
    exact = discrete_ml_error_exact(kern, paths)
    assert ((0.1 < exact) & (exact < 0.5)).all()
    trials = 20_000
    rep = zr.simulate(kern, arc_book(m, pairs, paths), trials=trials, seed=1)
    assert (np.abs(rep.pe_estimates - exact) <= 3 * np.sqrt(exact * (1 - exact) / trials)).all()


def test_pairwise_gaussian_matches_exact_error():
    # criterion 5's n = 16 pair: all +1 against alternating
    _, m, pairs, kern, d, cost = make_isi([1.0, 0.5])
    n = 16
    path_a = np.zeros(n, dtype=np.int64)
    path_b = np.array([0, 1] * (n // 2))
    lookup = pairs.index_lookup()
    arcs_a = lookup[path_a, np.roll(path_a, -1)]
    arcs_b = lookup[path_b, np.roll(path_b, -1)]
    d_e = float(np.sqrt(((kern.means[arcs_a] - kern.means[arcs_b]) ** 2).sum()))
    exact = gaussian_two_codeword_error(d_e, 1.0)
    trials = 100_000
    rep = zr.pairwise_check(kern, arcs_a, arcs_b, trials=trials, seed=6, d=d)
    assert abs(rep.p_hat - exact) <= 3 * np.sqrt(exact * (1 - exact) / trials)


def test_zero_means_always_tie():
    """All means zero: the statistic has rank 0 and every trial ties."""
    m, pairs, kern, d, book = small_book(M=3, n=16)
    zero = zr.gaussian_kernel(np.zeros_like(kern.means), kern.variance)
    assert len(_GaussianStatistic(zero, book.arc_paths).basis) == 0
    rep = zr.simulate(zero, book, trials=300, seed=2)
    assert rep.errors.tolist() == [300, 300, 300]
    pair = zr.pairwise_check(zero, book.arc_paths[0], book.arc_paths[1], trials=300, seed=2,
                             d=zr.bhattacharyya(zero, pairs))
    assert pair.p_hat == 1.0 and pair.bhattacharyya_bound == 1.0


def wide_book(n=16, M=4, Y=16, seed=0):
    """Random arc paths under 16-output laws: P * Y > n."""
    m, pairs, _, _ = make_bsc()
    gen = np.random.default_rng(seed)
    pmf = 0.5 * gen.dirichlet(np.ones(Y), size=len(pairs)) + 0.5 / Y
    kern = zr.discrete_kernel(tuple(range(Y)), pmf)
    paths = gen.integers(0, len(pairs), size=(M, n))
    return kern, zr.bhattacharyya(kern, pairs), arc_book(m, pairs, paths)


@pytest.mark.parametrize("kind", ["gaussian", "discrete", "wide"])
def test_batch_size_changes_nothing(kind, monkeypatch, tmp_path):
    if kind == "gaussian":
        _, _, kern, d, book = small_book(M=4, n=16)
    elif kind == "discrete":
        kern, d, book = bsc_book(n=16, M=4, p=0.2)
    else:
        kern, d, book = wide_book()
    width = book.n
    if kind != "gaussian":
        width = max(book.n, _DiscreteStatistic(kern, book.arc_paths).width)
    if kind == "wide":
        assert width > book.n  # the count matrix sets the batch size

    dist = d.d[book.arc_paths[:, None, :], book.arc_paths[None, :, :]].sum(axis=2)
    a, b = np.unravel_index(np.argmin(dist + np.diag(np.full(book.M, np.inf))), dist.shape)
    cells = []  # count-matrix size of each discrete batch
    sends = montecarlo._DiscreteStatistic.sends
    monkeypatch.setattr(montecarlo._DiscreteStatistic, "sends",
                        lambda self, u: cells.append(len(u) * self.width) or sends(self, u))

    def run():
        log = tmp_path / "trials.csv"
        # three chunks, the last one partial
        rep = zr.simulate(kern, book, trials=2 * montecarlo._CHUNK_TRIALS + 52, seed=9,
                          trial_log=log)
        pair = zr.pairwise_check(kern, book.arc_paths[a], book.arc_paths[b],
                                 trials=500, seed=9, d=d)
        assert max(cells, default=0) <= montecarlo._BATCH_ELEMENTS
        cells.clear()
        return rep, pair, log.read_text()

    rep, pair, log = run()
    assert rep.errors.sum() > 0 and pair.p_hat > 0
    monkeypatch.setattr(montecarlo, "_BATCH_ELEMENTS", 7 * width + 3)  # 7-trial batches
    small_rep, small_pair, small_log = run()
    assert small_rep.to_json_dict() == rep.to_json_dict()
    assert small_pair == pair
    same_log = small_log == log  # a plain assert would diff two 8400-line strings
    assert same_log


def several_batches(kind, monkeypatch):
    """(kernel, book) of the given kind, with _BATCH_ELEMENTS cut to
    30-trial batches and _CHUNK_TRIALS to 60, so that 500 trials span nine
    chunks and each chunk several batches, even when three workers share
    the batch budget."""
    if kind == "gaussian":
        _, _, kern, _, book = small_book(M=4, n=16)
        width = book.M
    else:
        kern, _, book = bsc_book(n=16, M=4, p=0.2) if kind == "discrete" else wide_book()
        width = max(book.n, _DiscreteStatistic(kern, book.arc_paths).width)
    monkeypatch.setattr(montecarlo, "_BATCH_ELEMENTS", 30 * width + 3)  # 30-trial batches
    monkeypatch.setattr(montecarlo, "_CHUNK_TRIALS", 60)
    return kern, book


@pytest.mark.parametrize("kind", ["gaussian", "discrete", "wide"])
def test_worker_count_changes_nothing(kind, monkeypatch, tmp_path):
    kern, book = several_batches(kind, monkeypatch)
    pools = []
    pooled = montecarlo._count_errors_pooled
    monkeypatch.setattr(montecarlo, "_count_errors_pooled",
                        lambda stat, workers, *args: pools.append(workers)
                        or pooled(stat, workers, *args))
    reports = {}
    interval = sys.getswitchinterval()
    # switch threads often: a write to the shared statistic would garble draws
    sys.setswitchinterval(1e-6)
    try:
        for k in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_cpu_count", lambda k=k: k)
            reports[k] = zr.simulate(kern, book, trials=500, seed=9).to_json_dict()
        # a trial log keeps the chunks inline and in order
        reports["log"] = zr.simulate(kern, book, trials=500, seed=9,
                                     trial_log=tmp_path / "trials.csv").to_json_dict()
    finally:
        sys.setswitchinterval(interval)
    assert pools == [2, 3]
    assert sum(reports[1]["errors"]) > 0
    assert reports[2] == reports[1] and reports[3] == reports[1]
    assert reports["log"] == reports[1]


@pytest.mark.parametrize("kind", ["gaussian", "discrete", "wide"])
def test_workers_share_a_read_only_statistic(kind, monkeypatch):
    """Every array of the statistic is read-only and no attribute is
    rebound, so a worker that wrote to the statistic they all share would
    raise."""
    kern, book = several_batches(kind, monkeypatch)
    statistic, built = montecarlo._statistic, []

    def frozen(*args):
        stat = statistic(*args)
        for value in vars(stat).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        built.append((stat, dict(vars(stat))))
        return stat

    monkeypatch.setattr(montecarlo, "_statistic", frozen)
    for k in (1, 2, 3):
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda k=k: k)
        assert zr.simulate(kern, book, trials=500, seed=9).errors.sum() > 0
    d = zr.bhattacharyya(kern, book.pairs)
    zr.pairwise_check(kern, book.arc_paths[0], book.arc_paths[1], trials=500, seed=9, d=d)
    assert len(built) == 4
    for stat, attrs in built:
        assert vars(stat).keys() == attrs.keys()
        assert all(vars(stat)[name] is value for name, value in attrs.items())


def test_worker_error_cancels_the_chunks_not_started(monkeypatch):
    kern, book = several_batches("discrete", monkeypatch)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
    started, holds, held, release = [], [], threading.Semaphore(0), threading.Event()

    def count_chunk(stat, seed, c, trials, rows, log=None):
        started.append(c)
        if c == 0:
            raise FloatingPointError("chunk 0")
        held.release()
        release.wait(30)  # holds the worker until the pool has cancelled what is queued
        return 0

    shutdown = ThreadPoolExecutor.shutdown

    def cancel_then_release(pool, wait=True, *, cancel_futures=False):
        # wait until both workers are held: the one that raised on chunk 0 takes the next
        holds.extend(held.acquire(timeout=30) for _ in range(2))
        shutdown(pool, wait=False, cancel_futures=cancel_futures)
        release.set()
        shutdown(pool, wait=wait)

    monkeypatch.setattr(montecarlo, "_count_chunk", count_chunk)
    monkeypatch.setattr(ThreadPoolExecutor, "shutdown", cancel_then_release)
    with pytest.raises(FloatingPointError, match="chunk 0"):
        zr.simulate(kern, book, trials=500, seed=9)
    assert holds == [True, True]
    assert sorted(started) == [0, 1, 2]  # of nine chunks


def test_workers_call_no_public_function(monkeypatch):
    """bench/tracing.py keeps one process-wide span stack around the public
    functions, so only the main thread may call them."""
    kern, book = several_batches("discrete", monkeypatch)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
    callers, workers = [], set()

    def on_thread(fn, record):
        def wrapped(*args, **kwargs):
            record(threading.current_thread())
            return fn(*args, **kwargs)
        return wrapped

    public = {id(fn): fn for mod in (montecarlo, bhatt) for name, fn in vars(mod).items()
              if not name.startswith("_") and inspect.isfunction(fn)
              and fn.__module__ == mod.__name__}
    for key in [k for k in sys.modules if k == "zerorate" or k.startswith("zerorate.")]:
        for name, obj in list(vars(sys.modules[key]).items()):
            if id(obj) in public:
                monkeypatch.setattr(sys.modules[key], name, on_thread(obj, callers.append))
    monkeypatch.setattr(montecarlo, "_count_chunk",
                        on_thread(montecarlo._count_chunk, workers.add))
    rep = zr.simulate(kern, book, trials=500, seed=9)
    assert rep.errors.sum() > 0
    assert workers and threading.main_thread() not in workers  # the pool ran
    assert {"simulate", "log_pmf"} <= {f.__name__ for f in public.values()}
    assert len(callers) >= 2 and set(callers) == {threading.main_thread()}


def test_exponent_consistency_with_min_distance():
    m, pairs, kern, d, book = small_book(M=4, n=48, theta=0.5)
    rep = zr.simulate(kern, book, trials=3000, seed=13)
    assert empirical_exponent_consistency(book, rep)


# -------------------------------------------------------------------- z_rho

def test_zrho_product_start_bound(order1):
    _, pairs = order1
    _, _, p2, _, d, _ = make_isi([1.0, 0.5])
    q = zr.PairDistribution(p2, np.full(4, 0.25))
    e0_val = zr.e0(q, d)
    for rho in (0.5, 3.0, 50.0):
        res = zr.z_rho(q, d, rho)
        assert res.value <= -e0_val + 1e-9
        assert res.delta >= -1e-9


def test_zrho_monotone_sweep():
    _, _, pairs, _, d, _ = make_isi([1.0, 0.5])
    q = zr.PairDistribution(pairs, np.full(4, 0.25))
    results = zr.z_rho_sweep(q, d, [1.0, 10.0, 100.0, 1000.0])
    vals = [r.value for r in results]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))


def test_zrho_large_rho_approaches_minus_e0():
    _, _, pairs, _, d, _ = make_isi([1.0, 0.5])
    q = zr.PairDistribution(pairs, np.full(4, 0.25))
    e0_val = zr.e0(q, d)
    res = zr.z_rho(q, d, 1000.0)
    assert abs(res.value + e0_val) <= 0.05 * e0_val


def test_zrho_quadruple_constraints_hold():
    _, _, pairs, _, d, _ = make_isi([1.0, 0.5])
    q = zr.PairDistribution(pairs, np.full(4, 0.25))
    res = zr.z_rho(q, d, 10.0)
    w = res.argmin
    assert w.sum() == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(w.sum(axis=1), q.q, atol=1e-7)
    assert np.allclose(w.sum(axis=0), q.q, atol=1e-7)
    assert np.allclose(quadruple_joint(w, pairs.n_states, pairs.heads),
                       quadruple_joint(w, pairs.n_states, pairs.tails), atol=1e-7)


@pytest.mark.parametrize("spec", ["specs/bsc.json", "specs/isi_binary.json",
                                  "specs/isi_two_tap.json",
                                  "bench/specs/quantized_two_tap.json",
                                  "bench/specs/time_sharing.json"])
def test_quad_constraints_match_loop_reference(spec):
    doc = json.loads((Path(__file__).resolve().parent.parent / spec).read_text())
    pairs = load_channel(doc).pairs
    rng = np.random.default_rng(0)
    poly = component_polytope(pairs, np.arange(len(pairs)))
    q = zr.PairDistribution(pairs, poly.project(rng.dirichlet(np.ones(len(pairs)))))
    a_eq, b_eq = montecarlo._quad_constraints(q)
    ref_a, ref_b = quad_constraints_loop(q)
    assert np.array_equal(a_eq, ref_a) and np.array_equal(b_eq, ref_b)


def test_zrho_guard_on_state_count():
    # 9-state machine exceeds the quadruple-table guard
    m = zr.shift_register([0.0, 1.0, 2.0], 2)
    pairs = zr.feasible_pairs(m)
    from zerorate.exponent import component_polytope
    poly = component_polytope(pairs, np.arange(len(pairs)))
    q = zr.PairDistribution(pairs, poly.project(np.full(len(pairs), 1.0 / len(pairs))))
    d = zr.DistanceMatrix(np.ones((len(pairs), len(pairs))) - np.eye(len(pairs)))
    with pytest.raises(zr.ValidationError):
        zr.z_rho(q, d, 1.0)


def cli_zrho_q(spec_path: str, n: int = 512):
    """The q that `zrho --starts 8 --seed 0` uses: the argmax blended at n."""
    doc = json.loads((Path(__file__).resolve().parent.parent / spec_path).read_text())
    ch = load_channel(doc)
    d = zr.bhattacharyya(ch.kernel, ch.pairs)
    res = zr.maximize_e0(d, ch.pairs, ch.cost, starts=8, seed=0)
    return zr.blend_for_construction(res.argmax.mixture(), None, n, None)[0], d


def assert_feasible(res, q, tol):
    w, S = res.argmin, q.pairs.n_states
    assert (w >= 0).all()
    assert np.abs(w.sum(axis=1) - q.q).max() <= tol
    assert np.abs(w.sum(axis=0) - q.q).max() <= tol
    heads, tails = quadruple_joint(w, S, q.pairs.heads), quadruple_joint(w, S, q.pairs.tails)
    assert np.abs(heads - tails).max() <= tol


def test_zrho_matches_dense_newton_on_cli_q():
    q, d = cli_zrho_q("specs/isi_binary.json")
    p = q.pairs
    ref, _ = zrho_dense_newton(q.q, p.tails, p.heads, p.n_states, d.d, 64.0)
    res = zr.z_rho(q, d, 64.0)
    assert abs(res.value - ref) <= 1e-8
    assert res.value <= -zr.e0(q, d)
    assert_feasible(res, q, 1e-10)


def balanced_positive_q(pairs, weights) -> zr.PairDistribution:
    """The stationary pair law of the chain that leaves each state along
    its arcs with probabilities proportional to the weights."""
    tails, heads, S = pairs.tails, pairs.heads, pairs.n_states
    step = np.asarray(weights) / np.bincount(tails, weights=weights, minlength=S)[tails]
    chain = np.zeros((S, S))
    np.add.at(chain, (tails, heads), step)
    vals, vecs = np.linalg.eig(chain.T)
    pi = np.abs(np.real(vecs[:, np.argmin(np.abs(vals - 1.0))]))
    return zr.PairDistribution(pairs, pi[tails] * step / (pi[tails] * step).sum())


@settings(max_examples=40, deadline=None)
@given(channel=st.sampled_from(["isi", "bsc"]),
       weights=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
       rho=st.floats(0.5, 1000.0))
def test_zrho_property_against_dense_newton(channel, weights, rho):
    if channel == "isi":
        _, _, pairs, _, d, _ = make_isi([1.0, 0.5])
    else:
        _, pairs, _, d = make_bsc(0.1)
    q = balanced_positive_q(pairs, weights)  # both pair sets have four pairs
    res = zr.z_rho(q, d, rho)
    assert_feasible(res, q, 1e-10)
    assert res.value <= -zr.e0(q, d) + 1e-12
    ref, _ = zrho_dense_newton(q.q, pairs.tails, pairs.heads, pairs.n_states, d.d, rho)
    assert abs(res.value - ref) <= 1e-8


@pytest.mark.parametrize("spec, n", [("bench/specs/time_sharing.json", 512),
                                     ("bench/specs/quantized_two_tap.json", 64),
                                     ("specs/isi_binary.json", 64)])
def test_zrho_at_large_rho_stays_at_or_below_minus_e0(spec, n):
    """At rho = 1e8, roundoff in Delta's entropy differences outweighs the
    cross term; the value starts at -E0(q*) exactly, so it never exceeds it."""
    q, d = cli_zrho_q(spec, n)
    assert zr.z_rho(q, d, 1e8).value <= -zr.e0(q, d)


def test_zrho_raises_at_the_iteration_cap(monkeypatch):
    q, d = cli_zrho_q("specs/isi_binary.json")
    zr.z_rho(q, d, 64.0)  # converges with the shipped cap
    monkeypatch.setattr(montecarlo, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(zr.ValidationError, match=r"rho=64\b.*decrement"):
        zr.z_rho(q, d, 64.0)


def test_zrho_sweep_raises_on_a_decrease(monkeypatch):
    _, _, pairs, _, d, _ = make_isi([1.0, 0.5])
    q = zr.PairDistribution(pairs, np.full(4, 0.25))
    real = montecarlo.z_rho
    at_one = real(q, d, 1.0)
    monkeypatch.setattr(montecarlo, "z_rho",
                        lambda q_, d_, rho: at_one if rho == 10.0 else real(q_, d_, rho))
    with pytest.raises(zr.ValidationError, match="decreases"):
        zr.z_rho_sweep(q, d, [10.0, 2.0])


def test_zrho_long_register_certificate():
    """L = 64 pairs: the reduced Newton step keeps this to a fraction of a second."""
    q, d = cli_zrho_q("specs/isi_two_tap.json")
    res = zr.z_rho(q, d, 64.0)
    assert len(q.pairs) == 64
    assert_feasible(res, q, 1e-10)
    assert res.newton_decrement ** 2 / 2 <= 64e-12
    assert res.kkt_residual <= 1e-5
    assert res.value <= -zr.e0(q, d)


def test_zrho_small_rho_with_vanishing_cells():
    """At rho = 0.01 whole tail cells of the optimum vanish; dropping
    entries below 1e-30 lets Newton converge instead of crawling to the cap."""
    q, d = cli_zrho_q("bench/specs/time_sharing.json")
    res = zr.z_rho(q, d, 0.01)
    assert_feasible(res, q, 1e-10)
    assert res.newton_decrement ** 2 / 2 <= 1e-12
    assert (res.argmin == 0).any()
    assert res.value <= zr.z_rho(q, d, 0.05).value


def test_delta_zero_exactly_on_product_coupling():
    from zerorate.montecarlo import delta_of
    _, _, pairs, _, d, _ = make_isi([1.0, 0.5])
    rng = np.random.default_rng(0)
    from zerorate.exponent import component_polytope
    poly = component_polytope(pairs, np.arange(4))
    for _ in range(10):
        q = poly.project(rng.dirichlet(np.ones(4)))
        w = np.outer(q, q)
        assert abs(delta_of(w, pairs)) <= 1e-12
        rand = rng.dirichlet(np.ones(16)).reshape(4, 4)
        assert delta_of(rand, pairs) >= -1e-12


def test_trial_log_is_closed_when_a_chunk_raises(tmp_path, monkeypatch):
    m, pairs, kern, d, book = small_book(M=2, n=16)
    opened = []

    def tracking_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    count_chunk = montecarlo._count_chunk

    def fail_on_second(stat, seed, c, *args):
        if c == 1:
            raise RuntimeError("chunk 1 failed")
        return count_chunk(stat, seed, c, *args)

    monkeypatch.setattr(montecarlo, "open", tracking_open, raising=False)
    monkeypatch.setattr(montecarlo, "_count_chunk", fail_on_second)
    monkeypatch.setattr(montecarlo, "_CHUNK_TRIALS", 25)
    with pytest.raises(RuntimeError, match="chunk 1 failed"):
        zr.simulate(kern, book, trials=50, seed=3, trial_log=tmp_path / "trials.csv")
    assert len(opened) == 1 and opened[0].closed
    # chunk 0's rows, 25 trials of both codewords, were written before the failure
    assert len((tmp_path / "trials.csv").read_text().splitlines()) == 1 + 50


def test_trial_log_csv(tmp_path):
    import csv as csv_mod
    m, pairs, kern, d, book = small_book(M=2, n=16)
    log = tmp_path / "trials.csv"
    rep = zr.simulate(kern, book, trials=50, seed=3, trial_log=str(log))
    with log.open(newline="") as fh:
        rows = list(csv_mod.reader(fh))
    assert rows[0] == ["trial", "codeword", "decoded", "correct"]
    assert len(rows) == 1 + 2 * 50
    # by trial, then codeword
    assert [(int(r[0]), int(r[1])) for r in rows[1:]] == [(t, m) for t in range(50) for m in (0, 1)]
    wrong = sum(1 for r in rows[1:] if r[3] == "0")
    assert wrong == int(rep.errors.sum())
