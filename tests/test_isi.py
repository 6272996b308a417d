import csv
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import jv

import zerorate as zr
from zerorate.errors import ValidationError
from zerorate.isi import (IsiSpec, _error_harmonics, _phase_averages, _phase_breakpoints,
                          build_isi_machine, quantize_midrise)

from conftest import cli_out, make_isi
from oracles import (b_bessel_series, bessel_j_simpson, eps_bessel_series,
                     error_harmonics_per_interval, harmonic_r_ee, harmonic_r_xe,
                     phase_averages_per_interval, phase_breakpoints_loop,
                     power_identity_check, quantized_sine_time_averages,
                     window_distribution_to_pairs, e0_isi)

W0 = 2 * np.pi * (np.sqrt(2) - 1) / 4


# ------------------------------------------------------------------ machine

def test_machine_k0_single_state_augmented():
    spec = IsiSpec([2.0], 1.0, [1.0, -1.0], 1.0)
    m, kern = build_isi_machine(spec)
    pairs = zr.feasible_pairs(m)
    assert m.n_states == 2
    assert len(pairs) == m.n_states * m.n_symbols
    # mean depends on the emitted symbol only
    mu = kern.means
    vals = np.asarray(m.values)[pairs.symbols]
    assert np.array_equal(mu, 2.0 * vals)


def test_machine_k1_means():
    spec, m, pairs, kern, d, _ = make_isi([1.0, 0.5])
    assert m.n_states == 2 and len(pairs) == 4
    got = sorted(kern.means.tolist())
    assert got == sorted([1.5, -0.5, 0.5, -1.5])


def test_machine_k2_matches_generic_bhattacharyya():
    spec, m, pairs, kern, d, _ = make_isi([1.0, 0.5, 0.25])
    assert m.n_states == 4 and len(pairs) == 8
    mu = kern.means
    expect = (mu[:, None] - mu[None, :]) ** 2 / 8.0
    assert np.allclose(d.d, expect, atol=1e-14)


def test_machine_state_guard():
    spec = IsiSpec([1.0, 0.5], 1.0, np.linspace(-1, 1, 70), 1.0)  # 70^1 states ok
    build_isi_machine(spec)
    with pytest.raises(ValidationError):
        build_isi_machine(IsiSpec([1.0, 0.5, 0.1], 1.0, np.linspace(-1, 1, 70), 1.0))


# ------------------------------------------------------------------- e0_isi

def test_e0_isi_point_mass_zero():
    spec = IsiSpec([1.0, 0.5], 1.0, [1.0, -1.0], 1.0)
    q = np.zeros((2, 2))
    q[0, 0] = 1.0
    assert e0_isi(q, spec) == 0.0


def test_e0_isi_uniform_examples():
    spec = IsiSpec([1.0, 1.0], 1.0, [1.0, -1.0], 1.0)
    assert e0_isi(np.full((2, 2), 0.25), spec) == pytest.approx(0.5, abs=1e-12)
    spec0 = IsiSpec([1.0], 1.0, [1.0, -1.0], 1.0)
    assert e0_isi(np.full(2, 0.5), spec0) == pytest.approx(0.25, abs=1e-12)


def test_e0_isi_rejects_inconsistent_marginals():
    spec = IsiSpec([1.0, 0.5], 1.0, [1.0, -1.0], 1.0)
    q = np.array([[0.5, 0.2], [0.0, 0.3]])  # marginals differ across positions
    with pytest.raises(ValidationError):
        e0_isi(q, spec)


def test_e0_isi_equals_generic_on_random_laws():
    rng = np.random.default_rng(21)
    for k in (1, 2):
        h = [1.0] + [float(rng.normal()) for _ in range(k)]
        spec, m, pairs, kern, d, _ = make_isi(h)
        from zerorate.exponent import component_polytope
        poly = component_polytope(pairs, np.arange(len(pairs)))
        for _ in range(10):
            qp = poly.project(rng.dirichlet(np.ones(len(pairs))))
            qp = np.maximum(qp, 0)
            qp /= qp.sum()
            # map the pair law onto windows through the bijection
            K = 2
            q_t = np.zeros((K,) * (k + 1))
            tuples = sorted(__import__("itertools").product(range(K), repeat=k))
            for a in range(len(pairs)):
                idx = tuples[pairs.tails[a]] + (int(pairs.symbols[a]),)
                q_t[idx] = qp[a]
            direct = e0_isi(q_t, spec)
            generic = qp @ d.d @ qp
            assert direct == pytest.approx(generic, abs=1e-10)


def test_window_to_pairs_round_trip():
    spec, m, pairs, kern, d, _ = make_isi([1.0, 0.3])
    q_t = np.array([[0.4, 0.1], [0.1, 0.4]])
    qp = window_distribution_to_pairs(q_t, m, pairs)
    assert qp.sum() == pytest.approx(1.0)
    assert e0_isi(q_t, spec) == pytest.approx(float(qp @ d.d @ qp), abs=1e-12)


def test_window_to_pairs_k0_product():
    spec = IsiSpec([1.5], 1.0, [1.0, -1.0], 1.0)
    m, kern = build_isi_machine(spec)
    pairs = zr.feasible_pairs(m)
    q_t = np.array([0.7, 0.3])
    qp = window_distribution_to_pairs(q_t, m, pairs)
    q = zr.PairDistribution(pairs, qp)  # must be a valid equal-marginal law
    d = zr.bhattacharyya(kern, pairs)
    assert e0_isi(q_t, spec) == pytest.approx(zr.e0(q, d), abs=1e-12)


# ------------------------------------------------------------ spectral bound

def test_spectral_bound_matched_pair():
    val, om = zr.spectral_bound(IsiSpec([1.0, 1.0], 1.0, [1.0, -1.0], 1.0))
    assert val == pytest.approx(1.0, abs=1e-9)
    assert om == pytest.approx(0.0, abs=1e-6)


def test_spectral_bound_alternating_pair():
    val, om = zr.spectral_bound(IsiSpec([1.0, -1.0], 1.0, [1.0, -1.0], 1.0))
    assert val == pytest.approx(1.0, abs=1e-9)
    assert om == pytest.approx(np.pi, abs=1e-6)


def test_spectral_bound_flat():
    val, om = zr.spectral_bound(IsiSpec([1.0], 4.0, [1.0, -1.0], 2.0))
    assert val == pytest.approx(2.0 / 16.0, abs=1e-12)


def test_spectral_bound_interior_peak():
    h = [1.0, 0.0, -1.0]  # |H|^2 = 4 sin^2(w): peak at pi/2
    val, om = zr.spectral_bound(IsiSpec(h, 1.0, [1.0, -1.0], 1.0))
    assert om == pytest.approx(np.pi / 2, abs=1e-12)
    assert val == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=1, max_size=6)
       .filter(lambda h: any(h)))
def test_spectral_bound_dominates_a_fine_grid(h):
    # gamma = 1 and sigma2 = 1/4 make the bound max |H|^2 itself
    val, om = zr.spectral_bound(IsiSpec(h, 0.25, [1.0, -1.0], 1.0))
    grid = zr.isi.amplitude_response2(h, np.linspace(0.0, np.pi, 20001))
    assert val >= grid.max() - 1e-12
    assert 0.0 <= om <= np.pi
    assert val == zr.isi.amplitude_response2(h, om)


def test_spectral_dominates_binary_solver():
    for h in ([1.0, 1.0], [1.0, 0.5], [1.0, -0.7, 0.2]):
        spec, m, pairs, kern, d, cost = make_isi(h)
        res = zr.maximize_e0(d, pairs, cost)
        bound, _ = zr.spectral_bound(spec)
        assert res.value <= bound + 1e-9


# ------------------------------------------------------------ gray statistics

def test_gray_stats_match_time_averages():
    A, delta = 3.5, 1.0
    stats = zr.gray_stats(A, delta, W0)
    ree0, rxe0, power, ree1, ree2 = quantized_sine_time_averages(A, delta, W0, 0.3, 10 ** 6)
    assert abs(stats.ree0 - ree0) / ree0 <= 1e-3
    assert abs(stats.rxe0 - rxe0) / abs(rxe0) <= 1e-3
    assert abs(stats.power - power) / power <= 1e-3
    assert abs(harmonic_r_ee(stats, 1) - ree1) <= 2e-3 * stats.ree0 + 2e-4
    assert abs(harmonic_r_ee(stats, 2) - ree2) <= 2e-3 * stats.ree0 + 2e-4
    assert harmonic_r_xe(stats, 0) == pytest.approx(stats.rxe0, rel=1e-12)


def test_gray_stats_eps_nonnegative_and_summable():
    stats = zr.gray_stats(3.5, 1.0, W0)
    assert (stats.eps >= 0).all()
    assert 2 * stats.eps.sum() <= stats.ree0 + 1e-12
    assert stats.tail_mass >= 0


def test_gray_stats_fine_quantization_decay():
    A = 1.0
    prev = None
    for delta in (0.1, 0.05, 0.025):
        stats = zr.gray_stats(A, delta, W0)
        ratio = stats.ree0 / (delta * delta)
        assert ratio == pytest.approx(1.0 / 12.0, rel=0.2)  # classic delta^2/12
        if prev is not None:
            assert stats.ree0 < prev
        prev = stats.ree0


def test_gray_stats_reproducible():
    a = zr.gray_stats(3.5, 1.0, W0)
    b = zr.gray_stats(3.5, 1.0, W0)
    assert (a.eps == b.eps).all() and a.ree0 == b.ree0 and a.B == b.B


@pytest.mark.parametrize("A, delta", [(7.3, 0.11), (3.5, 1.0), (1.0, 1.0), (0.3, 1.0),
                                      (2.0, 1.0), (10.0, 0.05)])
def test_error_harmonics_match_per_interval_integrals(A, delta):
    fast = _error_harmonics(A, delta, 4096)
    ref = error_harmonics_per_interval(A, delta, 4096)
    assert np.abs(fast - ref).max() <= 1e-15


# A = 3.0, delta = 0.5 has a breakpoint exactly at pi/2, where the quarter wave
# closes; A < delta/2 crosses no level boundary but 0
@pytest.mark.parametrize("A, delta", [(3.0, 0.5), (3.1617, 0.0625), (0.2, 1.0), (5.0, 0.05)])
def test_error_harmonics_quarter_wave_cases(A, delta):
    fast = _error_harmonics(A, delta, 4096)
    ref = error_harmonics_per_interval(A, delta, 4096)
    assert np.abs(fast - ref).max() <= 1e-15


@given(st.floats(1e-3, 20.0), st.floats(1e-2, 2.0))
@example(3.0, 0.5)
@example(1.0, 0.25)
@example(0.2, 1.0)
@example(1e-3, 1e-2)
@settings(max_examples=100, deadline=None)
def test_phase_averages_match_per_interval_loop(A, delta):
    assert np.array_equal(_phase_breakpoints(A, delta), phase_breakpoints_loop(A, delta))
    fast = _phase_averages(A, delta)
    ref = phase_averages_per_interval(A, delta)
    assert np.abs(np.subtract(fast, ref)).max() <= 1e-12 * max(1.0, A * A)


def test_gray_stats_peak_memory():
    tracemalloc.start()
    try:
        zr.gray_stats(3.1617, 0.0625, W0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


def test_eps_bessel_series_matches_exact_harmonics():
    A, delta = 3.5, 1.0
    stats = zr.gray_stats(A, delta, W0)
    for m in (1, 2, 3, 5, 8):
        series = eps_bessel_series(m, A, delta, max_ell=200_000)
        assert series == pytest.approx(float(stats.eps[m - 1]), rel=2e-3, abs=1e-9)


def test_b_bessel_series_matches_exact():
    A, delta = 3.5, 1.0
    stats = zr.gray_stats(A, delta, W0)
    assert b_bessel_series(A, delta) == pytest.approx(stats.B, rel=1e-3)


def test_bessel_quadrature_matches_scipy():
    for order in (0, 1, 3, 7):
        for z in (0.0, 0.5, 2.0, 11.3, 40.0):
            assert bessel_j_simpson(order, z) == pytest.approx(
                float(jv(order, z)), abs=1e-10)


# --------------------------------------------------------------- power, loss

def test_power_identity_standard_case():
    rep = power_identity_check(3.5, 1.0, W0, 10 ** 6, phase=0.0)
    assert rep["rel_error"] <= 1e-3


def test_power_identity_phase_invariant():
    rng = np.random.default_rng(4)
    for _ in range(10):
        rep = power_identity_check(3.5, 1.0, W0, 200_000,
                                   phase=float(rng.uniform(0, 2 * np.pi)))
        assert rep["rel_error"] <= 2e-3


def test_power_identity_unquantized_limit():
    rep = power_identity_check(1.0, 1e-4, W0, 100_000)
    assert rep["decomposition"] == pytest.approx(0.5, rel=1e-4)


def test_loss_flat_response_is_zero():
    spec = IsiSpec([1.0], 1.0, [1.0, -1.0], 1.0)
    stats = zr.gray_stats(0.9, 0.5, W0)
    loss = zr.quantization_loss(spec, 0.0, stats)
    assert loss.Lambda == pytest.approx(0.0, abs=1e-15)


def test_loss_nonnegative_and_vanishes_with_fine_quantization():
    spec = IsiSpec([1.0, 0.5], 1.0, [1.0, -1.0], 1.0)
    bound, omega_star = zr.spectral_bound(spec)
    omega0, _ = zr.irrationalize(omega_star)
    lams = []
    for delta in (0.5, 0.05, 0.005):
        A = zr.choose_amplitude(spec.gamma, delta, 10.0)
        stats = zr.gray_stats(A, delta, omega0)
        loss = zr.quantization_loss(spec, omega_star, stats)
        assert loss.Lambda >= 0.0
        lams.append(loss.Lambda)
    assert lams[2] < lams[1] < lams[0]
    final = zr.quantization_loss(
        spec, omega_star, zr.gray_stats(zr.choose_amplitude(spec.gamma, 0.005, 10.0),
                                        0.005, omega0))
    assert final.lower_bound == pytest.approx(bound, rel=1e-3)


def test_loss_k_scaling_bracket():
    spec = IsiSpec([1.0, 0.5], 1.0, [1.0, -1.0], 1.0)
    _, omega_star = zr.spectral_bound(spec)
    A = 3.45
    lams = []
    for K in (8, 16, 32):
        delta = (A / 3.5) * 8.0 / K  # K = 8 puts A near the top level
        stats = zr.gray_stats(A, delta, W0)
        lams.append(zr.quantization_loss(spec, omega_star, stats).Lambda)
    assert 2.5 <= lams[0] / lams[1] <= 6.0
    assert 2.5 <= lams[1] / lams[2] <= 6.0


def test_choose_amplitude_bisection():
    gamma, delta = 1.0, 0.25
    A = zr.choose_amplitude(gamma, delta, 10.0)
    from zerorate.isi import _phase_averages
    assert _phase_averages(A, delta)[2] <= gamma + 1e-9
    assert _phase_averages(min(A * 1.01, 10.0), delta)[2] > gamma
    assert zr.choose_amplitude(gamma, delta, 0.3) == 0.3  # cap at max level


def test_irrationalize():
    w, flag = zr.irrationalize(0.0)
    assert flag and 0 < w < np.pi
    w2, flag2 = zr.irrationalize(np.pi)
    assert flag2 and 0 < w2 < np.pi
    w3, flag3 = zr.irrationalize(W0)
    assert not flag3 and w3 == W0


def test_quantizer_midrise_levels():
    assert quantize_midrise(0.3, 1.0) == 0.5
    assert quantize_midrise(-0.3, 1.0) == -0.5
    assert quantize_midrise(3.49, 1.0) == 3.5


# ------------------------------------------------------------- ISI sandwich

def isi_sandwich(h, k: int) -> tuple[float, float, float, float]:
    """On the K-level grid (i - (K-1)/2)*4/K with sigma2 = gamma = 1: isi-loss's
    quantized-sinusoid lower bound, optimize's exponent, isi-bound's spectral
    bound and its omega*, each read from the CLI's --out."""
    levels = [(i - (k - 1) / 2) * 4 / k for i in range(k)]
    doc = {"isi": {"h": list(h), "sigma2": 1.0, "levels": levels, "gamma": 1.0}}

    def result(*argv) -> str:
        code, text = cli_out(doc, *argv)
        assert code == 0
        return text

    bound = json.loads(result("isi-bound"))
    value = json.loads(result("optimize"))["value"]
    rows = list(csv.DictReader(io.StringIO(result("isi-loss", "--k-list", str(k)))))
    return float(rows[0]["lower_bound"]), value, bound["spectral_bound"], bound["omega_star"]


@pytest.mark.parametrize("k, lower, value", [(2, 0.5224808, 0.5525), (4, 0.5389913, 0.5571875)])
def test_solver_lies_between_the_isi_bounds(k, lower, value):
    got = isi_sandwich([1.0, 0.5, -0.4], k)
    assert got == pytest.approx((lower, value, 0.5665625, 1.38218), abs=1e-6)
    assert got[0] <= got[1] + 1e-9 <= got[2] + 2e-9


@settings(max_examples=12, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(-0.9, -0.1))
def test_solver_lies_between_the_isi_bounds_at_an_interior_omega(a, b):
    # |H|^2 is 1 + a^2 + b^2 - 2b + 2a(1 + b)c + 4bc^2 in c = cos w: a concave
    # parabola for b < 0, whose top lies inside (-1, 1) when |a(1 + b)| < -4b
    lower, value, spectral, omega_star = isi_sandwich([1.0, a, b], 2)
    assume(0.01 < omega_star < np.pi - 0.01)
    assert lower <= value + 1e-9 <= spectral + 2e-9
