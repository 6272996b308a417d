"""Gaussian channel with a finite impulse response: shift-register
machine, spectral upper bound, and the quantized-sinusoid lower bound with
its quantization loss.

The second-order statistics of the quantized sinusoid are spectral lines
at odd multiples of the carrier folded into [0, 1): the error waveform
e(theta) = Q(A sin theta) - A sin theta is periodic and piecewise equal to
(level - A sin theta), so its phase averages and Fourier coefficients are
closed-form array sums over the level breakpoints. The classical
Bessel-series expressions are slower; the tests keep them, and the
per-interval loops, as reference oracles.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bhatt import ChannelKernel, gaussian_kernel
from .errors import InfeasibleError, ValidationError
from .fsm import StateMachine, augment, feasible_pairs, shift_register

STATE_GUARD = 4096
MAX_HARMONICS = 4096    # error harmonics kept explicitly; the rest is tail mass
DENOMINATOR_CAP = 64    # irrationalize treats p/q with q up to this as rational
AMPLITUDE_TOL = 1e-10   # choose_amplitude's bisection width, relative to max_level


@dataclass(frozen=True)
class IsiSpec:
    """Impulse response h_0..h_k, noise variance, input levels, power
    budget with phi(x) = x^2."""

    h: np.ndarray
    sigma2: float
    levels: np.ndarray
    gamma: float

    def __post_init__(self):
        for name in ("h", "sigma2", "levels", "gamma"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValidationError(f"isi {name} must be finite")
        h = np.asarray(self.h, dtype=float)
        if h.ndim != 1 or h.size < 1 or not np.any(h):
            raise ValidationError("h must be a nonzero coefficient vector")
        levels = np.asarray(self.levels, dtype=float)
        if levels.ndim != 1 or levels.size < 2:
            raise ValidationError("need at least two input levels")
        if not float(self.sigma2) > 0:
            raise ValidationError("sigma2 must be positive")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "levels", levels)
        h.setflags(write=False)
        levels.setflags(write=False)

    @property
    def k(self) -> int:
        return len(self.h) - 1


def build_isi_machine(spec: IsiSpec) -> tuple[StateMachine, ChannelKernel]:
    """Shift-register machine plus the Gaussian kernel whose mean on the
    pair (s, s+) is the filtered window sum h_i x_{t-i}.

    k = 0 has no memory to store, so the one-state machine is augmented
    with the previous input to restore recoverability.
    """
    K = len(spec.levels)
    k = spec.k
    if K ** max(k, 1) > STATE_GUARD:
        raise ValidationError(f"state space {K}**{max(k, 1)} exceeds the guard {STATE_GUARD}")
    if k == 0:
        base = StateMachine(("s",), tuple(f"{v:g}" for v in spec.levels),
                            tuple(float(v) for v in spec.levels),
                            np.zeros((1, K), dtype=np.int64))
        machine = augment(base)
    else:
        machine = shift_register(spec.levels, k)
    pairs = feasible_pairs(machine)
    vals = np.asarray(machine.values)
    means = spec.h[0] * vals[pairs.symbols]
    if k:
        # the states are the sorted k-tuples of symbol indices, x_{t-k} .. x_{t-1}
        hist = vals[np.asarray(list(itertools.product(range(K), repeat=k)))]
        for i in range(1, k + 1):
            means = means + spec.h[i] * hist[pairs.tails, k - i]
    return machine, gaussian_kernel(means, spec.sigma2)


def amplitude_response2(h: np.ndarray, omega) -> np.ndarray:
    """|H(e^{i omega})|^2 for scalar or vector omega."""
    h = np.asarray(h, dtype=float)
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    ph = np.exp(-1j * np.outer(om, np.arange(len(h))))
    out = np.abs(ph @ h) ** 2
    return out if np.ndim(omega) else float(out[0])


def spectral_bound(spec: IsiSpec) -> tuple[float, float]:
    """Gamma * max_w |H|^2 / (4 sigma^2) and its argmax w* in [0, pi], exactly.

    |H|^2 = r_0 + 2 sum_k r_k cos(k w), r the autocorrelation of h, is a
    Chebyshev series f(c) in c = cos w, so its stationary points inside
    (0, pi) are the roots of f' in (-1, 1); the ends 0 and pi complete the
    candidates. Every root's real part, clipped to [-1, 1], is evaluated, so
    a root that roundoff moves off the real axis still counts. A candidate
    within roundoff of the best yields to an end, 0 before pi."""
    from numpy.polynomial import chebyshev  # not loaded by `import zerorate`

    h = spec.h
    r = np.correlate(h, h, "full")[len(h) - 1:]
    slope = chebyshev.chebder(np.concatenate([r[:1], 2.0 * r[1:]]))
    slope = chebyshev.chebtrim(slope, 1e-15 * np.abs(slope).max(initial=0.0))
    roots = chebyshev.chebroots(slope)
    omegas = np.concatenate([[0.0, np.pi], np.arccos(np.clip(roots.real, -1.0, 1.0))])
    vals = amplitude_response2(h, omegas)
    slack = 16.0 * np.finfo(float).eps * float(np.abs(h).sum()) ** 2
    best = int(np.flatnonzero(vals >= vals.max() - slack)[0])
    omega_star = float(omegas[best])
    value = spec.gamma * amplitude_response2(h, omega_star) / (4.0 * spec.sigma2)
    return float(value), omega_star


def quantize_midrise(v, delta: float):
    """Uniform midrise quantizer with step delta: levels (i - 1/2) delta."""
    return delta * (np.floor(np.asarray(v) / delta) + 0.5)


def _phase_breakpoints(A: float, delta: float) -> np.ndarray:
    """0, 2 pi and every phase where A sin(theta) crosses a level boundary
    k delta, sorted and deduplicated."""
    ks = np.arange(np.floor(-A / delta), np.floor(A / delta) + 1)
    v = ks * delta / A
    a = np.arcsin(v[(v >= -1.0) & (v <= 1.0)])
    tp = 2.0 * np.pi
    return np.unique(np.concatenate([[0.0, tp], a % tp, (np.pi - a) % tp]))


def _phase_levels(A: float, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The phase breakpoints and the quantizer level on each interval
    between consecutive ones."""
    ths = _phase_breakpoints(A, delta)
    return ths, quantize_midrise(A * np.sin(0.5 * (ths[:-1] + ths[1:])), delta)


def _phase_averages(A: float, delta: float) -> tuple[float, float, float]:
    """Exact (R_ee(0), R_xe(0), power) by closed-form integrals over the
    phase intervals of constant level c; valid for any frequency with
    equidistributing phase. Each interval contributes c^2 (hi - lo) and
    c A (cos lo - cos hi); the A^2 sin^2 part sums to A^2 pi over the
    circle."""
    ths, cs = _phase_levels(A, delta)
    power = float((cs * cs * np.diff(ths)).sum())
    cross = -A * float((cs * np.diff(np.cos(ths))).sum())  # integral of c A sin
    tp = 2.0 * np.pi
    return (power - 2.0 * cross + A * A * np.pi) / tp, (cross - A * A * np.pi) / tp, power / tp


def _error_harmonics(A: float, delta: float, max_m: int) -> np.ndarray:
    """|Fourier coefficient|^2 of e(theta) at odd order a = 2m-1, m = 1..max_m,
    in closed form by the quarter-wave sine series. Q(A sin theta) is odd and
    symmetric about pi/2, so only odd sine terms survive, with
    b_a = 4/(pi a) sum_j (c_j - c_j-1) cos(a phi_j) over the breakpoints
    phi_j in [0, pi/2) and c_-1 = 0 (summation by parts; cos(a pi/2) = 0
    closes the quarter wave). The -A sin(theta) part only enters b_1, and a
    sine term b sin(a theta) has |coefficient|^2 = b^2/4. The cosine table
    is built 512 orders at a time, so no (max_m, breakpoints) array is
    held."""
    ths, cs = _phase_levels(A, delta)
    first = ths[:-1] < np.pi / 2
    phases, steps = ths[:-1][first], np.diff(cs[first], prepend=0.0)
    orders = 2.0 * np.arange(1, max_m + 1) - 1.0
    b = np.concatenate([np.cos(np.outer(orders[lo:lo + 512], phases)) @ steps
                        for lo in range(0, max_m, 512)])
    b *= 4.0 / (np.pi * orders)
    b[0] -= A
    return b * b / 4.0


@dataclass(frozen=True, eq=False)
class QuantizedSinusoidStats:
    """Second-order statistics of x_t = Q[A sin(w0 t + phase)]."""

    A: float
    delta: float
    omega0: float
    B: float                 # R_xe(l) = A B cos(w0 l)
    eps: np.ndarray          # one-sided harmonic powers, m = 1..max_m
    lambdas: np.ndarray      # folded harmonic frequencies in [0, 1)
    tail_mass: float         # error power beyond the kept harmonics
    ree0: float
    rxe0: float
    power: float             # A^2/2 + 2 R_xe(0) + R_ee(0), computed exactly


def gray_stats(A: float, delta: float, omega0: float) -> QuantizedSinusoidStats:
    """Spectral decomposition of the quantization error of a sinusoid.

    eps_m sits at the folded frequency lambda_m = <(2m-1) w0 / 2pi>; the
    negative-m lines mirror the positive ones, so every correlation doubles
    the one-sided sum. R_ee(0), R_xe(0) and the power identity terms are
    exact phase averages; the unkept harmonic power is reported as tail
    mass (the harmonic powers decay like 1/m^2, so the explicit list alone
    converges slowly).
    """
    if A <= 0 or delta <= 0:
        raise ValidationError("A and delta must be positive")
    ree0, rxe0, power_q = _phase_averages(A, delta)
    eps = _error_harmonics(A, delta, MAX_HARMONICS)
    m = np.arange(1, MAX_HARMONICS + 1)
    lambdas = ((2 * m - 1) * omega0 / (2.0 * np.pi)) % 1.0
    tail = max(ree0 - 2.0 * float(eps.sum()), 0.0)
    return QuantizedSinusoidStats(float(A), float(delta), float(omega0),
                                  float(rxe0 / A), eps, lambdas, tail,
                                  float(ree0), float(rxe0), float(power_q))


@dataclass(frozen=True)
class LossReport:
    Lambda: float
    lower_bound: float
    power_used: float


def quantization_loss(spec: IsiSpec, omega_star: float,
                      stats: QuantizedSinusoidStats) -> LossReport:
    """Exponent deficit of the quantized sinusoid: each error harmonic
    rides a non-optimal frequency, losing (H^2_max - |H|^2(lambda_m)) of
    gain; the unkept tail is spread uniformly (the folded frequencies
    equidistribute), worth H^2_max minus the mean response sum h_j^2.

    The achievable exponent uses the power the waveform actually carries,
    which the amplitude search drives to the budget."""
    h2max = float(amplitude_response2(spec.h, omega_star))
    resp = amplitude_response2(spec.h, 2.0 * np.pi * stats.lambdas)
    terms = np.maximum(h2max - resp, 0.0)
    lam = 2.0 * float((stats.eps * terms).sum())
    mean_resp = float((spec.h * spec.h).sum())
    lam += stats.tail_mass * max(h2max - mean_resp, 0.0)
    power = stats.power
    lower = (power * h2max - lam) / (4.0 * spec.sigma2)
    return LossReport(float(lam), float(lower), float(power))


def choose_amplitude(gamma: float, delta: float, max_level: float) -> float:
    """Largest A <= max_level whose quantized power stays within gamma,
    by bisection on the exact phase-average power (nondecreasing in A)."""
    def power(a):
        return _phase_averages(a, delta)[2]

    if power(max_level) <= gamma:
        return float(max_level)
    lo, hi = delta * 1e-6, max_level
    if power(lo) > gamma:
        raise InfeasibleError(
            f"power budget {gamma:g} below the smallest quantizer level power")
    while hi - lo > AMPLITUDE_TOL * max_level:
        mid = 0.5 * (lo + hi)
        if power(mid) <= gamma:
            lo = mid
        else:
            hi = mid
    return float(lo)


def irrationalize(omega: float) -> tuple[float, bool]:
    """Nudge frequencies that are small-denominator rational multiples of
    2 pi (including 0 and pi) off the resonance: omega +- 2 pi sqrt(2) 1e-3,
    keeping the result inside (0, pi)."""
    frac = omega / (2.0 * np.pi)
    rational = any(abs(frac * q - round(frac * q)) < 1e-9 for q in range(1, DENOMINATOR_CAP + 1))
    if not rational:
        return float(omega), False
    step = 2.0 * np.pi * np.sqrt(2.0) * 1e-3
    nudged = omega + step if omega < np.pi / 2 else omega - step
    return float(min(max(nudged, step), np.pi - step)), True
