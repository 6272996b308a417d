"""The benchmark's fixed workloads.

Each workload is a list of zerorate CLI commands run in order, one pass
per iteration. The runner adds `--out`, the workload's `--spec` and the
run's `--seed` to every command that does not set its own; the token BOOK
stands for the `--out` artifact of the `build-code` step on the workload's
own spec. Spec paths are relative to the repository root.

Reference values are the exponents the solvers return at every seed
tried (0, 1, 7, 99, 101-110, 12345); outputs are checked against them to
1e-6 relative.

Two workloads, both dominated by vectorized simulation. On a shared
2-vCPU machine the interpreter-bound solver workloads (the L=64 ISI
solve with a 16384-symbol codebook, and the time-sharing channel alone)
drifted by up to 30% between runs minutes apart, against under 10% for
the Gaussian simulation, so their layers ride along here at smaller
weight instead of being workloads of their own.
"""
from __future__ import annotations

from dataclasses import dataclass, field

BOOK = "{book}"
TIME_SHARING_SPEC = "bench/specs/time_sharing.json"
ISI_SPEC = "bench/specs/isi_long.json"


@dataclass(frozen=True)
class KnownFailure:
    """A command that fails at the current commit for a documented reason.
    Its failure is counted in fail_share but not as an unexpected failure;
    if the command starts to succeed its output is checked as usual."""
    command: str
    exit_code: int
    stderr: str


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str
    why: str
    steps: tuple            # tuple of argv tuples, command name first
    value: float            # reference exponent value (optimize / uce)
    single_value: float | None = None   # reference single-distribution value (uce)
    known_failures: tuple = field(default=())


WORKLOADS = {wl.name: wl for wl in (
    Workload(
        name="gauss-sim",
        spec="specs/isi_binary.json",
        why="Gaussian ISI h=(1,0.5), S=2, L=4: build-code n=512 M=16, simulate "
            "5000 trials; the Gaussian simulate kernel is over 95% of the time, "
            "solver changes should not move it",
        steps=(
            ("build-code", "--n", "512", "--codewords", "16"),
            ("simulate", "--code", BOOK, "--trials", "5000"),
        ),
        value=0.562500000001714,
    ),
    Workload(
        name="discrete-sim",
        spec="bench/specs/quantized_two_tap.json",
        why="quantized two-tap: optimize, uce, build-code n=512 M=8, simulate "
            "10000 trials, zrho rho=1,64; time-sharing build-code; ISI L=64 "
            "isi-bound, isi-loss K=8..128",
        steps=(
            ("optimize",),
            ("uce",),
            ("build-code", "--n", "512", "--codewords", "8"),
            ("simulate", "--code", BOOK, "--trials", "10000"),
            # z_rho's multi-start work varies twofold with the seed (16k to 44k
            # projections over seeds 101-108), so its solver seed is pinned.
            # One random start (--starts 8) keeps the interpreter-bound solve
            # below the vectorized simulation.
            ("zrho", "--rhos", "1,64", "--starts", "8", "--seed", "0"),
            # The binding-budget, non-concave channel: the only construction
            # that goes through time sharing.
            ("build-code", "--spec", TIME_SHARING_SPEC, "--n", "512", "--codewords", "8"),
            # The ISI bounds: spectral bound and quantized-sinusoid loss.
            ("isi-bound", "--spec", ISI_SPEC),
            ("isi-loss", "--spec", ISI_SPEC, "--k-list", "8,16,32,64,128"),
        ),
        value=0.5365993695628957,
        single_value=0.5365993695628957,
        # The time-sharing construction fails at every seed tried: the rounded
        # type overshoots the cost budget, or (5 seeds in 24) the anchor
        # falls outside a segment's support. The fix belongs to the
        # construction, not to this spec.
        known_failures=(
            KnownFailure("build-code", 2,
                         "error: infeasible: rounded type cost 160 exceeds the "
                         "per-codeword budget 153.6"),
            KnownFailure("build-code", 1,
                         "error: validation: anchor 0 is outside a segment's support"),
        ),
    ),
)}
