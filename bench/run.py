#!/usr/bin/env python3
"""zerorate benchmark: fixed CLI workloads, timed end to end or traced by layer.

    python3 bench/run.py --workload gauss-sim --seed 0 --seconds 15 --trace 0

One client in a closed loop calls `zerorate.cli.run(argv)` in this process;
each command starts after the previous one finishes. The workload seed is
passed as `--seed` to every command that does not pin its own (see
workloads.py). Every command's `--out` artifact is checked (see checks.py)
and its sha256 printed.

--trace 0 reports the end-to-end metrics: setup_s (median over fresh
interpreters of `import zerorate` plus `load_channel` on the spec), iter_s
(median wall time of one pass over the command list) and peak_rss_mib, and
prints the median time of each command. --trace 1 alternates untraced and traced passes and reports
the per-layer metrics (see tracing.py) and trace.overhead_s, then an untimed
probe pass takes tracemalloc peaks. Spans are written to
.bench_work/spans-<workload>-s<seed>.jsonl when the run ends.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every output check
passed (known failures listed in workloads.py aside), 1 when a check
failed, and 2 when the zerorate sources are missing.
"""
import os

# zerorate is single-threaded by design; pin the BLAS pools before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import BOOK, WORKLOADS, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_RUNS = 5
CSV_COMMANDS = ("zrho", "isi-loss")
ISI_COMMANDS = ("isi-bound", "isi-loss")

END_TO_END = ("setup_s", "iter_s", "peak_rss_mib")
SELF_TIMES = (
    "montecarlo.simulate", "montecarlo.z_rho", "montecarlo.delta_of",
    "polytope.minimize_smooth", "polytope.project",
    "exponent.maximize_e0", "exponent.concavity_test", "polytope.maximize_quadratic",
    "exponent.maximize_uce", "codebook.build_ensemble", "codebook.euler_circuit",
    "codebook.pairwise_path_distances", "codebook.expurgate", "codebook.round_type",
    "codebook.blend_for_construction", "cli.run", "cli.load_channel",
    "fsm.check_structure", "fsm.feasible_pairs", "bhatt.bhattacharyya",
    "isi.build_isi_machine", "isi.spectral_bound", "isi.gray_stats",
    "isi.choose_amplitude", "isi.quantization_loss",
)
CALL_COUNTS = ("montecarlo.z_rho", "polytope.minimize_smooth", "polytope.maximize_quadratic",
               "polytope.project", "codebook.euler_circuit")
LP_CALLS = ("polytope.feasible_point", "polytope.linear_range")
COMMAND_TIMES = {"optimize_s": ("optimize",), "uce_s": ("uce",),
                 "build_code_s": ("build-code",), "simulate_s": ("simulate",),
                 "zrho_s": ("zrho",), "isi_s": ISI_COMMANDS}
PER_LAYER = (
    *(f"{name}.self_s" for name in SELF_TIMES),
    *(f"{name}.calls" for name in CALL_COUNTS),
    "polytope.lp.calls", "montecarlo.decodes_per_s", "montecarlo.simulate.peak_mib",
    "codebook.distinct_ratio", "codebook.min_dist_per_use", "cli.out_bytes",
    "cli.report_bytes", "trace.overhead_s", *COMMAND_TIMES, "gap_per_use", "fail_share",
)
UNITS = {"peak_rss_mib": "MiB", "montecarlo.simulate.peak_mib": "MiB",
         "montecarlo.decodes_per_s": "1/s", "codebook.distinct_ratio": "ratio",
         "fail_share": "ratio", "codebook.min_dist_per_use": "nats/use",
         "gap_per_use": "nats/use", "cli.out_bytes": "bytes", "cli.report_bytes": "bytes"}

SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import zerorate
from zerorate.cli import load_channel
with open(sys.argv[1], encoding="utf-8") as fh:
    load_channel(json.load(fh))
print(time.perf_counter() - t0)
"""


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "count" if name.endswith(".calls") else "s"


class CountingSink(io.TextIOBase):
    """Stands in for stdout: counts the report's characters, keeps none."""

    def __init__(self):
        self.chars = 0

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.chars += len(s)
        return len(s)


@dataclass
class Step:
    command: str
    exit_code: int | None    # None when the CLI raised instead of returning
    seconds: float
    stderr: str
    report_chars: int
    out_bytes: int = 0
    digest: str = ""
    outcome: str = ""        # "ok", "known failure" or "failed: <reason>"


class Runner:
    """Runs one workload's command list and checks what it wrote."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl = wl
        self.spec_path = ROOT / wl.spec
        book = work / "book.json"
        self.argvs = []
        for i, (command, *rest) in enumerate(wl.steps):
            own_spec = "--spec" not in rest
            if own_spec:
                rest += ["--spec", wl.spec]
            if "--seed" not in rest:
                rest += ["--seed", str(seed)]
            spec = ROOT / _flag(rest, "--spec")
            rest[rest.index("--spec") + 1] = str(spec)
            ext = "csv" if command in CSV_COMMANDS else "json"
            out = book if command == "build-code" and own_spec \
                else work / f"{i}-{command}.{ext}"
            rest = [str(book) if tok == BOOK else tok for tok in rest]
            self.argvs.append(([command, "--out", str(out), *rest], out))
        self.reference: list[Step] | None = None
        self.book: dict | None = None
        self.decodes = 0
        self.passes = 0

    def iteration(self, tracer: tracing.Tracer | None = None) -> list[Step]:
        """One pass over the command list; with a tracer, each command's
        spans share the op id '<pass>.<step>.<command>'."""
        cli = sys.modules["zerorate.cli"]
        steps = []
        self.passes += 1
        for i, (argv, out) in enumerate(self.argvs):
            if tracer is not None:
                tracer.op = f"{self.passes}.{i}.{argv[0]}"
            out.unlink(missing_ok=True)
            sink, err = CountingSink(), io.StringIO()
            gc.collect()
            t0 = time.perf_counter()
            try:
                with redirect_stdout(sink), redirect_stderr(err):
                    code = cli.run(argv)
            except Exception:  # a crash is a failed command, not a crashed benchmark
                code = None
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - t0
            step = Step(argv[0], code, seconds, err.getvalue().strip(), sink.chars)
            if out.exists():
                data = out.read_bytes()
                step.out_bytes, step.digest = len(data), hashlib.sha256(data).hexdigest()
            steps.append(step)
        return steps

    def check(self, steps: list[Step]) -> None:
        """Set each step's outcome. The first pass is checked in full; later
        passes with the same seed must reproduce its artifacts byte for byte."""
        if self.reference is None:
            for step, (argv, out) in zip(steps, self.argvs):
                step.outcome = self._check_step(step, argv, out)
            self.reference = steps
            return
        for step, ref in zip(steps, self.reference):
            same = (step.exit_code, step.stderr, step.digest) == \
                   (ref.exit_code, ref.stderr, ref.digest)
            step.outcome = ref.outcome if same else \
                "failed: output differs from the first pass with the same seed"

    def _check_step(self, step: Step, argv: list[str], out: Path) -> str:
        for known in self.wl.known_failures:
            if (step.command, step.exit_code, step.stderr) == \
                    (known.command, known.exit_code, known.stderr):
                return "known failure"
        if step.exit_code != 0:
            last = step.stderr.splitlines()[-1] if step.stderr else ""
            return f"failed: exit {step.exit_code}: {last}"
        try:
            problems = self._check_output(step.command, argv, out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        return "failed: " + "; ".join(problems) if problems else "ok"

    def _check_output(self, command: str, argv: list[str], out: Path) -> list[str]:
        text = out.read_text(encoding="utf-8")
        if command in CSV_COMMANDS:
            rows = list(csv.reader(io.StringIO(text)))
            return checks.check_zrho(rows) if command == "zrho" else checks.check_isi_loss(rows)
        result = json.loads(text)
        if command in ("optimize", "uce"):
            single = self.wl.single_value if command == "uce" else None
            return checks.check_exponent(result, self.wl.value, single)
        if command == "build-code":
            spec = Path(_flag(argv, "--spec"))
            if spec == self.spec_path:
                self.book = result
            spec_doc = json.loads(spec.read_text(encoding="utf-8"))
            return checks.check_codebook(result, spec_doc, int(_flag(argv, "--n")),
                                         int(_flag(argv, "--codewords")))
        if command == "simulate":
            self.decodes = int(result["trials"]) * int(result["M"])
            if self.book is None:
                return ["simulate ran without a checked codebook"]
            return checks.check_simulation(result, self.book, int(_flag(argv, "--trials")))
        if command == "isi-bound":
            return checks.check_isi_bound(result)
        return [f"no check for command {command!r}"]

    def min_dist_per_use(self) -> float:
        """Achieved minimum distance per use; 0 when no codebook was built."""
        if self.book is None:
            return 0.0
        return float(self.book["min_pair_distance"]) / int(self.book["n"])


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def command_seconds(passes: list[list[Step]], commands) -> float:
    """Median over passes of the time spent in the given commands."""
    return _median(sum(s.seconds for s in p if s.command in commands) for p in passes)


def command_metrics(passes: list[list[Step]]) -> dict:
    """COMMAND_TIMES for the commands the workload runs."""
    ran = {s.command for s in passes[0]}
    return {name: command_seconds(passes, commands)
            for name, commands in COMMAND_TIMES.items() if ran.intersection(commands)}


def setup_seconds(spec: Path) -> list[float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(spec)], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def timed_loop(seconds: float, body) -> None:
    """Call body() until `seconds` have passed, at least once."""
    start = time.perf_counter()
    body()
    while time.perf_counter() - start < seconds:
        body()


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[list[Step]]]:
    setup = setup_seconds(runner.spec_path)
    passes: list[list[Step]] = []

    def one_pass():
        steps = runner.iteration()
        runner.check(steps)
        passes.append(steps)

    one_pass()                            # warm-up: caches and lazy imports
    timed_loop(seconds, one_pass)
    measured = passes[1:]
    metrics = {
        "setup_s": _median(setup),
        "iter_s": _median(sum(s.seconds for s in p) for p in measured),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: metrics[name] for name in END_TO_END}, passes


def per_layer(runner: Runner, seconds: float, spans_path: Path) -> tuple[dict, list[list[Step]]]:
    passes: list[list[Step]] = []
    plain: list[list[Step]] = []
    traced: list[tuple[list[Step], dict]] = []
    tracer = tracing.Tracer()

    def one_pass(tracer=None) -> list[Step]:
        steps = runner.iteration(tracer)
        runner.check(steps)
        passes.append(steps)
        return steps

    one_pass()                            # warm-up

    def pair():
        plain.append(one_pass())
        first = len(tracer.spans)
        with tracing.installed(tracer.wrap):
            steps = one_pass(tracer)
        traced.append((steps, tracer.totals(first)))

    timed_loop(seconds, pair)
    probe = tracing.Probe()
    with tracing.installed(probe.wrap, tracing.Probe.NAMES):
        one_pass()
    tracer.write(spans_path)

    def per_pass(name: str, column: int) -> float:
        return _median(t.get(name, (0.0, 0, 0.0))[column] for _, t in traced)

    metrics = {f"{name}.self_s": per_pass(name, 0) for name in SELF_TIMES}
    metrics.update({f"{name}.calls": per_pass(name, 1) for name in CALL_COUNTS})
    metrics["polytope.lp.calls"] = sum(per_pass(name, 1) for name in LP_CALLS)
    sim_s = per_pass("montecarlo.simulate", 2)
    metrics["montecarlo.decodes_per_s"] = runner.decodes / sim_s if sim_s > 0 else 0.0
    metrics["montecarlo.simulate.peak_mib"] = probe.peak_bytes / 2 ** 20
    metrics["codebook.distinct_ratio"] = _median(probe.distinct)
    metrics["codebook.min_dist_per_use"] = runner.min_dist_per_use()
    metrics["cli.out_bytes"] = sum(s.out_bytes for s in runner.reference)
    metrics["cli.report_bytes"] = sum(s.report_chars for s in runner.reference)
    metrics["trace.overhead_s"] = (_median(sum(s.seconds for s in p) for p, _ in traced)
                                   - _median(sum(s.seconds for s in p) for p in plain))
    metrics.update(dict.fromkeys(COMMAND_TIMES, 0.0), **command_metrics(plain))
    metrics["gap_per_use"] = runner.wl.value - runner.min_dist_per_use()
    metrics["fail_share"] = fail_share(passes)
    return {name: metrics[name] for name in PER_LAYER}, passes


def fail_share(passes: list[list[Step]]) -> float:
    steps = [s for p in passes for s in p]
    return sum(s.outcome != "ok" for s in steps) / len(steps)


def environment(seed: int) -> str:
    import numpy
    import scipy
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"env {threads} nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} seed={seed} "
            f"(zerorate is single-threaded; its --threads flag has no effect)")


def report(wl: Workload, args, metrics: dict, passes: list[list[Step]], runner: Runner,
           extra: dict) -> None:
    untimed = "the first warms up, the last takes memory peaks" if args.trace \
        else "the first warms up"
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {len(passes)} passes "
          f"({untimed}), closed loop, 1 client; {wl.why}")
    print(environment(args.seed))
    print("pass seconds " + " ".join(f"{sum(s.seconds for s in p):.4f}" for p in passes))
    for step, words in zip(runner.reference, wl.steps):
        print(f"command {' '.join(words)}: exit {step.exit_code}, {step.outcome}, "
              f"sha256 {step.digest or '-'}")
    for name, value in {**metrics, **extra}.items():
        print(f"metric {name} {value!r} {unit_of(name)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if not (SRC / "zerorate" / "__init__.py").is_file():
        print(f"error: the zerorate sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import zerorate.cli  # noqa: F401  (tracing looks the layers up in sys.modules)

    work = WORK / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(wl, args.seed, work)
        if args.trace:
            spans = WORK / f"spans-{wl.name}-s{args.seed}.jsonl"
            metrics, passes = per_layer(runner, args.seconds, spans)
            extra = {}
        else:
            metrics, passes = end_to_end(runner, args.seconds)
            extra = command_metrics(passes[1:])
            extra.update({"gap_per_use": wl.value - runner.min_dist_per_use(),
                          "fail_share": fail_share(passes)})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(wl, args, metrics, passes, runner, extra)
    steps = [s for p in passes for s in p]
    failed = sum(s.outcome.startswith("failed") for s in steps)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(steps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
