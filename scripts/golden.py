#!/usr/bin/env python3
"""Golden sweep: every subcommand on every shipped spec, one line per run.

    python scripts/golden.py --seed 0 > tests/golden/seed0.txt

The first line names the numpy and scipy versions. Each further line
reads `spec command exit sha256-of-out sha256-of-report first-stderr-line`,
with `-` standing for a missing artifact, an empty stdout or an empty
stderr. The report digest covers the stdout run report with its
`wall_clock_s` value replaced by 0. Two checkouts that print the same lines
produce the same `--out` bytes, run reports, exit codes and error reasons,
so diffing the output of two revisions is a refactoring check, and
`tests/test_golden.py` makes it one against the sweeps committed under
`tests/golden/`.
Runs go through `zerorate.cli.run` in this process with small fixed sizes;
`simulate` sends 5000 trials per codeword, five chunks of 1024 trials or
fewer, so on discrete kernels the chunks span several batches and run on
the worker pool.
An exception escaping `cli.run` is recorded as its line, with exit field
`exception` and the exception's type and message as its stderr field, and
the sweep goes on. The last lines probe four CLI usage errors.
"""
import os

# pin the BLAS pools before numpy loads so artifacts do not depend on the host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from importlib.metadata import version  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from zerorate import cli  # noqa: E402

# only flags the command reads, so the same argv is valid on every revision
SIZES = {
    "build-code": ("--n", "64", "--codewords", "4"),
    "simulate": ("--n", "64", "--codewords", "4", "--trials", "5000"),
    "zrho": ("--n", "64"),
}
COMMANDS = ("check", "distances", "optimize", "uce", "build-code", "simulate",
            "zrho", "isi-bound", "isi-loss")
USAGE_PROBES = (("optimize", "--bogus"), ("check", "--k-list", "8"),
                ("zrho", "--rhos", "1,abc"), ("isi-loss", "--k-list", "8,x"))


# the report's timing value, the one value that differs between runs
WALL_CLOCK = re.compile(r'"wall_clock_s": [^,]*')


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_one(argv: list[str], out: Path) -> tuple[int | str, str, str, str]:
    if out.exists():
        out.unlink()
    stdout, err = io.StringIO(), io.StringIO()
    failure = ""
    with redirect_stdout(stdout), redirect_stderr(err):
        try:
            code = cli.run(argv + ["--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded on the line; the sweep goes on
            code, failure = "exception", f"{type(exc).__name__}: {exc}"
    digest = sha256(out.read_bytes()) if out.exists() else "-"
    report = WALL_CLOCK.sub('"wall_clock_s": 0', stdout.getvalue())
    report_digest = sha256(report.encode()) if report else "-"
    lines = (failure or err.getvalue()).strip().splitlines()
    return code, digest, report_digest, lines[0] if lines else "-"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    specs = sorted(p.relative_to(ROOT).as_posix()
                   for d in ("specs", "bench/specs") for p in (ROOT / d).glob("*.json"))
    print(f"# numpy {version('numpy')} scipy {version('scipy')}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for spec in specs:
            for command in COMMANDS:
                argv = [command, "--spec", str(ROOT / spec), "--seed", str(args.seed),
                        *SIZES.get(command, ())]
                print(spec, command, *run_one(argv, out), flush=True)
        spec = specs[0]
        for command, *extra in USAGE_PROBES:
            argv = [command, "--spec", str(ROOT / spec), *extra]
            print(spec, " ".join([command, *extra]), *run_one(argv, out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
