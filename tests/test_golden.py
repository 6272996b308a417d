"""The golden sweep as a gate: `scripts/golden.py` at seeds 0 and 1 prints
the lines committed under tests/golden/, so every `--out` artifact, masked
run report, exit code and first error line of the sweep is unchanged.

A change that moves a line regenerates the file with
`python scripts/golden.py --seed N > tests/golden/seedN.txt` and explains
each moved line. The sweeps run in subprocesses because golden.py pins the
BLAS threads before numpy loads, and here numpy is already loaded."""
import itertools
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1)


def test_golden_sweeps_are_unchanged():
    procs = {seed: subprocess.Popen([sys.executable, str(ROOT / "scripts" / "golden.py"),
                                     "--seed", str(seed)],
                                    cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True)
             for seed in SEEDS}
    moved = []
    try:
        for seed, proc in procs.items():
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            got = out.splitlines()
            want = (ROOT / "tests" / "golden" / f"seed{seed}.txt").read_text().splitlines()
            assert got[0] == want[0], (f"tests/golden/seed{seed}.txt was recorded under "
                                       f"{want[0][2:]!r}; this environment has {got[0][2:]!r}")
            for line, (old, new) in enumerate(itertools.zip_longest(want, got), start=1):
                if old != new:
                    moved.append(f"seed {seed} line {line}:\n  golden {old}\n  now    {new}")
    finally:
        for proc in procs.values():
            proc.kill()  # a no-op once the sweep has exited
    assert not moved, "golden lines moved:\n" + "\n".join(moved)
