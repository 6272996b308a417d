import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zerorate
from zerorate.cli import COMMANDS, build_parser, load_channel, run

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"

BSC_DOC = json.loads((SPECS / "bsc.json").read_text())
ISI_DOC = json.loads((SPECS / "isi_binary.json").read_text())


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_spec(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_check_bsc(tmp_path, capsys):
    spec = write_spec(tmp_path, BSC_DOC)
    out_path = tmp_path / "check.json"
    code, stdout, _ = run_cli(capsys, "check", "--spec", spec, "--out", str(out_path))
    assert code == 0
    result = json.loads(out_path.read_text())
    assert result["augmented"] is True
    assert result["doubly_irreducible"] is True
    assert result["n_pairs"] == 4
    report = json.loads(stdout)
    assert report["command"] == "check"
    assert report["result"] == result


def test_check_register_spec(tmp_path, capsys):
    doc = {"fsc": {
        "states": ["-", "+"],
        "alphabet": ["-", "+"],
        "values": {"-": -1.0, "+": 1.0},
        "next_state": {"-": {"-": "-", "+": "+"}, "+": {"-": "-", "+": "+"}},
        "recover": {"-": "-", "+": "+"},
        "kernel": {"kind": "gaussian", "variance": 1.0,
                   "mean": {"-": {"-": -1.5, "+": 0.5},
                            "+": {"-": -0.5, "+": 1.5}}},
        "cost": {"phi": {"-": 1.0, "+": 1.0}, "gamma": 1.0},
    }}
    spec = write_spec(tmp_path, doc)
    code, stdout, _ = run_cli(capsys, "check", "--spec", spec)
    assert code == 0
    rep = json.loads(stdout)
    assert rep["result"]["augmented"] is False
    assert rep["result"]["doubly_irreducible"] is True


def test_distances_csv(tmp_path, capsys):
    spec = write_spec(tmp_path, BSC_DOC)
    out_path = tmp_path / "d.csv"
    code, _, _ = run_cli(capsys, "distances", "--spec", spec, "--out", str(out_path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert len(rows) == 5 and rows[0][0] == "pair"
    d = float(rows[1][2])
    assert d == pytest.approx(-np.log(0.6), abs=1e-12)


def test_optimize_bsc_value(tmp_path, capsys):
    spec = write_spec(tmp_path, BSC_DOC)
    code, stdout, _ = run_cli(capsys, "optimize", "--spec", spec)
    assert code == 0
    rep = json.loads(stdout)
    assert rep["result"]["value"] == pytest.approx(0.25541, abs=1e-4)
    assert rep["result"]["concave"] is True
    assert rep["result"]["argmax"]["kind"] == "single"


@pytest.mark.parametrize("spec, closed_form", [
    ("specs/isi_binary.json", 0.5625),
    ("specs/isi_two_tap.json", 3.65625),
    ("bench/specs/isi_long.json", 3.828125),
])
def test_optimize_never_exceeds_gaussian_closed_form(spec, closed_form, tmp_path, capsys):
    """On a Gaussian ISI channel the exponent is (sum h)^2 gamma / 4 sigma^2;
    a value above it can only come from an infeasible iterate."""
    isi = json.loads((ROOT / spec).read_text())["isi"]
    assert sum(isi["h"]) ** 2 * isi["gamma"] / (4.0 * isi["sigma2"]) == closed_form
    out = tmp_path / "optimize.json"
    code, _, _ = run_cli(capsys, "optimize", "--spec", str(ROOT / spec), "--seed", "0",
                         "--out", str(out))
    assert code == 0
    value = json.loads(out.read_text())["value"]
    assert value <= closed_form + 1e-12
    assert value == pytest.approx(closed_form, abs=1e-9)


def test_uce_reports_single_and_plan(tmp_path, capsys):
    spec = write_spec(tmp_path, BSC_DOC)
    code, stdout, _ = run_cli(capsys, "uce", "--spec", spec)
    assert code == 0
    rep = json.loads(stdout)
    assert rep["result"]["value"] == pytest.approx(rep["result"]["single_value"], abs=1e-8)


@pytest.mark.parametrize("spec, value", [
    (SPECS / "isi_two_tap.json", 3.65625),
    (ROOT / "bench/specs/quantized_two_tap.json", 0.5365993695628957),
], ids=["isi_two_tap", "quantized_two_tap"])
def test_uce_on_concave_channel_skips_time_sharing(spec, value, tmp_path, capsys, monkeypatch):
    """Time sharing can beat one distribution only where E0 is not concave
    and the budget binds. isi_two_tap is concave with a binding budget;
    quantized_two_tap is not concave but has no cost, so its budget never
    binds. Either way uce returns the single argmax as a one-segment plan
    without the time-sharing sweep."""
    def no_sweep(*args, **kwargs):
        raise AssertionError("maximize_uce called where time sharing cannot help")

    monkeypatch.setattr(zerorate.exponent, "maximize_uce", no_sweep)
    out = tmp_path / "uce.json"
    code, _, _ = run_cli(capsys, "uce", "--spec", str(spec), "--out", str(out))
    assert code == 0
    result = json.loads(out.read_text())
    assert result["value"] == result["single_value"] == pytest.approx(value, abs=1e-9)
    assert result["plan"]["kind"] == "time_sharing"
    assert result["plan"]["weights"] == [1.0]
    assert len(result["plan"]["components"]) == 1
    assert result["plan"]["anchor"] == result["anchor"]


def test_optimize_and_uce_report_the_same_plan(tmp_path, capsys):
    """uce renders the same solve as optimize: on the binding, non-concave
    time-sharing spec both give one value and one plan, anchor included."""
    spec = str(ROOT / "bench/specs/time_sharing.json")
    results = {}
    for command in ("optimize", "uce"):
        out = tmp_path / f"{command}.json"
        code, _, _ = run_cli(capsys, command, "--spec", spec, "--seed", "0", "--out", str(out))
        assert code == 0
        results[command] = json.loads(out.read_text())
    plan, uce = results["optimize"]["argmax"], results["uce"]
    assert plan["kind"] == uce["plan"]["kind"] == "time_sharing"
    assert results["optimize"]["value"] == uce["value"]
    assert plan["anchor"] == uce["plan"]["anchor"] == uce["anchor"]
    assert plan["weights"] == uce["plan"]["weights"]
    assert plan["components"] == uce["plan"]["components"]


def test_build_code_and_simulate(tmp_path, capsys):
    spec = write_spec(tmp_path, ISI_DOC)
    code_path = tmp_path / "book.json"
    code, _, _ = run_cli(capsys, "build-code", "--spec", spec, "--n", "64",
                         "--codewords", "3", "--seed", "5", "--out", str(code_path))
    assert code == 0
    book = json.loads(code_path.read_text())
    assert book["n"] == 64 and book["M"] == 3
    assert len(book["codewords"]) == 3
    assert all(len(cw) == 64 for cw in book["codewords"])
    code, stdout, _ = run_cli(capsys, "simulate", "--spec", spec, "--code",
                              str(code_path), "--trials", "500", "--seed", "1")
    assert code == 0
    rep = json.loads(stdout)
    assert rep["result"]["trials"] == 500
    assert len(rep["result"]["pe_estimates"]) == 3


@pytest.mark.parametrize("case, reason", [("unknown state", "codebook state '1'"),
                                          ("missing key", "'type_counts'"),
                                          ("bad json", "codebook is not valid JSON")],
                         ids=["unknown state", "missing key", "bad json"])
def test_simulate_rejects_malformed_code(case, reason, tmp_path, capsys):
    spec = write_spec(tmp_path, ISI_DOC)
    code_path = tmp_path / "book.json"
    code, _, _ = run_cli(capsys, "build-code", "--spec", spec, "--n", "32",
                         "--codewords", "2", "--out", str(code_path))
    assert code == 0
    if case == "unknown state":  # the book's states are not quantized_two_tap's
        spec = str(ROOT / "bench/specs/quantized_two_tap.json")
    elif case == "missing key":
        book = json.loads(code_path.read_text())
        del book["type_counts"]
        code_path.write_text(json.dumps(book))
    else:
        code_path.write_text("{\"n\": 32,")
    code, stdout, err = run_cli(capsys, "simulate", "--spec", spec, "--code",
                                str(code_path), "--trials", "10")
    assert code == 1 and stdout == ""
    assert err.startswith("error: validation:") and err.count("\n") == 1
    assert reason in err


def test_simulate_without_code_builds(tmp_path, capsys):
    spec = write_spec(tmp_path, ISI_DOC)
    code, stdout, _ = run_cli(capsys, "simulate", "--spec", spec, "--n", "32",
                              "--codewords", "2", "--trials", "200", "--seed", "3")
    assert code == 0
    rep = json.loads(stdout)
    assert rep["result"]["M"] == 2


def test_zrho_csv_monotone(tmp_path, capsys):
    spec = write_spec(tmp_path, BSC_DOC)
    out_path = tmp_path / "z.csv"
    code, _, _ = run_cli(capsys, "zrho", "--spec", spec, "--rhos", "1,10,100",
                         "--out", str(out_path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert rows[0] == ["rho", "z_value", "delta", "cross_term", "minus_e0_qstar"]
    zs = [float(r[1]) for r in rows[1:]]
    ref = float(rows[1][4])
    assert zs == sorted(zs)
    assert all(z <= ref + 1e-9 for z in zs)


def test_isi_bound(tmp_path, capsys):
    spec = write_spec(tmp_path, json.loads((SPECS / "isi_two_tap.json").read_text()))
    code, stdout, _ = run_cli(capsys, "isi-bound", "--spec", spec)
    assert code == 0
    res = json.loads(stdout)["result"]
    assert res["spectral_bound"] == pytest.approx(6.5 * 2.25 / 4.0, rel=1e-9)
    assert res["omega_star"] == pytest.approx(0.0, abs=1e-6)
    assert res["Lambda"] >= 0.0
    assert res["lower_bound"] <= res["spectral_bound"] + 1e-9


def test_isi_loss_csv(tmp_path, capsys):
    spec = write_spec(tmp_path, json.loads((SPECS / "isi_two_tap.json").read_text()))
    out_path = tmp_path / "loss.csv"
    code, _, _ = run_cli(capsys, "isi-loss", "--spec", spec, "--k-list", "8,16,32",
                         "--out", str(out_path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert len(rows) == 4
    lam = [float(r[3]) for r in rows[1:]]
    assert all(v >= 0 for v in lam)
    assert lam[0] > lam[1] > lam[2]


def test_isi_subcommands_reject_fsc_spec(tmp_path, capsys):
    spec = write_spec(tmp_path, BSC_DOC)
    code, _, err = run_cli(capsys, "isi-bound", "--spec", spec)
    assert code == 1
    assert err.startswith("error: validation:")


def test_exit_code_validation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "optimize", "--spec", str(bad))
    assert code == 1 and "validation" in err
    missing = dict(BSC_DOC)
    missing = {"fsc": {k: v for k, v in BSC_DOC["fsc"].items() if k != "kernel"}}
    code, _, err = run_cli(capsys, "optimize", "--spec", write_spec(tmp_path, missing))
    assert code == 1 and "validation" in err


def test_exit_code_infeasible(tmp_path, capsys):
    doc = json.loads(json.dumps(BSC_DOC))
    doc["fsc"]["cost"] = {"phi": {"0": 1.0, "1": 1.0}, "gamma": 0.5}
    code, _, err = run_cli(capsys, "optimize", "--spec", write_spec(tmp_path, doc))
    assert code == 2 and err.startswith("error: infeasible:")


def test_build_code_refuses_clone_codebook(tmp_path, capsys):
    # the argmax is a single 4-cycle with connected support, so no blend is
    # applied and its type admits one circuit up to rotation
    doc = {"isi": {"h": [1.0, 0.5, -0.3], "sigma2": 1.0, "levels": [1.0, -1.0],
                   "gamma": 1.0}}
    out_path = tmp_path / "book.json"
    code, _, err = run_cli(capsys, "build-code", "--spec", write_spec(tmp_path, doc),
                           "--n", "512", "--codewords", "16", "--out", str(out_path))
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: validation:")
    assert not out_path.exists()


def test_round_trip_spec_echo(tmp_path, capsys):
    spec = write_spec(tmp_path, BSC_DOC)
    code, stdout, _ = run_cli(capsys, "check", "--spec", spec)
    echo = json.loads(stdout)["spec_echo"]
    a = load_channel(echo)
    b = load_channel(BSC_DOC)
    assert a.machine.states == b.machine.states
    assert (a.machine.next_state == b.machine.next_state).all()
    assert np.allclose(a.kernel.pmf, b.kernel.pmf)
    assert a.cost.gamma == b.cost.gamma


def test_seed_determinism_bytes(tmp_path, capsys):
    spec = write_spec(tmp_path, ISI_DOC)
    outs = []
    for name in ("a.json", "b.json"):
        out_path = tmp_path / name
        code, _, _ = run_cli(capsys, "build-code", "--spec", spec, "--n", "48",
                             "--codewords", "2", "--seed", "9", "--out", str(out_path))
        assert code == 0
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1]
    out_path = tmp_path / "c.json"
    run_cli(capsys, "build-code", "--spec", spec, "--n", "48", "--codewords", "2",
            "--seed", "10", "--out", str(out_path))
    assert out_path.read_bytes() != outs[0]


def test_report_file_written(tmp_path, capsys):
    spec = write_spec(tmp_path, BSC_DOC)
    rep_path = tmp_path / "report.json"
    code, stdout, _ = run_cli(capsys, "check", "--spec", spec, "--report", str(rep_path))
    assert code == 0
    on_disk = json.loads(rep_path.read_text())
    assert on_disk["result"] == json.loads(stdout)["result"]
    assert "wall_clock_s" in on_disk


def test_zrho_rho_max_default_sweep(tmp_path, capsys):
    spec = write_spec(tmp_path, BSC_DOC)
    out_path = tmp_path / "z.csv"
    code, _, _ = run_cli(capsys, "zrho", "--spec", spec, "--rho-max", "16",
                         "--out", str(out_path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert [float(r[0]) for r in rows[1:]] == [1.0, 4.0, 16.0]


def test_simulate_trial_log_flag(tmp_path, capsys):
    spec = write_spec(tmp_path, ISI_DOC)
    log = tmp_path / "log.csv"
    code, _, _ = run_cli(capsys, "simulate", "--spec", spec, "--n", "32",
                         "--codewords", "2", "--trials", "40", "--seed", "3",
                         "--trial-log", str(log))
    assert code == 0
    rows = list(csv.reader(io.StringIO(log.read_text())))
    assert len(rows) == 1 + 80


def test_isi_pipeline_script_builds_the_cli_codebook(tmp_path, capsys):
    """scripts/isi_pipeline.py (defaults: h = (1, 0.5), levels +-1, gamma 1)
    goes through the same construction as build-code on specs/isi_binary.json."""
    summary = tmp_path / "summary.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts/isi_pipeline.py"),
                           "--n", "32", "--codewords", "2", "--trials", "200",
                           "--json", str(summary)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    book_path = tmp_path / "book.json"
    code, _, _ = run_cli(capsys, "build-code", "--spec", str(SPECS / "isi_binary.json"),
                         "--n", "32", "--codewords", "2", "--seed", "0",
                         "--out", str(book_path))
    assert code == 0
    assert json.loads(summary.read_text())["codebook"] == json.loads(book_path.read_text())


@pytest.mark.parametrize("argv", [["optimize", "--bogus"], ["check", "--k-list", "8"],
                                  ["build-code", "--n", "many"],
                                  ["uce", "--relax-components"]], ids=" ".join)
def test_usage_error_is_a_validation_failure(tmp_path, capsys, argv):
    spec = write_spec(tmp_path, BSC_DOC)
    code, stdout, err = run_cli(capsys, argv[0], "--spec", spec, *argv[1:])
    assert code == 1 and stdout == ""
    assert err.startswith("error: validation:") and err.count("\n") == 1


def test_missing_spec_is_a_validation_failure(capsys):
    code, _, err = run_cli(capsys, "optimize")
    assert code == 1
    assert err.startswith("error: validation:") and "--spec" in err


COMMON = {"-h", "--help", "--spec", "--out", "--report", "--seed"}
SOLVER = {"--tol", "--starts"}
BUILD = SOLVER | {"--n", "--codewords", "--blend", "--rho"}
SURFACE = {
    "check": {"--max-r"},
    "distances": set(),
    "optimize": SOLVER,
    "uce": SOLVER,
    "build-code": BUILD,
    "simulate": BUILD | {"--trials", "--trial-log", "--code"},
    "zrho": SOLVER | {"--n", "--blend", "--rhos", "--rho-max"},
    "isi-bound": set(),
    "isi-loss": {"--k-list"},
}


def test_surface_lists_every_subcommand():
    assert set(SURFACE) == set(COMMANDS)


@pytest.mark.parametrize("command", list(SURFACE))
def test_subcommand_takes_only_the_flags_it_reads(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for act in sub.choices[command]._actions for opt in act.option_strings}
    assert options == COMMON | SURFACE[command]


# Runs in a fresh interpreter: loads every spec, then one CLI command per
# further argument ("command:spec"), and prints after each step which scipy
# packages sys.modules holds.
COLD_START_PROBE = """\
import contextlib, io, json, sys
import zerorate
from zerorate.cli import load_channel, run

def scipy_loaded():
    return sorted(m for m in ("scipy", "scipy.sparse", "scipy.optimize") if m in sys.modules)

specs, commands = sys.argv[1].split(","), sys.argv[2:]
for path in specs:
    with open(path, encoding="utf-8") as fh:
        load_channel(json.load(fh))
steps = {"load_channel": scipy_loaded()}
for item in commands:
    command, spec = item.split(":")
    with contextlib.redirect_stdout(io.StringIO()):
        code = run([command, "--spec", spec])
    steps[command] = [code, scipy_loaded()]
print(json.dumps(steps))
"""


def test_cold_start_loads_scipy_only_for_solvers():
    specs = sorted(SPECS.glob("*.json")) + sorted((ROOT / "bench" / "specs").glob("*.json"))
    assert len(specs) >= 6
    src = str(Path(zerorate.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START_PROBE, ",".join(map(str, specs)),
         f"isi-bound:{SPECS / 'isi_two_tap.json'}", f"distances:{SPECS / 'bsc.json'}",
         f"optimize:{SPECS / 'bsc.json'}"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    steps = json.loads(proc.stdout.strip().splitlines()[-1])
    assert steps["load_channel"] == []
    assert steps["isi-bound"] == [0, []]
    assert steps["distances"] == [0, []]
    # the probe sees an import when one happens
    assert steps["optimize"][0] == 0 and "scipy.optimize" in steps["optimize"][1]
