import argparse
import csv
import inspect
import io
import json
import os
import re
import subprocess
import sys
import warnings
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
                                          ("rho book", "codebook lacks the key 'blend'"),
                                          ("bad json", "codebook is not valid JSON"),
                                          ("inverted codeword", "their state paths emit"),
                                          ("wrong n", "declares M=2, n=999"),
                                          ("wrong M", "declares M=7, n=32"),
                                          ("forged distance", "min_pair_distance 1000000000.0"),
                                          ("forged type", "differ from its type_counts"),
                                          ("short type", "segments total 30")],
                         ids=["unknown state", "missing key", "rho book", "bad json",
                              "inverted codeword", "wrong n", "wrong M", "forged distance",
                              "forged type", "short type"])
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
    elif case == "rho book":  # written before books recorded their blend
        book = json.loads(code_path.read_text())
        book["rho"] = book.pop("blend")
        code_path.write_text(json.dumps(book))
    elif case in ("inverted codeword", "wrong n", "wrong M"):  # contradicts its own paths
        book = json.loads(code_path.read_text())
        if case == "inverted codeword":
            book["codewords"][0] = [1 - x for x in book["codewords"][0]]
        elif case == "wrong n":
            book["n"] = 999
        else:
            book["M"] = 7
        code_path.write_text(json.dumps(book))
    elif case in ("forged distance", "forged type", "short type"):  # contradicts its arcs
        book = json.loads(code_path.read_text())
        counts = book["type_counts"][0]["counts"]
        assert sorted(c["count"] for c in counts) == [2, 2, 14, 14]
        if case == "forged distance":
            book["min_pair_distance"] = 1e9
        elif case == "forged type":  # the balanced, connected type 13/3/3/13
            for c in counts:
                c["count"] += 1 if c["count"] == 2 else -1
        else:  # 13/2/2/13, a valid type of length 30
            book["type_counts"][0]["length"] = 30
            for c in counts:
                c["count"] -= c["count"] == 14
        code_path.write_text(json.dumps(book))
    else:
        code_path.write_text("{\"n\": 32,")
    code, stdout, err = run_cli(capsys, "simulate", "--spec", spec, "--code",
                                str(code_path), "--trials", "10")
    assert code == 1 and stdout == ""
    assert err.startswith("error: validation:") and err.count("\n") == 1
    assert reason in err


@pytest.mark.parametrize("name, blend", [("isi_binary.json", 0.015625), ("bsc.json", 0.0)])
def test_build_code_records_blend(name, blend, capsys):
    # isi_binary's argmax support is disconnected, so theta = 2L/n with L = 4
    code, stdout, _ = run_cli(capsys, "build-code", "--spec", str(SPECS / name),
                              "--n", "512", "--seed", "0")
    assert code == 0
    assert json.loads(stdout)["result"]["blend"] == blend


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


# two self-loop components; state t's symbol 1 has an output no other pair
# emits, so D is infinite on t's component but finite on the argmax's
INF_OUTSIDE_SUPPORT_DOC = {"fsc": {
    "states": ["s", "t"], "alphabet": ["0", "1"], "values": {"0": 0.0, "1": 1.0},
    "next_state": {"s": {"0": "s", "1": "s"}, "t": {"0": "t", "1": "t"}},
    "kernel": {"kind": "discrete", "outputs": ["a", "b", "c"],
               "pmf": {"s": {"0": [1.0, 0.0, 0.0], "1": [0.36, 0.64, 0.0]},
                       "t": {"0": [0.5, 0.5, 0.0], "1": [0.0, 0.0, 1.0]}}}}}


def test_zrho_with_infinite_distance_outside_the_support(tmp_path, capsys):
    spec = write_spec(tmp_path, INF_OUTSIDE_SUPPORT_DOC)
    out_path = tmp_path / "z.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, "zrho", "--spec", spec, "--rhos", "1,16",
                               "--out", str(out_path))
    assert (code, err, caught) == (0, "", [])
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    # E0 of the uniform law on s's four pairs: 0.5 * -ln 0.6
    assert float(rows[1][4]) == pytest.approx(0.5 * np.log(0.6), abs=1e-12)
    assert all(np.isfinite([float(x) for x in r]).all() for r in rows[1:])


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


# block, path to one entry, the value written there (None deletes the entry)
MALFORMED_VALUES = {
    "unknown next state": ("fsc", ("next_state", "s", "0"), "t"),
    "pmf row length": ("fsc", ("kernel", "pmf", "s", "0"), [0.8, 0.1, 0.1]),
    "pmf entry": ("fsc", ("kernel", "pmf", "s", "0"), ["x", 0.1]),
    "values entry": ("fsc", ("values", "0"), "zero"),
    "isi h": ("isi", ("h",), [1.0, "x"]),
    "isi sigma2": ("isi", ("sigma2",), "one"),
    "cost without gamma": ("fsc", ("cost", "gamma"), None),
    "phi missing a symbol": ("fsc", ("cost", "phi", "1"), None),
    "outputs not a list": ("fsc", ("kernel", "outputs"), 5),
    # non-finite numbers, written as JSON's NaN and Infinity
    "pmf NaN entry": ("fsc", ("kernel", "pmf", "s", "0"), [float("nan"), 1.0]),
    "isi Infinity tap": ("isi", ("h",), [1.0, float("inf")]),
    "isi Infinity sigma2": ("isi", ("sigma2",), float("inf")),
    "isi Infinity gamma": ("isi", ("gamma",), float("inf")),
    "isi NaN gamma": ("isi", ("gamma",), float("nan")),
    "phi NaN entry": ("fsc", ("cost", "phi", "0"), float("nan")),
    "cost Infinity gamma": ("fsc", ("cost", "gamma"), float("inf")),
}


@pytest.mark.parametrize("block, path, value", MALFORMED_VALUES.values(),
                         ids=list(MALFORMED_VALUES))
def test_malformed_spec_value_is_one_validation_line(block, path, value, tmp_path, capsys):
    doc = json.loads(json.dumps(BSC_DOC if block == "fsc" else ISI_DOC))
    entry = doc[block]
    for key in path[:-1]:
        entry = entry[key]
    if value is None:
        del entry[path[-1]]
    else:
        entry[path[-1]] = value
    code, stdout, err = run_cli(capsys, "check", "--spec", write_spec(tmp_path, doc))
    assert (code, stdout) == (1, "")
    assert err.startswith("error: validation:") and err.count("\n") == 1


@pytest.mark.parametrize("field, value", [("h", [1.0, float("inf")]), ("levels", [float("nan"), 1.0]),
                                          ("sigma2", float("inf")), ("gamma", float("nan"))],
                         ids=["h", "levels", "sigma2", "gamma"])
def test_non_finite_isi_value_names_its_field(field, value, tmp_path, capsys):
    doc = json.loads(json.dumps(ISI_DOC))
    doc["isi"][field] = value
    code, _, err = run_cli(capsys, "check", "--spec", write_spec(tmp_path, doc))
    assert (code, err) == (1, f"error: validation: isi {field} must be finite\n")


@pytest.mark.parametrize("argv", [["isi-loss", "--k-list", "8,x"], ["isi-loss", "--k-list", ","],
                                  ["isi-loss", "--k-list", "6,3"], ["zrho", "--rhos", "1,abc"],
                                  ["zrho", "--rhos", "nan"], ["zrho", "--rhos", "inf"],
                                  ["zrho", "--rhos", "0"]], ids=" ".join)
def test_list_flags_are_usage_errors_before_any_solve(argv, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the flags were parsed")

    monkeypatch.setattr(zerorate.exponent, "maximize_e0", no_solve)
    monkeypatch.setattr(zerorate.isi, "spectral_bound", no_solve)
    code, stdout, err = run_cli(capsys, argv[0], "--spec", str(SPECS / "isi_binary.json"),
                                *argv[1:])
    assert (code, stdout) == (1, "")
    assert err.startswith(f"error: validation: argument {argv[1]}: ") and err.count("\n") == 1


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


def test_zrho_default_sweep_is_powers_of_four(tmp_path, capsys):
    spec = write_spec(tmp_path, BSC_DOC)
    out_path = tmp_path / "z.csv"
    code, _, _ = run_cli(capsys, "zrho", "--spec", spec, "--out", str(out_path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert [float(r[0]) for r in rows[1:]] == [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0]


def test_simulate_trial_log_flag(tmp_path, capsys):
    spec = write_spec(tmp_path, ISI_DOC)
    log = tmp_path / "log.csv"
    code, _, _ = run_cli(capsys, "simulate", "--spec", spec, "--n", "32",
                         "--codewords", "2", "--trials", "40", "--seed", "3",
                         "--trial-log", str(log))
    assert code == 0
    rows = list(csv.reader(io.StringIO(log.read_text())))
    assert len(rows) == 1 + 80


@pytest.mark.parametrize("argv", [["optimize", "--bogus"], ["check", "--k-list", "8"],
                                  ["build-code", "--n", "many"],
                                  ["uce", "--relax-components"]], ids=" ".join)
def test_usage_error_is_a_validation_failure(tmp_path, capsys, argv):
    spec = write_spec(tmp_path, BSC_DOC)
    code, stdout, err = run_cli(capsys, argv[0], "--spec", spec, *argv[1:])
    assert code == 1 and stdout == ""
    assert err.startswith("error: validation:") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--out", "--report"])
def test_unwritable_artifact_is_a_validation_failure(tmp_path, capsys, flag):
    spec = write_spec(tmp_path, BSC_DOC)
    code, stdout, err = run_cli(capsys, "check", "--spec", spec, flag,
                                str(tmp_path / "missing" / "x.json"))
    assert code == 1 and stdout == ""
    assert err.startswith("error: validation:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'check', 'distances', "
                "'optimize', 'uce', 'build-code', 'simulate', 'zrho', 'isi-bound', 'isi-loss')"),
    ([], "the following arguments are required: command"),
    (["--seed", "1", "check"], "argument command: invalid choice: '1' (choose from 'check', "
                               "'distances', 'optimize', 'uce', 'build-code', 'simulate', "
                               "'zrho', 'isi-bound', 'isi-loss')"),
    (["zrho", "--spec", "x.json", "--starts", "8.5"],
     "argument --starts: invalid int value: '8.5'"),
    (["simulate", "--trials", "9"], "the following arguments are required: --spec"),
], ids=repr)
def test_usage_error_lines(capsys, argv, message):
    # the parser for one subcommand words its errors as the full parser does
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, stdout, err) == (1, "", f"error: validation: {message}\n")


def test_missing_spec_is_a_validation_failure(capsys):
    code, _, err = run_cli(capsys, "optimize")
    assert code == 1
    assert err.startswith("error: validation:") and "--spec" in err


COMMON = {"-h", "--help", "--spec", "--out", "--report", "--seed"}
SOLVER = {"--starts"}
BUILD = SOLVER | {"--n", "--codewords"}
SURFACE = {
    "check": set(),
    "distances": set(),
    "optimize": SOLVER,
    "uce": SOLVER,
    "build-code": BUILD,
    "simulate": BUILD | {"--trials", "--trial-log", "--code"},
    "zrho": SOLVER | {"--n", "--rhos"},
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


def _subparser_options(parser, command):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {act.dest: (tuple(act.option_strings), act.default, act.type, act.required)
            for act in sub.choices[command]._actions}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_single_command_parser_matches_the_full_one(command):
    one = build_parser(command)
    sub = next(a for a in one._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == [command]
    assert _subparser_options(one, command) == _subparser_options(build_parser(), command)


def test_readme_flag_table_matches_the_parser():
    """README's subcommand/flag table names exactly the optional flags each
    subcommand registers besides --spec, --out, --report and --seed."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| subcommand | flags |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, flags = line.strip("|").split("|", 1)
        table[name.strip().strip("`")] = set(re.findall(r"--[a-z][a-z-]*", flags))
    assert table == {name: set(flags) for name, (_, flags) in COMMANDS.items()}


def fresh_python(code: str, *args: str):
    """The JSON on the last stdout line of `python -c code *args`, run in a
    fresh interpreter that imports zerorate from the tree under test."""
    src = str(Path(zerorate.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# Runs in a fresh interpreter: loads every spec, then one CLI command per
# further argument ("command:spec"), and prints after each step, keyed
# "command:spec file name", which scipy packages sys.modules holds.
COLD_START_PROBE = """\
import contextlib, io, json, os, sys
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
    steps[command + ":" + os.path.basename(spec)] = [code, scipy_loaded()]
print(json.dumps(steps))
"""


def test_cold_start_loads_scipy_only_for_lps():
    specs = sorted(SPECS.glob("*.json")) + sorted((ROOT / "bench" / "specs").glob("*.json"))
    assert len(specs) >= 6
    concave = [f"optimize:{SPECS / 'bsc.json'}", f"build-code:{SPECS / 'isi_binary.json'}",
               f"simulate:{SPECS / 'isi_binary.json'}"]
    steps = fresh_python(COLD_START_PROBE, ",".join(map(str, specs)),
                         f"isi-bound:{SPECS / 'isi_two_tap.json'}",
                         f"distances:{SPECS / 'bsc.json'}", *concave,
                         f"optimize:{ROOT / 'bench' / 'specs' / 'time_sharing.json'}")
    assert steps["load_channel"] == []
    assert steps["isi-bound:isi_two_tap.json"] == [0, []]
    assert steps["distances:bsc.json"] == [0, []]
    # a concave solve, and the book and simulation built on it, run no LP
    for item in ("optimize:bsc.json", "build-code:isi_binary.json", "simulate:isi_binary.json"):
        assert steps[item] == [0, []], item
    # the probe sees an import when one happens: time sharing solves LPs
    code, loaded = steps["optimize:time_sharing.json"]
    assert code == 0 and "scipy.optimize" in loaded


SHIPPED_SPECS = sorted(SPECS.glob("*.json")) + sorted((ROOT / "bench" / "specs").glob("*.json"))


@pytest.mark.parametrize("spec", SHIPPED_SPECS, ids=lambda p: p.name)
def test_cold_check_loads_no_scipy(spec):
    steps = fresh_python(COLD_START_PROBE, str(spec), f"check:{spec}")
    assert steps[f"check:{spec.name}"] == [0, []]


# Runs in a fresh interpreter: imports zerorate, then takes one step per
# argument ("load:spec" loads the channel, "command:spec" runs the CLI) and
# prints after each which zerorate modules sys.modules holds.
MODULE_PROBE = """\
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "zerorate")

import zerorate
steps = [["import", 0, loaded()]]
from zerorate.cli import load_channel, run
for item in sys.argv[1:]:
    command, spec = item.split(":")
    if command == "load":
        with open(spec, encoding="utf-8") as fh:
            load_channel(json.load(fh))
        code = 0
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            code = run([command, "--spec", spec])
    steps.append([item, code, loaded()])
print(json.dumps(steps))
"""


def test_cold_start_loads_only_the_layers_it_runs():
    kinds = {spec: next(iter(json.loads(spec.read_text()))) for spec in SHIPPED_SPECS}
    fsc = [spec for spec, kind in kinds.items() if kind == "fsc"]
    isi = [spec for spec, kind in kinds.items() if kind == "isi"]
    assert len(fsc) >= 3 and len(isi) >= 3
    bsc, two_tap = SPECS / "bsc.json", SPECS / "isi_two_tap.json"
    light = [f"{command}:{spec}" for command in ("check", "distances") for spec in (bsc, two_tap)]
    light.append(f"isi-bound:{two_tap}")
    steps = fresh_python(MODULE_PROBE, *(f"load:{spec}" for spec in fsc + isi), *light,
                         f"optimize:{bsc}")
    assert steps[0] == ["import", 0, ["zerorate"]]
    channel = ["zerorate", "zerorate.bhatt", "zerorate.cli", "zerorate.errors", "zerorate.fsm"]
    loads = steps[1:1 + len(fsc) + len(isi)]
    for _, _, modules in loads[:len(fsc)]:
        assert modules == channel
    for _, _, modules in loads[len(fsc):]:
        assert modules == sorted(channel + ["zerorate.isi"])
    heavy = {"zerorate.exponent", "zerorate.polytope", "zerorate.codebook",
             "zerorate.montecarlo"}
    for item, code, modules in steps[1 + len(fsc) + len(isi):-1]:
        assert code == 0, item
        assert heavy.isdisjoint(modules), item
    # the probe sees an import when one happens: optimize adds the solver layers alone
    _, code, modules = steps[-1]
    assert code == 0
    assert modules == sorted(channel + ["zerorate.exponent", "zerorate.isi", "zerorate.polytope"])


# zerorate.__all__ as the package exported it when it imported every module
PUBLIC_NAMES = (
    "CandidateSet", "ChannelKernel", "Codebook", "ConcavityReport", "CostModel",
    "DistanceMatrix", "ExponentResult", "FeasiblePairSet", "InfeasibleError", "IsiSpec",
    "MarkovTypeSpec", "PairDistribution", "QuantizedSinusoidStats",
    "SimulationReport", "StateMachine", "StructuralReport", "TimeSharingPlan",
    "UnsupportedChannelError", "ValidationError", "augment", "bhatt", "bhattacharyya",
    "blend_for_construction", "build_codebook", "build_ensemble", "build_isi_machine",
    "check_structure", "choose_amplitude", "codebook", "concavity_test", "discrete_kernel",
    "e0", "emit_codeword", "errors", "euler_circuit", "exponent", "expurgate",
    "feasibility_sccs", "feasible_pairs", "fsm", "gaussian_kernel", "gray_stats",
    "irrationalize", "isi", "maximize_e0", "maximize_uce", "montecarlo", "pairwise_check",
    "polytope", "quantization_loss", "round_type", "shift_register", "simulate",
    "spectral_bound", "support_is_connected", "z_rho", "z_rho_sweep",
)


def test_package_namespace_resolves_every_public_name():
    assert len(PUBLIC_NAMES) == 57 and zerorate.__all__ == list(PUBLIC_NAMES)
    listed = dir(zerorate)
    for name in PUBLIC_NAMES:
        assert getattr(zerorate, name) is not None and name in listed, name
    assert zerorate.CostModel is zerorate.fsm.CostModel is zerorate.exponent.CostModel
    with pytest.raises(AttributeError):
        zerorate.not_a_name
    probe = ("from zerorate import *\n"
             "names = sorted(n for n in dir() if not n.startswith('_'))\n"
             "import json\nprint(json.dumps(names))")
    assert fresh_python(probe) == sorted(PUBLIC_NAMES)


# Every (callable, parameter) with a default over the public API: a new entry
# is a new knob, and must have a caller that sets it.
KNOBS = {
    ("ChannelKernel", "means"), ("ChannelKernel", "outputs"), ("ChannelKernel", "pmf"),
    ("ChannelKernel", "variance"), ("FeasiblePairSet", "machine"),
    ("PairDistribution.most_visited", "states"), ("StateMachine", "recover"),
    ("StateMachine.from_tables", "recover"), ("blend_for_construction", "theta"),
    ("build_ensemble", "d"), ("maximize_e0", "seed"), ("maximize_e0", "starts"),
    ("round_type", "arc_cost"), ("simulate", "trial_log"),
}


def public_callables():
    """(label, function) of every public callable the package defines: its
    functions, the __init__ of its classes and their public methods."""
    for name in zerorate.__all__:
        obj = getattr(zerorate, name)
        if not callable(obj) or not obj.__module__.startswith("zerorate"):
            continue  # submodules
        if not inspect.isclass(obj):
            yield name, obj
            continue
        for attr, member in vars(obj).items():
            if isinstance(member, (classmethod, staticmethod)):
                member = member.__func__
            if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                yield (name if attr == "__init__" else f"{name}.{attr}"), member


def test_knob_inventory():
    found = {(label, p.name) for label, fn in public_callables()
             for p in inspect.signature(fn).parameters.values()
             if p.default is not inspect.Parameter.empty}
    assert found == KNOBS


# ------------------------------------------------------------- run report

@pytest.mark.parametrize("argv", [["check"], ["optimize"], ["uce"],
                                  ["build-code", "--n", "64", "--codewords", "4"],
                                  ["simulate", "--n", "64", "--codewords", "4", "--trials", "50"],
                                  ["isi-bound"], ["distances"]], ids=lambda argv: argv[0])
def test_report_bytes_are_the_stdlib_rendering(tmp_path, capsys, argv):
    spec = write_spec(tmp_path, ISI_DOC)
    report_path, out_path = tmp_path / "report.json", tmp_path / "out"
    code, stdout, _ = run_cli(capsys, argv[0], "--spec", spec, "--report", str(report_path),
                              "--out", str(out_path), *argv[1:])
    assert code == 0
    report = json.loads(stdout)
    assert stdout == report_path.read_text() == json.dumps(report) + "\n"
    artifact = out_path.read_bytes().decode()
    if argv[0] == "distances":
        assert report["result"] == {"csv": artifact}
    else:
        assert artifact == json.dumps(report["result"]) + "\n"
