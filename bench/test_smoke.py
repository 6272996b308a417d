"""Self-check of the benchmark: every workload at a tiny size emits every
metric named in BENCHMARK.json, and the output checks reject a bad code.

    python3 -m pytest -q bench/test_smoke.py
"""
import dataclasses
import json
import sys

import pytest

import checks
import run
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))
from zerorate import cli  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Flag values small enough for a pass of a second or two. Steps on another
# spec keep their sizes: the time-sharing failure is stated for n=512.
TINY = {"--n": "64", "--trials": "20", "--codewords": "4", "--rhos": "1", "--k-list": "8,16"}


def tiny(name: str):
    wl = WORKLOADS[name]
    steps = []
    for command, *rest in wl.steps:
        if "--spec" not in rest:
            rest = [TINY.get(prev, tok) for prev, tok in zip([None, *rest], rest)]
        steps.append((command, *rest))
    return dataclasses.replace(wl, steps=tuple(steps))


def run_bench(capsys, name: str, trace: int) -> dict:
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0, "\n".join(lines)
    return json.loads(lines[-1])


def test_benchmark_names_match_runner():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_emits_every_metric(name, capsys, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, name, tiny(name))
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    for trace, expected in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        result = run_bench(capsys, name, trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= len(WORKLOADS[name].steps)
        assert list(result["metrics"]) == list(expected)
    known = sum(s[0] == "build-code" and "--spec" in s for s in WORKLOADS[name].steps)
    assert result["metrics"]["fail_share"]["value"] == pytest.approx(
        known / len(WORKLOADS[name].steps))


def test_duplicate_codewords_fail_the_check(tmp_path, capsys):
    spec_doc = json.loads((run.ROOT / "specs/isi_binary.json").read_text(encoding="utf-8"))
    out = tmp_path / "book.json"
    assert cli.run(
        ["build-code", "--spec", str(run.ROOT / "specs/isi_binary.json"), "--n", "64",
         "--codewords", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    book = json.loads(out.read_text(encoding="utf-8"))
    assert checks.check_codebook(book, spec_doc, 64, 4) == []
    book["codewords"][1] = book["codewords"][0]
    assert any("distinct" in p for p in checks.check_codebook(book, spec_doc, 64, 4))


def test_missing_sources_exit_without_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "gauss-sim", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
