"""Write the two discrete channel specs the benchmark uses.

    python3 bench/make_specs.py

Each pmf row is rounded to 6 decimals and its last cell takes the
remainder, so the committed JSON files are reproduced byte for byte.
"""
from __future__ import annotations

import json
from pathlib import Path

from scipy.special import ndtr

SPEC_DIR = Path(__file__).resolve().parent / "specs"
EDGES = (-2.25, -1.5, -0.75, 0.0, 0.75, 1.5, 2.25)


def rounded_row(cells) -> list[float]:
    row = [round(float(p), 6) for p in cells[:-1]]
    return row + [round(1.0 - sum(row), 6)]


def quantized_two_tap() -> dict:
    """Inputs +-1, state = previous input, y = x_t + 0.5 x_{t-1} + N(0, 1)
    quantized into 8 cells at EDGES."""
    levels = {"-": -1.0, "+": 1.0}
    pmf = {}
    for prev, xp in levels.items():
        pmf[prev] = {}
        for cur, xc in levels.items():
            mean = xc + 0.5 * xp
            cdf = [0.0] + [float(ndtr(e - mean)) for e in EDGES] + [1.0]
            pmf[prev][cur] = rounded_row([b - a for a, b in zip(cdf, cdf[1:])])
    return {"fsc": {
        "states": ["-", "+"],
        "alphabet": ["-", "+"],
        "values": levels,
        "next_state": {s: {x: x for x in levels} for s in levels},
        "recover": {s: s for s in levels},
        "kernel": {"kind": "discrete",
                   "outputs": [f"y{i}" for i in range(len(EDGES) + 1)],
                   "pmf": pmf},
        "cost": {"phi": {"-": 1.0, "+": 1.0}, "gamma": 1.0},
    }}


def time_sharing() -> dict:
    """Inputs A=+1, B=-1, C=0, state = previous input; the row for
    (prev, cur) is 0.8 base[cur] + 0.2 base[prev]. Costs phi(A)=phi(B)=1,
    phi(C)=0 with gamma 0.3 make the budget bind."""
    a = [0.90, 0.08, 0.015, 0.005]
    base = {"A": a, "B": a[::-1], "C": [0.30, 0.25, 0.25, 0.20]}
    syms = list(base)
    pmf = {prev: {cur: rounded_row([0.8 * c + 0.2 * p
                                    for c, p in zip(base[cur], base[prev])])
                  for cur in syms}
           for prev in syms}
    return {"fsc": {
        "states": syms,
        "alphabet": syms,
        "values": {"A": 1.0, "B": -1.0, "C": 0.0},
        "next_state": {s: {x: x for x in syms} for s in syms},
        "recover": {s: s for s in syms},
        "kernel": {"kind": "discrete",
                   "outputs": ["o0", "o1", "o2", "o3"],
                   "pmf": pmf},
        "cost": {"phi": {"A": 1.0, "B": 1.0, "C": 0.0}, "gamma": 0.3},
    }}


def main() -> None:
    for name, doc in (("quantized_two_tap.json", quantized_two_tap()),
                      ("time_sharing.json", time_sharing())):
        (SPEC_DIR / name).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
