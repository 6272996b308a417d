import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

import zerorate as zr
from zerorate import cli
from zerorate.isi import IsiSpec, build_isi_machine


@pytest.fixture(scope="session")
def order1():
    m = zr.shift_register([1.0, -1.0], 1)
    return m, zr.feasible_pairs(m)


@pytest.fixture(scope="session")
def order2():
    m = zr.shift_register([1.0, -1.0], 2)
    return m, zr.feasible_pairs(m)


def make_bsc(p=0.1):
    """Memoryless binary channel as an augmented one-state machine."""
    base = zr.StateMachine(("s",), ("0", "1"), (0.0, 1.0),
                           np.zeros((1, 2), dtype=np.int64))
    m = zr.augment(base)
    pairs = zr.feasible_pairs(m)
    rows = [[1 - p, p] if s == 0 else [p, 1 - p] for s in pairs.symbols]
    kern = zr.discrete_kernel(("0", "1"), rows)
    return m, pairs, kern, zr.bhattacharyya(kern, pairs)


def make_isi(h, levels=(1.0, -1.0), sigma2=1.0, gamma=1.0):
    spec = IsiSpec(np.asarray(h, float), sigma2, np.asarray(levels, float), gamma)
    machine, kern = build_isi_machine(spec)
    pairs = zr.feasible_pairs(machine)
    d = zr.bhattacharyya(kern, pairs)
    cost = zr.CostModel(np.asarray(machine.values) ** 2, gamma)
    return spec, machine, pairs, kern, d, cost


def make_dmc(dhat, values=None, phi=None, gamma=0.0):
    """K-symbol memoryless channel with a hand-set symbol distance matrix,
    embedded as the augmented one-state machine."""
    K = len(dhat)
    names = tuple(chr(ord("A") + i) for i in range(K))
    vals = tuple(float(i) for i in range(K)) if values is None else tuple(values)
    base = zr.StateMachine(("s",), names, vals, np.zeros((1, K), dtype=np.int64))
    m = zr.augment(base)
    pairs = zr.feasible_pairs(m)
    L = len(pairs)
    D = np.empty((L, L))
    for i in range(L):
        for j in range(L):
            D[i, j] = dhat[pairs.symbols[i], pairs.symbols[j]]
    cost = zr.CostModel(np.zeros(K) if phi is None else np.asarray(phi, float), gamma)
    return m, pairs, zr.DistanceMatrix(D), cost


NONCONCAVE_DHAT = np.array([[0.0, 1.0, 0.1],
                            [1.0, 0.0, 0.1],
                            [0.1, 0.1, 0.0]])
NONCONCAVE_PHI = np.array([1.0, 1.0, 0.0])
NONCONCAVE_GAMMA = 0.5


# A 4-state, 3-symbol channel on which a symbol copying x0 made a projection
# of `optimize` fail: NNLS returned a wrong point on a degenerate
# least-distance program, and the polytope was declared empty.
DEGENERATE_NNLS_DOC = {"fsc": {
    "states": ["s0", "s1", "s2", "s3"], "alphabet": ["x0", "x1", "x2"],
    "next_state": {"s0": {"x0": "s3", "x1": "s0", "x2": "s3"},
                   "s1": {"x0": "s0", "x1": "s0", "x2": "s1"},
                   "s2": {"x0": "s3", "x1": "s3", "x2": "s0"},
                   "s3": {"x0": "s0", "x1": "s0", "x2": "s2"}},
    "kernel": {"kind": "discrete", "outputs": ["y0", "y1"], "pmf": {
        "s0": {"x0": [0.5867, 0.4133], "x1": [0.6291, 0.3709], "x2": [0.6602, 0.3398]},
        "s1": {"x0": [0.8512, 0.1488], "x1": [0.2693, 0.7307], "x2": [0.9335, 0.0665]},
        "s2": {"x0": [0.6472, 0.3528], "x1": [0.0405, 0.9595], "x2": [0.3028, 0.6972]},
        "s3": {"x0": [0.8879, 0.1121], "x1": [0.9273, 0.0727], "x2": [0.9204, 0.0796]}}}}}


def duplicate_symbol(doc: dict, x: str) -> dict:
    """The fsc spec `doc` with one more symbol, `dup`, that copies the next
    states, pmf rows and cost of the symbol `x`."""
    fsc = doc["fsc"]
    out = {**fsc, "alphabet": fsc["alphabet"] + ["dup"],
           "next_state": {s: {**row, "dup": row[x]} for s, row in fsc["next_state"].items()},
           "kernel": {**fsc["kernel"], "pmf": {s: {**rows, "dup": rows[x]}
                                               for s, rows in fsc["kernel"]["pmf"].items()}}}
    if "cost" in fsc:
        out["cost"] = {**fsc["cost"], "phi": {**fsc["cost"]["phi"], "dup": fsc["cost"]["phi"][x]}}
    return {"fsc": out}


def cli_out(doc: dict, *argv) -> tuple[int, str | None]:
    """The exit code of `zerorate <argv>` on the spec `doc`, run in this
    process with stdout and stderr silenced, and its --out text on exit 0."""
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = Path(tmp) / "spec.json", Path(tmp) / "out"
        spec.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.run([argv[0], "--spec", str(spec), "--out", str(out), *argv[1:]])
        return code, out.read_text() if code == 0 else None


@st.composite
def random_fsc_docs(draw):
    """fsc specs with 2-4 states, 2-3 symbols, 2-4 outputs, Dirichlet pmf
    rows, symbol costs in {0, 1, 2} and a budget inside their range."""
    S, K, Y = draw(st.integers(2, 4)), draw(st.integers(2, 3)), draw(st.integers(2, 4))
    states = [f"s{i}" for i in range(S)]
    alphabet = [f"x{i}" for i in range(K)]
    nxt = draw(st.lists(st.sampled_from(states), min_size=S * K, max_size=S * K))
    phi = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=K, max_size=K))
    gamma = draw(st.floats(min(phi), max(phi)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return {"fsc": {
        "states": states, "alphabet": alphabet,
        "next_state": {s: dict(zip(alphabet, nxt[i * K:(i + 1) * K]))
                       for i, s in enumerate(states)},
        "kernel": {"kind": "discrete", "outputs": [f"y{i}" for i in range(Y)],
                   "pmf": {s: {x: rng.dirichlet(np.ones(Y)).tolist() for x in alphabet}
                           for s in states}},
        "cost": {"phi": dict(zip(alphabet, phi)), "gamma": gamma}}}
