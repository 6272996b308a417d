"""Metamorphic relations between two runs of `zerorate optimize`: a spec and
a transform of it whose exponent is known to stay put or not to rise. No
oracle is needed, so the whole chain spec -> machine -> D -> solve is under
test."""
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cli_out, random_fsc_docs


def optimize(doc: dict) -> tuple[int, dict | None]:
    """The exit code of `optimize --starts 8` on `doc`, and its result on exit 0."""
    code, text = cli_out(doc, "optimize", "--starts", "8")
    return code, json.loads(text) if code == 0 else None


def with_rows(doc: dict, outputs: list, row) -> dict:
    """`doc` with the outputs `outputs` and every pmf row mapped by `row`."""
    fsc = doc["fsc"]
    pmf = {s: {x: row(r) for x, r in rows.items()} for s, rows in fsc["kernel"]["pmf"].items()}
    return {"fsc": {**fsc, "kernel": {"kind": "discrete", "outputs": outputs, "pmf": pmf}}}


@st.composite
def split_docs(draw):
    """A spec, and the spec with output j split into two outputs that receive
    the fractions t and 1 - t of its mass."""
    doc = draw(random_fsc_docs())
    outputs = doc["fsc"]["kernel"]["outputs"]
    j = draw(st.integers(0, len(outputs) - 1))
    t = draw(st.floats(0.01, 0.99))

    def split(r):
        return r[:j] + [t * r[j]] + r[j + 1:] + [(1 - t) * r[j]]

    return doc, with_rows(doc, outputs + ["split"], split)


@st.composite
def garbled_docs(draw):
    """A spec, and the spec with two of its outputs merged into one."""
    doc = draw(random_fsc_docs())
    outputs = doc["fsc"]["kernel"]["outputs"]
    j, k = sorted(draw(st.lists(st.integers(0, len(outputs) - 1), min_size=2, max_size=2,
                                unique=True)))

    def merge(r):
        return r[:j] + [r[j] + r[k]] + r[j + 1:k] + r[k + 1:]

    return doc, with_rows(doc, outputs[:k] + outputs[k + 1:], merge)


@st.composite
def relabeled_docs(draw):
    """A spec, and the spec with its states, symbols and outputs renamed and
    listed in a drawn order; each symbol keeps its value."""
    doc = draw(random_fsc_docs())
    fsc = doc["fsc"]
    states = draw(st.permutations(fsc["states"]))
    alphabet = draw(st.permutations(fsc["alphabet"]))
    order = draw(st.permutations(range(len(fsc["kernel"]["outputs"]))))
    s_name = {s: f"t{i}" for i, s in enumerate(states)}
    x_name = {x: f"a{i}" for i, x in enumerate(alphabet)}
    pmf = fsc["kernel"]["pmf"]
    return doc, {"fsc": {
        "states": [s_name[s] for s in states],
        "alphabet": [x_name[x] for x in alphabet],
        "values": {x_name[x]: fsc["alphabet"].index(x) for x in alphabet},
        "next_state": {s_name[s]: {x_name[x]: s_name[fsc["next_state"][s][x]]
                                   for x in alphabet} for s in states},
        "kernel": {"kind": "discrete", "outputs": [f"z{i}" for i in range(len(order))],
                   "pmf": {s_name[s]: {x_name[x]: [pmf[s][x][i] for i in order]
                                       for x in alphabet} for s in states}},
        "cost": {"phi": {x_name[x]: fsc["cost"]["phi"][x] for x in alphabet},
                 "gamma": fsc["cost"]["gamma"]}}}


@settings(max_examples=10, deadline=None)
@given(split_docs())
def test_splitting_an_output_keeps_the_value(docs):
    (code, res), (split_code, split_res) = map(optimize, docs)
    assert split_code == code
    if code == 0:
        assert abs(split_res["value"] - res["value"]) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(garbled_docs())
def test_merging_outputs_never_raises_the_value(docs):
    (code, res), (merged_code, merged_res) = map(optimize, docs)
    if code == 0 and merged_code == 0:
        assert merged_res["value"] <= res["value"] + 1e-12


@settings(max_examples=10, deadline=None)
@given(relabeled_docs())
def test_relabeling_keeps_a_concave_value(docs):
    (code, res), (relabeled_code, relabeled_res) = map(optimize, docs)
    assert relabeled_code == code
    if code == 0 and res["concave"] and relabeled_res["concave"]:
        assert abs(relabeled_res["value"] - res["value"]) <= 1e-9
