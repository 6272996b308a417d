"""Command-line front end.

Subcommands: check, distances, optimize, uce, build-code, simulate, zrho,
isi-bound, isi-loss. Channel specifications are JSON documents with either
a general "fsc" block or an "isi" shortcut block. --out receives the bare
result artifact (JSON object or RFC-4180 CSV) so identical seeds give
byte-identical files; the full run report (spec echo, seeds, version,
timings) goes to stdout or --report.

Exit codes: 0 success, 1 validation failure, 2 infeasibility; the reason
appears as one machine-parsable line on stderr.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bhatt import (ChannelKernel, bhattacharyya, discrete_kernel,
                    gaussian_kernel)
from .codebook import Codebook, blend_for_construction, build_codebook
from .errors import InfeasibleError, ValidationError
from .exponent import CostModel, SolverOptions, TimeSharingPlan, e0, maximize_e0
from .fsm import (StateMachine, augment, augment_origin, check_structure,
                  feasible_pairs)
from .isi import (IsiSpec, build_isi_machine, choose_amplitude, gray_stats,
                  irrationalize, quantization_loss, spectral_bound)
from .montecarlo import simulate, z_rho_sweep


@dataclass
class LoadedChannel:
    doc: dict
    machine: StateMachine
    pairs: object
    kernel: ChannelKernel
    cost: CostModel
    augmented: bool
    isi: IsiSpec | None


def _require(cond, msg):
    if not cond:
        raise ValidationError(msg)


def load_channel(doc: dict) -> LoadedChannel:
    _require(isinstance(doc, dict), "spec document must be a JSON object")
    has_fsc, has_isi = "fsc" in doc, "isi" in doc
    _require(has_fsc != has_isi, "exactly one of 'fsc' or 'isi' blocks must be present")
    if has_isi:
        blk = doc["isi"]
        for key in ("h", "sigma2", "levels", "gamma"):
            _require(key in blk, f"isi block missing '{key}'")
        spec = IsiSpec(np.asarray(blk["h"], dtype=float), float(blk["sigma2"]),
                       np.asarray(blk["levels"], dtype=float), float(blk["gamma"]))
        machine, kernel = build_isi_machine(spec)
        pairs = feasible_pairs(machine)
        phi = np.asarray(machine.values) ** 2
        return LoadedChannel(doc, machine, pairs, kernel,
                             CostModel(phi, spec.gamma), spec.k == 0, spec)

    blk = doc["fsc"]
    for key in ("states", "alphabet", "next_state", "kernel"):
        _require(key in blk, f"fsc block missing '{key}'")
    values = blk.get("values") or {x: i for i, x in enumerate(blk["alphabet"])}
    base = StateMachine.from_tables(blk["states"], blk["alphabet"], values,
                                    blk["next_state"], blk.get("recover"))
    augmented = base.recover is None
    if augmented:
        origin = augment_origin(base)
        machine = augment(base)
    else:
        origin = None
        machine = base
    pairs = feasible_pairs(machine)

    # kernel rows are keyed by the pre-augmentation (state, symbol)
    if augmented:
        row_state = np.array([origin[t][0] for t in pairs.tails], dtype=np.int64)
    else:
        row_state = pairs.tails
    kblk = blk["kernel"]
    _require(kblk.get("kind") in ("discrete", "gaussian"),
             "kernel kind must be 'discrete' or 'gaussian'")
    if kblk["kind"] == "discrete":
        _require("outputs" in kblk and "pmf" in kblk, "discrete kernel needs outputs and pmf")
        outs = list(kblk["outputs"])
        rows = []
        for a in range(len(pairs)):
            st = base.states[row_state[a]]
            sym = machine.alphabet[pairs.symbols[a]]
            try:
                rows.append(kblk["pmf"][st][sym])
            except (KeyError, TypeError):
                raise ValidationError(f"pmf missing row for state {st!r}, symbol {sym!r}") from None
        kernel = discrete_kernel(outs, rows)
    else:
        _require("mean" in kblk and "variance" in kblk, "gaussian kernel needs mean and variance")
        means = []
        for a in range(len(pairs)):
            st = base.states[row_state[a]]
            sym = machine.alphabet[pairs.symbols[a]]
            try:
                means.append(float(kblk["mean"][st][sym]))
            except (KeyError, TypeError):
                raise ValidationError(f"mean missing for state {st!r}, symbol {sym!r}") from None
        kernel = gaussian_kernel(means, float(kblk["variance"]))

    cblk = blk.get("cost")
    if cblk is None:
        cost = CostModel.free(machine.n_symbols)
    else:
        phi = np.array([float(cblk["phi"][x]) for x in machine.alphabet])
        cost = CostModel(phi, float(cblk["gamma"]))
    return LoadedChannel(doc, machine, pairs, kernel, cost, augmented, None)


def _float_str(v) -> str:
    if v == float("inf"):
        return "inf"
    return repr(float(v))


def _q_as_dict(pairs, q: np.ndarray) -> dict:
    labels = pairs.pair_labels()
    return {labels[i]: float(q[i]) for i in range(len(q)) if q[i] > 0}


def _argmax_dict(plan: TimeSharingPlan, pairs, single: bool) -> dict:
    """The plan as a time-sharing block, or as its one distribution when
    `single` (the solve skipped time sharing)."""
    if single:
        return {"kind": "single", "q": _q_as_dict(pairs, plan.mixture().q)}
    return {
        "kind": "time_sharing",
        "anchor": str(pairs.machine.states[plan.anchor])
        if pairs.machine else int(plan.anchor),
        "weights": [float(w) for w in plan.weights],
        "components": [_q_as_dict(pairs, c.q) for c in plan.components],
    }


def _solver_opts(args) -> SolverOptions:
    return SolverOptions(tol=args.tol, starts=args.starts, seed=args.seed)


def cmd_check(ch: LoadedChannel, args):
    rep = check_structure(ch.machine, args.max_r)
    d = bhattacharyya(ch.kernel, ch.pairs)
    out = {
        "n_states": ch.machine.n_states,
        "n_symbols": ch.machine.n_symbols,
        "n_pairs": len(ch.pairs),
        "augmented": ch.augmented,
        "irreducible": rep.irreducible,
        "doubly_irreducible": rep.doubly_irreducible,
        "approach_state": None if rep.approach_state is None else {
            "state": str(ch.machine.states[rep.approach_state[0]]),
            "r": rep.approach_state[1],
        },
        "infinite_distances": bool(d.has_infinite),
    }
    return out, "json"


def cmd_distances(ch: LoadedChannel, args):
    d = bhattacharyya(ch.kernel, ch.pairs)
    labels = ch.pairs.pair_labels()
    rows = [["pair"] + labels]
    for i, lab in enumerate(labels):
        rows.append([lab] + [_float_str(v) for v in d.d[i]])
    return rows, "csv"


def cmd_optimize(ch: LoadedChannel, args):
    d = bhattacharyya(ch.kernel, ch.pairs)
    res = maximize_e0(d, ch.pairs, ch.cost, _solver_opts(args))
    out = {
        "value": res.value,
        "concave": res.concave,
        "scc_id": res.scc_id,
        "support_connected": res.support_connected,
        "argmax": _argmax_dict(res.argmax, ch.pairs, res.concave),
    }
    return out, "json"


def cmd_uce(ch: LoadedChannel, args):
    d = bhattacharyya(ch.kernel, ch.pairs)
    res = maximize_e0(d, ch.pairs, ch.cost, _solver_opts(args))
    out = {
        "value": res.value,
        "single_value": res.single_value,
        "anchor": str(ch.machine.states[res.argmax.anchor]),
        "plan": _argmax_dict(res.argmax, ch.pairs, False),
    }
    return out, "json"


def _build_codebook(ch: LoadedChannel, args) -> Codebook:
    d = bhattacharyya(ch.kernel, ch.pairs)
    res = maximize_e0(d, ch.pairs, ch.cost, _solver_opts(args))
    return build_codebook(res.argmax, d, ch.cost, args.n, args.codewords, args.seed,
                          ch.machine, args.blend, args.rho)[0]


def cmd_build_code(ch: LoadedChannel, args):
    book = _build_codebook(ch, args)
    return book.to_json_dict(), "json"


def _read_json(path: str, what: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{what} is not valid JSON: {exc}") from None


def cmd_simulate(ch: LoadedChannel, args):
    if args.code:
        book = Codebook.from_json_dict(_read_json(args.code, "codebook"), ch.machine, ch.pairs)
    else:
        book = _build_codebook(ch, args)
    rep = simulate(ch.kernel, book, args.trials, args.seed,
                   trial_log=args.trial_log)
    out = rep.to_json_dict()
    out["min_pair_distance"] = book.min_pair_distance
    out["M"] = book.M
    return out, "json"


def cmd_zrho(ch: LoadedChannel, args):
    d = bhattacharyya(ch.kernel, ch.pairs)
    res = maximize_e0(d, ch.pairs, ch.cost, _solver_opts(args))
    q, _, _ = blend_for_construction(res.argmax.mixture(), None, max(args.n, 64), args.blend)
    ref = e0(q, d)
    if args.rhos:
        rhos = [float(tok) for tok in args.rhos.split(",")]
    else:
        rhos = [1.0]
        while rhos[-1] * 4 <= args.rho_max:
            rhos.append(rhos[-1] * 4)
    results = z_rho_sweep(q, d, rhos)
    rows = [["rho", "z_value", "delta", "cross_term", "minus_e0_qstar"]]
    for rho, r in zip(sorted(rhos), results):
        rows.append([_float_str(rho), _float_str(r.value), _float_str(r.delta),
                     _float_str(r.cross_term), _float_str(-ref)])
    return rows, "csv"


def _isi_only(ch: LoadedChannel) -> IsiSpec:
    _require(ch.isi is not None, "this subcommand requires an 'isi' spec block")
    return ch.isi


def _uniform_delta(levels: np.ndarray) -> float:
    lv = np.sort(np.asarray(levels, dtype=float))
    gaps = np.diff(lv)
    _require(gaps.size > 0 and np.allclose(gaps, gaps[0], rtol=1e-9, atol=1e-12),
             "levels must be a uniform grid for the quantized-sinusoid analysis")
    return float(gaps[0])


def _isi_bound_dict(spec: IsiSpec) -> dict:
    value, omega_star = spectral_bound(spec)
    delta = _uniform_delta(spec.levels)
    max_level = float(np.max(np.abs(spec.levels)))
    a_amp = choose_amplitude(spec.gamma, delta, max_level)
    omega0, perturbed = irrationalize(omega_star)
    stats = gray_stats(a_amp, delta, omega0)
    loss = quantization_loss(spec, a_amp, omega_star, stats)
    return {
        "h": spec.h.tolist(),
        "sigma2": spec.sigma2,
        "gamma": spec.gamma,
        "levels": spec.levels.tolist(),
        "spectral_bound": value,
        "omega_star": omega_star,
        "omega0": omega0,
        "omega0_perturbed": perturbed,
        "A": a_amp,
        "delta": delta,
        "Lambda": loss.Lambda,
        "lower_bound": loss.lower_bound,
        "power_used": loss.power_used,
        "eps_truncation_m": int(len(stats.eps)),
        "eps_tail_mass": stats.tail_mass,
    }


def cmd_isi_bound(ch: LoadedChannel, args):
    return _isi_bound_dict(_isi_only(ch)), "json"


def cmd_isi_loss(ch: LoadedChannel, args):
    spec = _isi_only(ch)
    base_delta = _uniform_delta(spec.levels)
    base_k = len(spec.levels)
    ks = [int(tok) for tok in args.k_list.split(",")]
    value, omega_star = spectral_bound(spec)
    omega0, _ = irrationalize(omega_star)
    rows = [["K", "delta", "A", "Lambda", "lower_bound", "spectral_bound"]]
    for k in ks:
        _require(k >= 2 and k % 2 == 0, "quantizer sizes must be even and >= 2")
        delta = base_delta * base_k / k
        max_level = (k - 1) * delta / 2.0
        a_amp = choose_amplitude(spec.gamma, delta, max_level)
        stats = gray_stats(a_amp, delta, omega0)
        loss = quantization_loss(spec, a_amp, omega_star, stats)
        rows.append([str(k), _float_str(delta), _float_str(a_amp),
                     _float_str(loss.Lambda), _float_str(loss.lower_bound),
                     _float_str(value)])
    return rows, "csv"


# Every optional flag once; a subcommand registers only the flags it reads.
FLAGS = {
    "--n": dict(type=int, default=512, help="block length"),
    "--codewords": dict(type=int, default=4, help="codebook size M"),
    "--trials": dict(type=int, default=10_000),
    "--tol": dict(type=float, default=1e-9),
    "--starts": dict(type=int, default=32),
    "--max-r": dict(type=int, default=None),
    "--blend": dict(type=float, default=None,
                    help="mixing weight toward the uniform circulation when the "
                         "argmax support needs repair (default: auto)"),
    "--rho": dict(type=float, default=None, help="expurgation rho (default: geometric sweep)"),
    "--rhos": dict(type=str, default=None, help="comma list for the zrho sweep"),
    "--rho-max": dict(type=float, default=1024.0,
                      help="zrho sweeps powers of 4 up to this value"),
    "--trial-log": dict(type=str, default=None, help="per-trial CSV log for simulate"),
    "--code": dict(type=str, default=None, help="codebook JSON produced by build-code"),
    "--k-list": dict(type=str, default="8,16,32"),
}
_SOLVER = ("--tol", "--starts")
_BUILD = _SOLVER + ("--n", "--codewords", "--blend", "--rho")
# subcommand -> (handler, the optional flags it reads)
COMMANDS = {
    "check": (cmd_check, ("--max-r",)),
    "distances": (cmd_distances, ()),
    "optimize": (cmd_optimize, _SOLVER),
    "uce": (cmd_uce, _SOLVER),
    "build-code": (cmd_build_code, _BUILD),
    "simulate": (cmd_simulate, _BUILD + ("--trials", "--trial-log", "--code")),
    "zrho": (cmd_zrho, _SOLVER + ("--n", "--blend", "--rhos", "--rho-max")),
    "isi-bound": (cmd_isi_bound, ()),
    "isi-loss": (cmd_isi_loss, ("--k-list",)),
}


def _render(result, kind: str) -> str:
    if kind == "json":
        return json.dumps(result, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerows(result)
    return buf.getvalue()


class _Parser(argparse.ArgumentParser):
    """Usage errors are validation failures (exit 1); exit 2 means infeasible."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zerorate",
        description="Zero-rate reliability of finite-state channels with "
                    "input-dependent states.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="channel spec JSON path")
        p.add_argument("--out", default=None, help="result artifact path (default stdout report only)")
        p.add_argument("--report", default=None, help="full run-report JSON path")
        p.add_argument("--seed", type=int, default=0)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        t0 = time.perf_counter()
        doc = _read_json(args.spec, "spec")
        ch = load_channel(doc)
        result, kind = COMMANDS[args.command][0](ch, args)
    except ValidationError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 1
    artifact = _render(result, kind)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(artifact)
    report = {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "spec_echo": doc,
        "wall_clock_s": time.perf_counter() - t0,
        "result": result if kind == "json" else {"csv": artifact},
    }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    print(json.dumps(report, indent=2))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
