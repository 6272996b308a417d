"""Command-line front end.

Subcommands: check, distances, optimize, uce, build-code, simulate, zrho,
isi-bound, isi-loss. Channel specifications are JSON documents with either
a general "fsc" block or an "isi" shortcut block. --out receives the bare
result artifact (JSON object or RFC-4180 CSV) so identical seeds give
byte-identical files; the full run report goes to stdout and --report, the
same bytes to both. The report is a header (command, version, seed, spec
echo, wall clock) whose last key, "result", holds the --out object (a CSV
artifact is the string {"csv": ...}). All JSON is one line, json.dumps(obj)
with the stdlib's defaults.

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
from .errors import InfeasibleError, ValidationError
from .fsm import (CostModel, StateMachine, augment, augment_origin,
                  check_structure, feasible_pairs)

# Loading a channel needs only the modules above (and isi for an "isi" block);
# each handler imports the layers it runs, so a process loads only those.


@dataclass
class LoadedChannel:
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
    """The channel of a spec document; a value it cannot read raises ValidationError."""
    try:
        return _read_channel(doc)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed spec: {type(exc).__name__}: {exc}") from None


def _read_channel(doc: dict) -> LoadedChannel:
    _require(isinstance(doc, dict), "spec document must be a JSON object")
    has_fsc, has_isi = "fsc" in doc, "isi" in doc
    _require(has_fsc != has_isi, "exactly one of 'fsc' or 'isi' blocks must be present")
    if has_isi:
        from .isi import IsiSpec, build_isi_machine
        blk = doc["isi"]
        spec = IsiSpec(np.asarray(blk["h"], dtype=float), float(blk["sigma2"]),
                       np.asarray(blk["levels"], dtype=float), float(blk["gamma"]))
        machine, kernel = build_isi_machine(spec)
        pairs = feasible_pairs(machine)
        phi = np.asarray(machine.values) ** 2
        return LoadedChannel(machine, pairs, kernel,
                             CostModel(phi, spec.gamma), spec.k == 0, spec)

    blk = doc["fsc"]
    values = blk.get("values") or {x: i for i, x in enumerate(blk["alphabet"])}
    base = StateMachine.from_tables(blk["states"], blk["alphabet"], values,
                                    blk["next_state"], blk.get("recover"))
    augmented = base.recover is None
    machine = augment(base) if augmented else base
    pairs = feasible_pairs(machine)
    kblk = blk["kernel"]
    _require(kblk.get("kind") in ("discrete", "gaussian"),
             "kernel kind must be 'discrete' or 'gaussian'")
    # kernel tables are keyed by the pre-augmentation (state, symbol) of each pair
    tail_state = [s for s, _ in augment_origin(base)] if augmented else range(base.n_states)
    cells = [(base.states[tail_state[t]], machine.alphabet[x])
             for t, x in zip(pairs.tails, pairs.symbols)]

    def table(key, missing, convert=lambda v: v):
        rows = []
        for st, sym in cells:
            try:
                rows.append(convert(kblk[key][st][sym]))
            except (KeyError, TypeError):
                raise ValidationError(f"{missing} for state {st!r}, symbol {sym!r}") from None
        return rows

    if kblk["kind"] == "discrete":
        kernel = discrete_kernel(list(kblk["outputs"]), table("pmf", "pmf missing row"))
    else:
        kernel = gaussian_kernel(table("mean", "mean missing", float), float(kblk["variance"]))

    cblk = blk.get("cost")
    if cblk is None:
        cost = CostModel.free(machine.n_symbols)
    else:
        phi = np.array([float(cblk["phi"][x]) for x in machine.alphabet])
        cost = CostModel(phi, float(cblk["gamma"]))
    return LoadedChannel(machine, pairs, kernel, cost, augmented, None)


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
        "anchor": str(pairs.machine.states[plan.anchor]),
        "weights": [float(w) for w in plan.weights],
        "components": [_q_as_dict(pairs, c.q) for c in plan.components],
    }


def _solve(ch: LoadedChannel, args):
    """The distance matrix and the exponent solve under the solver flags."""
    from .exponent import maximize_e0
    d = bhattacharyya(ch.kernel, ch.pairs)
    return d, maximize_e0(d, ch.pairs, ch.cost, args.starts, args.seed)


def cmd_check(ch: LoadedChannel, args):
    rep = check_structure(ch.machine)
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
        rows.append([lab] + [repr(float(v)) for v in d.d[i]])
    return rows, "csv"


def cmd_optimize(ch: LoadedChannel, args):
    _, res = _solve(ch, args)
    out = {
        "value": res.value,
        "concave": res.concave,
        "scc_id": res.scc_id,
        "support_connected": res.support_connected,
        "argmax": _argmax_dict(res.argmax, ch.pairs, res.concave),
    }
    return out, "json"


def cmd_uce(ch: LoadedChannel, args):
    _, res = _solve(ch, args)
    out = {
        "value": res.value,
        "single_value": res.single_value,
        "anchor": str(ch.machine.states[res.argmax.anchor]),
        "plan": _argmax_dict(res.argmax, ch.pairs, False),
    }
    return out, "json"


def _build_codebook(ch: LoadedChannel, args) -> Codebook:
    from .codebook import build_codebook
    d, res = _solve(ch, args)
    return build_codebook(res.argmax, d, ch.cost, args.n, args.codewords, args.seed,
                          ch.machine)


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
    from .codebook import Codebook
    from .montecarlo import simulate
    if args.code:
        book = Codebook.from_json_dict(_read_json(args.code, "codebook"), ch.machine, ch.pairs,
                                       bhattacharyya(ch.kernel, ch.pairs))
    else:
        book = _build_codebook(ch, args)
    rep = simulate(ch.kernel, book, args.trials, args.seed,
                   trial_log=args.trial_log)
    out = rep.to_json_dict()
    out["min_pair_distance"] = book.min_pair_distance
    out["M"] = book.M
    return out, "json"


def cmd_zrho(ch: LoadedChannel, args):
    from .codebook import blend_for_construction
    from .exponent import e0
    from .montecarlo import z_rho_sweep
    d, res = _solve(ch, args)
    q, _, _ = blend_for_construction(res.argmax.mixture(), None, max(args.n, 64))
    ref = e0(q, d)
    rhos = args.rhos or [4.0 ** k for k in range(6)]
    results = z_rho_sweep(q, d, rhos)
    rows = [["rho", "z_value", "delta", "cross_term", "minus_e0_qstar"]]
    for rho, r in zip(sorted(rhos), results):
        rows.append([repr(float(v)) for v in (rho, r.value, r.delta, r.cross_term, -ref)])
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


def _quantizer(spec: IsiSpec, omega_star: float, omega0: float, delta: float,
               max_level: float):
    """Statistics and loss of the quantized sinusoid on a uniform grid of step
    delta, at the largest amplitude within the power budget."""
    from .isi import choose_amplitude, gray_stats, quantization_loss
    stats = gray_stats(choose_amplitude(spec.gamma, delta, max_level), delta, omega0)
    return stats, quantization_loss(spec, omega_star, stats)


def cmd_isi_bound(ch: LoadedChannel, args):
    from .isi import irrationalize, spectral_bound
    spec = _isi_only(ch)
    value, omega_star = spectral_bound(spec)
    delta = _uniform_delta(spec.levels)
    omega0, perturbed = irrationalize(omega_star)
    stats, loss = _quantizer(spec, omega_star, omega0, delta,
                             float(np.max(np.abs(spec.levels))))
    out = {
        "h": spec.h.tolist(),
        "sigma2": spec.sigma2,
        "gamma": spec.gamma,
        "levels": spec.levels.tolist(),
        "spectral_bound": value,
        "omega_star": omega_star,
        "omega0": omega0,
        "omega0_perturbed": perturbed,
        "A": stats.A,
        "delta": delta,
        "Lambda": loss.Lambda,
        "lower_bound": loss.lower_bound,
        "power_used": loss.power_used,
        "eps_truncation_m": int(len(stats.eps)),
        "eps_tail_mass": stats.tail_mass,
    }
    return out, "json"


def cmd_isi_loss(ch: LoadedChannel, args):
    from .isi import irrationalize, spectral_bound
    spec = _isi_only(ch)
    base_delta = _uniform_delta(spec.levels)
    value, omega_star = spectral_bound(spec)
    omega0, _ = irrationalize(omega_star)
    rows = [["K", "delta", "A", "Lambda", "lower_bound", "spectral_bound"]]
    for k in args.k_list:
        delta = base_delta * len(spec.levels) / k
        stats, loss = _quantizer(spec, omega_star, omega0, delta, (k - 1) * delta / 2.0)
        rows.append([str(k)] + [repr(float(v)) for v in
                                (delta, stats.A, loss.Lambda, loss.lower_bound, value)])
    return rows, "csv"


def _comma_list(convert, valid, name: str):
    """A flag type: a comma list of values `valid` accepts, named `name` in usage errors."""
    def parse(text: str) -> list:
        vals = [convert(tok) for tok in text.split(",")]
        if not all(map(valid, vals)):
            raise ValueError(text)
        return vals
    parse.__name__ = name
    return parse


# Every optional flag once; a subcommand registers only the flags it reads.
FLAGS = {
    "--n": dict(type=int, default=512, help="block length"),
    "--codewords": dict(type=int, default=4, help="codebook size M"),
    "--trials": dict(type=int, default=10_000),
    "--starts": dict(type=int, default=32),
    "--rhos": dict(type=_comma_list(float, lambda r: 0 < r < float("inf"), "positive number list"),
                   default=None,
                   help="comma list for the zrho sweep (default 1,4,16,...,1024)"),
    "--trial-log": dict(type=str, default=None, help="per-trial CSV log for simulate"),
    "--code": dict(type=str, default=None, help="codebook JSON produced by build-code"),
    "--k-list": dict(type=_comma_list(int, lambda k: k >= 2 and k % 2 == 0, "even int list"),
                     default="8,16,32"),
}
_SOLVER = ("--starts",)
_BUILD = _SOLVER + ("--n", "--codewords")
# subcommand -> (handler, the optional flags it reads)
COMMANDS = {
    "check": (cmd_check, ()),
    "distances": (cmd_distances, ()),
    "optimize": (cmd_optimize, _SOLVER),
    "uce": (cmd_uce, _SOLVER),
    "build-code": (cmd_build_code, _BUILD),
    "simulate": (cmd_simulate, _BUILD + ("--trials", "--trial-log", "--code")),
    "zrho": (cmd_zrho, _SOLVER + ("--n", "--rhos")),
    "isi-bound": (cmd_isi_bound, ()),
    "isi-loss": (cmd_isi_loss, ("--k-list",)),
}


def _render(result, kind: str) -> str:
    if kind == "json":
        return json.dumps(result) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerows(result)
    return buf.getvalue()


class _Parser(argparse.ArgumentParser):
    """Usage errors are validation failures (exit 1); exit 2 means infeasible."""

    def error(self, message):
        raise ValidationError(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser: every subcommand, or only `command` when it names one
    (the parse of a command line that starts with it is the same)."""
    parser = _Parser(
        prog="zerorate",
        description="Zero-rate reliability of finite-state channels with "
                    "input-dependent states.")
    sub = parser.add_subparsers(dest="command", required=True)
    names = [command] if command in COMMANDS else COMMANDS
    for name in names:
        flags = COMMANDS[name][1]
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="channel spec JSON path")
        p.add_argument("--out", default=None, help="result artifact path (default stdout report only)")
        p.add_argument("--report", default=None, help="full run-report JSON path")
        p.add_argument("--seed", type=int, default=0)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        t0 = time.perf_counter()
        doc = _read_json(args.spec, "spec")
        ch = load_channel(doc)
        result, kind = COMMANDS[args.command][0](ch, args)
        artifact = _render(result, kind)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(artifact)
        report = json.dumps({
            "command": args.command,
            "version": __version__,
            "seed": args.seed,
            "spec_echo": doc,
            "wall_clock_s": time.perf_counter() - t0,
            "result": result if kind == "json" else {"csv": artifact},
        }) + "\n"
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report)
    except ValidationError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(report)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
