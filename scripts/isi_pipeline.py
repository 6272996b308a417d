#!/usr/bin/env python3
"""End-to-end run on a Gaussian channel with a finite impulse response:
exponent, spectral bound, codebook construction, and ML simulation.

Example:
    python scripts/isi_pipeline.py --h 1.0 0.5 --n 512 --codewords 4 --trials 20000
"""
import argparse
import json
import sys
import time

import numpy as np

import zerorate as zr
from zerorate.isi import IsiSpec, build_isi_machine


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h", type=float, nargs="+", default=[1.0, 0.5])
    ap.add_argument("--levels", type=float, nargs="+", default=[1.0, -1.0])
    ap.add_argument("--sigma2", type=float, default=1.0)
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--n", type=int, default=512)
    ap.add_argument("--codewords", type=int, default=4)
    ap.add_argument("--trials", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--blend", type=float, default=None)
    ap.add_argument("--json", type=str, default=None, help="write the summary here")
    args = ap.parse_args()

    t0 = time.perf_counter()
    spec = IsiSpec(np.asarray(args.h), args.sigma2, np.asarray(args.levels), args.gamma)
    machine, kernel = build_isi_machine(spec)
    pairs = zr.feasible_pairs(machine)
    d = zr.bhattacharyya(kernel, pairs)
    cost = zr.CostModel(np.asarray(machine.values) ** 2, args.gamma)

    structure = zr.check_structure(machine)
    res = zr.maximize_e0(d, pairs, cost, zr.SolverOptions(seed=args.seed))
    bound, omega_star = zr.spectral_bound(spec)
    print(f"machine: S={machine.n_states} L={len(pairs)} "
          f"doubly_irreducible={structure.doubly_irreducible}")
    print(f"exponent value     : {res.value:.6f} (concave={res.concave}, "
          f"support_connected={res.support_connected})")
    print(f"spectral upper bnd : {bound:.6f} at omega={omega_star:.4f}")

    book = zr.build_codebook(res.argmax, d, cost, args.n, args.codewords,
                             args.seed, machine, args.blend)
    print(f"codebook           : M={book.M} n={book.n} blend={book.blend:.4f}")
    print(f"min pair distance  : {book.min_pair_distance:.2f} "
          f"({book.min_pair_distance / args.n:.4f}/use vs value {res.value:.4f})")

    rep = zr.simulate(kernel, book, args.trials, args.seed)
    worst = rep.pe_estimates.max()
    print(f"simulation         : worst pe={worst:.2e} over {args.trials} trials; "
          f"empirical exponent {rep.empirical_exponent:.4f} "
          f"band [{rep.exponent_band[0]:.4f}, "
          f"{'inf' if np.isinf(rep.exponent_band[1]) else f'{rep.exponent_band[1]:.4f}'}]")
    print(f"wall clock         : {time.perf_counter() - t0:.1f}s")

    if args.json:
        out = {
            "spec": {"h": list(args.h), "sigma2": args.sigma2,
                     "levels": list(args.levels), "gamma": args.gamma},
            "value": res.value,
            "spectral_bound": bound,
            "omega_star": omega_star,
            "codebook": book.to_json_dict(),
            "simulation": rep.to_json_dict(),
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=2)
        print(f"summary written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
