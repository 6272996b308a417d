"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
with its runtime. Tolerances are fixed here, not tuned at run time."""
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import zerorate as zr
from zerorate.cli import run as cli_run
from zerorate.isi import IsiSpec

from conftest import (NONCONCAVE_DHAT, NONCONCAVE_GAMMA, NONCONCAVE_PHI,
                      make_bsc, make_dmc, make_isi)
from oracles import (dmc_e0_grid, dmc_uce_two_component_grid,
                     gaussian_two_codeword_error, quantized_sine_time_averages)

W0 = 2 * np.pi * (np.sqrt(2) - 1) / 4


class gate:
    """Context manager printing the per-criterion verdict line.

    Budgets are checked against CPU time so background load on the test
    machine cannot flip a verdict."""

    def __init__(self, num, label, budget_s):
        self.num = num
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.process_time() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        line = f"criterion {self.num:2d} [{verdict}] {self.label} ({dt:.2f}s CPU, budget {self.budget:.0f}s)"
        print(line, file=sys.stderr)
        if exc_type is None:
            assert dt < self.budget, f"criterion {self.num} overran its runtime budget"
        return False


def test_criterion_01_dmc_reduction():
    with gate(1, "DMC reduction matches dense grid oracle", 1.0):
        _, pairs, _, d = make_bsc(0.1)
        res = zr.maximize_e0(d, pairs, zr.CostModel.free(2))
        dhat = np.array([[0.0, -np.log(0.6)], [-np.log(0.6), 0.0]])
        oracle, _ = dmc_e0_grid(dhat)
        assert abs(res.value - oracle) <= 1e-4
        assert res.value == pytest.approx(0.25541, abs=1e-5)

        # ternary symmetric channel, free and budgeted
        p = 0.1
        bc = 2 * np.sqrt(0.8 * p) + p
        dsym = -np.log(bc) * (np.ones((3, 3)) - np.eye(3))
        phi = np.array([0.0, 1.0, 2.0])
        for gamma in (None, 0.8):
            m3, p3, d3, c3 = make_dmc(dsym, phi=phi if gamma else None,
                                      gamma=gamma or 0.0)
            res3 = zr.maximize_e0(d3, p3, c3)
            oracle3, _ = dmc_e0_grid(dsym, phi if gamma else None, gamma)
            assert abs(res3.value - oracle3) <= 1e-4


def test_criterion_02_concavity_classifier():
    with gate(2, "concavity classified; UCE beats single on indefinite case", 10.0):
        x = np.array([0.0, 1.0, 2.0])
        sq = (x[:, None] - x[None, :]) ** 2
        assert zr.concavity_test(zr.DistanceMatrix(sq)).concave
        ham = np.ones((3, 3)) - np.eye(3)
        assert zr.concavity_test(zr.DistanceMatrix(ham)).concave
        assert not zr.concavity_test(zr.DistanceMatrix(NONCONCAVE_DHAT)).concave

        m, pairs, d, cost = make_dmc(NONCONCAVE_DHAT, phi=NONCONCAVE_PHI,
                                     gamma=NONCONCAVE_GAMMA)
        res = zr.maximize_e0(d, pairs, cost)
        assert not res.concave
        assert res.value > res.single_value + 1e-3
        oracle = dmc_uce_two_component_grid(NONCONCAVE_DHAT, NONCONCAVE_PHI,
                                            NONCONCAVE_GAMMA, res=64)
        assert abs(res.value - oracle) <= 1e-4


def test_criterion_03_codebook_exactness(order1, order2):
    with gate(3, "circuits realize their types exactly over 100 seeds", 5.0):
        from zerorate.exponent import component_polytope
        for m, pairs in (order1, order2):
            L = len(pairs)
            poly = component_polytope(pairs, np.arange(L))
            cost = zr.CostModel(np.asarray(m.values) ** 2, 1.0)
            rng = np.random.default_rng(1234)
            for seed in range(100):
                q = poly.project(rng.dirichlet(np.ones(L)))
                q = zr.PairDistribution(pairs, 0.85 * q + 0.15 / L)
                n = int(rng.integers(2 * L, 128))
                spec = zr.round_type(q, n)
                path = zr.euler_circuit(spec, anchor=0, seed=seed)
                arcs = pairs.index_lookup()[path, np.roll(path, -1)]
                assert (np.bincount(arcs, minlength=L) == spec.counts).all()
                x = zr.emit_codeword(path, m)
                s = path[0]
                for t in range(n):
                    s = int(m.next_state[s, x[t]])
                    assert s == path[(t + 1) % n]
                assert float(cost.phi[x].sum()) <= n * cost.gamma + 1e-9


def test_criterion_04_direct_part_distance():
    with gate(4, "expurgated min distance within 0.05 of the exponent at n=512", 30.0):
        _, m, pairs, kern, d, cost = make_isi([1.0, 0.5], gamma=1.0)
        res = zr.maximize_e0(d, pairs, cost)
        n, M = 512, 4
        q, anchor, _ = zr.blend_for_construction(res.argmax.mixture(), None, n, None)
        spec = zr.round_type(q, n)
        cands = zr.build_ensemble(spec, M, n, seed=0, anchor=anchor)
        book = zr.expurgate(cands, d, M, machine=m)
        assert book.min_pair_distance / n >= res.value - 0.05


def test_criterion_05_monte_carlo_consistency():
    with gate(5, "two-codeword simulation matches the Gaussian formula", 60.0):
        _, m, pairs, kern, d, cost = make_isi([1.0, 0.5])
        n = 16
        path_a = np.zeros(n, dtype=np.int64)
        path_b = np.array([0, 1] * (n // 2))
        lookup = pairs.index_lookup()
        arcs_a = lookup[path_a, np.roll(path_a, -1)]
        arcs_b = lookup[path_b, np.roll(path_b, -1)]
        from zerorate.codebook import Codebook
        book = Codebook(m, pairs,
                        np.stack([zr.emit_codeword(path_a, m),
                                  zr.emit_codeword(path_b, m)]),
                        np.stack([path_a, path_b]),
                        np.stack([arcs_a, arcs_b]), (), 0.0, 0, 1.0)
        trials = 100_000
        rep = zr.simulate(kern, book, trials=trials, seed=5)
        d_e = float(np.sqrt(((kern.means[arcs_a] - kern.means[arcs_b]) ** 2).sum()))
        exact = gaussian_two_codeword_error(d_e, 1.0)
        se = np.sqrt(exact * (1 - exact) / trials)
        assert abs(rep.pe_estimates[0] - exact) <= 3 * se
        assert abs(rep.pe_estimates[1] - exact) <= 3 * se
        pw = zr.pairwise_check(kern, arcs_a, arcs_b, trials, seed=6, d=d)
        assert pw.p_hat <= pw.bhattacharyya_bound + 3 * pw.stderr


def test_criterion_06_appendix_oracle():
    with gate(6, "typed-exponent oracle bounded, monotone, converging", 60.0):
        _, m, pairs, kern, d, cost = make_isi([1.0, 0.5])
        q = zr.PairDistribution(pairs, np.full(4, 0.25))
        assert zr.check_structure(m).doubly_irreducible
        e0_val = zr.e0(q, d)
        rhos = [1.0, 10.0, 100.0, 1000.0]
        results = zr.z_rho_sweep(q, d, rhos)
        vals = [r.value for r in results]
        assert all(v <= -e0_val + 1e-9 for v in vals)
        assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))
        assert abs(vals[-1] + e0_val) <= 0.05 * e0_val


def test_criterion_07_spectral_bound():
    with gate(7, "spectral bound values and dominance over binary inputs", 5.0):
        v1, o1 = zr.spectral_bound(IsiSpec([1.0, 1.0], 1.0, [1.0, -1.0], 1.0))
        assert v1 == pytest.approx(1.0, abs=1e-9) and abs(o1 - 0.0) <= 1e-6
        v2, o2 = zr.spectral_bound(IsiSpec([1.0, -1.0], 1.0, [1.0, -1.0], 1.0))
        assert v2 == pytest.approx(1.0, abs=1e-9) and abs(o2 - np.pi) <= 1e-6
        spec, _, pairs, _, d, cost = make_isi([1.0, 1.0])
        res = zr.maximize_e0(d, pairs, cost)
        assert res.value <= v1 + 1e-9


def test_criterion_08_gray_statistics_oracle():
    with gate(8, "series statistics match million-sample time averages", 30.0):
        A, delta = 3.5, 1.0
        stats = zr.gray_stats(A, delta, W0)
        ree0, rxe0, power, _, _ = quantized_sine_time_averages(A, delta, W0, 0.0, 10 ** 6)
        assert abs(stats.ree0 - ree0) / abs(ree0) <= 1e-3
        assert abs(stats.rxe0 - rxe0) / abs(rxe0) <= 1e-3
        series_power = A * A / 2 + 2 * stats.rxe0 + stats.ree0
        assert abs(series_power - power) / power <= 1e-3


def test_criterion_09_lambda_scaling():
    with gate(9, "quantization loss shrinks like the squared alphabet size", 30.0):
        spec = IsiSpec([1.0, 0.5], 1.0, [1.0, -1.0], 1.0)
        _, omega_star = zr.spectral_bound(spec)
        A = 3.45  # near the top level of the K = 8 grid
        lams = []
        for K in (8, 16, 32):
            delta = (A / 3.5) * 8.0 / K  # delta halves as K doubles
            stats = zr.gray_stats(A, delta, W0)
            lams.append(zr.quantization_loss(spec, A, omega_star, stats).Lambda)
        assert 2.5 <= lams[0] / lams[1] <= 6.0
        assert 2.5 <= lams[1] / lams[2] <= 6.0


def test_criterion_10_determinism(tmp_path, capsys):
    with gate(10, "randomized commands are byte-identical given a seed", 120.0):
        spec_path = tmp_path / "isi.json"
        spec_path.write_text(json.dumps(
            {"isi": {"h": [1.0, 0.5], "sigma2": 1.0,
                     "levels": [1.0, -1.0], "gamma": 1.0}}))
        bsc_path = Path(__file__).resolve().parent.parent / "specs" / "bsc.json"
        jobs = [
            ("build-code", ["--spec", str(spec_path), "--n", "64",
                            "--codewords", "3", "--seed", "7"]),
            ("simulate", ["--spec", str(spec_path), "--n", "48",
                          "--codewords", "2", "--trials", "400", "--seed", "7"]),
            ("zrho", ["--spec", str(bsc_path), "--rhos", "1,32", "--seed", "7"]),
        ]
        for cmd, argv in jobs:
            blobs = []
            reports = []
            for rep in ("x", "y"):
                out = tmp_path / f"{cmd}-{rep}.out"
                code = cli_run([cmd, *argv, "--out", str(out)])
                captured = capsys.readouterr().out
                assert code == 0
                blobs.append(out.read_bytes())
                doc = json.loads(captured)
                doc.pop("wall_clock_s")  # timing is the only environmental field
                reports.append(doc)
            assert blobs[0] == blobs[1], f"{cmd} artifact not byte-identical"
            assert reports[0] == reports[1], f"{cmd} report differs beyond timing"
