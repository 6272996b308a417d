"""Output checks for each CLI command the workloads run.

Each check takes the parsed `--out` artifact and returns a list of
problems; an empty list means the output is correct.
"""
from __future__ import annotations

import math

REL_TOL = 1e-6


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref)


def check_exponent(result: dict, value: float, single_value: float | None = None) -> list[str]:
    """optimize and uce: the exponent matches the recorded reference."""
    problems = []
    if not _close(float(result["value"]), value):
        problems.append(f"value {result['value']!r} differs from the reference {value!r}")
    if single_value is not None and not _close(float(result["single_value"]), single_value):
        problems.append(f"single_value {result['single_value']!r} differs from the "
                        f"reference {single_value!r}")
    return problems


def symbol_costs(spec_doc: dict, alphabet: list[str]) -> list[float] | None:
    """Per-symbol cost phi in the codebook's alphabet order, with the
    per-use budget gamma; None when the spec sets no cost."""
    if "isi" in spec_doc:
        return [float(label) ** 2 for label in alphabet]
    cost = spec_doc["fsc"].get("cost")
    if cost is None:
        return None
    return [float(cost["phi"][label]) for label in alphabet]


def cost_budget(spec_doc: dict) -> float | None:
    if "isi" in spec_doc:
        return float(spec_doc["isi"]["gamma"])
    cost = spec_doc["fsc"].get("cost")
    return None if cost is None else float(cost["gamma"])


def check_codebook(book: dict, spec_doc: dict, n: int, M: int) -> list[str]:
    """build-code: M distinct codewords of length n, a positive minimum
    pair distance, and every codeword's cost within n * gamma."""
    problems = []
    words = book["codewords"]
    if book["n"] != n or book["M"] != M or len(words) != M \
            or any(len(w) != n for w in words):
        problems.append(f"codebook shape is {book['M']}x{book['n']}, expected {M}x{n}")
    distinct = len({tuple(w) for w in words})
    if distinct != len(words):
        problems.append(f"only {distinct} of {len(words)} codewords are distinct")
    d_min = float(book["min_pair_distance"])
    if not d_min > 0.0:
        problems.append(f"min_pair_distance is {d_min!r}, not positive")
    phi = symbol_costs(spec_doc, book["alphabet"])
    if phi is not None:
        budget = n * cost_budget(spec_doc)
        worst = max(sum(phi[x] for x in w) for w in words)
        if worst > budget + 1e-9 * max(1.0, abs(budget)):
            problems.append(f"codeword cost {worst!r} exceeds the budget {budget!r}")
    return problems


def check_simulation(result: dict, book: dict, trials: int) -> list[str]:
    """simulate: every per-codeword error rate lies within the union
    Bhattacharyya bound (M - 1) exp(-d_min) plus three standard errors."""
    problems = []
    M = int(book["M"])
    if result["M"] != M or result["trials"] != trials or len(result["pe_estimates"]) != M:
        problems.append(f"simulation covers M={result['M']} with {result['trials']} trials, "
                        f"expected M={M} with {trials}")
    union = (M - 1) * math.exp(-float(book["min_pair_distance"]))
    for m, (pe, se) in enumerate(zip(result["pe_estimates"], result["std_errors"])):
        if pe > union + 3.0 * se:
            problems.append(f"codeword {m}: pe {pe!r} exceeds the union bound "
                            f"{union!r} + 3 * {se!r}")
    return problems


def check_zrho(rows: list[list[str]]) -> list[str]:
    """zrho: z_rho never decreases in rho and never exceeds -E0(q*)."""
    problems = []
    body = sorted((float(r[0]), float(r[1]), float(r[4])) for r in rows[1:])
    if not body:
        problems.append("zrho produced no rows")
    for (rho_a, z_a, _), (rho_b, z_b, _) in zip(body, body[1:]):
        if z_b < z_a:
            problems.append(f"z_rho decreases from {z_a!r} at rho={rho_a:g} "
                            f"to {z_b!r} at rho={rho_b:g}")
    for rho, z, minus_e0 in body:
        if z > minus_e0:
            problems.append(f"z_rho {z!r} at rho={rho:g} exceeds -E0(q*) = {minus_e0!r}")
    return problems


def check_isi_bound(result: dict) -> list[str]:
    """isi-bound: the quantized lower bound stays below the spectral bound."""
    if result["lower_bound"] > result["spectral_bound"]:
        return [f"lower bound {result['lower_bound']!r} exceeds the spectral bound "
                f"{result['spectral_bound']!r}"]
    return []


def check_isi_loss(rows: list[list[str]]) -> list[str]:
    """isi-loss: every lower bound stays below the spectral bound."""
    header = rows[0]
    lo, hi = header.index("lower_bound"), header.index("spectral_bound")
    problems = [f"K={r[0]}: lower bound {r[lo]} exceeds the spectral bound {r[hi]}"
                for r in rows[1:] if float(r[lo]) > float(r[hi])]
    if len(rows) < 2:
        problems.append("isi-loss produced no rows")
    return problems
