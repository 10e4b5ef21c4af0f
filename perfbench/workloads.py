"""Case lists, checks and output validation for the klforge benchmark.

One operation is one verifier call, a "check".  Each workload has a fixed,
exhaustive case list; the seed only permutes its order, a different order
in each round of a run (seed 0 keeps the grid order in every round), so
every seed does the same set of checks.

This module imports klforge and is loaded by the worker process only.  It
reaches the library through each module's public functions, looked up on
the module at call time so that the tracer in spans.py can wrap them.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import comb

from klforge import segcomb, symgroup, verify

# The full grids.  A cap on n = m*k gives the quick grids the self-tests use.
KMAX = {"main-theorem": 4, "memo-warm": 4, "product-vanishing": 4,
        "power-identity": 3}
MAIN_MAX_N = 9  # main theorem: every m >= 2 with m*k <= 9
PROP1_M = (2, 3)
POWER_M = (2, 3)

# Statuses a correct program may return on each workload.
ALLOWED = {"main-theorem": {"pass", "skipped"},
           "memo-warm": {"pass", "skipped"},
           "product-vanishing": {"pass"},
           "power-identity": {"pass"}}

# Report fields that are outputs; timings are left out of the digest.
DIGEST_FIELDS = ("check", "case", "claimed", "computed", "status", "reason",
                 "measured_v_exponent")


def _bottoms(kmax: int):
    """Every 213-avoiding permutation with k <= kmax, in grid order."""
    for k in range(1, kmax + 1):
        for s0 in symgroup.permutations_of(k):
            if symgroup.is_pattern_avoiding(s0, (2, 1, 3)):
                yield k, s0


def _above(s0, k):
    return [w for w in symgroup.permutations_of(k) if symgroup.bruhat_leq(s0, w)]


def build_cases(workload: str, max_n: int | None = None) -> list[tuple]:
    """The workload's case list in grid order; max_n drops every case with
    m*k > max_n."""
    cases: list[tuple] = []
    for k, s0 in _bottoms(KMAX[workload]):
        above = _above(s0, k)
        if workload in ("main-theorem", "memo-warm"):
            for m in range(2, MAIN_MAX_N // k + 1):
                for omega in above:
                    for sigma in above:
                        if symgroup.bruhat_leq(sigma, omega):
                            cases.append((s0, sigma, omega, m))
        elif workload == "product-vanishing":
            family = segcomb.construct_strongly_regular(s0)
            for m in PROP1_M:
                for sigma in above:
                    for omega in above:
                        cases.append((family, sigma, omega, m))
        elif workload == "power-identity":
            family = segcomb.construct_strongly_regular(s0)
            for m in POWER_M:
                for omega in above:
                    cases.append((family, omega, m))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    if max_n is not None:
        cases = [c for c in cases if len(c[1]) * c[-1] <= max_n]
    return cases


def permute(cases: list, seed: int, round_no: int = 0) -> list:
    """The order of the case list in one round of the seed's run; seed 0
    keeps the grid order."""
    out = list(cases)
    if seed:
        random.Random(f"{seed}/{round_no}").shuffle(out)
    return out


def run_check(workload: str, table, case: tuple):
    """One verifier call; returns its report."""
    if workload in ("main-theorem", "memo-warm"):
        return verify.verify_main_theorem(table, *case)
    if workload == "product-vanishing":
        return verify.verify_prop1(*case)
    return verify.verify_power_identity(table, *case)


def _inversions(w) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def _v_monomial(exponent: int) -> dict:
    return {"var": "v", "coeffs": {str(exponent): 1}}


def expected_value(rep: dict) -> dict | None:
    """The value a passing report must carry, worked out from its case alone
    (None where the statement fixes no closed form)."""
    case = rep["case"]
    m = case["m"]
    if rep["check"] == "main-theorem":
        gap = _inversions(case["omega"]) - _inversions(case["sigma"])
        return _v_monomial(-2 * comb(m, 2) * gap)  # q = v**-2
    if rep["check"] == "product-vanishing":
        if case["sigma"] != case["omega"]:
            return {"var": "v", "coeffs": {}}
        return _v_monomial(case["k"] * (comb(m - 1, 2) - comb(m, 2)))
    return None


def output_problems(workload: str, reports: list[dict]) -> list[str]:
    """Everything wrong with the reports that came back: a status the
    workload does not allow, a passing value that differs from the closed
    form, or a power exponent that varies with omega at fixed (k, m)."""
    problems = []
    exponents: dict[tuple, set] = {}
    for rep in reports:
        if rep["status"] not in ALLOWED[workload]:
            problems.append(f"{rep['status']}: {rep['case']} {rep.get('reason', '')}")
            continue
        if rep["status"] != "pass":
            continue
        want = expected_value(rep)
        if want is not None and (rep["claimed"] != want or rep["computed"] != want):
            problems.append(f"wrong value at {rep['case']}")
        if rep["check"] == "power-identity":
            key = (rep["case"]["k"], rep["case"]["m"])
            exponents.setdefault(key, set()).add(rep["measured_v_exponent"])
    for key, seen in sorted(exponents.items()):
        if len(seen) != 1:
            problems.append(f"power exponent varies at (k, m) = {key}: {sorted(seen)}")
    return problems


def digest_entry(report) -> str:
    """The report's outputs as one canonical JSON line."""
    data = report.to_json()
    return json.dumps({f: data[f] for f in DIGEST_FIELDS if f in data},
                      sort_keys=True, separators=(",", ":"))


def digest(entries: list[str]) -> str:
    """Order-independent digest of a run's reports (and of its errors)."""
    h = hashlib.sha256()
    for line in sorted(entries):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
