"""Theorem-level verification harness.

Each verifier computes one identity two ways and reports the comparison:

* verify_main_theorem: the q-variant parabolic polynomial of a pair
  sigma <= omega below a 213-avoiding minimal permutation with trivial
  ordinary polynomial must be the single monomial
  q**(C(m,2) (length(omega) - length(sigma))).  It is read from the
  induced-module row of t_m(omega).  The smooth Schubert case is the
  instance with the identity as minimal permutation, and the sweep runs it
  with the other 213-avoiding ones.
* verify_prop1: in the straightening engine, the coefficient of the
  replicated basis element E(M_{t_m(sigma)}) inside
  E(M_{t_{m-1}(sigma)}) * E(M_omega) vanishes unless omega == sigma, and
  then equals v**(k (C(m-1,2) - C(m,2))).  The members are packed straight
  from the family's ends and only that coefficient is read, by
  pbw.word_coefficient; no Multisegment or PBWElement is built.  What
  checks share, down to each (sigma, m)'s rank table, stays with the family.
* verify_power_identity: the E-basis expansions of G(M_omega)**m and of
  G(M at the replicated coset) agree up to one monomial v**e.  The claim is
  e = -k C(m,2), the product-vanishing constants telescoped over the m
  factors; e is measured and reported either way.

Hypothesis violations yield skipped reports, so a sweep distinguishes
"does not apply" from "contradicted", and so do the cases the sweep's
budget n = m*k <= SWEEP_MAX_N leaves out.  The straightening engine's
exchange rules decide every product coefficient, so a report is pass, fail
or skipped.  Arithmetic is exact; only exact equality passes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from math import comb
from typing import Iterable

from .kl import _LEN_MASK, _MAX_N, KLTable, kl_poly, parabolic_kl_q
from .poly import LaurentPoly
from .segcomb import (
    BelowSigma0,
    BiSequence,
    Multisegment,
    construct_strongly_regular,
    dominates_sigma0,
    is_regular,
    is_strongly_regular,
    multisegment_of,  # noqa: F401  (perfbench/spans.py patches it)
    replicate,
    sigma0,
)
from .pbw import PBWElement, _Rank, pack_segment, word_coefficient
from .pbw import product_expansion_guarded  # noqa: F401  (perfbench/spans.py patches it)
from .symgroup import (
    Perm,
    bruhat_leq,
    identity,
    is_pattern_avoiding,
    permutations_of,
    replicate_perm,
)
from .transition import expand_G_in_E, expansion_as_pbw, g_star_power_with_taint


# The sweep's budget on n = m*k.  Past n = 9 the power identity's product
# side costs about a minute at (k, m) = (4, 3), most of it in pbw._rewrite,
# which straightens its about 55,000 product words one by one.
SWEEP_MAX_N = 9


class HypothesisFailed(ValueError):
    """A hypothesis of the statement under test does not hold for the case."""


class NotSquareIrreducible(ValueError):
    """The family member fails the square-irreducibility criterion."""


class NotMonomialRatio(AssertionError):
    """The two expansions are not proportional by a single monomial."""


@dataclass
class VerificationReport:
    check: str
    case: dict
    claimed: LaurentPoly | None
    computed: LaurentPoly | None
    status: str  # "pass" | "fail" | "skipped"
    reason: str = ""
    elapsed: float = 0.0
    measured_exponent: int | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def sort_key(self) -> tuple:
        return (self.check, json.dumps(self.case, sort_keys=True))

    def to_json(self) -> dict:
        out = {
            "check": self.check,
            "case": self.case,
            "claimed": None if self.claimed is None else self.claimed.to_json("v"),
            "computed": None if self.computed is None else self.computed.to_json("v"),
            "status": self.status,
            "elapsed_s": round(self.elapsed, 6),
        }
        if self.reason:
            out["reason"] = self.reason
        if self.measured_exponent is not None:
            out["measured_v_exponent"] = self.measured_exponent
        return out


def _finish(check: str, case: dict, claimed: LaurentPoly, computed: LaurentPoly,
            started: float, **extra) -> VerificationReport:
    status = "pass" if claimed == computed else "fail"
    return VerificationReport(check, case, claimed, computed, status,
                              elapsed=time.perf_counter() - started, **extra)


def _skip(check: str, case: dict, reason: str, started: float) -> VerificationReport:
    return VerificationReport(check, case, None, None, "skipped", reason,
                              elapsed=time.perf_counter() - started)


def is_square_irreducible(table: KLTable, A: BiSequence, sigma: Perm) -> bool:
    """Whether the family member at sigma stays irreducible under squaring,
    tested as triviality of the polynomial of (sigma0(A), sigma)."""
    if not is_regular(A):
        raise ValueError(f"{A} is not regular")
    s0 = sigma0(A)
    if not bruhat_leq(s0, sigma):
        raise BelowSigma0(f"{sigma} lies below sigma0({A}) = {s0}")
    return kl_poly(table, s0, sigma).is_one()


def verify_main_theorem(table: KLTable, sigma0_perm: Perm, sigma: Perm,
                        omega: Perm, m: int) -> VerificationReport:
    """Compare the parabolic polynomial, read from the induced-module row of
    t_m(omega), with the claimed monomial
    q**(C(m,2) (length(omega) - length(sigma)))."""
    started = time.perf_counter()
    k = len(sigma0_perm)
    case = {"k": k, "m": m, "sigma0": list(sigma0_perm),
            "sigma": list(sigma), "omega": list(omega)}
    check = "main-theorem"
    try:
        if m < 2:
            raise HypothesisFailed("m must be greater than 1")
        try:
            s0, s, w = map(table._key, (sigma0_perm, sigma, omega))
            if not len(sigma) == len(omega) == k:
                raise ValueError("sizes differ")
        except ValueError as exc:  # past the keys' width it is no failed hypothesis
            permutes = HypothesisFailed(f"sigma0, sigma and omega must permute 1..{k}")
            raise (exc if k > _MAX_N else permutes) from None
        if s0 not in table._avoids_213:  # once per sigma0 and table
            table._avoids_213[s0] = is_pattern_avoiding(sigma0_perm, (2, 1, 3))
        if not table._avoids_213[s0]:
            raise HypothesisFailed(f"sigma0 {sigma0_perm} contains the pattern 213")
        if not (table._leq(s0, s, sigma0_perm, sigma) and table._leq(s, w, sigma, omega)):
            raise HypothesisFailed("need sigma0 <= sigma <= omega")
        p0 = kl_poly(table, sigma0_perm, omega)
        if not p0.is_one():
            raise HypothesisFailed(
                f"P(sigma0, omega) = {p0.format('q')} is not trivial")
    except HypothesisFailed as exc:
        return _skip(check, case, f"HypothesisFailed: {exc}", started)
    gap = (w & _LEN_MASK) - (s & _LEN_MASK)  # length(omega) - length(sigma)
    claimed = LaurentPoly.v(-2 * comb(m, 2) * gap)  # q = v**-2
    computed = parabolic_kl_q(table, sigma, omega, m)
    return _finish(check, case, claimed, computed, started)


def _keep_members(A: BiSequence, *perms: Perm) -> None:
    """Keeps the packed member of each permutation in A.derived, sorted, once
    all of them permute 1..k and dominate sigma0; else HypothesisFailed."""
    if any(tuple(sorted(p)) != identity(A.k) for p in perms):
        raise HypothesisFailed(f"sigma and omega must permute 1..{A.k}")
    ends = [[A.b[j - 1] for j in p] for p in perms]  # b_p(i), the right ends of M_p
    if not all(a <= b + 1 for bs in ends for a, b in zip(A.a, bs)):  # as dominates_sigma0
        raise HypothesisFailed("sigma and omega must dominate sigma0")
    # Strong regularity makes the k segments [a_i, b_p(i)] nonempty and distinct.
    for p, bs in zip(perms, ends):
        A.derived["member", p] = tuple(sorted(map(pack_segment, A.a, bs)))


def verify_prop1(A: BiSequence, sigma: Perm, omega: Perm, m: int) -> VerificationReport:
    """Vanishing and the monomial constant for one straightened product.

    Multiplies E(M at t_{m-1}(sigma) in the (m-1)-replication) by
    E(M_omega) and reads off the coefficient of the m-replicated element.
    A.derived keeps its strong regularity, the packed members that passed
    and per (sigma, m) the left word, target and rank table (none on a skip).
    """
    started = time.perf_counter()
    sigma, omega, k = tuple(sigma), tuple(omega), A.k
    case = {"k": k, "m": m, "family": A.to_json(),
            "sigma": list(sigma), "omega": list(omega)}
    check = "product-vanishing"
    derived = A.derived
    try:
        if m < 2:
            raise HypothesisFailed("m must be greater than 1")
        if "strongly regular" not in derived:
            derived["strongly regular"] = is_strongly_regular(A)
        if not derived["strongly regular"]:
            raise HypothesisFailed(f"{A} is not strongly regular")
        if ("member", sigma) not in derived or ("member", omega) not in derived:
            _keep_members(A, sigma, omega)
    except HypothesisFailed as exc:
        return _skip(check, case, f"HypothesisFailed: {exc}", started)

    if ("target", sigma, m) not in derived:
        s = derived["member", sigma]  # t_j(sigma) repeats each of its segments j times
        target = tuple(sorted(s * m))
        derived["target", sigma, m] = tuple(sorted(s * (m - 1))), target, _Rank(target)
    left, target, rank = derived["target", sigma, m]
    word = left + derived["member", omega]
    computed = word_coefficient({word: LaurentPoly.v(k * comb(m - 1, 2))},
                                target, k * comb(m, 2), rank)
    claimed = (LaurentPoly.v(k * (comb(m - 1, 2) - comb(m, 2))) if omega == sigma
               else LaurentPoly.zero())
    return _finish(check, case, claimed, computed, started)


def _monomial_ratio(numer: PBWElement, denom: PBWElement,
                    keys: Iterable[Multisegment]) -> int:
    """The v-exponent e with numer == v**e * denom at the given keys."""
    e: int | None = None
    for m in keys:
        nc = numer.coefficient(m)
        dc = denom.coefficient(m)
        if nc.is_zero() != dc.is_zero():
            raise NotMonomialRatio(f"supports differ at {m}")
        if dc.is_zero():
            continue
        if e is None:
            e = nc.min_exponent() - dc.min_exponent()
        if nc != dc * LaurentPoly.v(e):
            raise NotMonomialRatio(
                f"coefficient at {m} is not v^{e} times the other side")
    if e is None:
        raise NotMonomialRatio("no comparable coefficients")
    return e


def verify_power_identity(table: KLTable, A: BiSequence, omega: Perm,
                          m: int) -> VerificationReport:
    """Measure the monomial relating the expansions of the two sides of the
    power identity; fails hard when the ratio is not a single monomial.

    The comparison runs over every multisegment in the support of either
    side.
    """
    started = time.perf_counter()
    case = {"k": A.k, "m": m, "family": A.to_json(), "omega": list(omega)}
    check = "power-identity"
    try:
        if m < 2:
            raise HypothesisFailed("m must be greater than 1")
        if not is_strongly_regular(A):
            raise HypothesisFailed(f"{A} is not strongly regular")
        if tuple(sorted(omega)) != identity(A.k):
            raise HypothesisFailed(f"omega must permute 1..{A.k}")
        if not dominates_sigma0(A, omega):
            raise HypothesisFailed("omega must dominate sigma0")
        if not is_square_irreducible(table, A, omega):
            raise NotSquareIrreducible(
                f"P(sigma0, omega) is not trivial for {omega}")
    except (HypothesisFailed, NotSquareIrreducible) as exc:
        return _skip(check, case, f"{type(exc).__name__}: {exc}", started)

    replicated = replicate(A, m)
    left = expansion_as_pbw(
        replicated, expand_G_in_E(table, replicated, replicate_perm(omega, m)))
    right = g_star_power_with_taint(table, A, omega, m)[0]
    keys = left.support() | right.support()
    try:
        e = _monomial_ratio(right, left,
                            sorted(keys, key=Multisegment.sort_key))
    except NotMonomialRatio as exc:
        return VerificationReport(check, case, LaurentPoly.zero(),
                                  LaurentPoly.one(), "fail",
                                  f"NotMonomialRatio: {exc}",
                                  elapsed=time.perf_counter() - started)
    claimed = LaurentPoly.v(-A.k * comb(m, 2))  # product-vanishing constants, telescoped
    return _finish(check, case, claimed, LaurentPoly.v(e), started, measured_exponent=e)


def _sweep_cases(kmax: int, mmax: int) -> list[tuple]:
    """All case tuples, deterministically ordered; those past the budget
    are kept and reported as skipped by sweep."""
    cases: list[tuple] = []
    for k in range(1, kmax + 1):
        for s0 in permutations_of(k):
            if not is_pattern_avoiding(s0, (2, 1, 3)):
                continue
            for m in range(2, mmax + 1):
                quantum = k <= 3 and m <= 3
                if quantum:
                    for sigma in permutations_of(k):
                        if not bruhat_leq(s0, sigma):
                            continue
                        for omega in permutations_of(k):
                            if bruhat_leq(s0, omega):
                                cases.append(("prop1", k, m, s0, sigma, omega))
                for omega in permutations_of(k):
                    if not bruhat_leq(s0, omega):
                        continue
                    cases.append(("power", k, m, s0, omega))
                    for sigma in permutations_of(k):
                        if bruhat_leq(s0, sigma) and bruhat_leq(sigma, omega):
                            cases.append(("main", k, m, s0, sigma, omega))
    return cases


def sweep(table: KLTable, kmax: int, mmax: int) -> list[VerificationReport]:
    """Run every verifier over the admissible grid.

    The main-theorem check runs for every 213-avoiding minimal permutation,
    every omega with trivial ordinary polynomial, every sigma between them,
    and every 2 <= m <= mmax; the product check additionally requires
    k <= 3 and m <= 3.  A case with m*k > SWEEP_MAX_N is not run, since
    the power identity's straightening outgrows a sweep there, and
    reports as skipped with a reason beginning "Budget:", as hypothesis
    failures report as skipped.  Reports come back in deterministic case
    order, and a final constancy report per (k, m) checks that the
    measured power exponents agree across omega.
    """
    families = {s0: construct_strongly_regular(s0)
                for k in range(1, kmax + 1)
                for s0 in permutations_of(k)
                if is_pattern_avoiding(s0, (2, 1, 3))}

    def run(case: tuple) -> VerificationReport:
        kind, k, m, s0, *rest = case
        if kind == "prop1":  # k <= 3 and m <= 3: within the budget
            return verify_prop1(families[s0], *rest, m)
        if m * k <= SWEEP_MAX_N:
            if kind == "main":
                return verify_main_theorem(table, s0, *rest, m)
            return verify_power_identity(table, families[s0], *rest, m)
        if kind == "main":
            check, detail = "main-theorem", {"sigma0": list(s0), "sigma": list(rest[0])}
        else:
            check, detail = "power-identity", {"family": families[s0].to_json()}
        return VerificationReport(
            check, {"k": k, "m": m, **detail, "omega": list(rest[-1])}, None, None,
            "skipped", f"Budget: n = m*k = {m * k} > {SWEEP_MAX_N}, the largest n a sweep runs")

    cases = _sweep_cases(kmax, mmax)
    reports = [run(c) for c in cases]

    # constancy of the measured exponent for fixed (k, m)
    measured: dict[tuple[int, int], set[int]] = {}
    for case, rep in zip(cases, reports):
        if case[0] == "power" and rep.status == "pass":
            measured.setdefault((case[1], case[2]), set()).add(rep.measured_exponent)
    for (k, m), exponents in sorted(measured.items()):
        ok = len(exponents) == 1
        value = exponents.copy().pop() if ok else None
        reports.append(VerificationReport(
            "power-exponent-constancy",
            {"k": k, "m": m, "exponents": sorted(exponents)},
            LaurentPoly.one() if ok else LaurentPoly.zero(),
            LaurentPoly.one(),
            "pass" if ok else "fail",
            reason="" if ok else "exponent varies with omega",
            measured_exponent=value,
        ))
    return reports


def summarize(reports: Iterable[VerificationReport]) -> dict[str, int]:
    out = {"pass": 0, "fail": 0, "skipped": 0}
    for r in reports:
        out[r.status] = out.get(r.status, 0) + 1
    return out
