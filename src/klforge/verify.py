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
  from the family's ends (pbw.member_word) and only that coefficient is
  read, by pbw.word_coefficient.  What checks share, down to each
  (sigma, m)'s rank table, stays with the family.
* verify_power_identity: the E-basis expansions of G(M_omega)**m and of
  G(M at the replicated coset) agree up to one monomial v**e.  Both are
  maps {sorted word: coefficient}, the words packed by pbw.member_word and
  straightened by pbw.product_expansion_guarded, and they are compared word
  by word; a word is spelled out as [a,b]+... only in a failure's reason.
  Neither check builds a Segment or Multisegment.  The claim is
  e = -k C(m,2), the product-vanishing constants telescoped over the m
  factors; e is measured and reported either way, and a case passes only
  when it equals the claim, so no separate report checks that e is the
  same for every omega at a fixed (k, m).

Hypothesis violations yield skipped reports, so a sweep distinguishes
"does not apply" from "contradicted", and so do the main-theorem and
power-identity cases the sweep's budget n = m*k <= SWEEP_MAX_N leaves
out.  The straightening engine's exchange rules decide every product
coefficient, so a report is pass, fail or skipped.  Arithmetic is exact;
only exact equality passes.
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
    construct_strongly_regular,
    dominates_sigma0,
    is_regular,
    is_strongly_regular,
    multisegment_of,  # noqa: F401  (perfbench/spans.py patches it)
    replicate,
    sigma0,
)
from .pbw import Word, _Rank, member_word, word_coefficient, word_str
from .pbw import product_expansion_guarded  # noqa: F401  (perfbench/spans.py patches it)
from .symgroup import (
    Perm,
    bruhat_leq,
    identity,
    is_pattern_avoiding,
    permutations_of,
    replicate_perm,
)
from .transition import expand_G_in_E, g_star_power_with_taint


# The sweep's budget on n = m*k.  n alone does not bound the cost: the 945
# power-identity cases of (k, m) = (5, 2) at n = 10 take about 90 s (2 vCPUs,
# Python 3.11), and the top row of (6, 2) at n = 12 would hold 12!/2**6 =
# 7,484,400 coset representatives, while (4, 3) takes about 23 s.
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
    sigma0_perm, sigma, omega = tuple(sigma0_perm), tuple(sigma), tuple(omega)
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
    """Keeps the member word of each permutation in A.derived once all of
    them permute 1..k and dominate sigma0; else HypothesisFailed."""
    if any(tuple(sorted(p)) != identity(A.k) for p in perms):
        raise HypothesisFailed(f"sigma and omega must permute 1..{A.k}")
    if not all(dominates_sigma0(A, p) for p in perms):
        raise HypothesisFailed("sigma and omega must dominate sigma0")
    for p in perms:  # strong regularity: k nonempty, distinct segments
        A.derived["member", p] = member_word(A, p)


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


def _monomial_ratio(numer: dict[Word, LaurentPoly], denom: dict[Word, LaurentPoly]) -> int:
    """The v-exponent e with numer == v**e * denom, compared word by word
    over both supports in word order."""
    e: int | None = None
    for w in sorted(numer.keys() | denom.keys()):
        nc, dc = numer.get(w), denom.get(w)
        if nc is None or dc is None:
            raise NotMonomialRatio(f"supports differ at {word_str(w)}")
        if e is None:
            e = nc.min_exponent() - dc.min_exponent()
        if nc != dc * LaurentPoly.v(e):
            raise NotMonomialRatio(
                f"coefficient at {word_str(w)} is not v^{e} times the other side")
    if e is None:
        raise NotMonomialRatio("no comparable coefficients")
    return e


def verify_power_identity(table: KLTable, A: BiSequence, omega: Perm,
                          m: int) -> VerificationReport:
    """Measure the monomial relating the expansions of the two sides of the
    power identity; fails hard when the ratio is not a single monomial.

    Both sides stay keyed by sorted words, and the comparison runs over
    every word in the support of either side.
    """
    started = time.perf_counter()
    omega = tuple(omega)
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
    left = {member_word(replicated, rep): c for rep, c in
            expand_G_in_E(table, replicated, replicate_perm(omega, m)).items()}
    right = g_star_power_with_taint(table, A, omega, m)[0]
    try:
        e = _monomial_ratio(right, left)
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
    and every 2 <= m <= mmax.  The product check runs for every sigma and
    omega above each minimal permutation and every such m: it reads no KL
    row, so no budget applies.  A main-theorem or power-identity case with
    m*k > SWEEP_MAX_N is not run, since its rows and straightening outgrow
    a sweep there, and reports as skipped with a reason beginning
    "Budget:", as hypothesis failures report as skipped.  Reports come
    back in deterministic case order.  A power case passes only at the
    claimed exponent -k C(m,2), so the passing exponents at a fixed (k, m)
    agree without a report of their own.
    """
    families = {s0: construct_strongly_regular(s0)
                for k in range(1, kmax + 1)
                for s0 in permutations_of(k)
                if is_pattern_avoiding(s0, (2, 1, 3))}

    def run(case: tuple) -> VerificationReport:
        kind, k, m, s0, *rest = case
        if kind == "prop1":  # reads no KL row, so no budget
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

    return [run(c) for c in _sweep_cases(kmax, mmax)]


def summarize(reports: Iterable[VerificationReport]) -> dict[str, int]:
    out = {"pass": 0, "fail": 0, "skipped": 0}
    for r in reports:
        out[r.status] = out.get(r.status, 0) + 1
    return out
