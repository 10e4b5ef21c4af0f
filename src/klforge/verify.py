"""Theorem-level verification harness.

Each verifier computes one identity two ways and reports the comparison:

* verify_main_theorem: the q-variant parabolic polynomial of a pair
  sigma <= omega below a 213-avoiding minimal permutation with trivial
  ordinary polynomial must be the single monomial
  q**(C(m,2) (length(omega) - length(sigma))).  It is read from the
  induced-module row of t_m(omega), through kl._entry on the keys the
  check made, as is P(sigma0, omega).  The smooth Schubert case is the
  instance with the identity as minimal permutation, and the sweep runs it
  with the other 213-avoiding ones.
* verify_prop1: in the straightening engine, the coefficient of the
  replicated basis element E(M_{t_m(sigma)}) inside
  E(M_{t_{m-1}(sigma)}) * E(M_omega) vanishes unless omega == sigma, and
  then equals v**(k (C(m-1,2) - C(m,2))).  The members are packed straight
  from the family's ends (pbw.member_word) and only that coefficient is
  read, by pbw.word_coefficient.  What checks share stays with the family:
  its JSON form, one rank table per m and one record per (member, m), whose
  rank sum serves the member as sigma and as omega.
  A word whose slack fails the rank table's guard cannot reach the target
  (the rank lemma), and its check reports 0 without straightening.
* verify_power_identity: the E-basis expansions of G(M_omega)**m and of
  G(M at the replicated coset) agree up to one monomial v**e.  Both are
  maps {sorted word: coefficient}, the words packed by pbw.member_word and
  straightened by pbw.product_expansion_guarded, and they are compared word
  by word; a word is spelled out as [a,b]+... only in a failure's reason.
  Neither check builds a Segment.  The claim is
  e = -k C(m,2), the product-vanishing constants telescoped over the m
  factors; e is measured and reported either way, and a case passes only
  when it equals the claim, so no separate report checks that e is the
  same for every omega at a fixed (k, m).

sweep walks each 213-avoiding sigma0 once: it builds the family, and per
m runs the product checks, then per omega the power identity and the main
theorem.  Hypothesis violations yield skipped reports, so a sweep
distinguishes "does not apply" from "contradicted", and so do the
main-theorem and power-identity cases that fail the sweep's one budget
test, n = m*k <= SWEEP_MAX_N.  The straightening engine's exchange rules
decide every product coefficient, so a report is pass, fail or skipped.
Arithmetic is exact; only exact equality passes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb
from typing import Iterable

from .kl import _LEN_MASK, _MAX_N, KLTable, _entry, kl_poly
from .kl import parabolic_kl_q  # noqa: F401  (perfbench/spans.py patches it)
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
# power-identity cases of (k, m) = (5, 2) at n = 10 take about 53 s, the 105
# of (4, 3) at n = 12 12-14 s (2-vCPU Xeon, Python 3.11.7), and the top row
# of (6, 2) at n = 12 would hold 12!/2**6 = 7,484,400 coset representatives.
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
            started: float, measured: int | None = None) -> VerificationReport:
    status = "pass" if claimed == computed else "fail"
    return VerificationReport(check, case, claimed, computed, status, "",
                              time.perf_counter() - started, measured)


def _family_json(A: BiSequence) -> dict:
    """A.to_json(), kept in A.derived at the first check; reports share it read-only."""
    family = A.derived.get("json")
    if family is None:
        family = A.derived["json"] = A.to_json()
    return family


def _skip(check: str, case: dict, reason: str, started: float) -> VerificationReport:
    return VerificationReport(check, case, None, None, "skipped", reason,
                              elapsed=time.perf_counter() - started)


def is_square_irreducible(table: KLTable, A: BiSequence, sigma: Perm) -> bool:
    """Whether the family member at sigma stays irreducible under squaring,
    tested as triviality of the polynomial of (sigma0(A), sigma).  Raises
    ValueError unless sigma permutes 1..k, and BelowSigma0 below sigma0."""
    if not is_regular(A):
        raise ValueError(f"{A} is not regular")
    s0 = sigma0(A)
    if not dominates_sigma0(A, sigma):
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
            keys = table._perm_keys
            s0, s, w = keys[sigma0_perm], keys[sigma], keys[omega]
            if not len(sigma) == len(omega) == k:
                raise ValueError("sizes differ")
        except ValueError as exc:  # past the keys' width it is no failed hypothesis
            permutes = HypothesisFailed(f"sigma0, sigma and omega must permute 1..{k}")
            raise (exc if k > _MAX_N else permutes) from None
        if not table._avoids_213[sigma0_perm]:
            raise HypothesisFailed(f"sigma0 {sigma0_perm} contains the pattern 213")
        if not (table._order[sigma0_perm, sigma] and table._order[sigma, omega]):
            raise HypothesisFailed("need sigma0 <= sigma <= omega")
        p0 = _entry(table, s0, w, sigma0_perm, omega, 1, None)
        if not p0.is_one():
            raise HypothesisFailed(
                f"P(sigma0, omega) = {p0.format('q')} is not trivial")
    except HypothesisFailed as exc:
        return _skip(check, case, f"HypothesisFailed: {exc}", started)
    gap = (w & _LEN_MASK) - (s & _LEN_MASK)  # length(omega) - length(sigma)
    claimed = LaurentPoly.v(-2 * comb(m, 2) * gap)  # q = v**-2
    computed = _entry(table, s, w, sigma, omega, m, "q")
    return _finish(check, case, claimed, computed, started)


def _record(A: BiSequence, p: Perm, m: int) -> tuple[Word, Word, Word, int]:
    """p's record at m, kept as A.derived[p, m]: its member word, that word
    taken m - 1 and m times and sorted, and its sum under m's rank table (the
    first record at m builds the table and constants at ("rank", m)).
    HypothesisFailed unless p permutes 1..k and dominates sigma0."""
    record, k = A.derived.get((p, m)), A.k
    if record is None:
        if tuple(sorted(p)) != identity(k):
            raise HypothesisFailed(f"sigma and omega must permute 1..{k}")
        if not dominates_sigma0(A, p):
            raise HypothesisFailed("sigma and omega must dominate sigma0")
        s = member_word(A, p)  # strong regularity: k nonempty, distinct segments
        if ("rank", m) not in A.derived:  # t_m(p) has the family's ends and length k*m
            A.derived["rank", m] = (
                _Rank(tuple(sorted(s * m))), LaurentPoly.v(k * comb(m - 1, 2)),
                k * comb(m, 2), LaurentPoly.v(k * (comb(m - 1, 2) - comb(m, 2))))
        record = A.derived[p, m] = (s, tuple(sorted(s * (m - 1))), tuple(sorted(s * m)),
                                    A.derived["rank", m][0].total(s))
    return record


def verify_prop1(A: BiSequence, sigma: Perm, omega: Perm, m: int) -> VerificationReport:
    """Vanishing and the monomial constant for one straightened product.

    Multiplies E(M at t_{m-1}(sigma) in the (m-1)-replication) by
    E(M_omega) and reads off the coefficient of the m-replicated element.
    A.derived keeps its JSON, per m one rank table and the constants, and
    per (p, m) the record of each member p that passed (_record): sigma's
    gives the left word, the target and its sum, omega's the right word and
    its sum.  The slack is base(target) - sum(left) - sum(right) =
    guard + sum(sigma) - sum(omega), as the target holds sigma's member m
    times and the left m - 1 times.
    """
    started = time.perf_counter()
    sigma, omega = tuple(sigma), tuple(omega)
    case = {"k": A.k, "m": m, "family": _family_json(A),
            "sigma": list(sigma), "omega": list(omega)}
    check = "product-vanishing"
    try:
        if m < 2:
            raise HypothesisFailed("m must be greater than 1")
        if ("rank", m) not in A.derived and not is_strongly_regular(A):
            raise HypothesisFailed(f"{A} is not strongly regular")
        _, left, target, part = _record(A, sigma, m)
        right, _, _, total = _record(A, omega, m)
    except HypothesisFailed as exc:
        return _skip(check, case, f"HypothesisFailed: {exc}", started)
    rank, coeff, exponent, constant = A.derived["rank", m]
    slack, computed = rank.guard + part - total, LaurentPoly.zero()
    if rank.in_play(slack):
        w = left + right
        computed = word_coefficient({w: coeff}, target, exponent, rank, {w: slack})
    claimed = constant if omega == sigma else LaurentPoly.zero()
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
        if nc != dc.shifted(e):
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
    case = {"k": A.k, "m": m, "family": _family_json(A), "omega": list(omega)}
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
            expand_G_in_E(table, A, replicate_perm(omega, m), m).items()}
    right = g_star_power_with_taint(table, A, omega, m)[0]
    claimed = LaurentPoly.v(-A.k * comb(m, 2))  # product-vanishing constants, telescoped
    try:
        e = _monomial_ratio(right, left)
    except NotMonomialRatio as exc:  # no exponent was measured
        return VerificationReport(check, case, claimed, None, "fail",
                                  f"NotMonomialRatio: {exc}",
                                  elapsed=time.perf_counter() - started)
    return _finish(check, case, claimed, LaurentPoly.v(e), started, e)


def sweep(table: KLTable, kmax: int, mmax: int) -> list[VerificationReport]:
    """Run every verifier over the admissible grid, one family at a time.

    For each k <= kmax, each 213-avoiding minimal permutation s0 of S_k and
    each 2 <= m <= mmax, in that order: the product check for every sigma
    and omega above s0, then per omega above s0 the power identity and the
    main-theorem check for every sigma between s0 and omega.  The product
    check reads no KL row, so no budget applies to it.  The budget is one
    test, m*k <= SWEEP_MAX_N: past it a power or main-theorem case is not
    run, since its rows and straightening outgrow a sweep there, and
    reports as skipped with a reason beginning "Budget:", as hypothesis
    failures report as skipped.  A power case passes only at the claimed
    exponent -k C(m,2), so the passing exponents at a fixed (k, m) agree
    without a report of their own.
    """
    reports: list[VerificationReport] = []
    for k in range(1, kmax + 1):
        for s0 in permutations_of(k):
            if not is_pattern_avoiding(s0, (2, 1, 3)):
                continue
            A = construct_strongly_regular(s0)
            above = [w for w in permutations_of(k) if bruhat_leq(s0, w)]
            for m in range(2, mmax + 1):
                reports += [verify_prop1(A, sigma, omega, m)
                            for sigma in above for omega in above]
                for omega in above:
                    below = [sigma for sigma in above if bruhat_leq(sigma, omega)]
                    if m * k <= SWEEP_MAX_N:
                        reports.append(verify_power_identity(table, A, omega, m))
                        reports += [verify_main_theorem(table, s0, sigma, omega, m)
                                    for sigma in below]
                        continue
                    budget = (f"Budget: n = m*k = {m * k} > {SWEEP_MAX_N}, "
                              "the largest n a sweep runs")
                    case = {"k": k, "m": m, "family": _family_json(A), "omega": list(omega)}
                    reports.append(VerificationReport(
                        "power-identity", case, None, None, "skipped", budget))
                    reports += [VerificationReport(
                        "main-theorem", {"k": k, "m": m, "sigma0": list(s0),
                                         "sigma": list(sigma), "omega": list(omega)},
                        None, None, "skipped", budget) for sigma in below]
    return reports


def summarize(reports: Iterable[VerificationReport]) -> dict[str, int]:
    out = {"pass": 0, "fail": 0, "skipped": 0}
    for r in reports:
        out[r.status] = out.get(r.status, 0) + 1
    return out
