"""Acceptance criteria, one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one summary line
per criterion.  All criteria share one memo table, and the transition
expansions read module rows of W_m, so the whole file runs in seconds.
"""

import random
from math import comb

import pytest

from helpers import (
    all_perms,
    bruhat_leq_subword,
    coeff_parab,
    decoded,
    is_inverse,
    kl_inversion_check,
    pack_word,
    parabolic_kl_deodhar,
    straighten_oracle,
    transition_matrix,
)
from klforge.kl import kl_poly, parabolic_kl_neg1, parabolic_kl_q
from klforge.poly import LaurentPoly
from klforge.pbw import product_expansion_guarded
from klforge.segcomb import (
    Segment,
    construct_strongly_regular,
    is_strongly_regular,
    sigma0,
)
from klforge.transition import expand_E_in_G, expand_G_in_E
from klforge.verify import verify_power_identity, verify_prop1
from klforge.symgroup import (
    bruhat_leq,
    is_pattern_avoiding,
    length,
    replicate_perm,
)

V = LaurentPoly.v
Q = LaurentPoly.from_q_coeffs


def _avoiders(k):
    return [s for s in all_perms(k) if is_pattern_avoiding(s, (2, 1, 3))]


def _report(number, name, detail):
    print(f"\nACCEPTANCE {number} {name}: PASS ({detail})")


def test_criterion_1_main_theorem(table):
    cases = 0
    for k in (1, 2, 3, 4):
        for s0 in _avoiders(k):
            for omega in all_perms(k):
                if not bruhat_leq(s0, omega):
                    continue
                if not kl_poly(table, s0, omega).is_one():
                    continue
                for sigma in all_perms(k):
                    if not (bruhat_leq(s0, sigma) and bruhat_leq(sigma, omega)):
                        continue
                    m = 2
                    while m * k <= 9:
                        want = Q({comb(m, 2) * (length(omega) - length(sigma)): 1})
                        got = parabolic_kl_q(table, sigma, omega, m)
                        assert got == want, (k, m, s0, sigma, omega,
                                             got.format("q"), want.format("q"))
                        cases += 1
                        m += 1
    _report(1, "main theorem reproduction", f"{cases} cases, exact")


def test_criterion_2_product_vanishing(table):
    cases = 0
    for k in (1, 2, 3):
        for s0 in _avoiders(k):
            A = construct_strongly_regular(s0)
            doms = [s for s in all_perms(k) if bruhat_leq(s0, s)]
            for m in (2, 3):
                for sigma in doms:
                    for omega in doms:
                        rep = verify_prop1(A, sigma, omega, m)
                        assert rep.passed, rep.to_json()
                        want = (V(k * (comb(m - 1, 2) - comb(m, 2)))
                                if sigma == omega else LaurentPoly.zero())
                        assert rep.computed == want
                        cases += 1
    _report(2, "product vanishing and monomial", f"{cases} cases, exact")


def test_criterion_3_matrix_inversion(table):
    checked = 0
    for k in (1, 2, 3):
        for s0 in _avoiders(k):
            A = construct_strongly_regular(s0)
            for m in (1, 2):
                e2g = transition_matrix(table, A, m, "e2g")
                g2e = transition_matrix(table, A, m, "g2e")
                assert is_inverse(e2g, g2e), (k, s0, m)
                assert is_inverse(g2e, e2g), (k, s0, m)
                checked += 1
    _report(3, "transition matrices mutually inverse",
            f"{checked} families (plain and doubled)")


def test_criterion_4_parabolic_coefficient_consistency(table):
    m = 2
    entries = 0
    for k in (1, 2, 3):
        for s0 in _avoiders(k):
            A = construct_strongly_regular(s0)
            for omega in all_perms(k):
                if not bruhat_leq(s0, omega):
                    continue
                tw = replicate_perm(omega, m)
                eg = expand_E_in_G(table, A, tw, m)
                ge = expand_G_in_E(table, A, tw, m)
                for sigma in all_perms(k):
                    if not (bruhat_leq(s0, sigma) and bruhat_leq(sigma, omega)):
                        continue
                    ts = replicate_perm(sigma, m)
                    assert coeff_parab(table, A, sigma, omega, m, "e2g") == eg[ts]
                    assert coeff_parab(table, A, sigma, omega, m, "g2e") == ge[ts]
                    entries += 2
    _report(4, "closed-form parabolic coefficients", f"{entries} entries, exact")


def test_criterion_5_power_identity(table):
    exponents: dict[tuple[int, int], set[int]] = {}
    cases = 0
    for k in (1, 2, 3):
        for s0 in _avoiders(k):
            A = construct_strongly_regular(s0)
            for m in (2, 3):
                for omega in all_perms(k):
                    if not bruhat_leq(s0, omega):
                        continue
                    if not kl_poly(table, s0, omega).is_one():
                        continue
                    rep = verify_power_identity(table, A, omega, m)
                    assert rep.status == "pass", rep.to_json()
                    assert "NotMonomialRatio" not in rep.reason
                    exponents.setdefault((k, m), set()).add(rep.measured_exponent)
                    cases += 1
    for (k, m), es in sorted(exponents.items()):
        assert len(es) == 1, f"exponent varies for (k, m) = ({k}, {m}): {es}"
    measured = {km: es.pop() for km, es in sorted(exponents.items())}
    _report(5, "power identity monomial ratio",
            f"{cases} cases; e(k,m) = {measured}")


def test_criterion_6_oracle_suites(table):
    # the parabolic recursion on tuples against the packed module rows
    pairs = 0
    for k in (1, 2, 3):
        for m in (1, 2):
            for s in all_perms(k):
                for w in all_perms(k):
                    if not bruhat_leq(replicate_perm(s, m), replicate_perm(w, m)):
                        continue
                    assert parabolic_kl_deodhar(s, w, m, "q") == parabolic_kl_q(
                        table, s, w, m)
                    assert parabolic_kl_deodhar(s, w, m, "neg1") == parabolic_kl_neg1(
                        table, s, w, m)
                    pairs += 1

    # inversion identity on all of S_4 and 200 random S_5 pairs
    inv_checked = 0
    for s in all_perms(4):
        for w in all_perms(4):
            if bruhat_leq(s, w):
                assert kl_inversion_check(table, s, w)
                inv_checked += 1
    rng = random.Random(20240810)
    perms5 = list(all_perms(5))
    done = 0
    while done < 200:
        s, w = rng.choice(perms5), rng.choice(perms5)
        if bruhat_leq(s, w):
            assert kl_inversion_check(table, s, w)
            done += 1
    inv_checked += done

    # Bruhat comparison against the subword oracle on all of S_4
    bruhat_checked = 0
    for x in all_perms(4):
        for y in all_perms(4):
            assert bruhat_leq(x, y) == bruhat_leq_subword(x, y)
            bruhat_checked += 1

    # straightening confluence on 1000 random admissible words: the kernel's
    # insertion-pass normal form against the oracle exchanging the rightmost pair
    rng = random.Random(1234)
    confluent = 0
    while confluent < 1000:
        k = rng.randint(1, 6)
        avals = rng.sample(range(0, 50), k)
        bvals = [a + rng.randint(0, 10) for a in avals]
        if len(set(bvals)) != k or (set(avals) & {b + 1 for b in bvals}):
            continue
        w = tuple(Segment(a, b) for a, b in zip(avals, bvals))
        exact, tainted = product_expansion_guarded(
            [{pack_word([s]): LaurentPoly.one()} for s in w])
        assert (decoded(exact), tainted) == (
            straighten_oracle(w, LaurentPoly.one(), pick=max), frozenset())
        confluent += 1

    _report(6, "oracle suites",
            f"parabolic {pairs} pairs; inversion {inv_checked} pairs; "
            f"bruhat {bruhat_checked} pairs; confluence {confluent} words")


def test_criterion_7_combinatorial_counts():
    catalan = {1: 1, 2: 2, 3: 5, 4: 14}
    for k, expected in catalan.items():
        built = 0
        for s in all_perms(k):
            if not is_pattern_avoiding(s, (2, 1, 3)):
                continue
            A = construct_strongly_regular(s)
            assert is_strongly_regular(A)
            assert sigma0(A) == s
            built += 1
        assert built == expected, (k, built)
    _report(7, "Catalan counts and round trips", "1, 2, 5, 14 for k = 1..4")
