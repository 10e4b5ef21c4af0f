import json

import pytest

from helpers import all_perms
from klforge.poly import LaurentPoly
from klforge.segcomb import BelowSigma0, BiSequence, construct_strongly_regular
from klforge.verify import (
    VerificationReport,
    is_square_irreducible,
    summarize,
    sweep,
    verify_corollary_smooth,
    verify_main_theorem,
    verify_power_identity,
    verify_prop1,
)
from klforge.symgroup import identity

V = LaurentPoly.v


def test_is_square_irreducible(table):
    A = construct_strongly_regular((1, 3, 2))
    s0 = (1, 3, 2)
    assert is_square_irreducible(table, A, s0)
    for s in all_perms(3):
        try:
            assert is_square_irreducible(table, A, s)
        except BelowSigma0:
            pass
    A4 = construct_strongly_regular(identity(4))
    assert not is_square_irreducible(table, A4, (3, 4, 1, 2))
    assert not is_square_irreducible(table, A4, (4, 2, 3, 1))
    with pytest.raises(BelowSigma0):
        is_square_irreducible(table, BiSequence((1, 3), (2, 1)), (1, 2))


def test_main_theorem_diagonal(table):
    r = verify_main_theorem(table, (1, 2), (2, 1), (2, 1), 2)
    assert r.passed and r.computed == LaurentPoly.one()


def test_main_theorem_basic_case(table):
    r = verify_main_theorem(table, (1, 2), (1, 2), (2, 1), 2)
    assert r.passed
    assert r.computed.as_q_polynomial() == {1: 1}


def test_main_theorem_hypothesis_filter(table):
    r = verify_main_theorem(table, identity(4), identity(4), (3, 4, 1, 2), 2)
    assert r.status == "skipped"
    assert "HypothesisFailed" in r.reason and "1+q" in r.reason
    r = verify_main_theorem(table, (2, 1, 3), (2, 1, 3), (3, 2, 1), 2)
    assert r.status == "skipped" and "213" in r.reason


def test_corollary_smooth(table):
    r = verify_corollary_smooth(table, identity(2), 2)
    assert len(r) == 1 and r[0].passed
    reports = verify_corollary_smooth(table, (3, 2, 1), 2)
    assert len(reports) == 6 and all(x.passed for x in reports)
    skipped = verify_corollary_smooth(table, (3, 4, 1, 2), 2)
    assert len(skipped) == 1 and skipped[0].status == "skipped"
    assert "not smooth" in skipped[0].reason


def test_prop1_examples():
    A = BiSequence((1, 5), (7, 5))
    r = verify_prop1(A, (1, 2), (1, 2), 2)
    assert r.passed and r.computed == V(-2)
    r = verify_prop1(A, (1, 2), (2, 1), 2)
    assert r.passed and r.computed.is_zero()
    r = verify_prop1(construct_strongly_regular((1,)), (1,), (1,), 2)
    assert r.passed and r.computed == V(-1)


def test_prop1_constant_shape():
    # f(k, m) = k (C(m-1,2) - C(m,2)) on diagonal cases
    for k, m, f in ((1, 2, -1), (2, 2, -2), (2, 3, -4), (3, 2, -3)):
        s0 = identity(k)
        A = construct_strongly_regular(s0)
        r = verify_prop1(A, s0, s0, m)
        assert r.passed and r.computed == V(f), (k, m, r.computed)


def test_power_identity_examples(table):
    A = BiSequence((1, 5), (7, 5))
    r = verify_power_identity(table, A, (1, 2), 2)
    assert r.passed and r.measured_exponent == -2
    r = verify_power_identity(table, A, (2, 1), 2)
    assert r.passed and r.measured_exponent == -2
    r1 = verify_power_identity(table, construct_strongly_regular((1,)), (1,), 3)
    assert r1.passed and r1.measured_exponent == -3


def test_power_identity_gate(table):
    A4 = construct_strongly_regular(identity(4))
    r = verify_power_identity(table, A4, (3, 4, 1, 2), 2)
    assert r.status == "skipped" and "NotSquareIrreducible" in r.reason


def test_report_shape(table):
    r = verify_main_theorem(table, (1, 2), (1, 2), (2, 1), 2)
    data = json.loads(json.dumps(r.to_json()))
    assert data["status"] == "pass"
    assert data["check"] == "main-theorem"
    assert LaurentPoly.from_json(data["claimed"]) == r.claimed
    assert r.passed == (r.claimed == r.computed)


def test_report_pass_iff_equal():
    one = LaurentPoly.one()
    r = VerificationReport("x", {}, one, one, "pass")
    assert r.passed
    r = VerificationReport("x", {}, one, LaurentPoly.zero(), "fail")
    assert not r.passed


def test_sweep_small(table):
    reports = sweep(table, 2, 2)
    counts = summarize(reports)
    assert counts["fail"] == 0
    assert counts["pass"] > 0
    checks = {r.check for r in reports}
    assert {"main-theorem", "product-vanishing", "power-identity",
            "power-exponent-constancy"} <= checks
    # deterministic ordering (up to timing)
    def stripped(rs):
        out = []
        for r in rs:
            d = r.to_json()
            d.pop("elapsed_s")
            out.append(d)
        return out

    again = sweep(table, 2, 2)
    assert stripped(again) == stripped(reports)


def test_sweep_full_grid(table):
    # the documented driver bounds: n runs up to 9, nothing may fail
    for kmax, mmax in ((3, 3), (4, 2)):
        reports = sweep(table, kmax, mmax)
        counts = summarize(reports)
        assert counts["fail"] == 0, [r.to_json() for r in reports
                                     if r.status == "fail"][:3]
        assert counts["pass"] > 0


def test_sweep_parallel_matches_serial(table):
    serial = sweep(table, 2, 2, parallelism=1)
    parallel = sweep(table, 2, 2, parallelism=2)
    def untimed(reports):
        return [{k: v for k, v in r.to_json().items() if k != "elapsed_s"}
                for r in reports]

    assert untimed(serial) == untimed(parallel)
    assert [(r.check, r.case, r.status) for r in serial] == [
        (r.check, r.case, r.status) for r in parallel]
