import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import monomial, power
from klforge.poly import LaurentPoly, NotAQPolynomial

V = LaurentPoly.v
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


def random_poly(rng, span=6, terms=4):
    return LaurentPoly({rng.randint(-span, span): rng.randint(-9, 9)
                        for _ in range(rng.randint(0, terms))})


def test_add_cancellation():
    assert V(1) + ONE + (-1 * V(1)) == ONE


def test_add_identity():
    p = V(3) - 2 * V(-1)
    assert ZERO + p == p


def test_add_q_view():
    one_plus_q = LaurentPoly.from_q_coeffs({0: 1, 1: 1})
    assert one_plus_q + ONE == LaurentPoly({0: 2, -2: 1})


def test_mul_examples():
    assert (V(-1) - V(1)) * V(1) == ONE - V(2)
    p = LaurentPoly({-3: 2, 0: 1, 5: -1})
    assert p * ONE == p
    assert V(4) * V(-7) == V(-3)


def test_pow():
    assert power(V(1) + ONE, 2) == V(2) + 2 * V(1) + ONE
    assert power(V(1) + ONE, 3) == V(3) + 3 * V(2) + 3 * V(1) + ONE
    assert power(V(1), 0) == ONE


def test_ring_axioms_random():
    rng = random.Random(20240811)
    for _ in range(200):
        p, r, s = (random_poly(rng) for _ in range(3))
        assert (p + r) + s == p + (r + s)
        assert p + r == r + p
        assert (p * r) * s == p * (r * s)
        assert p * r == r * p
        assert p * (r + s) == p * r + p * s


_polys = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9),
                         max_size=4).map(LaurentPoly)


@settings(max_examples=200, deadline=None)
@given(_polys, _polys, _polys)
def test_ring_axioms(p, r, s):
    assert (p + r) + s == p + (r + s)
    assert p + r == r + p
    assert p + ZERO == p and p * ONE == p and (p * ZERO).is_zero()
    assert (p + (-p)).is_zero() and p - r == p + (-r)
    assert (p * r) * s == p * (r * s)
    assert p * r == r * p
    assert p * (r + s) == p * r + p * s
    assert hash(p + r) == hash(r + p)


def test_q_roundtrip_random():
    rng = random.Random(7)
    for _ in range(100):
        qc = {rng.randint(0, 8): rng.randint(-5, 5) for _ in range(rng.randint(0, 5))}
        qc = {j: c for j, c in qc.items() if c}
        p = LaurentPoly.from_q_coeffs(qc)
        assert p.as_q_polynomial() == qc


def test_as_q_polynomial_examples():
    assert LaurentPoly({0: 1, -2: 1}).as_q_polynomial() == {0: 1, 1: 1}
    assert LaurentPoly({-4: 1}).as_q_polynomial() == {2: 1}
    with pytest.raises(NotAQPolynomial):
        V(1).as_q_polynomial()
    with pytest.raises(NotAQPolynomial):
        V(2).as_q_polynomial()


def test_monomial_constructors():
    assert V(5, 0) == LaurentPoly.zero() == LaurentPoly({})
    for p in (V(5, 0), LaurentPoly.zero(), V(-1, 3)):
        assert 0 not in p._coeffs.values()
    assert V(5, 0)._coeffs == LaurentPoly.zero()._coeffs == {}
    # an int subclass is stored as a plain int, key and value
    p = V(True, True)
    assert p == V(1) and p._coeffs == {1: 1}
    assert all(type(e) is int and type(c) is int for e, c in p._coeffs.items())
    assert list(V(-2, -3).items()) == [(-2, -3)]


def test_monomial_inspection():
    assert monomial(V(-2, 3)) == (-2, 3)
    assert monomial(V(1) + ONE) is None
    assert monomial(ZERO) is None
    with pytest.raises(ValueError):
        ZERO.min_exponent()


def test_json_roundtrip():
    p = LaurentPoly({-2: 1, 0: -3, 5: 2})
    for var in ("v",):
        data = json.loads(json.dumps(p.to_json(var)))
        assert LaurentPoly.from_json(data) == p
    q = LaurentPoly.from_q_coeffs({0: 1, 3: -2})
    assert LaurentPoly.from_json(q.to_json("q")) == q
    assert q.to_json("q") == {"var": "q", "coeffs": {"0": 1, "3": -2}}
    with pytest.raises(ValueError, match="unknown variable 'x'"):
        p.to_json("x")
    with pytest.raises(ValueError, match="unknown variable 'x'"):
        LaurentPoly.from_json({"var": "x", "coeffs": {"0": 1}})


def test_format():
    assert ZERO.format("q") == "0"
    assert ONE.format("q") == "1"
    assert LaurentPoly.from_q_coeffs({0: 1, 1: 1}).format("q") == "1+q"
    assert LaurentPoly.from_q_coeffs({1: 1}).format("q") == "q"
    assert LaurentPoly.from_q_coeffs({2: 3, 0: -1}).format("q") == "-1+3q^2"
    assert (V(-1) - V(1)).format("v") == "v^-1-v"


def test_hash_consistency():
    assert hash(V(2) + ONE) == hash(ONE + V(2))
    assert len({V(0), ONE, LaurentPoly({0: 1})}) == 1
