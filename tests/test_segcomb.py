import json
import random

import pytest

from helpers import (
    NotLinked,
    all_perms,
    bisequences,
    double_multiplication_holds,
    multisegment_oracle,
    union_intersection,
)
from klforge.segcomb import (
    BelowSigma0,
    BiSequence,
    Not213Avoiding,
    Segment,
    construct_strongly_regular,
    dominates_sigma0,
    general_position,
    is_regular,
    is_strongly_regular,
    multisegment_of,
    precedes,
    replicate,
    sigma0,
)
from klforge.symgroup import bruhat_leq, identity, is_pattern_avoiding, replicate_perm


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(3, 2)
    assert str(Segment(1, 4)) == "[1,4]"


def test_precedes():
    assert precedes(Segment(1, 3), Segment(2, 4))
    assert not precedes(Segment(1, 2), Segment(4, 5))
    d = Segment(2, 5)
    assert not precedes(d, d)


def test_general_position():
    assert general_position(Segment(1, 3), Segment(2, 4))
    assert not general_position(Segment(1, 2), Segment(3, 4))
    assert not general_position(Segment(2, 5), Segment(2, 5))


def test_union_intersection():
    assert union_intersection(Segment(1, 3), Segment(2, 4)) == (
        Segment(1, 4), Segment(2, 3))
    assert union_intersection(Segment(1, 3), Segment(4, 6)) == (Segment(1, 6), None)
    with pytest.raises(NotLinked):
        union_intersection(Segment(2, 4), Segment(1, 3))


def test_bisequence_validation():
    BiSequence((1, 2, 3), (8, 7, 6))
    with pytest.raises(ValueError):
        BiSequence((2, 1), (5, 4))  # a not nondecreasing
    with pytest.raises(ValueError):
        BiSequence((1, 2), (4, 5))  # b not nonincreasing
    with pytest.raises(ValueError):
        BiSequence((5, 6), (9, 3))  # a_1 > b_2 + 1
    with pytest.raises(ValueError):
        BiSequence((), ())


def test_sigma0_examples():
    assert sigma0(BiSequence((1, 2, 3), (8, 7, 6))) == (1, 2, 3)
    assert sigma0(BiSequence((1, 3), (2, 1))) == (2, 1)
    assert sigma0(BiSequence((5,), (9,))) == (1,)


def test_dominates_examples():
    A = BiSequence((1, 3), (2, 1))
    assert dominates_sigma0(A, (2, 1))
    assert not dominates_sigma0(A, (1, 2))
    B = BiSequence((1, 2, 3), (8, 7, 6))
    for s in all_perms(3):
        assert dominates_sigma0(B, s)


@pytest.mark.parametrize("sigma", [(0, 1, 2), (3, 3, 3), (1, 1, 2), (1, 2, 4)])
def test_dominates_rejects_what_is_not_a_permutation(sigma):
    with pytest.raises(ValueError) as info:
        dominates_sigma0(construct_strongly_regular((1, 2, 3)), sigma)
    assert str(info.value) == f"{sigma} does not permute 1..3"


def test_dominates_iff_bruhat():
    for k, lo, hi in ((2, 0, 4), (3, 0, 3), (4, 0, 2)):
        for A in bisequences(k, lo, hi):
            s0 = sigma0(A)
            for s in all_perms(k):
                assert dominates_sigma0(A, s) == bruhat_leq(s0, s), (A, s)


def _dominating_perm(A: BiSequence, rng: random.Random) -> tuple[int, ...]:
    """A random sigma with a_i <= b_sigma(i) + 1 for all i.  The admissible
    columns of row i are a prefix of 1..k that shrinks as i grows, so
    filling the rows from the last never runs out of columns."""
    sigma = [0] * A.k
    free = set(range(1, A.k + 1))
    for i in reversed(range(A.k)):
        sigma[i] = rng.choice(sorted(j for j in free if A.a[i] <= A.b[j - 1] + 1))
        free.remove(sigma[i])
    return tuple(sigma)


def test_multisegment_of():
    # the JSON form of the Segment-object oracle, on every member of every
    # strongly regular family with k <= 4 and of its 2-, 3- and 4-fold
    # replications, at t_m(sigma) and at a random dominating permutation
    A = BiSequence((1, 2, 3), (8, 7, 6))
    assert multisegment_of(A, identity(3)) == [
        {"a": 3, "b": 6, "mult": 1}, {"a": 2, "b": 7, "mult": 1}, {"a": 1, "b": 8, "mult": 1}]
    rng = random.Random(31)
    for k in (1, 2, 3, 4):
        for s0 in all_perms(k):
            if not is_pattern_avoiding(s0, (2, 1, 3)):
                continue
            A = construct_strongly_regular(s0)
            for sig in all_perms(k):
                if not bruhat_leq(s0, sig):
                    continue
                member = multisegment_oracle(A, sig)
                assert multisegment_of(A, sig) == member.to_json(), (A, sig)
                for m in (2, 3, 4):
                    R = replicate(A, m)
                    for p in (replicate_perm(sig, m), _dominating_perm(R, rng)):
                        assert multisegment_of(R, p) == multisegment_oracle(R, p).to_json()
    # an empty segment is dropped, and below sigma0 there is no member
    B = BiSequence((1, 3), (2, 1))
    assert multisegment_of(B, (2, 1)) == [{"a": 1, "b": 1, "mult": 1}]
    with pytest.raises(BelowSigma0):
        multisegment_of(B, (1, 2))
    # not a permutation of 1..3: no member, and no dominance test run
    C = construct_strongly_regular((1, 2, 3))
    for sigma in ((0, 1, 2), (3, 3, 3), (1, 2, 4)):
        with pytest.raises(ValueError) as info:
            multisegment_of(C, sigma)
        assert str(info.value) == f"{sigma} does not permute 1..3"
        assert not isinstance(info.value, BelowSigma0)


def test_replicated_member_is_the_scaled_member():
    # M at t_m(sigma) in the m-fold replication is m * M_sigma, which
    # verify_prop1 and verify_power_identity build by scaling
    for k in (1, 2, 3, 4):
        for s0 in all_perms(k):
            if not is_pattern_avoiding(s0, (2, 1, 3)):
                continue
            A = construct_strongly_regular(s0)
            for sig in all_perms(k):
                if not bruhat_leq(s0, sig):
                    continue
                for m in (1, 2, 3, 4):
                    scaled = m * multisegment_oracle(A, sig)
                    built = multisegment_oracle(replicate(A, m), replicate_perm(sig, m))
                    assert scaled == built and hash(scaled) == hash(built), (A, sig, m)
                    assert multisegment_of(replicate(A, m), replicate_perm(sig, m)) == \
                        scaled.to_json(), (A, sig, m)


def test_replicate():
    A = BiSequence((1, 2, 3), (8, 7, 6))
    assert replicate(A, 3) == BiSequence(
        (1, 1, 1, 2, 2, 2, 3, 3, 3), (8, 8, 8, 7, 7, 7, 6, 6, 6))
    assert replicate(A, 1) == A
    with pytest.raises(ValueError, match="m must be at least 1"):
        replicate(A, 0)


def test_replicated_parabolics():
    A = BiSequence((1, 2), (8, 7))
    r = replicate(A, 3)
    assert r.a == (1, 1, 1, 2, 2, 2) and r.b == (8, 8, 8, 7, 7, 7)
    assert is_regular(A) and not is_regular(r)


def test_double_multiplication():
    for k in (1, 2, 3):
        for s0 in all_perms(k):
            if not is_pattern_avoiding(s0, (2, 1, 3)):
                continue
            A = construct_strongly_regular(s0)
            for sig in all_perms(k):
                if dominates_sigma0(A, sig):
                    for m in (1, 2, 3):
                        assert double_multiplication_holds(A, sig, m)


def test_strongly_regular_examples():
    assert is_strongly_regular(BiSequence((1, 2, 3), (8, 7, 6)))
    assert not is_strongly_regular(BiSequence((1, 1), (8, 7)))
    assert not is_strongly_regular(BiSequence((1, 9), (10, 8)))


def test_construct_strongly_regular_roundtrip():
    for k in (1, 2, 3, 4, 5):
        count = 0
        for s in all_perms(k):
            if not is_pattern_avoiding(s, (2, 1, 3)):
                continue
            A = construct_strongly_regular(s)
            assert is_strongly_regular(A)
            assert sigma0(A) == s
            count += 1
        assert count == [1, 2, 5, 14, 42][k - 1]


def test_construct_rejects_213():
    with pytest.raises(Not213Avoiding):
        construct_strongly_regular((2, 1, 3))


def test_strongly_regular_general_position():
    rng = random.Random(2)
    for k in (2, 3, 4):
        for s0 in all_perms(k):
            if not is_pattern_avoiding(s0, (2, 1, 3)):
                continue
            A = construct_strongly_regular(s0)
            perms = [s for s in all_perms(k) if dominates_sigma0(A, s)]
            for sig in rng.sample(perms, min(4, len(perms))):
                segs = list(multisegment_oracle(A, sig).segments())
                for i in range(len(segs)):
                    for j in range(i + 1, len(segs)):
                        assert segs[i] == segs[j] or general_position(
                            segs[i], segs[j])


def test_bisequence_json():
    A = BiSequence((1, 2), (8, 7))
    assert BiSequence.from_json(json.loads(json.dumps(A.to_json()))) == A
