import random

import pytest
from hypothesis import given, settings, strategies as st

import klforge.pbw as pbw
from helpers import (
    c_strongly_regular,
    product_expansion_guarded_oracle,
    reachable_normal_multisegments,
    rewrite_oracle,
    segment_less,
    straighten_oracle,
)
from klforge.poly import LaurentPoly
from klforge.pbw import (
    NonGeneralPositionExchange,
    PBWElement,
    TWord,
    e_star,
    multiply,
    product_expansion_guarded,
    straighten,
)
from klforge.segcomb import Multisegment, Segment
from klforge.symgroup import NotComparable

V = LaurentPoly.v
ONE = LaurentPoly.one()
EXCH = V(-1) - V(1)


def seg(a, b):
    return Segment(a, b)


def mseg(*pairs):
    return Multisegment([Segment(a, b) for a, b in pairs])


def word(*pairs):
    return TWord(ONE, tuple(Segment(a, b) for a, b in pairs))


def test_segment_less():
    assert segment_less(seg(5, 5), seg(1, 7))
    assert segment_less(seg(1, 4), seg(2, 4))
    assert not segment_less(seg(2, 4), seg(2, 4))


def test_e_star():
    w = e_star(mseg((3, 5)))
    assert w.prefix == ONE and w.segments == (seg(3, 5),)
    w = e_star(2 * mseg((1, 2)))
    assert w.prefix == V(1) and w.segments == (seg(1, 2), seg(1, 2))
    w = e_star(mseg((5, 5), (1, 7)))
    assert w.prefix == ONE and w.segments == (seg(5, 5), seg(1, 7))


def test_straighten_linked_pair():
    got = straighten(word((2, 4), (1, 3)))
    want = PBWElement({mseg((1, 3), (2, 4)): ONE, mseg((2, 3), (1, 4)): EXCH})
    assert got == want


def test_straighten_commuting_pair():
    got = straighten(word((1, 7), (5, 5)))
    assert got == PBWElement.basis(mseg((5, 5), (1, 7)))


def test_straighten_sorted_word():
    got = straighten(word((1, 3), (2, 4)))
    assert got == PBWElement.basis(mseg((1, 3), (2, 4)))


def test_straighten_stuck_raises():
    with pytest.raises(NonGeneralPositionExchange):
        straighten(word((1, 5), (1, 3)))
    with pytest.raises(NonGeneralPositionExchange):
        straighten(word((3, 4), (1, 2)))  # adjacent: a2 == b1 + 1


def test_multiply_unit():
    x = PBWElement.basis(mseg((1, 3), (2, 4)))
    assert multiply(x, PBWElement.unit()) == x
    assert multiply(PBWElement.unit(), x) == x


def test_multiply_square_collects_prefactor():
    e = PBWElement.basis(mseg((5, 5), (1, 7)))
    got = multiply(e, e)
    assert got == PBWElement({mseg((5, 5), (5, 5), (1, 7), (1, 7)): V(-2)})


def test_multiply_single_segments_linked():
    got = multiply(PBWElement.basis(mseg((2, 4))), PBWElement.basis(mseg((1, 3))))
    want = PBWElement({mseg((1, 3), (2, 4)): ONE, mseg((2, 3), (1, 4)): EXCH})
    assert got == want


def _random_collision_free_word(rng, maxlen=6):
    while True:
        k = rng.randint(1, maxlen)
        avals = rng.sample(range(0, 50), k)
        bvals = [a + rng.randint(0, 10) for a in avals]
        if len(set(bvals)) == k and not (set(avals) & {b + 1 for b in bvals}):
            return TWord(ONE, tuple(Segment(a, b) for a, b in zip(avals, bvals)))


def test_confluence_on_random_words():
    rng = random.Random(20240810)
    for _ in range(1000):
        w = _random_collision_free_word(rng)
        assert straighten(w, _pick="leftmost") == straighten(w, _pick="rightmost")


def test_multiply_associativity():
    rng = random.Random(99)
    done = 0
    while done < 60:
        try:
            x = straighten(_random_collision_free_word(rng, 2))
            y = straighten(_random_collision_free_word(rng, 2))
            z = straighten(_random_collision_free_word(rng, 2))
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
            done += 1
        except NonGeneralPositionExchange:
            continue


def reachable(word):
    """The packed search of the engine, read back as multisegments."""
    return set(map(pbw._Decoder().multisegment, pbw._reachable(pbw._pack_word(word))))


def test_reachable_normal_multisegments():
    for search in (reachable, reachable_normal_multisegments):
        # a stuck word reorders without creating new multisegments here
        w = (seg(5, 5), seg(1, 7), seg(1, 5), seg(5, 7))
        reach = search(w)
        assert reach == {mseg((5, 5), (1, 7), (1, 5), (5, 7))}
        # a linked pair reachable behind a shared-end swap adds its exchange
        w2 = (seg(2, 7), seg(2, 4), seg(1, 5))
        reach2 = search(w2)
        assert mseg((2, 7), (2, 4), (1, 5)) in reach2
        assert mseg((2, 4), (2, 5), (1, 7)) in reach2


def test_product_expansion_guarded_exact_part():
    # cross product of two family members: the replicated elements stay exact
    me = mseg((5, 5), (1, 7))
    m21 = mseg((1, 5), (5, 7))
    exact, tainted = product_expansion_guarded(
        [PBWElement.basis(me), PBWElement.basis(m21)])
    assert me + m21 in tainted
    assert exact.coefficient(2 * me).is_zero()
    assert exact.coefficient(2 * m21).is_zero()


def test_guarded_matches_strict_when_nothing_sticks():
    rng = random.Random(55)
    done = 0
    while done < 50:
        try:
            x = straighten(_random_collision_free_word(rng, 3))
            y = straighten(_random_collision_free_word(rng, 3))
            strict = multiply(x, y)
        except NonGeneralPositionExchange:
            continue
        exact, tainted = product_expansion_guarded([x, y])
        assert not tainted
        assert exact == strict
        done += 1


def test_scale_and_add():
    x = PBWElement.basis(mseg((1, 2)))
    y = x.scale(V(2)) + x.scale(-1 * V(2))
    assert y.is_zero()


def test_pbw_json_roundtrip():
    x = PBWElement({mseg((1, 3), (2, 4)): ONE, mseg((2, 3), (1, 4)): EXCH})
    assert PBWElement.from_json(x.to_json()) == x


def test_c_strongly_regular():
    assert c_strongly_regular((2, 1), (2, 1), 3) == 0
    assert c_strongly_regular((1, 2), (2, 1), 1) == 1
    assert c_strongly_regular((1, 2), (2, 1), 3) == 9
    with pytest.raises(NotComparable):
        c_strongly_regular((2, 1), (1, 2), 2)


# -- the packed kernel against the Segment-object oracle -------------------
#
# Ends are drawn from a narrow range so that shared ends (stuck pairs),
# adjacent segments (a2 == b1 + 1) and linked pairs are all common.


def _random_segment(rng):
    a = rng.randint(0, 6)
    return Segment(a, a + rng.randint(0, 3))


def _unpacked(words: dict) -> dict:
    return {tuple(map(pbw._unpack, w)): c for w, c in words.items()}


def check_straighten(w: TWord):
    for from_right in (False, True):
        finished, stuck = pbw._rewrite(pbw._pack_word(w.segments), w.prefix,
                                       from_right)
        want_finished, want_stuck = rewrite_oracle(w, from_right)
        assert _unpacked(finished) == want_finished
        assert _unpacked(stuck) == want_stuck
        pick = "rightmost" if from_right else "leftmost"
        try:
            want = straighten_oracle(w, from_right)
        except NonGeneralPositionExchange:
            with pytest.raises(NonGeneralPositionExchange):
                straighten(w, _pick=pick)
        else:
            assert straighten(w, _pick=pick) == want


def check_product(factors):
    exact, tainted = product_expansion_guarded(factors)
    want_exact, want_tainted = product_expansion_guarded_oracle(factors)
    assert tainted == want_tainted
    assert exact == want_exact


def _random_element(rng, max_segments):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        m = Multisegment(_random_segment(rng)
                         for _ in range(rng.randint(1, max_segments)))
        terms[m] = V(rng.randint(-1, 1)) * rng.choice((1, -1))
    return PBWElement(terms)


def test_packed_kernel_matches_oracle_seeded():
    rng = random.Random(7001)
    for _ in range(400):
        k = rng.randint(1, 6)
        check_straighten(TWord(V(rng.randint(-2, 2)),
                               tuple(_random_segment(rng) for _ in range(k))))
    for _ in range(150):
        check_product([_random_element(rng, 2) for _ in range(rng.randint(2, 3))])


def test_guarded_product_drops_cancelled_words():
    # (D, A, B, C) arises from D.A.(B+C) and D.(A+B).C with opposite signs;
    # it is stuck (D and A share a left end), and {A, B, C, D} is reachable
    # from no other product word, so it must not be tainted.
    A, B, C, D = (1, 2), (4, 5), (7, 8), (1, 10)
    x = PBWElement.basis(mseg(D))
    y = PBWElement({mseg(A): ONE, mseg(A, B): ONE})
    z = PBWElement({mseg(B, C): ONE, mseg(C): -ONE})
    check_product([x, y, z])
    _, tainted = product_expansion_guarded([x, y, z])
    assert mseg(A, B, C, D) not in tainted
    assert mseg(A, C, D) in tainted


_segments = st.builds(lambda a, d: Segment(a, a + d),
                      st.integers(0, 6), st.integers(0, 3))
_multisegments = st.lists(_segments, min_size=1, max_size=2).map(Multisegment)
_elements = st.dictionaries(
    _multisegments, st.sampled_from([ONE, -ONE, V(1), EXCH]),
    min_size=1, max_size=2).map(PBWElement)


@settings(max_examples=150, deadline=None)
@given(st.lists(_segments, min_size=1, max_size=6), st.integers(-2, 2))
def test_packed_straighten_matches_oracle(segments, e):
    check_straighten(TWord(V(e), tuple(segments)))


@settings(max_examples=80, deadline=None)
@given(st.lists(_elements, min_size=2, max_size=3))
def test_packed_guarded_product_matches_oracle(factors):
    check_product(factors)


def test_reach_state_cap_raises(monkeypatch):
    # the one stuck word of this product reaches 3 words in all
    factors = [PBWElement.basis(mseg((5, 5), (1, 7))),
               PBWElement.basis(mseg((1, 5), (5, 7)))]
    monkeypatch.setattr(pbw, "_REACH_STATE_CAP", 3)
    product_expansion_guarded(factors)
    monkeypatch.setattr(pbw, "_REACH_STATE_CAP", 2)
    with pytest.raises(NonGeneralPositionExchange):
        product_expansion_guarded(factors)


@pytest.mark.parametrize("a, b", [(-2**31 - 1, 0), (0, 2**31), (2**40, 2**40)])
def test_segment_end_out_of_range_raises(a, b):
    with pytest.raises(ValueError):
        straighten(word((a, b)))
    with pytest.raises(ValueError):
        product_expansion_guarded([PBWElement.basis(mseg((a, b)))])


def test_segment_ends_at_range_limits():
    lo, hi = -2**31, 2**31 - 1
    got = straighten(word((lo + 1, hi), (lo, hi - 1)))
    want = PBWElement({mseg((lo, hi - 1), (lo + 1, hi)): ONE,
                       mseg((lo + 1, hi - 1), (lo, hi)): EXCH})
    assert got == want


def test_module_keeps_no_pool():
    pools = [name for name, value in vars(pbw).items()
             if not name.startswith("__") and isinstance(value, (dict, set, list))]
    assert pools == []
