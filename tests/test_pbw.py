import random

import pytest
from hypothesis import given, settings, strategies as st

import klforge.pbw as pbw
from helpers import (
    c_strongly_regular,
    mseg_total,
    multiply_oracle,
    pbw_from_json,
    pbw_to_json,
    product_coefficient_guarded,
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
    e_star_prefactor_exponent,
    product_expansion_guarded,
)
from klforge.segcomb import Multisegment, Segment
from klforge.symgroup import NotComparable

V = LaurentPoly.v
ONE = LaurentPoly.one()
EXCH = V(-1) - V(1)
UNIT = PBWElement.basis(Multisegment.empty())


def seg(a, b):
    return Segment(a, b)


def mseg(*pairs):
    return Multisegment([Segment(a, b) for a, b in pairs])


def single_segment_factors(segments):
    return [PBWElement.basis(Multisegment([s])) for s in segments]


def straighten(*pairs):
    """The guarded product E([a1, b1]) E([a2, b2]) ... of single segments."""
    return product_expansion_guarded(single_segment_factors(seg(a, b) for a, b in pairs))


def test_segment_less():
    assert segment_less(seg(5, 5), seg(1, 7))
    assert segment_less(seg(1, 4), seg(2, 4))
    assert not segment_less(seg(2, 4), seg(2, 4))


def test_e_star():
    # the defining word of E(M): sorted segments and the v-power prefactor
    for m, segments, e in ((mseg((3, 5)), [(3, 5)], 0),
                           (2 * mseg((1, 2)), [(1, 2), (1, 2)], 1),
                           (mseg((5, 5), (1, 7)), [(5, 5), (1, 7)], 0)):
        assert e_star_prefactor_exponent(m) == e
        word = pbw._pack_word(seg(a, b) for a, b in segments)
        assert pbw._product_words([PBWElement.basis(m)]) == {word: V(e)}


def test_straighten_linked_pair():
    got = straighten((2, 4), (1, 3))
    want = PBWElement({mseg((1, 3), (2, 4)): ONE, mseg((2, 3), (1, 4)): EXCH})
    assert got == (want, frozenset())


def test_straighten_commuting_pair():
    got = straighten((1, 7), (5, 5))
    assert got == (PBWElement.basis(mseg((5, 5), (1, 7))), frozenset())


def test_straighten_sorted_word():
    got = straighten((1, 3), (2, 4))
    assert got == (PBWElement.basis(mseg((1, 3), (2, 4))), frozenset())


def test_straighten_stuck_taints():
    # a stuck word yields no coefficient; what it could reach is tainted
    assert straighten((1, 5), (1, 3)) == (PBWElement(), frozenset([mseg((1, 3), (1, 5))]))
    assert straighten((3, 4), (1, 2)) == (  # adjacent: a2 == b1 + 1
        PBWElement(), frozenset([mseg((1, 2), (3, 4))]))


def test_multiply_unit():
    x = PBWElement.basis(mseg((1, 3), (2, 4)))
    assert product_expansion_guarded([x, UNIT]) == (x, frozenset())
    assert product_expansion_guarded([UNIT, x]) == (x, frozenset())


def test_multiply_square_collects_prefactor():
    e = PBWElement.basis(mseg((5, 5), (1, 7)))
    got = product_expansion_guarded([e, e])
    assert got == (PBWElement({mseg((5, 5), (5, 5), (1, 7), (1, 7)): V(-2)}), frozenset())


def test_multiply_single_segments_linked():
    # the factors' coefficients multiply the normal form
    got = product_expansion_guarded(
        [PBWElement({mseg((2, 4)): V(1)}), PBWElement({mseg((1, 3)): EXCH})])
    want = PBWElement({mseg((1, 3), (2, 4)): V(1) * EXCH,
                       mseg((2, 3), (1, 4)): V(1) * EXCH * EXCH})
    assert got == (want, frozenset())


def _random_collision_free_word(rng, maxlen=6):
    while True:
        k = rng.randint(1, maxlen)
        avals = rng.sample(range(0, 50), k)
        bvals = [a + rng.randint(0, 10) for a in avals]
        if len(set(bvals)) == k and not (set(avals) & {b + 1 for b in bvals}):
            return tuple(Segment(a, b) for a, b in zip(avals, bvals))


def test_confluence_on_random_words():
    # the kernel exchanges the leftmost admissible pair, the oracle here the
    # rightmost
    rng = random.Random(20240810)
    for _ in range(1000):
        w = _random_collision_free_word(rng)
        exact, tainted = product_expansion_guarded(single_segment_factors(w))
        assert not tainted
        assert exact == straighten_oracle(w, ONE, from_right=True)


def _normal_form(rng, maxlen):
    return straighten_oracle(_random_collision_free_word(rng, maxlen), ONE)


def test_multiply_associativity():
    rng = random.Random(99)
    done = 0
    while done < 60:
        x, y, z = (_normal_form(rng, 2) for _ in range(3))
        xy, t1 = product_expansion_guarded([x, y])
        yz, t2 = product_expansion_guarded([y, z])
        if t1 or t2:
            continue
        left, t3 = product_expansion_guarded([xy, z])
        right, t4 = product_expansion_guarded([x, yz])
        if t3 or t4:
            continue
        assert left == right
        assert product_expansion_guarded([x, y, z]) == (left, frozenset())
        done += 1


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
        x, y = _normal_form(rng, 3), _normal_form(rng, 3)
        try:
            strict = multiply_oracle(x, y)
        except NonGeneralPositionExchange:
            continue
        exact, tainted = product_expansion_guarded([x, y])
        assert not tainted
        assert exact == strict
        done += 1


def test_scale_and_add():
    # scaling is a product with a multiple of E(empty); pbw_from_json adds up
    # repeated records and drops a sum that cancels
    x = PBWElement.basis(mseg((1, 2)))
    for c in (V(2), -1 * V(2)):
        scaled = product_expansion_guarded([x, PBWElement({Multisegment.empty(): c})])
        assert scaled == (PBWElement({mseg((1, 2)): c}), frozenset())
    records = pbw_to_json(PBWElement({mseg((1, 2)): V(2)}))
    records += pbw_to_json(PBWElement({mseg((1, 2)): -1 * V(2)}))
    assert pbw_from_json(records).is_zero()


def test_pbw_json_roundtrip():
    x = PBWElement({mseg((1, 3), (2, 4)): ONE, mseg((2, 3), (1, 4)): EXCH})
    assert pbw_from_json(pbw_to_json(x)) == x


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


def check_straighten(segments, prefix):
    """The packed kernel against the oracle, both exchanging the leftmost
    admissible pair."""
    finished, stuck = pbw._rewrite(pbw._pack_word(segments), prefix)
    want_finished, want_stuck = rewrite_oracle(segments, prefix)
    assert _unpacked(finished) == want_finished
    assert _unpacked(stuck) == want_stuck


def check_single_segment_product(segments):
    """Tainted exactly when the oracle rewriting sticks, and otherwise the
    oracle's normal form."""
    exact, tainted = product_expansion_guarded(single_segment_factors(segments))
    _, stuck = rewrite_oracle(segments, ONE)
    assert bool(tainted) == bool(stuck)
    if not stuck:
        assert exact == straighten_oracle(segments, ONE)


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
        segments = tuple(_random_segment(rng) for _ in range(rng.randint(1, 6)))
        check_straighten(segments, V(rng.randint(-2, 2)))
        check_single_segment_product(segments)
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
    check_straighten(tuple(segments), V(e))


@settings(max_examples=150, deadline=None)
@given(st.lists(_segments, min_size=1, max_size=6))
def test_guarded_single_segment_product_matches_oracle(segments):
    check_single_segment_product(tuple(segments))


@settings(max_examples=80, deadline=None)
@given(st.lists(_elements, min_size=2, max_size=3))
def test_packed_guarded_product_matches_oracle(factors):
    check_product(factors)


# -- decoding sorted packed words by run length ------------------------------


def check_decoder(w):
    got = pbw._Decoder().multisegment(w)
    want = Multisegment(map(pbw._unpack, w))
    assert got == want and hash(got) == hash(want)


def _sorted_word(segments):
    return tuple(sorted(pbw._pack_word(segments)))


def test_decoder_matches_counting_constructor_seeded():
    rng = random.Random(9001)
    check_decoder(())
    for _ in range(300):
        pool = [Segment(a, a + rng.randint(0, 3))
                for a in (rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))]
        check_decoder(_sorted_word(rng.choice(pool)
                                   for _ in range(rng.randint(1, 8))))


# few distinct segments in many copies, ends on both sides of zero
_repeated_words = st.lists(
    st.builds(lambda a, d: Segment(a, a + d), st.integers(-3, 1), st.integers(0, 2)),
    min_size=0, max_size=10).map(_sorted_word)


@settings(max_examples=200, deadline=None)
@given(_repeated_words)
def test_decoder_matches_counting_constructor(w):
    check_decoder(w)


def test_decoded_keys_find_constructed_keys():
    segs = [Segment(-5, -2), Segment(-5, -2), Segment(-1, 3), Segment(2, 6)]
    decoded = pbw._Decoder().multisegment(_sorted_word(segs))
    built = Multisegment(reversed(segs))
    assert PBWElement.basis(decoded).coefficient(built) == ONE
    assert PBWElement.basis(built).coefficient(decoded) == ONE
    assert built in frozenset([decoded]) and decoded in frozenset([built])


def test_reach_state_cap_raises(monkeypatch):
    # the one stuck word of this product, [2,7] [2,4] [1,5], and its
    # transposition [2,4] [2,7] [1,5] each have one exchange ahead
    factors = single_segment_factors([seg(2, 7), seg(2, 4), seg(1, 5)])
    monkeypatch.setattr(pbw, "_REACH_STATE_CAP", 2)
    product_expansion_guarded(factors)
    monkeypatch.setattr(pbw, "_REACH_STATE_CAP", 1)
    with pytest.raises(NonGeneralPositionExchange):
        product_expansion_guarded(factors)


@pytest.mark.parametrize("a, b", [(-2**31 - 1, 0), (0, 2**31), (2**40, 2**40)])
def test_segment_end_out_of_range_raises(a, b):
    with pytest.raises(ValueError):
        product_expansion_guarded([PBWElement.basis(mseg((a, b)))])


def test_segment_ends_at_range_limits():
    lo, hi = -2**31, 2**31 - 1
    got = straighten((lo + 1, hi), (lo, hi - 1))
    want = PBWElement({mseg((lo, hi - 1), (lo + 1, hi)): ONE,
                       mseg((lo + 1, hi - 1), (lo, hi)): EXCH})
    assert got == (want, frozenset())


def test_module_keeps_no_pool():
    pools = [name for name, value in vars(pbw).items()
             if not name.startswith("__") and isinstance(value, (dict, set, list))]
    assert pools == []


# -- the one-coefficient reader and the rank cut -----------------------------
#
# Ends in 0..9 with short segments, so shared ends, adjacent segments and
# linked pairs are all common.

_segments09 = st.builds(lambda a, d: Segment(a, min(a + d, 9)),
                        st.integers(0, 9), st.integers(0, 4))
_combinations = st.dictionaries(
    st.lists(_segments09, min_size=1, max_size=3).map(Multisegment),
    st.sampled_from([ONE, -ONE, V(1), EXCH]), min_size=1, max_size=2).map(PBWElement)


@settings(max_examples=150, deadline=None)
@given(st.lists(_combinations, min_size=2, max_size=3), st.randoms(use_true_random=False))
def test_coefficient_reader_matches_expansion(factors, rnd):
    exact, tainted = product_expansion_guarded(factors)
    concat = sum((next(iter(f.terms())) for f in factors), Multisegment.empty())
    starts = [rnd.randint(0, 9) for _ in range(mseg_total(concat))]
    other = Multisegment(Segment(a, rnd.randint(a, 9)) for a in starts)
    for target in exact.support() | tainted | {concat, other}:
        got = product_coefficient_guarded(factors, target)
        if target in tainted:
            assert got is None, target
        else:
            assert got == exact.coefficient(target), target


def _ends(segments):
    return sorted(s.a for s in segments), sorted(s.b for s in segments)


def _rank(segments, i, j):
    return sum(1 for s in segments if s.a <= i and j <= s.b)


def cut_by_definition(word, target):
    """Whether the end multisets differ, or some r_ij of the word exceeds the
    target's, i a left end and j a right end of the target with i <= j."""
    lefts, rights = _ends(target)
    if _ends(word) != (lefts, rights):
        return True
    return any(_rank(word, i, j) > _rank(target, i, j)
               for i in lefts for j in rights if i <= j)


def _paired_again(segments, rnd):
    """Segments with the same end multisets, the right ends shuffled."""
    rights = [s.b for s in segments]
    rnd.shuffle(rights)
    if any(s.a > b for s, b in zip(segments, rights)):
        rights.sort()  # with the lefts sorted too, every pair is a segment
        return list(map(Segment, sorted(s.a for s in segments), rights))
    return [Segment(s.a, b) for s, b in zip(segments, rights)]


@settings(max_examples=300, deadline=None)
@given(st.lists(_segments09, min_size=1, max_size=7), st.randoms(use_true_random=False))
def test_rank_cut_matches_its_definition(segments, rnd):
    # the same end multisets, paired again; a target with other ends; one
    # that keeps some of the word's segments and pairs the rest again
    paired = _paired_again(segments, rnd)
    others = [Segment(s.a, rnd.randint(s.a, 9)) for s in paired]
    k = rnd.randint(0, len(segments))
    shared = segments[:k] + _paired_again(segments[k:], rnd)
    w = pbw._pack_word(segments)
    for target in (paired, others, segments, shared):
        t = _sorted_word(target)
        assert pbw._cannot_reach(w, t) == cut_by_definition(segments, target)
    assert not pbw._cannot_reach(w, _sorted_word(segments))


@settings(max_examples=200, deadline=None)
@given(st.lists(_segments09, min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_rank_pruning_keeps_what_reaches_the_target(segments, rnd):
    # targets with the word's end multisets, as the reader builds its tables
    w = pbw._pack_word(segments)
    k = rnd.randint(0, len(segments))
    for target in (_paired_again(segments, rnd), segments,
                   segments[:k] + _paired_again(segments[k:], rnd)):
        t = _sorted_word(target)
        rank = pbw._Rank(t)
        in_play = (rank.base - sum(rank[x] for x in w)) & rank.guard == rank.guard
        assert in_play == (not cut_by_definition(segments, target))
        pruned, full = pbw._reachable(w, rank), pbw._reachable(w)
        assert (t in pruned) == (t in full)
        finished, stuck = pbw._rewrite(w, EXCH, rank)
        want_finished, want_stuck = pbw._rewrite(w, EXCH)
        assert finished.get(t) == want_finished.get(t)
        for got, want in ((dict.fromkeys(pruned), dict.fromkeys(full)),
                          (finished, want_finished), (stuck, want_stuck)):
            # a subset with the same coefficients; from a word in play,
            # exactly the words the rank lemma leaves in play
            assert got.items() <= want.items()
            if in_play:
                assert got == {u: c for u, c in want.items() if not cut_by_definition(
                    list(map(pbw._unpack, u)), target)}


@pytest.mark.parametrize("word, target, cut", [
    (((1, 2),), ((1, 3),), True),                    # right ends differ only
    (((2, 3),), ((1, 3),), True),                    # left ends differ only
    (((2, 3), (1, 4)), ((1, 3), (2, 4)), True),      # r_14 = 1 > 0
    (((2, 4), (1, 3)), ((2, 3), (1, 4)), False),     # the exchange reaches it
    (((2, 4), (1, 3)), ((1, 3), (2, 4)), False),     # the transposition does
])
def test_rank_cut_examples(word, target, cut):
    t = _sorted_word(Segment(a, b) for a, b in target)
    assert pbw._cannot_reach(pbw._pack_word(Segment(a, b) for a, b in word), t) == cut


def test_reader_rewrites_no_cut_word(monkeypatch):
    def no_rewrite(*args, **kwargs):
        raise AssertionError("a cut word was rewritten")

    monkeypatch.setattr(pbw, "_rewrite", no_rewrite)
    factors = [PBWElement.basis(mseg((2, 3))), PBWElement.basis(mseg((1, 4)))]
    assert product_coefficient_guarded(factors, mseg((1, 3), (2, 4))) == LaurentPoly.zero()
    assert product_coefficient_guarded(factors, mseg((1, 4))) == LaurentPoly.zero()


def test_reader_on_a_linked_pair():
    factors = [PBWElement.basis(mseg((2, 4))), PBWElement.basis(mseg((1, 3)))]
    assert product_coefficient_guarded(factors, mseg((1, 3), (2, 4))) == ONE
    assert product_coefficient_guarded(factors, mseg((2, 3), (1, 4))) == EXCH
    stuck = [PBWElement.basis(mseg((5, 5), (1, 7))), PBWElement.basis(mseg((1, 5), (5, 7)))]
    assert product_coefficient_guarded(stuck, mseg((5, 5), (1, 7), (1, 5), (5, 7))) is None
    assert product_coefficient_guarded(stuck, 2 * mseg((5, 5), (1, 7))) == LaurentPoly.zero()


@settings(max_examples=200, deadline=None)
@given(st.lists(_segments09, min_size=1, max_size=6))
def test_reachable_keeps_ends_and_never_lowers_a_rank(segments):
    start = list(segments)
    points = [(i, j) for i in range(10) for j in range(i, 10)]
    for w in pbw._reachable(pbw._pack_word(segments)):
        got = list(map(pbw._unpack, w))
        assert _ends(got) == _ends(start)
        assert all(_rank(got, i, j) >= _rank(start, i, j) for i, j in points)


# -- the taint search against the exhaustive oracle --------------------------
#
# The oracle expands every word; the search stops at words with no exchange
# ahead (pbw._ahead == 0), which can only reorder to their sorted word.

@settings(max_examples=300, deadline=None)
@given(st.lists(_segments09, min_size=1, max_size=7))
def test_reachable_matches_the_oracle(segments):
    assert reachable(segments) == reachable_normal_multisegments(tuple(segments))


@settings(max_examples=150, deadline=None)
@given(st.lists(_segments09, min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_ranked_reachable_matches_the_oracle(segments, rnd):
    # the oracle's words less those the rank lemma rules out; from a word out
    # of play no exchange is admitted, so it reaches its sorted word alone
    w = pbw._pack_word(segments)
    k = rnd.randint(0, len(segments))
    for target in (_paired_again(segments, rnd),
                   segments[:k] + _paired_again(segments[k:], rnd)):
        got = pbw._reachable(w, pbw._Rank(_sorted_word(target)))
        got = set(map(pbw._Decoder().multisegment, got))
        if cut_by_definition(segments, target):
            assert got == {Multisegment(segments)}
        else:
            assert got == {m for m in reachable_normal_multisegments(tuple(segments))
                           if not cut_by_definition(list(m.segments()), target)}


def test_one_transposition_leaves_no_exchange_ahead(monkeypatch):
    # [2,7] before [1,5] is the one exchangeable inversion of [2,7] [2,4] [1,5]
    # and of [2,4] [2,7] [1,5]; swapping it in the second leaves [2,4] [1,5]
    # [2,7], which only reorders, so under a cap of 1 the search expands the
    # second word alone
    word = [seg(2, 4), seg(2, 7), seg(1, 5)]
    w = pbw._pack_word(word)
    moved = (w[0], w[2], w[1])
    assert pbw._ahead(pbw._pack_word([seg(2, 7), seg(2, 4), seg(1, 5)]), 0, None) == 1
    assert pbw._ahead(w, 0, None) == 1 and pbw._ahead(moved, 0, None) == 0
    assert pbw._reachable(moved) == {tuple(sorted(moved))}
    monkeypatch.setattr(pbw, "_REACH_STATE_CAP", 1)
    assert reachable(word) == reachable_normal_multisegments(tuple(word)) \
        == {mseg((2, 4), (1, 5), (2, 7)), mseg((2, 4), (2, 5), (1, 7))}


def test_ranked_count_leaves_out_an_exchange_out_of_play():
    # toward [1,3] [2,4], exchanging [2,4] > [1,3] gives r_14 = 1 > 0
    w = pbw._pack_word([seg(2, 4), seg(1, 3)])
    rank = pbw._Rank(tuple(sorted(w)))
    s = rank.base - rank[w[0]] - rank[w[1]]
    assert pbw._ahead(w, 0, None) == 1 and pbw._ahead(w, s, rank) == 0
    assert pbw._reachable(w, rank) == {tuple(sorted(w))}
    assert len(pbw._reachable(w)) == 2
