import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import klforge.pbw as pbw
from helpers import (
    Multisegment,
    all_perms,
    c_strongly_regular,
    decoded,
    has_juxtaposed_ends,
    mseg_total,
    multiply_oracle,
    pack_word,
    pbw_from_json,
    pbw_to_json,
    prefactor_exponent,
    product_coefficient_guarded,
    product_expansion_guarded_oracle,
    product_words,
    prop1_oracle,
    rewrite_oracle,
    segment_less,
    straighten_oracle,
    unpack_segment,
    words_of,
)
from klforge.poly import LaurentPoly
from klforge.pbw import (
    e_star_prefactor_exponent,
    member_word,
    pack_segment,
    product_expansion_guarded,
)
from klforge.segcomb import (
    BiSequence,
    Segment,
    construct_strongly_regular,
    dominates_sigma0,
)
from klforge.symgroup import NotComparable, is_pattern_avoiding

V = LaurentPoly.v
ONE = LaurentPoly.one()
EXCH = V(-1) - V(1)
UNIT = {Multisegment(): ONE}


def seg(a, b):
    return Segment(a, b)


def mseg(*pairs):
    return Multisegment([Segment(a, b) for a, b in pairs])


def single_segment_factors(segments):
    return [{Multisegment([s]): ONE} for s in segments]


def product(*factors):
    """The guarded product of Multisegment-keyed expansions, decoded; the
    second half of its pair is empty."""
    exact, tainted = product_expansion_guarded(map(words_of, factors))
    assert tainted == frozenset()
    return decoded(exact)


def straighten(*pairs):
    """The guarded product E([a1, b1]) E([a2, b2]) ... of single segments."""
    return product(*single_segment_factors(seg(a, b) for a, b in pairs))


def _record_rewrites(monkeypatch):
    """Each pending map pbw._rewrite is called with, copied before the call
    consumes it."""
    calls, rewrite = [], pbw._rewrite

    def recorded(pending, *args):
        calls.append(dict(pending))
        return rewrite(pending, *args)

    monkeypatch.setattr(pbw, "_rewrite", recorded)
    return calls


def test_segment_less():
    assert segment_less(seg(5, 5), seg(1, 7))
    assert segment_less(seg(1, 4), seg(2, 4))
    assert not segment_less(seg(2, 4), seg(2, 4))


def test_e_star(monkeypatch):
    # the defining word of E(M): sorted segments and the v-power prefactor,
    # the one word the product of E(M) alone rewrites
    pending = _record_rewrites(monkeypatch)
    for m, segments, e in ((mseg((3, 5)), [(3, 5)], 0),
                           (2 * mseg((1, 2)), [(1, 2), (1, 2)], 1),
                           (mseg((5, 5), (1, 7)), [(5, 5), (1, 7)], 0)):
        word = pack_word(seg(a, b) for a, b in segments)
        assert words_of({m: ONE}) == {word: ONE}
        assert e_star_prefactor_exponent(word) == prefactor_exponent(m) == e
        pending.clear()
        assert product_expansion_guarded([{word: ONE}]) == ({word: ONE}, frozenset())
        assert pending == [{word: V(e)}]


def test_straighten_linked_pair():
    got = straighten((2, 4), (1, 3))
    assert got == {mseg((1, 3), (2, 4)): ONE, mseg((2, 3), (1, 4)): EXCH}


def test_straighten_commuting_pair():
    assert straighten((1, 7), (5, 5)) == {mseg((5, 5), (1, 7)): ONE}


def test_straighten_sorted_word():
    assert straighten((1, 3), (2, 4)) == {mseg((1, 3), (2, 4)): ONE}


def test_straighten_shared_end_and_juxtaposed_pairs():
    # a common left or right end transposes with v**-1; a juxtaposed pair
    # (a2 == b1 + 1) is left undecided unless it is already in order
    assert straighten((1, 5), (1, 3)) == {mseg((1, 3), (1, 5)): V(-1)}
    assert straighten((3, 5), (1, 5)) == {mseg((1, 5), (3, 5)): V(-1)}
    assert straighten((1, 2), (3, 4)) == {mseg((1, 2), (3, 4)): ONE}
    with pytest.raises(ValueError, match="juxtaposed"):
        straighten((3, 4), (1, 2))


def test_multiply_unit():
    x = {mseg((1, 3), (2, 4)): ONE}
    assert product(x, UNIT) == x
    assert product(UNIT, x) == x


def test_multiply_square_collects_prefactor():
    e = {mseg((5, 5), (1, 7)): ONE}
    assert product(e, e) == {mseg((5, 5), (5, 5), (1, 7), (1, 7)): V(-2)}


def test_multiply_single_segments_linked():
    # the factors' coefficients multiply the normal form
    got = product({mseg((2, 4)): V(1)}, {mseg((1, 3)): EXCH})
    assert got == {mseg((1, 3), (2, 4)): V(1) * EXCH,
                   mseg((2, 3), (1, 4)): V(1) * EXCH * EXCH}


def _random_collision_free_word(rng, maxlen=6):
    while True:
        k = rng.randint(1, maxlen)
        avals = rng.sample(range(0, 50), k)
        bvals = [a + rng.randint(0, 10) for a in avals]
        if len(set(bvals)) == k and not (set(avals) & {b + 1 for b in bvals}):
            return tuple(Segment(a, b) for a, b in zip(avals, bvals))


def test_confluence_on_random_words():
    # the kernel insertion-sorts each pending word, the oracle here exchanges
    # the rightmost pair
    rng = random.Random(20240810)
    for _ in range(1000):
        w = _random_collision_free_word(rng)
        assert product(*single_segment_factors(w)) == straighten_oracle(w, ONE, pick=max)


def _normal_form(rng, maxlen):
    return straighten_oracle(_random_collision_free_word(rng, maxlen), ONE)


def _segments_of(*elements):
    return [s for x in elements for m in x for s in m.segments()]


def test_multiply_associativity():
    # factors whose ends hold no juxtaposed pair, which the rules leave open
    rng = random.Random(99)
    done = 0
    while done < 60:
        x, y, z = (_normal_form(rng, 2) for _ in range(3))
        if has_juxtaposed_ends(_segments_of(x, y, z)):
            continue
        left = product(product(x, y), z)
        assert left == product(x, product(y, z))
        assert product(x, y, z) == left
        done += 1


def test_reachable_normal_multisegments():
    # a word whose inversions all share an end reorders to its own
    # multisegment; a linked pair behind a shared-end swap adds its exchange
    assert set(straighten((5, 5), (1, 7), (1, 5), (5, 7))) == {
        mseg((5, 5), (1, 7), (1, 5), (5, 7))}
    assert straighten((2, 7), (2, 4), (1, 5)) == {
        mseg((2, 7), (2, 4), (1, 5)): V(-1),
        mseg((2, 4), (2, 5), (1, 7)): V(-1) * EXCH}


def test_product_expansion_guarded_exact_part():
    # cross product of two family members: [5,5] [1,7] [1,5] [5,7] only
    # reorders, past two inverted pairs that share an end
    me = mseg((5, 5), (1, 7))
    m21 = mseg((1, 5), (5, 7))
    assert product({me: ONE}, {m21: ONE}) == {me + m21: V(-2)}


def test_guarded_matches_strict_when_nothing_sticks():
    # factors with juxtaposed ends, which the rules leave open, are passed over
    rng = random.Random(55)
    done = 0
    while done < 50:
        x, y = _normal_form(rng, 3), _normal_form(rng, 3)
        if has_juxtaposed_ends(_segments_of(x, y)):
            continue
        assert product(x, y) == multiply_oracle(x, y)
        done += 1


def test_scale_and_add():
    # scaling is a product with a multiple of E(empty); pbw_from_json adds up
    # repeated records and drops a sum that cancels
    x = {mseg((1, 2)): ONE}
    for c in (V(2), -1 * V(2)):
        assert product(x, {Multisegment(): c}) == {mseg((1, 2)): c}
    records = pbw_to_json({mseg((1, 2)): V(2)})
    records += pbw_to_json({mseg((1, 2)): -1 * V(2)})
    assert pbw_from_json(records) == {}


def test_pbw_json_roundtrip():
    x = {mseg((1, 3), (2, 4)): ONE, mseg((2, 3), (1, 4)): EXCH}
    assert pbw_from_json(pbw_to_json(x)) == x


def test_c_strongly_regular():
    assert c_strongly_regular((2, 1), (2, 1), 3) == 0
    assert c_strongly_regular((1, 2), (2, 1), 1) == 1
    assert c_strongly_regular((1, 2), (2, 1), 3) == 9
    with pytest.raises(NotComparable):
        c_strongly_regular((2, 1), (1, 2), 2)


# -- the packed kernel against the Segment-object oracle -------------------
#
# Ends are even and drawn from a narrow range, so that shared ends and linked
# pairs are common and no pair is juxtaposed (a2 == b1 + 1).


def _random_segment(rng):
    a = 2 * rng.randint(0, 6)
    return Segment(a, a + 2 * rng.randint(0, 3))


def _unpacked(words: dict) -> dict:
    return {tuple(map(unpack_segment, w)): c for w, c in words.items()}


def check_straighten(segments, prefix):
    """The packed kernel, insertion-sorting each pending word in one pass,
    against the oracle rewriting the leftmost inversion each time."""
    got = pbw._rewrite({pack_word(segments): prefix})
    assert _unpacked(got) == rewrite_oracle(segments, prefix)


def check_single_segment_product(segments):
    assert product(*single_segment_factors(segments)) == straighten_oracle(segments, ONE)


def check_product(factors):
    assert product(*factors) == product_expansion_guarded_oracle(factors)


def _random_element(rng, max_segments):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        m = Multisegment(_random_segment(rng)
                         for _ in range(rng.randint(1, max_segments)))
        terms[m] = V(rng.randint(-1, 1)) * rng.choice((1, -1))
    return terms


def test_packed_kernel_matches_oracle_seeded():
    rng = random.Random(7001)
    for _ in range(400):
        segments = tuple(_random_segment(rng) for _ in range(rng.randint(1, 6)))
        check_straighten(segments, V(rng.randint(-2, 2)))
        check_single_segment_product(segments)
    for _ in range(150):
        check_product([_random_element(rng, 2) for _ in range(rng.randint(2, 3))])


def test_straightening_multiplies_no_two_polynomials(monkeypatch):
    # every coefficient step is a shift by a monomial: with multiplication
    # refused, the product-vanishing coefficients of every strongly regular
    # family with k <= 3 at m = 2, 3, and the rewriting of the seeded words
    # above, still match the oracle, which is run first
    products = []
    for k in (1, 2, 3):
        for s0 in all_perms(k):
            if not is_pattern_avoiding(s0, (2, 1, 3)):
                continue
            A = construct_strongly_regular(s0)
            above = [w for w in all_perms(k) if dominates_sigma0(A, w)]
            products += [(A, sigma, omega, m) for sigma in above for omega in above
                         for m in (2, 3)]
    want = [prop1_oracle(*case)[1] for case in products]
    rng, words = random.Random(7001), []
    for _ in range(400):
        segments = tuple(_random_segment(rng) for _ in range(rng.randint(1, 6)))
        words.append((segments, V(rng.randint(-2, 2))))
    rewritten = [rewrite_oracle(*word) for word in words]

    def refuse(*args):
        raise AssertionError("a general multiplication inside straightening")

    monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
    monkeypatch.setattr(LaurentPoly, "__rmul__", refuse)
    for (A, sigma, omega, m), c in zip(products, want):
        s, k = member_word(A, sigma), A.k
        word = tuple(sorted(s * (m - 1))) + member_word(A, omega)
        got = pbw.word_coefficient({word: V(k * comb(m - 1, 2))}, tuple(sorted(s * m)),
                                   k * comb(m, 2))
        assert got == c, (A, sigma, omega, m)
    for (segments, prefix), c in zip(words, rewritten):
        assert _unpacked(pbw._rewrite({pack_word(segments): prefix})) == c


def test_guarded_product_drops_cancelled_words(monkeypatch):
    # one rewrite per factor.  In y z, (A, B, C) arises from A.(B C) and
    # (A B).(-C), so it cancels in the pending map before it is rewritten.
    # In x y z, D moves behind A, with which it shares a left end, and
    # behind B and C, with which it commutes, so (A, D, B, C) and
    # (A, B, D, C) cancel as they finish
    A, B, C, D = (1, 2), (4, 5), (7, 8), (1, 10)
    x = {mseg(D): ONE}
    y = {mseg(A): ONE, mseg(A, B): ONE}
    z = {mseg(B, C): ONE, mseg(C): -ONE}
    check_product([x, y, z])
    check_product([y, z, x])
    pending = _record_rewrites(monkeypatch)
    exact = product(y, z, x)
    abc, ac = (pack_word(seg(*p) for p in w) for w in ((A, B, C), (A, C)))
    assert len(pending) == 3
    assert abc not in pending[1] and pending[1][ac] == -ONE
    assert mseg(A, B, C, D) not in exact
    assert exact[mseg(A, C, D)] == -ONE
    pending.clear()
    exact = product(x, y, z)
    dabc = pack_word(seg(*p) for p in (D, A, B, C))
    assert len(pending) == 3 and not any(dabc in words for words in pending)
    assert mseg(A, B, C, D) not in exact
    assert exact[mseg(A, C, D)] == -V(-1)


_segments = st.builds(lambda a, d: Segment(2 * a, 2 * (a + d)),
                      st.integers(0, 6), st.integers(0, 3))
_multisegments = st.lists(_segments, min_size=1, max_size=2).map(Multisegment)
_elements = st.dictionaries(
    _multisegments, st.sampled_from([ONE, -ONE, V(1), EXCH]), min_size=1, max_size=2)


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


@pytest.mark.parametrize("word", [
    (seg(3, 4), seg(1, 2)),              # adjacent
    (seg(3, 4), seg(7, 8), seg(1, 2)),   # adjacent only once the pass moves [1,2]
])
def test_juxtaposed_inversion_raises(word):
    w = pack_word(word)
    with pytest.raises(ValueError, match="juxtaposed"):
        pbw._rewrite({w: ONE})
    with pytest.raises(ValueError, match="juxtaposed"):
        rewrite_oracle(word, ONE)
    with pytest.raises(ValueError, match="juxtaposed"):
        pbw.word_coefficient({w: ONE}, tuple(sorted(w)), 0)


# -- sorted packed words: run lengths and spelling ----------------------------


def check_run_length(w):
    # the prefactor and the spelling of a sorted word against the multisegment
    # the counting constructor builds from its segments
    want = Multisegment(map(unpack_segment, w))
    assert e_star_prefactor_exponent(w) == prefactor_exponent(want)
    assert pbw.word_str(w) == (str(want) if w else "")


def _sorted_word(segments):
    return tuple(sorted(pack_word(segments)))


def test_run_length_matches_counting_constructor_seeded():
    rng = random.Random(9001)
    check_run_length(())
    for _ in range(300):
        pool = [Segment(a, a + rng.randint(0, 3))
                for a in (rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))]
        check_run_length(_sorted_word(rng.choice(pool)
                                      for _ in range(rng.randint(1, 8))))


# few distinct segments in many copies, ends on both sides of zero
_repeated_words = st.lists(
    st.builds(lambda a, d: Segment(a, a + d), st.integers(-3, 1), st.integers(0, 2)),
    min_size=0, max_size=10).map(_sorted_word)


@settings(max_examples=200, deadline=None)
@given(_repeated_words)
def test_run_length_matches_counting_constructor(w):
    check_run_length(w)


def test_sorted_words_key_multisegments():
    # one sorted word per multisegment, whatever the order of its segments
    segs = [Segment(-5, -2), Segment(-5, -2), Segment(-1, 3), Segment(2, 6)]
    built = Multisegment(reversed(segs))
    w = _sorted_word(segs)
    assert w == _sorted_word(reversed(segs))
    assert words_of({built: ONE}) == {w: ONE} and decoded({w: ONE}) == {built: ONE}


@pytest.mark.parametrize("a, b", [(-2**31 - 1, 0), (0, 2**31), (2**40, 2**40)])
def test_segment_end_out_of_range_raises(a, b):
    with pytest.raises(ValueError, match="outside"):
        pack_segment(a, b)
    with pytest.raises(ValueError, match="outside"):
        member_word(BiSequence((a,), (b,)), (1,))


def test_segment_ends_at_range_limits():
    lo, hi = -2**31, 2**31 - 1
    assert straighten((lo + 1, hi), (lo, hi - 1)) == {
        mseg((lo, hi - 1), (lo + 1, hi)): ONE, mseg((lo + 1, hi - 1), (lo, hi)): EXCH}


def test_module_keeps_no_pool():
    pools = [name for name, value in vars(pbw).items()
             if not name.startswith("__") and isinstance(value, (dict, set, list))]
    assert pools == []


# -- the one-coefficient reader and the rank cut -----------------------------
#
# Ends in 0..9 with short segments, so shared ends, adjacent segments and
# linked pairs are all common.  The words that are rewritten have even ends
# in 0..18 instead, so that none holds a juxtaposed pair.

_segments09 = st.builds(lambda a, d: Segment(a, min(a + d, 9)),
                        st.integers(0, 9), st.integers(0, 4))
_even09 = _segments09.map(lambda s: Segment(2 * s.a, 2 * s.b))
_combinations = st.dictionaries(
    st.lists(_even09, min_size=1, max_size=3).map(Multisegment),
    st.sampled_from([ONE, -ONE, V(1), EXCH]), min_size=1, max_size=2)


@settings(max_examples=150, deadline=None)
@given(st.lists(_combinations, min_size=2, max_size=3), st.randoms(use_true_random=False))
def test_coefficient_reader_matches_expansion(factors, rnd):
    exact = product(*factors)
    concat = sum((next(iter(f)) for f in factors), Multisegment())
    starts = [2 * rnd.randint(0, 9) for _ in range(mseg_total(concat))]
    other = Multisegment(Segment(a, 2 * rnd.randint(a // 2, 9)) for a in starts)
    words = product_words(factors)
    for target in exact.keys() | {concat, other}:
        want = exact.get(target, LaurentPoly.zero())
        assert product_coefficient_guarded(factors, target) == want, target
        # one map of words reads the sum of what each word reads alone
        t = pack_word(target.segments())
        e = e_star_prefactor_exponent(t)
        for rank in (None, pbw._Rank(t)):
            alone = [pbw.word_coefficient({w: c}, t, e, rank) for w, c in words.items()]
            assert pbw.word_coefficient(words, t, e, rank) == sum(alone, LaurentPoly.zero())


def _ends(segments):
    return sorted(s.a for s in segments), sorted(s.b for s in segments)


def _rank(segments, i, j):
    return sum(1 for s in segments if s.a <= i and j <= s.b)


def _cut(w, t):
    """Whether the rank table of the sorted word t rules out reaching it from w."""
    return pbw._Rank(t).slack(w) is None


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
    w = pack_word(segments)
    for target in (paired, others, segments, shared):
        t = _sorted_word(target)
        assert _cut(w, t) == cut_by_definition(segments, target)
    assert not _cut(w, _sorted_word(segments))


def _in_play(finished, target):
    """The finished Segment words the rank lemma leaves in play toward the
    target."""
    return {u: c for u, c in finished.items() if not cut_by_definition(u, target)}


@settings(max_examples=200, deadline=None)
@given(st.lists(_even09, min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_rank_pruning_keeps_what_reaches_the_target(segments, rnd):
    # targets with the word's end multisets, as the reader builds its tables
    w = pack_word(segments)
    k = rnd.randint(0, len(segments))
    for target in (_paired_again(segments, rnd), segments,
                   segments[:k] + _paired_again(segments[k:], rnd)):
        t = _sorted_word(target)
        rank = pbw._Rank(t)
        s = rank.base - sum(rank[x] for x in w)
        in_play = s & rank.guard == rank.guard
        assert in_play == (not cut_by_definition(segments, target))
        got, want = pbw._rewrite({w: EXCH}, rank, {w: s}), pbw._rewrite({w: EXCH})
        assert got.get(t) == want.get(t)
        # a subset with the same coefficients; from a word in play, exactly
        # the words the rank lemma leaves in play
        assert got.items() <= want.items()
        if in_play:
            assert _unpacked(got) == _in_play(_unpacked(want), target)


@pytest.mark.parametrize("word, target, cut", [
    (((1, 2),), ((1, 3),), True),                    # right ends differ only
    (((2, 3),), ((1, 3),), True),                    # left ends differ only
    (((2, 3), (1, 4)), ((1, 3), (2, 4)), True),      # r_14 = 1 > 0
    (((2, 4), (1, 3)), ((2, 3), (1, 4)), False),     # the exchange reaches it
    (((2, 4), (1, 3)), ((1, 3), (2, 4)), False),     # the transposition does
    (((2, 3), (2, 4)), ((1, 3), (2, 4)), True),      # left ends differ, no r_ij above
])
def test_rank_cut_examples(word, target, cut):
    t = _sorted_word(Segment(a, b) for a, b in target)
    assert _cut(pack_word(Segment(a, b) for a, b in word), t) == cut


def test_reader_rewrites_no_cut_word(monkeypatch):
    def no_rewrite(*args, **kwargs):
        raise AssertionError("a cut word was rewritten")

    monkeypatch.setattr(pbw, "_rewrite", no_rewrite)
    factors = [{mseg((2, 3)): ONE}, {mseg((1, 4)): ONE}]
    assert product_coefficient_guarded(factors, mseg((1, 3), (2, 4))) == LaurentPoly.zero()
    assert product_coefficient_guarded(factors, mseg((1, 4))) == LaurentPoly.zero()


def test_reader_rewrites_the_words_in_play_together(monkeypatch):
    # toward [1,3] [2,4], the words [2,4] [1,3] and [1,3] [2,4] are in play,
    # the squares are not: one call rewrites both
    pending = _record_rewrites(monkeypatch)
    factors = [{mseg((2, 4)): ONE, mseg((1, 3)): V(1)},
               {mseg((1, 3)): ONE, mseg((2, 4)): ONE}]
    assert product_coefficient_guarded(factors, mseg((1, 3), (2, 4))) == ONE + V(1)
    assert [len(words) for words in pending] == [2]


def test_reader_on_a_linked_pair():
    factors = [{mseg((2, 4)): ONE}, {mseg((1, 3)): ONE}]
    assert product_coefficient_guarded(factors, mseg((1, 3), (2, 4))) == ONE
    assert product_coefficient_guarded(factors, mseg((2, 3), (1, 4))) == EXCH
    # [5,5] [1,7] [1,5] [5,7] only reorders, past two pairs that share an end
    shared = [{mseg((5, 5), (1, 7)): ONE}, {mseg((1, 5), (5, 7)): ONE}]
    assert product_coefficient_guarded(shared, mseg((5, 5), (1, 7), (1, 5), (5, 7))) == V(-2)
    assert product_coefficient_guarded(shared, 2 * mseg((5, 5), (1, 7))) == LaurentPoly.zero()


@settings(max_examples=200, deadline=None)
@given(st.lists(_even09, min_size=1, max_size=6))
def test_reachable_keeps_ends_and_never_lowers_a_rank(segments):
    # every sorted word the rewriting reaches
    start = list(segments)
    points = [(i, j) for i in range(19) for j in range(i, 19)]
    for w in pbw._rewrite({pack_word(segments): ONE}):
        got = list(map(unpack_segment, w))
        assert _ends(got) == _ends(start)
        assert all(_rank(got, i, j) >= _rank(start, i, j) for i, j in points)


# -- confluence and the insertion pass against the oracle ----------------------
#
# The oracle rewrites one inversion at a time, picking the leftmost, the
# rightmost or a random one; the kernel insertion-sorts each pending word in
# one pass.


@settings(max_examples=150, deadline=None)
@given(st.lists(_even09, min_size=1, max_size=6), st.integers(-2, 2),
       st.randoms(use_true_random=False))
def test_rewriting_is_confluent(segments, e, rnd):
    word, prefix = tuple(segments), V(e)
    want = rewrite_oracle(word, prefix)
    assert rewrite_oracle(word, prefix, max) == want
    assert rewrite_oracle(word, prefix, rnd.choice) == want


@settings(max_examples=300, deadline=None)
@given(st.lists(_even09, min_size=1, max_size=7))
def test_reachable_matches_the_oracle(segments):
    # the insertion pass against one swap at a time
    got = pbw._rewrite({pack_word(segments): ONE})
    assert _unpacked(got) == rewrite_oracle(tuple(segments), ONE)


@settings(max_examples=150, deadline=None)
@given(st.lists(_even09, min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_ranked_reachable_matches_the_oracle(segments, rnd):
    # the same under a rank table: the oracle's words less those the rank
    # lemma rules out
    w, want = pack_word(segments), rewrite_oracle(tuple(segments), ONE)
    k = rnd.randint(0, len(segments))
    for target in (_paired_again(segments, rnd),
                   segments[:k] + _paired_again(segments[k:], rnd)):
        if not cut_by_definition(segments, target):
            rank = pbw._Rank(_sorted_word(target))
            got = pbw._rewrite({w: ONE}, rank, {w: rank.slack(w)})
            assert _unpacked(got) == _in_play(want, target)


def _probe_words(rng, count):
    """Words of 3 to 6 segments whose left ends come from {0, 3, ..., 12} and
    right ends from {4, 7, ..., 16}, so that no pair is juxtaposed."""
    words = []
    while len(words) < count:
        pairs = [(rng.choice(range(0, 13, 3)), rng.choice(range(4, 17, 3)))
                 for _ in range(rng.randint(3, 6))]
        if all(a <= b for a, b in pairs):
            words.append(tuple(Segment(a, b) for a, b in pairs))
    return words


@pytest.mark.parametrize("e_left, e_right", [(e, f) for e in (-1, 0, 1) for f in (-1, 0, 1)])
def test_only_v_inverse_swaps_are_confluent(e_left, e_right):
    # shared-end swaps v**e_left (a common left end) and v**e_right (a common
    # right end): the leftmost, the rightmost and a random pick agree on every
    # probe word for (-1, -1) alone
    picks = (min, max, random.Random(7).choice)

    def confluent(word):
        forms = [rewrite_oracle(word, ONE, pick, e_left, e_right) for pick in picks]
        return all(f == forms[0] for f in forms)

    words = _probe_words(random.Random(2003), 300)
    assert all(map(confluent, words)) == ((e_left, e_right) == (-1, -1))


# -- the insertion pass --------------------------------------------------------


def _record_passes(monkeypatch):
    """Each popped word, with the words pending after its insertion pass."""
    passes, insertion_pass = [], pbw._insertion_pass

    def recorded(w, c, s, rank, pending, slack):
        out = insertion_pass(w, c, s, rank, pending, slack)
        passes.append((w, sorted(pending)))
        return out

    monkeypatch.setattr(pbw, "_insertion_pass", recorded)
    return passes


def test_one_transposition_leaves_no_exchange_ahead(monkeypatch):
    # the six inverted pairs of [1,9] [1,7] [1,5] [1,3] all share a left end:
    # one pass sorts it with v**-6 and sets nothing pending
    word = (seg(1, 9), seg(1, 7), seg(1, 5), seg(1, 3))
    w = pack_word(word)
    passes = _record_passes(monkeypatch)
    assert pbw._rewrite({w: ONE}) == {tuple(sorted(w)): V(-6)}
    assert passes == [(w, [])]
    assert _unpacked(pbw._rewrite({w: ONE})) == rewrite_oracle(word, ONE)


def test_ranked_count_leaves_out_an_exchange_out_of_play(monkeypatch):
    # toward [1,3] [2,4], exchanging [2,4] > [1,3] gives r_14 = 1 > 0: under
    # the rank table the pass sets no exchanged word pending, without it one
    w = pack_word([seg(2, 4), seg(1, 3)])
    target = tuple(sorted(w))
    passes = _record_passes(monkeypatch)
    rank = pbw._Rank(target)
    assert pbw._rewrite({w: ONE}, rank, {w: rank.slack(w)}) == {target: ONE}
    assert passes == [(w, [])]
    passes.clear()
    exchanged = pack_word([seg(2, 3), seg(1, 4)])
    assert pbw._rewrite({w: ONE}) == {target: ONE, exchanged: EXCH}
    assert passes == [(w, [exchanged]), (exchanged, [])]


def test_heaviest_product_word_pops_at_most_four(monkeypatch):
    # the heaviest product-vanishing word with n <= 8: the family
    # (10,20,30,40 / 43,42,41,40) at sigma = 1324, omega = 3421 and m = 2,
    # M_sigma followed by M_omega; the leftmost-inversion rewriting popped 14
    left = (seg(40, 40), seg(20, 41), seg(30, 42), seg(10, 43))
    word = left + (seg(20, 40), seg(10, 41), seg(30, 42), seg(40, 43))
    target = 2 * list(left)
    w, want = pack_word(word), rewrite_oracle(word, ONE)
    assert not cut_by_definition(word, target)
    passes = _record_passes(monkeypatch)
    assert _unpacked(pbw._rewrite({w: ONE})) == want
    assert len(passes) <= 4
    passes.clear()
    rank = pbw._Rank(_sorted_word(target))
    ranked = pbw._rewrite({w: ONE}, rank, {w: rank.slack(w)})
    assert _unpacked(ranked) == _in_play(want, target)
    assert len(passes) <= 4
