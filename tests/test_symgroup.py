import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    EmptyInterval,
    all_perms,
    bruhat_leq_subword,
    enumerate_interval,
    is_quotient_minimal,
    min_double_coset_rep,
    parabolic_elements,
    parabolic_longest,
    reduced_word,
)
from klforge.symgroup import (
    bruhat_leq,
    compose,
    identity,
    inverse,
    is_pattern_avoiding,
    length,
    longest_element,
    min_coset_rep,
    parity,
    replicate_perm,
)


def test_length_examples():
    assert length((1, 2, 3, 4)) == 0
    assert length((3, 2, 1)) == 3
    assert length((3, 4, 1, 2)) == 4


def test_length_is_reduced_word_length():
    for w in all_perms(4):
        word = reduced_word(w)
        assert len(word) == length(w)
        prod = identity(4)
        for i in word:
            prod = compose(prod, _s(4, i))
        assert prod == w


def _s(n, i):
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def test_bruhat_examples():
    e = identity(4)
    for w in all_perms(4):
        assert bruhat_leq(e, w)
    assert not bruhat_leq((3, 2, 1), (2, 1, 3))
    assert bruhat_leq((2, 1, 3, 4), (3, 4, 1, 2))
    with pytest.raises(ValueError, match="permutations must have the same n"):
        bruhat_leq((1, 2), (1, 2, 3))


def test_bruhat_matches_subword_oracle_s4():
    for x in all_perms(4):
        for y in all_perms(4):
            assert bruhat_leq(x, y) == bruhat_leq_subword(x, y), (x, y)


def test_bruhat_matches_subword_oracle_s5_sample():
    rng = random.Random(11)
    perms = list(all_perms(5))
    for _ in range(300):
        x, y = rng.choice(perms), rng.choice(perms)
        assert bruhat_leq(x, y) == bruhat_leq_subword(x, y), (x, y)


_pairs = st.integers(1, 6).flatmap(
    lambda n: st.tuples(*[st.permutations(range(1, n + 1)).map(tuple)] * 2))


@settings(max_examples=300, deadline=None)
@given(_pairs)
def test_bruhat_matches_subword_oracle(pair):
    x, y = pair
    assert bruhat_leq(x, y) == bruhat_leq_subword(x, y)
    assert bruhat_leq(y, x) == bruhat_leq_subword(y, x)


def _block_sizes(nmax):
    """(n, m) for every n <= nmax and every block size m dividing n."""
    return [(n, m) for n in range(1, nmax + 1) for m in range(1, n + 1) if n % m == 0]


def test_min_coset_rep():
    assert min_coset_rep(identity(4), 2) == identity(4)
    assert min_coset_rep((2, 1, 4, 3), 2) == identity(4)
    assert min_coset_rep((4, 3, 1, 2), 2) == (3, 4, 1, 2)
    assert min_coset_rep((4, 3, 1, 2), 1) == (4, 3, 1, 2)
    assert min_coset_rep((4, 3, 1, 2), 4) == identity(4)


@pytest.mark.parametrize("rep", [min_coset_rep, min_double_coset_rep])
def test_block_size_must_divide_n(rep):
    for n in range(1, 7):
        w = longest_element(n)
        for m in range(0, n + 2):
            if m == 0 or n % m:
                with pytest.raises(ValueError, match=f"block size {m} does not divide {n}"):
                    rep(w, m)
            else:
                rep(w, m)


def test_min_coset_rep_length_additivity():
    for n, m in _block_sizes(6):
        for w in all_perms(n):
            rep = min_coset_rep(w, m)
            # w = rep * u with u in W_m and lengths adding
            u = compose(inverse(rep), w)
            assert compose(rep, u) == w
            assert min_coset_rep(u, m) == identity(n)
            assert length(w) == length(rep) + length(u)
            assert is_quotient_minimal(rep, m)


def test_min_coset_rep_is_minimum():
    for n, m in _block_sizes(6):
        block = list(parabolic_elements(n, m))
        for w in all_perms(n):
            coset = [compose(w, v) for v in block]
            assert min_coset_rep(w, m) == min(coset, key=length), (w, m)


def test_min_double_coset_rep_examples():
    assert min_double_coset_rep((3, 2, 1), 1) == (3, 2, 1)
    assert min_double_coset_rep((2, 1, 4, 3), 2) == identity(4)
    assert min_double_coset_rep((1, 3, 2, 4), 2) == (1, 3, 2, 4)
    assert min_double_coset_rep((3, 4, 1, 2), 2) == (3, 4, 1, 2)
    assert min_double_coset_rep((4, 2, 3, 1), 2) == (1, 3, 2, 4)
    assert min_double_coset_rep((6, 5, 4, 3, 2, 1), 3) == (4, 5, 6, 1, 2, 3)


def test_min_double_coset_rep_is_minimum():
    # each double coset is built once, from its first member met
    for n, m in _block_sizes(6):
        block = list(parabolic_elements(n, m))
        minimum = {}
        for w in all_perms(n):
            if w not in minimum:
                coset = {compose(u, compose(w, v)) for u in block for v in block}
                least = min(coset, key=length)
                minimum.update(dict.fromkeys(coset, least))
            assert min_double_coset_rep(w, m) == minimum[w], (w, m)


def test_replicate_perm():
    assert replicate_perm((1, 2), 2) == (1, 2, 3, 4)
    assert replicate_perm((2, 1), 2) == (3, 4, 1, 2)
    assert replicate_perm((2, 1), 3) == (4, 5, 6, 1, 2, 3)
    with pytest.raises(ValueError, match="m must be at least 1"):
        replicate_perm((2, 1), 0)


def test_replicate_length_scaling():
    for k in (2, 3, 4):
        for x in all_perms(k):
            for m in (1, 2, 3):
                assert length(replicate_perm(x, m)) == m * m * length(x)


def test_replicate_is_a_bruhat_order_embedding():
    # x <= y in S_k exactly when t_m(x) <= t_m(y) in S_mk, so the memo
    # compares a parabolic pair in S_k
    for k in range(1, 5):
        for m in (2, 3):
            for x in all_perms(k):
                for y in all_perms(k):
                    assert bruhat_leq(x, y) == bruhat_leq(
                        replicate_perm(x, m), replicate_perm(y, m)), (x, y, m)


def test_replicate_block_compatibilities():
    # t(x w0) = t(x) t(w0) and t(w0) * longest(W_m) = longest(S_mk)
    for k in (2, 3):
        w0 = longest_element(k)
        for m in (2, 3):
            t_w0 = replicate_perm(w0, m)
            assert compose(t_w0, parabolic_longest(m * k, m)) == longest_element(m * k)
            for x in all_perms(k):
                assert replicate_perm(compose(x, w0), m) == compose(
                    replicate_perm(x, m), t_w0)


def test_pattern_avoidance():
    assert is_pattern_avoiding((1, 2, 3, 4), (2, 1, 3))
    assert not is_pattern_avoiding((2, 1, 3), (2, 1, 3))
    assert is_pattern_avoiding((2, 3, 1), (2, 1, 3))
    assert not is_pattern_avoiding((3, 1, 4, 2), (2, 1, 3))


def test_pattern_avoidance_catalan_counts():
    counts = [sum(1 for w in all_perms(k) if is_pattern_avoiding(w, (2, 1, 3)))
              for k in (1, 2, 3, 4, 5)]
    assert counts == [1, 2, 5, 14, 42]


def _contains_pattern(w, pattern):
    """Some positions i_1 < ... < i_p of w carry values in the relative
    order of the pattern, compared pair by pair."""
    p = len(pattern)
    return any(all((w[i[a]] < w[i[b]]) == (pattern[a] < pattern[b])
                   for a in range(p) for b in range(p))
               for i in itertools.combinations(range(len(w)), p))


def test_pattern_avoidance_against_the_definition_seeded():
    patterns = [p for k in range(1, 5) for p in all_perms(k)]
    for n in range(1, 6):
        for w in all_perms(n):
            for pattern in patterns:
                assert is_pattern_avoiding(w, pattern) == (not _contains_pattern(w, pattern))


@given(st.integers(1, 7).flatmap(lambda n: st.permutations(range(1, n + 1))),
       st.integers(1, 4).flatmap(lambda p: st.permutations(range(1, p + 1))))
def test_pattern_avoidance_against_the_definition(w, pattern):
    w, pattern = tuple(w), tuple(pattern)
    assert is_pattern_avoiding(w, pattern) == (not _contains_pattern(w, pattern))


def test_enumerate_interval():
    w = (2, 3, 1)
    assert enumerate_interval(w, w) == {w}
    full = enumerate_interval(identity(3), longest_element(3))
    assert full == set(all_perms(3))
    assert len(enumerate_interval(identity(4), (3, 4, 1, 2))) == 14
    with pytest.raises(EmptyInterval):
        enumerate_interval((2, 1, 3), (1, 2, 3))


def test_enumerate_interval_matches_filter():
    for x, y in [((1, 3, 2, 4), (4, 2, 3, 1)), ((2, 1, 3, 4), (4, 3, 1, 2))]:
        got = enumerate_interval(x, y)
        want = {z for z in all_perms(4) if bruhat_leq(x, z) and bruhat_leq(z, y)}
        assert got == want


def test_parity_and_inverse():
    for w in all_perms(4):
        assert parity(w) == (-1) ** length(w)
        assert length(inverse(w)) == length(w)
        assert compose(w, inverse(w)) == identity(4)


def test_parabolic_longest_and_elements():
    assert parabolic_longest(4, 2) == (2, 1, 4, 3)
    assert set(parabolic_elements(4, 2)) == {
        (1, 2, 3, 4), (2, 1, 3, 4), (1, 2, 4, 3), (2, 1, 4, 3)}
    for n, m in _block_sizes(6):
        block = set(parabolic_elements(n, m))
        assert len(block) == math.factorial(m) ** (n // m)
        assert parabolic_longest(n, m) == max(block, key=length)
        assert {min_coset_rep(u, m) for u in block} == {identity(n)}
