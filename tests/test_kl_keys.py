"""The integer encodings under the row recursion: permutation keys and
packed q-polynomials."""

import pytest
from hypothesis import given, strategies as st

from helpers import all_perms
from klforge.kl import (
    KLTable,
    _conj_key,
    _conjugate_by_w0,
    _decode,
    _encode,
    _finish_row,
    _inv_key,
    _LEN_MASK,
    _s_left,
    _unpack,
)
from klforge.symgroup import apply_s_left, inverse, length


def check_key(w):
    n = len(w)
    key = _encode(w)
    assert _decode(key, n) == w
    assert key & _LEN_MASK == length(w)
    assert _inv_key(key, n) == _encode(inverse(w))
    assert _conj_key(key, n) == _encode(_conjugate_by_w0(w))
    for s in range(1, n):
        sw = apply_s_left(w, s)
        assert _s_left(key, s, n) == (_encode(sw), length(sw) > length(w))
    # the least key image is the inverse of the least tuple image
    inv, conj = _inv_key(key, n), _conj_key(key, n)
    least = min(key, inv, conj, _conj_key(inv, n))
    assert _decode(_inv_key(least, n), n) == KLTable._canonical_pair(w, w)[1]


@pytest.mark.parametrize("n", range(1, 7))
def test_keys_of_all_small_permutations(n):
    keys = set()
    for w in all_perms(n):
        check_key(w)
        keys.add(_encode(w))
    assert len(keys) == len(list(all_perms(n)))


@given(st.integers(1, 16).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_keys_up_to_16_letters(w):
    check_key(tuple(w))


def test_more_than_16_letters_rejected():
    with pytest.raises(ValueError):
        _encode(tuple(range(1, 18)))


def test_unpack():
    assert _unpack(0) == ()
    assert _unpack(1) == (1,)
    assert _unpack(3 | 5 << 64) == (3, 0, 5)


@pytest.mark.parametrize("degree", [0, 1, 7])
def test_coefficient_of_2_pow_24_raises(degree):
    key = _encode((2, 1))
    row = _finish_row(KLTable(), {key: ((1 << 24) - 1) << 32 * degree})
    assert _unpack(row[key]) == (0,) * degree + ((1 << 24) - 1,)
    with pytest.raises(OverflowError):
        _finish_row(KLTable(), {key: 1 << 24 << 32 * degree})
    with pytest.raises(OverflowError):
        _finish_row(KLTable(), {_encode((1, 2)): 1, key: -1})


def test_finished_rows_share_pooled_keys_and_values():
    def fresh(x):  # an int object of its own
        return int(str(x))

    t = KLTable()
    key, p = _encode((3, 2, 1)), (1 << 32) + 1
    (ka, pa), = _finish_row(t, {fresh(key): fresh(p)}).items()
    (kb, pb), = _finish_row(t, {fresh(key): fresh(p)}).items()
    assert ka is kb and pa is pb
