import gc
import json
import os
import random
import sys
import threading
import warnings
import weakref

import pytest

from helpers import (
    COSET_SYMMETRIES,
    all_perms,
    canonical_pair_oracle,
    conjugate_by_w0,
    kl_inversion_check,
    kl_oracle,
    parabolic_kl_deodhar,
    parabolic_signed_sum,
    parabolic_translated,
)
import klforge.kl as kl_module
from klforge.kl import (
    KLTable,
    _decode,
    _encode,
    _pair_class,
    kl_poly,
    parabolic_kl_neg1,
    parabolic_kl_q,
)
from klforge.poly import LaurentPoly
from klforge.symgroup import (
    NotComparable,
    bruhat_leq,
    compose,
    identity,
    inverse,
    is_pattern_avoiding,
    length,
    longest_element,
    replicate_perm,
)

Q = LaurentPoly.from_q_coeffs
ONE = LaurentPoly.one()


def memo_key(table, s, w, m=1, variant="q"):
    """The key the table files the polynomial of the pair under."""
    key = _pair_class(table, _encode(s), _encode(w), len(s))[0]
    return key if m == 1 else (m, variant, *key)


def check_records_answer(table, lines):
    """Each record of a memo file answers its stored polynomial from the
    table without computing a row, and no two records share a class."""
    keys = set()
    for line in lines:
        rec = json.loads(line)
        s, w, m, v = tuple(rec["s"]), tuple(rec["w"]), rec.get("m", 1), rec.get("v")
        fn = {None: kl_poly, "q": parabolic_kl_q, "neg1": parabolic_kl_neg1}[v]
        p = Q({int(d): c for d, c in rec["p"].items()})
        assert _ask(table, fn, s, w, m) == p, rec
        keys.add(memo_key(table, s, w, m, v))
    assert not table._rows
    assert len(keys) == len(lines)


def test_diagonal_and_zero(table):
    w = (4, 1, 3, 2)
    assert kl_poly(table, w, w) == ONE
    assert kl_poly(table, (2, 1, 3), (1, 2, 3)).is_zero()


def test_s3_all_trivial(table):
    for s in all_perms(3):
        for w in all_perms(3):
            p = kl_poly(table, s, w)
            assert p == (ONE if bruhat_leq(s, w) else LaurentPoly.zero())


def test_classical_s4_values(table):
    e = identity(4)
    assert kl_poly(table, e, (3, 4, 1, 2)) == Q({0: 1, 1: 1})
    assert kl_poly(table, e, (4, 2, 3, 1)) == Q({0: 1, 1: 1})
    assert kl_poly(table, (1, 3, 2, 4), (3, 4, 1, 2)) == Q({0: 1, 1: 1})
    assert kl_poly(table, (2, 1, 4, 3), (3, 4, 1, 2)) == ONE


def test_full_s4_against_r_polynomial_oracle(table):
    for s in all_perms(4):
        for w in all_perms(4):
            assert kl_poly(table, s, w).as_q_polynomial() == kl_oracle(s, w), (s, w)


def test_s5_sample_against_r_polynomial_oracle(table):
    rng = random.Random(5)
    perms = list(all_perms(5))
    done = 0
    while done < 40:
        s, w = rng.choice(perms), rng.choice(perms)
        if bruhat_leq(s, w):
            assert kl_poly(table, s, w).as_q_polynomial() == kl_oracle(s, w), (s, w)
            done += 1


@pytest.mark.parametrize("n, smooth", [(6, 366), (7, 1552)])
def test_trivial_polynomial_iff_smooth(n, smooth):
    # P_{e,w} = 1 exactly when w avoids 3412 and 4231 (Lakshmibai-Sandhya
    # smoothness with Deodhar's criterion); the counts are OEIS A032351
    t = KLTable()
    e = identity(n)
    count = 0
    for w in all_perms(n):
        avoids = is_pattern_avoiding(w, (3, 4, 1, 2)) and is_pattern_avoiding(w, (4, 2, 3, 1))
        assert kl_poly(t, e, w).is_one() == avoids, w
        count += avoids
    assert count == smooth


def test_degree_bound_and_positivity(table):
    for n in (4, 5):
        w0 = longest_element(n)
        for w in all_perms(n):
            for s in all_perms(n):
                if not bruhat_leq(s, w):
                    continue
                coeffs = kl_poly(table, s, w).as_q_polynomial()
                assert coeffs.get(0) == 1, (s, w)
                assert all(c > 0 for c in coeffs.values()), (s, w)
                if s != w:
                    assert 2 * max(coeffs) <= length(w) - length(s) - 1, (s, w)
        assert kl_poly(table, identity(n), w0) == ONE


def test_symmetries(monkeypatch):
    # P_{x,w} = P_{x^-1,w^-1} = P_{w0 x w0,w0 w w0} on every comparable pair
    # of S_5.  The table shares rows only through w0-conjugation, so the
    # inversion identity compares the row of w with a row of its own.
    computed = set()
    compute = kl_module._compute_row

    def counting(t, w, n, m, neg1):
        computed.add(w)
        return compute(t, w, n, m, neg1)

    monkeypatch.setattr(kl_module, "_compute_row", counting)
    table, w0 = KLTable(), longest_element(5)

    def conj(x):
        return compose(w0, compose(x, w0))

    def top(x):  # the key the row of x is cached under
        return min(_encode(x), _encode(conj(x)))

    for w in all_perms(5):
        for s in all_perms(5):
            if s != w and bruhat_leq(s, w):
                p = kl_poly(table, s, w)
                assert p == kl_poly(table, inverse(s), inverse(w)), (s, w)
                assert p == kl_poly(table, conj(s), conj(w)), (s, w)
                assert {top(w), top(inverse(w))} <= computed, (s, w)


def test_inversion_identity_s3_s4(table):
    for n in (3, 4):
        for s in all_perms(n):
            for w in all_perms(n):
                if bruhat_leq(s, w):
                    assert kl_inversion_check(table, s, w), (s, w)


def test_inversion_identity_s5_sample(table):
    rng = random.Random(17)
    perms = list(all_perms(5))
    done = 0
    while done < 50:
        s, w = rng.choice(perms), rng.choice(perms)
        if bruhat_leq(s, w):
            assert kl_inversion_check(table, s, w), (s, w)
            done += 1


def test_parabolic_examples(table):
    assert parabolic_kl_q(table, (2, 1), (2, 1), 2) == ONE
    assert parabolic_kl_q(table, (1, 2), (2, 1), 2) == Q({1: 1})
    assert parabolic_kl_q(table, (1, 2), (2, 1), 3) == Q({3: 1})
    assert parabolic_kl_neg1(table, (1, 2), (2, 1), 1) == ONE
    assert parabolic_kl_neg1(table, (2, 1), (2, 1), 2) == ONE
    # the -1-variant of the same coset pair is an ordinary polynomial upstairs
    wm = (2, 1, 4, 3)
    assert parabolic_kl_neg1(table, (1, 2), (2, 1), 2) == kl_poly(
        table, wm, compose(replicate_perm((2, 1), 2), wm))


def test_parabolic_not_comparable(table):
    with pytest.raises(NotComparable):
        parabolic_kl_q(table, (2, 1), (1, 2), 2)


def test_deodhar_matches_reductions(table):
    # every comparable pair: the q-variant against the signed sum, the
    # -1-variant against the translated ordinary polynomial (which needs
    # ordinary S_9 rows of the costliest tops at (3, 3), 720 s, so not
    # there), and both against the recursion on tuples
    for k, m in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2),
                 (4, 2), (3, 3), (2, 4)]:
        rows = {"q": {}, "neg1": {}}  # tuple rows shared by the pairs of (k, m)
        for s in all_perms(k):
            for w in all_perms(k):
                if not bruhat_leq(replicate_perm(s, m), replicate_perm(w, m)):
                    continue
                q = parabolic_kl_q(table, s, w, m)
                neg1 = parabolic_kl_neg1(table, s, w, m)
                assert q == parabolic_signed_sum(table, s, w, m), (s, w, m)
                if (k, m) != (3, 3):
                    assert neg1 == parabolic_translated(table, s, w, m), (s, w, m)
                assert q == parabolic_kl_deodhar(s, w, m, "q", rows["q"]), (s, w, m)
                assert neg1 == parabolic_kl_deodhar(
                    s, w, m, "neg1", rows["neg1"]), (s, w, m)


def test_deodhar_k2_m3(table):
    for s in all_perms(2):
        for w in all_perms(2):
            if bruhat_leq(s, w):
                assert parabolic_kl_deodhar(s, w, 3) == parabolic_kl_q(table, s, w, 3)


def test_cache_persistence(tmp_path):
    path = tmp_path / "cache.jsonl"
    t1 = KLTable(path)
    p = kl_poly(t1, identity(4), (3, 4, 1, 2))
    t2 = KLTable(path)
    key = memo_key(t2, identity(4), (3, 4, 1, 2))
    assert key in t2._final
    assert kl_poly(t2, identity(4), (3, 4, 1, 2)) == p


def test_cache_corrupt_tail_truncated(tmp_path):
    path = tmp_path / "cache.jsonl"
    t1 = KLTable(path)
    kl_poly(t1, identity(4), (3, 4, 1, 2))
    good = path.read_bytes()
    path.write_bytes(good + b'{"n": 4, "s": [1,2')
    t2 = KLTable(path)
    assert path.read_bytes() == good
    assert len(t2._final) == len(t1._final)


def test_cache_rejects_bad_record_then_truncates(tmp_path):
    path = tmp_path / "cache.jsonl"
    t1 = KLTable(path)
    kl_poly(t1, (1, 2), (2, 1))
    good = path.read_bytes()
    path.write_bytes(good + b'{"n": 3, "s": [1, 2], "w": [2, 1], "p": {}}\n')
    t2 = KLTable(path)
    assert path.read_bytes() == good


@pytest.mark.parametrize("bad_record", [
    b'{"n": 4, "s": [1,\n',
    b'{"n": 4, "s": [1, 2, 3, 4], "w": [3, 4, 1, 2], "p": [1]}\n',
], ids=["truncated", "p-not-a-map"])
def test_cache_skips_bad_middle_record_and_keeps_the_rest(tmp_path, bad_record):
    path = tmp_path / "cache.jsonl"
    t1 = KLTable(path)
    for w in all_perms(4):
        kl_poly(t1, identity(4), w)
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) >= 5
    bad = len(lines) // 2
    path.write_bytes(b"".join(lines[:bad] + [bad_record] + lines[bad + 1:]))
    t2 = KLTable(path)
    assert path.read_bytes() == b"".join(lines[:bad] + lines[bad + 1:])
    check_records_answer(t2, lines[:bad] + lines[bad + 1:])


@pytest.mark.parametrize("bad_record", [
    b'{"n":4,"s":[1,2,3,4],"w":[3,4,1,2],"p":{"-1":1}}\n',
    b'{"n":4,"s":[1,2,3,4],"w":[3,4,1,2],"p":{"0":1,"-1":7}}\n',
    b'{"n":4,"s":[1,2,3,4],"w":[3,4,1,2],"p":{"0":1,"1":1,"01":5}}\n',
    b'{"n":4,"s":[1,2,3,4],"w":[3,4,1,2],"p":{"0":1.7}}\n',
    b'{"n":2,"s":[1,1],"w":[2,1],"p":{"0":1}}\n',
    b'{"n":2,"s":[1,2],"w":[2,2],"p":{"0":1}}\n',
    b'{"n":4,"s":[1,2,3,4],"w":[3,4,1,2],"p":{"0":1,"1":1,"2":1}}\n',
    b'{"n":3,"s":[1,2,3],"w":[3,2,1],"p":{"1_0":1}}\n',
    b'{"n":4,"s":[1,2,3,4],"w":[3,4,1,2],"p":{"0":1,"1":-1}}\n',
    b'{"n":4,"s":[1,2,3,4],"w":[3,4,1,2],"p":{"0":2,"1":1}}\n',
    b'{"n":4,"s":[1,2,3,4],"w":[3,4,1,2],"p":{}}\n',
], ids=["negative-degree", "negative-degree-over-the-constant", "repeated-degree",
        "float-coefficient", "s-not-a-permutation", "w-not-a-permutation",
        "degree-above-the-bound", "degree-with-digit-separator", "negative-coefficient",
        "constant-term-not-1", "zero-polynomial"])
def test_cache_skips_record_with_untrustworthy_values(tmp_path, bad_record):
    path = tmp_path / "cache.jsonl"
    t1 = KLTable(path)
    kl_poly(t1, (1, 2), (2, 1))
    good = path.read_bytes()
    path.write_bytes(bad_record + good)
    t2 = KLTable(path)
    assert path.read_bytes() == good
    assert t2._final == t1._final
    assert kl_poly(t2, identity(4), (3, 4, 1, 2)) == Q({0: 1, 1: 1})


def test_cache_skips_float_permutation_after_its_int_twin(tmp_path):
    # (1.0, 2) hashes like (1, 2), whose key the loader has already made
    path = tmp_path / "cache.jsonl"
    good = b'{"n":2,"s":[1,2],"w":[2,1],"p":{"0":1}}\n'
    path.write_bytes(good + b'{"n":2,"s":[1.0,2],"w":[2,1],"p":{"0":1}}\n')
    KLTable(path)
    assert path.read_bytes() == good


PARABOLIC_CASES = [((2, 1), (2, 1), 2), ((1, 2), (2, 1), 3),
                   ((1, 2, 3), (3, 2, 1), 2), ((2, 1, 3), (3, 1, 2), 2),
                   ((1, 3, 2), (2, 3, 1), 2)]


def test_loader_builds_each_distinct_polynomial_once(tmp_path, monkeypatch):
    # the records above the identity of S_4 share a few polynomials
    path = tmp_path / "cache.jsonl"
    t1 = KLTable(path)
    for w in all_perms(4):
        kl_poly(t1, identity(4), w)
    for sigma, omega, m in PARABOLIC_CASES:
        parabolic_kl_q(t1, sigma, omega, m)
    lines = path.read_bytes().splitlines()
    built = []
    build = kl_module._poly_of_record

    def counted(data, gap, ordinary):
        built.append((tuple(data.items()), gap, ordinary))
        return build(data, gap, ordinary)

    monkeypatch.setattr(kl_module, "_poly_of_record", counted)
    t2 = KLTable(path)
    assert t2._final == t1._final
    assert path.read_bytes().splitlines() == lines
    assert len(built) == len(set(built)) < len(lines)


@pytest.mark.parametrize("good, bad", [
    (b'{"n":2,"s":[1,2],"w":[2,1],"p":{"0":1}}',
     b'{"n":3,"s":[1,2,3],"w":[2,1,3],"p":{"0":true}}'),
    (b'{"n":4,"s":[1,2,3,4],"w":[3,4,1,2],"p":{"0":1,"1":1}}',
     b'{"n":4,"s":[1,2,3,4],"w":[2,1,3,4],"p":{"0":1,"1":1}}'),
    (b'{"m":2,"v":"q","n":4,"s":[1,2],"w":[2,1],"p":{"0":2}}',
     b'{"n":4,"s":[1,2,3,4],"w":[3,4,1,2],"p":{"0":2}}'),
], ids=["true-for-1", "degree-above-a-smaller-gap", "parabolic-constant-in-an-ordinary-record"])
def test_cache_skips_bad_twin_of_a_good_polynomial(tmp_path, good, bad):
    # the bad record's "p" equals the good one's; only its type, gap or kind differs
    path = tmp_path / "cache.jsonl"
    path.write_bytes(good + b"\n" + bad + b"\n")
    KLTable(path)
    assert path.read_bytes() == good + b"\n"


def test_parabolic_answers_persist_one_record_each(tmp_path):
    path = tmp_path / "cache.jsonl"
    t = KLTable(path)
    for sigma, omega, m in PARABOLIC_CASES:
        for fn in (parabolic_kl_q, parabolic_kl_neg1):
            fn(t, sigma, omega, m)
            fn(t, sigma, omega, m)  # the second answer comes from the table
    records = [json.loads(line) for line in path.read_text().splitlines()]
    # the diagonal pair is never stored, and (1, 3, 2) < (2, 3, 1) shares
    # the record of its w0-conjugate (2, 1, 3) < (3, 1, 2), whose top has
    # the lesser key: keys compare like the inverses (2, 3, 1) < (3, 1, 2)
    stored = [((1, 2), (2, 1), 3), ((1, 2, 3), (3, 2, 1), 2), ((2, 1, 3), (3, 1, 2), 2)]
    assert len(records) == 2 * len(stored)
    for rec in records:
        assert set(rec) == {"m", "v", "n", "s", "w", "p"}
        assert rec["n"] == rec["m"] * len(rec["s"])
    assert {(tuple(r["s"]), tuple(r["w"]), r["m"], r["v"]) for r in records} == {
        (s, w, m, v) for s, w, m in stored for v in ("q", "neg1")}


def test_w0_conjugate_pairs_share_one_record(tmp_path):
    path = tmp_path / "cache.jsonl"
    t = KLTable(path)
    sigma, omega, m = (1, 2, 3, 4), (2, 4, 1, 3), 2
    p = parabolic_kl_q(t, sigma, omega, m)
    lines = path.read_bytes()
    assert len(lines.splitlines()) == 1
    assert parabolic_kl_q(t, conjugate_by_w0(sigma), conjugate_by_w0(omega), m) == p
    assert path.read_bytes() == lines
    fresh = KLTable()
    assert parabolic_kl_q(fresh, conjugate_by_w0(sigma), conjugate_by_w0(omega), m) == p


def test_warm_table_answers_parabolic_sum_without_rows(tmp_path):
    cases = PARABOLIC_CASES + [((1, 2, 3, 4), (2, 4, 1, 3), 2)]
    for variant, fn in [("q", parabolic_kl_q), ("neg1", parabolic_kl_neg1)]:
        path = tmp_path / f"{variant}.jsonl"
        cold_table = KLTable(path)
        cold = [fn(cold_table, *case) for case in cases]
        assert cold_table._rows  # the cold table ran the module recursion
        written = path.read_bytes()
        warm = KLTable(path)
        assert [fn(warm, *case) for case in cases] == cold
        assert not warm._rows  # no row of either kind
        assert path.read_bytes() == written


@pytest.mark.parametrize("bad_record", [
    b'{"m":2,"v":"q","n":4,"s":[1,2,3],"w":[3,2,1],"p":{"0":1}}\n',
    b'{"m":2,"v":"q","n":3,"s":[1,2,3],"w":[3,2,1],"p":{"0":1}}\n',
    b'{"m":2,"v":"neg2","n":6,"s":[1,2,3],"w":[3,2,1],"p":{"0":1}}\n',
    b'{"m":2,"v":"q","n":6,"s":[1,2,3],"w":[3,2,1],"p":{"6":1}}\n',
    b'{"m":2,"v":"q","n":4,"s":[1,2],"w":[1,2],"p":{}}\n',
], ids=["n-not-m-times-k", "n-equal-to-k", "unknown-variant", "degree-above-the-bound",
        "diagonal-pair"])
def test_parabolic_record_with_bad_fields_is_skipped(tmp_path, bad_record):
    path = tmp_path / "cache.jsonl"
    t1 = KLTable(path)
    for sigma, omega, m in PARABOLIC_CASES:
        parabolic_kl_q(t1, sigma, omega, m)
    good = path.read_bytes()
    path.write_bytes(bad_record + good)
    t2 = KLTable(path)
    assert path.read_bytes() == good
    assert t2._final == t1._final
    check_records_answer(t2, good.splitlines())


def test_cache_skips_record_past_the_key_width(tmp_path):
    # t_9 of S_2 has 18 letters, more than a key holds: a fresh table
    # refuses the pair, and so does a table that met its record
    path = tmp_path / "cache.jsonl"
    kl_poly(KLTable(path), (1, 2), (2, 1))
    good = path.read_bytes()
    path.write_bytes(good + b'{"m":9,"v":"q","n":18,"s":[1,2],"w":[2,1],"p":{"0":7}}\n')
    loaded = KLTable(path)
    assert path.read_bytes() == good
    for t in (loaded, KLTable()):
        with pytest.raises(ValueError, match="at most 16 letters, not 18"):
            parabolic_kl_q(t, (1, 2), (2, 1), 9)
    assert path.read_bytes() == good


def test_cache_skips_records_of_incomparable_pairs(tmp_path):
    # 2134 and 1342 are not comparable in Bruhat order, nor are their
    # replications; both records pass every other check of the loader
    path = tmp_path / "cache.jsonl"
    t1 = KLTable(path)
    kl_poly(t1, (1, 2), (2, 1))
    good = path.read_bytes()
    s, w = (2, 1, 3, 4), (1, 3, 4, 2)
    path.write_bytes(b'{"n":4,"s":[2,1,3,4],"w":[1,3,4,2],"p":{"0":1}}\n' + good
                     + b'{"m":2,"v":"q","n":8,"s":[2,1,3,4],"w":[1,3,4,2],"p":{"0":1}}\n')
    t2 = KLTable(path)
    assert path.read_bytes() == good
    assert kl_poly(t2, s, w) == kl_poly(KLTable(), s, w) == LaurentPoly.zero()
    with pytest.raises(NotComparable):
        parabolic_kl_q(t2, s, w, 2)
    assert path.read_bytes() == good


def test_table_shared_between_threads(tmp_path):
    # two threads race over the same pairs in opposite orders
    path = tmp_path / "m.jsonl"
    perms = list(all_perms(5))
    pairs = [(s, w) for w in perms for s in perms if bruhat_leq(s, w)]
    serial = KLTable()
    want = {pair: kl_poly(serial, *pair) for pair in pairs}
    shared = KLTable(path)
    got = [None, None]

    def work(i):
        got[i] = {pair: kl_poly(shared, *pair)
                  for pair in (pairs if i == 0 else pairs[::-1])}

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want, want]
    reopened = KLTable(path)
    assert {pair: kl_poly(reopened, *pair) for pair in pairs} == want
    assert not reopened._rows  # every answer came from the file


def test_row_cache_evicts_least_recently_read(monkeypatch):
    monkeypatch.setattr(kl_module, "_MAX_ROW_ENTRIES", 3)
    t = KLTable()
    a, b, c, d, e = map(_encode, [(1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 2, 1), (2, 3, 1)])
    for w in (a, b, c):
        t._row_put(w, {w: 1})
    assert t._row_get(a) == {a: 1}
    t._row_put(d, {d: 1})
    assert set(t._rows) == {a, c, d}
    t._row_put(e, {e: 1})
    assert set(t._rows) == {a, d, e}
    assert t._row_entries == 3


def test_cache_record_schema(tmp_path):
    # the exact bytes: q-degrees in increasing order, no spaces
    path = tmp_path / "cache.jsonl"
    t = KLTable(path)
    assert kl_poly(t, identity(4), (3, 4, 1, 2)) == Q({0: 1, 1: 1})
    assert parabolic_kl_q(t, identity(4), (3, 4, 1, 2), 2) == Q({4: 1, 5: 1, 6: 1})
    assert path.read_text().splitlines() == [
        '{"n":4,"s":[1,2,3,4],"w":[3,4,1,2],"p":{"0":1,"1":1}}',
        '{"m":2,"v":"q","n":8,"s":[1,2,3,4],"w":[3,4,1,2],"p":{"4":1,"5":1,"6":1}}',
    ]


def test_memo_file_opened_once_per_table(tmp_path, monkeypatch):
    # one append handle serves every record of a table
    path = tmp_path / "cache.jsonl"
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(kl_module, "open", counting_open, raising=False)
    t = KLTable(path)
    for w in all_perms(4):
        for s in all_perms(4):
            if s != w and bruhat_leq(s, w):
                kl_poly(t, s, w)
    for sigma, omega, m in PARABOLIC_CASES:
        parabolic_kl_q(t, sigma, omega, m)
    assert opened == [str(path)]
    assert len(path.read_text().splitlines()) > 50


def test_appends_follow_a_replaced_memo_file(tmp_path, monkeypatch):
    # another table's loader replaces the file; later appends must land in
    # the file at the path, not in the unlinked one
    path = tmp_path / "cache.jsonl"
    a = KLTable(path)
    pairs = [((1, 2, 3), (3, 2, 1)), ((1, 2, 3, 4), (3, 4, 1, 2))]
    want = [kl_poly(a, *pairs[0])]
    with open(path, "ab") as fh:
        fh.write(b'{"n": 3, "s": [1, 2], "w": [2, 1], "p": {}}\n')
    inode = path.stat().st_ino
    KLTable(path)  # drops the bad line and replaces the file
    assert path.stat().st_ino != inode
    want.append(kl_poly(a, *pairs[1]))

    def no_rows(*args):
        raise AssertionError("a warm table computed a row")

    monkeypatch.setattr(kl_module, "_compute_row", no_rows)
    c = KLTable(path)
    assert [kl_poly(c, *pair) for pair in pairs] == want == [ONE, Q({0: 1, 1: 1})]


def test_dropped_table_leaves_no_open_file(tmp_path):
    path = tmp_path / "cache.jsonl"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t = KLTable(path)
        kl_poly(t, (1, 2, 3), (3, 2, 1))
        parabolic_kl_q(t, (1, 2), (2, 1), 2)
        del t
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert len(path.read_text().splitlines()) == 2


def test_dropped_table_is_freed_at_once(tmp_path):
    # no memo refers back to the table, so the last reference frees it and
    # closes its handle without the cycle collector
    from klforge.verify import verify_main_theorem

    path = tmp_path / "cache.jsonl"
    gc.disable()
    try:
        t = KLTable(path)
        assert verify_main_theorem(t, (1, 2), (1, 2), (2, 1), 2).status == "pass"
        fh, ref = t._fh, weakref.ref(t)
        assert not fh.closed
        del t
        assert ref() is None and fh.closed
    finally:
        gc.enable()
    assert len(path.read_text().splitlines()) == 2


def test_row_cache_eviction(monkeypatch):
    monkeypatch.setattr(kl_module, "_MAX_ROW_ENTRIES", 200)
    t = KLTable()
    for w in all_perms(4):
        kl_poly(t, identity(4), w)
    assert t._row_entries <= 200 + 24
    # answers remain correct after eviction
    assert kl_poly(t, identity(4), (3, 4, 1, 2)) == Q({0: 1, 1: 1})


def test_mismatched_sizes(table):
    with pytest.raises(ValueError):
        kl_poly(table, (1, 2), (1, 2, 3))


@pytest.mark.parametrize("fn", [
    kl_poly,
    lambda t, s, w: parabolic_kl_q(t, s, w, 2),
    lambda t, s, w: parabolic_kl_neg1(t, s, w, 2),
], ids=["kl_poly", "parabolic_kl_q", "parabolic_kl_neg1"])
@pytest.mark.parametrize("s, w", [
    ((1, 1, 3), (3, 2, 1)),
    ((1, 2, 3), (3, 2, 2)),
    ((1, 2), (1, 2, 3)),
    ((1, 2, 3), (3, 2, 4)),
    ((0, 1, 2), (1, 2, 3)),
    ((-1, 2, 1), (3, 2, 1)),
    ((1.0, 2), (2, 1)),
    ((1, 2, 3), (3, None, 1)),
], ids=["s-repeats", "w-repeats", "sizes-differ", "value-above-n", "value-zero",
        "value-negative", "value-float", "value-none"])
def test_non_permutations_raise_and_write_no_record(tmp_path, fn, s, w):
    path = tmp_path / "cache.jsonl"
    t = KLTable(path)
    with pytest.raises(ValueError):
        fn(t, s, w)
    assert not t._final and not path.exists()


@pytest.mark.parametrize("fn", [parabolic_kl_q, parabolic_kl_neg1],
                         ids=["parabolic_kl_q", "parabolic_kl_neg1"])
@pytest.mark.parametrize("m", [0, -1])
def test_m_below_one_raises_and_writes_no_record(tmp_path, fn, m):
    path = tmp_path / "cache.jsonl"
    t = KLTable(path)
    with pytest.raises(ValueError) as info:
        fn(t, (1, 2), (2, 1), m)
    assert str(info.value) == "m must be at least 1"
    assert not t._final and not path.exists()


def test_a_warm_table_answers_an_equal_twin():
    # a lookup finds keys by equality, so (1.0, 2) raises only where (1, 2)
    # was never keyed
    t = KLTable()
    with pytest.raises(ValueError, match="not a permutation"):
        kl_poly(t, (1.0, 2), (2, 1))
    assert kl_poly(t, (1, 2), (2, 1)).is_one()
    assert kl_poly(t, (1.0, 2), (2, 1)).is_one()


@pytest.mark.parametrize("fn, at_16", [(parabolic_kl_q, {6: 1}), (parabolic_kl_neg1, {0: 1})],
                         ids=["q", "neg1"])
def test_parabolic_past_the_key_width_raises(tmp_path, fn, at_16):
    # t_4 of S_5 has 20 letters; keys hold 16
    path = tmp_path / "cache.jsonl"
    t = KLTable(path)
    with pytest.raises(ValueError, match="at most 16 letters"):
        fn(t, identity(5), (2, 1, 3, 4, 5), 4)
    assert not t._final and not path.exists()
    assert fn(t, identity(4), (2, 1, 3, 4), 4) == Q(at_16)  # t_4 of S_4: 16 letters


# Pairs asked in the memo file tests: every comparable pair of S_4, and
# every comparable parabolic pair at (k, m) = (3, 2), (2, 3) in both variants.
MEMO_PAIRS = [(kl_poly, s, w, 1) for w in all_perms(4) for s in all_perms(4)
              if s != w and bruhat_leq(s, w)] + [
    (fn, s, w, m) for k, m in [(3, 2), (2, 3)] for fn in (parabolic_kl_q, parabolic_kl_neg1)
    for w in all_perms(k) for s in all_perms(k) if s != w and bruhat_leq(s, w)]


def _ask(table, fn, s, w, m):
    return fn(table, s, w) if m == 1 else fn(table, s, w, m)


@pytest.mark.parametrize("member", ["oracle", *range(2)])
def test_memo_file_with_other_members_answers_warm(tmp_path, monkeypatch, member):
    # a record holding another member of its symmetry class, the tuple
    # oracle's or the image under each symmetry, loads under the same key
    path = tmp_path / "cache.jsonl"
    cold = KLTable(path)
    want = [_ask(cold, *case) for case in MEMO_PAIRS]
    lines = []
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        s, w, m = tuple(rec["s"]), tuple(rec["w"]), rec.get("m", 1)
        if member == "oracle":
            s, w = canonical_pair_oracle(s, w)
        else:
            s, w = COSET_SYMMETRIES[member](s), COSET_SYMMETRIES[member](w)
        lines.append(json.dumps({**rec, "s": list(s), "w": list(w)}) + "\n")
    path.write_text("".join(lines))

    def no_rows(*args):
        raise AssertionError("a warm table computed a row")

    monkeypatch.setattr(kl_module, "_compute_row", no_rows)
    warm = KLTable(path)
    check_records_answer(warm, lines)
    assert [_ask(warm, *case) for case in MEMO_PAIRS] == want
    assert not warm._rows
    assert path.read_text() == "".join(lines)


def test_warm_hits_never_normalise(tmp_path, monkeypatch):
    # every member of a loaded class is a key of its own: a hit is one dict
    # read, with no class listing and no row
    path = tmp_path / "cache.jsonl"
    cold = KLTable(path)
    want = [_ask(cold, *case) for case in MEMO_PAIRS]
    warm = KLTable(path)

    def fail(*args):
        raise AssertionError("a warm hit normalised its pair or computed a row")

    monkeypatch.setattr(kl_module, "_compute_row", fail)
    monkeypatch.setattr(kl_module, "_pair_class", fail)
    for (fn, s, w, m), p in zip(MEMO_PAIRS, want):
        for f in COSET_SYMMETRIES:
            assert _ask(warm, fn, f(s), f(w), m) == p, (s, w, m, f)


def test_memo_file_of_the_inverse_pair_answers_it_and_computes_the_pair(tmp_path):
    # inversion keeps P_{x,w} but is no symmetry of the table: a file that
    # holds only (s^-1, w^-1) answers that pair warm, and (s, w) computes
    # its own row and appends its own record
    s, w = (2, 3, 1, 4, 5), (2, 5, 3, 4, 1)
    path = tmp_path / "cache.jsonl"
    record = '{"n":5,"s":[3,1,2,4,5],"w":[5,1,3,4,2],"p":{"0":1,"1":1}}'
    path.write_text(record + "\n")
    t = KLTable(path)
    assert kl_poly(t, inverse(s), inverse(w)) == Q({0: 1, 1: 1})
    assert not t._rows
    assert kl_poly(t, s, w) == Q({0: 1, 1: 1})
    assert t._rows
    lines = path.read_text().splitlines()
    assert len(lines) == 2 and lines[0] == record
    rec = json.loads(lines[1])
    assert rec["p"] == {"0": 1, "1": 1}
    assert (tuple(rec["s"]), tuple(rec["w"])) in {
        (s, w), (conjugate_by_w0(s), conjugate_by_w0(w))}


def test_cold_lookups_read_cached_rows_without_remapping(monkeypatch):
    # the top of a memo key is the canonical top of its row, so a lookup
    # that misses gets the cached row itself, never a remapped copy
    row, depth, outer = kl_module._row, [0], []

    def watched(table, w, n, m=1, neg1=False):
        depth[0] += 1
        try:
            got = row(table, w, n, m, neg1)
        finally:
            depth[0] -= 1
        if not depth[0]:
            outer.append(got is table._rows[(w, m, neg1)])
        return got

    monkeypatch.setattr(kl_module, "_row", watched)
    t = KLTable()
    for fn, s, w, m in MEMO_PAIRS + [(parabolic_kl_q, s, w, 2) for w in all_perms(4)
                                     for s in all_perms(4) if s != w and bruhat_leq(s, w)]:
        _ask(t, fn, s, w, m)
    assert len(outer) > 100 and all(outer)


@pytest.mark.parametrize("fn, m, record", [
    (kl_poly, 1, '{"n":4,"s":[1,2,4,3],"w":[4,2,3,1],"p":{"0":1,"1":1}}'),
    (parabolic_kl_q, 2,
     '{"m":2,"v":"q","n":8,"s":[1,2,4,3],"w":[4,2,3,1],"p":{"4":1,"5":1,"6":1}}'),
], ids=["ordinary", "parabolic"])
def test_a_self_conjugate_top_stores_the_least_bottom(tmp_path, fn, m, record):
    # 4231 is its own w0-conjugate, so the class of (2134, 4231) is the two
    # bottoms 2134 and 1243 under one top; the record holds the lesser key,
    # 1243 (keys compare like the inverses 1243 < 2134), whichever is asked
    w = (4, 2, 3, 1)
    assert conjugate_by_w0(w) == w
    for s in [(2, 1, 3, 4), (1, 2, 4, 3)]:
        path = tmp_path / f"{s}.jsonl"
        _ask(KLTable(path), fn, s, w, m)
        assert path.read_text() == record + "\n"


def _dumped_record(table, fn, s, w, m, p):
    """json.dumps without spaces of the record dict of the pair (s, w): its
    canonical member as lists and p as {q-degree: coefficient}."""
    k = len(w)
    bottom, top = _pair_class(table, _encode(s), _encode(w), k)[0]
    rec = {"m": m, "v": "q" if fn is parabolic_kl_q else "neg1"} if m > 1 else {}
    rec.update(n=k * m, s=list(_decode(bottom, k)), w=list(_decode(top, k)),
               p=p.to_json("q")["coeffs"])
    return json.dumps(rec, separators=(",", ":")) + "\n"


def test_record_lines_are_the_json_dump_of_their_record(tmp_path):
    # a miss formats its line from its keys and packed entry; byte for byte
    # the dump of the record dict, a two-digit degree included (a zero
    # entry: test_record_formats_each_nonzero_field_in_increasing_degree)
    path = tmp_path / "cache.jsonl"
    t = KLTable(path)
    written = []
    for fn, s, w, m in MEMO_PAIRS + [(fn, (1, 2), (2, 1), 5)
                                     for fn in (parabolic_kl_q, parabolic_kl_neg1)]:
        p = _ask(t, fn, s, w, m)
        lines = path.read_text().splitlines(keepends=True)
        if len(lines) > len(written):
            assert lines[len(written):] == [_dumped_record(t, fn, s, w, m, p)], (fn, s, w, m)
            written = lines
    assert len(written) == len({(fn, m, memo_key(t, s, w)) for fn, s, w, m in MEMO_PAIRS}) + 2
    assert written[-2:] == ['{"m":5,"v":"q","n":10,"s":[1,2],"w":[2,1],"p":{"10":1}}\n',
                            '{"m":5,"v":"neg1","n":10,"s":[1,2],"w":[2,1],"p":{"0":1}}\n']


@pytest.mark.parametrize("packed, coeffs", [
    (0, {}), (1, {"0": 1}), (12 << 32 * 10, {"10": 12}),
    (3 | ((1 << 24) - 1) << 64 | 7 << 32 * 11, {"0": 3, "2": (1 << 24) - 1, "11": 7}),
], ids=["zero", "one", "degree-10", "gaps"])
def test_record_formats_each_nonzero_field_in_increasing_degree(packed, coeffs):
    s, w = _encode((1, 2, 3)), _encode((3, 2, 1))
    for m, head in [(1, {}), (2, {"m": 2, "v": "neg1"})]:
        rec = {**head, "n": 3 * m, "s": [1, 2, 3], "w": [3, 2, 1], "p": coeffs}
        assert kl_module._record(m, "neg1", 3, s, w, packed) == (
            json.dumps(rec, separators=(",", ":")) + "\n").encode()


def test_misses_under_one_top_replicate_each_key_once(monkeypatch):
    # the table pools t_m of each key by (key, k, m): the misses of both
    # variants at m = 2 and m = 3 under one top replicate each key, the top
    # and every canonical bottom, once per m
    replicated = []
    replicate = kl_module._replicate_key

    def counted(key, k, m):
        replicated.append((key, m))
        return replicate(key, k, m)

    monkeypatch.setattr(kl_module, "_replicate_key", counted)
    t, w = KLTable(), (3, 2, 1)
    for m in (2, 3):
        for fn in (parabolic_kl_q, parabolic_kl_neg1):
            for s in all_perms(3):
                if s != w:
                    _ask(t, fn, s, w, m)
    assert len(replicated) > 2 and len(replicated) == len(set(replicated))
    assert (_encode(w), 2) in replicated and (_encode(w), 3) in replicated


def _memo_lines(path):
    """The records a cold table writes for MEMO_PAIRS, as lines without ends."""
    cold = KLTable(path)
    for case in MEMO_PAIRS:
        _ask(cold, *case)
    return path.read_bytes().splitlines()


@pytest.mark.parametrize("form", [
    lambda line: line + b"\r\n",
    lambda line: b" \t" + line + b" \r\n",
    lambda line: b"\r" + line + b"\n",
], ids=["crlf", "spaces-around", "leading-cr"])
def test_memo_lines_with_json_whitespace_load_and_stay(tmp_path, monkeypatch, form):
    # the loader accepts a record line exactly as json's decode does, JSON
    # whitespace around the record included, and rewrites nothing it keeps
    path = tmp_path / "cache.jsonl"
    data = b"".join(map(form, _memo_lines(path)))
    path.write_bytes(data)

    def no_rows(*args):
        raise AssertionError("a warm table computed a row")

    monkeypatch.setattr(kl_module, "_compute_row", no_rows)
    warm = KLTable(path)
    check_records_answer(warm, data.split(b"\n")[:-1])
    assert not warm._rows
    assert path.read_bytes() == data


@pytest.mark.parametrize("extra", [b" x", b"{}", b' {"n":2}', b"]"],
                         ids=["word", "empty-object", "second-record", "bracket"])
def test_memo_line_with_data_after_its_record_is_skipped(tmp_path, extra):
    # json's decode refuses extra data after a record, and so does the loader
    path = tmp_path / "cache.jsonl"
    lines = _memo_lines(path)
    bad = len(lines) // 2
    path.write_bytes(b"".join(line + b"\n" for line in lines[:bad])
                     + lines[bad] + extra + b"\n"
                     + b"".join(line + b"\n" for line in lines[bad:]))
    t = KLTable(path)
    assert path.read_bytes() == b"".join(line + b"\n" for line in lines)
    check_records_answer(t, lines)


def test_two_records_on_one_line_are_skipped(tmp_path):
    path = tmp_path / "cache.jsonl"
    lines = _memo_lines(path)
    path.write_bytes(lines[0] + lines[1] + b"\n"
                     + b"".join(line + b"\n" for line in lines[2:]))
    t = KLTable(path)
    assert path.read_bytes() == b"".join(line + b"\n" for line in lines[2:])
    check_records_answer(t, lines[2:])
