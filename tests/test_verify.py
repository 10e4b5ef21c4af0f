import json
import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from helpers import all_perms, prop1_oracle
from klforge.kl import KLTable, _encode
from klforge.pbw import _Rank, member_word, word_coefficient, word_str
from klforge.poly import LaurentPoly
from klforge.segcomb import (
    BelowSigma0,
    BiSequence,
    Segment,
    construct_strongly_regular,
    dominates_sigma0,
)
from klforge.verify import (
    VerificationReport,
    is_square_irreducible,
    summarize,
    sweep,
    verify_main_theorem,
    verify_power_identity,
    verify_prop1,
)
from klforge.symgroup import bruhat_leq, identity, is_pattern_avoiding
import klforge.cli as cli
import klforge.kl as kl_module
import klforge.verify as verify_module

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
    not_regular = BiSequence((1, 1), (3, 2))  # two equal left ends
    with pytest.raises(ValueError) as info:
        is_square_irreducible(table, not_regular, (1, 2))
    assert str(info.value) == f"{not_regular} is not regular"


@pytest.mark.parametrize("sigma", [(0, 1, 2), (3, 3, 3), (1, 1, 2), (1, 2, 4)])
def test_is_square_irreducible_rejects_what_is_not_a_permutation(table, sigma):
    with pytest.raises(ValueError) as info:
        is_square_irreducible(table, construct_strongly_regular((1, 2, 3)), sigma)
    assert str(info.value) == f"{sigma} does not permute 1..3"
    assert not isinstance(info.value, BelowSigma0)


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


@pytest.mark.parametrize("s0, sigma, omega", [
    ((1, 2), (1, 2, 3), (3, 2, 1)),
    ((1, 2, 3), (1, 2, 3), (3, 2, 2)),
    ((1, 2, 3), (1, 1, 3), (3, 2, 1)),
    ((1.0, 2), (1, 2), (2, 1)),  # keyed first: later twins find (1, 2)'s key
], ids=["sizes-differ", "omega-repeats-a-value", "sigma-repeats-a-value",
        "sigma0-holds-a-float"])
def test_main_theorem_skips_what_is_not_a_permutation(tmp_path, s0, sigma, omega):
    table = KLTable(tmp_path / "memo.jsonl")
    r = verify_main_theorem(table, s0, sigma, omega, 2)
    assert r.status == "skipped"
    assert r.reason.startswith("HypothesisFailed:") and "permute 1.." in r.reason
    assert not table._final and not (tmp_path / "memo.jsonl").exists()


_PERMUTE_3 = "sigma0, sigma and omega must permute 1..3"


@pytest.mark.parametrize("s0, sigma, omega, m, reason", [
    ((1, 2), (1, 2), (2, 1), 1, "m must be greater than 1"),
    ((1, 2, 3), (1, 1, 3), (3, 2, 1), 2, _PERMUTE_3),
    ((1, 2, 3), (0, 2, 3), (3, 2, 1), 2, _PERMUTE_3),
    ((1, 2, 3), (1, 2, 3), (3, 2, 4), 2, _PERMUTE_3),
    ((1, 2, 4), (1, 2, 3), (3, 2, 1), 2, _PERMUTE_3),
    ((1, 2, 3), (1, 2), (2, 1), 2, _PERMUTE_3),
    ((1, 2, 3), (1, 2, 3), (4, 3, 2, 1), 2, _PERMUTE_3),
    ((1, 2), (1, 2, 3), (3, 2, 1), 2, "sigma0, sigma and omega must permute 1..2"),
    ((2, 1, 3), (2, 1, 3), (3, 2, 1), 2, "sigma0 (2, 1, 3) contains the pattern 213"),
    ((1, 3, 2), (1, 2, 3), (3, 2, 1), 2, "need sigma0 <= sigma <= omega"),
    ((1, 2, 3), (2, 3, 1), (3, 1, 2), 2, "need sigma0 <= sigma <= omega"),
])
def test_main_theorem_skip_reasons(table, s0, sigma, omega, m, reason):
    r = verify_main_theorem(table, s0, sigma, omega, m)
    assert r.status == "skipped" and r.reason == f"HypothesisFailed: {reason}"


def test_main_theorem_past_the_key_width_is_no_skip(table):
    # keys hold 16 letters; 17 is an error of the table, not a failed hypothesis
    w = identity(17)
    with pytest.raises(ValueError, match="at most 16 letters"):
        verify_main_theorem(table, w, w, w, 2)
    with pytest.raises(ValueError, match="at most 16 letters"):
        verify_main_theorem(table, w, w, (2, 2, *w[2:]), 2)


def test_main_theorem_past_the_replicated_key_width_is_no_skip(table):
    # S_5 keys fit, but t_4 of S_5 has 20 letters
    e = identity(5)
    with pytest.raises(ValueError, match="at most 16 letters"):
        verify_main_theorem(table, e, e, (2, 1, 3, 4, 5), 4)
    r = verify_main_theorem(table, e[:4], e[:4], (2, 1, 3, 4), 4)
    assert r.status == "pass" and r.computed == V(-12)  # q^6 at 16 letters


def test_main_theorem_tests_213_once_per_sigma0_and_table(monkeypatch):
    # every sigma0 of S_1..S_3, 213-containing ones included, with each
    # sigma0 <= sigma <= omega at m = 2
    cases = [(s0, sigma, omega, 2) for k in (1, 2, 3) for s0 in all_perms(k)
             for omega in all_perms(k) if bruhat_leq(s0, omega)
             for sigma in all_perms(k) if bruhat_leq(s0, sigma) and bruhat_leq(sigma, omega)]

    def stripped(table):
        return [{**r.to_json(), "elapsed_s": None}
                for r in (verify_main_theorem(table, *case) for case in cases)]

    want = stripped(KLTable())
    calls = []

    def counted(w, pattern):
        calls.append(w)
        return is_pattern_avoiding(w, pattern)

    monkeypatch.setattr(kl_module, "is_pattern_avoiding", counted)
    assert stripped(KLTable()) == want
    distinct = len({case[0] for case in cases})
    assert len(calls) == len(set(calls)) == distinct == 9
    assert any(r["status"] == "skipped" and "213" in r["reason"] for r in want)
    stripped(KLTable())
    assert len(calls) == 2 * distinct


def test_warm_main_theorem_keys_each_permutation_once(tmp_path, monkeypatch):
    # on a warm table a check keys sigma0, sigma and omega once each and
    # reads both polynomials on those keys: no row, no record appended
    cases = [(s0, sigma, omega, m) for k, ms in [(2, (2, 3, 4)), (3, (2,))]
             for s0 in all_perms(k) for omega in all_perms(k) if bruhat_leq(s0, omega)
             for sigma in all_perms(k) if bruhat_leq(s0, sigma) and bruhat_leq(sigma, omega)
             for m in ms]
    cases += [(identity(4), identity(4), (3, 4, 1, 2), 2),  # P(sigma0, omega) = 1 + q
              (identity(4), (1, 3, 2, 4), (2, 3, 1, 4), 2)]
    path = tmp_path / "memo.jsonl"
    table = KLTable(path)
    cold = [_stripped(verify_main_theorem(table, *case)) for case in cases]
    written = path.read_bytes()
    warm = KLTable(path)
    keyed = []

    class Counted(type(warm._perm_keys)):
        def __getitem__(self, w):
            keyed.append(w)
            return super().__getitem__(w)

    counted = Counted(_encode)
    counted.update(warm._perm_keys)

    def no_rows(*args):
        raise AssertionError("a warm check computed a row")

    monkeypatch.setattr(warm, "_perm_keys", counted)
    monkeypatch.setattr(kl_module, "_compute_row", no_rows)
    for case, want in zip(cases, cold):
        keyed.clear()
        assert _stripped(verify_main_theorem(warm, *case)) == want
        assert keyed == list(case[:3]), case
    assert {r["status"] for r in cold} == {"pass", "skipped"}
    assert not warm._rows and path.read_bytes() == written


def test_corollary_smooth(table):
    # the smooth Schubert case: the main theorem with the identity as sigma0,
    # over every sigma below omega
    def smooth(omega, m):
        k = len(omega)
        return [verify_main_theorem(table, identity(k), sigma, omega, m)
                for sigma in all_perms(k) if bruhat_leq(sigma, omega)]

    r = smooth(identity(2), 2)
    assert len(r) == 1 and r[0].passed
    reports = smooth((3, 2, 1), 2)
    assert len(reports) == 6 and all(x.passed for x in reports)
    skipped = smooth((3, 4, 1, 2), 2)
    assert len(skipped) == 14 and all(x.status == "skipped" for x in skipped)
    assert all("P(sigma0, omega) = 1+q is not trivial" in x.reason for x in skipped)


def test_prop1_examples():
    A = BiSequence((1, 5), (7, 5))
    r = verify_prop1(A, (1, 2), (1, 2), 2)
    assert r.passed and r.computed == V(-2)
    r = verify_prop1(A, (1, 2), (2, 1), 2)
    assert r.passed and r.computed.is_zero()
    r = verify_prop1(construct_strongly_regular((1,)), (1,), (1,), 2)
    assert r.passed and r.computed == V(-1)


@pytest.mark.parametrize("sigma, omega", [([1, 2], (1, 2)), ((2, 1), [2, 1])])
def test_prop1_takes_sigma_and_omega_as_any_sequence(sigma, omega):
    # a list and a tuple of the same permutation are the same case
    r = verify_prop1(BiSequence((1, 5), (7, 5)), sigma, omega, 2)
    assert r.passed and r.claimed == r.computed == V(-2)


def test_prop1_constant_shape():
    # f(k, m) = k (C(m-1,2) - C(m,2)) on diagonal cases
    for k, m, f in ((1, 2, -1), (2, 2, -2), (2, 3, -4), (3, 2, -3)):
        s0 = identity(k)
        A = construct_strongly_regular(s0)
        r = verify_prop1(A, s0, s0, m)
        assert r.passed and r.computed == V(f), (k, m, r.computed)


@pytest.mark.parametrize("sigma, omega", [((1, 2), (1, 2, 3)), ((1, 2), (3, 1))])
def test_prop1_skips_what_is_not_a_permutation_of_the_family(sigma, omega):
    r = verify_prop1(construct_strongly_regular((1, 2)), sigma, omega, 2)
    assert r.status == "skipped"
    assert r.reason.startswith("HypothesisFailed:") and "permute 1..2" in r.reason


@pytest.mark.parametrize("A, sigma, omega, m, reason", [
    (BiSequence((6, 12), (13, 12)), (1, 2), (2, 1), 1, "m must be greater than 1"),
    (BiSequence((1, 5), (7, 4)), (1, 2), (2, 1), 2,    # a_2 = b_2 + 1
     "(1,5 / 7,4) is not strongly regular"),
    (BiSequence((6, 12), (13, 12)), (1, 1), (2, 1), 2, "sigma and omega must permute 1..2"),
    (BiSequence((6, 12), (12, 6)), (1, 2), (2, 1), 2,  # sigma0 = 21
     "sigma and omega must dominate sigma0"),
    (BiSequence((6, 12), (12, 6)), (2, 1), (1, 2), 2, "sigma and omega must dominate sigma0"),
])
def test_prop1_skip_reasons(A, sigma, omega, m, reason):
    r = verify_prop1(A, sigma, omega, m)
    assert (r.status, r.reason) == ("skipped", f"HypothesisFailed: {reason}")
    assert r.claimed is None and r.computed is None


# (family, sigma, omega) for every strongly regular family with k <= 3 and
# every sigma, omega above its minimal permutation
_PROP1_CASES = [
    (A, sigma, omega)
    for k in (1, 2, 3)
    for s0 in all_perms(k) if is_pattern_avoiding(s0, (2, 1, 3))
    for A in [construct_strongly_regular(s0)]
    for sigma in all_perms(k) if dominates_sigma0(A, sigma)
    for omega in all_perms(k) if dominates_sigma0(A, omega)]


def _shifted(A, d):
    return BiSequence(tuple(x + d for x in A.a), tuple(x + d for x in A.b))


def test_packed_prop1_matches_the_multisegment_route():
    for A, sigma, omega in _PROP1_CASES:
        for m in (2, 3):
            r = verify_prop1(A, sigma, omega, m)
            assert (r.status, r.computed) == prop1_oracle(A, sigma, omega, m), \
                (A, sigma, omega, m)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_PROP1_CASES), st.sampled_from((2, 3)), st.data())
def test_packed_prop1_matches_the_multisegment_route_on_shifted_families(case, m, data):
    A, sigma, omega = case
    lo, hi = -2**31 - min(A.a), 2**31 - 1 - max(A.b)
    B = _shifted(A, data.draw(st.integers(lo, hi) | st.sampled_from((lo, hi))))
    r, unshifted = verify_prop1(B, sigma, omega, m), verify_prop1(A, sigma, omega, m)
    assert (r.status, r.computed) == prop1_oracle(B, sigma, omega, m) \
        == (unshifted.status, unshifted.computed)


@pytest.mark.parametrize("edge", ["low", "high"])
def test_prop1_rejects_ends_past_32_bits(edge):
    A = construct_strongly_regular((1, 3, 2))
    d = -2**31 - min(A.a) - 1 if edge == "low" else 2**31 - max(A.b)
    B = _shifted(A, d)
    for _ in range(2):  # the family keeps nothing of the first call
        with pytest.raises(ValueError, match="outside"):
            verify_prop1(B, (1, 3, 2), (3, 2, 1), 2)


def _outputs(r):
    return r.status, r.reason, r.claimed, r.computed


def _counting_rank(monkeypatch):
    """Patches verify's _Rank to record the word each table is built from
    and each member a table sums; returns the two lists."""
    tables, sums = [], []

    class Counted(verify_module._Rank):
        def __init__(self, word):
            tables.append(word)
            super().__init__(word)

        def total(self, w):
            if len(w) * 2 <= self.size:  # a member: tables are built from targets
                sums.append(w)
            return super().total(w)

    monkeypatch.setattr(verify_module, "_Rank", Counted)
    return tables, sums


def test_prop1_on_shared_families_matches_fresh_ones(monkeypatch):
    # every sigma, omega in S_k of each family, so with the skips below
    # sigma0 and one that is no permutation, at m = 2 and 3 in a shuffled
    # order on shared family objects: the reports of fresh families, one
    # rank table per (family, m) that passes, and one member sum per
    # (family, omega, m) and per (family, sigma, m), for the left's share,
    # that passes
    shared = {A: BiSequence(A.a, A.b) for A, _, _ in _PROP1_CASES}
    runs = [(B, sigma, omega, m) for A, B in shared.items()
            for sigma in all_perms(A.k) for omega in [*all_perms(A.k), (1,) * (A.k + 1)]
            for m in (2, 3)]
    random.Random(23).shuffle(runs)
    fresh = [_outputs(verify_prop1(BiSequence(B.a, B.b), *case)) for B, *case in runs]
    tables, sums = _counting_rank(monkeypatch)
    assert [_outputs(verify_prop1(*run)) for run in runs] == fresh
    assert {r[0] for r in fresh} == {"pass", "skipped"}
    passed = [run for run, r in zip(runs, fresh) if r[0] == "pass"]
    assert len(tables) == len({(B, m) for B, _, _, m in passed})
    assert len(sums) == len({(B, omega, m) for B, _, omega, m in passed}) \
        + len({(B, sigma, m) for B, sigma, _, m in passed})


def test_family_derived_data_is_built_once(table, monkeypatch):
    # two passes over one family's grid: one rank table per m, one member
    # sum per (omega, m) and per (sigma, m), and one family JSON, built at
    # the first check and shared by every report
    targets, sums = _counting_rank(monkeypatch)
    A = construct_strongly_regular((1, 3, 2))
    assert A.derived == {}  # construction leaves the family's derived data to its checks
    above = [w for w in all_perms(3) if dominates_sigma0(A, w)]
    grid = [(sigma, omega, m) for m in (2, 3) for sigma in above for omega in above]
    reports = [verify_prop1(A, *case) for _ in range(2) for case in grid]
    reports.append(verify_power_identity(table, A, above[-1], 2))
    assert {r.status for r in reports} == {"pass"}
    assert targets == [tuple(sorted(member_word(A, above[0]) * m)) for m in (2, 3)]
    assert sorted(sums) == sorted(2 * [member_word(A, p) for p in above for m in (2, 3)])
    family = reports[0].case["family"]
    assert family == A.to_json()
    assert all(r.case["family"] is family for r in reports)


def test_a_shared_rank_table_decides_as_one_per_target():
    # every product case with k <= 4 and m in (2, 3): the kept slack, the
    # left's share less omega's sum, is the slack under a table built from
    # the case's own target, and fails the guard exactly where that rules
    # the target out; the shared table has each target's end sets and length
    for k in (1, 2, 3, 4):
        for s0 in all_perms(k):
            if not is_pattern_avoiding(s0, (2, 1, 3)):
                continue
            A = construct_strongly_regular(s0)
            above = [w for w in all_perms(k) if dominates_sigma0(A, w)]
            for m, sigma, omega in [(m, s, w) for m in (2, 3) for s in above for w in above]:
                assert verify_prop1(A, sigma, omega, m).passed
                left, target, part, rank = A.derived["target", sigma, m][:4]
                assert rank is A.derived["rank", m][0]
                assert (set(rank.rows), set(rank.cols), rank.size) == (
                    {x & 0xFFFFFFFF for x in target}, {x >> 32 for x in target}, len(target))
                kept = part - A.derived["sum", omega, m]
                own = _Rank(target).slack(left + A.derived["member", omega])
                assert (kept & rank.guard == rank.guard) == (own is not None)
                assert own is None or kept == own, (A, sigma, omega, m)


def test_word_coefficient_on_a_shared_table_reads_each_target():
    # a table built from the target of sigma = 123, and one from that of
    # 321, each read toward both targets: each coefficient is the oracle's
    A, m = construct_strongly_regular((1, 2, 3)), 2
    members = {p: member_word(A, p) for p in all_perms(3)}
    sigmas = ((1, 2, 3), (3, 2, 1))
    for shared in [_Rank(tuple(sorted(members[s] * m))) for s in sigmas]:
        for sigma in sigmas:
            left = tuple(sorted(members[sigma] * (m - 1)))
            target = tuple(sorted(members[sigma] * m))
            for omega in all_perms(3):
                got = word_coefficient({left + members[omega]: V(3 * comb(m - 1, 2))},
                                       target, 3 * comb(m, 2), shared)
                assert got == prop1_oracle(A, sigma, omega, m)[1], (sigma, omega)


def test_prop1_straightens_only_words_in_play(monkeypatch):
    # a product word whose kept slack fails the guard reports 0 without
    # word_coefficient, and every report is word_coefficient's from scratch
    called = []

    def counted(words, *args):
        called.extend(words)
        return word_coefficient(words, *args)

    monkeypatch.setattr(verify_module, "word_coefficient", counted)
    in_play = []
    for A, sigma, omega in _PROP1_CASES:
        for m in (2, 3):
            r = verify_prop1(A, sigma, omega, m)
            s, k = member_word(A, sigma), A.k
            left, target = tuple(sorted(s * (m - 1))), tuple(sorted(s * m))
            w = left + member_word(A, omega)
            assert r.passed and r.computed == word_coefficient(
                {w: V(k * comb(m - 1, 2))}, target, k * comb(m, 2)), (A, sigma, omega, m)
            if _Rank(target).slack(w) is not None:
                in_play.append(w)
    assert called == in_play
    assert 0 < len(in_play) < 2 * len(_PROP1_CASES)


def test_prop1_on_a_warm_family_skips_as_on_a_fresh_one():
    A = BiSequence((6, 12), (12, 6))  # sigma0 = 21
    assert verify_prop1(A, (2, 1), (2, 1), 2).passed
    for sigma, omega, reason in [((2, 1), (1, 1), "sigma and omega must permute 1..2"),
                                 ((2, 1), (1, 2), "sigma and omega must dominate sigma0"),
                                 ((1, 2), (2, 1), "sigma and omega must dominate sigma0")]:
        for B in (A, A, BiSequence(A.a, A.b)):
            r = verify_prop1(B, sigma, omega, 2)
            assert (r.status, r.reason) == ("skipped", f"HypothesisFailed: {reason}")


def test_prop1_builds_no_segment_objects(table, monkeypatch, capsys):
    # nor does the power identity, whose two sides stay keyed by sorted words,
    # nor any command: src has no multisegment class, and builds no Segment
    def refuse(*args, **kwargs):
        raise AssertionError("a Segment was built")

    monkeypatch.setattr(Segment, "__init__", refuse)
    reports = [verify_prop1(B, sigma, omega, m)
               for B, sigma, omega in _PROP1_CASES[::7] for m in (2, 3)]
    tops = {B: omega for B, _, omega in _PROP1_CASES}  # w0 over each family
    power = [verify_power_identity(table, B, omega, m)
             for B, omega in tops.items() for m in (2, 3)]
    assert {r.status for r in reports + power} == {"pass"} and len(power) == 16
    mseg = ["mseg", "--a", "1,1,2,2", "--b", "9,9,8,8", "--perm", "2,1,3,4"]
    for argv in (mseg, mseg + ["--format", "json"],
                 ["expand", "--a", "1,2", "--b", "8,7", "--m", "2",
                  "--direction", "g2e", "--no-cache"],
                 ["verify", "--kmax", "2", "--mmax", "2", "--no-cache"]):
        assert cli.main(argv) == 0, argv
    assert "fail=0" in capsys.readouterr().err


@pytest.mark.parametrize("A, omega, m, reason", [
    (BiSequence((6, 12), (13, 12)), (2, 1), 1, "m must be greater than 1"),
    (BiSequence((1, 5), (7, 4)), (1, 2), 2,    # a_2 = b_2 + 1
     "(1,5 / 7,4) is not strongly regular"),
    (BiSequence((6, 12), (12, 6)), (1, 2), 2,  # sigma0 = 21
     "omega must dominate sigma0"),
    (BiSequence((6, 12), (13, 12)), (1, 1), 2, "omega must permute 1..2"),
    (construct_strongly_regular((1, 2)), (2, 1, 3), 2, "omega must permute 1..2"),
])
def test_power_identity_skip_reasons(table, A, omega, m, reason):
    r = verify_power_identity(table, A, omega, m)
    assert (r.status, r.reason) == ("skipped", f"HypothesisFailed: {reason}")
    assert r.claimed is None and r.computed is None


def test_power_identity_examples(table):
    A = BiSequence((1, 5), (7, 5))
    r = verify_power_identity(table, A, (1, 2), 2)
    assert r.passed and r.measured_exponent == -2
    r = verify_power_identity(table, A, (2, 1), 2)
    assert r.passed and r.measured_exponent == -2
    r1 = verify_power_identity(table, construct_strongly_regular((1,)), (1,), 3)
    assert r1.passed and r1.measured_exponent == -3


@pytest.mark.parametrize("m, exponent", [(4, -12), (5, -20), (6, -30)])
def test_power_exponent_past_the_sweep_at_k_2(table, m, exponent):
    # the measured exponent is -k*C(m, 2) at n = 8, 10 and 12, on all three
    # cases of k = 2: omega = 12 and 21 over sigma0 = 12, and 21 over 21
    cases = [((1, 2), (1, 2)), ((1, 2), (2, 1)), ((2, 1), (2, 1))]
    for s0, omega in cases:
        r = verify_power_identity(table, construct_strongly_regular(s0), omega, m)
        assert r.passed and r.measured_exponent == exponent == -2 * comb(m, 2)


def test_power_identity_claims_the_telescoped_exponent(table, monkeypatch):
    # the claim is -k C(m, 2); a product side scaled by v measures one more
    A = BiSequence((1, 5), (7, 5))
    r = verify_power_identity(table, A, (1, 2), 3)
    assert r.passed and r.claimed == r.computed == V(-6)
    power = verify_module.g_star_power_with_taint

    def scaled(*args):
        product, tainted = power(*args)
        return {w: c * V(1) for w, c in product.items()}, tainted

    monkeypatch.setattr(verify_module, "g_star_power_with_taint", scaled)
    r = verify_power_identity(table, A, (1, 2), 3)
    assert (r.status, r.claimed, r.computed, r.measured_exponent) == ("fail", V(-6), V(-5), -5)


def test_power_identity_gate(table):
    A4 = construct_strongly_regular(identity(4))
    r = verify_power_identity(table, A4, (3, 4, 1, 2), 2)
    assert r.status == "skipped" and "NotSquareIrreducible" in r.reason


@pytest.mark.parametrize("s0, omega, word", [
    ((1, 2, 3, 4), (3, 4, 1, 2),
     "[20,40]+[40,40]+[10,41]+[30,41]+[20,42]+[40,42]+[10,43]+[30,43]"),
    ((1, 2, 3, 4), (4, 2, 3, 1),
     "[10,40]+[30,40]+[20,41]+[40,41]+[10,42]+[30,42]+[20,43]+[40,43]"),
    ((1, 2, 4, 3), (4, 2, 3, 1),
     "[10,30]+[30,30]+[20,40]+[40,40]+[10,41]+[30,41]+[20,42]+[40,42]"),
], ids=["1234-3412", "1234-4231", "1243-4231"])
def test_power_identity_fails_where_not_square_irreducible(table, monkeypatch, s0, omega,
                                                            word):
    # the three cases at (4, 2) with P(sigma0, omega) != 1, run past the gate:
    # G(M_omega)**2 is no monomial multiple of G(2 M_omega), and the reason
    # spells the first word where they differ as a multisegment
    A = construct_strongly_regular(s0)
    assert verify_power_identity(table, A, omega, 2).reason.startswith("NotSquareIrreducible:")
    monkeypatch.setattr(verify_module, "is_square_irreducible", lambda *args: True)
    r = verify_power_identity(table, A, omega, 2)
    assert (r.status, r.reason) == (
        "fail", f"NotMonomialRatio: coefficient at {word} is not v^-4 times the other side")
    assert r.claimed == V(-4) and r.computed is None  # no exponent was measured


@pytest.mark.parametrize("both", [False, True], ids=["one-word-dropped", "both-sides-empty"])
def test_power_identity_fails_on_supports_that_cannot_be_compared(table, monkeypatch, both):
    # the ratio's two support detectors: a word on one side only, and no
    # word on either side; each fails the case with no measured exponent
    A = BiSequence((1, 5), (7, 5))
    assert verify_power_identity(table, A, (1, 2), 3).passed
    right = verify_module.g_star_power_with_taint(table, A, (1, 2), 3)[0]
    first = min(right)
    kept = {} if both else {w: c for w, c in right.items() if w != first}
    monkeypatch.setattr(verify_module, "g_star_power_with_taint",
                        lambda *args: (kept, frozenset()))
    if both:
        monkeypatch.setattr(verify_module, "expand_G_in_E", lambda *args: {})
    r = verify_power_identity(table, A, (1, 2), 3)
    reason = "no comparable coefficients" if both else f"supports differ at {word_str(first)}"
    assert (r.status, r.reason) == ("fail", f"NotMonomialRatio: {reason}")
    assert r.claimed == V(-6) and r.computed is None and r.measured_exponent is None


def test_power_identity_compares_every_coefficient(table, monkeypatch):
    # the 38 cases with n <= 9 (k <= 3, m <= 3): the product side decides
    # every coefficient, so the comparison reads all 231 keys of the supports
    products, compared = [], []
    power, ratio = verify_module.g_star_power_with_taint, verify_module._monomial_ratio

    def recorded_power(*args):
        products.append(power(*args))
        return products[-1]

    def recorded_ratio(numer, denom):
        compared.append(numer.keys() | denom.keys())
        return ratio(numer, denom)

    monkeypatch.setattr(verify_module, "g_star_power_with_taint", recorded_power)
    monkeypatch.setattr(verify_module, "_monomial_ratio", recorded_ratio)
    reports = [r for r in sweep(table, 3, 3) if r.check == "power-identity"]
    assert len(reports) == len(products) == 38 and all(r.passed for r in reports)
    assert all(tainted == frozenset() for _, tainted in products)
    assert sum(map(len, compared)) == 231


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


def _stripped(r):
    out = r.to_json()
    out.pop("elapsed_s")
    return out


def test_reports_rerun_from_their_case_json(table):
    # a report's case holds its permutations as lists; every fifth report of
    # the sweep, run again from its case as JSON gives, reads the same
    rerun = {
        "main-theorem": lambda c: verify_main_theorem(
            table, c["sigma0"], c["sigma"], c["omega"], c["m"]),
        "product-vanishing": lambda c: verify_prop1(
            BiSequence.from_json(c["family"]), c["sigma"], c["omega"], c["m"]),
        "power-identity": lambda c: verify_power_identity(
            table, BiSequence.from_json(c["family"]), c["omega"], c["m"]),
    }
    reports = sweep(table, 3, 3)[::5]
    assert {r.check for r in reports} == set(rerun)
    for r in reports:
        again = rerun[r.check](json.loads(json.dumps(r.case)))
        assert _stripped(again) == _stripped(r)
    r = verify_power_identity(table, construct_strongly_regular((1, 2)), [2, 1], 2)
    assert r.passed and r.measured_exponent == -2


def test_sweep_small(table):
    reports = sweep(table, 2, 2)
    counts = summarize(reports)
    assert counts["fail"] == 0
    assert counts["pass"] > 0
    checks = {r.check for r in reports}
    assert checks == {"main-theorem", "product-vanishing", "power-identity"}
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


def test_sweep_reports_every_case_past_the_budget(table, monkeypatch):
    ran = []

    def stub(*args):
        ran.append(args)
        return VerificationReport("stub", {}, None, None, "skipped", "stub")

    for name in ("verify_main_theorem", "verify_prop1", "verify_power_identity"):
        monkeypatch.setattr(verify_module, name, stub)
    reports = sweep(table, 4, 3)
    budget = [r for r in reports if r.check != "stub"]
    assert len(ran) + len(budget) == len(reports)
    # k = 4, m = 3: the 548 main-theorem and 105 power-identity cases of
    # the 14 bottoms, one report each
    assert summarize(budget) == {"pass": 0, "fail": 0, "skipped": 653}
    assert {r.check: sum(b.check == r.check for b in budget) for r in budget} == {
        "main-theorem": 548, "power-identity": 105}
    for r in budget:
        assert r.reason.startswith("Budget: n = m*k = 12 > 9"), r.reason
        assert (r.case["k"], r.case["m"]) == (4, 3)
        assert set(r.case) == ({"k", "m", "sigma0", "sigma", "omega"}
                               if r.check == "main-theorem"
                               else {"k", "m", "family", "omega"})
