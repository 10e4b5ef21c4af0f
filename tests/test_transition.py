import itertools
import math

import pytest

from helpers import (
    all_perms,
    cells_accept,
    check_coset_min,
    check_dominates_on_replications,
    coeff_parab,
    decoded,
    g_star_power_in_E,
    is_inverse,
    multisegment_oracle,
    transition_matrix,
)
from klforge.poly import LaurentPoly
from klforge.kl import KLTable, kl_poly
from klforge.pbw import member_word
from klforge.segcomb import (
    BelowSigma0,
    BiSequence,
    construct_strongly_regular,
    dominates_sigma0,
    is_strongly_regular,
    replicate,
    sigma0,
)
import klforge.transition as transition_module
from klforge.transition import (
    UnsupportedFamily,
    expand_E_in_G,
    expand_G_in_E,
    g_star_power_with_taint,
    transition_index,
)
from klforge.symgroup import (
    bruhat_leq,
    compose,
    identity,
    is_pattern_avoiding,
    length,
    longest_element,
    parity,
    replicate_perm,
)

V = LaurentPoly.v
ONE = LaurentPoly.one()


def _avoiders(k):
    return [s for s in all_perms(k) if is_pattern_avoiding(s, (2, 1, 3))]


def test_expand_diagonal_is_one(table):
    A = BiSequence((1, 2, 3), (8, 7, 6))
    s0 = sigma0(A)
    assert expand_E_in_G(table, A, s0, 1) == {s0: ONE}
    assert expand_G_in_E(table, A, s0, 1) == {s0: ONE}


def test_expand_k2_examples(table):
    A = construct_strongly_regular((1, 2))
    assert expand_E_in_G(table, A, (2, 1), 1) == {(2, 1): ONE, (1, 2): V(1)}
    assert expand_G_in_E(table, A, (2, 1), 1) == {(2, 1): ONE, (1, 2): -1 * V(1)}


def test_expand_k3_top(table):
    A = BiSequence((1, 2, 3), (8, 7, 6))
    w0 = longest_element(3)
    coeffs = expand_E_in_G(table, A, w0, 1)
    assert len(coeffs) == 6
    for s, c in coeffs.items():
        assert c == V(length(w0) - length(s))


def test_expand_below_sigma0(table):
    A = construct_strongly_regular((2, 1))  # sigma0 is the transposition
    with pytest.raises(BelowSigma0):
        expand_E_in_G(table, A, identity(2), 1)


@pytest.mark.parametrize("A, omega, m", [
    (construct_strongly_regular((1, 2, 3)), (0, 1, 2), 1),
    (construct_strongly_regular((1, 2, 3)), (1, 5, 2), 1),
    (construct_strongly_regular((1, 2, 3)), (1, 1, 2), 1),
    (construct_strongly_regular((1, 2)), (0, 1, 2, 3), 2),
    (construct_strongly_regular((1, 2)), (2, 1), 2),
], ids=["012", "152", "112", "replicated-0123", "replicated-21"])
def test_expand_rejects_what_is_not_a_permutation(table, A, omega, m):
    # a plain ValueError naming omega, neither another top's expansion, an
    # IndexError nor BelowSigma0 (itself a ValueError)
    for expand in (expand_G_in_E, expand_E_in_G):
        with pytest.raises(ValueError) as info:
            expand(table, A, omega, m)
        assert str(info.value) == f"{omega} does not permute 1..{A.k * m}"
        assert not isinstance(info.value, BelowSigma0)


def test_expand_unsupported_family(table):
    # uneven runs, regular but not strongly, and a replication, which is
    # given as its strongly regular base and m
    for A in (BiSequence((1, 1, 2), (8, 7, 7)), BiSequence((1, 2), (2, 1)),
              replicate(BiSequence((1, 2), (8, 7)), 2)):
        for call in (lambda: expand_E_in_G(table, A, identity(A.k), 1),
                     lambda: expand_G_in_E(table, A, identity(A.k), 1),
                     lambda: transition_index(table, A, 1)):
            with pytest.raises(UnsupportedFamily) as info:
                call()
            assert str(info.value) == f"{A} is not strongly regular"


@pytest.mark.parametrize("m", [0, -1])
def test_expand_rejects_m_below_one(table, m):
    A = construct_strongly_regular((1, 2))
    for call in (lambda: expand_E_in_G(table, A, (), m),
                 lambda: expand_G_in_E(table, A, (), m),
                 lambda: transition_index(table, A, m),
                 lambda: g_star_power_with_taint(table, A, (1, 2), m)):
        with pytest.raises(ValueError, match="m must be at least 1"):
            call()


@pytest.mark.parametrize("k,m", [(3, 1), (2, 3), (3, 2)])
def test_coset_expansion_matches_brute_force(table, k, m):
    # the double cosets of a family, found from their definition: all words
    # of S_n giving the same member of the family, with the shortest one as
    # representative
    for s0 in _avoiders(k):
        base = construct_strongly_regular(s0)
        A = replicate(base, m)
        fam_s0 = sigma0(A)
        groups = {}
        for w in all_perms(A.k):
            if dominates_sigma0(A, w):
                groups.setdefault(multisegment_oracle(A, w), []).append(w)
        reps = {min(ws, key=length): ws for ws in groups.values()}
        for rep, ws in reps.items():
            assert sum(length(w) == length(rep) for w in ws) == 1
        for top, members in reps.items():
            want = {}
            for rep, ws in reps.items():
                acc = LaurentPoly.zero()
                for x in ws:
                    acc = acc + kl_poly(table, x, top) * parity(x)
                if not acc.is_zero():
                    want[rep] = V(length(top) - length(rep)) * acc * parity(top)
            below = {r for r in reps if bruhat_leq(fam_s0, r) and bruhat_leq(r, top)}
            for omega in members:
                assert expand_G_in_E(table, base, omega, m) == want, (s0, omega)
                assert set(expand_E_in_G(table, base, omega, m)) == below, (s0, omega)


@pytest.mark.parametrize("n", range(1, 8))
def test_coset_min_is_the_minimal_double_coset_rep(n):
    # every w of S_n and every m dividing n: the minimal element built from
    # the count matrix against the descent fixpoint
    assert check_coset_min(n) == math.factorial(n) * sum(n % m == 0 for m in range(1, n + 1))


@pytest.mark.parametrize("n", range(2, 8))
def test_dominates_sigma0_is_bruhat_above_sigma0_on_replications(n):
    # every replicated family of S_n: the cell table of _cells, which
    # decides "above sigma0" for omega and in _cosets_below, against
    # dominates_sigma0 and Bruhat order above sigma0
    families = sum(len(_avoiders(n // m)) for m in range(2, n + 1) if n % m == 0)
    assert check_dominates_on_replications(n) == families * math.factorial(n)


@pytest.mark.parametrize("k,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_cell_table_is_dominates_sigma0_on_small_ends(k, m):
    # every strongly regular base with ends in 1..6, where a left end may sit
    # two above a right end, which no constructed family has
    for a in itertools.combinations(range(1, 7), k):
        for b in itertools.combinations(range(6, 0, -1), k):
            try:
                base = BiSequence(a, b)
            except ValueError:
                continue
            if is_strongly_regular(base):
                for w in all_perms(k * m):
                    assert cells_accept(base, w, m) == dominates_sigma0(
                        replicate(base, m), w), (base, m, w)


def test_expansions_call_no_bruhat_order(monkeypatch):
    # one route: the count matrix decides "above sigma0", so neither Bruhat
    # order nor sigma0 is called.  sigma0 of the base is 231, so the filter
    # drops double cosets that the identity family keeps
    base = BiSequence((8, 16, 24), (24, 17, 16))
    assert sigma0(base) == (2, 3, 1)

    def forbidden(*args):
        raise AssertionError("transition called bruhat_leq or sigma0")

    monkeypatch.setattr(transition_module, "bruhat_leq", forbidden)
    monkeypatch.setattr(transition_module, "sigma0", forbidden)
    for m in (2, 3):
        table = KLTable()
        index = transition_index(table, base, m)
        for col in index:
            assert expand_E_in_G(table, base, col, m)[col] == ONE
            assert expand_G_in_E(table, base, col, m)[col] == ONE
        full = transition_index(table, construct_strongly_regular((1, 2, 3)), m)
        assert set(index) < set(full), m


@pytest.mark.parametrize("k,m", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)])
def test_e_in_g_matches_ordinary_polynomials(table, k, m):
    # every column, t_m pairs and the rest: the -1 module rows against the
    # definition P_{top w0, rep w0} on ordinary rows of S_{mk}.  At n = 8
    # the families with sigma0 of length 0 or 1 are left out: their entries
    # read the largest ordinary rows of S_8 (25 s between them)
    for s0 in _avoiders(k):
        if m * k == 8 and length(s0) < 2:
            continue
        A = construct_strongly_regular(s0)
        w0 = longest_element(k * m)
        for top in transition_index(table, A, m):
            got = expand_E_in_G(table, A, top, m)
            assert got == {rep: V(length(top) - length(rep))
                           * kl_poly(table, compose(top, w0), compose(rep, w0))
                           for rep in got}, (s0, m, top)


def test_replicated_families_read_no_ordinary_row():
    # the module rows of W_m serve the index and both directions
    table = KLTable()
    for m in (2, 3):
        for k in (1, 2, 3):
            for s0 in _avoiders(k):
                A = construct_strongly_regular(s0)
                for col in transition_index(table, A, m):
                    expand_E_in_G(table, A, col, m)
                    expand_G_in_E(table, A, col, m)
    assert table._rows
    assert not [tag for tag in table._rows if tag[1] == 1]


def test_triangularity(table):
    A = construct_strongly_regular((1, 3, 2))
    _, entries = transition_matrix(table, A, 1, "e2g")
    s0 = sigma0(A)
    for (row, col), coeff in entries.items():
        assert bruhat_leq(s0, row) and bruhat_leq(row, col)
        if row == col:
            assert coeff == ONE


def test_matrix_inversion_strongly_regular(table):
    for k in (1, 2, 3):
        for s0 in _avoiders(k):
            A = construct_strongly_regular(s0)
            m1 = transition_matrix(table, A, 1, "e2g")
            m2 = transition_matrix(table, A, 1, "g2e")
            assert is_inverse(m1, m2) and is_inverse(m2, m1), (k, s0)
            if len(m1[1]) > len(m1[0]):  # unitriangular, not the identity
                assert not is_inverse(m1, m1) and not is_inverse(m2, m2)


def test_matrix_inversion_replicated_m2(table):
    for k in (2, 3):
        for s0 in _avoiders(k):
            A = construct_strongly_regular(s0)
            m1 = transition_matrix(table, A, 2, "e2g")
            m2 = transition_matrix(table, A, 2, "g2e")
            assert is_inverse(m1, m2) and is_inverse(m2, m1), (k, s0)


def test_replicated_entry_example(table):
    A = construct_strongly_regular((1, 2))
    tw = replicate_perm((2, 1), 2)
    ge = expand_G_in_E(table, A, tw, 2)
    assert ge[replicate_perm((1, 2), 2)] == V(2)
    eg = expand_E_in_G(table, A, tw, 2)
    assert eg[replicate_perm((1, 2), 2)] == V(4)


def test_coeff_parab_trivial(table):
    A = construct_strongly_regular((1, 2))
    for d in ("e2g", "g2e"):
        assert coeff_parab(table, A, (2, 1), (2, 1), 2, d) == ONE


def test_unknown_direction_rejected(table):
    A = construct_strongly_regular((1, 2))
    for d in ("E-in-G", "sideways"):
        with pytest.raises(ValueError):
            coeff_parab(table, A, (2, 1), (2, 1), 2, d)


def test_coeff_parab_examples(table):
    A = construct_strongly_regular((1, 2))
    assert coeff_parab(table, A, (1, 2), (2, 1), 2, "g2e") == V(2)
    tw = replicate_perm((2, 1), 2)
    assert coeff_parab(table, A, (1, 2), (2, 1), 2, "e2g") == expand_E_in_G(
        table, A, tw, 2)[replicate_perm((1, 2), 2)]


def test_coeff_parab_matches_expansions(table):
    m = 2
    for k in (1, 2, 3):
        for s0 in _avoiders(k):
            A = construct_strongly_regular(s0)
            for omega in all_perms(k):
                if not bruhat_leq(s0, omega):
                    continue
                tw = replicate_perm(omega, m)
                eg = expand_E_in_G(table, A, tw, m)
                ge = expand_G_in_E(table, A, tw, m)
                for sigma in all_perms(k):
                    if not (bruhat_leq(s0, sigma) and bruhat_leq(sigma, omega)):
                        continue
                    ts = replicate_perm(sigma, m)
                    assert coeff_parab(table, A, sigma, omega, m, "e2g") == eg[ts]
                    assert coeff_parab(table, A, sigma, omega, m, "g2e") == ge[ts]


def test_g_star_power_m1_matches_expansion(table):
    A = construct_strongly_regular((2, 1))
    w = (2, 1)
    assert g_star_power_in_E(table, A, w, 1) == {
        multisegment_oracle(A, rep): c for rep, c in expand_G_in_E(table, A, w, 1).items()}


def test_g_star_power_bottom_square(table):
    A = BiSequence((1, 5), (7, 5))
    got = g_star_power_in_E(table, A, identity(2), 2)
    target = multisegment_oracle(replicate(A, 2), identity(4))
    assert got == {target: V(-2)}


def test_member_word_keys(table):
    # the sorted word of each member spells the oracle member, empty segments
    # dropped; the expansion of G keyed by these words finds the member
    for A in (construct_strongly_regular((1, 3, 2)), BiSequence((1, 3), (2, 1)),
              replicate(construct_strongly_regular((2, 1)), 2)):
        for w in all_perms(A.k):
            if dominates_sigma0(A, w):
                assert decoded({member_word(A, w): 1}) == {multisegment_oracle(A, w): 1}
    A = construct_strongly_regular((1, 2))
    keyed = {member_word(A, rep): c for rep, c in expand_G_in_E(table, A, (2, 1), 1).items()}
    assert keyed[member_word(A, (1, 2))] == -1 * V(1)
