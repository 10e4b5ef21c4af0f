import pytest

from helpers import (
    all_perms,
    coeff_parab,
    decoded,
    g_star_power_in_E,
    is_inverse,
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
    multisegment_of,
    replicate,
    sigma0,
)
from klforge.transition import (
    UnsupportedFamily,
    expand_E_in_G,
    expand_G_in_E,
    family_replication,
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


def test_family_replication_detection():
    A = BiSequence((1, 2), (8, 7))
    assert family_replication(A) == (A, 1)
    assert family_replication(replicate(A, 3)) == (A, 3)
    # a doubled single segment is a legitimate replication
    assert family_replication(BiSequence((1, 1), (1, 1))) == (
        BiSequence((1,), (1,)), 2)
    with pytest.raises(UnsupportedFamily):
        family_replication(BiSequence((1, 1, 2), (8, 7, 7)))  # uneven runs
    with pytest.raises(UnsupportedFamily):
        family_replication(BiSequence((1, 2), (2, 1)))  # regular, not strongly


def test_expand_diagonal_is_one(table):
    A = BiSequence((1, 2, 3), (8, 7, 6))
    s0 = sigma0(A)
    assert expand_E_in_G(table, A, s0) == {s0: ONE}
    assert expand_G_in_E(table, A, s0) == {s0: ONE}


def test_expand_k2_examples(table):
    A = construct_strongly_regular((1, 2))
    assert expand_E_in_G(table, A, (2, 1)) == {(2, 1): ONE, (1, 2): V(1)}
    assert expand_G_in_E(table, A, (2, 1)) == {(2, 1): ONE, (1, 2): -1 * V(1)}


def test_expand_k3_top(table):
    A = BiSequence((1, 2, 3), (8, 7, 6))
    w0 = longest_element(3)
    coeffs = expand_E_in_G(table, A, w0)
    assert len(coeffs) == 6
    for s, c in coeffs.items():
        assert c == V(length(w0) - length(s))


def test_expand_below_sigma0(table):
    A = construct_strongly_regular((2, 1))  # sigma0 is the transposition
    with pytest.raises(BelowSigma0):
        expand_E_in_G(table, A, identity(2))


def test_expand_unsupported_family(table):
    with pytest.raises(UnsupportedFamily):
        expand_E_in_G(table, BiSequence((1, 1, 2), (8, 7, 7)), identity(3))


@pytest.mark.parametrize("k,m", [(3, 1), (2, 3), (3, 2)])
def test_coset_expansion_matches_brute_force(table, k, m):
    # the double cosets of a family, found from their definition: all words
    # of S_n giving the same member of the family, with the shortest one as
    # representative
    for s0 in _avoiders(k):
        A = replicate(construct_strongly_regular(s0), m)
        fam_s0 = sigma0(A)
        groups = {}
        for w in all_perms(A.k):
            if dominates_sigma0(A, w):
                groups.setdefault(multisegment_of(A, w), []).append(w)
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
                assert expand_G_in_E(table, A, omega) == want, (s0, omega)
                assert set(expand_E_in_G(table, A, omega)) == below, (s0, omega)


@pytest.mark.parametrize("k,m", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)])
def test_e_in_g_matches_ordinary_polynomials(table, k, m):
    # every column, t_m pairs and the rest: the -1 module rows against the
    # definition P_{top w0, rep w0} on ordinary rows of S_{mk}.  At n = 8
    # the families with sigma0 of length 0 or 1 are left out: their entries
    # read the largest ordinary rows of S_8 (25 s between them)
    for s0 in _avoiders(k):
        if m * k == 8 and length(s0) < 2:
            continue
        A = replicate(construct_strongly_regular(s0), m)
        w0 = longest_element(A.k)
        for top in transition_index(table, A):
            got = expand_E_in_G(table, A, top)
            assert got == {rep: V(length(top) - length(rep))
                           * kl_poly(table, compose(top, w0), compose(rep, w0))
                           for rep in got}, (s0, m, top)


def test_replicated_families_read_no_ordinary_row():
    # the module rows of W_m serve the index and both directions
    table = KLTable()
    for m in (2, 3):
        for k in (1, 2, 3):
            for s0 in _avoiders(k):
                A = replicate(construct_strongly_regular(s0), m)
                for col in transition_index(table, A):
                    expand_E_in_G(table, A, col)
                    expand_G_in_E(table, A, col)
    assert table._rows
    assert not [tag for tag in table._rows if tag[1] == 1]


def test_triangularity(table):
    A = construct_strongly_regular((1, 3, 2))
    _, entries = transition_matrix(table, A, "e2g")
    s0 = sigma0(A)
    for (row, col), coeff in entries.items():
        assert bruhat_leq(s0, row) and bruhat_leq(row, col)
        if row == col:
            assert coeff == ONE


def test_matrix_inversion_strongly_regular(table):
    for k in (1, 2, 3):
        for s0 in _avoiders(k):
            A = construct_strongly_regular(s0)
            m1 = transition_matrix(table, A, "e2g")
            m2 = transition_matrix(table, A, "g2e")
            assert is_inverse(m1, m2) and is_inverse(m2, m1), (k, s0)
            if len(m1[1]) > len(m1[0]):  # unitriangular, not the identity
                assert not is_inverse(m1, m1) and not is_inverse(m2, m2)


def test_matrix_inversion_replicated_m2(table):
    for k in (2, 3):
        for s0 in _avoiders(k):
            A = replicate(construct_strongly_regular(s0), 2)
            m1 = transition_matrix(table, A, "e2g")
            m2 = transition_matrix(table, A, "g2e")
            assert is_inverse(m1, m2) and is_inverse(m2, m1), (k, s0)


def test_replicated_entry_example(table):
    A = construct_strongly_regular((1, 2))
    A2 = replicate(A, 2)
    tw = replicate_perm((2, 1), 2)
    ge = expand_G_in_E(table, A2, tw)
    assert ge[replicate_perm((1, 2), 2)] == V(2)
    eg = expand_E_in_G(table, A2, tw)
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
    A2 = replicate(A, 2)
    tw = replicate_perm((2, 1), 2)
    assert coeff_parab(table, A, (1, 2), (2, 1), 2, "e2g") == expand_E_in_G(
        table, A2, tw)[replicate_perm((1, 2), 2)]


def test_coeff_parab_matches_expansions(table):
    m = 2
    for k in (1, 2, 3):
        for s0 in _avoiders(k):
            A = construct_strongly_regular(s0)
            Am = replicate(A, m)
            for omega in all_perms(k):
                if not bruhat_leq(s0, omega):
                    continue
                tw = replicate_perm(omega, m)
                eg = expand_E_in_G(table, Am, tw)
                ge = expand_G_in_E(table, Am, tw)
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
        multisegment_of(A, rep): c for rep, c in expand_G_in_E(table, A, w).items()}


def test_g_star_power_bottom_square(table):
    A = BiSequence((1, 5), (7, 5))
    got = g_star_power_in_E(table, A, identity(2), 2)
    target = multisegment_of(replicate(A, 2), identity(4))
    assert got == {target: V(-2)}


def test_member_word_keys(table):
    # the sorted word of each member spells multisegment_of, empty segments
    # dropped; the expansion of G keyed by these words finds the member
    for A in (construct_strongly_regular((1, 3, 2)), BiSequence((1, 3), (2, 1)),
              replicate(construct_strongly_regular((2, 1)), 2)):
        for w in all_perms(A.k):
            if dominates_sigma0(A, w):
                assert decoded({member_word(A, w): 1}) == {multisegment_of(A, w): 1}
    A = construct_strongly_regular((1, 2))
    keyed = {member_word(A, rep): c for rep, c in expand_G_in_E(table, A, (2, 1)).items()}
    assert keyed[member_word(A, (1, 2))] == -1 * V(1)
