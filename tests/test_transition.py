import pytest

from helpers import all_perms
from klforge.poly import LaurentPoly
from klforge.kl import kl_poly
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
    coeff_parab,
    expand_E_in_G,
    expand_G_in_E,
    expansion_as_pbw,
    family_replication,
    g_star_power_in_E,
    transition_matrix,
)
from klforge.symgroup import (
    bruhat_leq,
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


def test_triangularity(table):
    A = construct_strongly_regular((1, 3, 2))
    M = transition_matrix(table, A, "e2g")
    s0 = sigma0(A)
    for (row, col), coeff in M.entries.items():
        assert bruhat_leq(s0, row) and bruhat_leq(row, col)
        if row == col:
            assert coeff == ONE


def test_matrix_inversion_strongly_regular(table):
    for k in (1, 2, 3):
        for s0 in _avoiders(k):
            A = construct_strongly_regular(s0)
            m1 = transition_matrix(table, A, "e2g")
            m2 = transition_matrix(table, A, "g2e")
            assert m1.is_inverse_of(m2) and m2.is_inverse_of(m1), (k, s0)


def test_matrix_inversion_replicated_m2(table):
    for k in (2, 3):
        for s0 in _avoiders(k):
            A = replicate(construct_strongly_regular(s0), 2)
            m1 = transition_matrix(table, A, "e2g")
            m2 = transition_matrix(table, A, "g2e")
            assert m1.is_inverse_of(m2) and m2.is_inverse_of(m1), (k, s0)


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
    assert g_star_power_in_E(table, A, w, 1) == expansion_as_pbw(
        A, expand_G_in_E(table, A, w))


def test_g_star_power_bottom_square(table):
    A = BiSequence((1, 5), (7, 5))
    got = g_star_power_in_E(table, A, identity(2), 2)
    target = multisegment_of(replicate(A, 2), identity(4))
    assert got == type(got)({target: V(-2)})


def test_expansion_as_pbw_keys(table):
    A = construct_strongly_regular((1, 2))
    pb = expansion_as_pbw(A, expand_G_in_E(table, A, (2, 1)))
    assert pb.coefficient(multisegment_of(A, (1, 2))) == -1 * V(1)
