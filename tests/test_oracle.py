"""Brute-force enumeration over truncated alphabets, checked against
the algebraic generating functions."""

import itertools
import tracemalloc

import pytest

from cqsym import combinat as cb
from cqsym import oracle as oc
from cqsym import poset as ps
from cqsym import qsym as qs
from oracle_reference import (assert_kernels_match_reference,
                              reference_ppartitions, tpoly_add, tpoly_mul,
                              tpoly_shifted, tpoly_total)


def _chain(m, letters):
    return ps.chain_poset(m, letters)


def _mono(N, m, *terms):
    out = {}
    for coeff, exps in terms:
        key = tuple(sorted(((i, j), e) for i, j, e in exps))
        out[key] = out.get(key, 0) + coeff
    return oc.TPoly(N, m, out)


def _posets(m, max_n):
    for n in range(max_n + 1):
        for P in ps.canonical_posets(m, n):
            yield P


# --- the kernels against the check-every-level reference -----------------

def test_kernels_match_reference_on_canonical_posets():
    for m in (1, 2):
        for P in _posets(m, 4):
            for N in (1, 2, 3):
                assert_kernels_match_reference(P, N)


def test_kernels_match_reference_on_labeled_restrictions():
    # Ideals and their complements keep their labels: non-canonical inputs.
    # The kernels read only colors and order, so each distinct one is run
    # once (27,318 restrictions, 2,110 distinct).
    seen = set()
    for m in (1, 2):
        for P in _posets(m, 4):
            full = (1 << P.n) - 1
            for mask in P.ideal_masks():
                for Q in (P.restrict(mask), P.restrict(full & ~mask)):
                    if (m, Q.colors, Q.above) not in seen:
                        seen.add((m, Q.colors, Q.above))
                        for N in (1, 2):
                            assert_kernels_match_reference(Q, N)


def test_the_mask_kernel_counts_ideals_and_complements_in_place():
    # every ideal and complement counted on the whole poset's masks gives
    # the tally of the restricted poset, keys first seen in the same
    # order, and the reference's terms
    for m in (1, 2):
        for P in _posets(m, 4):
            full = (1 << P.n) - 1
            for mask in P.ideal_masks():
                for side in (mask, full & ~mask):
                    Q = P.restrict(side)
                    for N in (1, 2):
                        got = oc._ppartition_tally(m, P.colors, P.below,
                                                   side, N)
                        want = oc._whole_tally(Q, N)
                        assert list(got.items()) == list(want.items()), \
                            (P, side, N)
                        assert oc._tally_terms(got, m) \
                            == reference_ppartitions(Q, N).terms


def test_each_level_is_read_off_the_largest_enumeration():
    for m in (1, 2):
        for P in _posets(m, 4):
            for kernel in (oc.enumerate_ppartitions, oc.enumerate_enriched):
                top = kernel(P, 3)
                for N in (1, 2, 3):
                    got = oc.at_level(top, N)
                    assert got == kernel(P, N) and got.N == N, \
                        (kernel.__name__, P, N)


def test_at_level_is_truncation_to_fewer_levels():
    for alpha in cb.enumerate_compositions(2, 3):
        e = qs.QElt.basis_elt(2, "M", alpha)
        for N in (1, 2, 3):
            assert oc.at_level(oc.truncate(e, 3), N) == oc.truncate(e, N)
    with pytest.raises(ValueError):
        oc.at_level(oc.truncate(e, 3), 0)


def test_chains_from_the_extension_table_count_as_chain_posets():
    for m in (1, 2):
        for P in _posets(m, 4):
            chains = list(oc._extension_chains(P))
            extensions = P.linear_extensions()
            assert len(chains) == len(extensions)
            full = (1 << P.n) - 1
            for below, pi in zip(chains, extensions):
                C = ps.chain_poset(m, pi)
                assert tuple(below) == C.below and P.colors == C.colors
                for N in (1, 2):
                    got = oc._ppartition_tally(m, P.colors, below, full, N)
                    want = oc._whole_tally(C, N)
                    assert list(got.items()) == list(want.items()), (P, pi)


def test_kernel_memory_follows_the_poset_not_the_alphabet():
    # A leaf is keyed by its n placed slots, not by a vector over all N * m
    # variables: a point over 4,096 levels, or in 2^20 colors, stays small.
    for P, N in ((ps.antichain_poset(1, [(1, 0)]), 1 << 12),
                 (ps.antichain_poset(1 << 20, [(1, (1 << 20) - 1)]), 1)):
        for kernel in (oc.enumerate_ppartitions, oc.enumerate_enriched):
            tracemalloc.start()
            try:
                got = kernel(P, N)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(got.terms) == N and peak < 4 << 20, (kernel, N, peak)


def test_no_levels_is_an_error():
    P = _chain(1, [(1, 0), (2, 0)])
    for fn in (oc.enumerate_ppartitions, oc.enumerate_enriched,
               oc.split_alphabet_check, oc.extension_partition_check,
               lambda Q, N: oc.product_law_check(Q, Q, Q, N)):
        with pytest.raises(ValueError):
            fn(P, 0)
    with pytest.raises(ValueError):
        oc.truncate(qs.QElt.basis_elt(1, "M", ((1, 0),)), 0)


# --- the polynomial wrapper -----------------------------------------------

def test_tpoly_arithmetic():
    x = _mono(2, 1, (1, [(1, 0, 1)]))
    y = _mono(2, 1, (1, [(2, 0, 1)]))
    assert tpoly_add(x, y) == _mono(2, 1, (1, [(1, 0, 1)]), (1, [(2, 0, 1)]))
    assert tpoly_mul(x, x) == _mono(2, 1, (1, [(1, 0, 2)]))
    assert tpoly_mul(x, y) == _mono(2, 1, (1, [(1, 0, 1), (2, 0, 1)]))
    assert tpoly_total(tpoly_add(x, y)) == 2


def test_tpoly_equality_ignores_truncation_level():
    a = _mono(2, 1, (1, [(1, 0, 1)]))
    b = _mono(5, 1, (1, [(1, 0, 1)]))
    assert a == b


def test_tpoly_repr_and_hash():
    p = _mono(2, 1, (3, [(1, 0, 2), (2, 0, 1)]), (-1, []))
    assert repr(p) == "-1*1 + 3*x[1,0]^2*x[2,0]"
    assert repr(oc.TPoly(2, 1)) == "0"
    with pytest.raises(TypeError):
        hash(p)


def test_tpoly_rejects_mixed_color_counts():
    x = _mono(2, 1, (1, [(1, 0, 1)]))
    y = _mono(2, 2, (1, [(1, 1, 1)]))
    with pytest.raises(ValueError):
        tpoly_add(x, y)
    with pytest.raises(ValueError):
        tpoly_mul(x, y)


def test_tpoly_shift():
    p = _mono(2, 1, (1, [(1, 0, 1), (2, 0, 2)]))
    assert tpoly_shifted(p, 3).terms == {(((4, 0), 1), ((5, 0), 2)): 1}


# --- ordinary colored partitions ------------------------------------------

def test_point_enumeration():
    for m in (1, 2):
        for j in range(m):
            P = ps.antichain_poset(m, [(1, j)])
            got = oc.enumerate_ppartitions(P, 3)
            expect = _mono(3, m, *[(1, [(i, j, 1)]) for i in (1, 2, 3)])
            assert got == expect


def test_increasing_chain_enumeration():
    # values may repeat along an increasing chain
    P = _chain(1, [(1, 0), (2, 0)])
    got = oc.enumerate_ppartitions(P, 2)
    assert got == _mono(2, 1,
                        (1, [(1, 0, 2)]),
                        (1, [(1, 0, 1), (2, 0, 1)]),
                        (1, [(2, 0, 2)]))


def test_decreasing_chain_enumeration():
    # a descent forces strict growth
    P = _chain(1, [(2, 0), (1, 0)])
    got = oc.enumerate_ppartitions(P, 2)
    assert got == _mono(2, 1, (1, [(1, 0, 1), (2, 0, 1)]))


def test_color_change_forces_weak_growth_only():
    P = _chain(2, [(1, 0), (2, 1)])
    got = oc.enumerate_ppartitions(P, 2)
    # (1,0) <= (1,1) in the colored order, so equal values are fine
    assert got == _mono(2, 2,
                        (1, [(1, 0, 1), (1, 1, 1)]),
                        (1, [(1, 0, 1), (2, 1, 1)]),
                        (1, [(2, 0, 1), (2, 1, 1)]))


def test_inverted_color_change_forces_strict_growth():
    P = _chain(2, [(1, 1), (2, 0)])
    got = oc.enumerate_ppartitions(P, 2)
    assert got == _mono(2, 2, (1, [(1, 1, 1), (2, 0, 1)]))


# --- enriched colored partitions ------------------------------------------

def test_enriched_chain_tiny():
    # Both two-element chains map onto K of one part; at one variable
    # that leaves the doubled square only.
    for letters in ([(1, 0), (2, 0)], [(2, 0), (1, 0)]):
        got = oc.enumerate_enriched(_chain(1, letters), 1)
        assert got == _mono(1, 1, (2, [(1, 0, 2)]))


def test_enriched_chain_matches_peak_expansion():
    for m in (1, 2):
        for n in range(1, 4):
            for alpha in cb.enumerate_compositions(m, n):
                P = ps.canonical_form(ps.chain_poset(m, cb.rep_chain(alpha)))
                got = oc.enumerate_enriched(P, 3)
                expect = oc.truncate(
                    qs.to_monomial(qs.QElt.basis_elt(m, "K", cb.hat(alpha))),
                    3)
                assert got == expect


# --- truncation -----------------------------------------------------------

def test_truncate_golden():
    e = qs.QElt.basis_elt(2, "M", ((2, 1), (1, 0)))
    got = oc.truncate(e, 2)
    # only (1,1) < (2,0) embeds in two variables
    assert got == _mono(2, 2, (1, [(1, 1, 2), (2, 0, 1)]))


def test_truncate_counts_embeddings():
    # single-color keys embed one way per choice of l(alpha) variables
    from math import comb
    for n in range(1, 5):
        for alpha in cb.enumerate_compositions(1, n):
            e = qs.QElt.basis_elt(1, "M", alpha)
            for N in (1, 2, 3):
                assert tpoly_total(oc.truncate(e, N)) == comb(N, len(alpha))


def test_truncate_is_linear():
    a = qs.QElt.basis_elt(2, "M", ((1, 0), (1, 1)))
    b = qs.QElt.basis_elt(2, "M", ((2, 1),))
    lhs = oc.truncate(a + b.scale(3), 2)
    tb = oc.truncate(b, 2)
    rhs = tpoly_add(tpoly_add(tpoly_add(oc.truncate(a, 2), tb), tb), tb)
    assert lhs.terms == rhs.terms


def test_truncate_is_multiplicative():
    a = qs.QElt.basis_elt(2, "M", ((1, 0),))
    b = qs.QElt.basis_elt(2, "M", ((1, 1),))
    assert oc.truncate(qs.multiply(a, b), 3) == \
        tpoly_mul(oc.truncate(a, 3), oc.truncate(b, 3))


# --- the oracle equations -------------------------------------------------

def test_gamma_matches_enumeration():
    for m in (1, 2):
        for P in _posets(m, 3):
            expect = oc.truncate(qs.to_monomial(qs.ppartition_gf(P)), 3)
            assert oc.enumerate_ppartitions(P, 3) == expect


def test_lambda_matches_enumeration():
    for m in (1, 2):
        for P in _posets(m, 3):
            expect = oc.truncate(qs.to_monomial(qs.enriched_gf(P)), 2)
            assert oc.enumerate_enriched(P, 2) == expect


def test_enumeration_respects_disjoint_union():
    grid = [P for P in _posets(2, 2)]
    for A, B in itertools.product(grid, repeat=2):
        C = ps.product_key(A, B)
        assert oc.enumerate_ppartitions(C, 2) == tpoly_mul(
            oc.enumerate_ppartitions(A, 2), oc.enumerate_ppartitions(B, 2))
        assert oc.enumerate_enriched(C, 2) == tpoly_mul(
            oc.enumerate_enriched(A, 2), oc.enumerate_enriched(B, 2))


def test_split_alphabet_identity():
    for m in (1, 2):
        for P in _posets(m, 3):
            assert oc.split_alphabet_check(P, 2)


# --- the identity checks on tallies against the polynomial route ----------

def _tpoly_split_alphabet(P, N):
    full = (1 << P.n) - 1
    acc = oc.TPoly(2 * N, P.m)
    for mask in P.ideal_masks():
        lo = oc.enumerate_ppartitions(P.restrict(mask), N)
        hi = oc.enumerate_ppartitions(P.restrict(full & ~mask), N)
        acc = tpoly_add(acc, tpoly_mul(lo, tpoly_shifted(hi, N)))
    return acc == oc.enumerate_ppartitions(P, 2 * N)


def _tpoly_product_law(A, B, C, N):
    return oc.enumerate_ppartitions(C, N) == tpoly_mul(
        oc.enumerate_ppartitions(A, N), oc.enumerate_ppartitions(B, N))


def _tpoly_extension_partition(P, N):
    acc = oc.TPoly(N, P.m)
    for pi in P.linear_extensions():
        acc = tpoly_add(
            acc, oc.enumerate_ppartitions(ps.chain_poset(P.m, pi), N))
    return acc == oc.enumerate_ppartitions(P, N)


def _size_pairs(m, max_total):
    grid = list(_posets(m, max_total))
    return [(A, B) for A in grid for B in grid if A.n + B.n <= max_total]


def test_tally_checks_match_the_polynomial_route():
    for m in (1, 2):
        for N in (1, 2):
            for P in _posets(m, 3):
                assert oc.split_alphabet_check(P, N) \
                    == _tpoly_split_alphabet(P, N), (P, N)
                assert oc.extension_partition_check(P, N) \
                    == _tpoly_extension_partition(P, N), (P, N)
            for A, B in _size_pairs(m, 3):
                C = ps.disjoint_union(A, B)
                assert oc.product_law_check(A, B, C, N) \
                    == _tpoly_product_law(A, B, C, N), (A, B, N)


def _side_by_side(A, B, extra=()):
    # A and B with B's values moved above A's, plus the extra covers
    k = max(A.values, default=0)
    letters = A.elements() + tuple((v + k, c) for v, c in B.elements())
    covers = A.cover_pairs() + tuple((u + k, v + k)
                                     for u, v in B.cover_pairs())
    return ps.make_poset(A.m, letters, covers + tuple(extra))


def test_product_law_fails_when_a_relation_joins_the_factors():
    # a maximal element of A below a minimal one of B: with at most two
    # elements per factor, some map at N = 2 puts the first on level 2 and
    # the second on level 1, and the new relation forbids it
    checked = 0
    for m in (1, 2):
        for A, B in _size_pairs(m, 3):
            if not (A.n and B.n):
                continue
            assert oc.product_law_check(A, B, _side_by_side(A, B), 2)
            top = next(v for v, up in zip(A.values, A.above) if not up)
            k = max(A.values)
            bottom = next(v + k for v, down in zip(B.values, B.below)
                          if not down)
            joined = _side_by_side(A, B, [(top, bottom)])
            assert not oc.product_law_check(A, B, joined, 2), (A, B)
            assert not _tpoly_product_law(A, B, joined, 2)
            checked += 1
    assert checked > 0


def test_product_law_fails_on_a_swapped_factor():
    A = _chain(2, [(1, 0), (2, 1)])
    B = _chain(2, [(1, 1)])
    C = ps.disjoint_union(A, B)
    assert oc.product_law_check(A, B, C, 2)
    assert not oc.product_law_check(A, A, C, 2)
    assert not oc.product_law_check(A, ps.antichain_poset(2, [(1, 0)]), C, 2)
