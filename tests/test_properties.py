"""Seeded property tests on random labeled posets beyond the exhaustive grid.

Each poset has 6 or 7 elements (up to 8 where a test says so), m <= 2,
arbitrary distinct values and a random order built along a random
topological order.  The runs are derandomized, so every run sees the
same examples.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from cqsym import oracle as oc
from cqsym import poset as ps
from cqsym import qsym as qs
from extension_reference import (assert_gfs_match_reference,
                                 reference_extensions)
from oracle_reference import assert_kernels_match_reference
from split_reference import assert_splits_match_reference

SEEDED = settings(derandomize=True, max_examples=25, deadline=None,
                  database=None)


@st.composite
def labeled_posets(draw, max_n=7):
    m = draw(st.integers(1, 2))
    n = draw(st.integers(6, max_n))
    values = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n,
                           unique=True))
    colors = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    topo = draw(st.permutations(range(n)))
    edges = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    pairs = [(topo[a], topo[b]) for a in range(n) for b in range(a + 1, n)]
    covers = [(values[i], values[j])
              for (i, j), on in zip(pairs, edges) if on]
    return ps.make_poset(m, list(zip(values, colors)), covers)


def _splits_by_restriction(P):
    full = (1 << P.n) - 1
    return [(P.restrict(I).canonical, P.restrict(full & ~I).canonical)
            for I in P.ideal_masks()]


@SEEDED
@given(labeled_posets())
def test_splits_match_restricted_ideals(P):
    for Q in (P, P.canonical):
        got, want = tuple(Q.splits()), _splits_by_restriction(Q)
        assert len(got) == len(want)
        assert all(a is c and b is d for (a, b), (c, d) in zip(got, want))


@SEEDED
@given(labeled_posets(max_n=8))
def test_splits_match_the_labeled_canonicalization(P):
    for Q in (P, P.canonical):
        assert_splits_match_reference(Q)


@SEEDED
@given(labeled_posets())
def test_antipode_routes_agree(P):
    C = P.canonical
    assert ps.antipode_key(C) == ps.antipode_chains_key(C)


@SEEDED
@given(labeled_posets())
def test_generating_functions_match_the_oracle(P):
    gamma, lam = qs.ppartition_gf(P), qs.enriched_gf(P)
    assert qs.peak_projection(gamma) == lam
    assert oc.enumerate_ppartitions(P, 2) == oc.truncate(gamma, 2)
    assert oc.enumerate_enriched(P, 2) == oc.truncate(lam, 2)


@SEEDED
@given(labeled_posets(max_n=8))
def test_extensions_and_generating_functions_match_the_reference(P):
    assert P.linear_extensions() == reference_extensions(P)
    assert_gfs_match_reference(P)


@SEEDED
@given(labeled_posets())
def test_oracle_kernels_match_the_reference(P):
    assert_kernels_match_reference(P, 2)


@SEEDED
@given(labeled_posets(), st.data())
def test_hash_follows_equality_under_relabeling(P, data):
    new = data.draw(st.lists(st.integers(1, 40), min_size=P.n,
                             max_size=P.n, unique=True))
    relabel = dict(zip(P.values, new))
    elements = [(relabel[v], c) for v, c in P.elements()]
    covers = [(relabel[a], relabel[b]) for a, b in P.cover_pairs()]
    Q = ps.make_poset(P.m, elements, covers)
    twin = ps.make_poset(P.m, elements, covers)
    assert Q == twin and hash(Q) == hash(twin)
    assert hash(Q) == hash(Q.canonical)
    posets = [P, P.canonical, Q, Q.canonical, twin]
    for a in posets:
        for b in posets:
            if a == b:
                assert hash(a) == hash(b)
    assert ({P: 1}.get(Q) == 1) == (P == Q)


@SEEDED
@given(labeled_posets(max_n=8))
def test_canonical_structures_have_canonical_prefixes(P):
    # the lemma behind the class grid's orderly generation
    above_c = ps._struct_canon(P.above)[0]
    low = (1 << (P.n - 1)) - 1
    prefix = tuple(a & low for a in above_c[:-1])
    assert ps._struct_canon(prefix)[0] == prefix
