"""Colored labeled posets and their Hopf algebra."""

import math

from cqsym import poset as ps


def _poset(m, values, covers=(), colors=None):
    colors = colors or {}
    return ps.make_poset(m, [(v, colors.get(v, 0)) for v in values], covers)


def _grid(m, max_n):
    out = []
    for n in range(max_n + 1):
        out.extend(ps.canonical_posets(m, n))
    return out


# --- construction and validation ------------------------------------------

def test_make_poset_rejects():
    cases = [
        (1, [(1, 0), (1, 0)], []),              # duplicate values
        (1, [(0, 0)], []),                      # nonpositive value
        (1, [(1, 1)], []),                      # color out of range
        (2, [(1, 0), (2, 3)], []),              # color out of range
        (1, [(1, 0), (2, 0)], [(1, 3)]),        # unknown cover endpoint
        (1, [(1, 0)], [(1, 1)]),                # reflexive cover
        (1, [(1, 0), (2, 0)], [(1, 2), (2, 1)]),  # cycle
        (1, [(1, 0), (2, 0), (3, 0)], [(1, 2), (2, 3), (3, 1)]),
    ]
    for m, elements, covers in cases:
        try:
            ps.make_poset(m, elements, covers)
        except ValueError:
            continue
        raise AssertionError("accepted %r %r" % (elements, covers))


def test_redundant_covers_are_reduced():
    P = _poset(1, [1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert P.cover_pairs() == ((1, 2), (2, 3))
    assert P.less(1, 3)


def test_order_closure():
    P = _poset(1, [1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
    for lo in (1, 2, 3):
        for hi in range(lo + 1, 5):
            assert P.less(lo, hi)
        assert not P.less(hi, lo)


# --- equivalence ----------------------------------------------------------

def test_equivalent_uncolored_pair():
    P = _poset(1, [1, 2, 3, 4, 5, 6],
               [(5, 1), (5, 4), (3, 4), (1, 6), (4, 6), (6, 2)])
    Q = _poset(1, [3, 4, 5, 6, 8, 9],
               [(8, 3), (8, 6), (5, 6), (3, 9), (6, 9), (9, 4)])
    assert ps.equivalent(P, Q)
    assert ps.canonical_form(P) == ps.canonical_form(Q)


def test_equivalent_colored_pair():
    colors_p = {1: 1, 5: 1, 6: 0, 2: 1, 4: 2, 3: 0}
    colors_q = {3: 1, 8: 1, 9: 0, 4: 1, 6: 2, 5: 0}
    P = _poset(3, [1, 2, 3, 4, 5, 6],
               [(5, 1), (5, 4), (3, 4), (1, 6), (4, 6), (6, 2)], colors_p)
    Q = _poset(3, [3, 4, 5, 6, 8, 9],
               [(8, 3), (8, 6), (5, 6), (3, 9), (6, 9), (9, 4)], colors_q)
    assert ps.equivalent(P, Q)


def test_recoloring_one_element_breaks_equivalence():
    P = _poset(2, [1, 2, 3], [(2, 1), (2, 3)])
    Q = _poset(2, [1, 2, 3], [(2, 1), (2, 3)], {3: 1})
    assert not ps.equivalent(P, Q)


def test_relative_label_order_matters():
    up = _poset(1, [1, 2], [(1, 2)])
    down = _poset(1, [1, 2], [(2, 1)])
    assert not ps.equivalent(up, down)
    assert ps.equivalent(down, _poset(1, [4, 9], [(9, 4)]))


def test_canonical_is_idempotent():
    for P in _grid(2, 3):
        assert P.is_canonical
        assert ps.canonical_form(P) == P
        assert P.canonical is P


# --- ideals, extensions, splits -------------------------------------------

def test_ideals_golden():
    P = _poset(1, [1, 2, 3, 4], [(1, 4), (3, 4), (4, 2)])
    found = sorted(sorted(I.values) for I in P.ideals())
    assert found == [[], [1], [1, 2, 3, 4], [1, 3], [1, 3, 4], [3]]


def test_ideals_are_downward_closed():
    for P in _grid(2, 4):
        masks = P.ideal_masks()
        assert len(set(masks)) == len(masks)
        for mask in masks:
            for i in range(P.n):
                if mask >> i & 1:
                    continue
                # everything below a non-member stays capped by the mask
                assert not any(P.below[j] >> i & 1
                               for j in range(P.n) if mask >> j & 1)


def test_linear_extensions_golden():
    P = _poset(1, [1, 4, 5], [(5, 1), (5, 4)])
    found = sorted(tuple(v for v, _ in pi) for pi in P.linear_extensions())
    assert found == [(5, 1, 4), (5, 4, 1)]


def test_linear_extension_counts():
    chain = ps.chain_poset(2, [(1, 0), (2, 1), (3, 0)])
    assert len(chain.linear_extensions()) == 1
    anti = ps.antichain_poset(1, [(v, 0) for v in (1, 2, 3, 4)])
    assert len(anti.linear_extensions()) == math.factorial(4)


def test_splits_cover_every_ideal_once():
    for P in _grid(2, 3):
        pairs = P.splits()
        assert len(pairs) == len(P.ideal_masks())
        for I, R in pairs:
            assert I.n + R.n == P.n
            assert I.is_canonical and R.is_canonical


# --- enumeration ----------------------------------------------------------

def test_labeled_order_counts():
    assert [len(ps.labeled_orders(n)) for n in range(6)] == \
        [1, 1, 3, 19, 219, 4231]


def test_canonical_class_counts():
    assert [len(ps.canonical_posets(1, n)) for n in range(5)] == \
        [1, 1, 3, 15, 124]
    assert [len(ps.canonical_posets(2, n)) for n in range(5)] == \
        [1, 2, 11, 108, 1795]
    assert [len(ps.canonical_posets(3, n)) for n in range(4)] == \
        [1, 3, 24, 352]


def test_canonical_posets_are_distinct_classes():
    for m in (1, 2):
        seen = ps.canonical_posets(m, 3)
        for i, P in enumerate(seen):
            for Q in seen[i + 1:]:
                assert not ps.equivalent(P, Q)


# --- natural labelings ----------------------------------------------------

def test_natural_extension():
    C = ps.chain_poset(2, [(1, 0), (2, 1)])
    assert ps.is_naturally_labeled(C)
    assert ps.natural_extension(C) == ((1, 0), (2, 1))
    V = _poset(2, [1, 2, 3], [(2, 1), (2, 3)], {3: 1})
    assert not ps.is_naturally_labeled(V)
    assert ps.natural_extension(V) is None
    # relabeling can restore naturality but recoloring cannot
    W = _poset(2, [1, 2, 3], [(1, 2), (1, 3)], {3: 1})
    assert ps.is_naturally_labeled(W)
    assert ps.natural_extension(W) in set(W.linear_extensions())


def test_is_monochromatic():
    assert ps.is_monochromatic(ps.empty_poset(3), 2)
    P = _poset(2, [1, 2], [(1, 2)], {1: 1, 2: 1})
    assert ps.is_monochromatic(P, 1)
    assert not ps.is_monochromatic(P, 0)


# --- Hopf structure -------------------------------------------------------

def test_product_is_disjoint_union():
    A = ps.chain_poset(1, [(1, 0), (2, 0)])
    B = ps.chain_poset(1, [(1, 0), (2, 0)])
    C = ps.disjoint_union(A, B)
    assert C.n == 4
    assert len(C.ideal_masks()) == len(A.ideal_masks()) ** 2
    assert ps.equivalent(ps.disjoint_union(A, B), ps.disjoint_union(B, A))


def test_product_key_is_commutative_and_graded():
    grid = _grid(2, 2)
    for A in grid:
        for B in grid:
            K = ps.product_key(A, B)
            # equivalent() compares interned instances by identity
            assert K is ps.product_key(B, A) is ps.disjoint_union(A, B).canonical
            assert K.n == A.n + B.n


def test_unit_and_counit():
    one = ps.PElt.one(2)
    assert ps.counit(one) == 1
    P = ps.canonical_posets(2, 2)[0]
    e = ps.PElt.basis(P)
    assert ps.counit(e) == 0
    assert ps.product(one, e) == e == ps.product(e, one)


def test_coproduct_multiplicities():
    # The V shape has two size-3 ideals whose complement is a point and
    # whose restriction is the same class, so the tensor key carries
    # coefficient 2.
    V = _poset(1, [1, 4, 5], [(5, 1), (5, 4)])
    pairs = ps.coproduct(ps.PElt.basis(ps.canonical_form(V)))
    assert sum(pairs.values()) == len(V.ideal_masks())
    assert sorted(pairs.values()) == [1, 1, 1, 2]


def _delta_basis(P):
    return ps.coproduct(ps.PElt.basis(P))


def test_coassociativity_small():
    for P in _grid(2, 3):
        left = {}
        right = {}
        for (I, R), c in _delta_basis(P).items():
            for (A, B), d in _delta_basis(I).items():
                key = (A, B, R)
                left[key] = left.get(key, 0) + c * d
            for (B, C), d in _delta_basis(R).items():
                key = (I, B, C)
                right[key] = right.get(key, 0) + c * d
        assert {k: v for k, v in left.items() if v} == \
            {k: v for k, v in right.items() if v}


def test_coproduct_is_an_algebra_map_small():
    grid = _grid(2, 2)
    for A in grid:
        for B in grid:
            product_then_split = _delta_basis(ps.product_key(A, B))
            split_then_product = {}
            for (I1, R1), c in _delta_basis(A).items():
                for (I2, R2), d in _delta_basis(B).items():
                    key = (ps.product_key(I1, I2), ps.product_key(R1, R2))
                    split_then_product[key] = \
                        split_then_product.get(key, 0) + c * d
            split_then_product = {k: v for k, v in split_then_product.items()
                                  if v}
            assert product_then_split == split_then_product


def test_antipode_axiom_small():
    # sum S(I) * R over ideal splits collapses to the counit.
    for P in _grid(2, 3):
        acc = ps.PElt.zero(P.m)
        for (I, R), c in _delta_basis(P).items():
            acc = acc + ps.product(ps.antipode(ps.PElt.basis(I)),
                                   ps.PElt.basis(R)).scale(c)
        expect = ps.PElt.one(P.m) if P.n == 0 else ps.PElt.zero(P.m)
        assert acc == expect


def test_antipode_routes_agree():
    for P in _grid(2, 3):
        e = ps.PElt.basis(P)
        assert ps.antipode(e, route="inductive") == ps.antipode(e, route="chains")


def test_antipode_key_caches_and_signs():
    P = ps.chain_poset(1, [(1, 0), (2, 0), (3, 0)])
    terms = ps.antipode_key(ps.canonical_form(P))
    assert terms == ps.antipode_chains_key(ps.canonical_form(P))
    # top degree of S on a basis class carries sign (-1)^n overall
    assert sum(terms.values()) != 0 or P.n > 0
