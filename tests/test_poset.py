"""Colored labeled posets and their Hopf algebra."""

import copy
import math
import os
import pickle
import random
import subprocess
import sys
import time

import pytest

from cqsym import poset as ps
from extension_reference import reference_extension_table
from grid_reference import reference_canonical_posets, reference_closed_masks
from split_reference import assert_splits_match_reference


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


@pytest.mark.parametrize("n", range(6))
def test_every_labeled_order_closes_from_its_covers(n):
    values = tuple(range(1, n + 1))
    elements = [(v, 0) for v in values]
    for above in ps.labeled_orders(n):
        below = ps._invert(above)
        covers = ps._cover_pairs(values, above, below)
        assert ps.make_poset(1, elements, covers).above == above
        # every comparable pair given as a cover closes the same way
        pairs = [(values[i], values[j]) for i, a in enumerate(above)
                 for j in ps._bits(a)]
        assert ps.make_poset(1, elements, pairs[::-1]).above == above


# a cycle of each length k, closed by (k, 1), with one element above it
# and one aside; then every comparable pair of the chain 1 < 2 < 3 < 4
# and (4, 2), a cycle that runs through the redundant cover (2, 4)
_CYCLES = [[(v, v + 1) for v in range(1, k)] + [(k, 1), (k, k + 1)]
           for k in range(2, 9)]
_CYCLES.append([(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4), (4, 2)])


@pytest.mark.parametrize("covers", _CYCLES)
def test_cycles_are_rejected(covers):
    values = range(1, max(max(pair) for pair in covers) + 2)
    with pytest.raises(ValueError,
                       match="^poset cover relations contain a cycle$"):
        _poset(1, values, covers)


def test_a_long_chain_closes_without_recursion():
    # three times the interpreter's default recursion limit
    P = ps.chain_poset(1, [(v, 0) for v in range(1, 3001)])
    assert P.above[0] == (1 << 3000) - 2 and P.above[-1] == 0
    assert len(P.cover_pairs()) == 2999


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


# --- hashing ---------------------------------------------------------------

def test_labeled_copy_hashes_as_its_representative():
    for P in _grid(2, 3):
        Q = ps.make_poset(P.m, P.elements(), P.cover_pairs())
        assert Q is not P and Q == P and hash(Q) == hash(P)
        # the representative's shared masks and cover pairs are its own
        assert (Q.below, Q.cover_pairs(), Q.sort_key()) \
            == (P.below, P.cover_pairs(), P.sort_key())
        assert {P: "rep"}[Q] == "rep"
        assert ps.antipode_key(Q) is ps.antipode_key(P)


def test_copies_of_a_representative_are_the_representative():
    for P in _grid(2, 2):
        assert copy.copy(P) is P
        assert copy.deepcopy(P) is P
        assert pickle.loads(pickle.dumps(P)) is P


def test_equal_labeled_posets_hash_equal():
    covers = [(5, 2), (5, 7)]
    P = _poset(2, [2, 5, 7], covers, {7: 1})
    Q = _poset(2, [2, 5, 7], covers, {7: 1})
    assert P is not Q and not P.is_canonical
    assert P == Q and hash(P) == hash(Q)
    assert {P: 1}[Q] == 1


def test_equivalent_unequal_labeled_posets_are_not_equal():
    P = _poset(2, [2, 5, 7], [(5, 2), (5, 7)], {7: 1})
    Q = _poset(2, [1, 3, 4], [(3, 1), (3, 4)], {4: 1})
    assert ps.equivalent(P, Q)
    assert P != Q and P != P.canonical
    assert hash(P) == hash(Q) == hash(P.canonical)


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


@pytest.mark.parametrize("n", range(6))
def test_closed_sets_match_the_subset_filter(n):
    for above in ps.labeled_orders(n):
        for rel in (above, ps._invert(above)):
            assert ps._closed_masks(rel) == reference_closed_masks(rel)


def test_a_long_chain_has_its_ideals_at_once():
    # the subset filter would test 2^300 sets
    P = ps.chain_poset(1, [(v, 0) for v in range(1, 301)])
    start = time.perf_counter()
    masks = P.ideal_masks()
    assert time.perf_counter() - start < 1.0
    assert masks == tuple((1 << k) - 1 for k in range(301))


def test_linear_extensions_golden():
    P = _poset(1, [1, 4, 5], [(5, 1), (5, 4)])
    found = sorted(tuple(v for v, _ in pi) for pi in P.linear_extensions())
    assert found == [(5, 1, 4), (5, 4, 1)]


def test_linear_extension_counts():
    chain = ps.chain_poset(2, [(1, 0), (2, 1), (3, 0)])
    assert len(chain.linear_extensions()) == 1
    anti = ps.antichain_poset(1, [(v, 0) for v in (1, 2, 3, 4)])
    assert len(anti.linear_extensions()) == math.factorial(4)


@pytest.mark.parametrize("n", range(6))
def test_extension_tables_match_the_recursion(n):
    idxs = tuple(range(n))
    for above in ps.labeled_orders(n):
        got = [(pick(idxs), ascents)
               for pick, ascents in ps.extension_table(above)]
        assert got == reference_extension_table(above), above


@pytest.mark.parametrize("n", range(6))
def test_extension_tables_come_in_lexicographic_order(n):
    idxs = tuple(range(n))
    for above in ps.labeled_orders(n):
        orders = [pick(idxs) for pick, _ in ps.extension_table(above)]
        assert orders == sorted(orders), above


@pytest.mark.parametrize("n", (6, 7))
def test_sampled_extension_tables_match_the_recursion(n):
    # the CLI's sizes, past the exhaustive grid: 40 seeded orders each,
    # every pair along a random topological order related with a random
    # probability below 1/2
    rng = random.Random(n)
    idxs = tuple(range(n))
    for _ in range(40):
        topo, p = rng.sample(range(1, n + 1), n), rng.random() / 2
        covers = [(topo[a], topo[b]) for a in range(n)
                  for b in range(a + 1, n) if rng.random() < p]
        above = _poset(1, range(1, n + 1), covers).above
        got = [(pick(idxs), ascents)
               for pick, ascents in ps.extension_table(above)]
        assert got == reference_extension_table(above), above


def test_a_long_chain_extends_without_recursion():
    # three times the interpreter's default recursion limit; the chain
    # 1 < 2 < ... < 3000 is built from its closure masks directly
    n = 3000
    above = tuple(((1 << n) - 1) & -(2 << i) for i in range(n))
    P = ps.Poset(2, tuple(range(1, n + 1)), (0, 1) * (n // 2), above)
    assert P.linear_extensions() == [P.elements()]
    assert ps.extension_table(above)[0][1] == (1 << (n - 1)) - 1


def _splits_by_restriction(P):
    full = (1 << P.n) - 1
    return [(P.restrict(I).canonical, P.restrict(full & ~I).canonical)
            for I in P.ideal_masks()]


def test_splits_match_restricted_ideals_in_order():
    for m in (1, 2):
        for P in _grid(m, 4):
            got, want = tuple(P.splits()), _splits_by_restriction(P)
            assert len(got) == len(want)
            assert all(a is c and b is d
                       for (a, b), (c, d) in zip(got, want)), P


def test_splits_cover_every_ideal_once():
    for P in _grid(2, 3):
        pairs = tuple(P.splits())
        assert len(pairs) == len(P.ideal_masks())
        for I, R in pairs:
            assert I.n + R.n == P.n
            assert I.is_canonical and R.is_canonical


def test_stored_splits_are_flat_interned_posets():
    for P in _grid(2, 4):
        assert tuple(P.splits()) == tuple(P.splits())
        flat = P._splits
        assert type(flat) is tuple
        assert len(flat) == 2 * len(P.ideal_masks()), P
        for X in flat:
            assert type(X) is ps._Canonical, (P, X)
            assert X is ps._intern_canonical(X.m, X.colors, X.above)


@pytest.mark.parametrize("m, max_n", [(1, 5), (2, 5), (3, 4)])
def test_splits_match_the_labeled_canonicalization(m, max_n):
    for P in _grid(m, max_n):
        assert_splits_match_reference(P)


def test_unions_bypass_the_class_memo():
    grid = _grid(2, 4)
    for P in grid:
        P._splits = None
        P.splits()
    ps._union.cache_clear()
    before = ps._canonical_from.cache_info().currsize
    for P in grid:
        for I, R in P.splits():
            ps.product_key(R, I)
    assert ps._union.cache_info().currsize > 0
    assert ps._canonical_from.cache_info().currsize == before


def test_split_sides_come_from_one_memo_without_the_whole_poset():
    grid = _grid(2, 4)
    ps._canonical_from.cache_clear()
    for P in grid:
        P._splits = None
        P.splits()
    # the memo's keys are exactly the proper sides' first-placement
    # colorings: none has the whole poset's size, none repeats
    keys = {(P.m, pick(P.colors), above_c) for P in grid
            for above_c, pick in ps._split_plan(P.above)
            if len(above_c) < P.n}
    assert max(len(above_c) for _, _, above_c in keys) == 3
    assert ps._canonical_from.cache_info().currsize == len(keys)
    by_class = {(ps._canonical_from(*key), key[1]) for key in keys}
    assert len(by_class) == len(keys)
    assert all(X.above == key[2] for key in keys
               for X in [ps._canonical_from(*key)])


def test_the_whole_poset_sides_are_its_own_class():
    for P in _grid(2, 3) + [_poset(2, (2, 5, 7), [(7, 2)], {5: 1})]:
        P._splits = None
        pairs = tuple(P.splits())
        assert pairs[0][1] is pairs[-1][0] is P.canonical
        assert pairs[0][0] is pairs[-1][1] is ps.empty_poset(2)


# --- per-structure sharing ------------------------------------------------

def test_equal_index_tuples_give_one_picker():
    # a picker applied to 0..n-1 gives back its index tuple
    pickers = {}
    for P in _grid(1, 5):
        for above_c, pick in ps._split_plan(P.above):
            for f in (pick,) + ps._struct_canon(above_c)[2]:
                idxs = f(tuple(range(P.n)))
                pickers.setdefault(idxs, set()).add(id(f))
    assert len(pickers) > 1
    assert all(len(ids) == 1 for ids in pickers.values())
    assert ps._shared_picker((0, 2)) is ps._shared_picker((0, 2))


def test_representatives_share_their_structure_and_size_data():
    by_above, by_size = {}, {}
    for P in _grid(2, 4):
        by_above.setdefault(P.above, []).append(P)
        by_size.setdefault(P.n, []).append(P)
    assert len(by_above) < sum(map(len, by_above.values()))
    for group in by_above.values():
        first = group[0]
        for P in group:
            assert P.above is first.above and P.below is first.below
            assert P.cover_pairs() is first.cover_pairs()
    for group in by_size.values():
        assert all(P.values is group[0].values for P in group)
    # a representative reached through canonicalization shares them too
    P = _poset(2, (1, 2, 3), [(3, 1)], {1: 1}).canonical
    Q = next(Q for Q in ps.canonical_posets(2, 3) if Q.above == P.above)
    assert P.below is Q.below and P.values is Q.values


def test_building_the_m2_n5_grid_stays_within_its_memory_bound():
    # a fresh process, so that no memo another test filled hides the cost.
    # Traced peak: 20.4 MB with per-structure data shared, 41.2 MB when each
    # of the 47,730 posets held its own below masks, values and cover pairs.
    src = os.path.dirname(os.path.dirname(ps.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import tracemalloc\n"
            "from cqsym import poset\n"
            "tracemalloc.start()\n"
            "assert len(poset.canonical_posets(2, 5)) == 47730\n"
            "print(tracemalloc.get_traced_memory()[1])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 30 * 2 ** 20


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


@pytest.mark.parametrize("m, max_n", [(1, 6), (2, 5), (3, 4)])
def test_generated_grid_matches_the_filtered_one(m, max_n):
    for n in range(max_n + 1):
        got, want = ps.canonical_posets(m, n), reference_canonical_posets(m, n)
        assert len(got) == len(want), (m, n)
        assert all(P is Q for P, Q in zip(got, want)), (m, n)


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
    # product_key builds the union from the factors' colors and closure
    # masks; it must land on the representative of disjoint_union
    for m in (1, 2):
        grid = _grid(m, 4)
        for A in grid:
            for B in grid:
                if A.n + B.n <= 4:
                    K = ps.product_key(A, B)
                    # equivalent() compares interned instances by identity
                    assert K is ps.product_key(B, A) \
                        is ps.disjoint_union(A, B).canonical
                    assert K.n == A.n + B.n


def test_product_key_of_labeled_factors():
    # interleaved values across the factors land on the same class
    A = _poset(2, [1, 5], [(1, 5)], {5: 1})
    B = _poset(2, [2, 3], [(2, 3)], {2: 1})
    assert ps.product_key(A, B) is ps.disjoint_union(A, B).canonical
    with pytest.raises(ValueError):
        ps.product_key(ps.empty_poset(1), ps.empty_poset(2))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_the_empty_poset_is_the_unit_of_product_key(m):
    E = ps.empty_poset(m)
    labeled = _poset(m, [2, 5, 7], [(5, 2)], {7: m - 1})
    for P in _grid(m, 3) + [labeled]:
        info = ps._union.cache_info()
        assert ps.product_key(E, P) is ps.product_key(P, E) is P.canonical
        # no memo entry and no lookup: products with the unit bypass _union
        assert ps._union.cache_info() == info


def test_a_product_with_the_unit_still_checks_the_colors():
    P = _poset(2, [1, 2], [(1, 2)], {2: 1})
    for E in (ps.empty_poset(1), ps.empty_poset(3)):
        with pytest.raises(ValueError):
            ps.product_key(E, P)
        with pytest.raises(ValueError):
            ps.product_key(P, E)


def test_union_misses_do_not_depend_on_the_allocation_layout():
    # three shards of hopf-axioms at m=2, n <= 4 call some unions in one
    # argument order only; ordering them by id() read 6,117 misses in a
    # fresh process and 6,118 or 6,119 after 100,000 objects were
    # allocated first
    src = os.path.dirname(os.path.dirname(ps.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import contextlib, io, json\n"
            "from cqsym import cli, verify\n"
            "verify._processes = lambda cases: 3\n"
            "junk = [object() for _ in range(%d)]\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    cli.main(['verify', '--suite', 'hopf-axioms', '--m', '2',"
            " '--max-n', '4', '--stats'])\n"
            "stats = json.loads(out.getvalue())['stats']\n"
            "assert stats['processes'] == 3, stats\n"
            "print(stats['caches']['poset._union']['misses'])\n")
    misses = []
    for junk in (0, 100000):
        proc = subprocess.run([sys.executable, "-c", code % junk],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        misses.append(int(proc.stdout))
    assert misses[0] == misses[1]


def test_unit_and_counit():
    one = ps.PElt.one(2)
    assert ps.counit(one) == 1
    P = ps.canonical_posets(2, 2)[0]
    e = ps.PElt.basis(P)
    assert ps.counit(e) == 0
    assert ps.product(one, e) == e == ps.product(e, one)


def test_element_arithmetic_repr_and_hash():
    point = ps.make_poset(1, [(1, 0)]).canonical
    chain = ps.chain_poset(1, [(1, 0), (2, 0)]).canonical
    A, B = ps.PElt.basis(point), ps.PElt.basis(chain)
    diff = A - B
    assert diff.terms == {point: 1, chain: -1}
    assert -diff == B - A == B + -A
    assert A - A == ps.PElt.zero(1)
    assert 2 * A == A * 2 == A + A == A.scale(2)
    with pytest.raises(ValueError):
        A - ps.PElt.one(2)
    with pytest.raises(TypeError):
        hash(A)
    assert repr(diff) == ("PElt(1*Poset(m=1, elements=[(1, 0)], covers=[]) + "
                          "-1*Poset(m=1, elements=[(1, 0), (2, 0)], "
                          "covers=[(1, 2)]))")
    assert repr(ps.PElt.zero(1)) == "PElt(0)"
    assert repr(ps.make_poset(2, [(3, 1), (5, 0)], [(3, 5)])) == (
        "Poset(m=2, elements=[(3, 1), (5, 0)], covers=[(3, 5)])")


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
