"""The ideal splits as first computed, kept as a test reference.

Each side of each ideal is built as a labeled subposet, its colors and
the closure masks of its induced order, and canonicalized from them.
The library reads each side's first-placement colors and canonical
masks from the split plan, so no labeled side is built; both must give
the same interned posets in the same order.
"""

from cqsym import poset as ps


def reference_splits(P):
    full = (1 << P.n) - 1
    return tuple((ps._sub_canonical(P, mask), ps._sub_canonical(P, full & ~mask))
                 for mask in P.ideal_masks())


def assert_splits_match_reference(P):
    got, want = tuple(P.splits()), reference_splits(P)
    assert len(got) == len(want), P
    assert all(a is c and b is d for (a, b), (c, d) in zip(got, want)), P
