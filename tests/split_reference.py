"""The ideal splits as first computed, kept as a test reference.

Each side of each ideal goes through the labeled-input memo
_canonical_from, with the side's colors and the closure masks of its
induced order.  The library reads each side's canonical colors from the
split plan straight into the intern table; both must give the same
interned posets in the same order.
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
