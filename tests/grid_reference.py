"""The class grid and the closed-set walk as first written, kept as test
references.

The grid canonicalizes every labeled order on n elements, keeps the
orders that are their own canonical form, dedupes each one's colorings
in a set of interned posets and sorts all of them by Poset.sort_key.
The library generates the canonical structures from canonical prefixes
and keeps the colorings that are their own least automorphism image;
both must give the same interned posets in the same order.  The closed
sets (order ideals or filters) are found by testing every one of the
2^n element subsets; the library walks them one element at a time.
"""

from itertools import product

from cqsym import poset as ps


def reference_closed_masks(rel):
    return [mask for mask in range(1 << len(rel))
            if not any(rel[i] & ~mask for i in ps._bits(mask))]


def reference_canonical_posets(m, n):
    out = []
    for above in ps.labeled_orders(n):
        if ps._struct_canon(above)[0] == above:
            out.extend({ps._canonicalize(m, colors, above)
                        for colors in product(range(m), repeat=n)})
    out.sort(key=ps.Poset.sort_key)
    return tuple(out)
