"""The poset Hopf-axiom checks as first written, kept as a test reference.

Each term goes through terms.iadd, and the antipode check builds S(P) by
the recursion S(P) = -P - sum over proper splits of S(I)·R, from the
memoized S of the pieces, then tests both convolutions against the
counit.  The library's checks accumulate inline and compare the two
proper-split sums in one pass; they must give the same verdict on every
case.  The pair grid and its shard owners are kept as first written too,
as a list of pairs and a position dict; the library finds each pair and
owner by index.
"""

from cqsym import poset as ps
from cqsym.terms import iadd


def reference_coassoc_ok(P):
    lhs, rhs = {}, {}
    for I, R in P.splits():
        for I2, R2 in I.splits():
            iadd(lhs, (I2, R2, R), 1)
        for I2, R2 in R.splits():
            iadd(rhs, (I, I2, R2), 1)
    return lhs == rhs


def reference_bialgebra_ok(pair):
    A, B = pair
    lhs = {}
    for I, R in ps.product_key(A, B).splits():
        iadd(lhs, (I, R), 1)
    rhs = {}
    for I1, R1 in A.splits():
        for I2, R2 in B.splits():
            iadd(rhs, (ps.product_key(I1, I2), ps.product_key(R1, R2)), 1)
    return lhs == rhs


def _own_antipode(P):
    # S(P) by the inductive recursion, not memoized for P itself
    if P.n == 0:
        return {P: 1}
    acc = {P: -1}
    for I, R in P.splits():
        if I.n and R.n:
            for Q, c in ps.antipode_key(I).items():
                iadd(acc, ps.product_key(Q, R), -c)
    return acc


def reference_antipode_ok(P):
    own = _own_antipode(P)
    left, right = {}, {}
    for I, R in P.splits():
        for Q, c in (own if R.n == 0 else ps.antipode_key(I)).items():
            iadd(left, ps.product_key(Q, R), c)
        for Q, c in (own if I.n == 0 else ps.antipode_key(R)).items():
            iadd(right, ps.product_key(I, Q), c)
    want = {P: 1} if P.n == 0 else {}
    return left == want and right == want


def reference_size_pairs(grid, max_total):
    bysize = {}
    for P in grid:
        bysize.setdefault(P.n, []).append(P)
    out = []
    for i, firsts in sorted(bysize.items()):
        for j, seconds in sorted(bysize.items()):
            if i + j <= max_total:
                out.extend((A, B) for A in firsts for B in seconds)
    return out


def reference_by_larger_factor(grid):
    """Shard owner of a pair of grid posets: the later one's position."""
    pos = {P: i for i, P in enumerate(grid)}
    return lambda pr: max(pos[pr[0]], pos[pr[1]])
