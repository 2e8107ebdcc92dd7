"""Brute-force enumeration oracles over truncated alphabets.

Everything here counts maps directly, with no algebra and no
canonicalization: colored P-partitions and their enriched variant into the
first N index levels, plus exact truncation of QSym elements to the same
variables.  Agreement with the generating functions computed in qsym.py is
the differential test the rest of the package leans on.

The two kernels take one step per counted map: O(|below(b)|) work to
start element b at its least admissible level, and a sort of the n placed
slots (level - 1) * m + color at each leaf.  They tally leaves by that
sorted slot tuple; the enumerators turn each distinct tuple into one
monomial.  Tuples and monomials correspond one to one, so the identity
checks that compare enumerations with each other (split alphabet,
product law, extension partition) compare tallies and build no
polynomial.

The P-partition kernel reads colors, below masks and a mask of the
elements to place.  So the split-alphabet check counts each ideal and
its complement in place, with no restricted poset, and the extension
check counts each chain from its index order in poset.extension_table,
with no chain poset.  The maps into N levels are those into N' >= N
levels whose monomials use only the first N.  at_level reads them off
one enumeration, which is how the oracle-equivalence suite enumerates
each poset once per run, at its largest N.
"""

from bisect import bisect_left
from functools import cache

from . import poset as ps
from . import qsym as qs
from .terms import iadd


class TPoly:
    """Polynomial in the variables x[i,j], 1 <= i <= N, 0 <= j < m.

    Terms map a sorted tuple of ((i, j), exponent) pairs to a coefficient.
    N records the truncation used to build the polynomial; equality ignores
    it, so polynomials built at different truncations compare by content.
    """

    __slots__ = ("N", "m", "terms")

    def __init__(self, N, m, terms=None):
        self.N = N
        self.m = m
        clean = {}
        if terms:
            for key, c in terms.items():
                if c:
                    clean[tuple(key)] = c
        self.terms = clean

    def __eq__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def __repr__(self):
        def var(ij, e):
            s = "x[%d,%d]" % ij
            return s if e == 1 else s + "^%d" % e
        bits = []
        for key, c in sorted(self.terms.items()):
            mono = "*".join(var(ij, e) for ij, e in key) or "1"
            bits.append("%s*%s" % (c, mono))
        return " + ".join(bits) if bits else "0"


def _need_levels(N):
    if N < 1:
        raise ValueError("N must be >= 1, got %r" % (N,))


def _order(below, todo, weight):
    # the indices in todo by how much of todo lies below them (valid since
    # below sets nest), and for each the pairs (i, weight(i, b)) over the
    # indices of todo below it
    topo = sorted(ps._bits(todo), key=lambda i: (below[i] & todo).bit_count())
    return topo, [[(i, weight(i, b)) for i in ps._bits(below[b] & todo)]
                  for b in topo]


def _tally_terms(tally, m):
    # leaves are tallied by the sorted slots (level - 1) * m + color of their
    # elements; each run of equal slots is one variable and its exponent
    out = {}
    for slots, c in tally.items():
        mono, prev = [], -1
        for s in slots:
            if s == prev:
                mono[-1] = (mono[-1][0], mono[-1][1] + 1)
            else:
                mono.append(((s // m + 1, s % m), 1))
                prev = s
        out[tuple(mono)] = c
    return out


def enumerate_ppartitions(P, N):
    """Count colored P-partitions with all first indices <= N.

    A map sends each element to a level 1..N, keeping its color.  Along
    every order relation the images must weakly increase in the (level,
    color) order, strictly when the values invert.  Relations are read off
    the transitive closure.

    A lower i needs level(b) >= level(i), plus one when i has the larger
    color, or the same color and the larger value.
    """
    return TPoly(N, P.m, _tally_terms(_whole_tally(P, N), P.m))


def _whole_tally(P, N):
    return _ppartition_tally(P.m, P.colors, P.below, (1 << P.n) - 1, N)


def _ppartition_tally(m, colors, below, todo, N):
    # the kernel of enumerate_ppartitions on the poset induced on the
    # indices in todo, with the order given by the below masks: sorted
    # slot tuple -> count
    _need_levels(N)
    topo, pairs = _order(below, todo, lambda i, b: int(
        colors[i] > colors[b] or (colors[i] == colors[b] and i > b)))
    n = len(topo)
    levels = [0] * len(colors)
    slots = [0] * n
    tally = {}

    def place(t):
        if t == n:
            key = tuple(sorted(slots))
            tally[key] = tally.get(key, 0) + 1
            return
        b = topo[t]
        lo = 1
        for i, bump in pairs[t]:
            s = levels[i] + bump
            if s > lo:
                lo = s
        slot = (lo - 1) * m + colors[b]
        for s in range(lo, N + 1):
            levels[b] = s
            slots[t] = slot
            place(t + 1)
            slot += m

    place(0)
    return tally


def enumerate_enriched(P, N):
    """Count enriched colored P-partitions with all first indices <= N.

    Images carry a sign; the signed alphabet orders by (level, color, sign)
    with minus before plus.  When values run with the order, ties must be
    positive; when they invert, ties must be negative.  The monomial
    forgets the signs.

    Signed letters rank as (level * m + color) * 2 + sign.  A lower i of
    rank r needs rank(b) >= r if the tie sign (plus iff i < b) is r's sign,
    else r + 1.
    """
    _need_levels(N)
    m, n, colors = P.m, P.n, P.colors
    topo, pairs = _order(P.below, (1 << n) - 1, lambda i, b: int(i < b))
    ranks = [0] * n
    slots = [0] * n
    cands = [[(s * m + colors[b]) * 2 + sg
              for s in range(1, N + 1) for sg in (0, 1)] for b in topo]
    tally = {}

    def place(t):
        if t == n:
            key = tuple(sorted(slots))
            tally[key] = tally.get(key, 0) + 1
            return
        b = topo[t]
        lo = 0
        for i, tie in pairs[t]:
            r = ranks[i]
            r += (r ^ tie) & 1
            if r > lo:
                lo = r
        row = cands[t]
        for r in row[bisect_left(row, lo):]:
            ranks[b] = r
            slots[t] = (r >> 1) - m
            place(t + 1)

    place(0)
    return TPoly(N, m, _tally_terms(tally, m))


def at_level(p, N):
    """p with every variable past level N set to zero.

    On an enumeration into N' >= N levels that leaves the maps into the
    first N: the same enumeration at N.
    """
    _need_levels(N)
    return TPoly(N, p.m, {key: c for key, c in p.terms.items()
                          if not key or key[-1][0][0] <= N})


@cache
def _embeddings(alpha, N):
    # strictly increasing (level, color) supports with colors fixed by
    # alpha, as monomial keys; memoized, since truncate meets the same
    # few (alpha, N) again and again
    k = len(alpha)

    def go(t, prev, acc):
        if t == k:
            yield tuple(sorted(acc))
            return
        size, j = alpha[t]
        for i in range(1, N + 1):
            if prev is not None and (i, j) <= prev:
                continue
            yield from go(t + 1, (i, j), acc + [((i, j), size)])

    return tuple(go(0, None, []))


def truncate(e, N):
    """Exact restriction of a QSym element to first indices 1..N."""
    _need_levels(N)
    out = {}
    for alpha, c in qs.to_monomial(e).terms.items():
        for key in _embeddings(alpha, N):
            iadd(out, key, c)
    return TPoly(N, e.m, out)


def _add_products(acc, left, right, join):
    # acc[join(ka, kb)] += ca * cb over the terms of two tallies
    for ka, ca in left.items():
        for kb, cb in right.items():
            key = join(ka, kb)
            acc[key] = acc.get(key, 0) + ca * cb


def split_alphabet_check(P, N):
    """Doubled-alphabet enumeration versus the coproduct, one poset at a time.

    Maps into 2N levels split, by the point where images leave the low
    block, into a P-partition of an order ideal on the low levels and one
    of the complement on the high levels.  High slots sit N * m above low
    ones, so each product tuple is the low tuple followed by the shifted
    high one, already sorted.
    """
    m, colors, below = P.m, P.colors, P.below
    shift = N * m
    full = (1 << P.n) - 1
    acc = {}
    for mask in P.ideal_masks():
        lo = _ppartition_tally(m, colors, below, mask, N)
        hi = _ppartition_tally(m, colors, below, full & ~mask, N)
        hi = {tuple(s + shift for s in key): c for key, c in hi.items()}
        _add_products(acc, lo, hi, tuple.__add__)
    return acc == _whole_tally(P, 2 * N)


def product_law_check(A, B, C, N):
    """C's P-partitions into N levels are the products of A's and B's.

    True when C is the disjoint union of A and B.
    """
    acc = {}
    _add_products(acc, _whole_tally(A, N), _whole_tally(B, N),
                  lambda ka, kb: tuple(sorted(ka + kb)))
    return acc == _whole_tally(C, N)


def _extension_chains(P):
    # per linear extension, in P.linear_extensions() order, the below
    # masks of the chain of P's letters in its order, read off the index
    # order in the extension table
    n = P.n
    idxs = tuple(range(n))
    for pick, _ in ps.extension_table(P.above):
        below, seen = [0] * n, 0
        for i in pick(idxs):
            below[i] = seen
            seen |= 1 << i
        yield below


def extension_partition_check(P, N):
    """P's P-partitions split by linear extension into chain P-partitions.

    Each chain keeps P's letters, so it is counted on P's colors with the
    chain's below masks.
    """
    m, colors, full = P.m, P.colors, (1 << P.n) - 1
    acc = {}
    for below in _extension_chains(P):
        for key, c in _ppartition_tally(m, colors, below, full, N).items():
            acc[key] = acc.get(key, 0) + c
    return acc == _whole_tally(P, N)
