"""Colored labeled posets and their graded Hopf algebra.

A poset here is a finite set of (value, color) letters with distinct
positive values, colors in range(m), and a strict partial order given by
cover relations.  Two posets are equivalent when some bijection matches
them preserving the order relation, the colors, and the relative order
of values on every comparable pair.  Values on incomparable pairs are
free to move, which is exactly what canonicalization exploits.

Internally elements are indexed 0..n-1 in increasing value order and the
order relation is kept as closure bitmasks, so index comparisons stand
in for value comparisons everywhere.

Canonical instances (values 1..n, fixed points of canonical_form) are
interned: one object per equivalence class per process.  They are the
basis keys of the algebra elements (PElt), and they hash by identity:
an equal labeled poset hashes as its representative.

A canonical form of an order structure (closure masks) is a triple: the
canonical masks, a picker of the colors in the first minimizing
placement, and pickers of the canonical structure's automorphisms (()
when the identity is the only one).  Pickers are itemgetters made once
per index tuple and shared by every structure.  _canonicalize alone
looks up and applies a form: it picks the colors, takes the least
automorphism image and interns the result.

The class grid is generated, not filtered.  The first n-1 positions of a
canonical structure are a canonical structure: a smaller placement of
them, followed by the last element, would place the whole structure
smaller.  So the canonical structures on n elements are the one-element
extensions of those on n-1 that are their own form.  Walked in
cover-pair order, each structure's classes are the colorings, in
increasing order, that are their own least automorphism image; that is
Poset.sort_key order with no sort of the posets.

Per order structure, functools caches hold what its canonical posets
share (closure and below masks, cover pairs; values 1..n once per
size), its canonical form, the ideal masks, the split plan and the
table of linear extensions (each as an index order and its ascent
mask), which persists for the process: n! entries on an n-element
antichain.  A split plan holds per ideal side its canonical masks and
its first placement's picker, composed onto the side's indices, so no
labeled side is built.  A poset's two whole-poset sides are its own
class.  Every other side is looked up in the one class memo,
_canonical_from, which also serves labeled input, by m, the colors in
its first placement and its canonical masks, so the automorphism scan
runs once per distinct side coloring.  The splits are memoized on the
instance as one flat tuple (I0, R0, I1, R1, ...) of interned posets,
which splits() pairs up as it iterates.
Products and antipodes live in process-wide functools caches.  The
empty poset is the unit of the product: a product with it returns the
other factor's class, so the union memo holds only products of two
nonempty posets.
Scale boundary: the canonicalization search is exponential in the worst
case (antichains); intended for n <= 8, the largest poset the CLI takes.
"""

from functools import cache
from itertools import product as _iproduct
from operator import itemgetter

from .terms import iadd, iadd_scaled


def _invert(above):
    below = [0] * len(above)
    for i, a in enumerate(above):
        while a:
            b = a & -a
            below[b.bit_length() - 1] |= 1 << i
            a ^= b
    return tuple(below)


def _bits(mask):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _sub_above(above, mask):
    """Element indices of mask and the closure masks of the induced order."""
    idxs, sub = [], []
    rest = mask
    while rest:
        b = rest & -rest
        idxs.append(b.bit_length() - 1)
        rest ^= b
    for i in idxs:
        # j in mask sits at position popcount(mask below j) of the order
        a, s = above[i] & mask, 0
        while a:
            b = a & -a
            s |= 1 << (mask & (b - 1)).bit_count()
            a ^= b
        sub.append(s)
    return tuple(idxs), tuple(sub)


def _cover_pairs(values, above, below):
    """(lower value, upper value) pairs of the transitive reduction."""
    out = []
    for i, a in enumerate(above):
        for j in _bits(a):
            if not (a & below[j]):
                out.append((values[i], values[j]))
    out.sort()
    return tuple(out)


def _picker(idxs):
    """An itemgetter that returns the tuple of the items at idxs."""
    lo = idxs[0] if idxs else 0
    if list(idxs) == list(range(lo, lo + len(idxs))):
        return itemgetter(slice(lo, lo + len(idxs)))
    return itemgetter(*idxs)


# the pickers of placements and split sides: one per index tuple, shared
# by every structure
_shared_picker = cache(_picker)


def _closed_masks(rel):
    """Masks, in increasing order, of the element sets that contain rel[i]
    whenever they contain i: order ideals for rel = below, filters for
    rel = above.  They are walked by size, each from the last by adding
    one element whose rel lies inside it, so the cost follows their
    count, not 2^n."""
    full = (1 << len(rel)) - 1
    out, layer = [0], [0]
    while layer:
        layer = list({mask | 1 << i for mask in layer
                      for i in _bits(full & ~mask) if not rel[i] & ~mask})
        out += layer
    out.sort()
    return out


@cache
def _ideal_masks(above):
    return tuple(_closed_masks(_invert(above)))


@cache
def _split_plan(above):
    """The split sides of an order structure: the ideal and then its
    complement, per ideal in _ideal_masks order.  A side is its induced
    order's canonical masks and first-placement picker, composed to read
    the side's colors from the whole poset's."""
    full = (1 << len(above)) - 1
    sides = []
    for mask in _ideal_masks(above):
        for side in (mask, full & ~mask):
            idxs, sub = _sub_above(above, side)
            above_c, pick, _ = _struct_canon(sub)
            sides.append((above_c, _shared_picker(pick(idxs))))
    return tuple(sides)


@cache
def extension_table(above):
    """The linear extensions of an order structure, in lexicographic order
    of their index orders: per extension, a _picker of its index order and
    the bitmask of its ascents (bit t set when the index at position t is
    below the one at t + 1, so the values rise there).

    The orders grow one position per layer, by each element left with
    nothing left below it, so the build holds two layers at once.  An
    antichain on n elements has n! extensions; the table holds one entry
    per extension for the life of the process."""
    n, below = len(above), _invert(above)
    # per partial order: its indices, the elements left and its ascents
    layer = [((), (1 << n) - 1, 0)]
    for t in range(n):
        layer = [(order + (i,), free ^ 1 << i,
                  ascents | 1 << (t - 1) if t and order[-1] < i else ascents)
                 for order, free, ascents in layer
                 for i in _bits(free) if not below[i] & free]
    return tuple((_picker(order), ascents) for order, _, ascents in layer)


class Poset:
    """An m-colored labeled poset; immutable.  Build via make_poset."""

    __slots__ = ("m", "n", "values", "colors", "above", "below",
                 "_canon", "_splits")

    def __init__(self, m, values, colors, above):
        self.m = m
        self.n = len(values)
        self.values = values
        self.colors = colors
        self.above = above
        self.below = _invert(above)
        self._canon = None
        self._splits = None

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Poset) and self.m == other.m
                and self.values == other.values and self.colors == other.colors
                and self.above == other.above)

    def __hash__(self):
        return hash(self.canonical)

    def __repr__(self):
        return "Poset(m=%d, elements=%r, covers=%r)" % (
            self.m, list(self.elements()), list(self.cover_pairs()))

    def elements(self):
        return tuple(zip(self.values, self.colors))

    def cover_pairs(self):
        """(lower value, upper value) pairs of the transitive reduction."""
        return _cover_pairs(self.values, self.above, self.below)

    def less(self, a, b):
        """Is value a below value b in the order?"""
        i, j = self.values.index(a), self.values.index(b)
        return bool(self.above[i] >> j & 1)

    @property
    def canonical(self):
        """The interned canonical representative of this equivalence class."""
        if self._canon is None:
            self._canon = _canonical_from(self.m, self.colors, self.above)
        return self._canon

    @property
    def is_canonical(self):
        """True when this labeled poset is its class's representative."""
        return self.canonical == self

    def sort_key(self):
        c = self.canonical
        return (c.n, c.cover_pairs(), c.colors)

    # --- substructure ----------------------------------------------------

    def ideal_masks(self):
        """Bitmasks of all order ideals (downward closed element sets)."""
        return _ideal_masks(self.above)

    def restrict(self, mask):
        """Induced labeled subposet on the elements of mask."""
        idxs, above = _sub_above(self.above, mask)
        return Poset(self.m,
                     tuple(self.values[i] for i in idxs),
                     tuple(self.colors[i] for i in idxs),
                     above)

    def ideals(self):
        """All order ideals as induced labeled subposets."""
        return [self.restrict(mask) for mask in self.ideal_masks()]

    def splits(self):
        """An iterator over the canonical (ideal, complement) pairs, one
        per order ideal, in ideal_masks order.  Call again to iterate
        again."""
        if self._splits is None:
            # the two whole-poset sides are this poset's own class
            m, n, colors, whole = self.m, self.n, self.colors, self.canonical
            self._splits = tuple([
                whole if len(above_c) == n
                else _canonical_from(m, pick(colors), above_c)
                for above_c, pick in _split_plan(self.above)])
        it = iter(self._splits)
        return zip(it, it)

    def linear_extensions(self):
        """All linear extensions, as colored permutations in P's letters."""
        letters = self.elements()
        return [pick(letters) for pick, _ in extension_table(self.above)]


# --- construction ---------------------------------------------------------

def make_poset(m, elements, covers=()):
    """Validating constructor from (value, color) letters and value cover pairs.

    Covers are (lower, upper) pairs by value; redundant (non-reduced)
    relations are accepted and reduced internally.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError("m must be >= 1")
    values = []
    colors = {}
    for el in elements:
        if len(el) != 2:
            raise ValueError("poset elements must be (value, color) pairs")
        v, c = el
        if not isinstance(v, int) or v < 1:
            raise ValueError("poset element values must be positive integers")
        if v in colors:
            raise ValueError("poset element values must be distinct")
        if not isinstance(c, int) or not 0 <= c < m:
            raise ValueError("poset element colors must lie in range(m)")
        values.append(v)
        colors[v] = c
    values.sort()
    index = {v: i for i, v in enumerate(values)}
    n = len(values)
    above = [0] * n
    for pair in covers:
        if len(pair) != 2:
            raise ValueError("poset covers must be (lower, upper) value pairs")
        lo, hi = pair
        if lo not in index or hi not in index:
            raise ValueError("poset cover references an unknown element value")
        if lo == hi:
            raise ValueError("poset order must be irreflexive")
        above[index[lo]] |= 1 << index[hi]
    # Warshall's closure on bitmasks; a cycle puts an element above itself
    for k in range(n):
        bit, up = 1 << k, above[k]
        above = [a | up if a & bit else a for a in above]
    if any(a >> i & 1 for i, a in enumerate(above)):
        raise ValueError("poset cover relations contain a cycle")
    return Poset(m, tuple(values), tuple(colors[v] for v in values), tuple(above))


def empty_poset(m):
    return _canonical_from(m, (), ())


def chain_poset(m, letters):
    """The chain letters[0] < letters[1] < ... (letters are (value, color))."""
    covers = [(letters[i][0], letters[i + 1][0]) for i in range(len(letters) - 1)]
    return make_poset(m, letters, covers)


def antichain_poset(m, letters):
    return make_poset(m, letters, ())


def disjoint_union(P, Q):
    """P together with Q, no relations across; Q's values shifted up on collision."""
    if P.m != Q.m:
        raise ValueError("disjoint union requires the same number of colors")
    shift = max(P.values, default=0) if set(P.values) & set(Q.values) else 0
    return make_poset(P.m,
                      P.elements() + tuple((v + shift, c)
                                           for v, c in Q.elements()),
                      P.cover_pairs() + tuple((a + shift, b + shift)
                                              for a, b in Q.cover_pairs()))


# --- canonicalization -----------------------------------------------------
#
# Valid relabelings are the topological orders of the comparable pairs
# oriented by value.  The canonical structure minimizes, position by
# position, the row of order relations of each newly placed element to
# the earlier ones; colors are minimized afterwards over all structure
# minimizers.  Minimizing rows first and colors second matches sorting
# by (cover list, color list).  The minimizers are the first one followed
# by each automorphism of the canonical structure (its own minimizers), so
# the canonical colors are the least of the automorphisms applied to the
# colors read in the first placement.

@cache
def _struct_canon(above):
    """Canonical closure masks, a shared picker of the colors in the first
    minimizing placement, and shared pickers of the canonical structure's
    automorphisms, or () when the identity is the only one."""
    n = len(above)
    below = _invert(above)
    comp = [above[i] | below[i] for i in range(n)]
    partials = [((), 0)]
    for _ in range(n):
        best_row = None
        nxt = []
        for order, assigned in partials:
            for i in _bits(~assigned & ((1 << n) - 1)):
                if comp[i] & ((1 << i) - 1) & ~assigned:
                    continue
                row = tuple(1 if below[i] >> s & 1 else (2 if above[i] >> s & 1 else 0)
                            for s in order)
                if best_row is None or row < best_row:
                    best_row = row
                    nxt = [(order + (i,), assigned | (1 << i))]
                elif row == best_row:
                    nxt.append((order + (i,), assigned | (1 << i)))
        partials = nxt
    orders = tuple(order for order, _ in partials)
    first = orders[0]
    pos = [0] * n
    for p, i in enumerate(first):
        pos[i] = p
    above_c = tuple(sum(1 << pos[j] for j in _bits(above[first[p]]))
                    for p in range(n))
    if above_c != above:
        auts = _struct_canon(above_c)[2]
    elif len(orders) > 1:
        auts = tuple(map(_shared_picker, orders))
    else:
        auts = ()
    return above_c, _shared_picker(first), auts


@cache
def _values(n):
    return tuple(range(1, n + 1))


@cache
def _shape(above):
    """What the canonical posets of one order structure share: values
    1..n, closure masks, below masks and cover pairs."""
    values, below = _values(len(above)), _invert(above)
    return values, above, below, _cover_pairs(values, above, below)


class _Canonical(Poset):
    """An interned class representative.  No other representative equals
    it, and an equal labeled poset hashes through it, so it can hash by
    identity, in C.  Its values, masks and cover pairs are its
    structure's shared ones."""

    __slots__ = ()
    __hash__ = object.__hash__

    def __init__(self, m, colors, above):
        self.values, self.above, self.below, _ = _shape(above)
        self.m = m
        self.n = len(colors)
        self.colors = colors
        self._canon = self
        self._splits = None

    def __reduce__(self):
        # copies and unpickled objects are the interned instance itself
        return (_intern_canonical, (self.m, self.colors, self.above))

    def cover_pairs(self):
        return _shape(self.above)[3]


@cache
def _intern_canonical(m, colors, above):
    return _Canonical(m, colors, above)


def _canonicalize(m, colors, above):
    """The interned representative of the poset with these colors on the
    order with closure masks above."""
    above_c, pick, auts = _struct_canon(above)
    best = pick(colors)
    if auts:
        best = min(aut(best) for aut in auts)
    return _intern_canonical(m, best, above_c)


# the class memo, for labeled input and split sides.  A side comes as
# its canonical masks and the colors in its first minimizing placement,
# an automorphism of the canonical structure, so of the same class.
# Unions canonicalize directly.
_canonical_from = cache(_canonicalize)


def canonical_form(P):
    return P.canonical


def equivalent(P, Q):
    return P.canonical is Q.canonical


def _sub_canonical(P, mask):
    idxs, above = _sub_above(P.above, mask)
    return _canonical_from(P.m, tuple(P.colors[i] for i in idxs), above)


# --- enumeration ----------------------------------------------------------

def _extensions(above):
    """The orders on one more element, index len(above), that induce above
    on the others: one per down-set d and up-set u of the new element
    with every element of d below every element of u."""
    k = len(above)
    full = (1 << k) - 1
    upsets = _closed_masks(above)
    for d in _closed_masks(_invert(above)):
        allowed = full
        for a in _bits(d):
            allowed &= above[a]
        for u in upsets:
            if not u & ~allowed:
                yield tuple([above[i] | (1 << k) if d >> i & 1 else above[i]
                             for i in range(k)] + [u])


@cache
def labeled_orders(n):
    """Closure masks of every partial order on n value-ordered elements.

    Counts 1, 1, 3, 19, 219, 4231, ... over n = 0, 1, 2, ...
    """
    if n == 0:
        return ((),)
    return tuple(new for above in labeled_orders(n - 1)
                 for new in _extensions(above))


@cache
def _canonical_structures(n):
    """The canonical order structures on n elements, in cover-pair order:
    the one-element extensions of those on n-1 that are their own form
    (orderly generation; the module docstring gives the reason)."""
    if n == 0:
        return ((),)
    out = [new for above in _canonical_structures(n - 1)
           for new in _extensions(above) if _struct_canon(new)[0] == new]
    out.sort(key=lambda above: _shape(above)[3])
    return tuple(out)


def canonical_posets(m, n):
    """All canonical m-colored posets with n elements, sorted."""
    return _canonical_posets(m, n)


@cache
def _canonical_posets(m, n):
    # sort_key order: structures by cover pairs, then colorings in
    # increasing order, keeping each that is its least automorphism image
    out = []
    for above in _canonical_structures(n):
        auts = _struct_canon(above)[2]
        for colors in _iproduct(range(m), repeat=n):
            if not auts or min(aut(colors) for aut in auts) == colors:
                out.append(_intern_canonical(m, colors, above))
    return tuple(out)


# --- predicates used by the characters ------------------------------------

def natural_extension(P):
    """The descent-free, weakly color-increasing linear extension, or None.

    Such an extension must list values increasingly, so it exists iff the
    order respects value order and the colors weakly increase by value;
    it is unique when it exists.
    """
    for i in range(P.n):
        if P.above[i] & ((1 << i) - 1):
            return None
    colors = P.colors
    if any(colors[i] > colors[i + 1] for i in range(P.n - 1)):
        return None
    return P.elements()


def is_naturally_labeled(P):
    return natural_extension(P) is not None


def is_monochromatic(P, j):
    """True iff every element has color j; vacuously true when empty."""
    return all(c == j for c in P.colors)


# --- the Hopf algebra -----------------------------------------------------

def product_key(A, B):
    """Canonical form of the disjoint union of two posets.

    The empty poset is the unit: a product with it is the other factor's
    class, with no entry in the union memo, which holds only products of
    two nonempty posets."""
    if A.n and B.n or A.m != B.m:
        # _union refuses factors of different m, and stores nothing then
        return _union(A, B)
    P = A if A.n else B
    # an interned poset is its own _canon; labeled input needs the property
    return P._canon or P.canonical


@cache
def _union(A, B):
    # one entry per argument order; the reversed order reuses the other.
    # The order is decided by the factors' contents, not their addresses,
    # so the memo's misses repeat from process to process.
    # No relation crosses the factors, so placing all of B above A, its
    # closure masks shifted past A's, gives the class of disjoint_union.
    if (A.n, A.colors, A.above) > (B.n, B.colors, B.above):
        return _union(B, A)
    if A.m != B.m:
        raise ValueError("disjoint union requires the same number of colors")
    above = A.above + tuple(b << A.n for b in B.above)
    return _canonicalize(A.m, A.colors + B.colors, above)


class PElt:
    """Element of the colored poset algebra: exact sparse combination of
    canonical posets, graded by poset size."""

    __slots__ = ("m", "terms")

    def __init__(self, m, terms=None):
        self.m = m
        clean = {}
        if terms:
            for P, c in terms.items():
                if c:
                    iadd(clean, P.canonical, c)
        self.terms = clean

    @classmethod
    def basis(cls, P):
        return cls(P.m, {P: 1})

    @classmethod
    def one(cls, m):
        return cls(m, {empty_poset(m): 1})

    @classmethod
    def zero(cls, m):
        return cls(m)

    def __eq__(self, other):
        return (isinstance(other, PElt) and self.m == other.m
                and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "PElt(0)"
        bits = []
        for P, c in sorted(self.terms.items(), key=lambda t: t[0].sort_key()):
            bits.append("%r*%r" % (c, P))
        return "PElt(" + " + ".join(bits) + ")"

    def _require_same(self, other):
        if not isinstance(other, PElt) or other.m != self.m:
            raise ValueError("operands must share the same number of colors")

    def __add__(self, other):
        self._require_same(other)
        out = dict(self.terms)
        iadd_scaled(out, other.terms)
        return PElt(self.m, out)

    def __sub__(self, other):
        self._require_same(other)
        return self + -other

    def __neg__(self):
        return PElt(self.m, {P: -c for P, c in self.terms.items()})

    def scale(self, c):
        return PElt(self.m, {P: c * v for P, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, PElt):
            return self.scale(other)
        self._require_same(other)
        out = {}
        for A, ca in self.terms.items():
            for B, cb in other.terms.items():
                iadd(out, product_key(A, B), ca * cb)
        return PElt(self.m, out)

    def __rmul__(self, c):
        return self.scale(c)


def product(a, b):
    return a * b


def coproduct(a):
    """Sum over order ideals, as a sparse map (ideal, rest) -> coefficient."""
    out = {}
    for P, c in a.terms.items():
        for I, R in P.splits():
            iadd(out, (I, R), c)
    return out


def counit(a):
    e = empty_poset(a.m)
    return a.terms.get(e, 0)


def antipode_key(P):
    """S on a canonical basis poset, by the inductive route.

    S(P) = -P - sum over proper nonempty ideals I of S(I) * (P minus I);
    the result is a sparse map poset -> integer, memoized globally.
    """
    return _antipode(P)


@cache
def _antipode(P):
    if P.n == 0:
        return {P: 1}
    acc = {P: -1}
    for I, R in P.splits():
        if I.n == 0 or R.n == 0:
            continue
        for Q, c in _antipode(I).items():
            iadd(acc, product_key(Q, R), -c)
    return acc


def antipode_chains_key(P):
    """S by the alternating sum over strict chains of order ideals.

    Each chain empty = I_0 < I_1 < ... < I_k = P contributes (-1)^k times
    the disjoint union of the consecutive slices.  Kept as an independent
    oracle route for the inductive formula.
    """
    if P.n == 0:
        return {P: 1}
    full = (1 << P.n) - 1
    ideals = P.ideal_masks()
    # per ideal, its strict supersets J and the slice J minus it
    steps = {cur: [(J, _sub_canonical(P, J & ~cur)) for J in ideals
                   if J != cur and J & cur == cur] for cur in ideals}
    acc = {}

    # depth first: layers would hold all 545,835 chains of the 8-antichain,
    # and grouping them by end ideal is the inductive recursion it checks
    def rec(cur, prod, k):
        for J, piece in steps[cur]:
            newprod = piece if prod is None else product_key(prod, piece)
            if J == full:
                iadd(acc, newprod, -1 if (k + 1) % 2 else 1)
            else:
                rec(J, newprod, k + 1)

    rec(0, None, 0)
    rec = None   # else the closure's cell keeps it, and steps, in a cycle
    return acc


def antipode(a, route="inductive"):
    if route == "inductive":
        keyfn = antipode_key
    elif route == "chains":
        keyfn = antipode_chains_key
    else:
        raise ValueError("route must be 'inductive' or 'chains'")
    out = {}
    for P, c in a.terms.items():
        iadd_scaled(out, keyfn(P), c)
    return PElt(a.m, out)
