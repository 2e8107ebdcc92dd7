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
basis keys of the algebra elements (PElt).  The heavy per-poset data is
memoized on them: ideal splits in a slot of the instance, products and
antipodes in process-wide functools caches.
Scale boundary: the canonicalization search is exponential in the worst
case (antichains); intended for n <= 8.
"""

from functools import cache
from itertools import product as _iproduct

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


class Poset:
    """An m-colored labeled poset; immutable.  Build via make_poset."""

    __slots__ = ("m", "n", "values", "colors", "above", "below",
                 "_hash", "_canon", "_ideals", "_splits")

    def __init__(self, m, values, colors, above):
        self.m = m
        self.n = len(values)
        self.values = values
        self.colors = colors
        self.above = above
        self.below = _invert(above)
        self._hash = hash((m, values, colors, above))
        self._canon = None
        self._ideals = None
        self._splits = None

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Poset) and self.m == other.m
                and self.values == other.values and self.colors == other.colors
                and self.above == other.above)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Poset(m=%d, elements=%r, covers=%r)" % (
            self.m, list(self.elements()), list(self.cover_pairs()))

    def elements(self):
        return tuple(zip(self.values, self.colors))

    def cover_pairs(self):
        """(lower value, upper value) pairs of the transitive reduction."""
        out = []
        for i in range(self.n):
            for j in _bits(self.above[i]):
                if not (self.above[i] & self.below[j]):
                    out.append((self.values[i], self.values[j]))
        out.sort()
        return tuple(out)

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
        if self._ideals is None:
            below = self.below
            out = []
            for mask in range(1 << self.n):
                for i in _bits(mask):
                    if below[i] & ~mask:
                        break
                else:
                    out.append(mask)
            self._ideals = tuple(out)
        return self._ideals

    def restrict(self, mask):
        """Induced labeled subposet on the elements of mask."""
        idxs = list(_bits(mask))
        pos = {i: p for p, i in enumerate(idxs)}
        above = tuple(sum(1 << pos[j] for j in _bits(self.above[i] & mask))
                      for i in idxs)
        return Poset(self.m,
                     tuple(self.values[i] for i in idxs),
                     tuple(self.colors[i] for i in idxs),
                     above)

    def ideals(self):
        """All order ideals as induced labeled subposets."""
        return [self.restrict(mask) for mask in self.ideal_masks()]

    def splits(self):
        """Canonical (ideal, complement) pairs, one per order ideal."""
        if self._splits is None:
            full = (1 << self.n) - 1
            out = []
            for mask in self.ideal_masks():
                out.append((_sub_canonical(self, mask),
                            _sub_canonical(self, full & ~mask)))
            self._splits = tuple(out)
        return self._splits

    def linear_extensions(self):
        """All linear extensions, as colored permutations in P's letters."""
        n, below = self.n, self.below
        letters = self.elements()
        out = []
        acc = [None] * n

        def rec(t, assigned):
            if t == n:
                out.append(tuple(acc))
                return
            avail = ~assigned & ((1 << n) - 1)
            for i in _bits(avail):
                if not (below[i] & ~assigned):
                    acc[t] = letters[i]
                    rec(t + 1, assigned | (1 << i))

        rec(0, 0)
        return out


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
    succ = [0] * n
    for pair in covers:
        if len(pair) != 2:
            raise ValueError("poset covers must be (lower, upper) value pairs")
        lo, hi = pair
        if lo not in index or hi not in index:
            raise ValueError("poset cover references an unknown element value")
        if lo == hi:
            raise ValueError("poset order must be irreflexive")
        succ[index[lo]] |= 1 << index[hi]

    # closure by depth-first search, detecting cycles
    above = [None] * n
    state = [0] * n

    def close(i):
        if state[i] == 1:
            raise ValueError("poset cover relations contain a cycle")
        if state[i] == 2:
            return above[i]
        state[i] = 1
        acc = succ[i]
        for j in _bits(succ[i]):
            acc |= close(j)
        above[i] = acc
        state[i] = 2
        return acc

    for i in range(n):
        close(i)
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
    qvalues = Q.values
    if set(P.values) & set(qvalues):
        shift = max(P.values, default=0)
        qvalues = tuple(v + shift for v in qvalues)
    values = P.values + qvalues
    order = sorted(range(len(values)), key=lambda i: values[i])
    pos = [0] * len(values)
    for p, i in enumerate(order):
        pos[i] = p
    n, np_ = len(values), P.n

    def shifted(above, offset):
        out = []
        for a in above:
            out.append(sum(1 << pos[j + offset] for j in _bits(a)))
        return out

    above = [0] * n
    for i, a in enumerate(shifted(P.above, 0)):
        above[pos[i]] = a
    for i, a in enumerate(shifted(Q.above, np_)):
        above[pos[np_ + i]] = a
    return Poset(P.m, tuple(sorted(values)),
                 tuple((P.colors + Q.colors)[order[p]] for p in range(n)),
                 tuple(above))


# --- canonicalization -----------------------------------------------------
#
# Valid relabelings are the topological orders of the comparable pairs
# oriented by value.  The canonical structure minimizes, position by
# position, the row of order relations of each newly placed element to
# the earlier ones; colors are minimized afterwards over all structure
# minimizers.  Minimizing rows first and colors second matches sorting
# by (cover list, color list).

@cache
def _struct_canon(above):
    """Canonical closure masks plus all minimizing placements."""
    n = len(above)
    if n == 0:
        return ((), ((),))
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
    return (above_c, orders)


@cache
def _intern_canonical(m, colors, above):
    inst = Poset(m, tuple(range(1, len(colors) + 1)), colors, above)
    inst._canon = inst
    return inst


@cache
def _canonical_from(m, colors, above):
    above_c, orders = _struct_canon(above)
    best = min(tuple(colors[i] for i in order) for order in orders)
    return _intern_canonical(m, best, above_c)


def canonical_form(P):
    return P.canonical


def equivalent(P, Q):
    return P.canonical is Q.canonical


def _sub_canonical(P, mask):
    idxs = list(_bits(mask))
    pos = {i: p for p, i in enumerate(idxs)}
    above = tuple(sum(1 << pos[j] for j in _bits(P.above[i] & mask))
                  for i in idxs)
    return _canonical_from(P.m, tuple(P.colors[i] for i in idxs), above)


# --- enumeration ----------------------------------------------------------

@cache
def labeled_orders(n):
    """Closure masks of every partial order on n value-ordered elements.

    Counts 1, 1, 3, 19, 219, 4231, ... over n = 0, 1, 2, ...
    """
    if n == 0:
        return ((),)
    out = []
    k = n - 1
    full = (1 << k) - 1
    for above in labeled_orders(k):
        below = _invert(above)
        downsets = [d for d in range(1 << k)
                    if all(not (below[i] & ~d) for i in _bits(d))]
        upsets = [u for u in range(1 << k)
                  if all(not (above[i] & ~u) for i in _bits(u))]
        for d in downsets:
            allowed = full
            for a in _bits(d):
                allowed &= above[a]
            for u in upsets:
                if u & ~allowed:
                    continue
                new = [above[i] | (1 << k) if d >> i & 1 else above[i]
                       for i in range(k)]
                new.append(u)
                out.append(tuple(new))
    return tuple(out)


def canonical_posets(m, n):
    """All canonical m-colored posets with n elements, sorted."""
    return _canonical_posets(m, n)


@cache
def _canonical_posets(m, n):
    structs = []
    seen = set()
    for above in labeled_orders(n):
        above_c, _ = _struct_canon(above)
        if above_c not in seen:
            seen.add(above_c)
            structs.append(above_c)
    out = []
    for above_c in structs:
        _, orders = _struct_canon(above_c)
        rigid = len(orders) == 1
        found = set()
        for colors in _iproduct(range(m), repeat=n):
            if rigid:
                best = colors
            else:
                best = min(tuple(colors[i] for i in order) for order in orders)
            if best not in found:
                found.add(best)
                out.append(_intern_canonical(m, best, above_c))
    out.sort(key=Poset.sort_key)
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
    """Canonical form of the disjoint union of two canonical posets."""
    return _union(A, B) if id(A) <= id(B) else _union(B, A)


@cache
def _union(A, B):
    return disjoint_union(A, B).canonical


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

    def __hash__(self):
        raise TypeError("PElt is not hashable")

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
        out = dict(self.terms)
        iadd_scaled(out, other.terms, -1)
        return PElt(self.m, out)

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
    acc = {}

    def rec(cur, prod, k):
        for J in ideals:
            if J == cur or (J & cur) != cur:
                continue
            piece = _sub_canonical(P, J & ~cur)
            newprod = piece if prod is None else product_key(prod, piece)
            if J == full:
                iadd(acc, newprod, -1 if (k + 1) % 2 else 1)
            else:
                rec(J, newprod, k + 1)

    rec(0, None, 0)
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
