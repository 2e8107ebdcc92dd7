"""Colored quasisymmetric functions in the M, F, and K bases.

Elements are sparse exact combinations of colored compositions tagged
with a basis letter.  M is the working normal form: conversions land
there, equality across bases compares M expansions, and the coproduct
on M is plain deconcatenation.  F elements convert to M by summing over
refinements; K elements are restricted to peak compositions (the K
functions only span the peak subalgebra) and expand through k_to_m.

Products are computed by shuffling representative chains: a basis term
is realized as a concrete colored permutation with the right descent or
peak composition, the two chains are shuffled on disjoint values, and
the resulting descent/peak compositions are collected.  The antipodes
are the closed forms: coarsen-and-reverse with sign on M, conjugation
with sign on F, reversal of a representative chain on K.
"""

from functools import cache

from .terms import iadd, iadd_scaled
from . import combinat as cb
from . import poset as ps

BASES = ("M", "F", "K")


class QElt:
    """Sparse combination of colored compositions in one basis."""

    __slots__ = ("m", "basis", "terms")

    def __init__(self, m, basis, terms=None):
        if basis not in BASES:
            raise ValueError("basis must be one of %r" % (BASES,))
        self.m = m
        self.basis = basis
        clean = {}
        if terms:
            for alpha, c in terms.items():
                if not c:
                    continue
                alpha = tuple(map(tuple, alpha))
                if basis == "K" and not cb.is_peak_composition(alpha):
                    raise ValueError("K-basis keys must be peak compositions")
                iadd(clean, alpha, c)
        self.terms = clean

    @classmethod
    def basis_elt(cls, m, basis, alpha):
        return cls(m, basis, {tuple(alpha): 1})

    @classmethod
    def one(cls, m, basis="M"):
        return cls(m, basis, {(): 1})

    @classmethod
    def zero(cls, m, basis="M"):
        return cls(m, basis)

    def __eq__(self, other):
        """Equality as quasisymmetric functions: compare M expansions."""
        if not isinstance(other, QElt) or self.m != other.m:
            return NotImplemented
        if self.basis == other.basis:
            return self.terms == other.terms
        return to_monomial(self).terms == to_monomial(other).terms

    def __hash__(self):
        raise TypeError("QElt is not hashable")

    def __repr__(self):
        if not self.terms:
            return "QElt(%s; 0)" % self.basis
        bits = []
        for alpha, c in sorted(self.terms.items()):
            bits.append("%r*%s%r" % (c, self.basis, list(alpha)))
        return "QElt(" + " + ".join(bits) + ")"

    def _require_same(self, other):
        if not isinstance(other, QElt) or other.m != self.m:
            raise ValueError("operands must share the same number of colors")

    def __add__(self, other):
        self._require_same(other)
        if other.basis != self.basis:
            return to_monomial(self) + to_monomial(other)
        out = dict(self.terms)
        iadd_scaled(out, other.terms)
        return QElt(self.m, self.basis, out)

    def __sub__(self, other):
        self._require_same(other)
        if other.basis != self.basis:
            return to_monomial(self) - to_monomial(other)
        out = dict(self.terms)
        iadd_scaled(out, other.terms, -1)
        return QElt(self.m, self.basis, out)

    def __neg__(self):
        return QElt(self.m, self.basis, {a: -c for a, c in self.terms.items()})

    def scale(self, c):
        return QElt(self.m, self.basis, {a: c * v for a, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, QElt):
            return self.scale(other)
        return multiply(self, other)

    def __rmul__(self, c):
        return self.scale(c)


# --- basis conversions ----------------------------------------------------

def f_to_m(e):
    """F_alpha = sum of M_beta over refinements beta of alpha."""
    if e.basis != "F":
        raise ValueError("f_to_m expects an F-basis element")
    out = {}
    for alpha, c in e.terms.items():
        for beta in cb.refinements(alpha):
            iadd(out, beta, c)
    return QElt(e.m, "M", out)


def m_to_f(e):
    """Inverse of f_to_m: signed sum over refinements."""
    if e.basis != "M":
        raise ValueError("m_to_f expects an M-basis element")
    out = {}
    for alpha, c in e.terms.items():
        la = len(alpha)
        for beta in cb.refinements(alpha):
            iadd(out, beta, -c if (len(beta) - la) % 2 else c)
    return QElt(e.m, "F", out)


def k_to_m_key(alpha, m):
    """M expansion of the peak function K_alpha, as a sparse map.

    Per rainbow block of weight w: sum over uncolored beta of w whose
    starred form refines the block, contributing 2^(length of beta); the
    blocks combine multiplicatively and beta wears the block's color.
    """
    block_opts = []
    for sizes, color in cb.rainbow_decompose(alpha):
        w = sum(sizes)
        block = tuple((s, 0) for s in sizes)
        opts = []
        for beta in cb.enumerate_compositions(1, w):
            if cb.refines(cb.star(beta), block):
                opts.append((tuple((s, color) for s, _ in beta), len(beta)))
        block_opts.append(opts)
    out = {(): 1}
    for opts in block_opts:
        nxt = {}
        for prefix, c in out.items():
            for beta, lb in opts:
                iadd(nxt, prefix + beta, c << lb)
        out = nxt
    return out


def k_to_m(e):
    if e.basis != "K":
        raise ValueError("k_to_m expects a K-basis element")
    out = {}
    for alpha, c in e.terms.items():
        iadd_scaled(out, k_to_m_key(alpha, e.m), c)
    return QElt(e.m, "M", out)


def peak_function(m, alpha):
    """The M expansion of K_alpha for an arbitrary colored composition.

    The defining sum makes sense whether or not alpha is a peak
    composition; K-tagged elements however only admit peak keys.
    """
    return QElt(m, "M", k_to_m_key(tuple(alpha), m))


def to_monomial(e):
    if e.basis == "M":
        return e
    if e.basis == "F":
        return f_to_m(e)
    return k_to_m(e)


def to_fundamental(e):
    """F expansion of e; K input goes through its M expansion."""
    if e.basis == "F":
        return e
    return m_to_f(to_monomial(e))


# --- product --------------------------------------------------------------

def _shift(pi, offset):
    return tuple((v + offset, c) for v, c in pi)


def _mul_keys(alpha, beta, stat):
    """Product of two basis keys via chain shuffles, as a sparse map.

    stat is descent_composition for F and peak_composition for K.
    """
    sigma = cb.rep_chain(alpha)
    tau = _shift(cb.rep_chain(beta), cb.weight(alpha))
    out = {}
    for pi in cb.shuffles(sigma, tau):
        iadd(out, stat(pi), 1)
    return out


def multiply(a, b):
    """Product in QSym^(m).

    K * K stays in K; anything else is computed in the F basis (M input
    converted through m_to_f, K input through its M expansion).
    """
    if a.m != b.m:
        raise ValueError("operands must share the same number of colors")
    if a.basis == "K" and b.basis == "K":
        basis, stat = "K", cb.peak_composition
    else:
        a, b = to_fundamental(a), to_fundamental(b)
        basis, stat = "F", cb.descent_composition
    out = {}
    for alpha, ca in a.terms.items():
        for beta, cb_ in b.terms.items():
            iadd_scaled(out, _mul_keys(alpha, beta, stat), ca * cb_)
    return QElt(a.m, basis, out)


# --- coproduct ------------------------------------------------------------

def deconcats(alpha):
    """Every cut of alpha into a prefix and a suffix, shortest prefix first."""
    return tuple((alpha[:i], alpha[i:]) for i in range(len(alpha) + 1))


def coproduct(e):
    """Sparse map (left key, right key) -> coefficient, in e's basis.

    Deconcatenation on M; on F and K the representative chain is cut at
    every position and the two halves contribute their descent (resp.
    peak) compositions.
    """
    out = {}
    if e.basis == "M":
        for alpha, c in e.terms.items():
            for pair in deconcats(alpha):
                iadd(out, pair, c)
        return out
    stat = cb.descent_composition if e.basis == "F" else cb.peak_composition
    for alpha, c in e.terms.items():
        pi = cb.rep_chain(alpha)
        for i in range(len(pi) + 1):
            left = stat(pi[:i]) if i else ()
            right = stat(pi[i:]) if i < len(pi) else ()
            iadd(out, (left, right), c)
    return out


def counit(e):
    return e.terms.get((), 0)


# --- antipode -------------------------------------------------------------

def antipode(e):
    """Basis-preserving antipode.

    M: (-1)^length(alpha) times the sum of reversed coarsenings.
    F: (-1)^n F over the conjugate composition.
    K: (-1)^n K over the peak composition of the reversed chain.
    """
    out = {}
    if e.basis == "M":
        for alpha, c in e.terms.items():
            iadd_scaled(out, antipode_m_key(alpha), c)
    elif e.basis == "F":
        for alpha, c in e.terms.items():
            sign = -c if cb.weight(alpha) % 2 else c
            iadd(out, cb.conjugate(alpha), sign)
    else:
        for alpha, c in e.terms.items():
            sign = -c if cb.weight(alpha) % 2 else c
            rev = tuple(reversed(cb.rep_chain(alpha)))
            iadd(out, cb.peak_composition(rev), sign)
    return QElt(e.m, e.basis, out)


def antipode_m_key(alpha):
    """S(M_alpha) as a sparse M map: sign by length, reversed coarsenings."""
    sign = -1 if len(alpha) % 2 else 1
    out = {}
    for beta in cb.coarsenings(alpha):
        iadd(out, cb.reverse(beta), sign)
    return out


@cache
def antipode_inductive_key(alpha, m):
    """S(M_alpha) through the connected-Hopf recursion; oracle route.

    S(M_()) = M_(); otherwise S(M_a) = -M_a - sum over proper splits
    a = b|c (b, c nonempty) of S(M_b) * M_c, with the product computed
    through the F basis.  Cross-checks the closed form.
    """
    if not alpha:
        return QElt.one(m)
    acc = QElt(m, "M", {alpha: -1})
    for i in range(1, len(alpha)):
        sb = antipode_inductive_key(alpha[:i], m)
        prod = multiply(sb, QElt(m, "M", {alpha[i:]: 1}))
        acc = acc - to_monomial(prod)
    return acc


def antipode_inductive(e):
    if e.basis != "M":
        e = to_monomial(e)
    acc = QElt.zero(e.m)
    for alpha, c in e.terms.items():
        acc = acc + antipode_inductive_key(alpha, e.m).scale(c)
    return acc


# --- the peak projection and the poset maps -------------------------------

def peak_projection(e):
    """F_alpha -> K_hat(alpha), extended linearly; lands in the peak span."""
    if e.basis != "F":
        raise ValueError("peak_projection expects an F-basis element")
    out = {}
    for alpha, c in e.terms.items():
        iadd(out, cb.hat(alpha), c)
    return QElt(e.m, "K", out)


@cache
def _extension_gf(c, basis, stat):
    """Sum of the basis element at stat(pi) over linear extensions pi.

    Depends only on the equivalence class, so callers pass the canonical
    form c and the result is memoized on it.
    """
    out = {}
    for pi in c.linear_extensions():
        iadd(out, stat(pi), 1)
    return QElt(c.m, basis, out)


def ppartition_gf(P):
    """The colored P-partition generating function, in the F basis.

    Sums F at the descent composition of every linear extension.
    """
    return _extension_gf(P.canonical, "F", cb.descent_composition)


def enriched_gf(P):
    """The enriched P-partition generating function, in the K basis.

    Sums K at the peak composition of every linear extension; equals
    peak_projection(ppartition_gf(P)).
    """
    return _extension_gf(P.canonical, "K", cb.peak_composition)


# --- exact rank, for the dimension table ----------------------------------

def m_rank(elements):
    """Rank of a family of elements, computed on M expansions.

    Fraction-free Gaussian elimination on sparse rows with integer
    scaling; exact.
    """
    rows = []
    for e in elements:
        e = to_monomial(e)
        if e.terms:
            rows.append(dict(e.terms))
    pivots = {}
    rank = 0
    for row in rows:
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = row
                rank += 1
                break
            other = pivots[lead]
            a, b = other[lead], row[lead]
            new = {}
            for k, v in row.items():
                iadd(new, k, a * v)
            for k, v in other.items():
                iadd(new, k, -b * v)
            row = new
    return rank
