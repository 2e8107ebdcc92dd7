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
with sign on F, reversal of a representative chain on K.  The inductive
M antipode, their cross-check, never leaves M: it multiplies by the
colored quasi-shuffle, in which only parts of one color merge.

Γ and Λ sum over the linear extensions of a poset's canonical form,
read off its structure's extension table (poset.extension_table): each
extension gives the colors along it and its ascent mask, and the
descent or peak composition is memoized per such pattern.

The F/K product of two keys, the M quasi-shuffle of two keys, the F/K
cuts of one key, the refinements of one key, the M expansion of one K
key, the peak test of one K key, the hat of one F key, the inductive
antipode of one M key, Γ and Λ of one canonical poset and the statistic
of one (colors, ascent mask) pattern are memoized.  The cached maps and
tuples are shared, so callers only read them and never mutate them; the
public k_to_m_key hands out a copy.

The constructor cleans the term maps it is given (tuple keys, zeros
dropped, K keys checked).  The maps that build their results here
(multiply, f_to_m, m_to_f, k_to_m, both antipodes, peak_projection, Γ
and Λ) make clean maps already and wrap them through _built without
cleaning them again.
"""

from functools import cache

from .terms import BASES, iadd, iadd_scaled
from . import combinat as cb
from . import poset as ps


class QElt:
    """Sparse combination of colored compositions in one basis."""

    __slots__ = ("m", "basis", "terms")

    def __init__(self, m, basis, terms=None):
        """Validate and clean a term map: tuple keys, zero coefficients
        dropped, equal keys merged, K keys checked to be peak keys."""
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
                if basis == "K" and not _is_peak_key(alpha):
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
        return self + -other

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


def _built(m, basis, terms):
    """A QElt over a term map that this module built itself, without
    __init__'s cleaning.  The map must already be clean: keys are tuples
    of (size, color) tuples, no coefficient is zero, every K key is a
    peak composition, and no one else holds the dict."""
    e = QElt.__new__(QElt)
    e.m, e.basis, e.terms = m, basis, terms
    return e


# --- basis conversions ----------------------------------------------------

def f_to_m(e):
    """F_alpha = sum of M_beta over refinements beta of alpha."""
    if e.basis != "F":
        raise ValueError("f_to_m expects an F-basis element")
    out = {}
    for alpha, c in e.terms.items():
        for beta in _refinements(alpha):
            iadd(out, beta, c)
    return _built(e.m, "M", out)


def m_to_f(e):
    """Inverse of f_to_m: signed sum over refinements."""
    if e.basis != "M":
        raise ValueError("m_to_f expects an M-basis element")
    out = {}
    for alpha, c in e.terms.items():
        la = len(alpha)
        for beta in _refinements(alpha):
            iadd(out, beta, -c if (len(beta) - la) % 2 else c)
    return _built(e.m, "F", out)


@cache
def _is_peak_key(alpha):
    """cb.is_peak_composition(alpha), memoized per key."""
    return cb.is_peak_composition(alpha)


@cache
def _refinements(alpha):
    """cb.refinements(alpha) as a tuple, memoized per key."""
    return tuple(cb.refinements(alpha))


def k_to_m_key(alpha, m):
    """M expansion of the peak function K_alpha, as a sparse map.

    Per rainbow block of weight w: sum over uncolored beta of w whose
    starred form refines the block, contributing 2^(length of beta); the
    blocks combine multiplicatively and beta wears the block's color.
    The map is a fresh copy of a per-key memo, so callers may mutate it.
    """
    return dict(_k_to_m_key(alpha))


@cache
def _k_to_m_key(alpha):
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
        iadd_scaled(out, _k_to_m_key(alpha), c)
    return _built(e.m, "M", out)


def peak_function(m, alpha):
    """The M expansion of K_alpha for an arbitrary colored composition.

    The defining sum makes sense whether or not alpha is a peak
    composition; K-tagged elements however only admit peak keys.
    """
    return QElt(m, "M", _k_to_m_key(tuple(alpha)))


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

def _stat(basis):
    """The chain statistic that indexes basis: descents for F, peaks for K."""
    return cb.descent_composition if basis == "F" else cb.peak_composition


@cache
def _mul_keys(alpha, beta, basis):
    """Product of two F (or two K) basis keys via chain shuffles.

    Memoized per key pair; the sparse map is shared, so callers only
    read it.
    """
    stat = _stat(basis)
    sigma = cb.rep_chain(alpha)
    w = cb.weight(alpha)
    tau = tuple((v + w, c) for v, c in cb.rep_chain(beta))
    out = {}
    for pi in cb.shuffles(sigma, tau):
        iadd(out, stat(pi), 1)
    return out


def multiply(a, b):
    """Product in QSym^(m).

    K * K stays in K; anything else is computed in the F basis (M input
    converted through m_to_f, K input through its M expansion).  Each
    new pair of keys of weights u and v shuffles C(u+v, u) chain pairs;
    there is no bound here (the CLI sets one).
    """
    if a.m != b.m:
        raise ValueError("operands must share the same number of colors")
    if a.basis == "K" and b.basis == "K":
        basis = "K"
    else:
        a, b = to_fundamental(a), to_fundamental(b)
        basis = "F"
    out = {}
    for alpha, ca in a.terms.items():
        for beta, cb_ in b.terms.items():
            iadd_scaled(out, _mul_keys(alpha, beta, basis), ca * cb_)
    return _built(a.m, basis, out)


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
    get = out.get
    for alpha, c in e.terms.items():
        if e.basis == "M":
            cuts = deconcats(alpha)
        else:
            cuts = _cut_keys(alpha, e.basis)
        for pair in cuts:
            new = get(pair, 0) + c
            if new:
                out[pair] = new
            else:
                del out[pair]
    return out


@cache
def _cut_keys(alpha, basis):
    """(left, right) keys of every cut of alpha's representative chain.

    Memoized per key, like _mul_keys; shortest left half first.
    """
    stat = _stat(basis)
    pi = cb.rep_chain(alpha)
    return tuple((stat(pi[:i]), stat(pi[i:])) for i in range(len(pi) + 1))


def counit(e):
    return e.terms.get((), 0)


# --- antipode -------------------------------------------------------------

def antipode(e):
    """Basis-preserving antipode.

    M: (-1)^length(alpha) times the sum of reversed coarsenings.
    F and K: (-1)^n times the basis element at the descent (resp. peak)
    composition of the reversed representative chain; for F that is the
    conjugate composition.
    """
    out = {}
    if e.basis == "M":
        for alpha, c in e.terms.items():
            iadd_scaled(out, antipode_m_key(alpha), c)
    else:
        stat = _stat(e.basis)
        for alpha, c in e.terms.items():
            sign = -c if cb.weight(alpha) % 2 else c
            iadd(out, stat(cb.rep_chain(alpha)[::-1]), sign)
    return _built(e.m, e.basis, out)


def antipode_m_key(alpha):
    """S(M_alpha) as a sparse M map: sign by length, reversed coarsenings."""
    sign = -1 if len(alpha) % 2 else 1
    out = {}
    for beta in cb.coarsenings(alpha):
        iadd(out, cb.reverse(beta), sign)
    return out


@cache
def _quasi_shuffle(alpha, beta):
    """M_alpha * M_beta as a sparse M map, by the colored quasi-shuffle:
    each factor keeps the order of its parts, and two parts merge only
    when they share a color.  Memoized per key pair; the map is shared,
    so callers only read it."""
    if not alpha or not beta:
        return {alpha + beta: 1}
    (s, i), (t, j) = alpha[0], beta[0]
    heads = [(alpha[0], alpha[1:], beta), (beta[0], alpha, beta[1:])]
    if i == j:
        heads.append(((s + t, i), alpha[1:], beta[1:]))
    out = {}
    for head, a, b in heads:
        for key, c in _quasi_shuffle(a, b).items():
            iadd(out, (head,) + key, c)
    return out


@cache
def antipode_inductive_key(alpha, m):
    """S(M_alpha) by the connected-Hopf recursion, the oracle route for
    the closed form: S(M_()) = M_(), else S(M_a) = -M_a - sum over splits
    a = b|c (b, c nonempty) of S(M_b) * M_c, taken in M by the colored
    quasi-shuffle.  Unbounded here; its work grows with the parts only.
    """
    out = {alpha: -1} if alpha else {(): 1}
    for i in range(1, len(alpha)):
        for beta, c in antipode_inductive_key(alpha[:i], m).terms.items():
            iadd_scaled(out, _quasi_shuffle(beta, alpha[i:]), -c)
    return _built(m, "M", out)


def antipode_inductive(e):
    e = to_monomial(e)
    out = {}
    for alpha, c in e.terms.items():
        iadd_scaled(out, antipode_inductive_key(alpha, e.m).terms, c)
    return _built(e.m, "M", out)


# --- the peak projection and the poset maps -------------------------------

def peak_projection(e):
    """F_alpha -> K_hat(alpha), extended linearly; lands in the peak span."""
    if e.basis != "F":
        raise ValueError("peak_projection expects an F-basis element")
    out = {}
    for alpha, c in e.terms.items():
        iadd(out, _hat(alpha), c)
    return _built(e.m, "K", out)


@cache
def _hat(alpha):
    """cb.hat(alpha), memoized per key."""
    return cb.hat(alpha)


@cache
def _extension_gf(c, basis):
    """Sum of the basis element at _stat(basis)(pi) over linear extensions pi.

    Depends only on the equivalence class, so callers pass the canonical
    form c and the result is memoized on it.  Each extension is read off
    its structure's extension table as the colors along it and its
    ascent mask, which determine the statistic.
    """
    colors = c.colors
    out = {}
    for pick, ascents in ps.extension_table(c.above):
        iadd(out, _pattern_stat(pick(colors), ascents, basis), 1)
    return _built(c.m, basis, out)


@cache
def _pattern_stat(colors, ascents, basis):
    """_stat(basis) of every chain with these colors whose values rise
    exactly at the positions of the ascent mask.

    Both statistics compare adjacent letters only, so any values with
    that rise pattern serve; this walks up or down by one per position.
    """
    pi, v = [], 0
    for t, color in enumerate(colors):
        pi.append((v, color))
        v += 1 if ascents >> t & 1 else -1
    return _stat(basis)(tuple(pi))


def ppartition_gf(P):
    """The colored P-partition generating function, in the F basis.

    Sums F at the descent composition of every linear extension.
    """
    return _extension_gf(P.canonical, "F")


def enriched_gf(P):
    """The enriched P-partition generating function, in the K basis.

    Sums K at the peak composition of every linear extension; equals
    peak_projection(ppartition_gf(P)).
    """
    return _extension_gf(P.canonical, "K")


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
