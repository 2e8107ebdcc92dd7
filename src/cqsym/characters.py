"""Characters (algebra maps to Q) on the colored poset and QSym Hopf algebras.

A character is stored as a memoized function on basis keys: canonical posets
on one side, compositions read through the monomial basis on the other.
Convolution, the convolution inverse, and the induced morphism into QSym
touch the underlying algebra only through a small Domain handle, so the
machinery is shared between the two sides.  The induced morphism recurses
over first splits, Psi(key) = sum of phi_j(a) M_((deg a, j)) . Psi(b) over
splits (a, b) with deg a > 0, memoized per key for one call only.
"""

from functools import cache

from . import combinat as cb
from . import poset as ps
from . import qsym as qs
from .terms import iadd_scaled


class Domain:
    """Key-level access to one graded Hopf algebra."""

    __slots__ = ("m", "name", "degree", "splits", "antipode", "to_terms")

    def __init__(self, m, name, degree, splits, antipode, to_terms):
        self.m = m
        self.name = name
        self.degree = degree
        self.splits = splits
        self.antipode = antipode
        self.to_terms = to_terms

    def __repr__(self):
        return "Domain(%s)" % self.name


@cache
def poset_domain(m):
    return Domain(m, "poset[m=%d]" % m,
                  degree=lambda P: P.n,
                  splits=lambda P: P.splits(),
                  antipode=ps.antipode_key,
                  to_terms=lambda e: e.terms)


@cache
def qsym_domain(m):
    return Domain(m, "qsym[m=%d]" % m,
                  degree=cb.weight,
                  splits=qs.deconcats,
                  antipode=qs.antipode_m_key,
                  to_terms=lambda e: qs.to_monomial(e).terms)


class Character:
    """Multiplicative functional, determined by its values on basis keys."""

    __slots__ = ("domain", "name", "_fn", "_memo")

    def __init__(self, domain, fn, name):
        self.domain = domain
        self.name = name
        self._fn = fn
        self._memo = {}

    def of_key(self, key):
        try:
            return self._memo[key]
        except KeyError:
            v = self._fn(key)
            self._memo[key] = v
            return v

    def __call__(self, elt):
        if elt.m != self.domain.m:
            raise ValueError("operands must share the same number of colors")
        total = 0
        for key, c in self.domain.to_terms(elt).items():
            v = self.of_key(key)
            if v:
                total += c * v
        return total

    def __repr__(self):
        return "Character(%s on %s)" % (self.name, self.domain.name)


@cache
def counit_character(domain):
    return Character(domain, lambda key: 1 if domain.degree(key) == 0 else 0,
                     "counit")


def convolve(phi, psi, name=None):
    """Convolution product: evaluate the pair across the coproduct."""
    if phi.domain is not psi.domain:
        raise ValueError("convolution needs characters on one domain")
    dom = phi.domain

    def fn(key):
        total = 0
        for a, b in dom.splits(key):
            va = phi.of_key(a)
            if va:
                total += va * psi.of_key(b)
        return total

    return Character(dom, fn, name or "(%s)*(%s)" % (phi.name, psi.name))


def inverse(phi):
    """Convolution inverse, computed through the antipode."""
    dom = phi.domain

    def fn(key):
        total = 0
        for k2, c in dom.antipode(key).items():
            v = phi.of_key(k2)
            if v:
                total += c * v
        return total

    return Character(dom, fn, "inv(%s)" % phi.name)


def bar(phi):
    """Twist by parity of the degree."""
    dom = phi.domain

    def fn(key):
        v = phi.of_key(key)
        return -v if dom.degree(key) % 2 else v

    return Character(dom, fn, "bar(%s)" % phi.name)


def nu(phi, name=None):
    """Odd part inv(bar(phi)) * phi of a character."""
    return nu_pair(bar(phi), phi, name=name or "nu(%s)" % phi.name)


def nu_pair(phi, psi, name=None):
    return convolve(inverse(phi), psi, name=name)


@cache
def zeta_qsym(m, j):
    """One on the empty composition and on single parts of color j."""
    if not 0 <= j < m:
        raise ValueError("character color must lie in range(m)")

    def fn(alpha):
        if not alpha:
            return 1
        return 1 if len(alpha) == 1 and alpha[0][1] == j else 0

    return Character(qsym_domain(m), fn, "zetaQ:%d" % j)


@cache
def zeta_poset(m, j):
    """One on naturally labeled posets whose colors are all j."""
    if not 0 <= j < m:
        raise ValueError("character color must lie in range(m)")

    def fn(P):
        if ps.is_monochromatic(P, j) and ps.is_naturally_labeled(P):
            return 1
        return 0

    return Character(poset_domain(m), fn, "zetaP:%d" % j)


def _convolve_all(parts, name):
    # a new Character even for one part: the cached part keeps its name
    phi = parts[0]
    for psi in parts[1:]:
        phi = convolve(phi, psi)
    return Character(phi.domain, phi._fn, name)


@cache
def zeta_qsym_all(m):
    """Convolution of the color-j zetas in increasing color order."""
    return _convolve_all([zeta_qsym(m, j) for j in range(m)], "zetaQ")


@cache
def zeta_poset_all(m):
    return _convolve_all([zeta_poset(m, j) for j in range(m)], "zetaP")


@cache
def nu_qsym(m, j):
    return nu(zeta_qsym(m, j), name="nuQ:%d" % j)


@cache
def nu_poset(m, j):
    return nu(zeta_poset(m, j), name="nuP:%d" % j)


@cache
def nu_qsym_all(m):
    """Convolution of the single-color odd characters, like the zetas."""
    return _convolve_all([nu_qsym(m, j) for j in range(m)], "nuQ")


@cache
def nu_poset_all(m):
    return _convolve_all([nu_poset(m, j) for j in range(m)], "nuP")


def universal_morphism(elt, chars):
    """Morphism into colored QSym induced by one character per color.

    Psi(key) is 1 in degree 0; otherwise it is the sum, over the splits
    (a, b) of key with deg a > 0 and the colors j with chars[j](a) != 0,
    of chars[j](a) * M_((deg a, j)) concatenated with Psi(b).  By
    coassociativity that is the sum over every factorization into parts
    of positive degree.  Psi is memoized per key for this call only.
    With the zeta families this gives the identity on QSym and the
    P-partition generating function on posets.
    """
    dom = chars[0].domain
    m = dom.m
    if len(chars) != m or any(phi.domain is not dom for phi in chars):
        raise ValueError("universal morphism needs one character per color "
                         "on one domain")
    if elt.m != m:
        raise ValueError("operands must share the same number of colors")
    memo = {}

    def psi(key):
        # zero coefficients may stay in here; iadd_scaled drops them
        if key in memo:
            return memo[key]
        out = {} if dom.degree(key) else {(): 1}
        get = out.get
        for a, b in dom.splits(key):
            d = dom.degree(a)
            if d:
                for j, phi in enumerate(chars):
                    v = phi.of_key(a)
                    if v:
                        head = ((d, j),)
                        for alpha, c in psi(b).items():
                            k = head + alpha
                            out[k] = get(k, 0) + v * c
        memo[key] = out
        return out

    out = {}
    for key, c in dom.to_terms(elt).items():
        iadd_scaled(out, psi(key), c)
    psi = None   # else the closure's cell keeps it, and memo, in a cycle
    return qs.QElt(m, "M", out)
