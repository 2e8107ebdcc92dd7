"""Characters (algebra maps to Q) on the colored poset and QSym Hopf algebras.

A character is stored as a memoized function on basis keys: canonical posets
on one side, compositions read through the monomial basis on the other.
Convolution, the convolution inverse, and the induced morphism into QSym
touch the underlying algebra only through a small Domain handle, so the
machinery is shared between the two sides.
"""

from functools import cache
from itertools import product

from . import combinat as cb
from . import poset as ps
from . import qsym as qs
from .terms import iadd


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
        assert elt.m == self.domain.m
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
    assert phi.domain is psi.domain
    dom = phi.domain

    def fn(key):
        total = 0
        for a, b in dom.splits(key):
            va = phi.of_key(a)
            if va:
                total += va * psi.of_key(b)
        return total

    return Character(dom, fn, name or "(%s)*(%s)" % (phi.name, psi.name))


def inverse(phi, name=None):
    """Convolution inverse, computed through the antipode."""
    dom = phi.domain

    def fn(key):
        total = 0
        for k2, c in dom.antipode(key).items():
            v = phi.of_key(k2)
            if v:
                total += c * v
        return total

    return Character(dom, fn, name or "inv(%s)" % phi.name)


def bar(phi, name=None):
    """Twist by parity of the degree."""
    dom = phi.domain

    def fn(key):
        v = phi.of_key(key)
        return -v if dom.degree(key) % 2 else v

    return Character(dom, fn, name or "bar(%s)" % phi.name)


def nu(phi, name=None):
    """Odd part inv(bar(phi)) * phi of a character."""
    return nu_pair(bar(phi), phi, name=name or "nu(%s)" % phi.name)


def nu_pair(phi, psi, name=None):
    return convolve(inverse(phi), psi, name=name)


@cache
def zeta_qsym(m, j):
    """One on the empty composition and on single parts of color j."""
    assert 0 <= j < m

    def fn(alpha):
        if not alpha:
            return 1
        return 1 if len(alpha) == 1 and alpha[0][1] == j else 0

    return Character(qsym_domain(m), fn, "zetaQ:%d" % j)


@cache
def zeta_poset(m, j):
    """One on naturally labeled posets whose colors are all j."""
    assert 0 <= j < m

    def fn(P):
        if ps.is_monochromatic(P, j) and ps.is_naturally_labeled(P):
            return 1
        return 0

    return Character(poset_domain(m), fn, "zetaP:%d" % j)


def _convolve_all(parts, name):
    phi = parts[0]
    for psi in parts[1:]:
        phi = convolve(phi, psi)
    phi.name = name
    return phi


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


_ssplit_memo = {}


def _strict_splits(dom, key, parts):
    """Iterated coproduct terms with every tensor factor of positive degree,
    as a multiplicity map on tuples of keys."""
    try:
        return _ssplit_memo[dom, key, parts]
    except KeyError:
        pass
    if parts == 1:
        out = {(key,): 1} if dom.degree(key) > 0 else {}
    else:
        out = {}
        for a, b in dom.splits(key):
            if dom.degree(a) < 1 or dom.degree(b) < parts - 1:
                continue
            for tail, mult in _strict_splits(dom, b, parts - 1).items():
                iadd(out, (a,) + tail, mult)
    _ssplit_memo[dom, key, parts] = out
    return out


def universal_morphism(elt, chars):
    """Morphism into colored QSym induced by one character per color.

    Each composition alpha picks out the coproduct terms whose degree
    profile matches alpha; the part colors say which character to apply to
    each tensor factor.  With the zeta families this gives the identity on
    QSym and the P-partition generating function on posets.
    """
    dom = chars[0].domain
    m = dom.m
    assert len(chars) == m
    for phi in chars:
        assert phi.domain is dom
    out = {}
    for key, c in dom.to_terms(elt).items():
        n = dom.degree(key)
        if n == 0:
            iadd(out, (), c)
            continue
        for k in range(1, n + 1):
            for factors, mult in _strict_splits(dom, key, k).items():
                opts = []
                for f in factors:
                    vals = [(j, chars[j].of_key(f)) for j in range(m)]
                    vals = [jv for jv in vals if jv[1]]
                    if not vals:
                        break
                    opts.append(vals)
                else:
                    degs = tuple(dom.degree(f) for f in factors)
                    for combo in product(*opts):
                        coef = c * mult
                        for _, v in combo:
                            coef = coef * v
                        alpha = tuple((degs[i], combo[i][0])
                                      for i in range(k))
                        iadd(out, alpha, coef)
    return qs.QElt(m, "M", out)
