"""Sparse term maps with exact coefficients, the letters of the QSym
bases, and the JSON forms of coefficients, compositions and posets.

Every algebra element in this package is a dict from a hashable basis
key to a nonzero coefficient.  Coefficients are Python ints wherever
possible and fractions.Fraction otherwise; the two mix freely in
arithmetic.  Zero coefficients are deleted eagerly so that equality of
elements is plain dict equality.

These helpers mutate their first argument; the element classes wrap
them behind a value-style interface.
"""

import re

BASES = ("M", "F", "K")   # monomial, fundamental and peak (qsym.QElt)

_COEFF = re.compile(r"-?[0-9]+(/[0-9]+)?")


def iadd(terms, key, c):
    """terms[key] += c, dropping the entry if it cancels."""
    if not c:
        return
    new = terms.get(key, 0) + c
    if new:
        terms[key] = new
    else:
        del terms[key]


def iadd_scaled(terms, other, c=1):
    """terms += c * other (other: key -> coeff)."""
    if not c:
        return
    for key, v in other.items():
        iadd(terms, key, c * v)


def coeff_to_json(c):
    """ints stay ints; anything else becomes a 'p/q' string."""
    if isinstance(c, int):
        return c
    from fractions import Fraction
    c = Fraction(c)
    if c.denominator == 1:
        return int(c)
    return "%d/%d" % (c.numerator, c.denominator)


def coeff_from_json(obj):
    """An integer, or a string "p" or "p/q" of ASCII digits with an optional
    "-" on p: no spaces, point or exponent, so it costs its length only."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj
    if not isinstance(obj, str) or not _COEFF.fullmatch(obj):
        raise ValueError("coefficient must be an integer or 'p/q' string")
    from fractions import Fraction
    try:
        f = Fraction(obj)
    except ZeroDivisionError:
        raise ValueError("coefficient %r has a zero denominator" % obj)
    return int(f) if f.denominator == 1 else f


def comp_json(alpha):
    """A composition (or a colored permutation) as [[part, color], ...]."""
    return [[s, c] for s, c in alpha]


def poset_json(P):
    return {"m": P.m,
            "elements": [[v, c] for v, c in P.elements()],
            "covers": [[a, b] for a, b in P.cover_pairs()]}
