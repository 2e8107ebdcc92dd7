"""The universal morphism as first written, kept as a test reference.

For every k it lists the k-fold iterated coproduct terms of each key with
every tensor factor of positive degree, then applies one character per
factor in every combination of colors.  The library sums the same terms
grouped by their first factor; the two must give equal term maps.
"""

from itertools import product

from cqsym import qsym as qs
from cqsym.terms import iadd


def _strict_splits(dom, key, parts, memo):
    """Iterated coproduct terms with every tensor factor of positive degree,
    as a multiplicity map on tuples of keys."""
    if (key, parts) in memo:
        return memo[key, parts]
    if parts == 1:
        out = {(key,): 1} if dom.degree(key) > 0 else {}
    else:
        out = {}
        for a, b in dom.splits(key):
            if dom.degree(a) < 1 or dom.degree(b) < parts - 1:
                continue
            for tail, mult in _strict_splits(dom, b, parts - 1, memo).items():
                iadd(out, (a,) + tail, mult)
    memo[key, parts] = out
    return out


def reference_universal_morphism(elt, chars):
    dom = chars[0].domain
    m = dom.m
    memo = {}
    out = {}
    for key, c in dom.to_terms(elt).items():
        n = dom.degree(key)
        if n == 0:
            iadd(out, (), c)
            continue
        for k in range(1, n + 1):
            for factors, mult in _strict_splits(dom, key, k, memo).items():
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
