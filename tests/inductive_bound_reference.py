"""The inductive antipode's first CLI work bound, kept as a test reference.

It modelled the product of S(M_b) and M_c through F chain shuffles and
the rewrite back into M, so it grew with the part weights.  The bound
that replaced it counts parts only, and must accept every element this
one accepts.
"""

import math

from cqsym import combinat as cb
from cqsym.cli import MAX_EXPANSION, _at_most


def reference_bound_inductive_antipode(e):
    """Refuse the M element e if its inductive antipode does too much work.

    Counted before computing.  The recursion visits every distinct prefix
    p of a key of e once, and for each cut p = b|c multiplies S(M_b) by
    M_c.  Let b and c have weights u and v, c have l parts, and b and c
    have r_b and r_c one-color runs.  Then S(M_b) has at most 2^(u-r_b)
    F keys and M_c has 2^(v-l), and each pair of them shuffles C(u+v, u)
    chain pairs.  The product's F keys rewrite into at most
    d * 3^(u+v-max(r_b, r_c)) M terms, where d = 1 when b and c share one
    color, else d = C(u+v, u) for the interleaved color words.  Both
    factors' own rewrites into F are smaller than these two counts.
    """
    size, seen = 0, set()
    for alpha in e.terms:
        for j in range(2, len(alpha) + 1):
            p = alpha[:j]
            if p in seen:
                continue
            seen.add(p)
            one_color = len(cb.rainbow_decompose(p)) == 1
            for i in range(1, j):
                b, c = p[:i], p[i:]
                u, v = cb.weight(b), cb.weight(c)
                runs_b = len(cb.rainbow_decompose(b))
                runs_c = len(cb.rainbow_decompose(c))
                pairs = math.comb(u + v, u)
                words = 1 if one_color else pairs
                size += pairs * 2 ** (u - runs_b + v - len(c))
                size += words * 3 ** (u + v - max(runs_b, runs_c))
                _at_most(size, MAX_EXPANSION,
                         "inductive antipode shuffles and terms")
