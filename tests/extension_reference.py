"""The linear-extension walk as first written, kept as a test reference.

Each extension is built as a colored permutation of the poset's letters
and its descent or peak composition is computed on it.  The library reads
the same extensions off a per-structure table and looks the statistic up
per (colors, ascent mask) pattern; it must give the same terms, first
visited in the same order.  The table itself is kept as the recursion
first wrote it, which the library builds one position per layer.
"""

from cqsym import combinat as cb
from cqsym import poset as ps
from cqsym import qsym as qs
from cqsym.terms import iadd


def _bits(mask):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def reference_extensions(P):
    n, below = P.n, P.below
    letters = P.elements()
    out = []
    acc = [None] * n

    def rec(t, assigned):
        if t == n:
            out.append(tuple(acc))
            return
        for i in _bits(~assigned & ((1 << n) - 1)):
            if not (below[i] & ~assigned):
                acc[t] = letters[i]
                rec(t + 1, assigned | (1 << i))

    rec(0, 0)
    return out


def reference_gfs(P):
    """Term maps of Γ(P) in F and of Λ(P) in K, from one walk."""
    gamma, lam = {}, {}
    for pi in reference_extensions(P.canonical):
        iadd(gamma, cb.descent_composition(pi), 1)
        iadd(lam, cb.peak_composition(pi), 1)
    return gamma, lam


def assert_gfs_match_reference(P):
    """Γ(P) and Λ(P) have the reference's terms in the reference's order."""
    gamma, lam = qs.ppartition_gf(P), qs.enriched_gf(P)
    assert (gamma.basis, lam.basis) == ("F", "K")
    want_gamma, want_lam = reference_gfs(P)
    assert list(gamma.terms.items()) == list(want_gamma.items())
    assert list(lam.terms.items()) == list(want_lam.items())


def reference_extension_table(above):
    """The extension table by the recursion first used: per extension, its
    index order and ascent mask, depth first with the least index first."""
    n, below = len(above), ps._invert(above)
    out = []
    acc = [None] * n

    def rec(t, assigned, ascents):
        if t == n:
            out.append((tuple(acc), ascents))
            return
        for i in _bits(~assigned & ((1 << n) - 1)):
            if not (below[i] & ~assigned):
                acc[t] = i
                rise = 1 << (t - 1) if t and acc[t - 1] < i else 0
                rec(t + 1, assigned | (1 << i), ascents | rise)

    rec(0, 0, 0)
    return out
