"""The oracle enumerators as first written, kept as a test reference.

Each candidate level of each element is tested against everything below
it, and each leaf builds its monomial.  The library kernels must count the
same maps into the same terms, first visited in the same order.

The polynomial arithmetic on oracle.TPoly that the identity checks used
before they compared leaf tallies lives here too, as plain functions, and
so does the recursive walker that first listed truncate's keys.
"""

from cqsym import oracle as oc
from cqsym.terms import iadd


def _ref_topo(P):
    return sorted(range(P.n), key=lambda i: bin(P.below[i]).count("1"))


def _ref_monomial(levels, colors):
    cnt = {}
    for i, s in enumerate(levels):
        k = (s, colors[i])
        cnt[k] = cnt.get(k, 0) + 1
    return tuple(sorted(cnt.items()))


def reference_ppartitions(P, N):
    colors, below = P.colors, P.below
    topo = _ref_topo(P)
    levels = [0] * P.n
    out = {}

    def place(t):
        if t == P.n:
            iadd(out, _ref_monomial(levels, colors), 1)
            return
        b = topo[t]
        kb = colors[b]
        for s in range(1, N + 1):
            ok = True
            rest = below[b]
            while rest:
                bit = rest & -rest
                i = bit.bit_length() - 1
                rest ^= bit
                ka = (levels[i], colors[i])
                if ka > (s, kb) or (ka == (s, kb) and i > b):
                    ok = False
                    break
            if ok:
                levels[b] = s
                place(t + 1)

    place(0)
    return oc.TPoly(N, P.m, out)


def reference_enriched(P, N):
    colors, below = P.colors, P.below
    topo = _ref_topo(P)
    chosen = [None] * P.n
    out = {}

    def place(t):
        if t == P.n:
            iadd(out, _ref_monomial([s for s, _ in chosen], colors), 1)
            return
        b = topo[t]
        kb = colors[b]
        for s in range(1, N + 1):
            for sg in (0, 1):
                key_b = (s, kb, sg)
                ok = True
                rest = below[b]
                while rest:
                    bit = rest & -rest
                    i = bit.bit_length() - 1
                    rest ^= bit
                    sa, sga = chosen[i]
                    key_a = (sa, colors[i], sga)
                    if key_a > key_b or (key_a == key_b
                                         and sg != (1 if i < b else 0)):
                        ok = False
                        break
                if ok:
                    chosen[b] = (s, sg)
                    place(t + 1)

    place(0)
    return oc.TPoly(N, P.m, out)


def assert_kernels_match_reference(P, N):
    for kernel, ref in ((oc.enumerate_ppartitions, reference_ppartitions),
                        (oc.enumerate_enriched, reference_enriched)):
        got, want = kernel(P, N).terms, ref(P, N).terms
        assert got == want, (kernel.__name__, P, N)
        assert list(got) == list(want), (kernel.__name__, P, N)


# --- TPoly arithmetic -----------------------------------------------------

def _same_m(p, q):
    if p.m != q.m:
        raise ValueError("polynomials differ in color count")


def tpoly_add(p, q):
    _same_m(p, q)
    out = dict(p.terms)
    for key, c in q.terms.items():
        iadd(out, key, c)
    return oc.TPoly(max(p.N, q.N), p.m, out)


def tpoly_mul(p, q):
    _same_m(p, q)
    out = {}
    for ka, ca in p.terms.items():
        for kb, cb in q.terms.items():
            exps = dict(ka)
            for v, e in kb:
                exps[v] = exps.get(v, 0) + e
            iadd(out, tuple(sorted(exps.items())), ca * cb)
    return oc.TPoly(max(p.N, q.N), p.m, out)


def tpoly_shifted(p, offset):
    """Move every first index up by offset (a later block of levels)."""
    out = {}
    for key, c in p.terms.items():
        out[tuple((((i + offset), j), e) for (i, j), e in key)] = c
    return oc.TPoly(p.N + offset, p.m, out)


def tpoly_total(p):
    return sum(p.terms.values())


# --- truncation keys ------------------------------------------------------

def reference_embeddings(alpha, N):
    """The monomial keys of alpha's strictly increasing (level, color)
    supports in N levels, each sorted as it is yielded."""
    k = len(alpha)

    def go(t, prev, acc):
        if t == k:
            yield tuple(sorted(acc))
            return
        size, j = alpha[t]
        for i in range(1, N + 1):
            if prev is not None and (i, j) <= prev:
                continue
            yield from go(t + 1, (i, j), acc + [((i, j), size)])

    return tuple(go(0, None, []))
