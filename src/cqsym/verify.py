"""Verification suites behind `cqsym verify`.

Each suite takes (m, max_n, max_N, seed) and builds exactly that grid; its
caller resolves the defaults, DEFAULT_MAX_N[name] and max_N = 2.  A suite
returns its checks as (name, items, test, describe) specs: test(item)
says whether the identity holds on one case, and describe(item) is a
replayable JSON payload of a counterexample.  run_checks runs the specs
and gives one report per check: the check's name, whether it held, how
many cases it covered, the first counterexample, and its wall time in
seconds.  A check that covered no cases does not pass.

Cases are independent, so once a suite has SHARD_FLOOR cases run_checks
splits each check's items into k shards, one per available CPU up to
MAX_PROCESSES: case i runs in shard owner(i) mod k.  A pair's owner is
its larger factor's grid position, so a pair and its reverse, and all
pairs with the same larger factor, share a shard and the memos filled
for them there; a shard walks its pairs block by block
(_SizePairs.walk), with no search per pair.  A list case's owner is its
index, unless the spec carries a fifth element owner(index).  The
calling process runs shard 0 and forked children run the others, on a
copy-on-write copy of the grids and memos.  Every shard stops a check at
its first failure, and the earliest one over all shards decides the
report, so the reports are those of a serial run.  An exception is
recorded as text; the calling process runs its case again to raise it.
"""

import gc
import operator
import os
import random
import sys
import time
import types
from bisect import bisect_right
from collections import Counter
from functools import lru_cache

from . import characters as ch
from . import combinat as cb
from . import oracle as oc
from . import poset as ps
from . import qsym as qs
from .terms import comp_json, iadd, poset_json

# Below SHARD_FLOOR cases a suite runs in the calling process alone: at
# the grids measured there, a child's start-up and its own memo filling
# cost more than its shard saves.  Each process fills its own memos, so
# MAX_PROCESSES bounds the memory.
SHARD_FLOOR = 12000
MAX_PROCESSES = 8
_GROWN = ("hits", "misses", "currsize")


def _processes(cases):
    # forking a process that runs other threads can deadlock the child
    threads = sys.modules.get("threading")
    if (cases < SHARD_FLOOR or not hasattr(os, "fork")
            or threads is not None and threads.active_count() > 1):
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(cpus, MAX_PROCESSES)


def _shard(spec, shard, k):
    """Indices, in increasing order, of the spec's list items in shard."""
    n = len(spec[1])
    if len(spec) == 4 or k == 1:
        return range(shard, n, k)
    owner = spec[4]
    return (i for i in range(n) if owner(i) % k == shard)


def _run_shard(specs, shard, k):
    """Per spec: (index of the shard's first failing item or None, the
    "Type: message" text of the exception it raised or None, seconds)."""
    out = []
    for spec in specs:
        items, test = spec[1], spec[2]
        t0 = time.perf_counter()
        bad = exc = None
        if isinstance(items, _SizePairs):
            cases = items.walk(shard, k)
        else:
            cases = ((i, items[i]) for i in _shard(spec, shard, k))
        for i, item in cases:
            try:
                ok = test(item)
            except Exception as e:
                bad, exc = i, "%s: %s" % (type(e).__name__, e)
                break
            if not ok:
                bad = i
                break
        out.append((bad, exc, time.perf_counter() - t0))
    return out


def _memo_counts():
    return Counter({(name, f): info[f] for name, info
                    in cache_stats().items() for f in _GROWN})


def _shard_child(conn, specs, shard, k):
    before = _memo_counts()
    events = _run_shard(specs, shard, k)
    grown = _memo_counts()
    grown.subtract(before)
    conn.send((events, grown))
    conn.close()


def _forked_shards(specs, k):
    """The events of shard 0, run here, and of shards 1..k-1, run in
    forked children; and the children's memo growth, summed."""
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    children, shards, growth = [], [], Counter()
    gc.freeze()   # else a collection writes to, and so copies, every page
    try:
        for shard in range(1, k):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_shard_child,
                               args=(send, specs, shard, k), daemon=True)
            proc.start()
            send.close()
            children.append((proc, recv))
        shards.append(_run_shard(specs, 0, k))
        for proc, recv in children:
            try:
                events, grown = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError("a verify worker process exited with "
                                   "code %s" % proc.exitcode) from None
            shards.append(events)
            growth.update(grown)
    finally:
        for proc, recv in children:
            recv.close()
            if len(shards) < k:
                proc.terminate()
            proc.join()
        gc.unfreeze()
    return shards, growth


def run_checks(specs):
    """Run check specs; returns (reports, stats).

    The number of processes k is 1 below SHARD_FLOOR cases, without fork,
    or while other threads run, and otherwise one per available CPU up to
    MAX_PROCESSES.  stats holds k as "processes" and, as "caches", what
    the children added to the memos since the fork, by (cache name,
    "hits" | "misses" | "currsize"), for cache_stats.  If the earliest
    failure of a check is an exception, running its case again here
    raises it; a case that passes when run again fails the run with a
    RuntimeError naming the check and the first exception.
    """
    k = _processes(sum(len(spec[1]) for spec in specs))
    if k == 1:
        shards, growth = [_run_shard(specs, 0, 1)], Counter()
    else:
        shards, growth = _forked_shards(specs, k)
    reports = []
    for j, (name, items, test, describe, *_) in enumerate(specs):
        events = [shard[j] for shard in shards]
        bad, exc = min(((b, e) for b, e, _ in events if b is not None),
                       key=lambda ev: ev[0], default=(None, None))
        if exc is not None:
            test(items[bad])
            raise RuntimeError("check %s raised %s, then passed when run "
                               "again" % (name, exc))
        reports.append({
            "name": name, "ok": bad is None and len(items) > 0,
            "checked": len(items) if bad is None else bad + 1,
            "counterexample": None if bad is None else describe(items[bad]),
            "seconds": round(max(s for _, _, s in events), 6)})
    return reports, {"processes": k, "caches": growth}


def cache_stats(growth=None):
    """cache_info() of every functools cache in the cqsym modules that have
    run, by module.function, plus growth (run_checks' stats["caches"]) in
    hits, misses and currsize.  A layer that has not run here, whose caches
    are empty, is left unread unless growth names it: a forked shard ran
    it."""
    shards_ran = {key.partition(".")[0] for key, _ in growth or ()}
    out = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name.startswith("cqsym.") and (
                type(mod) is types.ModuleType or mod_name[6:] in shards_ran):
            for name, fn in sorted(vars(mod).items()):
                if hasattr(type(fn), "cache_info") \
                        and fn.__module__ == mod_name:
                    key = mod_name[6:] + "." + name
                    info = fn.cache_info()._asdict()
                    for f in _GROWN if growth else ():
                        info[f] += growth[key, f]
                    out[key] = info
    return out


DEFAULT_MAX_N = {
    "hopf-axioms": 5, "gamma-morphism": 5, "lambda-morphism": 5,
    "theta-morphism": 5, "antipode-consistency": 4,
    "oracle-equivalence": 4, "character-group": 4, "nu-counting": 4,
    "dimension-counts": 5,
}


_poset_n = operator.attrgetter("n")


def _poset_grid(m, max_n):
    return [P for n in range(max_n + 1) for P in ps.canonical_posets(m, n)]


def _comp_grid(m, max_n):
    return [a for n in range(max_n + 1)
            for a in cb.enumerate_compositions(m, n)]


class _SizePairs:
    """The pairs (A, B) of a grid sorted by size(item) with size(A) +
    size(B) <= max_total, in nested-loop order: by the size of A, then
    the size of B, then A's and B's grid positions.  The size is a
    poset's n or a composition's weight.  Pair k is found by arithmetic
    over the blocks of equal (size(A), size(B)), so no pair list is held.
    A pair's shard owner is its larger factor's grid position (walk)."""

    __slots__ = ("grid", "_starts", "_blocks", "_len")

    def __init__(self, grid, max_total, size):
        runs = []   # per size: [size, first grid position, count]
        for pos, item in enumerate(grid):
            s = size(item)
            if runs and runs[-1][0] == s:
                runs[-1][2] += 1
            else:
                runs.append([s, pos, 1])
        self.grid, self._starts, self._blocks = grid, [], []
        total = 0
        for i, a0, na in runs:
            for j, b0, nb in runs:
                if i + j <= max_total:
                    self._starts.append(total)
                    self._blocks.append((a0, na, b0, nb))
                    total += na * nb
        self._len = total

    def __len__(self):
        return self._len

    def __getitem__(self, k):
        if k < 0:
            k += self._len
        if not 0 <= k < self._len:
            raise IndexError("pair index out of range")
        b = bisect_right(self._starts, k) - 1
        a0, _, b0, nb = self._blocks[b]
        q, r = divmod(k - self._starts[b], nb)
        return self.grid[a0 + q], self.grid[b0 + r]

    def __iter__(self):
        return (pair for _, pair in self.walk(0, 1))

    def walk(self, shard, k):
        """(index, pair) of every pair in shard of k, by increasing index:
        the pair of grid positions (a, b) is in shard max(a, b) mod k.

        The grid is sorted by size, so a block's run of B lies wholly
        below its run of A, is the same run, or lies wholly above it.
        Below, the rows of A in the shard are taken whole; otherwise a
        row takes the B at or below A if A is in the shard, and every
        k-th B above A, so no pair costs a search.
        """
        grid = self.grid
        for start, (a0, na, b0, nb) in zip(self._starts, self._blocks):
            b1 = b0 + nb
            if b1 <= a0:
                for a in range(a0 + (shard - a0) % k, a0 + na, k):
                    i0 = start + (a - a0) * nb - b0   # pair (a, b) is i0 + b
                    A = grid[a]
                    for b in range(b0, b1):
                        yield i0 + b, (A, grid[b])
                continue
            for a in range(a0, a0 + na):
                i0 = start + (a - a0) * nb - b0
                mid = max(a + 1, b0)
                A = grid[a]
                if a % k == shard:
                    for b in range(b0, mid):
                        yield i0 + b, (A, grid[b])
                for b in range(mid + (shard - mid) % k, b1, k):
                    yield i0 + b, (A, grid[b])


def _pair_json(as_json):
    return lambda pr: {"first": as_json(pr[0]), "second": as_json(pr[1])}


def _comp_item_json(alpha):
    return {"comp": comp_json(alpha)}


def _color_poset_json(item):
    j, P = item
    return {"color": j, "poset": poset_json(P)}


def _counit_ok(x, splits, size):
    """Counit axiom: the pairs of splits(x) with a side of size 0 leave x."""
    left, right = {}, {}
    for a, b in splits(x):
        if not size(a):
            iadd(left, b, 1)
        if not size(b):
            iadd(right, a, 1)
    return left == {x: 1} == right


def _coassoc_ok(x, splits):
    """Coassociativity on x: splitting the first or the second side of
    each pair of splits(x) gives the same triples, with multiplicity."""
    lhs, rhs = {}, {}
    lget, rget = lhs.get, rhs.get
    for a, b in splits(x):
        for a1, a2 in splits(a):
            k = (a1, a2, b)
            lhs[k] = lget(k, 0) + 1
        for b1, b2 in splits(b):
            k = (a, b1, b2)
            rhs[k] = rget(k, 0) + 1
    return lhs == rhs


def _poset_bialgebra_ok(pair):
    A, B = pair
    pk = ps.product_key
    lhs = {}
    lget = lhs.get
    for s in pk(A, B).splits():
        lhs[s] = lget(s, 0) + 1
    rhs = {}
    rget = rhs.get
    bsplits = tuple(B.splits())
    for I1, R1 in A.splits():
        for I2, R2 in bsplits:
            k = (pk(I1, I2), pk(R1, R2))
            rhs[k] = rget(k, 0) + 1
    return lhs == rhs


def _poset_antipode_ok(P):
    """The antipode axiom S * id = id * S = ε on P.

    At n = 0 that is S(∅) = ∅.  Otherwise antipode_key builds
    S(P) = -P - L, with L the sum of S(I)·R over the proper splits (I, R)
    of P, so S * id (P) = P + S(P) + L is zero by construction, and
    id * S (P) = S(P) + P + Rt, with Rt the sum of I·S(R), is zero
    exactly when Rt = L.  One pass builds both sums and never computes
    S(P), which at the grid's top size no other poset reads.  Terms can
    cancel, and equal sums need not keep the same zero entries, so when
    the two maps differ they are compared again without them.
    """
    if P.n == 0:
        return ps.antipode_key(P) == {P: 1}
    pk, S = ps.product_key, ps.antipode_key
    left, right = {}, {}
    lget, rget = left.get, right.get
    for I, R in P.splits():
        if I.n and R.n:
            for Q, c in S(I).items():
                k = pk(Q, R)
                left[k] = lget(k, 0) + c
            for Q, c in S(R).items():
                k = pk(I, Q)
                right[k] = rget(k, 0) + c
    return left == right or _nonzero(left) == _nonzero(right)


def _nonzero(terms):
    return {k: c for k, c in terms.items() if c}


def _m_elt(m, alpha):
    return qs.QElt.basis_elt(m, "M", alpha)


def _qsym_bialgebra_ok(m, alpha, beta):
    ea, eb = _m_elt(m, alpha), _m_elt(m, beta)
    lhs = qs.coproduct(qs.to_monomial(qs.multiply(ea, eb)))
    rhs = {}
    for a1, a2 in qs.deconcats(alpha):
        for b1, b2 in qs.deconcats(beta):
            p1 = qs.to_monomial(qs.multiply(_m_elt(m, a1), _m_elt(m, b1)))
            p2 = qs.to_monomial(qs.multiply(_m_elt(m, a2), _m_elt(m, b2)))
            for k1, c1 in p1.terms.items():
                for k2, c2 in p2.terms.items():
                    iadd(rhs, (k1, k2), c1 * c2)
    return lhs == rhs


def _qsym_antipode_ok(m, alpha):
    left, right = {}, {}
    for a, b in qs.deconcats(alpha):
        sa = qs.antipode(_m_elt(m, a))
        for k, c in qs.to_monomial(qs.multiply(sa, _m_elt(m, b))).terms.items():
            iadd(left, k, c)
        sb = qs.antipode(_m_elt(m, b))
        for k, c in qs.to_monomial(qs.multiply(_m_elt(m, a), sb)).terms.items():
            iadd(right, k, c)
    want = {(): 1} if not alpha else {}
    return left == want and right == want


def _coalgebra_ok(gf, P):
    """The generating function gf turns poset splits into its coproduct."""
    lhs = qs.coproduct(gf(P))
    rhs = {}
    get = rhs.get
    for I, R in P.splits():
        right = gf(R).terms.items()
        for a, ca in gf(I).terms.items():
            for b, cbb in right:
                k = (a, b)
                rhs[k] = get(k, 0) + ca * cbb
    return lhs == rhs or lhs == _nonzero(rhs)


def _suite_hopf_axioms(m, max_n, max_N, seed):
    grid = _poset_grid(m, max_n)
    pairs = _SizePairs(grid, max_n, _poset_n)
    qn = min(max_n, 4)
    comps = _comp_grid(m, qn)
    prods = _SizePairs(comps, qn, cb.weight)
    # read here, not at import, so that a patched or traced one is used
    splits, cuts = ps.Poset.splits, qs.deconcats
    return [
        ("poset-counit", grid, lambda P: _counit_ok(P, splits, _poset_n),
         poset_json),
        ("poset-coassociativity", grid, lambda P: _coassoc_ok(P, splits),
         poset_json),
        ("poset-bialgebra", pairs, _poset_bialgebra_ok,
         _pair_json(poset_json)),
        ("poset-antipode", grid, _poset_antipode_ok, poset_json),
        ("qsym-counit", comps, lambda a: _counit_ok(a, cuts, len),
         _comp_item_json),
        ("qsym-coassociativity", comps, lambda a: _coassoc_ok(a, cuts),
         _comp_item_json),
        ("qsym-bialgebra", prods, lambda pr: _qsym_bialgebra_ok(m, *pr),
         _pair_json(comp_json)),
        ("qsym-antipode", comps, lambda a: _qsym_antipode_ok(m, a),
         _comp_item_json),
    ]


def _morphism_suite(prefix, gf_name):
    """Suite checking that qsym's map gf_name, read when the suite is
    built, is an algebra and a coalgebra morphism."""
    def suite(m, max_n, max_N, seed):
        gf = getattr(qs, gf_name)
        grid = _poset_grid(m, max_n)
        pairs = _SizePairs(grid, max_n, _poset_n)
        return [
            (prefix + "-algebra", pairs,
             lambda pr: qs.multiply(gf(pr[0]), gf(pr[1]))
             == gf(ps.product_key(pr[0], pr[1])),
             _pair_json(poset_json)),
            (prefix + "-coalgebra", grid,
             lambda P: _coalgebra_ok(gf, P), poset_json),
        ]
    return suite


def _suite_theta_morphism(m, max_n, max_N, seed):
    grid = _poset_grid(m, max_n)
    comps = _comp_grid(m, max_n)
    cpairs = _SizePairs(comps, max_n, cb.weight)
    fe = lambda a: qs.QElt.basis_elt(m, "F", a)
    return [
        ("theta-after-gamma", grid,
         lambda P: qs.peak_projection(qs.ppartition_gf(P))
         == qs.enriched_gf(P),
         poset_json),
        ("theta-antipode-commutes", comps,
         lambda a: qs.peak_projection(qs.antipode(fe(a)))
         == qs.antipode(qs.peak_projection(fe(a))),
         _comp_item_json),
        ("theta-algebra", cpairs,
         lambda pr: qs.peak_projection(qs.multiply(fe(pr[0]), fe(pr[1])))
         == qs.multiply(qs.peak_projection(fe(pr[0])),
                        qs.peak_projection(fe(pr[1]))),
         _pair_json(comp_json)),
    ]


def _suite_antipode_consistency(m, max_n, max_N, seed):
    grid = _poset_grid(m, max_n)
    comps = _comp_grid(m, max_n)
    peaks = [a for n in range(max_n + 1) for a in cb.peak_compositions(m, n)]

    def route_ok(basis):
        # the antipode read in M, before or after the change of basis
        def test(a):
            e = qs.QElt.basis_elt(m, basis, a)
            return qs.to_monomial(qs.antipode(e)) \
                == qs.antipode(qs.to_monomial(e))
        return test

    return [
        ("monomial-closed-vs-inductive", comps,
         lambda a: qs.antipode(_m_elt(m, a))
         == qs.antipode_inductive_key(a, m),
         _comp_item_json),
        ("fundamental-vs-monomial-route", comps, route_ok("F"),
         _comp_item_json),
        ("peak-vs-monomial-route", peaks, route_ok("K"), _comp_item_json),
        ("poset-inductive-vs-chains", grid,
         lambda P: ps.antipode_key(P) == ps.antipode_chains_key(P),
         poset_json),
    ]


def _level_check(enumerate_gf, gf, max_N):
    """Test of a case (P, N): the enumeration at N equals gf(P)
    truncated to N.  The enumeration is read off one at max_N, held by a
    one-entry lru_cache of this check for the last poset met: the cases
    of one poset come one after another, in the same shard."""
    enumerated = lru_cache(maxsize=1)(lambda P: enumerate_gf(P, max_N))

    def test(case):
        P, N = case
        return oc.at_level(enumerated(P), N) == oc.truncate(gf(P), N)
    return test


def _suite_oracle_equivalence(m, max_n, max_N, seed):
    """The oracle enumerations against Γ, Λ and the coproduct, product
    and extension identities.  The cases (P, N) are listed poset by
    poset, and each poset's cases go to one shard, so the enumerations
    behind them run once per poset, at max_N."""
    grid = _poset_grid(m, max_n)
    cases = [(P, N) for P in grid for N in range(1, max_N + 1)]
    pairs = _SizePairs(grid, max_n, _poset_n)
    cj = lambda case: {"poset": poset_json(case[0]), "N": case[1]}
    by_poset = lambda i: i // max_N
    return [
        ("ppartitions-vs-gamma", cases,
         _level_check(oc.enumerate_ppartitions, qs.ppartition_gf, max_N),
         cj, by_poset),
        ("enriched-vs-lambda", cases,
         _level_check(oc.enumerate_enriched, qs.enriched_gf, max_N),
         cj, by_poset),
        ("oracle-product-law", pairs,
         lambda pr: oc.product_law_check(
             pr[0], pr[1], ps.disjoint_union(pr[0], pr[1]), max_N),
         _pair_json(poset_json)),
        ("split-alphabet", grid,
         lambda P: oc.split_alphabet_check(P, max_N),
         poset_json),
        ("extension-partition", grid,
         lambda P: oc.extension_partition_check(P, max_N),
         poset_json),
    ]


def _suite_character_group(m, max_n, max_N, seed):
    keys = _comp_grid(m, max_n)
    grid = _poset_grid(m, max_n)
    gens = []
    for j in range(m):
        z = ch.zeta_qsym(m, j)
        gens.extend([z, ch.bar(z), ch.inverse(z)])
    rng = random.Random(seed)
    triples = [tuple(rng.choice(gens) for _ in range(3)) for _ in range(12)]

    def assoc_ok(tr):
        a, b, c = tr
        lhs = ch.convolve(ch.convolve(a, b), c)
        rhs = ch.convolve(a, ch.convolve(b, c))
        return all(lhs.of_key(k) == rhs.of_key(k) for k in keys)

    def inverse_ok(phi):
        inv = ch.inverse(phi)
        li, ri = ch.convolve(inv, phi), ch.convolve(phi, inv)
        return all(li.of_key(k) == ri.of_key(k) == (1 if not k else 0)
                   for k in keys)

    def pullback_ok(arg):
        j, P = arg
        if j is None:
            zp, zq = ch.zeta_poset_all(m), ch.zeta_qsym_all(m)
        else:
            zp, zq = ch.zeta_poset(m, j), ch.zeta_qsym(m, j)
        return zp.of_key(P) == zq(qs.ppartition_gf(P))

    pulls = [(j, P) for j in list(range(m)) + [None] for P in grid]
    return [
        ("convolution-associativity", triples, assoc_ok,
         lambda tr: {"names": [p.name for p in tr]}),
        ("two-sided-inverse", gens, inverse_ok,
         lambda p: {"name": p.name}),
        ("zeta-pullback-along-gamma", pulls, pullback_ok,
         _color_poset_json),
    ]


def _suite_nu_counting(m, max_n, max_N, seed):
    grid = _poset_grid(m, max_n)

    def peak_free(P, colors_ok):
        # linear extensions of P with no peak whose colors pass colors_ok
        return sum(1 for pi in P.linear_extensions()
                   if colors_ok([c for _, c in pi]) and not cb.peak_set(pi))

    def single_ok(arg):
        j, P = arg
        cnt = peak_free(P, lambda cols: all(c == j for c in cols))
        return ch.nu_poset(m, j).of_key(P) == (2 * cnt if P.n else 1)

    def full_ok(P):
        cnt = peak_free(P, lambda cols: cols == sorted(cols))
        return ch.nu_poset_all(m).of_key(P) == cnt << len(set(P.colors))

    def lambda_ok(P):
        return ch.nu_poset_all(m).of_key(P) \
            == ch.zeta_qsym_all(m)(qs.enriched_gf(P))

    def odd_ok(arg):
        j, P = arg
        phi = ch.nu_poset(m, j)
        return ch.bar(phi).of_key(P) == ch.inverse(phi).of_key(P)

    singles = [(j, P) for j in range(m) for P in grid]
    return [
        ("nu-single-color-counting", singles, single_ok,
         _color_poset_json),
        ("nu-full-counting", grid, full_ok, poset_json),
        ("nu-equals-zeta-after-lambda", grid, lambda_ok, poset_json),
        ("nu-oddness", singles, odd_ok,
         _color_poset_json),
    ]


def _suite_dimension_counts(m, max_n, max_N, seed):
    levels = list(range(1, max_n + 1))

    def qsym_ok(n):
        return len(cb.enumerate_compositions(m, n)) == m * (m + 1) ** (n - 1)

    def peak_ok(n):
        return len(cb.peak_compositions(m, n)) \
            == cb.count_peak_compositions(m, n)

    return [
        ("qsym-dimension-formula", levels, qsym_ok, lambda n: {"n": n}),
        ("peak-dimension-recurrence", levels, peak_ok,
         lambda n: {"n": n}),
    ]


SUITES = {
    "hopf-axioms": _suite_hopf_axioms,
    "gamma-morphism": _morphism_suite("gamma", "ppartition_gf"),
    "lambda-morphism": _morphism_suite("lambda", "enriched_gf"),
    "theta-morphism": _suite_theta_morphism,
    "antipode-consistency": _suite_antipode_consistency,
    "oracle-equivalence": _suite_oracle_equivalence,
    "character-group": _suite_character_group,
    "nu-counting": _suite_nu_counting,
    "dimension-counts": _suite_dimension_counts,
}
