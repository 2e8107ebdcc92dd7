"""End-to-end acceptance runs, one per shipping criterion.

Each test prints a single line naming the criterion, its outcome, its
wall time and the time of a fixed pure-Python reference loop run just
before it (visible under pytest -s); criteria that carry a time budget
assert it after the work is done.  The reference loop tells a slow host
from a slow criterion: the budgets are raw seconds, and a shared
host's speed can drift by about 2x between runs.
"""

import time

from cqsym import characters as ch
from cqsym import verify
from cqsym import combinat as cb
from cqsym import poset as ps
from cqsym import qsym as qs


def _reference_seconds():
    """Seconds of a fixed pure-Python loop of 10^6 integer steps."""
    t0 = time.perf_counter()
    total = 0
    for i in range(1000000):
        total += i * i % 7
    return time.perf_counter() - t0


def _criterion(label, fn, budget=None):
    ref = "reference loop %.3fs" % _reference_seconds()
    t0 = time.perf_counter()
    try:
        fn()
    except BaseException:
        print("%s FAIL (%.2fs; %s)" % (label, time.perf_counter() - t0, ref))
        raise
    dt = time.perf_counter() - t0
    if budget is not None and dt >= budget:
        print("%s FAIL (%.2fs over %ds budget; %s)" % (label, dt, budget, ref))
        raise AssertionError("%s took %.2fs, budget %ds" % (label, dt, budget))
    print("%s PASS (%.2fs; %s)" % (label, dt, ref))


def _run_suites(names, m_values, max_n=None, max_N=2):
    for name in names:
        for m in m_values:
            n = verify.DEFAULT_MAX_N[name] if max_n is None else max_n
            checks, _ = verify.run_checks(
                verify.SUITES[name](m, n, max_N, 0))
            for check in checks:
                assert check["checked"] > 0, (name, m, check["name"])
                assert check["ok"], (name, m, check)


def _M(m, *alphas):
    out = qs.QElt.zero(m)
    for coeff, alpha in alphas:
        out = out + qs.QElt.basis_elt(m, "M", alpha).scale(coeff)
    return out


# --- 1: dimension tables --------------------------------------------------

def _dimension_tables():
    for m in (1, 2, 3):
        fib = {0: 1, 1: m, 2: m * m}
        for n in range(1, 6):
            comps = cb.enumerate_compositions(m, n)
            assert len(comps) == m * (m + 1) ** (n - 1)
            if n not in fib:
                fib[n] = m * fib[n - 1] + fib[n - 2]
            peaks = cb.peak_compositions(m, n)
            assert len(peaks) == fib[n]
            assert cb.count_peak_compositions(m, n) == fib[n]
            expansions = [qs.to_monomial(qs.QElt.basis_elt(m, "K", a))
                          for a in peaks]
            assert qs.m_rank(expansions) == fib[n]


def test_criterion_1_dimension_tables():
    _criterion("criterion 1 dimension-tables", _dimension_tables, budget=10)


# --- 2: golden examples ---------------------------------------------------

def _golden_examples():
    # F into M, one and two and three colors
    assert qs.f_to_m(qs.QElt.basis_elt(1, "F", ((2, 0), (1, 0)))) == \
        _M(1, (1, ((2, 0), (1, 0))), (1, ((1, 0), (1, 0), (1, 0))))
    assert qs.f_to_m(qs.QElt.basis_elt(2, "F", ((1, 0), (2, 1), (1, 1)))) == \
        _M(2, (1, ((1, 0), (2, 1), (1, 1))),
           (1, ((1, 0), (1, 1), (1, 1), (1, 1))))
    assert qs.f_to_m(qs.QElt.basis_elt(3, "F", ((2, 0), (1, 2), (2, 1)))) == \
        _M(3, (1, ((2, 0), (1, 2), (2, 1))),
           (1, ((1, 0), (1, 0), (1, 2), (2, 1))),
           (1, ((2, 0), (1, 2), (1, 1), (1, 1))),
           (1, ((1, 0), (1, 0), (1, 2), (1, 1), (1, 1))))

    # deconcatenation coproduct
    assert qs.coproduct(qs.QElt.basis_elt(2, "M", ((2, 1), (1, 0)))) == {
        ((), ((2, 1), (1, 0))): 1,
        (((2, 1),), ((1, 0),)): 1,
        (((2, 1), (1, 0)), ()): 1,
    }

    # K into M with two colors
    assert qs.k_to_m(qs.QElt.basis_elt(2, "K", ((2, 0), (1, 0), (1, 1)))) == \
        _M(2, (8, ((2, 0), (1, 0), (1, 1))),
           (8, ((1, 0), (2, 0), (1, 1))),
           (16, ((1, 0), (1, 0), (1, 0), (1, 1))))

    # the hat map, plain and colored
    assert cb.hat(tuple((s, 0) for s in (3, 1, 1, 3, 2, 1, 1, 1))) == \
        tuple((s, 0) for s in (3, 5, 2, 3))
    assert cb.hat(((3, 0), (1, 0), (1, 1), (3, 1),
                   (2, 0), (1, 1), (1, 1), (1, 0))) == \
        ((3, 0), (1, 0), (4, 1), (2, 0), (2, 1), (1, 0))

    # conjugation on the ribbon diagram
    alpha = ((1, 0), (1, 2), (2, 1), (3, 1), (1, 2), (2, 2), (4, 0))
    tilde = ((1, 0), (1, 0), (1, 0), (1, 0), (1, 2), (2, 2),
             (1, 1), (1, 1), (2, 1), (1, 1), (1, 2), (1, 0))
    assert cb.conjugate(alpha) == tilde
    assert cb.conjugate(tilde) == alpha

    # equivalence verdicts
    P = ps.make_poset(1, [(v, 0) for v in (1, 2, 3, 4, 5, 6)],
                      [(5, 1), (5, 4), (3, 4), (1, 6), (4, 6), (6, 2)])
    Q = ps.make_poset(1, [(v, 0) for v in (3, 4, 5, 6, 8, 9)],
                      [(8, 3), (8, 6), (5, 6), (3, 9), (6, 9), (9, 4)])
    assert ps.equivalent(P, Q)
    cp = {1: 1, 2: 1, 3: 0, 4: 2, 5: 1, 6: 0}
    cq = {3: 1, 4: 1, 5: 0, 6: 2, 8: 1, 9: 0}
    Pc = ps.make_poset(3, [(v, cp[v]) for v in (1, 2, 3, 4, 5, 6)],
                       [(5, 1), (5, 4), (3, 4), (1, 6), (4, 6), (6, 2)])
    Qc = ps.make_poset(3, [(v, cq[v]) for v in (3, 4, 5, 6, 8, 9)],
                       [(8, 3), (8, 6), (5, 6), (3, 9), (6, 9), (9, 4)])
    assert ps.equivalent(Pc, Qc)
    V = ps.make_poset(2, [(1, 0), (2, 0), (3, 0)], [(2, 1), (2, 3)])
    W = ps.make_poset(2, [(1, 0), (2, 0), (3, 1)], [(2, 1), (2, 3)])
    assert not ps.equivalent(V, W)

    # linear extensions and order ideals
    wedge = ps.make_poset(1, [(1, 0), (4, 0), (5, 0)], [(5, 1), (5, 4)])
    assert sorted(tuple(v for v, _ in pi)
                  for pi in wedge.linear_extensions()) == \
        [(5, 1, 4), (5, 4, 1)]
    six = ps.make_poset(1, [(v, 0) for v in (1, 2, 3, 4)],
                        [(1, 4), (3, 4), (4, 2)])
    assert sorted(sorted(I.values) for I in six.ideals()) == \
        [[], [1], [1, 2, 3, 4], [1, 3], [1, 3, 4], [3]]


def test_criterion_2_golden_examples():
    _criterion("criterion 2 golden-examples", _golden_examples, budget=1)


# --- 3 through 7: batch suites --------------------------------------------

def test_criterion_3_hopf_axioms():
    _criterion("criterion 3 hopf-axioms",
               lambda: _run_suites(["hopf-axioms"], (1, 2), max_n=5),
               budget=60)


def test_criterion_4_morphisms():
    _criterion("criterion 4 morphisms",
               lambda: _run_suites(["gamma-morphism", "lambda-morphism",
                                    "theta-morphism"], (1, 2), max_n=5),
               budget=60)


def test_criterion_5_oracle():
    _criterion("criterion 5 oracle",
               lambda: _run_suites(["oracle-equivalence"], (1, 2),
                                   max_n=4, max_N=3),
               budget=120)


def test_criterion_6_antipode_routes():
    _criterion("criterion 6 antipode-routes",
               lambda: _run_suites(["antipode-consistency"], (1, 2), max_n=4))


def test_criterion_7_characters():
    _criterion("criterion 7 characters",
               lambda: _run_suites(["character-group", "nu-counting"],
                                   (1, 2), max_n=4))


# --- 8: the universal morphism --------------------------------------------

def _universality():
    for m in (1, 2):
        chars = [ch.zeta_poset(m, j) for j in range(m)]
        for n in range(5):
            for P in ps.canonical_posets(m, n):
                assert ch.universal_morphism(ps.PElt.basis(P), chars) == \
                    qs.f_to_m(qs.ppartition_gf(P))


def test_criterion_8_universality():
    _criterion("criterion 8 universality", _universality)
