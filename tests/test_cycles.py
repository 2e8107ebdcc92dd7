"""The kernels leave no cyclic garbage: with the collector off, a run of
each over the m=2, n <= 3 grid leaves nothing for gc.collect() to free.

A recursive closure that calls itself through its own cell is a cycle
(function, closure, cell) that holds the walk's tally or memo until the
collector runs, so each call would leave it behind.
"""

import gc

import pytest

from cqsym import characters as ch
from cqsym import oracle as oc
from cqsym import poset as ps
from cqsym import qsym as qs
from cqsym import verify


def _grid():
    return verify._poset_grid(2, 3)


def _oracle_enumerations():
    for P in _grid():
        oc.enumerate_ppartitions(P, 2)
        oc.enumerate_enriched(P, 2)


def _oracle_checks():
    for P in _grid():
        oc.split_alphabet_check(P, 2)
        oc.extension_partition_check(P, 2)


def _chain_antipodes():
    for P in _grid():
        ps.antipode_chains_key(P)


def _universal_morphisms():
    chars = [ch.zeta_poset(2, j) for j in range(2)]
    for P in _grid():
        ch.universal_morphism(ps.PElt.basis(P), chars)


def _qsym_sums():
    grid = _grid()
    for P in grid:
        gf = qs.ppartition_gf(P)
        qs.coproduct(gf)
        qs.multiply(gf, qs.ppartition_gf(grid[-1]))


def _gamma_morphism():
    specs = verify.SUITES["gamma-morphism"](2, 3, 2, 0)
    reports, stats = verify.run_checks(specs)
    assert stats["processes"] == 1 and all(r["ok"] for r in reports)


@pytest.mark.parametrize("run", [
    _oracle_enumerations, _oracle_checks, _chain_antipodes,
    _universal_morphisms, _qsym_sums, _gamma_morphism])
def test_a_run_leaves_no_cyclic_garbage(run):
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
