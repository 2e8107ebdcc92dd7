"""The verify runner: sharded runs report exactly what a serial run does.

The process count is forced through verify._processes, so these tests
fork children whatever the grid size or the CPU count.
"""

import argparse
import io
import json
import multiprocessing
import operator
import os
import threading
import time
from contextlib import redirect_stdout

import pytest

from cqsym import cli
from cqsym import combinat as cb
from cqsym import poset as ps
from cqsym import qsym as qs
from cqsym import verify
from cqsym.terms import poset_json
from hopf_reference import (reference_antipode_ok, reference_bialgebra_ok,
                            reference_by_larger_factor, reference_coassoc_ok,
                            reference_size_pairs)


def _strip_seconds(reports):
    return [{k: v for k, v in r.items() if k != "seconds"} for r in reports]


def _force(monkeypatch, processes):
    monkeypatch.setattr(verify, "_processes", lambda cases: processes)


def _run(monkeypatch, specs, processes):
    _force(monkeypatch, processes)
    reports, stats = verify.run_checks(specs)
    assert stats["processes"] == processes
    assert multiprocessing.active_children() == []
    return _strip_seconds(reports)


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_every_suite_reports_the_same_serial_and_sharded(suite, monkeypatch):
    for m in (1, 2):
        specs = verify.SUITES[suite](m, 3, 2, 0)
        assert (_run(monkeypatch, specs, 2)
                == _run(monkeypatch, specs, 1)), (suite, m)


def _spec(test, items=20):
    return ("injected", list(range(items)), test, lambda i: {"item": i})


def test_the_earliest_failure_over_all_shards_decides(monkeypatch):
    # 7 is in shard 1 of 2; shard 0 also fails, but later, at 12
    specs = [_spec(lambda i: i not in (7, 12)), _spec(lambda i: True),
             _spec(lambda i: i != 12)]
    serial = _run(monkeypatch, specs, 1)
    assert serial == _run(monkeypatch, specs, 2) == _run(monkeypatch, specs, 3)
    assert [(r["ok"], r["checked"], r["counterexample"]) for r in serial] == [
        (False, 8, {"item": 7}), (True, 20, None), (False, 13, {"item": 12})]


def test_owner_keys_keep_the_serial_report(monkeypatch):
    # the owner takes the case index, not the item: item i runs in shard
    # (i // 4) % k; the only failure is in shard 1
    spec = ("injected", ["case %d" % i for i in range(20)],
            lambda it: it != "case 5", lambda it: {"item": it},
            lambda i: i // 4)
    assert list(verify._shard(spec, 1, 2)) == [4, 5, 6, 7, 12, 13, 14, 15]
    assert _run(monkeypatch, [spec], 2) == _run(monkeypatch, [spec], 1) == [
        {"name": "injected", "ok": False, "checked": 6,
         "counterexample": {"item": "case 5"}}]


@pytest.mark.parametrize("m, max_n", [(1, 5), (2, 5), (3, 4)])
def test_pair_grids_match_the_listed_reference(m, max_n):
    grid = verify._poset_grid(m, max_n)
    owner = reference_by_larger_factor(grid)
    for max_total in range(max_n + 1):
        want = reference_size_pairs(grid, max_total)
        pairs = verify._SizePairs(grid, max_total, lambda P: P.n)
        assert len(pairs) == len(want)
        assert list(pairs) == want
        assert [pairs.owner(k) for k in range(len(pairs))] == [
            owner(pr) for pr in want]
    with pytest.raises(IndexError):
        pairs[len(want)]


@pytest.mark.parametrize("suite, check, m, max_n", [
    ("hopf-axioms", "poset-bialgebra", 1, 4),
    ("gamma-morphism", "gamma-algebra", 2, 3)])
def test_a_shard_walks_the_pairs_of_its_indices(suite, check, m, max_n):
    # poset-bialgebra shards by owner, gamma-algebra by index mod k
    spec = next(spec for spec in verify.SUITES[suite](m, max_n, 2, 0)
                if spec[0] == check)
    items = spec[1]
    for k in (1, 2, 3):
        for j in range(k):
            assert list(items.walk(j, k, len(spec) == 5)) == [
                (i, items[i]) for i in verify._shard(spec, j, k)], (k, j)


@pytest.mark.parametrize("suite, check", [
    ("hopf-axioms", "poset-bialgebra"), ("hopf-axioms", "qsym-bialgebra")])
def test_pair_items_take_negative_indices(suite, check):
    items = next(spec[1] for spec in verify.SUITES[suite](2, 3, 2, 0)
                 if spec[0] == check)
    n = len(items)
    assert n > 1
    assert items[-1] == items[n - 1] and items[-n] == items[0]
    for k in (n, -n - 1):
        with pytest.raises(IndexError):
            items[k]


def _with_wrong_truncation(monkeypatch, m, max_n, max_N):
    """The oracle-equivalence specs with truncate wrong at one (P, N),
    N < max_N, and that case."""
    specs = verify.SUITES["oracle-equivalence"](m, max_n, max_N, 0)
    P, N = bad = specs[0][1][5 * max_N]
    right = verify.oc.truncate

    def truncate(e, n):
        out = right(e, n)
        if n == N and e is qs.ppartition_gf(P):
            out.terms[()] = out.terms.get((), 0) + 1
        return out
    monkeypatch.setattr(verify.oc, "truncate", truncate)
    return specs, bad


def test_a_wrong_level_gives_the_serial_report_in_shards(monkeypatch):
    specs, (P, N) = _with_wrong_truncation(monkeypatch, 2, 3, 3)
    assert N < 3
    serial = _run(monkeypatch, specs, 1)
    assert serial == _run(monkeypatch, specs, 2)
    report = serial[0]
    assert report["name"] == "ppartitions-vs-gamma" and not report["ok"]
    assert report["checked"] == 5 * 3 + 1
    assert report["counterexample"] == {"poset": poset_json(P), "N": N}


def test_oracle_shards_enumerate_each_poset_once(monkeypatch):
    # the (P, N) cases of one poset share a shard, so the shards together
    # compute each generating function once, as a serial run does
    argv = ("verify", "--suite", "oracle-equivalence", "--m", "2",
            "--max-n", "3", "--max-N", "3", "--stats")
    misses = []
    for processes in (1, 2):
        qs._extension_gf.cache_clear()
        code, out = _cli(monkeypatch, processes, *argv)
        stats = json.loads(out)["stats"]
        assert code == 0 and stats["processes"] == processes
        misses.append(stats["caches"]["qsym._extension_gf"]["misses"])
    assert misses[0] == misses[1] > 0


def _raise_at(bad):
    def test(i):
        if i == bad:
            raise ZeroDivisionError("no inverse at %d" % i)
        return True
    return test


def test_an_exception_in_a_child_is_raised_again_here(monkeypatch):
    for processes in (1, 2):
        _force(monkeypatch, processes)
        with pytest.raises(ZeroDivisionError, match="^no inverse at 7$"):
            verify.run_checks([_spec(_raise_at(7))])
        assert multiprocessing.active_children() == []


def test_a_failure_before_the_exception_is_reported_instead(monkeypatch):
    def test(i):
        return _raise_at(9)(i) and i != 4
    assert (_run(monkeypatch, [_spec(test)], 2)
            == _run(monkeypatch, [_spec(test)], 1))


def test_an_exception_met_only_in_a_child_still_fails_the_run(monkeypatch):
    parent = os.getpid()

    def test(i):
        return _raise_at(7)(i) if os.getpid() != parent else True
    _force(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="ZeroDivisionError: no inverse"):
        verify.run_checks([_spec(test)])
    assert multiprocessing.active_children() == []


def test_an_exception_on_the_first_call_only_fails_the_run(monkeypatch):
    # item 6 is in shard 0 of 2, run here first at k = 1 and at k = 2; the
    # case passes when run again, and the run fails the same way at both
    messages = []
    for processes in (1, 2):
        met = set()

        def test(i):
            if i == 6 and i not in met:
                met.add(i)
                raise ZeroDivisionError("no inverse at %d" % i)
            return True
        _force(monkeypatch, processes)
        with pytest.raises(RuntimeError) as info:
            verify.run_checks([_spec(test)])
        messages.append(str(info.value))
        assert multiprocessing.active_children() == []
    assert messages == ["check injected raised ZeroDivisionError: no "
                        "inverse at 6, then passed when run again"] * 2


def test_an_interrupt_here_stops_the_children_at_once(monkeypatch):
    parent = os.getpid()

    def test(i):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(5)
        return True
    _force(monkeypatch, 3)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        verify.run_checks([_spec(test)])
    assert multiprocessing.active_children() == []
    assert time.perf_counter() - t0 < 4


def test_a_check_takes_the_time_of_its_slowest_shard(monkeypatch):
    parent = os.getpid()

    def test(i):
        if os.getpid() != parent:
            time.sleep(0.05)
        return True
    _force(monkeypatch, 2)
    reports, _ = verify.run_checks([_spec(test, items=8)])
    assert reports[0]["seconds"] >= 0.2


def test_a_process_with_other_threads_runs_serially():
    assert verify._processes(verify.SHARD_FLOOR - 1) == 1
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        assert verify._processes(10 ** 9) == 1
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()


def _cli(monkeypatch, processes, *argv):
    _force(monkeypatch, processes)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    assert multiprocessing.active_children() == []
    return code, buf.getvalue()


def test_a_child_exception_gives_the_serial_internal_error(monkeypatch):
    monkeypatch.setitem(verify.SUITES, "dimension-counts",
                        lambda m, max_n, max_N, seed: [_spec(_raise_at(3))])
    argv = ("verify", "--suite", "dimension-counts")
    serial = _cli(monkeypatch, 1, *argv)
    assert serial == _cli(monkeypatch, 2, *argv)
    assert serial[0] == 4
    assert json.loads(serial[1]) == {"error": {
        "type": "internal", "detail": "ZeroDivisionError: no inverse at 3"}}


def test_sharding_changes_only_the_stats_block(monkeypatch):
    argv = ("verify", "--suite", "hopf-axioms", "--m", "2", "--max-n", "3")
    assert _cli(monkeypatch, 2, *argv) == _cli(monkeypatch, 1, *argv)
    code, out = _cli(monkeypatch, 2, *argv, "--stats")
    stats = json.loads(out)["stats"]
    assert code == 0 and stats["processes"] == 2
    for name, own in verify.cache_stats().items():
        summed = stats["caches"][name]
        assert summed["maxsize"] == own["maxsize"]
        for field in ("hits", "misses", "currsize"):
            assert summed[field] >= own[field], (name, field)


def test_stats_show_the_extension_memos_grown_in_children(monkeypatch):
    # a memoized Γ would never read the two new caches, so it goes too
    new = (ps.extension_table, qs._pattern_stat)
    for fn in new + (qs._extension_gf,):
        fn.cache_clear()
    argv = ("verify", "--suite", "gamma-morphism", "--m", "2", "--max-n", "3",
            "--stats")
    code, out = _cli(monkeypatch, 2, *argv)
    caches = json.loads(out)["stats"]["caches"]
    assert code == 0
    for fn in new:
        summed = caches["%s.%s" % (fn.__module__[6:], fn.__name__)]
        own = fn.cache_info().currsize
        assert 0 < own < summed["currsize"], fn.__name__


def test_stats_add_the_memo_filling_of_every_child(monkeypatch):
    grid = [P for n in range(3) for P in ps.canonical_posets(2, n)]
    spec = ("products", [(A, B) for A in grid for B in grid],
            lambda pr: ps.product_key(*pr).n == pr[0].n + pr[1].n,
            lambda pr: None)
    ps._union.cache_clear()
    _force(monkeypatch, 1)
    verify.run_checks([spec])
    serial = ps._union.cache_info().misses
    ps._union.cache_clear()
    _force(monkeypatch, 2)
    _, stats = verify.run_checks([spec])
    grown = stats["caches"]
    own = ps._union.cache_info()
    assert 0 < grown["poset._union", "misses"] and 0 < own.misses < serial
    summed = verify.cache_stats(grown)["poset._union"]
    assert summed["misses"] == own.misses + grown["poset._union", "misses"]
    assert summed["misses"] >= serial
    assert summed["currsize"] == own.currsize + grown["poset._union",
                                                       "currsize"]


def _chain(colors):
    return ps.chain_poset(2, [(v, c) for v, c in enumerate(colors, 1)])


def test_the_antipode_check_keeps_no_memo_entry_for_its_own_poset():
    P = _chain((0, 1, 1)).canonical
    ps._antipode.cache_clear()
    try:
        assert verify._poset_antipode_ok(P)
        held = ps._antipode.cache_info()
        # S of the proper ideals is memoized; S(P) is a miss now
        assert held.currsize > 0
        assert ps.antipode_key(P) == ps.antipode_chains_key(P)
        assert ps._antipode.cache_info().misses == held.misses + 1
    finally:
        ps._antipode.cache_clear()


@pytest.mark.parametrize("piece", [(0, 1), (1, 1)])
def test_the_antipode_check_fails_on_a_wrong_memoized_antipode(piece):
    # in the chain 0 < 1 < 1, (0, 1) is only an ideal and (1, 1) only a
    # complement, so each route of the check meets its own wrong S
    P, Q = _chain((0, 1, 1)).canonical, _chain(piece).canonical
    ps._antipode.cache_clear()
    try:
        assert verify._poset_antipode_ok(P)
        ps.antipode_key(Q)[Q] += 1
        assert not verify._poset_antipode_ok(P)
    finally:
        ps._antipode.cache_clear()


def test_the_poset_checks_agree_with_the_reference():
    for m in (1, 2):
        grid = verify._poset_grid(m, 4)
        for P in grid:
            assert (verify._coassoc_ok(P, ps.Poset.splits)
                    == reference_coassoc_ok(P)), P
            assert verify._poset_antipode_ok(P) == reference_antipode_ok(P), P
        for pr in verify._SizePairs(grid, 4, lambda P: P.n):
            assert (verify._poset_bialgebra_ok(pr)
                    == reference_bialgebra_ok(pr)), pr


@pytest.mark.parametrize("piece", [(0, 1), (1, 1)])
def test_the_antipode_check_agrees_with_the_reference_on_a_wrong_antipode(
        piece):
    P, Q = _chain((0, 1, 1)).canonical, _chain(piece).canonical
    ps._antipode.cache_clear()
    try:
        ps.antipode_key(Q)[Q] += 1
        for X in verify._poset_grid(2, 4):
            assert verify._poset_antipode_ok(X) == reference_antipode_ok(X), X
        assert not verify._poset_antipode_ok(P)
    finally:
        ps._antipode.cache_clear()


def _with_wrong_splits(Q, check, case):
    """check(case) with the first pair of Q's memoized flat splits
    replaced by its last, the memo restored after."""
    for _ in Q.splits():
        pass
    good = Q._splits
    try:
        Q._splits = good[-2:] + good[2:]
        return check(case)
    finally:
        Q._splits = good


@pytest.mark.parametrize("piece", [(0, 1), (1, 1)])
def test_the_coassociativity_check_fails_on_wrong_memoized_splits(piece):
    # in the chain 0 < 1 < 1, (0, 1) is only an ideal and (1, 1) only a
    # complement, so each side of the check meets the wrong splits
    P, Q = _chain((0, 1, 1)).canonical, _chain(piece).canonical
    check = lambda X: verify._coassoc_ok(X, ps.Poset.splits)
    assert check(P)
    assert not _with_wrong_splits(Q, check, P)
    assert check(P)


def test_the_counit_check_fails_on_wrong_memoized_splits():
    # the chain's first split (empty, whole) becomes its last (whole, empty)
    P = _chain((0, 1, 1)).canonical
    check = lambda X: verify._counit_ok(X, ps.Poset.splits,
                                        operator.attrgetter("n"))
    assert check(P)
    assert not _with_wrong_splits(P, check, P)
    assert check(P)


def _named_reports(suite, names, m, max_n):
    """The reports of a suite's checks named in names, on a fresh build."""
    specs = [spec for spec in verify.SUITES[suite](m, max_n, 2, 0)
             if spec[0] in names]
    return _strip_seconds(verify.run_checks(specs)[0])


def test_the_qsym_counit_and_coassociativity_fail_on_a_lost_last_cut(
        monkeypatch):
    names = ("qsym-counit", "qsym-coassociativity")
    cuts = qs.deconcats
    monkeypatch.setattr(qs, "deconcats", lambda alpha: cuts(alpha)[:-1])
    reports = _named_reports("hopf-axioms", names, 2, 3)
    assert [r["name"] for r in reports] == list(names)
    assert not any(r["ok"] for r in reports)
    assert all(r["counterexample"] is not None for r in reports)
    monkeypatch.undo()
    assert all(r["ok"] for r in _named_reports("hopf-axioms", names, 2, 3))


def test_the_nu_counts_fail_when_every_extension_is_peak_free(monkeypatch):
    # a negative control: with no peak seen, the counts take extensions
    # that nu does not count
    names = ("nu-single-color-counting", "nu-full-counting")
    monkeypatch.setattr(cb, "peak_set", lambda pi: ())
    reports = _named_reports("nu-counting", names, 2, 4)
    assert [r["name"] for r in reports] == list(names)
    assert not any(r["ok"] for r in reports)
    assert all(r["counterexample"] is not None for r in reports)
    monkeypatch.undo()
    assert all(r["ok"] for r in _named_reports("nu-counting", names, 2, 4))


def test_the_bialgebra_check_fails_on_wrong_memoized_splits_of_a_product():
    pair = (_chain((0, 1)).canonical, _chain((1,)).canonical)
    assert verify._poset_bialgebra_ok(pair)
    assert not _with_wrong_splits(ps.product_key(*pair),
                                  verify._poset_bialgebra_ok, pair)
    assert verify._poset_bialgebra_ok(pair)


def _item_parts(item):
    """The posets and compositions an item holds, in order."""
    if isinstance(item, ps.Poset):
        return [item]
    if not isinstance(item, tuple):
        return []
    if all(isinstance(part, tuple) and len(part) == 2
           and all(type(x) is int for x in part) for part in item):
        return [item]   # a composition, () among them
    return [p for x in item for p in _item_parts(x)]


def _payload_parts(payload, args):
    """The posets and compositions a counterexample payload names, in
    order, each parsed as the CLI parses its input."""
    if "elements" in payload:
        return [cli.parse_poset(payload, args)]
    out = []
    for key in ("comp", "poset", "first", "second"):
        if isinstance(payload.get(key), dict):
            out.append(cli.parse_poset(payload[key], args))
        elif key in payload:
            m, alpha = cli.parse_comp(payload, args, key)
            assert m == args.m
            out.append(alpha)
    return out


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_every_counterexample_payload_replays_its_item(suite):
    for m in (1, 2):
        args = argparse.Namespace(m=m)
        for name, items, test, describe, *_ in verify.SUITES[suite](
                m, 2, 1, 0):
            for item in items:
                payload = describe(item)
                assert json.loads(json.dumps(payload)) == payload
                want = _item_parts(item)
                got = _payload_parts(payload, args)
                assert len(got) == len(want), (suite, name, payload)
                for parsed, part in zip(got, want):
                    if isinstance(part, ps.Poset):
                        assert parsed.canonical is part, (suite, name)
                    else:
                        assert parsed == part, (suite, name)
