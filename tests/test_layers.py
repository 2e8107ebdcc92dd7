"""The layer modules load on first touch: which layers a CLI call runs,
a first touch by assignment or deletion, thread safety of the first
touch, pickles, the package's names, which read one layer each, and memo
stats, which read only the layers that ran.

Each check runs in a fresh interpreter, where no layer has run yet.  A
layer has run once its sys.modules entry is a plain module.
"""

import json
import os
import pickle
import subprocess
import sys

import pytest

from cqsym import poset as ps

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
LAYERS = ("combinat", "poset", "qsym", "characters", "oracle")

# prints the layers that have run, as a JSON list, in LAYERS order
LOADED = ("import json, sys, types\n"
          "print(json.dumps([l for l in %r if type(sys.modules['cqsym.' + l])"
          " is types.ModuleType]))" % (LAYERS,))


def _python(code, *args):
    """The output lines of code run in a fresh interpreter with args."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _loaded_after(code):
    return json.loads(_python(code + "\n" + LOADED)[-1])


def test_importing_the_package_and_cli_runs_no_layer():
    assert _loaded_after("import cqsym") == []
    assert _loaded_after("import cqsym\nimport cqsym.cli") == []


POSET = '{"m":1,"elements":[[1,0],[2,0]],"covers":[[1,2]]}'
QSYM = '{"m":1,"basis":"F","terms":[{"comp":[[2,0]],"coeff":1}]}'


@pytest.mark.parametrize("argv, layers", [
    (["comp", "hat", "--in", '{"m":2,"comp":[[2,0],[1,1]]}'], ["combinat"]),
    (["perm", "peak-set", "--in", '{"m":1,"perm":[[2,0],[1,0]]}'],
     ["combinat"]),
    (["dims", "--m", "2"], ["combinat"]),
    (["poset", "antipode", "--in", POSET], ["poset"]),
    (["qsym", "convert", "--basis", "M", "--in", QSYM],
     ["combinat", "qsym"]),
    (["qsym", "antipode", "--in", QSYM], ["combinat", "qsym"]),
    (["qsym", "gamma", "--in", POSET], ["combinat", "poset", "qsym"]),
    (["qsym", "lambda", "--in", POSET], ["combinat", "poset", "qsym"]),
    (["oracle", "ppartitions", "--in", POSET], ["poset", "oracle"]),
    (["oracle", "split-check", "--in", POSET], ["poset", "oracle"]),
    (["verify", "--suite", "dimension-counts", "--m", "1"], ["combinat"]),
    (["char", "eval", "zetaQ", "--in", QSYM],
     ["combinat", "qsym", "characters"]),
    (["char", "eval", "nuP", "--in", POSET], ["poset", "characters"]),
    (["char", "psi", "zetaQ", "--in", QSYM],
     ["combinat", "qsym", "characters"]),
    (["oracle", "truncate", "--in", QSYM], ["combinat", "qsym", "oracle"]),
    (["poset", "count", "--m", "1", "--max-n", "3"], ["poset"]),
])
def test_a_call_runs_only_the_layers_its_verb_reads(argv, layers):
    code = ("import contextlib, io\nimport cqsym.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(%r) == 0\n" % (argv,))
    assert _loaded_after(code) == layers


def test_counting_the_memos_runs_no_layer():
    # forked verify shards count the memos before and after their cases
    code = """
import cqsym.verify as verify
assert not verify._memo_counts()
import cqsym.poset as ps
ps.canonical_posets(1, 2)
counts = verify._memo_counts()
assert counts["poset._canonical_posets", "misses"] == 1, counts
"""
    assert _loaded_after(code) == ["poset"]


def test_assigning_a_layer_attribute_first_runs_the_layer():
    code = """
import cqsym
f = lambda alpha: 0
cqsym.combinat.weight = f
assert cqsym.combinat.weight is f and callable(cqsym.combinat.hat)
"""
    assert _loaded_after(code) == ["combinat"]


def test_deleting_a_layer_attribute_first_runs_the_layer():
    code = """
import cqsym
del cqsym.qsym.multiply
assert not hasattr(cqsym.qsym, "multiply")
"""
    loaded = _loaded_after(code)
    assert "qsym" in loaded and "poset" not in loaded


def test_a_call_with_integer_coefficients_imports_no_fractions():
    code = ("import contextlib, io, sys\nimport cqsym.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(%r) == 0\n"
            "    assert cli.main(%r) == 0\n"
            "print('fractions' in sys.modules)"
            % (["comp", "hat", "--in", '{"m":2,"comp":[[2,0],[1,1]]}'],
               ["poset", "antipode", "--in", POSET]))
    assert _python(code) == ["False"]


def test_four_threads_first_touching_a_layer_all_succeed():
    code = """
import sys, threading
import cqsym
sys.setswitchinterval(1e-6)
reads = {"combinat": "weight", "poset": "canonical_posets",
         "qsym": "QElt", "characters": "zeta_qsym", "oracle": "truncate"}
for layer, attr in reads.items():
    barrier, got = threading.Barrier(4), []

    def touch():
        barrier.wait()
        got.append(getattr(sys.modules["cqsym." + layer], attr))

    threads = [threading.Thread(target=touch) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(got) == 4 and len(set(map(id, got))) == 1, (layer, got)
print("ok")
"""
    for _ in range(3):
        assert _python(code)[-1] == "ok"


def test_a_pickled_canonical_poset_unpickles_as_the_interned_one():
    P = ps.canonical_form(ps.make_poset(2, [(1, 0), (2, 1), (3, 0)],
                                        [(1, 2), (1, 3)]))
    code = """
import pickle, sys, types
import cqsym
assert type(sys.modules["cqsym.poset"]) is not types.ModuleType
P = pickle.loads(bytes.fromhex(sys.argv[1]))
import cqsym.poset as ps
Q = ps.canonical_form(ps.make_poset(2, [(1, 0), (2, 1), (3, 0)],
                                    [(1, 2), (1, 3)]))
print(P is Q and P.canonical is P)
"""
    assert _python(code, pickle.dumps(P).hex()) == ["True"]


# The public names of the package before its layers loaded on first touch.
PUBLIC = """
    BASES Character Domain PElt Poset QElt TPoly antichain_poset antipode
    antipode_chains_key antipode_inductive antipode_inductive_key
    antipode_key bar canonical_form canonical_posets chain_poset characters
    check_comp check_perm coarsenings color_runs combinat conjugate
    conjugate_via_diagram convolve coproduct counit counit_character
    count_peak_compositions descent_composition disjoint_union empty_poset
    enriched_gf enumerate_compositions enumerate_enriched
    enumerate_ppartitions equivalent extension_partition_check f_to_m hat
    inverse is_monochromatic is_naturally_labeled is_peak_composition k_to_m
    k_to_m_key labeled_orders m_rank m_to_f make_poset multiply
    natural_extension nu nu_poset nu_poset_all nu_qsym nu_qsym_all oracle
    peak_composition peak_compositions peak_function peak_projection
    peak_set poset poset_domain ppartition_gf product product_key
    product_law_check qsym qsym_antipode qsym_coproduct qsym_counit
    qsym_domain rainbow_decompose refinements refines rep_chain reverse
    ribbon_cells ribbon_decode shuffles split_alphabet_check standardize
    star terms to_monomial truncate universal_morphism weight zeta_poset
    zeta_poset_all zeta_qsym zeta_qsym_all""".split()


@pytest.mark.parametrize("read", [
    "names = {}\nexec('from cqsym import *', names)",
    "names = dir(cqsym)",
])
def test_the_package_exports_the_same_names(read):
    code = ("import cqsym\n%s\n" % read
            + "print(sorted(n for n in names if not n.startswith('_')))")
    assert _python(code)[-1] == str(sorted(PUBLIC))


def test_a_reexport_is_the_layer_attribute():
    code = """
import types, cqsym
assert cqsym.qsym_antipode is cqsym.qsym.antipode
assert cqsym.antipode is cqsym.poset.antipode
assert "antipode" not in vars(cqsym)
try:
    cqsym.nope
except AttributeError as exc:
    print(exc)
print(type(cqsym) is types.ModuleType)
"""
    assert _python(code + LOADED)[-3:] == [
        "module 'cqsym' has no attribute 'nope'", "True", '["poset", "qsym"]']


@pytest.mark.parametrize("name, layer", [
    ("weight", "combinat"), ("Poset", "poset"), ("qsym_counit", "qsym"),
    ("zeta_qsym", "characters"), ("TPoly", "oracle"),
])
def test_reading_a_reexport_runs_its_layer_alone(name, layer):
    assert _loaded_after("import cqsym\ncqsym.%s" % name) == [layer]
    assert _loaded_after("from cqsym import %s" % name) == [layer]


def test_verify_stats_list_no_cache_of_a_layer_the_suite_never_read():
    code = ("import contextlib, io, json\nimport cqsym.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    cli.main(['verify', '--suite', 'dimension-counts', "
            "'--m', '1', '--stats'])\n"
            "print(json.dumps(sorted(json.loads(out.getvalue())"
            "['stats']['caches'])))\n" + LOADED)
    names, loaded = map(json.loads, _python(code)[-2:])
    assert loaded == ["combinat"]
    assert all(name.startswith("combinat.") for name in names), names


def test_verify_stats_list_a_layer_only_a_forked_shard_ran():
    code = """
import json
import cqsym.verify as verify
from cqsym import qsym as qs

def test(i):
    if i:
        verify.oc.truncate(qs.QElt(1, "M", {((1, 0),): 1}), 2)
    return True

verify._processes = lambda cases: 2
reports, stats = verify.run_checks([("x", [0, 1], test, str)])
assert stats["processes"] == 2 and reports[0]["ok"], (reports, stats)
print(json.dumps([verify.cache_stats(stats["caches"])["oracle._embeddings"],
                  stats["caches"]["oracle._embeddings", "misses"]]))
"""
    info, child_misses = json.loads(_python(code)[-1])
    assert child_misses == 1
    assert info["misses"] == 1 and info["currsize"] == 1
