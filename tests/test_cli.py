"""The command line front end: JSON round trips and exit codes."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest

from cqsym import cli
from cqsym import combinat as cb
from cqsym import poset as ps
from cqsym import qsym as qs
from cqsym import verify
from inductive_bound_reference import reference_bound_inductive_antipode


def _run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, json.loads(buf.getvalue())


def _payload(obj):
    return json.dumps(obj)


# --- comp and perm verbs --------------------------------------------------

def test_comp_hat():
    code, out = _run("comp", "hat", "--in", _payload(
        {"m": 2, "comp": [[3, 0], [1, 0], [1, 1], [3, 1],
                          [2, 0], [1, 1], [1, 1], [1, 0]]}))
    assert code == 0
    assert out == {"m": 2, "comp": [[3, 0], [1, 0], [4, 1],
                                    [2, 0], [2, 1], [1, 0]]}


def test_comp_check_and_star():
    code, out = _run("comp", "check", "--in",
                     _payload({"m": 1, "comp": [[2, 0], [1, 0]]}))
    assert code == 0
    assert out == {"m": 1, "weight": 3, "length": 2, "peak": True}
    code, out = _run("comp", "star", "--in",
                     _payload({"m": 1, "comp": [[3, 0], [3, 0]]}))
    assert out["comp"] == [[3, 0], [1, 0], [2, 0]]


def test_comp_conjugate():
    comp = [[1, 0], [1, 2], [2, 1], [3, 1], [1, 2], [2, 2], [4, 0]]
    tilde = [[1, 0], [1, 0], [1, 0], [1, 0], [1, 2], [2, 2],
             [1, 1], [1, 1], [2, 1], [1, 1], [1, 2], [1, 0]]
    code, out = _run("comp", "conjugate", "--in",
                     _payload({"m": 3, "comp": comp}))
    assert code == 0 and out["comp"] == tilde


def test_comp_enumerate():
    code, out = _run("comp", "enumerate", "--m", "2", "--max-n", "3")
    assert code == 0
    assert [len(r["comps"]) for r in out["rows"]] == [1, 2, 6, 18]


def test_perm_statistics():
    perm = [[1, 0], [2, 1], [3, 1], [4, 0], [8, 1], [5, 1], [7, 0], [6, 0]]
    code, out = _run("perm", "descent-comp", "--in",
                     _payload({"m": 2, "perm": perm}))
    assert code == 0
    assert out["comp"] == [[1, 0], [2, 1], [1, 0], [1, 1],
                           [1, 1], [1, 0], [1, 0]]
    perm = [[3, 1], [7, 1], [2, 1], [5, 1], [4, 0], [1, 0],
            [8, 1], [9, 1], [6, 1]]
    code, out = _run("perm", "peak-set", "--in",
                     _payload({"m": 2, "perm": perm}))
    assert out["peaks"] == [2, 8]
    code, out = _run("perm", "peak-comp", "--in",
                     _payload({"m": 2, "perm": perm}))
    assert out["comp"] == [[2, 1], [2, 1], [2, 0], [2, 1], [1, 1]]


# --- poset verb -----------------------------------------------------------

def test_poset_ideals_golden():
    code, out = _run("poset", "ideals", "--in", _payload(
        {"m": 1,
         "elements": [[1, 0], [2, 0], [3, 0], [4, 0]],
         "covers": [[1, 4], [3, 4], [4, 2]]}))
    assert code == 0
    assert out["count"] == 6
    assert out["ideals"] == [[], [1], [3], [1, 3], [1, 3, 4], [1, 2, 3, 4]]


def test_poset_equivalent_verdicts():
    first = {"m": 3,
             "elements": [[1, 1], [2, 1], [3, 0], [4, 2], [5, 1], [6, 0]],
             "covers": [[5, 1], [5, 4], [3, 4], [1, 6], [4, 6], [6, 2]]}
    second = {"m": 3,
              "elements": [[3, 1], [4, 1], [5, 0], [6, 2], [8, 1], [9, 0]],
              "covers": [[8, 3], [8, 6], [5, 6], [3, 9], [6, 9], [9, 4]]}
    code, out = _run("poset", "equivalent", "--in",
                     _payload({"first": first, "second": second}))
    assert code == 0 and out == {"equivalent": True}

    recolored = dict(second, elements=[[3, 1], [4, 1], [5, 0], [6, 2],
                                       [8, 1], [9, 1]])
    code, out = _run("poset", "equivalent", "--in",
                     _payload({"first": first, "second": recolored}))
    assert code == 0 and out == {"equivalent": False}


def test_poset_extensions():
    code, out = _run("poset", "extensions", "--in", _payload(
        {"m": 1, "elements": [[1, 0], [4, 0], [5, 0]],
         "covers": [[5, 1], [5, 4]]}))
    assert code == 0
    assert out["perms"] == [[[5, 0], [1, 0], [4, 0]],
                            [[5, 0], [4, 0], [1, 0]]]


def test_poset_count():
    code, out = _run("poset", "count", "--m", "2", "--max-n", "3")
    assert code == 0
    assert [r["classes"] for r in out["rows"]] == [1, 2, 11, 108]


def test_poset_check_reports_canonical_forms():
    shifted = {"m": 2, "elements": [[5, 0], [6, 1], [8, 0]],
               "covers": [[6, 5], [6, 8]]}
    code, out = _run("poset", "check", "--in", _payload(shifted))
    assert code == 0
    assert out == {"m": 2, "size": 3, "canonical": False}
    _, canon = _run("poset", "canonical", "--in", _payload(shifted))
    code, out = _run("poset", "check", "--in", _payload(canon))
    assert code == 0
    assert out == {"m": 2, "size": 3, "canonical": True}


def test_poset_antipode_routes_agree():
    payload = _payload({"m": 2, "elements": [[1, 0], [2, 1], [3, 0]],
                        "covers": [[2, 1], [2, 3]]})
    _, a = _run("poset", "antipode", "--in", payload)
    _, b = _run("poset", "antipode", "--route", "chains", "--in", payload)
    assert a == b


# --- qsym verb ------------------------------------------------------------

def _qsym_elt(m, basis, *terms):
    return {"m": m, "basis": basis,
            "terms": [{"coeff": c, "comp": comp} for c, comp in terms]}


def test_qsym_convert_golden():
    code, out = _run("qsym", "convert", "--basis", "M", "--in", _payload(
        _qsym_elt(2, "K", (1, [[2, 0], [1, 0], [1, 1]]))))
    assert code == 0
    assert out["basis"] == "M"
    coeffs = {tuple(map(tuple, t["comp"])): t["coeff"] for t in out["terms"]}
    assert coeffs == {((2, 0), (1, 0), (1, 1)): 8,
                      ((1, 0), (2, 0), (1, 1)): 8,
                      ((1, 0), (1, 0), (1, 0), (1, 1)): 16}


def test_qsym_theta_golden():
    comp = [[3, 0], [1, 0], [1, 1], [3, 1], [2, 0], [1, 1], [1, 1], [1, 0]]
    code, out = _run("qsym", "theta", "--in", _payload(
        _qsym_elt(2, "F", (1, comp))))
    assert code == 0
    assert out["basis"] == "K"
    assert out["terms"] == [{"coeff": 1,
                             "comp": [[3, 0], [1, 0], [4, 1],
                                      [2, 0], [2, 1], [1, 0]]}]


def test_qsym_coproduct_golden():
    code, out = _run("qsym", "coproduct", "--in", _payload(
        _qsym_elt(2, "M", (1, [[2, 1], [1, 0]]))))
    assert code == 0
    assert out["terms"] == [
        {"coeff": 1, "left": [], "right": [[2, 1], [1, 0]]},
        {"coeff": 1, "left": [[2, 1]], "right": [[1, 0]]},
        {"coeff": 1, "left": [[2, 1], [1, 0]], "right": []},
    ]


def test_qsym_gamma_lambda():
    poset = {"m": 1, "elements": [[1, 0], [4, 0], [5, 0]],
             "covers": [[5, 1], [5, 4]]}
    code, out = _run("qsym", "gamma", "--in", _payload(poset))
    assert code == 0
    assert out["basis"] == "F"
    # extensions 541 and 514 contribute F(1,1,1) and F(1,2)
    assert out["terms"] == [{"coeff": 1, "comp": [[1, 0], [1, 0], [1, 0]]},
                            {"coeff": 1, "comp": [[1, 0], [2, 0]]}]
    code, out = _run("qsym", "lambda", "--in", _payload(poset))
    assert code == 0
    assert out["basis"] == "K"
    assert out["terms"] == [{"coeff": 2, "comp": [[3, 0]]}]


def test_qsym_product_and_antipode():
    code, out = _run("qsym", "product", "--in", _payload(
        {"first": _qsym_elt(1, "M", (1, [[1, 0]])),
         "second": _qsym_elt(1, "M", (1, [[1, 0]]))}))
    assert code == 0
    code, out = _run("qsym", "convert", "--basis", "M", "--in", _payload(out))
    coeffs = {tuple(map(tuple, t["comp"])): t["coeff"] for t in out["terms"]}
    assert coeffs == {((1, 0), (1, 0)): 2, ((2, 0),): 1}

    payload = _payload(_qsym_elt(1, "M", (1, [[1, 0], [1, 0]])))
    _, closed = _run("qsym", "antipode", "--in", payload)
    _, inductive = _run("qsym", "antipode", "--route", "inductive",
                        "--in", payload)
    assert closed == inductive


def test_qsym_counit():
    _, out = _run("qsym", "counit", "--in", _payload(
        _qsym_elt(2, "M", (5, []))))
    assert out["value"] == 5


# --- char verb ------------------------------------------------------------

def test_char_eval_on_qsym():
    payload = _payload(_qsym_elt(2, "K", (1, [[2, 0], [1, 1]])))
    _, out = _run("char", "eval", "zetaQ", "--in", payload)
    assert out["value"] == 4
    _, out = _run("char", "eval", "zetaQ:0", "--in", payload)
    assert out["value"] == 0
    _, out = _run("char", "eval", "counit", "--in", payload)
    assert out["value"] == 0


def test_char_eval_on_poset():
    poset = {"m": 2, "elements": [[1, 0], [2, 1]], "covers": [[1, 2]]}
    _, out = _run("char", "eval", "nuP", "--in", _payload(poset))
    assert out["value"] == 4
    _, out = _run("char", "eval", "zetaP", "--in", _payload(poset))
    assert out["value"] == 1
    _, out = _run("char", "eval", "nuP:0", "--in", _payload(poset))
    assert out["value"] == 0


def test_char_psi_matches_gamma():
    poset = {"m": 2, "elements": [[1, 0], [2, 1], [3, 0]],
             "covers": [[2, 1], [2, 3]]}
    _, psi = _run("char", "psi", "zetaP", "--in", _payload(poset))
    _, gamma = _run("qsym", "gamma", "--in", _payload(poset))
    _, gamma_m = _run("qsym", "convert", "--basis", "M", "--in",
                      _payload(gamma))
    assert psi == gamma_m


@pytest.mark.parametrize("op, name, detail", [
    ("eval", "zetaX", "unknown character 'zetaX'"),
    ("eval", "zetaQ:x", "character color must be an integer, got 'zetaQ:x'"),
    ("eval", "zetaQ:", "character color must be an integer, got 'zetaQ:'"),
    ("eval", "zetaQ: 0",
     "character color must be an integer, got 'zetaQ: 0'"),
    ("eval", "zetaQ:\u0660",
     "character color must be an integer, got 'zetaQ:\u0660'"),
    ("eval", "zetaQ:1_0",
     "character color must be an integer, got 'zetaQ:1_0'"),
    ("psi", "zetaQ:0", "unknown character family 'zetaQ:0'"),
    ("psi", "counit", "unknown character family 'counit'"),
])
def test_char_names_outside_the_table_are_parse_errors(op, name, detail):
    code, out = _run("char", op, name, "--in",
                     _payload(_qsym_elt(2, "M", (1, [[1, 0]]))))
    assert code == 2
    assert out == {"error": {"type": "parse", "detail": detail}}


def test_char_color_is_checked_before_the_payload_body():
    code, out = _run("char", "eval", "zetaQ:5", "--m", "2", "--in",
                     '{"basis": "X", "terms": 7}')
    assert code == 3
    assert out == {"error": {"type": "domain", "invariant":
                             "composition colors must lie in range(m)"}}


def test_char_counit_reads_either_payload():
    code, out = _run("char", "eval", "counit", "--in", _payload(
        _qsym_elt(2, "F", (3, []), (1, [[1, 0]]))))
    assert code == 0 and out == {"name": "counit", "m": 2, "value": 3}
    code, out = _run("char", "eval", "counit", "--in",
                     _payload({"m": 2, "elements": []}))
    assert code == 0 and out == {"name": "counit", "m": 2, "value": 1}


def test_char_rewrites_an_f_payload_into_m_once(monkeypatch):
    calls = []
    f_to_m = qs.f_to_m
    monkeypatch.setattr(qs, "f_to_m", lambda e: calls.append(e) or f_to_m(e))
    code, out = _run("char", "eval", "nuQ", "--in",
                     _payload(_qsym_elt(2, "F", (1, [[2, 0], [1, 1]]))))
    assert code == 0 and len(calls) == 1


# --- oracle verb ----------------------------------------------------------

def test_oracle_enumeration_round_trip():
    poset = {"m": 1, "elements": [[1, 0], [2, 0]], "covers": [[1, 2]]}
    _, direct = _run("oracle", "ppartitions", "--max-N", "2", "--in",
                     _payload(poset))
    _, gamma = _run("qsym", "gamma", "--in", _payload(poset))
    _, truncated = _run("oracle", "truncate", "--max-N", "2", "--in",
                        _payload(gamma))
    assert direct["terms"] == truncated["terms"]


def test_oracle_enriched_golden():
    poset = {"m": 1, "elements": [[1, 0], [2, 0]], "covers": [[1, 2]]}
    _, out = _run("oracle", "enriched", "--max-N", "1", "--in",
                  _payload(poset))
    assert out["terms"] == [{"exps": [[1, 0, 2]], "coeff": 2}]


def test_oracle_split_check():
    poset = {"m": 2, "elements": [[1, 0], [2, 1], [3, 0]],
             "covers": [[2, 1], [2, 3]]}
    _, out = _run("oracle", "split-check", "--max-N", "2", "--in",
                  _payload(poset))
    assert out["ok"] is True


# --- verify and dims ------------------------------------------------------

def test_verify_suite_passes():
    code, out = _run("verify", "--suite", "dimension-counts", "--m", "2",
                     "--max-n", "4")
    assert code == 0
    assert out["ok"] is True
    assert all(c["ok"] for c in out["checks"])
    assert all(c["checked"] > 0 for c in out["checks"])


def test_verify_stats_adds_seconds_and_cache_info():
    argv = ["verify", "--suite", "lambda-morphism", "--m", "1", "--max-n", "3"]
    code, plain = _run(*argv)
    code_s, out = _run(*argv, "--stats")
    assert code == code_s == 0
    caches = out.pop("stats")["caches"]
    for check in out["checks"]:
        assert isinstance(check.pop("seconds"), float)
    assert out == plain
    assert {"qsym._mul_keys", "qsym._cut_keys", "qsym._extension_gf",
            "poset._union"} <= set(caches)
    for info in caches.values():
        assert set(info) == {"hits", "misses", "maxsize", "currsize"}
    assert caches["qsym._mul_keys"]["currsize"] > 0
    assert caches["qsym._cut_keys"]["currsize"] > 0


def test_verify_stats_show_the_shared_pickers():
    code, out = _run("verify", "--suite", "hopf-axioms", "--m", "1",
                     "--max-n", "2", "--stats")
    assert code == 0
    assert out["stats"]["caches"]["poset._shared_picker"]["currsize"] > 0


def test_verify_stats_show_the_split_side_memo():
    ps._canonical_from.cache_clear()
    for n in range(4):
        for P in ps.canonical_posets(1, n):
            P._splits = None
    code, out = _run("verify", "--suite", "hopf-axioms", "--m", "1",
                     "--max-n", "3", "--stats")
    assert code == 0
    info = out["stats"]["caches"]["poset._canonical_from"]
    assert info["currsize"] > 0 and info["hits"] > 0


def test_verify_stats_show_the_expansion_memos():
    code, out = _run("verify", "--suite", "oracle-equivalence", "--m", "1",
                     "--max-n", "3", "--stats")
    assert code == 0
    caches = out["stats"]["caches"]
    for name in ("qsym._k_to_m_key", "qsym._refinements"):
        assert caches[name]["currsize"] > 0, name


def test_verify_unknown_suite_is_a_parse_error():
    code, out = _run("verify", "--suite", "no-such-suite")
    assert code == 2
    assert out["error"]["type"] == "parse"


def test_verify_with_no_cases_fails():
    code, out = _run("verify", "--suite", "dimension-counts", "--m", "2",
                     "--max-n", "0")
    assert code == 1
    assert out["ok"] is False
    assert [(c["checked"], c["ok"]) for c in out["checks"]] == [(0, False)] * 2


def test_dims_golden():
    code, out = _run("dims", "--m", "2", "--max-n", "5")
    assert code == 0
    assert [r["qsym"] for r in out["rows"]] == [2, 6, 18, 54, 162]
    assert [r["peak"] for r in out["rows"]] == [2, 4, 10, 24, 58]


def test_dims_past_the_reach_of_enumeration():
    start = time.perf_counter()
    code, out = _run("dims", "--m", "3", "--max-n", "13")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out["rows"][-1]["qsym"] == 3 * 4 ** 12 == 50331648


# --- error handling -------------------------------------------------------

def test_invalid_json_exits_2():
    code, out = _run("comp", "hat", "--in", "{not json")
    assert code == 2
    assert out["error"]["type"] == "parse"
    assert "detail" in out["error"]


def test_a_payload_file_that_is_not_utf8_exits_2(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"m": 1, "comp": [[1, 0]], "note": "caf\xe9"}')
    code, out = _run("comp", "hat", "--in", str(path))
    assert code == 2 and out["error"]["type"] == "parse"
    assert out["error"]["detail"].startswith("cannot read %s: " % path)


def test_json_nested_past_the_recursion_limit_exits_2():
    code, out = _run("comp", "hat", "--in", "[" * 100000)
    assert code == 2
    assert out == {"error": {"type": "parse", "detail":
                             "invalid JSON: arrays and objects nest too "
                             "deeply"}}


def test_a_json_integer_past_the_digit_limit_exits_2():
    code, out = _run("comp", "hat", "--in",
                     '{"m": 1, "comp": [[%s, 0]]}' % ("9" * 5000))
    assert code == 2
    assert out == {"error": {"type": "parse", "detail":
                             "invalid JSON: integer literals must have at "
                             "most %d digits" % sys.get_int_max_str_digits()}}


def test_missing_field_exits_2():
    code, out = _run("comp", "hat", "--in", _payload({"m": 1}))
    assert code == 2
    assert out["error"]["type"] == "parse"


def test_domain_violation_exits_3():
    code, out = _run("comp", "hat", "--in",
                     _payload({"m": 1, "comp": [[1, 1]]}))
    assert code == 3
    assert out["error"]["type"] == "domain"
    assert "color" in out["error"]["invariant"]


def test_poset_cycle_exits_3():
    code, out = _run("poset", "ideals", "--in", _payload(
        {"m": 1, "elements": [[1, 0], [2, 0]], "covers": [[1, 2], [2, 1]]}))
    assert code == 3
    assert out["error"]["type"] == "domain"


def test_zero_denominator_exits_2():
    code, out = _run("qsym", "counit", "--in", _payload(
        _qsym_elt(2, "M", ("1/0", [[1, 0]]))))
    assert code == 2
    assert out["error"]["type"] == "parse"
    assert "zero denominator" in out["error"]["detail"]


def test_unexpected_exception_exits_4(monkeypatch):
    def broken(alpha):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.cb, "hat", broken)
    code, out = _run("comp", "hat", "--in",
                     _payload({"m": 1, "comp": [[1, 0]]}))
    assert code == 4
    assert out == {"error": {"type": "internal",
                             "detail": "RuntimeError: boom"}}


def test_conflicting_m_exits_2():
    code, out = _run("comp", "hat", "--m", "2", "--in",
                     _payload({"m": 1, "comp": [[1, 0]]}))
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("char", "eval", "zetaQ", "--in", '{"m": 0, "basis": "M", "terms": []}'),
    ("char", "psi", "zetaQ", "--in", '{"m": 0, "basis": "M", "terms": []}'),
    ("qsym", "counit", "--in", '{"m": -1, "basis": "M", "terms": []}'),
], ids=["char-eval", "char-psi", "qsym-counit"])
def test_payload_m_below_one_exits_3(argv):
    code, out = _run(*argv)
    assert code == 3
    assert out == {"error": {"type": "domain", "invariant": "m must be >= 1"}}


@pytest.mark.parametrize("argv", [
    ("comp",),
    ("dims", "--m", "x"),
    # an option the verb does not read
    ("perm", "check", "--suite", "x", "--in", '{"m":1,"perm":[[1,0]]}'),
    ("verify", "--suite", "dimension-counts", "--m", "1", "--basis", "F"),
    ("dims", "--m", "2", "--in", "{}"),
    ("dims", "--m", "2", "--json-indent", "2"),
], ids=["missing-op", "bad-int", "perm-suite", "verify-basis", "dims-in",
        "json-indent"])
def test_argument_errors_exit_2_with_json(argv, capsys):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out)["error"]["type"] == "parse"
    assert err == ""


_NINE = {"m": 1, "elements": [[v, 0] for v in range(1, 10)]}
_EIGHT = {"m": 1, "elements": [[v, 0] for v in range(1, 9)]}
_FIVE = {"m": 1, "elements": [[v, 0] for v in range(1, 6)]}
_TWO_COLORED = {"elements": [[1, 0], [2, 1], [3, 0]], "covers": [[1, 2]]}
_ELEVEN_PARTS = {"m": 1, "basis": "M",
                 "terms": [{"coeff": 1, "comp": [[1, 0]] * 11}]}


def _one_part(basis, w):
    return {"m": 1, "basis": basis, "terms": [{"coeff": 1, "comp": [[w, 0]]}]}


_F18 = _one_part("F", 18)    # 2^17 refinements in M
_M18 = _one_part("M", 18)    # 2^17 refinements in F
_K10 = _one_part("K", 10)    # up to 4^9 terms on the way into F


def _two_parts(a, b):
    return {"m": 1, "basis": "M",
            "terms": [{"coeff": 1, "comp": [[a, 0], [b, 0]]}]}


def _shuffle_pair(a, b):
    return {"m": 1, "left": [[v, 0] for v in range(1, a + 1)],
            "right": [[v, 0] for v in range(a + 1, a + b + 1)]}


@pytest.mark.parametrize("argv, invariant", [
    (("poset", "count", "--m", "1", "--max-n", "7"), "--max-n must be <= 6"),
    (("comp", "refinements", "--in", '{"m": 1, "comp": [[17, 0]]}'),
     "composition weight must be <= 16"),
    (("comp", "coarsenings", "--in",
      '{"m": 2, "comp": [[9, 0], [8, 1]]}'),
     "composition weight must be <= 16"),
    (("poset", "canonical", "--in", _payload(_NINE)),
     "poset size must be <= 8"),
    (("poset", "product", "--in", _payload({"first": _FIVE, "second": _FIVE})),
     "poset size must be <= 8"),
    (("poset", "count", "--m", "3", "--max-n", "5"), "--max-n must be <= 4"),
    (("comp", "enumerate", "--m", "3", "--max-n", "9"),
     "compositions of weight --max-n must be <= 65536"),
    (("comp", "enumerate-peak", "--m", "1", "--max-n", "9" * 30),
     "compositions of weight --max-n must be <= 65536"),
    (("oracle", "enriched", "--max-N", "3", "--in", _payload(_EIGHT)),
     "oracle choices (2N)^n must be <= 1048576"),
    (("oracle", "truncate", "--max-N", "2", "--in", _payload(_ELEVEN_PARTS)),
     "oracle choices (2N)^n must be <= 1048576"),
    (("qsym", "convert", "--basis", "M", "--in", _payload(_F18)),
     "terms in the M expansion must be <= 65536"),
    (("qsym", "product", "--in",
      _payload({"first": _K10, "second": _one_part("M", 1)})),
     "terms in the F expansion must be <= 65536"),
    (("qsym", "theta", "--in", _payload(_M18)),
     "terms in the F expansion must be <= 65536"),
    (("qsym", "antipode", "--route", "inductive", "--in", _payload(_F18)),
     "terms in the M expansion must be <= 65536"),
    (("qsym", "antipode", "--route", "inductive", "--in",
      _payload(_ELEVEN_PARTS)),
     "inductive antipode shuffles and terms must be <= 65536"),
    (("oracle", "truncate", "--max-N", "1", "--in", _payload(_F18)),
     "terms in the M expansion must be <= 65536"),
    (("perm", "shuffle", "--in", _payload(_shuffle_pair(10, 10))),
     "shuffles C(a+b, a) must be <= 65536"),
    (("qsym", "product", "--in",
      _payload({"first": _one_part("F", 10), "second": _one_part("M", 10)})),
     "chain-pair shuffles must be <= 65536"),
    (("dims", "--m", "3", "--max-n", "8000"), "--max-n must be <= 1661"),
    (("verify", "--suite", "dimension-counts", "--m", "3", "--max-n", "40"),
     "compositions of weight --max-n must be <= 65536"),
    (("verify", "--suite", "hopf-axioms", "--m", "1", "--max-n", "8"),
     "--max-n must be <= 6"),
    (("verify", "--suite", "gamma-morphism", "--m", "3"),
     "--max-n must be <= 4"),
    (("verify", "--suite", "oracle-equivalence", "--m", "1", "--max-n", "4",
      "--max-N", "20"), "oracle choices (2N)^n must be <= 1048576"),
    # 10^4 = 10,000 choices pass on one poset of 4 elements, but summed
    # over the grid's canonical posets they come to 88,374,431
    (("verify", "--suite", "oracle-equivalence", "--m", "3", "--max-n", "4",
      "--max-N", "5"),
     "oracle choices (2N)^n over the grid must be <= 67108864"),
    (("poset", "count", "--m", "600"), "m must be <= 7"),
    (("verify", "--suite", "hopf-axioms", "--m", "9"), "m must be <= 7"),
], ids=["count-max-n", "refinements", "coarsenings", "poset-size",
        "product-size", "count-m-plus-n", "enumerate", "enumerate-huge",
        "oracle", "oracle-truncate", "qsym-convert", "qsym-product",
        "qsym-theta", "qsym-antipode-inductive",
        "qsym-antipode-inductive-work", "oracle-truncate-expansion",
        "perm-shuffle", "qsym-product-shuffles", "dims-digits",
        "verify-compositions", "verify-posets", "verify-default-max-n",
        "verify-oracle-choices", "verify-oracle-grid", "count-huge-m",
        "verify-huge-m"])
def test_exponential_operations_are_bounded(argv, invariant, capsys):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert code == 3
    assert json.loads(out) == {"error": {"type": "domain",
                                         "invariant": invariant}}
    assert err == ""


def test_bounds_admit_their_limits():
    eight = {"m": 1, "elements": [[v, 0] for v in range(1, 9)],
             "covers": [[v, v + 1] for v in range(1, 8)]}
    code, out = _run("poset", "canonical", "--in", _payload(eight))
    assert code == 0 and len(out["elements"]) == 8
    code, out = _run("comp", "refinements", "--in",
                     _payload({"m": 1, "comp": [[16, 0]]}))
    assert code == 0 and len(out["comps"]) == 2 ** 15
    code, out = _run("poset", "count", "--m", "3", "--max-n", "4")
    assert code == 0 and len(out["rows"]) == 5
    code, out = _run("comp", "enumerate", "--m", "3", "--max-n", "8")
    assert code == 0 and len(out["rows"][-1]["comps"]) == 3 * 4 ** 7
    code, out = _run("oracle", "enriched", "--max-N", "2", "--in",
                     _payload(_EIGHT))
    assert code == 0 and out["terms"]
    # 4^8 = 2^16 is the bound's count for K_(9) into F; K * K needs none
    code, out = _run("qsym", "convert", "--basis", "F", "--in",
                     _payload(_one_part("K", 9)))
    assert code == 0 and out["basis"] == "F" and out["terms"]
    code, out = _run("qsym", "product", "--in",
                     _payload({"first": _K10, "second": _one_part("K", 1)}))
    assert code == 0 and out["basis"] == "K" and out["terms"]
    # C(18, 9) = 48,620 chain pairs for F_(9) * F_(9)
    code, out = _run("qsym", "product", "--in", _payload(
        {"first": _one_part("F", 9), "second": _one_part("F", 9)}))
    assert code == 0 and out["basis"] == "F" and out["terms"]
    # S(M_(3,7)) counts 3^2 for its two parts, whatever their weights
    code, out = _run("qsym", "antipode", "--route", "inductive", "--in",
                     _payload(_two_parts(3, 7)))
    assert code == 0 and out["terms"] == [
        {"coeff": 1, "comp": [[7, 0], [3, 0]]},
        {"coeff": 1, "comp": [[10, 0]]}]
    # C(18, 9) = 48,620 shuffles of 9 + 9 letters
    code, out = _run("perm", "shuffle", "--in", _payload(_shuffle_pair(9, 9)))
    assert code == 0 and len(out["perms"]) == 48620
    # 256 colors: one convolution per color, or one character per color
    code, out = _run("char", "eval", "zetaP", "--m", "256", "--in",
                     _payload(_TWO_COLORED))
    assert code == 0 and out == {"name": "zetaP", "m": 256, "value": 1}
    code, out = _run("char", "psi", "nuQ", "--in",
                     _payload(_qsym_elt(256, "M", (1, [[1, 255]]))))
    assert code == 0 and out["terms"] == [{"coeff": 2, "comp": [[1, 255]]}]


def test_unbounded_grids_are_refused_at_once():
    for argv in (("dims", "--m", "3", "--max-n", "8000"),
                 ("verify", "--suite", "dimension-counts", "--m", "3",
                  "--max-n", "40"),
                 ("verify", "--suite", "hopf-axioms", "--m", "1",
                  "--max-n", "8"),
                 ("verify", "--suite", "oracle-equivalence", "--m", "3",
                  "--max-n", "4", "--max-N", "7"),
                 ("verify", "--suite", "oracle-equivalence", "--m", "3",
                  "--max-n", "4", "--max-N", "5"),
                 ("verify", "--suite", "oracle-equivalence", "--m", "1",
                  "--max-n", "6", "--max-N", "2")):
        start = time.perf_counter()
        code, out = _run(*argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 3 and out["error"]["type"] == "domain", argv


@pytest.mark.parametrize("max_N", ["0", "-3"])
def test_verify_refuses_a_truncation_level_below_one_before_the_grid(
        max_N, monkeypatch):
    def no_grid(m, n):
        raise AssertionError("the poset grid was built")

    monkeypatch.setattr(ps, "canonical_posets", no_grid)
    code, out = _run("verify", "--suite", "oracle-equivalence", "--m", "1",
                     "--max-N", max_N)
    assert code == 3
    assert out == {"error": {"type": "domain",
                             "invariant": "truncation level must be >= 1"}}


# the oracle-equivalence grids that passed both choice bounds, though the
# suite lists and truncates every level up to --max-N for each poset
@pytest.mark.parametrize("m, max_n, max_N", [
    (1, 0, 10 ** 6), (1, 1, 2000), (1, 2, 128), (1, 2, 512), (2, 3, 32),
    (1, 1, 17), (4, 3, 17)])
def test_oracle_equivalence_refuses_levels_past_the_cap(
        m, max_n, max_N, monkeypatch):
    def no_grid(*args):
        raise AssertionError("the suite's grid was built")

    monkeypatch.setitem(verify.SUITES, "oracle-equivalence", no_grid)
    invariant = "--max-N of oracle-equivalence must be <= 16"
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^%s$" % invariant):
        cli._bound_verify_grid("oracle-equivalence", m, max_n, max_N)
    code, out = _run("verify", "--suite", "oracle-equivalence", "--m",
                     str(m), "--max-n", str(max_n), "--max-N", str(max_N))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == {"error": {"type": "domain", "invariant": invariant}}
    assert cli._bound_verify_grid("oracle-equivalence", m, max_n, 16) is None


def test_the_canonical_counts_are_the_sizes_of_the_grids():
    limit = cli.MAX_COUNT_M_PLUS_N
    assert len(cli.CANONICAL_COUNTS) == limit
    for m, counts in enumerate(cli.CANONICAL_COUNTS, 1):
        assert list(counts) == [len(ps.canonical_posets(m, n))
                                for n in range(limit - m + 1)], m


def test_grid_bounds_admit_their_limits():
    # 10^1000 >= 3 * 4^1660, the last dims row, which prints in full
    code, out = _run("dims", "--m", "3", "--max-n", "1661")
    assert code == 0 and out["rows"][-1]["qsym"] == 3 * 4 ** 1660
    # 3 * 4^7 = 49,152 compositions of weight 8
    code, out = _run("verify", "--suite", "dimension-counts", "--m", "3",
                     "--max-n", "8")
    assert code == 0 and out["ok"] is True
    code, out = _run("verify", "--suite", "hopf-axioms", "--m", "5",
                     "--max-n", "2")
    assert code == 0 and out["ok"] is True
    # (2 * 8)^4 = 2^16 oracle choices
    code, out = _run("verify", "--suite", "oracle-equivalence", "--m", "1",
                     "--max-n", "4", "--max-N", "8")
    assert code == 0 and out["ok"] is True
    # 36,234,777 choices over the grid, admitted without running the
    # suite, and 88,374,431 refused
    assert cli._bound_verify_grid("oracle-equivalence", 3, 4, 4) is None
    with pytest.raises(ValueError, match="over the grid must be <= 67108864"):
        cli._bound_verify_grid("oracle-equivalence", 3, 4, 5)


def _ones(k):
    return [[1, 0]] * k


_CHAIN_LETTERS = "representative chain letters must be <= 65536"
_COARSENINGS = "coarsenings of the M keys must be <= 65536"
_NOT_A_COEFF = "coefficient must be an integer or 'p/q' string"
_NEGATIVE = "--max-n must be >= 0"
_M_CUTS = "parts over the cuts of the M keys must be <= 65536"
_LETTERS = "shuffled letters must be <= 1048576"
_ORACLE_CHOICES = "oracle choices (2N)^n must be <= 1048576"
_CHAR_COLORS = "colors of an all-color character must be <= 256"


def _m_one(coeff):
    return _payload(_qsym_elt(1, "M", (coeff, [[1, 0]])))


def _alternating(k):
    # M_((1,0),(1,1),...) of k parts in alternating colors: k one-part
    # blocks, so it has no coarsening to bound
    return _payload(_qsym_elt(2, "M", (1, [[1, i % 2] for i in range(k)])))


# Each of these once hung, ran out of memory or printed a traceback.
@pytest.mark.parametrize("argv, code, detail", [
    (("qsym", "counit", "--in", _m_one("1e100000000")), 2, _NOT_A_COEFF),
    (("qsym", "coproduct", "--in", _m_one("1e5000")), 2, _NOT_A_COEFF),
    (("qsym", "product", "--in", _payload(
        {"first": json.loads(_m_one(int("9" * 3000))),
         "second": json.loads(_m_one(int("9" * 3000)))})),
     3, "result integers must have at most %d digits"
     % sys.get_int_max_str_digits()),
    (("qsym", "antipode", "--in", _payload(_qsym_elt(1, "M", (1, _ones(22))))),
     3, _COARSENINGS),
    (("qsym", "antipode", "--in", _payload(_qsym_elt(1, "M", (1, _ones(30))))),
     3, _COARSENINGS),
    (("char", "eval", "zetaQ", "--in", _payload(_one_part("F", 40))),
     3, "terms in the M expansion must be <= 65536"),
    (("char", "eval", "nuQ", "--in",
      _payload(_qsym_elt(1, "M", (1, _ones(30))))), 3, _COARSENINGS),
    (("char", "eval", "nuQ:0", "--in",
      _payload(_qsym_elt(1, "M", (1, _ones(26))))), 3, _COARSENINGS),
    (("char", "psi", "nuQ", "--in",
      _payload(_qsym_elt(1, "M", (1, _ones(24))))), 3, _COARSENINGS),
    (("comp", "rep-chain", "--in", '{"m": 1, "comp": [[100000000, 0]]}'),
     3, _CHAIN_LETTERS),
    (("comp", "conjugate", "--in", '{"m": 1, "comp": [[100000000, 0]]}'),
     3, _CHAIN_LETTERS),
    (("qsym", "antipode", "--in", _payload(_one_part("F", 10 ** 8))),
     3, _CHAIN_LETTERS),
    (("qsym", "antipode", "--in", _payload(_one_part("K", 10 ** 8))),
     3, _CHAIN_LETTERS),
    (("qsym", "coproduct", "--in", _payload(_one_part("F", 32000))),
     3, _CHAIN_LETTERS),
    (("qsym", "coproduct", "--in", _payload(_one_part("K", 256))),
     3, _CHAIN_LETTERS),
    (("qsym", "convert", "--basis", "M", "--in",
      _payload(_one_part("F", 10 ** 12))),
     3, "terms in the M expansion must be <= 65536"),
    (("comp", "enumerate", "--m", "2", "--max-n", "-3"), 3, _NEGATIVE),
    (("poset", "count", "--m", "1", "--max-n", "-2"), 3, _NEGATIVE),
    (("verify", "--suite", "hopf-axioms", "--m", "1", "--max-n", "-1"),
     3, _NEGATIVE),
    (("dims", "--m", "1", "--max-n", "-1"), 3, _NEGATIVE),
    (("qsym", "coproduct", "--in",
      _payload(_qsym_elt(1, "M", (1, _ones(256))))), 3, _M_CUTS),
    (("qsym", "coproduct", "--in",
      _payload(_qsym_elt(1, "M", (1, _ones(600))))), 3, _M_CUTS),
    (("perm", "shuffle", "--in", _payload(_shuffle_pair(1024, 1))),
     3, _LETTERS),
    (("qsym", "product", "--in", _payload(
        {"first": _one_part("F", 1024), "second": _one_part("F", 1)})),
     3, _LETTERS),
    (("qsym", "product", "--in", _payload(
        {"first": _one_part("F", 65535), "second": _one_part("F", 1)})),
     3, _LETTERS),
    (("char", "psi", "zetaQ", "--in",
      _payload(_qsym_elt(1, "M", (1, _ones(58))))), 3, _M_CUTS),
    (("char", "psi", "zetaQ", "--in",
      _payload(_qsym_elt(1, "M", (1, _ones(600))))), 3, _M_CUTS),
    (("char", "psi", "zetaQ", "--in",
      _payload(_qsym_elt(1, "M", (1, _ones(1000))))), 3, _M_CUTS),
    (("char", "psi", "nuQ", "--m", "2", "--in", _alternating(600)),
     3, _M_CUTS),
    (("char", "eval", "nuQ", "--m", "2", "--in", _alternating(600)),
     3, _M_CUTS),
    (("char", "eval", "nuQ:1", "--m", "2", "--in", _alternating(58)),
     3, _M_CUTS),
    (("char", "eval", "zetaQ", "--m", "2", "--in", _alternating(58)),
     3, _M_CUTS),
    (("char", "eval", "zetaQ", "--m", "2", "--in", _alternating(8000)),
     3, _M_CUTS),
    (("char", "eval", "zetaP", "--m", "600", "--in", _payload(_TWO_COLORED)),
     3, _CHAR_COLORS),
    (("char", "psi", "nuQ", "--in",
      _payload(_qsym_elt(10 ** 30, "M", (1, [[1, 0]])))), 3, _CHAR_COLORS),
], ids=["exponent-coeff", "huge-exponent-coeff", "unprintable-result",
        "antipode-22-parts", "antipode-30-parts", "zeta-of-F40",
        "nu-30-parts", "nu-single-color", "psi-nu", "rep-chain",
        "conjugate", "antipode-F", "antipode-K", "coproduct-F",
        "coproduct-K", "convert-huge-weight", "enumerate-negative",
        "count-negative", "verify-negative", "dims-negative",
        "coproduct-M-256-parts", "coproduct-M-600-parts",
        "shuffle-letters", "product-letters", "product-long-chain",
        "psi-zeta-58-parts", "psi-zeta-600-parts", "psi-zeta-1000-parts",
        "psi-nu-alternating", "nu-alternating", "nu-single-color-58-parts",
        "zeta-convolved-58-parts", "zeta-convolved-8000-parts",
        "zeta-poset-600-colors", "psi-nu-huge-m"])
def test_unbounded_inputs_answer_at_once(argv, code, detail, capsys):
    start = time.perf_counter()
    got = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert got == code and err == ""
    error = json.loads(out)["error"]
    assert error["type"] == ("parse" if code == 2 else "domain")
    assert error["detail" if code == 2 else "invariant"].startswith(detail)


@pytest.mark.parametrize("coeff", ["0.5", "1e3", " 1/2 ", "+1/2", "1_000",
                                   "1/-2", "", "1.5e0", 1.5, True, None])
def test_coefficients_take_only_the_documented_forms(coeff):
    code, out = _run("qsym", "counit", "--in", _m_one(coeff))
    assert code == 2
    assert out == {"error": {"type": "parse", "detail": _NOT_A_COEFF}}


def test_documented_coefficient_forms_are_read():
    elt = _qsym_elt(1, "M", (-3, [[1, 0]]), ("4/2", [[2, 0]]),
                    ("-2/3", [[1, 0], [1, 0]]), ("007", [[3, 0]]))
    code, out = _run("qsym", "convert", "--basis", "M", "--in", _payload(elt))
    assert code == 0
    assert [t["coeff"] for t in out["terms"]] == [-3, "-2/3", 2, 7]
    # the largest product the interpreter prints: 4300 digits
    nines = json.loads(_m_one(10 ** 2150 - 1))
    code, out = _run("qsym", "product", "--in",
                     _payload({"first": nines, "second": nines}))
    assert code == 0 and len(str(out["terms"][-1]["coeff"])) == 4300


def test_new_bounds_admit_their_edges():
    # S(M_(1^17)) lists all 2^16 coarsenings, reversed
    code, out = _run("qsym", "antipode", "--in",
                     _payload(_qsym_elt(1, "M", (1, _ones(17)))))
    assert code == 0 and len(out["terms"]) == 1 << 16
    code, out = _run("char", "eval", "nuQ", "--in",
                     _payload(_qsym_elt(1, "M", (1, _ones(17)))))
    assert code == 0 and out["value"] == 2
    # F_(17) has 2^16 refinements in M
    code, out = _run("char", "eval", "zetaQ", "--in",
                     _payload(_one_part("F", 17)))
    assert code == 0 and out["value"] == 1
    code, out = _run("comp", "rep-chain", "--in",
                     '{"m": 1, "comp": [[65536, 0]]}')
    assert code == 0 and out["perm"][-1] == [65536, 0]
    code, out = _run("comp", "conjugate", "--in",
                     '{"m": 1, "comp": [[65536, 0]]}')
    assert code == 0 and out["comp"] == _ones(65536)
    code, out = _run("qsym", "antipode", "--in", _payload(_one_part("F", 65536)))
    assert code == 0 and out["terms"] == [{"coeff": 1, "comp": _ones(65536)}]
    # 255 * 256 = 65,280 letters over the cuts of F_(255)
    code, out = _run("qsym", "coproduct", "--in", _payload(_one_part("F", 255)))
    assert code == 0 and len(out["terms"]) == 256
    # and as many parts over the cuts of M_((1,0)^255)
    code, out = _run("qsym", "coproduct", "--in",
                     _payload(_qsym_elt(1, "M", (1, _ones(255)))))
    assert code == 0 and len(out["terms"]) == 256
    # 1024 chain pairs of 1024 letters: 2^20 shuffled letters
    code, out = _run("qsym", "product", "--in", _payload(
        {"first": _one_part("F", 1023), "second": _one_part("F", 1)}))
    assert code == 0 and len(out["terms"]) == 1024
    code, out = _run("comp", "enumerate", "--m", "2", "--max-n", "0")
    assert code == 0 and out["rows"] == [{"n": 0, "comps": [[]]}]
    code, out = _run("poset", "count", "--m", "1", "--max-n", "0")
    assert code == 0 and out["rows"] == [{"n": 0, "classes": 1}]
    code, out = _run("dims", "--m", "1", "--max-n", "0")
    assert code == 0 and out["rows"] == []
    # 57 * 58 * 59 / 3 = 65,018 parts over the cuts of the suffixes of a
    # 57-part key; Psi over zetaQ is the identity
    code, out = _run("char", "psi", "zetaQ", "--in",
                     _payload(_qsym_elt(1, "M", (1, _ones(57)))))
    assert code == 0 and out["terms"] == [{"coeff": 1, "comp": _ones(57)}]
    for argv in (("psi", "nuQ"), ("eval", "nuQ"), ("eval", "nuQ:1"),
                 ("eval", "zetaQ")):
        code, out = _run("char", *argv, "--m", "2", "--in", _alternating(57))
        assert code == 0, argv
    # zetaQ in one color, or in color j alone, reads no cuts
    for argv in (("zetaQ", "--m", "1"), ("zetaQ:0", "--m", "2")):
        code, out = _run("char", "eval", *argv, "--in", _payload(_qsym_elt(
            int(argv[-1]), "M", (1, [[1, 0]] * 8000))))
        assert code == 0 and out["value"] == 0, argv


def test_long_words_shuffle_without_recursion():
    # both once exited 4 with a RecursionError, one call per letter
    code, out = _run("perm", "shuffle", "--in",
                     _payload(_shuffle_pair(1000, 1)))
    assert code == 0 and len(out["perms"]) == 1001
    assert out["perms"][0] == [[v, 0] for v in range(1, 1002)]
    unit = _qsym_elt(1, "M", (1, []))
    code, out = _run("qsym", "product", "--in", _payload(
        {"first": _one_part("F", 1000), "second": unit}))
    assert code == 0 and out == {"m": 1, "basis": "F", "terms": [
        {"coeff": 1, "comp": [[1000, 0]]}]}


def test_the_closed_antipode_costs_the_parts_not_the_weight():
    start = time.perf_counter()
    code, out = _run("qsym", "antipode", "--in", _payload(_qsym_elt(
        1, "M", (1, [[30000000, 0], [1, 0]]))))
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out["terms"] == [
        {"coeff": 1, "comp": [[1, 0], [30000000, 0]]},
        {"coeff": 1, "comp": [[30000001, 0]]}]


def test_oracle_admits_every_level_count_its_bound_allows(capsys):
    # (2N)^n admits a point at N = 2^19 and the empty poset at any N, in
    # any number of colors; each answers in time and memory of its output.
    point = _payload({"m": 1, "elements": [[1, 0]]})
    assert cli.main(["oracle", "ppartitions", "--max-N", str(1 << 19),
                     "--in", point]) == 0
    assert capsys.readouterr().out.count('"coeff": 1}') == 1 << 19
    empty = _payload({"m": 3, "elements": []})
    for op in ("ppartitions", "enriched"):
        code, out = _run("oracle", op, "--max-N", str(10 ** 18), "--in", empty)
        assert code == 0 and out["terms"] == [{"exps": [], "coeff": 1}]
    code, out = _run("oracle", "split-check", "--max-N", str(10 ** 18),
                     "--in", empty)
    assert code == 0 and out["ok"]
    wide = _payload({"m": 1 << 20, "elements": [[1, (1 << 20) - 1]]})
    code, out = _run("oracle", "enriched", "--max-N", "1", "--in", wide)
    assert code == 0 and out["terms"] == [
        {"exps": [[1, (1 << 20) - 1, 1]], "coeff": 2}]


def test_oracle_truncate_bounds_its_whole_output():
    # 256 keys of three parts at N = 32 make 2^18 choices each, 2^26 in
    # all; a bound on the longest key alone let them print 80 MB
    keys = [[[a, 0], [b, 0], [c, 0]]
            for a in range(1, 9) for b in range(1, 9) for c in range(1, 5)]
    start = time.perf_counter()
    code, out = _run("oracle", "truncate", "--max-N", "32", "--in",
                     _payload(_qsym_elt(1, "M", *[(1, k) for k in keys])))
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out["error"]["invariant"] == _ORACLE_CHOICES


def test_oracle_truncate_admits_its_edge():
    # (2 * 2)^10 = 2^20 choices for one 10-part key; one key more is over
    ten = (1, _ones(10))
    code, out = _run("oracle", "truncate", "--max-N", "2", "--in",
                     _payload(_qsym_elt(1, "M", ten)))
    assert code == 0 and out == {"N": 2, "m": 1, "terms": []}
    code, out = _run("oracle", "truncate", "--max-N", "2", "--in",
                     _payload(_qsym_elt(1, "M", ten, (1, [[1, 0]]))))
    assert code == 3 and out["error"]["invariant"] == _ORACLE_CHOICES


def test_the_inductive_antipode_costs_the_parts_not_the_weight():
    # the weight model of the first bound hung here; the answer has two terms
    start = time.perf_counter()
    code, out = _run("qsym", "antipode", "--route", "inductive", "--in",
                     _payload(_two_parts(10 ** 7, 10 ** 7)))
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out["terms"] == [
        {"coeff": 1, "comp": [[10 ** 7, 0], [10 ** 7, 0]]},
        {"coeff": 1, "comp": [[2 * 10 ** 7, 0]]}]


def test_the_inductive_antipode_admits_ten_parts():
    # M_(4,6) counts 3^2 and M_((1,0)^10) 3^10 = 59,049; the weight model
    # refused both
    for comp in ([[4, 0], [6, 0]], _ones(10)):
        payload = _payload(_qsym_elt(1, "M", (1, comp)))
        code, out = _run("qsym", "antipode", "--route", "inductive",
                         "--in", payload)
        assert code == 0 and out == _run("qsym", "antipode", "--in",
                                         payload)[1], comp


def _accepts(bound, e):
    try:
        bound(e)
    except ValueError:
        return False
    return True


def test_the_inductive_bound_admits_all_the_weight_model_did():
    # single keys to weight 12 at m=1 and 8 at m=2, and pairs of distinct
    # m=2 keys to weight 4 each
    keys = {m: [a for n in range(1, w + 1)
                for a in cb.enumerate_compositions(m, n)]
            for m, w in ((1, 12), (2, 8))}
    elts = [qs.QElt(m, "M", {a: 1}) for m in keys for a in keys[m]]
    small = [a for a in keys[2] if cb.weight(a) <= 4]
    elts += [qs.QElt(2, "M", {a: 1, b: 1})
             for i, a in enumerate(small) for b in small[i + 1:]]
    old = [e for e in elts
           if _accepts(reference_bound_inductive_antipode, e)]
    assert 0 < len(old) < len(elts)
    assert all(_accepts(cli._bound_inductive_antipode, e) for e in old)


# --- the installed entry point --------------------------------------------

def test_in_reads_a_file_path(tmp_path):
    path = tmp_path / "comp.json"
    path.write_text(_payload({"m": 1, "comp": [[1, 0], [1, 0], [2, 0]]}))
    code, out = _run("comp", "hat", "--in", str(path))
    assert code == 0 and out == {"m": 1, "comp": [[4, 0]]}
    missing = str(tmp_path / "missing.json")
    code, out = _run("comp", "hat", "--in", missing)
    assert code == 2 and out["error"]["type"] == "parse"
    assert out["error"]["detail"].startswith("cannot read %s: " % missing)


def test_module_invocation_reads_stdin():
    # the child imports the same cqsym as this process, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cqsym.cli", "comp", "hat", "--in", "-"],
        input=_payload({"m": 1, "comp": [[1, 0], [1, 0], [2, 0]]}),
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"m": 1, "comp": [[4, 0]]}


def test_module_invocation_refuses_stdin_that_is_not_utf8():
    # the same bytes as a payload file are refused by the same rule
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cqsym.cli", "comp", "hat", "--in", "-"],
        input=b'{"m": 1, "comp": [[1, 0]], "x": "\xff"}',
        capture_output=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 2
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "parse"
    assert error["detail"].startswith("cannot read -: 'utf-8' codec")


def test_module_invocation_of_verify_imports_the_cli_once():
    # python -m runs cli.py as __main__; importing it again as cqsym.cli
    # would compile and run the module a second time
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cqsym.cli", "verify",
         "--suite", "dimension-counts", "--m", "1", "--max-n", "2"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0 and json.loads(proc.stdout)["ok"]
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "cqsym.verify" in imported and "cqsym.cli" not in imported


def _with_closed_stdout(*argv):
    """Exit code and stderr of a CLI call whose stdout is a pipe that no
    process reads."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cqsym.cli", *argv], stdout=write,
            stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=path))
    finally:
        os.close(write)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("argv", [
    ("comp", "hat", "--in", '{"m": 1, "comp": [[1, 0]]}'),
    ("dims", "--m", "3", "--max-n", "900"),
    ("comp", "hat", "--in", "{"),
    ("dims", "--m", "3", "--max-n", "8000"),
], ids=["answer", "long-answer", "parse-error", "domain-error"])
def test_a_closed_stdout_exits_141_with_nothing_on_stderr(argv):
    assert _with_closed_stdout(*argv) == (141, "")


# --- every verb/op pair: one valid and one malformed call ------------------

_COMP = _payload({"m": 2, "comp": [[2, 0], [1, 0], [2, 1]]})
_BAD_COMP = _payload({"m": 2, "comp": [[2, 0], [1, 5]]})
_PERM = _payload({"m": 2, "perm": [[3, 0], [5, 1], [2, 1], [4, 0]]})
_BAD_PERM = _payload({"m": 2, "perm": [[3, 0], [3, 1]]})
_POSET = {"m": 2, "elements": [[1, 0], [2, 1], [3, 0]],
          "covers": [[2, 1], [2, 3]]}
_BAD_POSET = _payload({"m": 1, "elements": [[1, 0], [2, 0]],
                       "covers": [[1, 2], [2, 1]]})
_TWO_POSETS = _payload({"first": _POSET, "second": _POSET})
_F = _qsym_elt(2, "F", (1, [[2, 0], [1, 1]]), ("1/2", [[1, 1]]))
_BAD_QSYM = _payload(_qsym_elt(2, "F", ("1/0", [[1, 0]])))

# (verb, op) -> (valid argv tail, malformed argv tail)
SMOKE = {
    **{("comp", op): (["--in", _COMP], ["--in", _BAD_COMP])
       for op in ("check", "star", "hat", "conjugate", "reverse", "rainbow",
                  "refinements", "coarsenings", "rep-chain")},
    ("comp", "enumerate"): (["--m", "2", "--max-n", "3"], ["--max-n", "3"]),
    ("comp", "enumerate-peak"): (["--m", "2", "--max-n", "3"],
                                 ["--m", "0"]),
    **{("perm", op): (["--in", _PERM], ["--in", _BAD_PERM])
       for op in ("check", "descent-comp", "peak-comp", "peak-set",
                  "standardize")},
    ("perm", "shuffle"): (
        ["--in", _payload({"m": 1, "left": [[1, 0], [3, 0]],
                           "right": [[2, 0]]})],
        ["--in", _payload({"m": 1, "left": [[1, 0]], "right": [[1, 0]]})]),
    **{("poset", op): (["--in", _payload(_POSET)], ["--in", _BAD_POSET])
       for op in ("check", "canonical", "ideals", "extensions", "coproduct",
                  "antipode")},
    **{("poset", op): (["--in", _TWO_POSETS],
                       ["--in", _payload({"first": _POSET})])
       for op in ("equivalent", "product")},
    ("poset", "count"): (["--m", "1", "--max-n", "3"], ["--max-n", "3"]),
    **{("qsym", op): (["--in", _payload(_F)], ["--in", _BAD_QSYM])
       for op in ("coproduct", "antipode", "counit", "theta")},
    ("qsym", "convert"): (["--basis", "M", "--in", _payload(_F)],
                          ["--in", _payload(_F)]),
    ("qsym", "product"): (
        ["--in", _payload({"first": _F, "second": _F})],
        ["--in", _payload({"first": _F, "second": dict(_F, basis="X")})]),
    **{("qsym", op): (["--in", _payload(_POSET)], ["--in", _BAD_POSET])
       for op in ("gamma", "lambda")},
    ("char", "eval"): (["zetaQ", "--in", _payload(_F)],
                       ["zetaX", "--in", _payload(_F)]),
    ("char", "psi"): (["nuP", "--in", _payload(_POSET)],
                      ["nuP:0", "--in", _payload(_POSET)]),
    **{("oracle", op): (["--max-N", "2", "--in", _payload(_POSET)],
                        ["--max-N", "0", "--in", _payload(_POSET)])
       for op in ("ppartitions", "enriched", "split-check")},
    ("oracle", "truncate"): (["--max-N", "2", "--in", _payload(_F)],
                             ["--max-N", "2", "--in", "{\"m\": 2,"]),
    ("verify", None): (["--suite", "dimension-counts", "--m", "1",
                        "--max-n", "3"],
                       ["--suite", "no-such-suite"]),
    ("dims", None): (["--m", "2", "--max-n", "4"], ["--max-n", "4"]),
}


def _parser_pairs():
    verbs = [a for a in cli._build_parser()._actions if a.dest == "verb"][0]
    pairs = set()
    for verb, parser in verbs.choices.items():
        ops = [a.choices for a in parser._actions if a.dest == "op"]
        pairs.update((verb, op) for op in (ops[0] if ops else [None]))
    return pairs


def test_smoke_matrix_covers_every_verb_op_pair():
    assert set(SMOKE) == _parser_pairs()
    assert len(SMOKE) == 42


@pytest.mark.parametrize("pair", sorted(SMOKE, key=str), ids=str)
def test_smoke_valid_and_malformed(pair, capsys):
    verb, op = pair
    head = [verb] + ([op] if op else [])
    good, bad = SMOKE[pair]
    code = cli.main(head + good)
    out, err = capsys.readouterr()
    assert code == 0, out
    body = json.loads(out)
    assert isinstance(body, dict) and "error" not in body
    assert "Traceback" not in err
    code = cli.main(head + bad)
    out, err = capsys.readouterr()
    assert code in (2, 3), out
    assert set(json.loads(out)) == {"error"}
    assert "Traceback" not in err


def _with_m(tail, m):
    """The argv tail with --m, and the m of the --in payload and of its
    operands, set to m."""
    tail = list(tail)
    for i, arg in enumerate(tail[:-1]):
        if arg == "--m":
            tail[i + 1] = str(m)
        elif arg == "--in":
            payload = json.loads(tail[i + 1])
            for obj in [payload, *payload.values()]:
                if isinstance(obj, dict) and "m" in obj:
                    obj["m"] = m
            tail[i + 1] = _payload(payload)
    return tail


@pytest.mark.parametrize("m", [600, 10 ** 30], ids=["m600", "m1e30"])
@pytest.mark.parametrize("pair", sorted(SMOKE, key=str), ids=str)
def test_smoke_calls_answer_at_once_in_many_colors(pair, m, capsys):
    verb, op = pair
    head = [verb] + ([op] if op else [])
    start = time.perf_counter()
    code = cli.main(head + _with_m(SMOKE[pair][0], m))
    out, err = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert code in (0, 1, 2, 3), out
    assert "Traceback" not in err
