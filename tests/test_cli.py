"""The command line front end: JSON round trips and exit codes."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from cqsym import cli


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


# --- error handling -------------------------------------------------------

def test_invalid_json_exits_2():
    code, out = _run("comp", "hat", "--in", "{not json")
    assert code == 2
    assert out["error"]["type"] == "parse"
    assert "detail" in out["error"]


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


@pytest.mark.parametrize("argv", [("comp",), ("dims", "--m", "x")],
                         ids=["missing-op", "bad-int"])
def test_argument_errors_exit_2_with_json(argv, capsys):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out)["error"]["type"] == "parse"
    assert err == ""


# --- the installed entry point --------------------------------------------

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
