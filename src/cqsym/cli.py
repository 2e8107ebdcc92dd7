"""Command line front end: JSON in, JSON out.

Verbs cover the raw combinatorics (comp, perm), the poset Hopf algebra,
QSym arithmetic and the maps into it, character evaluation, the
enumeration oracles, batch verification suites, and dimension tables.
Payloads come from --in as inline JSON, a file path, or - for stdin.
Parse failures exit 2 and domain violations exit 3, each with a JSON
error object naming the problem; failed verifications exit 1, and an
unexpected internal error exits 4 with a JSON error of type "internal".
"""

import argparse
import json
import sys

from . import characters as ch
from . import combinat as cb
from . import oracle as oc
from . import poset as ps
from . import qsym as qs
from .terms import coeff_from_json, coeff_to_json, iadd


class ParseFailure(Exception):
    pass


def _expect(cond, msg):
    if not cond:
        raise ParseFailure(msg)


def _positive_m(m):
    if m < 1:
        raise ValueError("m must be >= 1")
    return m


# --- payload parsing ------------------------------------------------------

def _load(args):
    raw = args.infile
    _expect(raw is not None, "--in is required for this command")
    if raw == "-":
        raw = sys.stdin.read()
    elif not raw.lstrip().startswith(("{", "[")):
        try:
            with open(raw) as fh:
                raw = fh.read()
        except OSError as exc:
            raise ParseFailure("cannot read %s: %s" % (args.infile, exc))
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseFailure("invalid JSON at line %d column %d: %s"
                           % (exc.lineno, exc.colno, exc.msg))


def _payload_m(payload, args):
    _expect(isinstance(payload, dict), "payload must be a JSON object")
    m = payload.get("m", args.m)
    _expect(m is not None, "m must appear in the payload or as --m")
    _expect(isinstance(m, int) and not isinstance(m, bool),
            "m must be an integer")
    if args.m is not None and "m" in payload and payload["m"] != args.m:
        raise ParseFailure("--m disagrees with the payload's m")
    return _positive_m(m)


def _pairs(obj, what):
    _expect(isinstance(obj, list), "%s must be a JSON array" % what)
    out = []
    for item in obj:
        _expect(isinstance(item, list) and len(item) == 2
                and all(isinstance(x, int) and not isinstance(x, bool)
                        for x in item),
                "%s entries must be [integer, integer] pairs" % what)
        out.append((item[0], item[1]))
    return tuple(out)


def parse_comp(payload, args, key="comp"):
    m = _payload_m(payload, args)
    _expect(key in payload, "payload needs a %r field" % key)
    alpha = _pairs(payload[key], key)
    cb.check_comp(alpha, m)
    return m, alpha


def parse_perm(payload, args, key="perm"):
    m = _payload_m(payload, args)
    _expect(key in payload, "payload needs a %r field" % key)
    pi = _pairs(payload[key], key)
    cb.check_perm(pi, m)
    return m, pi


def parse_poset(payload, args):
    m = _payload_m(payload, args)
    _expect("elements" in payload, "payload needs an 'elements' field")
    elements = _pairs(payload["elements"], "elements")
    covers = _pairs(payload.get("covers", []), "covers")
    return ps.make_poset(m, elements, covers)


def parse_qsym(payload, args):
    m = _payload_m(payload, args)
    basis = payload.get("basis")
    _expect(basis in qs.BASES, "basis must be one of %r" % (qs.BASES,))
    raw = payload.get("terms", [])
    _expect(isinstance(raw, list), "terms must be a JSON array")
    terms = {}
    for item in raw:
        _expect(isinstance(item, dict) and "comp" in item and "coeff" in item,
                "each term needs 'comp' and 'coeff'")
        alpha = _pairs(item["comp"], "comp")
        cb.check_comp(alpha, m)
        try:
            c = coeff_from_json(item["coeff"])
        except ValueError as exc:
            raise ParseFailure(str(exc))
        iadd(terms, alpha, c)
    return qs.QElt(m, basis, terms)


def _sub_payload(payload, key):
    _expect(isinstance(payload, dict) and key in payload,
            "payload needs a %r field" % key)
    sub = payload[key]
    _expect(isinstance(sub, dict), "%r must be a JSON object" % key)
    return sub


# --- serialization --------------------------------------------------------

def comp_json(alpha):
    return [[s, c] for s, c in alpha]


def perm_json(pi):
    return [[v, c] for v, c in pi]


def qsym_json(e):
    return {"m": e.m, "basis": e.basis,
            "terms": [{"coeff": coeff_to_json(c), "comp": comp_json(a)}
                      for a, c in sorted(e.terms.items())]}


def poset_json(P):
    return {"m": P.m,
            "elements": [[v, c] for v, c in P.elements()],
            "covers": [[a, b] for a, b in P.cover_pairs()]}


def pelt_json(e):
    order = sorted(e.terms.items(), key=lambda kv: kv[0].sort_key())
    return {"m": e.m,
            "terms": [{"coeff": coeff_to_json(c), "poset": poset_json(P)}
                      for P, c in order]}


def qsym_tensor_json(m, basis, pairs):
    order = sorted(pairs.items())
    return {"m": m, "basis": basis,
            "terms": [{"coeff": coeff_to_json(c),
                       "left": comp_json(a), "right": comp_json(b)}
                      for (a, b), c in order]}


def poset_tensor_json(m, pairs):
    order = sorted(pairs.items(),
                   key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key()))
    return {"m": m,
            "terms": [{"coeff": coeff_to_json(c),
                       "ideal": poset_json(I), "rest": poset_json(R)}
                      for (I, R), c in order]}


def tpoly_json(p):
    return {"N": p.N, "m": p.m,
            "terms": [{"exps": [[i, j, e] for (i, j), e in key],
                       "coeff": coeff_to_json(c)}
                      for key, c in sorted(p.terms.items())]}


# --- comp and perm verbs --------------------------------------------------

def _require_m(args):
    _expect(args.m is not None, "--m is required for this command")
    return _positive_m(args.m)


def cmd_comp(args):
    op = args.op
    if op in ("enumerate", "enumerate-peak"):
        m = _require_m(args)
        maxn = args.max_n if args.max_n is not None else 4
        comps = (cb.enumerate_compositions if op == "enumerate"
                 else cb.peak_compositions)
        return {"m": m,
                "rows": [{"n": n, "comps": [comp_json(a) for a in comps(m, n)]}
                         for n in range(maxn + 1)]}
    m, alpha = parse_comp(_load(args), args)
    if op == "check":
        return {"m": m, "weight": cb.weight(alpha), "length": len(alpha),
                "peak": cb.is_peak_composition(alpha)}
    if op == "star":
        return {"m": m, "comp": comp_json(cb.star(alpha))}
    if op == "hat":
        return {"m": m, "comp": comp_json(cb.hat(alpha))}
    if op == "conjugate":
        return {"m": m, "comp": comp_json(cb.conjugate(alpha))}
    if op == "reverse":
        return {"m": m, "comp": comp_json(cb.reverse(alpha))}
    if op == "rainbow":
        return {"m": m,
                "blocks": [{"sizes": list(sizes), "color": color}
                           for sizes, color in cb.rainbow_decompose(alpha)]}
    if op == "refinements":
        return {"m": m, "comps": [comp_json(b)
                                  for b in sorted(cb.refinements(alpha))]}
    if op == "coarsenings":
        return {"m": m, "comps": [comp_json(b)
                                  for b in sorted(cb.coarsenings(alpha))]}
    if op == "rep-chain":
        return {"m": m, "perm": perm_json(cb.rep_chain(alpha))}
    raise ParseFailure("unknown comp operation %r" % op)


def cmd_perm(args):
    op = args.op
    payload = _load(args)
    if op == "shuffle":
        m = _payload_m(payload, args)
        _, left = parse_perm(dict(payload, m=m), args, key="left")
        _, right = parse_perm(dict(payload, m=m), args, key="right")
        words = sorted(cb.shuffles(left, right))
        return {"m": m, "perms": [perm_json(w) for w in words]}
    m, pi = parse_perm(payload, args)
    if op == "check":
        return {"m": m, "size": len(pi)}
    if op == "descent-comp":
        return {"m": m, "comp": comp_json(cb.descent_composition(pi))}
    if op == "peak-comp":
        return {"m": m, "comp": comp_json(cb.peak_composition(pi))}
    if op == "peak-set":
        return {"m": m, "peaks": list(cb.peak_set(pi))}
    if op == "standardize":
        return {"m": m, "perm": perm_json(cb.standardize(pi))}
    raise ParseFailure("unknown perm operation %r" % op)


# --- poset verb -----------------------------------------------------------

def cmd_poset(args):
    op = args.op
    if op == "count":
        m = _require_m(args)
        maxn = args.max_n if args.max_n is not None else 4
        return {"m": m,
                "rows": [{"n": n, "classes": len(ps.canonical_posets(m, n))}
                         for n in range(maxn + 1)]}
    payload = _load(args)
    if op == "equivalent":
        first = parse_poset(_sub_payload(payload, "first"), args)
        second = parse_poset(_sub_payload(payload, "second"), args)
        if first.m != second.m:
            raise ValueError("operands must share the same number of colors")
        return {"equivalent": ps.equivalent(first, second)}
    if op == "product":
        first = parse_poset(_sub_payload(payload, "first"), args)
        second = parse_poset(_sub_payload(payload, "second"), args)
        return poset_json(ps.disjoint_union(first, second))
    P = parse_poset(payload, args)
    if op == "check":
        return {"m": P.m, "size": P.n, "canonical": P.is_canonical}
    if op == "canonical":
        return poset_json(P.canonical)
    if op == "ideals":
        vals = []
        for mask in P.ideal_masks():
            vals.append([P.values[i] for i in range(P.n) if mask >> i & 1])
        vals.sort(key=lambda v: (len(v), v))
        return {"m": P.m, "count": len(vals), "ideals": vals}
    if op == "extensions":
        words = sorted(P.linear_extensions())
        return {"m": P.m, "perms": [perm_json(w) for w in words]}
    if op == "coproduct":
        pairs = ps.coproduct(ps.PElt.basis(P.canonical))
        return poset_tensor_json(P.m, pairs)
    if op == "antipode":
        e = ps.antipode(ps.PElt.basis(P.canonical), route=args.route)
        return pelt_json(e)
    raise ParseFailure("unknown poset operation %r" % op)


# --- qsym verb ------------------------------------------------------------

def cmd_qsym(args):
    op = args.op
    payload = _load(args)
    if op == "product":
        first = parse_qsym(_sub_payload(payload, "first"), args)
        second = parse_qsym(_sub_payload(payload, "second"), args)
        return qsym_json(qs.multiply(first, second))
    if op in ("gamma", "lambda"):
        P = parse_poset(payload, args).canonical
        fn = qs.ppartition_gf if op == "gamma" else qs.enriched_gf
        return qsym_json(fn(P))
    e = parse_qsym(payload, args)
    if op == "convert":
        target = args.basis
        _expect(target is not None, "--basis selects the target basis")
        if target == e.basis:
            return qsym_json(e)
        if target == "M":
            return qsym_json(qs.to_monomial(e))
        if target == "F":
            return qsym_json(qs.to_fundamental(e))
        raise ValueError("no conversion into the K basis; K spans only the "
                         "peak subalgebra")
    if op == "coproduct":
        return qsym_tensor_json(e.m, e.basis, qs.coproduct(e))
    if op == "antipode":
        if args.route == "inductive":
            return qsym_json(qs.antipode_inductive(e))
        return qsym_json(qs.antipode(e))
    if op == "counit":
        return {"m": e.m, "value": coeff_to_json(qs.counit(e))}
    if op == "theta":
        return qsym_json(qs.peak_projection(qs.to_fundamental(e)))
    raise ParseFailure("unknown qsym operation %r" % op)


# --- char verb ------------------------------------------------------------

_CHAR_FAMILIES = {
    "zetaQ": ("qsym", ch.zeta_qsym, ch.zeta_qsym_all),
    "zetaP": ("poset", ch.zeta_poset, ch.zeta_poset_all),
    "nuQ": ("qsym", ch.nu_qsym, ch.nu_qsym_all),
    "nuP": ("poset", ch.nu_poset, ch.nu_poset_all),
}


def _resolve_character(name, m):
    """A built-in character by CLI name; returns (kind, character)."""
    if name == "counit":
        return "either", None
    base, _, suffix = name.partition(":")
    if base not in _CHAR_FAMILIES:
        raise ParseFailure("unknown character %r" % name)
    kind, single, full = _CHAR_FAMILIES[base]
    if suffix == "":
        return kind, full(m)
    try:
        j = int(suffix)
    except ValueError:
        raise ParseFailure("character color must be an integer, got %r" % name)
    if not 0 <= j < m:
        raise ValueError("composition colors must lie in range(m)")
    return kind, single(m, j)


def _char_argument(payload, args, kind):
    """Build the Hopf element a character consumes, sniffing the payload."""
    if kind == "either":
        kind = "qsym" if "basis" in payload else "poset"
    if kind == "qsym":
        return kind, parse_qsym(payload, args)
    return kind, ps.PElt.basis(parse_poset(payload, args).canonical)


def cmd_char(args):
    payload = _load(args)
    m = _payload_m(payload, args)
    if args.op == "eval":
        kind, phi = _resolve_character(args.name, m)
        kind, elt = _char_argument(payload, args, kind)
        if phi is None:
            dom = ch.qsym_domain(m) if kind == "qsym" else ch.poset_domain(m)
            phi = ch.counit_character(dom)
        if phi.domain.m != m:
            raise ValueError("operands must share the same number of colors")
        return {"name": phi.name, "m": m, "value": coeff_to_json(phi(elt))}
    if args.op == "psi":
        base = args.name
        if base not in _CHAR_FAMILIES:
            raise ParseFailure("unknown character family %r" % base)
        kind, single, _ = _CHAR_FAMILIES[base]
        kind, elt = _char_argument(payload, args, kind)
        chars = [single(m, j) for j in range(m)]
        return qsym_json(ch.universal_morphism(elt, chars))
    raise ParseFailure("unknown char operation %r" % args.op)


# --- oracle verb ----------------------------------------------------------

def cmd_oracle(args):
    N = args.max_N if args.max_N is not None else 2
    if N < 1:
        raise ValueError("truncation level must be >= 1")
    payload = _load(args)
    if args.op == "truncate":
        return tpoly_json(oc.truncate(parse_qsym(payload, args), N))
    P = parse_poset(payload, args)
    if args.op == "ppartitions":
        return tpoly_json(oc.enumerate_ppartitions(P, N))
    if args.op == "enriched":
        return tpoly_json(oc.enumerate_enriched(P, N))
    if args.op == "split-check":
        ok = oc.split_alphabet_check(P, N)
        return {"N": N, "ok": ok}, (0 if ok else 1)
    raise ParseFailure("unknown oracle operation %r" % args.op)


# --- verify and dims verbs -----------------------------------------------

def cmd_verify(args):
    from .verify import SUITES
    name = args.suite
    _expect(name is not None, "--suite NAME is required; one of %s"
            % ", ".join(sorted(SUITES)))
    _expect(name in SUITES, "unknown suite %r; one of %s"
            % (name, ", ".join(sorted(SUITES))))
    m = _positive_m(args.m if args.m is not None else 2)
    checks = SUITES[name](m, args.max_n, args.max_N, args.seed)
    ok = all(c["ok"] for c in checks)
    report = {"suite": name, "m": m, "checks": checks, "ok": ok}
    return report, (0 if ok else 1)


def cmd_dims(args):
    m = _require_m(args)
    maxn = args.max_n if args.max_n is not None else 5
    rows = []
    for n in range(1, maxn + 1):
        rows.append({"n": n,
                     "qsym": len(cb.enumerate_compositions(m, n)),
                     "peak": cb.count_peak_compositions(m, n)})
    return {"m": m, "rows": rows}


# --- wiring ---------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument errors become ParseFailure, so they get a JSON answer."""

    def error(self, message):
        raise ParseFailure("%s: %s" % (self.prog, message))


def _build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--m", type=int, default=None)
    common.add_argument("--max-n", dest="max_n", type=int, default=None)
    common.add_argument("--max-N", dest="max_N", type=int, default=None)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--in", dest="infile", default=None,
                        help="inline JSON, a file path, or - for stdin")
    common.add_argument("--suite", default=None)
    common.add_argument("--basis", choices=qs.BASES, default=None)
    common.add_argument("--json-indent", dest="json_indent", type=int,
                        default=None)

    ap = _Parser(
        prog="cqsym",
        description="Colored quasisymmetric functions, colored labeled "
                    "posets, and their Hopf algebra maps.")
    sub = ap.add_subparsers(dest="verb", required=True)

    def add(verb, ops, fn, extra=None):
        p = sub.add_parser(verb, parents=[common])
        if ops:
            p.add_argument("op", choices=ops)
        if extra:
            extra(p)
        p.set_defaults(fn=fn)

    add("comp", ["check", "star", "hat", "conjugate", "reverse", "rainbow",
                 "refinements", "coarsenings", "rep-chain", "enumerate",
                 "enumerate-peak"], cmd_comp)
    add("perm", ["check", "descent-comp", "peak-comp", "peak-set",
                 "standardize", "shuffle"], cmd_perm)
    add("poset", ["check", "canonical", "equivalent", "ideals", "extensions",
                  "product", "coproduct", "antipode", "count"], cmd_poset,
        lambda p: p.add_argument("--route", choices=("inductive", "chains"),
                                 default="inductive"))
    add("qsym", ["convert", "product", "coproduct", "antipode", "counit",
                 "gamma", "lambda", "theta"], cmd_qsym,
        lambda p: p.add_argument("--route", choices=("closed", "inductive"),
                                 default="closed"))
    add("char", ["eval", "psi"], cmd_char,
        lambda p: p.add_argument("name"))
    add("oracle", ["ppartitions", "enriched", "truncate", "split-check"],
        cmd_oracle)
    add("verify", None, cmd_verify)
    add("dims", None, cmd_dims)
    return ap


def _emit(obj, args):
    indent = getattr(args, "json_indent", None)
    print(json.dumps(obj, indent=indent))


def main(argv=None):
    args = None
    try:
        args = _build_parser().parse_args(argv)
        out = args.fn(args)
    except ParseFailure as exc:
        _emit({"error": {"type": "parse", "detail": str(exc)}}, args)
        return 2
    except ValueError as exc:
        _emit({"error": {"type": "domain", "invariant": str(exc)}}, args)
        return 3
    except Exception as exc:
        _emit({"error": {"type": "internal",
                         "detail": "%s: %s" % (type(exc).__name__, exc)}},
              args)
        return 4
    code = 0
    if isinstance(out, tuple):
        out, code = out
    _emit(out, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
