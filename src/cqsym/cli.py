"""Command line front end: JSON in, JSON out.

Verbs cover the raw combinatorics (comp, perm), the poset Hopf algebra,
QSym arithmetic and the maps into it, character evaluation, the
enumeration oracles, batch verification suites, and dimension tables.
Payloads come from --in as inline JSON, a file path, or - for stdin.
Each verb takes only the options it reads.  Parse failures, among them
an unknown option or one the verb does not read, exit 2 and domain
violations exit 3, each with a JSON error object naming the problem
(among them a result holding an integer too long to print);
failed verifications exit 1, and an unexpected internal error exits 4
with a JSON error of type "internal".  A stdout that its reader closed
exits 141 with nothing on stderr.  argparse refuses an unknown op, so
each handler answers its last op without testing for it.
"""

import argparse
import json
import math
import os
import re
import sys
from collections import Counter

from . import characters as ch
from . import combinat as cb
from . import oracle as oc
from . import poset as ps
from . import qsym as qs
from .terms import (BASES, coeff_from_json, coeff_to_json, comp_json, iadd,
                    poset_json)


class ParseFailure(Exception):
    pass


def _expect(cond, msg):
    if not cond:
        raise ParseFailure(msg)


def _positive(value, what):
    if value < 1:
        raise ValueError("%s must be >= 1" % what)
    return value


# Bounds on the exponential operations; larger inputs are a domain error.
MAX_POSET_SIZE = 8        # canonicalization is factorial on antichains
MAX_COUNT_M_PLUS_N = 7    # poset count colors each structure m^n ways
MAX_REFINE_WEIGHT = 16    # a one-part weight-w comp has 2^(w-1) refinements
MAX_ENUM_LEVEL = 1 << 16  # comp enumerate lists m(m+1)^(n-1) comps at level n
MAX_ORACLE_CHOICES = 1 << 20  # (2N)^n signed levels for n elements
MAX_ORACLE_GRID = 1 << 26     # (2N)^n summed over a verify grid's posets
MAX_ORACLE_LEVELS = 16        # oracle-equivalence lists and truncates every
                              # level N' <= --max-N for each poset
# len(canonical_posets(m, n)) by m, then n <= 7 - m, read without building
CANONICAL_COUNTS = (
    (1, 1, 3, 15, 124, 1620, 32609), (1, 2, 11, 108, 1795, 47730),
    (1, 3, 24, 352, 8802), (1, 4, 42, 820), (1, 5, 65), (1, 6), (1,))
MAX_EXPANSION = 1 << 16   # terms of an M or F rewrite, words of perm shuffle,
                          # chain pairs of qsym product, M antipode
                          # coarsenings, representative chain letters and
                          # parts over the cuts of M keys
MAX_SHUFFLE_LETTERS = 1 << 20  # letters of the words that perm shuffle and
                               # qsym product build
MAX_DIMS_DIGITS = 1000    # digits of a dims entry; str() refuses past 4300
MAX_CHAR_COLORS = 256     # an all-color character nests one convolution per
                          # color, and psi builds one character per color


def _at_most(size, limit, what):
    if size > limit:
        raise ValueError("%s must be <= %d" % (what, limit))


def _pow2(k):
    # 2^k, capped just past MAX_EXPANSION so that a huge k costs nothing
    return 1 << min(k, MAX_EXPANSION.bit_length())


def _nonnegative_max_n(max_n):
    if max_n < 0:
        raise ValueError("--max-n must be >= 0")


def _bound_levels(m, max_n):
    # level 18 is over the bound for every m; the clamp keeps a huge
    # --max-n from building a huge integer
    _nonnegative_max_n(max_n)
    _at_most(_level_size(m, min(max_n, 18)), MAX_ENUM_LEVEL,
             "compositions of weight --max-n")


def _bound_poset_grid(m, max_n):
    _at_most(m, MAX_COUNT_M_PLUS_N, "m")
    _nonnegative_max_n(max_n)
    _at_most(max_n, MAX_COUNT_M_PLUS_N - m, "--max-n")


def _bound_oracle_choices(N, sizes):
    # (2N)^n summed over sizes n, base and exponent capped past the bound
    base = min(2 * N, MAX_ORACLE_CHOICES + 1)
    cap = MAX_ORACLE_CHOICES.bit_length()
    _at_most(sum(base ** min(n, cap) for n in sizes), MAX_ORACLE_CHOICES,
             "oracle choices (2N)^n")


def _rewrite(e, target):
    """e in basis target ("M" or "F"), refused if the rewrite is too large.

    Counted before converting, per key of weight w and length l: an F key
    in M, or an M key in F, has 2^(w-l) refinements; a K key over b
    rainbow blocks scans 2^(w-b) M candidates, and each has at most
    2^(w-b) refinements on the way on to F.
    """
    size = 0
    for alpha in e.terms:
        w = cb.weight(alpha)
        if e.basis == "K":
            steps = w - len(cb.rainbow_decompose(alpha))
            size += _pow2(2 * steps if target == "F" else steps)
        elif e.basis != target:
            size += _pow2(w - len(alpha))
        else:
            size += 1
    _at_most(size, MAX_EXPANSION, "terms in the %s expansion" % target)
    return qs.to_monomial(e) if target == "M" else qs.to_fundamental(e)


def _bound_coarsenings(e):
    """Refuse the M element e if its closed antipode, or a nu character,
    lists too many coarsenings: 2^(l-b) per key of l parts, b blocks."""
    size = sum(_pow2(len(alpha) - len(cb.rainbow_decompose(alpha)))
               for alpha in e.terms)
    _at_most(size, MAX_EXPANSION, "coarsenings of the M keys")


def _bound_chains(keys, cuts=False):
    """Refuse reading too many letters of representative chains: w for a
    key of weight w, or w(w+1) over the w+1 cuts of its coproduct."""
    size = sum(w * (w + 1) if cuts else w for w in map(cb.weight, keys))
    _at_most(size, MAX_EXPANSION, "representative chain letters")


def _bound_deconcats(keys, nested=False):
    """Refuse reading too many parts over the cuts of M keys: l(l+1) over
    the l+1 cuts of a key of l parts, as the M coproduct lists them, or
    nested, l(l+1)(l+2)/3 over the cuts of its l suffixes, as Psi reads
    them (a convolved character reads as many over the prefixes)."""
    size = sum(l * (l + 1) * (l + 2) // 3 if nested else l * (l + 1)
               for l in map(len, keys))
    _at_most(size, MAX_EXPANSION, "parts over the cuts of the M keys")


def _shuffle_count(u, v):
    # C(u+v, u) as the product over i <= min(u, v) of (max(u, v) + i) / i,
    # stopping once past MAX_EXPANSION, so a huge weight costs a few steps
    lo, hi = sorted((u, v))
    c = 1
    for i in range(1, lo + 1):
        c = c * (hi + i) // i
        if c > MAX_EXPANSION:
            break
    return c


def _bound_shuffles(a, b):
    """Refuse a * b if it shuffles too many chain pairs or letters.

    Counted before multiplying, on the keys of the basis the product
    shuffles in (F, or K when both factors are K): keys of weights u and
    v shuffle C(u+v, u) pairs of representative chains, into words of
    u+v letters.
    """
    weights_b = Counter(map(cb.weight, b.terms)).items()
    size = letters = 0
    for u, i in Counter(map(cb.weight, a.terms)).items():
        for v, j in weights_b:
            pairs = i * j * _shuffle_count(u, v)
            size += pairs
            letters += pairs * (u + v)
            _at_most(size, MAX_EXPANSION, "chain-pair shuffles")
            _at_most(letters, MAX_SHUFFLE_LETTERS, "shuffled letters")


def _bound_inductive_antipode(e):
    """Refuse the M element e if its inductive antipode may build more than
    MAX_EXPANSION quasi-shuffle terms: 3^l per key of l parts, whatever the
    weights, with l capped at 11, past the bound."""
    size = sum(3 ** min(len(alpha), 11) for alpha in e.terms)
    _at_most(size, MAX_EXPANSION, "inductive antipode shuffles and terms")


# --- payload parsing ------------------------------------------------------

def _load(args):
    raw = args.infile
    _expect(raw is not None, "--in is required for this command")
    try:
        if raw == "-":
            raw = sys.stdin.buffer.read().decode("utf-8")
        elif not raw.lstrip().startswith(("{", "[")):
            with open(raw, encoding="utf-8") as fh:
                raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseFailure("cannot read %s: %s" % (args.infile, exc))
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseFailure("invalid JSON at line %d column %d: %s"
                           % (exc.lineno, exc.colno, exc.msg))
    except RecursionError:
        raise ParseFailure("invalid JSON: arrays and objects nest too deeply")
    except ValueError:
        # int() refuses a literal past the interpreter's digit limit
        raise ParseFailure("invalid JSON: integer literals must have at most "
                           "%d digits" % sys.get_int_max_str_digits())


def _payload_m(payload, args):
    _expect(isinstance(payload, dict), "payload must be a JSON object")
    m = payload.get("m", args.m)
    _expect(m is not None, "m must appear in the payload or as --m")
    _expect(isinstance(m, int) and not isinstance(m, bool),
            "m must be an integer")
    if args.m is not None and "m" in payload and payload["m"] != args.m:
        raise ParseFailure("--m disagrees with the payload's m")
    return _positive(m, "m")


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


def parse_comp(payload, args, key="comp", perm=False):
    m = _payload_m(payload, args)
    _expect(key in payload, "payload needs a %r field" % key)
    word = _pairs(payload[key], key)
    (cb.check_perm if perm else cb.check_comp)(word, m)
    return m, word


def parse_perm(payload, args, key="perm"):
    return parse_comp(payload, args, key, perm=True)


def parse_poset(payload, args):
    m = _payload_m(payload, args)
    _expect("elements" in payload, "payload needs an 'elements' field")
    elements = _pairs(payload["elements"], "elements")
    _at_most(len(elements), MAX_POSET_SIZE, "poset size")
    covers = _pairs(payload.get("covers", []), "covers")
    return ps.make_poset(m, elements, covers)


def parse_qsym(payload, args):
    m = _payload_m(payload, args)
    basis = payload.get("basis")
    _expect(basis in BASES, "basis must be one of %r" % (BASES,))
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

perm_json = comp_json


def qsym_json(e):
    return {"m": e.m, "basis": e.basis,
            "terms": [{"coeff": coeff_to_json(c), "comp": comp_json(a)}
                      for a, c in sorted(e.terms.items())]}


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
    return _positive(args.m, "m")


def _level_size(m, n):
    """Number of m-colored compositions of n: m(m+1)^(n-1), one for n = 0."""
    return m * (m + 1) ** (n - 1) if n > 0 else 1


def cmd_comp(args):
    op = args.op
    if op in ("enumerate", "enumerate-peak"):
        m = _require_m(args)
        _bound_levels(m, args.max_n)
        comps = (cb.enumerate_compositions if op == "enumerate"
                 else cb.peak_compositions)
        return {"m": m,
                "rows": [{"n": n, "comps": [comp_json(a) for a in comps(m, n)]}
                         for n in range(args.max_n + 1)]}
    m, alpha = parse_comp(_load(args), args)
    if op == "check":
        return {"m": m, "weight": cb.weight(alpha), "length": len(alpha),
                "peak": cb.is_peak_composition(alpha)}
    if op in ("star", "hat", "conjugate", "reverse"):
        if op == "conjugate":
            _bound_chains([alpha])
        return {"m": m, "comp": comp_json(getattr(cb, op)(alpha))}
    if op == "rainbow":
        return {"m": m,
                "blocks": [{"sizes": list(sizes), "color": color}
                           for sizes, color in cb.rainbow_decompose(alpha)]}
    if op in ("refinements", "coarsenings"):
        _at_most(cb.weight(alpha), MAX_REFINE_WEIGHT, "composition weight")
        fn = cb.refinements if op == "refinements" else cb.coarsenings
        return {"m": m, "comps": [comp_json(b) for b in sorted(fn(alpha))]}
    _bound_chains([alpha])
    return {"m": m, "perm": perm_json(cb.rep_chain(alpha))}


def cmd_perm(args):
    op = args.op
    payload = _load(args)
    if op == "shuffle":
        m = _payload_m(payload, args)
        _, left = parse_perm(dict(payload, m=m), args, key="left")
        _, right = parse_perm(dict(payload, m=m), args, key="right")
        count = _shuffle_count(len(left), len(right))
        _at_most(count, MAX_EXPANSION, "shuffles C(a+b, a)")
        _at_most(count * (len(left) + len(right)), MAX_SHUFFLE_LETTERS,
                 "shuffled letters")
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
    return {"m": m, "perm": perm_json(cb.standardize(pi))}


# --- poset verb -----------------------------------------------------------

def cmd_poset(args):
    op = args.op
    if op == "count":
        m = _require_m(args)
        _bound_poset_grid(m, args.max_n)
        return {"m": m,
                "rows": [{"n": n, "classes": len(ps.canonical_posets(m, n))}
                         for n in range(args.max_n + 1)]}
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
        _at_most(first.n + second.n, MAX_POSET_SIZE, "poset size")
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
    e = ps.antipode(ps.PElt.basis(P.canonical), route=args.route)
    return pelt_json(e)


# --- qsym verb ------------------------------------------------------------

def cmd_qsym(args):
    op = args.op
    payload = _load(args)
    if op == "product":
        first = parse_qsym(_sub_payload(payload, "first"), args)
        second = parse_qsym(_sub_payload(payload, "second"), args)
        if first.basis != "K" or second.basis != "K":
            first, second = _rewrite(first, "F"), _rewrite(second, "F")
        _bound_shuffles(first, second)
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
        if target == "K":
            raise ValueError("no conversion into the K basis; K spans only "
                             "the peak subalgebra")
        return qsym_json(_rewrite(e, target))
    if op == "coproduct":
        if e.basis == "M":
            _bound_deconcats(e.terms)
        else:
            _bound_chains(e.terms, cuts=True)
        return qsym_tensor_json(e.m, e.basis, qs.coproduct(e))
    if op == "antipode":
        if args.route == "inductive":
            e = _rewrite(e, "M")
            _bound_inductive_antipode(e)
            return qsym_json(qs.antipode_inductive(e))
        if e.basis == "M":
            _bound_coarsenings(e)
        else:
            _bound_chains(e.terms)
        return qsym_json(qs.antipode(e))
    if op == "counit":
        return {"m": e.m, "value": coeff_to_json(qs.counit(e))}
    return qsym_json(qs.peak_projection(_rewrite(e, "F")))


# --- char verb ------------------------------------------------------------

# family -> (domain kind, one-color and all-color factories in characters)
_CHAR_FAMILIES = {
    "zetaQ": ("qsym", "zeta_qsym", "zeta_qsym_all"),
    "zetaP": ("poset", "zeta_poset", "zeta_poset_all"),
    "nuQ": ("qsym", "nu_qsym", "nu_qsym_all"),
    "nuP": ("poset", "nu_poset", "nu_poset_all"),
}


def cmd_char(args):
    """char eval NAME evaluates one character on the payload; char psi
    FAMILY applies the morphism into QSym that the family's one-color
    characters induce.

    NAME is counit, a family (the convolution of its characters over all
    colors) or family:j (its character of color j), resolved before the
    payload body is read.  A qsym payload is rewritten into M once and
    bounded as the characters read it: the nu characters through the
    coarsenings of its keys (they read the antipode), and Psi and the
    convolutions (every nu, and a family over more than one color)
    nested over their cuts.
    """
    payload = _load(args)
    m = _payload_m(payload, args)
    name, psi = args.name, args.op == "psi"
    family, colon, suffix = name.partition(":")
    if name == "counit" and not psi:
        kind = "qsym" if "basis" in payload else "poset"
        dom = ch.qsym_domain(m) if kind == "qsym" else ch.poset_domain(m)
        chars = [ch.counit_character(dom)]
        coarsenings = cuts = False
    else:
        _expect(family in _CHAR_FAMILIES and not (psi and colon),
                "unknown character %s%r" % ("family " if psi else "", name))
        kind, single, full = _CHAR_FAMILIES[family]
        if colon:
            try:
                # ASCII digits only: int() also reads spaces, underscores
                # and the digits of other scripts
                j = int(re.fullmatch("-?[0-9]+", suffix)[0])
            except (TypeError, ValueError):
                raise ParseFailure("character color must be an integer, "
                                   "got %r" % name)
            if not 0 <= j < m:
                raise ValueError("composition colors must lie in range(m)")
            chars = [getattr(ch, single)(m, j)]
        else:
            _at_most(m, MAX_CHAR_COLORS, "colors of an all-color character")
            chars = ([getattr(ch, single)(m, j) for j in range(m)] if psi
                     else [getattr(ch, full)(m)])
        coarsenings = family.startswith("nu")
        cuts = psi or coarsenings or (not colon and m > 1)
    if kind == "qsym":
        elt = _rewrite(parse_qsym(payload, args), "M")
        if coarsenings:
            _bound_coarsenings(elt)
        if cuts:
            _bound_deconcats(elt.terms, nested=True)
    else:
        elt = ps.PElt.basis(parse_poset(payload, args).canonical)
    if psi:
        return qsym_json(ch.universal_morphism(elt, chars))
    phi, = chars
    return {"name": phi.name, "m": m, "value": coeff_to_json(phi(elt))}


# --- oracle verb ----------------------------------------------------------

def cmd_oracle(args):
    N = _positive(args.max_N, "truncation level")
    payload = _load(args)
    if args.op == "truncate":
        e = _rewrite(parse_qsym(payload, args), "M")
        _bound_oracle_choices(N, map(len, e.terms))
        return tpoly_json(oc.truncate(e, N))
    P = parse_poset(payload, args)
    _bound_oracle_choices(N, [P.n])
    if args.op == "ppartitions":
        return tpoly_json(oc.enumerate_ppartitions(P, N))
    if args.op == "enriched":
        return tpoly_json(oc.enumerate_enriched(P, N))
    ok = oc.split_alphabet_check(P, N)
    return {"N": N, "ok": ok}, (0 if ok else 1)


# --- verify and dims verbs -----------------------------------------------

def _bound_verify_grid(suite, m, max_n, max_N):
    """Refuse a verify grid past the bounds of what it enumerates:
    compositions for dimension-counts, canonical posets for every other
    suite, and for oracle-equivalence the oracle's (2N)^n choices, on a
    poset of max_n elements and then summed over the grid's canonical
    posets, counted without building them, and last its levels N."""
    if suite == "dimension-counts":
        _bound_levels(m, max_n)
    else:
        _bound_poset_grid(m, max_n)
    if suite == "oracle-equivalence":
        _positive(max_N, "truncation level")
        _bound_oracle_choices(max_N, [max_n])
        counts = CANONICAL_COUNTS[m - 1][:max_n + 1]
        _at_most(sum((2 * max_N) ** n * c for n, c in enumerate(counts)),
                 MAX_ORACLE_GRID, "oracle choices (2N)^n over the grid")
        _at_most(max_N, MAX_ORACLE_LEVELS, "--max-N of oracle-equivalence")


def cmd_verify(args):
    from .verify import DEFAULT_MAX_N, SUITES, cache_stats, run_checks
    name = args.suite
    _expect(name is not None, "--suite NAME is required; one of %s"
            % ", ".join(sorted(SUITES)))
    _expect(name in SUITES, "unknown suite %r; one of %s"
            % (name, ", ".join(sorted(SUITES))))
    m = _positive(args.m, "m")
    max_n = DEFAULT_MAX_N[name] if args.max_n is None else args.max_n
    _bound_verify_grid(name, m, max_n, args.max_N)
    checks, run = run_checks(SUITES[name](m, max_n, args.max_N, args.seed))
    if not args.stats:
        for c in checks:
            del c["seconds"]
    ok = all(c["ok"] for c in checks)
    report = {"suite": name, "m": m, "checks": checks, "ok": ok}
    if args.stats:
        report["stats"] = {"processes": run["processes"],
                           "caches": cache_stats(run["caches"])}
    return report, (0 if ok else 1)


def _dims_max_n(m):
    """The largest n with m(m+1)^(n-1) <= 10^MAX_DIMS_DIGITS; the peak
    count f_{m,n} is smaller."""
    return math.floor((MAX_DIMS_DIGITS - math.log10(m))
                      / math.log10(m + 1)) + 1


def cmd_dims(args):
    m = _require_m(args)
    _nonnegative_max_n(args.max_n)
    _at_most(args.max_n, _dims_max_n(m), "--max-n")
    rows = []
    for n in range(1, args.max_n + 1):
        rows.append({"n": n,
                     "qsym": _level_size(m, n),
                     "peak": cb.count_peak_compositions(m, n)})
    return {"m": m, "rows": rows}


# --- wiring ---------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument errors become ParseFailure, so they get a JSON answer."""

    def error(self, message):
        raise ParseFailure("%s: %s" % (self.prog, message))


# Each option is declared once and attached only to the verbs that read it.
_OPTIONS = {
    "--m": dict(type=int, default=None),
    "--max-n": dict(dest="max_n", type=int, default=None),
    "--max-N": dict(dest="max_N", type=int, default=2),
    "--seed": dict(type=int, default=0),
    "--in": dict(dest="infile", default=None,
                 help="inline JSON, a file path, or - for stdin"),
    "--suite": dict(default=None),
    "--stats": dict(action="store_true",
                    help="add per-check seconds and memo cache statistics"),
    "--basis": dict(choices=BASES, default=None),
}


def _build_parser():
    ap = _Parser(
        prog="cqsym",
        description="Colored quasisymmetric functions, colored labeled "
                    "posets, and their Hopf algebra maps.")
    sub = ap.add_subparsers(dest="verb", required=True)

    def add(verb, ops, fn, options, **defaults):
        p = sub.add_parser(verb)
        if ops:
            p.add_argument("op", choices=ops)
        for name in options.split():
            p.add_argument(name, **_OPTIONS[name])
        p.set_defaults(fn=fn, **defaults)
        return p

    add("comp", ["check", "star", "hat", "conjugate", "reverse", "rainbow",
                 "refinements", "coarsenings", "rep-chain", "enumerate",
                 "enumerate-peak"], cmd_comp, "--m --max-n --in", max_n=4)
    add("perm", ["check", "descent-comp", "peak-comp", "peak-set",
                 "standardize", "shuffle"], cmd_perm, "--m --in")
    add("poset", ["check", "canonical", "equivalent", "ideals", "extensions",
                  "product", "coproduct", "antipode", "count"], cmd_poset,
        "--m --max-n --in", max_n=4).add_argument(
            "--route", choices=("inductive", "chains"), default="inductive")
    add("qsym", ["convert", "product", "coproduct", "antipode", "counit",
                 "gamma", "lambda", "theta"], cmd_qsym,
        "--m --in --basis").add_argument(
            "--route", choices=("closed", "inductive"), default="closed")
    add("char", ["eval", "psi"], cmd_char, "--m --in").add_argument("name")
    add("oracle", ["ppartitions", "enriched", "truncate", "split-check"],
        cmd_oracle, "--m --max-N --in")
    add("verify", None, cmd_verify,
        "--m --max-n --max-N --seed --suite --stats", m=2)
    add("dims", None, cmd_dims, "--m --max-n", max_n=5)
    return ap


def _emit(obj):
    try:
        text = json.dumps(obj)
    except ValueError:   # str() refuses an int past the interpreter's limit
        raise ValueError("result integers must have at most %d digits"
                         % sys.get_int_max_str_digits()) from None
    print(text, flush=True)


def main(argv=None):
    """Answer argv on stdout and return the exit code.  If stdout's reader
    has gone, point stdout at the null device, so the flush at exit cannot
    fail again, and return 141, the code of a death by SIGPIPE."""
    try:
        return _answer(argv)
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return 141


def _answer(argv):
    try:
        args = _build_parser().parse_args(argv)
        out = args.fn(args)
        code = 0
        if isinstance(out, tuple):
            out, code = out
        _emit(out)   # in the try: it refuses too-long result integers
        return code
    except ParseFailure as exc:
        _emit({"error": {"type": "parse", "detail": str(exc)}})
        return 2
    except ValueError as exc:
        _emit({"error": {"type": "domain", "invariant": str(exc)}})
        return 3
    except BrokenPipeError:
        raise
    except Exception as exc:
        _emit({"error": {"type": "internal",
                         "detail": "%s: %s" % (type(exc).__name__, exc)}})
        return 4


if __name__ == "__main__":
    sys.exit(main())
