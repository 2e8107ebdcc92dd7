"""Seeded generator for the cli-session workload.

A session is a fixed schedule of 100 single CLI calls: 90 valid calls that
cover all 42 verb/op pairs, weighted toward the poset, qsym, char and
oracle verbs, and 10 deliberately malformed ones. The seed fixes the order
of the calls and every payload, and nothing else, so sessions of different
seeds do the same mix of work. The generator does not import cqsym.

Each call is a dict with
- ``argv``: the arguments after ``python -m cqsym.cli``;
- ``expect``: ``"ok"`` (exit 0 with a JSON object holding ``keys``) or
  ``"error"`` (exit 2 or 3 with a JSON ``error`` object);
- ``keys``: the top-level keys a successful reply carries;
- ``known_defect``: the name of a crash the seed commit is known to have
  on this call, or None. Such calls stay in the mix and count as failures.
"""

import json
import random

SUITES = ("hopf-axioms", "gamma-morphism", "lambda-morphism",
          "theta-morphism", "antipode-consistency", "oracle-equivalence",
          "character-group", "nu-counting", "dimension-counts")

ALL_PAIRS = (
    [("comp", op) for op in ("check", "star", "hat", "conjugate", "reverse",
                             "rainbow", "refinements", "coarsenings",
                             "rep-chain", "enumerate", "enumerate-peak")]
    + [("perm", op) for op in ("check", "descent-comp", "peak-comp",
                               "peak-set", "standardize", "shuffle")]
    + [("poset", op) for op in ("check", "canonical", "equivalent", "ideals",
                                "extensions", "product", "coproduct",
                                "antipode", "count")]
    + [("qsym", op) for op in ("convert", "product", "coproduct", "antipode",
                               "counit", "gamma", "lambda", "theta")]
    + [("char", "eval"), ("char", "psi"), ("oracle", "ppartitions"),
       ("oracle", "enriched"), ("oracle", "truncate"),
       ("oracle", "split-check"), ("verify", None), ("dims", None)])

QSYM_KEYS = ("m", "basis", "terms")
POSET_KEYS = ("m", "elements", "covers")
TPOLY_KEYS = ("N", "m", "terms")


# --- random inputs --------------------------------------------------------

def rand_comp(rng, m, n):
    """A composition of weight n with colors in range(m)."""
    parts = []
    while n:
        size = rng.randint(1, min(n, 3))
        parts.append([size, rng.randrange(m)])
        n -= size
    return parts


def rand_peak_comp(rng, m, n):
    """A peak composition: in each run of one color only the last part is 1."""
    while True:
        alpha = rand_comp(rng, m, n)
        if all(a[0] > 1 or b[1] != a[1] for a, b in zip(alpha, alpha[1:])):
            return alpha


def rand_perm(rng, m, n, values=None):
    values = list(values or range(1, n + 1))
    rng.shuffle(values)
    return [[v, rng.randrange(m)] for v in values]


def rand_poset(rng, m, n, density=0.35):
    """A labeled poset payload on n distinct values with random covers."""
    values = rng.sample(range(1, 3 * n + 1), n)
    order = values[:]
    rng.shuffle(order)
    covers = [[order[i], order[j]] for i in range(n) for j in range(i + 1, n)
              if rng.random() < density]
    elements = [[v, rng.randrange(m)] for v in sorted(values)]
    return {"m": m, "elements": elements, "covers": covers}


def rand_qsym(rng, m, basis, n, terms=2):
    make = rand_peak_comp if basis == "K" else rand_comp
    return {"m": m, "basis": basis,
            "terms": [{"coeff": rng.choice([1, -1, 2, 3, "1/2", "-2/3"]),
                       "comp": make(rng, m, n)} for _ in range(terms)]}


def _payload(obj):
    return ["--in", json.dumps(obj, separators=(",", ":"))]


# --- valid calls ----------------------------------------------------------

def _comp_call(op):
    def make(rng):
        m = rng.randint(1, 3)
        if op in ("enumerate", "enumerate-peak"):
            return ["comp", op, "--m", str(m),
                    "--max-n", str(rng.randint(3, 4))]
        n = 5 if op == "refinements" else rng.randint(4, 7)
        return ["comp", op] + _payload({"m": m, "comp": rand_comp(rng, m, n)})
    keys = {"check": ("m", "weight", "length", "peak"),
            "rainbow": ("m", "blocks"), "refinements": ("m", "comps"),
            "coarsenings": ("m", "comps"), "rep-chain": ("m", "perm"),
            "enumerate": ("m", "rows"), "enumerate-peak": ("m", "rows")}
    return make, keys.get(op, ("m", "comp"))


def _perm_call(op):
    def make(rng):
        m = rng.randint(1, 3)
        if op == "shuffle":
            left = rand_perm(rng, m, 4)
            right = rand_perm(rng, m, 3, values=range(5, 8))
            return ["perm", op] + _payload({"m": m, "left": left,
                                            "right": right})
        n = rng.randint(4, 7)
        perm = rand_perm(rng, m, n, values=rng.sample(range(1, 20), n)
                         if op == "standardize" else None)
        return ["perm", op] + _payload({"m": m, "perm": perm})
    keys = {"check": ("m", "size"), "peak-set": ("m", "peaks"),
            "standardize": ("m", "perm"), "shuffle": ("m", "perms")}
    return make, keys.get(op, ("m", "comp"))


# poset sizes per op: small where the op is exponential in n
POSET_N = {"check": (5, 6), "canonical": (5, 7), "equivalent": (4, 6),
           "ideals": (5, 7), "extensions": (5, 7), "product": (3, 4),
           "coproduct": (4, 6), "antipode": (3, 5)}


def _poset_call(op):
    def make(rng):
        m = rng.randint(1, 3)
        if op == "count":
            return ["poset", op, "--m", str(rng.randint(1, 2)), "--max-n", "4"]
        lo, hi = POSET_N[op]
        n = rng.randint(lo, hi)
        if op in ("equivalent", "product"):
            first = rand_poset(rng, m, n)
            if op == "equivalent" and rng.random() < 0.5:
                second = dict(first)      # same poset, shifted values
                shift = rng.randint(1, 5)
                second["elements"] = [[v + shift, c]
                                      for v, c in first["elements"]]
                second["covers"] = [[a + shift, b + shift]
                                    for a, b in first["covers"]]
            else:
                second = rand_poset(rng, m, rng.randint(lo, hi))
            return ["poset", op] + _payload({"first": first, "second": second})
        argv = ["poset", op] + _payload(rand_poset(rng, m, n))
        if op == "antipode" and rng.random() < 0.5:
            argv += ["--route", "chains"]
        return argv
    keys = {"check": ("m", "size", "canonical"), "equivalent": ("equivalent",),
            "ideals": ("m", "count", "ideals"), "extensions": ("m", "perms"),
            "coproduct": ("m", "terms"), "antipode": ("m", "terms"),
            "count": ("m", "rows")}
    return make, keys.get(op, POSET_KEYS)


def _qsym_call(op):
    def make(rng):
        m = rng.randint(1, 3)
        if op in ("gamma", "lambda"):
            poset = rand_poset(rng, m, rng.randint(4, 6))
            return ["qsym", op] + _payload(poset)
        basis = rng.choice("MFK")
        if op == "product":
            other = "K" if basis == "K" else rng.choice("MF")
            return ["qsym", op] + _payload(
                {"first": rand_qsym(rng, m, basis, rng.randint(2, 3)),
                 "second": rand_qsym(rng, m, other, rng.randint(2, 3))})
        argv = ["qsym", op] + _payload(rand_qsym(rng, m, basis,
                                                 rng.randint(3, 5)))
        if op == "convert":
            argv += ["--basis", rng.choice("MF")]
        if op == "antipode" and rng.random() < 0.5:
            argv += ["--route", "inductive"]
        return argv
    keys = {"coproduct": ("m", "basis", "terms"), "counit": ("m", "value")}
    return make, keys.get(op, QSYM_KEYS)


def _char_call(op):
    def make(rng):
        m = rng.randint(1, 3)
        family = rng.choice(["zetaQ", "zetaP", "nuQ", "nuP"])
        if op == "psi":
            name, qsym = family, family.endswith("Q")
        else:
            name = rng.choice([family, "%s:%d" % (family, rng.randrange(m)),
                               "counit"])
            qsym = (family.endswith("Q") if name != "counit"
                    else rng.random() < 0.5)
        payload = (rand_qsym(rng, m, rng.choice("MF"), rng.randint(3, 5))
                   if qsym else rand_poset(rng, m, rng.randint(3, 5)))
        return ["char", op, name] + _payload(payload)
    return make, (("name", "m", "value") if op == "eval" else QSYM_KEYS)


def _oracle_call(op):
    def make(rng):
        m = rng.randint(1, 2)
        N = rng.randint(2, 3)
        if op == "truncate":
            payload = rand_qsym(rng, m, rng.choice("MF"), rng.randint(2, 4))
        else:
            payload = rand_poset(rng, m, rng.randint(3, 6 if N == 2 else 5))
        return ["oracle", op, "--max-N", str(N)] + _payload(payload)
    return make, (("N", "ok") if op == "split-check" else TPOLY_KEYS)


def _verify_call(rng):
    return ["verify", "--suite", rng.choice(SUITES), "--m", "1",
            "--max-n", "3", "--max-N", "2", "--seed", str(rng.randrange(100))]


def _dims_call(rng):
    return ["dims", "--m", str(rng.randint(1, 3)), "--max-n",
            str(rng.randint(4, 6))]


VALID = (
    [(("comp", op), 1) for op in ("check", "star", "hat", "conjugate",
                                  "reverse", "rainbow", "refinements",
                                  "coarsenings", "rep-chain", "enumerate",
                                  "enumerate-peak")]
    + [(("perm", op), 1) for op in ("check", "descent-comp", "peak-comp",
                                    "peak-set", "standardize", "shuffle")]
    + [(("poset", "check"), 2), (("poset", "canonical"), 5),
       (("poset", "equivalent"), 3), (("poset", "ideals"), 3),
       (("poset", "extensions"), 3), (("poset", "product"), 3),
       (("poset", "coproduct"), 3), (("poset", "antipode"), 3),
       (("poset", "count"), 1)]
    + [(("qsym", op), 2 if op == "counit" else 3)
       for op in ("convert", "product", "coproduct", "antipode", "counit",
                  "gamma", "lambda", "theta")]
    + [(("char", "eval"), 6), (("char", "psi"), 4)]
    + [(("oracle", op), 4 if op in ("ppartitions", "enriched") else 2)
       for op in ("ppartitions", "enriched", "truncate", "split-check")]
    + [(("verify", None), 1), (("dims", None), 1)])

KNOWN_DEFECTS = {("poset", "check"): "poset-check-typeerror"}


def _valid_maker(verb, op):
    if verb == "verify":
        return _verify_call, ("suite", "m", "checks", "ok")
    if verb == "dims":
        return _dims_call, ("m", "rows")
    return {"comp": _comp_call, "perm": _perm_call, "poset": _poset_call,
            "qsym": _qsym_call, "char": _char_call,
            "oracle": _oracle_call}[verb](op)


# --- malformed calls ------------------------------------------------------

def _bad_zero_denominator(rng):
    terms = rand_qsym(rng, 2, "M", 3)
    terms["terms"][0]["coeff"] = "1/0"
    return ["qsym", "counit"] + _payload(terms)


def _bad_json(rng):
    text = json.dumps({"m": 2, "perm": rand_perm(rng, 2, 4)})
    return ["perm", "check", "--in", text[:rng.randint(5, len(text) - 2)]]


def _bad_missing_field(rng):
    return ["comp", "star"] + _payload({"m": 2, "parts": rand_comp(rng, 2, 4)})


def _bad_color(rng):
    alpha = rand_comp(rng, 2, 5)
    alpha[rng.randrange(len(alpha))][1] = 2 + rng.randrange(3)
    return ["comp", "hat"] + _payload({"m": 2, "comp": alpha})


def _bad_cycle(rng):
    P = rand_poset(rng, 2, 4)
    vals = [v for v, _ in P["elements"]]
    rng.shuffle(vals)
    P["covers"] = [[vals[i], vals[(i + 1) % 4]] for i in range(4)]
    return ["poset", "canonical"] + _payload(P)


def _bad_m_mismatch(rng):
    return (["qsym", "coproduct", "--m", "3"]
            + _payload(rand_qsym(rng, 2, "F", 3)))


def _bad_peak_key(rng):
    return ["qsym", "theta"] + _payload(
        {"m": 1, "basis": "K",
         "terms": [{"coeff": 1, "comp": [[1, 0], [rng.randint(1, 3), 0]]}]})


def _bad_character(rng):
    return (["char", "eval", rng.choice(["zetaX", "nuR", "zetaQ:x"])]
            + _payload(rand_qsym(rng, 2, "M", 3)))


def _bad_duplicate_value(rng):
    perm = rand_perm(rng, 2, 5)
    perm[1][0] = perm[3][0]
    return ["perm", "descent-comp"] + _payload({"m": 2, "perm": perm})


def _bad_truncation(rng):
    return (["oracle", "ppartitions", "--max-N", "0"]
            + _payload(rand_poset(rng, 1, 3)))


MALFORMED = (
    (_bad_zero_denominator, "zero-denominator"),
    (_bad_json, None), (_bad_missing_field, None), (_bad_color, None),
    (_bad_cycle, None), (_bad_m_mismatch, None), (_bad_peak_key, None),
    (_bad_character, None), (_bad_duplicate_value, None),
    (_bad_truncation, None))


def generate(seed):
    """The cli-session calls for seed, in the order they run."""
    rng = random.Random(seed)
    calls = []
    for (verb, op), count in VALID:
        make, keys = _valid_maker(verb, op)
        for _ in range(count):
            calls.append({"argv": make(rng), "expect": "ok",
                          "keys": list(keys),
                          "known_defect": KNOWN_DEFECTS.get((verb, op))})
    for make, defect in MALFORMED:
        calls.append({"argv": make(rng), "expect": "error", "keys": ["error"],
                      "known_defect": defect})
    rng.shuffle(calls)
    return calls


def verb_op(argv):
    """The (verb, op) pair a call exercises."""
    return (argv[0], None if argv[0] in ("verify", "dims") else argv[1])
