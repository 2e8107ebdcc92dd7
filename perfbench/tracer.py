"""Per-function aggregates for the traced benchmark run.

The tracer patches functions of the cqsym modules from outside: module
attributes (every module binding of the same function object, so calls
through ``from .x import f`` are seen too) and class methods and
properties. Each wrapped function keeps three numbers in memory: calls,
total seconds and self seconds, where self time is a call's duration
minus the time spent in nested wrapped calls. No per-call record is
kept; `product_key` alone runs millions of times per workload.

`terms` is not wrapped (``terms.iadd`` runs about 11M times in one
verify-hopf run), and neither is ``Poset.__hash__``; their cost stays in
the self time of their callers.
"""

import functools
import inspect
import sys
import time

LAYERS = ("poset", "qsym", "combinat", "characters", "oracle", "cli")

# Hashing protocol of the interned poset keys: wrapping it would trace
# every dict lookup in the poset layer.
SKIP = {("Poset", "__hash__"), ("Poset", "__eq__")}

# Operator methods worth tracing on the element classes.
DUNDERS = ("__eq__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
           "__call__")

# Private cli functions traced so the cli layer can split into parse,
# main and emit time; _build_parser is traced separately, with the
# parse_args of the parser it returns.
CLI_PRIVATE = ("_load", "_emit")


class Tracer:
    """Installs wrappers on the cqsym modules and aggregates their calls.

    Keys are ``layer.name`` for functions and ``layer.Class.method`` for
    methods. Observers, keyed the same way, see each call's arguments
    and result and feed the ratio metrics.
    """

    def __init__(self, observers=None):
        self.stats = {}
        self.observers = observers or {}
        self._stack = []
        self._undo = []

    def wrap(self, key, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        observe = self.observers.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        """Wrap every traced function of the imported cqsym modules."""
        modules = [sys.modules["cqsym." + layer] for layer in LAYERS
                   if "cqsym." + layer in sys.modules]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.split(".")[1]
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    public = not name.startswith("_")
                    if name == "_build_parser" and layer == "cli":
                        wrapped[id(obj)] = self.wrap(
                            "cli._build_parser", self._traced_parser(obj))
                    elif public or (layer == "cli" and name in CLI_PRIVATE):
                        wrapped[id(obj)] = self.wrap(layer + "." + name, obj)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not name.startswith("_")):
                    self._install_class(layer, obj)
        # rebind every module attribute that holds a wrapped function
        for mod in [sys.modules[k] for k in list(sys.modules)
                    if k == "cqsym" or k.startswith("cqsym.")]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, name, wrapped[id(obj)])
        return self

    def _traced_parser(self, build):
        """_build_parser whose parser traces parse_args as cli.parse_args."""
        def build_traced():
            parser = build()
            parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)
            return parser
        return build_traced

    def _install_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if (cls.__name__, name) in SKIP:
                continue
            if name.startswith("_") and name not in DUNDERS:
                continue
            key = "%s.%s.%s" % (layer, cls.__name__, name)
            if isinstance(attr, property):
                traced = property(self.wrap(key, attr.fget), attr.fset,
                                  attr.fdel, attr.__doc__)
            elif isinstance(attr, classmethod):
                traced = classmethod(self.wrap(key, attr.__func__))
            elif inspect.isfunction(attr):
                traced = self.wrap(key, attr)
            else:
                continue
            self._set(cls, name, traced)

    def restore(self):
        """Put every original back, in reverse order of patching."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def table(self):
        """{key: {"calls", "total_s", "self_s"}} for every wrapped function."""
        return {k: {"calls": c, "total_s": t, "self_s": s}
                for k, (c, t, s) in sorted(self.stats.items())}


# --- observers for the ratio metrics --------------------------------------

class Observers:
    """Argument and result watchers behind the distinct and reuse ratios.

    Canonical posets are interned by cqsym, so ids identify them for the
    life of the process; other posets are keyed by their labeled
    structure, which reads plain attributes and calls nothing traced.
    """

    def __init__(self):
        self.union_pairs = set()
        self.classes = set()
        self.gamma_args = set()
        self.lambda_args = set()
        self.mul_pairs = 0
        self.mul_repeats = 0
        self._mul_seen = set()

    def table(self):
        return {
            "poset.product_key": self._on_product_key,
            "poset.Poset.canonical": self._on_canonical,
            "qsym.ppartition_gf": self._on_gamma,
            "qsym.enriched_gf": self._on_lambda,
            "qsym.multiply": self._on_multiply,
        }

    def _on_product_key(self, args, result):
        self.union_pairs.add((id(args[0]), id(args[1])))

    def _on_canonical(self, args, result):
        self.classes.add(id(result))

    @staticmethod
    def _shape(P):
        return (P.m, P.colors, P.above)

    def _on_gamma(self, args, result):
        self.gamma_args.add(self._shape(args[0]))

    def _on_lambda(self, args, result):
        self.lambda_args.add(self._shape(args[0]))

    def _on_multiply(self, args, result):
        a, b = args
        if a.basis != b.basis or a.basis == "M":
            return
        seen = self._mul_seen
        for alpha in a.terms:
            for beta in b.terms:
                key = (a.basis, alpha, beta)
                self.mul_pairs += 1
                if key in seen:
                    self.mul_repeats += 1
                else:
                    seen.add(key)

    def counts(self):
        """Raw counts; the runner turns them into ratios across processes."""
        return {"union_pairs": len(self.union_pairs),
                "classes": len(self.classes),
                "gamma_args": len(self.gamma_args),
                "lambda_args": len(self.lambda_args),
                "mul_pairs": self.mul_pairs,
                "mul_repeats": self.mul_repeats}
