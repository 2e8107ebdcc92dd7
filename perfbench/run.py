"""The cqsym benchmark: cold verify workloads and a CLI session.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each was chosen):
- verify-hopf, verify-morphisms, verify-oracle: fixed ``cqsym verify``
  grids, each rep in a fresh worker process that calls
  ``cqsym.cli.main([...])``;
- cli-session: 100 seeded single calls, each a fresh
  ``python -m cqsym.cli`` process.

A run repeats the workload, each rep cold, for as many reps as fit in S
seconds (at least one) and reports medians. Every time it reports is
scaled by a host-speed reference timed alongside (see speed.py). With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` it makes one untraced and one
traced rep and prints the per-layer metrics. The last line of output is
one JSON object with the keys correct, attempted, failed and metrics.
Every run also writes the full result, with the machine it ran on, under
perfbench/results/.

``--record-golden`` runs every workload once at the default seed and
records the outputs that the drift guard compares against.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import session  # noqa: E402
import speed  # noqa: E402

DEFAULT_SEED = 0
SETUP_PROBES = 15
TIMING_KEYS = frozenset({"seconds"})

VERIFY = {
    "verify-hopf": [
        ["verify", "--suite", "hopf-axioms", "--m", "2"],
        ["verify", "--suite", "antipode-consistency", "--m", "2"]],
    "verify-morphisms": [
        ["verify", "--suite", s, "--m", "3", "--max-n", "4"]
        for s in ("gamma-morphism", "lambda-morphism", "theta-morphism")],
    "verify-oracle": [
        ["verify", "--suite", "oracle-equivalence", "--m", "2",
         "--max-n", "4", "--max-N", "3"],
        ["verify", "--suite", "character-group", "--m", "2", "--max-n", "4"],
        ["verify", "--suite", "nu-counting", "--m", "2", "--max-n", "4"]],
}
WORKLOADS = tuple(VERIFY) + ("cli-session",)

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

# Per-layer metrics are named <function>.<calls|self_s> after the traced
# function; these functions are traced under another key.
ALIASES = {
    "poset.splits": "poset.Poset.splits",
    "poset.canonical": "poset.Poset.canonical",
    "poset.linear_extensions": "poset.Poset.linear_extensions",
    "qsym.eq": "qsym.QElt.__eq__",
    "oracle.tpoly_mul": "oracle.TPoly.__mul__",
    "characters.of_key": "characters.Character.of_key",
    "characters.call": "characters.Character.__call__",
}
CLI_PARSE = ("cli._build_parser", "cli.parse_args", "cli._load",
             "cli.parse_comp", "cli.parse_perm", "cli.parse_poset",
             "cli.parse_qsym")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env):
    """Run a child to completion; (exit code, stdout, stderr, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=170)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


def last_json(text):
    lines = text.strip().splitlines()
    if not lines:
        raise BenchError("child printed no result")
    return json.loads(lines[-1])


def setup_probe(env):
    """Seconds from spawning a worker until ``import cqsym`` returned in it."""
    t0 = time.perf_counter()
    code, out, err, _ = run_child(
        [sys.executable, os.path.join(HERE, "worker.py"), "setup"], env)
    if code != 0:
        raise BenchError("worker could not import cqsym:\n" + err)
    return last_json(out)["t_ready"] - t0


def setup_probes(env, n):
    """n setup probes; (raw, scaled) lists of seconds.

    Each probe is scaled by the process-start reference timed before and
    after it (``speed.spawn_seconds``).
    """
    raws, scaled = [], []
    ref = speed.spawn_seconds(env, ROOT)
    for _ in range(n):
        raws.append(setup_probe(env))
        ref, before = speed.spawn_seconds(env, ROOT), ref
        scaled.append(speed.scale(raws[-1], before, ref, speed.SPAWN_S))
    return raws, scaled


# --- one rep of a workload ------------------------------------------------

def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items()
                if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def verify_rep(name, seed, trace, env):
    calls = [argv + ["--seed", str(seed)] for argv in VERIFY[name]]
    spec = json.dumps({"calls": calls, "trace": trace})
    code, out, err, _ = run_child(
        [sys.executable, os.path.join(HERE, "worker.py"), "calls", spec], env)
    if code != 0:
        raise BenchError("verify worker failed:\n" + err[-2000:])
    res = last_json(out)
    ops = []
    for call in res["calls"]:
        try:
            report = json.loads(call["stdout"])
        except ValueError:
            report = None
        checks = report.get("checks") if isinstance(report, dict) else None
        if not checks:
            ops.append({"op": " ".join(call["argv"]), "ok": False,
                        "output": None, "known_defect": None})
            continue
        for check in checks:
            ok = (call["exit"] == 0 and check.get("ok") is True
                  and isinstance(check.get("checked"), int)
                  and check["checked"] > 0)
            name = "%s/%s" % (report.get("suite"), check.get("name"))
            ops.append({"op": name, "ok": ok, "output": strip_timing(check),
                        "known_defect": None})
    cases = sum(op["output"]["checked"] for op in ops if op["output"])
    raw = sum(c["seconds"] for c in res["calls"])
    wall = sum(c["scaled_seconds"] for c in res["calls"])
    return {"wall_s": wall, "raw_wall_s": raw, "cases": cases, "ops": ops,
            "latencies_s": [wall],
            "exits": [c["exit"] for c in res["calls"]],
            "tracebacks": sum(c["traceback"] for c in res["calls"]),
            "rss_mb": res["maxrss_kb"] / 1024.0,
            "import_s": [res["import_s"]],
            "trace": res.get("trace"), "observed": [res.get("observed")]}


def cli_call_ok(call, code, out, err):
    if "Traceback (most recent call last)" in err:
        return False
    try:
        reply = json.loads(out)
    except ValueError:
        return False
    if not isinstance(reply, dict):
        return False
    if call["expect"] == "error":
        return code in (2, 3) and isinstance(reply.get("error"), dict)
    return code == 0 and "error" not in reply and all(
        k in reply for k in call["keys"])


def cli_rep(seed, trace, env):
    calls = session.generate(seed)
    ops, latencies, raws, exits, tracebacks = [], [], [], [], 0
    tables, observed, imports = [], [], []
    ref = speed.spawn_seconds(env, ROOT)
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".stats-") as tmp:
        for i, call in enumerate(calls):
            if trace:
                stats = os.path.join(tmp, "%d.json" % i)
                argv = [sys.executable, os.path.join(HERE, "clitrace.py"),
                        stats] + call["argv"]
            else:
                argv = [sys.executable, "-m", "cqsym.cli"] + call["argv"]
            code, out, err, dt = run_child(argv, env)
            ref, before = speed.spawn_seconds(env, ROOT), ref
            raws.append(dt)
            latencies.append(speed.scale(dt, before, ref, speed.SPAWN_S))
            exits.append(code)
            tracebacks += "Traceback (most recent call last)" in err
            ops.append({"op": " ".join(call["argv"]),
                        "ok": cli_call_ok(call, code, out, err),
                        "output": {"exit": code, "stdout_sha256":
                                   hashlib.sha256(out.encode()).hexdigest()},
                        "known_defect": call["known_defect"]})
            if trace:
                if not os.path.exists(stats):
                    raise BenchError("traced CLI call wrote no stats:\n" + err)
                with open(stats) as fh:
                    rec = json.load(fh)
                tables.append(rec["trace"])
                observed.append(rec["observed"])
                imports.append(rec["import_s"])
    return {"wall_s": sum(latencies), "raw_wall_s": sum(raws),
            "cases": len(calls), "ops": ops,
            "latencies_s": latencies, "exits": exits, "tracebacks": tracebacks,
            "rss_mb": resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "import_s": imports, "trace": merge_tables(tables),
            "observed": observed}


def merge_tables(tables):
    out = {}
    for table in tables:
        for key, st in table.items():
            acc = out.setdefault(key, {"calls": 0, "total_s": 0.0,
                                       "self_s": 0.0})
            for k in acc:
                acc[k] += st[k]
    return out


def run_rep(name, seed, trace, env):
    if name == "cli-session":
        return cli_rep(seed, trace, env)
    return verify_rep(name, seed, trace, env)


# --- correctness ----------------------------------------------------------

def load_golden():
    try:
        with open(GOLDEN) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def judge(rep, golden):
    """Mark drift against the golden outputs; (attempted, failed, unexpected).

    Golden entries are matched by operation (a verify check's name, or a
    CLI call's arguments); an operation without one is not compared, and
    neither is one that failed at record time, so fixing it is not
    penalized. Failures of calls tagged with a known defect are counted
    but do not make the run incorrect.
    """
    refs = {ref["op"]: ref for ref in golden or ()}
    failed = unexpected = 0
    for op in rep["ops"]:
        ref = refs.get(op["op"])
        if ref is not None and ref["ok"] and op["output"] != ref["output"]:
            op["ok"] = False
            op["drift"] = True
        if not op["ok"]:
            failed += 1
            unexpected += op["known_defect"] is None
    return len(rep["ops"]), failed, unexpected


# --- metrics --------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile of values (0 < p <= 100)."""
    xs = sorted(values)
    k = max(0, -(-len(xs) * p // 100) - 1)
    return xs[int(k)]


def end_to_end(reps, setups):
    lat = [x for r in reps for x in r["latencies_s"]]
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.median(r["wall_s"] for r in reps), len(reps)),
        "cases_per_s": (statistics.median(r["cases"] / r["wall_s"]
                                          for r in reps), len(reps)),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reps),
                        len(reps)),
        "cli_p50_ms": (statistics.median(lat) * 1000.0, len(lat)),
        "cli_p90_ms": (percentile(lat, 90) * 1000.0, len(lat)),
    }


def layer_metrics(traced, untraced, names):
    """Per-layer metric values for names, from the traced rep."""
    table = traced["trace"]

    def stat(fn, field):
        return table.get(ALIASES.get(fn, fn), {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    obs = {}
    for rec in traced["observed"]:
        for k, v in (rec or {}).items():
            obs[k] = obs.get(k, 0) + v
    derived = {
        "poset.product_key.distinct_ratio": ratio(
            obs.get("union_pairs", 0), stat("poset.product_key", "calls")),
        "poset.classes": obs.get("classes", 0),
        "qsym.multiply.key_pair_reuse": ratio(obs.get("mul_repeats", 0),
                                              obs.get("mul_pairs", 0)),
        "qsym.ppartition_gf.distinct_ratio": ratio(
            obs.get("gamma_args", 0), stat("qsym.ppartition_gf", "calls")),
        "qsym.enriched_gf.distinct_ratio": ratio(
            obs.get("lambda_args", 0), stat("qsym.enriched_gf", "calls")),
        "cli.import_s": statistics.median(traced["import_s"]),
        "cli.parse_s": sum(stat(k, "self_s") for k in CLI_PARSE),
        "cli.main.self_s": sum(stat(k, "self_s") for k in table
                               if k == "cli.main" or k.startswith("cli.cmd_")),
        "cli.emit_s": sum(stat(k, "self_s") for k in table
                          if k == "cli._emit" or (k.startswith("cli.")
                                                  and k.endswith("_json"))),
        "cli.traceback": traced["tracebacks"],
        "trace.overhead_ratio": traced["wall_s"] / untraced["wall_s"],
    }
    for code in range(4):
        derived["cli.exit%d" % code] = traced["exits"].count(code)
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        else:
            fn, field = name.rsplit(".", 1)
            out[name] = stat(fn, field)
    return out


# --- machine and source identity ------------------------------------------

def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "commit": git_commit(), "src_sha256": src_digest()}


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "cqsym")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# --- entry points ---------------------------------------------------------

def run(name, seed, seconds, trace):
    if not os.path.isfile(os.path.join(SRC, "cqsym", "cli.py")):
        raise BenchError("no cqsym sources under %s" % SRC)
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    env = child_env()
    setup_probe(env)                       # compiles bytecode; not counted
    raw_setups, setups = setup_probes(env, SETUP_PROBES)
    golden = (load_golden().get(name) if seed == DEFAULT_SEED else None)

    # Another rep starts only if it should end within `seconds`, judged by
    # the longest rep so far; the first rep always runs.
    reps, traced, longest = [], None, 0.0
    t0 = time.perf_counter()
    while not reps or (not trace and
                       time.perf_counter() - t0 + longest <= seconds):
        t = time.perf_counter()
        reps.append(run_rep(name, seed, False, env))
        longest = max(longest, time.perf_counter() - t)
    if trace:
        traced = run_rep(name, seed, True, env)

    attempted = failed = unexpected = 0
    for rep in reps + ([traced] if traced else []):
        a, f, u = judge(rep, golden)
        attempted, failed, unexpected = (attempted + a, failed + f,
                                         unexpected + u)
    e2e = end_to_end(reps, setups)
    declared = spec["per_layer" if trace else "end_to_end"]
    values = (layer_metrics(traced, reps[0], [m["name"] for m in declared])
              if trace else {k: v for k, (v, _) in e2e.items()})
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    result = {"correct": unexpected == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine(), "result": result,
              "fail_ratio": failed / attempted,
              "samples": {k: n for k, (_, n) in e2e.items()},
              "end_to_end": {k: v for k, (v, _) in e2e.items()},
              "setup_samples_s": setups,
              "raw_setup_samples_s": raw_setups,
              "rep_walls_s": [r["wall_s"] for r in reps],
              "raw_rep_walls_s": [r["raw_wall_s"] for r in reps],
              "failed_ops": [op for r in reps + ([traced] if traced else [])
                             for op in r["ops"] if not op["ok"]]}
    if traced:
        record["trace_table"] = traced["trace"]
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS,
                        "%s-seed%d-trace%d.json" % (name, seed, trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return result, record


def record_golden():
    env = child_env()
    golden = {}
    for name in WORKLOADS:
        rep = run_rep(name, DEFAULT_SEED, False, env)
        golden[name] = [{k: op[k] for k in ("op", "ok", "output")}
                        for op in rep["ops"]]
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.record_golden:
            record_golden()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        result, record = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    for k, m in sorted(result["metrics"].items()):
        n = record["samples"].get(k)
        print("%-40s %14.6g %-6s%s" % (k, m["value"], m["unit"],
                                       "  n=%d" % n if n else ""))
    print("fail_ratio %.4f (%d/%d)" % (record["fail_ratio"], result["failed"],
                                       result["attempted"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
