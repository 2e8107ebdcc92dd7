"""One benchmark worker process: imports cqsym cold and runs CLI calls in it.

Usage (from the benchmark runner, with src/ on PYTHONPATH):

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py calls '<json spec>'

`setup` imports cqsym and exits; `calls` runs each argv of the spec
through ``cqsym.cli.main`` in this process, optionally under the tracer,
and prints one JSON object as its last line of output. Each call's time
is given raw and scaled by the speed sampler (speed.py).
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def run_calls(spec):
    t0 = time.perf_counter()
    import cqsym  # noqa: F401
    t_ready = time.perf_counter()
    import cqsym.cli as cli
    import_s = time.perf_counter() - t0

    tracer = observers = None
    if spec.get("trace"):
        from tracer import Observers, Tracer
        observers = Observers()
        tracer = Tracer(observers.table()).install()
    from speed import Sampler
    sampler = Sampler().start()

    calls = []
    try:
        for argv in spec["calls"]:
            buf = io.StringIO()
            crashed = False
            m = sampler.mark()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(list(argv))
            except Exception:
                crashed = True
                code = 1
                traceback.print_exc()
            raw, scaled = sampler.between(m, sampler.mark())
            calls.append({"argv": argv, "exit": code, "seconds": raw,
                          "scaled_seconds": scaled, "traceback": crashed,
                          "stdout": buf.getvalue()})
    finally:
        sampler.stop()
        if tracer is not None:
            tracer.restore()

    out = {"t_ready": t_ready, "import_s": import_s, "calls": calls,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        out["trace"] = tracer.table()
        out["observed"] = observers.counts()
    return out


def main(argv):
    if argv[:1] == ["setup"]:
        import cqsym  # noqa: F401
        print(json.dumps({"t_ready": time.perf_counter()}))
        return 0
    if len(argv) == 2 and argv[0] == "calls":
        print(json.dumps(run_calls(json.loads(argv[1]))))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
