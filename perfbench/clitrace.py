"""Run one cqsym CLI call under the tracer, as ``python -m cqsym.cli`` would.

Usage (with src/ on PYTHONPATH):

    python3 perfbench/clitrace.py STATS_PATH CLI_ARGS...

Stdout, stderr and the exit code are those of the plain call; an
uncaught exception still prints its traceback and exits 1. The traced
aggregates and the import time are written to STATS_PATH as JSON.
"""

import json
import os
import sys
import time


def main(argv):
    stats_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import cqsym.cli as cli
    import_s = time.perf_counter() - t0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import Observers, Tracer
    observers = Observers()
    tracer = Tracer(observers.table()).install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.restore()
        with open(stats_path, "w") as fh:
            json.dump({"import_s": import_s, "trace": tracer.table(),
                       "observed": observers.counts()}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
