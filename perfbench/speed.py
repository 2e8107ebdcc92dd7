"""Host-speed references: fixed work, timed next to the program's own.

The benchmark's hosts are shared, and their speed drifts by more than the
regression bounds within minutes (see README.md). So every time the
benchmark reports is scaled by a reference timed on the same host at the
same moment: ``reported = measured * nominal / reference``. That reads
the time as if the reference took exactly its nominal duration. A change
to cqsym does not touch the references, so it still moves the reported
time by its full share.

Two references, one for each kind of work:
- ``ref_loop``, a loop of interpreter work, for time spent computing
  inside one process. ``Sampler`` runs it from a SIGALRM handler while
  cqsym runs in the same process, so each stretch of program time is
  scaled by samples taken on the CPU it ran on, at most ``PERIOD_S``
  seconds away. Handler time is not counted as program time.
- ``spawn_seconds``, starting and stopping a bare interpreter, for time
  that includes starting a process. The loop does not follow process
  start-up: on the 2-vCPU VM in README.md a 15% slowdown of CLI calls left it
  flat, while a bare interpreter start slowed with them.
"""

import signal
import subprocess
import sys
import time

LOOP_S = 0.001         # nominal duration of ref_loop
SPAWN_S = 0.075        # nominal duration of a bare interpreter start
PERIOD_S = 0.05        # Sampler's interval between loop timings
_ROUNDS = 350


def scale(seconds, before, after, nominal):
    """Seconds scaled by a reference timed before and after them."""
    return seconds * nominal * 2.0 / (before + after)


def ref_loop():
    """About a millisecond of the work cqsym does most: counting into a
    small dict, sorting its items into a tuple key, and adding into a
    dict keyed by such tuples."""
    out = {}
    for i in range(_ROUNDS):
        cnt = {}
        for k in ((i % 5, 1), (i % 3, 0), (i % 7, 1), (i % 5, 1)):
            cnt[k] = cnt.get(k, 0) + 1
        key = (tuple(sorted(cnt.items())), i)
        out[key] = out.get(key, 0) + 1
    return len(out)


def loop_seconds():
    """The loop's duration now."""
    t = time.perf_counter()
    ref_loop()
    return time.perf_counter() - t


def spawn_seconds(env, cwd):
    """Seconds to start and stop ``python -c pass`` with env, in cwd."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, env=env,
                   check=True, timeout=60, capture_output=True)
    return time.perf_counter() - t


class Sampler:
    """Times ref_loop every ``PERIOD_S`` seconds from SIGALRM."""

    def __init__(self):
        self.samples = []      # (start, loop seconds)
        self._busy = False

    def sample(self, *_):
        if self._busy:         # a tick that arrived during ``mark``
            return
        self._busy = True
        t = time.perf_counter()
        self.samples.append((t, loop_seconds()))
        self._busy = False

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def mark(self):
        """Take a sample now; returns its index, for ``between``."""
        self.sample()
        return len(self.samples) - 1

    def between(self, i, j):
        """(seconds, scaled seconds) of program time between two marks.

        Each stretch between two consecutive samples is scaled by the
        loop times of the samples at its ends.
        """
        raw = norm = 0.0
        pts = self.samples[i:j + 1]
        for (t0, d0), (t1, d1) in zip(pts, pts[1:]):
            gap = t1 - (t0 + d0)
            raw += gap
            norm += scale(gap, d0, d1, LOOP_S)
        return raw, norm
