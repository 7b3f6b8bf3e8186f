"""Core-speed probe that puts timings on a fixed reference speed.

On a shared host the speed of a core drifts by up to 2x over tens of
seconds, so raw wall times of the same work spread by 20-30% across runs.
``SpeedProbe`` pins the benchmark to one core and starts a helper process
on the same core.  Every 20 ms the helper times a fixed unit of
interpreter work in its own CPU time and appends it to a file.  A timed
call is reported as the CPU seconds it took, times ``REF_UNIT_S`` over the
median unit time measured during the call: the time the call would take
on a core that runs the unit in ``REF_UNIT_S``.
"""
from __future__ import annotations

import contextlib
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# CPU seconds of one probe unit at the reference speed
REF_UNIT_S = 0.001

_HELPER = r"""
import os, sys, time
os.sched_setaffinity(0, {int(sys.argv[1])})
with open(sys.argv[2], "a", buffering=1) as out:
    while os.getppid() == int(sys.argv[3]):  # stop if the benchmark dies
        t0 = time.thread_time()
        d = {}
        for i in range(5000):
            d[i & 1023] = i
        out.write(f"{time.perf_counter()} {time.thread_time() - t0}\n")
        time.sleep(0.02)
"""


class SpeedProbe:
    def __init__(self, samples: Path) -> None:
        self._all_cpus = os.sched_getaffinity(0)
        self._cpu = min(self._all_cpus)
        os.sched_setaffinity(0, {self._cpu})
        samples.write_text("")
        self._path = samples
        self._proc = subprocess.Popen([sys.executable, "-c", _HELPER, str(self._cpu), str(samples),
                                       str(os.getpid())])

    def close(self) -> None:
        self._proc.kill()
        self._proc.wait()

    @contextlib.contextmanager
    def unpinned(self):
        """Let threads started inside the block use every core."""
        os.sched_setaffinity(0, self._all_cpus)
        try:
            yield
        finally:
            os.sched_setaffinity(0, {self._cpu})

    def _scale(self, t0: float, t1: float) -> float:
        time.sleep(0.05)  # the helper's next sample closes the interval
        units = []
        for line in self._path.read_text().splitlines():
            fields = line.split()
            if len(fields) == 2 and t0 - 0.05 <= float(fields[0]) <= t1 + 0.05:
                units.append(float(fields[1]))
        return REF_UNIT_S / statistics.median(units)

    def time_call(self, fn, *args) -> tuple[float, float]:
        """(wall seconds, seconds at the reference speed) of ``fn(*args)``.

        CPU time counts this thread and any child process the call waits
        for, so the helper's share of the core is left out.
        """
        children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        w0, c0 = time.perf_counter(), time.thread_time()
        fn(*args)
        w1, c1 = time.perf_counter(), time.thread_time()
        children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (c1 - c0 + children1.ru_utime - children0.ru_utime
               + children1.ru_stime - children0.ru_stime)
        return w1 - w0, cpu * self._scale(w0, w1)
