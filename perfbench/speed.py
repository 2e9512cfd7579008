"""Step times corrected for the speed of a shared CPU.

On a shared machine a CPU's speed changes from second to second: its
neighbours' load can make the same pure-Python loop run almost twice as
long.  A step's own time then says as much about the neighbours as about
the program.  So while a step runs, a probe thread runs a fixed loop at
low priority on the same CPU as the step.  The kernel interleaves the two
in slices of a few milliseconds, so the probe sees the same slow and fast
phases as the step.  The probe's rate, units of its loop per second of its
own CPU time, measures the CPU's speed over exactly the step's interval.

A step's corrected time is its CPU time scaled by that rate to a CPU that
runs REFERENCE_UNITS_PER_S units per second: the seconds the step would
take on that CPU.  The probe takes about a tenth of the CPU, so the step's
wall time grows by about that much; its CPU time does not.
"""

from __future__ import annotations

import os
import sys
import threading
import time

# about the rate of an unloaded CPU of the 2-core x86-64 machine the
# reference figures in README.md were measured on
REFERENCE_UNITS_PER_S = 40_000.0
PROBE_NICE = 10  # weight 110 against the step's 1024: about 10% of the CPU
PROBE_SWITCH_INTERVAL_S = 0.0005


def _unit(a: str = "quick fox", b: str = "the dog") -> int:
    """One unit of probe work: a small edit-distance table in pure Python."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def pin_to_one_cpu() -> int:
    """Pin the calling thread, and the threads and children it starts, to one CPU.

    Also shorten the interpreter's thread switch interval, so that a
    thread waiting for a step takes over from the probe within half a
    millisecond of the step's end, not five.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.setswitchinterval(PROBE_SWITCH_INTERVAL_S)
    return cpu


class SpeedProbe:
    """Runs the probe loop in a background thread for the length of a `with` block."""

    def __init__(self) -> None:
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.units = 0
        self.cpu_seconds = 0.0

    def _run(self) -> None:
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), PROBE_NICE)
        start = time.thread_time()
        units = 0
        while not self._stopped.is_set():
            _unit()
            units += 1
        self.cpu_seconds = time.thread_time() - start
        self.units = units

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stopped.set()
        self._thread.join()

    def units_per_s(self) -> float:
        if not self.units:
            raise RuntimeError("the speed probe never ran")
        return self.units / self.cpu_seconds

    def corrected(self, cpu_seconds: float) -> float:
        """`cpu_seconds` of work measured during the probe, at the reference speed."""
        return cpu_seconds * scale(self.units_per_s())


def scale(units_per_s: float) -> float:
    """Factor from CPU seconds at a probe rate to seconds at the reference rate."""
    return units_per_s / REFERENCE_UNITS_PER_S
