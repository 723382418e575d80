"""A clock that runs slow when the host does, and vCPUs that stay awake.

The sandbox this benchmark is sized for is a 2-vCPU VM on a shared host.
Two things the host does move wall-clock figures of identical runs by
10-60%, far more than any bound the contract allows:

* Its speed moves between levels up to 45% apart and stays on one for
  anything from a fraction of a second to hours.  Wall time and CPU time
  inflate together and an idle VM shows it too: it is a busy SMT sibling,
  not scheduling and not the program.
* A vCPU that goes idle is taken off its core.  Waking it costs a trip
  through the host's scheduler whose length depends on the neighbours, and
  the program hands work between two processes and two threads thousands
  of times a second.

One child process per vCPU (this file run as a script), pinned to it and
in the ``SCHED_IDLE`` class, answers both.  It never sleeps, so the vCPU
never halts, and it runs only when nothing else wants the vCPU.  ``_HZ``
times a second it runs one fixed loop in ``_PARTS`` equal parts and
records how much CPU time each part cost.  The cheapest parts of the run
are the host at full speed (a part is short enough to fall between two
bursts of the neighbour even when a whole repetition never does); a
repetition's cost over ``_PARTS`` times that floor is the host's slowdown
at that moment.  :class:`HostClock` integrates ``dt / slowdown``: its
``quiet`` seconds between two instants are what the interval would have
lasted on the host at full speed.  On a quiet host the two clocks agree.
"""

from __future__ import annotations

import json
import os
import pathlib
import select
import subprocess
import sys
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["HostClock", "HostProbe", "WallClock"]

_HZ = 20
_PARTS = 8
_PART_SPIN = 2500
#: The floor is the cheapest part but for this share of them, so that a
#: few glitched clock reads cannot set it.
_FLOOR_SHARE = 1 / 400
#: Repetitions, of all vCPUs together, whose median is the slowdown at
#: one instant: one repetition alone jitters by ±5%.
_SMOOTH = 9


class HostClock:
    """Wall-clock instants (``time.perf_counter``) to quiet-host seconds."""

    def __init__(self, samples: list[list[float]]) -> None:
        """``samples``: per repetition, its instant and its parts' costs."""
        if len(samples) < 2 * _SMOOTH:
            raise RuntimeError(f"host probe took only {len(samples)} samples")
        samples = np.asarray(samples)
        at, parts = samples[:, 0], samples[:, 1:]
        rank = int(parts.size * _FLOOR_SHARE)
        floor = np.partition(parts.ravel(), rank)[rank] * parts.shape[1]
        cost = parts.sum(axis=1)
        padded = np.pad(cost, _SMOOTH // 2, mode="edge")
        slowdown = np.maximum(
            np.median(sliding_window_view(padded, _SMOOTH), axis=1) / floor,
            1.0)
        # The first and last reading hold outside the probed span.
        self._at = np.concatenate([[at[0] - 1e6], at, [at[-1] + 1e6]])
        slowdown = np.concatenate([slowdown[:1], slowdown, slowdown[-1:]])
        steps = np.diff(self._at) * 2.0 / (slowdown[1:] + slowdown[:-1])
        self._quiet = np.concatenate([[0.0], np.cumsum(steps)])

    def quiet(self, start, end):
        """Quiet-host seconds from ``start`` to ``end`` (scalars or arrays)."""
        return (np.interp(end, self._at, self._quiet)
                - np.interp(start, self._at, self._quiet))

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown of the host over an interval (1.0 = full speed)."""
        return (end - start) / float(self.quiet(start, end))


class WallClock:
    """The uncorrected clock, for printing wall-clock figures beside."""

    @staticmethod
    def quiet(start, end):
        return end - start


class HostProbe:
    """The children, one per vCPU, running for a ``with`` block."""

    def __enter__(self) -> "HostProbe":
        self._procs = [
            subprocess.Popen(
                [sys.executable, str(pathlib.Path(__file__).resolve()),
                 str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for cpu in sorted(os.sched_getaffinity(0))]
        self._outs: list[str] = []
        if any(proc.stdout.readline().strip() != "ready"
               for proc in self._procs):
            self.__exit__()
            raise RuntimeError("host probe did not start")
        return self

    def __exit__(self, *exc_info) -> None:
        for proc in self._procs:
            proc.stdin.close()
        for proc in self._procs:
            try:
                self._outs.append(proc.stdout.read())
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def clock(self) -> HostClock:
        """The clock the samples make; call after the ``with`` block."""
        samples = [sample for out in self._outs for sample in json.loads(out)]
        return HostClock(sorted(samples))


def _spin() -> None:
    x = 0
    for i in range(_PART_SPIN):
        x += i * i % 7


def _probe_until_stdin_closes(cpu: int) -> None:
    # perf_counter is CLOCK_MONOTONIC on Linux: one time base for every
    # process, so the parent can place these samples among its own.
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    samples = []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], 0)[0]:
        sample = [time.perf_counter()]
        for _ in range(_PARTS):
            began = time.thread_time()
            _spin()
            sample.append(time.thread_time() - began)
        samples.append(sample)
        due = sample[0] + 1.0 / _HZ
        while time.perf_counter() < due:
            pass
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    _probe_until_stdin_closes(int(sys.argv[1]))
