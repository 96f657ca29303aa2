"""Measurement discipline shared by every workload.

* the host clock: a fixed calibration kernel timed around every span of
  work, so that a span's seconds can be restated in *reference-host
  seconds* — what the span would have taken had the host run the kernel
  at its nominal time.  The sandbox is a few vCPUs of a shared machine
  whose speed moves by up to 1.5x in phases that last from seconds to
  minutes (longer than a run), so raw wall times of the same code differ
  by that much between runs; the ratio to the kernel does not;
* a time-boxed repetition loop: calibrate, repeat, calibrate, ... for
  ``--seconds``; the end-to-end figure is the median repetition in
  reference-host seconds, the raw fastest/median/spread stand beside it;
* the cold child: one run in a fresh process that has seen nothing but
  the prepared inputs, for peak memory and first-run wall time;
* a span recorder for the traced run.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import json
import os
import platform
import random
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Seconds one calibration takes, per element of kernel size, on the
#: reference host (the 2-vCPU sandbox this benchmark was written on, in a
#: quiet phase).  Only a scale: it cancels in every comparison of two
#: runs of this benchmark.
NOMINAL_S_PER_ELEMENT = 0.15 / 40_000
#: Kernel size at ``--scale bench`` (~0.15 s) and ``--scale tiny``.
KERNEL_ELEMENTS = {"bench": 40_000, "tiny": 2_000}
#: A repetition bracketed by a calibration slower than this multiple of
#: the run's best calibration is a slow-phase sample: it stays out of the
#: raw median and spread.
SLOW_PHASE_RATIO = 1.15
#: Repetitions a run always makes, however short ``--seconds`` is.
MIN_REPS = 2
COLD_CHILD_TIMEOUT_S = 120

_HEADER = struct.Struct("<QIIHHI")


class _Record:
    __slots__ = ("ts", "radio", "length", "body")

    def __init__(self, ts: int, radio: int, length: int, body: bytes) -> None:
        self.ts = ts
        self.radio = radio
        self.length = length
        self.body = body


class HostClock:
    """Times the host against a fixed kernel, all through one run.

    The kernel is three parts of roughly equal weight, chosen to slow
    down with the host the way the program does: a tight integer loop
    plus numpy arithmetic (core speed), dictionary and sort churn, and an
    unpack / allocate / heap-merge / group pass over ``elements`` small
    objects (cache and memory).  In the slow phases seen while sizing it
    the first part alone slowed by 1.3x, the last alone by 1.8x, the
    program by 1.5x and the three together by 1.6x.
    """

    def __init__(self, scale: str = "bench") -> None:
        self.elements = KERNEL_ELEMENTS[scale]
        self.nominal_s = NOMINAL_S_PER_ELEMENT * self.elements
        self.calibrations: List[float] = []
        self._buffer = random.Random(1).randbytes(_HEADER.size * self.elements)

    def calibrate(self) -> float:
        """Seconds the kernel takes now; remembered for the summary.

        The collector is off meanwhile: the kernel allocates, and a
        collection it triggered would make its time depend on how many
        objects the caller happens to hold.
        """
        n = self.elements
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        total = 0
        for i in range(15 * n):
            total += i * i % 7
        values = np.arange(100_000, dtype=np.float64)
        for _ in range(n // 1000):
            values = np.sqrt(values * 1.0001 + 1.0)

        names: Dict[int, Tuple[int, str]] = {}
        for i in range(2 * n):
            names[i] = (i, str(i))
        for i in range(0, 2 * n, 7):
            total += names[i][0]
        boxed = [[j] for j in range(2 * n)]
        boxed.sort(key=lambda box: -box[0])

        queues: List[List[Tuple[int, int, _Record]]] = [[] for _ in range(32)]
        ts = 0
        for i in range(n):
            offset = i * _HEADER.size
            a, b, c, d, _, _ = _HEADER.unpack_from(self._buffer, offset)
            ts += a & 1023
            record = _Record(ts, b & 31, d, self._buffer[offset : offset + 16])
            queues[b & 31].append((ts + (c & 63), i, record))
        for queue in queues:
            queue.sort()
        groups: Dict[bytes, List[_Record]] = {}
        for _, _, record in heapq.merge(*queues):
            groups.setdefault(record.body[:2], []).append(record)

        seconds = time.perf_counter() - started
        del names, boxed, queues, groups
        if collecting:
            gc.enable()
        self.calibrations.append(seconds)
        return seconds

    def speed(self, *calibrations: float) -> float:
        """Host speed over ``calibrations``: 1.0 is the reference host."""
        return self.nominal_s / statistics.mean(calibrations)

    @property
    def median_speed(self) -> float:
        return self.nominal_s / statistics.median(self.calibrations)

    @property
    def calibration_best(self) -> float:
        return min(self.calibrations)

    @property
    def calibration_spread(self) -> float:
        return max(self.calibrations) / min(self.calibrations) - 1.0


class StageTimer:
    """Consecutive stages, each bracketed by calibrations.

    ``raw`` holds each stage's wall seconds, ``reference`` the same in
    reference-host seconds; the calibrations are outside both.
    """

    def __init__(self, host: HostClock) -> None:
        self.host = host
        self.raw: Dict[str, float] = {}
        self.reference: Dict[str, float] = {}
        self._calibration = host.calibrate()
        self._started = time.perf_counter()

    def lap(self, stage: str) -> None:
        wall = time.perf_counter() - self._started
        calibration = self.host.calibrate()
        self.raw[stage] = wall
        self.reference[stage] = wall * self.host.speed(
            self._calibration, calibration
        )
        self._calibration = calibration
        self._started = time.perf_counter()


@dataclass
class Repetitions:
    """The timed repetitions of one run.

    ``reference_walls`` are the repetitions in reference-host seconds
    (each scaled by the host speed its two bracketing calibrations
    show); their median is the run's end-to-end figure.  The raw
    ``walls`` stand beside it: the fastest needs no filtering (noise
    never speeds a run up), median and spread are taken over
    ``steady_walls``, the repetitions not bracketed by a slow
    calibration.
    """

    walls: List[float] = field(default_factory=list)
    reference_walls: List[float] = field(default_factory=list)
    first_jframe: List[float] = field(default_factory=list)
    steady_walls: List[float] = field(default_factory=list)

    @property
    def reference_wall(self) -> float:
        return statistics.median(self.reference_walls)

    @property
    def best(self) -> float:
        return min(self.walls)

    @property
    def first_jframe_best(self) -> float:
        return min(self.first_jframe)

    @property
    def median(self) -> float:
        return statistics.median(self.steady_walls)

    @property
    def iqr(self) -> float:
        if len(self.steady_walls) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(self.steady_walls, n=4)
        return q3 - q1

    @property
    def discarded(self) -> int:
        return len(self.walls) - len(self.steady_walls)


def measure(
    run_rep: Callable[[], Tuple[float, float]], seconds: float, host: HostClock
) -> Repetitions:
    """Calibrate, repeat ``run_rep``, calibrate, ... for ``seconds``.

    ``run_rep`` performs one run and returns its wall time and its time
    to the first jframe (output checks stay outside both).

    A new repetition starts only while it is expected to end inside the
    window (judged by the slowest cycle so far), after ``MIN_REPS``.
    """
    samples: List[Tuple[float, float]] = []
    started = time.perf_counter()
    calibrations = [host.calibrate()]
    slowest_cycle = 0.0
    while True:
        cycle_started = time.perf_counter()
        if (
            len(samples) >= MIN_REPS
            and cycle_started - started + slowest_cycle > seconds
        ):
            break
        samples.append(run_rep())
        calibrations.append(host.calibrate())
        slowest_cycle = max(slowest_cycle, time.perf_counter() - cycle_started)

    walls = [wall for wall, _ in samples]
    limit = SLOW_PHASE_RATIO * min(calibrations)
    steady = [
        wall
        for i, wall in enumerate(walls)
        if calibrations[i] <= limit and calibrations[i + 1] <= limit
    ]
    return Repetitions(
        walls=walls,
        reference_walls=[
            wall * host.speed(calibrations[i], calibrations[i + 1])
            for i, wall in enumerate(walls)
        ],
        first_jframe=[first for _, first in samples],
        steady_walls=steady if len(steady) >= MIN_REPS else walls,
    )


def run_cold_child(script: Path, inputs_path: Path) -> Dict[str, Any]:
    """One run of the workload in a fresh interpreter; its own report."""
    done = subprocess.run(
        [sys.executable, str(script), "--cold-child", str(inputs_path)],
        capture_output=True,
        text=True,
        timeout=COLD_CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"cold child exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def peak_rss_kb() -> int:
    """This process's own peak resident set, in KiB.

    ``VmHWM`` belongs to the address space, which ``exec`` replaces;
    ``ru_maxrss`` does not do here: across ``fork`` + ``exec`` it starts
    from the parent's resident set, so a child of a large parent reports
    the parent.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


class Tracer:
    """In-memory spans around the calls into each layer."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        return sum(
            s["end"] - s["start"] for s in self.spans if s["name"] == name
        )

    def coverage(self, root: str) -> float:
        """Share of the ``root`` span's wall its direct children cover."""
        (root_span,) = [s for s in self.spans if s["name"] == root]
        covered = sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["parent"] == root_span["id"]
        )
        return covered / (root_span["end"] - root_span["start"])


def host_fingerprint(repo_root: Path) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(repo_root),
        # open_trace_streams starts its reader threads only with a
        # second core to run them on.
        "decode_ahead": (os.cpu_count() or 1) > 1,
    }


def git_commit(repo_root: Path) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", str(repo_root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None
