"""Helpers shared by the workloads: timing loop, statistics, digests."""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import heapq
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: CPU seconds :func:`calibrate` takes on the machine the first baseline
#: was recorded on (2-core Xeon, Python 3.11).  Reported times are scaled
#: to this speed; see :class:`Speed`.
CALIBRATION_REF_S = 0.07
#: Wall seconds between calibration samples inside a measured loop.
CALIBRATE_EVERY_S = 0.5

# Buffers of calibrate's array half, allocated once so that its time does
# not depend on the allocator's state in the measured process.
_CAL_BASE = (np.arange(150_000, dtype=np.float64) * 0.618034) % 1.0
_CAL_PERM = np.argsort(_CAL_BASE)
_CAL_WORK = np.empty_like(_CAL_BASE)
_CAL_OUT = np.empty_like(_CAL_BASE)
_CAL_BINS = np.empty(_CAL_BASE.size, dtype=np.int64)


def cpu_clock() -> float:
    """CPU seconds this process has used, all its threads together.

    The in-process workloads time their operations with this clock, not
    the wall clock: on a shared host other tenants take the CPU away for
    seconds at a time, which shows in wall time but not here (a GDB + LP
    call under two busy neighbours on a 2-core box: 8% spread in CPU
    time against 17% in wall time).  The library runs single-threaded
    here, so on an idle machine the two clocks read the same.
    """
    return time.process_time()


def calibrate() -> float:
    """CPU seconds for a fixed piece of interpreter and array work.

    Half heap and dict churn in pure Python, half sorting, gathering,
    scanning and counting over preallocated numpy arrays: the two kinds
    of work the library does.  Stdlib and numpy only, so no library
    change moves it.
    """
    start = cpu_clock()
    heap, table = [], {}
    for i in range(50_000):
        heapq.heappush(heap, (i * 7919) % 100_003)
        table[i % 5000] = i
    while heap:
        heapq.heappop(heap)
    for _ in range(10):
        np.copyto(_CAL_WORK, _CAL_BASE)
        _CAL_WORK.sort()
        np.take(_CAL_BASE, _CAL_PERM, out=_CAL_OUT)
        np.cumsum(_CAL_OUT, out=_CAL_WORK)
        np.multiply(_CAL_OUT, 1000.0, out=_CAL_WORK)
        np.copyto(_CAL_BINS, _CAL_WORK, casting="unsafe")
        np.bincount(_CAL_BINS, minlength=1000)
    return cpu_clock() - start


class Speed:
    """How fast the machine computes while a workload is measured.

    CPU time still moves with the host: a busy neighbour on the sibling
    hyperthread, shared caches and clock changes make the same code use
    up to ~1.3x more CPU, in bursts of seconds to minutes.  The
    in-process workloads therefore time :func:`calibrate` between
    operations, at most every ``CALIBRATE_EVERY_S`` of wall time, and
    scale each time they measured by ``CALIBRATION_REF_S / mean(local
    samples)``, the samples taken during it plus the nearest one on each
    side: CPU seconds on the reference machine at the speed the host had
    then.  A mean, not a median: an operation pays for every slow spell
    it overlaps.  Raw times stay in the printed summary.
    """

    def __init__(self) -> None:
        self.times: list[float] = []     # wall-clock midpoint of each sample
        self.samples: list[float] = []   # its CPU seconds
        self.spent = 0.0                 # CPU seconds spent calibrating
        self.last = -math.inf
        self.raw: dict[str, float] = {}  # unscaled figures, for the summary

    def sample(self) -> None:
        start = time.perf_counter()
        seconds = calibrate()
        self.last = time.perf_counter()
        self.times.append((start + self.last) / 2)
        self.samples.append(seconds)
        self.spent += seconds

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float, seconds: float) -> float:
        """``seconds`` measured between wall times ``start`` and ``end``."""
        lo = max(bisect.bisect_right(self.times, start) - 1, 0)
        hi = min(bisect.bisect_left(self.times, end) + 1, len(self.times))
        return seconds * CALIBRATION_REF_S / statistics.fmean(
            self.samples[lo:hi])

    def factor(self) -> float:
        """Whole-run scale factor, printed for reference."""
        return CALIBRATION_REF_S / statistics.fmean(self.samples)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values))


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(*parts) -> str:
    """Stable hash of arrays, numbers and strings (bit-exact for floats)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def graph_digest(graph) -> str:
    """Digest of an uncertain graph's edge arrays and probabilities."""
    return digest(
        np.asarray(graph.edge_index_array()),
        np.asarray(graph.probability_array(), dtype=np.float64),
    )


def op_scope(tracer, name: str):
    """``tracer.operation(name)``, or a no-op block when untraced."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.operation(name)


def timed_setups(build, speed: "Speed | None" = None, clock=cpu_clock,
                 release=None):
    """Run ``build`` ``SETUPS`` times; returns (median seconds, last value).

    Each set-up is timed on ``clock`` and let go before the next starts,
    through ``release`` (untimed) when it holds more than memory.
    ``speed``, if given, is sampled between set-ups when due and after
    the last; the set-ups are then scaled to reference speed and their
    raw median goes to ``speed.raw``.
    """
    spans, value = [], None
    for _ in range(SETUPS):
        if value is not None and release is not None:
            release(value)
        value = None
        if speed is not None:
            speed.sample_if_due()
        t0, start = time.perf_counter(), clock()
        value = build()
        spans.append((t0, time.perf_counter(), clock() - start))
    if speed is None:
        return median([s for _, _, s in spans]), value
    speed.sample()
    speed.raw["setup_s"] = median([s for _, _, s in spans])
    return median([speed.scale(*span) for span in spans]), value


@dataclass
class Result:
    """What a workload run reports back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    speed: Speed = field(default_factory=Speed)
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    layers: dict = field(default_factory=dict)    # name -> (value, unit)
    summary: dict = field(default_factory=dict)   # issue-named metrics

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def call(self, fn, *args, **kwargs):
        """Run one operation, counting it; an exception counts as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as error:  # noqa: BLE001 - reported, run goes on
            self.failed += 1
            self.errors.append(f"{type(error).__name__}: {error}")
            traceback.print_exc(file=sys.stderr)
            return None


@dataclass
class Loop:
    """What :func:`run_for` measured."""

    latencies: list   # per step, as the step measured it
    busy: list        # per step, CPU seconds it took
    spans: list       # per step, its wall-clock (start, end)
    wall: float       # wall seconds the steps took


def run_for(seconds: float, minimum: int, step, speed: Speed) -> Loop:
    """Call ``step(i)`` until ``seconds`` of wall time are spent.

    ``step`` returns the latency it measured for its operation; it may
    call ``speed.sample_if_due()`` between the parts of a long one.  The
    loop stops before a step that would, at the median pace so far, end
    past the budget, but always runs at least ``minimum`` steps.
    ``speed`` is sampled between steps when due and once after the last;
    calibration is left out of ``busy`` and ``wall``.
    """
    loop = Loop([], [], [], 0.0)
    paces: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(paces) >= minimum and elapsed + median(paces) > seconds:
            speed.sample()
            return loop
        speed.sample_if_due()
        t0, c0, spent = time.perf_counter(), cpu_clock(), speed.spent
        loop.latencies.append(step(len(paces)))
        t1, calibrating = time.perf_counter(), speed.spent - spent
        loop.busy.append(cpu_clock() - c0 - calibrating)
        loop.spans.append((t0, t1))
        paces.append(t1 - t0 - calibrating)
        loop.wall += paces[-1]


def e2e_metrics(setup_s: float, latencies, seconds: float,
                peak_rss_mb: "float | None" = None) -> dict:
    """The end-to-end metrics every workload reports.

    ``ops_per_s`` is the number of latencies over ``seconds``.
    """
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (self_peak_rss_mb() if peak_rss_mb is None
                        else peak_rss_mb, "MB"),
        "op_p50_s": (median(latencies), "s"),
        "ops_per_s": (len(latencies) / seconds, "1/s"),
    }


def loop_metrics(result: Result, setup_s: float, loop: Loop) -> dict:
    """:func:`e2e_metrics` of an in-process loop timed on the CPU clock.

    Each step's latency and CPU time is scaled to reference speed
    (:class:`Speed`); ``ops_per_s`` counts steps per scaled CPU second.
    The raw figures and the whole-run factor go into the printed summary.
    """
    speed = result.speed
    result.summary.update({
        "speed_factor": speed.factor(), "calibrations": len(speed.samples),
        **{f"raw_{name}": value for name, value in speed.raw.items()},
        "raw_op_p50_s": median(loop.latencies),
        "raw_ops_per_s": len(loop.busy) / sum(loop.busy),
    })
    latencies = [speed.scale(t0, t1, s)
                 for (t0, t1), s in zip(loop.spans, loop.latencies)]
    busy = sum(speed.scale(t0, t1, s)
               for (t0, t1), s in zip(loop.spans, loop.busy))
    return e2e_metrics(setup_s, latencies, busy)


def finish_trace(result: Result, tracer, must_fire, ops, traced_wall: float,
                 untraced_wall: float) -> None:
    """Fired-wrapper check plus coverage and overhead of a traced run.

    Coverage is the share of the traced operations' wall time spent
    inside top-level spans, i.e. time the wrapped layers account for.
    """
    silent = [label for label in must_fire if tracer.fired[label] == 0]
    result.check(not silent, f"wrapped callables never fired: {silent}")
    covered = sum(
        tracer.ends[i] - tracer.starts[i]
        for i, parent in enumerate(tracer.parents)
        if parent < 0 and tracer.ops[i] in ops
    )
    result.layers["trace.coverage"] = (covered / traced_wall, "ratio")
    result.layers["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
