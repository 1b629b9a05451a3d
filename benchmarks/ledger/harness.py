"""Measurement plumbing of the coordination ledger.

One run is: set-up -> one unmeasured warm-up -> ``gc.freeze()`` ->
epochs for ``--seconds`` -> checks -> (traced run only) layer probes.

An *epoch* is one full pass of the workload's fixed, seed-generated
inputs through a freshly booted service.  Every epoch of a run does
identical work, which is what makes the run steady on a shared 2-core
host: each reported number is a median across epochs (and an op's
latency is the median, across epochs, of that same op), so one
disturbed epoch does not move it.  A faster program completes more
epochs in the same ``--seconds``; it never measures different work.

What medians cannot remove — the shared host itself running slower for
minutes — is divided out by one calibration factor per run (see
:class:`Calibration`).

Spans are recorded here, around the calls the benchmark makes into a
layer — never inside ``src/``.
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import os
import random
import signal
import statistics
import time
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter_ns

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
OUT_DIR = LEDGER_DIR / "out"
DECLARATION = REPO_ROOT / "BENCHMARK.json"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_PASS_SPAN = 0


# ----------------------------------------------------------------------
# process accounting (/proc, so children are read while they are alive)
# ----------------------------------------------------------------------

def child_cpu_seconds(pid: int) -> float:
    """user+sys CPU of another live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def cpu_seconds(child_pids) -> float:
    """user+sys CPU of this process and the given children."""
    return time.process_time() + sum(child_cpu_seconds(pid)
                                     for pid in child_pids)


def peak_rss_mib(pid: int | str) -> float:
    """High-water resident set of one process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def _parent_pid(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return int(handle.read().rpartition(")")[2].split()[1])
    except (OSError, ValueError, IndexError):  # gone between list and read
        return -1


def stop_children() -> list[int]:
    """Stop and reap every process this interpreter still has; returns
    the pids that had to be killed (any such pid fails the run).

    ``spawn`` (the shard workers' start method) also starts the
    standard library's resource tracker, which ends only after this
    process has exited and is then nobody's to reap — it is stopped and
    waited for here, and is not a leftover.
    """
    killed = []
    for process in multiprocessing.active_children():
        killed.append(process.pid)
        process.kill()
        process.join()
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    me = os.getpid()
    for pid in (int(entry) for entry in os.listdir("/proc")
                if entry.isdigit() and _parent_pid(entry) == me):
        try:
            # A child already dead and only waiting to be reaped has
            # stopped on its own account; one that has to be killed
            # has not.
            if os.waitpid(pid, os.WNOHANG)[0] == 0:
                killed.append(pid)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        except (ChildProcessError, ProcessLookupError):
            pass
    return killed


# ----------------------------------------------------------------------
# host-speed calibration
# ----------------------------------------------------------------------

#: What one :meth:`Calibration.sample` takes on the reference host
#: when it is quiet.  It only fixes the scale of the normalised times;
#: any change to it (or to the kernel) re-bases every baseline.
NOMINAL_KERNEL_MS = 72.0


class Calibration:
    """A fixed interpreter-bound kernel timed around every pass.

    The host is shared: its speed wanders by 10 % over minutes and a
    neighbour's burst slows everything (CPU time included) by up to
    60 % for tens of seconds to minutes, so ten raw runs of the same
    code spread by 13-18 %.  The kernel — dictionary probes over tuple
    keys, list churn, the instruction mix of the engine — slows with
    the host; dividing by one factor per run (the median of its
    samples; single samples are too jittery) left 3-10 %.  The
    end-to-end times are therefore reported in reference-host units:
    measured x ``factor``.  The per-layer times stay raw, beside
    ``calibration.factor``.
    """

    PROBES = 150_000

    def __init__(self):
        self.keys = [(f"u{index % 5_000}", index % 97)
                     for index in range(60_000)]
        self.table = {key: index for index, key in enumerate(self.keys)}
        self.order = list(range(len(self.keys)))
        random.Random(1).shuffle(self.order)
        self.samples_ms: list[float] = []

    def sample(self) -> None:
        keys, table, order = self.keys, self.table, self.order
        kept: list = []
        start = perf_counter_ns()
        for probe in range(self.PROBES):
            key = keys[order[probe % 60_000]]
            value = table[key]
            if value & 7 == 0:
                kept.append((key[0], value))
            if len(kept) > 1_000:
                kept = []
        self.samples_ms.append((perf_counter_ns() - start) / 1e6)

    @property
    def kernel_ms(self) -> float:
        return statistics.median(self.samples_ms)

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to express it in
        reference-host time (> 1 when the host is fast)."""
        return NOMINAL_KERNEL_MS / self.kernel_ms


# ----------------------------------------------------------------------
# the recorder: pass, ops, and (traced) layer-call spans
# ----------------------------------------------------------------------

class Recorder:
    """Times one epoch.

    Op latencies are always recorded — the end-to-end metrics come from
    untraced epochs.  Layer-call spans ``(id, name, start_ns, end_ns,
    parent, op)`` are recorded only when *traced*; the difference
    between the two kinds of epoch is ``trace.overhead_pct``.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.op_ns: list[int] = []
        self.failed_ops = 0
        self.spans: list[tuple] = []
        self.child_pids: tuple = ()
        self.start_ns = self.end_ns = 0
        self.cpu_start = self.cpu_end = 0.0
        self._next_id = _PASS_SPAN + 1
        self._op = None
        self._op_span = _PASS_SPAN
        self._op_start = 0

    # -- the measured region -------------------------------------------

    def begin(self, child_pids=()) -> None:
        self.child_pids = tuple(child_pids)
        self.cpu_start = cpu_seconds(self.child_pids)
        self.start_ns = perf_counter_ns()

    def end(self) -> None:
        self.end_ns = perf_counter_ns()
        self.cpu_end = cpu_seconds(self.child_pids)
        if self.traced:
            self.spans.append((_PASS_SPAN, "pass", self.start_ns,
                               self.end_ns, None, None))

    @property
    def wall_seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    # -- ops -----------------------------------------------------------

    def op_begin(self, op) -> None:
        self._op = op
        self._op_span = self._next_id
        self._next_id += 1
        self._op_start = perf_counter_ns()

    def op_end(self, failed: bool = False) -> None:
        end = perf_counter_ns()
        self.op_ns.append(end - self._op_start)
        if failed:
            self.failed_ops += 1
        if self.traced:
            self.spans.append((self._op_span, "op", self._op_start, end,
                               _PASS_SPAN, self._op))
        self._op = None
        self._op_span = _PASS_SPAN

    # -- calls into a layer --------------------------------------------

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a span of the current op."""
        if not self.traced:
            return fn(*args)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._record(name, start)

    async def acall(self, name: str, awaitable):
        """Await *awaitable* as a span of the current op."""
        if not self.traced:
            return await awaitable
        start = perf_counter_ns()
        try:
            return await awaitable
        finally:
            self._record(name, start)

    def _record(self, name: str, start: int) -> None:
        span_id = self._next_id
        self._next_id += 1
        self.spans.append((span_id, name, start, perf_counter_ns(),
                           self._op_span, self._op))


def span_seconds_by_name(spans) -> dict:
    """Total duration per span name (``pass`` and ``op`` included)."""
    totals: dict = {}
    for _, name, start, end, _, _ in spans:
        totals[name] = totals.get(name, 0.0) + (end - start) / 1e9
    return totals


def loadgen_seconds(spans) -> float:
    """Pass time spent in the benchmark's own code: the self time of
    the pass and of every op — a span's duration minus the part its
    children cover (the children of a served round overlap, two
    connections, so cover is a union)."""
    children: dict = {}
    for span in spans:
        children.setdefault(span[4], []).append((span[2], span[3]))
    total = 0
    for span_id, name, start, end, _, _ in spans:
        if name not in ("pass", "op"):
            continue
        covered = 0
        reach = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, reach)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        total += end - start - covered
    return total / 1e9


def write_trace(path: Path, epochs) -> None:
    """One JSON line per span; ``parent`` is null for the pass root."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for index, spans in epochs:
            for span_id, name, start, end, parent, op in spans:
                handle.write(json.dumps(
                    {"epoch": index, "id": span_id, "name": name,
                     "start_ns": start, "end_ns": end,
                     "parent": parent, "op": op}) + "\n")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def per_op_medians(epoch_ops) -> list[float]:
    """Median latency of each op across the epochs (every epoch runs
    the same ops in the same order)."""
    return [statistics.median(samples) for samples in zip(*epoch_ops)]


def freeze_dataset() -> None:
    """The repo's convention since PR 1: the static dataset leaves the
    cyclic collector's scans before anything is measured."""
    gc.collect()
    gc.freeze()


# ----------------------------------------------------------------------
# the metric declaration (BENCHMARK.json is the single list of names)
# ----------------------------------------------------------------------

def declared() -> dict:
    with open(DECLARATION) as handle:
        return json.load(handle)


def metric_block(values: dict, declaration) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the declared names.

    A computed value the declaration does not name is a bug in the
    benchmark; a declared per-layer name this workload does not cross
    reads 0.
    """
    names = {entry["name"]: entry["unit"] for entry in declaration}
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise RuntimeError(
            f"metrics computed but not declared in BENCHMARK.json: "
            f"{unknown}")
    block = {}
    for name, unit in names.items():
        value = float(values.get(name, 0.0))
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
        block[name] = {"value": value, "unit": unit}
    return block
