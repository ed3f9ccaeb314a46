"""Reference-speed probe: fixed work that measures how fast the host runs now.

The benchmark host drifts: the same Python loop can run at half speed a
minute later.  Every timed interval is therefore bracketed by two probes
and reported at a fixed reference speed, ``t * (P_ref / mean(probes))**e``.
The elasticity ``e`` is how strongly a workload's time follows the probe:
1 for the interpreter-bound serve path, less for the vectorised slab
kernels (see ``perfbench/spec.json``).

A probe is fixed work of about 1 ms that mixes what the program does: an
int/dict loop (the interpreter), a JSON encode and decode of a fixed
~3 KB document (the checkpoint codec's shape) and a random gather over a
32 MB array (larger than L2, so it feels the same shared-cache and memory
contention as the program).  It runs three passes and keeps, per
component, the fastest; their sum is the probe time P.  The cyclic GC is
paused during a probe and the probe keeps no object alive, so the
program's heap neither slows the probe nor grows from it.

A probe only means something while the program is idle.  Each probe
reads the CPU time (``/proc/<pid>/task/<tid>/schedstat``, in ns) of every
other thread of this process and of every descendant process before and
after it, and raises :class:`ProbeNotIdle` if any of them ran.
"""

from __future__ import annotations

import gc
import json
import os
import threading
import time

import numpy as np

__all__ = [
    "COMPONENTS",
    "PROBE_BYTES",
    "Clock",
    "Interval",
    "Probe",
    "ProbeNotIdle",
    "io_bytes",
]

#: Size of the gather arena: larger than any L2 on the benchmark host.
ARENA_BYTES = 32 << 20
_LOOP = 6000
_JSON_REPS = 3
_GATHER = 98304
_PASSES = 3
#: Memory the probe keeps resident for the whole run (arena + indices).
PROBE_BYTES = ARENA_BYTES + _GATHER * 8
#: Probe components, in the order of a sample.
COMPONENTS = ("loop", "json", "gather")

#: One probe: ms per component.
Sample = tuple[float, ...]


class ProbeNotIdle(RuntimeError):
    """Another thread or child process used CPU while a probe ran."""


def _fixed_document() -> dict:
    """A deterministic ~3 KB JSON document (ints, floats, strings, lists)."""
    return {
        "customers": [
            {
                "customer_id": 1000 + i,
                "presence": [[i * 7 + j, (i + j) % 5 + 1] for j in range(6)],
                "stability": 0.5 + i / 64.0,
                "label": f"segment-{i % 9}",
            }
            for i in range(22)
        ],
        "window": 11,
        "alpha": 2.0,
    }


def _read_runtime_ns(path: str) -> int | None:
    try:
        with open(path) as handle:
            return int(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None  # the thread or process ended between listing and reading


def _descendants(root: int) -> list[int]:
    """Pids of every live descendant of ``root``.

    Only pids above ``root`` are read: the kernel hands out pids in
    increasing order, so a process started after ``root`` has a larger
    pid unless the pid space wrapped around during the run.
    """
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) <= root:
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2 :].split()
        children.setdefault(int(fields[1]), []).append(int(name))
    found: list[int] = []
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            found.append(child)
            frontier.append(child)
    return found


def other_cpu_ns(exclude_tid: int) -> dict[tuple[int, int], int]:
    """CPU ns used so far by every thread of this process except
    ``exclude_tid`` and by every thread of every descendant process."""
    usage: dict[tuple[int, int], int] = {}
    pid = os.getpid()
    for process in [pid, *_descendants(pid)]:
        try:
            tids = os.listdir(f"/proc/{process}/task")
        except OSError:
            continue
        for tid in tids:
            if process == pid and int(tid) == exclude_tid:
                continue
            ns = _read_runtime_ns(f"/proc/{process}/task/{tid}/schedstat")
            if ns is not None:
                usage[(process, int(tid))] = ns
    return usage


class Probe:
    """The probe kernel plus its idle check and the series it measured."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20161015)
        self._arena = rng.integers(0, 1 << 30, ARENA_BYTES // 8, dtype=np.int64)
        self._index = rng.integers(0, self._arena.size, _GATHER)
        self._document = _fixed_document()
        self._tid = threading.get_native_id()
        #: Every probe taken, in ms per component, in order (the run
        #: record keeps it).
        self.series_ms: list[Sample] = []

    def _pass(self) -> Sample:
        start = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(_LOOP):
            key = i & 127
            table[key] = table.get(key, 0) + i
        looped = time.perf_counter()
        for _ in range(_JSON_REPS):
            json.loads(json.dumps(self._document))
        coded = time.perf_counter()
        int(self._arena[self._index].sum())
        gathered = time.perf_counter()
        return (looped - start, coded - looped, gathered - coded)

    def measure(self) -> Sample:
        """One probe: per component the fastest of three passes, in ms.

        Raises
        ------
        ProbeNotIdle
            If another thread or a descendant process ran meanwhile.
        """
        before = other_cpu_ns(self._tid)
        gc_enabled = gc.isenabled()
        gc.disable()
        try:
            passes = [self._pass() for _ in range(_PASSES)]
        finally:
            if gc_enabled:
                gc.enable()
        after = other_cpu_ns(self._tid)
        busy = {
            key: ns - before.get(key, 0)
            for key, ns in after.items()
            if ns > before.get(key, 0)
        }
        if busy:
            raise ProbeNotIdle(
                "program not idle during a probe: "
                + ", ".join(
                    f"pid {p} tid {t} ran {ns / 1e6:.3f} ms"
                    for (p, t), ns in sorted(busy.items())
                )
            )
        sample = tuple(min(column) * 1e3 for column in zip(*passes))
        self.series_ms.append(sample)
        return sample


def io_bytes(field: str) -> int:
    """Bytes this process has passed to ``read`` (``rchar``) or ``write``
    (``wchar``) so far."""
    with open("/proc/self/io") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/io has no {field} line")


class Interval:
    """One timed interval with its two bracketing probes."""

    __slots__ = ("raw_s", "before", "after", "write_bytes")

    def __init__(
        self, raw_s: float, before: Sample, after: Sample, write_bytes: int
    ) -> None:
        self.raw_s = raw_s
        self.before = before
        self.after = after
        self.write_bytes = write_bytes

    def ref_s(self, p_ref_ms: float, elasticity: float = 1.0) -> float:
        """The interval at reference speed: ``t * (P_ref / mean(probes))**e``."""
        speed = p_ref_ms * 2.0 / (sum(self.before) + sum(self.after))
        return self.raw_s * speed**elasticity

    def as_record(self) -> list:
        return [self.raw_s, list(self.before), list(self.after), self.write_bytes]


class Clock:
    """Back-to-back intervals, each bracketed by probes taken between them.

    :meth:`begin` probes and opens an interval, :meth:`split` closes the
    open interval and opens the next one (the probe between them serves
    both), :meth:`end` closes the open interval.  No probe ever runs
    inside an interval.
    """

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self._before: Sample = ()
        self._wchar = 0
        self._start = 0.0

    def _open(self, before: Sample) -> None:
        self._before = before
        self._wchar = io_bytes("wchar")
        self._start = time.perf_counter()

    def begin(self) -> None:
        self._open(self.probe.measure())

    def end(self) -> Interval:
        raw = time.perf_counter() - self._start
        written = io_bytes("wchar") - self._wchar
        after = self.probe.measure()
        return Interval(raw, self._before, after, written)

    def split(self) -> Interval:
        interval = self.end()
        self._open(interval.after)
        return interval
