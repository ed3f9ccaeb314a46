"""The benchmark's own checks: ``python3 perfbench/run.py --self-test``.

* A wrong reference makes every op fail (``fail_ratio`` = 1) and the run
  incorrect, and the run record keeps every raw interval and probe, from
  which the reported metrics can be recomputed.
* ``P_ref`` is pinned in ``perfbench/spec.json`` and is the one used.
* Probe time with 1.5 M live GC-tracked objects matches probe time with
  an empty heap within :data:`HEAP_MARGIN`.
* The idle check trips when a busy helper thread or child process runs
  during a probe, and passes again once it has stopped.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from perfbench import measure
from perfbench.inputs import ensure_inputs
from perfbench.probe import Interval, Probe, ProbeNotIdle

WORK = Path(__file__).resolve().parent / ".work"
#: Largest relative change of the median probe allowed by a big live heap.
HEAP_MARGIN = 0.08


def check_wrong_reference() -> str:
    meta = ensure_inputs(WORK, "slab", 13)
    reference = dict(json.loads(meta.read_text())["reference"])
    reference["churn_digest"] = "0" * 16
    record = measure.run(
        "slab-fit", 13, 0.0, False, meta, WORK / "selftest",
        min_ops=4, reference=reference,
    )
    assert record["attempted"] == 4, record["attempted"]
    assert record["failed"] == 4 and record["fail_ratio"] == 1.0, record
    assert not record["correct"]
    spec = measure.load_spec()
    p_ref = spec["p_ref_ms"]
    assert record["p_ref_ms"] == p_ref > 0
    elasticity = spec["elasticity"]["slab-fit"]
    assert record["elasticity"] == elasticity
    ops = [
        Interval(r[0], tuple(r[1]), tuple(r[2]), r[3])
        for r in record["intervals"]["ops"]
    ]
    recomputed = statistics.median(op.ref_s(p_ref, elasticity) * 1e3 for op in ops)
    assert recomputed == record["metrics"]["op_p50_ms"]
    series = {tuple(sample) for sample in record["probe_series_ms"]}
    assert {op.before for op in ops} | {op.after for op in ops} <= series
    return f"fail_ratio {record['fail_ratio']} over {record['attempted']} ops"


def check_normalisation() -> str:
    interval = Interval(0.050, (0.2, 0.3, 0.3), (0.4, 0.4, 0.4), 0)
    assert abs(interval.ref_s(1.0) - 0.050) < 1e-15
    assert abs(interval.ref_s(2.0) - 0.100) < 1e-15
    assert abs(interval.ref_s(4.0, 0.5) - 0.100) < 1e-15
    return "t * (P_ref / mean(probes))**e, P the sum of a probe's components"


def check_probe_heap() -> str:
    probe = Probe()
    for _ in range(10):
        probe.measure()
    ratios = []
    for _ in range(12):  # short alternating rounds, so host drift cancels
        empty = statistics.median(sum(probe.measure()) for _ in range(5))
        heap = [(None,) for _ in range(1_500_000)]
        loaded = statistics.median(sum(probe.measure()) for _ in range(5))
        del heap
        ratios.append(loaded / empty)
    ratio = statistics.median(ratios)
    assert abs(ratio - 1.0) <= HEAP_MARGIN, ratios
    return f"loaded/empty median probe {ratio:.3f} (margin {HEAP_MARGIN})"


def _expect_not_idle(probe: Probe) -> None:
    try:
        probe.measure()
    except ProbeNotIdle:
        return
    raise AssertionError("probe did not notice the busy helper")


def check_idle_thread() -> str:
    probe = Probe()
    probe.measure()
    stop = threading.Event()

    def spin() -> None:
        while not stop.is_set():
            pass

    helper = threading.Thread(target=spin)
    helper.start()
    try:
        _expect_not_idle(probe)
    finally:
        stop.set()
        helper.join(timeout=10)
    assert not helper.is_alive()
    probe.measure()
    return "busy thread trips the idle check"


def check_idle_child() -> str:
    probe = Probe()
    probe.measure()
    child = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        time.sleep(0.3)
        _expect_not_idle(probe)
    finally:
        child.kill()
        child.wait(timeout=10)
    probe.measure()
    return "busy child process trips the idle check"


def main() -> int:
    failed = 0
    for check in (
        check_normalisation,
        check_idle_thread,
        check_idle_child,
        check_probe_heap,
        check_wrong_reference,
    ):
        try:
            detail = check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc!r}", flush=True)
        else:
            print(f"ok   {check.__name__}: {detail}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
