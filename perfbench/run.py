"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME``.

Options: ``--seed N`` (default 7 for the serve workloads, 13 for
slab-fit), ``--seconds S`` (least op time a run measures), ``--trace
0|1`` (1: per-layer run), ``--self-test`` (the benchmark's own checks).

Run from the repository root.  The program is imported from ``src/``.
Inputs for the seed are generated (or re-verified) here, under
``perfbench/.work/``, then a fresh measuring process runs the workload
and writes its run record to ``perfbench/.work/runs/``.  The
last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is non-zero on any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.inputs import ensure_inputs  # noqa: E402  (needs ROOT on the path)
from perfbench.workloads import WORKLOADS  # noqa: E402

WORK = ROOT / "perfbench" / ".work"
#: Wall-clock budget of one invocation, inside the 180 s the caller allows.
DEADLINE_S = 175.0


def child_env() -> dict[str, str]:
    """One client thread: no BLAS pool, fixed hashing, program from src/."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run ``python <args>`` from the root; killed and reaped on timeout."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        timeout=max(timeout, 1.0),
        check=False,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.self_test:
        return _child(["-m", "perfbench.selftest"], DEADLINE_S * 3).returncode
    if args.workload is None:
        parser.error("--workload is required")
    kind = WORKLOADS[args.workload][0]
    spec = json.loads((ROOT / "perfbench" / "spec.json").read_text())
    seed = args.seed if args.seed is not None else spec["seeds"][kind]
    meta = ensure_inputs(WORK, kind, seed)
    record_path = WORK / "runs" / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    record_path.unlink(missing_ok=True)
    try:
        measured = _child(
            ["-m", "perfbench.measure", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--meta", str(meta),
             "--work", str(WORK / "scratch" / args.workload),
             "--record", str(record_path)],
            DEADLINE_S - (time.monotonic() - started),
        )
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if measured.returncode != 0:
        print("error: measuring process failed", file=sys.stderr)
        return measured.returncode
    record = json.loads(record_path.read_text())
    for failure in record["failures"]:
        print(f"output check failed: {failure}", file=sys.stderr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()
                },
            }
        )
    )
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
