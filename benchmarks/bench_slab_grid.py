"""S2 — out-of-core slab grid: mmap vs in-RAM fits at 1k/10k/100k.

The paper's dataset has 6M customers — far more than fits comfortably in
the RAM of a laptop-class machine once kernel temporaries are counted.
This bench drives the slab data plane (:mod:`repro.data.slabs`) across a
population grid and pins its two contracts:

* **bit-identity** — the chunked out-of-core kernel over the memory-
  mapped store produces byte-for-byte the same stability/kept/total
  matrices as the in-RAM kernel over fully materialised columns;
* **bounded memory** — the mmap arm's traced-allocation peak at the
  largest cell stays at or below 25% of the in-RAM arm's (the in-RAM
  arm must pay for materialising every column *plus* whole-population
  kernel temporaries; the mmap arm touches one shard at a time).

Results merge into ``BENCH_scaling.json`` under the ``slab_grid`` key so
the backend-grid artifact keeps its own cadence, cell by cell: a run
over some sizes replaces those sizes' cells and keeps the others, so
the 1,000-customer smoke leaves the larger cells in place.

Environment knobs:

* ``REPRO_SLAB_SIZES`` — comma-separated total-customer sizes
  (default ``1000,10000,100000``; add ``1000000`` for the opt-in
  million-customer cell);
* ``REPRO_SLAB_PEAK_BUDGET_MB`` — optional absolute ceiling (MiB) on the
  mmap arm's traced peak at the largest cell, on top of the ratio pin.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from benchmarks.conftest import save_artifact
from repro.eval.benchmarking import merge_scaling_json, render_scaling, slab_grid_telemetry

TELEMETRY_PATH = Path(__file__).resolve().parents[1] / "BENCH_scaling.json"

SEED = 13

#: The mmap arm's traced peak must stay at or below this fraction of the
#: in-RAM arm's at the largest grid cell (acceptance criterion).
PEAK_RATIO_BUDGET = 0.25

#: The ratio pin only means something once the population is large
#: enough for column + kernel memory to dominate the Python baseline.
RATIO_PIN_MIN_CUSTOMERS = 100_000


def _sizes() -> tuple[int, ...]:
    raw = os.environ.get("REPRO_SLAB_SIZES", "1000,10000,100000")
    return tuple(int(token) for token in raw.split(",") if token.strip())


def merge_cells(previous: object, telemetry: dict) -> dict:
    """``telemetry`` plus the cells of ``previous`` (the ``slab_grid``
    block already on file) for sizes it did not measure, when both ran
    the same grid (schema, seed, alpha and window); sizes ascend."""
    same = ("schema_version", "seed", "alpha", "window_months")
    if not isinstance(previous, dict) or any(
        previous.get(key) != telemetry.get(key) for key in same
    ):
        return telemetry
    cells = {entry["customers"]: entry for entry in previous.get("results", ())}
    cells.update((entry["customers"], entry) for entry in telemetry["results"])
    sizes = sorted(cells)
    return {
        **telemetry,
        "results": [cells[size] for size in sizes],
        "sizes_customers": sizes,
    }


def test_slab_grid(benchmark, output_dir):
    sizes = _sizes()
    telemetry = slab_grid_telemetry(sizes=sizes, seed=SEED)
    try:
        previous = json.loads(TELEMETRY_PATH.read_text()).get("slab_grid")
    except (OSError, ValueError, AttributeError):
        previous = None
    text = "\n".join(
        [
            "S2 — out-of-core slab grid (mmap vs in-RAM, traced peaks)",
            render_scaling({"results": [], "slab_grid": telemetry}),
        ]
    )
    save_artifact(output_dir, "slab_grid.txt", text)
    merge_scaling_json(TELEMETRY_PATH, {"slab_grid": merge_cells(previous, telemetry)})

    # Bit-identity at every cell: the slab plane is a pure data-plane
    # change, never a numeric one.
    for entry in telemetry["results"]:
        assert entry["bit_identical"], entry["customers"]

    largest = telemetry["results"][-1]
    if largest["customers"] >= RATIO_PIN_MIN_CUSTOMERS:
        assert (
            largest["peak_ratio_mmap_vs_in_ram"] <= PEAK_RATIO_BUDGET
        ), largest
    budget_mb = os.environ.get("REPRO_SLAB_PEAK_BUDGET_MB")
    if budget_mb:
        assert largest["mmap"]["peak_traced_mb"] <= float(budget_mb), largest

    # The timed benchmark: one mmap-arm fit at the smallest cell (the
    # grid above already timed every cell; this keeps pytest-benchmark's
    # regression tracking on a fast, stable scenario).
    benchmark.pedantic(
        slab_grid_telemetry,
        kwargs={"sizes": (sizes[0],), "seed": SEED},
        rounds=1,
        iterations=1,
    )
