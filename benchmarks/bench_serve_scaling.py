"""S3 — serving cost per basket follows the batch, not the population.

A serve commit writes a full base only when its batch closes a window
and a journal of the batch's own items otherwise, so the cost of
serving one basket should not grow with the number of customers being
served.  This bench serves seed-7 ``paper_scenario`` streams of 500 and
2,000 customers at the daemon default (batch 256, one shard, serial),
checks offline parity at both sizes, and fails when the larger
population costs more than :data:`RATIO_BUDGET` times as much per
basket.

Results merge into ``BENCH_serve.json`` under ``population_scaling``
(run ``make bench-serve-scaling``).
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

from benchmarks.conftest import save_artifact
from repro.eval.benchmarking import merge_scaling_json
from repro.serve.loop import offline_sweep_stream, serve_stream
from repro.synth.scenarios import paper_scenario
from repro.synth.stream import record_stream

TELEMETRY_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"

SEED = 7
BATCH_SIZE = 256
#: Customers in the small and the large population, half of them loyal.
SMALL, LARGE = 500, 2000
#: Passes per size; the fastest counts, so a busy host inflating one
#: pass does not decide the ratio.
REPEATS = 3
#: The large population may cost at most this many times as much per
#: basket as the small one.
RATIO_BUDGET = 2.0


def _serve_population(customers: int, workdir: Path) -> dict[str, object]:
    """Serve one paper-scenario population ``REPEATS`` times, each into
    a fresh checkpoint directory, and time the fastest pass."""
    n_loyal = customers // 2
    dataset = paper_scenario(n_loyal, customers - n_loyal, seed=SEED)
    stream = record_stream(
        sorted(dataset.log, key=lambda b: (b.day, b.customer_id)),
        workdir / f"stream-{customers}.jsonl",
        calendar=dataset.calendar,
    )
    del dataset
    reference = offline_sweep_stream(stream).fingerprint()
    elapsed: list[float] = []
    fingerprints: set[str] = set()
    for repeat in range(REPEATS):
        directory = workdir / f"ckpt-{customers}-{repeat}"
        started = time.perf_counter()
        result = serve_stream(stream, directory, batch_size=BATCH_SIZE)
        elapsed.append(time.perf_counter() - started)
        fingerprints.add(result.fingerprint())
        shutil.rmtree(directory)
    return {
        "customers": customers,
        "baskets": result.counters.ingested,
        "serve_s": min(elapsed),
        "us_per_basket": min(elapsed) / result.counters.ingested * 1e6,
        "parity": fingerprints == {reference},
        "fingerprint": reference,
    }


def test_population_scaling(benchmark, output_dir, tmp_path):
    small, large = benchmark.pedantic(
        lambda: [_serve_population(n, tmp_path) for n in (SMALL, LARGE)],
        rounds=1,
        iterations=1,
    )
    ratio = large["us_per_basket"] / small["us_per_basket"]
    verdict = {
        "seed": SEED,
        "batch_size": BATCH_SIZE,
        "n_shards": 1,
        "parallel": False,
        "repeats": REPEATS,
        "results": [small, large],
        "ratio": ratio,
        "budget": RATIO_BUDGET,
        "ok": ratio <= RATIO_BUDGET and small["parity"] and large["parity"],
    }
    lines = [
        "S3 — serve cost per basket vs population "
        f"(batch {BATCH_SIZE}, 1 shard, serial)"
    ]
    for entry in (small, large):
        lines.append(
            f"  {entry['customers']:>6} customers  {entry['baskets']:>7} "
            f"baskets  {entry['us_per_basket']:8.1f} us/basket  "
            f"parity {'ok' if entry['parity'] else 'BROKEN'}"
        )
    lines.append(f"  ratio {ratio:.2f} (budget {RATIO_BUDGET})")
    save_artifact(output_dir, "serve_scaling.txt", "\n".join(lines))
    merge_scaling_json(TELEMETRY_PATH, {"population_scaling": verdict})

    assert small["parity"], SMALL
    assert large["parity"], LARGE
    assert ratio <= RATIO_BUDGET, verdict
