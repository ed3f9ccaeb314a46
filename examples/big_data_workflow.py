"""Out-of-core workflow: slab store + sharded serving.

The paper's dataset is 6M customers; a deployment cannot hold it as Python
objects.  This example runs the two constant-memory paths end to end:

1. profile the incoming export with the data-quality report;
2. stream the receipt CSV (`iter_log_csv`) into an on-disk slab store
   (`build_slab_store`), one bounded chunk at a time, and fit the batch
   model on the store's memory-mapped frame;
3. record the receipts as a day-ordered stream (`record_stream`) and
   serve it through four customer shards (`serve_stream`; a customer's
   shard is ``customer_id % 4``), checking that the served scores are
   bit-identical to the offline sweep.

    python examples/big_data_workflow.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import ExperimentConfig, StabilityModel, paper_scenario
from repro.data.io import iter_log_csv, write_log_csv
from repro.data.quality import profile_log, render_quality_report
from repro.data.slabs import build_slab_store, chunks_from_baskets
from repro.serve import offline_sweep_stream, serve_stream
from repro.synth.stream import record_stream

N_SHARDS = 4


def main() -> None:
    dataset = paper_scenario(n_loyal=30, n_churners=30, seed=23)

    # --- 1. quality gate ---------------------------------------------------
    print("incoming export quality:")
    print(render_quality_report(profile_log(dataset.log, dataset.calendar)))

    with tempfile.TemporaryDirectory(prefix="repro-bigdata-") as tmp:
        workdir = Path(tmp)

        # --- 2. receipt CSV -> slab store -> batch fit ----------------------
        export = workdir / "receipts.csv"
        write_log_csv(dataset.log, export)
        config = ExperimentConfig(window_months=2, alpha=2.0)  # the paper's values
        model = StabilityModel(dataset.calendar, config=config)
        store = build_slab_store(
            chunks_from_baskets(iter_log_csv(export), chunk_baskets=1024),
            config.grid(dataset.calendar),
            workdir / "slabs",
            fingerprint=dataset.bundle.fingerprint(),
            customers_per_shard=16,
        )
        model.fit(store.frame())
        window = model.n_windows - 1
        flagged = sum(
            1 for score in model.churn_scores(window).values() if score > 0.5
        )
        print(
            f"\nslab store: {store.n_customers} customers in "
            f"{len(store.shard_bounds())} shards, fitted from the memory "
            f"map; {flagged} above churn score 0.5 at the final window"
        )

        # --- 3. recorded stream -> sharded serving --------------------------
        stream = record_stream(
            sorted(dataset.log, key=lambda b: (b.day, b.customer_id)),
            workdir / "stream.jsonl",
            calendar=dataset.calendar,
        )
        served = serve_stream(stream, workdir / "checkpoint", n_shards=N_SHARDS)
        parity = served.fingerprint() == offline_sweep_stream(stream).fingerprint()
        print(
            f"served {served.counters.ingested} receipts through {N_SHARDS} "
            f"customer shards in {served.counters.checkpointed} checkpointed "
            f"batches: {sum(served.flags.values())} customers flagged"
        )
        print(f"parity with the offline sweep: {parity}")
    if not parity:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
