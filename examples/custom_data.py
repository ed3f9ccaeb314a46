"""Running the model on your own transaction data.

Shows the full bring-your-own-data path:

1. write a product-level transaction log to CSV (here: generated, but the
   format is the usual ``customer_id, day, items, monetary`` receipt CSV);
2. load it back with :func:`repro.data.io.read_log_csv`;
3. abstract products into segments through the catalog's taxonomy —
   exactly the abstraction the paper applies before modelling;
4. fit the stability model on the segment-level log and inspect one
   customer.

    python examples/custom_data.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import ExperimentConfig, ScenarioConfig, StabilityModel, generate_dataset
from repro.data import Taxonomy
from repro.data.io import (
    read_catalog_jsonl,
    read_log_csv,
    write_catalog_jsonl,
    write_log_csv,
)
from repro.synth.customers import sample_profile
from repro.synth.shopping import simulate_customer

import numpy as np


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-custom-data-"))

    # --- 1. produce a *product-level* CSV (stand-in for your export) ----
    dataset = generate_dataset(
        ScenarioConfig(n_loyal=8, n_churners=8, seed=21, product_level=True)
    )
    # The generator's bundle log is already segment-level; rebuild a raw
    # product-level log the way a retailer's export would look.
    rng = np.random.default_rng(3)
    raw_log_path = workdir / "transactions.csv"
    catalog_path = workdir / "catalog.jsonl"
    profile = sample_profile(0, dataset.catalog, rng)
    from repro.data import TransactionLog

    raw = TransactionLog(
        simulate_customer(
            profile, dataset.calendar, dataset.catalog, rng, product_level=True
        )
    )
    write_log_csv(raw, raw_log_path)
    write_catalog_jsonl(dataset.catalog, catalog_path)
    print(f"wrote {raw.n_baskets} product-level receipts to {raw_log_path}")

    # --- 2. load ---------------------------------------------------------
    log = read_log_csv(raw_log_path)
    catalog = read_catalog_jsonl(catalog_path)

    # --- 3. abstract products -> segments via the taxonomy ---------------
    taxonomy = Taxonomy.from_catalog(catalog)
    segment_log = log.abstracted(taxonomy.segment_of_product)
    print(
        f"abstracted {len(log.item_universe())} products into "
        f"{len(segment_log.item_universe())} segments"
    )

    # --- 4. fit and inspect ----------------------------------------------
    config = ExperimentConfig(window_months=2, alpha=2.0)  # the paper's values
    model = StabilityModel(dataset.calendar, config=config)
    model.fit(segment_log)
    customer = segment_log.customers()[0]
    trajectory = model.trajectory(customer)
    print(f"\ncustomer {customer} stability by month:")
    for k in range(model.n_windows):
        record = trajectory.at(k)
        if record.defined:
            print(f"  month {model.window_month(k):>2}: {record.stability:.2f}")


if __name__ == "__main__":
    main()
