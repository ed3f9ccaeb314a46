"""S1 — scaling: runtime of the stability model vs population size.

The paper's dataset has 6M customers; this laptop-scale bench verifies
that the columnar kernel scales linearly in the number of customers
(the per-customer work is independent), which is what makes the
6M-scale deployment plausible.

Besides the rendered table, the bench emits machine-readable telemetry
to ``BENCH_scaling.json`` at the repository root (sizes, fit seconds,
ms/customer) so future PRs have a perf trajectory to compare against.
"""

from __future__ import annotations

from pathlib import Path

from benchmarks.conftest import save_artifact
from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.eval.benchmarking import (
    merge_scaling_json,
    render_scaling,
    scaling_telemetry,
)
from repro.synth import ScenarioConfig, generate_dataset

#: Repo-root telemetry artifact consumed by future perf comparisons.
TELEMETRY_PATH = Path(__file__).resolve().parents[1] / "BENCH_scaling.json"

#: Per-cohort sizes; total customers is twice each (loyal + churners).
SIZES = (25, 50, 100, 200)
SEED = 13


def _fit_stability(dataset):
    model = StabilityModel(
        dataset.calendar, config=ExperimentConfig(window_months=2, alpha=2.0)
    )
    model.fit(dataset.log)
    return model


def test_stability_fit_scaling(benchmark, output_dir):
    telemetry = scaling_telemetry(sizes=SIZES, seed=SEED, repeat=3)
    text = "\n".join(
        [
            "S1 — stability model scaling (fit time vs customers)",
            render_scaling(telemetry),
        ]
    )
    save_artifact(output_dir, "scaling.txt", text)
    merge_scaling_json(TELEMETRY_PATH, telemetry)

    # The timed benchmark: the fit on the largest population.
    largest = generate_dataset(
        ScenarioConfig(n_loyal=SIZES[-1], n_churners=SIZES[-1], seed=SEED)
    )
    benchmark.pedantic(_fit_stability, args=(largest,), rounds=3, iterations=1)

    # Linearity: per-customer cost must not blow up with population size.
    per_customer = [entry["ms_per_customer"] for entry in telemetry["results"]]
    assert per_customer[-1] < per_customer[0] * 3, per_customer
    assert telemetry["results"][-1]["customers"] == 2 * SIZES[-1]
