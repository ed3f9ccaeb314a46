"""The full pipeline on *unlabeled* data, end to end.

The paper's retailer provided cohort labels; public datasets don't.  This
example shows the complete label-free path:

1. start from a raw transaction CSV with no cohort information;
2. derive the loyal base and churner labels behaviourally
   (:func:`repro.data.build_cohorts`, after Buckinx & Van den Poel);
3. run the stability model and the AUROC evaluation against the derived
   labels;
4. (because the data here is synthetic) audit the derived labels against
   the generator's hidden ground truth.

    python examples/unlabeled_pipeline.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import ExperimentConfig, StabilityModel, paper_scenario
from repro.data import DatasetBundle, build_cohorts
from repro.data.io import read_log_csv, write_log_csv
from repro.eval import EvaluationProtocol
from repro.eval.reporting import format_table


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-unlabeled-"))
    csv_path = workdir / "transactions.csv"

    # --- 0. a raw export: receipts only, labels withheld -----------------
    hidden = paper_scenario(n_loyal=60, n_churners=60, seed=13)
    write_log_csv(hidden.log, csv_path)
    print(f"raw export: {csv_path} ({hidden.log.n_baskets} receipts, no labels)")

    # --- 1-2. load and label behaviourally -------------------------------
    log = read_log_csv(csv_path)
    cohorts = build_cohorts(
        log,
        hidden.calendar,
        outcome_start_month=18,  # the retailer's "last months" boundary
        drop_threshold=0.8,
    )
    print(
        f"behavioural labels: {cohorts.n_loyal} loyal, "
        f"{cohorts.n_churners} partially defected"
    )

    # --- 3. evaluate the stability model against the derived labels ------
    bundle = DatasetBundle.checked(
        log=log,
        catalog=hidden.catalog,
        calendar=hidden.calendar,
        cohorts=cohorts,
    )
    protocol = EvaluationProtocol(bundle)
    config = ExperimentConfig(window_months=2, alpha=2.0)  # the paper's values
    model = StabilityModel(hidden.calendar, config=config).fit(log)
    series = protocol.evaluate_stability_model(model)
    print("\nAUROC against behavioural labels:")
    print(
        format_table(
            ("month", "AUROC"),
            [(p.month, f"{p.auroc:.3f}") for p in series.points],
        )
    )

    # --- 4. audit the derived labels against the hidden truth ------------
    truth = hidden.cohorts
    agree_churn = len(cohorts.churners & truth.churners)
    agree_loyal = len(cohorts.loyal & truth.loyal)
    print(
        f"\nlabel audit vs hidden ground truth: "
        f"{agree_churn}/{cohorts.n_churners} derived churners are true churners; "
        f"{agree_loyal}/{cohorts.n_loyal} derived loyals are truly loyal"
    )
    print(
        "note: trip-rate labels miss content-dominated churners — exactly "
        "the gap the paper's basket-content model closes"
    )


if __name__ == "__main__":
    main()
