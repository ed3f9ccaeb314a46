"""Characterizing what churners abandon (the paper's future work).

The paper's conclusion plans "to deepen the study of the characterization
of significant products that can explain customer defection".  This
example runs that study at population scale: it extracts every significant
loss event from churner trajectories, classifies each as abrupt vs fading,
measures recovery, and rolls losses up to departments — the category-
management view of churn.

    python examples/loss_characterization.py
"""

from __future__ import annotations

from repro import ExperimentConfig, StabilityModel, paper_scenario
from repro.core.characterization import profile_population
from repro.eval.reporting import format_table


def main() -> None:
    dataset = paper_scenario(n_loyal=50, n_churners=50, seed=27)
    config = ExperimentConfig(window_months=2, alpha=2.0)  # the paper's values
    model = StabilityModel(dataset.calendar, config=config)
    model.fit(dataset.log)

    cohorts = {
        "loyal": sorted(dataset.cohorts.loyal),
        "churners": sorted(dataset.cohorts.churners),
    }
    profiles = {
        name: profile_population(
            (model.trajectory(c) for c in customers), min_share=0.03
        )
        for name, customers in cohorts.items()
    }

    rows = []
    for name, profile in profiles.items():
        n_abrupt = sum(s.n_abrupt for s in profile.segments.values())
        n_recovered = sum(s.n_recovered for s in profile.segments.values())
        rows.append(
            (
                name,
                f"{profile.n_events / profile.n_customers:.1f}",
                f"{n_abrupt / profile.n_events:.0%}",
                f"{n_recovered / profile.n_events:.0%}",
            )
        )
    print(format_table(("cohort", "losses/customer", "abrupt", "recovered"), rows))

    churner_profile = profiles["churners"]
    print("\nsegments churners abandon most:")
    top_rows = [
        (
            dataset.catalog.segment(s.item).name,
            s.n_losses,
            f"{s.abrupt_rate:.0%}",
            f"{s.recovery_rate:.0%}",
        )
        for s in churner_profile.top_lost(8)
    ]
    print(format_table(("segment", "losses", "abrupt", "recovered"), top_rows))

    print("\ndepartment rollup (churner losses):")
    rollup = churner_profile.department_rollup(dataset.catalog)
    dept_rows = sorted(rollup.items(), key=lambda pair: -pair[1])
    print(format_table(("department", "losses"), dept_rows))


if __name__ == "__main__":
    main()
