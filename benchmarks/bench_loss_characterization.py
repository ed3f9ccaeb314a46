"""A6 — population loss characterization (the paper's future work).

The paper's conclusion announces a deeper "characterization of significant
products that can explain customer defection"; this bench runs that study
on the benchmark population: loss-event rates per cohort, the
abrupt-vs-fading split, recovery rates, and the department-level rollup of
what churners abandon.
"""

from __future__ import annotations

from benchmarks.conftest import save_artifact
from repro.core.characterization import profile_population
from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.eval.reporting import format_table


def _profiles(dataset):
    model = StabilityModel(
        dataset.calendar, config=ExperimentConfig(window_months=2)
    ).fit(dataset.log)
    loyal = profile_population(
        (model.trajectory(c) for c in sorted(dataset.cohorts.loyal)),
        min_share=0.03,
    )
    churners = profile_population(
        (model.trajectory(c) for c in sorted(dataset.cohorts.churners)),
        min_share=0.03,
    )
    return loyal, churners


def test_loss_characterization(benchmark, bench_dataset, output_dir):
    loyal, churners = benchmark.pedantic(
        _profiles, args=(bench_dataset,), rounds=1, iterations=1
    )
    catalog = bench_dataset.catalog

    def cohort_rows(profile):
        events = [s for s in profile.segments.values()]
        n_abrupt = sum(s.n_abrupt for s in events)
        n_recovered = sum(s.n_recovered for s in events)
        return (
            f"{profile.n_events / profile.n_customers:.2f}",
            f"{n_abrupt / profile.n_events:.1%}" if profile.n_events else "-",
            f"{n_recovered / profile.n_events:.1%}" if profile.n_events else "-",
        )

    summary = format_table(
        ("cohort", "losses/customer", "abrupt", "recovered"),
        [
            ("loyal", *cohort_rows(loyal)),
            ("churners", *cohort_rows(churners)),
        ],
    )
    top = format_table(
        ("segment", "losses", "abrupt", "recovered", "mean share"),
        [
            (
                catalog.segment(s.item).name,
                s.n_losses,
                f"{s.abrupt_rate:.0%}",
                f"{s.recovery_rate:.0%}",
                f"{s.mean_share:.1%}",
            )
            for s in churners.top_lost(8)
        ],
    )
    departments = format_table(
        ("department", "churner losses"),
        sorted(
            churners.department_rollup(catalog).items(),
            key=lambda pair: -pair[1],
        )[:6],
    )
    text = "\n\n".join(
        [
            "A6 — loss characterization (significant-product losses per cohort)",
            summary,
            "top lost segments (churner cohort):\n" + top,
            "department rollup (churner cohort):\n" + departments,
        ]
    )
    save_artifact(output_dir, "loss_characterization.txt", text)

    # Churners lose significant products markedly more often than loyal
    # customers (loyal losses exist too — occasional misses of habitual
    # items — but at a clearly lower rate), and recover them less often.
    churner_rate = churners.n_events / churners.n_customers
    loyal_rate = loyal.n_events / loyal.n_customers
    assert churner_rate > 1.5 * loyal_rate

    def recovery_rate(profile):
        recovered = sum(s.n_recovered for s in profile.segments.values())
        return recovered / profile.n_events

    assert recovery_rate(churners) < recovery_rate(loyal)
