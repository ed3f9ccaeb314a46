"""explain() memoization: snapshots are built once per customer.

The fit keeps only the stability matrices; ``explain()`` builds the
customer's records, with their significance snapshots, from the frame's
columns (:func:`~repro.core.engines.customer_trajectory`).  That build
is memoised per customer until the next fit — a second ``explain()`` on
the same customer must do no kernel work.
"""

from __future__ import annotations

import pytest

import repro.core.engines as engines
from repro.core.model import StabilityModel


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Count the per-customer record builds."""
    calls = []
    real = engines.customer_trajectory

    def counting(fit, row, scoring):
        calls.append(int(fit.customer_ids[row]))
        return real(fit, row, scoring)

    monkeypatch.setattr(engines, "customer_trajectory", counting)
    return calls


def test_second_explain_does_no_kernel_work(small_dataset, kernel_calls):
    churners = sorted(small_dataset.cohorts.churners)[:2]
    model = StabilityModel(small_dataset.calendar).fit(
        small_dataset.log, churners
    )
    customer = churners[0]
    assert kernel_calls == []  # the fit itself builds no records

    first = model.explain(customer, 9)
    assert kernel_calls == [customer]

    second = model.explain(customer, 10, top_k=2)
    assert kernel_calls == [customer]  # memoised: no second kernel call
    assert first.customer_id == second.customer_id == customer


def test_each_customer_recomputed_once(small_dataset, kernel_calls):
    churners = sorted(small_dataset.cohorts.churners)[:2]
    model = StabilityModel(small_dataset.calendar).fit(
        small_dataset.log, churners
    )
    for customer in churners:
        model.explain(customer, 9)
        model.explain(customer, 9)
    assert kernel_calls == churners


def test_refit_invalidates_memo(small_dataset, kernel_calls):
    churners = sorted(small_dataset.cohorts.churners)[:1]
    model = StabilityModel(small_dataset.calendar).fit(
        small_dataset.log, churners
    )
    model.explain(churners[0], 9)
    model.fit(small_dataset.log, churners)
    model.explain(churners[0], 9)
    assert kernel_calls == [churners[0], churners[0]]
