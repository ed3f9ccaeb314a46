"""DET001 / DET002 — determinism of the score paths.

The headline guarantee of this reproduction is that the incremental
and batch engines produce **bit-identical** scores, and that
a resumed (checkpointed) sweep equals an uninterrupted one.  Both die
the moment a score path consults global random state or the wall clock:

* **DET001** — the stdlib ``random`` module and NumPy's legacy
  global-state API (``np.random.rand`` & co.) draw from hidden mutable
  state; reruns and resumed sweeps diverge.  All randomness must flow
  through an explicitly *seeded* ``numpy.random.Generator``
  (``default_rng(seed)``), the way :mod:`repro.synth` spawns per-customer
  streams from one ``SeedSequence``.
* **DET002** — ``time.time()`` / ``datetime.now()`` reads make output
  depend on when a run happened.  Only the observation layer
  (:mod:`repro.obs`, which stamps manifests and spans) and the executor's
  timing code may read the clock; monotonic timers
  (``time.perf_counter`` / ``process_time``) are fine everywhere because
  they only ever feed telemetry.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.engine import FileContext, Rule, register_rule
from repro.analysis.findings import Finding

__all__ = ["UnseededRandomness", "WallClockRead"]

#: numpy.random attributes that are part of the explicit-Generator API
#: (everything else on the module is the legacy global-state surface).
_NUMPY_EXPLICIT = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)


def _numpy_aliases(tree: ast.Module) -> set[str]:
    """Names the file binds to the ``numpy`` module (``np`` etc.)."""
    aliases = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "numpy":
                    aliases.add(item.asname or "numpy")
    return aliases


def _stdlib_random_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """``(module aliases, directly imported function names)`` for stdlib random."""
    modules: set[str] = set()
    functions: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "random":
                    modules.add(item.asname or "random")
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            for item in node.names:
                functions.add(item.asname or item.name)
    return modules, functions


@register_rule
class UnseededRandomness(Rule):
    """DET001: randomness must come from an explicitly seeded Generator."""

    rule_id = "DET001"
    summary = (
        "no stdlib random / numpy legacy global-state randomness in score "
        "paths; use a seeded numpy Generator"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.module.startswith("repro")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        numpy_aliases = _numpy_aliases(ctx.tree)
        random_modules, random_functions = _stdlib_random_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # stdlib: random.random(), random.seed(), ... via the module
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in random_modules
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"stdlib random.{func.attr}() draws from hidden global "
                    "state, so reruns and resumed sweeps diverge",
                    "use numpy.random.default_rng(seed) and pass the "
                    "Generator explicitly",
                )
            # stdlib: from random import choice; choice(...)
            elif isinstance(func, ast.Name) and func.id in random_functions:
                yield self.finding(
                    ctx,
                    node,
                    f"{func.id}() from the stdlib random module draws from "
                    "hidden global state",
                    "use numpy.random.default_rng(seed) and pass the "
                    "Generator explicitly",
                )
            # numpy: np.random.<legacy>() and unseeded np.random.default_rng()
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in numpy_aliases
            ):
                if func.attr not in _NUMPY_EXPLICIT:
                    yield self.finding(
                        ctx,
                        node,
                        f"numpy.random.{func.attr}() is the legacy "
                        "global-state API; scores would depend on call order",
                        "use numpy.random.default_rng(seed) and call the "
                        "method on the Generator",
                    )
                elif func.attr == "default_rng" and not node.args and not node.keywords:
                    yield self.finding(
                        ctx,
                        node,
                        "default_rng() without a seed is entropy-seeded, so "
                        "every run scores differently",
                        "pass an explicit seed or SeedSequence",
                    )


@register_rule
class WallClockRead(Rule):
    """DET002: wall-clock reads only in repro.obs / executor timing."""

    rule_id = "DET002"
    summary = (
        "no time.time()/datetime.now() outside repro.obs and the executor; "
        "results must not depend on when a run happened"
    )

    #: Modules allowed to read the wall clock: the observation layer
    #: stamps manifests/spans, and the executor times waves.
    _ALLOWED_PREFIXES = ("repro.obs", "repro.runtime.executor")

    def applies(self, ctx: FileContext) -> bool:
        return ctx.module.startswith("repro") and not ctx.module.startswith(
            self._ALLOWED_PREFIXES
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        from_time_time = any(
            isinstance(node, ast.ImportFrom)
            and node.module == "time"
            and any((item.asname or item.name) == "time" for item in node.names)
            for node in ast.walk(ctx.tree)
        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "time"
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "time.time() makes output depend on when the run happened",
                    "use time.perf_counter() for intervals, or move the "
                    "timestamp into repro.obs",
                )
            elif isinstance(func, ast.Name) and func.id == "time" and from_time_time:
                yield self.finding(
                    ctx,
                    node,
                    "time() (from time import time) reads the wall clock",
                    "use time.perf_counter() for intervals, or move the "
                    "timestamp into repro.obs",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in ("now", "today", "utcnow")
                and self._is_datetime_owner(func.value)
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"datetime {func.attr}() reads the wall clock",
                    "take the timestamp as a parameter, or move it into "
                    "repro.obs",
                )

    @staticmethod
    def _is_datetime_owner(node: ast.expr) -> bool:
        """Whether ``node`` looks like ``datetime`` / ``date`` / ``datetime.datetime``."""
        if isinstance(node, ast.Name):
            return node.id in ("datetime", "date")
        if isinstance(node, ast.Attribute):
            return node.attr in ("datetime", "date")
        return False
