"""SEQ001 — the cursor seal is ordered after every shard-state write.

The serving checkpoint protocol (DESIGN.md §10) has one commit point:
``ServeCheckpoint.commit`` atomically writing the commit's
``cursor-<commit>.json`` under a fresh name.  Its
crash-safety argument — at most one batch of rework after a kill —
holds *only* because every per-shard state write happens before the
seal on every non-exceptional path.  PR 7 probes that dynamically with
kill-site tests; SEQ001 proves the ordering statically so a refactor
of :mod:`repro.serve.checkpoint` / :mod:`repro.serve.loop` cannot
silently invert it.

The check: in any scoped function that both writes shard state
(``*.write_state(...)``) and seals (``*.commit(...)``), no
``write_state`` statement may be reachable *after* a ``commit``
statement in the function's normal-path CFG.  A write after the seal
means the sealed cursor can point past state that never became
durable — exactly the torn resume the protocol exists to rule out.
Exception paths are excluded by construction: a crash between write
and seal is the tolerated single-batch-rework case.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.analysis.engine import ProjectRule, register_rule
from repro.analysis.project.cfg import statement_calls

if TYPE_CHECKING:
    from collections.abc import Iterator

    from repro.analysis.findings import Finding
    from repro.analysis.project import ProjectContext

__all__ = ["CursorSealOrdering"]

#: The protocol lives in exactly these modules; elsewhere the names
#: ``write_state`` / ``commit`` carry no checkpoint meaning.
_SCOPE = ("repro.serve.checkpoint", "repro.serve.loop")


def _calls_method(stmt: ast.stmt, method: str) -> bool:
    return any(
        isinstance(call.func, ast.Attribute) and call.func.attr == method
        for call in statement_calls(stmt)
    )


def _is_state_write(stmt: ast.stmt) -> bool:
    return _calls_method(stmt, "write_state")


def _is_seal(stmt: ast.stmt) -> bool:
    return _calls_method(stmt, "commit")


@register_rule
class CursorSealOrdering(ProjectRule):
    """SEQ001: no shard-state write is reachable after the cursor seal."""

    rule_id = "SEQ001"
    summary = (
        "in serve.checkpoint/serve.loop the cursor seal (commit) comes "
        "after every shard-state write on all non-exceptional paths; a "
        "write after the seal breaks the <=1-batch-rework guarantee"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for info in project.functions_in(_SCOPE):
            body_stmts = list(ast.walk(info.node))
            has_write = any(
                isinstance(s, ast.stmt) and _is_state_write(s)
                for s in body_stmts
            )
            has_seal = any(
                isinstance(s, ast.stmt) and _is_seal(s) for s in body_stmts
            )
            if not (has_write and has_seal):
                continue
            cfg = project.cfg(info)
            for witness in cfg.reachable_from(_is_seal, _is_state_write):
                yield info.ctx.finding(
                    self.rule_id,
                    witness,
                    f"{info.qual}: shard-state write can execute after "
                    "the cursor seal (commit) on a normal path — the "
                    "sealed cursor may reference state that never became "
                    "durable",
                    "write all shard state first, then seal the cursor "
                    "as the single final commit point",
                )
