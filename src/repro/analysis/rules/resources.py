"""RES001 — resources in serve/obs/soak are released on every path.

The serving loop, telemetry plane and soak harness are the long-lived
parts of the stack: a file handle, socket, mmap, HTTP server or thread
leaked on an exception path accumulates across batches/legs until the
process dies of fd exhaustion — precisely the slow failure the chaos
harness (DESIGN.md §11) exists to rule out.  A thread left running also
outlives the call that started it, into the next leg or a fork.

A resource acquisition (``open``, ``socket.socket``, ``mmap.mmap``,
``ThreadingHTTPServer`` / ``StatusServer``, ``threading.Thread``) is
considered *managed* when:

* it is a ``with`` item (directly or wrapped, e.g.
  ``contextlib.closing(...)`` or ``stack.enter_context(...)``);
* it is assigned to ``self.<attr>`` — ownership moves to the object,
  whose own lifecycle (``stop`` / ``close``) releases it;
* it is returned directly (a factory hands ownership to its caller);
* it is bound to a name that some ``finally`` block in the same
  function releases (``close`` / ``stop`` / ``shutdown`` /
  ``server_close`` / ``abort`` / ``terminate`` / ``join``).

Anything else is reachable-leak-on-raise and fires.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.analysis.engine import ProjectRule, register_rule

if TYPE_CHECKING:
    from collections.abc import Iterator

    from repro.analysis.findings import Finding
    from repro.analysis.project import ProjectContext
    from repro.analysis.project.symbols import FunctionInfo

__all__ = ["ResourceDiscipline"]

_SCOPE = ("repro.serve", "repro.obs", "repro.soak")

#: Trailing callee name -> resource label.
_ACQUIRERS = {
    "open": "file handle",
    "socket": "socket",
    "mmap": "mmap handle",
    "memmap": "memmap handle",
    "ThreadingHTTPServer": "HTTP server",
    "StatusServer": "status server",
    "Thread": "thread",
}

_RELEASERS = frozenset(
    {"close", "stop", "shutdown", "server_close", "abort", "terminate", "join"}
)


def _acquire_label(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return _ACQUIRERS.get(func.id)
    if isinstance(func, ast.Attribute):
        return _ACQUIRERS.get(func.attr)
    return None


def _parents(fn: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(fn):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _finally_released(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, name: str
) -> bool:
    """Whether some ``finally`` in this function releases ``name``."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Try):
            continue
        for stmt in node.finalbody:
            for call in ast.walk(stmt):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in _RELEASERS
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id == name
                ):
                    return True
    return False


@register_rule
class ResourceDiscipline(ProjectRule):
    """RES001: serve/obs/soak resources are with/finally-managed."""

    rule_id = "RES001"
    summary = (
        "file/socket/mmap/server handles and threads in serve, obs and "
        "soak are released on every exception path (with-statement, "
        "self-owned, or a finally block) — long-lived loops must not "
        "leak fds or threads"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for info in project.functions_in(_SCOPE):
            yield from self._check_function(info)

    def _check_function(self, info: FunctionInfo) -> Iterator[Finding]:
        parents = _parents(info.node)
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            label = _acquire_label(node)
            if label is None:
                continue
            if self._managed(info, node, parents):
                continue
            yield info.ctx.finding(
                self.rule_id,
                node,
                f"{info.qual} acquires a {label} that is not released "
                "on exception paths — a raise here leaks it for the "
                "life of the process",
                "acquire it in a with-statement, hand ownership to "
                "self, or release it in a finally block",
            )

    def _managed(
        self,
        info: FunctionInfo,
        call: ast.Call,
        parents: dict[ast.AST, ast.AST],
    ) -> bool:
        node: ast.AST = call
        while node is not info.node:
            parent = parents.get(node)
            if parent is None:
                break
            if isinstance(parent, ast.withitem):
                return True  # with open(...) [as f], possibly wrapped
            if isinstance(parent, ast.Call):
                # Argument of a managing combinator such as
                # contextlib.closing(...) or stack.enter_context(...).
                return True
            if isinstance(parent, ast.Return):
                return True  # factory: ownership moves to the caller
            if isinstance(parent, ast.Assign):
                for target in parent.targets:
                    if isinstance(target, ast.Attribute) and isinstance(
                        target.value, ast.Name
                    ) and target.value.id in ("self", "cls"):
                        return True  # ownership moves to the object
                    if isinstance(
                        target, ast.Name
                    ) and _finally_released(info.node, target.id):
                        return True
            node = parent
        return False
