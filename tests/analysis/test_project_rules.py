"""Golden fixtures for the interprocedural rule families.

Each rule family gets a firing fixture package (the violation the rule
exists to catch) and a silent twin (the sanctioned idiom it must not
flag).  Fixtures live under ``tests/analysis/fixtures/<name>/repro/...``
so module inference anchors them into the ``repro`` namespace without
touching the live tree.

SEQ001 additionally gets a mutation test against the *real*
``repro.serve.loop`` source: re-ordering the cursor seal before the
shard-state write must be caught.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import analyze_file, analyze_paths, get_rule

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src"


def lint_fixture(name: str, rule_id: str):
    """Run exactly one rule over one fixture package."""
    findings, n_files = analyze_paths(
        [FIXTURES / name], rules=[get_rule(rule_id)]
    )
    assert n_files > 0, f"fixture package {name} has no python files"
    return findings


def fired_lines(findings, filename: str) -> list[int]:
    return sorted(
        f.line for f in findings if f.path.rpartition("/")[2] == filename
    )


# ----------------------------------------------------------------------
# DUR001 — durable-write discipline
# ----------------------------------------------------------------------
def test_dur001_fires_on_wrapped_raw_write():
    findings = lint_fixture("dur_fire", "DUR001")
    assert findings, "DUR001 must catch the wrapped raw write chain"
    assert all(f.rule == "DUR001" for f in findings)
    (finding,) = findings
    # Anchored at the call site inside the persistence layer, with the
    # offending chain rendered in the message.
    assert finding.path.endswith("writer.py")
    assert "persist_snapshot" in finding.message
    assert "dump_payload" in finding.message


def test_dur001_silent_on_atomic_chain():
    assert lint_fixture("dur_silent", "DUR001") == []


# ----------------------------------------------------------------------
# SEQ001 — cursor seal ordering
# ----------------------------------------------------------------------
def test_seq001_fires_on_seal_before_state_write():
    findings = lint_fixture("seq_fire", "SEQ001")
    assert all(f.rule == "SEQ001" for f in findings)
    lines = fired_lines(findings, "checkpoint.py")
    # One witness in commit_batch (loop write after seal), one in the
    # else arm of commit_branchy.
    assert len(lines) == 2
    assert lines[0] < 20 < lines[1]


def test_seq001_silent_on_write_then_seal():
    assert lint_fixture("seq_silent", "SEQ001") == []


def test_seq001_catches_reordered_live_commit(tmp_path):
    """Mutation test: break the real serve loop's commit ordering and
    verify SEQ001 catches exactly that edit, above the base write and
    above the journal write alike."""
    live = SRC / "repro" / "serve" / "loop.py"
    source = live.read_text()
    seal = "checkpoint.commit(make_cursor(base, finished))"
    write_anchor = "checkpoint.write_state("
    assert seal in source, "serve loop commit-point anchor moved"
    lines = source.splitlines(keepends=True)
    writes = [i for i, line in enumerate(lines) if write_anchor in line]
    # commit_state() writes either a base or a journal.
    assert len(writes) == 2, "serve loop write_state anchors moved"

    # The live source must prove clean first.
    rules = [get_rule("SEQ001")]
    clean = tmp_path / "loop.py"
    clean.write_text(source)
    assert analyze_file(clean, module="repro.serve.loop", rules=rules) == []

    # Hoist the seal above each state write inside commit_state().
    for kind, index in zip(("base", "journal"), writes, strict=True):
        write_line = lines[index]
        indent = write_line[: len(write_line) - len(write_line.lstrip())]
        mutated = tmp_path / f"loop_{kind}_mutated.py"
        mutated.write_text(
            "".join(lines[:index] + [f"{indent}{seal}\n"] + lines[index:])
        )
        findings = analyze_file(
            mutated, module="repro.serve.loop", rules=rules
        )
        assert findings, f"SEQ001 must catch a seal hoisted above the {kind} write"
        assert all(f.rule == "SEQ001" for f in findings)
        # The witness is the write itself (1-based, one line lower now).
        assert index + 2 in {f.line for f in findings}, kind


# ----------------------------------------------------------------------
# FRK001 — fork safety of dispatch sites and worker chains
# ----------------------------------------------------------------------
def test_frk001_fires_on_handles_and_unsafe_worker_chain():
    findings = lint_fixture("frk_fire", "FRK001")
    assert all(f.rule == "FRK001" for f in findings)
    messages = [
        f.message for f in findings if f.path.endswith("dispatch.py")
    ]
    # Three dispatch sites, each unsafe in its own way: a handle shipped
    # as an argument, a closure capturing a handle, and a worker chain
    # touching a module-level lock.
    assert any("passes an open file handle" in m for m in messages), messages
    assert any("captures 'sink'" in m for m in messages), messages
    assert any("guarded_worker" in m for m in messages), messages
    assert fired_lines(findings, "dispatch.py") == [14, 14, 22, 29]


def test_frk001_silent_on_wire_values():
    assert lint_fixture("frk_silent", "FRK001") == []


# ----------------------------------------------------------------------
# RES001 — resource release on exception paths
# ----------------------------------------------------------------------
def test_res001_fires_on_leaky_handles():
    findings = lint_fixture("res_fire", "RES001")
    assert all(f.rule == "RES001" for f in findings)
    lines = fired_lines(findings, "stream.py")
    assert len(lines) == 3  # the open(), the socket() and the Thread()
    assert any("acquires a thread" in f.message for f in findings)


def test_res001_silent_on_managed_forms():
    # with-items, closing(), ownership transfer via return/attribute,
    # and finally-released names are all sanctioned.
    assert lint_fixture("res_silent", "RES001") == []
