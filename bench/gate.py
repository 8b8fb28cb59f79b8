"""Correctness gate applied to every validate and report invocation.

A validate output passes when the run accounts for every row, reports
exactly the planted parse problems, and its failures cover the synth
answer key: each keyed unit fails at least its keyed tests, and no unit
outside the key fails. The key lists the minimal tests, so a keyed unit
may fail more (a displaced point may also leave its district).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from inputs import TECHNOLOGIES

# Outputs that identical inputs must reproduce byte for byte.
DETERMINISTIC_FILES = (
    "failures.ndjson",
    "failures.csv",
    "summary.json",
    "completeness.csv",
    "errors_by_district.csv",
) + tuple(f"distance_histogram_{tech}.csv" for tech in TECHNOLOGIES)

# SHA-256 of the reference fixture's outputs (synth --count 200 --seed 7
# --error-rate 0.05 on the rectangle grid). A change to these bytes is a
# contract change and must update the digests on purpose.
REFERENCE_SEED = 7
REFERENCE_DIGESTS = {
    "failures.ndjson": "e7f1a5031fb632f28fb1f3f23084f36e4cd535b5495b70fe8082a6b5e3627ff7",
    "failures.csv": "bb74e5fb9975d69d98f049249d0c201112013187b56ec904dc5a14d8e53377fb",
    "summary.json": "0ee61c3d7ab54c09097debf1f3e8a1d08927237341c76657bce1e537f520ef8f",
}


def digests(out_dir: Path, names=DETERMINISTIC_FILES) -> dict[str, str]:
    found = {}
    for name in names:
        path = out_dir / name
        found[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"
    return found


def stdout_line(text: str) -> tuple[dict | None, list[str]]:
    """The one JSON object a CLI invocation must print, or the problems."""
    lines = text.splitlines()
    if len(lines) != 1:
        return None, [f"stdout has {len(lines)} lines, expected 1"]
    try:
        payload = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON: {exc}"]
    if not isinstance(payload, dict):
        return None, ["stdout JSON is not an object"]
    return payload, []


def failing_tests(out_dir: Path) -> dict[str, set[int]]:
    """Failed test ids per unit id, from failures.ndjson."""
    found: dict[str, set[int]] = {}
    with open(out_dir / "failures.ndjson", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                payload = json.loads(line)
                tests = found.setdefault(payload["unit_id"], set())
                tests.update(t["test_id"] for t in payload["tests"])
    return found


def key_problems(failing: dict[str, set[int]], key: dict[str, frozenset[int]]) -> list[str]:
    problems = []
    missed = [uid for uid, tests in key.items() if not tests <= failing.get(uid, set())]
    if missed:
        problems.append(f"{len(missed)} keyed units miss keyed tests, e.g. {sorted(missed)[:3]}")
    extra = sorted(set(failing) - set(key))
    if extra:
        problems.append(f"{len(extra)} failing units outside the answer key, e.g. {extra[:3]}")
    return problems


def check_validate(code: int, stdout: str, out_dir: Path, inputs, header_only: bool) -> list[str]:
    """Problems with one `registrylint validate` invocation (empty = pass)."""
    key = {} if header_only else inputs.key
    rows = 0 if header_only else inputs.rows
    short = 0 if header_only else inputs.planted_short_rows
    bad = 0 if header_only else inputs.planted_bad_cells
    expected_code = 1 if key else 0
    problems = [] if code == expected_code else [f"exit code {code}, expected {expected_code}"]
    payload, more = stdout_line(stdout)
    problems += more
    if payload is None:
        return problems
    records = payload.get("records")
    if records is None or records + payload.get("rows_rejected", 0) != rows:
        problems.append(f"rows {rows} != records {records} + rejected {payload.get('rows_rejected')}")
    if payload.get("rows_rejected") != short:
        problems.append(f"rows_rejected {payload.get('rows_rejected')}, planted {short}")
    # The CLI counts a rejected row's issue as a cell issue too.
    if payload.get("cell_issues") != bad + short:
        problems.append(f"cell_issues {payload.get('cell_issues')}, planted {bad} + {short} short rows")
    try:
        failing = failing_tests(out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable failures.ndjson: {exc}"]
    if payload.get("failing_units") != len(failing):
        problems.append(f"failing_units {payload.get('failing_units')} != {len(failing)} in failures.ndjson")
    return problems + key_problems(failing, key)


def check_report(code: int, stdout: str, out_dir: Path, before: dict[str, str]) -> list[str]:
    """Problems with one `registrylint report` run over a validate output.

    With default options, report must rebuild the aggregate files
    byte-identical to the ones validate wrote.
    """
    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    _, more = stdout_line(stdout)
    problems += more
    after = digests(out_dir)
    changed = sorted(name for name in before if after[name] != before[name])
    if changed:
        problems.append(f"report rebuilt different bytes: {', '.join(changed)}")
    return problems


def check_same(found: dict[str, str], expected: dict[str, str], what: str) -> list[str]:
    differ = sorted(name for name in expected if found.get(name) != expected[name])
    return [f"{what}: {', '.join(differ)} differ"] if differ else []
