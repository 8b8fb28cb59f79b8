"""ROADMAP item 3's costly tables as counts: rewrites of the reference
fixture that make every row fail in one way. Each is validated in process
with the fixture's boundaries; the failing units per test, the cell
issues, the clearance search's piece evaluations and the reader's one-cell
conversions are pinned. Counts, not timings: a change that makes these
tables cheaper keeps the pieces it evaluates countable here."""

import csv
import shutil
from collections import Counter

import pytest

from registrylint import geo
from registrylint.ingest import RegistryReader, default_mapping, parse_boundaries
from registrylint.model import FIELD_TYPES, Technology
from registrylint.rules import Boundaries, RuleConfig, run_blocks

from test_ingest import count_conversions

# The raw names of wind's typed columns: every mapped column but text.
_WIND_TYPED = [e.raw for e in default_mapping().for_technology(Technology.WIND) if FIELD_TYPES[e.field] != "str | None"]


def _swap(row: dict) -> None:
    lat, sep, lon = row["coordinate"].partition(",")
    if sep:
        row["coordinate"] = f"{lon.strip()}, {lat.strip()}"


def _north(row: dict) -> None:
    lat, sep, lon = row["coordinate"].partition(",")
    if sep:
        row["coordinate"] = f"{float(lat) + 0.5!r}, {lon.strip()}"


def _all_x(row: dict) -> None:
    row.update(dict.fromkeys(_WIND_TYPED, "x"))


def _one_id(row: dict) -> None:
    row["mastr id"] = "SEE900000000000"


# Each rewrite: the technologies whose tables it changes and how it changes a row.
_REWRITES = {
    "as-written": ((), None),
    "swapped": (tuple(Technology), _swap),
    "north": (tuple(Technology), _north),
    "wind-all-x": ((Technology.WIND,), _all_x),
    "one-id": (tuple(Technology), _one_id),
}

# Per rewrite: failing units per test id, cell issues and _piece_distance_m
# evaluations over the 1,200 rows.
_FIXTURE = {1: 10, 3: 2, 4: 4, 5: 6, 6: 1, 7: 4, 9: 3, 10: 5, 11: 11, 12: 14, 13: 6, 14: 1, 15: 1}
_PINNED = {
    "as-written": (_FIXTURE, 0, 19),
    # Every point leaves its regions, and each failing location test
    # searches its region's clearance.
    "swapped": ({**_FIXTURE, 10: 1_200, 11: 1_194}, 0, 5_541),
    "north": ({**_FIXTURE, 10: 1_200, 11: 1_194}, 0, 2_405),
    # 200 rows of 9 bad cells; the coordinates are gone, so test 1 fails
    # and the location tests see no point.
    "wind-all-x": ({1: 209, 3: 2, 4: 4, 5: 6, 6: 1, 7: 4, 10: 5, 11: 9, 12: 11, 13: 5, 15: 1}, 1_800, 17),
    "one-id": ({**_FIXTURE, 2: 1_200}, 0, 19),
}


def _rewritten(source, target, name):
    techs, change = _REWRITES[name]
    target.mkdir()
    for level in ("districts", "municipalities"):
        shutil.copy(source / f"{level}.geojson", target)
    for tech in Technology:
        path = f"{tech.value}.csv"
        if tech not in techs:
            shutil.copy(source / path, target)
            continue
        with open(source / path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            header, rows = reader.fieldnames, list(reader)
        for row in rows:
            change(row)
        with open(target / path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, header)
            writer.writeheader()
            writer.writerows(rows)
    return target


@pytest.mark.parametrize("name", sorted(_REWRITES))
def test_a_costly_table_takes_its_pinned_counts(name, reference_tables, tmp_path, monkeypatch):
    folder = _rewritten(reference_tables, tmp_path / name, name)
    conversions = count_conversions(monkeypatch)
    evaluations = 0
    piece_distance_m = geo._piece_distance_m

    def counted(*args):
        nonlocal evaluations
        evaluations += 1
        return piece_distance_m(*args)

    monkeypatch.setattr(geo, "_piece_distance_m", counted)
    readers = [RegistryReader(folder / f"{tech.value}.csv", tech) for tech in sorted(Technology, key=lambda t: t.value)]
    boundaries = Boundaries(
        parse_boundaries(folder / "districts.geojson", "district"),
        parse_boundaries(folder / "municipalities.geojson", "municipality"),
    )
    failure_set = run_blocks((block for r in readers for block in r.blocks()), boundaries, RuleConfig())

    per_test = Counter(o.test_id for fr in failure_set.failures for o in fr.failed)
    issues = Counter(i.field for r in readers for i in r.issues)
    assert failure_set.total_records == 1_200
    assert (dict(per_test), sum(issues.values()), evaluations) == _PINNED[name]
    # A bad cell costs at most 8 one-cell conversions: its run of 8 is
    # converted cell by cell, and a good cell never is.
    cells = Counter(field for field, count in conversions if count == 1)
    for field, count in cells.items():
        assert count <= 8 * issues[field], field
