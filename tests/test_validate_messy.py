"""validate on tables with every CSV shape the reader has to get right."""

import csv
import gc
import io
import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from registrylint.cli import main
from registrylint.ingest import RegistryReader, parse_boundaries
from registrylint.model import Technology
from registrylint.report import build_report, export
from registrylint.rules import Boundaries, RuleConfig, run_blocks, run_suite

from conftest import column_stats

TECHS = ("biomass", "combustion", "hydro", "solar", "storage", "wind")
OUTPUTS = (
    "failures.ndjson",
    "failures.csv",
    "summary.json",
    "completeness.csv",
    "errors_by_district.csv",
    *(f"distance_histogram_{t}.csv" for t in TECHS),
)


def write_table(path: Path, rows: list[list[str]], newline: str) -> None:
    """Quote a cell only if csv.reader needs it, so bare quotes stay bare."""

    def cell(text: str) -> str:
        if any(c in text for c in ',\r\n') or text.startswith('"'):
            return '"' + text.replace('"', '""') + '"'
        return text

    path.write_text("".join(",".join(map(cell, row)) + newline for row in rows), encoding="utf-8")


@pytest.fixture(scope="module")
def messy_dir(tmp_path_factory) -> Path:
    """Synth tables rewritten with quoted newlines, bare quotes, duplicates and bad rows."""
    out = tmp_path_factory.mktemp("messy")
    assert main(["synth", "--count", "60", "--seed", "11", "--error-rate", "0.1", "--out", str(out)]) in (0, 1)
    tables = {}
    for tech in TECHS:
        with open(out / f"{tech}.csv", newline="", encoding="utf-8") as handle:
            tables[tech] = list(csv.reader(handle))
    for tech, rows in tables.items():
        header = rows[0]
        name = header.index("unit name")
        town = header.index("municipality")
        for i, row in enumerate(rows[1:]):
            # Quoted newlines (LF and CRLF) and doubled quotes in unit names.
            row[name] = f'Anlage {i}\n"Nord", Feld {i}\r\nEnde'
            # A bare quote inside an unquoted field is a literal character.
            row[town] = row[town] + ' 5" alt'
    # Duplicate ids across files and within one file.
    tables["wind"][-1][0] = tables["solar"][3][0]
    tables["solar"][-2][0] = tables["solar"][1][0]
    # Bad cells and a short row in the last rows of a table.
    power = tables["storage"][0].index("power gross")
    for row in tables["storage"][-3:]:
        row[power] = "abc"
    tables["hydro"][-2] = tables["hydro"][-2][:-3]
    # A one-row table.
    tables["biomass"] = tables["biomass"][:2]
    for k, (tech, rows) in enumerate(tables.items()):
        write_table(out / f"{tech}.csv", rows, "\r\n" if k % 2 else "\n")
    return out


def validate_args(fixtures: Path, out: Path, *extra: str) -> list[str]:
    args = ["validate", "--out", str(out)]
    for tech in TECHS:
        args += ["--input", f"{tech}={fixtures / f'{tech}.csv'}"]
    args += ["--districts", str(fixtures / "districts.geojson")]
    args += ["--municipalities", str(fixtures / "municipalities.geojson")]
    return args + list(extra)


def outputs(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in OUTPUTS}


class TestMessyTables:
    def test_summary_line_counts_the_bad_rows_and_cells(self, messy_dir, tmp_path, capsys):
        assert main(validate_args(messy_dir, tmp_path)) == 1
        (line,) = capsys.readouterr().out.strip().splitlines()
        payload = json.loads(line)
        assert (payload["rows_rejected"], payload["cell_issues"]) == (1, 4)

    def test_cells_read_back_as_written(self, messy_dir):
        solar = list(RegistryReader(messy_dir / "solar.csv", Technology.SOLAR))
        assert len(solar) == 60
        for i, record in enumerate(solar):
            assert record.unit_name == f'Anlage {i}\n"Nord", Feld {i}\r\nEnde'
            assert record.municipality.endswith(' 5" alt')

    def test_same_bytes_as_the_in_memory_pipeline(self, messy_dir, tmp_path):
        assert main(validate_args(messy_dir, tmp_path / "cli")) == 1
        boundaries = Boundaries(
            parse_boundaries(messy_dir / "districts.geojson", "district"),
            parse_boundaries(messy_dir / "municipalities.geojson", "municipality"),
        )
        records = [r for t in TECHS for r in RegistryReader(messy_dir / f"{t}.csv", Technology(t))]
        assert [replace(r) for r in records] == records  # ingest's records pass UnitRecord's checks
        failure_set = run_suite(records, boundaries, RuleConfig())
        report = build_report(failure_set, column_stats(records))
        export(failure_set.failures, report, tmp_path / "api")
        assert outputs(tmp_path / "cli") == outputs(tmp_path / "api")

    def test_duplicates_across_and_within_files_fail_test_2(self, messy_dir, tmp_path):
        main(validate_args(messy_dir, tmp_path))
        failures = [json.loads(line) for line in (tmp_path / "failures.ndjson").read_text().splitlines()]
        dup = {f["unit_id"] for f in failures if any(t["test_id"] == 2 for t in f["tests"])}
        solar = list(csv.reader(io.StringIO((messy_dir / "solar.csv").read_text(encoding="utf-8"), newline="")))
        assert {solar[3][0], solar[1][0]} <= dup


def _cut_tables(reference: Path, out: Path, rows: int) -> Path:
    """The first `rows` rows of each reference table, with a bad
    commissioning date in every 7th row and every 11th row cut short."""
    out.mkdir()
    for tech in TECHS:
        with open(reference / f"{tech}.csv", newline="", encoding="utf-8") as handle:
            header, *body = list(csv.reader(handle))
        body = body[:rows]
        column = header.index("commissioning date")
        for row in body[::7]:
            row[column] = "x"
        for i in range(3, len(body), 11):
            body[i] = body[i][:-2]
        with open(out / f"{tech}.csv", "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows([header, *body])
    return out


def _cyclic_garbage(tables: Path, boundaries: Boundaries) -> tuple[int, tuple[int, int, int]]:
    """The unreachable objects found once a read and suite run with the
    collector off, as validate runs them, are dropped; and the run's
    failure, cell issue and rejected row counts."""
    gc.collect()
    gc.disable()
    try:
        readers = [RegistryReader(tables / f"{tech}.csv", Technology(tech)) for tech in TECHS]
        failure_set = run_blocks((block for reader in readers for block in reader.blocks()), boundaries, RuleConfig())
        counts = (
            len(failure_set.failures),
            sum(len(reader.issues) for reader in readers),
            sum(reader.rows_rejected for reader in readers),
        )
        del readers, failure_set
        return gc.collect(), counts
    finally:
        gc.enable()


def _cyclic_garbage_of_commands(tables: Path, out: Path) -> int:
    """The unreachable objects found once whole validate and report
    commands have run through main() with the collector off, as run() runs
    every command, and their results are dropped."""
    validate = ["validate", "--out", str(out), *(f"--input={tech}={tables / tech}.csv" for tech in TECHS)]
    validate += ["--districts", str(tables / "districts.geojson")]
    validate += ["--municipalities", str(tables / "municipalities.geojson")]
    gc.collect()
    gc.disable()
    try:
        assert main(validate) == 1
        assert main(["report", "--out", str(out), "--bin-width", "2"]) == 0
        return gc.collect()
    finally:
        gc.enable()


def test_read_and_suite_leave_no_cyclic_garbage_that_grows_with_the_rows(reference_tables, tmp_path):
    boundaries = Boundaries(
        parse_boundaries(reference_tables / "districts.geojson", "district"),
        parse_boundaries(reference_tables / "municipalities.geojson", "municipality"),
    )
    small = _cut_tables(reference_tables, tmp_path / "small", 30)
    large = _cut_tables(reference_tables, tmp_path / "large", 200)
    _cyclic_garbage(small, boundaries)  # first-use caches and region structures
    small_garbage, small_counts = _cyclic_garbage(small, boundaries)
    large_garbage, large_counts = _cyclic_garbage(large, boundaries)
    assert all(0 < n < m for n, m in zip(small_counts, large_counts)), (small_counts, large_counts)
    assert large_garbage <= small_garbage

    for cut in (small, large):
        for name in ("districts.geojson", "municipalities.geojson"):
            shutil.copy(reference_tables / name, cut / name)
    _cyclic_garbage_of_commands(small, tmp_path / "warm-up")
    small_garbage = _cyclic_garbage_of_commands(small, tmp_path / "small-out")
    large_garbage = _cyclic_garbage_of_commands(large, tmp_path / "large-out")
    assert large_garbage <= small_garbage, (small_garbage, large_garbage)
