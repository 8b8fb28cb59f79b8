"""Registry CSV and boundary GeoJSON parsing tests."""

import codecs
import csv
import json
import re
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from registrylint.ingest import (
    _CODECS,
    _column_converter,
    ColumnMapping,
    IngestError,
    MappingEntry,
    RegistryReader,
    default_mapping,
    parse_boundaries,
    write_boundaries_geojson,
    write_registry_csv,
)
from registrylint.model import FIELD_TYPES, Technology, UnitRecord, columns_for
from registrylint.rules import RuleConfig, fields_read
from registrylint.synth import generate_clean, make_boundary_grid

from conftest import column_stats
from test_model import records


def make_csv(path, technology: Technology, rows: list[dict], *, drop_columns=(), delimiter=","):
    """Write a raw registry CSV with the default column names."""
    header = [e.raw for e in default_mapping().for_technology(technology) if e.raw not in drop_columns]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(header)
        for row in rows:
            writer.writerow([row.get(name, "") for name in header])
    return path


def wind_table_with(path, extra_columns: list[str]):
    """A one-row wind table with the default columns, then extra_columns, each holding 0.5."""
    header = [e.raw for e in default_mapping().for_technology(Technology.WIND)]
    row = {"mastr id": "SEE900000000001", "power": "2000"}
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header + extra_columns)
        writer.writerow([row.get(name, "") for name in header] + ["0.5"] * len(extra_columns))
    return path


def read_table(path, technology: Technology, mapping=None, **options) -> SimpleNamespace:
    """A whole table read with RegistryReader: its records and row accounting."""
    reader = RegistryReader(path, technology, mapping, **options)
    records = list(reader)
    return SimpleNamespace(
        records=records, issues=reader.issues, rows_total=reader.rows_total, rows_rejected=reader.rows_rejected
    )


class TestParseRegistry:
    def test_basic_solar_row(self, tmp_path):
        path = make_csv(
            tmp_path / "solar.csv",
            Technology.SOLAR,
            [
                {
                    "mastr id": "SEE900002935310",
                    "unit owner mastr id": "ABR989393706204",
                    "operating status": "In Betrieb",
                    "grid operator inspection": "1",
                    "installation year": "2017",
                    "download date": "2024-03-12",
                    "zip code": "17291",
                    "municipality id": "10001003",
                    "coordinate": "48.1748, 11.5961",
                    "power gross": "5",
                    "power inverter": "10",
                    "power net": "5",
                    "number of modules": "8",
                    "unit type": "Freifläche",
                }
            ],
        )
        result = read_table(path, Technology.SOLAR)
        assert result.rows_total == 1
        assert result.rows_rejected == 0
        assert result.issues == []
        (record,) = result.records
        assert record.unit_id == "SEE900002935310"
        assert record.power_net_kw == 5.0
        assert record.power_inverter_kw == 10.0
        assert record.number_of_modules == 8
        assert record.coordinate == (48.1748, 11.5961)
        assert record.grid_operator_inspection is True
        # District key derives from the first five digits of the municipality key.
        assert record.district_id == "10001"

    def test_empty_file_with_header(self, tmp_path):
        path = make_csv(tmp_path / "wind.csv", Technology.WIND, [])
        result = read_table(path, Technology.WIND)
        assert result.records == []
        assert result.issues == []
        assert result.rows_total == 0

    # float() and int() also take digit separators and non-ASCII digits, and
    # date.fromisoformat takes the ISO basic and week forms from Python 3.11 on.
    @pytest.mark.parametrize(
        "technology, column, field, text, reason",
        [
            (Technology.WIND, "power", "power_kw", "abc", "not a number"),
            (Technology.WIND, "power", "power_kw", "2_000", "not an ASCII number"),
            (Technology.WIND, "power", "power_kw", "\u0662\u0660\u0660\u0660", "not an ASCII number"),
            (Technology.WIND, "power", "power_kw", "\uff11\uff12.\uff15", "not an ASCII number"),
            (Technology.WIND, "installation year", "installation_year", "\u0662\u0660\u0661\u0667", "not an ASCII number"),
            (Technology.WIND, "coordinate", "coordinate", "48.1_748, 11.5961", "not an ASCII number"),
            (Technology.WIND, "power", "power_kw", "inf", "not finite"),
            (Technology.WIND, "grid operator inspection", "grid_operator_inspection", "vielleicht", "not a boolean"),
            (Technology.WIND, "coordinate", "coordinate", "48.1", "expected 'latitude, longitude'"),
            (Technology.WIND, "coordinate", "coordinate", "nan, 11.5", "not finite"),
            (Technology.SOLAR, "number of modules", "number_of_modules", "-3", "negative count"),
            (Technology.WIND, "commissioning date", "commissioning_date", "20170101", "not a YYYY-MM-DD date"),
            (Technology.WIND, "commissioning date", "commissioning_date", "2017-W01-1", "not a YYYY-MM-DD date"),
        ],
        ids=[
            "abc", "underscore", "arabic-indic", "fullwidth", "int-arabic-indic", "coordinate-underscore", "inf",
            "not-a-boolean", "one-coordinate", "nan-coordinate", "negative-modules", "basic-date", "week-date",
        ],
    )
    def test_unparseable_power_becomes_null_with_issue(self, tmp_path, technology, column, field, text, reason):
        path = make_csv(
            tmp_path / "table.csv",
            technology,
            [{"mastr id": "SEE900000000001", column: text}],
        )
        result = read_table(path, technology)
        (record,) = result.records
        assert getattr(record, field) is None
        (issue,) = result.issues
        assert issue.field == field
        assert issue.value == text
        assert issue.reason == reason
        assert result.rows_rejected == 0

    def test_german_decimal_comma(self, tmp_path):
        path = make_csv(
            tmp_path / "wind.csv",
            Technology.WIND,
            [{"mastr id": "SEE900000000001", "power": "5,5", "hub height": "65"}],
        )
        (record,) = read_table(path, Technology.WIND).records
        assert record.power_kw == 5.5
        assert record.hub_height_m == 65.0

    def test_negative_power_becomes_null_with_issue(self, tmp_path):
        path = make_csv(
            tmp_path / "wind.csv",
            Technology.WIND,
            [{"mastr id": "SEE900000000001", "power": "-3"}],
        )
        result = read_table(path, Technology.WIND)
        assert result.records[0].power_kw is None
        assert result.issues[0].reason == "negative value"

    def test_parsed_records_meet_the_record_invariants(self, tmp_path):
        # Ingest builds records without UnitRecord's checks; replace() runs them.
        entries = {
            **default_mapping().entries,
            Technology.WIND: tuple(
                MappingEntry(e.raw, e.field, 1e10 if e.field == "power_kw" else 1.0)
                for e in default_mapping().for_technology(Technology.WIND)
            ),
        }
        path = make_csv(
            tmp_path / "wind.csv",
            Technology.WIND,
            [
                {"mastr id": " SEE900000000001 ", "power": "1e300", "hub height": "-2", "manufacturer": "  "},
                {"mastr id": "SEE900000000002", "power": "2", "coordinate": "91.0, 10.0", "zip code": " 12345"},
            ],
        )
        result = read_table(path, Technology.WIND, ColumnMapping(entries))
        assert [replace(r) for r in result.records] == result.records
        assert [(i.line, i.field, i.reason) for i in result.issues] == [
            (2, "power_kw", "not finite"),
            (2, "hub_height_m", "negative value"),
            (3, "coordinate", "out of WGS84 bounds"),
        ]
        assert result.records[0].unit_id == "SEE900000000001"
        assert result.records[0].manufacturer is None
        assert result.records[1].power_kw == 2e10

    def test_issue_names_the_physical_line_its_row_starts_on(self, tmp_path):
        # Row 2's quoted unit name holds a newline, so row 3 starts on line 4.
        path = make_csv(
            tmp_path / "wind.csv",
            Technology.WIND,
            [
                {"mastr id": "SEE900000000001", "unit name": "Windpark\nNord", "power": "2000"},
                {"mastr id": "SEE900000000002", "power": "zwei"},
            ],
        )
        result = read_table(path, Technology.WIND)
        assert result.records[0].unit_name == "Windpark\nNord"
        assert [(i.line, i.field, i.value) for i in result.issues] == [(4, "power_kw", "zwei")]

    def test_technology_must_be_the_enum(self, tmp_path):
        # Records skip UnitRecord's checks, so the reader checks the one
        # value that does not come from a cell.
        with pytest.raises(TypeError, match="Technology"):
            RegistryReader(tmp_path / "wind.csv", "wind")

    def test_missing_header_fatal(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(IngestError, match="missing header"):
            read_table(path, Technology.WIND)

    def test_missing_mandatory_column_fatal(self, tmp_path):
        path = make_csv(tmp_path / "wind.csv", Technology.WIND, [], drop_columns=("power",))
        with pytest.raises(IngestError, match="power"):
            read_table(path, Technology.WIND)

    def test_wrong_technology_table_fatal(self, tmp_path):
        # A wind file parsed as solar misses every solar power column.
        path = make_csv(tmp_path / "wind.csv", Technology.WIND, [])
        with pytest.raises(IngestError, match="power gross"):
            read_table(path, Technology.SOLAR)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        # Spreadsheet "CSV UTF-8" exports start with one.
        path = wind_table_with(tmp_path / "wind.csv", [])
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        (record,) = read_table(path, Technology.WIND).records
        assert (record.unit_id, record.power_kw) == ("SEE900000000001", 2000.0)

    def test_boundary_byte_order_mark_is_ignored(self, reference_tables, tmp_path):
        def regions(path, level):
            return [(region.region_id, region.name, region.polygons) for region in parse_boundaries(path, level)]

        for name, level in (("districts", "district"), ("municipalities", "municipality")):
            original = reference_tables / f"{name}.geojson"
            marked = tmp_path / original.name
            marked.write_bytes(codecs.BOM_UTF8 + original.read_bytes())
            assert regions(marked, level) == regions(original, level)

    def test_mapped_column_named_twice_fatal(self, tmp_path):
        path = wind_table_with(tmp_path / "wind.csv", ["power"])
        with pytest.raises(IngestError, match="more than once: power$"):
            read_table(path, Technology.WIND)

    def test_unmapped_column_may_repeat(self, tmp_path):
        path = wind_table_with(tmp_path / "wind.csv", ["notes", "notes"])
        (record,) = read_table(path, Technology.WIND).records
        assert (record.unit_id, record.power_kw) == ("SEE900000000001", 2000.0)

    def test_row_accounting_never_silent(self, tmp_path):
        path = tmp_path / "wind.csv"
        header = [e.raw for e in default_mapping().for_technology(Technology.WIND)]
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerow(["SEE900000000001"] + [""] * (len(header) - 1))
            writer.writerow(["SEE900000000002", "too", "short"])  # malformed width
            writer.writerow(["SEE900000000003"] + [""] * (len(header) - 1))
        result = read_table(path, Technology.WIND)
        assert result.rows_total == 3
        assert len(result.records) == 2
        assert result.rows_rejected == 1
        assert result.rows_total == len(result.records) + result.rows_rejected

    @pytest.mark.parametrize("block_rows", [1, 2, RegistryReader.BLOCK_ROWS])
    def test_issues_come_in_file_order_whatever_the_block_size(self, tmp_path, block_rows):
        path = tmp_path / "wind.csv"
        header = [e.raw for e in default_mapping().for_technology(Technology.WIND)]
        cells = [
            {"mastr id": "SEE900000000001", "power": "zwei", "hub height": "-1"},
            {"mastr id": "SEE900000000002", "commissioning date": "2017-02-30"},
            None,  # a short row
            {"mastr id": "SEE900000000004", "power": "2", "hub height": "x", "commissioning date": "1.1.2017"},
        ]
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for row in cells:
                writer.writerow(["SEE900000000003"] if row is None else [row.get(name, "") for name in header])
        reader = RegistryReader(path, Technology.WIND)
        reader.BLOCK_ROWS = block_rows
        assert [r.unit_id for r in reader] == ["SEE900000000001", "SEE900000000002", "SEE900000000004"]
        assert [(i.line, i.field) for i in reader.issues] == [
            (2, "power_kw"),
            (2, "hub_height_m"),
            (3, "commissioning_date"),
            (4, None),
            (5, "commissioning_date"),
            (5, "hub_height_m"),
        ]
        assert (reader.rows_total, reader.rows_rejected) == (4, 1)
        assert (reader.non_null["power_kw"], reader.non_null["hub_height_m"]) == (1, 0)

    def test_dso_only_reads_every_row_but_yields_and_counts_inspected_ones(self, tmp_path):
        path = make_csv(
            tmp_path / "wind.csv",
            Technology.WIND,
            [
                {"mastr id": "SEE900000000001", "grid operator inspection": "1", "power": "2"},
                {"mastr id": "SEE900000000002", "grid operator inspection": "0", "power": "x"},
                {"mastr id": "SEE900000000003", "grid operator inspection": "", "power": "3"},
                {"mastr id": "SEE900000000004", "grid operator inspection": "ja", "municipality id": "05774032"},
            ],
        )
        reader = RegistryReader(path, Technology.WIND, dso_only=True)
        assert [r.unit_id for r in reader] == ["SEE900000000001", "SEE900000000004"]
        assert [(i.line, i.field) for i in reader.issues] == [(3, "power_kw")]
        assert reader.rows_total == 4
        counts = reader.non_null
        assert (counts["unit_id"], counts["power_kw"], counts["municipality_id"], counts["district_id"]) == (2, 1, 1, 1)

    def test_custom_delimiter(self, tmp_path):
        path = make_csv(
            tmp_path / "wind.csv",
            Technology.WIND,
            [{"mastr id": "SEE900000000001", "power": "2000"}],
            delimiter=";",
        )
        (record,) = read_table(path, Technology.WIND, delimiter=";").records
        assert record.power_kw == 2000.0

    def test_unit_conversion_factor(self, tmp_path):
        entries = {
            tech: tuple(
                MappingEntry(e.raw, e.field, 0.001 if e.field == "power_kw" else 1.0)
                for e in default_mapping().for_technology(tech)
            )
            for tech in Technology
        }
        mapping = ColumnMapping(entries)
        path = make_csv(
            tmp_path / "wind.csv",
            Technology.WIND,
            [{"mastr id": "SEE900000000001", "power": "2000000"}],  # raw watts
        )
        (record,) = read_table(path, Technology.WIND, mapping).records
        assert record.power_kw == 2000.0

    def test_mapping_must_cover_required_fields(self):
        entries = {
            tech: tuple(e for e in default_mapping().for_technology(tech) if e.field != "unit_id")
            for tech in Technology
        }
        mapping = ColumnMapping(entries)
        for tech in Technology:
            assert fields_read(RuleConfig(), tech) - mapping.fields_given(tech) == {"unit_id"}

    def test_mapped_municipality_id_gives_district_id(self):
        wind = tuple(e for e in default_mapping().for_technology(Technology.WIND) if e.field != "district_id")
        given = ColumnMapping({Technology.WIND: wind}).fields_given(Technology.WIND)
        assert "district_id" in given
        no_ids = tuple(e for e in wind if e.field != "municipality_id")
        given = ColumnMapping({Technology.WIND: no_ids}).fields_given(Technology.WIND)
        assert "district_id" not in given and "municipality_id" not in given

    @pytest.mark.parametrize(
        "target, factor, message",
        [("power_gross_kw", 1.0, "do not carry"), ("technology", 1.0, "unknown field"),
         ("hub_height_m", 0.0, "positive and finite"), ("hub_height_m", float("nan"), "positive and finite")],
        ids=["other-technology", "table-key", "zero-factor", "nan-factor"],
    )
    def test_mapping_rejects_unusable_entries(self, target, factor, message):
        base = default_mapping().for_technology(Technology.WIND)
        entries = {
            Technology.WIND: tuple(e for e in base if e.field != target) + (MappingEntry("extra", target, factor),)
        }
        with pytest.raises(IngestError, match=message):
            ColumnMapping({**default_mapping().entries, **entries})

    def test_mapping_rejects_duplicate_targets(self):
        base = default_mapping().for_technology(Technology.WIND)
        entries = {Technology.WIND: base + (MappingEntry("power again", "power_kw"),)}
        with pytest.raises(IngestError, match="more than once"):
            ColumnMapping({**default_mapping().entries, **entries})


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(record=records())
    def test_write_then_parse_is_identity(self, record, tmp_path_factory):
        path = tmp_path_factory.mktemp("roundtrip") / "table.csv"
        write_registry_csv([record], path, record.technology)
        result = read_table(path, record.technology)
        assert result.rows_rejected == 0
        # The writer never emits unparseable cells, so no issues either.
        assert result.issues == []
        (again,) = result.records
        assert again == record

    @settings(max_examples=40, deadline=None)
    @given(
        records_in=st.lists(records(), max_size=12),
        block_rows=st.integers(min_value=1, max_value=RegistryReader.BLOCK_ROWS),
    )
    def test_tables_read_back_checked_records_and_their_counts(self, records_in, block_rows, tmp_path_factory):
        folder = tmp_path_factory.mktemp("tables")
        for tech in Technology:
            written = [r for r in records_in if r.technology is tech]
            write_registry_csv(written, folder / f"{tech.value}.csv", tech)
            reader = RegistryReader(folder / f"{tech.value}.csv", tech)
            reader.BLOCK_ROWS = block_rows
            read = list(reader)
            assert read == written
            assert all(type(r) is UnitRecord for r in read)
            assert [replace(r) for r in read] == read  # UnitRecord's own checks pass
            expected = column_stats(written).non_null.get(tech, dict.fromkeys(columns_for(tech), 0))
            assert reader.non_null == expected

    def test_synthetic_table_round_trip(self, tmp_path, grid):
        records_out = generate_clean(Technology.SOLAR, 60, 11, grid)
        path = tmp_path / "solar.csv"
        write_registry_csv(records_out, path, Technology.SOLAR)
        result = read_table(path, Technology.SOLAR)
        assert result.records == records_out


# Cells that the column path must read as the cell path does: blanks,
# NaN and infinity text, digit separators, non-ASCII digits, padded and
# signed numbers, decimal commas alone and beside a point, integers beyond
# the float range, dates in the wrong shape or not in the calendar, boolean
# spellings, and coordinates with a third part or out of bounds.
_ODD_CELLS = [
    "", "   ", "nan", "NaN", "-inf", "inf", "1e999", "1_0", "\u0662", " 5 ", "5,5", "1,2,3", "1,5.0", "-0.0",
    "1" * 400, "-" + "1" * 400, "+7", "-3", "20170101", "2017-02-30", "2017-W01-1", "JA", "yes", "vielleicht",
    "48.1,10.2,0", "48.1,200.5", "-91.0, 10.0", "48.1, 1e999", "48.1, nan",
]
_QUANTITIES = st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False).map(repr)
# The solar columns of each non-text field type, with cells of that type.
_TYPED_COLUMNS = {
    "power gross": _QUANTITIES,
    "power net": _QUANTITIES.map(lambda text: text.replace(".", ",")),
    "area": st.one_of(_QUANTITIES, st.integers(min_value=0, max_value=10**6).map(str)),
    "number of modules": st.integers(min_value=0, max_value=10**310).map(str),
    "installation year": st.integers(min_value=-10**4, max_value=10**4).map(str),
    "commissioning date": st.dates().map(lambda day: day.isoformat()),
    "grid operator inspection": st.sampled_from(["1", "0", "ja", "Nein", "TRUE", "false", "yes", "no"]),
    "coordinate": st.tuples(
        st.floats(min_value=-90.0, max_value=90.0), st.floats(min_value=-180.0, max_value=180.0)
    ).map(lambda point: f"{point[0]!r}, {point[1]!r}"),
}


@st.composite
def solar_columns(draw) -> list[dict[str, str]]:
    """Rows of a solar table whose typed columns hold cells of their type,
    with some of _ODD_CELLS among them."""
    count = draw(st.integers(min_value=1, max_value=24))
    columns = {}
    for raw, cells in _TYPED_COLUMNS.items():
        odd = draw(st.sampled_from([0.0, 0.1, 0.5]))  # the share of odd cells
        columns[raw] = [
            draw(st.sampled_from(_ODD_CELLS)) if odd and draw(st.floats(0.0, 1.0)) < odd else draw(cells)
            for _ in range(count)
        ]
    return [
        {"mastr id": f"SEE9{row:011d}", **{raw: cells[row] for raw, cells in columns.items()}}
        for row in range(count)
    ]


# Each of _ODD_CELLS, the cells of test_unparseable_power_becomes_null_with_issue
# and cells with one comma that float() refuses, as the reader reads it in
# each typed field: the value's repr, or the reason of its cell issue. The
# columns after the cell: a quantity at unit factors 1, 1e-3 and 1e300, number
# of modules, installation year, a date, grid operator inspection and
# coordinate.
_PINNED_CELLS = [
    ("", "None", "None", "None", "None", "None", "None", "None", "None"),
    ("   ", "None", "None", "None", "None", "None", "None", "None", "None"),
    (
        "nan", "not finite", "not finite", "not finite", "not an integer",
        "not an integer", "not a YYYY-MM-DD date", "not a boolean",
        "expected 'latitude, longitude'",
    ),
    (
        "NaN", "not finite", "not finite", "not finite", "not an integer",
        "not an integer", "not a YYYY-MM-DD date", "not a boolean",
        "expected 'latitude, longitude'",
    ),
    (
        "-inf", "not finite", "not finite", "not finite", "not an integer",
        "not an integer", "not a YYYY-MM-DD date", "not a boolean",
        "expected 'latitude, longitude'",
    ),
    (
        "inf", "not finite", "not finite", "not finite", "not an integer",
        "not an integer", "not a YYYY-MM-DD date", "not a boolean",
        "expected 'latitude, longitude'",
    ),
    (
        "1e999", "not finite", "not finite", "not finite", "not an integer",
        "not an integer", "not a YYYY-MM-DD date", "not a boolean",
        "expected 'latitude, longitude'",
    ),
    (
        "1_0", "not an ASCII number", "not an ASCII number", "not an ASCII number", "not an ASCII number",
        "not an ASCII number", "not a YYYY-MM-DD date", "not a boolean", "not an ASCII number",
    ),
    (
        "\u0662", "not an ASCII number", "not an ASCII number", "not an ASCII number", "not an ASCII number",
        "not an ASCII number", "not a YYYY-MM-DD date", "not a boolean", "not an ASCII number",
    ),
    (
        " 5 ", "5.0", "0.005", "5e+300", "5", "5", "not a YYYY-MM-DD date", "not a boolean",
        "expected 'latitude, longitude'",
    ),
    (
        "5,5", "5.5", "0.0055", "5.5e+300", "not an integer",
        "not an integer", "not a YYYY-MM-DD date", "not a boolean", "(5.0, 5.0)",
    ),
    (
        "1,2,3", "not a number", "not a number", "not a number", "not an integer",
        "not an integer", "not a YYYY-MM-DD date", "not a boolean",
        "expected 'latitude, longitude'",
    ),
    (
        "1,5.0", "not a number", "not a number", "not a number", "not an integer",
        "not an integer", "not a YYYY-MM-DD date", "not a boolean", "(1.0, 5.0)",
    ),
    (
        "-0.0", "-0.0", "-0.0", "-0.0", "not an integer",
        "not an integer", "not a YYYY-MM-DD date", "not a boolean",
        "expected 'latitude, longitude'",
    ),
    (
        "1" * 400, "not finite", "not finite", "not finite", "beyond the float range", "beyond the float range",
        "not a YYYY-MM-DD date", "not a boolean", "expected 'latitude, longitude'",
    ),
    (
        "-" + "1" * 400, "not finite", "not finite", "not finite", "beyond the float range", "beyond the float range",
        "not a YYYY-MM-DD date", "not a boolean", "expected 'latitude, longitude'",
    ),
    (
        "+7", "7.0", "0.007", "7e+300", "7", "7", "not a YYYY-MM-DD date", "not a boolean",
        "expected 'latitude, longitude'",
    ),
    (
        "-3", "negative value", "negative value", "negative value", "negative count", "-3", "not a YYYY-MM-DD date",
        "not a boolean", "expected 'latitude, longitude'",
    ),
    (
        "20170101", "20170101.0", "20170.101", "2.0170101000000002e+307", "20170101", "20170101",
        "not a YYYY-MM-DD date", "not a boolean", "expected 'latitude, longitude'",
    ),
    (
        "2017-02-30", "not a number", "not a number", "not a number",
        "not an integer", "not an integer",
        "not a calendar date", "not a boolean", "expected 'latitude, longitude'",
    ),
    (
        "2017-W01-1", "not a number", "not a number", "not a number",
        "not an integer", "not an integer",
        "not a YYYY-MM-DD date", "not a boolean", "expected 'latitude, longitude'",
    ),
    (
        "JA", "not a number", "not a number", "not a number", "not an integer",
        "not an integer", "not a YYYY-MM-DD date", "True",
        "expected 'latitude, longitude'",
    ),
    (
        "yes", "not a number", "not a number", "not a number", "not an integer",
        "not an integer", "not a YYYY-MM-DD date", "True",
        "expected 'latitude, longitude'",
    ),
    (
        "vielleicht", "not a number", "not a number", "not a number",
        "not an integer", "not an integer",
        "not a YYYY-MM-DD date", "not a boolean", "expected 'latitude, longitude'",
    ),
    (
        "48.1,10.2,0", "not a number", "not a number", "not a number",
        "not an integer",
        "not an integer", "not a YYYY-MM-DD date", "not a boolean",
        "expected 'latitude, longitude'",
    ),
    (
        "48.1,200.5", "not a number", "not a number", "not a number",
        "not an integer", "not an integer",
        "not a YYYY-MM-DD date", "not a boolean", "out of WGS84 bounds",
    ),
    (
        "-91.0, 10.0", "not a number", "not a number", "not a number",
        "not an integer",
        "not an integer", "not a YYYY-MM-DD date", "not a boolean",
        "out of WGS84 bounds",
    ),
    (
        "48.1, 1e999", "not a number", "not a number", "not a number",
        "not an integer",
        "not an integer", "not a YYYY-MM-DD date", "not a boolean",
        "not finite",
    ),
    (
        "48.1, nan", "not a number", "not a number", "not a number",
        "not an integer", "not an integer",
        "not a YYYY-MM-DD date", "not a boolean", "not finite",
    ),
    (
        "abc", "not a number", "not a number", "not a number", "not an integer",
        "not an integer", "not a YYYY-MM-DD date", "not a boolean",
        "expected 'latitude, longitude'",
    ),
    (
        "2_000", "not an ASCII number", "not an ASCII number", "not an ASCII number", "not an ASCII number",
        "not an ASCII number", "not a YYYY-MM-DD date", "not a boolean", "not an ASCII number",
    ),
    (
        "\u0662\u0660\u0660\u0660", "not an ASCII number", "not an ASCII number", "not an ASCII number",
        "not an ASCII number", "not an ASCII number", "not a YYYY-MM-DD date", "not a boolean", "not an ASCII number",
    ),
    (
        "\uff11\uff12.\uff15", "not an ASCII number", "not an ASCII number", "not an ASCII number",
        "not an ASCII number", "not an ASCII number", "not a YYYY-MM-DD date", "not a boolean", "not an ASCII number",
    ),
    (
        "\u0662\u0660\u0661\u0667", "not an ASCII number", "not an ASCII number", "not an ASCII number",
        "not an ASCII number", "not an ASCII number", "not a YYYY-MM-DD date", "not a boolean", "not an ASCII number",
    ),
    (
        "48.1_748, 11.5961", "not an ASCII number", "not an ASCII number", "not an ASCII number",
        "not an ASCII number", "not an ASCII number", "not a YYYY-MM-DD date", "not a boolean", "not an ASCII number",
    ),
    (
        "48.1", "48.1", "0.048100000000000004", "4.81e+301", "not an integer",
        "not an integer", "not a YYYY-MM-DD date", "not a boolean",
        "expected 'latitude, longitude'",
    ),
    (
        "nan, 11.5", "not a number", "not a number", "not a number",
        "not an integer", "not an integer",
        "not a YYYY-MM-DD date", "not a boolean", "not finite",
    ),
    (
        ",", "not a number", "not a number", "not a number", "not an integer",
        "not an integer", "not a YYYY-MM-DD date", "not a boolean",
        "not a number",
    ),
    (
        "a,b", "not a number", "not a number", "not a number", "not an integer",
        "not an integer", "not a YYYY-MM-DD date", "not a boolean",
        "not a number",
    ),
    (
        "  ,  ", "not a number", "not a number", "not a number", "not an integer",
        "not an integer", "not a YYYY-MM-DD date", "not a boolean",
        "not a number",
    ),
    (
        "nan, nan", "not a number", "not a number", "not a number",
        "not an integer", "not an integer",
        "not a YYYY-MM-DD date", "not a boolean", "not finite",
    ),

]
# Each typed solar column, with its unit factor and its column of _PINNED_CELLS.
_PINNED_COLUMNS = [
    *[
        (raw, factor, outcome)
        for raw in ("power gross", "power inverter", "power net", "area")
        for factor, outcome in ((1.0, 1), (1e-3, 2), (1e300, 3))
    ],
    ("number of modules", 1.0, 4),
    ("installation year", 1.0, 5),
    *[(raw, 1.0, 6) for raw in ("commissioning date", "planned commissioning date", "download date")],
    ("grid operator inspection", 1.0, 7),
    ("coordinate", 1.0, 8),
]


def count_conversions(monkeypatch) -> list[tuple[str, int]]:
    """The field and the cell count of each column conversion the reader
    makes from now on, as it makes them."""
    calls = []

    def counting(entry):
        convert = _column_converter(entry)
        if convert is None:
            return None

        def count(texts):
            calls.append((entry.field, len(texts)))
            return convert(texts)

        return count

    monkeypatch.setattr("registrylint.ingest._column_converter", counting)
    return calls


class TestColumnConversion:
    """A block's columns are converted a column at a time, falling back to
    one conversion per cell; values, non-null counts and issues must equal
    a conversion of each stripped cell by itself."""

    @pytest.mark.parametrize("factor", [1.0, 1e-3, 1e300])
    @settings(max_examples=60, deadline=None)
    @given(rows=solar_columns(), block_rows=st.integers(min_value=1, max_value=10))
    @example(rows=[{"power gross": "1.5"}, {"power gross": "nan"}], block_rows=2)
    @example(rows=[{"coordinate": "48.1, 10.2"}, {"coordinate": "48.1,200.5"}], block_rows=2)
    @example(rows=[{"commissioning date": "2017-01-01"}, {"commissioning date": "20170101"}], block_rows=2)
    @example(rows=[{"power net": "1,5"}, {"power net": "2.0"}, {"power net": "1,5.0"}], block_rows=3)
    def test_columns_read_as_their_cells_one_by_one(self, rows, block_rows, factor, tmp_path_factory):
        entries = {
            tech: tuple(
                MappingEntry(e.raw, e.field, factor if FIELD_TYPES[e.field] == "float | None" else 1.0)
                for e in default_mapping().for_technology(tech)
            )
            for tech in Technology
        }
        mapping = ColumnMapping(entries)
        path = make_csv(tmp_path_factory.mktemp("columns") / "solar.csv", Technology.SOLAR, rows)
        reader = RegistryReader(path, Technology.SOLAR, mapping)
        reader.BLOCK_ROWS = block_rows
        records = list(reader)

        expected_values, expected_issues = {}, []
        for line, row in enumerate(rows, start=2):
            for entry in mapping.for_technology(Technology.SOLAR):
                text, value = row.get(entry.raw, "").strip(), None
                convert = _column_converter(entry)
                if text and convert is None:
                    value = text
                elif text:
                    try:
                        (value,) = convert([text])
                    except (ValueError, OverflowError) as exc:
                        expected_issues.append((line, entry.field, text, str(exc)))
                expected_values.setdefault(entry.field, []).append(value)
        assert [(i.line, i.field, i.value, i.reason) for i in reader.issues] == expected_issues
        for name, values in expected_values.items():
            # repr tells -0.0 from 0.0.
            assert [repr(getattr(record, name)) for record in records] == list(map(repr, values)), name
            assert reader.non_null[name] == len(values) - values.count(None), name


    @pytest.mark.parametrize("bad_rows", [(0,), (5, 6), (1, 64, 127), tuple(range(0, 128, 16))])
    def test_a_bad_cell_sends_few_cells_down_the_cell_path(self, tmp_path, monkeypatch, bad_rows):
        # A 128-row block whose date and power columns hold a few bad cells:
        # the column is converted in runs of 8 cells, so each bad cell costs
        # at most 8 one-cell conversions, and the issues and values stay
        # those of a conversion cell by cell.
        rows = [
            {"mastr id": f"SEE9{row:011d}", "commissioning date": "2017-01-01", "power": f"{row + 1}.5"}
            for row in range(RegistryReader.BLOCK_ROWS)
        ]
        for row in bad_rows:
            rows[row].update({"commissioning date": "1.1.2017", "power": "zwei"})
        path = make_csv(tmp_path / "wind.csv", Technology.WIND, rows)
        calls = count_conversions(monkeypatch)
        reader = RegistryReader(path, Technology.WIND)
        records = list(reader)
        for name in ("commissioning_date", "power_kw"):
            assert 1 <= calls.count((name, 1)) <= 8 * len(bad_rows)
        assert [(i.line, i.field) for i in reader.issues] == [
            (row + 2, name) for row in bad_rows for name in ("commissioning_date", "power_kw")
        ]
        assert [r.power_kw for r in records] == [None if row in bad_rows else row + 1.5 for row in range(128)]
        assert reader.non_null["commissioning_date"] == reader.non_null["power_kw"] == 128 - len(bad_rows)

    def test_an_all_bad_column_costs_about_one_conversion_per_cell(self, tmp_path, monkeypatch):
        # A 128-row wind block whose 9 typed columns are all "x": each column
        # fails, then each of its 16 runs of 8 cells, then each cell once.
        typed = [e for e in default_mapping().for_technology(Technology.WIND) if FIELD_TYPES[e.field] != "str | None"]
        assert len(typed) == 9
        rows = [
            {"mastr id": f"SEE9{row:011d}", **{e.raw: "x" for e in typed}} for row in range(RegistryReader.BLOCK_ROWS)
        ]
        path = make_csv(tmp_path / "wind.csv", Technology.WIND, rows)
        calls = count_conversions(monkeypatch)
        reader = RegistryReader(path, Technology.WIND)
        records = list(reader)
        reasons = {
            "float | None": "not a number",
            "int | None": "not an integer",
            "date | None": "not a YYYY-MM-DD date",
            "bool | None": "not a boolean",
            "tuple[float, float] | None": "expected 'latitude, longitude'",
        }
        for e in typed:
            cells = [count for name, count in calls if name == e.field]
            assert cells.count(1) == 128, e.field
            assert len(cells) - 128 <= 1 + 128 // 8, e.field
            assert [(i.line, i.value, i.reason) for i in reader.issues if i.field == e.field] == [
                (row + 2, "x", reasons[FIELD_TYPES[e.field]]) for row in range(128)
            ]
            assert reader.non_null[e.field] == 0
        assert len(reader.issues) == 9 * 128
        assert len(records) == 128

    @pytest.mark.parametrize("raw, factor, outcome", _PINNED_COLUMNS)
    def test_odd_cells_read_as_pinned(self, tmp_path, raw, factor, outcome):
        entries = tuple(
            e._replace(factor=factor) if e.raw == raw else e for e in default_mapping().for_technology(Technology.SOLAR)
        )
        (field,) = [e.field for e in entries if e.raw == raw]
        mapping = ColumnMapping({**default_mapping().entries, Technology.SOLAR: entries})
        cells = [row[0] for row in _PINNED_CELLS]
        rows = [{"mastr id": f"SEE9{row:011d}", raw: cell} for row, cell in enumerate(cells)]
        reader = RegistryReader(make_csv(tmp_path / "solar.csv", Technology.SOLAR, rows), Technology.SOLAR, mapping)
        records = list(reader)
        issues = {i.line: i for i in reader.issues}
        assert [(i.field, i.value) for i in reader.issues] == [(field, cells[i.line - 2].strip()) for i in reader.issues]
        read = {
            cell: issues[line].reason if line in issues else repr(getattr(record, field))
            for line, (cell, record) in enumerate(zip(cells, records), start=2)
        }
        assert read == {row[0]: row[outcome] for row in _PINNED_CELLS}

    def test_a_failed_column_of_one_run_goes_straight_to_its_cells(self, tmp_path, monkeypatch):
        # Five power cells are one run of at most 8: once the column has
        # failed, each cell is converted by itself, and the run is not
        # converted again as a whole.
        rows = [{"mastr id": f"SEE9{row:011d}", "power": "x"} for row in range(5)]
        path = make_csv(tmp_path / "wind.csv", Technology.WIND, rows)
        calls = count_conversions(monkeypatch)
        reader = RegistryReader(path, Technology.WIND)
        assert [r.power_kw for r in reader] == [None] * 5
        assert [count for name, count in calls if name == "power_kw"] == [5, 1, 1, 1, 1, 1]
        assert [(i.line, i.reason) for i in reader.issues if i.field == "power_kw"] == [
            (row + 2, "not a number") for row in range(5)
        ]


# Every reason the reader gives for a cell issue or a rejected row, in its
# own words: README's Inputs section lists the same.
_REASONS = {
    "not an ASCII number", "not a number", "not finite", "not an integer", "not a boolean",
    "not a YYYY-MM-DD date", "not a calendar date", "expected 'latitude, longitude'",
    "negative value", "negative count", "beyond the float range", "out of WGS84 bounds",
}
_ROW_REASON = re.compile(r"expected \d+ cells, got \d+")
# Cells whose Python parse error names more than the cell breaks: an
# invalid integer, a date not in the calendar, a coordinate part that is
# no number, and integers too long for int()'s default digit limit.
_PYTHON_WORDED_CELLS = ["x", "2017-13-01", "2017-02-30", "48.1, abc", "1" * 5000, "0" * 5000 + "7", "-" + "9" * 700]


class TestIssueReasons:
    def _reasons(self, tmp_path, cells) -> set[str]:
        """The reasons of every issue of a solar table holding `cells` in
        each typed column, with one row cut short."""
        rows = [{"mastr id": f"SEE9{row:011d}", **dict.fromkeys(_TYPED_COLUMNS, cell)} for row, cell in enumerate(cells)]
        path = make_csv(tmp_path / "solar.csv", Technology.SOLAR, rows)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("SEE999999999999,short\n")
        reader = RegistryReader(path, Technology.SOLAR)
        list(reader)
        assert reader.rows_rejected == 1
        return {issue.reason for issue in reader.issues}

    def test_every_reason_is_in_the_vocabulary(self, tmp_path):
        cells = [*_ODD_CELLS, *(row[0] for row in _PINNED_CELLS), *_PYTHON_WORDED_CELLS]
        reasons = self._reasons(tmp_path, cells)
        assert {reason for reason in reasons if not _ROW_REASON.fullmatch(reason)} <= _REASONS
        assert len([reason for reason in reasons if _ROW_REASON.fullmatch(reason)]) == 1

    @settings(max_examples=30, deadline=None)
    @given(rows=solar_columns())
    def test_reasons_of_drawn_tables_are_in_the_vocabulary(self, rows, tmp_path_factory):
        path = make_csv(tmp_path_factory.mktemp("reasons") / "solar.csv", Technology.SOLAR, rows)
        reader = RegistryReader(path, Technology.SOLAR)
        list(reader)
        assert {issue.reason for issue in reader.issues} <= _REASONS

    @pytest.mark.parametrize("raw", ["number of modules", "installation year"])
    def test_a_long_integer_cell_reads_alike_under_any_digit_limit(self, tmp_path, raw):
        # int() refuses more than 4300 digits by default and any number of
        # them with the limit off; the reader's reason and value follow neither.
        cells = ["1" * 5000, "-" + "1" * 5000, "0" * 5000 + "7", "1" * 700]
        rows = [{"mastr id": f"SEE9{row:011d}", raw: cell} for row, cell in enumerate(cells)]
        path = make_csv(tmp_path / "solar.csv", Technology.SOLAR, rows)
        (field,) = [e.field for e in default_mapping().for_technology(Technology.SOLAR) if e.raw == raw]
        limit = sys.get_int_max_str_digits()
        read = []
        try:
            for digits in (limit, 0):
                sys.set_int_max_str_digits(digits)
                reader = RegistryReader(path, Technology.SOLAR)
                values = [getattr(record, field) for record in reader]
                read.append((values, [(i.line, i.reason) for i in reader.issues]))
        finally:
            sys.set_int_max_str_digits(limit)
        assert read[0] == read[1]
        beyond = "beyond the float range"
        assert read[0] == ([None, None, 7, None], [(2, beyond), (3, beyond), (5, beyond)])


class TestParseBoundaries:
    def _write(self, path, features):
        path.write_text(json.dumps({"type": "FeatureCollection", "features": features}), encoding="utf-8")
        return path

    def _square(self, lon0, lat0, size=0.2):
        return [
            [lon0, lat0],
            [lon0 + size, lat0],
            [lon0 + size, lat0 + size],
            [lon0, lat0 + size],
            [lon0, lat0],
        ]

    def test_single_square_district(self, tmp_path):
        path = self._write(
            tmp_path / "districts.geojson",
            [
                {
                    "type": "Feature",
                    "properties": {"krs": "10001", "name": "District 0"},
                    "geometry": {"type": "Polygon", "coordinates": [self._square(10.0, 48.0)]},
                }
            ],
        )
        bset = parse_boundaries(path, "district")
        assert len(bset) == 1
        region = bset.regions["10001"]
        assert len(region.polygons) == 1
        assert len(region.polygons[0].outer) == 5
        assert region.name == "District 0"
        # GeoJSON is lon/lat; internal vertices are (lat, lon).
        assert region.polygons[0].outer[0] == (48.0, 10.0)

    def test_multipolygon_mainland_plus_island(self, tmp_path):
        path = self._write(
            tmp_path / "districts.geojson",
            [
                {
                    "type": "Feature",
                    "properties": {"krs": "10001"},
                    "geometry": {
                        "type": "MultiPolygon",
                        "coordinates": [
                            [self._square(10.0, 48.0)],
                            [self._square(11.0, 48.0, 0.05)],
                        ],
                    },
                }
            ],
        )
        bset = parse_boundaries(path, "district")
        region = bset.regions["10001"]
        assert len(region.polygons) == 2

    def test_duplicate_region_key_fatal(self, tmp_path):
        feature = {
            "type": "Feature",
            "properties": {"krs": "10001"},
            "geometry": {"type": "Polygon", "coordinates": [self._square(10.0, 48.0)]},
        }
        path = self._write(tmp_path / "districts.geojson", [feature, feature])
        with pytest.raises(IngestError, match="duplicate region key"):
            parse_boundaries(path, "district")

    def test_unclosed_ring_fatal_with_feature_index(self, tmp_path):
        ring = self._square(10.0, 48.0)[:-1]
        path = self._write(
            tmp_path / "districts.geojson",
            [
                {
                    "type": "Feature",
                    "properties": {"krs": "10001"},
                    "geometry": {"type": "Polygon", "coordinates": [ring]},
                }
            ],
        )
        with pytest.raises(IngestError, match="feature 0.*unclosed"):
            parse_boundaries(path, "district")

    def test_missing_region_key_fatal(self, tmp_path):
        path = self._write(
            tmp_path / "munis.geojson",
            [
                {
                    "type": "Feature",
                    "properties": {"name": "nowhere"},
                    "geometry": {"type": "Polygon", "coordinates": [self._square(10.0, 48.0)]},
                }
            ],
        )
        with pytest.raises(IngestError, match="region-key property 'ags'"):
            parse_boundaries(path, "municipality")

    def test_unsupported_geometry_fatal(self, tmp_path):
        path = self._write(
            tmp_path / "districts.geojson",
            [
                {
                    "type": "Feature",
                    "properties": {"krs": "10001"},
                    "geometry": {"type": "Point", "coordinates": [10.0, 48.0]},
                }
            ],
        )
        with pytest.raises(IngestError, match="unsupported geometry"):
            parse_boundaries(path, "district")

    def test_edge_across_the_antimeridian_fatal_naming_feature_and_edge(self, tmp_path):
        # The square from lon 179.9 to -179.9 has two edges that span 359.8
        # degrees one way and 0.2 degrees the other.
        ring = [[179.9, -17.0], [-179.9, -17.0], [-179.9, -16.9], [179.9, -16.9], [179.9, -17.0]]
        feature = {
            "type": "Feature",
            "properties": {"krs": "10002"},
            "geometry": {"type": "Polygon", "coordinates": [ring]},
        }
        square = {
            "type": "Feature",
            "properties": {"krs": "10001"},
            "geometry": {"type": "Polygon", "coordinates": [self._square(10.0, 48.0)]},
        }
        path = self._write(tmp_path / "districts.geojson", [square, feature])
        message = r"districts\.geojson: feature 1: the ring edge from \[179\.9, -17\.0\] to \[-179\.9, -17\.0\] spans"
        with pytest.raises(IngestError, match=message):
            parse_boundaries(path, "district")

    def test_edges_of_at_most_180_degrees_parse(self, tmp_path):
        # A band that spans 240 degrees of longitude in edges of 60 degrees,
        # and a square whose edges end on the antimeridian.
        band = [[lon, 1.0] for lon in (-120.0, -60.0, 0.0, 60.0, 120.0)]
        band += [[lon, 2.0] for lon in (120.0, 60.0, 0.0, -60.0, -120.0)] + [[-120.0, 1.0]]
        edge = [[179.0, 1.0], [180.0, 1.0], [180.0, 2.0], [179.0, 2.0], [179.0, 1.0]]
        path = self._write(
            tmp_path / "districts.geojson",
            [
                {"type": "Feature", "properties": {"krs": key}, "geometry": {"type": "Polygon", "coordinates": [ring]}}
                for key, ring in (("10001", band), ("10002", edge))
            ],
        )
        assert set(parse_boundaries(path, "district").regions) == {"10001", "10002"}

    def test_write_then_parse_round_trip(self, tmp_path):
        grid = make_boundary_grid(2, 2)
        path = tmp_path / "munis.geojson"
        write_boundaries_geojson(grid.municipalities, path)
        again = parse_boundaries(path, "municipality")
        assert set(again.regions) == set(grid.municipalities.regions)
        for rid, region in grid.municipalities.regions.items():
            assert again.regions[rid].polygons == region.polygons


def test_every_record_field_type_has_a_cell_codec():
    # A field of a new type fails here, not in the first run that maps it.
    assert {kind for name, kind in FIELD_TYPES.items() if name != "technology"} <= set(_CODECS)
