"""Parsing of raw registry CSV dumps and geoboundary files.

Raw per-technology CSV tables are reduced to the common data model via a
declarative column mapping (selection, renaming, unit conversion). Cell
values that cannot be parsed become nulls with a recorded issue, so the
null test can flag them; only structurally broken rows are rejected. No
row is ever dropped silently: rows = records + rejected rows.
"""

from __future__ import annotations

import codecs
import csv
import json
import math
import sys
from dataclasses import dataclass, fields
from datetime import date
from itertools import compress, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .geo import BoundarySet, GeometryError, PolygonGeom, Region
from .model import (
    CHECKED_FIELDS,
    FIELD_TYPES,
    RECORD_FIELDS,
    Technology,
    UnitRecord,
    checked_record,
    columns_for,
    value_problem,
)

_FIELD_POS = {name: i for i, name in enumerate(RECORD_FIELDS)}
_MUNICIPALITY_POS = _FIELD_POS["municipality_id"]
_DISTRICT_POS = _FIELD_POS["district_id"]
_DSO_POS = _FIELD_POS["grid_operator_inspection"]
_TECHNOLOGY_POS = _FIELD_POS["technology"]


class IngestError(Exception):
    """Fatal input problem: bad header, malformed boundary file, etc."""


@dataclass(frozen=True, slots=True)
class ParseIssue:
    line: int  # 1-based line number in the source file
    field: str | None
    value: str | None
    reason: str


@dataclass(frozen=True, slots=True)
class MappingEntry:
    raw: str  # column name in the raw export
    field: str  # canonical UnitRecord field
    factor: float = 1.0  # multiplicative unit conversion, quantities (float fields) only


@dataclass(frozen=True)
class ColumnMapping:
    """Per-technology mapping from raw columns to canonical fields."""

    entries: dict[Technology, tuple[MappingEntry, ...]]

    def __post_init__(self) -> None:
        for tech, tech_entries in self.entries.items():
            targets = [e.field for e in tech_entries]
            carried = columns_for(tech)
            for entry in tech_entries:
                name = entry.field
                if name not in RECORD_FIELDS or name == "technology":
                    raise IngestError(f"mapping for {tech.value} targets unknown field {name!r}")
                if name not in carried:
                    raise IngestError(
                        f"mapping for {tech.value} targets {name!r}, which {tech.value} units do not carry"
                    )
                if targets.count(name) > 1:
                    raise IngestError(f"mapping for {tech.value} targets {name!r} more than once")
                if not (math.isfinite(entry.factor) and entry.factor > 0):
                    raise IngestError(
                        f"mapping for {tech.value}: unit factor of {entry.raw!r} must be positive and finite"
                    )
                if entry.factor != 1 and FIELD_TYPES[name] != _QUANTITY:
                    raise IngestError(
                        f"mapping for {tech.value}: {name!r} is not a quantity and takes no unit factor"
                    )

    def fields_given(self, technology: Technology) -> frozenset[str]:
        """The fields a technology's records get from its mapped columns; the
        reader fills district_id from a mapped municipality_id."""
        given = {e.field for e in self.for_technology(technology)}
        if "municipality_id" in given:
            given.add("district_id")
        return frozenset(given)

    def for_technology(self, technology: Technology) -> tuple[MappingEntry, ...]:
        if technology not in self.entries:
            raise IngestError(f"no column mapping for technology {technology.value!r}")
        return self.entries[technology]

    @classmethod
    def from_dict(cls, payload: dict) -> ColumnMapping:
        entries: dict[Technology, tuple[MappingEntry, ...]] = {}
        for tech_name, rows in payload.items():
            try:
                entries[Technology(tech_name)] = tuple(_entry(row) for row in rows)
            except (ValueError, TypeError, OverflowError) as exc:
                raise IngestError(f"mapping for {tech_name!r} is malformed: {exc}") from None
        return cls(entries)


def _entry(row) -> MappingEntry:
    """A mapping row: an array of the raw column and the field, two strings,
    and an optional unit factor, a JSON number (not a string or boolean), 1
    when absent or null."""
    if not (isinstance(row, list) and len(row) in (2, 3) and all(isinstance(name, str) for name in row[:2])):
        raise TypeError(f"a row is [raw column, field] or [raw column, field, unit factor], got {row!r}")
    factor = 1.0 if len(row) == 2 or row[2] is None else row[2]
    if isinstance(factor, bool) or not isinstance(factor, (int, float)):
        raise TypeError(f"unit factor must be a number, got {factor!r}")
    return MappingEntry(row[0], row[1], float(factor))


def default_mapping() -> ColumnMapping:
    """Mapping for the standard transformed export: each field's raw column
    as its UnitRecord declaration names it."""
    raw = {f.name: f.metadata["raw"] for f in fields(UnitRecord) if f.metadata}
    return ColumnMapping(
        {tech: tuple(MappingEntry(raw[name], name) for name in columns_for(tech)) for tech in Technology}
    )


# float() and int() also read digit separators ("2_000") and non-ASCII
# digits; a numeric cell is ASCII text without an underscore.
def _parse_float(text: str) -> float:
    if not text.isascii() or "_" in text:
        raise ValueError("not an ASCII number")
    if "," in text:
        # Accept German decimal commas ("5,5"), but not mixed separators.
        if text.count(",") > 1 or "." in text:
            raise ValueError("not a number")
        value = float(text.replace(",", "."))
    else:
        try:
            value = float(text)
        except ValueError:
            raise ValueError("not a number") from None
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _parse_int(text: str) -> int:
    if not text.isascii() or "_" in text:
        raise ValueError("not an ASCII number")
    value = int(text)
    # The tests compute with integers as floats (test 6's watts per module).
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ValueError("beyond the float range")
    return value


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "ja", "yes"):
        return True
    if lowered in ("0", "false", "nein", "no"):
        return False
    raise ValueError("not a boolean")


def _parse_coordinate(text: str) -> tuple[float, float]:
    if not text.isascii() or "_" in text:
        raise ValueError("not an ASCII number")
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("expected 'latitude, longitude'")
    return (float(parts[0]), float(parts[1]))


# From Python 3.11 on, date.fromisoformat also reads the ISO basic and week
# forms ("20170101", "2017-W01-1"); a date cell is YYYY-MM-DD on every
# version, and fromisoformat checks that its other characters are ASCII digits.
def _parse_date(text: str) -> date:
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        raise ValueError("not a YYYY-MM-DD date")
    return date.fromisoformat(text)


# The cell codec of each UnitRecord field type: parse turns a stripped,
# non-blank cell into the value that model.value_problem then checks (None:
# the text is the value), and format writes a present value back.
_CODECS: dict[str, tuple[Callable[[str], object] | None, Callable]] = {
    "float | None": (_parse_float, repr),
    "int | None": (_parse_int, str),
    "date | None": (_parse_date, date.isoformat),
    "bool | None": (_parse_bool, lambda value: "1" if value else "0"),
    "tuple[float, float] | None": (_parse_coordinate, lambda value: f"{value[0]!r}, {value[1]!r}"),
    "str | None": (None, str),
}
# The one field type a mapping's unit factor applies to.
_QUANTITY = "float | None"


def _converter(entry: MappingEntry) -> Callable[[str], object] | None:
    """The one call that turns a stripped, non-blank cell of a mapped column
    into its field's value: parse, unit factor and model.value_problem. It
    raises ValueError or OverflowError, whose text is the cell issue's
    reason. None for a text column, whose text is the value."""
    parse = _CODECS[FIELD_TYPES[entry.field]][0]
    name, factor = entry.field, entry.factor
    # Only quantities take a unit factor, and every quantity is checked.
    if parse is None or name not in CHECKED_FIELDS:
        return parse
    def convert(text: str):
        value = parse(text) if factor == 1 else parse(text) * factor
        problem = value_problem(name, value)
        if problem:
            raise ValueError(problem)
        return value

    return convert


class RegistryReader:
    """Streaming CSV reader yielding UnitRecords in file order.

    Issues, row totals, rejected-row counts and the non-null count of each
    column accumulate on the reader while it is consumed. The table is read
    in blocks of BLOCK_ROWS rows, and each mapped column of a block is
    converted as one list: one converter call per non-blank cell, which
    parses it and checks the value (model.value_problem). Memory holds one
    block and every ParseIssue, one per unparseable cell, so it is not
    bounded by one block. Since every cell is checked and the column
    mapping only targets fields the technology carries, records are built
    by checked_record, without UnitRecord.__post_init__; only rows of the
    wrong width are rejected. With dso_only, a row whose grid operator
    inspection is not true is read for its cell issues but neither counted
    nor yielded. Tables are read as UTF-8; a leading byte-order mark is
    dropped. A header that names a mapped column more than once is an
    IngestError.
    """

    BLOCK_ROWS = 128  # rows converted together; memory holds one block of rows and values

    def __init__(
        self,
        path: str | Path,
        technology: Technology,
        mapping: ColumnMapping | None = None,
        *,
        delimiter: str = ",",
        dso_only: bool = False,
    ):
        if not isinstance(technology, Technology):
            raise TypeError(f"technology must be a Technology, got {technology!r}")
        if not (isinstance(delimiter, str) and len(delimiter) == 1) or delimiter in '"\r\n':
            raise IngestError(f"delimiter must be one character other than a quote or newline, got {delimiter!r}")
        self.path = Path(path)
        self.technology = technology
        self.entries = (mapping or default_mapping()).for_technology(technology)
        self.delimiter = delimiter
        self.dso_only = dso_only
        self.issues: list[ParseIssue] = []
        self.rows_total = 0
        self.rows_rejected = 0
        self._counts = [0] * len(RECORD_FIELDS)

    @property
    def non_null(self) -> dict[str, int]:
        """Non-null values per column the technology carries, counted a
        block at a time; complete once the reader is consumed."""
        return {name: self._counts[_FIELD_POS[name]] for name in columns_for(self.technology)}

    def __iter__(self) -> Iterator[UnitRecord]:
        with open(self.path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle, delimiter=self.delimiter)
            # Undecodable bytes and csv errors (such as a cell over the field
            # size limit) become an IngestError naming the file and line.
            try:
                header = next(reader, None)
                if header is None:
                    raise IngestError(f"{self.path}: missing header row")
                index = {name: i for i, name in enumerate(header)}
                missing = [e.raw for e in self.entries if e.raw not in index]
                if missing:
                    raise IngestError(f"{self.path}: missing mandatory columns: {', '.join(missing)}")
                repeated = [e.raw for e in self.entries if header.count(e.raw) > 1]
                if repeated:
                    raise IngestError(f"{self.path}: header names mapped columns more than once: {', '.join(repeated)}")
                # Each mapped column: its position in the header, the field it
                # fills and the converter of its cells (None: text).
                plan = [(index[e.raw], e.field, _FIELD_POS[e.field], _converter(e)) for e in self.entries]
                width = len(header)

                # A row starts on the line after the previous row's last line;
                # quoted cells can hold newlines.
                consumed = reader.line_num
                while True:
                    rows, lines, found = [], [], []
                    for row in islice(reader, self.BLOCK_ROWS):
                        line_no, consumed = consumed + 1, reader.line_num
                        if len(row) == width:
                            rows.append(row)
                            lines.append(line_no)
                        else:
                            issue = ParseIssue(line_no, None, None, f"expected {width} cells, got {len(row)}")
                            found.append((line_no, -1, issue))
                    if not (rows or found):
                        return
                    self.rows_total += len(rows) + len(found)
                    self.rows_rejected += len(found)
                    values = self._block_values(rows, lines, plan, found) if rows else ()
                    if found:
                        found.sort(key=lambda item: item[:2])
                        self.issues.extend(issue for _, _, issue in found)
                    yield from map(checked_record, zip(*values))
            except csv.Error as exc:
                raise IngestError(f"{self.path}: line {reader.line_num}: {exc}") from None
            except UnicodeDecodeError as exc:
                line_no = _undecodable_line(self.path)
                raise IngestError(f"{self.path}: line {line_no}: not utf-8 text ({exc.reason})") from None

    def _block_values(self, rows: list[list[str]], lines: list[int], plan: list, found: list) -> list[list]:
        """Each field's values, in RECORD_FIELDS order, over the kept rows of
        a block, added to the non-null counts. The rows have the header's
        width and start on `lines`. Cell issues go to `found`, keyed by line
        and by the column's place in the mapping (a whole row's issue has
        place -1)."""
        nones = [None] * len(rows)
        slots = [nones] * len(RECORD_FIELDS)
        slots[_TECHNOLOGY_POS] = [self.technology] * len(rows)
        table = list(zip(*rows))
        for order, (col, name, pos, convert) in enumerate(plan):
            texts = list(map(str.strip, table[col]))
            if convert is None:
                slots[pos] = [text or None for text in texts]
                continue
            try:
                slots[pos] = [convert(text) if text else None for text in texts]
            except (ValueError, OverflowError):
                # A cell of this column is bad: convert it cell by cell.
                slots[pos] = values = []
                for line_no, text in zip(lines, texts):
                    value = None
                    if text:
                        try:
                            value = convert(text)
                        except (ValueError, OverflowError) as exc:
                            found.append((line_no, order, ParseIssue(line_no, name, text, str(exc))))
                    values.append(value)
        # A municipality id of eight digits gives a missing district id.
        slots[_DISTRICT_POS] = [
            mid[:5] if district is None and mid is not None and len(mid) == 8 and mid.isdigit() else district
            for district, mid in zip(slots[_DISTRICT_POS], slots[_MUNICIPALITY_POS])
        ]
        if self.dso_only:
            kept = [flag is True for flag in slots[_DSO_POS]]
            slots = [list(compress(values, kept)) for values in slots]
        counts = self._counts
        for pos, values in enumerate(slots):
            counts[pos] += len(values) - values.count(None)
        return slots


def _undecodable_line(path: Path) -> int:
    """The 1-based number of the first line of a file that is not UTF-8."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                decoder.decode(line)
            except UnicodeDecodeError:
                break
    return line_no


def write_registry_csv(records: Iterable[UnitRecord], path: str | Path, technology: Technology) -> None:
    """Write records as a comma-separated table of the default mapping's raw
    columns, which RegistryReader reads back to the same values."""
    entries = default_mapping().for_technology(technology)
    columns = [(e.field, _CODECS[FIELD_TYPES[e.field]][1]) for e in entries]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([e.raw for e in entries])
        for record in records:
            writer.writerow(
                ["" if (value := getattr(record, name)) is None else format_(value) for name, format_ in columns]
            )


DEFAULT_REGION_KEYS = {"district": "krs", "municipality": "ags"}
# RFC 7946 positions hold JSON numbers; these are the classes json gives them.
_AS_FLOAT = {int: float, float: float}


def parse_boundaries(path: str | Path, level: str, *, region_key: str | None = None) -> BoundarySet:
    """Load a GeoJSON FeatureCollection of administrative polygons.

    Multipolygon features become multiple polygon parts under one region
    id, named by the feature's `name` property. Duplicate region ids, missing region keys, unclosed rings,
    coordinates that are not JSON numbers, vertices that are not finite or lie outside WGS84 bounds, and
    non-polygon geometries are fatal.
    """
    if level not in DEFAULT_REGION_KEYS:
        raise IngestError(f"unknown boundary level {level!r}")
    key = region_key or DEFAULT_REGION_KEYS[level]
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
        raise IngestError(f"{path}: not a GeoJSON file: {exc}") from None
    features = payload.get("features", []) if isinstance(payload, dict) else None
    if not isinstance(features, list) or payload.get("type") != "FeatureCollection":
        raise IngestError(f"{path}: expected a GeoJSON FeatureCollection")

    regions: dict[str, Region] = {}
    for idx, feature in enumerate(features):
        props = (feature.get("properties") or {}) if isinstance(feature, dict) else None
        if not isinstance(props, dict):
            raise IngestError(f"{path}: feature {idx} or its properties is not an object")
        if key not in props or props[key] in (None, ""):
            raise IngestError(f"{path}: feature {idx} has no region-key property {key!r}")
        region_id = str(props[key])
        if region_id in regions:
            raise IngestError(f"{path}: duplicate region key {region_id!r} at feature {idx}")
        geometry = feature.get("geometry")
        gtype = geometry.get("type") if isinstance(geometry, dict) else None
        if gtype not in ("Polygon", "MultiPolygon"):
            raise IngestError(f"{path}: feature {idx} has unsupported geometry {gtype!r}")
        if "coordinates" not in geometry:
            raise IngestError(f"{path}: feature {idx} has a geometry without coordinates")
        raw_polys = [geometry["coordinates"]] if gtype == "Polygon" else geometry["coordinates"]
        polygons = []
        # A coordinate that is no JSON number (text, a boolean) and a position that is an object raise KeyError, an
        # integer beyond the float range OverflowError. A third (altitude) element is ignored.
        try:
            for raw_rings in raw_polys:
                rings = [
                    tuple((_AS_FLOAT[type(pos[1])](pos[1]), _AS_FLOAT[type(pos[0])](pos[0])) for pos in raw_ring)
                    for raw_ring in raw_rings
                ]
                polygons.append(PolygonGeom(outer=rings[0], holes=tuple(rings[1:])))
        except (TypeError, ValueError, IndexError, KeyError, OverflowError):
            raise IngestError(f"{path}: feature {idx} has malformed coordinates") from None
        name = props.get("name") or region_id
        try:
            regions[region_id] = Region(region_id=region_id, name=str(name), polygons=tuple(polygons))
        except GeometryError as exc:
            raise IngestError(f"{path}: feature {idx}: {exc}") from None
    return BoundarySet(level=level, regions=regions)


def write_boundaries_geojson(boundary_set: BoundarySet, path: str | Path) -> None:
    key = DEFAULT_REGION_KEYS[boundary_set.level]
    features = []
    for region in sorted(boundary_set, key=lambda r: r.region_id):
        coords = [
            [[[lon, lat] for lat, lon in ring] for ring in poly.rings()] for poly in region.polygons
        ]
        if len(coords) == 1:
            geometry = {"type": "Polygon", "coordinates": coords[0]}
        else:
            geometry = {"type": "MultiPolygon", "coordinates": coords}
        features.append(
            {
                "type": "Feature",
                "properties": {key: region.region_id, "name": region.name},
                "geometry": geometry,
            }
        )
    payload = {"type": "FeatureCollection", "features": features}
    Path(path).write_text(json.dumps(payload), encoding="utf-8")
