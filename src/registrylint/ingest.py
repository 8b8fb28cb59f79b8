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
from datetime import date
from itertools import compress, islice, repeat
from operator import add, itemgetter, mul
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .geo import BoundarySet, GeometryError, PolygonGeom, Region
from .model import (
    BLOCK_ROWS,
    CHECKED_FIELDS,
    FIELD_POS,
    FIELD_TYPES,
    RAW_COLUMNS,
    RECORD_FIELDS,
    Technology,
    columns_for,
    value_problem,
)

if TYPE_CHECKING:
    from .model import UnitRecord

_MUNICIPALITY_POS = FIELD_POS["municipality_id"]
_DISTRICT_POS = FIELD_POS["district_id"]
_DSO_POS = FIELD_POS["grid_operator_inspection"]
_TECHNOLOGY_POS = FIELD_POS["technology"]
_REGION_POS = (_MUNICIPALITY_POS, _DISTRICT_POS)


class IngestError(Exception):
    """Fatal input problem: bad header, malformed boundary file, etc."""


class ParseIssue(NamedTuple):
    line: int  # 1-based line number in the source file
    field: str | None
    value: str | None
    reason: str


class MappingEntry(NamedTuple):
    raw: str  # column name in the raw export
    field: str  # canonical UnitRecord field
    factor: float = 1.0  # multiplicative unit conversion, quantities (float fields) only


class ColumnMapping:
    """Per-technology mapping from raw columns to canonical fields."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[Technology, tuple[MappingEntry, ...]]):
        self.entries = entries
        for tech, tech_entries in entries.items():
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
    as model.RECORD_TABLE names it."""
    return ColumnMapping(
        {tech: tuple(MappingEntry(RAW_COLUMNS[name], name) for name in columns_for(tech)) for tech in Technology}
    )


# The parse of each field type, over the stripped, non-blank cells of one
# column of a block: the values, or a ValueError that names what a cell
# breaks in fixed words, never Python's own text. Each parse is the only
# statement of its cell format, and on a column of one cell its error text
# is that cell's issue reason. Numeric cells are ASCII without "_": float()
# and int() also read digit separators ("2_000") and non-ASCII digits.
def _ascii(texts: list[str]) -> str:
    joined = "".join(texts)
    if not joined.isascii() or "_" in joined:
        raise ValueError("not an ASCII number")
    return joined


def _finite(values: list[float]) -> list[float]:
    # A sum of finite values is finite unless it overflows; only then, or
    # with a NaN or infinity among them, are the values checked one by one.
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise ValueError("not finite")
    return values


def _parse(parse: Callable[[str], object], texts: Iterable[str], reason: str) -> list:
    """map(parse, texts) as a list, or a ValueError that gives reason."""
    try:
        return list(map(parse, texts))
    except ValueError:
        raise ValueError(reason) from None


def _float_column(texts: list[str]) -> list[float]:
    # German decimal commas ("5,5"): a cell holding two commas, or a comma
    # and a point, reads as two points, which float() refuses.
    if "," in _ascii(texts):
        texts = map(str.replace, texts, repeat(","), repeat("."))
    return _finite(_parse(float, texts, "not a number"))


# int() refuses a text of more digits than sys.get_int_max_str_digits(),
# which is 0 (no limit) or above 640. An integer text of more than 640
# characters loses its leading zeros, and one of more than 309 significant
# digits, beyond the float range as every such text is, reads as 10 ** 309:
# no cell's value or reason follows the limit.
def _int_column(texts: list[str]) -> list[int]:
    _ascii(texts)
    return _parse(int, texts if max(map(len, texts)) <= 640 else map(_short_int, texts), "not an integer")


def _short_int(text: str) -> str:
    body = text.lstrip("+-")
    digits = body.lstrip("0") or "0"
    digits = digits if len(digits) <= 309 else "1" + "0" * 309
    return text[: len(text) - len(body)] + digits if body.isdigit() else text


_BOOLS = {"1": True, "true": True, "ja": True, "yes": True, "0": False, "false": False, "nein": False, "no": False}


def _bool_column(texts: list[str]) -> list[bool]:
    values = list(map(_BOOLS.get, map(str.lower, texts)))
    if None in values:
        raise ValueError("not a boolean")
    return values


def _coordinate_column(texts: list[str]) -> list[tuple[float, float]]:
    # With one comma in every cell, the joined column splits into each
    # cell's two parts in order.
    _ascii(texts)
    if set(map(str.count, texts, repeat(","))) != {1}:
        raise ValueError("expected 'latitude, longitude'")
    values = _finite(_parse(float, ",".join(texts).split(","), "not a number"))
    return list(zip(values[::2], values[1::2]))


# From Python 3.11 on, date.fromisoformat also reads the ISO basic and week
# forms ("20170101", "2017-W01-1"); a date cell is YYYY-MM-DD on every
# version, and fromisoformat checks that its other characters are ASCII digits.
def _date_column(texts: list[str]) -> list[date]:
    joined, dashes = "".join(texts), "-" * len(texts)
    if set(map(len, texts)) != {10} or joined[4::10] != dashes or joined[7::10] != dashes:
        raise ValueError("not a YYYY-MM-DD date")
    return _parse(date.fromisoformat, texts, "not a calendar date")


# The cell codec of each UnitRecord field type: column is the parse above
# (None: the text is the value), whose values model.value_problem then
# checks, and format writes a present value back.
_CODECS: dict[str, tuple[Callable[[list[str]], list] | None, Callable]] = {
    "float | None": (_float_column, repr),
    "int | None": (_int_column, str),
    "date | None": (_date_column, date.isoformat),
    "bool | None": (_bool_column, lambda value: "1" if value else "0"),
    "tuple[float, float] | None": (_coordinate_column, lambda value: f"{value[0]!r}, {value[1]!r}"),
    "str | None": (None, str),
}
# The one field type a mapping's unit factor applies to.
_QUANTITY = "float | None"
# What a converter raises for a cell it cannot convert.
_CELL_ERRORS = (ValueError, OverflowError)
# A column that fails to convert is converted again in runs of this many
# cells, and a run that fails cell by cell: at most this many one-cell
# conversions per bad cell, and little more than one per cell when the
# whole column is bad.
_CELLS_PER_RUN = 8


def _column_converter(entry: MappingEntry) -> Callable[[list[str]], list] | None:
    """The one call that turns a list of a mapped column's stripped,
    non-blank cells into their field's values: the field type's parse, the
    unit factor, and model.value_problem on the least and greatest value
    (per axis for a coordinate), which is exact because every value rule is
    a monotone bound and the parses let no NaN through. It raises
    ValueError or OverflowError when some cell does not convert; on a list
    of one cell, the error's text is that cell's issue reason. None for a
    text column."""
    column = _CODECS[FIELD_TYPES[entry.field]][0]
    name, factor = entry.field, entry.factor
    # Only quantities take a unit factor, and every quantity is checked.
    if column is None or name not in CHECKED_FIELDS:
        return column
    def convert(texts: list[str]) -> list:
        values = column(texts) if factor == 1 else list(map(mul, column(texts), repeat(factor)))
        if isinstance(values[0], tuple):
            axes = list(zip(*values))
            extremes = (tuple(map(min, axes)), tuple(map(max, axes)))
        else:
            extremes = (min(values), max(values))
        problem = value_problem(name, extremes[0]) or value_problem(name, extremes[1])
        if problem:
            raise ValueError(problem)
        return values

    return convert


class RegistryReader:
    """Streaming CSV reader of one technology's table, in file order.

    blocks() yields the table as blocks of BLOCK_ROWS rows, each a list of
    columns, one per field in RECORD_FIELDS order, with its row count;
    iterating the reader yields a UnitRecord per row of those blocks, each
    built by UnitRecord's __init__ and so checked by its __post_init__.
    Issues, row totals, rejected-row counts and the non-null count of each
    column accumulate on the reader while it is consumed. Each mapped
    column of a block is converted as one list by _column_converter: one
    parse of the field type over the column and model.value_problem on the
    column's extremes. A column that fails is converted again in runs of
    _CELLS_PER_RUN cells, and a run that fails one cell at a time; the
    error of a one-cell column gives its cell's ParseIssue. Region ids are
    kept as one string per distinct id. Memory holds one block, the
    distinct region ids and every ParseIssue, so it is not bounded by one
    block. Every cell is checked and the column mapping only targets
    fields the technology carries, so a block meets UnitRecord's
    invariants and only rows of the wrong width are rejected.
    With dso_only, a row whose grid operator inspection is not true is
    read for its cell issues but neither counted nor yielded. Tables are
    read as UTF-8; a leading byte-order mark is dropped. A header that
    names a mapped column more than once is an IngestError.
    """

    BLOCK_ROWS = BLOCK_ROWS  # rows converted together; memory holds one block of rows and values

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
        # One string per distinct region id; a blank id cell reads as None.
        self._ids: dict[str, str | None] = {"": None}

    @property
    def non_null(self) -> dict[str, int]:
        """Non-null values per column the technology carries, counted a
        block at a time; complete once the reader is consumed."""
        return {name: self._counts[FIELD_POS[name]] for name in columns_for(self.technology)}

    def __iter__(self) -> Iterator[UnitRecord]:
        from .model import UnitRecord  # built on first use, see model

        for _, columns in self.blocks():
            yield from map(UnitRecord, *columns)

    def blocks(self) -> Iterator[tuple[int, list[list]]]:
        """The table's kept rows as (row count, columns) blocks, in file
        order; a block's columns hold one value per row for each field in
        RECORD_FIELDS order. A block's issues are recorded before it is
        yielded, and a block that keeps no row is not yielded."""
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
                plan = [(index[e.raw], e.field, FIELD_POS[e.field], _column_converter(e)) for e in self.entries]
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
                    columns = self._block_values(rows, lines, plan, found) if rows else None
                    count = len(columns[_TECHNOLOGY_POS]) if columns else 0
                    if found:
                        found.sort(key=lambda item: item[:2])
                        self.issues.extend(issue for _, _, issue in found)
                    if count:
                        yield count, columns
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
        filled = [0] * len(RECORD_FIELDS)  # the non-null values of each field
        filled[_TECHNOLOGY_POS] = len(rows)
        table = list(zip(*rows))
        intern = self._ids.setdefault
        for order, (col, name, pos, convert) in enumerate(plan):
            texts = list(map(str.strip, table[col]))
            present = texts if all(texts) else list(filter(None, texts))
            filled[pos] = len(present)
            if convert is None:
                if pos in _REGION_POS:
                    slots[pos] = list(map(intern, texts, texts))
                else:
                    slots[pos] = texts if present is texts else [text or None for text in texts]
                continue
            if not present:
                continue
            try:
                values = convert(present)
            except _CELL_ERRORS:
                present_lines = lines if present is texts else list(compress(lines, texts))
                values = _convert_cells(present, present_lines, convert, found, order, name)
                filled[pos] = len(values) - values.count(None)
            if present is not texts:
                # Blank cells are None; the others take the values in order.
                values = iter(values)
                values = [next(values) if text else None for text in texts]
            slots[pos] = values
        # A municipality id of eight ASCII digits gives a missing district id.
        slots[_DISTRICT_POS] = districts = [
            intern(mid[:5], mid[:5])
            if district is None and mid is not None and len(mid) == 8 and mid.isascii() and mid.isdigit()
            else district
            for district, mid in zip(slots[_DISTRICT_POS], slots[_MUNICIPALITY_POS])
        ]
        filled[_DISTRICT_POS] = len(districts) - districts.count(None)
        if self.dso_only:
            kept = [flag is True for flag in slots[_DSO_POS]]
            slots = [list(compress(values, kept)) for values in slots]
            filled = [len(values) - values.count(None) for values in slots]
        self._counts = list(map(add, self._counts, filled))
        return slots


def _convert_cells(texts: list[str], lines: list[int], convert, found: list, order: int, name: str) -> list:
    """The values of a column's stripped, non-blank cells, which start on
    `lines`, once `convert` has refused the whole column; None for a cell
    that does not convert. The cells are converted in runs of
    _CELLS_PER_RUN, and the cells of a run that fails (or is the whole
    column) one at a time, each error giving the cell issue added to
    `found`, keyed by line and `order`."""
    values = []
    for start in range(0, len(texts), _CELLS_PER_RUN):
        run = texts[start : start + _CELLS_PER_RUN]
        try:
            if len(run) == len(texts):  # the whole column, which has failed
                raise ValueError("the whole column")
            values += convert(run)
        except _CELL_ERRORS:
            for text, line in zip(run, lines[start : start + _CELLS_PER_RUN]):
                try:
                    values += convert([text])
                except _CELL_ERRORS as exc:
                    found.append((line, order, ParseIssue(line, name, text, str(exc))))
                    values.append(None)
    return values


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

    The collection must hold a `features` array with at least one feature.
    Multipolygon features become multiple polygon parts under one region
    id, named by the feature's `name` property. A region key is a JSON string, stripped as the reader strips an id
    cell, or an integer (not a boolean). Missing or blank region keys or ones of any other JSON type, duplicate
    region ids, unclosed rings, coordinates that are not JSON numbers, vertices that are not finite or lie outside
    WGS84 bounds, non-polygon geometries and ring edges across the antimeridian are fatal.
    """
    if level not in DEFAULT_REGION_KEYS:
        raise IngestError(f"unknown boundary level {level!r}")
    key = DEFAULT_REGION_KEYS[level] if region_key is None else region_key
    path = Path(path)
    try:
        with open(path, encoding="utf-8-sig") as handle:
            payload = json.load(handle)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
        raise IngestError(f"{path}: not a GeoJSON file: {exc}") from None
    features = payload.get("features") if isinstance(payload, dict) else None
    if not isinstance(features, list) or payload.get("type") != "FeatureCollection":
        raise IngestError(f"{path}: expected a GeoJSON FeatureCollection")
    if not features:
        raise IngestError(f"{path}: the FeatureCollection holds no features, so it locates no unit")

    regions: dict[str, Region] = {}
    for idx, feature in enumerate(features):
        props = (feature.get("properties") or {}) if isinstance(feature, dict) else None
        if not isinstance(props, dict):
            raise IngestError(f"{path}: feature {idx} or its properties is not an object")
        region_id = props.get(key)
        if isinstance(region_id, str):  # stripped as the reader strips an id cell
            region_id = region_id.strip()
        if region_id in (None, ""):
            raise IngestError(f"{path}: feature {idx} has no region-key property {key!r}")
        if isinstance(region_id, bool) or not isinstance(region_id, (str, int)):
            raise IngestError(f"{path}: feature {idx}: region key {key!r} is not a string or an integer: {region_id!r}")
        region_id = str(region_id)
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
        for poly in polygons:
            for ring in poly.rings():
                edge = _antimeridian_edge(ring)
                if edge is not None:
                    (alat, alon), (blat, blon) = edge
                    raise IngestError(
                        f"{path}: feature {idx}: the ring edge from [{alon!r}, {alat!r}] to [{blon!r}, {blat!r}] "
                        "spans more than 180 degrees of longitude (an edge across the antimeridian)"
                    )
    return BoundarySet(level=level, regions=regions)


_LON = itemgetter(1)


def _antimeridian_edge(ring) -> tuple | None:
    """The first edge of ring whose ends differ by more than 180 degrees of
    longitude, or None. The geometry kernel takes such an edge the long way
    round, while haversine_m takes it the short way. A ring whose longitudes
    span at most 180 degrees has none, which settles nearly every ring."""
    lons = list(map(_LON, ring))
    if max(lons) - min(lons) <= 180.0:
        return None
    return next((edge for edge in zip(ring, ring[1:]) if abs(edge[1][1] - edge[0][1]) > 180.0), None)


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
