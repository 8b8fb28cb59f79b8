"""Normalized schema for registry units.

One record per registered unit. Common fields are shared by every
technology; technology-specific fields are structurally absent (must be
None) for tables that do not carry them, mirroring the transformed
registry layout. The results of a suite run (RuleOutcome, FailureRecord,
FailureSet) are defined here too.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field, fields
from datetime import date
from enum import Enum
from functools import cache
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence


class Technology(str, Enum):
    BIOMASS = "biomass"
    COMBUSTION = "combustion"
    HYDRO = "hydro"
    SOLAR = "solar"
    STORAGE = "storage"
    WIND = "wind"


def _field(raw: str, *technologies: str):
    """A UnitRecord field, None unless given, read from the export column
    `raw` and carried by `technologies` (every technology when none is named)."""
    carried = frozenset(Technology(name) for name in technologies) or frozenset(Technology)
    return field(default=None, metadata={"raw": raw, "technologies": carried})


@dataclass(slots=True, repr=False, eq=False)
class _RecordFields:
    """UnitRecord's fields. Each declaration is the one statement of the
    field's type, its column in the standard export and the technologies
    that carry it. The generated __init__ only stores its arguments, one
    slot each; checked_records builds records with it."""

    technology: Technology
    unit_id: str | None = _field("mastr id")
    owner_id: str | None = _field("unit owner mastr id")
    operating_status: str | None = _field("operating status")
    grid_operator_inspection: bool | None = _field("grid operator inspection")
    commissioning_date: date | None = _field("commissioning date")
    planned_commissioning_date: date | None = _field("planned commissioning date")
    installation_year: int | None = _field("installation year")
    download_date: date | None = _field("download date")
    zip_code: str | None = _field("zip code")
    municipality: str | None = _field("municipality")
    municipality_id: str | None = _field("municipality id")
    district: str | None = _field("district")
    district_id: str | None = _field("district id")
    coordinate: tuple[float, float] | None = _field("coordinate")  # (latitude, longitude), WGS84
    unit_name: str | None = _field("unit name")
    power_gross_kw: float | None = _field("power gross", "solar", "storage")
    power_inverter_kw: float | None = _field("power inverter", "solar", "storage")
    power_net_kw: float | None = _field("power net", "solar", "storage")
    power_kw: float | None = _field("power", "biomass", "combustion", "hydro", "wind")
    number_of_modules: int | None = _field("number of modules", "solar")
    unit_type: str | None = _field("unit type", "solar")
    area_ha: float | None = _field("area", "solar")
    orientation: str | None = _field("orientation", "solar")
    orientation_secondary: str | None = _field("orientation secondary", "solar")
    storage_capacity_kwh: float | None = _field("storage capacity", "storage")
    battery_technology: str | None = _field("battery technology", "storage")
    hub_height_m: float | None = _field("hub height", "wind")
    rotor_diameter_m: float | None = _field("rotor diameter", "wind")
    position: str | None = _field("position", "wind")
    manufacturer: str | None = _field("manufacturer", "wind")
    type_description: str | None = _field("type description", "wind")
    combustion_technology: str | None = _field("combustion technology", "biomass")
    fuel_type: str | None = _field("fuel type", "biomass")
    energy_carrier: str | None = _field("energy carrier", "combustion")
    plant_type: str | None = _field("plant type", "hydro")
    type_of_inflow: str | None = _field("type of inflow", "hydro")


# __slots__ is declared, not dataclass(slots=True), which on Python 3.10
# would give each field a second slot here.
@dataclass
class UnitRecord(_RecordFields):
    """One registry unit after transformation to the common data model.

    Construction (UnitRecord(...), dataclasses.replace) enforces the
    structural invariants: field applicability per technology, coordinate
    bounds, non-negative finite quantities. Semantic plausibility is the
    rule engine's job, not the schema's. Records are mutable, so not
    hashable; an assignment is not checked.
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        tech = self.technology
        if not isinstance(tech, Technology):
            raise ValueError(f"technology must be a Technology, got {tech!r}")
        for name, techs in SPECIFIC_FIELDS.items():
            if tech not in techs and getattr(self, name) is not None:
                raise ValueError(f"field {name!r} does not exist for technology {tech.value!r}")
        for name, requirement in _REQUIREMENTS.items():
            value = getattr(self, name)
            problem = None if value is None else value_problem(name, value)
            if problem:
                raise ValueError(f"field {name!r} must be {requirement} ({problem}), got {value!r}")
        # Text is kept as a table cell reads back: stripped, blank as None.
        for name in _TEXT_FIELDS:
            value = getattr(self, name)
            if value is not None and (not value or value.strip() != value):
                setattr(self, name, value.strip() or None)


# Each field's annotation as written above: the one statement of its type,
# from which ingest picks the field's cell codec.
FIELD_TYPES: dict[str, str] = {f.name: f.type for f in fields(UnitRecord)}
# The technologies carrying each field that not all technologies carry.
SPECIFIC_FIELDS: dict[str, frozenset[Technology]] = {
    f.name: f.metadata["technologies"]
    for f in fields(UnitRecord)
    if f.metadata and len(f.metadata["technologies"]) < len(Technology)
}
# Field names in declaration order, reused by ingest and the rule config check.
RECORD_FIELDS: tuple[str, ...] = tuple(FIELD_TYPES)
# A block holds rows of one technology as columns, one per field in
# RECORD_FIELDS order; FIELD_POS gives a field's column.
FIELD_POS: dict[str, int] = {name: i for i, name in enumerate(RECORD_FIELDS)}
BLOCK_ROWS = 128  # rows per block, read and checked together
_TEXT_FIELDS = tuple(name for name, kind in FIELD_TYPES.items() if kind == "str | None")

# What a present value of a field must be, beyond the field existing for
# the record's technology; value_problem tells why a value is not. Every
# float field is a quantity. Every rule is a monotone bound (per axis for a
# coordinate), so a set of values meets it if its least and greatest do.
_REQUIREMENTS: dict[str, str] = {
    **{name: "non-negative and finite" for name, kind in FIELD_TYPES.items() if kind == "float | None"},
    "number_of_modules": ">= 0 and within the float range",
    "installation_year": "within the float range",
    "coordinate": "finite and within WGS84 bounds",
}
CHECKED_FIELDS = frozenset(_REQUIREMENTS)


def value_problem(name: str, value) -> str | None:
    """Why a present value breaks its field's requirement, or None.

    The one statement of UnitRecord's value invariants: __post_init__
    raises on a problem, and ingest turns it into a cell issue. Fields
    outside CHECKED_FIELDS take any value of their type.
    """
    if name == "coordinate":
        lat, lon = value
        if not (math.isfinite(lat) and math.isfinite(lon)):
            return "not finite"
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            return "out of WGS84 bounds"
    elif name in ("number_of_modules", "installation_year"):
        # The tests compute with integers as floats (test 6's watts per module).
        if not -sys.float_info.max <= value <= sys.float_info.max:
            return "beyond the float range"
        if value < 0 and name == "number_of_modules":
            return "negative count"
    elif name in _REQUIREMENTS:
        if value < 0:
            return "negative value"
        if not math.isfinite(value):
            return "not finite"
    return None


@cache
def columns_for(technology: Technology) -> tuple[str, ...]:
    """Every field a technology's records carry, in RECORD_FIELDS order,
    without technology itself."""
    return tuple(f.name for f in fields(UnitRecord) if technology in f.metadata.get("technologies", ()))


_store_fields = _RecordFields.__init__


def checked_records(columns: Sequence[list]) -> list[UnitRecord]:
    """UnitRecords from columns of field values, one column per field in
    RECORD_FIELDS order, each record stored by _RecordFields.__init__
    without running UnitRecord.__post_init__.

    Only for values that already meet what __post_init__ checks: a
    Technology, no value in a field the technology does not carry
    (SPECIFIC_FIELDS), value_problem None for every present value, and
    text stripped and not blank. Ingest meets it a column at a time; the
    plain slot stores cost about an eighth of a checked construction, and
    one map over the columns builds no row tuple.
    """
    records = list(map(object.__new__, repeat(UnitRecord, len(columns[0]))))
    deque(map(_store_fields, records, *columns), maxlen=0)
    return records


# The field holding a unit's rated power: net power for solar and storage
# units, the plain power column for all other technologies.
POWER_FIELD: dict[Technology, str] = {
    tech: "power_net_kw" if tech in (Technology.SOLAR, Technology.STORAGE) else "power_kw" for tech in Technology
}


class RuleOutcome(NamedTuple):
    """Verdict of one data test applied to one unit."""

    unit_id: str | None
    test_id: int
    passed: bool
    detail: str
    measured: float | None = None
    measured_unit: str | None = None


@dataclass(frozen=True, slots=True)
class FailureRecord:
    """All failed tests of one unit, with the context needed for triage."""

    unit_id: str | None
    technology: Technology
    power_kw: float | None
    district_id: str | None
    municipality_id: str | None
    dso_inspected: bool
    failed: tuple[RuleOutcome, ...]

    @property
    def test_ids(self) -> tuple[int, ...]:
        return tuple(o.test_id for o in self.failed)


@dataclass
class FailureSet:
    """Results of one suite run: all failures plus the run's accounting."""

    failures: list[FailureRecord]
    records_total: dict[Technology, int]
    records_dso: dict[Technology, int]
    evaluated_tests: tuple[int, ...]

    @property
    def total_records(self) -> int:
        return sum(self.records_total.values())

    def failing_unit_count(self) -> int:
        return count_failing_units(self.failures)


def count_failing_units(failures: Iterable[FailureRecord]) -> int:
    """Distinct failing unit ids; failures of records without an id count singly."""
    ids = [fr.unit_id for fr in failures]
    return len(set(ids) - {None}) + ids.count(None)
