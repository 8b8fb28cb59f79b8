"""Normalized schema for registry units.

One record per registered unit. Common fields are shared by every
technology; technology-specific fields are structurally absent (must be
None) for tables that do not carry them, mirroring the transformed
registry layout. The results of a suite run (RuleOutcome, FailureRecord,
FailureSet) are defined here too.

RECORD_TABLE states each record field once: its name, its type, its
column in the standard export and the technologies that carry it.
FIELD_TYPES, RECORD_FIELDS, FIELD_POS, SPECIFIC_FIELDS, RAW_COLUMNS and
columns_for all read it. UnitRecord, a slotted dataclass, is built from
the table on first access (PEP 562 module __getattr__): validate and
report build no record, so neither imports dataclasses. Every record,
the reader's included, is built by UnitRecord's own __init__ and passes
its checks.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from functools import cache
from typing import Iterable, NamedTuple


class Technology(str, Enum):
    BIOMASS = "biomass"
    COMBUSTION = "combustion"
    HYDRO = "hydro"
    SOLAR = "solar"
    STORAGE = "storage"
    WIND = "wind"


# Each technology by its name, the value of its member.
TECHNOLOGY_BY_NAME: dict[str, Technology] = {tech.value: tech for tech in Technology}


# UnitRecord's fields in order: (name, type, column in the standard export,
# technologies that carry it; every technology when none is named).
# technology has no column: a table's technology is given with its path.
# Every other field is None unless given. coordinate is (latitude,
# longitude), WGS84.
RECORD_TABLE: tuple[tuple[str, ...], ...] = (
    ("technology", "Technology", ""),
    ("unit_id", "str | None", "mastr id"),
    ("owner_id", "str | None", "unit owner mastr id"),
    ("operating_status", "str | None", "operating status"),
    ("grid_operator_inspection", "bool | None", "grid operator inspection"),
    ("commissioning_date", "date | None", "commissioning date"),
    ("planned_commissioning_date", "date | None", "planned commissioning date"),
    ("installation_year", "int | None", "installation year"),
    ("download_date", "date | None", "download date"),
    ("zip_code", "str | None", "zip code"),
    ("municipality", "str | None", "municipality"),
    ("municipality_id", "str | None", "municipality id"),
    ("district", "str | None", "district"),
    ("district_id", "str | None", "district id"),
    ("coordinate", "tuple[float, float] | None", "coordinate"),
    ("unit_name", "str | None", "unit name"),
    ("power_gross_kw", "float | None", "power gross", "solar", "storage"),
    ("power_inverter_kw", "float | None", "power inverter", "solar", "storage"),
    ("power_net_kw", "float | None", "power net", "solar", "storage"),
    ("power_kw", "float | None", "power", "biomass", "combustion", "hydro", "wind"),
    ("number_of_modules", "int | None", "number of modules", "solar"),
    ("unit_type", "str | None", "unit type", "solar"),
    ("area_ha", "float | None", "area", "solar"),
    ("orientation", "str | None", "orientation", "solar"),
    ("orientation_secondary", "str | None", "orientation secondary", "solar"),
    ("storage_capacity_kwh", "float | None", "storage capacity", "storage"),
    ("battery_technology", "str | None", "battery technology", "storage"),
    ("hub_height_m", "float | None", "hub height", "wind"),
    ("rotor_diameter_m", "float | None", "rotor diameter", "wind"),
    ("position", "str | None", "position", "wind"),
    ("manufacturer", "str | None", "manufacturer", "wind"),
    ("type_description", "str | None", "type description", "wind"),
    ("combustion_technology", "str | None", "combustion technology", "biomass"),
    ("fuel_type", "str | None", "fuel type", "biomass"),
    ("energy_carrier", "str | None", "energy carrier", "combustion"),
    ("plant_type", "str | None", "plant type", "hydro"),
    ("type_of_inflow", "str | None", "type of inflow", "hydro"),
)

# Each field's type, from which ingest picks the field's cell codec.
FIELD_TYPES: dict[str, str] = {name: kind for name, kind, *_ in RECORD_TABLE}
# Each field's column in the standard export.
RAW_COLUMNS: dict[str, str] = {name: raw for name, _, raw, *_ in RECORD_TABLE if raw}
# The technologies carrying each field read from a column.
_CARRIED: dict[str, frozenset[Technology]] = {
    name: frozenset(map(Technology, technologies)) or frozenset(Technology)
    for name, _, raw, *technologies in RECORD_TABLE
    if raw
}
# The technologies carrying each field that not all technologies carry.
SPECIFIC_FIELDS: dict[str, frozenset[Technology]] = {
    name: technologies for name, technologies in _CARRIED.items() if len(technologies) < len(Technology)
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
    return tuple(name for name, technologies in _CARRIED.items() if technology in technologies)


def _check_record(record) -> None:
    """UnitRecord.__post_init__: the structural invariants (see UnitRecord)."""
    tech = record.technology
    if not isinstance(tech, Technology):
        raise ValueError(f"technology must be a Technology, got {tech!r}")
    for name, techs in SPECIFIC_FIELDS.items():
        if tech not in techs and getattr(record, name) is not None:
            raise ValueError(f"field {name!r} does not exist for technology {tech.value!r}")
    for name, requirement in _REQUIREMENTS.items():
        value = getattr(record, name)
        problem = None if value is None else value_problem(name, value)
        if problem:
            raise ValueError(f"field {name!r} must be {requirement} ({problem}), got {value!r}")
    # Text is kept as a table cell reads back: stripped, blank as None.
    for name in _TEXT_FIELDS:
        value = getattr(record, name)
        if value is not None and (not value or value.strip() != value):
            setattr(record, name, value.strip() or None)


_UNIT_RECORD_DOC = """One registry unit after transformation to the common data model.

    Every construction (UnitRecord(...), dataclasses.replace, iterating a
    RegistryReader) enforces the structural invariants: field
    applicability per technology, coordinate bounds, non-negative finite
    quantities. Semantic plausibility is the rule engine's job, not the
    schema's. Records are mutable, so not hashable; an assignment is not
    checked.
    """


def __getattr__(name: str):
    """UnitRecord, a slotted dataclass built from RECORD_TABLE on first
    access and kept as a module attribute."""
    if name != "UnitRecord":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from dataclasses import field, make_dataclass

    spec = [
        (field_name, kind) if field_name == "technology" else (field_name, kind, field(default=None))
        for field_name, kind, *_ in RECORD_TABLE
    ]
    namespace = {"__module__": __name__, "__doc__": _UNIT_RECORD_DOC, "__post_init__": _check_record}
    globals()[name] = make_dataclass(name, spec, namespace=namespace, slots=True)
    return globals()[name]


# The field holding a unit's rated power: net power for solar and storage
# units, the plain power column for all other technologies.
POWER_FIELD: dict[Technology, str] = {
    tech: "power_net_kw" if tech in (Technology.SOLAR, Technology.STORAGE) else "power_kw" for tech in Technology
}


class RuleOutcome(NamedTuple):
    """One failed data test of a unit: the test object of a failures.ndjson
    line, in its key order. The unit id is the enclosing FailureRecord's;
    a passing check gives None, not an outcome."""

    test_id: int
    detail: str
    measured: float | None = None
    measured_unit: str | None = None


class FailureRecord(NamedTuple):
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


class FailureSet(NamedTuple):
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
