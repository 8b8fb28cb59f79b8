"""Normalized schema for registry units.

One record per registered unit. Common fields are shared by every
technology; technology-specific fields are structurally absent (must be
None) for tables that do not carry them, mirroring the transformed
registry layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from datetime import date
from enum import Enum
from typing import NamedTuple


class Technology(str, Enum):
    BIOMASS = "biomass"
    COMBUSTION = "combustion"
    HYDRO = "hydro"
    SOLAR = "solar"
    STORAGE = "storage"
    WIND = "wind"


# Which technology tables carry which specific columns. Anything not listed
# here is a common field present for all technologies.
SPECIFIC_FIELDS: dict[str, frozenset[Technology]] = {
    "power_kw": frozenset({Technology.BIOMASS, Technology.COMBUSTION, Technology.HYDRO, Technology.WIND}),
    "power_gross_kw": frozenset({Technology.SOLAR, Technology.STORAGE}),
    "power_inverter_kw": frozenset({Technology.SOLAR, Technology.STORAGE}),
    "power_net_kw": frozenset({Technology.SOLAR, Technology.STORAGE}),
    "number_of_modules": frozenset({Technology.SOLAR}),
    "unit_type": frozenset({Technology.SOLAR}),
    "area_ha": frozenset({Technology.SOLAR}),
    "orientation": frozenset({Technology.SOLAR}),
    "orientation_secondary": frozenset({Technology.SOLAR}),
    "storage_capacity_kwh": frozenset({Technology.STORAGE}),
    "battery_technology": frozenset({Technology.STORAGE}),
    "hub_height_m": frozenset({Technology.WIND}),
    "rotor_diameter_m": frozenset({Technology.WIND}),
    "position": frozenset({Technology.WIND}),
    "manufacturer": frozenset({Technology.WIND}),
    "type_description": frozenset({Technology.WIND}),
    "combustion_technology": frozenset({Technology.BIOMASS}),
    "fuel_type": frozenset({Technology.BIOMASS}),
    "energy_carrier": frozenset({Technology.COMBUSTION}),
    "plant_type": frozenset({Technology.HYDRO}),
    "type_of_inflow": frozenset({Technology.HYDRO}),
}


@dataclass(frozen=True, slots=True)
class UnitRecord:
    """One registry unit after transformation to the common data model.

    Immutable; safe to share between workers. Construction enforces the
    structural invariants (field applicability per technology, coordinate
    bounds, non-negative finite quantities). Semantic plausibility is the
    rule engine's job, not the schema's.
    """

    technology: Technology
    unit_id: str | None = None
    owner_id: str | None = None
    operating_status: str | None = None
    grid_operator_inspection: bool | None = None
    commissioning_date: date | None = None
    planned_commissioning_date: date | None = None
    installation_year: int | None = None
    download_date: date | None = None
    zip_code: str | None = None
    municipality: str | None = None
    municipality_id: str | None = None
    district: str | None = None
    district_id: str | None = None
    coordinate: tuple[float, float] | None = None  # (latitude, longitude), WGS84
    unit_name: str | None = None
    # solar / storage
    power_gross_kw: float | None = None
    power_inverter_kw: float | None = None
    power_net_kw: float | None = None
    # biomass / combustion / hydro / wind
    power_kw: float | None = None
    # solar
    number_of_modules: int | None = None
    unit_type: str | None = None
    area_ha: float | None = None
    orientation: str | None = None
    orientation_secondary: str | None = None
    # storage
    storage_capacity_kwh: float | None = None
    battery_technology: str | None = None
    # wind
    hub_height_m: float | None = None
    rotor_diameter_m: float | None = None
    position: str | None = None
    manufacturer: str | None = None
    type_description: str | None = None
    # biomass
    combustion_technology: str | None = None
    fuel_type: str | None = None
    # combustion
    energy_carrier: str | None = None
    # hydro
    plant_type: str | None = None
    type_of_inflow: str | None = None

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
                object.__setattr__(self, name, value.strip() or None)


# Each field's annotation as written above: the one statement of its type,
# from which ingest picks the field's cell codec.
FIELD_TYPES: dict[str, str] = {f.name: f.type for f in fields(UnitRecord)}
# Field names in declaration order, reused by ingest and the rule config check.
RECORD_FIELDS: tuple[str, ...] = tuple(FIELD_TYPES)
_TEXT_FIELDS = tuple(name for name, kind in FIELD_TYPES.items() if kind == "str | None")
_SLOT_SETTERS = tuple(UnitRecord.__dict__[name].__set__ for name in RECORD_FIELDS)

# What a present value of a field must be, beyond the field existing for
# the record's technology; value_problem tells why a value is not. Every
# float field is a quantity.
_REQUIREMENTS: dict[str, str] = {
    **{name: "non-negative and finite" for name, kind in FIELD_TYPES.items() if kind == "float | None"},
    "number_of_modules": ">= 0",
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
    elif name == "number_of_modules":
        if value < 0:
            return "negative count"
    elif name in _REQUIREMENTS:
        if value < 0:
            return "negative value"
        if not math.isfinite(value):
            return "not finite"
    return None


def columns_for(technology: Technology) -> tuple[str, ...]:
    """Every field a technology's records carry, in RECORD_FIELDS order,
    without technology itself."""
    return tuple(
        name
        for name in RECORD_FIELDS
        if name != "technology" and technology in SPECIFIC_FIELDS.get(name, (technology,))
    )


def checked_record(values: list) -> UnitRecord:
    """A UnitRecord from its field values in RECORD_FIELDS order, built
    without running __post_init__.

    Only for values that already meet what __post_init__ checks: a
    Technology, no value in a field the technology does not carry
    (SPECIFIC_FIELDS), value_problem None for every present value, and
    text stripped and not blank. Ingest meets it cell by cell; skipping
    the generated __init__ and the checks halves the cost of a record.
    """
    record = object.__new__(UnitRecord)
    for setter, value in zip(_SLOT_SETTERS, values):
        setter(record, value)
    return record


# The field holding a unit's rated power: net power for solar and storage
# units, the plain power column for all other technologies.
POWER_FIELD: dict[Technology, str] = {
    tech: "power_net_kw" if tech in (Technology.SOLAR, Technology.STORAGE) else "power_kw" for tech in Technology
}


def power_of(record: UnitRecord) -> float | None:
    """Rated power in kW, read from the technology's POWER_FIELD. None
    marks a missing value (flagged by test 1)."""
    return getattr(record, POWER_FIELD[record.technology])


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
