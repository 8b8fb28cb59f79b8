"""Schema tests: field applicability, power resolution, value invariants."""

from datetime import date

import pytest
from hypothesis import strategies as st

from registrylint.model import (
    POWER_FIELD,
    RECORD_FIELDS,
    SPECIFIC_FIELDS,
    Technology,
    UnitRecord,
    columns_for,
)
from registrylint.ingest import ColumnMapping, IngestError

COMMON_FIELDS = {
    "unit_id",
    "owner_id",
    "operating_status",
    "grid_operator_inspection",
    "commissioning_date",
    "planned_commissioning_date",
    "installation_year",
    "download_date",
    "zip_code",
    "municipality",
    "municipality_id",
    "district",
    "district_id",
    "coordinate",
    "unit_name",
}
EXPECTED_FIELDS = {
    Technology.BIOMASS: {"power_kw", "combustion_technology", "fuel_type"},
    Technology.COMBUSTION: {"power_kw", "energy_carrier"},
    Technology.HYDRO: {"power_kw", "plant_type", "type_of_inflow"},
    Technology.SOLAR: {
        "power_gross_kw",
        "power_inverter_kw",
        "power_net_kw",
        "number_of_modules",
        "unit_type",
        "area_ha",
        "orientation",
        "orientation_secondary",
    },
    Technology.STORAGE: {
        "power_gross_kw",
        "power_inverter_kw",
        "power_net_kw",
        "storage_capacity_kwh",
        "battery_technology",
    },
    Technology.WIND: {
        "power_kw",
        "hub_height_m",
        "rotor_diameter_m",
        "position",
        "manufacturer",
        "type_description",
    },
}


def test_exactly_six_technologies():
    assert {t.value for t in Technology} == {"biomass", "combustion", "hydro", "solar", "storage", "wind"}


@pytest.mark.parametrize("technology", list(Technology))
def test_field_applicability_matches_table(technology):
    columns = columns_for(technology)
    assert set(columns) - COMMON_FIELDS == EXPECTED_FIELDS[technology]
    assert set(columns) >= COMMON_FIELDS
    # Declaration order, each field once, technology itself left out.
    assert columns == tuple(name for name in RECORD_FIELDS if name in columns and name != "technology")


def test_specific_fields_cover_every_listed_column():
    listed = set()
    for names in EXPECTED_FIELDS.values():
        listed |= names
    assert set(SPECIFIC_FIELDS) == listed


class TestPowerOf:
    def test_wind_uses_power_column(self):
        record = UnitRecord(technology=Technology.WIND, unit_id="SEE900000000001", power_kw=2000.0)
        assert getattr(record, POWER_FIELD[record.technology]) == 2000.0

    def test_solar_uses_net_power(self):
        record = UnitRecord(technology=Technology.SOLAR, unit_id="SEE900000000002", power_net_kw=5.0)
        assert getattr(record, POWER_FIELD[record.technology]) == 5.0

    def test_missing_power_is_none(self):
        record = UnitRecord(technology=Technology.SOLAR, unit_id="SEE900000000003")
        assert getattr(record, POWER_FIELD[record.technology]) is None


class TestStructuralInvariants:
    def test_wrong_technology_field_rejected(self):
        with pytest.raises(ValueError, match="does not exist"):
            UnitRecord(technology=Technology.WIND, power_net_kw=5.0)
        with pytest.raises(ValueError, match="does not exist"):
            UnitRecord(technology=Technology.STORAGE, rotor_diameter_m=82.0)
        with pytest.raises(ValueError, match="does not exist"):
            UnitRecord(technology=Technology.BIOMASS, number_of_modules=8)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            UnitRecord(technology=Technology.WIND, power_kw=-1.0)

    def test_non_finite_power_rejected(self):
        with pytest.raises(ValueError, match="non-negative and finite"):
            UnitRecord(technology=Technology.WIND, power_kw=float("nan"))

    def test_coordinate_bounds(self):
        with pytest.raises(ValueError, match="WGS84"):
            UnitRecord(technology=Technology.WIND, coordinate=(91.0, 0.0))
        with pytest.raises(ValueError, match="WGS84"):
            UnitRecord(technology=Technology.WIND, coordinate=(0.0, 200.0))
        UnitRecord(technology=Technology.WIND, coordinate=(90.0, 180.0))  # corners are legal

    # The rules compute with integers as floats, so neither integer field
    # may hold one beyond the float range.
    def test_module_count_beyond_the_float_range_rejected(self):
        with pytest.raises(ValueError, match=r"number_of_modules.*\(beyond the float range\)"):
            UnitRecord(technology=Technology.SOLAR, unit_id="SEE900000000001", power_gross_kw=10.0,
                       number_of_modules=10**400)
        UnitRecord(technology=Technology.SOLAR, number_of_modules=int(1.7e308))

    def test_installation_year_beyond_the_float_range_rejected(self):
        with pytest.raises(ValueError, match=r"installation_year.*\(beyond the float range\)"):
            UnitRecord(technology=Technology.WIND, unit_id="SEE900000000001", installation_year=10**400)
        with pytest.raises(ValueError, match=r"installation_year.*\(beyond the float range\)"):
            UnitRecord(technology=Technology.WIND, installation_year=-(10**400))
        UnitRecord(technology=Technology.WIND, installation_year=-2)  # no bound but the float range

    def test_technology_must_be_enum(self):
        with pytest.raises(ValueError, match="technology"):
            UnitRecord(technology="wind")

    def test_text_is_stored_as_a_cell_reads_back(self):
        record = UnitRecord(technology=Technology.BIOMASS, municipality=" Bad Wünnenberg ", fuel_type=" ", unit_id="")
        assert record.municipality == "Bad Wünnenberg"
        assert record.fuel_type is None
        assert record.unit_id is None


_DATES = st.dates(min_value=date(1950, 1, 1), max_value=date(2035, 12, 31))
_POWER = st.floats(min_value=0.0, max_value=5e6, allow_nan=False, allow_infinity=False)
_SHORT_TEXT = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), whitelist_characters=" -"),
    min_size=1,
    max_size=20,
)


@st.composite
def records(draw) -> UnitRecord:
    technology = draw(st.sampled_from(list(Technology)))
    dates = _DATES
    power = _POWER
    short_text = _SHORT_TEXT

    def maybe(strat):
        return draw(st.none() | strat)

    values = dict(
        technology=technology,
        unit_id=maybe(st.from_regex(r"[A-Z]{3}\d{12}", fullmatch=True)),
        owner_id=maybe(st.from_regex(r"[A-Z]{3}\d{12}", fullmatch=True)),
        operating_status=maybe(short_text),
        grid_operator_inspection=maybe(st.booleans()),
        commissioning_date=maybe(dates),
        planned_commissioning_date=maybe(dates),
        installation_year=maybe(st.integers(min_value=1800, max_value=2100)),
        download_date=maybe(dates),
        zip_code=maybe(st.from_regex(r"\d{5}", fullmatch=True)),
        municipality=maybe(short_text),
        municipality_id=maybe(st.from_regex(r"\d{8}", fullmatch=True)),
        district=maybe(short_text),
        district_id=maybe(st.from_regex(r"\d{5}", fullmatch=True)),
        coordinate=maybe(
            st.tuples(
                st.floats(min_value=-90.0, max_value=90.0, allow_nan=False),
                st.floats(min_value=-180.0, max_value=180.0, allow_nan=False),
            )
        ),
        unit_name=maybe(short_text),
    )
    specific_strategies = {
        "power_kw": power,
        "power_gross_kw": power,
        "power_inverter_kw": power,
        "power_net_kw": power,
        "number_of_modules": st.integers(min_value=0, max_value=10**6),
        "unit_type": short_text,
        "area_ha": power,
        "orientation": short_text,
        "orientation_secondary": short_text,
        "storage_capacity_kwh": power,
        "battery_technology": short_text,
        "hub_height_m": st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        "rotor_diameter_m": st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        "position": short_text,
        "manufacturer": short_text,
        "type_description": short_text,
        "combustion_technology": short_text,
        "fuel_type": short_text,
        "energy_carrier": short_text,
        "plant_type": short_text,
        "type_of_inflow": short_text,
    }
    for name in columns_for(technology):
        if name in specific_strategies:
            values[name] = maybe(specific_strategies[name])
    # Normalized form: the district key always accompanies a municipality key
    # (ingest derives it from the first five digits when absent).
    if values["municipality_id"] is not None and values["district_id"] is None:
        values["district_id"] = values["municipality_id"][:5]
    return UnitRecord(**values)


def test_unknown_field_rejected_on_parse():
    # Records are parsed through a column mapping; it rejects unknown fields.
    with pytest.raises(IngestError, match="unknown field"):
        ColumnMapping.from_dict({"wind": [["voltage", "voltage"]]})
