"""Shared fixtures: boundary grids and consistent per-technology records."""

from datetime import date
from fractions import Fraction

import pytest

from registrylint.cli import main
from registrylint.model import RECORD_FIELDS, RuleOutcome, Technology, UnitRecord
from registrylint.geo import BoundarySet
from registrylint.report import ColumnStats, build_report
from registrylint.rules import Boundaries, RuleConfig, _compile, run_suite
from registrylint.synth import make_boundary_grid

# One municipality per technology so example records can carry coordinates
# inside their registered regions (grid origin 48N 10E, 0.5 deg districts).
_MUNI_FOR = {
    Technology.BIOMASS: "10001000",
    Technology.COMBUSTION: "10001001",
    Technology.HYDRO: "10001002",
    Technology.SOLAR: "10001003",
    Technology.STORAGE: "10002000",
    Technology.WIND: "10002001",
}


@pytest.fixture(scope="session")
def grid() -> Boundaries:
    return make_boundary_grid()


@pytest.fixture(scope="session")
def indexed_grid(grid) -> tuple[BoundarySet, BoundarySet]:
    return (grid.districts, grid.municipalities)


@pytest.fixture(scope="session")
def config() -> RuleConfig:
    return RuleConfig()


@pytest.fixture(scope="session")
def reference_tables(tmp_path_factory):
    """The reference fixture (synth --count 200 --seed 7 --error-rate 0.05), shared read-only."""
    folder = tmp_path_factory.mktemp("reference")
    assert main(["synth", "--count", "200", "--seed", "7", "--error-rate", "0.05", "--out", str(folder)]) == 0
    return folder


def _muni_center(grid: Boundaries, muni_id: str) -> tuple[float, float]:
    minlat, minlon, maxlat, maxlon = grid.municipalities.regions[muni_id].bbox()
    return ((minlat + maxlat) / 2.0, (minlon + maxlon) / 2.0)


def example_record(grid: Boundaries, technology: Technology, **overrides) -> UnitRecord:
    """A record built from the published example column, consistent enough
    to pass every test (coordinates land inside the registered region)."""
    muni_id = overrides.pop("municipality_id", _MUNI_FOR[technology])
    common = dict(
        technology=technology,
        owner_id="ABR989393706204",
        operating_status="In Betrieb",
        grid_operator_inspection=True,
        commissioning_date=date(2001, 12, 21),
        installation_year=2017,
        download_date=date(2024, 3, 12),
        zip_code="17291",
        municipality="Bad Wünnenberg",
        municipality_id=muni_id,
        district="Nordfriesland",
        district_id=muni_id[:5],
        coordinate=_muni_center(grid, muni_id),
    )
    specific = {
        Technology.BIOMASS: dict(
            unit_id="SEE900002935310",
            power_kw=2000.0,
            combustion_technology="Verbrennungsmotor",
            fuel_type="Gasförmige Biomasse",
        ),
        Technology.COMBUSTION: dict(
            unit_id="SEE900002935311", power_kw=2000.0, energy_carrier="Erdgas"
        ),
        Technology.HYDRO: dict(
            unit_id="SEE900002935312",
            power_kw=2000.0,
            plant_type="Laufwasseranlage",
            type_of_inflow="Flusskraftwerk",
        ),
        Technology.SOLAR: dict(
            unit_id="SEE900002935313",
            power_gross_kw=5.0,
            power_inverter_kw=10.0,
            power_net_kw=5.0,
            number_of_modules=8,
            unit_type="Freifläche",
            area_ha=0.01,
            orientation="Süd",
            orientation_secondary="West",
        ),
        Technology.STORAGE: dict(
            unit_id="SEE900002935314",
            power_gross_kw=5.0,
            power_inverter_kw=10.0,
            power_net_kw=5.0,
            storage_capacity_kwh=10.0,
            battery_technology="Lithium-Batterie",
        ),
        Technology.WIND: dict(
            unit_id="SEE900002935315",
            power_kw=2000.0,
            hub_height_m=65.0,
            rotor_diameter_m=82.0,
            position="Windkraft an Land",
            manufacturer="ENERCON GmbH",
            type_description="E-70 E4",
        ),
    }[technology]
    return UnitRecord(**{**common, **specific, **overrides})


@pytest.fixture(scope="session")
def example_records(grid) -> dict[Technology, UnitRecord]:
    return {tech: example_record(grid, tech) for tech in Technology}


def evaluate_record(
    record: UnitRecord,
    config: RuleConfig | None = None,
    districts: BoundarySet | None = None,
    municipalities: BoundarySet | None = None,
) -> dict[int, RuleOutcome | None]:
    """Each applicable per-record test's result, by test id, from the
    suite's checks run on a block of this one record: None for a pass, as
    a check gives it, and the failing RuleOutcome otherwise. Location tests
    run only for the boundary sets given; test 2 is suite-level.
    """
    checks, _ = _compile(config or RuleConfig(), Boundaries(districts, municipalities))
    block = [[getattr(record, name)] for name in RECORD_FIELDS]
    results = {}
    for test, check in checks[record.technology]:
        (results[test.test_id],) = check(block)
    return results


def outcome_of(test_id: int, record: UnitRecord, config=None, districts=None, municipalities=None):
    """One catalog test's result for one record, as evaluate_record gives it:
    None for a pass. A test that does not apply to the record raises KeyError."""
    return evaluate_record(record, config, districts, municipalities)[test_id]


def location_outcomes(record: UnitRecord, districts, municipalities, config=None):
    """Outcomes of the district (10) and municipality (11) location tests."""
    return tuple(outcome_of(tid, record, config, districts, municipalities) for tid in (10, 11))


def column_stats(records) -> ColumnStats:
    """Column counters over records, fed one at a time as validate feeds them."""
    stats = ColumnStats()
    for record in records:
        stats.update(record)
    return stats


def completeness(records, technology: Technology, column: str) -> tuple[Fraction, int]:
    """A column's completeness fraction and percent, as build_report writes
    them into the summary of a run over these records."""
    summary = build_report(run_suite(records), column_stats(records))
    numerator, denominator = summary["completeness_fraction"][technology.value][column]
    return Fraction(numerator, denominator), summary["completeness_percent"][technology.value][column]


def evaluated_counts(failure_set, records) -> dict[tuple[int, Technology], int]:
    """The summary's matrix.evaluated_counts, keyed by (test id, technology)."""
    counts = build_report(failure_set, column_stats(records))["matrix"]["evaluated_counts"]
    cells = {}
    for key, count in counts.items():
        tid, tech = key.split(":")
        cells[(int(tid), Technology(tech))] = count
    return cells
