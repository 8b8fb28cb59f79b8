"""Test-catalog behavior: every published example value plus the suite
invariants (matrix conformance, null ownership, determinism, aggregation)."""

import gc
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from registrylint.catalog import MATRIX_CELL_COUNT
from registrylint.geo import EARTH_RADIUS_M, boundary_clearance_m, contains_with_buffer
from registrylint.ingest import RegistryReader, parse_boundaries, write_registry_csv
from registrylint.model import BLOCK_ROWS, POWER_FIELD, RECORD_FIELDS, RuleOutcome, Technology, UnitRecord
from registrylint.rules import (
    CATALOG,
    CHECKMARKS,
    Boundaries,
    RuleConfig,
    ConfigError,
    _compile,
    fields_read,
    run_blocks,
    run_suite,
)
from registrylint.synth import ErrorInjectionSpec, generate_clean, inject_errors

from catalog_oracle import check_unique_ids, oracle_15
from conftest import evaluate_record, evaluated_counts, example_record, location_outcomes, outcome_of
from test_model import records


def lon_offset_deg(distance_m: float, lat: float) -> float:
    return math.degrees(distance_m / (EARTH_RADIUS_M * math.cos(math.radians(lat))))


@pytest.fixture(scope="module")
def cfg() -> RuleConfig:
    return RuleConfig()


def measured_on_failure(test_id: int, record, **narrowed):
    """A check measures a row only when it fails: the value a test measures
    on a record, read off its failure under a config whose range excludes it."""
    outcome = outcome_of(test_id, record, RuleConfig(**narrowed))
    assert outcome is not None
    return outcome.measured


class TestRequiredFields:
    def test_missing_municipality_id(self, grid, cfg):
        record = example_record(grid, Technology.BIOMASS, municipality_id="10001000")
        record = replace(record, municipality_id=None)
        outcome = outcome_of(1, record, cfg)
        assert outcome is not None
        assert "municipality_id" in outcome.detail

    def test_fully_populated_passes(self, grid, cfg):
        outcome = outcome_of(1, example_record(grid, Technology.WIND), cfg)
        assert outcome is None

    def test_missing_status_and_power_both_listed(self, grid, cfg):
        record = replace(example_record(grid, Technology.WIND), operating_status=None, power_kw=None)
        outcome = outcome_of(1, record, cfg)
        assert outcome is not None
        assert "operating_status" in outcome.detail
        assert "power" in outcome.detail

    def test_solar_power_means_net_power(self, grid, cfg):
        record = replace(example_record(grid, Technology.SOLAR), power_net_kw=None)
        assert outcome_of(1, record, cfg) is not None

    def test_no_required_fields_passes_each_row(self, reference_tables):
        config = RuleConfig(required_fields=())
        test = CATALOG[0]
        for tech in Technology:
            check = test.compile(config, tech, Boundaries(), test.fail)
            for count, block in RegistryReader(reference_tables / f"{tech.value}.csv", tech).blocks():
                assert check(block) == [None] * count


class TestUniqueIds:
    def _minimal(self, uid):
        return UnitRecord(technology=Technology.WIND, unit_id=uid)

    def test_all_unique_no_failures(self):
        assert check_unique_ids([self._minimal(u) for u in ("A", "B", "C")]) == []

    def test_one_duplicate_two_failures(self):
        outcomes = check_unique_ids([self._minimal(u) for u in ("A", "A", "B")])
        assert len(outcomes) == 2
        assert all(uid == "A" and o is not None and o.test_id == 2 for uid, o in outcomes)
        assert outcomes[0][1].measured == 2.0

    def test_million_unique_ids_single_pass(self):
        stream = (self._minimal(f"SEE9{i:011d}") for i in range(1_000_000))
        assert check_unique_ids(stream) == []


class TestPowerOrdering:
    def test_example_values_pass(self, grid):
        record = example_record(grid, Technology.SOLAR)  # gross 5, inverter 10, net 5
        assert outcome_of(3, record) is None
        assert outcome_of(4, record) is None

    def test_inverter_below_net_fails_test_4(self, grid):
        record = replace(example_record(grid, Technology.STORAGE), power_inverter_kw=4.0)
        outcome = outcome_of(4, record)
        assert outcome is not None
        assert outcome.test_id == 4
        assert outcome_of(3, record) is None

    def test_equal_gross_and_net_passes(self, grid):
        record = replace(example_record(grid, Technology.SOLAR), power_gross_kw=5.0, power_net_kw=5.0)
        assert outcome_of(3, record) is None

    def test_nulls_are_vacuous(self, grid):
        record = replace(example_record(grid, Technology.SOLAR), power_gross_kw=None)
        assert outcome_of(3, record) is None


class TestIdFormats:
    def test_example_ids_pass(self, grid, cfg):
        assert outcome_of(5, example_record(grid, Technology.SOLAR), cfg) is None

    def test_four_digit_zip_fails(self, grid, cfg):
        record = replace(example_record(grid, Technology.SOLAR), zip_code="1729")
        outcome = outcome_of(5, record, cfg)
        assert outcome is not None
        assert "zip_code" in outcome.detail

    def test_lowercase_unit_id_fails(self, grid, cfg):
        record = replace(example_record(grid, Technology.SOLAR), unit_id="see900002935310")
        outcome = outcome_of(5, record, cfg)
        assert outcome is not None
        assert "unit_id" in outcome.detail

    @pytest.mark.parametrize(
        "name, value",
        [("unit_id", "SEE\uff1900000000001"), ("municipality_id", "\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18"),
         ("zip_code", "\u0660\u0661\u0662\u0663\u0664")],
        ids=["fullwidth-unit-id", "fullwidth-municipality-id", "arabic-indic-zip"],
    )
    def test_digits_are_ascii_only(self, grid, cfg, name, value):
        record = replace(example_record(grid, Technology.WIND), **{name: value})
        outcome = outcome_of(5, record, cfg)
        assert outcome is not None
        assert outcome.detail == f"fields not matching pattern: {name}"

    def test_null_fields_skip_their_subcheck(self, grid, cfg):
        record = replace(example_record(grid, Technology.SOLAR), zip_code=None)
        assert outcome_of(5, record, cfg) is None


class TestModulePower:
    def test_8_modules_at_5kw_pass(self, grid, cfg):
        record = example_record(grid, Technology.SOLAR)
        assert outcome_of(6, record, cfg) is None
        measured = measured_on_failure(6, record, module_power_range_w=(50.0, 600.0))
        assert measured == pytest.approx(625.0, rel=1e-12)

    def test_single_placeholder_module_fails(self, grid, cfg):
        record = replace(example_record(grid, Technology.SOLAR), number_of_modules=1)
        outcome = outcome_of(6, record, cfg)
        assert outcome is not None
        assert outcome.measured == pytest.approx(5000.0, rel=1e-12)

    def test_single_balcony_module_passes(self, grid, cfg):
        record = replace(
            example_record(grid, Technology.SOLAR), power_gross_kw=0.35, number_of_modules=1
        )
        assert outcome_of(6, record, cfg) is None
        measured = measured_on_failure(6, record, module_power_range_w=(50.0, 300.0))
        assert measured == pytest.approx(350.0, rel=1e-12)

    def test_zero_modules_fails(self, grid, cfg):
        record = replace(example_record(grid, Technology.SOLAR), number_of_modules=0)
        outcome = outcome_of(6, record, cfg)
        assert outcome is not None
        assert outcome.detail == "zero modules"

    @pytest.mark.parametrize("per_module_w,expected", [(50.0, True), (700.0, True), (49.9, False), (700.1, False)])
    def test_inclusive_bounds(self, grid, cfg, per_module_w, expected):
        record = replace(
            example_record(grid, Technology.SOLAR),
            power_gross_kw=per_module_w / 1000.0,
            number_of_modules=1,
        )
        assert (outcome_of(6, record, cfg) is None) is expected


class TestInverterRatio:
    def test_ratio_2_passes(self, grid, cfg):
        record = example_record(grid, Technology.SOLAR)
        assert outcome_of(7, record, cfg) is None
        assert measured_on_failure(7, record, inverter_ratio_factor=1.5) == pytest.approx(2.0, rel=1e-12)

    def test_magnitude_mixup_fails(self, grid, cfg):
        record = replace(example_record(grid, Technology.SOLAR), power_inverter_kw=5000.0)
        outcome = outcome_of(7, record, cfg)
        assert outcome is not None
        assert outcome.measured == pytest.approx(1000.0, rel=1e-12)

    def test_equal_powers_pass(self, grid, cfg):
        # A ratio of 1.0 fails under no config (the factor must be > 1), so
        # only the verdict is asserted; the ratio's formula is asserted on
        # the failing rows.
        record = replace(example_record(grid, Technology.SOLAR), power_inverter_kw=5.0)
        assert outcome_of(7, record, cfg) is None

    def test_zero_power_fails(self, grid, cfg):
        record = replace(example_record(grid, Technology.STORAGE), power_inverter_kw=0.0)
        outcome = outcome_of(7, record, cfg)
        assert outcome is not None
        assert outcome.detail == "zero power"

    def test_factor_20_exactly_fails(self, grid, cfg):
        record = replace(
            example_record(grid, Technology.SOLAR), power_gross_kw=5.0, power_inverter_kw=100.0
        )
        assert outcome_of(7, record, cfg) is not None

    @settings(max_examples=60, deadline=None)
    @given(
        gross=st.floats(min_value=1e-3, max_value=1e5, allow_nan=False),
        inverter=st.floats(min_value=1e-3, max_value=1e5, allow_nan=False),
        scale=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    )
    def test_scale_invariance(self, grid, cfg, gross, inverter, scale):
        base = replace(
            example_record(grid, Technology.SOLAR), power_gross_kw=gross, power_inverter_kw=inverter
        )
        scaled = replace(base, power_gross_kw=gross * scale, power_inverter_kw=inverter * scale)
        assert (outcome_of(7, base, cfg) is None) == (outcome_of(7, scaled, cfg) is None)


class TestAreaDensity:
    def _ground(self, grid, gross_kw, area_ha):
        return replace(
            example_record(grid, Technology.SOLAR),
            unit_type="Freifläche",
            power_gross_kw=gross_kw,
            area_ha=area_ha,
        )

    def test_mid_range_passes(self, grid, cfg):
        record = self._ground(grid, 1000.0, 1.0)
        assert outcome_of(8, record, cfg) is None
        measured = measured_on_failure(8, record, area_density_range_mw_per_ha=(0.05, 0.5))
        assert measured == pytest.approx(1.0, rel=1e-12)

    def test_wrong_unit_area_fails(self, grid, cfg):
        outcome = outcome_of(8, self._ground(grid, 750.0, 0.01), cfg)
        assert outcome is not None
        assert outcome.measured == pytest.approx(75.0, rel=1e-12)

    def test_lower_bound_inclusive(self, grid, cfg):
        record = self._ground(grid, 50.0, 1.0)
        assert outcome_of(8, record, cfg) is None
        measured = measured_on_failure(8, record, area_density_range_mw_per_ha=(0.06, 1.5))
        assert measured == pytest.approx(0.05, rel=1e-12)

    def test_zero_area_fails(self, grid, cfg):
        outcome = outcome_of(8, self._ground(grid, 50.0, 0.0), cfg)
        assert outcome is not None
        assert outcome.detail == "non-positive area"

    def test_rooftop_is_exempt(self, grid, cfg):
        record = replace(
            example_record(grid, Technology.SOLAR), unit_type="Gebäude", area_ha=None
        )
        assert outcome_of(8, record, cfg) is None


class TestRotorPower:
    def test_example_turbine_passes(self, grid, cfg):
        record = example_record(grid, Technology.WIND)
        assert outcome_of(9, record, cfg) is None
        measured = measured_on_failure(9, record, rotor_specific_power_range_w_per_m2=(160.0, 300.0))
        expected = 2000.0 * 1000.0 / (math.pi * 41.0**2)
        assert measured == pytest.approx(expected, rel=1e-12)
        assert measured == pytest.approx(378.7, abs=0.05)

    def test_tiny_rotor_fails(self, grid, cfg):
        record = replace(example_record(grid, Technology.WIND), rotor_diameter_m=20.0)
        outcome = outcome_of(9, record, cfg)
        assert outcome is not None
        assert outcome.measured == pytest.approx(2000.0 * 1000.0 / (math.pi * 100.0), rel=1e-12)

    def test_lower_bound_region_passes(self, grid, cfg):
        record = replace(example_record(grid, Technology.WIND), power_kw=845.0)
        assert outcome_of(9, record, cfg) is None
        measured = measured_on_failure(9, record, rotor_specific_power_range_w_per_m2=(170.0, 700.0))
        assert measured == pytest.approx(160.0, abs=0.05)

    def test_non_positive_diameter_fails(self, grid, cfg):
        record = replace(example_record(grid, Technology.WIND), rotor_diameter_m=0.0)
        outcome = outcome_of(9, record, cfg)
        assert outcome is not None
        assert outcome.detail == "non-positive rotor diameter"

    @pytest.mark.parametrize("power_kw", [0.0, 2000.0])
    def test_swept_area_that_rounds_to_zero_fails(self, grid, cfg, power_kw):
        # (d / 2) ** 2 underflows to 0.0 for a subnormal diameter.
        record = replace(example_record(grid, Technology.WIND), power_kw=power_kw, rotor_diameter_m=5e-262)
        outcome = outcome_of(9, record, cfg)
        assert outcome is not None
        assert outcome.detail == "rotor swept area rounds to zero"
        (failure,) = run_suite([record], None, cfg).failures
        assert outcome in failure.failed


class TestLocation:
    def test_inside_registered_regions_passes(self, grid, indexed_grid, cfg):
        districts, municipalities = indexed_grid
        record = example_record(grid, Technology.WIND)
        out10, out11 = location_outcomes(record, districts, municipalities, cfg)
        assert out10 is None and out11 is None
        # Lon 10.0 is the west edge of district 10001 and of its municipality
        # 10001000; a point on an edge is inside, with no buffer too.
        on_edge = replace(example_record(grid, Technology.WIND, municipality_id="10001000"), coordinate=(48.1, 10.0))
        for config in (cfg, RuleConfig(buffer_m=0.0)):
            out10, out11 = location_outcomes(on_edge, districts, municipalities, config)
            assert out10 is None and out11 is None

    def test_just_outside_municipality_within_buffer(self, grid, indexed_grid, cfg):
        districts, municipalities = indexed_grid
        # Municipality 10001000 spans lon 10.0-10.25 inside district 10001
        # (lon 10.0-10.5): 1.2 km east of the shared-muni edge stays in the
        # district's interior and within the municipality buffer.
        lat = 48.1
        lon = 10.25 + lon_offset_deg(1200.0, lat)
        record = example_record(grid, Technology.WIND, municipality_id="10001000")
        record = replace(record, coordinate=(lat, lon))
        out10, out11 = location_outcomes(record, districts, municipalities, cfg)
        assert out10 is None
        assert out11 is None

    def test_30km_away_fails_with_measured_distance(self, grid, indexed_grid, cfg):
        districts, municipalities = indexed_grid
        lat = 48.25
        lon = 10.5 + lon_offset_deg(30_000.0, lat)
        record = example_record(grid, Technology.WIND, municipality_id="10001000")
        record = replace(record, coordinate=(lat, lon))
        out10, out11 = location_outcomes(record, districts, municipalities, cfg)
        assert out10 is not None
        assert out10.measured == pytest.approx(30_000.0, rel=5e-3)
        assert out11 is not None

    def test_1m_outside_with_no_buffer_fails_with_its_clearance(self, grid, indexed_grid):
        districts, municipalities = indexed_grid
        lat, lon = 48.1, 10.0 - lon_offset_deg(1.0, 48.1)  # west of district 10001 and municipality 10001000
        record = replace(example_record(grid, Technology.WIND, municipality_id="10001000"), coordinate=(lat, lon))
        outcomes = location_outcomes(record, districts, municipalities, RuleConfig(buffer_m=0.0))
        for outcome, region in zip(outcomes, (districts.regions["10001"], municipalities.regions["10001000"])):
            assert outcome is not None
            assert outcome.measured == boundary_clearance_m(lat, lon, region)
            assert outcome.measured == pytest.approx(1.0, rel=5e-3)

    @pytest.mark.parametrize("buffer_m", [0.0, 1400.0, 1600.0])
    def test_verdict_is_contains_with_buffer(self, grid, indexed_grid, buffer_m):
        districts, municipalities = indexed_grid
        config = RuleConfig(buffer_m=buffer_m)
        regions = (districts.regions["10001"], municipalities.regions["10001000"])
        # West of lon 10.0, the edge both regions share; a negative offset is inside.
        for offset_m in (-1200.0, 0.0, 1.0, 1200.0, 1500.0, 30_000.0):
            lat, lon = 48.1, 10.0 - lon_offset_deg(offset_m, 48.1)
            record = replace(example_record(grid, Technology.WIND, municipality_id="10001000"), coordinate=(lat, lon))
            for outcome, region in zip(location_outcomes(record, districts, municipalities, config), regions):
                assert (outcome is None) == contains_with_buffer(lat, lon, region, buffer_m)

    def test_unknown_region_key_fails(self, grid, indexed_grid, cfg):
        districts, municipalities = indexed_grid
        record = example_record(grid, Technology.WIND)
        record = replace(record, municipality_id="99999999")
        _, out11 = location_outcomes(record, districts, municipalities, cfg)
        assert out11 is not None
        assert "unknown region key" in out11.detail
        assert out11.measured is None

    def test_nulls_are_vacuous(self, grid, indexed_grid, cfg):
        districts, municipalities = indexed_grid
        record = replace(example_record(grid, Technology.WIND), coordinate=None)
        out10, out11 = location_outcomes(record, districts, municipalities, cfg)
        assert out10 is None and out11 is None


class TestPowerRange:
    def test_wind_at_22mw_passes(self, grid, cfg):
        record = replace(example_record(grid, Technology.WIND), power_kw=22_000.0)
        assert outcome_of(12, record, cfg) is None

    def test_wind_at_25mw_fails(self, grid, cfg):
        record = replace(example_record(grid, Technology.WIND), power_kw=25_000.0)
        outcome = outcome_of(12, record, cfg)
        assert outcome is not None
        assert outcome.measured == 25_000.0

    def test_zero_power_fails(self, grid, cfg):
        record = replace(example_record(grid, Technology.SOLAR), power_net_kw=0.0)
        assert outcome_of(12, record, cfg) is not None

    @pytest.mark.parametrize(
        "technology,max_mw",
        [
            (Technology.BIOMASS, 150.0),
            (Technology.COMBUSTION, 2000.0),
            (Technology.HYDRO, 1500.0),
            (Technology.SOLAR, 500.0),
            (Technology.STORAGE, 800.0),
            (Technology.WIND, 22.0),
        ],
    )
    def test_upper_bounds_inclusive(self, grid, cfg, technology, max_mw):
        field = "power_net_kw" if technology in (Technology.SOLAR, Technology.STORAGE) else "power_kw"
        at_bound = replace(example_record(grid, technology), **{field: max_mw * 1000.0})
        above = replace(example_record(grid, technology), **{field: max_mw * 1000.0 + 1.0})
        assert outcome_of(12, at_bound, cfg) is None
        assert outcome_of(12, above, cfg) is not None


class TestInstallationYear:
    def test_solar_2017_passes(self, grid, cfg):
        assert outcome_of(13, example_record(grid, Technology.SOLAR), cfg) is None

    def test_storage_1923_fails(self, grid, cfg):
        record = replace(example_record(grid, Technology.STORAGE), installation_year=1923)
        outcome = outcome_of(13, record, cfg)
        assert outcome is not None
        assert outcome.measured == 1923.0

    def test_hydro_1923_passes(self, grid, cfg):
        record = replace(example_record(grid, Technology.HYDRO), installation_year=1923)
        assert outcome_of(13, record, cfg) is None

    @pytest.mark.parametrize("year,expected", [(1980, True), (2030, True), (1979, False), (2031, False)])
    def test_wind_bounds_inclusive(self, grid, cfg, year, expected):
        record = replace(example_record(grid, Technology.WIND), installation_year=year)
        assert (outcome_of(13, record, cfg) is None) is expected


class TestHubHeight:
    def test_example_turbine_passes(self, grid):
        assert outcome_of(14, example_record(grid, Technology.WIND)) is None

    def test_hub_below_radius_fails(self, grid):
        record = replace(example_record(grid, Technology.WIND), hub_height_m=30.0)
        outcome = outcome_of(14, record)
        assert outcome is not None
        assert "rotor radius 41" in outcome.detail

    def test_hub_equal_to_radius_passes(self, grid):
        record = replace(example_record(grid, Technology.WIND), hub_height_m=41.0)
        assert outcome_of(14, record) is None


class TestBalconyPower:
    def _balcony(self, grid, net_kw, **overrides):
        return replace(
            example_record(grid, Technology.SOLAR),
            unit_type="Balkonkraftwerk",
            area_ha=None,
            power_net_kw=net_kw,
            power_gross_kw=net_kw,
            power_inverter_kw=net_kw,
            **overrides,
        )

    def test_legal_balcony_passes(self, grid, cfg):
        assert outcome_of(15, self._balcony(grid, 0.6), cfg) is None

    def test_overpowered_balcony_fails(self, grid, cfg):
        outcome = outcome_of(15, self._balcony(grid, 1.3), cfg)
        assert outcome is not None
        assert outcome.measured == 1.3

    def test_tolerance_bound_passes(self, grid, cfg):
        assert outcome_of(15, self._balcony(grid, 1.2), cfg) is None

    def test_balcony_named_unit_over_5kw_fails(self, grid, cfg):
        record = replace(
            example_record(grid, Technology.SOLAR),
            unit_name="Balkonkraftwerk Müller",
            power_net_kw=6.0,
            power_gross_kw=6.0,
            power_inverter_kw=6.0,
        )
        outcome = outcome_of(15, record, cfg)
        assert outcome is not None
        assert "balcony-named" in outcome.detail

    @pytest.mark.parametrize("keywords", [("balkon",), ("Balkon",), ("BALKON",)], ids=["lower", "title", "upper"])
    def test_keyword_match_is_case_insensitive(self, grid, keywords):
        # The name and the configured keywords both match in any case; the
        # catalog oracle reads the catalog the same way.
        record = replace(
            example_record(grid, Technology.SOLAR),
            unit_name="BALKON Süd",
            power_net_kw=6.0,
            power_gross_kw=6.0,
            power_inverter_kw=6.0,
        )
        config = RuleConfig(balcony_keywords=keywords)
        assert outcome_of(15, record, config) is not None
        assert oracle_15(record, config) is not None


class TestConfig:
    def test_invalid_ranges_rejected(self):
        with pytest.raises(ConfigError):
            RuleConfig(module_power_range_w=(700.0, 50.0))
        with pytest.raises(ConfigError):
            RuleConfig(inverter_ratio_factor=1.0)
        with pytest.raises(ConfigError):
            RuleConfig(buffer_m=-1.0)

    def test_from_dict_overrides(self):
        cfg = RuleConfig.from_dict(
            {"buffer_m": 2000.0, "power_range_mw": {"wind": [0, 30]}, "year_min": {"hydro": 1850}}
        )
        assert cfg.buffer_m == 2000.0
        assert cfg.power_range_mw[Technology.WIND] == (0, 30)
        assert cfg.power_range_mw[Technology.SOLAR] == (0.0, 500.0)
        assert cfg.year_min[Technology.HYDRO] == 1850

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown rule config key"):
            RuleConfig.from_dict({"buffer": 10})

    @pytest.mark.parametrize("name", ["hub_height_m", "power_net_kw", "technology", "voltage"])
    def test_required_field_must_be_carried_by_every_technology(self, name):
        with pytest.raises(ConfigError, match=name):
            RuleConfig(required_fields=("unit_id", name))

    def test_required_fields_take_common_fields_and_power(self):
        assert RuleConfig(required_fields=("owner_id", "power")).required_fields == ("owner_id", "power")


class _Spy:
    """A one-record block stand-in that logs the field of every column read from it."""

    def __init__(self, record: UnitRecord):
        self._record = record
        self.read: set[str] = set()

    def __getitem__(self, pos):
        name = RECORD_FIELDS[pos]
        self.read.add(name)
        return [getattr(self._record, name)]


class TestMatrix:
    def test_full_grid_spans_90_cells(self):
        assert MATRIX_CELL_COUNT == 90
        assert sum(len(techs) for techs in CHECKMARKS.values()) == 53

    def test_checkmarks_match_published_matrix(self):
        all_techs = set(Technology)
        assert CHECKMARKS[1] == CHECKMARKS[2] == CHECKMARKS[5] == frozenset(all_techs)
        assert CHECKMARKS[10] == CHECKMARKS[11] == CHECKMARKS[12] == CHECKMARKS[13] == frozenset(all_techs)
        pair = frozenset({Technology.SOLAR, Technology.STORAGE})
        assert CHECKMARKS[3] == CHECKMARKS[4] == CHECKMARKS[7] == pair
        solar_only = frozenset({Technology.SOLAR})
        assert CHECKMARKS[6] == CHECKMARKS[8] == CHECKMARKS[15] == solar_only
        wind_only = frozenset({Technology.WIND})
        assert CHECKMARKS[9] == CHECKMARKS[14] == wind_only

    def test_fields_read_per_technology(self, config):
        common = {"unit_id", "operating_status", "installation_year", "zip_code", "municipality_id",
                  "district_id", "coordinate"}
        pv_storage = {"power_gross_kw", "power_inverter_kw", "power_net_kw"}
        expected = {
            Technology.BIOMASS: common | {"power_kw"},
            Technology.COMBUSTION: common | {"power_kw"},
            Technology.HYDRO: common | {"power_kw"},
            Technology.SOLAR: common | pv_storage | {"number_of_modules", "unit_type", "area_ha", "unit_name"},
            Technology.STORAGE: common | pv_storage,
            Technology.WIND: common | {"power_kw", "hub_height_m", "rotor_diameter_m"},
        }
        assert {tech: fields_read(config, tech) for tech in Technology} == expected
        owner = RuleConfig(required_fields=("owner_id",))
        assert fields_read(owner, Technology.WIND) == expected[Technology.WIND] - {"operating_status"} | {"owner_id"}

    def test_reads_name_every_field_a_check_reads(self, grid, config):
        # Each applicable check runs on one-record blocks of clean and
        # failing synth records; a spy logs every column it asks for. The
        # reads of a row are exactly what its check reads.
        def resolve(names, tech):
            return {POWER_FIELD[tech] if name == "power" else name for name in names}

        for tech in Technology:
            clean = generate_clean(tech, 40, 11, grid)
            dirty, _ = inject_errors(clean, ErrorInjectionSpec.uniform(1.0, tech, len(clean)), 11, boundaries=grid)
            for test in CATALOG:
                if test.compile is None or tech not in CHECKMARKS[test.test_id]:
                    continue
                check = test.compile(config, tech, grid, test.fail)
                declared = resolve(test.reads, tech)
                if test.test_id == 1:
                    declared |= resolve(config.required_fields, tech)
                read: set[str] = set()
                for record in (*clean, *dirty):
                    spy = _Spy(record)
                    check(spy)
                    read |= spy.read
                # A check reads no unit id to key its failure: the suite does.
                assert read <= declared, (test.test_id, tech.value, read - declared)
                assert declared <= read, (test.test_id, tech.value, declared - read)

    def test_evaluate_record_respects_checkmarks(self, grid, indexed_grid, config):
        districts, municipalities = indexed_grid
        for tech in Technology:
            outcomes = evaluate_record(example_record(grid, tech), config, districts, municipalities)
            applied = set(outcomes)
            expected = {tid for tid, techs in CHECKMARKS.items() if tech in techs} - {2}
            assert applied == expected

    def test_storage_never_sees_solar_or_wind_tests(self, grid, indexed_grid, config):
        districts, municipalities = indexed_grid
        outcomes = evaluate_record(
            example_record(grid, Technology.STORAGE), config, districts, municipalities
        )
        assert set(outcomes).isdisjoint({6, 8, 9, 14, 15})


class TestRunSuite:
    def test_example_rows_all_pass(self, grid, example_records, config):
        result = run_suite(list(example_records.values()), grid, config)
        assert result.failures == []
        assert result.total_records == 6

    def test_multi_test_failure_aggregates_into_one_record(self, grid, config):
        bad = replace(
            example_record(grid, Technology.SOLAR),
            number_of_modules=1,  # test 6: 5000 W per module
            power_inverter_kw=5000.0,  # test 7: ratio 1000
        )
        result = run_suite([bad], grid, config)
        (failure,) = result.failures
        assert failure.test_ids == (6, 7)

    def test_duplicate_ids_merge_with_other_failures(self, grid, config):
        a = example_record(grid, Technology.WIND)
        b = replace(example_record(grid, Technology.WIND), hub_height_m=10.0)
        b = replace(b, unit_id=a.unit_id)
        result = run_suite([a, b], grid, config)
        assert len(result.failures) == 2
        assert result.failures[0].test_ids == (2,)
        assert result.failures[1].test_ids == (2, 14)

    def test_deterministic_and_worker_independent(self, grid, config):
        records_in = []
        for tech in Technology:
            records_in.extend(generate_clean(tech, 120, 21, grid))
        spec = ErrorInjectionSpec(rates={"magnitude_mixup": 10, "zip_malformed": 5, "duplicate_id": 3})
        mutated, _ = inject_errors(records_in, spec, 21, boundaries=grid)
        first = run_suite(mutated, grid, config)
        second = run_suite(mutated, grid, config)
        assert first.failures == second.failures
        parallel = run_suite(mutated, grid, config, jobs=2)
        assert parallel.failures == first.failures
        assert parallel.records_total == first.records_total

    def test_suite_equals_union_of_independent_results(self, grid, indexed_grid, config):
        districts, municipalities = indexed_grid
        records_in = []
        for tech in Technology:
            records_in.extend(generate_clean(tech, 80, 5, grid))
        spec = ErrorInjectionSpec(
            rates={
                "magnitude_mixup": 6,
                "null_required_field": 6,
                "duplicate_id": 2,
                "implausible_year": 6,
                "coordinate_displacement": 4,
                "zip_malformed": 4,
            }
        )
        mutated, _ = inject_errors(records_in, spec, 9, boundaries=grid)
        suite = run_suite(mutated, grid, config)
        suite_map = {}
        for fr in suite.failures:
            suite_map.setdefault(fr.unit_id, []).extend(fr.failed)

        independent = {}
        for record in mutated:
            failed = [
                o
                for o in evaluate_record(record, config, districts, municipalities).values()
                if o is not None
            ]
            if failed:
                independent.setdefault(record.unit_id, []).extend(failed)
        for uid, outcome in check_unique_ids(mutated):
            independent.setdefault(uid, []).append(outcome)

        assert set(suite_map) == set(independent)
        for uid, outcomes in independent.items():
            assert sorted(suite_map[uid], key=lambda o: o.test_id) == sorted(
                outcomes, key=lambda o: o.test_id
            )

    def test_bookkeeping_peak_stays_under_140_bytes_per_record(self, grid, config):
        records = [record for tech in Technology for record in generate_clean(tech, 1000, 11, grid)]
        run_suite(records, None, config)  # warm-up
        # A full collection empties the interpreter's tuple free lists, so
        # that every tuple the suite keeps is a traced allocation.
        gc.collect()
        tracemalloc.start()
        try:
            run_suite(records, None, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(records) <= 140

    def test_suite_without_boundaries_skips_location_tests(self, grid, config):
        record = replace(example_record(grid, Technology.WIND), coordinate=(0.0, 0.0))
        result = run_suite([record], None, config)
        assert result.failures == []
        assert 10 not in result.evaluated_tests
        assert 11 not in result.evaluated_tests

    def test_evaluated_counts_follow_matrix(self, grid, example_records, config):
        records = list(example_records.values())
        counts = evaluated_counts(run_suite(records, grid, config), records)
        assert all(tech in CHECKMARKS[tid] for tid, tech in counts)
        assert counts[(1, Technology.WIND)] == 1
        assert (6, Technology.WIND) not in counts

    @settings(max_examples=120, deadline=None)
    @given(record=records())
    def test_null_ownership_no_crashes(self, config, record):
        outcomes = evaluate_record(record, config)
        failing = {test_id for test_id, o in outcomes.items() if o is not None}
        required_null = (
            record.unit_id is None
            or record.municipality_id is None
            or record.operating_status is None
            or (
                record.power_net_kw is None
                if record.technology in (Technology.SOLAR, Technology.STORAGE)
                else record.power_kw is None
            )
        )
        assert required_null == (1 in failing)


class TestBlockPath:
    """validate runs the suite on the reader's blocks (run_blocks); run_suite
    groups records into blocks of its own. Both give the same FailureSet."""

    @pytest.mark.parametrize("dso_only", [False, True])
    def test_records_and_reader_blocks_give_one_result(self, reference_tables, grid, config, dso_only):
        def readers():
            return [
                RegistryReader(reference_tables / f"{tech.value}.csv", tech, dso_only=dso_only)
                for tech in sorted(Technology, key=lambda tech: tech.value)
            ]

        from_records = run_suite([record for reader in readers() for record in reader], grid, config)
        from_blocks = run_blocks((block for reader in readers() for block in reader.blocks()), grid, config)
        assert from_blocks == from_records
        assert from_blocks.failures and from_blocks.records_dso

    def test_a_check_gives_each_row_its_failure_or_none(self, reference_tables, config):
        # Every compiled check of every technology, on the reference
        # fixture's tables and boundaries: one result per row, None for a
        # pass and a failing RuleOutcome otherwise. Their failures are the
        # suite's, test 2 aside.
        boundaries = Boundaries(
            parse_boundaries(reference_tables / "districts.geojson", "district"),
            parse_boundaries(reference_tables / "municipalities.geojson", "municipality"),
        )
        checks, evaluated = _compile(config, boundaries)
        assert evaluated == tuple(test.test_id for test in CATALOG)
        failed = Counter()
        for tech in Technology:
            assert len(checks[tech]) == sum(tech in techs for techs in CHECKMARKS.values()) - 1  # test 2
            for count, block in RegistryReader(reference_tables / f"{tech.value}.csv", tech).blocks():
                for test, check in checks[tech]:
                    results = check(block)
                    assert len(results) == count
                    outcomes = [result for result in results if result is not None]
                    assert all(type(o) is RuleOutcome and o.test_id == test.test_id for o in outcomes)
                    failed[test.test_id] += len(outcomes)
        readers = [RegistryReader(reference_tables / f"{tech.value}.csv", tech) for tech in Technology]
        suite = run_blocks((block for reader in readers for block in reader.blocks()), boundaries, config)
        from_suite = Counter(test_id for failure in suite.failures for test_id in failure.test_ids if test_id != 2)
        assert failed == from_suite and len(failed) > 5

    def test_duplicate_id_across_tables_and_a_block_edge_keeps_input_order(self, tmp_path, grid, config):
        solar = generate_clean(Technology.SOLAR, 3, 3, grid)
        wind = generate_clean(Technology.WIND, BLOCK_ROWS + 2, 4, grid)
        uid = wind[BLOCK_ROWS - 1].unit_id  # the last row of the first block
        wind[BLOCK_ROWS] = replace(wind[BLOCK_ROWS], unit_id=uid)  # the first row of the second
        solar[1] = replace(solar[1], unit_id=uid)
        for tech, records_out in ((Technology.SOLAR, solar), (Technology.WIND, wind)):
            write_registry_csv(records_out, tmp_path / f"{tech.value}.csv", tech)
        readers = [RegistryReader(tmp_path / f"{tech.value}.csv", tech) for tech in (Technology.SOLAR, Technology.WIND)]
        result = run_blocks((block for reader in readers for block in reader.blocks()), grid, config)
        assert [(fr.unit_id, fr.technology, fr.power_kw, fr.test_ids) for fr in result.failures] == [
            (uid, Technology.SOLAR, solar[1].power_net_kw, (2,)),
            (uid, Technology.WIND, wind[BLOCK_ROWS - 1].power_kw, (2,)),
            (uid, Technology.WIND, wind[BLOCK_ROWS].power_kw, (2,)),
        ]
        assert {fr.failed[0].measured for fr in result.failures} == {3.0}
        assert run_suite(solar + wind, grid, config) == result
