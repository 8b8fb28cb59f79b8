"""The data-test catalog and suite runner.

Fifteen per-unit tests cover nulls, id uniqueness and formats, power
ordering and plausibility, system-size consistency (modules, inverter,
area, rotor), buffered location containment, installation years, hub
height and balcony-class capacity. Each test applies only to the
technologies it is defined for; the full test-by-technology grid spans
15 x 6 = 90 test instances, of which the 53 check-marked cells are
evaluated.

Every check is a pure function of one record; uniqueness is the one
suite-level test.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial
from typing import Callable, Iterable, NamedTuple

from .geo import BoundarySet, outside_clearance_m
from .model import FailureRecord, RuleOutcome, Technology, UnitRecord, power_of

_ALL = frozenset(Technology)

# Which technologies each test applies to.
CHECKMARKS: dict[int, frozenset[Technology]] = {
    1: _ALL,
    2: _ALL,
    3: frozenset({Technology.SOLAR, Technology.STORAGE}),
    4: frozenset({Technology.SOLAR, Technology.STORAGE}),
    5: _ALL,
    6: frozenset({Technology.SOLAR}),
    7: frozenset({Technology.SOLAR, Technology.STORAGE}),
    8: frozenset({Technology.SOLAR}),
    9: frozenset({Technology.WIND}),
    10: _ALL,
    11: _ALL,
    12: _ALL,
    13: _ALL,
    14: frozenset({Technology.WIND}),
    15: frozenset({Technology.SOLAR}),
}

TEST_IDS: tuple[int, ...] = tuple(sorted(CHECKMARKS))
MATRIX_CELL_COUNT = len(CHECKMARKS) * len(Technology)  # full grid: 90
CHECKED_PAIR_COUNT = sum(len(techs) for techs in CHECKMARKS.values())  # 53


class ConfigError(ValueError):
    """Raised for rule configurations that violate their invariants."""


def _default_power_range_mw() -> dict[Technology, tuple[float, float]]:
    return {
        Technology.BIOMASS: (0.0, 150.0),
        Technology.COMBUSTION: (0.0, 2000.0),
        Technology.HYDRO: (0.0, 1500.0),
        Technology.SOLAR: (0.0, 500.0),
        Technology.STORAGE: (0.0, 800.0),
        Technology.WIND: (0.0, 22.0),
    }


def _default_year_min() -> dict[Technology, int]:
    # Wind, solar and batteries are young technologies; the older classes
    # accept earlier installation years.
    return {
        Technology.BIOMASS: 1900,
        Technology.COMBUSTION: 1900,
        Technology.HYDRO: 1900,
        Technology.SOLAR: 1980,
        Technology.STORAGE: 1980,
        Technology.WIND: 1980,
    }


@dataclass(frozen=True)
class RuleConfig:
    """Thresholds and patterns for the test catalog.

    Defaults are the published reference values; every field can be
    overridden from the run configuration file.
    """

    required_fields: tuple[str, ...] = ("unit_id", "municipality_id", "operating_status", "power")
    unit_id_pattern: str = r"[A-Z]{3}\d{12}"
    municipality_id_pattern: str = r"\d{8}"
    zip_pattern: str = r"\d{5}"
    module_power_range_w: tuple[float, float] = (50.0, 700.0)
    inverter_ratio_factor: float = 20.0
    area_density_range_mw_per_ha: tuple[float, float] = (0.05, 1.5)
    rotor_specific_power_range_w_per_m2: tuple[float, float] = (160.0, 700.0)
    buffer_m: float = 1500.0
    power_range_mw: dict[Technology, tuple[float, float]] = field(default_factory=_default_power_range_mw)
    year_min: dict[Technology, int] = field(default_factory=_default_year_min)
    year_max: int = 2030
    balcony_limit_kw: float = 1.0
    balcony_tolerance_kw: float = 0.2
    balcony_name_limit_kw: float = 5.0
    balcony_keywords: tuple[str, ...] = ("balkon", "balcony")
    balcony_unit_types: tuple[str, ...] = ("Balkonkraftwerk",)
    ground_unit_types: tuple[str, ...] = ("Freifläche",)

    def __post_init__(self) -> None:
        for name in ("module_power_range_w", "area_density_range_mw_per_ha", "rotor_specific_power_range_w_per_m2"):
            low, high = getattr(self, name)
            if not low < high:
                raise ConfigError(f"{name}: lower bound must be below upper bound")
        for tech, (low, high) in self.power_range_mw.items():
            if not low < high:
                raise ConfigError(f"power_range_mw[{tech.value}]: lower bound must be below upper bound")
        for tech, year in self.year_min.items():
            if year >= self.year_max:
                raise ConfigError(f"year_min[{tech.value}] must be below year_max")
        if self.inverter_ratio_factor <= 1:
            raise ConfigError("inverter_ratio_factor must be > 1")
        if self.buffer_m < 0:
            raise ConfigError("buffer_m must be >= 0")
        if self.balcony_tolerance_kw < 0:
            raise ConfigError("balcony_tolerance_kw must be >= 0")

    @classmethod
    def from_dict(cls, payload: dict) -> RuleConfig:
        known = {f.name for f in fields(cls)}
        kwargs: dict = {}
        for key, value in payload.items():
            if key not in known:
                raise ConfigError(f"unknown rule config key {key!r}")
            if key in ("power_range_mw", "year_min"):
                base = _default_power_range_mw() if key == "power_range_mw" else _default_year_min()
                for tech_name, bounds in value.items():
                    tech = Technology(tech_name)
                    base[tech] = tuple(bounds) if key == "power_range_mw" else int(bounds)
                value = base
            elif isinstance(value, list):
                value = tuple(value)
            kwargs[key] = value
        return cls(**kwargs)


@lru_cache(maxsize=32)
def _compiled(pattern: str) -> re.Pattern:
    return re.compile(pattern)


def _passed(record: UnitRecord, test_id: int, detail: str = "", measured: float | None = None,
            measured_unit: str | None = None) -> RuleOutcome:
    return RuleOutcome(record.unit_id, test_id, True, detail, measured, measured_unit)


def _failed(record: UnitRecord, test_id: int, detail: str, measured: float | None = None,
            measured_unit: str | None = None) -> RuleOutcome:
    return RuleOutcome(record.unit_id, test_id, False, detail, measured, measured_unit)


def check_required_fields(record: UnitRecord, config: RuleConfig) -> RuleOutcome:
    """Test 1: required fields must not be null."""
    nulls = []
    for name in config.required_fields:
        value = power_of(record) if name == "power" else getattr(record, name)
        if value is None:
            nulls.append(name)
    if nulls:
        return _failed(record, 1, "null required fields: " + ", ".join(nulls))
    return _passed(record, 1)


def check_unique_ids(records: Iterable[UnitRecord]) -> list[RuleOutcome]:
    """Test 2 (suite-level): one failure per record in a duplicate-id group.

    Single pass; memory grows with the number of distinct ids only.
    Records without an id are test 1's concern and are skipped here.
    """
    counts: Counter[str] = Counter()
    for record in records:
        if record.unit_id is not None:
            counts[record.unit_id] += 1
    out = []
    for unit_id in sorted(counts):
        n = counts[unit_id]
        if n >= 2:
            outcome = RuleOutcome(unit_id, 2, False, f"duplicate unit id ({n} records)", float(n), "records")
            out.extend([outcome] * n)
    return out


def check_gross_vs_net(record: UnitRecord) -> RuleOutcome:
    """Test 3: gross power must be at least net power (solar, storage)."""
    gross, net = record.power_gross_kw, record.power_net_kw
    if gross is None or net is None:
        return _passed(record, 3)
    if gross < net:
        return _failed(record, 3, f"gross power {gross} kW below net power {net} kW", net - gross, "kW")
    return _passed(record, 3)


def check_inverter_vs_net(record: UnitRecord) -> RuleOutcome:
    """Test 4: inverter power must be at least net power (solar, storage)."""
    inverter, net = record.power_inverter_kw, record.power_net_kw
    if inverter is None or net is None:
        return _passed(record, 4)
    if inverter < net:
        return _failed(record, 4, f"inverter power {inverter} kW below net power {net} kW", net - inverter, "kW")
    return _passed(record, 4)


def check_id_formats(record: UnitRecord, config: RuleConfig) -> RuleOutcome:
    """Test 5: unit id, municipality id and zip code match their patterns."""
    bad = []
    if record.unit_id is not None and _compiled(config.unit_id_pattern).fullmatch(record.unit_id) is None:
        bad.append("unit_id")
    if (
        record.municipality_id is not None
        and _compiled(config.municipality_id_pattern).fullmatch(record.municipality_id) is None
    ):
        bad.append("municipality_id")
    if record.zip_code is not None and _compiled(config.zip_pattern).fullmatch(record.zip_code) is None:
        bad.append("zip_code")
    if bad:
        return _failed(record, 5, "fields not matching pattern: " + ", ".join(bad))
    return _passed(record, 5)


def check_module_power(record: UnitRecord, config: RuleConfig) -> RuleOutcome:
    """Test 6: gross power per module within the accepted range (solar)."""
    gross, modules = record.power_gross_kw, record.number_of_modules
    if gross is None or modules is None:
        return _passed(record, 6)
    if modules == 0:
        return _failed(record, 6, "zero modules")
    per_module_w = gross * 1000.0 / modules
    low, high = config.module_power_range_w
    if not low <= per_module_w <= high:
        return _failed(
            record, 6, f"{per_module_w:.1f} W per module outside [{low:g}, {high:g}] W",
            per_module_w, "W/module",
        )
    return _passed(record, 6, measured=per_module_w, measured_unit="W/module")


def check_inverter_ratio(record: UnitRecord, config: RuleConfig) -> RuleOutcome:
    """Test 7: gross and inverter power may not differ by the mixup factor.

    Symmetric: the larger of the two ratios is compared, so the verdict
    does not depend on which of the fields carries the error.
    """
    gross, inverter = record.power_gross_kw, record.power_inverter_kw
    if gross is None or inverter is None:
        return _passed(record, 7)
    if gross == 0 or inverter == 0:
        return _failed(record, 7, "zero power")
    ratio = max(gross / inverter, inverter / gross)
    if ratio >= config.inverter_ratio_factor:
        return _failed(
            record, 7, f"gross/inverter power differ by factor {ratio:.1f}", ratio, "ratio",
        )
    return _passed(record, 7, measured=ratio, measured_unit="ratio")


def check_area_density(record: UnitRecord, config: RuleConfig) -> RuleOutcome:
    """Test 8: power density of ground-mounted PV within the accepted range."""
    if record.unit_type not in config.ground_unit_types:
        return _passed(record, 8)
    gross, area = record.power_gross_kw, record.area_ha
    if gross is None or area is None:
        return _passed(record, 8)
    if area <= 0:
        return _failed(record, 8, "non-positive area")
    density = gross / 1000.0 / area
    low, high = config.area_density_range_mw_per_ha
    if not low <= density <= high:
        return _failed(
            record, 8, f"{density:.3f} MW/ha outside [{low:g}, {high:g}] MW/ha", density, "MW/ha",
        )
    return _passed(record, 8, measured=density, measured_unit="MW/ha")


def check_rotor_power(record: UnitRecord, config: RuleConfig) -> RuleOutcome:
    """Test 9: wind power per rotor swept area within the accepted range."""
    power, diameter = record.power_kw, record.rotor_diameter_m
    if power is None or diameter is None:
        return _passed(record, 9)
    if diameter <= 0:
        return _failed(record, 9, "non-positive rotor diameter")
    swept = math.pi * (diameter / 2.0) ** 2
    if swept == 0.0:
        return _failed(record, 9, "rotor swept area rounds to zero")
    specific = power * 1000.0 / swept
    low, high = config.rotor_specific_power_range_w_per_m2
    if not low <= specific <= high:
        return _failed(
            record, 9, f"{specific:.1f} W/m2 outside [{low:g}, {high:g}] W/m2", specific, "W/m2",
        )
    return _passed(record, 9, measured=specific, measured_unit="W/m2")


def _location_failure(
    record: UnitRecord,
    test_id: int,
    region_id: str | None,
    level: BoundarySet,
    buffer_m: float,
) -> RuleOutcome | None:
    """None if the record passes test 10/11 at this level, else its failure.

    The boundary clearance is computed once: it decides the buffer verdict
    and is the failure's measured distance.
    """
    if record.coordinate is None or region_id is None:
        return None
    region = level.regions.get(region_id)
    if region is None:
        return _failed(record, test_id, f"unknown region key {region_id!r} ({level.level})")
    lat, lon = record.coordinate
    clearance = outside_clearance_m(lat, lon, region)
    if clearance is None or (buffer_m > 0.0 and clearance <= buffer_m):
        return None
    return _failed(
        record, test_id, f"coordinate {clearance:.0f} m outside registered {level.level} {region_id}",
        clearance, "m",
    )


def _location_outcome(
    record: UnitRecord,
    test_id: int,
    region_id: str | None,
    level: BoundarySet | None,
    config: RuleConfig,
) -> RuleOutcome:
    failure = None if level is None else _location_failure(record, test_id, region_id, level, config.buffer_m)
    return _passed(record, test_id) if failure is None else failure


def check_location(
    record: UnitRecord,
    districts: BoundarySet | None,
    municipalities: BoundarySet | None,
    config: RuleConfig,
) -> tuple[RuleOutcome, RuleOutcome]:
    """Tests 10 and 11: coordinates lie in the registered district and
    municipality, up to the configured buffer around each boundary."""
    return (
        _location_outcome(record, 10, record.district_id, districts, config),
        _location_outcome(record, 11, record.municipality_id, municipalities, config),
    )


def check_power_range(record: UnitRecord, config: RuleConfig) -> RuleOutcome:
    """Test 12: installed power within the technology's plausible range.

    Lower bound exclusive (power must be positive), upper bound inclusive.
    """
    power = power_of(record)
    if power is None:
        return _passed(record, 12)
    low_mw, high_mw = config.power_range_mw[record.technology]
    if not low_mw * 1000.0 < power <= high_mw * 1000.0:
        return _failed(
            record, 12, f"power {power:g} kW outside ({low_mw:g} MW, {high_mw:g} MW]", power, "kW",
        )
    return _passed(record, 12, measured=power, measured_unit="kW")


def check_installation_year(record: UnitRecord, config: RuleConfig) -> RuleOutcome:
    """Test 13: installation year within the technology's accepted window."""
    year = record.installation_year
    if year is None:
        return _passed(record, 13)
    low = config.year_min[record.technology]
    if not low <= year <= config.year_max:
        return _failed(record, 13, f"installation year {year} outside [{low}, {config.year_max}]",
                       float(year), "year")
    return _passed(record, 13, measured=float(year), measured_unit="year")


def check_hub_height(record: UnitRecord) -> RuleOutcome:
    """Test 14: hub height must not be below the rotor radius (wind)."""
    hub, diameter = record.hub_height_m, record.rotor_diameter_m
    if hub is None or diameter is None:
        return _passed(record, 14)
    radius = diameter / 2.0
    if hub < radius:
        return _failed(record, 14, f"hub height {hub:g} m below rotor radius {radius:g} m", hub, "m")
    return _passed(record, 14, measured=hub, measured_unit="m")


def check_balcony_power(record: UnitRecord, config: RuleConfig) -> RuleOutcome:
    """Test 15: balcony PV must stay small.

    Balcony-typed units: net power up to the legal limit plus tolerance.
    Units merely named like balcony installations get a looser cap.
    """
    net = record.power_net_kw
    if net is None:
        return _passed(record, 15)
    problems = []
    if record.unit_type in config.balcony_unit_types:
        cap = config.balcony_limit_kw + config.balcony_tolerance_kw
        if net > cap:
            problems.append(f"balcony unit with net power {net:g} kW > {cap:g} kW")
    if record.unit_name is not None:
        lowered = record.unit_name.lower()
        if any(keyword in lowered for keyword in config.balcony_keywords):
            if net > config.balcony_name_limit_kw:
                problems.append(
                    f"balcony-named unit with net power {net:g} kW > {config.balcony_name_limit_kw:g} kW"
                )
    if problems:
        return _failed(record, 15, " / ".join(problems), net, "kW")
    return _passed(record, 15)


CheckFn = Callable[[UnitRecord], RuleOutcome]


def _build_checks(
    config: RuleConfig,
    districts: BoundarySet | None,
    municipalities: BoundarySet | None,
) -> dict[Technology, tuple[tuple[int, CheckFn], ...]]:
    """Per-technology list of (test_id, callable) honoring the check-mark matrix.

    Tests 10/11 are only compiled in when boundaries are supplied; test 2
    is suite-level and handled by the runner.
    """
    per_test: dict[int, CheckFn] = {
        1: partial(check_required_fields, config=config),
        3: check_gross_vs_net,
        4: check_inverter_vs_net,
        5: partial(check_id_formats, config=config),
        6: partial(check_module_power, config=config),
        7: partial(check_inverter_ratio, config=config),
        8: partial(check_area_density, config=config),
        9: partial(check_rotor_power, config=config),
        12: partial(check_power_range, config=config),
        13: partial(check_installation_year, config=config),
        14: check_hub_height,
        15: partial(check_balcony_power, config=config),
    }
    if districts is not None:
        per_test[10] = lambda r: _location_outcome(r, 10, r.district_id, districts, config)
    if municipalities is not None:
        per_test[11] = lambda r: _location_outcome(r, 11, r.municipality_id, municipalities, config)
    return {
        tech: tuple((tid, per_test[tid]) for tid in TEST_IDS if tid in per_test and tech in CHECKMARKS[tid])
        for tech in Technology
    }


def evaluate_record(
    record: UnitRecord,
    config: RuleConfig | None = None,
    districts: BoundarySet | None = None,
    municipalities: BoundarySet | None = None,
) -> list[RuleOutcome]:
    """All applicable per-record outcomes (passes included), by test id."""
    config = config or RuleConfig()
    checks = _build_checks(config, districts, municipalities)
    return [fn(record) for _, fn in checks[record.technology]]


def _build_fast_checks(
    config: RuleConfig,
    districts: BoundarySet | None,
    municipalities: BoundarySet | None,
) -> dict[Technology, tuple[Callable[[UnitRecord], RuleOutcome | None], ...]]:
    """Suite-loop variants of the checks: None on pass, outcome on failure.

    Each closure tests a conservative superset of its check's failure
    condition and delegates to the public check function to build the
    actual outcome, so verdict text and measured values never diverge
    from the per-test route (the suite/union property test guards this).
    """
    req = config.required_fields
    unit_id_re = _compiled(config.unit_id_pattern)
    muni_re = _compiled(config.municipality_id_pattern)
    zip_re = _compiled(config.zip_pattern)
    mod_low, mod_high = config.module_power_range_w
    ratio_factor = config.inverter_ratio_factor
    dens_low, dens_high = config.area_density_range_mw_per_ha
    sp_low, sp_high = config.rotor_specific_power_range_w_per_m2
    year_max = config.year_max
    balcony_cap = config.balcony_limit_kw + config.balcony_tolerance_kw
    buffer_m = config.buffer_m

    def f_required(r):
        for name in req:
            if (power_of(r) if name == "power" else getattr(r, name)) is None:
                return check_required_fields(r, config)
        return None

    def f_gross_net(r):
        g, n = r.power_gross_kw, r.power_net_kw
        if g is not None and n is not None and g < n:
            return check_gross_vs_net(r)
        return None

    def f_inverter_net(r):
        i, n = r.power_inverter_kw, r.power_net_kw
        if i is not None and n is not None and i < n:
            return check_inverter_vs_net(r)
        return None

    def f_formats(r):
        if (
            (r.unit_id is not None and unit_id_re.fullmatch(r.unit_id) is None)
            or (r.municipality_id is not None and muni_re.fullmatch(r.municipality_id) is None)
            or (r.zip_code is not None and zip_re.fullmatch(r.zip_code) is None)
        ):
            return check_id_formats(r, config)
        return None

    def f_modules(r):
        g, m = r.power_gross_kw, r.number_of_modules
        if g is not None and m is not None and (m == 0 or not mod_low <= g * 1000.0 / m <= mod_high):
            return check_module_power(r, config)
        return None

    def f_ratio(r):
        g, i = r.power_gross_kw, r.power_inverter_kw
        if g is None or i is None:
            return None
        if g == 0 or i == 0 or max(g / i, i / g) >= ratio_factor:
            return check_inverter_ratio(r, config)
        return None

    def f_density(r):
        if r.unit_type not in config.ground_unit_types:
            return None
        g, a = r.power_gross_kw, r.area_ha
        if g is not None and a is not None and (a <= 0 or not dens_low <= g / 1000.0 / a <= dens_high):
            return check_area_density(r, config)
        return None

    def f_rotor(r):
        p, d = r.power_kw, r.rotor_diameter_m
        if p is None or d is None:
            return None
        swept = math.pi * (d / 2.0) ** 2
        if d <= 0 or swept == 0.0 or not sp_low <= p * 1000.0 / swept <= sp_high:
            return check_rotor_power(r, config)
        return None

    def f_power_range(r):
        p = power_of(r)
        if p is None:
            return None
        low_mw, high_mw = config.power_range_mw[r.technology]
        if not low_mw * 1000.0 < p <= high_mw * 1000.0:
            return check_power_range(r, config)
        return None

    def f_year(r):
        y = r.installation_year
        if y is not None and not config.year_min[r.technology] <= y <= year_max:
            return check_installation_year(r, config)
        return None

    def f_hub(r):
        h, d = r.hub_height_m, r.rotor_diameter_m
        if h is not None and d is not None and h < d / 2.0:
            return check_hub_height(r)
        return None

    def f_balcony(r):
        n = r.power_net_kw
        if n is None:
            return None
        if r.unit_type in config.balcony_unit_types and n > balcony_cap:
            return check_balcony_power(r, config)
        if n > config.balcony_name_limit_kw and r.unit_name is not None:
            lowered = r.unit_name.lower()
            if any(k in lowered for k in config.balcony_keywords):
                return check_balcony_power(r, config)
        return None

    per_test: dict[int, Callable[[UnitRecord], RuleOutcome | None]] = {
        1: f_required,
        3: f_gross_net,
        4: f_inverter_net,
        5: f_formats,
        6: f_modules,
        7: f_ratio,
        8: f_density,
        9: f_rotor,
        12: f_power_range,
        13: f_year,
        14: f_hub,
        15: f_balcony,
    }

    if districts is not None:
        per_test[10] = lambda r: _location_failure(r, 10, r.district_id, districts, buffer_m)
    if municipalities is not None:
        per_test[11] = lambda r: _location_failure(r, 11, r.municipality_id, municipalities, buffer_m)
    return {
        tech: tuple(per_test[tid] for tid in TEST_IDS if tid in per_test and tech in CHECKMARKS[tid])
        for tech in Technology
    }


class Boundaries(NamedTuple):
    districts: BoundarySet | None = None
    municipalities: BoundarySet | None = None


@dataclass
class FailureSet:
    """Results of one suite run: all failures plus the run's accounting."""

    failures: list[FailureRecord]
    records_total: dict[Technology, int]
    records_dso: dict[Technology, int]
    failure_tally: dict[tuple[int, Technology], int]
    evaluated_tests: tuple[int, ...]

    @property
    def total_records(self) -> int:
        return sum(self.records_total.values())

    def evaluated_counts(self) -> dict[tuple[int, Technology], int]:
        """Records passed through each evaluated (test, technology) cell."""
        return {
            (tid, tech): self.records_total.get(tech, 0)
            for tid in self.evaluated_tests
            for tech in sorted(CHECKMARKS[tid], key=lambda t: t.value)
        }

    def failing_unit_count(self, technology: Technology | None = None) -> int:
        """Distinct failing unit ids (records without an id count singly)."""
        seen = set()
        anonymous = 0
        for fr in self.failures:
            if technology is not None and fr.technology is not technology:
                continue
            if fr.unit_id is None:
                anonymous += 1
            else:
                seen.add(fr.unit_id)
        return len(seen) + anonymous


# (unit_id, technology value, power_kw, district_id, municipality_id, dso). Only
# atomic values, so the collector stops tracking these tuples at its first pass.
_Meta = tuple


class SuiteTally:
    """Totals, unit ids and failures of a record stream, keyed by ordinal.

    Uniqueness bookkeeping keeps (ordinal, meta) of the first record per
    id and of every record of an id that collides: memory is O(distinct
    ids) + O(duplicates) + O(failures).
    """

    def __init__(self) -> None:
        self.totals: Counter[Technology] = Counter()
        self.dso_totals: Counter[Technology] = Counter()
        self.first_seen: dict[str, tuple[int, _Meta]] = {}
        self.dup_members: dict[str, list[tuple[int, _Meta]]] = {}
        self.failures: dict[int, tuple[_Meta, list[RuleOutcome]]] = {}

    def _see(self, uid: str, ordinal: int, meta: _Meta) -> None:
        entry = self.first_seen.pop(uid, None)
        if entry is not None:
            self.dup_members[uid] = [entry, (ordinal, meta)]
        elif uid in self.dup_members:
            self.dup_members[uid].append((ordinal, meta))
        else:
            self.first_seen[uid] = (ordinal, meta)

    def failure_set(self, districts: bool, municipalities: bool) -> FailureSet:
        """The suite result, once per tally; the flags say which location
        levels ran."""
        failures_map = self.failures
        # Suite-level test 2: every record of a duplicate-id group fails.
        for uid, members in self.dup_members.items():
            n = len(members)
            outcome = RuleOutcome(uid, 2, False, f"duplicate unit id ({n} records)", float(n), "records")
            for ordinal, meta in members:
                entry = failures_map.get(ordinal)
                if entry is None:
                    failures_map[ordinal] = (meta, [outcome])
                else:
                    entry[1].append(outcome)

        tally: Counter[tuple[int, Technology]] = Counter()
        failures: list[FailureRecord] = []
        for ordinal in sorted(failures_map, key=lambda o: (failures_map[o][0][0] or "", o)):
            meta, outcomes = failures_map[ordinal]
            outcomes.sort(key=lambda o: o.test_id)
            technology = Technology(meta[1])
            for outcome in outcomes:
                tally[(outcome.test_id, technology)] += 1
            failures.append(
                FailureRecord(
                    unit_id=meta[0],
                    technology=technology,
                    power_kw=meta[2],
                    district_id=meta[3],
                    municipality_id=meta[4],
                    dso_inspected=meta[5],
                    failed=tuple(outcomes),
                )
            )

        evaluated = tuple(
            tid for tid in TEST_IDS if not (tid == 10 and not districts) and not (tid == 11 and not municipalities)
        )
        return FailureSet(
            failures=failures,
            records_total=dict(self.totals),
            records_dso=dict(self.dso_totals),
            failure_tally=dict(tally),
            evaluated_tests=evaluated,
        )


def _evaluate(records: Iterable[UnitRecord], checks) -> SuiteTally:
    """Run the per-record checks of _build_fast_checks over a stream."""
    part = SuiteTally()
    totals = part.totals
    dso_totals = part.dso_totals
    failures = part.failures
    first_seen = part.first_seen
    dup_members = part.dup_members
    net_power = (Technology.SOLAR, Technology.STORAGE)
    for i, record in enumerate(records):
        tech = record.technology
        totals[tech] += 1
        dso = record.grid_operator_inspection is True
        if dso:
            dso_totals[tech] += 1
        failed = None
        for fn in checks[tech]:
            outcome = fn(record)
            if outcome is not None:
                if failed is None:
                    failed = [outcome]
                else:
                    failed.append(outcome)
        uid = record.unit_id
        if failed is None and uid is None:
            continue
        # power_of(record) is inlined: this loop runs once per record.
        meta = (
            uid,
            tech.value,
            record.power_net_kw if tech in net_power else record.power_kw,
            record.district_id,
            record.municipality_id,
            dso,
        )
        if failed is not None:
            failures[i] = (meta, failed)
        if uid is not None:
            if uid in first_seen or uid in dup_members:
                part._see(uid, i, meta)
            else:
                first_seen[uid] = (i, meta)
    return part


def run_suite(
    records: Iterable[UnitRecord],
    boundaries: Boundaries | tuple | None = None,
    config: RuleConfig | None = None,
    *,
    jobs: int = 1,
) -> FailureSet:
    """Apply the full catalog to a record stream.

    Emits one FailureRecord per unit failing at least one test, sorted by
    unit id (input order breaks ties), with all failed tests listed.
    Location tests run only when boundary sets are supplied. Output is
    deterministic for identical input and configuration.

    jobs (>= 1) is kept for callers that pass it: the suite runs in the
    calling process, so the result does not depend on it.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    config = config or RuleConfig()
    districts, municipalities = boundaries if boundaries is not None else (None, None)
    part = _evaluate(records, _build_fast_checks(config, districts, municipalities))
    return part.failure_set(districts is not None, municipalities is not None)
