"""Independent reading of the test catalog for differential testing.

Written from README's catalog table and the fields of RuleConfig, not from
rules.py: one plain function per record-level test (1 and 3-9, 12-15), its
own "Applies to" matrix, and test 2 as a count of unit ids. The location
tests 10 and 11 need boundaries; geo_oracle covers them. Each function
takes a record and the config and returns None for a pass or the failure's
measured value, where UNMEASURED stands for a failure that measures
nothing. A measured value that is not finite is reported as None, as JSON
has no number for it. check_unique_ids gives test 2's failing outcomes
whole, as the suite reports them, each with its unit id.

The arithmetic of a measured quantity (watts per module, power density,
specific rotor power, the gross/inverter ratio) is part of the catalog's
definition: a value one ulp either side of a threshold must fall on the
same side in both readings, so each quantity is computed by the formula
its README unit names, in the same order of operations.
"""

from __future__ import annotations

import math
import re
from collections import Counter

from registrylint.model import RuleOutcome, Technology, UnitRecord
from registrylint.rules import RuleConfig

ALL = frozenset(Technology)
SOLAR = frozenset({Technology.SOLAR})
WIND = frozenset({Technology.WIND})
SOLAR_STORAGE = frozenset({Technology.SOLAR, Technology.STORAGE})

# README, "The test catalog": the technologies each test applies to.
APPLIES_TO: dict[int, frozenset[Technology]] = {
    1: ALL,
    2: ALL,
    3: SOLAR_STORAGE,
    4: SOLAR_STORAGE,
    5: ALL,
    6: SOLAR,
    7: SOLAR_STORAGE,
    8: SOLAR,
    9: WIND,
    10: ALL,
    11: ALL,
    12: ALL,
    13: ALL,
    14: WIND,
    15: SOLAR,
}


class _Unmeasured:
    """A failure without a measured value."""

    def __repr__(self) -> str:
        return "UNMEASURED"


UNMEASURED = _Unmeasured()


def _failure(measured: float | None):
    if measured is None:
        return UNMEASURED
    return float(measured) if math.isfinite(measured) else UNMEASURED


def rated_power(record: UnitRecord) -> float | None:
    """Installed power: net power for solar and storage units, else the power column."""
    if record.technology in SOLAR_STORAGE:
        return record.power_net_kw
    return record.power_kw


def oracle_1(record: UnitRecord, config: RuleConfig):
    """Required fields are not null; "power" is the rated power."""
    for name in config.required_fields:
        value = rated_power(record) if name == "power" else getattr(record, name)
        if value is None:
            return UNMEASURED
    return None


def oracle_3(record: UnitRecord, config: RuleConfig):
    """Gross power >= net power; a failure measures net minus gross."""
    gross, net = record.power_gross_kw, record.power_net_kw
    if gross is None or net is None or gross >= net:
        return None
    return _failure(net - gross)


def oracle_4(record: UnitRecord, config: RuleConfig):
    """Inverter power >= net power; a failure measures net minus inverter."""
    inverter, net = record.power_inverter_kw, record.power_net_kw
    if inverter is None or net is None or inverter >= net:
        return None
    return _failure(net - inverter)


def oracle_5(record: UnitRecord, config: RuleConfig):
    """Unit id, municipality id and zip code, where present, match their
    patterns in full, with ASCII character classes."""
    for value, pattern in (
        (record.unit_id, config.unit_id_pattern),
        (record.municipality_id, config.municipality_id_pattern),
        (record.zip_code, config.zip_pattern),
    ):
        if value is not None and not re.fullmatch(pattern, value, re.ASCII):
            return UNMEASURED
    return None


def _within(value: float, bounds: tuple[float, float]) -> bool:
    low, high = bounds
    return low <= value <= high


def oracle_6(record: UnitRecord, config: RuleConfig):
    """Gross power per module, in W, within the closed module power range."""
    gross, modules = record.power_gross_kw, record.number_of_modules
    if gross is None or modules is None:
        return None
    if modules == 0:
        return UNMEASURED
    watts = gross * 1000.0 / modules
    return None if _within(watts, config.module_power_range_w) else _failure(watts)


def oracle_7(record: UnitRecord, config: RuleConfig):
    """Gross and inverter power differ by less than the factor, either way round."""
    gross, inverter = record.power_gross_kw, record.power_inverter_kw
    if gross is None or inverter is None:
        return None
    if gross == 0 or inverter == 0:
        return UNMEASURED
    ratio = max(gross / inverter, inverter / gross)
    return None if ratio < config.inverter_ratio_factor else _failure(ratio)


def oracle_8(record: UnitRecord, config: RuleConfig):
    """Power density of ground-mounted PV, in MW/ha, within the closed range."""
    gross, area = record.power_gross_kw, record.area_ha
    if record.unit_type not in config.ground_unit_types or gross is None or area is None:
        return None
    if area <= 0:
        return UNMEASURED
    density = gross / 1000.0 / area
    return None if _within(density, config.area_density_range_mw_per_ha) else _failure(density)


def oracle_9(record: UnitRecord, config: RuleConfig):
    """Power per rotor swept area, in W/m2, within the closed range."""
    power, diameter = record.power_kw, record.rotor_diameter_m
    if power is None or diameter is None:
        return None
    if diameter <= 0:
        return UNMEASURED
    try:
        swept = math.pi * (diameter / 2.0) ** 2
    except OverflowError:
        swept = math.inf
    if swept == 0:
        return UNMEASURED
    specific = power * 1000.0 / swept
    return None if _within(specific, config.rotor_specific_power_range_w_per_m2) else _failure(specific)


def oracle_12(record: UnitRecord, config: RuleConfig):
    """Rated power in kW within (0, upper] of the technology's range in MW."""
    power = rated_power(record)
    if power is None:
        return None
    low_mw, high_mw = config.power_range_mw[record.technology]
    return None if low_mw * 1000.0 < power <= high_mw * 1000.0 else _failure(power)


def oracle_13(record: UnitRecord, config: RuleConfig):
    """Installation year within the technology's closed window."""
    year = record.installation_year
    if year is None:
        return None
    return None if config.year_min[record.technology] <= year <= config.year_max else _failure(float(year))


def oracle_14(record: UnitRecord, config: RuleConfig):
    """Hub height at least the rotor radius; a failure measures the hub height."""
    hub, diameter = record.hub_height_m, record.rotor_diameter_m
    if hub is None or diameter is None or hub >= diameter / 2.0:
        return None
    return _failure(hub)


def oracle_15(record: UnitRecord, config: RuleConfig):
    """Balcony PV: a balcony-typed unit's net power at most the limit plus
    the tolerance; a unit whose name holds a balcony keyword, in any case,
    at most the looser name cap. A failure measures the net power."""
    net = record.power_net_kw
    if net is None:
        return None
    typed = record.unit_type in config.balcony_unit_types
    named = record.unit_name is not None and any(
        k.lower() in record.unit_name.lower() for k in config.balcony_keywords
    )
    if typed and net > config.balcony_limit_kw + config.balcony_tolerance_kw:
        return _failure(net)
    if named and net > config.balcony_name_limit_kw:
        return _failure(net)
    return None


RECORD_TESTS = {
    1: oracle_1,
    3: oracle_3,
    4: oracle_4,
    5: oracle_5,
    6: oracle_6,
    7: oracle_7,
    8: oracle_8,
    9: oracle_9,
    12: oracle_12,
    13: oracle_13,
    14: oracle_14,
    15: oracle_15,
}


def failures(records: list[UnitRecord], config: RuleConfig) -> list[tuple[str | None, tuple]]:
    """Every failing record as (unit id, ((test id, measured), ...)), by
    unit id and then input order; test 2 fails each record whose unit id
    appears more than once, measuring the number of such records."""
    counts = Counter(record.unit_id for record in records if record.unit_id is not None)
    found = []
    for ordinal, record in enumerate(records):
        failed = []
        for test_id, oracle in RECORD_TESTS.items():
            if record.technology in APPLIES_TO[test_id]:
                result = oracle(record, config)
                if result is not None:
                    failed.append((test_id, None if result is UNMEASURED else result))
        if counts[record.unit_id] > 1:
            failed.append((2, float(counts[record.unit_id])))
        if failed:
            found.append(((record.unit_id or "", ordinal), record.unit_id, tuple(sorted(failed))))
    return [(unit_id, failed) for _, unit_id, failed in sorted(found)]


def check_unique_ids(records) -> list[tuple[str, RuleOutcome]]:
    """Test 2 on its own, as the suite reports it: a (unit id, failing
    outcome) pair per record in a duplicate-id group, by unit id, measuring
    the group's size in records. Single pass; memory grows with the number
    of distinct ids only. Records without an id are test 1's concern and
    are skipped."""
    counts = Counter(record.unit_id for record in records if record.unit_id is not None)
    out = []
    for unit_id in sorted(counts):
        n = counts[unit_id]
        if n >= 2:
            out.extend([(unit_id, RuleOutcome(2, f"duplicate unit id ({n} records)", float(n), "records"))] * n)
    return out
