"""Differential tests: the suite's verdicts against catalog_oracle.

Records are drawn with their numbers on each catalog threshold and one ulp
either side of it, besides nulls, zeros and repeated unit ids; run_suite
must fail exactly the (unit id, test ids) pairs that the oracle fails,
with measured values equal to a relative 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

import catalog_oracle
from registrylint import rules
from registrylint.catalog import CHECKMARKS
from registrylint.ingest import RegistryReader
from registrylint.model import Technology, UnitRecord
from registrylint.rules import RuleConfig, run_blocks, run_suite

CONFIG = RuleConfig()


def _suite_failures(failure_set) -> list:
    return [(fr.unit_id, tuple((o.test_id, o.measured) for o in fr.failed)) for fr in failure_set.failures]


def assert_same_failures(found: list, expected: list) -> None:
    """Equal unit ids and test ids in order; measured values to a relative 1e-12."""
    assert [(uid, tuple(t for t, _ in failed)) for uid, failed in found] == [
        (uid, tuple(t for t, _ in failed)) for uid, failed in expected
    ]
    for (uid, failed), (_, wanted) in zip(found, expected):
        for (test_id, measured), (_, value) in zip(failed, wanted):
            assert (measured is None) == (value is None), (uid, test_id, measured, value)
            if value is not None:
                assert math.isclose(measured, value, rel_tol=1e-12, abs_tol=0.0), (uid, test_id, measured, value)


def _near(value: float) -> list[float]:
    """A value and the floats one ulp either side of it, those that are
    non-negative and finite."""
    found = [math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)]
    return [v for v in found if v >= 0.0 and math.isfinite(v)]


def _on(threshold: float, quantity, guess: float) -> list[float]:
    """Inputs within 8 ulps of `guess` for which `quantity` gives the
    threshold or a float one ulp either side of it, or `guess` when none
    does."""
    targets = set(_near(threshold))
    x = guess
    for _ in range(8):
        x = math.nextafter(x, -math.inf)
    found = []
    for _ in range(17):
        if x > 0.0 and quantity(x) in targets:
            found.append(x)
        x = math.nextafter(x, math.inf)
    return found or [guess]


_LOW_KW = {tech: low * 1000.0 for tech, (low, _) in CONFIG.power_range_mw.items()}
_HIGH_KW = {tech: high * 1000.0 for tech, (_, high) in CONFIG.power_range_mw.items()}
_UNIT_IDS = ["SEE900000000001", "SEE900000000002", "SEE90000000000", "see900000000003", "SEE9000000000045"]


@st.composite
def edge_records(draw) -> UnitRecord:
    """A record whose numbers sit on a catalog threshold, one ulp off it,
    at zero, null or anywhere."""
    tech = draw(st.sampled_from(list(Technology)))
    cfg = CONFIG

    def pick(*anchors: float, inputs: tuple[float, ...] = ()) -> float | None:
        """Null, zero, anything, an anchor or one ulp off it, or one of `inputs`."""
        options = [v for anchor in anchors for v in _near(anchor)] + [0.0]
        edges = st.sampled_from(options) | st.sampled_from(inputs) if inputs else st.sampled_from(options)
        return draw(st.none() | edges | st.floats(min_value=0.0, max_value=1e7, allow_nan=False))

    rated = pick(_LOW_KW[tech], _HIGH_KW[tech], 1.0, 5.0, cfg.balcony_limit_kw + cfg.balcony_tolerance_kw,
                 cfg.balcony_name_limit_kw)
    values = dict(
        technology=tech,
        unit_id=draw(st.none() | st.sampled_from(_UNIT_IDS)),
        operating_status=draw(st.none() | st.just("In Betrieb")),
        installation_year=draw(
            st.none()
            | st.sampled_from(
                [cfg.year_min[tech] - 1, cfg.year_min[tech], cfg.year_max, cfg.year_max + 1, 0]
            )
            | st.integers(min_value=1800, max_value=2100)
        ),
        zip_code=draw(st.none() | st.sampled_from(["17291", "1729", "172910", "1729a"])),
        municipality_id=draw(st.none() | st.sampled_from(["10001000", "1000100", "1000100x"])),
        unit_name=draw(st.none() | st.sampled_from(["Balkonkraftwerk Nord", "BALCONY", "balkon", "Halle 3"])),
    )
    if tech in (Technology.SOLAR, Technology.STORAGE):
        net = rated
        gross = pick(*([] if net is None else [net]), 10.0)
        factor = cfg.inverter_ratio_factor
        inverter = pick(
            *([] if net is None else [net]),
            inputs=()
            if not gross
            else (
                *_on(factor, lambda i: max(gross / i, i / gross), gross * factor),
                *_on(factor, lambda i: max(gross / i, i / gross), gross / factor),
            ),
        )
        values.update(power_net_kw=net, power_gross_kw=gross, power_inverter_kw=inverter)
        if tech is Technology.SOLAR:
            modules = draw(st.none() | st.sampled_from([0, 1, 7, 40]) | st.integers(min_value=0, max_value=10**6))
            low_w, high_w = cfg.module_power_range_w
            low_d, high_d = cfg.area_density_range_mw_per_ha
            if gross is not None and modules:
                watts = lambda g: g * 1000.0 / modules  # noqa: E731
                gross = pick(
                    gross,
                    inputs=(
                        *_on(low_w, watts, low_w * modules / 1000.0),
                        *_on(high_w, watts, high_w * modules / 1000.0),
                    ),
                )
            density = lambda a: gross / 1000.0 / a  # noqa: E731
            area = pick(
                inputs=()
                if not gross
                else (*_on(low_d, density, gross / 1000.0 / low_d), *_on(high_d, density, gross / 1000.0 / high_d))
            )
            values.update(
                power_gross_kw=gross,
                number_of_modules=modules,
                area_ha=area,
                unit_type=draw(st.none() | st.sampled_from(["Freifläche", "Balkonkraftwerk", "Dach"])),
            )
    else:
        values["power_kw"] = rated
    if tech is Technology.WIND:
        diameter = pick(82.0, 1e-300, 1e200)
        low_s, high_s = cfg.rotor_specific_power_range_w_per_m2
        swept = math.pi * (diameter / 2.0) ** 2 if diameter and diameter < 1e150 else 0.0
        if swept and rated is not None:
            specific = lambda p: p * 1000.0 / swept  # noqa: E731
            values["power_kw"] = pick(
                rated,
                inputs=(*_on(low_s, specific, low_s * swept / 1000.0), *_on(high_s, specific, high_s * swept / 1000.0)),
            )
        hub = pick(*([] if diameter is None else [diameter / 2.0]), 65.0)
        values.update(rotor_diameter_m=diameter, hub_height_m=hub)
    return UnitRecord(**values)


def _threshold_records() -> list[UnitRecord]:
    """Records whose measured quantities sit exactly on each threshold of
    tests 6, 7, 8, 9, 12, 13, 14 and 15, and one ulp either side."""
    cfg = CONFIG
    common = dict(operating_status="In Betrieb", municipality_id="10001000")
    solar = dict(common, technology=Technology.SOLAR, power_net_kw=1.0)
    wind = dict(common, technology=Technology.WIND, power_kw=2000.0)
    found = []
    for watts in cfg.module_power_range_w:
        for gross in _on(watts, lambda g: g * 1000.0 / 7, watts * 7 / 1000.0):
            found.append(UnitRecord(**solar, power_gross_kw=gross, number_of_modules=7))
    for inverter in _on(cfg.inverter_ratio_factor, lambda i: max(3.0 / i, i / 3.0), 3.0 * cfg.inverter_ratio_factor):
        found.append(UnitRecord(**solar, power_gross_kw=3.0, power_inverter_kw=inverter))
    for density in cfg.area_density_range_mw_per_ha:
        for area in _on(density, lambda a: 3000.0 / 1000.0 / a, 3.0 / density):
            found.append(UnitRecord(**solar, power_gross_kw=3000.0, area_ha=area, unit_type=cfg.ground_unit_types[0]))
    for net in (*_near(cfg.balcony_limit_kw + cfg.balcony_tolerance_kw), *_near(cfg.balcony_name_limit_kw)):
        found.append(UnitRecord(**{**solar, "power_net_kw": net}, unit_type=cfg.balcony_unit_types[0]))
        found.append(UnitRecord(**{**solar, "power_net_kw": net}, unit_name="Mein BALKON"))
    swept = math.pi * (82.0 / 2.0) ** 2
    for specific in cfg.rotor_specific_power_range_w_per_m2:
        for power in _on(specific, lambda p: p * 1000.0 / swept, specific * swept / 1000.0):
            found.append(UnitRecord(**{**wind, "power_kw": power}, rotor_diameter_m=82.0))
    for hub in _near(41.0):
        found.append(UnitRecord(**wind, rotor_diameter_m=82.0, hub_height_m=hub))
    for power in _near(cfg.power_range_mw[Technology.WIND][1] * 1000.0):
        found.append(UnitRecord(**{**wind, "power_kw": power}))
    low, high = cfg.year_min[Technology.WIND], cfg.year_max
    for year in (low - 1, low, high, high + 1):
        found.append(UnitRecord(**wind, installation_year=year))
    return [replace(record, unit_id=f"SEE9{i:011d}") for i, record in enumerate(found)]


def _shared_id_records() -> list[UnitRecord]:
    """300 wind records whose unit ids cycle through a pool of 5 in runs of
    3, so that rows 127 and 128, on either side of the first block edge,
    share one; every 7th id is null. Test 2 must count each id across
    blocks."""
    wind = dict(operating_status="In Betrieb", municipality_id="10001000", technology=Technology.WIND, power_kw=2000.0)
    return [UnitRecord(**wind, unit_id=None if i % 7 == 0 else f"SEE9{(i // 3) % 5:011d}") for i in range(300)]


def test_oracle_matrix_is_the_catalog_matrix():
    assert catalog_oracle.APPLIES_TO == CHECKMARKS
    assert rules.CHECKMARKS is CHECKMARKS
    assert sum(map(len, catalog_oracle.APPLIES_TO.values())) == 53


@settings(max_examples=200, deadline=None)
@given(records=st.lists(edge_records(), max_size=12))
@example(records=_threshold_records())
@example(records=_shared_id_records())
def test_suite_fails_what_the_oracle_fails(records):
    assert_same_failures(_suite_failures(run_suite(records, None, CONFIG)), catalog_oracle.failures(records, CONFIG))


def test_reference_fixture_without_boundaries(reference_tables):
    readers = [RegistryReader(reference_tables / f"{tech.value}.csv", tech) for tech in Technology]
    records = [record for reader in readers for record in reader]
    expected = catalog_oracle.failures(records, CONFIG)
    # Its planted errors fail every record-level test but test 8.
    assert {test_id for _, failed in expected for test_id, _ in failed} == {1, 3, 4, 5, 6, 7, 9, 12, 13, 14, 15}
    assert_same_failures(_suite_failures(run_suite(records, None, CONFIG)), expected)
    readers = [RegistryReader(reference_tables / f"{tech.value}.csv", tech) for tech in Technology]
    blocks = (block for reader in readers for block in reader.blocks())
    assert_same_failures(_suite_failures(run_blocks(blocks, None, CONFIG)), expected)
