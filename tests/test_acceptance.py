"""Acceptance criteria for the validator, one test per criterion.

Each test prints one `ACCEPTANCE <n>: PASS/FAIL` line (run pytest with -s
or -rA to see them). Tolerances are fixed: exact verdicts, 1e-9 relative
for pure arithmetic, 0.5% for geodesic distances, and the stated runtime
and throughput bounds.
"""

import math
import random
import time
from dataclasses import replace

from registrylint.catalog import MATRIX_CELL_COUNT
from registrylint.cli import EXIT_FAILURES, main
from registrylint.geo import EARTH_RADIUS_M, contains_with_buffer, distance_to_boundary
from registrylint.model import Technology
from registrylint.report import distance_histogram, percent
from registrylint.rules import CHECKMARKS, RuleConfig, run_suite
from registrylint.synth import ErrorInjectionSpec, generate_clean, inject_errors, make_boundary_grid

from catalog_oracle import check_unique_ids
from conftest import completeness, evaluated_counts, example_record, location_outcomes, outcome_of
from geo_oracle import oracle_distance_to_boundary, oracle_point_in_region
from test_geo import kernel_fixture_regions, lon_offset_deg, random_star_region, square_region
from test_report import _location_failure, _wind_unit


def report_line(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_rule_catalog_fixture_suite(grid, indexed_grid, config):
    districts, municipalities = indexed_grid
    rec = lambda tech, **kw: example_record(grid, tech, **kw)
    sw = math.pi * 41.0**2  # swept area of the example rotor
    # A check measures a row only when it fails: a passing row's value is
    # asserted on the same record under a config whose range excludes it.
    narrowed = lambda **rules: RuleConfig.from_dict(rules)

    started = time.perf_counter()
    # (check callable, expect_pass, expected measured, relative tolerance)
    cases = [
        # nulls
        (lambda: outcome_of(1, rec(Technology.WIND), config), True, None, 0),
        (
            lambda: outcome_of(1, 
                replace(rec(Technology.BIOMASS), municipality_id=None), config
            ),
            False,
            None,
            0,
        ),
        # power ordering: gross 5 / inverter 10 / net 5
        (lambda: outcome_of(3, rec(Technology.SOLAR)), True, None, 0),
        (lambda: outcome_of(4, rec(Technology.SOLAR)), True, None, 0),
        (
            lambda: outcome_of(4, replace(rec(Technology.STORAGE), power_inverter_kw=4.0)),
            False,
            1.0,
            1e-9,
        ),
        # id formats
        (lambda: outcome_of(5, rec(Technology.SOLAR), config), True, None, 0),
        (
            lambda: outcome_of(5, replace(rec(Technology.SOLAR), zip_code="1729"), config),
            False,
            None,
            0,
        ),
        # module power 50-700 W
        (lambda: outcome_of(6, rec(Technology.SOLAR), config), True, None, 0),
        (
            lambda: outcome_of(6, rec(Technology.SOLAR), narrowed(module_power_range_w=[50.0, 600.0])),
            False,
            625.0,
            1e-9,
        ),
        (
            lambda: outcome_of(6, replace(rec(Technology.SOLAR), number_of_modules=1), config),
            False,
            5000.0,
            1e-9,
        ),
        (
            lambda: outcome_of(6, 
                replace(rec(Technology.SOLAR), power_gross_kw=0.35, number_of_modules=1), config
            ),
            True,
            None,
            0,
        ),
        (
            lambda: outcome_of(6,
                replace(rec(Technology.SOLAR), power_gross_kw=0.35, number_of_modules=1),
                narrowed(module_power_range_w=[50.0, 300.0]),
            ),
            False,
            350.0,
            1e-9,
        ),
        (
            lambda: outcome_of(6, 
                replace(rec(Technology.SOLAR), power_gross_kw=0.05, number_of_modules=1), config
            ),
            True,
            None,
            0,
        ),
        (
            lambda: outcome_of(6,
                replace(rec(Technology.SOLAR), power_gross_kw=0.05, number_of_modules=1),
                narrowed(module_power_range_w=[60.0, 700.0]),
            ),
            False,
            50.0,
            1e-9,
        ),
        # inverter ratio, factor 20
        (lambda: outcome_of(7, rec(Technology.SOLAR), config), True, None, 0),
        (lambda: outcome_of(7, rec(Technology.SOLAR), narrowed(inverter_ratio_factor=1.5)), False, 2.0, 1e-9),
        (
            lambda: outcome_of(7, 
                replace(rec(Technology.SOLAR), power_inverter_kw=5000.0), config
            ),
            False,
            1000.0,
            1e-9,
        ),
        # area density 0.05-1.5 MW/ha
        (lambda: check_area_density_case(grid, config, 1000.0, 1.0), True, None, 0),
        (
            lambda: check_area_density_case(grid, narrowed(area_density_range_mw_per_ha=[0.05, 0.5]), 1000.0, 1.0),
            False,
            1.0,
            1e-9,
        ),
        (
            lambda: check_area_density_case(grid, config, 750.0, 0.01),
            False,
            75.0,
            1e-9,
        ),
        (lambda: check_area_density_case(grid, config, 50.0, 1.0), True, None, 0),
        (
            lambda: check_area_density_case(grid, narrowed(area_density_range_mw_per_ha=[0.06, 1.5]), 50.0, 1.0),
            False,
            0.05,
            1e-9,
        ),
        # rotor specific power 160-700 W/m2: P=2000 kW, d=82 m
        (lambda: outcome_of(9, rec(Technology.WIND), config), True, None, 0),
        (
            lambda: outcome_of(9, rec(Technology.WIND), narrowed(rotor_specific_power_range_w_per_m2=[160.0, 300.0])),
            False,
            2000.0 * 1000.0 / sw,
            1e-9,
        ),
        (
            lambda: outcome_of(9, replace(rec(Technology.WIND), rotor_diameter_m=20.0), config),
            False,
            2000.0 * 1000.0 / (math.pi * 100.0),
            1e-9,
        ),
        (lambda: outcome_of(9, replace(rec(Technology.WIND), power_kw=845.0), config), True, None, 0),
        (
            lambda: outcome_of(9,
                replace(rec(Technology.WIND), power_kw=845.0),
                narrowed(rotor_specific_power_range_w_per_m2=[170.0, 700.0]),
            ),
            False,
            845.0 * 1000.0 / sw,
            1e-9,
        ),
        # power range: wind 0-22 MW, inclusive top, exclusive zero
        (lambda: outcome_of(12, replace(rec(Technology.WIND), power_kw=22_000.0), config), True, None, 0),
        (
            lambda: outcome_of(12,
                replace(rec(Technology.WIND), power_kw=22_000.0), narrowed(power_range_mw={"wind": [0.0, 21.0]})
            ),
            False,
            22_000.0,
            1e-9,
        ),
        (
            lambda: outcome_of(12, replace(rec(Technology.WIND), power_kw=25_000.0), config),
            False,
            25_000.0,
            1e-9,
        ),
        (
            lambda: outcome_of(12, replace(rec(Technology.SOLAR), power_net_kw=0.0), config),
            False,
            0.0,
            0,
        ),
        # installation years
        (lambda: outcome_of(13, rec(Technology.SOLAR), config), True, None, 0),
        (lambda: outcome_of(13, rec(Technology.SOLAR), narrowed(year_max=2016)), False, 2017.0, 1e-9),
        (
            lambda: outcome_of(13, 
                replace(rec(Technology.STORAGE), installation_year=1923), config
            ),
            False,
            1923.0,
            1e-9,
        ),
        (
            lambda: outcome_of(13, 
                replace(rec(Technology.HYDRO), installation_year=1923), config
            ),
            True,
            None,
            0,
        ),
        (
            lambda: outcome_of(13,
                replace(rec(Technology.HYDRO), installation_year=1923), narrowed(year_min={"hydro": 1924})
            ),
            False,
            1923.0,
            1e-9,
        ),
        # hub height vs rotor radius: hub 65 / rotor 82; test 14 has no
        # threshold to narrow, so the passing row's hub height is not measured
        (lambda: outcome_of(14, rec(Technology.WIND)), True, None, 0),
        (
            lambda: outcome_of(14, replace(rec(Technology.WIND), hub_height_m=30.0)),
            False,
            30.0,
            1e-9,
        ),
        # balcony capacity
        (lambda: outcome_of(15, balcony_case(grid, 0.6), config), True, None, 0),
        (lambda: outcome_of(15, balcony_case(grid, 1.3), config), False, 1.3, 1e-9),
        (
            lambda: outcome_of(15, 
                replace(
                    rec(Technology.SOLAR),
                    unit_name="Balkonkraftwerk Müller",
                    power_net_kw=6.0,
                    power_gross_kw=6.0,
                    power_inverter_kw=6.0,
                ),
                config,
            ),
            False,
            6.0,
            1e-9,
        ),
        # locations
        (
            lambda: location_outcomes(rec(Technology.WIND), districts, municipalities, config)[0],
            True,
            None,
            0,
        ),
        (
            lambda: location_outcomes(
                displaced_case(grid, 30_000.0), districts, municipalities, config
            )[0],
            False,
            30_000.0,
            5e-3,  # geodesic tolerance
        ),
    ]
    failures = []
    for i, (call, expect_pass, measured, rel) in enumerate(cases):
        outcome = call()
        if (outcome is None) is not expect_pass:
            failures.append(f"case {i}: verdict {outcome is None}, wanted {expect_pass}")
        elif measured is not None:
            if outcome.measured is None:
                failures.append(f"case {i}: measured missing")
            elif measured == 0:
                if outcome.measured != 0:
                    failures.append(f"case {i}: measured {outcome.measured} != 0")
            elif abs(outcome.measured - measured) > rel * abs(measured):
                failures.append(f"case {i}: measured {outcome.measured} != {measured}")

    # suite-level uniqueness examples
    unique = check_unique_ids([_wind_unit(u) for u in ("A", "B", "C")])
    dup = check_unique_ids([_wind_unit(u) for u in ("A", "A", "B")])
    if unique != [] or len(dup) != 2:
        failures.append("uniqueness examples")

    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 1.0
    report_line(1, ok, f"{len(cases) + 2} fixture cases in {elapsed:.3f}s; problems: {failures or 'none'}")
    assert not failures
    assert elapsed < 1.0


def check_area_density_case(grid, config, gross_kw, area_ha):
    record = replace(
        example_record(grid, Technology.SOLAR),
        unit_type="Freifläche",
        power_gross_kw=gross_kw,
        area_ha=area_ha,
    )
    return outcome_of(8, record, config)


def balcony_case(grid, net_kw):
    return replace(
        example_record(grid, Technology.SOLAR),
        unit_type="Balkonkraftwerk",
        area_ha=None,
        power_net_kw=net_kw,
        power_gross_kw=net_kw,
        power_inverter_kw=net_kw,
    )


def displaced_case(grid, distance_m):
    lat = 48.25
    lon = 10.5 + lon_offset_deg(distance_m, lat)
    record = example_record(grid, Technology.WIND, municipality_id="10001000")
    return replace(record, coordinate=(lat, lon))


def test_criterion_2_geo_oracle_equivalence():
    rng = random.Random(20240312)
    started = time.perf_counter()
    cases = 0
    distance_errors = []
    verdict_errors = 0
    buffer_m = 1500.0

    def compare(region, lat, lon):
        nonlocal cases, verdict_errors
        cases += 1
        truth_inside = oracle_point_in_region(lat, lon, region)
        truth_distance = 0.0 if truth_inside else oracle_distance_to_boundary(lat, lon, region)
        ours_distance = distance_to_boundary(lat, lon, region)
        if truth_distance == 0.0:
            if ours_distance != 0.0:
                distance_errors.append((region.region_id, lat, lon, ours_distance, truth_distance))
        else:
            if ours_distance == 0.0 or abs(ours_distance - truth_distance) > 5e-3 * truth_distance:
                distance_errors.append((region.region_id, lat, lon, ours_distance, truth_distance))

        if abs(truth_distance - buffer_m) > 10.0:  # skip the +-10 m band
            ours_verdict = contains_with_buffer(lat, lon, region, buffer_m)
            truth_verdict = truth_inside or truth_distance <= buffer_m
            if ours_verdict is not truth_verdict:
                verdict_errors += 1

    while cases < 1000:
        lat0 = rng.uniform(-55.0, 62.0)
        lon0 = rng.uniform(-25.0, 25.0)
        if rng.random() < 0.25:
            size = rng.uniform(0.02, 0.6)
            region = square_region("R", lat0, lon0, size, size * rng.uniform(0.5, 2.0))
        else:
            region = random_star_region(rng, "R", lat0, lon0, rng.uniform(1.0, 60.0), rng.randint(5, 12))
        # Mix of interior, near-boundary and far points.
        offset_m = rng.choice(
            [rng.uniform(0.0, 3_000.0), rng.uniform(0.0, 30_000.0), rng.uniform(0.0, 400_000.0)]
        )
        bearing = rng.uniform(0.0, 2.0 * math.pi)
        lat = lat0 + math.degrees(offset_m * math.cos(bearing) / EARTH_RADIUS_M)
        lon = lon0 + lon_offset_deg(offset_m * math.sin(bearing), lat0)
        compare(region, lat, lon)

    # Many-vertex boundaries: jagged rings and a jagged ring with holes,
    # queried across them and near their vertices, inside and out.
    fixtures = kernel_fixture_regions()
    for name in ("jagged", "jagged-large", "holed"):
        region = fixtures[name]
        vertices = [v for poly in region.polygons for ring in poly.rings() for v in ring]
        minlat, minlon, maxlat, maxlon = region.bbox()
        for _ in range(20):
            if rng.random() < 0.25:
                compare(region, rng.uniform(minlat, maxlat), rng.uniform(minlon, maxlon))
                continue
            vlat, vlon = rng.choice(vertices)
            offset_m = rng.choice([rng.uniform(0.0, 3_000.0), rng.uniform(0.0, 30_000.0)])
            bearing = rng.uniform(0.0, 2.0 * math.pi)
            lat = vlat + math.degrees(offset_m * math.cos(bearing) / EARTH_RADIUS_M)
            lon = vlon + lon_offset_deg(offset_m * math.sin(bearing), vlat)
            compare(region, lat, lon)

    elapsed = time.perf_counter() - started
    ok = not distance_errors and verdict_errors == 0 and elapsed < 30.0
    report_line(
        2,
        ok,
        f"{cases} cases in {elapsed:.1f}s; distance disagreements: {len(distance_errors)}, "
        f"verdict disagreements: {verdict_errors}",
    )
    assert distance_errors == []
    assert verdict_errors == 0
    assert elapsed < 30.0


def test_criterion_3_buffer_semantics(grid, indexed_grid, config):
    districts, municipalities = indexed_grid
    verdicts = {}
    for distance_m in (1400.0, 1600.0):
        lat = 48.05  # due east of municipality 10001000 and district 10001
        lon_muni = 10.25 + lon_offset_deg(distance_m, lat)
        record = replace(
            example_record(grid, Technology.WIND, municipality_id="10001000"),
            coordinate=(lat, lon_muni),
        )
        _, out11 = location_outcomes(record, districts, municipalities, config)
        lon_district = 10.5 + lon_offset_deg(distance_m, lat)
        record = replace(record, coordinate=(lat, lon_district))
        out10, _ = location_outcomes(record, districts, municipalities, config)
        verdicts[distance_m] = (out10 is None, out11 is None)
    ok = verdicts[1400.0] == (True, True) and verdicts[1600.0] == (False, False)
    report_line(3, ok, f"1.4 km: {verdicts[1400.0]}, 1.6 km: {verdicts[1600.0]} (buffer 1500 m)")
    assert ok


def test_criterion_4_injection_round_trip(config):
    started = time.perf_counter()
    boundaries = make_boundary_grid(4, 4)
    recall_misses = 0
    false_positives = 0
    planted_total = 0
    for technology in Technology:
        records = generate_clean(technology, 10_000, 20240312, boundaries)
        spec = ErrorInjectionSpec.uniform(0.05, technology, len(records))
        mutated, truth = inject_errors(records, spec, 20240312, boundaries=boundaries, config=config)
        result = run_suite(mutated, boundaries, config)
        flagged: dict = {}
        for fr in result.failures:
            flagged.setdefault(fr.unit_id, set()).update(fr.test_ids)
        for uid, expected in truth.expected.items():
            if not expected <= flagged.get(uid, set()):
                recall_misses += 1
        for uid in flagged:
            if uid not in truth.expected:
                false_positives += 1
        planted_total += len(truth.expected)
    elapsed = time.perf_counter() - started
    ok = recall_misses == 0 and false_positives == 0 and elapsed < 60.0
    report_line(
        4,
        ok,
        f"6x10000 units, {planted_total} planted errors in {elapsed:.1f}s; "
        f"recall misses: {recall_misses}, false positives: {false_positives}",
    )
    assert recall_misses == 0
    assert false_positives == 0
    assert elapsed < 60.0


def test_criterion_5_completeness():
    table = [_wind_unit(f"SEE9{i:011d}", owner=i < 97) for i in range(100)]
    fraction, written = completeness(table, Technology.WIND, "owner_id")
    rendered = str(percent(*fraction.as_integer_ratio()))
    ok = (fraction.numerator, fraction.denominator) == (97, 100) and rendered == "97"
    report_line(5, ok, f"known null pattern: fraction {fraction}, rendered {rendered!r}")
    assert (fraction.numerator, fraction.denominator) == (97, 100)
    assert rendered == "97"
    assert str(written) == rendered
    fraction, written = completeness([_wind_unit("A")], Technology.WIND, "owner_id")
    assert str(percent(*fraction.as_integer_ratio())) == "100"
    assert str(written) == "100"


def test_criterion_6_distance_histogram():
    distances_km = [2.0, 4.9, 7.0, 12.5, 59.9, 60.0, 65.0, 400.0]
    failures = [_location_failure(f"U{i}", d * 1000.0) for i, d in enumerate(distances_km)]
    hist = distance_histogram(failures, bin_width_km=5.0, overflow_km=60.0)
    expected_counts = [2, 1, 1] + [0] * 8 + [1]
    ok = (
        hist["counts"] == expected_counts
        and hist["overflow"] == 3
        and sum(hist["counts"]) + hist["overflow"] == len(distances_km)
    )
    report_line(
        6, ok, f"bins {hist['counts']} overflow {hist['overflow']} for distances {distances_km} km"
    )
    assert hist["counts"] == expected_counts
    assert hist["overflow"] == 3


def test_criterion_7_pipeline_determinism(tmp_path):
    fixtures = tmp_path / "fixtures"
    assert main(["synth", "--count", "400", "--seed", "77", "--error-rate", "0.05", "--out", str(fixtures)]) == 0
    args = lambda out: (
        ["validate", "--out", str(out)]
        + [x for f in sorted(fixtures.glob("*.csv")) for x in ("--input", f"{f.stem}={f}")]
        + ["--districts", str(fixtures / "districts.geojson")]
        + ["--municipalities", str(fixtures / "municipalities.geojson")]
    )
    assert main(args(tmp_path / "a")) == EXIT_FAILURES
    assert main(args(tmp_path / "b")) == EXIT_FAILURES
    diffs = [
        name
        for name in ("failures.csv", "failures.ndjson", "summary.json")
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
    ]
    report_line(7, not diffs, f"byte-diffs between identical runs: {diffs or 'none'}")
    assert not diffs


def test_criterion_8_throughput(config):
    boundaries = make_boundary_grid(3, 3)
    records = []
    for technology in Technology:
        records.extend(generate_clean(technology, 10_000, 31, boundaries))

    started = time.perf_counter()
    result = run_suite(records, None, config)
    flat_elapsed = time.perf_counter() - started
    flat_rate = len(records) / flat_elapsed
    assert result.total_records == len(records)

    geo_boundaries = make_boundary_grid(25, 5, munis_per_side=2, district_size_deg=0.2)
    n_regions = len(geo_boundaries.municipalities.regions)
    geo_records = []
    for technology in Technology:
        geo_records.extend(generate_clean(technology, 3_000, 32, geo_boundaries, margin_m=2000.0))
    started = time.perf_counter()
    run_suite(geo_records, geo_boundaries, config)
    geo_elapsed = time.perf_counter() - started
    geo_rate = len(geo_records) / geo_elapsed

    ok = flat_rate >= 100_000 and geo_rate >= 10_000 and n_regions >= 500
    report_line(
        8,
        ok,
        f"no-geo {flat_rate:,.0f} rec/s (target 100k); "
        f"geo over {n_regions} regions {geo_rate:,.0f} rec/s (target 10k)",
    )
    assert flat_rate >= 100_000
    assert n_regions >= 500
    assert geo_rate >= 10_000


def test_criterion_9_matrix_conformance(grid, config):
    records = []
    for technology in Technology:
        records.extend(generate_clean(technology, 200, 17, grid))
    spec_rates = {"magnitude_mixup": 4, "zip_malformed": 4, "implausible_year": 4}
    mutated, _ = inject_errors(records, ErrorInjectionSpec(rates=spec_rates), 17, boundaries=grid)
    result = run_suite(mutated, grid, config)

    evaluated = evaluated_counts(result, mutated)
    stray_evaluated = [(tid, t.value) for tid, t in evaluated if t not in CHECKMARKS[tid]]
    stray_failures = [
        (o.test_id, fr.technology.value)
        for fr in result.failures
        for o in fr.failed
        if fr.technology not in CHECKMARKS[o.test_id]
    ]
    expanded = len(evaluated)
    checkmarked = sum(len(techs) for techs in CHECKMARKS.values())
    ok = (
        not stray_evaluated
        and not stray_failures
        and MATRIX_CELL_COUNT == 90
        and expanded == checkmarked == 53
    )
    report_line(
        9,
        ok,
        f"matrix cells: {MATRIX_CELL_COUNT} (15 tests x 6 technologies); "
        f"check-marked and evaluated pairs: {expanded}; stray evaluations: "
        f"{stray_evaluated or 'none'}",
    )
    assert MATRIX_CELL_COUNT == 90
    assert expanded == 53
    assert not stray_evaluated
    assert not stray_failures
