"""Generator and error-injector tests."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from registrylint.cli import main
from registrylint.model import POWER_FIELD, Technology, UnitRecord
from registrylint.rules import RuleConfig, run_suite
from registrylint.synth import (
    ERROR_CLASSES,
    ErrorInjectionSpec,
    SynthError,
    generate_clean,
    inject_errors,
    make_boundary_grid,
)

from geo_oracle import oracle_boundary_distance_m, oracle_point_in_region


class TestBoundaryGrid:
    def test_municipality_keys_nest_in_district_keys(self):
        grid = make_boundary_grid(2, 2)
        assert len(grid.districts.regions) == 4
        assert len(grid.municipalities.regions) == 16
        for muni_id in grid.municipalities.regions:
            assert len(muni_id) == 8
            assert muni_id[:5] in grid.districts.regions

    def test_sized_grid(self):
        grid = make_boundary_grid(5, 4, munis_per_side=3)
        assert len(grid.districts.regions) == 20
        assert len(grid.municipalities.regions) == 180


class TestGenerateClean:
    def test_seed_determinism(self, grid):
        first = generate_clean(Technology.WIND, 100, 42, grid)
        second = generate_clean(Technology.WIND, 100, 42, grid)
        assert first == second
        other_seed = generate_clean(Technology.WIND, 100, 43, grid)
        assert first != other_seed

    def test_zero_records(self, grid):
        assert generate_clean(Technology.SOLAR, 0, 1, grid) == []

    def test_negative_count_rejected(self, grid):
        with pytest.raises(SynthError):
            generate_clean(Technology.SOLAR, -1, 1, grid)

    @pytest.mark.parametrize("technology", list(Technology))
    def test_clean_tables_pass_the_suite(self, grid, config, technology):
        records = generate_clean(technology, 150, 4, grid)
        result = run_suite(records, grid, config)
        assert result.failures == []

    def test_hand_check_of_sampled_wind_records(self, grid):
        """Field-level spot check with arithmetic independent of the rules."""
        records = generate_clean(Technology.WIND, 50, 8, grid)
        for record in records[::10]:  # five samples
            assert re.fullmatch(r"[A-Z]{3}\d{12}", record.unit_id)
            assert re.fullmatch(r"\d{8}", record.municipality_id)
            assert re.fullmatch(r"\d{5}", record.zip_code)
            specific = record.power_kw * 1000.0 / (math.pi * (record.rotor_diameter_m / 2.0) ** 2)
            assert 160.0 <= specific <= 700.0
            assert record.hub_height_m >= record.rotor_diameter_m / 2.0
            assert 1980 <= record.installation_year <= 2030
            assert 0.0 < record.power_kw <= 22_000.0
            muni = grid.municipalities.regions[record.municipality_id]
            lat, lon = record.coordinate
            assert oracle_point_in_region(lat, lon, muni)
            assert oracle_boundary_distance_m(lat, lon, muni) > 1500.0

    def test_coordinates_keep_margin_above_buffer(self, grid):
        records = generate_clean(Technology.BIOMASS, 60, 12, grid)
        for record in records[:10]:
            muni = grid.municipalities.regions[record.municipality_id]
            lat, lon = record.coordinate
            assert oracle_boundary_distance_m(lat, lon, muni) >= 2000.0


class TestInjectionSpec:
    def test_unknown_class_rejected(self):
        with pytest.raises(SynthError, match="unknown error class"):
            ErrorInjectionSpec(rates={"gremlins": 1})

    def test_rate_must_be_a_count(self):
        for rate in (0.05, 1.5, 1.0, -1, True, "5", None):
            with pytest.raises(SynthError, match="int >= 0"):
                ErrorInjectionSpec(rates={"zip_malformed": rate})
        assert ErrorInjectionSpec(rates={"zip_malformed": 0}).rates == {"zip_malformed": 0}

    def test_uniform_split_covers_applicable_classes(self):
        spec = ErrorInjectionSpec.uniform(0.05, Technology.WIND, 1000)
        assert set(spec.rates) <= set(ERROR_CLASSES)
        assert "balcony_overpower" not in spec.rates
        assert "hub_rotor_swap" in spec.rates


class TestInjectErrors:
    def test_determinism(self, grid):
        records = generate_clean(Technology.STORAGE, 200, 3, grid)
        spec = ErrorInjectionSpec(rates={"magnitude_mixup": 5, "implausible_year": 5})
        first = inject_errors(records, spec, 11, boundaries=grid)
        second = inject_errors(records, spec, 11, boundaries=grid)
        assert first[0] == second[0]
        assert first[1].expected == second[1].expected

    def test_magnitude_mixup_expected_tests(self, grid):
        records = generate_clean(Technology.SOLAR, 120, 6, grid)
        spec = ErrorInjectionSpec(rates={"magnitude_mixup": 10})
        mutated, truth = inject_errors(records, spec, 2, boundaries=grid)
        assert len(truth.expected) == 10
        for tests in truth.expected.values():
            assert 7 in tests
            assert tests <= {4, 7}

    def test_duplicate_pair_expected(self, grid):
        records = generate_clean(Technology.HYDRO, 50, 6, grid)
        spec = ErrorInjectionSpec(rates={"duplicate_id": 1})
        mutated, truth = inject_errors(records, spec, 2, boundaries=grid)
        ((uid, tests),) = truth.expected.items()
        assert tests == {2}
        assert sum(1 for r in mutated if r.unit_id == uid) == 2

    def test_displacement_expected_location_tests(self, grid):
        records = generate_clean(Technology.WIND, 80, 6, grid)
        spec = ErrorInjectionSpec(rates={"coordinate_displacement": 8}, displacement_km=10.0)
        mutated, truth = inject_errors(records, spec, 3, boundaries=grid)
        for tests in truth.expected.values():
            assert 11 in tests
            assert tests <= {10, 11}
        by_id = {r.unit_id: r for r in mutated}
        for uid in truth.expected:
            record = by_id[uid]
            muni = grid.municipalities.regions[record.municipality_id]
            lat, lon = record.coordinate
            assert not oracle_point_in_region(lat, lon, muni)
            assert oracle_boundary_distance_m(lat, lon, muni) >= 10_000.0 * 0.999

    def test_untouched_units_stay_identical(self, grid):
        records = generate_clean(Technology.BIOMASS, 100, 5, grid)
        spec = ErrorInjectionSpec(rates={"zip_malformed": 5})
        mutated, truth = inject_errors(records, spec, 4, boundaries=grid)
        touched = set(truth.expected)
        for before, after in zip(records, mutated):
            if after.unit_id in touched:
                assert before != after
            else:
                assert before == after

    def test_more_targets_than_records_is_an_error(self, grid):
        records = generate_clean(Technology.WIND, 10, 5, grid)
        with pytest.raises(SynthError, match="eligible"):
            inject_errors(records, ErrorInjectionSpec(rates={"zip_malformed": 11}), 1, boundaries=grid)

    def test_each_unit_gets_at_most_one_class(self, grid):
        records = generate_clean(Technology.WIND, 60, 5, grid)
        spec = ErrorInjectionSpec(
            rates={"zip_malformed": 20, "implausible_year": 20, "hub_rotor_swap": 20}
        )
        mutated, truth = inject_errors(records, spec, 1, boundaries=grid)
        assert len(truth.expected) == 60

    def test_displacement_must_exceed_buffer(self, grid):
        records = generate_clean(Technology.WIND, 10, 5, grid)
        spec = ErrorInjectionSpec(rates={"coordinate_displacement": 1}, displacement_km=1.0)
        with pytest.raises(SynthError, match="buffer"):
            inject_errors(records, spec, 1, boundaries=grid, config=RuleConfig())

    def test_injected_errors_detected_with_exact_recall(self, grid, config):
        for technology in (Technology.SOLAR, Technology.WIND):
            records = generate_clean(technology, 300, 9, grid)
            spec = ErrorInjectionSpec.uniform(0.06, technology, len(records))
            mutated, truth = inject_errors(records, spec, 9, boundaries=grid)
            result = run_suite(mutated, grid, config)
            flagged: dict = {}
            for fr in result.failures:
                flagged.setdefault(fr.unit_id, set()).update(fr.test_ids)
            for uid, expected in truth.expected.items():
                assert expected <= flagged.get(uid, set())
            for uid in flagged:
                assert uid in truth.expected


class TestGroundTruth:
    def test_json_round_trip(self, grid, tmp_path):
        # synth writes the truth its injections returned, merged over technologies.
        argv = ["synth", "--technology", "solar", "--technology", "wind", "--count", "80", "--seed", "5"]
        assert main([*argv, "--error-rate", "0.2", "--out", str(tmp_path)]) == 0
        written = json.loads((tmp_path / "ground_truth.json").read_text(encoding="utf-8"))
        expected: dict = {}
        class_counts: Counter = Counter()
        for tech in (Technology.SOLAR, Technology.WIND):
            records = generate_clean(tech, 80, 5, grid)
            _, truth = inject_errors(records, ErrorInjectionSpec.uniform(0.2, tech, len(records)), 5, boundaries=grid)
            assert truth.seed == 5
            expected.update(truth.expected)
            class_counts.update(truth.class_counts)
        assert {uid: frozenset(tests) for uid, tests in written["units"].items()} == expected
        assert written["class_counts"] == dict(class_counts)
        assert written["seed"] == 5

    def test_power_accumulation_helper_consistency(self, grid):
        records = generate_clean(Technology.WIND, 20, 2, grid)
        assert all(getattr(r, POWER_FIELD[r.technology]) == r.power_kw for r in records)


# SHA-256 of every file of `synth --count 200 --seed 7 --error-rate 0.05`,
# the same on Python 3.10, 3.11 and 3.12. A change to generation, injection
# or the writers that moves one byte must come with new digests.
_REFERENCE_DIGESTS = {
    "biomass.csv": "d92f5f2175bb745be8c3a5a404d2e5824ef5d794810504d5f4b6ecada8018e28",
    "combustion.csv": "84b22f7da5814339925891ce33891e288705a90ece5d0f2b3ffa78cfbdaccbd1",
    "districts.geojson": "bf4ecef77700d7573340630f2d870bd0d2a5a5944678f70fc8740f54fa61458d",
    "ground_truth.json": "9c840663fe935ea1dcd92f25839831adfd51bf5367a96d1a1b1e2dbd18fb9be2",
    "hydro.csv": "9c55064b2b1ecda4cf5a955726638119ee840a10e4670fe50e06d7cad5be2276",
    "municipalities.geojson": "c7914499290f2c033a962e4cc9501eaaafa2673e0fc7f42fc057f7a0eb38ece7",
    "solar.csv": "90d3833d7d43fdafa03b2d62d11eb3eda0cebc04f9dcb0bec4b1fea3075d46ed",
    "storage.csv": "fd1b111e3826f60ee75a576b07fd1985b4dbe69c782ce3674e0c9bb0874f1429",
    "wind.csv": "306f2bd0d3b595402b78b95a1643e6d6c374b35d6b9a8859778f3f549f34aded",
}


def test_reference_fixture_bytes_are_pinned(tmp_path):
    argv = ["synth", "--count", "200", "--seed", "7", "--error-rate", "0.05", "--out", str(tmp_path)]
    assert main(argv) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert written == _REFERENCE_DIGESTS


# SHA-256 of the validate outputs of that fixture (rectangle-grid boundaries)
# that bench/gate.py does not pin, and of the summary and histograms that
# `report --bin-width 2 --overflow 100` rebuilds from them.
_VALIDATE_DIGESTS = {
    "completeness.csv": "1a1882ad3283266834ddaa514f6aa8265d74d9698ee8af78aaed5bec497a8286",
    "errors_by_district.csv": "abaade3c807b0c7b0963bd06010158ec6d03b242d85f21346573d6b75398288c",
    "distance_histogram_biomass.csv": "8f2272c79b6d10279ccaa49dadfe0aea0bf2e3c0f7d06f6f35ac2ae2bd5ac03b",
    "distance_histogram_combustion.csv": "d71fece2d791d40e23e4937f0d176da5abd2ad5015c5b0c0b5ec0757d2af95b0",
    "distance_histogram_hydro.csv": "a786a9ebbcc488f5dc9738354b943d3caf9dac2fe8e4d2c1f8825718b4863161",
    "distance_histogram_solar.csv": "9cb4e0213bedc127ef0f4762d10f968af9daceba63012732dd17f442fad33911",
    "distance_histogram_storage.csv": "d71fece2d791d40e23e4937f0d176da5abd2ad5015c5b0c0b5ec0757d2af95b0",
    "distance_histogram_wind.csv": "5403ae4c2dd0831e799f737ce0cd01ec84c21fdec69c124672845ae8c8055efc",
}
_REPORT_DIGESTS = {
    "summary.json": "0ea7fd1b79949e5ae9b3d7e03e4300587ed4e1900e1378d9aac1f10c9600d166",
    "distance_histogram_biomass.csv": "7d1955a140f37004b91230df06334d5e1ad4fcf2be7850300f07a26c8345364c",
    "distance_histogram_combustion.csv": "fc743e58b292241e635f58035aa7bab5ec9cb3098ce1d44bfb7d2bd3e7cfe1c8",
    "distance_histogram_hydro.csv": "48d6391d70e994908b16fb2ec5d275bb660bdf393f57c04e67bf6e2153948485",
    "distance_histogram_solar.csv": "dffc107ff8ffb0feb69773cce512b099211790e6cfa419dc9a267ce0534dec6b",
    "distance_histogram_storage.csv": "fc743e58b292241e635f58035aa7bab5ec9cb3098ce1d44bfb7d2bd3e7cfe1c8",
    "distance_histogram_wind.csv": "dffc107ff8ffb0feb69773cce512b099211790e6cfa419dc9a267ce0534dec6b",
}


# The reference fixture's digests that bench/gate.py pins.
_GATE_DIGESTS = {
    "failures.ndjson": "e7f1a5031fb632f28fb1f3f23084f36e4cd535b5495b70fe8082a6b5e3627ff7",
    "failures.csv": "bb74e5fb9975d69d98f049249d0c201112013187b56ec904dc5a14d8e53377fb",
    "summary.json": "0ee61c3d7ab54c09097debf1f3e8a1d08927237341c76657bce1e537f520ef8f",
}


def _reference_fixture(tmp_path) -> Path:
    fixture = tmp_path / "fixture"
    assert main(["synth", "--count", "200", "--seed", "7", "--error-rate", "0.05", "--out", str(fixture)]) == 0
    return fixture


def _validate_argv(fixture: Path, out: Path) -> list[str]:
    """validate's arguments for a fixture of all six tables."""
    argv = ["validate", "--out", str(out)]
    for tech in Technology:
        argv += ["--input", f"{tech.value}={fixture / f'{tech.value}.csv'}"]
    for kind in ("districts", "municipalities"):
        argv += [f"--{kind}", str(fixture / f"{kind}.geojson")]
    return argv


def _validate(fixture: Path, out: Path) -> Path:
    """validate's output directory for a fixture of all six tables."""
    assert main(_validate_argv(fixture, out)) == 1  # the fixture has failing units
    return out


def _validate_reference_fixture(tmp_path) -> Path:
    """validate's output directory for the reference fixture."""
    return _validate(_reference_fixture(tmp_path), tmp_path / "out")


def _digests(out: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def test_reference_fixture_outputs_are_pinned(tmp_path):
    out = _validate_reference_fixture(tmp_path)
    assert _digests(out, _VALIDATE_DIGESTS) == _VALIDATE_DIGESTS
    assert main(["report", "--out", str(out), "--bin-width", "2", "--overflow", "100"]) == 0
    assert _digests(out, _REPORT_DIGESTS) == _REPORT_DIGESTS


def test_process_entry_writes_the_pinned_bytes(tmp_path):
    # validate and report through `python -m registrylint.cli`, which ends
    # in run()'s frozen exit: every output byte is on disk, and each
    # command prints exactly one JSON line.
    out = tmp_path / "out"
    validate = _validate_argv(_reference_fixture(tmp_path), out)
    report = ["report", "--out", str(out), "--bin-width", "2", "--overflow", "100"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for argv, code, pinned in (
        (validate, 1, {**_GATE_DIGESTS, **_VALIDATE_DIGESTS}),
        (report, 0, {**_REPORT_DIGESTS, "failures.ndjson": _GATE_DIGESTS["failures.ndjson"],
                     "failures.csv": _GATE_DIGESTS["failures.csv"]}),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "registrylint.cli", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == code, done.stderr
        (line,) = done.stdout.splitlines()
        assert isinstance(json.loads(line), dict)
        assert _digests(out, pinned) == pinned


def test_validate_builds_no_unit_record(tmp_path, monkeypatch):
    # The reader's blocks go to the suite as columns: with record building
    # and UnitRecord's checks both made to raise, validate writes the same
    # bytes. The reader looks checked_records up in model when iterated.
    fixture = _reference_fixture(tmp_path)

    def no_records(*args, **kwargs):
        raise AssertionError("validate built a UnitRecord")

    monkeypatch.setattr("registrylint.model.checked_records", no_records)
    monkeypatch.setattr(UnitRecord, "__post_init__", no_records)
    out = _validate(fixture, tmp_path / "out")
    assert _digests(out, _VALIDATE_DIGESTS) == _VALIDATE_DIGESTS
    assert _digests(out, _GATE_DIGESTS) == _GATE_DIGESTS


def test_report_accepts_the_summaries_that_validate_and_report_write(tmp_path):
    out = _validate_reference_fixture(tmp_path)
    assert _digests(out, _VALIDATE_DIGESTS) == _VALIDATE_DIGESTS
    written = {path.name: path.read_bytes() for path in out.iterdir()}
    # The summary is compared as a document, whatever its file's formatting.
    summary = out / "summary.json"
    summary.write_text(json.dumps(json.loads(summary.read_text(encoding="utf-8"))), encoding="utf-8")
    assert main(["report", "--out", str(out)]) == 0
    assert {path.name: path.read_bytes() for path in out.iterdir()} == written
    # A rebinned summary, with one overflow for every technology, reads back.
    assert main(["report", "--out", str(out), "--bin-width", "2", "--overflow", "100"]) == 0
    assert _digests(out, _REPORT_DIGESTS) == _REPORT_DIGESTS
    assert main(["report", "--out", str(out)]) == 0
    assert {path.name: path.read_bytes() for path in out.iterdir()} == written
