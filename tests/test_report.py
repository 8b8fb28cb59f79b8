"""Aggregation metrics and export determinism."""

import copy
import csv
import io
import json
import math
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from registrylint.catalog import CHECKMARKS
from registrylint.model import FailureRecord, RuleOutcome, Technology, UnitRecord
from registrylint.report import (
    ReportError,
    _failure_line,
    _histogram_csv,
    _write_failures_csv,
    _json_line,
    _lowest_terms,
    build_report,
    distance_histogram,
    export,
    failure_from_json,
    load_failures_ndjson,
    percent,
    summary_json,
)
from registrylint.rules import FailureSet, run_suite
from registrylint.synth import generate_clean

from conftest import column_stats, completeness, example_record


def failure_to_json(fr: FailureRecord) -> dict:
    """The failures.ndjson object of fr, which failure_from_json reads back:
    FailureRecord's fields, the technology by name and each failed test as
    an object, in the order export writes them."""
    return {
        "unit_id": fr.unit_id,
        "technology": fr.technology.value,
        "power_kw": fr.power_kw,
        "district_id": fr.district_id,
        "municipality_id": fr.municipality_id,
        "dso_inspected": fr.dso_inspected,
        "tests": [
            {"test_id": o.test_id, "detail": o.detail, "measured": o.measured, "measured_unit": o.measured_unit}
            for o in fr.failed
        ],
    }


def _wind_unit(uid: str, power_kw=2000.0, dso=True, owner=True) -> UnitRecord:
    return UnitRecord(
        technology=Technology.WIND,
        unit_id=uid,
        owner_id="ABR000000000001" if owner else None,
        power_kw=power_kw,
        grid_operator_inspection=dso,
    )


def _location_failure(uid: str, distance_m: float, tech=Technology.WIND, district="10001",
                      power_kw=2000.0, dso=True) -> FailureRecord:
    outcome = RuleOutcome(10, "outside registered district", distance_m, "m")
    return FailureRecord(
        unit_id=uid,
        technology=tech,
        power_kw=power_kw,
        district_id=district,
        municipality_id=district + "000",
        dso_inspected=dso,
        failed=(outcome,),
    )


def _completeness(records, column: str) -> Fraction:
    """A wind column's completeness fraction in the summary; its percent is the fraction's."""
    fraction, rendered = completeness(records, Technology.WIND, column)
    assert rendered == percent(*fraction.as_integer_ratio())
    return fraction


def _wind_metrics(failures, records, dso_only=False):
    """The wind block of the summary document over these failures and records."""
    failure_set = FailureSet(
        failures=failures,
        records_total={Technology.WIND: len(records)},
        records_dso={Technology.WIND: sum(r.grid_operator_inspection is True for r in records)},
        evaluated_tests=(),
    )
    report = build_report(failure_set, column_stats(records))
    return report["per_technology_dso" if dso_only else "per_technology"]["wind"]


class TestCompleteness:
    def test_97_of_100(self):
        table = [_wind_unit(f"SEE9{i:011d}", owner=i < 97) for i in range(100)]
        frac = _completeness(table, "owner_id")
        assert frac == Fraction(97, 100)
        assert percent(*frac.as_integer_ratio()) == 97

    def test_all_null_column(self):
        table = [_wind_unit(f"SEE9{i:011d}") for i in range(10)]
        assert _completeness(table, "zip_code") == 0

    def test_empty_table_is_vacuously_complete(self):
        assert _completeness([], "owner_id") == 1

    def test_rounding_is_half_up(self):
        assert percent(995, 1000) == 100
        assert percent(994, 1000) == 99
        assert percent(1, 200) == 1
        assert percent(1, 201) == 0

    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), denominator=st.integers(1, 2**63) | st.sampled_from([1, 2, 200, 2**63]))
    def test_share_and_percent_are_fractions(self, data, denominator):
        numerator = data.draw(st.integers(0, denominator) | st.sampled_from([0, denominator]))
        share = Fraction(numerator, denominator)
        assert _lowest_terms(numerator, denominator) == (share.numerator, share.denominator)
        assert percent(numerator, denominator) == int(share * 100 + Fraction(1, 2))

    def test_column_stats_match_direct_computation(self, grid):
        records = generate_clean(Technology.SOLAR, 40, 3, grid)
        records[0] = replace(records[0], owner_id=None)
        records[5] = replace(records[5], owner_id=None)
        fraction, rendered = completeness(records, Technology.SOLAR, "owner_id")
        direct = Fraction(sum(r.owner_id is not None for r in records), len(records))
        assert fraction == direct
        assert fraction == Fraction(38, 40)
        assert rendered == percent(*direct.as_integer_ratio())


class TestErrorShare:
    def test_three_failing_wind_units(self):
        records = [_wind_unit(f"SEE9{i:011d}") for i in range(100)]
        failures = [_location_failure(records[i].unit_id, 5000.0) for i in range(3)]
        metrics = _wind_metrics(failures, records)
        assert metrics["failure_share"] == pytest.approx(0.03)
        assert metrics["accumulated_failing_power_kw"] == pytest.approx(6000.0)

    def test_no_failures(self):
        records = [_wind_unit(f"SEE9{i:011d}") for i in range(10)]
        metrics = _wind_metrics([], records)
        assert (metrics["failure_share"], metrics["accumulated_failing_power_kw"]) == (0.0, 0.0)

    def test_dso_filter_restricts_both_sides(self):
        records = [_wind_unit(f"SEE9{i:011d}", dso=i % 2 == 0) for i in range(100)]
        failures = [
            _location_failure("SEE900000000000", 5000.0, dso=True),
            _location_failure("SEE900000000001", 5000.0, dso=False),
        ]
        metrics = _wind_metrics(failures, records, dso_only=True)
        assert metrics["failure_share"] == pytest.approx(1 / 50)
        assert metrics["accumulated_failing_power_kw"] == pytest.approx(2000.0)

    def test_test_filter(self):
        records = [_wind_unit(f"SEE9{i:011d}") for i in range(10)]
        metrics = _wind_metrics([_location_failure("SEE900000000000", 5000.0)], records)
        assert metrics["per_test"].get("11", 0) / metrics["unit_count"] == 0.0
        assert metrics["per_test"]["10"] / metrics["unit_count"] == pytest.approx(0.1)


class TestDistanceHistogram:
    def test_hand_counted_bins(self):
        failures = [
            _location_failure("A", 2_000.0),
            _location_failure("B", 7_000.0),
            _location_failure("C", 65_000.0),
        ]
        hist = distance_histogram(failures, bin_width_km=5.0, overflow_km=60.0)
        assert hist["counts"][0] == 1  # [0, 5)
        assert hist["counts"][1] == 1  # [5, 10)
        assert sum(hist["counts"][2:]) == 0
        assert hist["overflow"] == 1
        assert sum(hist["counts"]) + hist["overflow"] == 3

    def test_empty_failures(self):
        hist = distance_histogram([], bin_width_km=5.0, overflow_km=60.0)
        assert sum(hist["counts"]) == 0 and hist["overflow"] == 0

    def test_overflow_boundary_lands_in_overflow(self):
        hist = distance_histogram([_location_failure("A", 60_000.0)], bin_width_km=5.0, overflow_km=60.0)
        assert hist["overflow"] == 1

    def test_unmeasured_failures_not_binned(self):
        fr = FailureRecord(
            unit_id="A", technology=Technology.WIND, power_kw=1.0, district_id=None,
            municipality_id=None, dso_inspected=False,
            failed=(RuleOutcome(10, "unknown region key", None, None),),
        )
        hist = distance_histogram([fr])
        assert sum(hist["counts"]) + hist["overflow"] == 0

    def test_non_positive_bin_width_rejected(self):
        with pytest.raises(ReportError, match="bin width"):
            distance_histogram([], bin_width_km=0.0)

    def test_bin_count_that_underflows_keeps_one_bin(self):
        # 1e-30 / 1e300 is 0.0 in floating point; a zero distance still needs a bin.
        hist = distance_histogram([_location_failure("A", 0.0)], bin_width_km=1e300, overflow_km=1e-30)
        assert hist["counts"] == [1] and hist["overflow"] == 0

    @pytest.mark.parametrize("width_km, overflow_km", [(0.7, 63.0), (3.3, 214.5)])
    def test_distance_just_below_overflow_lands_in_last_bin(self, width_km, overflow_km):
        # The quotient of the largest distance below the threshold rounds
        # up to the bin count.
        distance_km = math.nextafter(overflow_km, 0.0)
        assert int(distance_km / width_km) == math.ceil(overflow_km / width_km)
        failure = _location_failure("A", distance_km * 1000.0)
        assert failure.failed[0].measured / 1000.0 == distance_km
        hist = distance_histogram([failure], bin_width_km=width_km, overflow_km=overflow_km)
        assert hist["counts"][-1] == sum(hist["counts"]) == 1 and hist["overflow"] == 0

    @given(
        distances=st.lists(st.floats(min_value=0.0, max_value=500.0, allow_nan=False), max_size=40),
        width=st.sampled_from([1.0, 2.5, 5.0, 10.0]),
    )
    def test_totals_invariant_under_bin_refinement(self, distances, width):
        failures = [_location_failure(f"U{i}", d * 1000.0) for i, d in enumerate(distances)]
        coarse = distance_histogram(failures, bin_width_km=width, overflow_km=60.0)
        fine = distance_histogram(failures, bin_width_km=width / 2.0, overflow_km=60.0)
        assert sum(coarse["counts"]) + coarse["overflow"] == sum(fine["counts"]) + fine["overflow"] == len(distances)
        assert coarse["overflow"] == fine["overflow"]


class TestNdjsonRoundTrip:
    def test_failure_record_round_trips(self):
        fr = _location_failure("SEE900000000007", 12_345.6)
        assert failure_from_json(failure_to_json(fr)) == fr


# Text with non-ASCII characters, quotes, backslashes and control characters,
# all of it UTF-8 (a lone surrogate is no Unicode, and no export writes it).
_texts = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\r\t\u2028\u00e9\u20ac\U0001f600,;'), st.characters(codec="utf-8"))
)
# None, booleans (a bool is an int to isinstance), integers and floats, with
# -0.0, 1e16, NaN and infinities among them.
_values = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([-0.0, 1e16, math.nan, math.inf, -math.inf]),
)
_failure_records = st.builds(
    FailureRecord,
    unit_id=st.none() | _texts,
    technology=st.sampled_from(Technology),
    power_kw=_values,
    district_id=st.none() | _texts,
    municipality_id=st.none() | _texts,
    dso_inspected=st.booleans(),
    failed=st.lists(
        st.builds(RuleOutcome, st.integers(), _texts, _values, st.none() | _texts),
        min_size=1, max_size=4,
    ).map(tuple),
)


# failure_from_json as it read a line before its type-signature screen: each
# key checked in turn. The fast path must agree with it on every payload.
_REF_TEXT = (str, type(None))
_REF_NUMBER = (int, float, type(None))
_REF_FAILURE_TYPES = {
    "unit_id": _REF_TEXT, "technology": (str,), "power_kw": _REF_NUMBER, "district_id": _REF_TEXT,
    "municipality_id": _REF_TEXT, "dso_inspected": (bool,),
}
_REF_TEST_TYPES = {"test_id": (int,), "detail": (str,), "measured": _REF_NUMBER, "measured_unit": _REF_TEXT}


def _reference_check_types(payload, types):
    for key, kinds in types.items():
        value = payload[key]
        kind = value.__class__
        if kind not in kinds:
            raise TypeError(f"{key} has the wrong type: {value!r}")
        if kind is float or kind is int:
            if not -sys.float_info.max <= value <= sys.float_info.max:
                raise ValueError(f"{key} is not a finite float: {value!r}")
        elif kind is str and not value.isascii():
            value.encode("utf-8")


def _reference_failure_from_json(payload):
    _reference_check_types(payload, _REF_FAILURE_TYPES)
    unit_id, technology, *context = (payload[key] for key in _REF_FAILURE_TYPES)
    tech = Technology(technology)
    tests = payload["tests"]
    for t in tests:
        _reference_check_types(t, _REF_TEST_TYPES)
        if tech not in CHECKMARKS.get(t["test_id"], ()):
            raise ValueError(f"test {t['test_id']} is not check-marked for {technology}")
    test_ids = [t["test_id"] for t in tests]
    if not test_ids or test_ids != sorted(set(test_ids)):
        raise ValueError(f"tests {test_ids} are not one or more distinct ids in ascending order")
    failed = tuple(RuleOutcome(t["test_id"], t["detail"], t["measured"], t["measured_unit"]) for t in tests)
    return FailureRecord(unit_id, tech, *context, failed)


@st.composite
def _failure_payloads(draw):
    """A failures.ndjson object that validate could write."""
    tech = draw(st.sampled_from(Technology))
    marked = sorted(tid for tid, techs in CHECKMARKS.items() if tech in techs)
    test_ids = sorted(draw(st.lists(st.sampled_from(marked), min_size=1, max_size=4, unique=True)))
    text = st.none() | _texts
    number = st.none() | st.integers(-(10**20), 10**20) | st.floats(allow_nan=False, allow_infinity=False)
    tests = [
        {"test_id": tid, "detail": draw(_texts), "measured": draw(number), "measured_unit": draw(text)}
        for tid in test_ids
    ]
    return {
        "unit_id": draw(text), "technology": tech.value, "power_kw": draw(number), "district_id": draw(text),
        "municipality_id": draw(text), "dso_inspected": draw(st.booleans()), "tests": tests,
    }


# What a malformed line may hold in place of a value: a boolean or text
# where a number belongs, a number where text belongs, NaN, 1e400 (which
# json reads as inf), a 400-digit integer, a lone surrogate, or a container.
_BAD_VALUES = [
    True, False, "12", "", "\u00e9", 7, 1.5, -0.0, None, math.nan, math.inf, -math.inf, 10**400, -(10**400),
    "\ud800", "ok\udfff", [], {}, [1], {"test_id": 3},
]


@st.composite
def _mutated_payloads(draw):
    """A valid failure object with one to three mutations: a replaced or
    missing value of the record or of a test, an unmarked or repeated test
    id, tests out of order, or no tests."""
    payload = draw(_failure_payloads())
    for _ in range(draw(st.integers(1, 3))):
        tests = payload["tests"] if isinstance(payload.get("tests"), list) else []
        dicts = [t for t in tests if isinstance(t, dict)]
        kind = draw(st.sampled_from(["replace", "delete", "test id", "repeat", "swap", "no tests"]))
        target = draw(st.sampled_from([payload, *dicts]))
        if kind == "replace":
            target[draw(st.sampled_from(sorted(target)))] = draw(st.sampled_from(_BAD_VALUES))
        elif kind == "delete" and target:
            del target[draw(st.sampled_from(sorted(target)))]
        elif kind == "test id" and dicts:
            draw(st.sampled_from(dicts))["test_id"] = draw(st.sampled_from([0, 2, 9, 14, 16, 99, -1, 10**400]))
        elif kind == "repeat" and tests:
            tests.append(copy.deepcopy(draw(st.sampled_from(tests))))
        elif kind == "swap" and len(tests) > 1:
            tests[0], tests[-1] = tests[-1], tests[0]
        elif kind == "no tests":
            payload["tests"] = []
    return payload


def _read_back(read, payload):
    """read(payload), or the type and message of the exception it raises."""
    try:
        return read(copy.deepcopy(payload))
    except Exception as exc:  # every refusal is compared by type and message
        return type(exc), str(exc)


class TestReadBackAgreesWithReference:
    @settings(max_examples=300, deadline=None)
    @given(payload=_failure_payloads())
    def test_valid_payloads(self, payload):
        expected = _reference_failure_from_json(payload)
        assert failure_from_json(payload) == expected
        assert failure_from_json(json.loads(json.dumps(payload, ensure_ascii=False))) == expected

    @settings(max_examples=40, deadline=None)
    @given(payload=_failure_payloads())
    def test_every_replaced_or_missing_value(self, payload):
        for target in range(-1, len(payload["tests"])):
            for key in payload if target < 0 else payload["tests"][target]:
                for value in (*_BAD_VALUES, KeyError):
                    mutated = copy.deepcopy(payload)
                    where = mutated if target < 0 else mutated["tests"][target]
                    if value is KeyError:
                        del where[key]
                    else:
                        where[key] = value
                    assert _read_back(failure_from_json, mutated) == _read_back(
                        _reference_failure_from_json, mutated
                    ), (target, key, value)

    @settings(max_examples=1000, deadline=None)
    @given(payload=_mutated_payloads())
    def test_mutated_payloads(self, payload):
        assert _read_back(failure_from_json, payload) == _read_back(_reference_failure_from_json, payload)

    @pytest.mark.parametrize("payload", ["text", 7, None, [], [{"unit_id": None}]])
    def test_payloads_that_are_no_object(self, payload):
        assert _read_back(failure_from_json, payload) == _read_back(_reference_failure_from_json, payload)

    @settings(max_examples=500, deadline=None)
    @given(
        payload=_failure_payloads(),
        cut=st.integers(0, 400),
        insert=st.sampled_from(["", " ", "\ufeff", "x", "}", "]", ",", '"', "\\", "1", "[", "{", "NaN", "\n"]),
        where=st.sampled_from(["start", "cut", "end"]),
    )
    def test_json_line_is_json_loads(self, payload, cut, insert, where):
        text = json.dumps(payload, ensure_ascii=False)
        line = {"start": insert + text, "cut": text[:cut] + insert + text[cut:], "end": text + insert}[where].strip()
        assert _read_back(_json_line, line) == _read_back(json.loads, line)


def _parent_failures_csv(failures) -> str:
    """failures.csv as export wrote it before it streamed the file: one
    csv.writer into a StringIO, its text written at once."""
    header = (
        "unit_id", "technology", "test_ids", "detail", "measured", "measured_unit", "power_kw", "district_id",
        "municipality_id",
    )
    rows = (
        (
            fr.unit_id,
            fr.technology.value,
            ";".join(str(o.test_id) for o in fr.failed),
            ";".join(o.detail for o in fr.failed),
            ";".join("" if o.measured is None else repr(o.measured) for o in fr.failed),
            ";".join(o.measured_unit or "" for o in fr.failed),
            fr.power_kw,
            fr.district_id,
            fr.municipality_id,
        )
        for fr in failures
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _with_detail(detail: str) -> FailureRecord:
    """A one-test failure with the given detail."""
    fr = _location_failure("SEE900000000007", 12_345.6)
    return fr._replace(failed=(fr.failed[0]._replace(detail=detail),))


class TestStreamedFailureFiles:
    """export streams the failure files; their bytes are json.dumps's and
    the csv module's, as when each file was rendered whole."""

    @settings(max_examples=300, deadline=None)
    @given(fr=_failure_records)
    def test_ndjson_line_is_json_dumps(self, fr):
        assert _failure_line(fr) == json.dumps(failure_to_json(fr), ensure_ascii=False) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(fr=_failure_records)
    @example(fr=_location_failure("SEE900000000007", 12_345.6))
    @example(fr=_location_failure("SEE900000000007", 12_345.6, power_kw=None, district="1,2"))
    @example(fr=_location_failure("a,b", 0.0, power_kw=-0.0))
    @example(fr=_with_detail("power 2 kW outside [3, 4] kW"))
    @example(fr=_with_detail('say "hi", twice'))
    @example(fr=_with_detail("line\rbreak, again"))
    @example(fr=_with_detail("nul\x00, inside"))
    def test_failures_csv_rows_are_the_writers_bytes(self, fr):
        # The rows rendered without the csv writer and the rows it writes
        # alike; where it refuses a value (Python 3.10 refuses a NUL), the
        # file refuses it too.
        buf = io.StringIO()
        try:
            expected = _parent_failures_csv([fr])
        except csv.Error:
            with pytest.raises(csv.Error):
                _write_failures_csv(buf, [fr])
            return
        _write_failures_csv(buf, [fr])
        assert buf.getvalue() == expected

    @settings(max_examples=40, deadline=None)
    @given(failures=st.lists(_failure_records, max_size=5))
    def test_streamed_files_equal_whole_renderings(self, failures):
        # Where the running csv module refuses a value (Python 3.10 refuses
        # a NUL), export refuses it too, with a ReportError naming the file.
        ndjson = "".join(json.dumps(failure_to_json(fr), ensure_ascii=False) + "\n" for fr in failures)
        with tempfile.TemporaryDirectory() as tmp:
            out, reference = Path(tmp) / "out", Path(tmp) / "reference"
            reference.mkdir()
            try:
                failures_csv = _parent_failures_csv(failures)
            except csv.Error:
                with pytest.raises(ReportError, match="failures.csv"):
                    export(failures, {}, out, formats=("ndjson", "csv"))
                assert list(out.iterdir()) == []
                return
            (reference / "failures.ndjson").write_text(ndjson, encoding="utf-8")
            (reference / "failures.csv").write_text(failures_csv, encoding="utf-8")
            export(failures, {}, out, formats=("ndjson", "csv"))
            for name in ("failures.ndjson", "failures.csv"):
                assert (out / name).read_bytes() == (reference / name).read_bytes(), name

    def test_unrenderable_value_leaves_no_file(self, tmp_path):
        fr = _location_failure("SEE900000000007", 12_345.6)._replace(power_kw=Fraction(1, 3))
        with pytest.raises(TypeError, match="Fraction"):
            json.dumps(failure_to_json(fr))
        with pytest.raises(TypeError, match="Fraction"):
            export([fr], {}, tmp_path, formats=("ndjson",))
        assert list(tmp_path.iterdir()) == []


class TestExport:
    @pytest.fixture()
    def run_outputs(self, grid, config):
        records = [
            example_record(grid, Technology.WIND),
            replace(
                example_record(grid, Technology.SOLAR),
                number_of_modules=1,
                power_inverter_kw=5000.0,
            ),
            replace(example_record(grid, Technology.STORAGE), installation_year=1923),
        ]
        failure_set = run_suite(records, grid, config)
        stats = column_stats(records)
        return failure_set, build_report(failure_set, stats)

    def test_failures_csv_shape(self, run_outputs, tmp_path):
        failure_set, report = run_outputs
        export(failure_set.failures, report, tmp_path)
        lines = (tmp_path / "failures.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "unit_id,technology,test_ids,detail,measured,measured_unit,power_kw,district_id,municipality_id"
        assert len(lines) == 3  # header + 2 failing units
        solar_line = next(line for line in lines if ",solar," in line)
        assert "6;7" in solar_line

    def test_reexport_is_byte_identical(self, run_outputs, tmp_path):
        failure_set, report = run_outputs
        export(failure_set.failures, report, tmp_path / "a")
        export(failure_set.failures, report, tmp_path / "b")
        for name in ("failures.csv", "failures.ndjson", "summary.json", "completeness.csv",
                     "errors_by_district.csv", "distance_histogram_wind.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_ndjson_reload_matches(self, run_outputs, tmp_path):
        failure_set, report = run_outputs
        export(failure_set.failures, report, tmp_path)
        again = load_failures_ndjson(tmp_path / "failures.ndjson")
        assert again == failure_set.failures

    def test_errors_by_district_table(self, run_outputs, tmp_path):
        failure_set, report = run_outputs
        export(failure_set.failures, report, tmp_path)
        lines = (tmp_path / "errors_by_district.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "district_id,test_id,count,accumulated_power_kw"
        rows = [line.split(",") for line in lines[1:]]
        assert ["10001", "6", "1", "5.0"] in rows
        assert ["10002", "13", "1", "5.0"] in rows

    def test_summary_reports_90_cell_matrix(self, run_outputs):
        _, report = run_outputs
        payload = summary_json(report)
        assert '"cells": 90' in payload
        assert '"checked_pairs": 53' in payload

    def test_per_test_tallies_cover_failing_units(self, run_outputs):
        # A unit can fail several tests, so tallies sum to at least the
        # distinct failing-unit count.
        _, report = run_outputs
        for tech, metrics in report["per_technology"].items():
            assert sum(metrics["per_test"].values()) >= metrics["failing_unit_count"]

    def test_completeness_csv_style(self, run_outputs, tmp_path):
        failure_set, report = run_outputs
        export(failure_set.failures, report, tmp_path)
        lines = (tmp_path / "completeness.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "technology,column,fraction,percent"
        assert "wind,power_kw,1/1,100" in lines
        # Structurally absent columns are not reported for the technology.
        assert not any(line.startswith("wind,power_net_kw") for line in lines)


class TestHistogramEdges:
    def test_edges_cover_overflow_threshold(self):
        hist = {"bin_width_km": 7.0, "overflow_km": 60.0, "counts": [0] * 9, "overflow": 0}
        edges = [tuple(map(float, row.split(",")[:2])) for row in _histogram_csv(hist).splitlines()[1:-1]]
        assert edges[0] == (0.0, 7.0)
        assert edges[-1][1] >= 60.0


def _validate_reference(reference_tables, out: Path) -> None:
    """validate on the reference fixture's tables and boundaries, into out."""
    from registrylint.cli import main

    argv = ["validate", "--out", str(out)]
    for tech in Technology:
        argv += ["--input", f"{tech.value}={reference_tables / f'{tech.value}.csv'}"]
    argv += ["--districts", str(reference_tables / "districts.geojson")]
    argv += ["--municipalities", str(reference_tables / "municipalities.geojson")]
    assert main(argv) == 1


def test_reference_failures_render_again_byte_for_byte(reference_tables, tmp_path):
    # The renderer on the values validate gives: the reference fixture's
    # failure files, read back and exported again, are the same bytes.
    _validate_reference(reference_tables, tmp_path / "run")
    failures = load_failures_ndjson(tmp_path / "run" / "failures.ndjson")
    assert len(failures) > 10 and any(len(fr.failed) > 1 for fr in failures)
    export(failures, {}, tmp_path / "again", formats=("ndjson", "csv"))
    for name in ("failures.ndjson", "failures.csv"):
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name


def test_a_failed_test_is_the_test_object_of_its_failure_line(reference_tables, tmp_path):
    # RuleOutcome's fields are the keys of a test object in failures.ndjson,
    # in order, and reading the file back gives each object as the outcome.
    _validate_reference(reference_tables, tmp_path / "run")
    path = tmp_path / "run" / "failures.ndjson"
    objects = [json.loads(line)["tests"] for line in path.read_text(encoding="utf-8").splitlines()]
    loaded = load_failures_ndjson(path)
    assert len(loaded) == len(objects) > 10
    for fr, tests in zip(loaded, objects):
        assert all(tuple(obj) == RuleOutcome._fields for obj in tests)
        assert fr.failed == tuple(RuleOutcome(**obj) for obj in tests)
