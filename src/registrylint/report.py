"""Aggregation of suite results into quality metrics and file exports.

Metrics: per-technology error shares and accumulated failing power (with
a DSO-verified-subset variant of everything), column completeness, and
distance-to-boundary histograms for location failures. build_report
returns them as the summary.json document, a dict of JSON values, and
export renders every summary file from that one document, and streams
the failure files line by line. Every CSV file is written as _write_csv
writes it, where a null is an empty cell and a float its repr. Exports are
deterministic: identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from itertools import product
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .catalog import CHECKED_PAIR_COUNT, CHECKMARKS, MATRIX_CELL_COUNT
from .model import (
    TECHNOLOGY_BY_NAME,
    FailureRecord,
    FailureSet,
    RuleOutcome,
    Technology,
    columns_for,
    count_failing_units,
)

if TYPE_CHECKING:
    from .model import UnitRecord

# Distances beyond these defaults collapse into one overflow bin.
DEFAULT_OVERFLOW_KM = 60.0
OVERFLOW_KM_BY_TECHNOLOGY = {Technology.SOLAR: 300.0}
DEFAULT_BIN_WIDTH_KM = 5.0
# The most regular bins a histogram may have.
MAX_BINS = 100_000


class ReportError(Exception):
    """Raised for unusable report inputs (malformed failure or summary files, histogram settings)."""


def percent(numerator: int, denominator: int) -> int:
    """The integer percent of the share numerator/denominator, rounded half
    up (display convention), for 0 <= numerator <= denominator."""
    return (200 * numerator + denominator) // (2 * denominator)


def _lowest_terms(numerator: int, denominator: int) -> tuple[int, int]:
    """The share numerator/denominator in lowest terms."""
    divisor = math.gcd(numerator, denominator)
    return numerator // divisor, denominator // divisor


class ColumnStats:
    """Per-technology non-null counters for the completeness table; the
    units are counted once, by the suite's FailureSet.records_total.
    validate takes each technology's counters from its RegistryReader."""

    __slots__ = ("non_null",)

    def __init__(self, non_null: dict[Technology, dict[str, int]] | None = None):
        self.non_null = {} if non_null is None else non_null

    def update(self, record: UnitRecord) -> None:
        """Count one record's non-null columns. validate does not call it;
        bench/traced.py times it and the tests use it to recount records."""
        tech = record.technology
        counters = self.non_null.get(tech)
        if counters is None:
            counters = self.non_null[tech] = {name: 0 for name in columns_for(tech)}
        for name in counters:
            if getattr(record, name) is not None:
                counters[name] += 1


def distance_histogram(
    failures: Iterable[FailureRecord],
    bin_width_km: float = DEFAULT_BIN_WIDTH_KM,
    overflow_km: float = DEFAULT_OVERFLOW_KM,
) -> dict:
    """Histogram of measured distances to the registered district's
    boundary (test 10), as its summary.json block.

    Regular bins cover [k*w, (k+1)*w) below the overflow threshold; every
    distance at or beyond the threshold lands in the overflow bin, so the
    counts and the overflow always sum to the number of binned distances.
    Failures without a computable distance (unknown region keys) are not
    binned; a distance that is negative or not finite is an error. Both
    settings must be finite and positive, and give at most MAX_BINS
    regular bins.
    """
    if not (math.isfinite(bin_width_km) and bin_width_km > 0):
        raise ReportError(f"bin width must be finite and positive, got {bin_width_km!r}")
    if not (math.isfinite(overflow_km) and overflow_km > 0):
        raise ReportError(f"overflow threshold must be finite and positive, got {overflow_km!r}")
    bins = overflow_km / bin_width_km  # 0.0 when it underflows; one bin then, as for any ratio up to 1
    if bins > MAX_BINS:
        raise ReportError(f"bins of {bin_width_km!r} km up to {overflow_km!r} km would be more than {MAX_BINS}")
    counts = [0] * max(1, math.ceil(bins))
    overflow = 0
    for fr in failures:
        for outcome in fr.failed:
            if outcome.test_id != 10 or outcome.measured is None:
                continue
            distance_km = outcome.measured / 1000.0
            if not (math.isfinite(distance_km) and distance_km >= 0.0):
                raise ReportError(f"unit {fr.unit_id!r}: test 10 distance {outcome.measured!r} m is not >= 0")
            if distance_km >= overflow_km:
                overflow += 1
            else:
                # Just below the threshold the quotient can round up to the bin count.
                counts[min(int(distance_km / bin_width_km), len(counts) - 1)] += 1
    return {"bin_width_km": bin_width_km, "overflow_km": overflow_km, "counts": counts, "overflow": overflow}


def _cell_key(test_id: int, technology: Technology) -> str:
    """The matrix.evaluated_counts key of a (test, technology) cell."""
    return f"{test_id}:{technology.value}"


def _metrics(failures: Sequence[FailureRecord], total: int) -> dict:
    """The summary block of one technology's failures, out of `total` units."""
    per_test: dict[int, int] = {}
    power = 0.0
    for fr in failures:
        if fr.power_kw is not None:
            power += fr.power_kw
        for outcome in fr.failed:
            per_test[outcome.test_id] = per_test.get(outcome.test_id, 0) + 1
    failing = count_failing_units(failures)
    if failing > total:
        raise ReportError(f"{failing} failing {failures[0].technology.value} units out of {total} counted")
    return {
        "unit_count": total,
        "failing_unit_count": failing,
        "failure_share": failing / total if total else 0.0,
        # JSON has no number for a sum beyond the float range.
        "accumulated_failing_power_kw": power if math.isfinite(power) else None,
        "per_test": {str(test_id): count for test_id, count in per_test.items()},
        "empty": total == 0,
    }


def build_report(
    failure_set: FailureSet,
    column_stats: ColumnStats,
    *,
    bin_width_km: float = DEFAULT_BIN_WIDTH_KM,
    overflow_km: float | None = None,
) -> dict:
    """The summary.json document of one run, a dict of JSON values;
    overflow_km, when given, replaces every technology's default histogram
    overflow threshold. column_stats counts every technology with units."""
    per_technology, per_technology_dso, percents, fractions, histograms = {}, {}, {}, {}, {}
    by_technology: dict[Technology, list[FailureRecord]] = {tech: [] for tech in Technology}
    for fr in failure_set.failures:
        by_technology[fr.technology].append(fr)
    for tech, tech_failures in by_technology.items():
        name, total = tech.value, failure_set.records_total.get(tech, 0)
        per_technology[name] = _metrics(tech_failures, total)
        per_technology_dso[name] = _metrics(
            [fr for fr in tech_failures if fr.dso_inspected], failure_set.records_dso.get(tech, 0)
        )
        if total:
            non_null = column_stats.non_null[tech]
            shares = {column: _lowest_terms(non_null[column], total) for column in columns_for(tech)}
        else:  # no units are vacuously complete
            shares = dict.fromkeys(columns_for(tech), (1, 1))
        percents[name] = {column: percent(*share) for column, share in shares.items()}
        fractions[name] = {column: list(share) for column, share in shares.items()}
        overflow = OVERFLOW_KM_BY_TECHNOLOGY.get(tech, DEFAULT_OVERFLOW_KM) if overflow_km is None else overflow_km
        histograms[name] = distance_histogram(tech_failures, bin_width_km, overflow)
    # An evaluated test sees every unit of each technology it is check-marked
    # for; load_run checks this rule. The sort fixes the order of CHECKMARKS'
    # sets, whose enum hashes differ from process to process.
    evaluated = {
        _cell_key(tid, tech): failure_set.records_total.get(tech, 0)
        for tid in failure_set.evaluated_tests
        for tech in sorted(CHECKMARKS[tid], key=lambda t: t.value)
    }
    return {
        "matrix": {"cells": MATRIX_CELL_COUNT, "checked_pairs": CHECKED_PAIR_COUNT, "evaluated_counts": evaluated},
        "per_technology": per_technology,
        "per_technology_dso": per_technology_dso,
        "completeness_percent": percents,
        "completeness_fraction": fractions,
        "distance_histograms": histograms,
    }


# The keys of a failure line (in FailureRecord's field order) and of each
# of its tests (RuleOutcome's fields), in the order _failure_line writes
# them, with the types their values may have. JSON gives these exact types,
# so a boolean is no number.
_TEXT = (str, type(None))
_NUMBER = (int, float, type(None))
_FLOAT_MAX = sys.float_info.max
_FAILURE_TYPES = {
    "unit_id": _TEXT, "technology": (str,), "power_kw": _NUMBER, "district_id": _TEXT, "municipality_id": _TEXT,
    "dso_inspected": (bool,),
}
_TEST_TYPES = {"test_id": (int,), "detail": (str,), "measured": _NUMBER, "measured_unit": _TEXT}


def _check_types(payload: dict, types: dict[str, tuple[type, ...]]) -> None:
    """Raise TypeError for a value whose type is not among its key's types,
    and ValueError for a number that is no finite float (NaN, Infinity or a
    huge integer) or for text with a lone surrogate, which is no Unicode."""
    for key, kinds in types.items():
        value = payload[key]
        kind = value.__class__
        if kind not in kinds:
            raise TypeError(f"{key} has the wrong type: {value!r}")
        if kind is float or kind is int:
            if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
                raise ValueError(f"{key} is not a finite float: {value!r}")
        elif kind is str and not value.isascii():
            value.encode("utf-8")  # UnicodeEncodeError is a ValueError


# The screen failure_from_json runs before _check_types: each key's value
# in key order, and every tuple of value types that _check_types accepts.
_failure_values = itemgetter(*_FAILURE_TYPES)
_test_values = itemgetter(*_TEST_TYPES)
_FAILURE_SIGNATURES = frozenset(product(*_FAILURE_TYPES.values()))
_TEST_SIGNATURES = frozenset(product(*_TEST_TYPES.values()))
_TECHNOLOGY_NAMES = {tech: tech.value for tech in Technology}
# The ids of the tests check-marked for each technology.
_MARKED = {tech: frozenset(tid for tid, techs in CHECKMARKS.items() if tech in techs) for tech in Technology}


def failure_from_json(payload: dict) -> FailureRecord:
    """The FailureRecord of a failures.ndjson object.

    A record, and each of its tests, passes a screen: all keys present,
    its value types one of the allowed signatures, every number within the
    float range, all text ASCII, and each test id check-marked for the
    technology. Only a record or test that misses the screen goes through
    _check_types, which raises the refusal (or passes non-ASCII text that
    is valid Unicode), so every refusal keeps its exception and message.
    """
    try:
        values = _failure_values(payload)
    except (KeyError, TypeError):  # _check_types raises it, or an earlier key's error
        values = None
    if (
        values is None
        or tuple(map(type, values)) not in _FAILURE_SIGNATURES
        or not (values[2] is None or -_FLOAT_MAX <= values[2] <= _FLOAT_MAX)
        or not f"{values[0]}{values[1]}{values[3]}{values[4]}".isascii()
    ):
        _check_types(payload, _FAILURE_TYPES)
    unit_id, technology, *context = values
    tech = TECHNOLOGY_BY_NAME.get(technology) or Technology(technology)
    marked = _MARKED[tech]
    failed = []
    last = 0  # the previous test's id; check-marked ids are >= 1
    in_order = True
    for t in payload["tests"]:
        try:
            test = _test_values(t)
        except (KeyError, TypeError):
            test = None
        if (
            test is None
            or tuple(map(type, test)) not in _TEST_SIGNATURES
            or test[0] not in marked
            or not (test[2] is None or -_FLOAT_MAX <= test[2] <= _FLOAT_MAX)
            or not f"{test[1]}{test[3]}".isascii()
        ):
            _check_types(t, _TEST_TYPES)
            # The suite runs a test only for the technologies it is check-marked for.
            if t["test_id"] not in marked:
                raise ValueError(f"test {t['test_id']} is not check-marked for {technology}")
        test_id = test[0]
        in_order = in_order and test_id > last
        last = test_id
        failed.append(tuple.__new__(RuleOutcome, test))  # the screened values, in RuleOutcome's field order
    # The suite runs each test once and lists a failing unit's tests by id.
    if not (failed and in_order):
        raise ValueError(f"tests {[o.test_id for o in failed]} are not one or more distinct ids in ascending order")
    return FailureRecord(unit_id, tech, *context, tuple(failed))


def _json_scalar(value) -> str:
    """value as json.dumps(value, ensure_ascii=False) writes a null, a
    boolean, a string or a number: with json's own string encoder, and
    int's or float's repr, NaN and Infinity spelled as json spells them."""
    if value.__class__ is str:  # the common case first
        return encode_basestring(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if -_FLOAT_MAX <= value <= _FLOAT_MAX:
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0.0 else "-Infinity"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# A failure line's constant text from the unit id to the power, per technology.
_AFTER_UNIT_ID = {tech: f', "technology": {encode_basestring(tech.value)}, "power_kw": ' for tech in Technology}


def _test_json(outcome: RuleOutcome) -> str:
    """One test's object in a failures.ndjson line, rendered as _failure_line renders."""
    j, text = _json_scalar, encode_basestring
    test_id, detail, measured, unit = outcome
    return (
        f'{{"test_id": {test_id if test_id.__class__ is int else j(test_id)}, '
        f'"detail": {text(detail) if detail.__class__ is str else j(detail)}, '
        f'"measured": {measured if measured.__class__ is float and -_FLOAT_MAX <= measured <= _FLOAT_MAX else j(measured)}, '
        f'"measured_unit": {text(unit) if unit.__class__ is str else j(unit)}}}'
    )


def _failure_line(fr: FailureRecord) -> str:
    """The failures.ndjson line of fr, which failure_from_json reads back:
    what json.dumps(..., ensure_ascii=False) writes of the object with the
    keys of _FAILURE_TYPES and "tests", each test with the keys of
    _TEST_TYPES, and a newline. It is rendered value by value, without a
    dict or a JSONEncoder: text with json's string encoder, an int's or a
    finite float's repr by formatting, the technology with the constant
    text around it, and any other value by _json_scalar."""
    j, text = _json_scalar, encode_basestring
    unit_id, technology, power, district, municipality, dso, failed = fr
    tests = _test_json(failed[0]) if len(failed) == 1 else ", ".join(map(_test_json, failed))
    return (
        f'{{"unit_id": {text(unit_id) if unit_id.__class__ is str else j(unit_id)}{_AFTER_UNIT_ID[technology]}'
        f'{power if power.__class__ is float and -_FLOAT_MAX <= power <= _FLOAT_MAX else j(power)}, '
        f'"district_id": {text(district) if district.__class__ is str else j(district)}, '
        f'"municipality_id": {text(municipality) if municipality.__class__ is str else j(municipality)}'
        f', "dso_inspected": {"true" if dso is True else "false" if dso is False else j(dso)}, "tests": [{tests}]}}\n'
    )


def _write_csv(handle: IO[str], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV file's rows as they come: csv writes None as an empty
    cell and a float as its repr, the shortest text that reads back to the
    same float."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A CSV file's text, as _write_csv writes it."""
    buf = io.StringIO()
    _write_csv(buf, header, rows)
    return buf.getvalue()


_FAILURES_CSV_HEADER = (
    "unit_id", "technology", "test_ids", "detail", "measured", "measured_unit", "power_kw", "district_id",
    "municipality_id",
)


def _failure_rows(failures: Iterable[FailureRecord]) -> Iterable[tuple]:
    """The failures.csv rows, one per failure; a unit's tests are joined
    by ";" in each test column, and a one-test failure's values need no join."""
    for unit_id, technology, power, district, municipality, _, failed in failures:
        if len(failed) == 1:
            (test_id, detail, measured, unit), = failed
            tests = (str(test_id), detail, "" if measured is None else repr(measured), unit or "")
        else:
            tests = (
                ";".join([str(o.test_id) for o in failed]),
                ";".join([o.detail for o in failed]),
                ";".join(["" if o.measured is None else repr(o.measured) for o in failed]),
                ";".join([o.measured_unit or "" for o in failed]),
            )
        yield (unit_id, _TECHNOLOGY_NAMES[technology], *tests, power, district, municipality)


def _write_failures_csv(handle: IO[str], failures: Iterable[FailureRecord]) -> None:
    """failures.csv, the bytes _write_csv writes of the _failure_rows.

    A row is rendered here when its text holds no quote, CR, LF or NUL
    (whose handling differs between Python versions' csv modules) and no
    comma outside its detail: csv's minimal quoting then quotes the detail
    alone, if it holds a comma, and writes any other cell as its str, None
    as nothing. The writer writes every other row.
    """
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(_FAILURES_CSV_HEADER)
    write = handle.write
    for row in _failure_rows(failures):
        unit_id, technology, test_ids, detail, measured, unit, power, district, municipality = row
        head = f'{"" if unit_id is None else unit_id},{technology},{test_ids}'
        tail = (
            f'{measured},{unit},{"" if power is None else power},'
            f'{"" if district is None else district},{"" if municipality is None else municipality}'
        )
        line = f"{head},{detail},{tail}"
        if (
            detail.__class__ is not str or head.count(",") != 2 or tail.count(",") != 4
            or '"' in line or "\r" in line or "\n" in line or "\0" in line
        ):
            writer.writerow(row)
        elif "," in detail:
            write(f'{head},"{detail}",{tail}\n')
        else:
            write(line + "\n")


def summary_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _completeness_csv(summary: dict) -> str:
    rows = (
        (tech, column, f"{n}/{d}", summary["completeness_percent"][tech][column])
        for tech, fractions in summary["completeness_fraction"].items()
        for column, (n, d) in fractions.items()
    )
    return _csv(("technology", "column", "fraction", "percent"), rows)


def _histogram_csv(hist: dict) -> str:
    width = hist["bin_width_km"]
    rows = [(i * width, (i + 1) * width, count) for i, count in enumerate(hist["counts"])]
    rows.append((hist["overflow_km"], "inf", hist["overflow"]))
    return _csv(("bin_low_km", "bin_high_km", "count"), rows)


def _errors_by_district_csv(failures: Sequence[FailureRecord]) -> str:
    acc: dict[tuple[str, int], tuple[int, float]] = {}
    for fr in failures:
        district = fr.district_id or ""
        for outcome in fr.failed:
            key = (district, outcome.test_id)
            count, power = acc.get(key, (0, 0.0))
            acc[key] = (count + 1, power + (fr.power_kw or 0.0))
    rows = (
        (district, test_id, count, power if math.isfinite(power) else None)
        for (district, test_id), (count, power) in sorted(acc.items())
    )
    return _csv(("district_id", "test_id", "count", "accumulated_power_kw"), rows)


def export(
    failures: Sequence[FailureRecord],
    summary: dict,
    out_dir: str | Path,
    formats: Iterable[str] = ("ndjson", "csv", "summary"),
    summary_text: str | None = None,
) -> list[Path]:
    """Write failure files, and the summary files rendered from the
    build_report document `summary`; returns the written paths.
    summary_text, when given, is summary_json(summary), already rendered.

    Each file is written to `<name>.tmp` in turn, the failure files line
    by line, and the temporary files are renamed only after every write
    has succeeded. A run that fails leaves the previous outputs as they
    were and removes its temporary files. A value that the csv module
    refuses to write (Python 3.10 refuses a NUL) is a ReportError that
    names the file.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    formats = set(formats)
    written: list[Path] = []

    def tmp(path: Path) -> Path:
        return path.with_name(path.name + ".tmp")

    def open_tmp(name: str) -> IO[str]:
        path = out / name
        written.append(path)
        return open(tmp(path), "w", encoding="utf-8")

    def emit(name: str, render, *args) -> None:
        with open_tmp(name) as handle:
            handle.write(render(*args))

    try:
        if "ndjson" in formats:
            with open_tmp("failures.ndjson") as handle:
                handle.writelines(map(_failure_line, failures))
        if "csv" in formats:
            with open_tmp("failures.csv") as handle:
                _write_failures_csv(handle, failures)
        if "summary" in formats:
            with open_tmp("summary.json") as handle:
                handle.write(summary_json(summary) if summary_text is None else summary_text)
            emit("completeness.csv", _completeness_csv, summary)
            for tech, hist in summary["distance_histograms"].items():
                emit(f"distance_histogram_{tech}.csv", _histogram_csv, hist)
            emit("errors_by_district.csv", _errors_by_district_csv, failures)
        for path in written:
            os.replace(tmp(path), path)
    except BaseException as exc:
        for path in written:
            tmp(path).unlink(missing_ok=True)
        if isinstance(exc, csv.Error):
            # The file being written is the last one opened.
            raise ReportError(f"{written[-1]}: cannot write a value as CSV: {exc}") from None
        raise
    return written


_scan_json = json.JSONDecoder().scan_once


def _json_line(line: str):
    """json.loads(line) for a line without surrounding whitespace.

    json.loads scans one value from the first non-blank character and
    refuses text after it, so a scan from 0 that ends at the line's end is
    its result; any other line goes through json.loads, which raises its
    own error. Up to Python 3.11 the scan counts against the recursion
    limit two calls fewer than in json.loads, so a line nested within two
    levels of the limit reads as a value, which failure_from_json refuses.
    """
    try:
        value, end = _scan_json(line, 0)
    except StopIteration:  # no value at the line's start
        return json.loads(line)
    return value if end == len(line) else json.loads(line)


def load_failures_ndjson(path: str | Path) -> list[FailureRecord]:
    failures = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if line:
                    try:
                        failures.append(failure_from_json(_json_line(line)))
                    except (ValueError, KeyError, TypeError, RecursionError) as exc:
                        raise ReportError(f"{path}: line {line_no} is not a failure record: {exc!r}") from None
    except UnicodeDecodeError as exc:
        raise ReportError(f"{path} is not UTF-8 text: {exc}") from None
    return failures


def _count(value, what: str) -> int:
    """A JSON count: an int >= 0 (a boolean is no count)."""
    if value.__class__ is not int or value < 0:
        raise ValueError(f"{what} is not a count: {value!r}")
    return value


class StoredRun(NamedTuple):
    """What load_run reads back from a validate or report output directory."""

    failure_set: FailureSet
    column_stats: ColumnStats
    # The stored histogram settings, as build_report takes them.
    bin_width_km: float
    overflow_km: float | None
    # build_report's document at those settings and its summary_json text.
    summary: dict
    summary_text: str


def load_run(out_dir: str | Path) -> StoredRun:
    """The FailureSet and ColumnStats that validate built for the run whose
    failures.ndjson and summary.json are in out_dir. A column's non-null
    count is its completeness fraction times its technology's unit count.
    The summary must render, by summary_json, as build_report's document of
    these at its own histogram settings (report writes one bin width, and one
    overflow or each technology's default); any other is a ReportError.
    That document comes back too, so that a report at the same settings
    neither builds nor renders it again."""
    failures_path, path = Path(out_dir) / "failures.ndjson", Path(out_dir) / "summary.json"
    for file, what in ((failures_path, "failure"), (path, "summary")):
        if not file.is_file():
            raise ReportError(f"missing {what} file: {file}")
    failures = load_failures_ndjson(failures_path)
    cells = {_cell_key(tid, tech): tid for tid, techs in CHECKMARKS.items() for tech in techs}
    try:
        text = path.read_text(encoding="utf-8")
        stored = json.loads(text)
        every, dso_only, fractions = (
            stored[key] for key in ("per_technology", "per_technology_dso", "completeness_fraction")
        )
        # An object, not a list; KeyError for a key that names no check-marked cell.
        evaluated = {cells[key] for key in stored["matrix"]["evaluated_counts"].keys()}
        stats, records_total, records_dso = ColumnStats(), {}, {}
        for tech in Technology:
            name = tech.value
            total = records_total[tech] = _count(every[name]["unit_count"], f"{name} unit_count")
            dso = records_dso[tech] = _count(dso_only[name]["unit_count"], f"{name} DSO unit_count")
            if dso > total:
                raise ValueError(f"{name} has {dso} DSO-inspected units of {total}")
            stats.non_null[tech] = {}
            for column, (n, d) in fractions[name].items():
                if not _count(n, column) <= _count(d, column) or d == 0:
                    raise ValueError(f"{name} {column} is no fraction: {[n, d]!r}")
                stats.non_null[tech][column] = n * total // d
        failure_set = FailureSet(failures, records_total, records_dso, tuple(sorted(evaluated)))
        histograms = stored["distance_histograms"].values()
        widths = {float(hist["bin_width_km"]) for hist in histograms}
        overflows = {float(hist["overflow_km"]) for hist in histograms}
        bin_width_km, overflow_km = min(widths), overflows.pop() if len(overflows) == 1 else None
        rebuilt = build_report(failure_set, stats, bin_width_km=bin_width_km, overflow_km=overflow_km)
        rendered = summary_json(rebuilt)
        # The file as summary_json wrote it needs no second rendering.
        if rendered != text and rendered != summary_json(stored):
            raise ValueError("it differs from the summary of its own counts, failures and histogram settings")
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError, OverflowError) as exc:
        raise ReportError(f"{path} is not a summary that validate or report writes: {exc!r}") from None
    return StoredRun(failure_set, stats, bin_width_km, overflow_km, rebuilt, rendered)
