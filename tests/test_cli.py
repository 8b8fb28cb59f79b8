"""End-to-end CLI behavior: exit codes, outputs, determinism."""

import contextlib
import csv
import gc
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from registrylint import cli, report
from registrylint.cli import EXIT_CLEAN, EXIT_FAILURES, EXIT_FATAL, main
from registrylint.ingest import RegistryReader, default_mapping
from registrylint.model import Technology, columns_for
from registrylint.rules import RuleConfig

from conftest import column_stats


@pytest.fixture()
def synth_dir(tmp_path) -> Path:
    out = tmp_path / "fixtures"
    code = main(["synth", "--count", "150", "--seed", "3", "--error-rate", "0.04", "--out", str(out)])
    assert code == EXIT_CLEAN
    return out


def _validate_args(synth_dir: Path, out: Path, *extra: str) -> list[str]:
    args = ["validate", "--out", str(out)]
    for csv_file in sorted(synth_dir.glob("*.csv")):
        args += ["--input", f"{csv_file.stem}={csv_file}"]
    args += ["--districts", str(synth_dir / "districts.geojson")]
    args += ["--municipalities", str(synth_dir / "municipalities.geojson")]
    args += list(extra)
    return args


class TestSynthCommand:
    def test_writes_tables_boundaries_and_truth(self, synth_dir):
        names = {p.name for p in synth_dir.iterdir()}
        assert {f"{t}.csv" for t in ("biomass", "combustion", "hydro", "solar", "storage", "wind")} <= names
        assert {"districts.geojson", "municipalities.geojson", "ground_truth.json"} <= names
        truth = json.loads((synth_dir / "ground_truth.json").read_text())
        assert truth["units"]
        assert sum(truth["class_counts"].values()) >= len(truth["units"]) - truth[
            "class_counts"
        ].get("duplicate_id", 0)

    def test_negative_count_is_usage_error(self, tmp_path, capsys):
        code = main(["synth", "--count", "-1", "--out", str(tmp_path / "x")])
        assert code == EXIT_FATAL
        assert "count" in capsys.readouterr().err

    def test_repeated_technology_exits_two_and_writes_nothing(self, tmp_path, capsys):
        # A repeated technology would write its table once but count its
        # records and planted errors once per repeat.
        out = tmp_path / "dup"
        argv = ["synth", "--count", "50", "--seed", "3", "--error-rate", "0.2", "--out", str(out)]
        assert main(argv + ["--technology", "wind", "--technology", "wind"]) == EXIT_FATAL
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line) == {"error": "duplicate --technology wind"}
        assert not out.exists()

    def test_seeded_rerun_is_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--count", "40", "--seed", "9", "--technology", "wind", "--out", str(out)]) == 0
        assert (a / "wind.csv").read_bytes() == (b / "wind.csv").read_bytes()
        assert (a / "ground_truth.json").read_bytes() == (b / "ground_truth.json").read_bytes()


class TestValidateCommand:
    def test_clean_input_exits_zero(self, tmp_path, capsys):
        fixtures = tmp_path / "clean"
        assert main(["synth", "--count", "80", "--seed", "5", "--out", str(fixtures)]) == 0
        capsys.readouterr()  # drain the synth output
        out = tmp_path / "run"
        code = main(_validate_args(fixtures, out))
        assert code == EXIT_CLEAN
        stdout = capsys.readouterr().out.strip().splitlines()
        assert len(stdout) == 1  # machine output is a single JSON line
        payload = json.loads(stdout[0])
        assert payload["failing_units"] == 0
        assert (out / "failures.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["matrix"]["cells"] == 90

    def test_injected_errors_exit_one_and_match_truth(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(_validate_args(synth_dir, out))
        assert code == EXIT_FAILURES
        truth = json.loads((synth_dir / "ground_truth.json").read_text())
        flagged = {}
        for line in (out / "failures.ndjson").read_text().splitlines():
            row = json.loads(line)
            flagged.setdefault(row["unit_id"], set()).update(t["test_id"] for t in row["tests"])
        for uid, expected in truth["units"].items():
            assert set(expected) <= flagged.get(uid, set()), uid
        assert set(flagged) == set(truth["units"])

    def test_missing_boundary_file_exits_two(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        args = _validate_args(synth_dir, out)
        args[args.index("--districts") + 1] = str(tmp_path / "nowhere.geojson")
        assert main(args) == EXIT_FATAL
        assert "boundary file" in capsys.readouterr().err
        assert not (out / "failures.csv").exists()  # no partial outputs

    @pytest.mark.parametrize(
        "position, value",
        [(1, float("nan")), (1, float("inf")), (1, 90.5), (0, -180.5)],
        ids=["nan-lat", "inf-lat", "lat-above-90", "lon-below-180"],
    )
    def test_unusable_boundary_vertex_exits_two(self, synth_dir, tmp_path, capsys, position, value):
        path = synth_dir / "municipalities.geojson"
        payload = json.loads(path.read_text())
        payload["features"][3]["geometry"]["coordinates"][0][2][position] = value
        path.write_text(json.dumps(payload))  # writes NaN / Infinity, which json reads back
        capsys.readouterr()
        out = tmp_path / "run"
        assert main(_validate_args(synth_dir, out)) == EXIT_FATAL
        captured = capsys.readouterr()
        stdout = captured.out.strip().splitlines()
        assert len(stdout) == 1
        error = json.loads(stdout[0])["error"]
        assert "municipalities.geojson" in error and "feature 3" in error
        assert "WGS84" in captured.err
        assert not (out / "failures.csv").exists()

    def test_technology_filter(self, synth_dir, tmp_path, capsys):
        # The --input options pick the tables.
        out = tmp_path / "run"
        args = ["validate", "--out", str(out), "--input", f"wind={synth_dir / 'wind.csv'}"]
        args += ["--districts", str(synth_dir / "districts.geojson")]
        args += ["--municipalities", str(synth_dir / "municipalities.geojson")]
        code = main(args)
        assert code in (EXIT_CLEAN, EXIT_FAILURES)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["per_technology"]["wind"]["unit_count"] == 150
        assert summary["per_technology"]["solar"]["unit_count"] == 0

    def test_jobs_flag_gives_identical_outputs(self, synth_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(_validate_args(synth_dir, a)) == EXIT_FAILURES
        assert main(_validate_args(synth_dir, b, "--jobs", "2")) == EXIT_FAILURES
        for name in ("failures.csv", "failures.ndjson", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_dso_only_restricts_population(self, synth_dir, tmp_path):
        full, subset = tmp_path / "full", tmp_path / "dso"
        main(_validate_args(synth_dir, full))
        main(_validate_args(synth_dir, subset, "--dso-only"))
        full_summary = json.loads((full / "summary.json").read_text())
        dso_summary = json.loads((subset / "summary.json").read_text())
        for tech in ("wind", "solar"):
            assert (
                dso_summary["per_technology"][tech]["unit_count"]
                < full_summary["per_technology"][tech]["unit_count"]
            )

    def test_dso_subset_of_a_full_run_can_differ_from_a_dso_only_run(self, tmp_path):
        # A DSO unit whose id a non-DSO row repeats fails test 2 in the full
        # run, and so in its per_technology_dso block; --dso-only drops the
        # non-DSO row before the suite runs, and the id is unique there.
        fixtures = tmp_path / "fixtures"
        assert main(["synth", "--technology", "wind", "--count", "20", "--seed", "3", "--out", str(fixtures)]) == 0
        with open(fixtures / "wind.csv", newline="", encoding="utf-8") as handle:
            header, *rows = list(csv.reader(handle))
        uid, dso = header.index("mastr id"), header.index("grid operator inspection")
        inspected = [row for row in rows if row[dso] == "1"]
        (not_inspected, *_) = [row for row in rows if row[dso] == "0"]
        not_inspected[uid] = inspected[0][uid]
        with open(fixtures / "wind.csv", "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows([header, *rows])
        dso_blocks = []
        for out, extra, code in ((tmp_path / "full", [], EXIT_FAILURES), (tmp_path / "dso", ["--dso-only"], EXIT_CLEAN)):
            args = ["validate", "--input", f"wind={fixtures / 'wind.csv'}", "--out", str(out), *extra]
            args += ["--districts", str(fixtures / "districts.geojson")]
            args += ["--municipalities", str(fixtures / "municipalities.geojson")]
            assert main(args) == code
            dso_blocks.append(json.loads((out / "summary.json").read_text())["per_technology_dso"]["wind"])
        full, dso_only = dso_blocks
        assert (full["failing_unit_count"], full["per_test"]) == (1, {"2": 1})
        assert (dso_only["failing_unit_count"], dso_only["per_test"]) == (0, {})

    def test_dso_only_completeness_counts_only_dso_rows(self, synth_dir, tmp_path):
        # Under --dso-only each column's completeness is a recount over the
        # DSO-inspected rows of the input tables alone.
        out = tmp_path / "dso"
        assert main(_validate_args(synth_dir, out, "--dso-only")) in (EXIT_CLEAN, EXIT_FAILURES)
        fractions = json.loads((out / "summary.json").read_text())["completeness_fraction"]
        changed = 0
        for tech in Technology:
            records = list(RegistryReader(synth_dir / f"{tech.value}.csv", tech))
            inspected = [r for r in records if r.grid_operator_inspection is True]
            assert 0 < len(inspected) < len(records)
            every, dso = column_stats(records).non_null[tech], column_stats(inspected).non_null[tech]
            for column in columns_for(tech):
                share = Fraction(dso[column], len(inspected))
                assert fractions[tech.value][column] == [share.numerator, share.denominator], (tech, column)
                changed += share != Fraction(every[column], len(records))
        assert changed  # the filter changes some column's share

    def test_config_file_via_env(self, synth_dir, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"rules": {"buffer_m": 123.0}}))
        monkeypatch.setenv("REGISTRYLINT_CONFIG", str(cfg))
        out = tmp_path / "run"
        code = main(_validate_args(synth_dir, out))
        assert code in (EXIT_CLEAN, EXIT_FAILURES)

    def test_readme_run_configuration_runs(self, synth_dir, tmp_path, capsys):
        # The example under "Run configuration" in README.md, as printed there.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        example = readme.split("## Run configuration", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        cfg = tmp_path / "run.json"
        cfg.write_text(example)
        capsys.readouterr()
        code = main(_validate_args(synth_dir, tmp_path / "run", "--config", str(cfg)))
        assert code in (EXIT_CLEAN, EXIT_FAILURES)
        (line,) = capsys.readouterr().out.strip().splitlines()
        assert "error" not in json.loads(line)

    def test_partial_mapping_override_keeps_other_defaults(self, synth_dir, tmp_path):
        # Remap only wind (identical entries, spelled out); the other
        # technologies must still parse with their default columns.
        wind_entries = [[e.raw, e.field, e.factor] for e in default_mapping().for_technology(Technology.WIND)]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"mapping": {"wind": wind_entries}}))
        out = tmp_path / "run"
        code = main(_validate_args(synth_dir, out, "--config", str(cfg)))
        assert code in (EXIT_CLEAN, EXIT_FAILURES)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["per_technology"]["solar"]["unit_count"] == 150

    def test_mapping_to_a_field_the_technology_lacks_exits_two(self, synth_dir, tmp_path, capsys):
        # Wind units carry no gross power; every row would be rejected.
        wind_entries = [
            [e.raw, "power_gross_kw" if e.raw == "hub height" else e.field]
            for e in default_mapping().for_technology(Technology.WIND)
        ]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"mapping": {"wind": wind_entries}}))
        capsys.readouterr()
        out = tmp_path / "run"
        assert main(_validate_args(synth_dir, out, "--config", str(cfg))) == EXIT_FATAL
        (line,) = capsys.readouterr().out.strip().splitlines()
        error = json.loads(line)["error"]
        assert "wind" in error and "power_gross_kw" in error
        assert not (out / "failures.csv").exists()

    @pytest.mark.parametrize("delimiter", [";;", '"', "\n"], ids=["two-chars", "quote", "newline"])
    def test_unusable_delimiter_exits_two(self, synth_dir, tmp_path, capsys, delimiter):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"csv": {"delimiter": delimiter}}))
        capsys.readouterr()
        assert main(_validate_args(synth_dir, tmp_path / "run", "--config", str(cfg))) == EXIT_FATAL
        (line,) = capsys.readouterr().out.strip().splitlines()
        assert "delimiter" in json.loads(line)["error"]

    def test_delimiter_is_checked_before_a_boundary_file_is_read(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"csv": {"delimiter": ";;"}}))
        districts = tmp_path / "districts.geojson"
        districts.write_text("not json")
        args = _validate_args(synth_dir, tmp_path / "run", "--config", str(cfg))
        args[args.index("--districts") + 1] = str(districts)
        capsys.readouterr()
        assert main(args) == EXIT_FATAL
        (line,) = capsys.readouterr().out.strip().splitlines()
        assert json.loads(line)["error"].startswith("delimiter must be one character")

    def test_bad_input_spec_exits_two(self, tmp_path, capsys):
        assert main(["validate", "--out", str(tmp_path), "--input", "nuclear=x.csv"]) == EXIT_FATAL
        assert "unknown technology" in capsys.readouterr().err

    def test_no_inputs_exits_two(self, tmp_path, capsys):
        assert main(["validate", "--out", str(tmp_path)]) == EXIT_FATAL

    def test_zero_jobs_exits_two(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(_validate_args(synth_dir, out, "--jobs", "0")) == EXIT_FATAL
        assert "worker count" in capsys.readouterr().err


class TestReportCommand:
    def test_rerun_is_byte_identical(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        main(_validate_args(synth_dir, out))
        before = {
            name: (out / name).read_bytes()
            for name in ("summary.json", "failures.csv", "errors_by_district.csv")
        }
        assert main(["report", "--out", str(out)]) == EXIT_CLEAN
        for name, blob in before.items():
            assert (out / name).read_bytes() == blob

    @pytest.mark.parametrize("extra", [[], ["--bin-width", "2", "--overflow", "100"]], ids=["rerun", "rebin"])
    def test_leaves_the_failure_files_as_validate_wrote_them(self, synth_dir, tmp_path, capsys, extra):
        out = tmp_path / "run"
        main(_validate_args(synth_dir, out))
        names = ("failures.ndjson", "failures.csv")
        before = {name: ((out / name).read_bytes(), (out / name).stat().st_mtime_ns) for name in names}
        capsys.readouterr()
        assert main(["report", "--out", str(out), *extra]) == EXIT_CLEAN
        assert {name: ((out / name).read_bytes(), (out / name).stat().st_mtime_ns) for name in names} == before
        # summary.json, completeness.csv, six histograms and errors_by_district.csv.
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line) == {"out_dir": str(out), "files": 3 + len(Technology)} and len(Technology) == 6

    def test_needs_no_failures_csv(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        main(_validate_args(synth_dir, out))
        (out / "failures.csv").unlink()
        assert main(["report", "--out", str(out), "--bin-width", "2"]) == EXIT_CLEAN
        assert main(["report", "--out", str(out)]) == EXIT_CLEAN
        assert not (out / "failures.csv").exists()

    def test_histogram_parameters(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        main(_validate_args(synth_dir, out))
        assert main(["report", "--out", str(out), "--bin-width", "5", "--overflow", "60"]) == EXIT_CLEAN
        lines = (out / "distance_histogram_solar.csv").read_text().splitlines()
        assert lines[0] == "bin_low_km,bin_high_km,count"
        assert lines[-1].startswith("60.0,inf,")

    def test_failed_export_keeps_the_previous_outputs(self, synth_dir, tmp_path, monkeypatch):
        out = tmp_path / "run"
        main(_validate_args(synth_dir, out))
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        def full_disk(quality_report):
            raise OSError("No space left on device")

        # Rendered after summary.json, which a new bin width changes.
        monkeypatch.setattr(report, "_completeness_csv", full_disk)
        assert main(["report", "--out", str(out), "--bin-width", "10"]) == EXIT_FATAL
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before  # and no *.tmp

    def test_value_csv_refuses_exits_two_naming_the_file(self, synth_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "run"
        main(_validate_args(synth_dir, out))
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        def refusing(handle, header, rows):
            # What Python 3.10's csv.writer raises for a NUL in a cell.
            handle.write(",".join(header))
            raise csv.Error("need to escape, but no escapechar set")

        monkeypatch.setattr(report, "_write_csv", refusing)
        assert main(["report", "--out", str(out)]) == EXIT_FATAL
        # completeness.csv is the first CSV file that report writes.
        assert f"{out / 'completeness.csv'}: cannot write a value as CSV" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before  # and no *.tmp

    def test_summary_json_is_the_document_given_to_export(self, synth_dir, tmp_path, monkeypatch):
        documents = []

        def recording_export(failures, summary, *args, **kwargs):
            documents.append(summary)
            return report.export(failures, summary, *args, **kwargs)

        monkeypatch.setattr(cli, "export", recording_export)
        out = tmp_path / "run"
        written = []
        for args in (_validate_args(synth_dir, out), ["report", "--out", str(out), "--bin-width", "2"]):
            main(args)
            written.append(json.loads((out / "summary.json").read_text(encoding="utf-8")))
        assert len(documents) == 2 and written == documents

    def test_missing_failures_file_exits_two(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path)]) == EXIT_FATAL
        assert "missing failure file" in capsys.readouterr().err


def _fresh_interpreter(code: str):
    """The JSON value that code, run in a fresh interpreter on this
    checkout, prints on its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# What neither validate nor report imports: dataclasses (model builds
# UnitRecord with it on first use only) and, on Python 3.11, which the
# benchmark runs, inspect, which dataclasses imports.
_NOT_AT_START = ("dataclasses", "inspect") if sys.version_info[:2] == (3, 11) else ("dataclasses",)


def test_cli_import_leaves_synth_and_process_pools_out(synth_dir, tmp_path):
    # Every validate and report pays for what it imports (setup_s,
    # report_s). report reads a run back: it loads the catalog table, but
    # not the checks, the geometry kernel, the registry reader or synth.
    out = tmp_path / "run"
    validate = (
        "import json, sys\n"
        "def loaded(names): return [m for m in names if m in sys.modules]\n"
        "import registrylint.cli\n"
        f"stages = [loaded({_NOT_AT_START!r})]\n"
        f"stages.append(registrylint.cli.main({_validate_args(synth_dir, out)!r}))\n"
        f"stages.append(loaded(('registrylint.synth', *{_NOT_AT_START!r})))\n"
        "print(json.dumps(stages))"
    )
    assert _fresh_interpreter(validate) == [[], EXIT_FAILURES, []]
    heavy = ("registrylint.rules", "registrylint.geo", "registrylint.ingest", "registrylint.synth", "fractions")
    heavy += _NOT_AT_START
    pools = ("multiprocessing", "concurrent.futures.process")
    report_run = (
        "import json, sys\n"
        "def loaded(names): return [m for m in names if m in sys.modules]\n"
        "import registrylint\n"
        f"stages = [loaded({heavy!r})]\n"
        "import registrylint.cli\n"
        f"stages.append(loaded({heavy + pools!r}))\n"
        f"stages.append(registrylint.cli.main(['report', '--out', {str(out)!r}]))\n"
        f"stages.append(loaded({heavy!r}))\n"
        "print(json.dumps(stages))"
    )
    assert _fresh_interpreter(report_run) == [[], [], EXIT_CLEAN, []]


def test_package_names_resolve_from_their_modules():
    import registrylint
    from registrylint import model, rules

    for name in ("Boundaries", "RuleConfig", "run_suite"):
        assert getattr(registrylint, name) is getattr(rules, name)
    assert registrylint.Technology is model.Technology and registrylint.FailureSet is model.FailureSet
    assert rules.FailureSet is model.FailureSet
    # Built on first access, once: the package and model give one class.
    assert registrylint.UnitRecord is model.UnitRecord
    for module, name in ((registrylint, "run_blocks"), (model, "RecordFields"), (model, "run_suite")):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(module, name)


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
def test_validate_leaves_the_collector_as_it_found_it(synth_dir, tmp_path, collecting):
    # Only run(), the process entry, turns the cyclic collector off and
    # freezes the heap. main() leaves both as it found them, after a run
    # that ends and after one whose reading fails (a table without its
    # header's columns).
    bad = tmp_path / "bad"
    shutil.copytree(synth_dir, bad)
    (bad / "wind.csv").write_text("no such column\n1\n", encoding="utf-8")
    out = tmp_path / "out"
    commands = [
        (_validate_args(synth_dir, out), EXIT_FAILURES),
        (_validate_args(bad, tmp_path / "bad-out"), EXIT_FATAL),
        (["report", "--out", str(out)], EXIT_CLEAN),
        (["report", "--out", str(out), "--bin-width", "2"], EXIT_CLEAN),
        (["report", "--out", str(tmp_path / "bad-out")], EXIT_FATAL),
        (["synth", "--count", "20", "--seed", "1", "--error-rate", "0.1", "--out", str(tmp_path / "synth")], EXIT_CLEAN),
    ]
    try:
        if not collecting:
            gc.disable()
        frozen = gc.get_freeze_count()
        for argv, code in commands:
            assert main(argv) == code, argv
            assert (gc.isenabled(), gc.get_freeze_count()) == (collecting, frozen), argv
    finally:
        gc.enable()


def test_run_exits_with_the_code_of_main_after_freezing_the_heap(synth_dir, tmp_path):
    # In a fresh interpreter, for validate, for report and for a usage
    # error: run() returns main's exit code, its one stdout line is
    # complete, the command ran with the cyclic collector off, the heap is
    # frozen by then, and atexit handlers still run.
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for argv, expected in (
        (_validate_args(synth_dir, out), EXIT_FAILURES),
        (["report", "--out", str(out), "--bin-width", "2"], EXIT_CLEAN),
        (["validate", "--bogus"], EXIT_FATAL),
    ):
        code = (
            "import atexit, gc, sys\n"
            "from registrylint import cli\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, gc.isenabled(), file=sys.stderr))\n"
            f"sys.argv[1:] = {argv!r}\n"
            "cli.run()\n"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == expected, done.stderr
        (line,) = done.stdout.splitlines()
        result = json.loads(line)
        if expected == EXIT_FAILURES:
            assert result["failing_units"] > 0
        elif expected == EXIT_CLEAN:
            assert result["files"] > 0
        else:
            assert result["error"] and "usage:" in done.stderr
        assert done.stderr.splitlines()[-1] == "frozen True False", argv


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv", [["validate", "--bogus"], ["synth", "--count", "5"], ["frobnicate"]], ids=["unknown", "missing", "command"]
    )
    def test_usage_error_exits_two_with_one_json_line(self, capsys, argv):
        assert main(argv) == EXIT_FATAL
        captured = capsys.readouterr()
        (line,) = captured.out.strip().splitlines()
        assert json.loads(line)["error"]
        assert "usage:" in captured.err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["--help"], "registrylint"),
            (["validate", "--help"], "validate"),
            (["report", "-h"], "report"),
            (["synth", "--help"], "synth"),
        ],
        ids=["top", "validate", "report", "synth"],
    )
    def test_help_goes_to_stderr_with_one_json_line(self, capsys, argv, name):
        assert main(argv) == EXIT_CLEAN
        captured = capsys.readouterr()
        (line,) = captured.out.strip().splitlines()
        assert json.loads(line) == {"help": name}
        assert captured.err.startswith("usage:")

    def test_help_loads_neither_the_reader_nor_the_geometry_kernel(self):
        # --help runs no command and raises no fatal error, so main() does
        # not import the modules whose errors it would report.
        code = (
            "import contextlib, io, json, sys\n"
            "import registrylint.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = registrylint.cli.main(['validate', '--help'])\n"
            "print(json.dumps([code, [m for m in ('registrylint.geo', 'registrylint.ingest') if m in sys.modules]]))"
        )
        assert _fresh_interpreter(code) == [EXIT_CLEAN, []]


def _wind_factor(field: str, factor) -> dict:
    """A run configuration mapping wind as by default, with one unit factor set."""
    entries = default_mapping().for_technology(Technology.WIND)
    return {"mapping": {"wind": [[e.raw, e.field, factor if e.field == field else 1.0] for e in entries]}}


def _wind_zip_row(row: list) -> dict:
    """A run configuration mapping wind as by default, with the zip code row replaced."""
    entries = default_mapping().for_technology(Technology.WIND)
    return {"mapping": {"wind": [row if e.field == "zip_code" else [e.raw, e.field] for e in entries]}}


# Run configurations (rules sections and file shapes) that must be fatal.
_BAD_CONFIGS = {
    "one-element-range": {"rules": {"module_power_range_w": [50.0]}},
    "buffer-string": {"rules": {"buffer_m": "1500"}},
    "year-max-string": {"rules": {"year_max": "2030"}},
    "year-min-not-int": {"rules": {"year_min": {"hydro": "1850s"}}},
    "unknown-technology-range": {"rules": {"power_range_mw": {"nuclear": [0.0, 1.0]}}},
    "unknown-required-field": {"rules": {"required_fields": ["unit_id", "voltage"]}},
    "bad-pattern": {"rules": {"zip_pattern": "("}},
    # Patterns are compiled with re.ASCII, which a Unicode flag contradicts.
    "unicode-flag-pattern": {"rules": {"zip_pattern": "(?u)\\d{5}"}},
    "bare-string-tuple": {"rules": {"balcony_keywords": "balkon"}},
    "nan-buffer": {"rules": {"buffer_m": float("nan")}},
    "top-level-list": [1],
    "boundary-keys-list": {"boundary_keys": [1]},
    "rules-list": {"rules": []},
    "csv-list": {"csv": [","]},
    "mapping-list": {"mapping": []},
    "unknown-section": {"rule": {"buffer_m": 1500.0}},
    "unknown-csv-key": {"csv": {"delimeter": ";"}},
    "unknown-boundary-level": {"boundary_keys": {"county": "krs"}},
    # A unit factor scales quantities only; a year is not one.
    "factor-on-year": _wind_factor("installation_year", 1000.0),
    # A unit factor is a JSON number.
    "factor-string": _wind_factor("power_kw", "1000"),
    "factor-bool": _wind_factor("power_kw", True),
    # A mapping row is an array of two strings and an optional number.
    "mapping-raw-number": _wind_zip_row([1, "zip_code"]),
    "mapping-row-of-four": _wind_zip_row(["zip code", "zip_code", 1, "junk"]),
    # Only wind units carry a hub height; every other unit would fail test 1.
    "required-wind-only-field": {"rules": {"required_fields": ["unit_id", "hub_height_m"]}},
    # A required field that the wind mapping leaves out would fail every wind unit.
    "required-field-unmapped": {
        "rules": {"required_fields": ["unit_id", "owner_id"]},
        "mapping": {
            "wind": [[e.raw, e.field] for e in default_mapping().for_technology(Technology.WIND) if e.field != "owner_id"]
        },
    },
}
# failures.ndjson lines holding a value of the wrong type or a number that is
# not finite, built from the first failure of the shared run.
_BAD_FAILURE_VALUES = {
    "report-string-power": lambda line: {**line, "power_kw": "2000.0"},
    "report-string-test-id": lambda line: {**line, "tests": [{**line["tests"][0], "test_id": "10"}]},
    "report-string-measured": lambda line: {
        **line, "tests": [{"test_id": 10, "detail": "outside", "measured": "2500.0", "measured_unit": "m"}]
    },
    "report-string-dso": lambda line: {**line, "dso_inspected": "no"},
    "report-nan-measured": lambda line: {
        **line, "tests": [{"test_id": 10, "detail": "outside", "measured": float("nan"), "measured_unit": "m"}]
    },
    "report-lone-surrogate-id": lambda line: {**line, "unit_id": "\ud800"},
    "report-negative-distance": lambda line: {
        **line, "tests": [{"test_id": 10, "detail": "outside", "measured": -12000.0, "measured_unit": "m"}]
    },
    "report-unknown-test-id": lambda line: {**line, "tests": [{**line["tests"][0], "test_id": 99}]},
    # Test 9 is check-marked for wind only.
    "report-unmarked-test": lambda line: {**line, "technology": "biomass", "tests": [{**line["tests"][0], "test_id": 9}]},
    # The first failure is biomass, test 12 only.
    "report-repeated-test": lambda line: {**line, "tests": line["tests"] * 2},
    "report-tests-out-of-order": lambda line: {**line, "tests": [*line["tests"], {**line["tests"][0], "test_id": 1}]},
    "report-no-tests": lambda line: {**line, "tests": []},
}


def _without_wind_units(summary: dict) -> None:
    """Wind with no units, as validate writes it, beside the wind failures."""
    for block in ("per_technology", "per_technology_dso"):
        summary[block]["wind"]["unit_count"] = 0
    summary["completeness_fraction"]["wind"] = {column: [1, 1] for column in summary["completeness_fraction"]["wind"]}


def _one_more_wind_distance(summary: dict) -> None:
    summary["distance_histograms"]["wind"]["counts"][0] += 1


# summary.json documents that no validate run could have written beside its
# failures.ndjson: a value that is no count or no fraction, a technology or a
# column left out, counts that disagree with each other or with the failures,
# and any other value that differs from the one its counts and failures give.
# The wind table of the shared run has 20 units, 13 of them DSO-inspected;
# 3 wind units fail, 2 of them DSO-inspected.
_BAD_SUMMARY_VALUES = {
    "report-string-unit-count": lambda summary: summary["per_technology"]["wind"].update(unit_count="12"),
    "report-null-unit-count": lambda summary: summary["per_technology"]["wind"].update(unit_count=None),
    "report-zero-denominator": lambda summary: summary["completeness_fraction"]["wind"].update(hub_height_m=[1, 0]),
    "report-evaluated-counts-list": lambda summary: summary["matrix"].update(
        evaluated_counts=list(summary["matrix"]["evaluated_counts"])
    ),
    "report-without-completeness": lambda summary: summary.pop("completeness_fraction"),
    "report-third-of-the-units": lambda summary: summary["completeness_fraction"]["wind"].update(owner_id=[1, 3]),
    "report-without-wind-blocks": lambda summary: [
        summary[block].pop("wind") for block in ("per_technology", "per_technology_dso")
    ],
    "report-dso-units-above-total": lambda summary: summary["per_technology_dso"]["wind"].update(unit_count=999_999),
    "report-zero-wind-units": lambda summary: summary["per_technology"]["wind"].update(unit_count=0),
    "report-wind-failures-without-wind-units": _without_wind_units,
    "report-dso-failures-without-dso-units": lambda summary: summary["per_technology_dso"]["wind"].update(unit_count=0),
    "report-unchecked-evaluated-cell": lambda summary: summary["matrix"]["evaluated_counts"].update({"9:solar": 20}),
    "report-evaluated-count-string": lambda summary: summary["matrix"]["evaluated_counts"].update({"1:wind": "20"}),
    "report-evaluated-count-not-unit-count": lambda summary: summary["matrix"]["evaluated_counts"].update({"1:wind": 7}),
    "report-evaluated-cell-missing": lambda summary: summary["matrix"]["evaluated_counts"].pop("3:solar"),
    "report-completeness-without-a-column": lambda summary: summary["completeness_fraction"]["wind"].pop("owner_id"),
    "report-share-of-no-units": lambda summary: [
        summary[block]["solar"].update(unit_count=0) for block in ("per_technology", "per_technology_dso")
    ],
    "report-unreduced-share": lambda summary: summary["completeness_fraction"]["wind"].update(owner_id=[2, 2]),
    "report-completeness-unknown-column": lambda summary: summary["completeness_fraction"]["wind"].update(
        volts=[1, 1]
    ),
    "report-failing-unit-count": lambda summary: summary["per_technology"]["wind"].update(failing_unit_count=999),
    "report-per-test-tally": lambda summary: summary["per_technology"]["wind"]["per_test"].update(
        {"12": summary["per_technology"]["wind"]["per_test"].get("12", 0) + 1}
    ),
    "report-failing-power": lambda summary: summary["per_technology"]["wind"].update(
        accumulated_failing_power_kw=summary["per_technology"]["wind"]["accumulated_failing_power_kw"] + 1.0
    ),
    "report-completeness-percent": lambda summary: summary["completeness_percent"]["wind"].update(
        owner_id=summary["completeness_percent"]["wind"]["owner_id"] - 1
    ),
    "report-matrix-cells": lambda summary: summary["matrix"].update(cells=91),
    "report-failure-share": lambda summary: summary["per_technology"]["wind"].update(
        failure_share=summary["per_technology"]["wind"]["failure_share"] + 0.01
    ),
    "report-empty-flag": lambda summary: summary["per_technology"]["wind"].update(
        empty=not summary["per_technology"]["wind"]["empty"]
    ),
    "report-histogram-counts": _one_more_wind_distance,
    "report-unknown-top-level-key": lambda summary: summary.update(notes="edited by hand"),
}
# `report` histogram settings that are unusable; a 1e-300 km bin width needs
# more bins than a list can hold.
_BAD_HISTOGRAM_ARGS = {
    "histogram-overflow-nan": ["--overflow", "nan"],
    "histogram-overflow-zero": ["--overflow", "0"],
    "histogram-bin-width-nan": ["--bin-width", "nan"],
    "histogram-overflow-inf": ["--overflow", "inf"],
    "histogram-bin-width-inf": ["--bin-width", "inf"],
    "histogram-bin-width-1e-300": ["--bin-width", "1e-300"],
}
# JSON nested deeper than the interpreter's recursion limit, written as text
# because json.dumps recurses too.
_NESTED_TOO_DEEPLY = "[" * 200_000 + "]" * 200_000


@pytest.fixture(scope="module")
def small_run(tmp_path_factory) -> Path:
    """A small synth fixture and its validate output, shared read-only."""
    root = tmp_path_factory.mktemp("malformed")
    assert main(["synth", "--count", "20", "--seed", "4", "--error-rate", "0.2", "--out", str(root / "in")]) == 0
    assert main(_validate_args(root / "in", root / "run")) == EXIT_FAILURES
    return root


def _malformed_case(case: str, root: Path, work: Path) -> list[str]:
    """Write one malformed input under `work`; return the CLI arguments that read it."""
    src = root / "in"
    if case in _BAD_CONFIGS or case == "config-nested-too-deeply":
        cfg = work / "run.json"
        cfg.write_text(json.dumps(_BAD_CONFIGS[case]) if case in _BAD_CONFIGS else _NESTED_TOO_DEEPLY)
        return _validate_args(src, work / "run", "--config", str(cfg))
    if case in ("latin-1", "oversize-cell"):
        table = work / "wind.csv"
        text = (src / "wind.csv").read_text(encoding="utf-8")
        header, first, rest = text.split("\n", 2)
        if case == "latin-1":
            first = first.replace(",", ",Wünnenberg", 1)
            table.write_bytes((header + "\n" + first + "\n" + rest).encode("latin-1"))
        else:
            table.write_text(header + "\n" + first + "\n" + first.replace(",", "," + "x" * 200_000, 1) + "\n")
        return ["validate", "--out", str(work / "run"), "--input", f"wind={table}"]
    if case.startswith("geojson-"):
        payload = json.loads((src / "municipalities.geojson").read_text())
        if case == "geojson-scalar-properties":
            payload["features"][2]["properties"] = 5
        elif case == "geojson-short-ring":
            ring = [[10.0, 50.0], [10.1, 50.0], [10.0, 50.0]]
            payload["features"][2]["geometry"] = {"type": "Polygon", "coordinates": [ring]}
        elif case == "geojson-huge-coordinate":
            payload["features"][2]["geometry"]["coordinates"][0][1][0] = 10**400
        elif case == "geojson-object-position":
            payload["features"][2]["geometry"]["coordinates"][0][1] = {}
        elif case == "geojson-string-position":
            ring = payload["features"][2]["geometry"]["coordinates"][0]
            ring[:] = [[str(lon), str(lat)] for lon, lat in ring]
        elif case == "geojson-bool-position":
            payload["features"][2]["geometry"]["coordinates"][0][1] = [True, True]
        elif case == "geojson-antimeridian-edge":
            ring = [[179.9, -17.0], [-179.9, -17.0], [-179.9, -16.9], [179.9, -16.9], [179.9, -17.0]]
            payload["features"][2]["geometry"] = {"type": "Polygon", "coordinates": [ring]}
        elif case == "geojson-zero-area":
            # A region no record references, whose ring encloses no area.
            line = [[10.0, 50.0], [10.1, 50.1], [10.2, 50.2], [10.0, 50.0]]
            geometry = {"type": "Polygon", "coordinates": [line]}
            payload["features"].append({"type": "Feature", "properties": {"ags": "99999999"}, "geometry": geometry})
        else:
            del payload["features"][2]["geometry"]["coordinates"]
        if case == "geojson-syntax":
            text = '{"type": "FeatureCollection", '
        elif case == "geojson-nested-too-deeply":
            text = _NESTED_TOO_DEEPLY
        else:
            text = json.dumps(payload)
        (work / "municipalities.geojson").write_text(text)
        args = _validate_args(src, work / "run")
        args[args.index("--municipalities") + 1] = str(work / "municipalities.geojson")
        return args
    out = work / "run"
    out.mkdir()
    for name in ("failures.ndjson", "summary.json"):
        (out / name).write_bytes((root / "run" / name).read_bytes())
    if case == "report-not-json":
        (out / "failures.ndjson").write_text("not json\n")
    elif case == "report-not-utf8":
        (out / "failures.ndjson").write_bytes(b"\xff\xfe\n")
    elif case == "report-line-nested-too-deeply":
        (out / "failures.ndjson").write_text(_NESTED_TOO_DEEPLY + "\n")
    elif case == "report-summary-nested-too-deeply":
        (out / "summary.json").write_text(_NESTED_TOO_DEEPLY)
    elif case == "report-missing-keys":
        (out / "failures.ndjson").write_text('{"unit_id": "SEE900000000001"}\n')
    elif case in _BAD_FAILURE_VALUES:
        first, rest = (root / "run" / "failures.ndjson").read_text(encoding="utf-8").split("\n", 1)
        (out / "failures.ndjson").write_text(json.dumps(_BAD_FAILURE_VALUES[case](json.loads(first))) + "\n" + rest)
    elif case in _BAD_SUMMARY_VALUES:
        summary = json.loads((root / "run" / "summary.json").read_text(encoding="utf-8"))
        _BAD_SUMMARY_VALUES[case](summary)
        (out / "summary.json").write_text(json.dumps(summary))
    elif case == "report-mixed-bin-widths":
        # Wind's histogram as `report --bin-width 2` writes it, beside the others at 5 km.
        summary = json.loads((root / "run" / "summary.json").read_text(encoding="utf-8"))
        run = report.load_run(root / "run")
        rebinned = report.build_report(run.failure_set, run.column_stats, bin_width_km=2.0)
        summary["distance_histograms"]["wind"] = rebinned["distance_histograms"]["wind"]
        (out / "summary.json").write_text(report.summary_json(summary))
    elif case in _BAD_HISTOGRAM_ARGS:
        return ["report", "--out", str(out), *_BAD_HISTOGRAM_ARGS[case]]
    else:
        (out / "summary.json").write_text("{}\n")
    return ["report", "--out", str(out)]


@pytest.mark.parametrize(
    "case",
    [*_BAD_CONFIGS, "config-nested-too-deeply", "latin-1", "oversize-cell", "geojson-syntax", "geojson-no-coordinates",
     "geojson-scalar-properties", "geojson-short-ring", "geojson-zero-area", "geojson-huge-coordinate",
     "geojson-object-position", "geojson-string-position", "geojson-bool-position", "geojson-nested-too-deeply",
     "geojson-antimeridian-edge",
     "report-not-json", "report-not-utf8", "report-missing-keys", "report-line-nested-too-deeply",
     "report-summary-nested-too-deeply", "report-summary-without-per-technology", *_BAD_FAILURE_VALUES,
     *_BAD_SUMMARY_VALUES, "report-mixed-bin-widths", *_BAD_HISTOGRAM_ARGS],
)
def test_malformed_input_exits_two_with_one_json_line(small_run, tmp_path, case):
    args = _malformed_case(case, small_run, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "registrylint.cli", *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == EXIT_FATAL, done.stderr
    (line,) = done.stdout.strip().splitlines()
    assert json.loads(line)["error"]
    assert "Traceback" not in done.stderr


# Any JSON value that may stand where report or validate expects another.
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(max_value=-1),
    st.integers(min_value=2**63, max_value=10**400),
    st.floats(),
    st.text(max_size=8),
    st.text(st.characters(categories=["Cs"]), min_size=1, max_size=2),  # lone surrogate escapes
    st.lists(st.integers(0, 2), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 2), max_size=2),
)


def _paths(document, path=()) -> list[tuple]:
    """The path (keys and indexes) of every node below the root of a JSON
    document: its leaves and the objects and arrays above them."""
    if isinstance(document, dict):
        children = document.items()
    elif isinstance(document, list):
        children = enumerate(document)
    else:
        return []
    paths = []
    for key, child in children:
        paths.append(path + (key,))
        paths += _paths(child, path + (key,))
    return paths


def _replaced(document, path: tuple, value):
    """document with the node at path replaced by value."""
    if not path:
        return value
    copy = document.copy()
    copy[path[0]] = _replaced(document[path[0]], path[1:], value)
    return copy


def _with_one_replaced_node(data, document):
    """document with one node, drawn uniformly from all of its nodes, replaced by a drawn JSON value."""
    return _replaced(document, data.draw(st.sampled_from(_paths(document))), data.draw(_JSON_VALUES))


def _run_main(args: list[str]) -> tuple[int, str]:
    """main's exit code and stdout; stderr is discarded."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return code, stdout.getvalue()


def _assert_consistent(summary: dict) -> None:
    """The counts of summary.json agree with each other, as in every summary validate writes."""
    for tech in Technology:
        every, dso = (summary[block][tech.value] for block in ("per_technology", "per_technology_dso"))
        assert dso["unit_count"] <= every["unit_count"]
        assert every["failing_unit_count"] <= every["unit_count"]
        assert dso["failing_unit_count"] <= dso["unit_count"]
        table = summary["completeness_fraction"][tech.value]
        assert table.keys() == set(columns_for(tech))
        assert all((Fraction(n, d) * every["unit_count"]).denominator == 1 for n, d in table.values())


@settings(max_examples=40, deadline=None)
@given(target=st.sampled_from(["summary.json", "failures.ndjson"]), data=st.data())
def test_report_with_one_replaced_value_keeps_the_exit_code_contract(small_run, target, data):
    with tempfile.TemporaryDirectory() as work:
        out = Path(work)
        for name in ("failures.ndjson", "summary.json"):
            (out / name).write_bytes((small_run / "run" / name).read_bytes())
        path = out / target
        if target == "summary.json":
            path.write_text(json.dumps(_with_one_replaced_node(data, json.loads(path.read_text(encoding="utf-8")))))
        else:  # its first line
            first, rest = path.read_text(encoding="utf-8").split("\n", 1)
            path.write_text(json.dumps(_with_one_replaced_node(data, json.loads(first))) + "\n" + rest)
        code, stdout = _run_main(["report", "--out", str(out)])
        assert code in (EXIT_CLEAN, EXIT_FATAL)
        (line,) = stdout.splitlines()
        json.loads(line)
        if code == EXIT_CLEAN:
            _assert_consistent(json.loads((out / "summary.json").read_text(encoding="utf-8")))


# Cell texts: any short text, and numbers, dates, booleans and coordinates
# at and beyond the edges of what the cell codecs accept.
_CELL_TEXTS = st.one_of(
    st.text(max_size=10),
    st.from_regex(r"-?[0-9]{0,12}([.,][0-9]{0,3})?(e-?[0-9]{1,3})?", fullmatch=True),
    st.sampled_from(
        ["nan", "inf", "1e400", "1e200", "1e308", "9" * 400, "2024-02-30", "ja", "nein", "50.1, 10.2", "91.0, 200.0",
         "1,5,0"]
    ),
)


def _rules_json() -> dict:
    """The default `rules` section of a run configuration, as JSON values."""
    defaults = RuleConfig()
    return json.loads(json.dumps({name: getattr(defaults, name) for name, _, _ in RuleConfig.FIELDS}))


@settings(max_examples=40, deadline=None)
@given(target=st.sampled_from(["table", "boundaries", "rules", "mapping"]), data=st.data())
def test_validate_with_one_changed_input_keeps_the_exit_code_contract(small_run, target, data):
    with tempfile.TemporaryDirectory() as work:
        inputs, out = Path(work) / "in", Path(work) / "run"
        inputs.mkdir()
        for path in [*(small_run / "in").glob("*.csv"), *(small_run / "in").glob("*.geojson")]:
            (inputs / path.name).write_bytes(path.read_bytes())
        extra = []
        if target == "table":  # one cell, header cells included
            table = inputs / data.draw(st.sampled_from(sorted(p.name for p in inputs.glob("*.csv"))))
            with open(table, newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
            row, col = data.draw(st.sampled_from([(i, j) for i, cells in enumerate(rows) for j in range(len(cells))]))
            rows[row][col] = data.draw(_CELL_TEXTS)
            with open(table, "w", newline="", encoding="utf-8") as handle:
                csv.writer(handle).writerows(rows)
        elif target == "boundaries":
            boundary = inputs / data.draw(st.sampled_from(["districts.geojson", "municipalities.geojson"]))
            boundary.write_text(json.dumps(_with_one_replaced_node(data, json.loads(boundary.read_text()))))
        else:
            cfg = Path(work) / "run.json"
            if target == "rules":
                section = {"rules": _with_one_replaced_node(data, _rules_json())}
            else:  # one node of the default wind mapping, the wind key included
                wind = [[e.raw, e.field, e.factor] for e in default_mapping().for_technology(Technology.WIND)]
                section = {"mapping": _with_one_replaced_node(data, {"wind": wind})}
            cfg.write_text(json.dumps(section))
            extra = ["--config", str(cfg)]
        code, stdout = _run_main(_validate_args(inputs, out, *extra))
        assert code in (EXIT_CLEAN, EXIT_FAILURES, EXIT_FATAL)
        (line,) = stdout.splitlines()
        json.loads(line)
        if code != EXIT_FATAL:
            assert (code == EXIT_FAILURES) == bool((out / "failures.ndjson").read_bytes())
            # report accepts every output of validate and writes the same bytes.
            before = _file_bytes(out)
            assert _run_main(["report", "--out", str(out)])[0] == EXIT_CLEAN
            assert _file_bytes(out) == before


def _file_bytes(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def _no_json_constant(name: str):
    raise ValueError(f"{name} is no JSON number")


# Finite cells, per table and data row, that gave a measured value or a power
# sum beyond the float range (Infinity in the JSON outputs) or an
# OverflowError in the suite. Each case sets the cells its test also reads.
_OVERFLOWING_CELLS = {
    "module-power": ("solar", {1: {"power gross": "1e308", "number of modules": "1"}}),
    "inverter-ratio": ("solar", {1: {"power gross": "10", "power inverter": "1e-308"}}),
    "wind-power-sum": ("wind", {row: {"power": "1e308", "rotor diameter": "100"} for row in (1, 2)}),
    "year-digits": ("wind", {1: {"installation year": "9" * 400}}),
    "module-count-digits": ("solar", {1: {"power gross": "10", "number of modules": "1" + "0" * 399}}),
    "rotor-diameter": ("wind", {1: {"power": "3000", "rotor diameter": "1e200"}}),
}


@pytest.mark.parametrize("case", _OVERFLOWING_CELLS)
def test_cells_beyond_the_float_range_keep_the_json_outputs_finite(small_run, tmp_path, case):
    inputs, out = tmp_path / "in", tmp_path / "run"
    shutil.copytree(small_run / "in", inputs)
    name, rows = _OVERFLOWING_CELLS[case]
    with open(inputs / f"{name}.csv", newline="", encoding="utf-8") as handle:
        table = list(csv.reader(handle))
    for row, cells in rows.items():
        for column, text in cells.items():
            table[row][table[0].index(column)] = text
    with open(inputs / f"{name}.csv", "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(table)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "registrylint.cli", *_validate_args(inputs, out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == EXIT_FAILURES and "Traceback" not in done.stderr, done.stderr
    (line,) = done.stdout.strip().splitlines()
    json.loads(line)
    for line in (out / "failures.ndjson").read_text(encoding="utf-8").splitlines():
        json.loads(line, parse_constant=_no_json_constant)
    json.loads((out / "summary.json").read_text(encoding="utf-8"), parse_constant=_no_json_constant)
    before = _file_bytes(out)
    assert _run_main(["report", "--out", str(out)])[0] == EXIT_CLEAN
    assert _file_bytes(out) == before
