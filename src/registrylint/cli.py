"""Command-line entry point: validate, synth and report subcommands.

validate wires the whole pipeline (parse registry tables and boundaries,
run the test catalog, export failures and metrics) in one invocation.
synth produces seeded test fixtures with an answer key; report rebuilds
the aggregate outputs from previously exported failures, and leaves the
failure files as validate wrote them.

Exit codes: 0 = ran clean, 1 = ran and found failures, 2 = fatal error.
Progress goes to stderr; stdout carries exactly one final JSON line.

Each command returns its exit code and its result; main() prints the
result, or a fatal or usage error, as the one stdout line. run() is the
process entry of both `python -m registrylint.cli` and the console
script: it runs main() with the cyclic collector off, then freezes the
heap, so the interpreter's final collections do not walk objects that
the process is about to drop.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable

from .catalog import ConfigError
from .model import Technology
from .report import DEFAULT_BIN_WIDTH_KM, ColumnStats, ReportError, build_report, export, load_run

CONFIG_ENV_VAR = "REGISTRYLINT_CONFIG"
_CONFIG_SECTIONS = ("rules", "mapping", "csv", "boundary_keys")

EXIT_CLEAN = 0
EXIT_FAILURES = 1
EXIT_FATAL = 2


def _load_config_file(path: str | None) -> dict:
    from .ingest import DEFAULT_REGION_KEYS

    resolved = path or os.environ.get(CONFIG_ENV_VAR)
    if not resolved:
        return {}
    file = Path(resolved)
    if not file.is_file():
        raise ConfigError(f"config file does not exist: {file}")
    try:
        payload = json.loads(file.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ConfigError(f"config file {file} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"config file {file} must hold a JSON object")
    # A misspelt name would silently drop every setting under it.
    _require_known_keys(payload, _CONFIG_SECTIONS, "config section")
    for section in _CONFIG_SECTIONS:
        if not isinstance(payload.get(section, {}), dict):
            raise ConfigError(f"config section {section!r} must be an object")
    _require_known_keys(payload.get("csv", {}), ("delimiter",), "csv key")
    _require_known_keys(payload.get("boundary_keys", {}), tuple(DEFAULT_REGION_KEYS), "boundary_keys level")
    if not all(isinstance(key, str) and key.strip() for key in payload.get("boundary_keys", {}).values()):
        raise ConfigError("boundary_keys must map levels to property names (strings that are not blank)")
    return payload


def _require_known_keys(section: dict, known: tuple[str, ...], what: str) -> None:
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigError(f"unknown {what} {unknown[0]!r} (expected one of: {', '.join(known)})")


def _parse_inputs(pairs: list[str]) -> dict[Technology, Path]:
    inputs: dict[Technology, Path] = {}
    for pair in pairs:
        tech_name, sep, path = pair.partition("=")
        if not sep:
            raise ConfigError(f"--input expects tech=path, got {pair!r}")
        try:
            tech = Technology(tech_name)
        except ValueError:
            raise ConfigError(f"unknown technology {tech_name!r}") from None
        if tech in inputs:
            raise ConfigError(f"duplicate --input for {tech_name}")
        inputs[tech] = Path(path)
    return inputs


def _stream_blocks(readers: list) -> Iterable:
    for reader in readers:
        print(f"reading {reader.path} ({reader.technology.value})", file=sys.stderr)
        yield from reader.blocks()


def cmd_validate(args) -> tuple[int, dict]:
    # Imported here, as in cmd_synth, so that report loads neither the
    # reader, nor the checks, nor the geometry kernel.
    from .ingest import ColumnMapping, RegistryReader, default_mapping, parse_boundaries
    from .rules import Boundaries, RuleConfig, fields_read, run_blocks

    # Every setting and input file is checked before a boundary or row is read.
    # --jobs is accepted for existing command lines and changes nothing.
    if args.jobs < 1:
        raise ConfigError("worker count must be >= 1")
    file_cfg = _load_config_file(args.config)
    rules = dict(file_cfg.get("rules", {}))
    if args.buffer_m is not None:
        rules["buffer_m"] = args.buffer_m
    rule_config = RuleConfig.from_dict(rules)
    # Listed technologies replace their default mapping; others keep it.
    overrides = ColumnMapping.from_dict(file_cfg.get("mapping", {}))
    mapping = ColumnMapping({**default_mapping().entries, **overrides.entries})
    inputs = _parse_inputs(args.input)
    if not inputs:
        raise ConfigError("no registry inputs given (use --input tech=path)")
    for tech, path in inputs.items():
        if not path.is_file():
            raise ConfigError(f"input for {tech.value} does not exist: {path}")
    boundary_files = {
        level: Path(path)
        for level, path in {"district": args.districts, "municipality": args.municipalities}.items()
        if path
    }
    for path in boundary_files.values():
        if not path.is_file():
            raise ConfigError(f"boundary file does not exist: {path}")
    # A test without its inputs mapped would flag every unit of the technology.
    for tech in mapping.entries:
        missing = fields_read(rule_config, tech) - mapping.fields_given(tech)
        if missing:
            raise ConfigError(f"mapping for {tech.value} misses test-required fields: {', '.join(sorted(missing))}")
    # --dso-only keeps only the rows whose DSO column reads true, so without one it would keep no row.
    unmapped = [tech.value for tech in inputs if "grid_operator_inspection" not in mapping.fields_given(tech)]
    if args.dso_only and unmapped:
        raise ConfigError(f"--dso-only needs grid_operator_inspection mapped for {', '.join(unmapped)}")

    delimiter = file_cfg.get("csv", {}).get("delimiter", ",")
    readers = [
        RegistryReader(path, tech, mapping, delimiter=delimiter, dso_only=args.dso_only)
        for tech, path in sorted(inputs.items(), key=lambda kv: kv[0].value)
    ]

    region_keys = file_cfg.get("boundary_keys", {})
    parsed = {
        level: parse_boundaries(path, level, region_key=region_keys.get(level))
        for level, path in boundary_files.items()
    }
    boundaries = Boundaries(districts=parsed.get("district"), municipalities=parsed.get("municipality"))
    failure_set = run_blocks(_stream_blocks(readers), boundaries, rule_config)
    stats = ColumnStats({reader.technology: reader.non_null for reader in readers})
    issues = sum(len(r.issues) for r in readers)
    rejected = sum(r.rows_rejected for r in readers)
    rows = sum(r.rows_total for r in readers)
    print(f"parsed {rows} rows ({rejected} rejected, {issues} cell issues)", file=sys.stderr)

    summary = build_report(failure_set, stats)
    out_dir = Path(args.out)
    export(failure_set.failures, summary, out_dir)
    _print_tally(summary)

    failing = failure_set.failing_unit_count()
    return EXIT_FAILURES if failing else EXIT_CLEAN, {
        "records": failure_set.total_records,
        "rows_rejected": rejected,
        "cell_issues": issues,
        "failing_units": failing,
        "out_dir": str(out_dir),
    }


def _print_tally(summary: dict) -> None:
    print("failures per (test, technology):", file=sys.stderr)
    tally = sorted(
        (int(test_id), tech, count)
        for tech, metrics in summary["per_technology"].items()
        for test_id, count in metrics["per_test"].items()
    )
    for test_id, tech, count in tally:
        print(f"  test {test_id:2d} {tech:<11s} {count}", file=sys.stderr)
    if not tally:
        print("  none", file=sys.stderr)


def cmd_synth(args) -> tuple[int, dict]:
    # Imported here, so that validate and report do not load synth.
    from .ingest import write_boundaries_geojson, write_registry_csv
    from .synth import ErrorInjectionSpec, GroundTruth, generate_clean, inject_errors, make_boundary_grid

    if args.count < 0:
        raise ConfigError("--count must be >= 0")
    if not 0.0 <= args.error_rate <= 1.0:
        raise ConfigError("--error-rate must be within [0, 1]")
    technologies = (
        tuple(Technology(t) for t in args.technology) if args.technology else tuple(Technology)
    )
    if repeated := [tech.value for tech, n in Counter(technologies).items() if n > 1]:
        raise ConfigError(f"duplicate --technology {repeated[0]}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    boundaries = make_boundary_grid()
    write_boundaries_geojson(boundaries.districts, out_dir / "districts.geojson")
    write_boundaries_geojson(boundaries.municipalities, out_dir / "municipalities.geojson")

    merged = GroundTruth(expected={}, class_counts=Counter(), seed=args.seed)
    total = 0
    for tech in technologies:
        records = generate_clean(tech, args.count, args.seed, boundaries)
        if args.error_rate > 0 and records:
            spec = ErrorInjectionSpec.uniform(args.error_rate, tech, len(records))
            records, truth = inject_errors(records, spec, args.seed, boundaries=boundaries)
            merged.expected.update(truth.expected)
            merged.class_counts.update(truth.class_counts)
        write_registry_csv(records, out_dir / f"{tech.value}.csv", tech)
        total += len(records)
        print(f"wrote {len(records)} {tech.value} records", file=sys.stderr)

    (out_dir / "ground_truth.json").write_text(
        json.dumps(merged.to_json_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return EXIT_CLEAN, {"records": total, "errors": len(merged.expected), "out_dir": str(out_dir)}


def cmd_report(args) -> tuple[int, dict]:
    # The failure files are validate's; report rewrites the aggregate files.
    out_dir = Path(args.out)
    stored = load_run(out_dir)
    summary, text = stored.summary, stored.summary_text
    if (args.bin_width, args.overflow) != (stored.bin_width_km, stored.overflow_km):
        summary = build_report(
            stored.failure_set, stored.column_stats, bin_width_km=args.bin_width, overflow_km=args.overflow
        )
        text = None
    written = export(stored.failure_set.failures, summary, out_dir, formats=("summary",), summary_text=text)
    return EXIT_CLEAN, {"out_dir": str(out_dir), "files": len(written)}


class _HelpShown(Exception):
    """--help was given: the help is on stderr, and main() prints the
    command's name as its one JSON line and exits 0."""


class _Parser(argparse.ArgumentParser):
    """A usage error prints the usage to stderr and is a ConfigError, which
    main() reports as any fatal error: exit 2, one JSON line on stdout.
    --help prints the help to stderr and raises _HelpShown."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError(message)

    def print_help(self, file=None) -> None:
        super().print_help(file or sys.stderr)

    def exit(self, status: int = 0, message: str | None = None):
        if status == 0 and message is None:  # the help action's exit
            raise _HelpShown(self.prog.rpartition(" ")[2])
        super().exit(status, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="registrylint",
        description="Validate energy-unit registry tables against the data-test catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="run the full pipeline on registry CSV tables")
    p_validate.add_argument(
        "--input",
        action="append",
        default=[],
        metavar="TECH=PATH",
        help="registry CSV for one technology (repeatable)",
    )
    p_validate.add_argument("--districts", help="district boundaries (GeoJSON)")
    p_validate.add_argument("--municipalities", help="municipality boundaries (GeoJSON)")
    p_validate.add_argument("--config", help=f"run configuration file (or ${CONFIG_ENV_VAR})")
    p_validate.add_argument("--out", required=True, help="output directory")
    p_validate.add_argument(
        "--jobs", type=int, default=1, help="accepted for compatibility (>= 1); validate runs in one process"
    )
    p_validate.add_argument("--buffer-m", type=float, default=None, help="location buffer override")
    p_validate.add_argument(
        "--dso-only", action="store_true", help="validate only DSO-inspected units"
    )
    p_validate.set_defaults(func=cmd_validate)

    p_synth = sub.add_parser("synth", help="generate seeded synthetic registry tables")
    p_synth.add_argument(
        "--technology", action="append", choices=[t.value for t in Technology], help="default: all"
    )
    p_synth.add_argument("--count", type=int, required=True, help="records per technology")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--error-rate", type=float, default=0.0, help="share of units with errors")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_report = sub.add_parser("report", help="regenerate metrics from exported failures")
    p_report.add_argument("--out", required=True, help="directory holding failures.ndjson")
    p_report.add_argument("--bin-width", type=float, default=DEFAULT_BIN_WIDTH_KM, help="histogram bin width (km)")
    p_report.add_argument("--overflow", type=float, default=None, help="histogram overflow (km)")
    p_report.set_defaults(func=cmd_report)
    return parser


def _fatal_errors() -> tuple[type, ...]:
    """The errors a command reports with exit 2. ingest's and geo's are
    imported only once a command has raised, so that report loads neither."""
    from .geo import GeometryError
    from .ingest import IngestError

    return ConfigError, IngestError, GeometryError, ReportError, OSError


def main(argv: list[str] | None = None) -> int:
    """Run one command and print its result, or its error, as the one stdout line."""
    try:
        args = build_parser().parse_args(argv)
        code, result = args.func(args)
    except _HelpShown as shown:
        code, result = EXIT_CLEAN, {"help": str(shown)}
    except _fatal_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        code, result = EXIT_FATAL, {"error": str(exc)}
    print(json.dumps(result, sort_keys=True))
    return code


def run() -> None:
    """The process entry: main's command, then its exit code.

    No command makes a reference cycle per row, so the cyclic collector
    would only walk the suite's growing tables over and over; it is off
    for the whole command. Every output file is written in a with block and
    renamed before main returns, so once it has returned, what is left on
    the heap only waits for the OS to take it back. gc.freeze() moves it
    out of the collector's reach, and the interpreter's collections at exit
    walk nothing; atexit handlers and the flush of the standard streams
    still run. main() itself changes no collector state, since the tests
    call it in-process.
    """
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
