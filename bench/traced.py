"""Traced run: per-layer numbers from timed calls into public entry points.

The benchmark itself calls each module's public functions in the order a
validate run uses them and times every call; nothing inside the program
is patched. Spans (name, start, end, parent, run id) stay in memory and
go to spans.json in the run directory at the end, with each span's self
time. An untraced CLI validate on the same inputs in each iteration gives
the tracing overhead and the bytes the traced export must reproduce.
"""

from __future__ import annotations

import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from types import SimpleNamespace

import gate
from inputs import SRC

# Only entry points that stay public; internals may be refactored away.
ENTRY_POINTS = {
    "registrylint": ("Boundaries", "RuleConfig", "Technology", "run_suite"),
    "registrylint.ingest": ("parse_boundaries", "RegistryReader"),
    "registrylint.report": ("ColumnStats", "build_report", "export", "load_failures_ndjson"),
    "registrylint.geo": ("contains_with_buffer", "distance_to_boundary"),
}

# The spans whose sum stands for one validate run; the suite span is the
# one run at the workload's --jobs.
VALIDATE_SPANS = ("ingest.boundaries", "ingest.read", "report.column_stats", "report.build", "report.export")

UNITS = {
    "ingest.read_s": "s",
    "ingest.read_rows_per_s": "rows/s",
    "ingest.cell_issues": "count",
    "ingest.rows_rejected": "count",
    "ingest.boundaries_s": "s",
    "report.column_stats_s": "s",
    "report.build_s": "s",
    "report.export_s": "s",
    "report.export_bytes": "bytes",
    "report.load_failures_s": "s",
    "rules.suite_flat_s": "s",
    "rules.suite_geo_s": "s",
    "rules.geo_share": "share",
    "rules.failing_units": "count",
    "rules.failing_share": "share",
    "rules.suite_j2_s": "s",
    "rules.suite_j2_cpu_s": "s",
    "rules.parallel_efficiency": "share",
    "geo.inside_calls": "count",
    "geo.inside_us": "us",
    "geo.outside_calls": "count",
    "geo.outside_us": "us",
    "geo.distance_us": "us",
    "synth.rec_per_s": "rec/s",
    "cli.validate_s": "s",
    "trace.overhead_share": "share",
    "op_failed_share": "share",
}
# Metrics that must repeat exactly between iterations of one run.
COUNTS = (
    "ingest.cell_issues",
    "ingest.rows_rejected",
    "report.export_bytes",
    "rules.failing_units",
    "rules.failing_share",
    "geo.inside_calls",
    "geo.outside_calls",
)


def load_api() -> SimpleNamespace:
    """Import the entry points; stop loudly if any is missing."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    api = {}
    missing = []
    for module_name, names in ENTRY_POINTS.items():
        module = importlib.import_module(module_name)
        for name in names:
            if hasattr(module, name):
                api[name] = getattr(module, name)
            else:
                missing.append(f"{module_name}.{name}")
    if missing:
        raise SystemExit(f"bench: entry points missing: {', '.join(missing)}")
    return SimpleNamespace(**api)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.run_id = 0

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "start_ns": time.perf_counter_ns(), "end_ns": None,
                           "parent": parent, "run_id": self.run_id})
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end_ns"] = time.perf_counter_ns()

    def last(self, name: str) -> float:
        """Seconds of the latest span with this name."""
        for span in reversed(self.spans):
            if span["name"] == name:
                return (span["end_ns"] - span["start_ns"]) / 1e9
        raise KeyError(name)

    def write(self, path) -> dict[str, list[int]]:
        """Write the spans with their self time; return self times by name."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
        by_name: dict[str, list[int]] = {}
        for span, covered in zip(self.spans, child_ns):
            span["self_ns"] = span["end_ns"] - span["start_ns"] - covered
            by_name.setdefault(span["name"], []).append(span["self_ns"])
        path.write_text(json.dumps(self.spans, indent=1) + "\n", encoding="utf-8")
        return by_name


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _iteration(api, data, jobs: int, out, tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    found: dict[str, float] = {}
    problems: list[str] = []
    with tracer.span("pipeline"):
        with tracer.span("ingest.boundaries"):
            boundaries = api.Boundaries(
                districts=api.parse_boundaries(data.districts, "district"),
                municipalities=api.parse_boundaries(data.municipalities, "municipality"),
            )
        with tracer.span("ingest.read"):
            readers = [api.RegistryReader(path, api.Technology(tech)) for tech, path in data.tables().items()]
            records = [record for reader in readers for record in reader]
        with tracer.span("report.column_stats"):
            stats = api.ColumnStats()
            update = stats.update
            for record in records:
                update(record)
        config = api.RuleConfig()
        with tracer.span("rules.suite_flat"):
            api.run_suite(records, None, config)
        with tracer.span("rules.suite_geo"):
            failure_set = api.run_suite(records, boundaries, config)
        cpu = _cpu_s()
        with tracer.span("rules.suite_j2"):
            failure_set_j2 = api.run_suite(records, boundaries, config, jobs=2)
        found["rules.suite_j2_cpu_s"] = _cpu_s() - cpu
        with tracer.span("report.build"):
            report = api.build_report(failure_set, stats)
        with tracer.span("report.export"):
            written = api.export(failure_set.failures, report, out)
        with tracer.span("report.load_failures"):
            loaded = api.load_failures_ndjson(out / "failures.ndjson")
        with tracer.span("geo.replay"):
            inside_ns, outside_ns, distance_ns = _replay(api, records, boundaries, config.buffer_m)

    rows = sum(r.rows_total for r in readers)
    cell_issues = sum(1 for r in readers for issue in r.issues if issue.field is not None)
    rejected = sum(r.rows_rejected for r in readers)
    failing = {}
    for fr in failure_set.failures:
        failing.setdefault(fr.unit_id, set()).update(fr.test_ids)
    problems += gate.key_problems(failing, data.key)
    if rows != data.rows:
        problems.append(f"read {rows} rows, expected {data.rows}")
    if (cell_issues, rejected) != (data.planted_bad_cells, data.planted_short_rows):
        problems.append(
            f"ingest found {cell_issues} cell issues / {rejected} rejected rows, planted "
            f"{data.planted_bad_cells} / {data.planted_short_rows}"
        )
    if failure_set_j2.failures != failure_set.failures:
        problems.append("run_suite jobs=2 failures differ from jobs=1")
    if loaded != failure_set.failures:
        problems.append("load_failures_ndjson does not round-trip the exported failures")
    for name, calls in (("inside", inside_ns), ("outside", outside_ns)):
        if not calls:
            # Every workload has in-region points and displaced points.
            problems.append(f"geo replay made no {name} calls")

    suite_geo = tracer.last("rules.suite_geo")
    suite_flat = tracer.last("rules.suite_flat")
    suite_j2 = tracer.last("rules.suite_j2")
    read = tracer.last("ingest.read")
    found.update(
        {
            "ingest.read_s": read,
            "ingest.read_rows_per_s": rows / read,
            "ingest.cell_issues": cell_issues,
            "ingest.rows_rejected": rejected,
            "ingest.boundaries_s": tracer.last("ingest.boundaries"),
            "report.column_stats_s": tracer.last("report.column_stats"),
            "report.build_s": tracer.last("report.build"),
            "report.export_s": tracer.last("report.export"),
            "report.export_bytes": sum(path.stat().st_size for path in written),
            "report.load_failures_s": tracer.last("report.load_failures"),
            "rules.suite_flat_s": suite_flat,
            "rules.suite_geo_s": suite_geo,
            "rules.geo_share": (suite_geo - suite_flat) / suite_geo,
            "rules.failing_units": failure_set.failing_unit_count(),
            "rules.failing_share": failure_set.failing_unit_count() / failure_set.total_records,
            "rules.suite_j2_s": suite_j2,
            "rules.parallel_efficiency": suite_geo / (2 * suite_j2),
            "geo.inside_calls": len(inside_ns),
            "geo.inside_us": statistics.median(inside_ns or [0]) / 1e3,
            "geo.outside_calls": len(outside_ns),
            "geo.outside_us": statistics.median(outside_ns or [0]) / 1e3,
            "geo.distance_us": statistics.median(distance_ns or [0]) / 1e3,
            "traced_validate_s": sum(tracer.last(name) for name in VALIDATE_SPANS)
            + (suite_j2 if jobs > 1 else suite_geo),
        }
    )
    return found, problems


def _replay(api, records, boundaries, buffer_m):
    """Each record's location queries through the public geometry calls."""
    contains = api.contains_with_buffer
    distance = api.distance_to_boundary
    clock = time.perf_counter_ns
    levels = ((boundaries.districts.regions, "district_id"), (boundaries.municipalities.regions, "municipality_id"))
    inside_ns, outside_ns, distance_ns = [], [], []
    for record in records:
        if record.coordinate is None:
            continue
        lat, lon = record.coordinate
        for regions, attr in levels:
            region = regions.get(getattr(record, attr))
            if region is None:
                continue
            start = clock()
            hit = contains(lat, lon, region, buffer_m)
            mid = clock()
            if hit:
                inside_ns.append(mid - start)
            else:
                outside_ns.append(mid - start)
                distance(lat, lon, region)
                distance_ns.append(clock() - mid)
    return inside_ns, outside_ns, distance_ns


def run(workload, data, seconds: float, session) -> dict[str, tuple[float, str]]:
    """Repeat untraced validate + traced pipeline for `seconds`; medians."""
    api = load_api()
    tracer = Tracer()
    samples: list[dict[str, float]] = []
    out_cli = session.run_dir / "out-cli"
    out_traced = session.run_dir / "out-traced"
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        op, expected = session.validate("validate", data, out_cli, workload.jobs)
        shutil.rmtree(out_traced, ignore_errors=True)
        tracer.run_id = len(samples)
        found, problems = _iteration(api, data, workload.jobs, out_traced, tracer)
        problems += gate.check_same(gate.digests(out_traced), expected, "traced export vs CLI validate")
        if samples:
            changed = [k for k in COUNTS if found[k] != samples[0][k]]
            if changed:
                problems.append(f"counts changed between iterations: {', '.join(changed)}")
        session.record("traced pipeline", problems)
        found["cli.validate_s"] = op.wall_s
        found["trace.overhead_share"] = found.pop("traced_validate_s") / op.wall_s - 1.0
        samples.append(found)
    for name, self_ns in tracer.write(session.run_dir / "spans.json").items():
        print(f"# span {name} self_s median={statistics.median(self_ns) / 1e9:.6g} n={len(self_ns)}")
    shutil.rmtree(out_cli, ignore_errors=True)
    shutil.rmtree(out_traced, ignore_errors=True)

    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics["synth.rec_per_s"] = data.synth_rec_per_s
    metrics["op_failed_share"] = session.failed / session.attempted
    return {name: (metrics[name], UNITS[name]) for name in UNITS}
