"""registrylint benchmark: drives the real CLI on seeded synth inputs.

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

One client, closed loop: one `registrylint` invocation at a time, each
waited for with os.wait4 so its CPU time and peak RSS come from the
kernel. Every invocation passes the correctness gate in gate.py or counts
as failed. With --trace 0 the run prints the end-to-end metrics; with
--trace 1 it runs the in-process traced pipeline of traced.py and prints
the per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Inputs are built once per (workload, seed) outside every timed region and
cached under .bench_cache/; see inputs.py.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import inputs as inputs_mod
from inputs import CACHE, Inputs, Kind

# Input sets. grid and grid-j2 share theirs. Sizes keep one validate near
# a second, so a run holds a dozen or more of them.
GRID = Kind("grid", count=2000, error_rate=0.05)
JAGGED = Kind("jagged", count=100, error_rate=0.2, rewrite="jagged")
DIRTY = Kind("dirty", count=1000, error_rate=0.5, rewrite="dirty")
REFERENCE = Kind("reference", count=200, error_rate=0.05)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: Kind
    jobs: int


# Why each workload exists:
# - grid: rectangle grid, 5% errors; parse and rule predicates dominate.
# - grid-j2: the same inputs at --jobs 2, the only process-pool workload.
# - jagged: rings of about 370 and 740 vertices; the geometry kernel
#   dominates. 20% errors give enough displaced points that the outside
#   path costs about the same on every seed.
# - dirty: 50% errors, decimal commas, bad cells and short rows; the
#   failure-building, outside-distance, parse-issue and export paths.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid", GRID, jobs=1),
        Workload("grid-j2", GRID, jobs=2),
        Workload("jagged", JAGGED, jobs=1),
        Workload("dirty", DIRTY, jobs=1),
    )
}

MIN_ITERATIONS = 3  # measured iterations, even past --seconds
SHORT_OPS_PER_ITERATION = 2  # set-up validates and reports per validate
OP_TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "validate_rec_per_s": "rec/s",
    "validate_cpu_s": "s",
    "peak_rss_mb": "MB",
    "report_s": "s",
    "setup_s": "s",
}


# A fixed task shaped like ingest (csv rows to floats and dicts), timed on
# each CPU right before every invocation. Other tenants of the host slow a
# CPU by up to 40% for minutes at a time; the probe finds the least busy
# CPU, and the ratio PROBE_REF_S / probe time scales the invocation's
# timings to the host's uncontended speed.
_PROBE_TEXT = "\n".join(f"SEE9{i:011d},{i * 0.37:.6f},{i % 97},{48 + i * 1e-5},{10 + i * 1e-5}" for i in range(1000))
PROBE_REF_S = 0.001  # the probe on an uncontended CPU of a 2.1 GHz Xeon, Python 3.11


def _probe_s() -> float:
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        for row in csv.reader(io.StringIO(_PROBE_TEXT)):
            {"id": row[0], "p": float(row[1]), "n": int(row[2]), "lat": float(row[3]), "lon": float(row[4])}
        best = min(best, time.perf_counter() - start)
    return best


def probe_cpus() -> dict[int, float]:
    """Probe time on each CPU this process may use."""
    cpus = sorted(os.sched_getaffinity(0))
    timed = {}
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            timed[cpu] = _probe_s()
    finally:
        os.sched_setaffinity(0, cpus)
    return timed


@dataclass
class Op:
    """One finished CLI invocation."""

    code: int
    stdout: str
    wall_s: float
    cpu_s: float  # user + sys of the process and its waited-for children
    peak_rss_mb: float  # largest of those processes
    probe_s: float  # probe time on the CPUs it ran on, just before it started

    @property
    def scale(self) -> float:
        """Factor that takes this invocation's timings to uncontended speed."""
        return PROBE_REF_S / self.probe_s


class Session:
    """Runs CLI invocations one at a time and counts them against the gate."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self._serial = 0

    def invoke(self, args: list[str], single_process: bool) -> Op:
        """Run one CLI invocation and reap it with os.wait4.

        A single-process invocation is started on the least busy CPU and
        stays there; the benchmark itself keeps all CPUs.
        """
        timed = probe_cpus()
        self._serial += 1
        log = self.run_dir / f"op{self._serial:04d}-{args[0]}"
        env = inputs_mod.program_env()
        cmd = [sys.executable, "-m", "registrylint.cli", *args]
        with open(f"{log}.out", "w+", encoding="utf-8") as out, open(f"{log}.err", "w") as err:
            cpus = os.sched_getaffinity(0)
            if single_process:
                cpu = min(timed, key=timed.get)
                probe = timed[cpu]
                os.sched_setaffinity(0, {cpu})
            else:
                probe = statistics.mean(timed.values())
            try:
                start = time.perf_counter()
                proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
            finally:
                os.sched_setaffinity(0, cpus)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            text = out.read()
        cpu_s = usage.ru_utime + usage.ru_stime
        return Op(proc.returncode, text, wall, cpu_s, usage.ru_maxrss / 1024.0, probe)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                line = f"{what}: {problem}"
                self.problems.append(line)
                print(f"bench: FAIL {line}", file=sys.stderr)

    def validate(
        self, what: str, data: Inputs, out: Path, jobs: int,
        header_only: bool = False, expected: dict[str, str] | None = None,
    ) -> tuple[Op, dict[str, str]]:
        """Run and gate one validate; return it with its output digests.

        With `expected`, those output files must have exactly those digests.
        """
        shutil.rmtree(out, ignore_errors=True)
        args = ["validate"]
        for tech, path in data.tables(header_only).items():
            args += ["--input", f"{tech}={path}"]
        args += [
            "--districts", str(data.districts),
            "--municipalities", str(data.municipalities),
            "--out", str(out),
            "--jobs", str(jobs),
        ]
        op = self.invoke(args, single_process=jobs == 1)
        problems = gate.check_validate(op.code, op.stdout, out, data, header_only)
        found = gate.digests(out)
        if expected is not None:
            problems += gate.check_same(found, expected, "outputs differ from the reference bytes")
        self.record(what, problems)
        return op, found

    def report(self, what: str, out: Path, before: dict) -> Op:
        op = self.invoke(["report", "--out", str(out)], single_process=True)
        self.record(what, gate.check_report(op.code, op.stdout, out, before))
        return op


def measure(workload: Workload, data: Inputs, seconds: float, session: Session) -> dict[str, float]:
    """The end-to-end metrics of one run (tracing off)."""
    out = session.run_dir / "out"
    setup_out = session.run_dir / "setup"
    session.validate("warm-up validate", data, setup_out, workload.jobs, header_only=True)
    if workload.kind is GRID:
        reference = inputs_mod.ensure(REFERENCE, gate.REFERENCE_SEED)
        session.validate("pinned reference validate", reference, session.run_dir / "reference",
                         workload.jobs, expected=gate.REFERENCE_DIGESTS)
    # Every measured validate must reproduce the bytes of a jobs-1 run.
    expected = None
    if workload.jobs > 1:
        _, expected = session.validate("jobs-1 reference validate", data, out, 1)

    # Set-up samples are spread over the run, so that they meet the same
    # machine noise as the measured invocations. Report rebuilds the same
    # bytes each time, so it can run more than once per validate.
    setup: list[Op] = []
    validates: list[Op] = []
    reports: list[Op] = []
    deadline = time.perf_counter() + seconds
    while len(validates) < MIN_ITERATIONS or time.perf_counter() < deadline:
        for _ in range(SHORT_OPS_PER_ITERATION):
            setup.append(session.validate("setup validate", data, setup_out, workload.jobs, header_only=True)[0])
        op, found = session.validate("validate", data, out, workload.jobs, expected=expected)
        expected = expected or found
        validates.append(op)
        for _ in range(SHORT_OPS_PER_ITERATION):
            reports.append(session.report("report", out, found))
    for path in (out, setup_out, session.run_dir / "reference"):
        shutil.rmtree(path, ignore_errors=True)

    samples = session.samples = {
        "validate_s": [op.wall_s for op in validates],
        "validate_cpu_s": [op.cpu_s for op in validates],
        "peak_rss_mb": [op.peak_rss_mb for op in validates],
        "report_s": [op.wall_s for op in reports],
        "setup_s": [op.wall_s for op in setup],
        "validate_scale": [op.scale for op in validates],
        "report_scale": [op.scale for op in reports],
        "setup_scale": [op.scale for op in setup],
    }
    for name in ("validate_s", "validate_cpu_s", "report_s", "setup_s"):
        values = samples[name]
        print(f"# {workload.name} {name} as timed: n={len(values)} min={min(values):.6g} median={statistics.median(values):.6g}")
    # Timings are scaled to uncontended speed (see PROBE_REF_S), then the
    # median is taken. Memory does not drift with the host.
    return {
        "validate_rec_per_s": statistics.median(data.rows / (op.wall_s * op.scale) for op in validates),
        "validate_cpu_s": statistics.median(op.cpu_s * op.scale for op in validates),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "report_s": statistics.median(op.wall_s * op.scale for op in reports),
        "setup_s": statistics.median(op.wall_s * op.scale for op in setup),
    }


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> tuple[Session, dict[str, tuple[float, str]]]:
    workload = WORKLOADS[name]
    data = inputs_mod.ensure(workload.kind, seed)
    run_dir = CACHE / "runs" / f"{name}-{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    session = Session(run_dir)
    env_before = environment()
    if trace:
        import traced

        metrics = traced.run(workload, data, seconds, session)
    else:
        values = measure(workload, data, seconds, session)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env_before": env_before,
        "env_after": environment(),
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": session.problems,
        "samples": session.samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (run_dir / "run.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    env = record["env_after"]
    print(f"# {name} seed={seed} nproc={env['nproc']} python={env['python']} loadavg={env['loadavg']}")
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} {value:.6g} {unit}")
    return session, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="registrylint benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    inputs_mod.require_program()

    if args.workload == "all":
        # Alternate the order between seeds so no workload always runs first.
        names = list(WORKLOADS)
        shift = args.seed % len(names)
        names = names[shift:] + names[:shift]
        if args.seed // len(names) % 2:
            names.reverse()
    else:
        names = [args.workload]

    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        session, found = run_one(name, args.seed, args.seconds, bool(args.trace))
        attempted += session.attempted
        failed += session.failed
        for key, (value, unit) in found.items():
            metrics[key if len(names) == 1 else f"{name}.{key}"] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
