"""Seeded benchmark inputs: synth tables plus the jagged and dirty rewriters.

Every input set starts from `registrylint synth` (run as a subprocess, so
the program only ever sees generated files) and may then be rewritten:

- jagged: each rectangle ring becomes a many-vertex ring whose vertices
  move at most JITTER_M perpendicular to their rectangle edge;
- dirty: numeric cells get German decimal commas, some commissioning
  dates become unparseable, and some rows lose their last cell.

Each rewrite keeps the synth answer key exact, and asserts the condition
that makes it so while it builds the files. Input sets are cached under
`.bench_cache/inputs`, keyed on the seed and on the content of the code
that generated them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from datetime import date
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
TECHNOLOGIES = ("biomass", "combustion", "hydro", "solar", "storage", "wind")

# Input sets kept in the cache; older ones are deleted first.
CACHE_KEEP = 16

# Constants of the synth answer key that the rewriters must respect.
SYNTH_MARGIN_M = 2500.0  # clean points lie this far inside their municipality
BUFFER_M = 1500.0  # location-test buffer (default rule config)
KEYED_DISTRICT_M = 1.2 * BUFFER_M  # test 10 is keyed only beyond this distance
EARTH_RADIUS_M = 6_371_008.8

# jagged: vertex spacing along the rectangle edges and the largest
# perpendicular vertex shift. The spacing gives municipality rings about
# 370 vertices and district rings about 740; a fixed spacing keeps a seed
# from changing how much work a ring costs.
RING_SPACING_M = 250.0
JITTER_M = 250.0
# Clean points stay inside and outside the buffer band of the jagged ring,
# and keyed test-10 points stay beyond the buffer.
if not (SYNTH_MARGIN_M - JITTER_M > BUFFER_M and KEYED_DISTRICT_M - JITTER_M > BUFFER_M):
    raise RuntimeError("JITTER_M would make the synth answer key inexact")

# dirty: raw columns that hold floats, the untested column that receives
# unparseable cells, and the planted shares (of all rows).
NUMERIC_COLUMNS = frozenset(
    {
        "power",
        "power gross",
        "power inverter",
        "power net",
        "storage capacity",
        "hub height",
        "rotor diameter",
        "area",
    }
)
UNTESTED_COLUMN = "commissioning date"
BAD_CELL_SHARE = 0.02
SHORT_ROW_SHARE = 0.01


@dataclass(frozen=True)
class Kind:
    """How one input set is made: synth arguments plus an optional rewrite."""

    name: str
    count: int  # records per technology
    error_rate: float
    rewrite: str | None = None  # None, "jagged" or "dirty"


@dataclass
class Inputs:
    """A generated input set and what the correctness gate expects of it."""

    path: Path
    rows: int
    key: dict[str, frozenset[int]]
    planted_bad_cells: int
    planted_short_rows: int
    synth_rec_per_s: float
    setup_dir: Path  # header-only copies of the tables, same boundaries

    def tables(self, header_only: bool = False) -> dict[str, Path]:
        base = self.setup_dir if header_only else self.path
        return {tech: base / f"{tech}.csv" for tech in TECHNOLOGIES}

    @property
    def districts(self) -> Path:
        return self.path / "districts.geojson"

    @property
    def municipalities(self) -> Path:
        return self.path / "municipalities.geojson"


def require_program() -> None:
    """Stop unless the program's sources are present next to the benchmark."""
    if not (SRC / "registrylint" / "cli.py").is_file():
        raise SystemExit(f"bench: no registrylint sources under {SRC}")


def input_digest(kind: Kind) -> str:
    """Digest of the input-set parameters and of every file that takes
    part in making the set."""
    h = hashlib.sha256(repr(kind).encode())
    files = sorted((SRC / "registrylint").glob("*.py")) + [Path(__file__).resolve()]
    for path in files:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REGISTRYLINT_CONFIG", None)
    return env


def ensure(kind: Kind, seed: int) -> Inputs:
    """Return the cached input set for (kind, seed), generating it if needed."""
    root = CACHE / "inputs"
    final = root / f"{kind.name}-{seed}-{input_digest(kind)}"
    if not (final / "meta.json").is_file():
        tmp = root / f".tmp-{final.name}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        try:
            _generate(kind, seed, tmp)
            shutil.rmtree(final, ignore_errors=True)
            os.replace(tmp, final)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        _prune(root)
    os.utime(final)
    meta = json.loads((final / "meta.json").read_text(encoding="utf-8"))
    truth = json.loads((final / "ground_truth.json").read_text(encoding="utf-8"))
    return Inputs(
        path=final,
        rows=meta["rows"],
        key={uid: frozenset(tests) for uid, tests in truth["units"].items()},
        planted_bad_cells=meta["planted_bad_cells"],
        planted_short_rows=meta["planted_short_rows"],
        synth_rec_per_s=meta["synth_rec_per_s"],
        setup_dir=final / "setup",
    )


def _prune(root: Path) -> None:
    entries = sorted(
        (p for p in root.iterdir() if p.is_dir() and not p.name.startswith(".")),
        key=lambda p: p.stat().st_mtime,
    )
    for stale in entries[:-CACHE_KEEP]:
        shutil.rmtree(stale, ignore_errors=True)


def _generate(kind: Kind, seed: int, out: Path) -> None:
    cmd = [
        sys.executable, "-m", "registrylint.cli", "synth",
        "--count", str(kind.count), "--seed", str(seed),
        "--error-rate", repr(kind.error_rate), "--out", str(out),
    ]
    start = time.perf_counter()
    done = subprocess.run(cmd, env=program_env(), capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"bench: synth failed ({done.returncode}): {done.stderr.strip()[-500:]}")
    rows = kind.count * len(TECHNOLOGIES)
    truth = json.loads((out / "ground_truth.json").read_text(encoding="utf-8"))
    key_ids = frozenset(truth["units"])

    bad = short = 0
    if kind.rewrite == "jagged":
        for level, prop in (("districts", "krs"), ("municipalities", "ags")):
            jag_boundaries(out / f"{level}.geojson", prop, seed)
    elif kind.rewrite == "dirty":
        bad, short = dirty_tables(out, key_ids, seed, rows)
    elif kind.rewrite is not None:
        raise ValueError(f"unknown rewrite {kind.rewrite!r}")

    setup = out / "setup"
    setup.mkdir()
    for tech in TECHNOLOGIES:
        with open(out / f"{tech}.csv", newline="", encoding="utf-8") as handle:
            header = handle.readline()
        (setup / f"{tech}.csv").write_text(header, encoding="utf-8", newline="")
    meta = {
        "kind": kind.name,
        "seed": seed,
        "rows": rows,
        "planted_bad_cells": bad,
        "planted_short_rows": short,
        "synth_rec_per_s": rows / wall,
    }
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")


# --- jagged ---------------------------------------------------------------


# The rewriter's self-checks use their own haversine, not the program's.
def _haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    a = math.sin((p2 - p1) / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(math.radians(lon2 - lon1) / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def jag_ring(ring: list[list[float]], rng: random.Random) -> list[list[float]]:
    """Turn a closed axis-aligned rectangle ring ([lon, lat] pairs) into a
    ring with a vertex every RING_SPACING_M.

    Corners stay put. A vertex at distance s along an edge from the nearer
    corner moves perpendicular to the edge by at most min(JITTER_M, 0.4 s),
    so each edge's points stay in a cone around it and the ring stays
    simple.
    """
    if len(ring) != 5 or ring[0] != ring[-1]:
        raise ValueError("expected a closed 5-vertex rectangle ring")
    corners = [(lat, lon) for lon, lat in ring[:4]]
    lengths = [_haversine_m(*corners[i], *corners[(i + 1) % 4]) for i in range(4)]
    out: list[list[float]] = []
    for i in range(4):
        (alat, alon), (blat, blon) = corners[i], corners[(i + 1) % 4]
        east_west = alat == blat
        if not east_west and alon != blon:
            raise ValueError("rectangle edge is not axis-aligned")
        out.append([alon, alat])
        steps = max(1, round(lengths[i] / RING_SPACING_M))
        for j in range(1, steps):
            t = j / steps
            lat = alat + t * (blat - alat)
            lon = alon + t * (blon - alon)
            shift_m = rng.uniform(-1.0, 1.0) * min(JITTER_M, 0.4 * min(t, 1 - t) * lengths[i])
            if east_west:
                new_lat, new_lon = lat + math.degrees(shift_m / EARTH_RADIUS_M), lon
            else:
                new_lat = lat
                new_lon = lon + math.degrees(shift_m / (EARTH_RADIUS_M * math.cos(math.radians(lat))))
            if _haversine_m(lat, lon, new_lat, new_lon) > JITTER_M * (1 + 1e-9):
                raise AssertionError("jagged vertex moved further than JITTER_M")
            out.append([new_lon, new_lat])
    out.append(out[0])
    return out


def jag_boundaries(path: Path, region_key: str, seed: int) -> None:
    """Rewrite every polygon ring of a synth boundary file in place."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    for feature in payload["features"]:
        region_id = feature["properties"][region_key]
        geometry = feature["geometry"]
        if geometry["type"] != "Polygon" or len(geometry["coordinates"]) != 1:
            raise ValueError(f"{path}: expected one-ring polygons from synth")
        rng = random.Random(f"{seed}:jagged:{region_key}:{region_id}")
        geometry["coordinates"] = [jag_ring(geometry["coordinates"][0], rng)]
    path.write_text(json.dumps(payload), encoding="utf-8")


# --- dirty ----------------------------------------------------------------


def _comma(text: str) -> str:
    if text.count(".") != 1 or "," in text:
        return text
    out = text.replace(".", ",")
    if float(out.replace(",", ".")) != float(text):
        raise AssertionError(f"decimal comma changed the value of {text!r}")
    return out


def _german_date(text: str) -> str:
    day = date.fromisoformat(text)
    out = f"{day.day:02d}.{day.month:02d}.{day.year}"
    try:
        date.fromisoformat(out)
    except ValueError:
        return out
    raise AssertionError(f"{out!r} would still parse")


def dirty_tables(folder: Path, key_ids: frozenset[str], seed: int, rows: int) -> tuple[int, int]:
    """Rewrite the synth tables of `folder` in place; return the planted
    (unparseable cells, short rows).

    Unparseable cells go only into UNTESTED_COLUMN and short rows only onto
    units absent from the answer key, so the key stays exact.
    """
    tables = {}
    for tech in TECHNOLOGIES:
        with open(folder / f"{tech}.csv", newline="", encoding="utf-8") as handle:
            tables[tech] = list(csv.reader(handle))
    rng = random.Random(f"{seed}:dirty")
    slots = [(tech, i) for tech in TECHNOLOGIES for i in range(1, len(tables[tech]))]
    unkeyed = [(tech, i) for tech, i in slots if tables[tech][i][0] not in key_ids]
    short = set(rng.sample(unkeyed, round(SHORT_ROW_SHARE * rows)))
    dated = [
        (tech, i)
        for tech, i in slots
        if (tech, i) not in short and tables[tech][i][tables[tech][0].index(UNTESTED_COLUMN)]
    ]
    bad = set(rng.sample(dated, round(BAD_CELL_SHARE * rows)))
    for tech in TECHNOLOGIES:
        header, *body = tables[tech]
        if header[0] != "mastr id":
            raise ValueError("expected the unit id in the first column")
        numeric = [c for c, name in enumerate(header) if name in NUMERIC_COLUMNS]
        date_col = header.index(UNTESTED_COLUMN)
        for i, row in enumerate(body, start=1):
            for c in numeric:
                row[c] = _comma(row[c])
            if (tech, i) in bad:
                row[date_col] = _german_date(row[date_col])
            if (tech, i) in short:
                if row[0] in key_ids:
                    raise AssertionError("short row planted on a keyed unit")
                row.pop()
        with open(folder / f"{tech}.csv", "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows([header, *body])
    return len(bad), len(short)
