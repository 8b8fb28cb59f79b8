"""Geometry kernel for the location tests.

Spherical-earth geodesics (haversine, R = 6371.0088 km): the 1.5 km
buffer tolerance of the location tests dwarfs the spherical-model error,
so no ellipsoid is needed. Polygon edges are treated as straight lines in
latitude/longitude space, matching how the boundary files are drawn and
how ray casting interprets them. Points exactly on an edge count as
inside.

A region builds its query structures when first queried (a region that
is never queried costs nothing). Its first query builds a latitude-slab
edge index for ray casting, after Haines, "Point in Polygon Strategies"
(Graphics Gems IV, 1994). The query that brings its ray casts up to its
edge count builds a uniform cell grid over its bounding box (Haines, and
Zalik and Kolingerova, "A cell-based point-in-polygon algorithm suitable
for large sets of points", Computers & Geosciences 27(10), 2001): a cell
that no edge's box meets holds the ray cast's answer for every point in
it, so a query there needs no ray cast. Its first clearance query builds
a flat table of segments: every ring edge, an edge longer than
_SEGMENT_SPLIT_M as its pieces, with one lat/lon bounding box per block
of consecutive segments, which bounds the clearance search from below.
The location verdict needs no exact clearance for a point within the
buffer, so that search stops at the first segment within it.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from itertools import accumulate, chain
from math import asin, cos, radians, sin, sqrt
from operator import add
from typing import NamedTuple

EARTH_RADIUS_M = 6_371_008.8
_EARTH_DIAMETER_M = 2.0 * EARTH_RADIUS_M

# Segments longer than this are split at their lat/lon midpoint before the
# local-projection minimization; keeps the projection error negligible.
_SEGMENT_SPLIT_M = 25_000.0
# No great-circle distance exceeds R * (|dlat| + |dlon|), the differences in
# radians, so an edge whose degree differences sum to at most this is not
# longer than _SEGMENT_SPLIT_M; the shrink covers float rounding in haversine_m.
_SPLIT_SCREEN_DEG = math.degrees(_SEGMENT_SPLIT_M / EARTH_RADIUS_M) * (1.0 - 1e-9)

# Ray casting: about this many edges per latitude slab.
_EDGES_PER_SLAB = 4
# Cell grid: about one cell per edge, with at least _GRID_MIN_SIDE and at
# most _GRID_MAX_SIDE cells per side. An edge's box is grown by
# _CELL_MARGIN_DEG before it marks cells mixed: far more than float
# rounding can move a ray cast's crossing longitude (under 1e-12 degrees).
_GRID_MIN_SIDE = 16
_GRID_MAX_SIDE = 256
_CELL_MARGIN_DEG = 1e-9
# A cell's tag. A grid under construction marks a pure cell not yet tagged
# _UNTAGGED.
_MIXED, _INSIDE, _OUTSIDE, _UNTAGGED = 0, 1, 2, 255
# Boundary clearance: consecutive segments that share one bounding box.
_SEGMENTS_PER_BLOCK = 16
# A clearance lower bound is shrunk by this share and these meters, far
# more than float rounding in haversine_m (worst near the antipode) and in
# the interpolated segment points can move a distance, so a bound never
# exceeds the distance it bounds.
_BOUND_SLACK = 1e-6
_BOUND_SLACK_M = 1e-3

LatLon = tuple[float, float]
Ring = tuple[LatLon, ...]


class GeometryError(ValueError):
    """Raised for unusable geometry (degenerate polygons, bad rings)."""


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two WGS84 points in meters."""
    rlat1 = math.radians(lat1)
    rlat2 = math.radians(lat2)
    dlat = rlat2 - rlat1
    dlon = math.radians(lon2 - lon1)
    a = math.sin(dlat / 2.0) ** 2 + math.cos(rlat1) * math.cos(rlat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def _check_ring(ring: Ring, where: str) -> Ring:
    if len(ring) < 4:
        raise GeometryError(f"ring with fewer than 4 vertices in {where}")
    if ring[0] != ring[-1]:
        raise GeometryError(f"unclosed ring in {where}")
    # Comparisons with NaN are false, so this also rejects non-finite values.
    for lat, lon in ring:
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            raise GeometryError(f"vertex at lat {lat!r}, lon {lon!r} outside WGS84 bounds in {where}")
    return ring


def _ring_area_deg2(ring: Ring) -> float:
    # Planar shoelace in lat/lon space; only used to detect degeneracy.
    total = 0.0
    for (lat1, lon1), (lat2, lon2) in zip(ring, ring[1:]):
        total += lon1 * lat2 - lon2 * lat1
    return abs(total) / 2.0


class PolygonGeom(NamedTuple):
    """One polygon part: an outer ring plus zero or more holes."""

    outer: Ring
    holes: tuple[Ring, ...] = ()

    def rings(self):
        yield self.outer
        yield from self.holes


class Region:
    """An administrative region: one or more polygon parts under one key."""

    __slots__ = ("region_id", "name", "polygons", "_prepared")

    def __init__(self, region_id: str, name: str, polygons: tuple[PolygonGeom, ...]):
        if not polygons:
            raise GeometryError(f"region {region_id!r} has no polygons")
        area = 0.0
        for poly in polygons:
            _check_ring(poly.outer, f"region {region_id!r}")
            for hole in poly.holes:
                _check_ring(hole, f"region {region_id!r}")
            area += _ring_area_deg2(poly.outer)
        if area == 0.0:
            raise GeometryError(f"degenerate (zero-area) polygon for region {region_id!r}")
        self.region_id = region_id
        self.name = name
        self.polygons = polygons
        # Query structures, built by _prepare() on the first query.
        self._prepared: _Prepared | None = None

    def bbox(self) -> tuple[float, float, float, float]:
        lats = [lat for poly in self.polygons for lat, _ in poly.outer]
        lons = [lon for poly in self.polygons for _, lon in poly.outer]
        return (min(lats), min(lons), max(lats), max(lons))


class BoundarySet:
    """Administrative polygons of one level, keyed by region id."""

    __slots__ = ("level", "regions")

    def __init__(self, level: str, regions: dict[str, Region]):
        self.level = level  # "district" or "municipality"
        self.regions = regions

    def __iter__(self):
        return iter(self.regions.values())

    def __len__(self) -> int:
        return len(self.regions)


class _Prepared:
    """A region's query structures, compact enough to keep for every region.

    vertices concatenates the region's rings, sharing their vertex tuples;
    an edge i runs from vertices[i] to vertices[i + 1] and never joins two
    rings. Polygon part p starts at vertex part_start[p]. The edges whose
    latitude range meets slab k are slab_edges[slab_start[k]:slab_start[k + 1]].
    segments and block_box, the clearance's table (see _segment_table), are
    None until the region's first clearance query. cells, the cell grid
    (see _cell_grid), is None until buffer_clearance_m has made as many ray
    casts as the region has edges; casts_to_grid counts them down. lon0,
    lon1, row_scale, col_scale and stride are set with cells.
    """

    __slots__ = ("vertices", "part_start", "lat0", "lat1", "slab_scale", "slab_start", "slab_edges",
                 "segments", "block_box", "casts_to_grid", "cells", "lon0", "lon1", "row_scale", "col_scale",
                 "stride")

    def __init__(self, region: Region):
        vertices: list[LatLon] = []
        part_start = []
        edges: list[int] = []
        for poly in region.polygons:
            part_start.append(len(vertices))
            for ring in poly.rings():
                first = len(vertices)
                vertices.extend(ring)
                edges.extend(range(first, len(vertices) - 1))
        lats = [lat for lat, _ in vertices]
        lat0 = min(lats)
        lat1 = max(lats)
        count = max(1, len(edges) // _EDGES_PER_SLAB)
        scale = count / (lat1 - lat0) if lat1 > lat0 else 0.0
        # A latitude in [lat0, lat1] falls in slab int((lat - lat0) * scale),
        # at most count after rounding. The slab is monotone in lat, so an
        # edge spans the slabs between its ends' slabs, and a query latitude
        # within an edge's latitude range finds the edge in its own slab.
        slab_of = [int((lat - lat0) * scale) for lat in lats]
        slabs: list[list[int]] = [[] for _ in range(count + 1)]
        for i in edges:
            ka, kb = slab_of[i], slab_of[i + 1]
            if ka == kb:
                slabs[ka].append(i)
            else:
                for slab in slabs[ka : kb + 1] if ka < kb else slabs[kb : ka + 1]:
                    slab.append(i)
        self.vertices = tuple(vertices)
        self.part_start = tuple(part_start)
        self.lat0, self.lat1, self.slab_scale = lat0, lat1, scale
        self.slab_start = array("I", accumulate(map(len, slabs), initial=0))
        self.slab_edges = array("I", chain.from_iterable(slabs))
        self.segments: array | None = None
        self.block_box: tuple | None = None
        self.casts_to_grid = len(edges)
        self.cells: bytearray | None = None


def _prepare(region: Region) -> _Prepared:
    prepared = region._prepared = _Prepared(region)
    return prepared


def _segment_table(region: Region) -> tuple[array, tuple]:
    """The clearance's segments and the bounding boxes of their blocks.

    Segment s is segments[4 * s:4 * s + 4] = (alat, alon, blat, blon). The
    table holds every ring edge in ring order; an edge longer than
    _SEGMENT_SPLIT_M goes in as its _split pieces, in order. Block b is the
    run of segments _SEGMENTS_PER_BLOCK * b to _SEGMENTS_PER_BLOCK * (b + 1) - 1,
    which may span rings, and block_box[b] = (latlo, lathi, lonlo, lonhi,
    cos_min) is its bounding box, where cos_min is the least cosine of a
    latitude in the box.
    """
    # Built as a list of the rings' own floats, then stored as an array:
    # cheaper than extending an array edge by edge and boxing its values
    # again for the block boxes.
    segments = []
    for poly in region.polygons:
        for ring in poly.rings():
            for edge in map(add, ring, ring[1:]):
                alat, alon, blat, blon = edge
                if abs(blat - alat) + abs(blon - alon) > _SPLIT_SCREEN_DEG and haversine_m(*edge) > _SEGMENT_SPLIT_M:
                    edge = _split(*edge)
                segments.extend(edge)
    block_box = []
    for n in range(0, len(segments), 4 * _SEGMENTS_PER_BLOCK):
        lats = segments[n : n + 4 * _SEGMENTS_PER_BLOCK : 2]
        lons = segments[n + 1 : n + 4 * _SEGMENTS_PER_BLOCK : 2]
        latlo, lathi = min(lats), max(lats)
        # cos is concave over [-90, 90], so its least value on the box is at a side.
        cos_min = min(cos(radians(latlo)), cos(radians(lathi)))
        block_box.append((latlo, lathi, min(lons), max(lons), cos_min))
    return array("d", segments), tuple(block_box)


def _cell_grid(region: Region, prep: _Prepared) -> bytearray:
    """Build the region's cell grid into prep and return its cells.

    side cells per side, about one cell per edge, cover the bounding box. A
    point in the box falls in row int((lat - lat0) * row_scale) and column
    int((lon - lon0) * col_scale), each in 0..side, so the grid has side + 1
    rows and columns; cell (r, c) is cells[r * stride + c]. A cell is _MIXED
    if any edge's box, grown by _CELL_MARGIN_DEG, meets it. Both maps are
    monotone, so a point in a pure cell lies outside every grown box, where
    rounding cannot change the ray cast's answer, and the points of a run
    of pure cells in a row, with those of a pure cell in the previous row
    and one of the run's columns, form a connected set that no edge
    crosses. So a run takes the tag of such a cell or, if there is none,
    the ray cast's answer at one cell centre: _INSIDE or _OUTSIDE.
    """
    edges = [edge for poly in region.polygons for ring in poly.rings() for edge in map(add, ring, ring[1:])]
    side = min(_GRID_MAX_SIDE, max(_GRID_MIN_SIDE, math.isqrt(len(edges) - 1) + 1))
    lons = [lon for _, lon in prep.vertices]
    lat0, lon0 = prep.lat0, min(lons)
    prep.lon0, prep.lon1 = lon0, max(lons)
    # A region encloses some area, so its box has both extents.
    row_scale = prep.row_scale = side / (prep.lat1 - lat0)
    col_scale = prep.col_scale = side / (prep.lon1 - lon0)
    stride = prep.stride = side + 1
    cells = bytearray([_UNTAGGED]) * (stride * stride)
    for alat, alon, blat, blon in edges:
        latlo, lathi = (alat, blat) if alat <= blat else (blat, alat)
        lonlo, lonhi = (alon, blon) if alon <= blon else (blon, alon)
        c0 = min(side, max(0, int((lonlo - _CELL_MARGIN_DEG - lon0) * col_scale)))
        c1 = min(side, max(0, int((lonhi + _CELL_MARGIN_DEG - lon0) * col_scale)))
        r0 = min(side, max(0, int((latlo - _CELL_MARGIN_DEG - lat0) * row_scale)))
        r1 = min(side, max(0, int((lathi + _CELL_MARGIN_DEG - lat0) * row_scale)))
        mixed = bytes(c1 - c0 + 1)
        for start in range(r0 * stride + c0, r1 * stride + c0 + 1, stride):
            cells[start : start + c1 - c0 + 1] = mixed
    for r in range(stride):
        row_end = (r + 1) * stride
        lat = lat0 + (r + 0.5) / row_scale
        start = cells.find(_UNTAGGED, r * stride, row_end)
        while start >= 0:
            end = cells.find(_MIXED, start, row_end)
            end = row_end if end < 0 else end
            # A pure cell of the previous row in the run's columns joins the
            # run to that cell's run.
            joined = cells[start - stride : end - stride].replace(b"\0", b"") if r else b""
            c = start - r * stride
            lon = lon0 + (c + 0.5) / col_scale
            if joined:
                tag = joined[0]
            elif int((lat - lat0) * row_scale) == r and int((lon - lon0) * col_scale) == c:
                tag = _INSIDE if point_in_region(lat, lon, region) else _OUTSIDE
            else:
                # The centre falls outside its cell only when the cell is
                # narrower than rounding; such a run stays mixed.
                tag = _MIXED
            cells[start:end] = bytes([tag]) * (end - start)
            start = cells.find(_UNTAGGED, end, row_end)
    prep.cells = cells
    return cells


def point_in_region(lat: float, lon: float, region: Region) -> bool:
    """Even-odd ray cast per polygon part (outer ring plus holes), over the
    edges of the query latitude's slab only. Inside if any part contains
    the point; points on an edge count inside."""
    prep = region._prepared or _prepare(region)
    if not prep.lat0 <= lat <= prep.lat1:
        return False
    k = int((lat - prep.lat0) * prep.slab_scale)
    vertices = prep.vertices
    parity = 0  # one bit per polygon part
    for i in prep.slab_edges[prep.slab_start[k] : prep.slab_start[k + 1]]:
        alat, alon = vertices[i]
        blat, blon = vertices[i + 1]
        # On-edge test: collinear and within the segment's bbox.
        if (alat <= lat <= blat or blat <= lat <= alat) and (alon <= lon <= blon or blon <= lon <= alon):
            cross = (blon - alon) * (lat - alat) - (blat - alat) * (lon - alon)
            if abs(cross) <= 1e-12:
                return True
        if (alat > lat) != (blat > lat):
            xint = alon + (lat - alat) * (blon - alon) / (blat - alat)
            if lon < xint:
                parity ^= 1 << bisect_right(prep.part_start, i)
    return parity != 0


def _piece_distance_m(
    lat: float, lon: float, rlat: float, coslat: float, alat: float, alon: float, blat: float, blon: float,
) -> float:
    """Min geodesic distance from a point to a lat/lon-straight segment at
    most _SEGMENT_SPLIT_M long; rlat is radians(lat) and coslat its cosine.
    Each distance is haversine_m's, bit for bit: the same operations in the
    same order, with the query's terms computed once. So a segment with
    equal ends gives haversine_m's distance to them, bit for bit.
    """
    # Seed with the foot point under a local equirectangular projection,
    # then refine along the segment with true haversine evaluations. The
    # distance is flat near its minimum, so the refinement converges fast.
    ax = radians(_wrap_degrees(alon - lon)) * coslat
    ay = radians(alat - lat)
    bx = radians(_wrap_degrees(blon - lon)) * coslat
    by = radians(blat - lat)
    dx = bx - ax
    dy = by - ay
    denom = dx * dx + dy * dy
    t_seed = 0.0 if denom == 0.0 else min(1.0, max(0.0, -(ax * dx + ay * dy) / denom))
    dlat_ab = blat - alat
    dlon_ab = blon - alon
    best, best_t = math.inf, t_seed
    # First the seed, then a coarse sweep that guards against a poor seed on
    # distorted projections, then 14 steps of a halving search around the
    # best t so far. Each t is evaluated inline, as haversine_m(lat, lon,
    # alat + t * dlat_ab, alon + t * dlon_ab).
    ts: tuple[float, ...] = (t_seed, 0.0, 0.25, 0.5, 0.75, 1.0)
    step = 0.125
    for _ in range(15):
        for t in ts:
            if 0.0 <= t <= 1.0:
                rlat2 = radians(alat + t * dlat_ab)
                dlon = radians(alon + t * dlon_ab - lon)
                a = sin((rlat2 - rlat) / 2.0) ** 2 + coslat * cos(rlat2) * sin(dlon / 2.0) ** 2
                root = sqrt(a)
                d = _EARTH_DIAMETER_M * asin(root if root < 1.0 else 1.0)
                if d < best:
                    best, best_t = d, t
        ts = (best_t - step, best_t + step)
        step /= 2.0
    return best


def _split(alat: float, alon: float, blat: float, blon: float) -> list[float]:
    """The pieces of a segment longer than _SEGMENT_SPLIT_M, their ends
    (alat, alon, blat, blon) one after another in order: halves at the
    lat/lon midpoint, split again until none is longer."""
    mlat, mlon = (alat + blat) / 2.0, (alon + blon) / 2.0
    ends = []
    for half in ((alat, alon, mlat, mlon), (mlat, mlon, blat, blon)):
        ends.extend(_split(*half) if haversine_m(*half) > _SEGMENT_SPLIT_M else half)
    return ends


def _wrap_degrees(dlon: float) -> float:
    if dlon > 180.0:
        return dlon - 360.0
    if dlon < -180.0:
        return dlon + 360.0
    return dlon


def _box_bound_m(
    lat: float, lon: float, coslat: float,
    latlo: float, lathi: float, lonlo: float, lonhi: float, cos_min: float,
) -> float:
    """A lower bound on the haversine distance from the point to any point
    of the lat/lon box, for a query and a box within WGS84 bounds.

    The haversine term sin^2(dlat/2) is at least that of the latitude gap,
    and cos(lat) cos(lat') sin^2(dlon/2) at least coslat * cos_min times
    that of the longitude gap, measured the short way round the globe.
    """
    if lat < latlo:
        dlat = latlo - lat
    elif lat > lathi:
        dlat = lat - lathi
    else:
        dlat = 0.0
    east = (lon - lonlo) % 360.0  # how far east of the box's west edge
    dlon = 0.0 if east <= lonhi - lonlo else min(360.0 - east, (lon - lonhi) % 360.0)
    a = sin(radians(dlat) / 2.0) ** 2 + coslat * cos_min * sin(radians(dlon) / 2.0) ** 2
    distance = _EARTH_DIAMETER_M * asin(min(1.0, sqrt(a)))
    return distance * (1.0 - _BOUND_SLACK) - _BOUND_SLACK_M


def _check_query(lat: float, lon: float) -> None:
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        raise ValueError(f"query at lat {lat!r}, lon {lon!r} outside WGS84 bounds")


def boundary_clearance_m(lat: float, lon: float, region: Region, stop_at_m: float = -math.inf) -> float:
    """Distance to the nearest ring of the region, ignoring containment.

    Visits blocks of segments in ascending order of a lower bound on their
    distance, then a block's segments in ascending order of their own
    bound; at each level it stops at the first bound above the best
    distance found. The result is the minimum of _piece_distance_m over
    every segment of the region's table, bit for bit, unless some segment
    lies within stop_at_m: then the search stops at the first such segment
    and returns its distance, which is at most stop_at_m.
    """
    _check_query(lat, lon)
    prep = region._prepared or _prepare(region)
    if prep.segments is None:
        prep.segments, prep.block_box = _segment_table(region)
    segments = prep.segments
    rlat = radians(lat)
    coslat = cos(rlat)
    best = math.inf
    boxes = prep.block_box
    # The first block searched has no bound to beat, so a region of one
    # block (every small rectangle) needs no block bound.
    ranked = [(0.0, 0)] if len(boxes) == 1 else sorted(
        (_box_bound_m(lat, lon, coslat, *box), b) for b, box in enumerate(boxes)
    )
    for block_bound, b in ranked:
        if block_bound > best:
            break
        # A segment lies in its block's latitude range, so the block's
        # cos_min is at most the cosine of any latitude on the segment.
        cos_min = boxes[b][4]
        block = iter(segments[4 * _SEGMENTS_PER_BLOCK * b : 4 * _SEGMENTS_PER_BLOCK * (b + 1)])
        segment_bounds = []
        for ends in zip(block, block, block, block):
            alat, alon, blat, blon = ends
            latlo, lathi = (alat, blat) if alat <= blat else (blat, alat)
            lonlo, lonhi = (alon, blon) if alon <= blon else (blon, alon)
            # _box_bound_m of the segment's box, inline: the same operations
            # in the same order, so the same bound bit for bit.
            if lat < latlo:
                dlat = latlo - lat
            elif lat > lathi:
                dlat = lat - lathi
            else:
                dlat = 0.0
            east = (lon - lonlo) % 360.0
            dlon = 0.0 if east <= lonhi - lonlo else min(360.0 - east, (lon - lonhi) % 360.0)
            a = sin(radians(dlat) / 2.0) ** 2 + coslat * cos_min * sin(radians(dlon) / 2.0) ** 2
            bound = _EARTH_DIAMETER_M * asin(min(1.0, sqrt(a))) * (1.0 - _BOUND_SLACK) - _BOUND_SLACK_M
            segment_bounds.append((bound, ends))
        segment_bounds.sort()
        for bound, ends in segment_bounds:
            if bound > best:
                break
            d = _piece_distance_m(lat, lon, rlat, coslat, *ends)
            if d < best:
                if d <= stop_at_m:
                    return d
                best = d
    return best


def buffer_clearance_m(lat: float, lon: float, region: Region, buffer_m: float) -> float | None:
    """The location tests' verdict: None for a point inside the region or,
    when buffer_m > 0, within buffer_m of its boundary; else the point's
    boundary clearance in meters.

    A region's query that brings its ray casts up to its edge count builds
    its cell grid. Then a point in a pure cell takes the cell's tag, the
    ray cast's answer there; any other point takes the ray cast.
    """
    prep = region._prepared or _prepare(region)
    cells = prep.cells
    if cells is None:
        prep.casts_to_grid -= 1
        if prep.casts_to_grid == 0:
            cells = _cell_grid(region, prep)
    tag = _MIXED
    if cells is not None and prep.lat0 <= lat <= prep.lat1 and prep.lon0 <= lon <= prep.lon1:
        tag = cells[int((lat - prep.lat0) * prep.row_scale) * prep.stride + int((lon - prep.lon0) * prep.col_scale)]
        if tag == _INSIDE:
            return None
    if tag == _MIXED and point_in_region(lat, lon, region):
        return None
    # A clearance of at most buffer_m passes whatever it is; a search that
    # finds none runs to the end and returns the exact clearance. With
    # buffer_m <= 0 it can stop only at a distance of 0, the minimum.
    clearance = boundary_clearance_m(lat, lon, region, buffer_m)
    return None if buffer_m > 0.0 and clearance <= buffer_m else clearance


def contains_with_buffer(lat: float, lon: float, region: Region, buffer_m: float) -> bool:
    """True iff the point is inside the region or within buffer_m of its boundary."""
    if buffer_m < 0:
        raise ValueError(f"buffer_m must be >= 0, got {buffer_m!r}")
    if buffer_m == 0.0:
        # No clearance can bring an outside point within a zero buffer. A
        # query outside WGS84 bounds is an error, as for any other buffer.
        _check_query(lat, lon)
        return point_in_region(lat, lon, region)
    return buffer_clearance_m(lat, lon, region, buffer_m) is None


def distance_to_boundary(lat: float, lon: float, region: Region) -> float:
    """0 for interior points, else min geodesic distance to the boundary."""
    clearance = buffer_clearance_m(lat, lon, region, 0.0)
    return 0.0 if clearance is None else clearance
