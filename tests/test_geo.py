"""Geometry kernel tests against the independent dense-sampling oracle."""

import functools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from registrylint import geo
from registrylint.geo import (
    EARTH_RADIUS_M,
    BoundarySet,
    GeometryError,
    LatLon,
    PolygonGeom,
    Region,
    _SEGMENT_SPLIT_M,
    _box_bound_m,
    _wrap_degrees,
    boundary_clearance_m,
    buffer_clearance_m,
    contains_with_buffer,
    distance_to_boundary,
    haversine_m,
    point_in_region,
)

from geo_oracle import (
    oracle_boundary_distance_m,
    oracle_distance_to_boundary,
    oracle_haversine_m,
    oracle_point_in_region,
)


def square_region(rid: str, lat0: float, lon0: float, dlat: float, dlon: float) -> Region:
    ring = ((lat0, lon0), (lat0, lon0 + dlon), (lat0 + dlat, lon0 + dlon), (lat0 + dlat, lon0), (lat0, lon0))
    return Region(region_id=rid, name=rid, polygons=(PolygonGeom(outer=ring),))


def ring_with_hole_region(rid: str) -> Region:
    outer = ((50.0, 10.0), (50.0, 10.4), (50.4, 10.4), (50.4, 10.0), (50.0, 10.0))
    hole = ((50.15, 10.15), (50.15, 10.25), (50.25, 10.25), (50.25, 10.15), (50.15, 10.15))
    return Region(region_id=rid, name=rid, polygons=(PolygonGeom(outer=outer, holes=(hole,)),))


def lon_offset_deg(distance_m: float, lat: float) -> float:
    return math.degrees(distance_m / (EARTH_RADIUS_M * math.cos(math.radians(lat))))


def star_ring(rng: random.Random, lat: float, lon: float, radius_km: float, vertices: int) -> tuple:
    """Closed simple (non-self-intersecting) star-shaped ring around a
    center. Longitudes past +-180 wrap into [-180, 180]."""
    angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(vertices))
    points = []
    for angle in angles:
        r_m = radius_km * 1000.0 * rng.uniform(0.4, 1.0)
        dlat = math.degrees(r_m * math.cos(angle) / EARTH_RADIUS_M)
        vlon = lon + lon_offset_deg(r_m * math.sin(angle), lat)
        points.append((lat + dlat, vlon if -180.0 <= vlon <= 180.0 else (vlon + 180.0) % 360.0 - 180.0))
    points.append(points[0])
    return tuple(points)


def random_star_region(rng: random.Random, rid: str, lat: float, lon: float,
                       radius_km: float, vertices: int) -> Region:
    """Simple (non-self-intersecting) star-shaped polygon around a center."""
    ring = star_ring(rng, lat, lon, radius_km, vertices)
    return Region(region_id=rid, name=rid, polygons=(PolygonGeom(outer=ring),))


def jagged_ring(rng: random.Random, lat0: float, lon0: float, height_km: float, width_km: float,
                spacing_m: float = 250.0) -> tuple:
    """Closed rectangle outline (south-west corner lat0/lon0) with a vertex
    every spacing_m, each moved perpendicular to its side by less than half
    the spacing, so the ring stays simple. Longitudes wrap into [-180, 180].
    """
    corners = [(0.0, 0.0), (0.0, width_km), (height_km, width_km), (height_km, 0.0)]
    coslat = math.cos(math.radians(lat0))
    points = []
    for (ay, ax), (by, bx) in zip(corners, corners[1:] + corners[:1]):
        steps = max(1, round(1000.0 * max(abs(by - ay), abs(bx - ax)) / spacing_m))
        for j in range(steps):
            y = ay + (by - ay) * j / steps
            x = ax + (bx - ax) * j / steps
            shift = 0.0 if j == 0 else rng.uniform(-0.4, 0.4) * spacing_m / 1000.0
            if ay == by:
                y += shift
            else:
                x += shift
            lat = lat0 + math.degrees(y * 1000.0 / EARTH_RADIUS_M)
            lon = lon0 + math.degrees(x * 1000.0 / (EARTH_RADIUS_M * coslat))
            points.append((lat, (lon + 180.0) % 360.0 - 180.0))
    points.append(points[0])
    return tuple(points)


@functools.cache
def kernel_fixture_regions() -> dict[str, Region]:
    """Deterministic many-vertex regions for the geometry kernel tests."""
    rng = random.Random(2024)

    def region(rid, *polygons):
        return Region(region_id=rid, name=rid, polygons=tuple(polygons))

    return {
        "jagged": region("jagged", PolygonGeom(outer=jagged_ring(rng, 50.0, 8.0, 25.0, 25.0))),
        "jagged-large": region("jagged-large", PolygonGeom(outer=jagged_ring(rng, 51.0, 9.0, 60.0, 62.0))),
        "star": random_star_region(rng, "star", 49.0, 11.0, 30.0, 600),
        "multipart": region(
            "multipart",
            PolygonGeom(outer=jagged_ring(rng, 48.0, 7.0, 20.0, 30.0)),
            # Overlaps the first part: inside both is still inside.
            PolygonGeom(outer=jagged_ring(rng, 48.1, 7.2, 25.0, 15.0)),
            PolygonGeom(outer=jagged_ring(rng, 48.5, 7.0, 10.0, 10.0)),
        ),
        "holed": region(
            "holed",
            PolygonGeom(
                outer=jagged_ring(rng, 52.0, 13.0, 30.0, 30.0),
                holes=(jagged_ring(rng, 52.09, 13.13, 8.0, 10.0), jagged_ring(rng, 52.18, 13.1, 5.0, 5.0)),
            ),
        ),
        "long-edges": random_star_region(rng, "long-edges", 47.0, 12.0, 120.0, 9),
        # synth's district: a 0.5 degree rectangle with 56 and 37 km sides.
        "rectangle": square_region("rectangle", 48.0, 10.0, 0.5, 0.5),
        "arctic": region("arctic", PolygonGeom(outer=jagged_ring(rng, 72.5, 25.0, 20.0, 40.0))),
        "antimeridian": region("antimeridian", PolygonGeom(outer=jagged_ring(rng, -17.0, 179.85, 20.0, 30.0))),
        # The corner (48.0, 9.2) twice: a zero-length edge.
        "repeated-vertex": region("repeated-vertex", PolygonGeom(
            outer=((48.0, 9.0), (48.0, 9.2), (48.0, 9.2), (48.1, 9.25), (48.2, 9.2), (48.2, 9.0), (48.0, 9.0)),
        )),
    }


def reference_point_in_region(lat: float, lon: float, region: Region) -> bool:
    """Unindexed even-odd ray cast over every edge of each polygon part."""
    for poly in region.polygons:
        inside = False
        for ring in poly.rings():
            for (alat, alon), (blat, blon) in zip(ring, ring[1:]):
                if (
                    min(alat, blat) <= lat <= max(alat, blat)
                    and min(alon, blon) <= lon <= max(alon, blon)
                ):
                    cross = (blon - alon) * (lat - alat) - (blat - alat) * (lon - alon)
                    if abs(cross) <= 1e-12:
                        return True
                if (alat > lat) != (blat > lat):
                    xint = alon + (lat - alat) * (blon - alon) / (blat - alat)
                    if lon < xint:
                        inside = not inside
        if inside:
            return True
    return False


# The clearance kernel before edges were split once per region: a recursive
# split on every call and one haversine_m call per point. The kernel must
# give its distances bit for bit.
def _segment_distance_m(lat: float, lon: float, a: LatLon, b: LatLon) -> float:
    """Min geodesic distance from a point to a lat/lon-straight segment."""
    alat, alon = a
    blat, blon = b
    span = haversine_m(alat, alon, blat, blon)
    if span > _SEGMENT_SPLIT_M:
        mid = ((alat + blat) / 2.0, (alon + blon) / 2.0)
        return min(_segment_distance_m(lat, lon, a, mid), _segment_distance_m(lat, lon, mid, b))
    if span == 0.0:
        return haversine_m(lat, lon, alat, alon)

    # Seed with the foot point under a local equirectangular projection,
    # then refine along the segment with true haversine evaluations. The
    # distance is flat near its minimum, so the refinement converges fast.
    coslat = math.cos(math.radians(lat))
    ax = math.radians(_wrap_degrees(alon - lon)) * coslat
    ay = math.radians(alat - lat)
    bx = math.radians(_wrap_degrees(blon - lon)) * coslat
    by = math.radians(blat - lat)
    dx = bx - ax
    dy = by - ay
    denom = dx * dx + dy * dy
    t_seed = 0.0 if denom == 0.0 else min(1.0, max(0.0, -(ax * dx + ay * dy) / denom))

    def dist_at(t: float) -> float:
        return haversine_m(lat, lon, alat + t * (blat - alat), alon + t * (blon - alon))

    best_t = t_seed
    best = dist_at(t_seed)
    # Coarse sweep guards against a poor seed on distorted projections.
    for k in range(5):
        t = k / 4.0
        d = dist_at(t)
        if d < best:
            best, best_t = d, t
    step = 0.125
    for _ in range(14):
        for t in (best_t - step, best_t + step):
            if 0.0 <= t <= 1.0:
                d = dist_at(t)
                if d < best:
                    best, best_t = d, t
        step /= 2.0
    return best


def reference_segments(region: Region) -> list[tuple[LatLon, LatLon]]:
    """Every ring edge in ring order; an edge longer than _SEGMENT_SPLIT_M
    as its halves at the lat/lon midpoint, split again until none is longer."""

    def split(a: LatLon, b: LatLon) -> list[tuple[LatLon, LatLon]]:
        if haversine_m(*a, *b) <= _SEGMENT_SPLIT_M:
            return [(a, b)]
        mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
        return split(a, mid) + split(mid, b)

    return [segment for poly in region.polygons for ring in poly.rings() for a, b in zip(ring, ring[1:])
            for segment in split(a, b)]


def exhaustive_clearance_m(lat: float, lon: float, region: Region) -> float:
    return min(
        _segment_distance_m(lat, lon, a, b)
        for poly in region.polygons
        for ring in poly.rings()
        for a, b in zip(ring, ring[1:])
    )


class TestHaversine:
    def test_one_degree_of_latitude(self):
        expected = math.pi * EARTH_RADIUS_M / 180.0
        assert haversine_m(0.0, 0.0, 1.0, 0.0) == pytest.approx(expected, rel=1e-9)

    def test_zero_distance(self):
        assert haversine_m(48.1748, 11.5961, 48.1748, 11.5961) == 0.0

    def test_matches_oracle_formulation(self):
        rng = random.Random(1)
        for _ in range(200):
            lat1, lon1 = rng.uniform(-80, 80), rng.uniform(-179, 179)
            lat2, lon2 = rng.uniform(-80, 80), rng.uniform(-179, 179)
            ours = haversine_m(lat1, lon1, lat2, lon2)
            theirs = oracle_haversine_m(lat1, lon1, lat2, lon2)
            assert ours == pytest.approx(theirs, rel=1e-9, abs=1e-6)


class TestPointInPolygon:
    def test_interior_and_exterior(self):
        region = square_region("A", 50.0, 10.0, 0.2, 0.2)
        assert point_in_region(50.1, 10.1, region)
        assert not point_in_region(50.3, 10.1, region)
        assert not point_in_region(50.1, 9.9, region)

    def test_point_on_edge_counts_inside(self):
        region = square_region("A", 50.0, 10.0, 0.2, 0.2)
        assert point_in_region(50.0, 10.1, region)  # on the southern edge
        assert point_in_region(50.0, 10.0, region)  # on a vertex

    def test_hole_is_outside(self):
        region = ring_with_hole_region("H")
        assert point_in_region(50.05, 10.05, region)
        assert not point_in_region(50.2, 10.2, region)  # center of the hole

    def test_agrees_with_winding_oracle(self):
        rng = random.Random(7)
        for case in range(150):
            region = random_star_region(rng, "S", rng.uniform(-55, 60), rng.uniform(-20, 20),
                                        rng.uniform(3, 60), rng.randint(5, 12))
            minlat, minlon, maxlat, maxlon = region.bbox()
            for _ in range(10):
                lat = rng.uniform(minlat - 0.1, maxlat + 0.1)
                lon = rng.uniform(minlon - 0.1, maxlon + 0.1)
                assert point_in_region(lat, lon, region) == oracle_point_in_region(lat, lon, region)


class TestContainsWithBuffer:
    def test_interior_point_of_10km_square(self):
        side_deg = 10_000.0 / (math.pi * EARTH_RADIUS_M / 180.0)
        region = square_region("A", 50.0, 10.0, side_deg, side_deg * 1.5)
        minlat, minlon, maxlat, maxlon = region.bbox()
        center = ((minlat + maxlat) / 2, (minlon + maxlon) / 2)
        assert contains_with_buffer(center[0], center[1], region, 1500.0)

    def test_point_1km_outside_edge(self):
        region = square_region("A", 50.0, 10.0, 0.2, 0.2)
        lon = 10.2 + lon_offset_deg(1000.0, 50.1)
        # Oracle confirms the constructed offset is what we intended.
        assert oracle_boundary_distance_m(50.1, lon, region) == pytest.approx(1000.0, abs=2.0)
        assert contains_with_buffer(50.1, lon, region, 1500.0)
        assert not contains_with_buffer(50.1, lon, region, 500.0)

    def test_point_in_hole_beyond_buffer(self):
        region = ring_with_hole_region("H")
        # Hole is ~11 km wide; its center is > 1.5 km from every ring.
        assert boundary_clearance_m(50.2, 10.2, region) > 1500.0
        assert not contains_with_buffer(50.2, 10.2, region, 1500.0)

    def test_zero_buffer_equals_point_in_polygon(self):
        rng = random.Random(13)
        region = random_star_region(rng, "S", 49.0, 8.0, 25.0, 9)
        for _ in range(200):
            lat = rng.uniform(48.5, 49.5)
            lon = rng.uniform(7.5, 8.5)
            assert contains_with_buffer(lat, lon, region, 0.0) == point_in_region(lat, lon, region)

    def test_zero_buffer_computes_no_clearance(self, monkeypatch):
        rng = random.Random(13)
        region = random_star_region(rng, "S", 49.0, 8.0, 25.0, 9)
        calls = 0
        clearance_m = geo.boundary_clearance_m

        def counted(*args):
            nonlocal calls
            calls += 1
            return clearance_m(*args)

        monkeypatch.setattr(geo, "boundary_clearance_m", counted)
        outside = [(lat, 7.5 + 0.01 * k) for k, lat in enumerate((48.5, 49.5) * 50)]
        assert not any(point_in_region(lat, lon, region) for lat, lon in outside)
        assert not any(contains_with_buffer(lat, lon, region, 0.0) for lat, lon in outside)
        assert calls == 0
        assert contains_with_buffer(48.5, 7.5, region, 1500.0) is False and calls == 1

    @pytest.mark.parametrize("query", [(float("nan"), 8.0), (49.0, 180.5)])
    def test_zero_buffer_rejects_query_outside_wgs84(self, query):
        region = square_region("A", 48.9, 7.9, 0.2, 0.2)
        with pytest.raises(ValueError, match="outside WGS84 bounds"):
            contains_with_buffer(*query, region, 0.0)

    def test_degenerate_region_raises(self):
        line = ((50.0, 10.0), (50.1, 10.1), (50.2, 10.2), (50.0, 10.0))
        with pytest.raises(GeometryError, match="BAD"):
            Region(region_id="BAD", name="BAD", polygons=(PolygonGeom(outer=line),))


class TestDistanceToBoundary:
    def test_interior_point_is_zero(self):
        region = square_region("A", 50.0, 10.0, 0.2, 0.2)
        assert distance_to_boundary(50.1, 10.1, region) == 0.0

    def test_2km_east_of_meridian_edge_at_lat_50(self):
        region = square_region("A", 49.9, 9.9, 0.2, 0.2)
        lon = 10.1 + lon_offset_deg(2000.0, 50.0)
        assert distance_to_boundary(50.0, lon, region) == pytest.approx(2000.0, abs=10.0)

    def test_far_point_is_finite(self):
        region = square_region("A", 50.0, 10.0, 0.2, 0.2)
        d = distance_to_boundary(-45.0, -170.0, region)
        assert math.isfinite(d)
        assert d > 1e6

    def test_agrees_with_oracle_on_random_cases(self):
        rng = random.Random(99)
        for _ in range(60):
            lat0 = rng.uniform(-50, 60)
            lon0 = rng.uniform(-30, 30)
            region = random_star_region(rng, "S", lat0, lon0, rng.uniform(2, 50), rng.randint(5, 11))
            offset_m = rng.uniform(50.0, 300_000.0)
            bearing = rng.uniform(0, 2 * math.pi)
            lat = lat0 + math.degrees(offset_m * math.cos(bearing) / EARTH_RADIUS_M)
            lon = lon0 + lon_offset_deg(offset_m * math.sin(bearing), lat0)
            ours = distance_to_boundary(lat, lon, region)
            truth = oracle_distance_to_boundary(lat, lon, region)
            if truth == 0.0:
                assert ours == 0.0
            else:
                assert ours == pytest.approx(truth, rel=5e-3, abs=0.5)

    def test_symmetric_under_ring_relabeling(self):
        rng = random.Random(3)
        region = random_star_region(rng, "S", 50.0, 10.0, 20.0, 8)
        ring = region.polygons[0].outer
        opened = list(ring[:-1])
        lat, lon = 50.4, 10.4
        baseline = distance_to_boundary(lat, lon, region)
        for shift in (1, 3, 5):
            rotated = opened[shift:] + opened[:shift]
            variant = Region(
                region_id="S", name="S",
                polygons=(PolygonGeom(outer=tuple(rotated + [rotated[0]])),),
            )
            assert distance_to_boundary(lat, lon, variant) == pytest.approx(baseline, rel=1e-9)
        reversed_ring = list(reversed(opened))
        variant = Region(
            region_id="S", name="S",
            polygons=(PolygonGeom(outer=tuple(reversed_ring + [reversed_ring[0]])),),
        )
        assert distance_to_boundary(lat, lon, variant) == pytest.approx(baseline, rel=1e-9)


def _grid_boundary_set(nx: int, ny: int, lat0=48.0, lon0=10.0, step=0.2) -> BoundarySet:
    regions = {}
    for y in range(ny):
        for x in range(nx):
            rid = f"{10000 + y * nx + x}"
            regions[rid] = square_region(rid, lat0 + y * step, lon0 + x * step, step, step)
    return BoundarySet(level="district", regions=regions)


def regions_within(bset: BoundarySet, lat: float, lon: float, buffer_m: float) -> set[str]:
    """Ids of all regions containing the point within the buffer (brute force)."""
    return {region.region_id for region in bset if contains_with_buffer(lat, lon, region, buffer_m)}


class TestLocate:
    def test_point_inside_single_region(self):
        bset = _grid_boundary_set(3, 3)
        assert regions_within(bset, 48.1, 10.1, 1500.0) == {"10000"}

    def test_overlap_band_between_adjacent_regions(self):
        bset = _grid_boundary_set(2, 1)
        # 500 m west of the shared edge at lon 10.2: within 1.5 km of both.
        lon = 10.2 - lon_offset_deg(500.0, 48.1)
        assert regions_within(bset, 48.1, lon, 1500.0) == {"10000", "10001"}
        assert regions_within(bset, 48.1, lon, 0.0) == {"10000"}

    def test_empty_result_out_at_sea(self):
        bset = _grid_boundary_set(2, 2)
        assert regions_within(bset, 54.0, 6.0, 1500.0) == set()

    def test_buffer_monotonicity(self):
        rng = random.Random(5)
        bset = _grid_boundary_set(4, 4)
        for _ in range(150):
            lat = rng.uniform(47.8, 49.0)
            lon = rng.uniform(9.8, 11.0)
            small = regions_within(bset, lat, lon, 200.0)
            medium = regions_within(bset, lat, lon, 1500.0)
            large = regions_within(bset, lat, lon, 8000.0)
            assert small <= medium <= large


def _kernel_queries(rng: random.Random, region: Region, count: int) -> list[tuple[float, float]]:
    """Points inside and around the region, near its vertices, and far away."""
    minlat, minlon, maxlat, maxlon = region.bbox()
    vertices = [v for poly in region.polygons for ring in poly.rings() for v in ring]
    points = []
    for _ in range(count):
        lat = rng.uniform(minlat - 0.05, maxlat + 0.05)
        points.append((lat, rng.uniform(minlon - 0.05, maxlon + 0.05)))
        vlat, vlon = rng.choice(vertices)
        offset_m = rng.choice([rng.uniform(0.0, 50.0), rng.uniform(0.0, 3_000.0)])
        bearing = rng.uniform(0.0, 2.0 * math.pi)
        lat = vlat + math.degrees(offset_m * math.cos(bearing) / EARTH_RADIUS_M)
        lon = vlon + lon_offset_deg(offset_m * math.sin(bearing), vlat)
        points.append((min(90.0, lat), (lon + 180.0) % 360.0 - 180.0))
    center_lat, center_lon = (minlat + maxlat) / 2.0, (minlon + maxlon) / 2.0
    antipode_lon = center_lon - 180.0 if center_lon > 0.0 else center_lon + 180.0
    points += [(-center_lat, antipode_lon), (90.0, 0.0), (-90.0, 0.0), (0.0, 180.0), (0.0, -180.0),
               (center_lat + 10.0, center_lon)]
    return points


class TestKernelEquivalence:
    """The indexed kernel against unindexed references, on many-vertex,
    multipart, holed, long-edged, arctic and antimeridian regions."""

    @pytest.mark.parametrize("name", sorted(kernel_fixture_regions()))
    def test_clearance_is_exact_minimum_over_all_segments(self, name):
        region = kernel_fixture_regions()[name]
        rng = random.Random(name)
        for lat, lon in _kernel_queries(rng, region, 8):
            assert boundary_clearance_m(lat, lon, region) == exhaustive_clearance_m(lat, lon, region)

    def test_box_bound_never_exceeds_distance_to_the_box(self):
        # Boxes up to 5 degrees wide, half of them at the antimeridian, with
        # queries around them on either side of it.
        rng = random.Random(7)
        for _ in range(400):
            latlo = rng.uniform(-89.0, 84.0)
            lathi = latlo + rng.uniform(0.0, 5.0)
            lonlo = rng.choice([rng.uniform(-180.0, 175.0), rng.uniform(175.0, 180.0)])
            lonhi = min(180.0, lonlo + rng.uniform(0.0, 5.0))
            lat = max(-90.0, min(90.0, rng.uniform(latlo - 6.0, lathi + 6.0)))
            lon = (rng.uniform(lonlo - 6.0, lonhi + 6.0) + 180.0) % 360.0 - 180.0
            cos_min = min(math.cos(math.radians(latlo)), math.cos(math.radians(lathi)))
            bound = _box_bound_m(lat, lon, math.cos(math.radians(lat)), latlo, lathi, lonlo, lonhi, cos_min)
            for u in range(9):
                for v in range(9):
                    box_lat = latlo + (lathi - latlo) * u / 8.0
                    box_lon = lonlo + (lonhi - lonlo) * v / 8.0
                    assert bound <= haversine_m(lat, lon, box_lat, box_lon), (lat, lon, latlo, lathi, lonlo, lonhi)

    @pytest.mark.parametrize("query",[(float("nan"), 7.0), (48.0, float("inf")), (90.5, 7.0), (48.0, -180.5)])
    def test_clearance_rejects_query_outside_wgs84(self, query):
        with pytest.raises(ValueError, match="outside WGS84 bounds"):
            boundary_clearance_m(*query, kernel_fixture_regions()["jagged"])

    @pytest.mark.parametrize("name", sorted(kernel_fixture_regions()))
    def test_indexed_ray_cast_equals_per_part_reference(self, name):
        region = kernel_fixture_regions()[name]
        rng = random.Random(name)
        points = _kernel_queries(rng, region, 300)
        rings = [ring for poly in region.polygons for ring in poly.rings()]
        for ring in rings:
            for (alat, alon), (blat, blon) in zip(ring, ring[1:]):
                points.append((alat, alon))  # on a vertex
                points.append(((alat + blat) / 2.0, (alon + blon) / 2.0))  # on an edge
                points.append((alat, alon + rng.uniform(-0.05, 0.05)))  # at a vertex latitude
        inside = 0
        for lat, lon in points:
            expected = reference_point_in_region(lat, lon, region)
            assert point_in_region(lat, lon, region) == expected, (lat, lon)
            inside += expected
        assert 0 < inside < len(points)

    def test_fixtures_have_the_intended_shape(self):
        regions = kernel_fixture_regions()

        def edges(region):
            return [(a, b) for poly in region.polygons for ring in poly.rings() for a, b in zip(ring, ring[1:])]

        assert 400 <= len(edges(regions["jagged"])) <= 1_000
        assert 400 <= len(edges(regions["jagged-large"])) <= 1_000
        assert len(regions["multipart"].polygons) == 3
        assert len(regions["holed"].polygons[0].holes) == 2
        assert max(haversine_m(*a, *b) for a, b in edges(regions["long-edges"])) > 25_000.0
        assert min(haversine_m(*a, *b) for a, b in edges(regions["rectangle"])) > 25_000.0
        assert regions["arctic"].bbox()[0] > 70.0
        lons = [lon for _, lon in regions["antimeridian"].polygons[0].outer]
        assert min(lons) < -179.0 and max(lons) > 179.0
        assert min(haversine_m(*a, *b) for a, b in edges(regions["repeated-vertex"])) == 0.0

    def test_zero_length_segment_gives_haversine_to_its_vertex(self):
        rng = random.Random(11)
        for _ in range(500):
            lat, lon = rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)
            vlat, vlon = rng.choice([(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)),
                                     (lat + rng.uniform(-0.1, 0.1), lon + rng.uniform(-0.1, 0.1))])
            rlat = math.radians(lat)
            d = geo._piece_distance_m(lat, lon, rlat, math.cos(rlat), vlat, vlon, vlat, vlon)
            assert d == haversine_m(lat, lon, vlat, vlon), (lat, lon, vlat, vlon)

    def test_multipart_overlap_counts_inside(self):
        region = kernel_fixture_regions()["multipart"]
        # Inside the first two parts at once: each part's even-odd test says inside.
        lat = 48.1 + math.degrees(5_000.0 / EARTH_RADIUS_M)
        lon = 7.2 + lon_offset_deg(5_000.0, 48.1)
        assert point_in_region(lat, lon, region)
        assert distance_to_boundary(lat, lon, region) == 0.0


@functools.cache
def block_fixture_regions() -> dict[str, Region]:
    """Regions whose edge counts sit around multiples of the clearance
    block size (16 segments), whose blocks straddle ring and part ends or
    start mid-edge, that straddle the antimeridian, or that have over
    4,000 edges."""
    rng = random.Random(16)

    def region(rid, *polygons):
        return Region(region_id=rid, name=rid, polygons=tuple(polygons))

    regions = {
        f"ring-{edges}": region(f"ring-{edges}", PolygonGeom(outer=star_ring(rng, 50.0, 10.0, 20.0, edges)))
        for edges in (3, 15, 16, 17, 33)
    }
    regions["ring-33-antimeridian"] = region(
        "ring-33-antimeridian", PolygonGeom(outer=star_ring(rng, -17.0, 179.97, 20.0, 33))
    )
    # 21 + 10 + 19 + 7 edges: blocks 1 and 3 hold edges of two or three rings.
    regions["multipart-holed"] = region(
        "multipart-holed",
        PolygonGeom(outer=star_ring(rng, 48.0, 7.0, 30.0, 21), holes=(star_ring(rng, 48.0, 7.0, 5.0, 10),)),
        PolygonGeom(outer=star_ring(rng, 48.6, 7.6, 15.0, 19), holes=(star_ring(rng, 48.6, 7.6, 3.0, 7),)),
    )
    regions["jagged-4k"] = region("jagged-4k", PolygonGeom(outer=jagged_ring(rng, 50.0, 8.0, 50.0, 50.0, 50.0)))
    # Every edge over 25 km: blocks of segments start part way along an edge.
    regions["long-edges"] = kernel_fixture_regions()["long-edges"]
    regions["rectangle"] = kernel_fixture_regions()["rectangle"]
    return regions


def _edge_count(region: Region) -> int:
    return sum(len(ring) - 1 for poly in region.polygons for ring in poly.rings())


def _far_queries(rng: random.Random, region: Region, count: int) -> list[tuple[float, float]]:
    """Points 100 to 3,000 km from the region's vertices, and each vertex
    near the antimeridian mirrored onto its other side."""
    vertices = [v for poly in region.polygons for ring in poly.rings() for v in ring[:-1]]
    points = [(vlat, -vlon) for vlat, vlon in vertices if abs(vlon) > 179.0]
    for _ in range(count):
        vlat, vlon = rng.choice(vertices)
        offset_m = rng.uniform(100_000.0, 3_000_000.0)
        bearing = rng.uniform(0.0, 2.0 * math.pi)
        lat = vlat + math.degrees(offset_m * math.cos(bearing) / EARTH_RADIUS_M)
        lon = vlon + lon_offset_deg(offset_m * math.sin(bearing), vlat)
        points.append((max(-90.0, min(90.0, lat)), (lon + 180.0) % 360.0 - 180.0))
    return points


def _block_end_queries(rng: random.Random, region: Region, limit: int) -> list[tuple[float, float]]:
    """Points within 2 m of the segment ends where one clearance block ends
    and the next begins, where the two blocks' bounds and distances nearly
    tie."""
    segments = reference_segments(region)
    size = geo._SEGMENTS_PER_BLOCK
    ends = [v for k in range(size, len(segments), size) for v in (segments[k - 1][1], segments[k][0])]
    points = []
    for vlat, vlon in ends[:limit]:
        for _ in range(8):
            offset_m = rng.uniform(0.0, 2.0)
            bearing = rng.uniform(0.0, 2.0 * math.pi)
            lat = vlat + math.degrees(offset_m * math.cos(bearing) / EARTH_RADIUS_M)
            lon = vlon + lon_offset_deg(offset_m * math.sin(bearing), vlat)
            points.append((lat, (lon + 180.0) % 360.0 - 180.0))
    return points


class TestBlockClearance:
    """The clearance searches blocks of 16 consecutive segments before
    their segments; it must still give the exhaustive minimum, bit for bit."""

    def test_fixtures_have_the_intended_shape(self):
        regions = block_fixture_regions()
        assert [_edge_count(regions[f"ring-{n}"]) for n in (3, 15, 16, 17, 33)] == [3, 15, 16, 17, 33]
        assert _edge_count(regions["multipart-holed"]) == 57
        assert _edge_count(regions["jagged-4k"]) >= 4_000
        lons = [lon for _, lon in regions["ring-33-antimeridian"].polygons[0].outer]
        assert min(lons) < -179.9 and max(lons) > 179.9
        # Some block of long-edges starts part way along an edge.
        vertices = set(regions["long-edges"].polygons[0].outer)
        segments = reference_segments(regions["long-edges"])
        size = geo._SEGMENTS_PER_BLOCK
        assert any(segments[k][0] not in vertices for k in range(size, len(segments), size))

    @pytest.mark.parametrize("name", sorted(block_fixture_regions()))
    def test_clearance_is_exact_minimum_over_all_segments(self, name):
        region = block_fixture_regions()[name]
        rng = random.Random(name)
        near = 4 if name == "jagged-4k" else 60
        queries = _kernel_queries(rng, region, near) + _far_queries(rng, region, near // 2)
        for lat, lon in queries + _block_end_queries(rng, region, near // 4):
            assert boundary_clearance_m(lat, lon, region) == exhaustive_clearance_m(lat, lon, region), (lat, lon)

    def test_clearance_2km_outside_evaluates_under_5_percent_of_edges(self, monkeypatch):
        region = block_fixture_regions()["jagged-4k"]
        edges = _edge_count(region)
        calls = 0
        piece_distance_m = geo._piece_distance_m

        def counted(*args):
            nonlocal calls
            calls += 1
            return piece_distance_m(*args)

        monkeypatch.setattr(geo, "_piece_distance_m", counted)
        # 2 km east of the ring's eastern side, half way up.
        minlat, _, maxlat, maxlon = region.bbox()
        lat = (minlat + maxlat) / 2.0
        lon = maxlon + lon_offset_deg(2_000.0, lat)
        clearance = boundary_clearance_m(lat, lon, region)
        assert 1_900.0 < clearance < 2_100.0
        assert 0 < calls < 0.05 * edges, (calls, edges)

    @pytest.mark.parametrize("name", ["ring-3", "ring-15", "ring-16", "rectangle"])
    def test_one_block_region_takes_no_block_bound(self, name, monkeypatch):
        # No _box_bound_m call: the search bounds each segment inline and
        # ranks no block, with the same distances bit for bit.
        region = block_fixture_regions()[name]
        rng = random.Random(name)
        queries = _kernel_queries(rng, region, 20) + _far_queries(rng, region, 10)
        calls = 0
        box_bound_m = geo._box_bound_m

        def counted(*args):
            nonlocal calls
            calls += 1
            return box_bound_m(*args)

        monkeypatch.setattr(geo, "_box_bound_m", counted)
        for lat, lon in queries:
            before = calls
            clearance = boundary_clearance_m(lat, lon, region)
            assert len(region._prepared.block_box) == 1
            assert calls - before == 0
            assert clearance.hex() == exhaustive_clearance_m(lat, lon, region).hex(), (lat, lon)

    @pytest.mark.parametrize("name", ["ring-17", "ring-33", "multipart-holed"])
    def test_a_region_of_many_blocks_bounds_each_block_once(self, name, monkeypatch):
        # The blocks are ranked by _box_bound_m, one call each, and no
        # segment's bound calls it.
        region = block_fixture_regions()[name]
        rng = random.Random(name)
        queries = _kernel_queries(rng, region, 20) + _far_queries(rng, region, 10)
        calls = 0
        box_bound_m = geo._box_bound_m

        def counted(*args):
            nonlocal calls
            calls += 1
            return box_bound_m(*args)

        monkeypatch.setattr(geo, "_box_bound_m", counted)
        for lat, lon in queries:
            before = calls
            boundary_clearance_m(lat, lon, region)
            assert len(region._prepared.block_box) > 1
            assert calls - before == len(region._prepared.block_box)


def _table_segments(region: Region) -> list[tuple[LatLon, LatLon]]:
    """The region's clearance table as ((alat, alon), (blat, blon)) pairs."""
    table = region._prepared.segments
    return [((table[s], table[s + 1]), (table[s + 2], table[s + 3])) for s in range(0, len(table), 4)]


def _threshold_scale(origin: LatLon, direction: tuple[float, float], over: bool) -> float:
    """The scale of the lat/lon direction at which an edge from origin
    reaches _SEGMENT_SPLIT_M: the largest float scale whose haversine_m is
    at most that, or the next float above it when over."""
    lo, hi = 0.0, 2.0 ** -10
    while haversine_m(*origin, *_along(origin, direction, hi)) <= _SEGMENT_SPLIT_M:
        lo, hi = hi, 2.0 * hi
    while (lo + hi) / 2.0 not in (lo, hi):
        mid = (lo + hi) / 2.0
        if haversine_m(*origin, *_along(origin, direction, mid)) > _SEGMENT_SPLIT_M:
            hi = mid
        else:
            lo = mid
    return hi if over else lo


def _along(origin: LatLon, direction: tuple[float, float], scale: float) -> LatLon:
    lon = origin[1] + scale * direction[1]
    return origin[0] + scale * direction[0], (lon + 180.0) % 360.0 - 180.0


class TestEdgePieces:
    """The clearance's table holds every ring edge, an edge longer than
    _SEGMENT_SPLIT_M as its pieces; it is built once per region, on the
    first clearance query, and a query evaluates only the pieces it must."""

    def test_long_edges_are_split_once_and_short_edges_never(self):
        # The long-edges ring around a hole of short edges.
        long_ring = kernel_fixture_regions()["long-edges"].polygons[0].outer
        hole = star_ring(random.Random(8), 47.0, 12.0, 10.0, 12)
        copy = Region(region_id="copy", name="copy", polygons=(PolygonGeom(outer=long_ring, holes=(hole,)),))
        edges = [(a, b) for ring in (long_ring, hole) for a, b in zip(ring, ring[1:])]
        assert any(haversine_m(*a, *b) > _SEGMENT_SPLIT_M for a, b in edges)
        assert any(haversine_m(*a, *b) <= _SEGMENT_SPLIT_M for a, b in edges)
        queries = _kernel_queries(random.Random(5), copy, 20)
        inside = [point_in_region(lat, lon, copy) for lat, lon in queries]
        assert any(inside) and not all(inside)
        # Ray casts alone build no clearance table.
        assert copy._prepared.segments is None
        first = [boundary_clearance_m(lat, lon, copy) for lat, lon in queries]
        table = copy._prepared.segments
        assert [boundary_clearance_m(lat, lon, copy) for lat, lon in queries] == first
        assert copy._prepared.segments is table
        segments = iter(_table_segments(copy))
        for a, b in edges:
            if haversine_m(*a, *b) <= _SEGMENT_SPLIT_M:
                assert next(segments) == (a, b)
                continue
            pieces = [next(segments)]
            while pieces[-1][1] != b:
                pieces.append(next(segments))
            assert len(pieces) >= 2
            assert all(haversine_m(*p, *q) <= _SEGMENT_SPLIT_M for p, q in pieces)
            assert pieces[0][0] == a and all(p[1] == q[0] for p, q in zip(pieces, pieces[1:]))
        assert next(segments, None) is None

    @pytest.mark.parametrize("over", [False, True], ids=["under", "over"])
    @pytest.mark.parametrize(
        "origin, direction",
        [((50.0, 10.0), (1.0, 0.0)), ((0.0, 10.0), (0.0, 1.0)), ((50.0, 10.0), (0.0, 1.0)),
         ((50.0, 10.0), (-1.0, 1.0)), ((89.85, -90.0), (0.0, 1.0)), ((-17.0, 179.9), (0.3, 1.0))],
        ids=["meridian", "equator", "parallel", "diagonal", "near-pole", "antimeridian"],
    )
    def test_split_screen_changes_no_segment(self, origin, direction, over):
        # Edges just under and just over _SEGMENT_SPLIT_M, the first edge of
        # a triangle whose third vertex sits off the first edge's middle.
        scale = _threshold_scale(origin, direction, over)
        end = _along(origin, direction, scale)
        assert (haversine_m(*origin, *end) > _SEGMENT_SPLIT_M) == over
        mlat, mlon = _along(origin, direction, scale / 2.0)
        third = (mlat - 0.001 * direction[1], mlon + 0.001 * direction[0])
        region = Region(region_id="E", name="E", polygons=(PolygonGeom(outer=(origin, end, third, origin)),))
        boundary_clearance_m(*third, region)
        assert _table_segments(region) == reference_segments(region)
        assert (len(reference_segments(region)) > 3) == over

    def test_point_beside_one_piece_evaluates_no_far_piece(self, monkeypatch):
        # 2 km west of the middle of the rectangle's 56 km west side, whose
        # four 14 km pieces lie 0 to 21 km from the point's latitude.
        region = square_region("R", 48.0, 10.0, 0.5, 0.5)
        lat = 48.0 + 0.5 * 3 / 8
        lon = 10.0 - lon_offset_deg(2_000.0, lat)
        calls = []
        piece_distance_m = geo._piece_distance_m

        def counted(*args):
            calls.append(args[4:])
            return piece_distance_m(*args)

        monkeypatch.setattr(geo, "_piece_distance_m", counted)
        clearance = boundary_clearance_m(lat, lon, region)
        assert clearance == exhaustive_clearance_m(lat, lon, region)
        assert 1_990.0 < clearance < 2_010.0
        assert len(calls) == 1
        alat, alon, blat, blon = calls[0]
        assert alon == blon == 10.0 and min(alat, blat) < lat < max(alat, blat)


class TestRegionValidation:
    def test_unclosed_ring_rejected(self):
        with pytest.raises(GeometryError, match="unclosed"):
            Region(
                region_id="X", name="X",
                polygons=(PolygonGeom(outer=((50.0, 10.0), (50.0, 10.2), (50.2, 10.2), (50.2, 10.0))),),
            )

    @pytest.mark.parametrize("vertex", [(float("nan"), 10.2), (50.2, float("inf")), (90.5, 10.2), (50.2, 180.5)])
    def test_unusable_vertex_rejected(self, vertex):
        ring = ((50.0, 10.0), (50.0, 10.2), vertex, (50.2, 10.0), (50.0, 10.0))
        with pytest.raises(GeometryError, match="outside WGS84 bounds"):
            Region(region_id="X", name="X", polygons=(PolygonGeom(outer=ring),))

    def test_too_few_vertices_rejected(self):
        with pytest.raises(GeometryError, match="fewer than 4"):
            Region(
                region_id="X", name="X",
                polygons=(PolygonGeom(outer=((50.0, 10.0), (50.2, 10.2), (50.0, 10.0))),),
            )


@functools.cache
def gridded_fixture(name: str) -> Region:
    """A copy of a kernel fixture region with its cell grid built."""
    region = kernel_fixture_regions()[name]
    copy = Region(region_id=region.region_id, name=region.name, polygons=region.polygons)
    geo._cell_grid(copy, geo._prepare(copy))
    return copy


def _cell_of(region: Region, lat: float, lon: float) -> int:
    """The tag of the grid cell that buffer_clearance_m looks up for a point in the box."""
    prep = region._prepared
    return prep.cells[int((lat - prep.lat0) * prep.row_scale) * prep.stride + int((lon - prep.lon0) * prep.col_scale)]


@st.composite
def grid_queries(draw):
    """A fixture region with its grid, and a point on a cell corner or side,
    on a ring vertex, on an edge midpoint or at random in and around the
    box, moved by up to two ulps in each coordinate."""
    name = draw(st.sampled_from(sorted(kernel_fixture_regions())))
    region = gridded_fixture(name)
    prep = region._prepared
    side = prep.stride - 1
    edges = [(a, b) for poly in region.polygons for ring in poly.rings() for a, b in zip(ring, ring[1:])]
    kind = draw(st.sampled_from(["corner", "row side", "column side", "vertex", "midpoint", "random"]))
    row = st.integers(-1, side + 2) if kind in ("corner", "row side") else st.floats(-1.0, side + 2.0)
    column = st.integers(-1, side + 2) if kind in ("corner", "column side") else st.floats(-1.0, side + 2.0)
    lat = prep.lat0 + draw(row) / prep.row_scale
    lon = prep.lon0 + draw(column) / prep.col_scale
    if kind == "vertex":
        lat, lon = draw(st.sampled_from(edges))[0]
    elif kind == "midpoint":
        (alat, alon), (blat, blon) = draw(st.sampled_from(edges))
        lat, lon = (alat + blat) / 2.0, (alon + blon) / 2.0
    for _ in range(draw(st.integers(0, 2))):
        lat = math.nextafter(lat, draw(st.sampled_from([-math.inf, math.inf])))
    for _ in range(draw(st.integers(0, 2))):
        lon = math.nextafter(lon, draw(st.sampled_from([-math.inf, math.inf])))
    return region, min(90.0, max(-90.0, lat)), min(180.0, max(-180.0, lon))


class TestCellGrid:
    """buffer_clearance_m answers a point in a pure cell from the region's
    cell grid; the answer must be the ray cast's."""

    @settings(max_examples=600, deadline=None)
    @given(query=grid_queries())
    def test_grid_answers_as_the_ray_cast(self, query):
        region, lat, lon = query
        # With no buffer, the verdict is None exactly for an inside point.
        assert (buffer_clearance_m(lat, lon, region, 0.0) is None) == point_in_region(lat, lon, region), (lat, lon)

    @pytest.mark.parametrize("name", sorted(kernel_fixture_regions()))
    def test_pure_cells_hold_the_ray_cast_at_their_corners(self, name):
        # Every corner of every pure cell, and the points one ulp inside it.
        region = gridded_fixture(name)
        prep = region._prepared
        tags = {geo._MIXED: 0, geo._INSIDE: 0, geo._OUTSIDE: 0}
        for r in range(prep.stride):
            for c in range(prep.stride):
                tag = prep.cells[r * prep.stride + c]
                tags[tag] += 1
                if tag == geo._MIXED:
                    continue
                for lat in (prep.lat0 + r / prep.row_scale, prep.lat0 + (r + 1) / prep.row_scale):
                    for lon in (prep.lon0 + c / prep.col_scale, prep.lon0 + (c + 1) / prep.col_scale):
                        for qlat in (lat, math.nextafter(lat, -math.inf), math.nextafter(lat, math.inf)):
                            for qlon in (lon, math.nextafter(lon, -math.inf), math.nextafter(lon, math.inf)):
                                if (prep.lat0 <= qlat <= prep.lat1 and prep.lon0 <= qlon <= prep.lon1
                                        and _cell_of(region, qlat, qlon) == tag):
                                    assert (tag == geo._INSIDE) == point_in_region(qlat, qlon, region), (qlat, qlon)
        assert tags[geo._INSIDE] > 0, tags
        # The rectangles fill their boxes; the margin marks the cells along their edges mixed.
        assert (tags[geo._OUTSIDE] > 0) == (name not in ("rectangle", "repeated-vertex")), tags

    def test_fixtures_have_the_intended_grids(self):
        sides = {name: gridded_fixture(name)._prepared.stride - 1 for name in kernel_fixture_regions()}
        assert sides["rectangle"] == geo._GRID_MIN_SIDE
        assert geo._GRID_MIN_SIDE < sides["jagged"] < sides["jagged-large"] < geo._GRID_MAX_SIDE
        assert all(geo._GRID_MIN_SIDE <= side <= geo._GRID_MAX_SIDE for side in sides.values())

    @pytest.mark.parametrize("name", ["rectangle", "jagged", "multipart"])
    def test_grid_is_built_on_the_query_that_reaches_the_edge_count(self, name):
        region = kernel_fixture_regions()[name]
        copy = Region(region_id=region.region_id, name=region.name, polygons=region.polygons)
        edges = _edge_count(copy)
        lat, lon = _kernel_queries(random.Random(name), copy, 1)[0]
        for _ in range(edges - 1):
            buffer_clearance_m(lat, lon, copy, 1500.0)
        assert copy._prepared.cells is None
        buffer_clearance_m(lat, lon, copy, 1500.0)
        assert copy._prepared.cells is not None

    def test_other_calls_count_no_ray_cast_toward_the_grid(self):
        region = kernel_fixture_regions()["rectangle"]
        copy = Region(region_id=region.region_id, name=region.name, polygons=region.polygons)
        for _ in range(10):
            point_in_region(48.25, 10.25, copy)
            contains_with_buffer(48.25, 10.25, copy, 0.0)
            boundary_clearance_m(48.25, 10.25, copy)
        assert copy._prepared.cells is None

    def test_pure_cell_takes_no_ray_cast(self, monkeypatch):
        region = gridded_fixture("rectangle")
        calls = []
        monkeypatch.setattr(geo, "point_in_region", lambda *args: calls.append(args) or True)
        assert buffer_clearance_m(48.25, 10.25, region, 1500.0) is None  # the centre: a pure inside cell
        assert calls == []
        assert buffer_clearance_m(48.0, 10.25, region, 1500.0) is None  # on the southern edge: mixed
        assert len(calls) == 1


def _outside_queries(region: Region, count: int) -> list[tuple[float, float]]:
    """Points outside the region, up to 3 km from its vertices."""
    return [(lat, lon) for lat, lon in _kernel_queries(random.Random(region.region_id), region, count)
            if not point_in_region(lat, lon, region) and boundary_clearance_m(lat, lon, region) < 3_000.0]


class TestThresholdClearance:
    """A search that may stop at the first segment within buffer_m gives
    the full search's verdict, and a failing point its distance bit for bit."""

    @pytest.mark.parametrize("name", ["rectangle", "long-edges", "jagged", "holed"])
    def test_verdict_at_the_buffer_and_one_ulp_either_side(self, name):
        region = kernel_fixture_regions()[name]
        queries = _outside_queries(region, 40)
        assert len(queries) >= 10
        for lat, lon in queries:
            clearance = boundary_clearance_m(lat, lon, region)
            for buffer_m in (math.nextafter(clearance, -math.inf), clearance, math.nextafter(clearance, math.inf)):
                verdict = buffer_clearance_m(lat, lon, region, buffer_m)
                if clearance <= buffer_m:
                    assert verdict is None, (lat, lon, buffer_m)
                else:
                    assert verdict.hex() == clearance.hex(), (lat, lon, buffer_m)
                stopped = boundary_clearance_m(lat, lon, region, buffer_m)
                assert (stopped <= buffer_m) == (clearance <= buffer_m)
                assert stopped >= clearance
                if clearance > buffer_m:
                    assert stopped.hex() == clearance.hex()

    def test_point_within_the_buffer_evaluates_fewer_segments(self, monkeypatch):
        region = kernel_fixture_regions()["jagged"]
        queries = _outside_queries(region, 60)
        calls = 0
        piece_distance_m = geo._piece_distance_m

        def counted(*args):
            nonlocal calls
            calls += 1
            return piece_distance_m(*args)

        monkeypatch.setattr(geo, "_piece_distance_m", counted)
        full = stopped = 0
        for lat, lon in queries:
            calls = 0
            clearance = boundary_clearance_m(lat, lon, region)
            full += calls
            calls = 0
            boundary_clearance_m(lat, lon, region, clearance + 100.0)
            stopped += calls
            assert calls >= 1
        assert stopped < full
