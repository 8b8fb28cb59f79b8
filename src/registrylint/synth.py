"""Seeded synthetic registry tables with labeled error injection.

Clean generation draws every field from ranges that pass the whole test
catalog by construction, with coordinates sampled strictly inside the
registered municipality (margin above the location-test buffer). The
injector then plants errors from a fixed taxonomy and records, per
mutated unit, the minimal set of tests that must flag it: the answer key
for recall/precision checks of the validator. Expected test ids are
derived with plain threshold arithmetic here, independent of the rule
implementations, so the ground truth stays an independent oracle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from datetime import date

from .geo import (
    EARTH_RADIUS_M,
    BoundarySet,
    PolygonGeom,
    Region,
    boundary_clearance_m,
    point_in_region,
)
from .model import POWER_FIELD, Technology, UnitRecord
from .rules import Boundaries, ConfigError, RuleConfig

SNAPSHOT_DATE = date(2024, 6, 1)

_TECH_DIGIT = {tech: str(i) for i, tech in enumerate(Technology)}

_MANUFACTURERS = ("Nordfeld Energietechnik", "Windwerk GmbH", "Turbinenbau Nord")


class SynthError(ConfigError):
    """Raised for unsatisfiable generation or injection requests."""


def make_boundary_grid(
    districts_x: int = 3,
    districts_y: int = 3,
    *,
    munis_per_side: int = 2,
    district_size_deg: float = 0.5,
) -> Boundaries:
    """Rectangular district grid, each district split into municipalities.

    Region keys follow the production nesting: 8-digit municipality keys
    whose first five digits are the district key.
    """
    lat0, lon0 = 48.0, 10.0  # south-west corner
    districts: dict[str, Region] = {}
    municipalities: dict[str, Region] = {}
    step = district_size_deg
    mstep = step / munis_per_side
    for dy in range(districts_y):
        for dx in range(districts_x):
            d_index = dy * districts_x + dx
            d_id = f"{10001 + d_index:05d}"
            dlat = lat0 + dy * step
            dlon = lon0 + dx * step
            districts[d_id] = Region(
                region_id=d_id,
                name=f"District {d_index}",
                polygons=(PolygonGeom(outer=_rect_ring(dlat, dlon, step, step)),),
            )
            for my in range(munis_per_side):
                for mx in range(munis_per_side):
                    m_index = my * munis_per_side + mx
                    m_id = f"{d_id}{m_index:03d}"
                    municipalities[m_id] = Region(
                        region_id=m_id,
                        name=f"Municipality {d_index}.{m_index}",
                        polygons=(
                            PolygonGeom(outer=_rect_ring(dlat + my * mstep, dlon + mx * mstep, mstep, mstep)),
                        ),
                    )
    return Boundaries(
        districts=BoundarySet(level="district", regions=districts),
        municipalities=BoundarySet(level="municipality", regions=municipalities),
    )


def _rect_ring(lat: float, lon: float, dlat: float, dlon: float):
    return (
        (lat, lon),
        (lat, lon + dlon),
        (lat + dlat, lon + dlon),
        (lat + dlat, lon),
        (lat, lon),
    )


def _sample_point_inside(
    rng: random.Random, region: Region, bbox: tuple[float, float, float, float], margin_m: float
) -> tuple[float, float]:
    """A point inside the region at least margin_m from its boundary,
    drawn uniformly from bbox, the region's bbox()."""
    minlat, minlon, maxlat, maxlon = bbox
    for _ in range(500):
        lat = rng.uniform(minlat, maxlat)
        lon = rng.uniform(minlon, maxlon)
        if not point_in_region(lat, lon, region):
            continue
        # The search may stop at the first segment closer than margin_m: its
        # distance fails the test as the exact clearance would.
        if boundary_clearance_m(lat, lon, region, math.nextafter(margin_m, -math.inf)) >= margin_m:
            return (lat, lon)
    raise SynthError(f"cannot place a point inside region {region.region_id!r} with margin {margin_m} m")


def _zip_for(municipality_id: str) -> str:
    return f"{10000 + int(municipality_id) % 89999:05d}"


def generate_clean(
    technology: Technology,
    n: int,
    seed: int,
    boundaries: Boundaries,
    *,
    margin_m: float = 2500.0,
) -> list[UnitRecord]:
    """n records of one technology that pass every test, deterministic per seed."""
    if n < 0:
        raise SynthError("record count must be >= 0")
    if boundaries.municipalities is None or boundaries.districts is None:
        raise SynthError("boundaries with both levels are required for generation")
    rng = random.Random(f"{seed}:{technology.value}")
    muni_ids = sorted(boundaries.municipalities.regions)
    bboxes: dict[str, tuple[float, float, float, float]] = {}
    records = []
    for i in range(n):
        muni_id = rng.choice(muni_ids)
        muni = boundaries.municipalities.regions[muni_id]
        district_id = muni_id[:5]
        district = boundaries.districts.regions[district_id]
        bbox = bboxes.get(muni_id)
        if bbox is None:
            bbox = bboxes[muni_id] = muni.bbox()
        coordinate = _sample_point_inside(rng, muni, bbox, margin_m)
        year = rng.randint(1995 if technology in _YOUNG_TECHS else 1950, 2023)
        common = {
            "technology": technology,
            "unit_id": f"SEE9{_TECH_DIGIT[technology]}{i:010d}",
            "owner_id": f"ABR{rng.randrange(10**12):012d}",
            "operating_status": "In Betrieb",
            "grid_operator_inspection": rng.random() < 0.7,
            "installation_year": year,
            "commissioning_date": date(year, rng.randint(1, 12), rng.randint(1, 28)),
            "download_date": SNAPSHOT_DATE,
            "zip_code": _zip_for(muni_id),
            "municipality": muni.name,
            "municipality_id": muni_id,
            "district": district.name,
            "district_id": district_id,
            "coordinate": coordinate,
        }
        records.append(UnitRecord(**common, **_specific_fields(rng, technology)))
    return records


_YOUNG_TECHS = frozenset({Technology.SOLAR, Technology.STORAGE, Technology.WIND})


def _solar_power_trio(rng: random.Random, net_kw: float) -> dict:
    gross = net_kw * rng.uniform(1.0, 1.15)
    return {
        "power_net_kw": net_kw,
        "power_gross_kw": gross,
        "power_inverter_kw": net_kw * rng.uniform(1.0, 2.5),
        "number_of_modules": max(1, round(gross * 1000.0 / rng.uniform(250.0, 450.0))),
    }


def _specific_fields(rng: random.Random, technology: Technology) -> dict:
    if technology is Technology.SOLAR:
        kind = rng.random()
        if kind < 0.08:  # balcony systems
            net = rng.uniform(0.3, 0.8)
            out = _solar_power_trio(rng, net)
            out["unit_type"] = "Balkonkraftwerk"
            out["orientation"] = rng.choice(("Süd", "West", "Ost"))
            if rng.random() < 0.5:
                out["unit_name"] = f"Balkonkraftwerk {rng.randrange(1000)}"
            return out
        if kind < 0.25:  # ground-mounted parks
            net = rng.uniform(100.0, 5000.0)
            out = _solar_power_trio(rng, net)
            out["unit_type"] = "Freifläche"
            out["area_ha"] = out["power_gross_kw"] / 1000.0 / rng.uniform(0.3, 1.0)
            out["orientation"] = "Süd"
            return out
        net = rng.uniform(3.0, 30.0)  # rooftop
        out = _solar_power_trio(rng, net)
        out["unit_type"] = "Gebäude"
        out["orientation"] = rng.choice(("Süd", "West", "Ost"))
        if rng.random() < 0.3:
            out["orientation_secondary"] = "West"
        return out
    if technology is Technology.STORAGE:
        net = rng.uniform(5.0, 5000.0)
        return {
            "power_net_kw": net,
            "power_gross_kw": net * rng.uniform(1.0, 1.15),
            "power_inverter_kw": net * rng.uniform(1.0, 2.5),
            "storage_capacity_kwh": net * rng.uniform(1.0, 4.0),
            "battery_technology": "Lithium-Batterie",
        }
    if technology is Technology.WIND:
        diameter = rng.uniform(40.0, 120.0)
        specific_w_m2 = rng.uniform(200.0, 500.0)
        return {
            "power_kw": specific_w_m2 * math.pi * (diameter / 2.0) ** 2 / 1000.0,
            "rotor_diameter_m": diameter,
            "hub_height_m": diameter * rng.uniform(0.6, 1.2),
            "position": "Windkraft an Land",
            "manufacturer": rng.choice(_MANUFACTURERS),
            "type_description": f"T-{round(diameter)}",
        }
    if technology is Technology.BIOMASS:
        return {
            "power_kw": rng.uniform(50.0, 20_000.0),
            "combustion_technology": "Verbrennungsmotor",
            "fuel_type": "Gasförmige Biomasse",
        }
    if technology is Technology.COMBUSTION:
        return {"power_kw": rng.uniform(100.0, 800_000.0), "energy_carrier": "Erdgas"}
    return {  # hydro
        "power_kw": rng.uniform(10.0, 100_000.0),
        "plant_type": "Laufwasseranlage",
        "type_of_inflow": "Flusskraftwerk",
    }


@dataclass(frozen=True)
class ErrorInjectionSpec:
    """Per-class injection plan: how many units to plant each class in
    (pairs for duplicate_id). Displacement must exceed the location buffer
    so planted location errors stay detectable by construction."""

    rates: dict[str, int] = field(default_factory=dict)
    displacement_km: float = 5.0

    def __post_init__(self) -> None:
        for name, rate in self.rates.items():
            if name not in _CLASSES:
                raise SynthError(f"unknown error class {name!r}")
            if type(rate) is not int or rate < 0:  # a bool is no count
                raise SynthError(f"count for {name!r} must be an int >= 0, got {rate!r}")

    @classmethod
    def uniform(cls, error_rate: float, technology: Technology, table_size: int) -> ErrorInjectionSpec:
        """Spread a total error share evenly over the classes applicable to
        one technology (round-robin remainder, deterministic)."""
        classes = [name for name, (technologies, _) in _CLASSES.items() if technology in technologies]
        total = round(error_rate * table_size)
        base = total // len(classes)
        remainder = total % len(classes)
        rates: dict[str, int] = {}
        for i, name in enumerate(classes):
            count = base + (1 if i < remainder else 0)
            if name == "duplicate_id":
                count = count // 2  # one planted error consumes a pair
            if count:
                rates[name] = count
        return cls(rates=rates)


@dataclass
class GroundTruth:
    """Answer key: per mutated unit, the test ids that must flag it."""

    expected: dict[str, frozenset[int]]
    class_counts: dict[str, int]
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "class_counts": {k: self.class_counts[k] for k in sorted(self.class_counts)},
            "units": {uid: sorted(tests) for uid, tests in sorted(self.expected.items())},
        }


def _eligible(name: str, record: UnitRecord, config: RuleConfig) -> bool:
    if record.technology not in _CLASSES[name][0]:
        return False
    if name == "placeholder_modules":
        return (
            record.power_gross_kw is not None
            and record.power_gross_kw * 1000.0 > config.module_power_range_w[1]
            and (record.number_of_modules or 0) >= 2
        )
    if name == "balcony_overpower":
        return record.unit_type in ("Gebäude",) and record.power_net_kw is not None
    if name == "power_out_of_range":
        # Keep the expected set deterministic: skip balcony units whose
        # scaled net power would also trip the balcony test.
        if record.technology is Technology.SOLAR and record.unit_type == "Balkonkraftwerk":
            return False
        return True
    if name == "coordinate_displacement":
        return record.coordinate is not None and record.municipality_id is not None
    if name == "magnitude_mixup":
        if record.technology in (Technology.SOLAR, Technology.STORAGE):
            return record.power_inverter_kw is not None
        # Only units where a x1000 slip actually trips a bound: small
        # plants can absorb three magnitudes inside their power range.
        return record.power_kw is not None and bool(_power_tests(record, record.power_kw * 1000.0, config))
    if name == "hub_rotor_swap":
        return record.hub_height_m is not None and record.rotor_diameter_m is not None
    return True


def inject_errors(
    records: list[UnitRecord],
    spec: ErrorInjectionSpec,
    seed: int,
    *,
    boundaries: Boundaries | None = None,
    config: RuleConfig | None = None,
) -> tuple[list[UnitRecord], GroundTruth]:
    """Plant labeled errors into a clean table.

    Each unit receives at most one error class; the spec fails if it asks
    for more distinct targets than the table has. Returns the mutated
    table (original order) and the ground truth for the touched units.
    """
    config = config or RuleConfig()
    if spec.displacement_km * 1000.0 <= config.buffer_m:
        raise SynthError("displacement must exceed the location buffer")
    rng = random.Random(seed)
    out = list(records)
    expected: dict[str, frozenset[int]] = {}
    class_counts: dict[str, int] = {}
    available = list(range(len(out)))

    def take(name: str, count: int, needs: int = 1) -> list[int]:
        pool = [i for i in available if _eligible(name, out[i], config)]
        if count * needs > len(pool):
            raise SynthError(
                f"error class {name!r} wants {count * needs} targets, only {len(pool)} records eligible"
            )
        chosen = rng.sample(pool, count * needs)
        for i in chosen:
            available.remove(i)
        return chosen

    for name, (_, mutate) in _CLASSES.items():
        count = spec.rates.get(name, 0)
        if not count:
            continue
        if mutate is None:  # duplicate_id
            targets = take(name, count, needs=2)
            for a, b in zip(targets[0::2], targets[1::2]):
                out[b] = replace(out[b], unit_id=out[a].unit_id)
                expected[out[a].unit_id] = frozenset({2})
        else:
            for i in take(name, count):
                mutated, tests = mutate(out[i], rng, spec, config, boundaries)
                out[i] = mutated
                expected[mutated.unit_id] = frozenset(tests)
        class_counts[name] = count
    return out, GroundTruth(expected=expected, class_counts=class_counts, seed=seed)


# --- mutators -----------------------------------------------------------
# Each returns (mutated record, expected failing test ids). Thresholds are
# re-derived arithmetically so the ground truth does not depend on the
# rule implementations it is meant to verify.


def _power_tests(record: UnitRecord, power_kw: float, config: RuleConfig) -> set[int]:
    """The tests a rated power of power_kw trips on this record: 12 outside
    the technology's power range, 9 for a wind specific power outside its
    range. inject_errors takes a clean table, whose powers are positive and
    inside their range, so a x1000 power trips 12 only above the upper bound."""
    low_mw, high_mw = config.power_range_mw[record.technology]
    tests = set()
    if not low_mw * 1000.0 < power_kw <= high_mw * 1000.0:
        tests.add(12)
    if record.technology is Technology.WIND and record.rotor_diameter_m:
        specific_w_m2 = power_kw * 1000.0 / (math.pi * (record.rotor_diameter_m / 2.0) ** 2)
        low, high = config.rotor_specific_power_range_w_per_m2
        if not low <= specific_w_m2 <= high:
            tests.add(9)
    return tests


def _mut_magnitude_mixup(record, rng, spec, config, boundaries):
    if record.technology in (Technology.SOLAR, Technology.STORAGE):
        factor = rng.choice((1000.0, 0.001))
        inverter = record.power_inverter_kw * factor
        tests = set()
        gross = record.power_gross_kw
        if gross and inverter and max(gross / inverter, inverter / gross) >= config.inverter_ratio_factor:
            tests.add(7)
        if record.power_net_kw is not None and inverter < record.power_net_kw:
            tests.add(4)
        if not tests:
            raise SynthError("magnitude mixup produced no detectable error")
        return replace(record, power_inverter_kw=inverter), tests
    power = record.power_kw * 1000.0
    tests = _power_tests(record, power, config)
    if not tests:
        raise SynthError("magnitude mixup produced no detectable error")
    return replace(record, power_kw=power), tests


def _mut_placeholder_modules(record, rng, spec, config, boundaries):
    # Eligibility guarantees gross power above the per-module ceiling.
    return replace(record, number_of_modules=1), {6}


def _mut_coordinate_displacement(record, rng, spec, config, boundaries):
    if boundaries is None or boundaries.municipalities is None:
        raise SynthError("coordinate displacement needs boundary geometry")
    muni = boundaries.municipalities.regions.get(record.municipality_id)
    if muni is None:
        raise SynthError(f"record registered in unknown municipality {record.municipality_id!r}")
    district = None
    if boundaries.districts is not None and record.district_id is not None:
        district = boundaries.districts.regions.get(record.district_id)
    lat, lon = record.coordinate
    target_m = spec.displacement_km * 1000.0
    for _ in range(64):
        bearing = rng.uniform(0.0, 2.0 * math.pi)
        for multiplier in (1.0, 2.0, 4.0, 8.0, 16.0):
            step = target_m * multiplier
            nlat = lat + math.degrees(step * math.cos(bearing) / EARTH_RADIUS_M)
            nlon = lon + math.degrees(
                step * math.sin(bearing) / (EARTH_RADIUS_M * math.cos(math.radians(lat)))
            )
            if not (-89.0 <= nlat <= 89.0 and -179.0 <= nlon <= 179.0):
                continue
            if point_in_region(nlat, nlon, muni):
                continue
            if boundary_clearance_m(nlat, nlon, muni) < target_m:
                continue
            tests = {11}
            if district is not None:
                if (
                    not point_in_region(nlat, nlon, district)
                    and boundary_clearance_m(nlat, nlon, district) > config.buffer_m * 1.2
                ):
                    tests.add(10)
            return replace(record, coordinate=(nlat, nlon)), tests
    raise SynthError("could not displace coordinate outside the municipality")


def _mut_null_required_field(record, rng, spec, config, boundaries):
    choices = ["municipality_id", "operating_status", "power"]
    name = rng.choice(choices)
    if name == "power":
        name = POWER_FIELD[record.technology]
    return replace(record, **{name: None}), {1}


def _mut_implausible_year(record, rng, spec, config, boundaries):
    low = config.year_min[record.technology]
    year = rng.randint(low - 130, low - 1)
    return replace(record, installation_year=year), {13}


def _mut_balcony_overpower(record, rng, spec, config, boundaries):
    cap = config.balcony_limit_kw + config.balcony_tolerance_kw
    if rng.random() < 0.5:
        net = rng.uniform(cap * 1.2, config.balcony_name_limit_kw * 0.9)
        changes = _scaled_solar_powers(record, net)
        changes["unit_type"] = "Balkonkraftwerk"
    else:
        net = rng.uniform(config.balcony_name_limit_kw * 1.1, config.balcony_name_limit_kw * 2.0)
        changes = _scaled_solar_powers(record, net)
        changes["unit_name"] = f"Balkonkraftwerk {record.unit_id}"
    return replace(record, **changes), {15}


def _scaled_solar_powers(record, net_kw: float) -> dict:
    # Scale the whole power trio so ordering and ratio tests stay clean,
    # and keep the module count consistent with the new gross power.
    factor = net_kw / record.power_net_kw
    gross = record.power_gross_kw * factor
    return {
        "power_net_kw": net_kw,
        "power_gross_kw": gross,
        "power_inverter_kw": record.power_inverter_kw * factor,
        "number_of_modules": max(1, round(gross * 1000.0 / 350.0)),
    }


def _mut_hub_rotor_swap(record, rng, spec, config, boundaries):
    radius = record.rotor_diameter_m / 2.0
    return replace(record, hub_height_m=radius * rng.uniform(0.25, 0.85)), {14}


def _mut_power_out_of_range(record, rng, spec, config, boundaries):
    power = config.power_range_mw[record.technology][1] * 1000.0 * rng.uniform(1.5, 8.0)
    if record.technology in (Technology.SOLAR, Technology.STORAGE):
        # Raising net power alone also breaks both ordering tests.
        return replace(record, power_net_kw=power), {3, 4, 12}
    return replace(record, power_kw=power), _power_tests(record, power, config)


def _mut_zip_malformed(record, rng, spec, config, boundaries):
    bad = rng.choice(("1729", "123456", "ABCDE", "1 234"))
    return replace(record, zip_code=bad), {5}


# Every error class once: the technologies it applies to and its mutator.
# The order is the planting order, which fixes the random stream.
# duplicate_id has no mutator: inject_errors plants it on pairs.
_ALL = tuple(Technology)
_CLASSES = {
    "magnitude_mixup": (_ALL, _mut_magnitude_mixup),
    "placeholder_modules": ((Technology.SOLAR,), _mut_placeholder_modules),
    "coordinate_displacement": (_ALL, _mut_coordinate_displacement),
    "null_required_field": (_ALL, _mut_null_required_field),
    "duplicate_id": (_ALL, None),
    "implausible_year": (_ALL, _mut_implausible_year),
    "balcony_overpower": ((Technology.SOLAR,), _mut_balcony_overpower),
    "hub_rotor_swap": ((Technology.WIND,), _mut_hub_rotor_swap),
    "power_out_of_range": (_ALL, _mut_power_out_of_range),
    "zip_malformed": (_ALL, _mut_zip_malformed),
}
ERROR_CLASSES = tuple(_CLASSES)
