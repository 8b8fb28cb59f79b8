"""The data-test catalog and suite runner.

Fifteen per-unit tests cover nulls, id uniqueness and formats, power
ordering and plausibility, system-size consistency (modules, inverter,
area, rotor), buffered location containment, installation years, hub
height and balcony-class capacity. Each test applies only to the
technologies whose records carry every field it reads; the full grid
spans 15 x 6 = 90 test instances, of which 53 check-marked cells run.

Each test's row (id, fields read, unit, and the name of the function
here that compiles its check) lives in catalog.CATALOG, the only
definition of the tests and of the fields they read. The suite loop,
the matrix and the fields a run's column mapping must give all follow
from it. A compiler gets the getter of the columns its row reads, so a
check reads exactly the columns its row names (test 1 names none and
reads the configured required fields). Checks run a block at a time: a
block holds rows of one technology as columns, one per record field,
and a check is a pure function of a block that gives one result per
row. run_blocks takes the reader's blocks as they come, and run_suite
groups records into blocks. Uniqueness is the one suite-level test.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from itertools import compress, groupby, islice, repeat
from operator import attrgetter, is_, itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence, get_args, get_origin

from .catalog import (
    CATALOG,
    CHECKMARKS,
    UNIQUE_IDS,
    CatalogTest,
    ConfigError,
    field_of,
)
from .geo import BoundarySet, buffer_clearance_m
from .model import (
    BLOCK_ROWS,
    FIELD_POS,
    POWER_FIELD,
    RECORD_FIELDS,
    FailureRecord,
    FailureSet,
    RuleOutcome,
    Technology,
    columns_for,
)

if TYPE_CHECKING:
    from .model import UnitRecord

_TECHNOLOGY = FIELD_POS["technology"]


def _default_power_range_mw() -> dict[Technology, tuple[float, float]]:
    return {
        Technology.BIOMASS: (0.0, 150.0),
        Technology.COMBUSTION: (0.0, 2000.0),
        Technology.HYDRO: (0.0, 1500.0),
        Technology.SOLAR: (0.0, 500.0),
        Technology.STORAGE: (0.0, 800.0),
        Technology.WIND: (0.0, 22.0),
    }


def _default_year_min() -> dict[Technology, int]:
    # Wind, solar and batteries are young technologies; the older classes
    # accept earlier installation years.
    return {
        Technology.BIOMASS: 1900,
        Technology.COMBUSTION: 1900,
        Technology.HYDRO: 1900,
        Technology.SOLAR: 1980,
        Technology.STORAGE: 1980,
        Technology.WIND: 1980,
    }


class RuleConfig:
    """Thresholds and patterns for the test catalog.

    FIELDS lists each field as (name, type, default). Defaults are the
    published reference values; a dict field's default is the function
    that makes it, so each config gets its own dict. Every field can be
    given as a keyword argument, and overridden from the run
    configuration file. Construction checks each value against its
    field's type (a float must be finite, a tuple has the annotated
    arity) and the invariants below, raising ConfigError. A config
    refuses assignment after construction.
    """

    FIELDS: tuple[tuple[str, object, object], ...] = (
        ("required_fields", tuple[str, ...], ("unit_id", "municipality_id", "operating_status", "power")),
        ("unit_id_pattern", str, r"[A-Z]{3}\d{12}"),
        ("municipality_id_pattern", str, r"\d{8}"),
        ("zip_pattern", str, r"\d{5}"),
        ("module_power_range_w", tuple[float, float], (50.0, 700.0)),
        ("inverter_ratio_factor", float, 20.0),
        ("area_density_range_mw_per_ha", tuple[float, float], (0.05, 1.5)),
        ("rotor_specific_power_range_w_per_m2", tuple[float, float], (160.0, 700.0)),
        ("buffer_m", float, 1500.0),
        ("power_range_mw", dict[Technology, tuple[float, float]], _default_power_range_mw),
        ("year_min", dict[Technology, int], _default_year_min),
        ("year_max", int, 2030),
        ("balcony_limit_kw", float, 1.0),
        ("balcony_tolerance_kw", float, 0.2),
        ("balcony_name_limit_kw", float, 5.0),
        ("balcony_keywords", tuple[str, ...], ("balkon", "balcony")),
        ("balcony_unit_types", tuple[str, ...], ("Balkonkraftwerk",)),
        ("ground_unit_types", tuple[str, ...], ("Freifläche",)),
    )
    __slots__ = tuple(name for name, _, _ in FIELDS)

    def __init__(self, **values) -> None:
        unknown = [name for name in values if name not in self.__slots__]
        if unknown:
            raise TypeError(f"RuleConfig.__init__() got an unexpected keyword argument {unknown[0]!r}")
        for name, hint, default in self.FIELDS:
            value = values[name] if name in values else default() if get_origin(hint) is dict else default
            object.__setattr__(self, name, value)
            named = [(name, value)]
            if get_origin(hint) is dict:
                if not isinstance(value, dict) or set(value) != set(Technology):
                    raise ConfigError(f"{name} must give a value for every technology")
                hint = get_args(hint)[1]
                named = [(f"{name}[{tech.value}]", item) for tech, item in value.items()]
            for label, item in named:
                if not _conforms(item, hint):
                    type_name = hint.__name__ if isinstance(hint, type) else str(hint)
                    raise ConfigError(f"{label} must be of type {type_name}, got {item!r}")
                if hint == tuple[float, float] and not item[0] < item[1]:
                    raise ConfigError(f"{label}: lower bound must be below upper bound")
        for name in self.required_fields:
            if any(field_of(name, tech) not in columns_for(tech) for tech in Technology):
                raise ConfigError(f"required_fields: {name!r} is not a field that every technology carries")
        for name in ("unit_id_pattern", "municipality_id_pattern", "zip_pattern"):
            try:
                re.compile(getattr(self, name), re.ASCII)
            except (re.error, ValueError) as exc:  # ValueError: a (?u) flag
                raise ConfigError(f"{name} is not a valid regular expression: {exc}") from None
        for tech, year in self.year_min.items():
            if year >= self.year_max:
                raise ConfigError(f"year_min[{tech.value}] must be below year_max")
        if self.inverter_ratio_factor <= 1:
            raise ConfigError("inverter_ratio_factor must be > 1")
        if self.buffer_m < 0:
            raise ConfigError("buffer_m must be >= 0")
        if self.balcony_tolerance_kw < 0:
            raise ConfigError("balcony_tolerance_kw must be >= 0")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def from_dict(cls, payload: dict) -> RuleConfig:
        """A config from the `rules` object of a run configuration file:
        arrays become tuples, and per-technology objects override the
        defaults of the technologies they name."""
        kwargs: dict = {}
        for key, value in payload.items():
            if key not in cls.__slots__:
                raise ConfigError(f"unknown rule config key {key!r}")
            if key in ("power_range_mw", "year_min"):
                if not isinstance(value, dict):
                    raise ConfigError(f"{key} must be an object keyed by technology")
                base = _default_power_range_mw() if key == "power_range_mw" else _default_year_min()
                for tech_name, bound in value.items():
                    try:
                        base[Technology(tech_name)] = tuple(bound) if isinstance(bound, list) else bound
                    except ValueError:
                        raise ConfigError(f"{key}: unknown technology {tech_name!r}") from None
                value = base
            elif isinstance(value, list):
                value = tuple(value)
            kwargs[key] = value
        return cls(**kwargs)


def _conforms(value, hint) -> bool:
    """Whether a config value has the type `hint`; floats must be finite."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:
        if not isinstance(value, tuple):
            return False
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(_conforms, value, args))
    if isinstance(value, bool):  # an int subclass, but JSON true is no number
        return False
    if hint is float:
        try:
            return isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            return False
    return isinstance(value, hint)


class Boundaries(NamedTuple):
    districts: BoundarySet | None = None
    municipalities: BoundarySet | None = None


# A compiled check takes a block (one column per field, in RECORD_FIELDS
# order, of rows of one technology) and gives one result per row: None for
# a pass, the failing RuleOutcome otherwise.
Check = Callable[[Sequence[Sequence]], list]


def _columns(*names: str) -> Callable[[Sequence[Sequence]], tuple | Sequence]:
    """A block's columns of the named fields: a tuple of two or more, or
    the bare column of one."""
    return itemgetter(*(FIELD_POS[name] for name in names))


def _required_fields(config, tech, boundaries, fail, columns):
    """Test 1: required fields must not be null ("power" is the rated power)."""
    names = config.required_fields
    positions = [FIELD_POS[field_of(name, tech)] for name in names]

    def check(block):
        rows = zip(*[block[pos] for pos in positions]) if positions else repeat((), len(block[_TECHNOLOGY]))
        return [
            None
            if None not in values
            else fail("null required fields: " + ", ".join(compress(names, map(is_, values, repeat(None)))))
            for values in rows
        ]

    return check


def _at_least_net(word: str):
    """Tests 3 and 4: the power the row reads first, named word in the
    detail, must be at least net power."""

    def compile_at_least_net(config, tech, boundaries, fail, columns):
        def check(block):
            return [
                fail(f"{word} power {power} kW below net power {net} kW", net - power)
                if power is not None and net is not None and power < net
                else None
                for power, net in zip(*columns(block))
            ]

        return check

    return compile_at_least_net


_gross_vs_net = _at_least_net("gross")
_inverter_vs_net = _at_least_net("inverter")


def _id_formats(config, tech, boundaries, fail, columns):
    """Test 5: unit id, municipality id and zip code match their patterns;
    \\d and \\w match ASCII characters only."""
    unit_id_ok = re.compile(config.unit_id_pattern, re.ASCII).fullmatch
    municipality_id_ok = re.compile(config.municipality_id_pattern, re.ASCII).fullmatch
    zip_ok = re.compile(config.zip_pattern, re.ASCII).fullmatch

    def bad(*values):
        named = zip(("unit_id", "municipality_id", "zip_code"), values, (unit_id_ok, municipality_id_ok, zip_ok))
        return ", ".join(name for name, value, ok in named if value is not None and ok(value) is None)

    # Municipality ids and zip codes repeat within a block: each distinct one is matched once.
    def check(block):
        uids, mids, codes = columns(block)
        bad_mids = {mid for mid in set(mids) if mid is not None and municipality_id_ok(mid) is None}
        bad_codes = {code for code in set(codes) if code is not None and zip_ok(code) is None}
        return [
            None
            if (uid is None or unit_id_ok(uid)) and mid not in bad_mids and code not in bad_codes
            else fail("fields not matching pattern: " + bad(uid, mid, code))
            for uid, mid, code in zip(uids, mids, codes)
        ]

    return check


def _module_power(config, tech, boundaries, fail, columns):
    """Test 6: gross power per module within the accepted range."""
    low, high = config.module_power_range_w

    # Each row's value is named by := in the condition, which is evaluated first.
    def check(block):
        return [
            None
            if gross is None or modules is None
            else fail("zero modules")
            if modules == 0
            else None
            if low <= (per_module_w := gross * 1000.0 / modules) <= high
            else fail(f"{per_module_w:.1f} W per module outside [{low:g}, {high:g}] W", per_module_w)
            for gross, modules in zip(*columns(block))
        ]

    return check


def _inverter_ratio(config, tech, boundaries, fail, columns):
    """Test 7: gross and inverter power may not differ by the mixup factor.

    Symmetric: the larger of the two ratios is compared, so the verdict
    does not depend on which of the fields carries the error.
    """
    factor = config.inverter_ratio_factor

    def check(block):
        return [
            None
            if gross is None or inverter is None
            else fail("zero power")
            if gross == 0 or inverter == 0
            else fail(f"gross/inverter power differ by factor {ratio:.1f}", ratio)
            if (ratio := max(gross / inverter, inverter / gross)) >= factor
            else None
            for gross, inverter in zip(*columns(block))
        ]

    return check


def _area_density(config, tech, boundaries, fail, columns):
    """Test 8: power density of ground-mounted PV within the accepted range."""
    ground_types = config.ground_unit_types
    low, high = config.area_density_range_mw_per_ha

    def check(block):
        return [
            None
            if unit_type not in ground_types or gross is None or area is None
            else fail("non-positive area")
            if area <= 0
            else None
            if low <= (density := gross / 1000.0 / area) <= high
            else fail(f"{density:.3f} MW/ha outside [{low:g}, {high:g}] MW/ha", density)
            for unit_type, gross, area in zip(*columns(block))
        ]

    return check


def _swept_area_m2(diameter: float) -> float:
    """The area a rotor of this diameter sweeps."""
    try:
        return math.pi * (diameter / 2.0) ** 2
    except OverflowError:  # float ** raises where a product would give inf
        return math.inf


def _rotor_power(config, tech, boundaries, fail, columns):
    """Test 9: wind power per rotor swept area within the accepted range."""
    low, high = config.rotor_specific_power_range_w_per_m2

    def check(block):
        return [
            None
            if power is None or diameter is None
            else fail("non-positive rotor diameter")
            if diameter <= 0
            else fail("rotor swept area rounds to zero")
            if (swept := _swept_area_m2(diameter)) == 0.0
            else None
            if low <= (specific := power * 1000.0 / swept) <= high
            else fail(f"{specific:.1f} W/m2 outside [{low:g}, {high:g}] W/m2", specific)
            for power, diameter in zip(*columns(block))
        ]

    return check


def _location(level_name: str):
    """Tests 10 and 11: coordinates lie in the region of one level that the
    row's region key names, up to the configured buffer around its boundary.

    geo.buffer_clearance_m gives the verdict, and the boundary clearance
    of a failing point, which is the failure's measured distance.
    """

    def compile_location(config, tech, boundaries, fail, columns):
        level = getattr(boundaries, level_name)
        if level is None:
            return None
        region_of, buffer_m, name = level.regions.get, config.buffer_m, level.level

        def check(block):
            coordinates, region_ids = columns(block)
            return [
                None
                if coordinate is None or region_id is None
                else fail(f"unknown region key {region_id!r} ({name})")
                if region is None
                else None
                if (clearance := buffer_clearance_m(coordinate[0], coordinate[1], region, buffer_m)) is None
                else fail(f"coordinate {clearance:.0f} m outside registered {name} {region_id}", clearance)
                for coordinate, region_id, region in zip(coordinates, region_ids, map(region_of, region_ids))
            ]

        return check

    return compile_location


_district_location = _location("districts")
_municipality_location = _location("municipalities")


def _power_range(config, tech, boundaries, fail, columns):
    """Test 12: rated power within the technology's plausible range.

    Lower bound exclusive (power must be positive), upper bound inclusive.
    """
    low_mw, high_mw = config.power_range_mw[tech]
    low_kw, high_kw = low_mw * 1000.0, high_mw * 1000.0

    def check(block):
        return [
            None
            if power is None or low_kw < power <= high_kw
            else fail(f"power {power:g} kW outside ({low_mw:g} MW, {high_mw:g} MW]", power)
            for power in columns(block)
        ]

    return check


def _installation_year(config, tech, boundaries, fail, columns):
    """Test 13: installation year within the technology's accepted window."""
    low, high = config.year_min[tech], config.year_max

    def check(block):
        return [
            None
            if year is None or low <= year <= high
            else fail(f"installation year {year} outside [{low}, {high}]", float(year))
            for year in columns(block)
        ]

    return check


def _hub_height(config, tech, boundaries, fail, columns):
    """Test 14: hub height must not be below the rotor radius."""

    def check(block):
        return [
            None
            if hub is None or diameter is None
            else fail(f"hub height {hub:g} m below rotor radius {radius:g} m", hub)
            if hub < (radius := diameter / 2.0)
            else None
            for hub, diameter in zip(*columns(block))
        ]

    return check


def _balcony_power(config, tech, boundaries, fail, columns):
    """Test 15: balcony PV must stay small.

    Balcony-typed units: net power up to the legal limit plus tolerance.
    Units merely named like balcony installations get a looser cap; a
    keyword matches the name in any case.
    """
    cap = config.balcony_limit_kw + config.balcony_tolerance_kw
    name_cap = config.balcony_name_limit_kw
    unit_types, keywords = config.balcony_unit_types, tuple(k.lower() for k in config.balcony_keywords)

    def problems(net, unit_type, name):
        found = ()
        if net > cap and unit_type in unit_types:
            found += (f"balcony unit with net power {net:g} kW > {cap:g} kW",)
        if net > name_cap and name is not None and any(k in name.lower() for k in keywords):
            found += (f"balcony-named unit with net power {net:g} kW > {name_cap:g} kW",)
        return found

    def check(block):
        return [
            None
            if net is None or not (net > cap or net > name_cap) or not (found := problems(net, unit_type, name))
            else fail(" / ".join(found), net)
            for net, unit_type, name in zip(*columns(block))
        ]

    return check


def fields_read(config: RuleConfig, technology: Technology) -> frozenset[str]:
    """Every record field the run reads from a technology's records: the
    reads of the tests that apply to it and the required fields."""
    names = [name for test in CATALOG if technology in CHECKMARKS[test.test_id] for name in test.reads]
    return frozenset(field_of(name, technology) for name in (*names, *config.required_fields))


def _duplicate_id(count: int) -> RuleOutcome:
    """Test 2's failure for each of `count` records sharing a unit id."""
    return UNIQUE_IDS.fail(f"duplicate unit id ({count} records)", float(count))


def _compile(
    config: RuleConfig, boundaries: Boundaries
) -> tuple[dict[Technology, tuple[tuple[CatalogTest, Check], ...]], tuple[int, ...]]:
    """Per technology, the (test, check) pairs its records run, honoring the
    check-mark matrix; and the ids of the tests evaluated on these inputs."""
    checks: dict[Technology, tuple[tuple[CatalogTest, Check], ...]] = {}
    evaluated = {test.test_id for test in CATALOG if test.compile is None}
    for tech in Technology:
        pairs = []
        for test in CATALOG:
            if test.compile is not None and tech in CHECKMARKS[test.test_id]:
                columns = _columns(*(field_of(name, tech) for name in test.reads)) if test.reads else None
                check = test.compile(config, tech, boundaries, test.fail, columns)
                if check is not None:
                    pairs.append((test, check))
                    evaluated.add(test.test_id)
        checks[tech] = tuple(pairs)
    return checks, tuple(sorted(evaluated))


# Per technology, a row's key fields in FailureRecord's order: unit id,
# technology, rated power, district and municipality ids, DSO flag.
_KEY_FIELDS = {
    tech: ("unit_id", "technology", POWER_FIELD[tech], "district_id", "municipality_id", "grid_operator_inspection")
    for tech in Technology
}


def run_suite(
    records: Iterable[UnitRecord],
    boundaries: Boundaries | tuple | None = None,
    config: RuleConfig | None = None,
    *,
    jobs: int = 1,
) -> FailureSet:
    """Apply the full catalog to a record stream: run_blocks over blocks
    of up to BLOCK_ROWS consecutive records of one technology, holding the
    fields that the checks and the suite read.

    jobs (>= 1) is kept for callers that pass it: the suite runs in the
    calling process, so the result does not depend on it.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    config = config or RuleConfig()
    read = {tech: tuple(fields_read(config, tech).union(_KEY_FIELDS[tech])) for tech in Technology}

    def blocks():
        for tech, group in groupby(records, attrgetter("technology")):
            while chunk := list(islice(group, BLOCK_ROWS)):
                block = [[None] * len(chunk)] * len(RECORD_FIELDS)
                for name in read[tech]:
                    block[FIELD_POS[name]] = list(map(attrgetter(name), chunk))
                yield len(chunk), block

    return run_blocks(blocks(), boundaries, config)


def run_blocks(
    blocks: Iterable[tuple[int, Sequence[Sequence]]],
    boundaries: Boundaries | tuple | None = None,
    config: RuleConfig | None = None,
) -> FailureSet:
    """Apply the full catalog to a stream of (row count, columns) blocks,
    as RegistryReader.blocks gives them: rows of one technology, one
    column per field in RECORD_FIELDS order.

    Emits one FailureRecord per unit failing at least one test, sorted by
    unit id (the row's place in the stream breaks ties), with all failed
    tests listed. Location tests run only when boundary sets are supplied.
    Output is deterministic for identical input and configuration. Memory
    holds one block, six lists of every row's key fields (unit id,
    technology, rated power, district and municipality ids, DSO flag),
    and the failures; test 2 counts the unit ids once, after the stream.
    """
    compiled, evaluated = _compile(config or RuleConfig(), Boundaries(*(boundaries or ())))
    # Per technology: its checks and the columns of its key fields.
    plans = {
        tech: (tuple(check for _, check in pairs), _columns(*_KEY_FIELDS[tech])) for tech, pairs in compiled.items()
    }
    totals: Counter[Technology] = Counter()
    dso_totals: Counter[Technology] = Counter()
    # One list per key field, in FailureRecord's order: a row's values sit at its place in the stream.
    keys = ids, techs, powers, districts, municipalities, dsos = ([], [], [], [], [], [])
    failing: dict[int, list] = {}  # a failing row's place -> its failed tests
    for count, block in blocks:
        tech = block[_TECHNOLOGY][0]
        checks, key_columns = plans[tech]
        *columns, inspected = key_columns(block)
        dso = list(map(is_, inspected, repeat(True)))
        totals[tech] += count
        if True in dso:
            dso_totals[tech] += dso.count(True)
        first = len(ids)
        for column, values in zip(keys, (*columns, dso)):
            column += values
        for check in checks:
            results = check(block)
            for row, outcome in compress(enumerate(results, first), results):
                failing.setdefault(row, []).append(outcome)

    # Suite-level test 2, once the stream is read: every row of a unit id
    # that several rows carry fails. Rows without an id are test 1's concern.
    shared = {uid: _duplicate_id(n) for uid, n in Counter(ids).items() if n > 1 and uid is not None}
    for row in compress(range(len(ids)), map(shared.__contains__, ids)):
        failing.setdefault(row, []).append(shared[ids[row]])

    failures: list[FailureRecord] = []
    by_test_id = itemgetter(0)  # a RuleOutcome's test_id
    # tuple.__new__ builds each FailureRecord without NamedTuple's
    # Python-level __new__, from its 7 fields in order.
    new = tuple.__new__
    for row in sorted(failing, key=lambda row: (ids[row] or "", row)):
        outcomes = failing[row]
        if len(outcomes) > 1:
            outcomes.sort(key=by_test_id)
        key = ids[row], techs[row], powers[row], districts[row], municipalities[row], dsos[row]
        failures.append(new(FailureRecord, (*key, tuple(outcomes))))
    return FailureSet(failures, dict(totals), dict(dso_totals), evaluated)
