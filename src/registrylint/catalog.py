"""The data-test catalog table and the check-mark matrix that follows from it.

CATALOG holds one row per test: its id, the record fields its check
reads, the unit of the value it measures and the name of the function in
rules that compiles its check. CHECKMARKS, the matrix counts and the
fields a run's column mapping must give all follow from the rows.

This module imports neither the checks (rules) nor the geometry kernel
(geo): `registrylint report` reads the matrix but runs no test, so it
loads this table alone. A row's compile function is looked up in rules
each time it is asked for.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .model import POWER_FIELD, RuleOutcome, Technology, columns_for


class ConfigError(ValueError):
    """Raised for rule configurations that violate their invariants."""


class CatalogTest(NamedTuple):
    """One row of the catalog.

    compiler names the function in rules that compiles the test's check,
    and None for the suite-level uniqueness test; compile is that
    function. reads names the fields the check reads (test 1 reads the
    configured required_fields besides). unit is the unit of the value the
    test measures, which a failure carries.
    """

    test_id: int
    reads: tuple[str, ...]
    unit: str | None
    compiler: str | None

    @property
    def compile(self) -> Callable | None:
        """compile(config, technology, boundaries, fail, columns) returns
        the test's check for blocks of one technology, or None when the
        test cannot run on these inputs (no boundaries for a location
        test). columns gets a block's columns of the fields the row reads,
        "power" being the technology's rated power (None for a row that
        reads none): a check reads exactly the columns its row names."""
        if self.compiler is None:
            return None
        from . import rules

        return getattr(rules, self.compiler)

    def fail(self, detail: str, measured: float | None = None) -> RuleOutcome:
        """The test's failing outcome. A measured value beyond the float
        range is null, since JSON has no number for it."""
        if measured is not None and not math.isfinite(measured):
            measured = None
        return RuleOutcome(self.test_id, detail, measured, None if measured is None else self.unit)


def field_of(name: str, tech: Technology) -> str:
    """The record field a catalog or configured name stands for: "power" is the rated-power field."""
    return POWER_FIELD[tech] if name == "power" else name


UNIQUE_IDS = CatalogTest(2, ("unit_id",), "records", None)  # suite-level

CATALOG: tuple[CatalogTest, ...] = (
    CatalogTest(1, (), None, "_required_fields"),
    UNIQUE_IDS,
    CatalogTest(3, ("power_gross_kw", "power_net_kw"), "kW", "_gross_vs_net"),
    CatalogTest(4, ("power_inverter_kw", "power_net_kw"), "kW", "_inverter_vs_net"),
    CatalogTest(5, ("unit_id", "municipality_id", "zip_code"), None, "_id_formats"),
    CatalogTest(6, ("power_gross_kw", "number_of_modules"), "W/module", "_module_power"),
    CatalogTest(7, ("power_gross_kw", "power_inverter_kw"), "ratio", "_inverter_ratio"),
    CatalogTest(8, ("unit_type", "power_gross_kw", "area_ha"), "MW/ha", "_area_density"),
    CatalogTest(9, ("power_kw", "rotor_diameter_m"), "W/m2", "_rotor_power"),
    CatalogTest(10, ("coordinate", "district_id"), "m", "_district_location"),
    CatalogTest(11, ("coordinate", "municipality_id"), "m", "_municipality_location"),
    CatalogTest(12, ("power",), "kW", "_power_range"),
    CatalogTest(13, ("installation_year",), "year", "_installation_year"),
    CatalogTest(14, ("hub_height_m", "rotor_diameter_m"), "m", "_hub_height"),
    CatalogTest(15, ("power_net_kw", "unit_type", "unit_name"), "kW", "_balcony_power"),
)

# Which technologies each test applies to: those carrying every field it reads.
CHECKMARKS: dict[int, frozenset[Technology]] = {
    test.test_id: frozenset(
        tech for tech in Technology if all(field_of(name, tech) in columns_for(tech) for name in test.reads)
    )
    for test in CATALOG
}
MATRIX_CELL_COUNT = len(CATALOG) * len(Technology)  # full grid: 90
CHECKED_PAIR_COUNT = sum(len(techs) for techs in CHECKMARKS.values())  # 53
