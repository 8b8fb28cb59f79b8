"""Validation engine for energy-unit registry tables."""

from .model import FailureRecord, FailureSet, RuleOutcome, Technology

__version__ = "0.1.0"

__all__ = [
    "Boundaries",
    "FailureRecord",
    "FailureSet",
    "RuleConfig",
    "RuleOutcome",
    "Technology",
    "UnitRecord",
    "run_suite",
    "__version__",
]

# Names resolved on first access, so that importing the package (as every
# command does) loads neither the checks, nor the geometry kernel, nor
# dataclasses, which model imports only to build UnitRecord.
_FROM_RULES = frozenset({"Boundaries", "RuleConfig", "run_suite"})


def __getattr__(name: str):
    if name == "UnitRecord":
        from . import model

        return model.UnitRecord
    if name not in _FROM_RULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import rules

    return getattr(rules, name)
