"""Validation engine for energy-unit registry tables."""

from .model import FailureRecord, RuleOutcome, Technology, UnitRecord
from .rules import Boundaries, FailureSet, RuleConfig, run_suite

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
