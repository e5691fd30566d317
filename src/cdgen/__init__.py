"""Isomorph-free generation of Condorcet domains from never-condition rules."""

from .core import (
    ALL_CONDITIONS,
    CONDITION_NAMES,
    CONDITION_PAIRS,
    parse_condition,
    parse_rules,
    restrict,
    rules_token,
    satisfies,
    triple_at,
)
from .domain import (
    Domain,
    expand,
    expand_size,
    histogram,
    is_copious,
    is_maximal,
    is_unitary,
    satisfied_conditions,
)
from .iso import is_canonical_complete, is_partially_lex_max
from .lexcode import Assignment
from .oracle import brute_force_classes, brute_force_orbits, cross_check
from .search import SearchConfig, SearchHit, SearchStats, generate, resume, run_search

__version__ = "0.1.0"

__all__ = [
    "ALL_CONDITIONS",
    "Assignment",
    "CONDITION_NAMES",
    "CONDITION_PAIRS",
    "Domain",
    "SearchConfig",
    "SearchHit",
    "SearchStats",
    "__version__",
    "brute_force_classes",
    "brute_force_orbits",
    "cross_check",
    "expand",
    "expand_size",
    "generate",
    "histogram",
    "is_canonical_complete",
    "is_copious",
    "is_maximal",
    "is_partially_lex_max",
    "is_unitary",
    "parse_condition",
    "parse_rules",
    "restrict",
    "resume",
    "rules_token",
    "run_search",
    "satisfied_conditions",
    "satisfies",
    "triple_at",
]
