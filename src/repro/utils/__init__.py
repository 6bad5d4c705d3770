"""Shared utilities: deterministic RNG, table formatting, graph helpers."""

from repro.utils.rng import make_rng
from repro.utils.tables import Table
from repro.utils.intervals import Interval, intervals_overlap
from repro.utils.graphs import (
    Reachability,
    topological_order,
)

__all__ = [
    "make_rng",
    "Table",
    "Interval",
    "intervals_overlap",
    "Reachability",
    "topological_order",
]
