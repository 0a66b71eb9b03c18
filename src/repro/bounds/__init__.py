"""Absolute lower bounds on II and register pressure (paper §3)."""

from repro.bounds.lifetimes import (
    Lifetime,
    gpr_count,
    icr_usage,
    icr_values,
    live_vector,
    max_live,
    min_avg,
    min_lifetime,
    rr_max_live,
    rr_values,
    schedule_lifetimes,
)
from repro.bounds.mindist import MinDist
from repro.bounds.recmii import (
    StaticCycleError,
    recmii,
    strongly_connected_components,
)
from repro.bounds.resmii import resmii, unit_requirements
from repro.bounds.analysis import LoopAnalysis, critical_unit_instances

__all__ = [
    "Lifetime",
    "gpr_count",
    "icr_usage",
    "icr_values",
    "live_vector",
    "max_live",
    "min_avg",
    "min_lifetime",
    "rr_max_live",
    "rr_values",
    "schedule_lifetimes",
    "MinDist",
    "StaticCycleError",
    "recmii",
    "strongly_connected_components",
    "critical_unit_instances",
    "resmii",
    "unit_requirements",
    "LoopAnalysis",
]
