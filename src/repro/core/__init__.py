"""Bidirectional slack modulo scheduling — the paper's core contribution."""

from repro.core.acyclic import (
    BlockSchedule,
    acyclic_ddg,
    block_pressure,
    schedule_ips,
    schedule_list,
    schedule_slack,
)
from repro.core.baseline import CydromeAttempt, HeightAttempt, UnidirectionalAttempt
from repro.core.driver import ALGORITHMS, SchedulerOptions, modulo_schedule
from repro.core.framework import AttemptFailed, SchedulingAttempt, run_attempt
from repro.core.schedule import Schedule, ScheduleResult, SchedulerStats
from repro.core.slack import SlackAttempt
from repro.core.validate import validate_schedule
from repro.core.warp import WarpScheduler

__all__ = [
    "BlockSchedule",
    "acyclic_ddg",
    "block_pressure",
    "schedule_ips",
    "schedule_list",
    "schedule_slack",
    "CydromeAttempt",
    "HeightAttempt",
    "UnidirectionalAttempt",
    "ALGORITHMS",
    "SchedulerOptions",
    "modulo_schedule",
    "AttemptFailed",
    "SchedulingAttempt",
    "run_attempt",
    "Schedule",
    "ScheduleResult",
    "SchedulerStats",
    "SlackAttempt",
    "validate_schedule",
    "WarpScheduler",
]
