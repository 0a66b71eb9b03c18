"""Bidirectional slack modulo scheduling — the paper's core contribution.

Importing the package loads the modulo schedulers and their driver.
The straight-line schedulers of :mod:`repro.core.acyclic` load on first
use of one of their names (see :mod:`repro._deferred`).
"""

from repro._deferred import deferred_exports
from repro.core.baseline import CydromeAttempt, HeightAttempt, UnidirectionalAttempt
from repro.core.driver import ALGORITHMS, SchedulerOptions, modulo_schedule
from repro.core.framework import AttemptFailed, SchedulingAttempt, run_attempt
from repro.core.schedule import Schedule, ScheduleResult, SchedulerStats
from repro.core.slack import SlackAttempt
from repro.core.validate import validate_schedule
from repro.core.warp import WarpScheduler

__getattr__ = deferred_exports(globals(), {
    "repro.core.acyclic": (
        "BlockSchedule",
        "acyclic_ddg",
        "block_pressure",
        "schedule_ips",
        "schedule_list",
        "schedule_slack",
    ),
})

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
