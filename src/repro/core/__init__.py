"""Bidirectional slack modulo scheduling — the paper's core contribution.

Importing the package loads the backtracking modulo schedulers and
their driver.  The warp scheduler of :mod:`repro.core.warp` and the
straight-line schedulers of :mod:`repro.core.acyclic` load on first use
of one of their names (see :mod:`repro._deferred`); the driver loads
warp when a run asks for it.
"""

from repro._deferred import deferred_exports
from repro.core.baseline import CydromeAttempt, HeightAttempt, UnidirectionalAttempt
from repro.core.driver import ALGORITHMS, SchedulerOptions, modulo_schedule
from repro.core.framework import AttemptFailed, SchedulingAttempt, run_attempt
from repro.core.schedule import Schedule, ScheduleResult, SchedulerStats
from repro.core.slack import SlackAttempt
from repro.core.validate import validate_schedule

__getattr__ = deferred_exports(globals(), {
    "repro.core.acyclic": (
        "BlockSchedule",
        "acyclic_ddg",
        "block_pressure",
        "schedule_ips",
        "schedule_list",
        "schedule_slack",
    ),
    "repro.core.warp": ("WarpScheduler",),
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
