"""One observation argument for the scheduling path.

Every layer from :func:`repro.service.run_batch` down to a single
scheduling attempt takes one optional ``observer`` and hands it on
unchanged; this class is the only place that normalizes the three
sinks it carries:

* ``trace``: a :class:`~repro.obs.trace.Tracer`, or None unless an
  *enabled* one was given, so the hot path's default cost is one
  attribute test per decision;
* ``metrics``: a :class:`~repro.obs.metrics.MetricsRegistry`, or None;
* ``prof``: a :class:`~repro.obs.prof.Profiler`, never None; the
  shared :data:`~repro.obs.prof.NULL_PROFILER` times spans without
  recording them.

An observer is :attr:`~Observer.enabled` when any of the three records;
that is the batch service's test for having each job return its
observations.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.prof import NULL_PROFILER, Profiler
from repro.obs.trace import Tracer


class Observer:
    """The tracer, metrics registry and profiler one call records into."""

    __slots__ = ("trace", "metrics", "prof")

    def __init__(
        self,
        trace: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        prof: Optional[Profiler] = None,
    ):
        self.trace = trace if trace is not None and trace.enabled else None
        self.metrics = metrics
        self.prof = prof or NULL_PROFILER

    @property
    def enabled(self) -> bool:
        """Whether any sink records anything.

        When it does, each batch job runs under its own tracer, registry
        and profiler and returns their contents in
        ``JobResult.observed`` for ``run_batch`` to merge back in.
        """
        return self.trace is not None or self.metrics is not None or self.prof.enabled


#: Shared default: records nothing (stateless, safe to reuse everywhere).
NULL_OBSERVER = Observer()
