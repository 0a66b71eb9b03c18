"""One observation argument for the scheduling path.

Every layer from :func:`repro.service.run_batch` down to a single
scheduling attempt takes one optional ``observer`` and hands it on
unchanged; this class is the only place that normalizes the two sinks
it carries:

* ``trace``: a :class:`~repro.obs.trace.Tracer`, or None, so the hot
  path's default cost is one attribute test per decision;
* ``metrics``: a :class:`~repro.obs.metrics.MetricsRegistry`, never
  None; the shared :data:`~repro.obs.metrics.NULL_METRICS` times spans
  without recording them.

An observer is :attr:`~Observer.enabled` when either sink records;
that is the batch service's test for having each job return its
observations.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import Tracer


class Observer:
    """The tracer and metrics registry one call records into."""

    __slots__ = ("trace", "metrics")

    def __init__(
        self,
        trace: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.trace = trace
        self.metrics = metrics if metrics is not None else NULL_METRICS

    @property
    def enabled(self) -> bool:
        """Whether any sink records anything.

        When one does, each batch job runs under its own tracer and
        registry and returns their contents in ``JobResult.observed``
        for ``run_batch`` to merge back in.
        """
        return self.trace is not None or self.metrics.enabled


#: Shared default: records nothing (stateless, safe to reuse everywhere).
NULL_OBSERVER = Observer()
