"""Noise-aware regression gating between two bench payloads.

``repro history compare`` prints through :func:`print_comparison`:
:func:`compare_payload_pair` matches two runs of one scenario
metric-by-metric, and classifies each delta as a regression, an
improvement, or within noise.  The noise model is per metric:

* every metric entry records the IQR of its repeat samples, so the
  allowance for metric *m* is ``threshold + iqr_factor * IQR_m / |old|``
  — a metric that was noisy when measured gets a proportionally wider
  band, while a perfectly stable one is held to the flat threshold;
* deterministic metrics (``kind == "count"``: II-vs-MII, ejections,
  success rate, ...) are identical across machines for a fixed corpus,
  so they always gate ``--fail-on-regress``;
* wall-clock metrics (``kind == "time"``) gate only with
  ``--gate-time``, because a CI runner and a laptop disagree by far
  more than any real slowdown — they are still *reported* either way.

``direction`` in the metric entry ("lower"/"higher" is better) orients
the comparison, so throughput dropping and wall time rising both count
as regressions.  Rendered as a markdown-compatible ASCII table::

    | scenario | metric | old | new | delta | allowed | status |
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

#: Relative-delta floor that avoids dividing by a ~zero old value.
_EPSILON = 1e-12


@dataclasses.dataclass
class MetricDelta:
    """One metric's old-vs-new comparison."""

    scenario: str
    name: str
    unit: str
    kind: str  # "time" | "count"
    direction: str  # "lower" | "higher" is better
    old: Optional[float]
    new: Optional[float]
    worse_by: float = 0.0  # signed relative delta, + = worse
    allowance: float = 0.0
    status: str = "ok"  # ok | regression | improvement | added | removed
    gating: bool = True  # does a regression here fail the gate?

    @property
    def is_regression(self) -> bool:
        return self.status == "regression"


def compare_metric(
    scenario: str,
    name: str,
    old: Optional[dict],
    new: Optional[dict],
    threshold: float = 0.02,
    iqr_factor: float = 2.0,
    gate_time: bool = False,
) -> MetricDelta:
    """Classify one metric's delta under the noise model."""
    spec = new or old
    kind = spec.get("kind", "count")
    delta = MetricDelta(
        scenario=scenario,
        name=name,
        unit=spec.get("unit", ""),
        kind=kind,
        direction=spec.get("direction", "lower"),
        old=old["value"] if old else None,
        new=new["value"] if new else None,
        gating=(kind != "time") or gate_time,
    )
    if old is None or new is None:
        delta.status = "added" if old is None else "removed"
        delta.gating = False
        return delta
    base = max(abs(old["value"]), _EPSILON)
    rel = (new["value"] - old["value"]) / base
    delta.worse_by = rel if delta.direction == "lower" else -rel
    iqr = max(old.get("iqr", 0.0), new.get("iqr", 0.0))
    delta.allowance = threshold + iqr_factor * iqr / base
    if delta.worse_by > delta.allowance:
        delta.status = "regression"
    elif delta.worse_by < -delta.allowance:
        delta.status = "improvement"
    return delta


def compare_payload_pair(
    old_payload: dict,
    new_payload: dict,
    threshold: float = 0.02,
    iqr_factor: float = 2.0,
    gate_time: bool = False,
) -> List[MetricDelta]:
    """Compare every metric of one scenario's old/new payloads."""
    scenario = new_payload.get("scenario") or old_payload.get("scenario") or "?"
    old_metrics = old_payload.get("metrics", {})
    new_metrics = new_payload.get("metrics", {})
    names = sorted(set(old_metrics) | set(new_metrics))
    return [
        compare_metric(
            scenario,
            name,
            old_metrics.get(name),
            new_metrics.get(name),
            threshold=threshold,
            iqr_factor=iqr_factor,
            gate_time=gate_time,
        )
        for name in names
    ]


def gating_regressions(deltas: List[MetricDelta]) -> List[MetricDelta]:
    return [d for d in deltas if d.is_regression and d.gating]


# ----------------------------------------------------------------------
# Provenance checks
# ----------------------------------------------------------------------
#: Envelope fields whose disagreement makes time metrics incomparable.
PROVENANCE_FIELDS = ("platform", "python", "cpu_count")


def provenance_mismatches(old_payload: dict, new_payload: dict) -> List[str]:
    """Warnings for envelope fields that differ between OLD and NEW.

    Only fields present in *both* payloads are compared, so baselines
    recorded before a field existed (e.g. ``cpu_count``) do not warn.
    """
    warnings = []
    for field in PROVENANCE_FIELDS:
        old_value = old_payload.get(field)
        new_value = new_payload.get(field)
        if old_value is None or new_value is None:
            continue
        if old_value != new_value:
            warnings.append(
                f"provenance mismatch: {field} differs "
                f"(old={old_value!r}, new={new_value!r}) — "
                "time metrics are not comparable across environments"
            )
    return warnings


def _fmt(value: Optional[float], unit: str) -> str:
    if value is None:
        return "-"
    if unit in ("loops", "ops", "attempts", "ejections", "placements"):
        return f"{value:.0f}"
    if abs(value) >= 1000:
        return f"{value:.0f}"
    return f"{value:.3f}"


def render_table(deltas: List[MetricDelta], verbose: bool = False) -> str:
    """Markdown-compatible comparison table.

    By default only rows that moved (or failed to match up) are listed;
    ``verbose`` lists every metric.
    """
    rows = [
        "| scenario | metric | old | new | delta | allowed | status |",
        "|---|---|---:|---:|---:|---:|---|",
    ]
    shown = 0
    for d in deltas:
        if not verbose and d.status == "ok":
            continue
        shown += 1
        status = d.status.upper() if d.is_regression else d.status
        if d.is_regression and not d.gating:
            status += " (not gated)"
        rows.append(
            f"| {d.scenario} | {d.name} | {_fmt(d.old, d.unit)} "
            f"| {_fmt(d.new, d.unit)} | {d.worse_by:+.1%} "
            f"| ±{d.allowance:.1%} | {status} |"
        )
    if not shown:
        rows.append("| _all_ | _all metrics_ | | | | | within noise |")
    return "\n".join(rows)


def summarize(deltas: List[MetricDelta]) -> str:
    regress = [d for d in deltas if d.is_regression]
    gating = gating_regressions(deltas)
    improved = [d for d in deltas if d.status == "improvement"]
    ok = [d for d in deltas if d.status == "ok"]
    return (
        f"{len(deltas)} metric(s) compared: {len(ok)} within noise, "
        f"{len(improved)} improved, {len(regress)} regressed "
        f"({len(gating)} gating)"
    )


def print_comparison(
    old_payload: dict,
    new_payload: dict,
    threshold: float = 0.02,
    iqr_factor: float = 2.0,
    gate_time: bool = False,
) -> List[MetricDelta]:
    """Print the delta table, provenance warnings and summary of two
    payloads of one scenario; return the deltas."""
    deltas = compare_payload_pair(
        old_payload,
        new_payload,
        threshold=threshold,
        iqr_factor=iqr_factor,
        gate_time=gate_time,
    )
    print(render_table(deltas))
    print()
    for warning in provenance_mismatches(old_payload, new_payload):
        print(f"warning: {warning}")
    print(summarize(deltas))
    return deltas
