"""Noise-aware regression gating over BENCH_*.json result sets.

``compare_sets`` matches two benchmark runs scenario-by-scenario and
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
import glob
import os
from typing import Dict, List, Optional, Tuple

from repro.obs.bench import BENCH_SCHEMA, load_payload

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


def load_bench_files(path: str) -> List[Tuple[str, dict]]:
    """``(scenario, payload)`` for a BENCH file, or for every
    ``BENCH_*.json`` of a directory in name order."""
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "BENCH_*.json")))
    else:
        files = [path]
    if not files:
        raise FileNotFoundError(f"no BENCH_*.json files under {path}")
    entries = []
    for name in files:
        payload = load_payload(name, schema=BENCH_SCHEMA)
        entries.append((payload.get("scenario") or os.path.basename(name), payload))
    return entries


def collect_bench_files(path: str) -> Dict[str, dict]:
    """Load BENCH payloads from a directory or a single file.

    Returns scenario name -> payload; a directory is scanned for
    ``BENCH_*.json``.
    """
    return dict(load_bench_files(path))


def compare_sets(
    old_payloads: Dict[str, dict],
    new_payloads: Dict[str, dict],
    threshold: float = 0.02,
    iqr_factor: float = 2.0,
    gate_time: bool = False,
) -> List[MetricDelta]:
    """Compare two scenario->payload maps (scenarios matched by name)."""
    deltas: List[MetricDelta] = []
    for scenario in sorted(set(old_payloads) | set(new_payloads)):
        old = old_payloads.get(scenario)
        new = new_payloads.get(scenario)
        if old is None or new is None:
            status = "added" if old is None else "removed"
            deltas.append(
                MetricDelta(
                    scenario=scenario,
                    name="(scenario)",
                    unit="",
                    kind="count",
                    direction="lower",
                    old=None,
                    new=None,
                    status=status,
                    gating=False,
                )
            )
            continue
        deltas.extend(
            compare_payload_pair(
                old, new, threshold=threshold, iqr_factor=iqr_factor,
                gate_time=gate_time,
            )
        )
    return deltas


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


def set_provenance_warnings(
    old_payloads: Dict[str, dict], new_payloads: Dict[str, dict]
) -> List[str]:
    """Per-scenario provenance warnings across two result sets."""
    warnings = []
    for scenario in sorted(set(old_payloads) & set(new_payloads)):
        for warning in provenance_mismatches(
            old_payloads[scenario], new_payloads[scenario]
        ):
            warnings.append(f"{scenario}: {warning}")
    return warnings


# ----------------------------------------------------------------------
# Span-level attribution (profiler snapshot diffs)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SpanDelta:
    """One profiler span's old-vs-new self-time comparison."""

    path: str
    old_self: float
    new_self: float
    old_calls: int = 0
    new_calls: int = 0

    @property
    def delta_self(self) -> float:
        """Absolute self-seconds change (+ = slower)."""
        return self.new_self - self.old_self


def diff_profiles(old_profile: dict, new_profile: dict) -> List[SpanDelta]:
    """Span-by-span self-time diff of two profiler snapshots.

    Sorted by self-seconds increase (the guiltiest span first): when a
    scenario's wall time regressed, the top entry names which phase of
    the scheduler — driver, framework, slack, MinDist — slowed down.
    """
    old_spans = (old_profile or {}).get("spans", {})
    new_spans = (new_profile or {}).get("spans", {})
    deltas = [
        SpanDelta(
            path=path,
            old_self=old_spans.get(path, {}).get("self_seconds", 0.0),
            new_self=new_spans.get(path, {}).get("self_seconds", 0.0),
            old_calls=old_spans.get(path, {}).get("calls", 0),
            new_calls=new_spans.get(path, {}).get("calls", 0),
        )
        for path in sorted(set(old_spans) | set(new_spans))
    ]
    deltas.sort(key=lambda d: (-d.delta_self, d.path))
    return deltas


def attribute_spans(
    old_payload: dict, new_payload: dict, limit: int = 3
) -> List[str]:
    """Name the spans that account for a scenario's time regression.

    Returns report lines (empty when either payload lacks a profile
    snapshot or nothing slowed down).
    """
    old_profile = old_payload.get("profile")
    new_profile = new_payload.get("profile")
    if not old_profile or not new_profile:
        return []
    slower = [d for d in diff_profiles(old_profile, new_profile) if d.delta_self > 0]
    if not slower:
        return []
    total = sum(d.delta_self for d in slower)
    lines = ["span attribution (self-time increase, guiltiest first):"]
    for delta in slower[:limit]:
        share = delta.delta_self / total if total > 0 else 0.0
        grew = (
            delta.old_self * 100.0
            if delta.old_self <= 0
            else (delta.new_self / delta.old_self - 1.0) * 100.0
        )
        lines.append(
            f"  {delta.path:<40} +{delta.delta_self * 1e3:.2f}ms self "
            f"({share:.0%} of the slowdown, {grew:+.0f}% vs old, "
            f"calls {delta.old_calls} -> {delta.new_calls})"
        )
    return lines


def attribute_sets(
    old_payloads: Dict[str, dict],
    new_payloads: Dict[str, dict],
    deltas: List[MetricDelta],
    limit: int = 3,
) -> List[str]:
    """Span attribution for every scenario with a regressed time metric."""
    guilty = sorted(
        {d.scenario for d in deltas if d.is_regression and d.kind == "time"}
    )
    lines = []
    for scenario in guilty:
        old = old_payloads.get(scenario)
        new = new_payloads.get(scenario)
        if old is None or new is None:
            continue
        attribution = attribute_spans(old, new, limit=limit)
        if attribution:
            lines.append(f"{scenario}:")
            lines.extend(f"  {line}" for line in attribution)
    return lines


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
    old_payloads: Dict[str, dict],
    new_payloads: Dict[str, dict],
    threshold: float = 0.02,
    iqr_factor: float = 2.0,
    gate_time: bool = False,
) -> List[MetricDelta]:
    """Print the delta table, provenance warnings, span attribution and
    summary of two scenario->payload maps; return the deltas.

    ``repro bench --compare`` and ``repro history compare`` both print
    through here.
    """
    deltas = compare_sets(
        old_payloads,
        new_payloads,
        threshold=threshold,
        iqr_factor=iqr_factor,
        gate_time=gate_time,
    )
    print(render_table(deltas))
    print()
    for warning in set_provenance_warnings(old_payloads, new_payloads):
        print(f"warning: {warning}")
    for line in attribute_sets(old_payloads, new_payloads, deltas):
        print(line)
    print(summarize(deltas))
    return deltas


def compare_main(
    old_path: str,
    new_path: str,
    fail_on_regress: bool = False,
    threshold: float = 0.02,
    iqr_factor: float = 2.0,
    gate_time: bool = False,
) -> int:
    """CLI entry for ``python -m repro bench --compare OLD NEW``."""
    try:
        old_payloads = collect_bench_files(old_path)
        new_payloads = collect_bench_files(new_path)
    except (OSError, ValueError) as error:
        print(f"error: {error}")
        return 2
    deltas = print_comparison(
        old_payloads,
        new_payloads,
        threshold=threshold,
        iqr_factor=iqr_factor,
        gate_time=gate_time,
    )
    if fail_on_regress and gating_regressions(deltas):
        print("FAIL: gating regression(s) detected")
        return 1
    return 0
