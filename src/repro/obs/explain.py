"""Post-mortem analysis: turn a finished trace into a narrative report.

``explain(result, events)`` answers the questions the paper's own
evaluation keeps asking of every loop (§6, Tables 3-4):

* why the achieved II is what it is — ResMII vs RecMII, which resource
  is the bottleneck and how saturated each unit class is;
* how hard the scheduler worked — per-attempt placements, ejections,
  forced placements, bounds recomputations, cap growths, and the reason
  each II escalation happened;
* which operations were ejected most (the backtracking hot spots);
* register pressure: achieved MaxLive against the schedule-independent
  MinAvg lower bound;
* the MRT occupancy map and the lifetime chart (obs.render).

The report is derived *only* from public objects — a
:class:`~repro.core.schedule.ScheduleResult`, the trace event list, and
optionally a :class:`~repro.obs.metrics.MetricsRegistry` — so it can be
produced live by the CLI or offline from a loaded JSONL trace.
"""

from __future__ import annotations

import math
from collections import Counter as TallyCounter
from typing import Iterable, List, Optional

from repro.bounds.lifetimes import min_avg, rr_max_live
from repro.bounds.mindist import MinDist
from repro.bounds.resmii import unit_requirements
from repro.core.schedule import ScheduleResult
from repro.ir.ddg import DDG, build_ddg
from repro.obs.metrics import MetricsRegistry
from repro.obs.render import render_lifetime_chart, render_mrt_occupancy
from repro.obs.trace import replay_times, split_attempts


def _attempt_summary(attempt_events: List[dict]) -> dict:
    start = attempt_events[0]
    tally = TallyCounter(event["kind"] for event in attempt_events)
    outcome, reason = "incomplete", ""
    for event in attempt_events:
        if event["kind"] == "schedule_found":
            outcome, reason = "scheduled", f"span={event['span']}, stages={event['stages']}"
        elif event["kind"] == "attempt_fail":
            outcome, reason = "failed", event["reason"]
    return {
        "ii": start["ii"],
        "algorithm": start["algorithm"],
        "budget": start["budget"],
        "places": tally["place"],
        "ejects": tally["eject"],
        "forced": tally["force_place"],
        "recomputes": tally["bounds_recompute"],
        "cap_grows": tally["cap_grow"],
        "outcome": outcome,
        "reason": reason,
    }


def _resource_section(result: ScheduleResult, ii: int) -> List[str]:
    loop, machine = result.loop, result.machine
    lines = ["resource pressure (busy cycles per iteration vs capacity):"]
    bottleneck, bottleneck_ratio = None, -1.0
    for class_index, busy in sorted(unit_requirements(loop, machine).items()):
        unit_class = machine.unit_classes[class_index]
        capacity = unit_class.count * ii
        ratio = busy / capacity if capacity else 0.0
        floor = math.ceil(busy / unit_class.count)
        lines.append(
            f"  {unit_class.name:<14} {busy:>3} cycles / {capacity:>3} slots "
            f"= {ratio:>4.0%}  (II floor {floor})"
        )
        if ratio > bottleneck_ratio:
            bottleneck, bottleneck_ratio = unit_class.name, ratio
    if bottleneck is not None:
        lines.append(
            f"  critical resource: {bottleneck} ({bottleneck_ratio:.0%} utilized at II={ii})"
        )
    return lines


def _escalation_section(events: List[dict]) -> List[str]:
    escalations = [e for e in events if e["kind"] == "ii_escalate"]
    if not escalations:
        return ["II escalations: none (scheduled at the first attempted II)"]
    lines = [f"II escalations: {len(escalations)}"]
    for escalation in escalations:
        reason = escalation["reason"] or "attempt failed"
        lines.append(f"  II {escalation['old_ii']} -> {escalation['new_ii']}: {reason}")
    return lines


def _ejection_section(result: ScheduleResult, events: List[dict]) -> List[str]:
    ejected = TallyCounter(
        event["oid"] for event in events if event["kind"] == "eject"
    )
    if not ejected:
        return ["ejections: none (no backtracking needed)"]
    lines = [f"ejections: {sum(ejected.values())} total over {len(ejected)} op(s); worst offenders:"]
    for oid, count in ejected.most_common(5):
        lines.append(f"  {count:>4}x  {result.loop.ops[oid]!r}")
    return lines


def explain(
    result: ScheduleResult,
    events: Iterable[dict],
    metrics: Optional[MetricsRegistry] = None,
    ddg: Optional[DDG] = None,
) -> str:
    """Render the full post-mortem report for one scheduling run."""
    events = list(events)
    loop = result.loop
    if ddg is None:
        ddg = build_ddg(loop, result.machine)
    lines: List[str] = []

    ii = result.ii
    lines.append(f"=== explain: {loop.name} ===")
    if result.success:
        verdict = "optimal (II = MII)" if result.optimal else (
            f"suboptimal (+{ii - result.mii} over MII)"
        )
        lines.append(
            f"outcome: scheduled at II={ii} — {verdict}; "
            f"span={result.schedule.span}, stages={result.schedule.stages}"
        )
    else:
        lines.append(
            f"outcome: FAILED to pipeline (last attempted II={result.last_attempted_ii})"
        )
    dominant = "resources (ResMII)" if result.res_mii >= result.rec_mii else "recurrences (RecMII)"
    lines.append(
        f"lower bounds: ResMII={result.res_mii}, RecMII={result.rec_mii}, "
        f"MII={result.mii} — bound by {dominant}"
    )
    lines.append("")
    lines.extend(_resource_section(result, ii))
    lines.append("")

    attempts = split_attempts(events)
    if attempts:
        lines.append(f"attempts ({len(attempts)}):")
        for attempt_events in attempts:
            s = _attempt_summary(attempt_events)
            lines.append(
                f"  II={s['ii']:<4} [{s['algorithm']}] {s['outcome']:<9} "
                f"places={s['places']:<4} ejects={s['ejects']:<4} "
                f"forced={s['forced']:<3} recomputes={s['recomputes']:<3} "
                f"cap_grows={s['cap_grows']:<2} {s['reason']}"
            )
        lines.append("")
        lines.extend(_escalation_section(events))
        lines.append("")
        lines.extend(_ejection_section(result, events))
        lines.append("")
    else:
        lines.append("attempts: (no trace events captured)")
        lines.append("")

    if result.success:
        schedule = result.schedule
        mindist = MinDist(ddg, schedule.ii)
        pressure = rr_max_live(loop, ddg, schedule.times, schedule.ii)
        bound = min_avg(loop, ddg, mindist, schedule.ii)
        gap = pressure - bound
        lines.append(
            f"register pressure: MaxLive={pressure} vs MinAvg bound {bound} "
            f"({'tight' if gap <= 0 else f'+{gap} over the bound'})"
        )
        lines.append("")
        lines.append(render_mrt_occupancy(schedule))
        lines.append("")
        lines.append(render_lifetime_chart(schedule, ddg))

    if metrics is not None:
        lines.append("")
        lines.append(metrics.render())
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Flight-recorder post-mortems (crashed/timed-out/failed jobs)
# ----------------------------------------------------------------------
def _format_flight_record(record: dict) -> str:
    """One ``[seq] kind key=value ...`` line from a dumped event dict."""
    detail = " ".join(
        f"{key}={record[key]}"
        for key in sorted(record)
        if key not in ("kind", "seq", "ts")
    )
    return f"  [{record['seq']:>4}] {record['kind']}" + (f"  {detail}" if detail else "")


def flight_postmortem(
    name: str,
    records: List[dict],
    status: Optional[str] = None,
    error: Optional[str] = None,
) -> str:
    """Render a flight-recorder dump (oldest-first event dicts).

    This is the failure-side sibling of :func:`explain`: no
    ``ScheduleResult`` exists (the worker died, timed out, or raised),
    so the narrative is built purely from the ring's event tail — the
    last scheduler decisions in flight when the job ended.
    """
    lines: List[str] = [f"=== post-mortem: {name} ==="]
    header = []
    if status is not None:
        header.append(f"status={status}")
    if error:
        header.append(f"error: {error}")
    if header:
        lines.append("  ".join(header))
    if not records:
        lines.append("flight recorder: empty (job died before its first event)")
        return "\n".join(lines)

    dropped = records[0]["seq"]
    note = f" ({dropped} earlier dropped from the ring)" if dropped else ""
    lines.append(f"flight recorder: last {len(records)} event(s){note}:")
    lines.extend(_format_flight_record(record) for record in records)

    in_flight = sorted(replay_times(records))
    if in_flight:
        lines.append(
            f"ops in flight at death ({len(in_flight)}): "
            + ", ".join(str(oid) for oid in in_flight)
        )
    return "\n".join(lines)
