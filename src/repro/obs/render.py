"""ASCII renderings of scheduler state: MRT occupancy and lifetimes.

Two post-mortem views in the style of the paper's figures:

* :func:`render_mrt_occupancy` — the modulo reservation table as a
  utilization map: one line per unit instance, one column per II row,
  plus the per-unit busy fraction and a flag on saturated (critical)
  units.  It reads the rows of the table the schedule fills
  (`Schedule.resource_table`), so it shows what the scheduler placed.
* :func:`render_lifetime_chart` — Figure 3: every rotating-register
  value's lifetime as a horizontal bar over cycles, and Figure 4: the
  LiveVector, lifetimes wrapped modulo II, whose peak is MaxLive.
"""

from __future__ import annotations

from repro.bounds.lifetimes import (
    live_vector,
    rr_values,
    schedule_lifetimes,
)
from repro.core.schedule import Schedule
from repro.ir.ddg import DDG


def render_mrt_occupancy(schedule: Schedule, critical_threshold: float = 0.90) -> str:
    """Occupancy map of the modulo reservation table plus utilization.

    Each lane is one unit instance's row of ``schedule.resource_table()``:
    an op's oid on its issue row, ``=`` on its later busy rows, ``.``
    where the instance is free.
    """
    machine, ii, times = schedule.machine, schedule.ii, schedule.times
    lanes = {
        unit: [
            "." if oid == -1 else str(oid) if times[oid] % ii == row else "="
            for row, oid in enumerate(cells)
        ]
        for unit, cells in schedule.resource_table().rows().items()
    }
    width = max(2, max((len(c) for lane in lanes.values() for c in lane), default=2))
    lines = [f"MRT occupancy (II={ii}, '=' = non-pipelined busy cycle):"]
    lines.append(" " * 24 + " ".join(f"{c:>{width}}" for c in range(ii)))
    for (class_index, instance), lane in lanes.items():
        name = machine.unit_classes[class_index].name
        used = sum(1 for cell in lane if cell != ".")
        fraction = used / ii
        marker = "  <- critical" if fraction >= critical_threshold else ""
        label = f"{name}[{instance}]"
        body = " ".join(f"{cell:>{width}}" for cell in lane)
        lines.append(f"{label:<18}{fraction:>4.0%}  {body}{marker}")
    return "\n".join(lines)


def render_lifetime_chart(schedule: Schedule, ddg: DDG, max_cycles: int = 72) -> str:
    """Figure-3-style lifetime bars plus the Figure-4 LiveVector."""
    loop, ii = schedule.loop, schedule.ii
    lifetimes = schedule_lifetimes(loop, ddg, schedule.times, ii, rr_values(loop))
    lifetimes = [lt for lt in lifetimes if lt.length > 0]
    lines = [f"value lifetimes (II={ii}, {len(lifetimes)} RR values):"]
    if not lifetimes:
        lines.append("  (no rotating-register lifetimes)")
        return "\n".join(lines)
    horizon = max(lt.end for lt in lifetimes)
    scale = 1 if horizon < max_cycles else (horizon // max_cycles + 1)
    axis = "".join(
        "|" if (column * scale) % ii == 0 else "-"
        for column in range(horizon // scale + 1)
    )
    unit = f" (1 column = {scale} cycles)" if scale > 1 else ""
    lines.append(f"  {'cycle (| = II boundary)':<22}{axis}{unit}")
    for lifetime in sorted(lifetimes, key=lambda lt: (lt.start, lt.end)):
        row = []
        for column in range(horizon // scale + 1):
            cycle = column * scale
            row.append("#" if lifetime.start <= cycle < lifetime.end else ".")
        label = f"{lifetime.value.name} [{lifetime.start},{lifetime.end})"
        lines.append(f"  {label:<22}{''.join(row)}")
    vector = live_vector(lifetimes, ii)
    peak = max(vector)
    lines.append(f"live vector (wrapped mod II, MaxLive={peak}):")
    for row_index, count in enumerate(vector):
        bar = "#" * count
        lines.append(f"  row {row_index:>3}: {bar:<{peak}} {count}")
    return "\n".join(lines)
