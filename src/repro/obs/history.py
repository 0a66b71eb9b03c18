"""Append-only bench/batch history: a JSON-lines file, MAD trends, attribution.

The regression gate (:mod:`repro.obs.regress`) compares two snapshots;
this module keeps the *trajectory*.  Every ``BENCH_*.json`` envelope (or
batch summary) recorded here becomes one line of a text file, and three
queries ride on top:

``trend``
    A rolling-median + MAD anomaly rule over each metric's series.
    Each point is judged against the trailing window of *prior* points:
    flag when ``|x - median| > k * scale`` with
    ``scale = max(1.4826 * MAD, |median| * 0.001, 1e-12)`` — robust to
    the occasional outlier in the window itself, and able to see slow
    drifts a single committed baseline cannot.

``compare``
    The regress noise model between any two recorded runs (default:
    the last two per scenario), printed by the same function as
    ``repro bench --compare``: the delta table, provenance-mismatch
    warnings and span-level attribution — diffing the profiler
    snapshots stored alongside each run to name which span
    (driver/framework/slack/MinDist) accounts for a time regression.

``show``/``record``
    Plain inventory and ingestion.  Line *n* of the file is run #*n*,
    written as ``canonical_dumps({"payload", "recorded_unix",
    "scenario"})``, so recording the same inputs twice yields
    byte-identical lines modulo the timestamp/SHA provenance fields.

Every line is checked on read the way :func:`repro.obs.bench.load_payload`
checks a file; a bad line raises :class:`HistoryError` naming
``path:line``.  A file has one writer at a time, so appends take no lock.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.canonical import canonical_dumps
from repro.obs.bench import payload_problem
from repro.obs.regress import gating_regressions, load_bench_files, print_comparison

#: MAD anomaly rule defaults (see module docstring).
TREND_WINDOW = 8
TREND_MAD_K = 3.5
#: Scale factor making MAD a consistent sigma estimator under normality.
MAD_SIGMA = 1.4826
#: A point needs at least this many prior points to be judged.
TREND_MIN_POINTS = 4

#: The keys of one history line, in their canonical order.
_LINE_KEYS = ("payload", "recorded_unix", "scenario")


class HistoryError(ValueError):
    """A malformed history line (CLI exits 2)."""


@dataclasses.dataclass
class HistoryRun:
    """One recorded run (a bench envelope or batch summary)."""

    run_id: int
    scenario: str
    recorded_unix: float
    payload: dict

    @property
    def git_sha(self) -> Optional[str]:
        return self.payload.get("git_sha")

    @property
    def python(self) -> Optional[str]:
        return self.payload.get("python")

    @property
    def cpu_count(self) -> Optional[int]:
        return self.payload.get("cpu_count")


def _parse_line(path: str, number: int, raw: bytes) -> HistoryRun:
    """Line ``number`` of the history at ``path`` as run #``number``."""
    try:
        if not raw.endswith(b"\n"):
            raise ValueError("unterminated line")
        record = json.loads(raw)
        if not (
            isinstance(record, dict)
            and tuple(sorted(record)) == _LINE_KEYS
            and isinstance(record["scenario"], str)
            and isinstance(record["recorded_unix"], (int, float))
        ):
            raise ValueError(
                f"not a history line: expected keys {', '.join(_LINE_KEYS)}"
            )
        problem = payload_problem(record["payload"])
        if problem:
            raise ValueError(problem)
    except ValueError as error:
        raise HistoryError(f"{path}:{number}: {error}") from None
    return HistoryRun(
        number, record["scenario"], record["recorded_unix"], record["payload"]
    )


class HistoryStore:
    """Append-only JSON-lines file of schema-versioned run payloads.

    A missing file is an empty history; the first record creates it.
    """

    def __init__(self, path: str):
        self.path = path
        try:
            with open(path, "rb") as handle:
                self._runs = [
                    _parse_line(path, number, raw)
                    for number, raw in enumerate(handle, 1)
                ]
        except FileNotFoundError:
            self._runs = []

    # -- ingestion -----------------------------------------------------
    def record_payload(self, scenario: str, payload: dict) -> int:
        """Append one schema-versioned payload; returns the new run id.

        The payload is stored as canonical (sorted-key) JSON, so two
        records of identical inputs differ only in ``recorded_unix``
        and whatever timestamp/SHA provenance the envelope itself
        carries.
        """
        return self._append([(scenario, payload)])[0]

    def record_paths(self, paths: Sequence[str]) -> List[Tuple[str, int]]:
        """Record BENCH_*.json files (or directories of them).

        Returns ``[(scenario, run_id), ...]`` in ingestion order.
        Raises ``OSError``/``ValueError`` on unreadable or off-schema
        files — every file is read and checked before the first line is
        appended, so ingestion is all-or-nothing per call.
        """
        entries = [entry for path in paths for entry in load_bench_files(path)]
        run_ids = self._append(entries)
        return [(scenario, run_id) for (scenario, _), run_id in zip(entries, run_ids)]

    def _append(self, entries: Sequence[Tuple[str, dict]]) -> List[int]:
        """Write one line per ``(scenario, payload)`` in a single append."""
        lines = []
        for scenario, payload in entries:
            problem = payload_problem(payload)
            if problem:
                raise ValueError(
                    f"cannot record schema {payload.get('schema')!r}: {problem}"
                )
            record = {
                "payload": payload,
                "recorded_unix": time.time(),
                "scenario": scenario,
            }
            lines.append((canonical_dumps(record) + "\n").encode("ascii"))
        with open(self.path, "ab") as handle:
            handle.write(b"".join(lines))
        first = len(self._runs) + 1
        self._runs.extend(
            _parse_line(self.path, number, raw)
            for number, raw in enumerate(lines, first)
        )
        return list(range(first, first + len(lines)))

    # -- queries -------------------------------------------------------
    def scenarios(self) -> List[str]:
        return sorted({run.scenario for run in self._runs})

    def runs(
        self, scenario: Optional[str] = None, limit: Optional[int] = None
    ) -> List[HistoryRun]:
        """Runs in recording order (oldest first), optionally the last N."""
        runs = [
            run for run in self._runs if scenario is None or run.scenario == scenario
        ]
        return runs if limit is None else runs[-limit:]

    def get(self, run_id: int) -> HistoryRun:
        if not 1 <= run_id <= len(self._runs):
            raise KeyError(f"no run #{run_id} in {self.path}")
        return self._runs[run_id - 1]


# ----------------------------------------------------------------------
# Rolling-median + MAD anomaly rule
# ----------------------------------------------------------------------
def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = ordered[n // 2]
    if n % 2 == 0:
        mid = (mid + ordered[n // 2 - 1]) / 2.0
    return mid


def mad_anomalies(
    values: Sequence[Optional[float]],
    window: int = TREND_WINDOW,
    k: float = TREND_MAD_K,
    min_points: int = TREND_MIN_POINTS,
) -> List[bool]:
    """Flag each point against the trailing window of *prior* points.

    A point is anomalous when ``|x - median| > k * scale`` over the up
    to ``window`` preceding non-None values, with
    ``scale = max(1.4826 * MAD, |median| * 0.001, 1e-12)``: the MAD
    floor tolerates a window of identical values (MAD 0) without
    flagging float dust, while 1.4826 makes MAD commensurate with a
    standard deviation.  Points with fewer than ``min_points`` prior
    values are never flagged (no basis to judge).
    """
    flags: List[bool] = []
    history: List[float] = []
    for value in values:
        if value is None:
            flags.append(False)
            continue
        prior = history[-window:]
        if len(prior) < min_points:
            flags.append(False)
        else:
            med = _median(prior)
            mad = _median([abs(x - med) for x in prior])
            scale = max(MAD_SIGMA * mad, abs(med) * 0.001, 1e-12)
            flags.append(abs(value - med) > k * scale)
        history.append(value)
    return flags


@dataclasses.dataclass
class MetricTrend:
    """One metric's recorded series plus its anomaly flags."""

    scenario: str
    name: str
    unit: str
    direction: str
    kind: str
    run_ids: List[int]
    values: List[Optional[float]]
    anomalies: List[bool]

    @property
    def latest(self) -> Optional[float]:
        present = [v for v in self.values if v is not None]
        return present[-1] if present else None

    @property
    def latest_anomalous(self) -> bool:
        return bool(self.anomalies) and self.anomalies[-1]

    @property
    def anomaly_count(self) -> int:
        return sum(1 for flag in self.anomalies if flag)


def metric_trends(
    runs: Sequence[HistoryRun],
    window: int = TREND_WINDOW,
    k: float = TREND_MAD_K,
) -> List[MetricTrend]:
    """Per-metric trends over one scenario's runs (oldest first)."""
    if not runs:
        return []
    scenario = runs[0].scenario
    names: List[str] = []
    specs: Dict[str, dict] = {}
    for run in runs:
        for name, entry in (run.payload.get("metrics") or {}).items():
            if name not in specs:
                names.append(name)
                specs[name] = entry
    trends = []
    for name in sorted(names):
        spec = specs[name]
        values = [
            (run.payload.get("metrics") or {}).get(name, {}).get("value")
            for run in runs
        ]
        trends.append(
            MetricTrend(
                scenario=scenario,
                name=name,
                unit=spec.get("unit", ""),
                direction=spec.get("direction", "lower"),
                kind=spec.get("kind", "count"),
                run_ids=[run.run_id for run in runs],
                values=values,
                anomalies=mad_anomalies(values, window=window, k=k),
            )
        )
    return trends


def _spark(values: Sequence[Optional[float]]) -> str:
    """Unicode sparkline for terminal trend tables ('·' = missing)."""
    blocks = "▁▂▃▄▅▆▇█"
    present = [v for v in values if v is not None]
    if not present:
        return ""
    lo, hi = min(present), max(present)
    span = hi - lo
    chars = []
    for value in values:
        if value is None:
            chars.append("·")
        elif span <= 0:
            chars.append(blocks[0])
        else:
            chars.append(blocks[min(7, int((value - lo) / span * 7.999))])
    return "".join(chars)


def render_trends(trends: Sequence[MetricTrend], anomalies_only: bool = False) -> str:
    """Deterministic trend table for one scenario."""
    if not trends:
        return "(no runs recorded)"
    lines = [
        f"=== trend: {trends[0].scenario} "
        f"({len(trends[0].values)} run(s)) ===",
        f"  {'metric':<28} {'latest':>12} {'unit':<10} "
        f"{'anomalies':>9}  series",
    ]
    shown = 0
    for trend in trends:
        if anomalies_only and not trend.anomaly_count:
            continue
        shown += 1
        latest = "-" if trend.latest is None else f"{trend.latest:.4g}"
        flag = " <- ANOMALY" if trend.latest_anomalous else ""
        lines.append(
            f"  {trend.name:<28} {latest:>12} {trend.unit:<10} "
            f"{trend.anomaly_count:>9}  {_spark(trend.values)}{flag}"
        )
    if not shown:
        lines.append("  (no anomalies)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Batch summaries as history payloads
# ----------------------------------------------------------------------
def batch_report_payload(report) -> dict:
    """Wrap a :class:`repro.service.batch.BatchReport` as a bench payload.

    This is what ``python -m repro batch --history DB`` records: job
    status counts and cache behavior as deterministic count metrics,
    wall time as a (non-gating) time metric, plus the same
    schedule-quality aggregates bench scenarios carry.
    """
    from repro.obs.bench import (
        BENCH_SCHEMA,
        corpus_aggregates,
        metric,
        wrap_payload,
    )

    counts = report.counts()
    metrics = {
        "jobs": metric(len(report.results), "loops", direction="higher"),
        "jobs_ok": metric(counts.get("ok", 0), "loops", direction="higher"),
        "jobs_cached": metric(
            counts.get("cached", 0), "loops", direction="higher"
        ),
        "jobs_failed": metric(
            counts.get("failed", 0) + counts.get("timeout", 0)
            + counts.get("crashed", 0),
            "loops",
            direction="lower",
        ),
        "wall_s": metric(
            report.wall_seconds, "s", direction="lower", kind="time"
        ),
        "pool_utilization": metric(
            report.pool.utilization, "fraction", direction="higher",
            kind="time",
        ),
    }
    if report.cache is not None:
        metrics["cache_hits"] = metric(
            report.cache.hits, "hits", direction="higher"
        )
    metrics.update(corpus_aggregates(report.loop_metrics))
    return wrap_payload(
        BENCH_SCHEMA,
        {
            "scenario": "batch-cli",
            "description": "batch CLI run summary",
            "metrics": metrics,
            "profile": None,
        },
    )


# ----------------------------------------------------------------------
# CLI (python -m repro history ...)
# ----------------------------------------------------------------------
def positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (0 and -1 would slice otherwise)."""
    import argparse

    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


def positive_float(text: str) -> float:
    """argparse type: a number > 0."""
    import argparse

    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be a number > 0, got {value}")
    return value


def _record_main(args) -> int:
    try:
        recorded = HistoryStore(args.db).record_paths(args.paths)
    except (OSError, ValueError) as error:
        print(f"error: {error}")
        return 2
    for scenario, run_id in recorded:
        print(f"recorded {scenario} as run #{run_id}")
    print(f"history: {len(recorded)} run(s) -> {args.db}")
    return 0


def _show_main(args) -> int:
    store = HistoryStore(args.db)
    scenarios = [args.scenario] if args.scenario else store.scenarios()
    if not scenarios:
        print("(empty history)")
        return 0
    out = []
    for scenario in scenarios:
        runs = store.runs(scenario, limit=args.limit)
        if args.json:
            out.extend(
                {
                    "run_id": run.run_id,
                    "scenario": run.scenario,
                    "git_sha": run.git_sha,
                    "recorded_unix": run.recorded_unix,
                    "payload": run.payload,
                }
                for run in runs
            )
            continue
        print(f"=== {scenario} ({len(runs)} run(s)) ===")
        for run in runs:
            sha = (run.git_sha or "-")[:12]
            n_metrics = len(run.payload.get("metrics") or {})
            print(
                f"  #{run.run_id:<5} sha={sha:<12} "
                f"python={run.python or '-':<8} "
                f"cpus={run.cpu_count if run.cpu_count is not None else '-':<3} "
                f"{n_metrics} metric(s)"
            )
    if args.json:
        print(canonical_dumps(out, indent=2))
    return 0


def _trend_main(args) -> int:
    store = HistoryStore(args.db)
    scenarios = [args.scenario] if args.scenario else store.scenarios()
    if not scenarios:
        print("(empty history)")
        return 0
    anomalous = 0
    payload = []
    for scenario in scenarios:
        runs = store.runs(scenario, limit=args.limit)
        trends = metric_trends(runs, window=args.window, k=args.mad_k)
        anomalous += sum(trend.anomaly_count for trend in trends)
        if args.json:
            payload.extend(
                {
                    "scenario": trend.scenario,
                    "metric": trend.name,
                    "unit": trend.unit,
                    "run_ids": trend.run_ids,
                    "values": trend.values,
                    "anomalies": trend.anomalies,
                }
                for trend in trends
            )
        else:
            print(render_trends(trends, anomalies_only=args.anomalies_only))
    if args.json:
        print(canonical_dumps(payload, indent=2))
    if args.fail_on_anomaly and anomalous:
        print(f"FAIL: {anomalous} anomalous point(s) in the history")
        return 1
    return 0


def _compare_main(args) -> int:
    store = HistoryStore(args.db)
    if (args.old is None) != (args.new is None):
        print("error: pass both --old and --new, or neither")
        return 2
    if args.old is not None:
        try:
            pairs = [(store.get(args.old), store.get(args.new))]
        except KeyError as error:
            print(f"error: {error}")
            return 2
    else:
        scenarios = [args.scenario] if args.scenario else store.scenarios()
        pairs = []
        for scenario in scenarios:
            runs = store.runs(scenario)
            if len(runs) < 2:
                print(f"{scenario}: fewer than two runs recorded; skipping")
                continue
            pairs.append((runs[-2], runs[-1]))
    if not pairs:
        print("error: nothing to compare")
        return 2

    exit_code = 0
    for old_run, new_run in pairs:
        print(
            f"=== compare: {new_run.scenario} "
            f"run #{old_run.run_id} -> #{new_run.run_id} ==="
        )
        deltas = print_comparison(
            {new_run.scenario: old_run.payload},
            {new_run.scenario: new_run.payload},
            threshold=args.threshold,
            iqr_factor=args.iqr_factor,
            gate_time=args.gate_time,
        )
        if args.fail_on_regress and gating_regressions(deltas):
            exit_code = 1
    if exit_code:
        print("FAIL: gating regression(s) detected")
    return exit_code


def build_history_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro history",
        description="Append-only bench/batch history: record envelopes, "
        "trend metrics with a rolling-median + MAD anomaly rule, and "
        "compare runs with span-level regression attribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="ingest BENCH_*.json files")
    record.add_argument("--db", required=True, help="history JSON-lines path")
    record.add_argument(
        "paths", nargs="+", help="BENCH_*.json files or directories"
    )

    show = sub.add_parser("show", help="list recorded runs")
    show.add_argument("--db", required=True)
    show.add_argument("--scenario", help="restrict to one scenario")
    show.add_argument(
        "--limit", type=positive_int, help="last N runs per scenario"
    )
    show.add_argument("--json", action="store_true", help="emit JSON")

    trend = sub.add_parser(
        "trend", help="rolling-median + MAD anomaly scan over each metric"
    )
    trend.add_argument("--db", required=True)
    trend.add_argument("--scenario", help="restrict to one scenario")
    trend.add_argument(
        "--limit", type=positive_int, help="last N runs per scenario"
    )
    trend.add_argument(
        "--window", type=positive_int, default=TREND_WINDOW,
        help=f"trailing window size (default {TREND_WINDOW})",
    )
    trend.add_argument(
        "--mad-k", type=positive_float, default=TREND_MAD_K,
        help=f"anomaly threshold in MAD sigmas (default {TREND_MAD_K})",
    )
    trend.add_argument(
        "--anomalies-only", action="store_true",
        help="list only metrics with anomalous points",
    )
    trend.add_argument(
        "--fail-on-anomaly", action="store_true",
        help="exit 1 when any anomalous point exists",
    )
    trend.add_argument("--json", action="store_true", help="emit JSON")

    compare = sub.add_parser(
        "compare",
        help="regress two recorded runs (default: last two per scenario) "
        "with provenance warnings and span-level attribution",
    )
    compare.add_argument("--db", required=True)
    compare.add_argument("--scenario", help="restrict to one scenario")
    compare.add_argument("--old", type=int, help="old run id")
    compare.add_argument("--new", type=int, help="new run id")
    compare.add_argument("--threshold", type=float, default=0.02)
    compare.add_argument("--iqr-factor", type=float, default=2.0)
    compare.add_argument(
        "--gate-time", action="store_true",
        help="let wall-clock regressions gate --fail-on-regress",
    )
    compare.add_argument("--fail-on-regress", action="store_true")
    return parser


def history_main(argv: Optional[List[str]] = None) -> int:
    args = build_history_parser().parse_args(argv)
    handlers = {
        "record": _record_main,
        "show": _show_main,
        "trend": _trend_main,
        "compare": _compare_main,
    }
    try:
        return handlers[args.command](args)
    except (HistoryError, OSError) as error:
        print(f"error: {error}")
        return 2
