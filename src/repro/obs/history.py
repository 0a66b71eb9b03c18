"""Append-only bench history: a JSON-lines file of payloads, MAD trends.

Line *n* of the file is run #*n*, written as ``canonical_dumps({"payload",
"recorded_unix", "scenario"})``, so recording the same inputs twice
yields byte-identical lines modulo the timestamp/SHA provenance fields.
``benchmarks/history.jsonl`` is the committed trajectory: the pipeline
benchmark's medians per workload (``pipeline.<workload>``) and
``batch --history`` summaries (``batch-cli``).

Every payload is one envelope (schema ``repro.bench``, version 1; see
DESIGN.md), built by :func:`wrap_payload` around self-describing metric
entries::

    {"value": 1.84, "unit": "s", "direction": "lower",
     "kind": "time", "iqr": 0.02}

``direction`` says which way is better; ``kind`` separates wall-clock
metrics (machine-dependent, gated only with ``--gate-time``) from
deterministic ones (identical on every machine for a given corpus, so
any delta is a real behavior change).  :func:`payload_problem` checks
an envelope and each of its entries; a file that fails it is never
recorded, and a line that fails it raises :class:`HistoryError` naming
``path:line``.  A file has one writer at a time, so appends take no
lock.

Three queries ride on the file:

``trend``
    A rolling-median + MAD anomaly rule over each metric's series.
    Each point is judged against the trailing window of *prior* points:
    flag when ``|x - median| > k * scale`` with
    ``scale = max(1.4826 * MAD, |median| * 0.001, 1e-12)`` — robust to
    the occasional outlier in the window itself, and able to see slow
    drifts a single committed baseline cannot.

``compare``
    The :mod:`repro.obs.regress` noise model between any two recorded
    runs (default: the last two per scenario): the delta table and
    provenance-mismatch warnings.

``show``/``record``
    Plain inventory and ingestion of payload files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import subprocess
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.canonical import canonical_dump, canonical_dumps
from repro.obs.regress import gating_regressions, print_comparison

#: MAD anomaly rule defaults (see module docstring).
TREND_WINDOW = 8
TREND_MAD_K = 3.5
#: Scale factor making MAD a consistent sigma estimator under normality.
MAD_SIGMA = 1.4826
#: A point needs at least this many prior points to be judged.
TREND_MIN_POINTS = 4

#: Bump when a payload's structure changes incompatibly.  Loaders
#: refuse other versions rather than mis-reading them.
BENCH_SCHEMA = "repro.bench"
BENCH_SCHEMA_VERSION = 1

#: Schema tag for ``--metrics-out`` dumps of a MetricsRegistry.
METRICS_SCHEMA = "repro.metrics"

#: The keys of one metric entry, and the values two of them may take.
_METRIC_KEYS = ("direction", "iqr", "kind", "unit", "value")
_DIRECTIONS = ("lower", "higher")
_KINDS = ("time", "count")


# ----------------------------------------------------------------------
# The payload envelope
# ----------------------------------------------------------------------
def git_sha() -> Optional[str]:
    """Current commit SHA, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def wrap_payload(schema: str, body: dict) -> dict:
    """Stamp a body with schema/version/provenance envelope fields."""
    return {
        "schema": schema,
        "schema_version": BENCH_SCHEMA_VERSION,
        "created_unix": time.time(),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        **body,
    }


def write_json(path: str, payload: dict) -> None:
    """Write one payload as canonical (sorted-key) pretty JSON."""
    canonical_dump(payload, path, indent=2)


def _finite_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _metric_problem(name: str, entry) -> Optional[str]:
    """Why ``entry`` is not what :func:`metric` builds, or None."""
    if not isinstance(entry, dict) or tuple(sorted(entry)) != _METRIC_KEYS:
        return f"metric {name!r}: expected keys {', '.join(_METRIC_KEYS)}"
    if not _finite_number(entry["value"]):
        return f"metric {name!r}: value {entry['value']!r} is not a finite number"
    if not _finite_number(entry["iqr"]):
        return f"metric {name!r}: iqr {entry['iqr']!r} is not a finite number"
    if not isinstance(entry["unit"], str):
        return f"metric {name!r}: unit {entry['unit']!r} is not a string"
    if entry["direction"] not in _DIRECTIONS:
        return f"metric {name!r}: direction {entry['direction']!r} is not lower/higher"
    if entry["kind"] not in _KINDS:
        return f"metric {name!r}: kind {entry['kind']!r} is not time/count"
    return None


def payload_problem(payload) -> Optional[str]:
    """Why ``payload`` is not a supported bench envelope, or None."""
    found = payload.get("schema") if isinstance(payload, dict) else None
    if found != BENCH_SCHEMA:
        return f"expected schema {BENCH_SCHEMA!r}, found {found!r}"
    if payload.get("schema_version") != BENCH_SCHEMA_VERSION:
        return (
            f"schema version {payload.get('schema_version')!r} "
            f"!= supported {BENCH_SCHEMA_VERSION}"
        )
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        return f"metrics {metrics!r} is not an object"
    for name, entry in metrics.items():
        problem = _metric_problem(name, entry)
        if problem:
            return problem
    return None


def load_payload(path: str) -> dict:
    """Load and check one bench payload file."""
    with open(path) as handle:
        payload = json.load(handle)
    problem = payload_problem(payload)
    if problem:
        raise ValueError(f"{path}: {problem}")
    return payload


def metric(
    value: float,
    unit: str,
    direction: str = "lower",
    kind: str = "count",
    iqr: float = 0.0,
) -> dict:
    """One self-describing metric entry (see module docstring)."""
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be 'lower' or 'higher', got {direction!r}")
    if kind not in _KINDS:
        raise ValueError(f"kind must be 'time' or 'count', got {kind!r}")
    return {
        "value": float(value),
        "unit": unit,
        "direction": direction,
        "kind": kind,
        "iqr": float(iqr),
    }


def corpus_aggregates(loop_metrics) -> Dict[str, dict]:
    """Deterministic schedule-quality aggregates over LoopMetrics.

    These are machine-independent for a fixed corpus: the scheduler is
    deterministic, so *any* delta between two runs at the same corpus
    size is a behavior change, not noise.
    """
    scheduled = [m for m in loop_metrics if m.success]
    n = len(loop_metrics)
    ops_scheduled = sum(m.n_ops for m in scheduled)
    sum_ii = sum(m.ii for m in scheduled)
    sum_mii = sum(m.mii for m in scheduled)
    sum_maxlive = sum(m.max_live for m in scheduled)
    sum_minavg = sum(m.min_avg for m in scheduled)
    return {
        "loops": metric(n, "loops", direction="higher"),
        "loops_scheduled": metric(len(scheduled), "loops", direction="higher"),
        "ops_scheduled": metric(ops_scheduled, "ops", direction="higher"),
        "success_rate": metric(
            len(scheduled) / n if n else 0.0, "fraction", direction="higher"
        ),
        "optimality_rate": metric(
            sum(1 for m in scheduled if m.optimal) / n if n else 0.0,
            "fraction",
            direction="higher",
        ),
        "ii_over_mii": metric(
            sum_ii / sum_mii if sum_mii else 0.0, "ratio", direction="lower"
        ),
        "maxlive_over_minavg": metric(
            sum_maxlive / sum_minavg if sum_minavg else 0.0,
            "ratio",
            direction="lower",
        ),
        "attempts_total": metric(
            sum(m.attempts for m in loop_metrics), "attempts", direction="lower"
        ),
        "ejections_total": metric(
            sum(m.ejections for m in loop_metrics), "ejections", direction="lower"
        ),
        "placements_total": metric(
            sum(m.placements for m in loop_metrics), "placements", direction="lower"
        ),
    }


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
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
        """Record payload files, one run each, under their ``scenario``.

        Returns ``[(scenario, run_id), ...]`` in ingestion order.
        Raises ``OSError``/``ValueError`` on unreadable or off-schema
        files — every file is read and checked before the first line is
        appended, so ingestion is all-or-nothing per call.
        """
        entries = []
        for path in paths:
            payload = load_payload(path)
            entries.append((payload.get("scenario") or os.path.basename(path), payload))
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
    direction: str,
    window: int = TREND_WINDOW,
    k: float = TREND_MAD_K,
    min_points: int = TREND_MIN_POINTS,
) -> List[bool]:
    """Flag each point against the trailing window of *prior* points.

    A point is anomalous when it lies on the worse side of the median
    of the up to ``window`` preceding non-None values (above it when
    ``direction`` is "lower", below it when "higher") by more than
    ``k * scale``, with ``scale = max(1.4826 * MAD, |median| * 0.001,
    1e-12)``: the MAD floor tolerates a window of identical values
    (MAD 0) without flagging float dust, while 1.4826 makes MAD
    commensurate with a standard deviation.  A gain is never an
    anomaly.  Points with fewer than ``min_points`` prior values are
    never flagged (no basis to judge).
    """
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be 'lower' or 'higher', got {direction!r}")
    worse = 1.0 if direction == "lower" else -1.0
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
            flags.append(worse * (value - med) > k * scale)
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
        direction = spec.get("direction", "lower")
        values = [
            (run.payload.get("metrics") or {}).get(name, {}).get("value")
            for run in runs
        ]
        trends.append(
            MetricTrend(
                scenario=scenario,
                name=name,
                unit=spec.get("unit", ""),
                direction=direction,
                kind=spec.get("kind", "count"),
                run_ids=[run.run_id for run in runs],
                values=values,
                anomalies=mad_anomalies(values, direction, window=window, k=k),
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
    wall time as a (non-gating) time metric, plus the schedule-quality
    aggregates of :func:`corpus_aggregates`.
    """
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
            old_run.payload,
            new_run.payload,
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
        description="Append-only bench/batch history: record payload files, "
        "trend metrics with a rolling-median + MAD anomaly rule, and "
        "compare runs under a noise model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="ingest bench payload files")
    record.add_argument("--db", required=True, help="history JSON-lines path")
    record.add_argument(
        "paths", nargs="+", help="payload JSON files (schema repro.bench)"
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
        "with provenance warnings",
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
