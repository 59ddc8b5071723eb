"""Benchmark trend history: BENCH runs as a time series.

``repro bench --check`` guards against *floor violations* — a binary
gate with a generous tolerance.  A slow bleed (each PR giving back 5%)
passes every individual check and still loses the speedup over a
quarter.  This module makes the trajectory itself visible:

* :func:`append_history` — after every bench run, one compact JSONL
  record (git SHA, timestamp, the regression-stable metrics) is
  appended to ``benchmarks/BENCH_history.jsonl``;
* :func:`format_trend` — ``repro bench --trend`` renders each
  metric's recorded trajectory as a sparkline plus first/last/delta,
  so a drift reads as a sagging line instead of a sequence of
  individually-acceptable checks;
* :func:`trend_violations` — the slope gate behind ``repro bench
  --trend``'s exit code: a metric whose fitted trailing-window slope
  loses more than the tolerance is a regression even though every
  individual run stayed above its floor.

Only ratio/throughput metrics are recorded — the same ones
:mod:`repro.perf.regress` floors — because they are what trends
meaningfully across commits.  A series is one metric under one bench
config: a run with a different config (say, a new batch lane count)
starts a new series instead of reading as a slope in the old one.
"""

import json
import os
import subprocess

HISTORY_SCHEMA = 1

#: Default history file, colocated with the benchmark drivers.
DEFAULT_HISTORY_PATH = os.path.join("benchmarks", "BENCH_history.jsonl")

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def git_sha(cwd=None):
    """The current short commit SHA, or ``None`` outside a checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=cwd,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=10.0)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.decode("ascii", "replace").strip() or None


def history_record(result, sha=None, unix=None):
    """Reduce one ``run_bench`` result to its trend-worthy metrics."""
    import time

    batch_kernel = result.get("batch_kernel")
    record = {
        "schema": HISTORY_SCHEMA,
        "unix": time.time() if unix is None else unix,
        "git_sha": sha,
        "config": {
            "instructions": result.get("config", {}).get("instructions"),
            "cores": result.get("config", {}).get("cores"),
            "batch_kernel": ({key: batch_kernel.get(key) for key in
                              ("workload", "instructions", "rate", "lanes")}
                             if batch_kernel else None),
        },
        "metrics": {},
    }
    metrics = record["metrics"]
    for workload, systems in (result.get("workloads") or {}).items():
        for system, values in systems.items():
            rate = values.get("instrs_per_s")
            if rate:
                metrics[f"{workload}/{system}/instrs_per_s"] = rate
    kernels = result.get("kernels") or {}
    for key in ("meek_speedup", "vanilla_speedup"):
        if kernels.get(key):
            metrics[f"kernels/{key}"] = kernels[key]
    for section, key in (("warm_start", "warm_speedup"),
                         ("batch", "batch_speedup"),
                         ("campaign", "pool_speedup"),
                         ("batch_kernel", "batch_speedup"),
                         ("batch_kernel", "batched_points_per_s")):
        value = (result.get(section) or {}).get(key)
        if value:
            metrics[f"{section}/{key}"] = value
    for figure, values in (result.get("figures") or {}).items():
        if values.get("wall_s"):
            metrics[f"figures/{figure}/wall_s"] = values["wall_s"]
    return record


def append_history(result, path=DEFAULT_HISTORY_PATH, sha=None):
    """Append one bench run to the history file; returns the record.

    Failures (read-only checkout, missing directory that cannot be
    created) are swallowed — history is observability, not a gate.
    """
    if sha is None:
        sha = git_sha()
    record = history_record(result, sha=sha)
    try:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError:
        return None
    return record


def load_history(path=DEFAULT_HISTORY_PATH):
    """All parseable history records, in file (= chronological) order."""
    records = []
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict) and "metrics" in record:
                    records.append(record)
    except OSError:
        pass
    return records


def sparkline(values):
    """``values`` as a block-character sparkline (min→max scaled)."""
    if not values:
        return ""
    low, high = min(values), max(values)
    if high <= low:
        return _SPARK_LEVELS[0] * len(values)
    span = high - low
    top = len(_SPARK_LEVELS) - 1
    return "".join(
        _SPARK_LEVELS[round((value - low) / span * top)]
        for value in values)


def _series_config(record, metric):
    """The bench config ``metric``'s value in ``record`` was measured
    under: the ``batch_kernel`` section's own config for its metrics,
    the run config without that section for every other metric."""
    config = record.get("config") or {}
    if metric.startswith("batch_kernel/"):
        return config.get("batch_kernel")
    return {key: value for key, value in config.items()
            if key != "batch_kernel"}


def metric_series(records, skip_walls=False):
    """``{label: [value, ...]}``, one series per (metric, bench config)
    in first-seen order.  The label is the metric name, with the config
    appended only when the metric was recorded under more than one."""
    series = {}
    for record in records:
        for metric, value in (record.get("metrics") or {}).items():
            if skip_walls and metric.endswith("/wall_s"):
                continue
            config = json.dumps(_series_config(record, metric),
                                sort_keys=True)
            series.setdefault((metric, config), []).append(value)
    configs_per_metric = {}
    for metric, _ in series:
        configs_per_metric[metric] = configs_per_metric.get(metric, 0) + 1
    labelled = {}
    for (metric, config), values in series.items():
        if configs_per_metric[metric] > 1:
            scope = json.loads(config) or {}
            metric = "{} [{}]".format(metric, ",".join(
                f"{key}={value}" for key, value in sorted(scope.items())))
        labelled[metric] = values
    return labelled


#: Runs a metric needs before the slope check judges it.
TREND_MIN_RUNS = 4


def trend_violations(records, window=6, tolerance=0.15,
                     min_runs=TREND_MIN_RUNS):
    """Sustained-slope regressions across the trailing ``window`` runs.

    The floor check (:mod:`repro.perf.regress`) is a binary gate: a
    slow bleed of a few percent per commit passes every run.  This
    check catches the bleed itself — for each recorded higher-is-better
    metric (throughputs and speedup ratios; ``wall_s`` walls are
    excluded as lower-is-better and machine-noisy), a least-squares
    line is fitted over the trailing ``window`` values, and the fitted
    end-to-end decline relative to the window mean must stay within
    ``tolerance``.  Metrics with fewer than ``min_runs`` recorded runs
    are skipped — one noisy pair of runs is not a trend.

    Each (metric, bench config) pair is its own series
    (:func:`metric_series`), so a config change is never a slope.

    Returns a list of dicts ``{"metric", "runs", "first", "latest",
    "fitted_decline"}``, empty when no slope regression.
    """
    series = metric_series(records, skip_walls=True)
    violations = []
    for metric, values in series.items():
        values = values[-window:]
        n = len(values)
        if n < min_runs:
            continue
        mean_value = sum(values) / n
        if mean_value <= 0:
            continue
        # Least-squares slope over run index 0..n-1.
        x_mean = (n - 1) / 2.0
        denom = sum((i - x_mean) ** 2 for i in range(n))
        slope = sum((i - x_mean) * (v - mean_value)
                    for i, v in enumerate(values)) / denom
        fitted_decline = -(slope * (n - 1)) / mean_value
        if fitted_decline > tolerance:
            violations.append({
                "metric": metric,
                "runs": n,
                "first": values[0],
                "latest": values[-1],
                "fitted_decline": fitted_decline,
            })
    return violations


def format_trend_violations(violations, runs, window=6, tolerance=0.15):
    """Render the slope-check verdict under the trend table.

    ``runs`` is the number of recorded runs; below
    :data:`TREND_MIN_RUNS` the check had nothing to judge, and says so
    instead of reporting OK.
    """
    if runs < TREND_MIN_RUNS:
        return (f"trend check   : insufficient history: {runs} < "
                f"{TREND_MIN_RUNS} runs (slope check not applied)")
    if not violations:
        return (f"trend check   : OK (no metric declining more than "
                f"{tolerance:.0%} over its last {window} runs)")
    lines = [f"trend check   : {len(violations)} slope regression(s) "
             f"(fitted decline > {tolerance:.0%} over {window} runs)"]
    lines.extend(
        f"  DECLINING   : {v['metric']}: {v['first']:,.2f} -> "
        f"{v['latest']:,.2f} over {v['runs']} runs "
        f"(fitted {v['fitted_decline']:+.1%} decline)"
        for v in violations)
    return "\n".join(lines)


def format_trend(records, last=20):
    """Render per-metric trajectories across the recorded runs.

    Shows the trailing ``last`` runs per series (one per metric and
    bench config, :func:`metric_series`): sparkline, first/latest
    value, and the relative change across the shown window.  Series
    are ordered as first seen so related ones stay adjacent.
    """
    from repro.analysis.report import format_table

    if not records:
        return ("bench trend   : no history recorded yet "
                "(run `repro bench` to start one)")
    series = metric_series(records)
    rows = []
    for metric, values in series.items():
        values = values[-last:]
        first, latest = values[0], values[-1]
        change = (latest - first) / first if first else 0.0
        rows.append([metric, len(values), sparkline(values),
                     f"{first:,.2f}", f"{latest:,.2f}", f"{change:+.1%}"])
    shas = [r.get("git_sha") or "?" for r in records[-last:]]
    title = (f"Bench trend — {len(records)} run(s) recorded, "
             f"showing last {min(last, len(records))} "
             f"({shas[0]}..{shas[-1]})")
    return format_table(
        ["metric", "runs", "trend", "first", "latest", "change"],
        rows, title=title)
