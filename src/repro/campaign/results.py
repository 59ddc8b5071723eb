"""Campaign results: per-point records, JSONL persistence, aggregation.

Every completed point becomes a :class:`PointResult`; a
:class:`ResultStore` appends each one as a JSON line the moment it
lands (so a killed campaign loses at most in-flight points and
``--resume`` can pick up from the file), and
:func:`aggregate`/:func:`format_summary` reduce a finished campaign to
the deterministic summary the CLI prints.

JSONL rows carry nondeterministic bookkeeping (wall-clock, worker id);
the aggregate and summary deliberately exclude it, so serial and
sharded campaigns over the same spec produce byte-identical summaries.
"""

import json
import os
import warnings
from dataclasses import dataclass, field

from repro.analysis.report import format_table
from repro.analysis.stats import mean


class _Loaded(dict):
    """``{point_id: PointResult}`` plus the count of corrupt rows the
    load skipped."""

    corrupt_rows_skipped = 0


@dataclass
class PointResult:
    """Outcome of one campaign point."""

    point_id: str
    index: int
    ok: bool
    metrics: dict = field(default_factory=dict)
    error: str = None
    elapsed_s: float = 0.0
    worker: int = 0

    def to_row(self):
        return {"point_id": self.point_id, "index": self.index,
                "ok": self.ok, "metrics": self.metrics,
                "error": self.error, "elapsed_s": self.elapsed_s,
                "worker": self.worker}

    @classmethod
    def from_row(cls, row):
        return cls(point_id=row["point_id"], index=row["index"],
                   ok=row["ok"], metrics=row.get("metrics", {}),
                   error=row.get("error"),
                   elapsed_s=row.get("elapsed_s", 0.0),
                   worker=row.get("worker", 0))


class ResultStore:
    """Append-only JSONL sink (``path=None`` keeps rows in memory)."""

    def __init__(self, path=None):
        self.path = path
        self.rows = []
        self._handle = None

    def _open(self):
        """Open for append, healing a missing final newline first.

        A campaign killed mid-write leaves a truncated last line with
        no newline; appending straight after it would merge the next
        row into the corrupt line and lose it too.  The heal runs in
        binary mode: a text-mode seek into the middle of a multi-byte
        character would raise instead of healing.
        """
        try:
            with open(self.path, "rb+") as raw:
                end = raw.seek(0, os.SEEK_END)
                if end > 0:
                    raw.seek(end - 1)
                    if raw.read(1) != b"\n":
                        raw.write(b"\n")
        except FileNotFoundError:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
        return open(self.path, "a", encoding="utf-8")

    def __enter__(self):
        if self.path is not None:
            self._handle = self._open()
        return self

    def __exit__(self, *exc_info):
        self.close()

    def append(self, result):
        row = result.to_row()
        self.rows.append(row)
        if self.path is not None:
            if self._handle is None:
                self._handle = self._open()
            self._handle.write(json.dumps(row, sort_keys=True) + "\n")
            self._handle.flush()

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @staticmethod
    def load(path):
        """Read stored rows as ``{point_id: PointResult}``.

        Later rows win (a re-run of a previously failed point
        supersedes the failure).  A corrupt row — most commonly a
        trailing line truncated when a campaign was killed mid-write —
        is skipped rather than aborting the resume: the point it would
        have recorded simply re-runs.  The returned dict's
        ``corrupt_rows_skipped`` counts the skipped rows (the executor
        surfaces it in the end-of-run summary and the live status), so
        corruption is visible even when the warning scrolled away.
        """
        results = _Loaded()
        # errors="replace": an undecodable (half-written) row must land
        # in the per-line JSON guard below, not abort the whole load.
        with open(path, "r", encoding="utf-8",
                  errors="replace") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    result = PointResult.from_row(json.loads(line))
                except (ValueError, KeyError, TypeError) as exc:
                    results.corrupt_rows_skipped += 1
                    warnings.warn(
                        f"{path}:{lineno}: skipping corrupt result row "
                        f"({type(exc).__name__}: {exc}); the point will "
                        f"re-run", RuntimeWarning, stacklevel=2)
                    continue
                results[result.point_id] = result
        return results

    @staticmethod
    def completed_ids(path):
        """Point ids recorded as OK (the set ``--resume`` skips)."""
        return {pid for pid, r in ResultStore.load(path).items() if r.ok}


# -- aggregation ----------------------------------------------------------

def aggregate(results):
    """Cross-point totals (deterministic: no timing fields)."""
    ok = [r for r in results if r.ok]
    failed = [r for r in results if not r.ok]
    injections = sum(r.metrics.get("injections", 0) for r in ok)
    detected = sum(r.metrics.get("detected", 0) for r in ok)
    latencies = [lat for r in ok
                 for lat in r.metrics.get("latencies_ns", [])]
    summary = {
        "points": len(results),
        "ok": len(ok),
        "failed": len(failed),
        "total_cycles": sum(r.metrics.get("cycles", 0) for r in ok),
        "total_instructions": sum(r.metrics.get("instructions", 0)
                                  for r in ok),
        "injections": injections,
        "detected": detected,
    }
    if injections:
        summary["detection_rate"] = detected / injections
    if latencies:
        summary["mean_latency_ns"] = mean(latencies)
        summary["worst_latency_ns"] = max(latencies)
    return summary


def _slowdown_denominators(spec, results):
    """vanilla cycles per (workload, seed, instructions) cell."""
    baselines = {}
    by_index = {r.index: r for r in results}
    for i, point in enumerate(spec.points):
        result = by_index.get(i)
        if (point.task == "vanilla" and result is not None and result.ok
                and result.metrics.get("cycles")):
            key = (point.workload, point.seed, point.instructions)
            baselines[key] = result.metrics["cycles"]
    return baselines


def format_summary(spec, results, corrupt_rows_skipped=0):
    """Render the campaign summary table + aggregate footer.

    Rows are emitted in spec order and carry only deterministic
    metrics, so the output is byte-identical for any ``--jobs``.
    ``corrupt_rows_skipped`` (from
    :attr:`~repro.campaign.executor.CampaignResult.corrupt_rows_skipped`)
    adds a footer line when a resume had to skip damaged store rows.
    """
    baselines = _slowdown_denominators(spec, results)
    by_index = {r.index: r for r in results}
    rows = []
    for i, point in enumerate(spec.points):
        result = by_index.get(i)
        if result is None:
            rows.append([point.point_id, "missing", "", "", "", ""])
            continue
        if not result.ok:
            reason = (result.error or "error").splitlines()[-1][:40]
            rows.append([point.point_id, "FAILED", "", "", "", reason])
            continue
        metrics = result.metrics
        cycles = (f"{metrics['cycles']:.0f}"
                  if metrics.get("cycles") is not None else "")
        base = baselines.get((point.workload, point.seed,
                              point.instructions))
        slow = (f"{metrics['cycles'] / base:.3f}"
                if base and point.task != "vanilla"
                and metrics.get("cycles") else "")
        faults = (f"{metrics['detected']}/{metrics['injections']}"
                  if metrics.get("injections") else "")
        rows.append([point.point_id, "ok", cycles, slow, faults, ""])
    table = format_table(
        ["point", "status", "cycles", "slowdown", "det/inj", "note"],
        rows, title=f"Campaign — {spec.name} ({len(spec.points)} points)")
    agg = aggregate(results)
    footer = (f"\npoints: {agg['ok']}/{agg['points']} ok"
              f" ({agg['failed']} failed)")
    if agg["injections"]:
        footer += (f"; faults {agg['detected']}/{agg['injections']}"
                   f" detected ({agg['detection_rate']:.1%})")
    if "mean_latency_ns" in agg:
        footer += (f"; latency mean {agg['mean_latency_ns']:.0f} ns"
                   f" worst {agg['worst_latency_ns']:.0f} ns")
    if corrupt_rows_skipped:
        footer += (f"\ncorrupt store rows skipped on resume: "
                   f"{corrupt_rows_skipped} (those points re-ran)")
    return table + footer + "\n"
