"""Post-hoc event-log analysis: ``repro events summarize``.

Folds a structured JSONL event log (:mod:`repro.obs.events`) into a
wall-time breakdown an operator can read after the run:

* **phases** — every ``*_end`` span event (``dur_s``) plus the
  per-point ``point_complete``/``elapsed_s`` stream, rolled up into
  count / total / mean / max seconds per phase;
* **campaigns** — start/end/abort pairing per campaign name with
  points, failures, resumed counts and measured duration;
* **shards** — per-worker busy time, point throughput and chunk
  leases (local shard ids and remote runner names alike);
* **chunks** — lease counts, points per lease, and the loss
  bookkeeping (expired leases, requeues after runner/shard death);
* **top** — the N slowest points, the first place to look when a
  campaign's tail is longer than its body.

Everything is a pure fold over the parsed event list, so it works on
partial logs from crashed runs too — exactly the situation where the
breakdown matters most.
"""

from repro.obs.events import read_events

__all__ = ["format_events_summary", "summarize_events", "summarize_path"]


def _roll(bucket, seconds):
    bucket["count"] += 1
    bucket["total_s"] += seconds
    if seconds > bucket["max_s"]:
        bucket["max_s"] = seconds


def _new_roll():
    return {"count": 0, "total_s": 0.0, "max_s": 0.0}


def summarize_events(events):
    """Fold parsed event dicts into the summary structure."""
    phases = {}
    campaigns = {}
    shards = {}
    chunks = {"leases": 0, "lease_points": 0, "expired": 0,
              "requeued": 0, "requeued_points": 0}
    points = []
    walls = [e["wall"] for e in events
             if isinstance(e.get("wall"), (int, float))]
    for record in events:
        name = record.get("event", "")
        dur = record.get("dur_s")
        if name.endswith("_end") and isinstance(dur, (int, float)):
            _roll(phases.setdefault(name[:-len("_end")], _new_roll()), dur)
        if name == "point_complete":
            elapsed = record.get("elapsed_s")
            if isinstance(elapsed, (int, float)):
                _roll(phases.setdefault("point", _new_roll()), elapsed)
                points.append(record)
                worker = str(record.get("worker", "?"))
                shard = shards.setdefault(
                    worker, {"points": 0, "failed": 0, "busy_s": 0.0,
                             "chunks": 0})
                shard["points"] += 1
                shard["busy_s"] += elapsed
                if not record.get("ok", True):
                    shard["failed"] += 1
        elif name == "campaign_start":
            campaign = campaigns.setdefault(
                record.get("campaign", "?"),
                {"runs": 0, "points": 0, "pending": 0, "resumed": 0,
                 "failed": 0, "aborts": 0, "dur_s": 0.0})
            campaign["runs"] += 1
            campaign["points"] += record.get("points", 0) or 0
            campaign["pending"] += record.get("pending", 0) or 0
            campaign["resumed"] += record.get("resumed", 0) or 0
        elif name == "campaign_end":
            campaign = campaigns.setdefault(
                record.get("campaign", "?"),
                {"runs": 0, "points": 0, "pending": 0, "resumed": 0,
                 "failed": 0, "aborts": 0, "dur_s": 0.0})
            campaign["failed"] += record.get("failed", 0) or 0
            if isinstance(dur, (int, float)):
                campaign["dur_s"] += dur
        elif name == "campaign_abort":
            campaign = campaigns.setdefault(
                record.get("campaign", "?"),
                {"runs": 0, "points": 0, "pending": 0, "resumed": 0,
                 "failed": 0, "aborts": 0, "dur_s": 0.0})
            campaign["aborts"] += 1
            if isinstance(dur, (int, float)):
                campaign["dur_s"] += dur
        elif name == "chunk_lease":
            chunks["leases"] += 1
            chunks["lease_points"] += record.get("points", 0) or 0
            worker = record.get("worker")
            if worker is not None:
                shard = shards.setdefault(
                    str(worker), {"points": 0, "failed": 0,
                                  "busy_s": 0.0, "chunks": 0})
                shard["chunks"] += 1
        elif name == "lease_expired":
            chunks["expired"] += 1
        elif name == "runner_chunk_requeued":
            chunks["requeued"] += 1
            chunks["requeued_points"] += record.get("points", 0) or 0
    points.sort(key=lambda r: r.get("elapsed_s", 0.0), reverse=True)
    return {
        "events": len(events),
        "span_s": (max(walls) - min(walls)) if walls else 0.0,
        "phases": phases,
        "campaigns": campaigns,
        "shards": shards,
        "chunks": chunks,
        "slowest": points,
    }


def summarize_path(path):
    """Read + fold one event-log file; ``None`` when it has no events."""
    events = read_events(path)
    if not events:
        return None
    return summarize_events(events)


def _fmt_s(seconds):
    return f"{seconds:,.2f}s"


def format_events_summary(summary, top=10, source=None):
    """The summary as the multi-table terminal report."""
    from repro.analysis.report import format_table

    lines = []
    title = "event log summary"
    if source:
        title += f" — {source}"
    lines.append(title)
    lines.append(f"events    : {summary['events']:,} over "
                 f"{_fmt_s(summary['span_s'])} of wall time")

    phases = summary["phases"]
    if phases:
        rows = [[phase, bucket["count"], _fmt_s(bucket["total_s"]),
                 _fmt_s(bucket["total_s"] / bucket["count"]),
                 _fmt_s(bucket["max_s"])]
                for phase, bucket in sorted(
                    phases.items(),
                    key=lambda kv: kv[1]["total_s"], reverse=True)]
        lines.append(format_table(
            ["phase", "count", "total", "mean", "max"], rows,
            title="wall time by phase"))

    campaigns = summary["campaigns"]
    if campaigns:
        rows = [[name, c["runs"], c["points"], c["pending"],
                 c["resumed"], c["failed"], c["aborts"],
                 _fmt_s(c["dur_s"])]
                for name, c in sorted(campaigns.items())]
        lines.append(format_table(
            ["campaign", "runs", "points", "pending", "resumed",
             "failed", "aborts", "time"], rows, title="campaigns"))

    shards = summary["shards"]
    if shards:
        def shard_key(kv):
            return (0, int(kv[0]), "") if kv[0].isdigit() \
                else (1, 0, kv[0])
        rows = [[worker, s["points"], s["failed"], s["chunks"],
                 _fmt_s(s["busy_s"])]
                for worker, s in sorted(shards.items(), key=shard_key)]
        lines.append(format_table(
            ["shard", "points", "failed", "chunks", "busy"], rows,
            title="shards and runners"))

    chunks = summary["chunks"]
    if chunks["leases"]:
        mean = chunks["lease_points"] / chunks["leases"]
        line = (f"chunks    : {chunks['leases']} lease(s), "
                f"{chunks['lease_points']} point(s) "
                f"({mean:,.1f}/lease)")
        if chunks["expired"] or chunks["requeued"]:
            line += (f"; {chunks['expired']} expired, "
                     f"{chunks['requeued']} requeued "
                     f"({chunks['requeued_points']} point(s))")
        lines.append(line)

    slowest = summary["slowest"][:max(0, top)]
    if slowest:
        rows = [[record.get("point_id", "?"),
                 str(record.get("worker", "?")),
                 "ok" if record.get("ok", True) else "FAIL",
                 _fmt_s(record.get("elapsed_s", 0.0))]
                for record in slowest]
        lines.append(format_table(
            ["point", "shard", "status", "elapsed"], rows,
            title=f"slowest {len(rows)} point(s)"))
    return "\n".join(lines)
