"""repro.obs — streaming campaign telemetry and live observability.

The paper's headline numbers (detection-latency distributions,
coverage, slowdown) are exactly what campaigns compute — this package
makes them observable *while the campaign runs* instead of only as
JSONL-at-the-end:

* :mod:`repro.obs.metrics` — dependency-free sliding-window rates and
  streaming P² percentile estimators (latency P50/P95/P99 in O(1)
  memory);
* :mod:`repro.obs.events` — an opt-in structured JSONL event log
  (``$REPRO_EVENTS``): campaign/shard/chunk/point/cache lifecycle
  events, monotonic-clocked, multi-process append-safe;
* :mod:`repro.obs.live` — the :class:`LiveStatus` aggregator that
  rides the executor's progress hook and atomically publishes a
  ``status.json`` snapshot next to the result store;
* :mod:`repro.obs.watch` — the ``repro watch`` terminal view that
  tails a snapshot (or replays a finished store) and renders
  percentiles, throughput, shard health and ETA.

Everything here is off the simulation hot path: instruments update at
point/chunk/compile boundaries, events are disabled unless requested,
and publication is throttled and atomic.
"""

from repro.obs.events import (EventLog, event_log, events_enabled,
                              install_event_log, read_events,
                              reset_event_log)
from repro.obs.live import (LiveStatus, load_status, snapshot_from_store,
                            status_path_for)
from repro.obs.metrics import P2Estimator, Quantile, RateWindow
from repro.obs.watch import render_snapshot, resolve_status_source, watch

__all__ = [
    "EventLog",
    "LiveStatus",
    "P2Estimator",
    "Quantile",
    "RateWindow",
    "event_log",
    "events_enabled",
    "install_event_log",
    "load_status",
    "read_events",
    "render_snapshot",
    "reset_event_log",
    "resolve_status_source",
    "snapshot_from_store",
    "status_path_for",
    "watch",
]
