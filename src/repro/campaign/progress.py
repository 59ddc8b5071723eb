"""Campaign progress reporting.

A :class:`ProgressReporter` is the ``progress`` callable
:func:`~repro.campaign.executor.run_campaign` accepts: it counts
completed points and periodically prints a one-line status to stderr
(never stdout — the deterministic summary owns stdout).

The displayed rate is a **sliding-window** rate on the monotonic
clock (:class:`repro.obs.metrics.RateWindow`), not a lifetime
average: long campaigns with slow tails used to show a stale,
flattering points/s that barely moved while the run crawled.  The
window rate — and the ETA derived from it — tracks the current pace.
"""

import sys
import time

from repro.obs.metrics import RateWindow


class ProgressReporter:
    """Throttled one-line progress printer."""

    def __init__(self, total, label="campaign", stream=None,
                 min_interval_s=1.0, rate_window_s=15.0,
                 clock=time.monotonic):
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = min_interval_s
        self.completed = 0
        self.failed = 0
        self._clock = clock
        self._start = clock()
        self._last_print = None
        self._window = RateWindow(rate_window_s, clock=clock)

    def __call__(self, result):
        self.completed += 1
        if not result.ok:
            self.failed += 1
        now = self._clock()
        self._window.tick(1, now=now)
        finished = self.completed >= self.total
        if (not finished and self._last_print is not None
                and now - self._last_print < self.min_interval_s):
            return
        self._last_print = now
        elapsed = now - self._start
        rate = self._window.rate(now=now)
        if rate <= 0.0 and elapsed > 0:
            # Window too young to measure (burst within one tick):
            # fall back to the lifetime average rather than showing 0.
            rate = self.completed / elapsed
        eta = ((self.total - self.completed) / rate) if rate > 0 else 0.0
        line = (f"[{self.label}] {self.completed}/{self.total} points")
        if self.failed:
            line += f" ({self.failed} failed)"
        line += f", {rate:.1f} pts/s, elapsed {elapsed:.1f}s"
        if not finished:
            line += f", eta {eta:.0f}s"
        print(line, file=self.stream, flush=True)
