"""Dependency-free metrics: streaming quantiles and windowed rates.

The observability layer needs the paper's headline quantities —
detection-latency percentiles, throughput, coverage — *while a
campaign is running*, without holding the whole population in memory
and without adding anything to the simulation hot path.  This module
provides the two instruments :class:`~repro.obs.live.LiveStatus` and
:class:`~repro.campaign.progress.ProgressReporter` read:

* :class:`Quantile` — a streaming estimator that tracks several
  percentiles of an unbounded observation stream in O(1) memory using
  the P² algorithm (Jain & Chlamtac, CACM 1985): five markers per
  tracked percentile, updated per observation with a parabolic
  interpolation, exact for the first five observations and within a
  couple of rank percent thereafter.  Detection-latency P50/P95/P99
  update per point without ever storing the latency population.
* :class:`RateWindow` — a sliding-window event rate on the monotonic
  clock (the fix for lifetime-average progress rates that flatline
  misleadingly on long tails).
"""

import time
from collections import deque

__all__ = [
    "P2Estimator",
    "Quantile",
    "RateWindow",
    "exact_percentile",
]


def exact_percentile(values, fraction):
    """Linear-interpolated percentile of a *sorted* sequence.

    Matches ``numpy.percentile(..., method="linear")`` — the ground
    truth the P² estimator is tested against and falls back to while
    it holds fewer than five observations.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if len(values) == 1:
        return values[0]
    position = fraction * (len(values) - 1)
    low = int(position)
    high = min(low + 1, len(values) - 1)
    weight = position - low
    return values[low] * (1 - weight) + values[high] * weight


class P2Estimator:
    """Streaming estimate of one percentile (P² algorithm).

    Five markers track the minimum, the p/2, p and (1+p)/2 percentiles
    and the maximum; every observation shifts marker positions and
    nudges heights by parabolic (or, where that would break marker
    ordering, linear) interpolation.  Memory is constant; the first
    five observations are buffered so small streams are exact.
    """

    __slots__ = ("fraction", "count", "_heights", "_positions", "_desired",
                 "_increments")

    def __init__(self, fraction):
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        self.fraction = fraction
        self.count = 0
        self._heights = []  # first five observations, then marker heights
        self._positions = None
        self._desired = None
        p = fraction
        self._increments = (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)

    def observe(self, value):
        value = float(value)
        self.count += 1
        if self._positions is None:
            self._heights.append(value)
            if len(self._heights) == 5:
                self._heights.sort()
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [1.0 + 4.0 * inc
                                 for inc in self._increments]
            return
        heights, positions = self._heights, self._positions
        # Which cell does the observation land in?
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Nudge the three interior markers toward their desired ranks.
        for i in (1, 2, 3):
            delta = self._desired[i] - positions[i]
            if ((delta >= 1.0 and positions[i + 1] - positions[i] > 1.0)
                    or (delta <= -1.0
                        and positions[i - 1] - positions[i] < -1.0)):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if not heights[i - 1] < candidate < heights[i + 1]:
                    candidate = self._linear(i, step)
                heights[i] = candidate
                positions[i] += step

    def _parabolic(self, i, step):
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1])
            / (n[i] - n[i - 1]))

    def _linear(self, i, step):
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    def value(self):
        """The current percentile estimate (``None`` before any
        observation; exact below five observations)."""
        if self.count == 0:
            return None
        if self._positions is None:
            return exact_percentile(sorted(self._heights), self.fraction)
        return self._heights[2]


class Quantile:
    """A set of streaming percentiles over one observation stream.

    Tracks min/max/sum/count exactly and one :class:`P2Estimator` per
    requested fraction — the instrument behind the live
    detection-latency P50/P95/P99.
    """

    DEFAULT_FRACTIONS = (0.5, 0.95, 0.99)

    def __init__(self, fractions=DEFAULT_FRACTIONS):
        self.fractions = tuple(fractions)
        self._estimators = {f: P2Estimator(f) for f in self.fractions}
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for estimator in self._estimators.values():
            estimator.observe(value)

    def observe_many(self, values):
        for value in values:
            self.observe(value)

    def estimate(self, fraction):
        return self._estimators[fraction].value()

    def snapshot(self):
        snap = {"count": self.count}
        if self.count:
            snap["min"] = self.min
            snap["max"] = self.max
            snap["mean"] = self.total / self.count
            for fraction in self.fractions:
                snap[f"p{round(fraction * 100):d}"] = self.estimate(fraction)
        return snap


class RateWindow:
    """Sliding-window event rate on the monotonic clock.

    ``tick(n)`` records ``n`` events now; ``rate()`` is events/second
    over at most the trailing ``window_s`` seconds.  Unlike a lifetime
    average this reacts to the *current* pace — a campaign that slowed
    from 50 points/s to 2 points/s shows 2, not a slowly decaying 48.
    """

    def __init__(self, window_s=15.0, clock=time.monotonic):
        self.window_s = float(window_s)
        self._clock = clock
        self._events = deque()  # (monotonic time, count)
        self._total = 0

    def tick(self, count=1, now=None):
        now = self._clock() if now is None else now
        self._events.append((now, count))
        self._total += count
        self._trim(now)

    def _trim(self, now):
        cutoff = now - self.window_s
        events = self._events
        while events and events[0][0] < cutoff:
            self._total -= events.popleft()[1]

    def rate(self, now=None):
        now = self._clock() if now is None else now
        self._trim(now)
        if not self._events:
            return 0.0
        span = now - self._events[0][0]
        if span <= 0.0:
            # All events landed within one clock tick; the window has
            # no measurable extent yet, so a rate would be noise.
            return 0.0
        return self._total / span
