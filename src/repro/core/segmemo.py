"""Placeholder for the deleted segment memo.

Checker replay no longer memoizes segments.  This module survives only
because the benchmark's traced runs (``perfbench/layers.py``) still
read :func:`stats` for the ``core.memo_*`` counters; it goes, with
those counters, in the next change to the benchmark.
"""


def stats():
    """Always empty: nothing is memoized."""
    return {"programs": 0, "summaries": 0}
