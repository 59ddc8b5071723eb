"""Experiment drivers: one module per table/figure of the paper.

Each module exposes ``run(...)`` returning structured rows and a
``format_results(...)`` that renders the same table/series the paper
reports.  The benchmark harness under ``benchmarks/`` wraps these with
pytest-benchmark.  Each module's docstring states the paper's values
for its figure or table; there is no separate paper-vs-measured
record yet.
"""

from repro.experiments import (
    ablations,
    fig6_performance,
    fig7_latency,
    fig8_scalability,
    fig9_backpressure,
    fig10_perf_area,
    tab3_area,
)
from repro.experiments.runner import (
    DEFAULT_DYNAMIC_INSTRUCTIONS,
    NZDC_COMPILE_FAILURES,
    build_workload,
)

__all__ = [
    "DEFAULT_DYNAMIC_INSTRUCTIONS",
    "NZDC_COMPILE_FAILURES",
    "ablations",
    "build_workload",
    "fig10_perf_area",
    "fig6_performance",
    "fig7_latency",
    "fig8_scalability",
    "fig9_backpressure",
    "tab3_area",
]
