"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest perfbench/selftest.py -q

Tiny-size runs of every workload, traced and untraced, must print each
metric ``BENCHMARK.json`` names with its unit; the tracer must leave
every wrapped function as it found it.  The file name keeps it out of
the repository's default test collection (a full pass takes about a
minute).
"""

import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from calib import Calibrator  # noqa: E402
from layers import TARGETS, WORKER_ENTRY  # noqa: E402
from run import tail  # noqa: E402
from tracer import ORIGINAL, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCHMARK = json.load(_f)

WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=175)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "5",
                  "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    report = "\n".join(lines[:-1])
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        assert metric["name"] in report
        if not trace:
            assert printed["value"] > 0
    if trace:
        # Nonzero only if the wrappers reached the simulator, in pool
        # workers and in lazily imported modules alike.
        assert result["metrics"]["bigcore.commits"]["value"] > 0
        assert result["metrics"]["workloads.programs"]["value"] > 0
        assert "simulated-output digest: equal" in report
        assert "tracing overhead" in report
    else:
        assert "failed_frac" in report and "host: nproc=" in report


def _resolve(module_name, attribute):
    owner = sys.modules[module_name]
    path = attribute.split(".")
    for part in path[:-1]:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner.__dict__[path[-1]]
    return getattr(owner, path[-1])


def test_uninstall_restores_every_wrapped_function(tmp_path):
    import importlib

    targets = [(m, a) for m, a, _, _ in TARGETS] + [WORKER_ENTRY]
    for module_name, _ in targets:
        importlib.import_module(module_name)
    originals = {target: _resolve(*target) for target in targets}
    aliases = {name: getattr(sys.modules["repro.workloads"], name)
               for name in ("generate_program",)}
    callbacks = list(gc.callbacks)
    meta_path = list(sys.meta_path)

    tracer = Tracer(str(tmp_path))
    tracer.install(TARGETS, worker_entry=WORKER_ENTRY)
    try:
        for target in targets:
            assert getattr(_resolve(*target), ORIGINAL) is originals[target]
        from repro.workloads import generate_program, get_profile
        generate_program(get_profile("hmmer"), dynamic_instructions=200)
        names = [s[2] for s in tracer.spans if s[2] != "gc.pause"]
        assert names == ["workloads.generate"]
    finally:
        tracer.uninstall()

    for target in targets:
        assert _resolve(*target) is originals[target]
    for name, value in aliases.items():
        assert getattr(sys.modules["repro.workloads"], name) is value
    leftovers = [f"{module.__name__}.{key}"
                 for module in list(sys.modules.values())
                 if getattr(module, "__name__", "").startswith("repro")
                 for key, value in vars(module).items()
                 if hasattr(value, ORIGINAL)]
    assert leftovers == []
    assert gc.callbacks == callbacks
    assert sys.meta_path == meta_path


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(str(tmp_path), "--workload", WORKLOAD_NAMES[0],
                  "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail(range(1, 51)) == (40, 80.0, 50)
    assert tail(range(1, 13)) == (2, 100.0 * 2 / 12, 12)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


@pytest.mark.parametrize("width,heap", [(1, False), (2, True)])
def test_calibrator_measures_a_host_factor_and_stops(width, heap):
    calibrator = Calibrator(width, heap)
    try:
        factors = [calibrator.measure() for _ in range(2)]
    finally:
        calibrator.close()
    # Any real host is within a factor of ten of the nominal one.
    assert all(0.1 < factor < 10.0 for factor in factors)
    assert len(calibrator.procs) == width
    assert all(proc.returncode == 0 for proc in calibrator.procs)
