"""Benchmark harness tests: perf-floor smoke, regression logic, and
``repro bench`` CLI acceptance.

The floor tests (marked ``bench``) are canaries for *catastrophic*
slowdowns: thresholds sit far below what any supported machine
delivers (the committed ``BENCH_perf.json`` records >100k MEEK
instrs/sec; the floors are 25-50x lower), so they only trip when a
change fundamentally breaks the fast kernel — which should fail CI
loudly rather than surface as a mysteriously slow suite.
"""

import json
import time

import pytest

from repro.cli import main
from repro.perf.bench import run_bench
from repro.perf.regress import (Violation, check_regression, load_baseline,
                                write_result)


def _throughput(fn, instructions):
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return instructions / best


@pytest.fixture(scope="module")
def swaptions_program():
    from repro.workloads import generate_program, get_profile
    return generate_program(get_profile("swaptions"),
                            dynamic_instructions=8_000, seed=0)


@pytest.mark.bench
def test_perf_floor_golden_model(swaptions_program):
    from repro.difftest.golden import run_golden
    rate = _throughput(lambda: run_golden(swaptions_program), 8_000)
    assert rate > 50_000, (
        f"golden model sustained only {rate:,.0f} instrs/s — the fast "
        "kernel has catastrophically regressed")


@pytest.mark.bench
def test_perf_floor_meek_system(swaptions_program):
    from repro.common.config import default_meek_config
    from repro.core.system import MeekSystem
    config = default_meek_config(num_little_cores=4)
    rate = _throughput(
        lambda: MeekSystem(config).run(swaptions_program), 8_000)
    assert rate > 4_000, (
        f"MEEK end-to-end sustained only {rate:,.0f} instrs/s — the "
        "checked-execution path has catastrophically regressed")


@pytest.mark.bench
def test_perf_floor_vanilla_big_core(swaptions_program):
    from repro.core.system import run_vanilla
    rate = _throughput(lambda: run_vanilla(swaptions_program), 8_000)
    assert rate > 10_000, (
        f"vanilla big core sustained only {rate:,.0f} instrs/s")


# -- regression-harness logic ------------------------------------------------

def _fake_result(rate=100_000.0, speedup=2.0):
    from repro.perf.bench import BENCH_SCHEMA
    return {
        "schema": BENCH_SCHEMA,
        "config": {"instructions": 1000},
        "workloads": {
            "swaptions": {
                "meek": {"wall_s": 0.01, "instructions": 1000,
                         "instrs_per_s": rate},
            },
        },
        "figures": {},
        "kernels": {"workload": "swaptions", "meek_speedup": speedup,
                    "vanilla_speedup": speedup},
    }


class TestCheckRegression:
    def test_identical_results_pass(self):
        base = _fake_result()
        assert check_regression(base, base) == []

    def test_within_tolerance_passes(self):
        base = _fake_result(rate=100_000)
        current = _fake_result(rate=60_000)
        assert check_regression(current, base, tolerance=0.5) == []

    def test_throughput_drop_flagged(self):
        base = _fake_result(rate=100_000)
        current = _fake_result(rate=40_000)
        violations = check_regression(current, base, tolerance=0.5)
        assert len(violations) == 1
        assert "swaptions/meek" in str(violations[0])

    def test_missing_workload_flagged(self):
        base = _fake_result()
        current = _fake_result()
        current["workloads"] = {}
        assert check_regression(current, base)

    def test_kernel_speedup_drop_flagged(self):
        base = _fake_result(speedup=2.0)
        current = _fake_result(speedup=0.9)
        violations = check_regression(current, base, kernel_tolerance=0.25)
        names = [v.metric for v in violations]
        assert "kernels/meek_speedup" in names

    def test_kernel_floor_never_below_one(self):
        # Even with a huge tolerance, dropping below parity with the
        # naive loop is always a regression.
        base = _fake_result(speedup=1.2)
        current = _fake_result(speedup=0.95)
        assert check_regression(current, base, kernel_tolerance=0.9)

    def test_violation_repr(self):
        violation = Violation("m", 100.0, 10.0, 50.0)
        assert "below floor" in str(violation)

    def test_warm_path_ratio_drop_flagged(self):
        base = _fake_result()
        base["warm_start"] = {"warm_speedup": 2.0}
        current = _fake_result()
        current["warm_start"] = {"warm_speedup": 0.8}
        violations = check_regression(current, base, kernel_tolerance=0.5)
        assert "warm_start/warm_speedup" in [v.metric for v in violations]

    def test_skipped_warm_sections_not_flagged(self):
        """--skip-warm-start/--skip-campaign runs leave the sections
        None; --check must treat that as unmeasured, not regressed."""
        base = _fake_result()
        base["warm_start"] = {"warm_speedup": 2.0}
        base["batch"] = {"batch_speedup": 2.0}
        base["campaign"] = {"pool_speedup": 1.5}
        current = _fake_result()  # sections absent entirely
        current["warm_start"] = None
        assert check_regression(current, base) == []


class TestBaselineIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        result = _fake_result()
        write_result(result, path)
        assert load_baseline(path) == result

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_baseline(path)

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "old.json"
        result = _fake_result()
        result["schema"] = 99
        path.write_text(json.dumps(result))
        with pytest.raises(ValueError):
            load_baseline(path)


# -- CLI acceptance ----------------------------------------------------------

_BENCH_ARGS = ["bench", "--workloads", "mcf", "--instructions", "1500",
               "--repeat", "1", "--skip-figures", "--skip-kernels",
               "--skip-warm-start", "--skip-campaign",
               "--skip-batch-kernel"]


@pytest.fixture
def bench_args(tmp_path):
    """``_BENCH_ARGS`` with a private trend history, so no test appends
    to the checkout's ``benchmarks/BENCH_history.jsonl``."""
    return _BENCH_ARGS + ["--history",
                          str(tmp_path / "BENCH_history.jsonl")]


@pytest.mark.bench
class TestBenchCli:
    def test_bench_writes_result(self, bench_args, tmp_path, capsys):
        out = str(tmp_path / "BENCH_perf.json")
        assert main(bench_args + ["--out", out]) == 0
        text = capsys.readouterr().out
        assert "Simulation throughput" in text
        written = json.loads((tmp_path / "BENCH_perf.json").read_text())
        assert written["workloads"]["mcf"]["meek"]["instrs_per_s"] > 0

    def test_bench_check_passes_against_own_baseline(self, bench_args,
                                                     tmp_path, capsys):
        out = str(tmp_path / "BENCH_perf.json")
        assert main(bench_args + ["--out", out]) == 0
        code = main(bench_args + ["--out", "", "--baseline", out,
                                   "--check", "--tolerance", "0.9"])
        assert code == 0
        assert "no regression" in capsys.readouterr().out

    def test_passing_check_leaves_baseline_untouched(self, bench_args,
                                                     tmp_path):
        """--check is read-only on the baseline even when it passes —
        otherwise each run ratchets the floor down by the tolerance."""
        out = tmp_path / "BENCH_perf.json"
        assert main(bench_args + ["--out", str(out)]) == 0
        before = out.read_text()
        code = main(bench_args + ["--out", str(out), "--baseline",
                                   str(out), "--check", "--tolerance",
                                   "0.9"])
        assert code == 0
        assert out.read_text() == before

    def test_bench_check_fails_on_inflated_baseline(self, bench_args,
                                                    tmp_path, capsys):
        out = tmp_path / "BENCH_perf.json"
        assert main(bench_args + ["--out", str(out)]) == 0
        baseline = json.loads(out.read_text())
        for systems in baseline["workloads"].values():
            for metrics in systems.values():
                metrics["instrs_per_s"] *= 1_000
        out.write_text(json.dumps(baseline))
        code = main(bench_args + ["--out", "", "--baseline", str(out),
                                   "--check"])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_bench_check_missing_baseline_is_usage_error(self, bench_args,
                                                         tmp_path):
        code = main(bench_args + ["--out", "", "--check", "--baseline",
                                   str(tmp_path / "nope.json")])
        assert code == 2

    def test_failed_check_never_overwrites_its_own_baseline(self,
                                                            bench_args,
                                                            tmp_path):
        """Regression: --check + --out on the same file must not
        launder a regression into the new baseline."""
        out = tmp_path / "BENCH_perf.json"
        assert main(bench_args + ["--out", str(out)]) == 0
        baseline = json.loads(out.read_text())
        for systems in baseline["workloads"].values():
            for metrics in systems.values():
                metrics["instrs_per_s"] *= 1_000
        out.write_text(json.dumps(baseline))
        before = out.read_text()
        code = main(bench_args + ["--out", str(out), "--baseline",
                                   str(out), "--check"])
        assert code == 1
        assert out.read_text() == before, "baseline was overwritten"


def test_run_bench_kernel_consistency_guard():
    """run_bench's kernel A/B asserts cycle equality between kernels —
    the bench itself is an equivalence check."""
    result = run_bench(workloads=("mcf",), instructions=1_200, repeat=1,
                       figures=(), kernels=True, warm_start=False,
                       campaign=False, batch_kernel=False)
    kernels = result["kernels"]
    assert kernels["fast_meek_s"] > 0 and kernels["slow_meek_s"] > 0
    assert kernels["meek_speedup"] == (kernels["slow_meek_s"]
                                       / kernels["fast_meek_s"])


@pytest.mark.bench
def test_run_bench_batch_kernel_section():
    """The batch-kernel section on its own (the CLI tests above skip
    it): its keys are all there and the batched side makes progress."""
    from repro.perf.batch import batch_available

    if not batch_available():
        pytest.skip("batch kernel unavailable (numpy missing or disabled)")
    result = run_bench(workloads=("mcf",), instructions=1_500, repeat=1,
                       figures=(), kernels=False, warm_start=False,
                       campaign=False, batch_kernel=True)
    section = result["batch_kernel"]
    assert set(section) == {
        "workload", "instructions", "rate", "lanes", "reps",
        "scalar_points", "scalar_points_per_s", "batched_points_per_s",
        "batch_speedup", "eviction_rate", "soa_lane_backend"}
    assert section["workload"] == "mcf"
    assert section["batched_points_per_s"] > 0
