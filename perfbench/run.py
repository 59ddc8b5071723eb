"""The repository benchmark: MEEK reproduction workloads, end to end.

    python3 perfbench/run.py --workload inject-campaign --seed 1 \\
        --seconds 25 --trace 0

Run it from the repository root.  ``--trace 0`` measures the
end-to-end metrics with nothing wrapped; ``--trace 1`` runs the same
operations untraced and then traced, checks that both produce the same
simulated-output digest, and reports the per-layer metrics and the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object.  The exit status is 0 only when
every output check passed.  See ``README.md`` for the workloads and
metrics.
"""

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

from layers import (METRICS as LAYER_METRICS, attribute_ops,  # noqa: E402
                    gc_by_op, gc_by_process, per_layer, self_times)
from workloads import (WORKLOADS, CliRun, check_cli_output,  # noqa: E402
                       planned_ops)

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_NAME = ".perfbench-work"
SETUP_REPEATS = 3
PROBE_REPEATS = 5
#: Every run must finish inside this many seconds.
RUN_BUDGET_S = 170.0
#: A slow host stops a timed phase after this multiple of --seconds.
LIMIT_FACTOR = 1.4
#: Environment that selects non-default simulator paths or redirects
#: output; the benchmark measures the default configuration.
PINNED_UNSET = ("REPRO_SLOW_KERNEL", "REPRO_NO_BATCH", "REPRO_NO_SEGMEMO",
                "REPRO_NO_DISK_CACHE", "REPRO_BATCH",
                "REPRO_BATCH_FORCE_EVICT", "REPRO_JOBS", "REPRO_EVENTS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Run:
    """Paths, environment and deadline of one benchmark invocation."""

    def __init__(self, root, workload, seed, seconds, size):
        self.root = root
        self.size = size
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = os.path.join(root, WORK_NAME, str(os.getpid()))
        self.jobs = max(1, min(2, len(os.sched_getaffinity(0))))
        self.children = set()
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self._dirs = 0

    def fresh_dir(self, label):
        self._dirs += 1
        path = os.path.join(self.work, f"{self._dirs}-{label}")
        os.makedirs(path)
        return path

    def env(self, cache_dir):
        env = {k: v for k, v in os.environ.items() if k not in PINNED_UNSET}
        env.update({
            "PYTHONPATH": os.path.join(self.work, "src"),
            "REPRO_CACHE_DIR": cache_dir,
            "TMPDIR": self.fresh_dir("tmp"),
        })
        return env

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 1.0:
            raise BenchError(f"run budget of {RUN_BUDGET_S:.0f} s exhausted")
        return left

    def count(self, errors, what):
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.append(f"{what}: {'; '.join(errors)[:2000]}")

    # -- child processes ----------------------------------------------------

    def driver(self, mode, env, result, extra=(), trace_dir=None):
        cmd = [sys.executable, os.path.join(HERE, "driver.py"), mode,
               "--workload", self.workload, "--seed", str(self.seed),
               "--jobs", str(self.jobs), "--work", env["TMPDIR"],
               "--result", result, "--size", self.size, *extra]
        if trace_dir is not None:
            cmd += ["--trace-dir", trace_dir]
        return cmd

    def spawn(self, cmd, env, ready=None, check=True):
        """Run ``cmd`` to completion in its own process group.

        Returns ``(returncode, stdout, seconds)``; ``seconds`` runs from
        the start until the child prints the line ``ready`` (when
        given) or exits.  Whatever the child leaves running (pool
        workers of a killed driver) is killed with it.  A nonzero exit
        raises :class:`BenchError` when ``check`` is true.
        """
        with open(os.path.join(self.work, "stderr.txt"), "w+",
                  encoding="utf-8") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=env, cwd=self.root, text=True,
                                    stdout=subprocess.PIPE, stderr=stderr,
                                    start_new_session=True)
            self.children.add(proc)
            try:
                elapsed = None
                if ready is not None:
                    readable, _, _ = select.select([proc.stdout], [], [],
                                                   self.remaining())
                    line = proc.stdout.readline() if readable else ""
                    elapsed = time.perf_counter() - start
                    if line.strip() != ready:
                        raise BenchError(f"{cmd[1]} never printed {ready}")
                out, _ = proc.communicate(timeout=self.remaining())
                if elapsed is None:
                    elapsed = time.perf_counter() - start
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"timed out: {' '.join(cmd[:4])}") from exc
            finally:
                self.reap(proc)
            if check and proc.returncode != 0:
                stderr.seek(0)
                raise BenchError(f"{' '.join(cmd[:3])} exited "
                                 f"{proc.returncode}: {stderr.read()[-2000:]}")
        return proc.returncode, out, elapsed

    def reap(self, proc):
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        self.children.discard(proc)

    def measure(self, env, extra, trace_dir=None):
        result = os.path.join(self.work, f"measure-{self._dirs}.json")
        self.spawn(self.driver("measure", env, result, extra, trace_dir), env)
        with open(result, encoding="utf-8") as handle:
            data = json.load(handle)
        for op in [data["warmup"]] + data["ops"]:
            self.count(op["errors"], f"op {op['index']}")
        return data

    def setup_probe(self):
        """Seconds from starting a fresh interpreter with an empty cache
        directory until its first operation completes."""
        cache = self.fresh_dir("cache")
        env = self.env(cache)
        if self.workload == CliRun.name:
            cmd = CliRun(self.seed, self.jobs, None, self.size,
                         env).command(0)
            status, out, elapsed = self.spawn(cmd, env, check=False)
            self.count(check_cli_output(status, out), "setup op")
            return elapsed, cache
        result = os.path.join(self.work, f"setup-{self._dirs}.json")
        _, _, elapsed = self.spawn(self.driver("setup", env, result), env,
                                   ready="SETUP_DONE")
        with open(result, encoding="utf-8") as handle:
            self.count(json.load(handle)["warmup"]["errors"], "setup op")
        return elapsed, cache

    def interpreter_probes(self, env):
        """Medians of a bare interpreter and of ``import repro.cli``."""
        def timed(code):
            return statistics.median(
                self.spawn([sys.executable, "-c", code], env)[2]
                for _ in range(PROBE_REPEATS))
        bare = timed("pass")
        return {"interpreter_s": bare,
                "import_s": max(0.0, timed("import repro.cli") - bare)}


# -- statistics ---------------------------------------------------------------

def tail(values):
    """``(value, percentile, samples)``: the highest percentile with at
    least ten samples beyond it, or the maximum when no percentile has
    (ten samples or fewer)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def host_facts():
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return (f"nproc={os.cpu_count()} usable_cpus="
            f"{len(os.sched_getaffinity(0))} python="
            f"{platform.python_version()} numpy={numpy} "
            f"machine={platform.machine()}")


def tree_snapshot(root):
    """``{path: (size, mtime_ns)}`` of the checkout, minus the work dir."""
    snapshot = {}
    for directory, subdirs, files in os.walk(root):
        if directory == root:
            subdirs[:] = [d for d in subdirs if d != WORK_NAME]
        for name in files:
            path = os.path.join(directory, name)
            stat = os.lstat(path)
            snapshot[os.path.relpath(path, root)] = (stat.st_size,
                                                     stat.st_mtime_ns)
    return snapshot


# -- the two kinds of run ----------------------------------------------------

def end_to_end(run, out):
    raw_setups = []
    cache = None
    for _ in range(SETUP_REPEATS):
        elapsed, cache = run.setup_probe()
        raw_setups.append(elapsed)
    # The last probe's cache directory is warm: measure against it.
    planned = planned_ops(run.workload, run.size, run.seconds)
    data = run.measure(run.env(cache), ["--ops", str(planned), "--limit",
                                        str(LIMIT_FACTOR * run.seconds)])
    ops = data["ops"]
    raw = [op["end"] - op["start"] for op in ops]
    walls = [wall / op["host_factor"] for wall, op in zip(raw, ops)]
    # The set-up probes run seconds before the operations, so the
    # median of the run's host factors normalises them.
    factor = statistics.median(op["host_factor"] for op in ops)
    setups = [elapsed / factor for elapsed in raw_setups]
    phase = sum(walls)
    instructions = sum(op["instructions"] for op in ops)
    tail_value, tail_pct, n = tail(walls)
    rss = data["rss_kb"]
    metrics = {
        "sim_instrs_per_s": (instructions / phase, "instr/s"),
        "op_s_p50": (statistics.median(walls), "s"),
        "op_s_tail": (tail_value, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (sum(rss) / 1024.0, "MB"),
    }
    pool = ("" if run.workload == CliRun.name
            else f", {run.jobs} pool worker(s)")
    out.append(f"  timed phase        : {sum(raw):.2f} s host wall "
               f"({phase:.2f} s normalised), {n} of {planned} planned "
               f"operations{pool}, warm-up excluded")
    out.append(f"  host factor        : {factor:.3f} median, "
               f"{min(op['host_factor'] for op in ops):.3f}-"
               f"{max(op['host_factor'] for op in ops):.3f} (host time over "
               f"nominal-host time); times below are normalised to the "
               f"nominal host")
    out.append("  operations (host s/normalised s/commits): " + " ".join(
        f"{r:.3f}/{wall:.3f}/{op['instructions']}"
        for r, wall, op in zip(raw, walls, ops)))
    out.append(f"  sim_instrs_per_s   : {metrics['sim_instrs_per_s'][0]:.1f} "
               f"instr/s ({instructions} simulated big-core commits; "
               f"{instructions / sum(raw):.1f} per host second)")
    out.append(f"  op_s_p50           : {metrics['op_s_p50'][0]:.4f} s "
               f"(n={n}; host {statistics.median(raw):.4f} s)")
    note = ("10 samples beyond" if tail_pct < 100.0
            else "10 samples or fewer, so the maximum")
    out.append(f"  op_s_tail          : {tail_value:.4f} s at "
               f"p{tail_pct:.1f} (n={n}, {note})")
    out.append(f"  setup_s            : {metrics['setup_s'][0]:.4f} s "
               f"(median of {', '.join(f'{s:.3f}' for s in setups)}; "
               f"host {', '.join(f'{s:.3f}' for s in raw_setups)})")
    out.append(f"  peak_rss_mb        : {metrics['peak_rss_mb'][0]:.1f} MB "
               f"(parent + workers, KB: {rss})")
    out.append(f"  failed_frac        : {run.failed}/{run.attempted} = "
               f"{run.failed / run.attempted:.4f}")
    if run.workload == "inject-campaign":
        count = sum(op["extra"]["latencies"][0] for op in ops)
        total = sum(op["extra"]["latencies"][1] for op in ops)
        within = sum(op["extra"]["latencies"][2] for op in ops)
        if count:
            out.append(f"  sim_detect_latency_mean_ns : {total / count:.1f} "
                       f"ns (n={count} detections; paper: under 1000 ns)")
            out.append(f"  sim_detect_within_3us      : "
                       f"{within / count:.5f} (paper: over 0.999)")
    if run.workload == "figure-sweep":
        gaps = [op["extra"]["gap_pp"] for op in [data["warmup"]] + ops
                if op["extra"].get("gap_pp") is not None]
        if gaps:
            out.append(f"  sim_slowdown_gap_pp        : "
                       f"{statistics.mean(gaps):.2f} pp (mean over "
                       f"{len(gaps)} rounds; paper cells fig6 1.4/4.4 %, "
                       f"fig8 54.9/4.4/0.3 %)")
    out.append("  (sim_* values are simulated; the model is unvalidated "
               "against hardware)")
    return metrics


def digest(data):
    return [op["digest"] for op in [data["warmup"]] + data["ops"]]


def traced(run, out):
    cache = run.fresh_dir("cache")
    planned = planned_ops(run.workload, run.size, run.seconds / 2.0)
    untraced = run.measure(run.env(cache), ["--ops", str(planned), "--limit",
                                            str(LIMIT_FACTOR * run.seconds
                                                / 2.0)])
    n_ops = len(untraced["ops"])
    trace_dir = run.fresh_dir("trace")
    data = run.measure(run.env(cache), ["--ops", str(n_ops)], trace_dir)
    probes = run.interpreter_probes(run.env(cache))
    same = digest(data) == digest(untraced)
    if not same:
        run.errors.append("traced and untraced simulated-output digests "
                          "differ")
    untraced_wall = sum((op["end"] - op["start"]) / op["host_factor"]
                        for op in untraced["ops"])
    traced_wall = sum((op["end"] - op["start"]) / op["host_factor"]
                      for op in data["ops"])
    overhead = traced_wall / untraced_wall - 1.0
    processes = []
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name), encoding="utf-8") as handle:
            processes.append(json.load(handle))
    windows = [(op["index"], op["start"], op["end"]) for op in data["ops"]]
    attribute_ops(processes, windows)
    starts = n_ops if run.workload == CliRun.name else 1
    layer = per_layer(processes, n_ops, starts, probes, overhead)
    units = dict(LAYER_METRICS)
    metrics = {name: (float(layer[name]), units[name])
               for name, _ in LAYER_METRICS}
    out.append(f"  traced {n_ops} operations; untraced {untraced_wall:.3f} s, "
               f"traced {traced_wall:.3f} s (normalised), tracing overhead "
               f"{overhead * 100:+.2f} %")
    out.append(f"  simulated-output digest: "
               f"{'equal' if same else 'DIFFERENT'}"
               f" ({len(digest(data))} operations incl. warm-up)")
    out.append(f"  spans: {sum(len(p['spans']) for p in processes)} from "
               f"{len(processes)} processes")
    out.append("  self time per operation by process role and layer (span "
               "minus child spans; a driver's campaign time includes "
               "waiting on its workers):")
    for (role, layer_name), seconds in sorted(self_times(processes).items(),
                                              key=lambda kv: -kv[1]):
        out.append(f"    {role:<7} {layer_name:<12} "
                   f"{seconds / max(1, n_ops):.5f} s/op")
    out.append("  gc per process (pid role pause_s gen2 tracked_objects):")
    for row in gc_by_process(processes):
        out.append(f"    {row[0]} {row[1]:<7} {row[2]:.4f} {row[3]} {row[4]}")
    out.append("  gc per operation, all processes (op:pause_s/gen2): " +
               " ".join(f"{op}:{pause:.3f}/{gen2}" for op, (pause, gen2)
                        in gc_by_op(processes).items()))
    rounds = data["tracked_objects_by_op"]
    if rounds:
        out.append(f"  driver tracked objects per operation: first "
                   f"{rounds[0]}, last {rounds[-1]}, max {max(rounds)}")
    for name, (value, unit) in metrics.items():
        out.append(f"  {name:<36} {value:.6g} {unit}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="operation size; tiny is for the self-test")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro is "
              "missing)", file=sys.stderr)
        return 2
    for name in PINNED_UNSET:
        os.environ.pop(name, None)
    # A terminated benchmark still stops its children (see finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(root, args.workload, args.seed, args.seconds, args.size)
    before = tree_snapshot(root)
    out = [f"perfbench {args.workload} seed={args.seed} "
           f"seconds={args.seconds:g} trace={args.trace} size={args.size}",
           f"  host: {host_facts()}"]
    try:
        # The program runs from a copy inside the work directory, so its
        # bytecode caches never land in the checkout.
        shutil.copytree(os.path.join(root, "src"),
                        os.path.join(run.work, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        metrics = (traced if args.trace else end_to_end)(run, out)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in list(run.children):
            run.reap(proc)
        shutil.rmtree(run.work, ignore_errors=True)
        base = os.path.dirname(run.work)
        if os.path.isdir(base) and not os.listdir(base):
            os.rmdir(base)
    after = tree_snapshot(root)
    changed = sorted(set(before.items()) ^ set(after.items()))
    if changed:
        run.errors.append(f"the run wrote into the checkout: "
                          f"{sorted({path for path, _ in changed})[:10]}")
    for error in run.errors:
        out.append(f"  CHECK FAILED: {error}")
    correct = not run.errors
    print("\n".join(out))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
