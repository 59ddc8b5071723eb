"""The benchmark's three workloads.

Each is a closed loop with a single client: operation ``i`` starts when
operation ``i - 1`` has returned, and its inputs derive only from the
benchmark seed and ``i``.  Every operation checks its own outputs and
returns an :class:`OpResult`.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time

from calib import Calibrator

PARSEC = ("blackscholes", "bodytrack", "dedup", "ferret", "fluidanimate",
          "streamcluster", "freqmine", "swaptions")
CLI_WORKLOADS = ("swaptions", "mcf", "streamcluster")
#: Round order: the cheapest figure first, so the cold set-up probe and
#: the warm-up (both run operation 0) cost least.
FIGURES = ("fig9", "fig8", "fig6")

#: Operation sizes, and timed operations per second of ``--seconds``
#: (``--seconds`` sets a fixed operation count, not a deadline).
#: ``full`` is what the benchmark measures: an operation lasts 0.5-2 s
#: and a 25-second run's timed phase about 25-32 s on a 2-core host, so
#: a run holds tens of operations and three cold set-ups per run stay
#: affordable.  ``tiny`` exists for the benchmark's self-test.
#: inject-campaign: instructions per trial and trials per command (one
#: full 32-lane batch group per worker); figure-sweep: instructions per
#: program (20 programs per round); cli-run: instructions per
#: ``repro run``.
SIZES = {
    "full": {"inject_instructions": 2_500, "inject_trials": 64,
             "figure_instructions": 2_000, "cli_instructions": 20_000,
             "inject-campaign": 0.84, "figure-sweep": 0.84,
             "cli-run": 1.68},
    "tiny": {"inject_instructions": 600, "inject_trials": 64,
             "figure_instructions": 300, "cli_instructions": 1_000,
             "inject-campaign": 2.0, "figure-sweep": 3.0, "cli-run": 3.0},
}
INJECT_RATE = 0.008

#: Paper values (percent slowdown) for sim_slowdown_gap_pp: fig6 geomean
#: per suite, fig8 geomean per little-core count.
PAPER_FIG6 = {"spec06": 1.4, "parsec": 4.4}
PAPER_FIG8 = {2: 54.9, 4: 4.4, 6: 0.3}


def op_seed(seed, index):
    """The program seed of operation ``index`` for benchmark ``seed``."""
    return (seed * 1_000_003 + index * 7919) % (2 ** 31)


def rows_digest(items):
    """sha256 of a JSON rendering of simulated outputs."""
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class OpResult:
    """One operation: host wall time, simulated output, check outcome."""

    def __init__(self, index, start, end, instructions, digest, errors,
                 extra=None):
        self.index = index
        self.start = start
        self.end = end
        self.instructions = instructions
        self.digest = digest
        self.errors = errors
        self.extra = extra or {}
        #: Host factor (``calib.py``) measured around the operation.
        self.host_factor = None

    def to_dict(self):
        return {"index": self.index, "start": self.start, "end": self.end,
                "instructions": self.instructions, "digest": self.digest,
                "errors": self.errors, "extra": self.extra,
                "host_factor": self.host_factor}


class InjectCampaign:
    """``repro inject <parsec> --trials 64 --rate 0.008 --jobs J --out F``
    commands through :func:`repro.cli.main` in one warm interpreter."""

    name = "inject-campaign"
    round_size = 1

    def __init__(self, seed, jobs, work_dir, size, env=None,
                 trace_dir=None):
        self.seed = seed
        self.jobs = jobs
        self.work_dir = work_dir
        self.size = SIZES[size]

    def argv(self, index):
        return ["inject", PARSEC[index % len(PARSEC)],
                "--instructions", str(self.size["inject_instructions"]),
                "--trials", str(self.size["inject_trials"]),
                "--rate", str(INJECT_RATE),
                "--seed", str(op_seed(self.seed, index)),
                "--jobs", str(self.jobs),
                "--out", os.path.join(self.work_dir, f"inject-{index}.jsonl")]

    def run_op(self, index):
        from repro.cli import main

        argv = self.argv(index)
        out = argv[-1]
        stdout = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            status = main(argv)
        end = time.perf_counter()
        with open(out, encoding="utf-8") as handle:
            rows = [json.loads(line) for line in handle if line.strip()]
        for suffix in ("", ".status.json", ".coverage.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(out + suffix)
        errors = []
        if status != 0:
            errors.append(f"exit status {status}")
        if len(rows) != self.size["inject_trials"]:
            errors.append(f"{len(rows)} rows for "
                          f"{self.size['inject_trials']} trials")
        latencies = []
        for row in rows:
            metrics = row.get("metrics") or {}
            if not row.get("ok"):
                errors.append(f"failed point {row.get('point_id')}")
                continue
            if metrics["detected"] > metrics["injections"]:
                errors.append(f"{row['point_id']}: detected > injections")
            if any(lat < 0 for lat in metrics["latencies_ns"]):
                errors.append(f"{row['point_id']}: negative latency")
            latencies.extend(metrics["latencies_ns"])
        simulated = sorted((row["point_id"], row.get("metrics"))
                           for row in rows)
        return OpResult(
            index, start, end,
            sum((row.get("metrics") or {}).get("instructions", 0)
                for row in rows),
            rows_digest(simulated), errors,
            {"latencies": [len(latencies), sum(latencies),
                           sum(1 for lat in latencies if lat <= 3000.0)]})

    def close(self):
        pass


class FigureSweep:
    """``fig6_performance.run``, ``fig8_scalability.run`` and
    ``fig9_backpressure.run`` in turn, a new seed every round."""

    name = "figure-sweep"
    round_size = 3

    def __init__(self, seed, jobs, work_dir, size, env=None,
                 trace_dir=None):
        from repro.experiments import (fig6_performance, fig8_scalability,
                                       fig9_backpressure)

        self.seed = seed
        self.jobs = jobs
        self.size = SIZES[size]
        self.modules = {"fig6": fig6_performance, "fig8": fig8_scalability,
                        "fig9": fig9_backpressure}
        self._fig8 = (None, {})
        # The drivers return slowdown rows only; the per-point metrics
        # needed by the output checks are taken where each driver hands
        # its grid to run_grid, and handed back untouched.
        self._grids = []
        self._restore = []
        for module in self.modules.values():
            original = module.run_grid
            module.run_grid = self._tap(original)
            self._restore.append((module, original))

    def _tap(self, run_grid):
        def tapped(name, points, *args, **kwargs):
            points = list(points)
            metrics = run_grid(name, points, *args, **kwargs)
            self._grids.append((points, metrics))
            return metrics
        return tapped

    def run_op(self, index):
        figure = FIGURES[index % len(FIGURES)]
        round_seed = op_seed(self.seed, index // len(FIGURES))
        module = self.modules[figure]
        self._grids = []
        start = time.perf_counter()
        rows = module.run(
            dynamic_instructions=self.size["figure_instructions"],
            seed=round_seed, jobs=self.jobs)
        end = time.perf_counter()
        errors = []
        simulated = []
        instructions = 0
        for points, metrics in self._grids:
            vanilla = {}
            for point, m in zip(points, metrics):
                if point.task == "vanilla":
                    vanilla[(point.workload, point.instructions,
                             point.seed)] = m["instructions"]
            for point, m in zip(points, metrics):
                simulated.append((point.point_id, m))
                instructions += m.get("instructions", 0)
                if point.task != "meek":
                    continue
                if m.get("verified") is not True:
                    errors.append(f"{point.point_id}: not verified")
                twin = vanilla.get((point.workload, point.instructions,
                                    point.seed))
                if twin != m["instructions"]:
                    errors.append(f"{point.point_id}: {m['instructions']} "
                                  f"instructions, vanilla twin {twin}")
        gap = None
        round_index = index // len(FIGURES)
        if figure == "fig8":
            self._fig8 = (round_index, {
                cores: (value - 1.0) * 100.0
                for cores, value in module.geomeans(rows).items()})
        elif figure == "fig6" and self._fig8[0] == round_index:
            measured = {suite: (values["meek"] - 1.0) * 100.0
                        for suite, values in module.geomeans(rows).items()}
            measured.update(self._fig8[1])
            paper = {**PAPER_FIG6, **PAPER_FIG8}
            gap = sum(abs(measured[k] - paper[k]) for k in paper) / len(paper)
        return OpResult(index, start, end, instructions,
                        rows_digest(simulated), errors,
                        {"figure": figure, "gap_pp": gap})

    def close(self):
        for module, original in self._restore:
            module.run_grid = original


class CliRun:
    """``python -m repro run <workload> --instructions 20000``
    subprocesses against a warm private stepper cache."""

    name = "cli-run"
    round_size = 3

    def __init__(self, seed, jobs, work_dir, size, env=None,
                 trace_dir=None):
        self.seed = seed
        self.size = SIZES[size]
        self.env = env
        self.trace_dir = trace_dir

    def argv(self, index):
        return ["run", CLI_WORKLOADS[index % len(CLI_WORKLOADS)],
                "--instructions", str(self.size["cli_instructions"]),
                "--seed", str(op_seed(self.seed, index))]

    def command(self, index):
        if self.trace_dir is None:
            return [sys.executable, "-m", "repro"] + self.argv(index)
        driver = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "driver.py")
        return [sys.executable, driver, "traced-cli",
                "--trace-dir", self.trace_dir, "--op", str(index),
                "--"] + self.argv(index)

    def run_op(self, index):
        start = time.perf_counter()
        proc = subprocess.run(self.command(index), env=self.env,
                              capture_output=True, text=True, timeout=120)
        end = time.perf_counter()
        errors = check_cli_output(proc.returncode, proc.stdout)
        if proc.returncode != 0:
            errors.append(proc.stderr.strip()[-500:])
        match = re.search(r"^instructions\s*:\s*(\d+)", proc.stdout, re.M)
        return OpResult(index, start, end,
                        int(match.group(1)) if match else 0,
                        rows_digest(proc.stdout), errors)

    def close(self):
        pass


def check_cli_output(returncode, stdout):
    """The ``repro run`` output checks: exit 0, all segments verified."""
    errors = []
    if returncode != 0:
        errors.append(f"exit status {returncode}")
    if not re.search(r"^all verified\s*:\s*True\s*$", stdout, re.M):
        errors.append("output lacks 'all verified : True'")
    return errors


WORKLOADS = {cls.name: cls for cls in (InjectCampaign, FigureSweep, CliRun)}


def make_calibrator(name, jobs):
    """The host-speed reference that matches workload ``name``.

    The campaign workloads keep ``jobs`` pool workers with 65-140 MB
    heaps busy, so their reference runs in ``jobs`` processes over a heap
    beyond the CPU caches.  A cli-run operation is one process with a
    small heap, so its reference runs once with no long-lived heap.
    """
    if name == CliRun.name:
        return Calibrator(1, heap=False)
    return Calibrator(jobs, heap=True)


def planned_ops(name, size, seconds):
    """Timed operations in a run of ``seconds``, in whole rounds.  A
    fixed count, not a deadline, so every run measures the same
    operations at the same point in the process's life (operations
    slow down as a long-lived process ages)."""
    round_size = WORKLOADS[name].round_size
    rounds = round(seconds * SIZES[size][name] / round_size)
    return max(1, rounds) * round_size
