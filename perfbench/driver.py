"""One measurement pass of a workload, in a fresh interpreter.

``run.py`` starts this script for every pass so each one begins from a
clean process (and, when traced, installs its wrappers before the warm
pool forks):

    driver.py setup    --workload W --seed N --work DIR --result FILE
    driver.py measure  --workload W --seed N --work DIR --result FILE
                       --ops N [--limit S] [--trace-dir DIR]
    driver.py traced-cli --trace-dir DIR --op I -- <repro arguments>

``setup`` runs the first operation only and prints ``SETUP_DONE`` the
moment it completes (the caller times the cold start up to there).
``measure`` runs one untimed warm-up operation, then ``--ops`` timed
operations in whole rounds (fewer if ``--limit`` seconds pass first),
measuring the host factor (``calib.py``) before the first operation
and after every operation; each operation records the mean of the two
host factors around it.
``traced-cli`` is one traced ``repro`` command for cli-run.
"""

import argparse
import gc
import json
import os
import re
import resource
import sys
import time
import traceback

sys.dont_write_bytecode = True

from workloads import WORKLOADS, OpResult, make_calibrator  # noqa: E402


def _make_tracer(trace_dir):
    from layers import TARGETS, WORKER_ENTRY
    from tracer import Tracer

    tracer = Tracer(trace_dir)
    tracer.install(TARGETS, worker_entry=WORKER_ENTRY)
    return tracer


def _run_op(workload, index):
    start = time.perf_counter()
    try:
        return workload.run_op(index)
    except Exception:  # noqa: BLE001 — a failed operation is a result
        return OpResult(index, start, time.perf_counter(), 0, None,
                        [traceback.format_exc(limit=3)])


def _vm_hwm_kb(pid):
    """Peak resident set of a live process, from /proc (0 if unknown)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            match = re.search(r"^VmHWM:\s+(\d+) kB", handle.read(), re.M)
    except OSError:
        return 0
    return int(match.group(1)) if match else 0


def measure(args):
    # cli-run operations are subprocesses that trace themselves.
    tracer = (_make_tracer(args.trace_dir)
              if args.trace_dir and args.workload != "cli-run" else None)
    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, args.jobs, args.work, args.size,
                   env=dict(os.environ), trace_dir=args.trace_dir)
    ops = []
    tracked = []
    calibrator = None
    try:
        warmup = _run_op(workload, 0)
        if args.mode == "setup":
            print("SETUP_DONE", flush=True)
        else:
            calibrator = make_calibrator(args.workload, args.jobs)
            before = calibrator.measure()
            started = time.perf_counter()
            index = 1
            while len(ops) < args.ops:
                for _ in range(cls.round_size):
                    if tracer is not None:
                        tracer.op = index
                        with tracer.span("bench.op"):
                            op = _run_op(workload, index)
                        tracer.op = None
                        tracked.append(len(gc.get_objects()))
                    else:
                        op = _run_op(workload, index)
                    after = calibrator.measure()
                    op.host_factor = (before + after) / 2.0
                    ops.append(op)
                    before = after
                    index += 1
                if (args.limit is not None
                        and time.perf_counter() - started > args.limit):
                    break
        # Read before the reference-task process is reaped, so its heap
        # never counts as a cli-run child's.
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli-run" \
            else resource.RUSAGE_SELF
        own_kb = resource.getrusage(usage).ru_maxrss
        workers_kb = []
        if args.workload != "cli-run":
            from repro.perf.service import get_service

            info = get_service().pool_info()
            workers_kb = [_vm_hwm_kb(pid) for pid in (info or {}).get(
                "pids", ())]
            get_service().shutdown()
    finally:
        if calibrator is not None:
            calibrator.close()
        workload.close()
        if tracer is not None:
            tracer.dump()
            tracer.uninstall()
    result = {
        "warmup": warmup.to_dict(),
        "ops": [op.to_dict() for op in ops],
        "rss_kb": [own_kb] + workers_kb,
        "tracked_objects_by_op": tracked,
        "jobs": args.jobs,
    }
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def traced_cli(args):
    tracer = _make_tracer(args.trace_dir)
    tracer.role = "cli"
    tracer.op = args.op
    try:
        with tracer.span("bench.op"):
            from repro.cli import main
            status = main(args.argv)
    finally:
        tracer.dump()
        tracer.uninstall()
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "measure"):
        p = sub.add_parser(mode)
        p.add_argument("--workload", choices=sorted(WORKLOADS),
                       required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--jobs", type=int, required=True)
        p.add_argument("--work", required=True)
        p.add_argument("--result", required=True)
        p.add_argument("--ops", type=int, default=1)
        p.add_argument("--limit", type=float, default=None,
                       help="stop after the round that passes this many "
                            "seconds, even short of --ops")
        p.add_argument("--trace-dir", default=None)
        p.add_argument("--size", choices=("full", "tiny"), default="full")
    p = sub.add_parser("traced-cli")
    p.add_argument("--trace-dir", required=True)
    p.add_argument("--op", type=int, required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "traced-cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return traced_cli(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
