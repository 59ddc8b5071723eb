"""Which ``repro`` calls the traced run wraps, and how its spans become
the per-layer metrics named in ``BENCHMARK.json``.

Every target is a public function or method; the extractors read
simulated counters off the call's return value, so the counts are the
simulator's own and repeat exactly for a given seed.  See ``README.md``
for which end-to-end metric each per-layer metric should move.
"""

import statistics
from collections import defaultdict

STALL_REASONS = ("data_collecting", "data_forwarding", "little_core")
MEM_LEVELS = ("l1i", "l1d", "l2", "llc")


def _program_key(program):
    return [program.name, len(program.instructions)]


def _vanilla_info(args, kwargs, result):
    return {"program": _program_key(args[0])}


def _meek_run_info(args, kwargs, result):
    return {"program": _program_key(args[1])}


def _big_stats(run_result):
    memory = run_result.memory_stats or {}
    return {
        "commits": run_result.instructions,
        "cycles": run_result.cycles,
        "mem": {level: [memory[level]["hits"], memory[level]["misses"]]
                for level in MEM_LEVELS if level in memory},
        "dram": (memory.get("dram") or {}).get("requests", 0),
    }


def _bigcore_info(args, kwargs, result):
    return _big_stats(result)


def _meek_finish_info(args, kwargs, result):
    from repro.core import segmemo

    controller = result.controller
    stats = controller.stats()
    fabric = stats["fabric"]
    little = [0, 0, 0, 0]
    for pipeline in controller.pipelines:
        pstats = pipeline.stats()
        little[0] += pstats["instructions"]
        little[1] += pstats["busy_cycles"]
        little[2] += pstats["icache"]["hits"]
        little[3] += pstats["icache"]["misses"]
    injector = result.injector
    memo = segmemo.stats()
    return {
        "segments": stats["segments"],
        "stall": dict(stats["stall_cycles"]),
        "fabric": [fabric["packets"], fabric["flits"], fabric["busy_time"]],
        "little": little,
        "faults": ([len(injector.injections), injector.detected_count]
                   if injector is not None else [0, 0]),
        "memo": [memo["programs"], memo["summaries"]],
    }


def _batch_info(args, kwargs, result):
    stats = result.stats or {}
    lanes = [_big_stats(r.big) for r in result.results if r is not None]
    return {"lanes": stats.get("lanes", len(result.results)),
            "evicted": sum((stats.get("evictions") or {}).values()),
            "big": lanes}


def _campaign_info(args, kwargs, result):
    from repro.campaign.executor import default_jobs

    return {"points": len(result.results), "failed": len(result.failed),
            "jobs": default_jobs(kwargs.get("jobs"))}


#: (module, attribute, span name, extractor) for every wrapped call.
TARGETS = (
    ("repro.workloads.generator", "generate_program",
     "workloads.generate", None),
    ("repro.core.system", "run_vanilla", "bigcore.vanilla", _vanilla_info),
    ("repro.bigcore.core", "BigCore.run", "bigcore.run", _bigcore_info),
    ("repro.core.system", "MeekSystem.run", "core.meek_run",
     _meek_run_info),
    ("repro.core.system", "MeekSystem.finish", "core.finish",
     _meek_finish_info),
    ("repro.core.controller", "MeekController.finalize", "core.finalize",
     None),
    ("repro.baselines.lockstep", "EaLockstep.run", "baselines.lockstep",
     None),
    ("repro.baselines.nzdc", "run_nzdc", "baselines.nzdc", None),
    ("repro.perf.batch", "run_batch", "perf.batch", _batch_info),
    ("repro.perf.cache", "cached_compile", "perf.compile", None),
    ("repro.campaign.executor", "run_campaign", "campaign.run",
     _campaign_info),
    ("repro.campaign.work", "evaluate_units", "campaign.eval", None),
    ("repro.campaign.results", "ResultStore.append",
     "campaign.store_append", None),
    ("repro.analysis.coverage", "CoverageMap.observe_records",
     "analysis.coverage", None),
    ("repro.analysis.coverage", "CoverageMap.merge_cells",
     "analysis.coverage", None),
    ("repro.analysis.coverage", "save_coverage", "analysis.coverage", None),
    ("repro.obs.live", "LiveStatus.begin", "obs.live", None),
    ("repro.obs.live", "LiveStatus.point", "obs.live", None),
    ("repro.obs.live", "LiveStatus.batch", "obs.live", None),
    ("repro.obs.live", "LiveStatus.publish", "obs.live", None),
    ("repro.obs.live", "LiveStatus.finish", "obs.live", None),
    ("repro.experiments.runner", "run_grid", "experiments.grid", None),
    ("repro.cli", "main", "cli.main", None),
)

#: The pool worker main loop: wrapped so forked workers flush spans.
WORKER_ENTRY = ("repro.campaign.pool", "_pool_worker")

#: Per-layer metric names with units, in report order.
METRICS = (
    ("workloads.generate_s", "s/op"),
    ("workloads.programs", "count/op"),
    ("bigcore.vanilla_s", "s/op"),
    ("bigcore.commits", "count/op"),
    ("bigcore.sim_cycles", "cycles/op"),
    ("bigcore.ipc", "ratio"),
    ("core.meek_run_s", "s/op"),
    ("core.check_overhead_s", "s/op"),
    ("core.finalize_s", "s/op"),
    ("core.segments", "count/op"),
) + tuple((f"core.stall_cycles.{reason}", "cycles/op")
          for reason in STALL_REASONS) + (
    ("core.memo_programs", "count"),
    ("core.memo_summaries", "count"),
    ("faults.injections", "count/op"),
    ("faults.detected", "count/op"),
    ("littlecore.replay_instrs", "count/op"),
    ("littlecore.busy_cycles", "cycles/op"),
    ("littlecore.icache_miss_rate", "ratio"),
    ("fabric.packets", "count/op"),
    ("fabric.flits", "count/op"),
    ("fabric.busy_time", "cycles/op"),
) + tuple(item for level in MEM_LEVELS for item in (
    (f"mem.{level}_hit_rate", "ratio"),
    (f"mem.{level}_miss_rate", "ratio"))) + (
    ("mem.dram_accesses", "count/op"),
    ("baselines.lockstep_s", "s/op"),
    ("baselines.nzdc_s", "s/op"),
    ("perf.batch_s", "s/op"),
    ("perf.batch_lanes", "count/op"),
    ("perf.batch_evicted", "count/op"),
    ("perf.batch_useful_ratio", "ratio"),
    ("perf.compile_s", "s/start"),
    ("perf.compile_calls", "count/start"),
    ("campaign.eval_busy_s", "s/op"),
    ("campaign.overhead_s", "s/op"),
    ("campaign.worker_idle_frac", "ratio"),
    ("campaign.points", "count/op"),
    ("campaign.failed", "count/op"),
    ("campaign.store_append_s", "s/op"),
    ("analysis.coverage_s", "s/op"),
    ("obs.live_s", "s/op"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("gc.pause_s", "s/op"),
    ("gc.gen2_collections", "count/op"),
    ("gc.tracked_objects", "count"),
    ("trace.overhead_frac", "ratio"),
)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def attribute_ops(processes, windows):
    """Give every span an operation id.

    Driver spans carry theirs; pool-worker spans are assigned the
    operation whose ``(op, start, end)`` window contains their start.
    Spans outside every window (set-up, warm-up, teardown) get
    ``None``.
    """
    windows = sorted(windows, key=lambda w: w[1])
    timed = {op for op, _, _ in windows}
    for process in processes:
        for span in process["spans"]:
            if span[5] is not None:
                if span[5] not in timed:
                    span[5] = None
                continue
            for op, start, end in windows:
                if start <= span[3] <= end:
                    span[5] = op
                    break


def _outermost(spans, names):
    """Spans named in ``names`` with no ancestor also in ``names``
    (so nested calls of one layer count once)."""
    by_id = {span[0]: span for span in spans}
    chosen = []
    for span in spans:
        if span[2] not in names:
            continue
        parent = by_id.get(span[1])
        while parent is not None and parent[2] not in names:
            parent = by_id.get(parent[1])
        if parent is None:
            chosen.append(span)
    return chosen


def self_times(processes):
    """Self time (span minus its child spans) over the timed operations,
    summed per ``(process role, layer)``."""
    totals = defaultdict(float)
    for process in processes:
        child_time = defaultdict(float)
        for span in process["spans"]:
            if span[1] is not None:
                child_time[span[1]] += span[4] - span[3]
        for span in process["spans"]:
            if span[5] is None:
                continue
            key = (process["role"], span[2].split(".")[0])
            totals[key] += span[4] - span[3] - child_time[span[0]]
    return dict(totals)


def per_layer(processes, n_ops, starts, probes, overhead_frac):
    """The per-layer metrics from attributed process span dumps.

    ``n_ops`` is the number of timed operations, ``starts`` the number
    of fresh interpreters the traced pass started (compile metrics are
    per start), ``probes`` the ``cli.interpreter_s``/``cli.import_s``
    subprocess medians.
    """
    timed = [[s for s in p["spans"] if s[5] is not None] for p in processes]
    every = [p["spans"] for p in processes]

    def total(name, spans_of=timed):
        return sum(s[4] - s[3]
                   for spans in spans_of
                   for s in _outermost(spans, {name}))

    def infos(name):
        return [s[6] or {} for spans in timed for s in spans
                if s[2] == name]

    m = {}
    per_op = max(1, n_ops)
    m["workloads.generate_s"] = total("workloads.generate") / per_op
    m["workloads.programs"] = sum(
        1 for spans in timed for s in spans
        if s[2] == "workloads.generate") / per_op

    big = infos("bigcore.run")
    for batch in infos("perf.batch"):
        big.extend(batch.get("big", ()))
    commits = sum(b["commits"] for b in big)
    cycles = sum(b["cycles"] for b in big)
    m["bigcore.vanilla_s"] = total("bigcore.vanilla") / per_op
    m["bigcore.commits"] = commits / per_op
    m["bigcore.sim_cycles"] = cycles / per_op
    m["bigcore.ipc"] = _ratio(commits, cycles)

    m["core.meek_run_s"] = total("core.meek_run") / per_op
    vanilla = defaultdict(list)
    for spans in timed:
        for s in spans:
            if s[2] == "bigcore.vanilla":
                vanilla[(s[5], *s[6]["program"])].append(s[4] - s[3])
    overhead = 0.0
    for spans in timed:
        for s in spans:
            if s[2] != "core.meek_run":
                continue
            twin = vanilla.get((s[5], *s[6]["program"]))
            if twin:
                overhead += s[4] - s[3] - statistics.mean(twin)
    m["core.check_overhead_s"] = overhead / per_op
    m["core.finalize_s"] = total("core.finalize") / per_op

    finishes = infos("core.finish")
    m["core.segments"] = sum(f["segments"] for f in finishes) / per_op
    for reason in STALL_REASONS:
        m[f"core.stall_cycles.{reason}"] = sum(
            f["stall"].get(reason, 0) for f in finishes) / per_op
    m["core.memo_programs"] = (statistics.mean(
        f["memo"][0] for f in finishes) if finishes else 0.0)
    m["core.memo_summaries"] = (statistics.mean(
        f["memo"][1] for f in finishes) if finishes else 0.0)
    m["faults.injections"] = sum(f["faults"][0] for f in finishes) / per_op
    m["faults.detected"] = sum(f["faults"][1] for f in finishes) / per_op
    little = [sum(f["little"][i] for f in finishes) for i in range(4)]
    m["littlecore.replay_instrs"] = little[0] / per_op
    m["littlecore.busy_cycles"] = little[1] / per_op
    m["littlecore.icache_miss_rate"] = _ratio(little[3],
                                              little[2] + little[3])
    for i, name in enumerate(("packets", "flits", "busy_time")):
        m[f"fabric.{name}"] = sum(f["fabric"][i] for f in finishes) / per_op

    for level in MEM_LEVELS:
        hits = sum(b["mem"].get(level, (0, 0))[0] for b in big)
        misses = sum(b["mem"].get(level, (0, 0))[1] for b in big)
        m[f"mem.{level}_hit_rate"] = _ratio(hits, hits + misses)
        m[f"mem.{level}_miss_rate"] = _ratio(misses, hits + misses)
    m["mem.dram_accesses"] = sum(b["dram"] for b in big) / per_op

    m["baselines.lockstep_s"] = total("baselines.lockstep") / per_op
    m["baselines.nzdc_s"] = total("baselines.nzdc") / per_op

    batches = infos("perf.batch")
    lanes = sum(b["lanes"] for b in batches)
    evicted = sum(b["evicted"] for b in batches)
    m["perf.batch_s"] = total("perf.batch") / per_op
    m["perf.batch_lanes"] = lanes / per_op
    m["perf.batch_evicted"] = evicted / per_op
    m["perf.batch_useful_ratio"] = _ratio(lanes - evicted, lanes)
    compiles = [s for spans in every for s in spans
                if s[2] == "perf.compile"]
    m["perf.compile_s"] = sum(s[4] - s[3] for s in compiles) / max(1, starts)
    m["perf.compile_calls"] = len(compiles) / max(1, starts)

    busy = total("campaign.eval")
    capacity = sum((s[4] - s[3]) * (s[6] or {}).get("jobs", 1)
                   for spans in timed
                   for s in _outermost(spans, {"campaign.run"}))
    campaigns = infos("campaign.run")
    m["campaign.eval_busy_s"] = busy / per_op
    m["campaign.overhead_s"] = max(0.0, capacity - busy) / per_op
    m["campaign.worker_idle_frac"] = (max(0.0, 1.0 - busy / capacity)
                                      if capacity else 0.0)
    m["campaign.points"] = sum(c["points"] for c in campaigns) / per_op
    m["campaign.failed"] = sum(c["failed"] for c in campaigns) / per_op
    m["campaign.store_append_s"] = total("campaign.store_append") / per_op
    m["analysis.coverage_s"] = total("analysis.coverage") / per_op
    m["obs.live_s"] = total("obs.live") / per_op

    m["cli.interpreter_s"] = probes["interpreter_s"]
    m["cli.import_s"] = probes["import_s"]

    pauses = [s for spans in timed for s in spans if s[2] == "gc.pause"]
    m["gc.pause_s"] = sum(s[4] - s[3] for s in pauses) / per_op
    m["gc.gen2_collections"] = sum(
        1 for s in pauses if (s[6] or {}).get("generation") == 2) / per_op
    m["gc.tracked_objects"] = statistics.mean(
        p["tracked_objects"] for p in processes) if processes else 0.0
    m["trace.overhead_frac"] = overhead_frac
    return m


def gc_by_op(processes):
    """``{op: [pause_s, gen2]}`` over every process, per timed op."""
    rows = defaultdict(lambda: [0.0, 0])
    for p in processes:
        for s in p["spans"]:
            if s[2] == "gc.pause" and s[5] is not None:
                rows[s[5]][0] += s[4] - s[3]
                rows[s[5]][1] += (s[6] or {}).get("generation") == 2
    return dict(sorted(rows.items()))


def gc_by_process(processes):
    """``[(pid, role, pause_s, gen2, tracked_objects)]`` per process."""
    rows = []
    for p in processes:
        pauses = [s for s in p["spans"] if s[2] == "gc.pause"]
        rows.append((p["pid"], p["role"],
                     sum(s[4] - s[3] for s in pauses),
                     sum(1 for s in pauses
                         if (s[6] or {}).get("generation") == 2),
                     p["tracked_objects"]))
    return rows
