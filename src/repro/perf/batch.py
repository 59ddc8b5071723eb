"""Batched lockstep campaign kernel: N fault-injection points per step.

Campaigns run thousands of near-identical systems that differ only in
their injected faults.  Fault injection corrupts *forwarded copies* of
data — run-time records, status snapshots, DC-Buffer and fabric
payloads — never big-core architectural state (the PR-8 architectural
non-interference battery pins this down).  Three consequences:

* the functional instruction stream (PCs, register and memory values,
  branch outcomes, traps) is identical across every lane of a batch;
* cache *contents* evolve by access order alone, never by access
  timing, so every lane sees the same serving level for every access
  (:meth:`~repro.mem.hierarchy.MemoryHierarchy.lookup_code`);
* the branch predictor sees the same ``(pc, outcome)`` stream, so
  every lane predicts and redirects identically.

A batch therefore advances with ONE shared functional execution (the
decoded-closure program from :mod:`repro.perf.decode`, one decode for
the whole batch), ONE shared tag walk, and ONE shared predictor — and
keeps per-lane only what faults can actually perturb through MEEK
backpressure: the commit-time clock.  Per-lane timing lives in
structure-of-arrays numpy vectors (fetch/commit cycles, scoreboards,
occupancy windows as deques of lane-vectors, functional-unit pools as
2-D ``free_at`` matrices).  Dormant commits — nothing to log, cannot
trap — are absorbed with vector arithmetic against the controllers'
inline-budget cells.  Python executes per-lane only where lanes
genuinely differ: log-producing commits (the MEEK hook, where each
lane's own controller/fabric/injector runs, so faults land
per-lane), cache misses (per-lane DRAM window and L1 MSHR queueing),
and the final trap.

SoA backend: numpy.  The ``array`` module was benched as the
alternative (see ``soa_lane_backend`` in :mod:`repro.perf.bench`) and
loses by an order of magnitude: the recurrences here are dominated by
element-wise ``max`` against scoreboard rows, which ``array.array``
can only do in a Python loop while numpy does it in one fused C pass.
When numpy is unavailable the batch kernel reports itself unavailable
and campaigns fall back to the scalar kernel.

Divergence and eviction: a lane's architectural state *cannot*
diverge — the non-interference property above is load-bearing and is
enforced by the bit-identity battery.  Eviction is therefore a purely
defensive mechanism: a lane whose controller raises, or one forcibly
evicted by the test hooks (``REPRO_BATCH_FORCE_EVICT`` /
``force_eviction_hook``), is dropped from the batch mid-run and the
caller reruns that point on the scalar kernel from cycle 0 — which is
bit-identical by definition.  Whole-engine failures abort the batch
the same way for every lane.

``REPRO_NO_BATCH=1`` disables batching outright; ``REPRO_SLOW_KERNEL=1``
(the historical escape hatch) does too, because batching reproduces
the *fast*-kernel commit protocol.
"""

import os

from repro.common.errors import SimulationError
from repro.core.system import MeekSystem
from repro.fabric.packets import RuntimeEntry
from repro.isa.instructions import InstrClass
from repro.isa.state import ArchState
from repro.mem.hierarchy import AccessKind, L1_HIT
from repro.perf.decode import decode_program, slow_kernel_enabled

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is part of the toolchain
    _np = None

#: Default lane count for ``--batch auto``: wide enough to amortize the
#: shared per-instruction work, small enough that one batch stays well
#: under a campaign's per-point timeout budget.  Measured points/s
#: peaks around 32 lanes (64 is slightly better warm but regresses at
#: dense fault rates where per-lane Python dominates).
DEFAULT_BATCH_LANES = 32

#: Test hook: ``callable(lane, instr_index) -> bool`` forcing an
#: eviction; see also ``REPRO_BATCH_FORCE_EVICT="lane:index[,...]"``.
force_eviction_hook = None

_RA = 1  # link register (jal/jalr calling convention)


def no_batch_enabled():
    """``REPRO_NO_BATCH=1`` turns the batch kernel off."""
    return os.environ.get("REPRO_NO_BATCH", "") not in ("", "0")


def batch_available():
    """Whether the batched kernel may run in this process."""
    return (_np is not None and not no_batch_enabled()
            and not slow_kernel_enabled())


class BatchError(SimulationError):
    """Whole-batch failure: rerun every lane on the scalar kernel."""


class _ForcedEviction(Exception):
    """Raised by the test hooks to force one lane out mid-run."""


def _env_forced_evictions():
    """Parse ``REPRO_BATCH_FORCE_EVICT`` into {(lane, index), ...}."""
    raw = os.environ.get("REPRO_BATCH_FORCE_EVICT", "")
    forced = set()
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        lane, _, index = item.partition(":")
        try:
            forced.add((int(lane), int(index)))
        except ValueError:
            raise BatchError(
                f"bad REPRO_BATCH_FORCE_EVICT entry {item!r}") from None
    return forced


class _VecPool:
    """A functional-unit pool across all lanes: ``free_at`` is
    ``(units, lanes)``; ties go to the lowest unit index, matching the
    scalar ``_FuPool`` linear scan."""

    __slots__ = ("free_at", "_lane_index")

    def __init__(self, units, lanes):
        self.free_at = _np.zeros((max(1, units), lanes), dtype=_np.float64)
        self._lane_index = _np.arange(lanes)

    def acquire(self, ready, occupancy):
        free_at = self.free_at
        if free_at.shape[0] == 1:
            row = free_at[0]
            issue = _np.maximum(ready, row)
            _np.add(issue, occupancy, out=row)
            return issue
        best = _np.argmin(free_at, axis=0)
        lanes = self._lane_index
        issue = _np.maximum(ready, free_at[best, lanes])
        free_at[best, lanes] = issue + occupancy
        return issue


class _Plan:
    """Per-static-instruction facts, resolved once per program."""

    __slots__ = ("fn", "cls", "op", "rd", "rs1", "rs2",
                 "is_load", "is_store", "is_branch", "is_jump",
                 "needs_entry", "reads_i1", "reads_i2", "reads_f1",
                 "reads_f2", "writes_int", "writes_fp")

    def __init__(self, decoded_instr):
        instr = decoded_instr.instr
        spec = instr.spec
        self.fn = decoded_instr.fn
        self.cls = decoded_instr.iclass
        self.op = instr.op
        self.rd = instr.rd
        self.rs1 = instr.rs1
        self.rs2 = instr.rs2
        self.is_load = self.cls is InstrClass.LOAD
        self.is_store = self.cls is InstrClass.STORE
        self.is_branch = self.cls is InstrClass.BRANCH
        self.is_jump = self.cls is InstrClass.JUMP
        self.needs_entry = decoded_instr.needs_entry
        self.reads_i1 = spec.reads_int_rs1
        self.reads_i2 = spec.reads_int_rs2
        self.reads_f1 = spec.reads_fp_rs1
        self.reads_f2 = spec.reads_fp_rs2
        self.writes_int = spec.writes_int_rd
        self.writes_fp = spec.writes_fp_rd


# DecodedProgram has __slots__, so plans live in a small side cache
# keyed by decoded-program identity (bounded: campaigns reuse a handful
# of programs; entries are evicted FIFO).
_plan_cache = {}
_PLAN_CACHE_MAX = 64


def _plans_for(decoded):
    cached = _plan_cache.get(id(decoded))
    if cached is not None and cached[0] is decoded:
        return cached[1]
    plans = [_Plan(d) for d in decoded.entries]
    if len(_plan_cache) >= _PLAN_CACHE_MAX:
        _plan_cache.pop(next(iter(_plan_cache)))
    _plan_cache[id(decoded)] = (decoded, plans)
    return plans


class BatchOutcome:
    """What one batch produced.

    ``results[i]`` is the lane's :class:`~repro.core.system.MeekRunResult`
    or ``None`` when the lane was evicted; ``evicted[i]`` names the
    eviction cause (``None`` for lanes that completed).  ``stats``
    carries occupancy/eviction observability:
    ``{"lanes", "instructions", "occupancy", "evictions": {cause: n}}``.
    """

    __slots__ = ("results", "evicted", "stats")

    def __init__(self, results, evicted, stats):
        self.results = results
        self.evicted = evicted
        self.stats = stats


def run_batch(config, program, injectors):
    """Advance one batch of MEEK systems in lockstep.

    ``injectors`` (one per lane, or ``None`` entries for fault-free
    lanes) defines the batch width.  Every lane runs ``program`` under
    ``config``; per-lane results are bit-identical to
    ``MeekSystem(config, injector).run(program)`` on the scalar fast
    kernel.  Raises :class:`BatchError` when the whole batch cannot
    run (caller falls back to scalar execution for every lane).
    """
    if not batch_available():
        raise BatchError("batch kernel unavailable "
                         "(numpy/REPRO_NO_BATCH/REPRO_SLOW_KERNEL)")
    return _BatchEngine(config, program, injectors).run()


class _BatchEngine:
    def __init__(self, config, program, injectors):
        self.config = config
        self.program = program
        self.lanes = len(injectors)
        if self.lanes < 1:
            raise BatchError("empty batch")
        if not config.checking_enabled:
            # Without checking the controller never runs and the scalar
            # kernel is already optimal; nothing to batch.
            raise BatchError("batching requires checking_enabled")
        self.decoded = decode_program(program)
        self.plans = _plans_for(self.decoded)
        for plan in self.plans:
            if plan.cls is InstrClass.MEEK:
                raise BatchError("MEEK-extension programs are not batchable")
        # Shared functional/arch state: one execution for all lanes.
        self.state = ArchState(pc=program.entry_pc)
        program.data.apply(self.state.memory)
        # Per-lane systems: controller, fabric, pipelines, DEU and
        # injector are all genuinely per-lane (faults land
        # per-lane); the big core contributes the lane's private
        # DRAM/MSHR queueing state.  Lane 0's big core additionally
        # donates the *shared* tag state, predictor and FU tables —
        # tag walks and latency resolution touch disjoint state.
        self.systems = []
        self.controllers = []
        self.lane_mem = []
        for injector in injectors:
            system = MeekSystem(config, injector=injector)
            controller = system.attach(program, self.state)
            self.systems.append(system)
            self.controllers.append(controller)
            self.lane_mem.append(system.big_core.hierarchy)
        donor = self.systems[0].big_core
        self.shared_mem = donor.hierarchy
        self.predictor = donor.predictor
        from repro.perf.decode import CLASS_LIST
        self.pools = {
            cls: _VecPool(len(donor._pools[cls].free_at), self.lanes)
            for cls in CLASS_LIST}
        self.latency = donor._latency
        self.occupancy = donor._occupancy
        self.classify = self.controllers[0].deu.classify
        self._forced = _env_forced_evictions()
        # Lane liveness + observability.
        self.live = list(range(self.lanes))
        self.evicted = [None] * self.lanes
        self.eviction_counts = {}
        self._occupancy_sum = 0

    # -- eviction ----------------------------------------------------------

    def _should_force_evict(self, lane, index):
        if (lane, index) in self._forced:
            return True
        hook = force_eviction_hook
        return hook is not None and hook(lane, index)

    def _evict(self, lane, cause):
        self.evicted[lane] = cause
        self.eviction_counts[cause] = self.eviction_counts.get(cause, 0) + 1
        self.live.remove(lane)
        if not self.live:
            raise BatchError("every lane evicted")

    # -- the lockstep loop -------------------------------------------------

    def run(self):
        np = _np
        state = self.state
        plans = self.plans
        base = self.decoded.base
        n_static = len(plans)
        lanes = self.lanes
        cfg = self.config.big_core
        shared = self.shared_mem
        predictor = self.predictor
        classify = self.classify
        controllers = self.controllers
        lane_mem = self.lane_mem
        live = self.live
        maximum = np.maximum

        from repro.bigcore.core import BTB_BUBBLE_CYCLES, FRONTEND_DEPTH
        fetch_width = cfg.fetch_width
        commit_width = cfg.commit_width
        rob_entries = cfg.rob_entries
        iq_entries = cfg.issue_queue_entries
        ldq_entries = cfg.ldq_entries
        stq_entries = cfg.stq_entries
        int_prf_window = max(1, cfg.int_phys_regs - 32)
        fp_prf_window = max(1, cfg.fp_phys_regs - 32)
        redirect_extra = max(1, cfg.mispredict_penalty - FRONTEND_DEPTH)
        l1i_hit = shared.config.l1i.hit_latency
        l1d_hit = shared.config.l1d.hit_latency
        ifetch_kind = AccessKind.IFETCH
        load_kind = AccessKind.LOAD
        store_kind = AccessKind.STORE

        # One (plan, pool, latency, occupancy) row per static
        # instruction: the per-instruction dict lookups, resolved once.
        pools = self.pools
        latency = self.latency
        occupancy = self.occupancy
        steps = [(p, pools[p.cls], latency.get(p.cls, 1),
                  occupancy.get(p.cls, 1)) for p in plans]

        from collections import deque
        int_ready = np.zeros((32, lanes), dtype=np.float64)
        fp_ready = np.zeros((32, lanes), dtype=np.float64)
        rob = deque()
        iq = deque()
        ldq = deque()
        stq = deque()
        int_writers = deque()
        fp_writers = deque()

        nfc = np.zeros(lanes, dtype=np.float64)     # next fetch cycle
        last_commit = np.zeros(lanes, dtype=np.float64)
        ctc = np.zeros(lanes, dtype=np.int64)       # committed this cycle
        fetched = 0                                 # lane-invariant
        cur_line = None                             # lane-invariant
        # Mirror of each controller's inline-budget cell [count, budget].
        hot0 = np.zeros(lanes, dtype=np.int64)
        hot1 = np.zeros(lanes, dtype=np.int64)
        for b, ctrl in enumerate(controllers):
            hot0[b], hot1[b] = ctrl._hot
        # Scratch vectors reused every iteration (they never escape
        # one loop trip; anything appended to a window deque or a
        # scoreboard row is a fresh array or a row-copy assignment).
        complete = np.zeros(lanes, dtype=np.float64)
        same = np.zeros(lanes, dtype=bool)
        bump = np.zeros(lanes, dtype=bool)
        absorbed = np.zeros(lanes, dtype=np.int64)
        fire = np.zeros(lanes, dtype=bool)

        check_forced = bool(self._forced) or force_eviction_hook is not None
        occupancy_sum = 0
        index = 0
        halted_by = "end"
        while True:
            pc = state.pc
            offset = pc - base
            if offset < 0 or offset & 3:
                raise BatchError(f"pc {pc:#x} left the decoded image")
            idx = offset >> 2
            if idx >= n_static:
                break
            p, pool, lat, occ = steps[idx]

            # ---- fetch (shared tag walk, per-lane miss queueing) -----
            # ``nfc`` doubles as this instruction's fetch cycle: it is
            # only rebound (never mutated in place) between here and
            # the control-flow handlers that read it.
            line = pc >> 6
            if line != cur_line:
                code = shared.lookup_code(pc, ifetch_kind)
                if code != L1_HIT:
                    for b in live:
                        nfc[b] += lane_mem[b].latency_for_code(
                            code, float(nfc[b]), ifetch_kind)
                    fetched = 0
                cur_line = line
            if fetched >= fetch_width:
                nfc += 1
                fetched = 0
            fetched += 1

            # ---- rename/dispatch (occupancy windows) -----------------
            rename = nfc + FRONTEND_DEPTH
            if len(rob) >= rob_entries:
                maximum(rename, rob.popleft(), out=rename)
            if len(iq) >= iq_entries:
                maximum(rename, iq.popleft(), out=rename)
            if p.is_load and len(ldq) >= ldq_entries:
                maximum(rename, ldq.popleft(), out=rename)
            if p.is_store and len(stq) >= stq_entries:
                maximum(rename, stq.popleft(), out=rename)
            if p.writes_int and len(int_writers) >= int_prf_window:
                maximum(rename, int_writers.popleft(), out=rename)
            if p.writes_fp and len(fp_writers) >= fp_prf_window:
                maximum(rename, fp_writers.popleft(), out=rename)

            # ---- operand readiness (aliases rename, dead below) ------
            rename += 1
            ready = rename
            if p.reads_i1:
                maximum(ready, int_ready[p.rs1], out=ready)
            if p.reads_i2:
                maximum(ready, int_ready[p.rs2], out=ready)
            if p.reads_f1:
                maximum(ready, fp_ready[p.rs1], out=ready)
            if p.reads_f2:
                maximum(ready, fp_ready[p.rs2], out=ready)

            # ---- functional execution (shared, once per batch) -------
            result = p.fn(state, None, None)

            # ---- issue + complete ------------------------------------
            if p.is_load:
                issue = pool.acquire(ready, 1)
                code = shared.lookup_code(result.mem_addr, load_kind)
                if code == L1_HIT:
                    np.add(issue, l1d_hit, out=complete)
                else:
                    np.copyto(complete, issue)
                    for b in live:
                        complete[b] += lane_mem[b].latency_for_code(
                            code, float(issue[b]), load_kind)
            elif p.is_store:
                issue = pool.acquire(ready, 1)
                np.add(issue, 1, out=complete)
            else:
                issue = pool.acquire(ready, occ)
                np.add(issue, lat, out=complete)

            # ---- control flow / prediction (shared outcome) ----------
            if p.is_branch:
                outcome = predictor.predict_and_update(
                    pc, result.taken,
                    target=result.next_pc if result.taken else None)
                if outcome == "mispredict":
                    nfc = complete + redirect_extra
                    fetched = 0
                    cur_line = None
                elif outcome == "btb_bubble":
                    nfc = nfc + BTB_BUBBLE_CYCLES
                    fetched = 0
                    cur_line = None
                elif result.taken:
                    nfc = nfc + 1
                    fetched = 0
                    cur_line = None
            elif p.is_jump:
                if p.op == "jal":
                    if p.rd == _RA:
                        predictor.predict_call(pc, pc + 4)
                    correct = True
                else:  # jalr
                    if p.rd == _RA:
                        predictor.predict_call(pc, pc + 4)
                        correct = predictor.predict_indirect(
                            pc, result.next_pc)
                    elif p.rs1 == _RA and p.rd == 0:
                        correct = predictor.predict_return(pc, result.next_pc)
                    else:
                        correct = predictor.predict_indirect(
                            pc, result.next_pc)
                if not correct:
                    nfc = complete + redirect_extra
                else:
                    nfc = nfc + 1
                fetched = 0
                cur_line = None

            # ---- commit head -----------------------------------------
            commit = complete + 1
            maximum(commit, last_commit, out=commit)
            np.equal(commit, last_commit, out=same)
            np.greater_equal(ctc, commit_width, out=bump)
            np.logical_and(bump, same, out=bump)
            if bump.any():
                commit[bump] += 1
                ctc[bump] = 0
            np.logical_not(same, out=same)
            ctc[same] = 0

            if p.is_store:
                # Write buffer retires the store after commit (before
                # the hook sees the instruction, as on the scalar path).
                code = shared.lookup_code(result.mem_addr, store_kind)
                if code != L1_HIT:
                    for b in live:
                        lane_mem[b].latency_for_code(
                            code, float(commit[b]), store_kind)

            # ---- the MEEK hook (genuinely per-lane) ------------------
            trap = result.trap
            if p.needs_entry or trap is not None:
                record = classify(result)
                if record is None:
                    rkind, addr, data, size = None, 0, 0, 0
                    template = None
                else:
                    rkind, addr, data, size = record
                    # The record fields are lane-invariant (faults
                    # corrupt forwarded copies downstream), so build
                    # one template — paying the parity computation
                    # once — and hand each lane its own copy to
                    # corrupt/buffer/compare independently.
                    template = RuntimeEntry(rkind, addr, data, size)
                for b in tuple(live):
                    try:
                        if check_forced and self._should_force_evict(b, index):
                            raise _ForcedEviction
                        ctrl = controllers[b]
                        hot = ctrl._hot
                        hot[0] = int(hot0[b])
                        newc = ctrl.fast_commit(
                            index, pc, float(commit[b]), int(ctc[b]), trap,
                            rkind, addr, data, size,
                            prebuilt=(None if template is None
                                      else template.copy()))
                        if newc > commit[b]:
                            ctc[b] = 0
                            commit[b] = newc
                        hot0[b] = hot[0]
                        hot1[b] = hot[1]
                    except _ForcedEviction:
                        self._evict(b, "forced")
                    except Exception:
                        self._evict(b, "hook-error")
            else:
                np.add(hot0, 1, out=absorbed)
                np.greater_equal(absorbed, hot1, out=fire)
                if fire.any():
                    # Firing lanes keep their count (the hook writes it
                    # back); the rest absorb this dormant commit.
                    np.less(absorbed, hot1, out=same)
                    np.copyto(hot0, absorbed, where=same)
                    for b in tuple(live):
                        if not fire[b]:
                            continue
                        try:
                            if (check_forced
                                    and self._should_force_evict(b, index)):
                                raise _ForcedEviction
                            ctrl = controllers[b]
                            hot = ctrl._hot
                            hot[0] = int(hot0[b])
                            newc = ctrl.fast_commit(
                                index, pc, float(commit[b]), int(ctc[b]),
                                None, None, 0, 0, 0)
                            if newc > commit[b]:
                                ctc[b] = 0
                                commit[b] = newc
                            hot0[b] = hot[0]
                            hot1[b] = hot[1]
                        except _ForcedEviction:
                            self._evict(b, "forced")
                        except Exception:
                            self._evict(b, "hook-error")
                else:
                    # Every lane absorbed: swap the buffers instead of
                    # copying absorbed counts back.
                    hot0, absorbed = absorbed, hot0

            last_commit = commit
            ctc += 1

            # ---- bookkeeping -----------------------------------------
            rob.append(commit)
            iq.append(issue)
            if p.is_load:
                ldq.append(commit)
            elif p.is_store:
                stq.append(commit)
            if p.writes_int and p.rd:
                int_ready[p.rd] = complete
                int_writers.append(commit)
            if p.writes_fp:
                fp_ready[p.rd] = complete
                fp_writers.append(commit)

            occupancy_sum += len(live)
            index += 1
            if trap is not None:
                halted_by = trap
                break

        self._occupancy_sum = occupancy_sum
        return self._finish(index, last_commit, hot0, halted_by)

    # -- teardown ----------------------------------------------------------

    def _finish(self, instructions, last_commit, hot0, halted_by):
        from repro.bigcore.core import RunResult
        predictor_stats = self.predictor.stats()
        memory_stats = self.shared_mem.stats()
        results = [None] * self.lanes
        for b in tuple(self.live):
            cycles = float(last_commit[b])
            controller = self.controllers[b]
            controller._hot[0] = int(hot0[b])
            big = RunResult(
                instructions=instructions, cycles=cycles, state=self.state,
                predictor_stats=predictor_stats, memory_stats=memory_stats,
                halted_by=halted_by)
            try:
                results[b] = self.systems[b].finish(big)
            except Exception:
                self._evict(b, "finalize-error")
        denominator = max(1, instructions) * self.lanes
        stats = {
            "lanes": self.lanes,
            "instructions": instructions,
            "occupancy": self._occupancy_sum / denominator,
            "evictions": dict(self.eviction_counts),
        }
        return BatchOutcome(results, list(self.evicted), stats)
