"""Pluggable campaign transports: how chunks travel to evaluators.

:func:`~repro.campaign.executor.run_campaign` plans a campaign (resume
realignment, store/live/progress fan-out, result ordering) and hands
the pending work to a **transport**, which owns only the question of
*where* the points evaluate.  Every evaluator is a runner speaking the
register/heartbeat/lease protocol of :mod:`repro.campaign.remote`, so
both transports share one main loop, :func:`drive_campaign`:

* :class:`LocalPoolTransport` — the runners of a forked
  :class:`~repro.campaign.pool.WorkerPool` on this machine.
* :class:`TcpRunnerTransport` — a
  :class:`~repro.campaign.remote.RunnerHub` of remote ``repro
  runner`` processes, optionally mixed with a local pool whose hub is
  attached to the same drive.

Every transport implements one method::

    execute(plan) -> {index: PointResult}

with every pending index present in the mapping, and the determinism
contract inherited from the scheduler core: rows are bit-identical to
serial no matter which transport (or mixture) carried them.
"""

import time
from dataclasses import dataclass, field

from repro.campaign.remote import Drive
from repro.campaign.sched import ChunkScheduler
from repro.campaign.work import CampaignAborted
from repro.obs.events import event_log

__all__ = ["ExecutionPlan", "LocalPoolTransport", "TcpRunnerTransport",
           "Transport", "drive_campaign", "effective_lease_timeout"]


def effective_lease_timeout(lease_timeout_s, timeout_s, batch_lanes):
    """The lease deadline a campaign's chunks actually get.

    Renewals arrive per completed unit (rows) and per heartbeat, but
    the deadline must still cover one evaluation unit's *legitimate*
    budget: a batch group may run ``timeout_s`` per lane to its alarm
    and then re-run the whole group through the scalar guard — up to
    ``2 * timeout_s * lanes`` before its first row can land.  Without
    this floor, a unit slower than the bare ``lease_timeout_s`` would
    expire mid-evaluation every time it ran, and the campaign would
    livelock re-leasing the same chunk forever.
    """
    if lease_timeout_s is None or timeout_s is None:
        return lease_timeout_s
    return lease_timeout_s + 2.0 * timeout_s * max(1, batch_lanes or 1)


@dataclass
class ExecutionPlan:
    """Everything a transport needs to run one campaign's pending set."""

    campaign_name: str
    #: ``(index, CampaignPoint)`` pairs still to evaluate.
    pending: list
    timeout_s: object = None
    chunk_size: object = None
    batch_lanes: int = 1
    #: Called with each fresh :class:`PointResult` as it folds.
    on_result: object = None
    #: Called with each batch kernel stats dict (chunk-atomic).
    on_batch: object = None
    #: Zero-argument poll; true aborts the campaign.
    abort: object = None
    #: Optional :class:`~repro.obs.live.LiveStatus` for transport-level
    #: extras (runner health); results are fed by the executor.
    live: object = None
    #: How many local runners the transport may use (``None`` = its own
    #: default); remote transports treat this as the *mixed-mode* pool
    #: size.
    jobs: object = None
    extras: dict = field(default_factory=dict)

    def deliver(self, deliverables):
        """Fan one batch of scheduler deliverables out to the hooks."""
        for kind, payload in deliverables:
            if kind == "result" and self.on_result is not None:
                self.on_result(payload)
            elif kind == "batch" and self.on_batch is not None:
                self.on_batch(payload)


class Transport:
    """Interface: carry an :class:`ExecutionPlan` to completion."""

    def execute(self, plan):
        raise NotImplementedError

    def close(self):
        """Release transport-owned resources (pools, sockets)."""


def drive_campaign(plan, hubs, sources, lease_timeout_s=None,
                   poll_s=0.05, remote=None, runner_grace_s=0.0,
                   status_interval_s=1.0):
    """The one main loop: run ``plan`` over the runners of ``hubs``.

    One :class:`~repro.campaign.remote.Drive` over one
    :class:`~repro.campaign.sched.ChunkScheduler` is attached to every
    hub; their connection threads lease and record through it, while
    this loop folds deliverables, expires wedged leases, and publishes
    the ``remote`` hub's runner health to the plan's live status.  It
    waits on the drive — a folded row or a lost runner wakes it — for
    at most ``poll_s`` at a time.

    The loss rule: a dead runner's leases requeue immediately (the hub
    sees its connection drop).  The remainder fails as ``WorkerDied``
    only when no runner is left in any hub and none rejoins within
    ``runner_grace_s``.  Local runners never reconnect, so the grace
    applies only once a runner of the ``remote`` hub has registered.
    """
    log = event_log()
    sched = ChunkScheduler(plan.pending, chunk_size=plan.chunk_size,
                           sources=max(1, sources),
                           batch_lanes=plan.batch_lanes,
                           lease_timeout_s=effective_lease_timeout(
                               lease_timeout_s, plan.timeout_s,
                               plan.batch_lanes))
    drive = Drive(sched, campaign_name=plan.campaign_name,
                  timeout_s=plan.timeout_s, batch_lanes=plan.batch_lanes)
    for hub in hubs:
        hub.attach(drive)
    next_status = 0.0
    had_remote = remote is not None and bool(remote.runners_info())
    fleet_lost_at = None
    try:
        while True:
            if plan.abort is not None and plan.abort():
                raise CampaignAborted(
                    f"campaign {plan.campaign_name!r} aborted with "
                    f"{drive.completed} of {len(plan.pending)} "
                    f"pending points done", completed=drive.completed)
            plan.deliver(drive.drain())
            if drive.done:
                break
            now = time.monotonic()
            for chunk in drive.expire(now):
                log.emit("lease_expired", chunk=chunk.chunk_id,
                         campaign=plan.campaign_name,
                         points=len(chunk.pairs))
            if remote is not None:
                if remote.active_count():
                    had_remote = True
                if plan.live is not None and now >= next_status:
                    plan.live.runners(remote.runners_info())
                    next_status = now + status_interval_s
            if any(hub.active_count() for hub in hubs):
                fleet_lost_at = None
            else:
                if fleet_lost_at is None:
                    fleet_lost_at = now
                grace = runner_grace_s if had_remote else 0.0
                if now - fleet_lost_at >= grace:
                    plan.deliver(drive.fail_lost())
                    break
            drive.wait(poll_s)
    finally:
        drive.close()
        for hub in hubs:
            hub.detach()
    plan.deliver(drive.drain())
    return drive.results()


class LocalPoolTransport(Transport):
    """Local runners: the forked :class:`~repro.campaign.pool.WorkerPool`.

    ``pool`` may be a live pool, a zero-argument factory returning one
    (or ``None`` for serial), or absent — in which case an ephemeral
    pool of ``plan.jobs`` runners is forked per campaign and closed
    afterwards (the classic ``run_campaign(jobs=N)`` behaviour).
    """

    def __init__(self, pool=None, jobs=None):
        self._pool = pool
        self._jobs = jobs

    def execute(self, plan):
        pool = self._pool
        if pool is not None and callable(pool):
            pool = pool()
        if pool is not None:
            return self._run(pool, plan)
        jobs = self._jobs if self._jobs is not None else plan.jobs
        jobs = max(1, int(jobs or 1))
        from repro.campaign.pool import WorkerPool
        with WorkerPool(min(jobs, max(1, len(plan.pending)))) as ephemeral:
            return self._run(ephemeral, plan)

    @staticmethod
    def _run(pool, plan):
        return pool.run(plan.campaign_name, plan.pending,
                        timeout_s=plan.timeout_s,
                        chunk_size=plan.chunk_size,
                        on_result=plan.on_result, abort=plan.abort,
                        batch_lanes=plan.batch_lanes,
                        on_batch=plan.on_batch)


class TcpRunnerTransport(Transport):
    """Distribute chunks across registered remote runners (and,
    optionally, the runners of a local pool attached to the same
    drive).

    Runner loss follows :func:`drive_campaign`: a disconnected
    runner's chunks requeue immediately; a wedged-but-connected
    runner's chunks requeue when their lease deadline lapses.  The
    effective deadline is ``lease_timeout_s`` plus one evaluation
    unit's legitimate budget (a batch group may burn ``timeout_s`` per
    lane, then re-run scalar after a failure), and it is renewed by
    rows and by the runner's in-evaluation heartbeat thread — so only
    a runner that genuinely stopped responding ever expires.  Either
    way the re-run is bit-identical — rows are pure functions of point
    identity, and the bumped lease epoch blackholes any stragglers
    from the lost lease.

    When the last runner drops, the transport grace-waits
    ``runner_grace_s`` (sized to ``run_runner``'s default reconnect
    window) for a re-registration before failing the remainder as
    ``WorkerDied`` — a transient TCP blip must not convert a
    recoverable run into a failed one.
    """

    def __init__(self, hub, local_pool=None, lease_timeout_s=60.0,
                 poll_s=0.05, status_interval_s=1.0,
                 runner_grace_s=30.0):
        self.hub = hub
        self._local_pool = local_pool
        self.lease_timeout_s = lease_timeout_s
        self.poll_s = poll_s
        self.status_interval_s = status_interval_s
        self.runner_grace_s = runner_grace_s

    def execute(self, plan):
        pool = self._local_pool
        if pool is not None and callable(pool):
            pool = pool()
        hubs = [self.hub] + ([pool.hub] if pool is not None else [])
        return drive_campaign(
            plan, hubs,
            sources=self.hub.active_count() + (pool.jobs if pool else 0),
            lease_timeout_s=self.lease_timeout_s, poll_s=self.poll_s,
            remote=self.hub, runner_grace_s=self.runner_grace_s,
            status_interval_s=self.status_interval_s)

    def close(self):
        pool = self._local_pool
        if pool is not None and not callable(pool):
            pool.close()
