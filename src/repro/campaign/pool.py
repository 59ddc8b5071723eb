"""The forked local worker pool: N runners on this machine.

This is the only campaign module that touches :mod:`multiprocessing`,
and only to fork.  A :class:`WorkerPool` forks its runners **once**
and reuses them across campaigns: each pre-imports the simulator,
pre-warms the persistent stepper cache (:mod:`repro.perf.cache`), and
then runs the same lease loop as a remote ``repro runner``
(:func:`~repro.campaign.remote.serve_leases`), speaking line-JSON over
its end of a :func:`socket.socketpair` to a master-side connection
thread (:func:`~repro.campaign.remote.serve_connection`) registered in
the pool's own :class:`~repro.campaign.remote.RunnerHub`.  So
back-to-back campaigns (figure drivers, difftest sweeps, ``repro
batch`` scripts) pay interpreter startup and stepper compilation once
per runner, not once per campaign, and a local runner's loss follows
the one rule every runner follows: its leases requeue at once.

:meth:`WorkerPool.run` is the all-in-one call: chunk the pending
pairs, drive them through the pool's hub, return ``{index:
PointResult}`` with every index present.  Points fail as
``WorkerDied`` only once every runner of the pool is gone.
"""

import multiprocessing
import socket
import threading

from repro.campaign.work import warm_worker
from repro.obs.events import event_log

__all__ = ["WorkerPool"]


def _pool_worker(worker_id, runner_id, sock, warm, inherited=()):
    """Local runner main loop: serve leases until the master closes
    the socket, then return.

    ``inherited`` holds the master-side socket ends this fork copied
    from its parent (its own and its earlier siblings'); they are
    closed first, so each runner holds only its own end and a
    master's exit is an EOF here.
    """
    from repro.campaign.remote import _Channel, serve_leases

    for other in inherited:
        other.close()
    if warm:
        try:
            warm_worker()
        except Exception:  # noqa: BLE001 — warm-up is never fatal
            pass
    log = event_log()
    log.emit("shard_ready", worker=worker_id)
    channel = _Channel(sock)
    try:
        serve_leases(channel, runner_id, worker_id)
    except (OSError, ConnectionError):
        pass  # the pool closed (or the master died): shut down
    finally:
        channel.close()
    log.emit("shard_exit", worker=worker_id)


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class WorkerPool:
    """A set of persistent local runners (forked once, reused).

    With the default ``fork`` start method the runners inherit the
    parent's warm state (imported modules, compiled steppers) for
    free; ``warm=True`` additionally primes each runner explicitly,
    which covers spawn platforms and runners forked before the parent
    warmed up.  Use as a context manager, or call :meth:`close`.
    """

    def __init__(self, jobs, warm=False, context=None):
        # Imported here: the remote module pulls in the serve protocol,
        # whose package imports the executor, which imports this module.
        from repro.campaign.remote import RunnerHub, serve_connection

        self.jobs = max(1, int(jobs))
        self.hub = RunnerHub()
        self._closed = False
        ctx = context if context is not None else _mp_context()
        self._socks = []
        self._workers = []
        # Fork every runner before any connection thread starts, so no
        # child inherits a lock a master thread happened to hold.
        for worker_id in range(self.jobs):
            mine, theirs = socket.socketpair()
            self._socks.append(mine)
            runner_id = self.hub.register(mine, name=str(worker_id))
            proc = ctx.Process(target=_pool_worker,
                               args=(worker_id, runner_id, theirs, warm,
                                     list(self._socks)),
                               daemon=True)
            proc.start()
            theirs.close()
            self._workers.append(proc)
        log = event_log()
        for worker_id, (proc, sock) in enumerate(
                zip(self._workers, self._socks)):
            log.emit("shard_spawn", worker=worker_id, child_pid=proc.pid,
                     jobs=self.jobs)
            threading.Thread(target=serve_connection,
                             args=(self.hub, sock),
                             name=f"pool-runner-{worker_id}",
                             daemon=True).start()

    @property
    def healthy(self):
        """Whether every runner is still alive (a dead runner means the
        pool should be rebuilt rather than reused)."""
        return (not self._closed
                and all(proc.is_alive() for proc in self._workers))

    @property
    def pids(self):
        """The runner process ids (for health displays and tests)."""
        return [proc.pid for proc in self._workers]

    def run(self, campaign_name, pending, timeout_s=None, chunk_size=None,
            on_result=None, abort=None, batch_lanes=1, on_batch=None):
        """Drive ``pending`` ``(index, point)`` pairs through the
        runners; returns ``{index: PointResult}`` with every pending
        index present.

        A runner that dies mid-chunk has its lease requeued to the
        back of the queue, so the survivors finish the healthy work
        first and then re-run it; only when no runner is left do the
        remaining points fail as ``WorkerDied``.  ``abort`` is an
        optional zero-argument callable polled while results are
        collected; when it turns true the call raises
        :class:`~repro.campaign.work.CampaignAborted`.  The pool
        itself stays healthy, and the next ``run`` is unaffected.

        ``batch_lanes > 1`` lets each runner evaluate batch-compatible
        inject points through the lockstep kernel
        (:mod:`repro.perf.batch`); ``on_batch`` receives each batch's
        occupancy/eviction stats dict when its chunk completes.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        from repro.campaign.transport import ExecutionPlan, drive_campaign

        plan = ExecutionPlan(
            campaign_name=campaign_name, pending=pending,
            timeout_s=timeout_s, chunk_size=chunk_size,
            batch_lanes=batch_lanes, on_result=on_result,
            on_batch=on_batch, abort=abort)
        return drive_campaign(plan, [self.hub], sources=self.jobs)

    def close(self, join_timeout=5.0):
        """Shut every runner's socket (an EOF ends its lease loop) and
        reap the processes."""
        if self._closed:
            return
        self._closed = True
        event_log().emit("pool_close", jobs=self.jobs)
        for sock in self._socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for proc in self._workers:
            proc.join(timeout=join_timeout)
            if proc.is_alive():
                proc.terminate()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
