"""Campaign runners: register, heartbeat, lease, stream rows.

The one worker protocol of the transport layer (ARTIQ's
controller-manager register/heartbeat/restart pattern, adapted to
work-stealing), spoken by every evaluator that is not the serial path:

* :class:`RunnerHub` — the master-side registry of runner processes.
  Socket-agnostic: connection threads (:func:`serve_connection`, or
  the ``repro serve`` Unix-socket client loop) call
  :meth:`~RunnerHub.register` / :meth:`~RunnerHub.lease` /
  :meth:`~RunnerHub.row` / :meth:`~RunnerHub.heartbeat` and report
  disconnects via :meth:`~RunnerHub.lost_channel`.  While a campaign
  executes, a :class:`Drive` is attached and leases flow; between
  campaigns an idle lease waits (at most :data:`LEASE_WAIT_S`) for
  the next drive.
* :func:`serve_connection` — the master side of one runner
  connection, line-JSON over any stream socket: a TCP connection
  accepted by :class:`RunnerListener` or a socketpair end of a local
  runner forked by :class:`~repro.campaign.pool.WorkerPool`.
  **Security note: the TCP listener does no authentication — bind it
  only on interfaces you trust (loopback or a private cluster
  network).**  Runner loss is detected the moment the connection
  drops; the hub releases its leases for immediate requeue.
* :func:`serve_leases` — the runner side: lease chunks, evaluate them
  with the same :func:`~repro.campaign.work.evaluate_units` loop every
  transport uses, and stream the result rows back (pipelined, replies
  drained in batches).  :func:`run_runner` (``repro runner
  --connect``) wraps it with connect/register and reconnects with
  backoff when the master goes away, so a restarted master gets its
  fleet back without anyone touching the runner hosts.

Determinism: a runner evaluates points with the same per-point
deterministic RNG as the serial path — rows are pure functions of
point identity — so any mixture of runners produces byte-identical
metrics rows and ``coverage.json``.
"""

import itertools
import os
import socket
import threading
import time

from repro.campaign.spec import CampaignPoint
from repro.campaign.work import evaluate_units
from repro.obs.events import event_log
from repro.serve import protocol
from repro.serve.protocol import ProtocolError

__all__ = [
    "Drive",
    "RunnerHub",
    "RunnerListener",
    "handle_runner_method",
    "parse_address",
    "run_runner",
    "serve_connection",
    "serve_leases",
]


def parse_address(address):
    """``HOST:PORT`` (or a bare port) → ``("tcp", host, port)``;
    anything else is a Unix socket path → ``("unix", path, None)``."""
    if address.isdigit():
        return "tcp", "127.0.0.1", int(address)
    if ":" in address:
        host, _, port = address.rpartition(":")
        try:
            return "tcp", host or "127.0.0.1", int(port)
        except ValueError:
            pass
    return "unix", address, None


class Drive:
    """Thread-safe shim between connection threads and the scheduler.

    Owned by the transport main loop for the duration of one campaign
    and attached to every hub that feeds it.  Connection threads lease
    and record under the lock; deliverables queue up and are drained —
    and their callbacks run — only on the main loop, so store appends,
    live status, and progress callbacks never race.  Waits are
    event-driven: a folded row or a lost runner wakes the main loop
    (:meth:`wait`), a requeue or :meth:`close` wakes idle leases.
    """

    def __init__(self, sched, campaign_name, timeout_s=None,
                 batch_lanes=1):
        self._sched = sched
        self._lock = threading.Lock()
        self._news = threading.Condition(self._lock)
        self._work = threading.Condition(self._lock)
        self._stirred = False
        self._deliverables = []
        self.closed = False
        self.campaign_name = campaign_name
        self.timeout_s = timeout_s
        self.batch_lanes = batch_lanes

    # -- leasing (any thread) ----------------------------------------------

    def lease_payload(self, owner, deadline):
        """Lease a chunk and serialize it for the wire; waits until
        ``deadline`` (monotonic) for a requeue when the queue is empty,
        and returns ``None`` on timeout or once the drive closes."""
        with self._lock:
            while True:
                now = time.monotonic()
                chunk = (None if self.closed
                         else self._sched.lease(owner, now=now))
                if chunk is not None:
                    break
                if self.closed or now >= deadline:
                    return None
                self._work.wait(deadline - now)
        return {
            "chunk": chunk.chunk_id,
            "epoch": chunk.epoch,
            "campaign": self.campaign_name,
            "timeout_s": self.timeout_s,
            "batch_lanes": self.batch_lanes,
            "points": [[index, point.to_dict()]
                       for index, point in chunk.pairs],
        }

    def _stir(self):
        self._stirred = True
        self._news.notify()

    def record(self, chunk_id, epoch, row):
        with self._lock:
            if self.closed:
                return
            self._deliverables.extend(
                self._sched.record(chunk_id, epoch, row))
            self._stir()

    def release(self, owner):
        """A runner is gone: requeue its leases and wake the main loop
        (which re-counts the fleet) and any idle lease."""
        with self._lock:
            requeued = self._sched.release(owner)
            self._work.notify_all()
            self._stir()
            return requeued

    def renew(self, owner):
        with self._lock:
            self._sched.renew(owner, time.monotonic())

    def expire(self, now):
        with self._lock:
            expired = self._sched.expire(now)
            if expired:
                self._work.notify_all()
            return expired

    # -- folding (transport main loop) -------------------------------------

    def wait(self, timeout):
        """Block until a row folds or a runner is lost, at most
        ``timeout`` seconds."""
        with self._lock:
            if not self._stirred:
                self._news.wait(timeout)
            self._stirred = False

    def drain(self):
        with self._lock:
            drained = self._deliverables
            self._deliverables = []
        return drained

    def fail_lost(self):
        with self._lock:
            return self._sched.fail_lost()

    def close(self):
        """End the campaign: idle leases return, late rows drop."""
        with self._lock:
            self.closed = True
            self._work.notify_all()

    def results(self):
        with self._lock:
            return self._sched.results()

    @property
    def done(self):
        with self._lock:
            return self._sched.done

    @property
    def completed(self):
        with self._lock:
            return self._sched.completed


#: How long an idle ``runner_lease`` waits for work (a drive attaching
#: or a chunk requeuing) before it returns ``None``.
LEASE_WAIT_S = 1.0

#: Runner ids are unique per process, so lease owners never collide
#: when one drive is attached to several hubs.
_runner_ids = itertools.count(1)


class _Runner:
    """Master-side record of one registered runner process."""

    __slots__ = ("runner_id", "name", "pid", "slots", "channel",
                 "alive", "connected_unix", "last_seen_unix",
                 "points", "chunks", "drive")

    def __init__(self, runner_id, name, pid, slots, channel):
        self.runner_id = runner_id
        self.name = name or f"runner-{runner_id}"
        self.pid = pid
        self.slots = slots or 1
        self.channel = channel
        self.alive = True
        self.connected_unix = time.time()
        self.last_seen_unix = self.connected_unix
        self.points = 0
        self.chunks = 0
        #: The drive this runner last leased from: its rows fold there
        #: (a straggler of a finished campaign never reaches the next).
        self.drive = None


class RunnerHub:
    """Registry of runners + the campaign drive they feed."""

    def __init__(self):
        self._lock = threading.Lock()
        self._attached = threading.Condition(self._lock)
        self._runners = {}
        self._drive = None

    # -- drive attachment (transport main loop) ----------------------------

    def attach(self, drive):
        with self._lock:
            self._drive = drive
            self._attached.notify_all()

    def detach(self):
        with self._lock:
            self._drive = None

    def _current_drive(self):
        with self._lock:
            return self._drive

    # -- runner lifecycle (connection threads) -----------------------------

    def register(self, channel, name=None, pid=None, slots=None):
        runner_id = next(_runner_ids)
        runner = _Runner(runner_id, name, pid, slots, channel)
        with self._lock:
            self._runners[runner_id] = runner
        event_log().emit("runner_register", runner=runner_id,
                         name=runner.name, pid=pid, slots=runner.slots)
        return runner_id

    def _owner(self, runner_id):
        return ("runner", runner_id)

    def _touch(self, runner_id):
        runner = self._runners.get(runner_id)
        if runner is None or not runner.alive:
            raise ProtocolError(protocol.E_NOT_FOUND,
                                f"no registered runner {runner_id}")
        runner.last_seen_unix = time.time()
        return runner

    def lease(self, runner_id):
        """The next chunk for ``runner_id``, waiting up to
        :data:`LEASE_WAIT_S` for a drive to attach or a chunk to
        requeue; ``None`` if no work turned up in time."""
        deadline = time.monotonic() + LEASE_WAIT_S
        with self._lock:
            runner = self._touch(runner_id)
        while True:
            with self._lock:
                while self._drive is None or self._drive.closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._attached.wait(remaining)
                drive = self._drive
            work = drive.lease_payload(self._owner(runner_id), deadline)
            if work is not None:
                break
            if time.monotonic() >= deadline:
                return None
        with self._lock:
            runner.chunks += 1
            runner.drive = drive
        event_log().emit("chunk_lease", runner=runner_id,
                         worker=runner.name, chunk=work["chunk"],
                         epoch=work["epoch"], campaign=work["campaign"],
                         points=len(work["points"]))
        return work

    def row(self, runner_id, chunk, epoch, row):
        with self._lock:
            runner = self._touch(runner_id)
            if "__batch__" not in row:
                runner.points += 1
            drive = runner.drive
        if drive is not None:
            drive.record(chunk, epoch, row)
            drive.renew(self._owner(runner_id))

    def heartbeat(self, runner_id):
        with self._lock:
            runner = self._touch(runner_id)
            drive = runner.drive
        if drive is not None:
            drive.renew(self._owner(runner_id))
        return self._current_drive() is not None

    def lost(self, runner_id):
        """A runner is gone: its leases requeue at once, and the main
        loop wakes to re-count the fleet."""
        with self._lock:
            runner = self._runners.get(runner_id)
            if runner is None or not runner.alive:
                return
            runner.alive = False
            drives = {runner.drive, self._drive} - {None}
        event_log().emit("runner_lost", runner=runner_id,
                         name=runner.name)
        for drive in drives:
            for chunk in drive.release(self._owner(runner_id)):
                event_log().emit("runner_chunk_requeued",
                                 runner=runner_id,
                                 chunk=chunk.chunk_id,
                                 points=len(chunk.pairs))

    def lost_channel(self, channel):
        """A connection died: every runner registered over it is gone."""
        with self._lock:
            stale = [r.runner_id for r in self._runners.values()
                     if r.alive and r.channel is channel]
        for runner_id in stale:
            self.lost(runner_id)

    # -- queries -----------------------------------------------------------

    def active_count(self):
        with self._lock:
            return sum(1 for r in self._runners.values() if r.alive)

    def wait_for(self, count, timeout_s=None, poll_s=0.05):
        """Block until ``count`` runners are registered (or timeout);
        returns the active count either way."""
        deadline = (None if timeout_s is None
                    else time.monotonic() + timeout_s)
        while True:
            active = self.active_count()
            if active >= count:
                return active
            if deadline is not None and time.monotonic() > deadline:
                return active
            time.sleep(poll_s)

    def runners_info(self):
        """Per-runner health/throughput snapshot (live status, hello)."""
        with self._lock:
            return [{
                "runner": r.runner_id, "name": r.name, "pid": r.pid,
                "slots": r.slots, "alive": r.alive,
                "points": r.points, "chunks": r.chunks,
                "last_seen_unix": r.last_seen_unix,
                "connected_unix": r.connected_unix,
            } for r in sorted(self._runners.values(),
                              key=lambda r: r.runner_id)]


def handle_runner_method(hub, channel, method, params):
    """Dispatch one validated ``runner_*`` request against ``hub``.

    Shared by the TCP listener and the ``repro serve`` master (so
    runners can register over either the TCP port or the serve Unix
    socket, alongside regular clients).
    """
    if method == "runner_register":
        runner_id = hub.register(channel, name=params.get("name"),
                                 pid=params.get("pid"),
                                 slots=params.get("slots"))
        return {"runner": runner_id,
                "schema": protocol.PROTOCOL_SCHEMA}
    if method == "runner_lease":
        return {"work": hub.lease(params["runner"])}
    if method == "runner_row":
        hub.row(params["runner"], params["chunk"], params["epoch"],
                params["row"])
        return {"accepted": True}
    if method == "runner_heartbeat":
        return {"active": hub.heartbeat(params["runner"])}
    raise ProtocolError(protocol.E_UNKNOWN_METHOD,
                        f"not a runner method: {method!r}")


def serve_connection(hub, conn):
    """Master side of one runner connection: answer its ``runner_*``
    frames until the socket closes, then declare its runners lost.

    The one connection loop for every runner — accepted over TCP by
    :class:`RunnerListener` or forked locally by
    :class:`~repro.campaign.pool.WorkerPool` over a socketpair.
    """
    reader = protocol.LineReader()
    try:
        while True:
            data = conn.recv(65536)
            if not data:
                break
            for item in reader.feed(data):
                if isinstance(item, protocol.Oversized):
                    conn.sendall(protocol.encode(protocol.error_response(
                        None, protocol.E_OVERSIZED,
                        f"line exceeded {protocol.MAX_LINE_BYTES} "
                        f"bytes")))
                    continue
                conn.sendall(protocol.encode(
                    _answer(hub, conn, item)))
    except OSError:
        pass
    finally:
        hub.lost_channel(conn)
        try:
            conn.close()
        except OSError:
            pass


def _answer(hub, conn, line):
    """One response frame for one request line (errors included)."""
    request_id = None
    try:
        frame = protocol.decode(line)
        request_id, method, params = protocol.parse_request(frame)
        if not method.startswith("runner_"):
            raise ProtocolError(
                protocol.E_BAD_REQUEST,
                f"the runner port only speaks runner_* methods, "
                f"not {method!r}")
        result = handle_runner_method(hub, conn, method, params)
        return protocol.response(request_id, result)
    except ProtocolError as exc:
        return protocol.error_response(request_id, exc.code, exc.message)
    except Exception as exc:  # noqa: BLE001 — a hub bug must not kill
        # the connection thread (mirrors the serve master).
        return protocol.error_response(
            request_id, protocol.E_SERVER, f"{type(exc).__name__}: {exc}")


class RunnerListener:
    """TCP accept loop feeding a :class:`RunnerHub`.

    Trusted-network-only: there is no authentication or transport
    encryption on this socket.  Bind to ``127.0.0.1`` (the default)
    or a private cluster interface — never a public one.
    """

    def __init__(self, hub, host="127.0.0.1", port=0):
        self.hub = hub
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self._sock.settimeout(0.2)
        self.host, self.port = self._sock.getsockname()[:2]
        self._shutdown = threading.Event()
        self._threads = []
        self._conns = []
        self._conns_lock = threading.Lock()

    @property
    def address(self):
        return f"{self.host}:{self.port}"

    def start(self):
        thread = threading.Thread(target=self._accept_loop,
                                  name="runner-accept", daemon=True)
        thread.start()
        self._threads.append(thread)
        event_log().emit("runner_listener_start", host=self.host,
                         port=self.port)
        return self

    def _accept_loop(self):
        while not self._shutdown.is_set():
            try:
                conn, peer = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._conns_lock:
                self._conns.append(conn)
            thread = threading.Thread(
                target=self._conn_loop, args=(conn,),
                name=f"runner-conn-{peer[1]}", daemon=True)
            thread.start()

    def _conn_loop(self, conn):
        try:
            serve_connection(self.hub, conn)
        finally:
            with self._conns_lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    def stop(self):
        self._shutdown.set()
        try:
            self._sock.close()
        except OSError:
            pass
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=5.0)
        event_log().emit("runner_listener_stop", host=self.host,
                        port=self.port)


# -- the runner client -----------------------------------------------------

#: Row casts a runner leaves unanswered before draining the replies;
#: a socketpair buffer holds ~270 of them before its sender blocks.
MAX_UNANSWERED = 64


class _Channel:
    """Pipelined line-JSON RPC client over one socket.

    Responses arrive in request order (the master handles frames
    sequentially per connection), so rows can be fired without
    waiting (:meth:`cast`) and their responses drained in one sweep
    before the next synchronous :meth:`call`.

    Sends are serialized under a lock so a helper thread (the
    in-evaluation heartbeat of :func:`_evaluate_lease`) can
    :meth:`cast` concurrently with the evaluating thread's row casts.
    Receives stay single-threaded: only the main loop drains.
    """

    def __init__(self, sock):
        self._sock = sock
        self._reader = protocol.LineReader()
        self._responses = []
        self._pending = 0
        self._next_id = 1
        self._send_lock = threading.Lock()

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass

    def _send(self, method, params):
        with self._send_lock:
            request_id = self._next_id
            self._next_id += 1
            data = protocol.encode(
                protocol.request(method, params, request_id=request_id))
            self._sock.sendall(data)
            self._pending += 1

    def _recv_one(self):
        while not self._responses:
            data = self._sock.recv(65536)
            if not data:
                raise ConnectionError("master closed the connection")
            for item in self._reader.feed(data):
                if isinstance(item, protocol.Oversized):
                    raise ConnectionError("oversized frame from master")
                self._responses.append(protocol.decode(item))
        with self._send_lock:
            self._pending -= 1
        return self._responses.pop(0)

    def cast(self, method, params):
        """Fire a request without waiting for its response."""
        self._send(method, params)

    def flush(self):
        """Drain every pending response; raise on any error reply."""
        while self._pending:
            reply = self._recv_one()
            if not reply.get("ok"):
                error = reply.get("error") or {}
                raise ConnectionError(
                    f"master rejected a frame: {error.get('code')}: "
                    f"{error.get('message')}")

    def call(self, method, params):
        """Synchronous request/response (drains pending rows first)."""
        self.flush()
        self._send(method, params)
        reply = self._recv_one()
        if not reply.get("ok"):
            error = reply.get("error") or {}
            raise ConnectionError(
                f"{method} failed: {error.get('code')}: "
                f"{error.get('message')}")
        return reply["result"]


def _connect(address, timeout_s=10.0):
    kind, host, port = parse_address(address)
    if kind == "tcp":
        sock = socket.create_connection((host, port), timeout=timeout_s)
    else:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout_s)
        sock.connect(host)
    sock.settimeout(None)
    return _Channel(sock)


def run_runner(address, name=None, poll_s=0.5, reconnect=True,
               retry_s=30.0, max_chunks=None, idle_exit_s=None,
               heartbeat_s=10.0, on_status=None):
    """The ``repro runner --connect`` main loop.

    Connect to a master at ``address`` (``HOST:PORT`` or a Unix
    socket path), register, then run :func:`serve_leases` until the
    connection dies.  With ``reconnect`` the runner retries (every
    ``poll_s``, at most 1 s) for ``retry_s`` seconds of continuous
    failure before giving up — a master restart inside that window
    gets this runner back without intervention.  While a lease
    evaluates, a helper thread casts a heartbeat every ``heartbeat_s``
    seconds, so a legitimately slow unit keeps renewing its lease
    instead of expiring mid-evaluation.  ``max_chunks`` /
    ``idle_exit_s`` bound the loop for tests and drills.  Returns the
    number of chunks evaluated.
    """
    chunks_done = 0
    last_grant = time.monotonic()
    failing_since = None

    def until(granted):
        nonlocal chunks_done, last_grant
        now = time.monotonic()
        if granted:
            chunks_done += 1
            last_grant = now
            return max_chunks is not None and chunks_done >= max_chunks
        return idle_exit_s is not None and now - last_grant > idle_exit_s

    while True:
        try:
            channel = _connect(address)
        except OSError as exc:
            if not reconnect:
                raise
            now = time.monotonic()
            failing_since = failing_since or now
            if now - failing_since > retry_s:
                raise ConnectionError(
                    f"no master at {address} after {retry_s:.0f}s "
                    f"of retries") from exc
            time.sleep(min(1.0, poll_s))
            continue
        failing_since = None
        try:
            hello = channel.call("runner_register", {
                "name": name, "pid": os.getpid(), "slots": 1})
            runner_id = hello["runner"]
            worker_id = name or f"runner-{runner_id}"
            if on_status is not None:
                on_status(f"registered as runner {runner_id} "
                          f"({worker_id}) at {address}")
            event_log().emit("runner_connected", runner=runner_id,
                             address=address, name=worker_id)
            serve_leases(channel, runner_id, worker_id,
                         heartbeat_s=heartbeat_s, until=until)
            return chunks_done
        except (OSError, ConnectionError, ProtocolError, KeyError) as exc:
            if not reconnect:
                raise
            now = time.monotonic()
            failing_since = failing_since or now
            if now - failing_since > retry_s:
                raise ConnectionError(
                    f"lost master at {address} and could not get it "
                    f"back within {retry_s:.0f}s: {exc}") from exc
            if on_status is not None:
                on_status(f"connection lost ({exc}); retrying")
            time.sleep(min(1.0, poll_s))
        finally:
            channel.close()


def serve_leases(channel, runner_id, worker_id, heartbeat_s=10.0,
                 until=None):
    """A registered runner's lease loop — remote and local alike.

    Lease a chunk (the master holds an idle lease open until work
    turns up, so there is no client-side poll), evaluate it, stream
    its rows back, repeat.  ``until(granted)`` is asked after every
    lease reply and ends the loop when it returns true; otherwise the
    loop runs until the connection dies (raising).
    """
    while True:
        work = channel.call("runner_lease", {"runner": runner_id})["work"]
        if work is not None:
            _evaluate_lease(channel, runner_id, worker_id, work,
                            heartbeat_s=heartbeat_s)
        if until is not None and until(work is not None):
            return


def _evaluate_lease(channel, runner_id, worker_id, work,
                    heartbeat_s=10.0):
    """Evaluate one leased chunk and stream its rows back (pipelined;
    replies are drained every :data:`MAX_UNANSWERED` rows and at the
    end, so the wire round-trip cost is per batch of rows, not per
    point).

    A helper thread casts ``runner_heartbeat`` every ``heartbeat_s``
    seconds for the duration of the evaluation: completed-unit rows
    are the only other renewal signal, so without it any single unit
    slower than the master's lease timeout would expire its lease
    mid-evaluation.  The thread only ever *casts* (the channel's send
    path is lock-serialized); it is joined before the final flush, so
    the main loop's synchronous calls never race a stray response.
    """
    from repro.campaign.executor import resolve_batch_lanes

    pairs = [(index, CampaignPoint.from_dict(point_dict))
             for index, point_dict in work["points"]]
    # The master names a width; this host clamps it to what its own
    # kernel can actually run (rows are bit-identical either way).
    lanes = resolve_batch_lanes(work.get("batch_lanes") or 1)

    def send_row(row):
        channel.cast("runner_row", {
            "runner": runner_id, "chunk": work["chunk"],
            "epoch": work["epoch"], "row": row})
        if channel._pending >= MAX_UNANSWERED:
            # Drain before the master's replies fill the socket buffer:
            # a master blocked on a reply stops reading rows, and a
            # runner blocked on a row would never read that reply.
            channel.flush()

    def emit(result):
        send_row(result.to_row())

    def on_batch(stats):
        send_row({"__batch__": stats})

    stop = threading.Event()

    def beat():
        while not stop.wait(heartbeat_s):
            try:
                channel.cast("runner_heartbeat", {"runner": runner_id})
            except OSError:
                return  # the evaluating thread will hit it too

    beater = None
    if heartbeat_s is not None and heartbeat_s > 0:
        beater = threading.Thread(target=beat, daemon=True,
                                  name=f"runner-heartbeat-{runner_id}")
        beater.start()
    try:
        evaluate_units(pairs, lanes, work["campaign"],
                       work.get("timeout_s"), worker_id, emit=emit,
                       on_batch=on_batch)
    finally:
        if beater is not None:
            stop.set()
            beater.join()
    channel.flush()
    # One heartbeat event per drained chunk: liveness at a commit-log
    # boundary, never per point (the hot path stays event-free).
    event_log().emit("worker_heartbeat", worker=worker_id,
                     campaign=work["campaign"])
