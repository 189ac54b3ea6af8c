"""The coordinator side of distributed execution: :class:`RemoteExecutor`.

``RemoteExecutor`` is a drop-in :class:`~repro.exec.Executor`: the
campaign keeps submission-order commit, retries and journaling exactly
as with the thread/process backends, so ``table_fingerprint`` stays
byte-identical — the network is invisible to the decision layer.

What it adds over the process executor:

* **work stealing** — submitted tasks queue centrally and drain to
  whichever connected worker has a free slot, so a slow host never
  blocks a fast one;
* **heartbeat-based death detection** — a worker that stops beating (or
  whose connection drops) is reaped; its in-flight trials are parked
  for a *rejoin grace window* first (a partitioned worker that comes
  back picks its trials up where it left off) and only synthesized into
  ``crashed`` outcomes when the grace expires, at which point the
  campaign's existing :class:`~repro.exec.RetryPolicy` requeues them
  onto surviving workers;
* **session-stable rejoin** — every worker agent carries a stable
  ``session_id``; a reconnect within the grace window is recognized as
  the same agent (same telemetry lane, no double-counted crash
  outcomes), and outcomes it completed while partitioned are
  deduplicated by the same attempt-number fencing that already guards
  against stale reports;
* **flap circuit breaker** — a session lost too many times within a
  window of fleet progress is quarantined (see
  :class:`~repro.net.health.FleetHealth`): it may stay connected, but
  no further work is dispatched to it and it stops counting toward the
  live fleet;
* **graceful degradation** — when live workers drop below
  ``FleetPolicy.min_workers``, the policy decides: hold the queue
  (``wait``), run remaining trials in-process (``local`` — results
  fingerprint identically), or raise :class:`FleetLostError` (``fail``);
* **handshake version guard** — a worker whose source tree hashes to a
  different :func:`~repro.exec.cache.code_version_tag` is rejected at
  hello time, because mixing code versions inside one campaign would
  poison the results table silently;
* **frame authentication** — with a shared ``secret``, every frame is
  HMAC-signed, sequence-numbered against replay, and channel-bound to
  its connection (see :mod:`repro.net.protocol`); binding beyond
  loopback without one warns that the network must be fully trusted.

Observability: fleet transitions are telemetry events
(``worker_joined`` / ``worker_lost`` / ``worker_rejoined`` /
``worker_quarantined``), and the ``net/workers``, ``net/queue_depth``,
``net/heartbeats``, ``net/worker_deaths``, ``net/rejoins``,
``net/quarantines``, ``net/dup_outcomes`` and ``net/local_trials``
meters track the fleet; :meth:`RemoteExecutor.fleet_state` returns a
JSON-safe snapshot for operators and CI artifacts. Per-worker Perfetto
lanes come for free: each outcome carries its worker's name and clock
offset, and the campaign's existing ``merge_records`` re-bases them at
commit.
"""

from __future__ import annotations

import collections
import secrets as _secrets
import socket
import threading
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Any

from ..exec.cache import code_version_tag
from ..exec.executors import Executor
from ..exec.payload import TrialOutcome, TrialTask, execute_trial
from ..obs import (
    EVT_WORKER_JOINED,
    EVT_WORKER_LOST,
    EVT_WORKER_QUARANTINED,
    EVT_WORKER_REJOINED,
    Telemetry,
)
from .health import FleetHealth, FleetLostError, FleetPolicy
from .protocol import (
    PROTOCOL_VERSION,
    AuthenticationError,
    ConnectionClosed,
    FrameStream,
    ProtocolError,
    decode_payload,
    encode_payload,
)

__all__ = ["RemoteExecutor"]

#: the worker name outcomes carry when the local fallback ran them
LOCAL_FALLBACK = "local-fallback"


def _is_loopback(host: str) -> bool:
    """True when a bind address cannot be reached from another machine."""
    return host in ("localhost", "::1") or host.startswith("127.")


@dataclass
class _Worker:
    """One connected worker agent, as the coordinator sees it."""

    name: str
    session: str
    sock: socket.socket
    stream: FrameStream
    slots: int
    pid: int | None = None
    inflight: set[int] = field(default_factory=set)
    last_seen: float = field(default_factory=time.monotonic)
    alive: bool = True


@dataclass
class _Lost:
    """In-flight work parked while a lost session may still rejoin."""

    name: str
    seqs: set[int]
    deadline: float
    reason: str


class RemoteExecutor(Executor):
    """Dispatches trials to worker agents over TCP.

    Parameters
    ----------
    max_workers:
        The campaign's ask-window size (how many proposals may be in
        flight); usually the total slot count of the expected fleet.
    host, port:
        Listen address. ``port=0`` picks a free port — read it back
        from :attr:`address` (the loopback tests and the CLI do).
    heartbeat_timeout:
        Seconds of silence after which a worker is declared dead and
        its trials parked for rejoin (then requeued). Workers are told
        to beat at a quarter of this interval.
    code_tag:
        Override of :func:`~repro.exec.cache.code_version_tag` for the
        handshake check (tests use this to simulate version skew).
    secret:
        Shared secret for frame authentication. With one set, every
        frame is HMAC-signed, replay-protected by a per-connection
        sequence number, and incoming frames from peers without the
        same secret are refused *before* their pickled payloads are
        touched. Without one, any host that can reach the port can
        execute arbitrary code here — listening beyond loopback then
        assumes a fully trusted network (a ``UserWarning`` says so).
    policy:
        A :class:`~repro.net.health.FleetPolicy` with the rejoin grace,
        quarantine breaker and degradation knobs. Defaults keep PR-7
        behaviour except that lost workers get one heartbeat-timeout of
        rejoin grace before their trials come back ``crashed``.
    telemetry:
        Optional :class:`~repro.obs.Telemetry` for fleet events/meters.
    """

    name = "remote"
    in_process = False
    shares_telemetry = False

    def __init__(
        self,
        max_workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_timeout: float = 10.0,
        handshake_timeout: float = 5.0,
        code_tag: str | None = None,
        secret: str | None = None,
        policy: FleetPolicy | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        super().__init__(max_workers)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.handshake_timeout = float(handshake_timeout)
        self.code_tag = code_tag if code_tag is not None else code_version_tag()
        self.secret = secret
        self.policy = policy if policy is not None else FleetPolicy()
        self.policy.validate()
        if secret is None and not _is_loopback(host):
            warnings.warn(
                f"RemoteExecutor is listening on {host!r} without a shared "
                "secret: task/outcome payloads are pickles, so any host that "
                "can reach the port can execute arbitrary code in this "
                "process. Pass secret=... (CLI: --secret/REPRO_NET_SECRET) "
                "or keep --listen on 127.0.0.1 unless the network is fully "
                "trusted.",
                UserWarning,
                stacklevel=2,
            )
        self._telem = Telemetry.or_null(telemetry)
        # RLock: reap/dispatch nest (a failed send mid-dispatch reaps)
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._health = FleetHealth(self.policy)
        self._workers: dict[str, _Worker] = {}
        self._pending: collections.deque[int] = collections.deque()
        self._tasks: dict[int, TrialTask] = {}
        self._assigned: dict[int, str] = {}
        self._lost: dict[str, _Lost] = {}
        self._done: list[TrialOutcome] = []
        self._closing = False
        self._n_joined = 0
        self._outcomes_accepted = 0
        self._fleet_was_up = False
        self._fleet_error: FleetLostError | None = None
        self._local_runner: threading.Thread | None = None
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, int(port)))
        listener.listen()
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="net-accept", daemon=True
        )
        self._accept_thread.start()

    # ------------------------------------------------------------- address
    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) workers should ``--connect`` to."""
        host, port = self._listener.getsockname()[:2]
        return str(host), int(port)

    @property
    def n_workers(self) -> int:
        with self._lock:
            return len(self._workers)

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> int:
        """Block until ``count`` workers are connected (or raise)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while len(self._workers) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"only {len(self._workers)}/{count} workers connected "
                        f"within {timeout:.0f}s"
                    )
                self._cond.wait(min(remaining, 0.5))
            return len(self._workers)

    def fleet_state(self) -> dict[str, Any]:
        """A JSON-safe snapshot of the fleet, queue and limbo state."""
        with self._lock:
            now = time.monotonic()
            return {
                "policy": {
                    "min_workers": self.policy.min_workers,
                    "on_fleet_loss": self.policy.on_fleet_loss,
                    "rejoin_grace_s": self.policy.grace_for(
                        self.heartbeat_timeout
                    ),
                    "quarantine_flaps": self.policy.quarantine_flaps,
                    "quarantine_window": self.policy.quarantine_window,
                },
                "connected": sorted(self._workers),
                "live_workers": self._live_count_locked(),
                "degraded": self._degraded_locked(),
                "pending": len(self._pending),
                "assigned": len(self._assigned),
                "outcomes_accepted": self._outcomes_accepted,
                "limbo": {
                    session: {
                        "name": limbo.name,
                        "seqs": sorted(limbo.seqs),
                        "grace_left_s": max(0.0, limbo.deadline - now),
                        "reason": limbo.reason,
                    }
                    for session, limbo in sorted(self._lost.items())
                },
                "sessions": self._health.snapshot(),
            }

    # ------------------------------------------------------------ contract
    def submit(self, task: TrialTask) -> None:
        with self._cond:
            if self._closing:
                raise RuntimeError("executor is shut down")
            self._tasks[task.seq] = task
            self._pending.append(task.seq)
            self._dispatch_locked()
            self._update_meters_locked()

    def poll(self, timeout: float | None = None) -> list[TrialOutcome]:
        with self._cond:
            self._service_locked()
            if not self._done:
                if self._fleet_error is not None:
                    raise self._fleet_error
                if not self._tasks:
                    return []
                if timeout is None:
                    while (
                        not self._done
                        and not self._closing
                        and self._tasks
                        and self._fleet_error is None
                    ):
                        self._cond.wait(0.25)
                        self._service_locked()
                else:
                    deadline = time.monotonic() + timeout
                    while not self._done and self._fleet_error is None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._cond.wait(min(remaining, 0.25))
                        self._service_locked()
                if self._fleet_error is not None and not self._done:
                    raise self._fleet_error
            out, self._done = self._done, []
            return out

    @property
    def n_inflight(self) -> int:
        with self._lock:
            # pending, assigned and limbo tasks all live in self._tasks
            return len(self._tasks) + len(self._done)

    def shutdown(self) -> None:
        with self._cond:
            if self._closing:
                return
            self._closing = True
            workers = list(self._workers.values())
            self._workers.clear()
            self._pending.clear()
            self._assigned.clear()
            self._tasks.clear()
            self._lost.clear()
            self._cond.notify_all()
        for worker in workers:
            worker.alive = False
            try:
                worker.stream.send({"type": "shutdown"})
            except (OSError, ProtocolError):
                pass  # already gone; closing below is all that is left
            try:
                worker.sock.close()
            except OSError:  # pragma: no cover - close on a dead socket
                pass
        # shutdown() wakes the blocked accept() at once; close() alone
        # leaves it asleep until its timeout tick
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:  # pragma: no cover - platforms that refuse it
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - double close
            pass
        self._accept_thread.join(timeout=2.0)
        runner = self._local_runner
        if runner is not None:
            runner.join(timeout=2.0)

    # ----------------------------------------------------------- accepting
    def _accept_loop(self) -> None:
        # shutdown() wakes accept(); the tick only bounds the wait where
        # shutting a listening socket down does not wake it
        self._listener.settimeout(1.0)
        while not self._closing:
            try:
                sock, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed by shutdown()
            threading.Thread(
                target=self._serve,
                args=(sock, (str(addr[0]), int(addr[1]))),
                name=f"net-worker-{addr[0]}:{addr[1]}",
                daemon=True,
            ).start()

    def _serve(self, sock: socket.socket, addr: tuple[str, int]) -> None:
        stream = FrameStream(sock, secret=self.secret)
        try:
            worker = self._handshake(stream, addr)
        except AuthenticationError:
            # tell the peer why (a worker someone forgot to give the
            # secret to should fail loudly, not look like a network blip)
            try:
                stream.send(
                    {
                        "type": "reject",
                        "reason": "authentication failed: this coordinator "
                        "requires a matching shared secret (--secret)",
                    }
                )
            except (OSError, ProtocolError):
                pass
            sock.close()
            return
        except (ProtocolError, OSError):
            sock.close()
            return
        if worker is None:
            sock.close()
            return
        self._reader_loop(worker)

    def _handshake(
        self, stream: FrameStream, addr: tuple[str, int]
    ) -> _Worker | None:
        hello = stream.recv(timeout=self.handshake_timeout)
        if hello is None or hello.get("type") != "hello":
            raise ProtocolError("expected a hello frame")
        version = hello.get("version")
        tag = hello.get("code_tag")
        if version != PROTOCOL_VERSION:
            reason = (
                f"protocol version mismatch: worker speaks {version!r}, "
                f"coordinator speaks {PROTOCOL_VERSION}"
            )
        elif tag != self.code_tag:
            reason = (
                f"code version skew: worker runs {tag!r}, coordinator runs "
                f"{self.code_tag!r} — update the worker's source tree"
            )
        else:
            reason = None
        if reason is not None:
            stream.send({"type": "reject", "reason": reason})
            return None
        slots = max(1, int(hello.get("slots", 1)))
        base = str(hello.get("name") or f"{addr[0]}:{addr[1]}")
        session = str(hello.get("session") or "")
        known = {
            seq
            for seq in hello.get("inflight", ())
            if isinstance(seq, int)
        }
        with self._cond:
            if self._closing:
                return None
            self._n_joined += 1
            if not session:
                # a sessionless (v1-style) peer can never rejoin; give it
                # a throwaway identity so health tracking still works
                session = f"anon-{self._n_joined}"
            # a half-open previous connection from the same agent process
            # is superseded by this one, not kept as a phantom worker
            for other in list(self._workers.values()):
                if other.session == session:
                    self._on_lost_locked(
                        other, "superseded by a reconnect from the same session"
                    )
            prior = self._health.record(session)
            if prior is not None and prior.name not in self._workers:
                name = prior.name  # stable telemetry lane across rejoins
            elif base not in self._workers:
                name = base
            else:
                name = f"{base}#{self._n_joined}"
            rejoin = self._health.note_join(session, name)
            worker = _Worker(
                name=name,
                session=session,
                sock=stream.sock,
                stream=stream,
                slots=slots,
                pid=hello.get("pid"),
            )
            self._workers[name] = worker
            chan = _secrets.token_hex(16)
            stream.send(  # repro-lint: disable=RPR203 -- the welcome must leave before the worker is published to dispatch; send_frame arms a socket timeout so the hold is bounded
                {
                    "type": "welcome",
                    "name": name,
                    "heartbeat_interval": self.heartbeat_timeout / 4.0,
                    "chan": chan,
                    "rejoin": rejoin,
                }
            )
            stream.bind(chan)
            restored = requeued = 0
            limbo = self._lost.pop(session, None)
            if limbo is not None:
                for seq in sorted(limbo.seqs):
                    if seq not in self._tasks or seq in self._assigned:
                        continue  # already expired or requeued elsewhere
                    if seq in known:
                        # the agent still holds this task (running, or a
                        # finished outcome in its outbox): re-pin it
                        self._assigned[seq] = name
                        worker.inflight.add(seq)
                        restored += 1
                    else:
                        # provably never reached the agent — back in
                        # line without burning an attempt
                        self._pending.appendleft(seq)
                        requeued += 1
            if rejoin:
                self._telem.event(
                    EVT_WORKER_REJOINED,
                    worker=name,
                    session=session,
                    restored=restored,
                    requeued=requeued,
                )
                if self._telem.enabled:
                    self._telem.meters.counter("net/rejoins").inc()
            else:
                self._telem.event(
                    EVT_WORKER_JOINED,
                    worker=name,
                    slots=slots,
                    addr=f"{addr[0]}:{addr[1]}",
                )
            self._check_fleet_locked()
            self._dispatch_locked()
            self._update_meters_locked()
            self._cond.notify_all()
        return worker

    # ------------------------------------------------------------- reading
    def _reader_loop(self, worker: _Worker) -> None:
        idle = max(0.05, min(1.0, self.heartbeat_timeout / 4.0))
        while True:
            with self._lock:
                if self._closing or not worker.alive:
                    return
            try:
                frame = worker.stream.recv(timeout=idle)
            except (ProtocolError, OSError) as exc:
                reason = (
                    "connection closed"
                    if isinstance(exc, ConnectionClosed)
                    else f"connection lost: {exc}"
                )
                self._on_lost(worker, reason)
                return
            now = time.monotonic()
            if frame is None:
                if now - worker.last_seen > self.heartbeat_timeout:
                    self._on_lost(
                        worker,
                        f"no heartbeat for {self.heartbeat_timeout:.1f}s",
                    )
                    return
                continue
            worker.last_seen = now
            kind = frame.get("type")
            if kind == "heartbeat":
                if self._telem.enabled:
                    self._telem.meters.counter("net/heartbeats").inc()
            elif kind == "outcome":
                self._on_outcome(worker, frame)
            # unknown frame types are ignored for forward compatibility

    def _on_outcome(self, worker: _Worker, frame: dict[str, Any]) -> None:
        try:
            outcome: TrialOutcome = decode_payload(frame["payload"])
        except Exception as exc:  # noqa: BLE001 - any unpickle failure
            self._on_lost(worker, f"undecodable outcome: {exc!r}")
            return
        with self._cond:
            seq = outcome.seq
            worker.inflight.discard(seq)
            task = self._tasks.get(seq)
            if (
                task is None
                or self._assigned.get(seq) != worker.name
                or outcome.attempt != task.attempt
            ):
                # a stale or duplicate report: the task was requeued
                # elsewhere after this worker was presumed dead, already
                # accepted (outbox redelivery after a rejoin), or a
                # superseded attempt — acked below so the worker stops
                # resending, never committed twice
                if self._telem.enabled:
                    self._telem.meters.counter("net/dup_outcomes").inc()
                self._dispatch_locked()
            else:
                del self._assigned[seq]
                del self._tasks[seq]
                if outcome.trial_id is None:
                    # worker-synthesized crash outcomes (undecodable
                    # payload) cannot know the trial id, but our task
                    # table does
                    outcome.trial_id = task.config.trial_id
                self._done.append(outcome)
                self._outcomes_accepted += 1
                self._dispatch_locked()
                self._update_meters_locked()
                self._cond.notify_all()
        # ack outside the lock: a wedged peer must not stall bookkeeping
        try:
            worker.stream.send(
                {"type": "ack", "seq": seq, "attempt": outcome.attempt}
            )
        except (OSError, ProtocolError):
            pass  # reader loop will notice the dead connection shortly

    # ----------------------------------------------------------- dispatch
    def _dispatch_locked(self) -> None:
        """Drain pending tasks onto free worker slots (lock held)."""
        progress = True
        while self._pending and progress:
            progress = False
            for worker in list(self._workers.values()):
                if not self._pending:
                    break
                if (
                    not worker.alive
                    or self._health.is_quarantined(worker.session)
                    or len(worker.inflight) >= worker.slots
                ):
                    continue
                seq = self._pending.popleft()
                task = self._tasks.get(seq)
                if task is None:  # pragma: no cover - cancelled while queued
                    continue
                frame = {
                    "type": "task",
                    "seq": seq,
                    "attempt": task.attempt,
                    "payload": encode_payload(replace(task, telemetry=None)),
                }
                try:
                    # repro-lint: disable=RPR203 -- slot accounting and the send must be atomic or a racing reaper double-dispatches the seq; send_frame arms a socket timeout so the hold is bounded
                    worker.stream.send(frame)
                except (OSError, ProtocolError) as exc:
                    # never burned an attempt: the task provably did not
                    # reach the worker, so it goes straight back in line
                    self._pending.appendleft(seq)
                    self._on_lost_locked(worker, f"send failed: {exc}")
                    continue
                worker.inflight.add(seq)
                self._assigned[seq] = worker.name
                progress = True

    # --------------------------------------------------------- fleet state
    def _on_lost(self, worker: _Worker, reason: str) -> None:
        with self._cond:
            self._on_lost_locked(worker, reason)

    def _on_lost_locked(self, worker: _Worker, reason: str) -> None:
        """Declare a connection dead; park or requeue its trials."""
        if self._closing or not worker.alive:
            return
        worker.alive = False
        self._workers.pop(worker.name, None)
        try:
            worker.sock.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._telem.event(EVT_WORKER_LOST, worker=worker.name, reason=reason)
        if self._telem.enabled:
            self._telem.meters.counter("net/worker_deaths").inc()
        if self._health.note_loss(worker.session, self._outcomes_accepted):
            record = self._health.record(worker.session)
            self._telem.event(
                EVT_WORKER_QUARANTINED,
                worker=worker.name,
                session=worker.session,
                losses=record.losses if record else 0,
                window=self.policy.quarantine_window,
            )
            if self._telem.enabled:
                self._telem.meters.counter("net/quarantines").inc()
        seqs = {
            seq
            for seq in worker.inflight
            if self._assigned.get(seq) == worker.name
        }
        for seq in seqs:
            del self._assigned[seq]
        worker.inflight.clear()
        grace = self.policy.grace_for(self.heartbeat_timeout)
        if seqs and grace > 0 and not self._health.is_quarantined(worker.session):
            # park for rejoin instead of crashing immediately: a
            # partitioned worker is probably still computing these
            deadline = time.monotonic() + grace
            limbo = self._lost.get(worker.session)
            if limbo is None:
                self._lost[worker.session] = _Lost(
                    worker.name, seqs, deadline, reason
                )
            else:  # pragma: no cover - repeated loss within one grace
                limbo.seqs |= seqs
                limbo.deadline = deadline
                limbo.reason = reason
        else:
            self._crash_seqs_locked(worker.name, seqs, reason)
        self._check_fleet_locked()
        self._dispatch_locked()
        self._update_meters_locked()
        self._cond.notify_all()

    def _crash_seqs_locked(
        self, name: str, seqs: set[int], reason: str
    ) -> None:
        """Synthesize ``crashed`` outcomes for abandoned assignments."""
        for seq in sorted(seqs):
            task = self._tasks.pop(seq, None)
            if task is None:
                continue
            self._done.append(
                TrialOutcome(
                    seq=seq,
                    trial_id=task.config.trial_id,
                    attempt=task.attempt,
                    status="crashed",
                    error=f"worker {name!r} lost: {reason}",
                    worker=name,
                )
            )

    def _expire_lost_locked(self, now: float) -> None:
        """Crash out limbo entries whose rejoin grace has run out."""
        expired = [
            session
            for session, limbo in self._lost.items()
            if now >= limbo.deadline
        ]
        for session in expired:
            limbo = self._lost.pop(session)
            seqs = {
                seq
                for seq in limbo.seqs
                if seq in self._tasks and seq not in self._assigned
            }
            self._crash_seqs_locked(
                limbo.name, seqs, limbo.reason + " (rejoin grace expired)"
            )
        if expired:
            self._dispatch_locked()
            self._update_meters_locked()
            self._cond.notify_all()

    def _service_locked(self) -> None:
        """Periodic bookkeeping driven from poll (lock held)."""
        self._expire_lost_locked(time.monotonic())
        self._check_fleet_locked()

    def _live_count_locked(self) -> int:
        return sum(
            1
            for worker in self._workers.values()
            if worker.alive and not self._health.is_quarantined(worker.session)
        )

    def _degraded_locked(self) -> bool:
        return (
            self._fleet_was_up
            and not self._closing
            and self._live_count_locked() < self.policy.min_workers
        )

    def _check_fleet_locked(self) -> None:
        """Apply the on-fleet-loss policy to the current live count."""
        live = self._live_count_locked()
        if live >= self.policy.min_workers:
            self._fleet_was_up = True
            return
        if not self._fleet_was_up or self._closing:
            return
        if self.policy.on_fleet_loss == "fail":
            if self._fleet_error is None:
                self._fleet_error = FleetLostError(
                    f"live workers fell to {live} (min_workers="
                    f"{self.policy.min_workers}) and on_fleet_loss='fail'"
                )
                self._cond.notify_all()
        elif self.policy.on_fleet_loss == "local":
            self._ensure_local_runner_locked()
        # "wait": hold the queue; a rejoin or a fresh worker resumes it

    # ------------------------------------------------------ local fallback
    def _ensure_local_runner_locked(self) -> None:
        if self._local_runner is not None and self._local_runner.is_alive():
            return
        self._local_runner = threading.Thread(
            target=self._local_loop, name="net-local-fallback", daemon=True
        )
        self._local_runner.start()

    def _local_loop(self) -> None:
        """Run pending trials in-process while the fleet is degraded.

        Each trial goes through the very same
        :func:`~repro.exec.payload.execute_trial` the workers use, so
        measurements (and therefore the results-table fingerprint) are
        identical to a serial run; only the ``worker`` label differs,
        and that is not fingerprinted.
        """
        while True:
            with self._cond:
                if self._closing:
                    return
                self._expire_lost_locked(time.monotonic())
                if not self._degraded_locked():
                    return  # fleet recovered; workers take it from here
                if not self._pending:
                    self._cond.wait(0.2)
                    continue
                seq = self._pending.popleft()
                task = self._tasks.get(seq)
                if task is None:  # pragma: no cover - cancelled while queued
                    continue
                self._assigned[seq] = LOCAL_FALLBACK
            try:
                outcome = execute_trial(replace(task, telemetry=None))
            except Exception as exc:  # noqa: BLE001 - keep the campaign alive
                outcome = TrialOutcome(
                    seq=seq,
                    trial_id=task.config.trial_id,
                    attempt=task.attempt,
                    status="crashed",
                    error=f"local fallback failed: {exc!r}",
                )
            outcome.worker = LOCAL_FALLBACK
            with self._cond:
                if (
                    self._assigned.get(seq) == LOCAL_FALLBACK
                    and seq in self._tasks
                    and self._tasks[seq].attempt == outcome.attempt
                ):
                    del self._assigned[seq]
                    del self._tasks[seq]
                    if outcome.trial_id is None:  # pragma: no cover
                        outcome.trial_id = task.config.trial_id
                    self._done.append(outcome)
                    self._outcomes_accepted += 1
                    if self._telem.enabled:
                        self._telem.meters.counter("net/local_trials").inc()
                    self._update_meters_locked()
                    self._cond.notify_all()

    # -------------------------------------------------------------- meters
    def _update_meters_locked(self) -> None:
        if self._telem.enabled:
            self._telem.meters.gauge("net/workers").set(float(len(self._workers)))
            self._telem.meters.gauge("net/queue_depth").set(
                float(len(self._pending))
            )

    def __repr__(self) -> str:
        host, port = self.address
        return (
            f"RemoteExecutor({host}:{port}, max_workers={self.max_workers}, "
            f"workers={self.n_workers})"
        )
