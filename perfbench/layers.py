"""The program's layers: which entry points are wrapped, and what each reports.

Every probe below names a seam of one ``src/repro`` module. The metrics a
traced run reports are derived from the spans those probes record, from
what the workload measured from outside (fleet round trips, serve client
timings) and from the harness's own wall clock. ``PER_LAYER`` lists every
per-layer metric with its unit, in the order the benchmark prints them
(README.md says which end-to-end metric each should move, and where).
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Any, Iterable, Sequence

from tracer import Probe, Span, self_times, union_length

__all__ = [
    "PER_LAYER",
    "NetLedger",
    "probes",
    "layer_metrics",
    "layer_table",
]


def _vector_rows(args: tuple, kwargs: dict, result: Any) -> int:
    return int(args[0].num_envs)


def _obs_rows(args: tuple, kwargs: dict, result: Any) -> int:
    obs = args[1] if len(args) > 1 else kwargs["observations"]
    shape = getattr(obs, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _frame_bytes(frame: Any) -> int:
    # length prefix + JSON body as protocol.send_frame encodes it
    return 4 + len(json.dumps(frame, sort_keys=True).encode("utf-8"))


def _sent_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    frame = args[1] if len(args) > 1 else kwargs["frame"]
    return _frame_bytes(frame)


def _received_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    return 0 if result is None else _frame_bytes(result)


def _trial_label(args: tuple, kwargs: dict) -> Any:
    task = args[0] if args else kwargs["task"]
    return getattr(getattr(task, "config", None), "trial_id", None)


class NetLedger:
    """Coordinator-side task timing: submit -> outcome, per sequence number.

    Hooked in as the row counters of ``RemoteExecutor.submit``/``poll``,
    which run right after the wrapped call returns.
    """

    def __init__(self) -> None:
        self.submitted: dict[int, float] = {}
        self.roundtrip: list[float] = []
        self.worker_exec: list[float] = []

    def on_submit(self, args: tuple, kwargs: dict, result: Any) -> int:
        task = args[1] if len(args) > 1 else kwargs["task"]
        self.submitted[task.seq] = time.perf_counter()
        return 1

    def on_poll(self, args: tuple, kwargs: dict, result: Any) -> int:
        now = time.perf_counter()
        for outcome in result or ():
            sent = self.submitted.pop(outcome.seq, None)
            if sent is not None:
                self.roundtrip.append(now - sent)
                self.worker_exec.append(float(outcome.duration_s))
        return len(result or ())


def probes(ledger: NetLedger | None = None) -> list[Probe]:
    """Every wrapped entry point, grouped by the ``src/repro`` module."""
    ledger = ledger or NetLedger()
    return [
        # airdrop: physics
        Probe("repro.airdrop.env:AirdropEnv.step", "airdrop", "airdrop.step",
              rows=lambda a, k, r: 1),
        Probe("repro.airdrop.batch:AirdropVectorEnv.step", "airdrop", "airdrop.step",
              rows=_vector_rows),
        # rl: acting and learning
        Probe("repro.rl.ppo:PPOAgent.act", "rl", "rl.act", rows=_obs_rows),
        Probe("repro.rl.sac:SACAgent.act", "rl", "rl.act", rows=_obs_rows),
        Probe("repro.rl.ppo:PPOAgent.update", "rl", "rl.ppo_update"),
        Probe("repro.rl.sac:SACAgent.update", "rl", "rl.sac_update"),
        Probe("repro.rl.sac:SACAgent.observe", "rl", "rl.sac_observe"),
        # frameworks: training loop and post-training evaluation
        Probe("repro.frameworks.base:Framework.train", "frameworks", "frameworks.train"),
        Probe("repro.frameworks.base:Framework._evaluate_vec", "frameworks",
              "frameworks.evaluate"),
        Probe("repro.frameworks.base:Framework._evaluate", "frameworks",
              "frameworks.evaluate"),
        # cluster: the virtual cluster
        Probe("repro.cluster.simulator:ClusterSimulator.run", "cluster", "cluster.sim"),
        Probe("repro.cluster.power:energy_from_trace", "cluster", "cluster.energy"),
        # core: campaign loop and ranking
        Probe("repro.core.campaign:Campaign.run", "core", "core.campaign"),
        Probe("repro.core.ranking:ParetoFrontRanking.rank", "core", "core.rank"),
        # exec: trial runner (opens the trial scope), cache and journal
        Probe("repro.exec.payload:execute_trial", "exec", "exec.trial",
              trial=_trial_label),
        Probe("repro.exec.cache:TrialCache.lookup", "exec", "exec.cache_lookup",
              rows=lambda a, k, r: int(r is not None)),
        Probe("repro.exec.cache:TrialCache.lookup_outcome", "exec", "exec.cache_lookup",
              rows=lambda a, k, r: int(r is not None)),
        Probe("repro.exec.cache:TrialCache.store", "exec", "exec.cache_store"),
        Probe("repro.exec.cache:TrialCache.store_outcome", "exec", "exec.cache_store"),
        Probe("repro.exec.journal:CampaignJournal.record", "exec", "exec.journal_record"),
        # net: coordinator side of the fleet
        Probe("repro.net.coordinator:RemoteExecutor.submit", "net", "net.submit",
              rows=ledger.on_submit),
        Probe("repro.net.coordinator:RemoteExecutor.poll", "net", "net.poll",
              rows=ledger.on_poll),
        Probe("repro.net.coordinator:RemoteExecutor._handshake", "net", "net.handshake"),
        Probe("repro.net.protocol:send_frame", "net", "net.send_frame", rows=_sent_bytes),
        # a receive blocks until a frame arrives: count it, never time it
        Probe("repro.net.protocol:recv_frame", "net", "net.recv_frame",
              rows=_received_bytes, timed=False),
        # serve: the service's runner and submission path
        Probe("repro.serve.server:CampaignService.submit", "serve", "serve.submit"),
        Probe("repro.serve.server:CampaignService._run_job", "serve", "serve.run_job"),
    ]


#: every per-layer metric, with its unit, in print order
PER_LAYER: dict[str, str] = {
    "airdrop.step_calls": "count",
    "airdrop.rows": "count",
    "airdrop.self_s": "s",
    "airdrop.us_per_row": "us",
    "rl.act_calls": "count",
    "rl.act_rows": "count",
    "rl.act_self_s": "s",
    "rl.ppo_update_calls": "count",
    "rl.ppo_update_self_s": "s",
    "rl.sac_update_calls": "count",
    "rl.sac_update_self_s": "s",
    "rl.sac_update_ms": "ms",
    "rl.sac_observe_self_s": "s",
    "frameworks.train_self_s": "s",
    "frameworks.evaluate_calls": "count",
    "frameworks.evaluate_incl_s": "s",
    "frameworks.evaluate_share": "ratio",
    "cluster.sim_runs": "count",
    "cluster.sim_self_s": "s",
    "cluster.energy_self_s": "s",
    "core.campaign_self_s": "s",
    "core.rank_self_s": "s",
    "exec.cache_lookups": "count",
    "exec.cache_hits": "count",
    "exec.cache_hit_ratio": "ratio",
    "exec.cache_lookup_s": "s",
    "exec.cache_store_s": "s",
    "exec.journal_records": "count",
    "exec.journal_record_s": "s",
    "net.tasks": "count",
    "net.frames": "count",
    "net.bytes": "B",
    "net.roundtrip_p50_s": "s",
    "net.worker_exec_p50_s": "s",
    "net.overhead_p50_s": "s",
    "net.idle_share": "ratio",
    "net.handshake_s": "s",
    "net.shutdown_s": "s",
    "serve.jobs": "count",
    "serve.post_p50_s": "s",
    "serve.queue_wait_p50_s": "s",
    "serve.exec_p50_s": "s",
    "serve.stream_lag_p50_s": "s",
    "serve.cold_first_trial_p50_s": "s",
    "serve.cold_done_p50_s": "s",
    "serve.warm_done_p50_s": "s",
    "bench.trace_overhead_share": "ratio",
    "bench.unattributed_s": "s",
}


def _p50(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(
    processes: Sequence[tuple[str, float, Sequence[Span]]],
    counts: dict[str, list[int]],
    *,
    window: tuple[float, float],
    untraced_wall_s: float,
    ledger: NetLedger | None = None,
    n_workers: int = 0,
    serve: dict[str, list[float]] | None = None,
    shutdown_s: float = 0.0,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced pass.

    ``processes[0]`` is the process that ran the workload; ``window`` is
    its traced wall interval (perf_counter seconds) and
    ``untraced_wall_s`` the same work's wall time with tracing off.
    """
    # span ids are per process, so self times are derived per process
    by_name: dict[str, list[tuple[Span, float]]] = {}
    for _, _, group in processes:
        selfs = self_times(group)
        for span in group:
            by_name.setdefault(span.name, []).append((span, selfs[span.sid]))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def self_s(name: str) -> float:
        return sum(t for _, t in by_name.get(name, ()))

    def incl_s(name: str) -> float:
        return sum(span.duration for span, _ in by_name.get(name, ()))

    def rows(name: str) -> int:
        return sum(span.rows for span, _ in by_name.get(name, ()))

    wall = window[1] - window[0]
    m: dict[str, float] = {}
    m["airdrop.step_calls"] = calls("airdrop.step")
    m["airdrop.rows"] = rows("airdrop.step")
    m["airdrop.self_s"] = self_s("airdrop.step")
    m["airdrop.us_per_row"] = (
        m["airdrop.self_s"] / m["airdrop.rows"] * 1e6 if m["airdrop.rows"] else 0.0
    )
    m["rl.act_calls"] = calls("rl.act")
    m["rl.act_rows"] = rows("rl.act")
    m["rl.act_self_s"] = self_s("rl.act")
    m["rl.ppo_update_calls"] = calls("rl.ppo_update")
    m["rl.ppo_update_self_s"] = self_s("rl.ppo_update")
    m["rl.sac_update_calls"] = calls("rl.sac_update")
    m["rl.sac_update_self_s"] = self_s("rl.sac_update")
    m["rl.sac_update_ms"] = (
        m["rl.sac_update_self_s"] / m["rl.sac_update_calls"] * 1e3
        if m["rl.sac_update_calls"] else 0.0
    )
    m["rl.sac_observe_self_s"] = self_s("rl.sac_observe")
    m["frameworks.train_self_s"] = self_s("frameworks.train")
    m["frameworks.evaluate_calls"] = calls("frameworks.evaluate")
    m["frameworks.evaluate_incl_s"] = incl_s("frameworks.evaluate")
    train_incl = incl_s("frameworks.train")
    m["frameworks.evaluate_share"] = (
        m["frameworks.evaluate_incl_s"] / train_incl if train_incl else 0.0
    )
    m["cluster.sim_runs"] = calls("cluster.sim")
    m["cluster.sim_self_s"] = self_s("cluster.sim")
    m["cluster.energy_self_s"] = self_s("cluster.energy")
    m["core.campaign_self_s"] = self_s("core.campaign")
    m["core.rank_self_s"] = self_s("core.rank")
    m["exec.cache_lookups"] = calls("exec.cache_lookup")
    m["exec.cache_hits"] = rows("exec.cache_lookup")
    m["exec.cache_hit_ratio"] = (
        m["exec.cache_hits"] / m["exec.cache_lookups"] if m["exec.cache_lookups"] else 0.0
    )
    m["exec.cache_lookup_s"] = incl_s("exec.cache_lookup")
    m["exec.cache_store_s"] = incl_s("exec.cache_store")
    m["exec.journal_records"] = calls("exec.journal_record")
    m["exec.journal_record_s"] = incl_s("exec.journal_record")
    received = counts.get("net.recv_frame", [0, 0])
    m["net.tasks"] = calls("net.submit")
    m["net.frames"] = calls("net.send_frame") + received[0]
    m["net.bytes"] = rows("net.send_frame") + received[1]
    roundtrip = ledger.roundtrip if ledger else []
    worker_exec = ledger.worker_exec if ledger else []
    m["net.roundtrip_p50_s"] = _p50(roundtrip)
    m["net.worker_exec_p50_s"] = _p50(worker_exec)
    m["net.overhead_p50_s"] = _p50([r - e for r, e in zip(roundtrip, worker_exec)])
    m["net.idle_share"] = (
        1.0 - sum(worker_exec) / (n_workers * wall) if n_workers and wall else 0.0
    )
    m["net.handshake_s"] = _p50([span.duration for span, _ in by_name.get("net.handshake", ())])
    m["net.shutdown_s"] = shutdown_s
    serve = serve or {}
    m["serve.jobs"] = len(serve.get("post", ()))
    for key in ("post", "queue_wait", "exec", "stream_lag", "cold_first_trial",
                "cold_done", "warm_done"):
        m[f"serve.{key}_p50_s"] = _p50(serve.get(key, ()))
    m["bench.trace_overhead_share"] = (
        wall / untraced_wall_s - 1.0 if untraced_wall_s else 0.0
    )
    m["bench.unattributed_s"] = max(0.0, wall - _covered(processes[0][2], window))
    return {name: float(m[name]) for name in PER_LAYER}


def _covered(spans: Iterable[Span], window: tuple[float, float]) -> float:
    """Wall time inside ``window`` covered by at least one top-level span."""
    lo, hi = window
    return union_length(
        (max(s.start, lo), min(s.end, hi))
        for s in spans
        if s.parent is None and min(s.end, hi) > max(s.start, lo)
    )


def layer_table(
    processes: Sequence[tuple[str, float, Sequence[Span]]], wall_s: float
) -> list[dict[str, Any]]:
    """Per-layer summary rows: calls, self time and its share of wall time."""
    table: dict[str, dict[str, Any]] = {}
    for _, _, group in processes:
        selfs = self_times(group)
        for span in group:
            row = table.setdefault(span.layer, {"layer": span.layer, "calls": 0,
                                                "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[span.sid]
    rows = sorted(table.values(), key=lambda r: -r["self_s"])
    for row in rows:
        row["share_of_wall"] = row["self_s"] / wall_s if wall_s else 0.0
    return rows
