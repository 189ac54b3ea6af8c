"""The three workloads: inputs made from a seed, timed from outside.

Each workload runs its measured unit (a campaign, or a cold/warm pair of
serve submissions) until ``seconds`` have passed and at least its minimum
count ran, reports medians, and checks every output it produced. With
``trace`` on, it runs one untraced and one traced pass of the same work:
the traced pass gives the per-layer metrics and the pair gives the
tracing overhead.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from checks import Checks, CheckFailed
from layers import NetLedger, layer_metrics, probes
from tracer import Span, Tracer

#: real-step budgets; 1500 crosses SAC's learning_starts=1000, 800 does not
TABLE1_STEPS = 1500
FLEET_STEPS = 800
FLEET_WORKERS = 2
#: campaigns per untraced run, at least (a third fleet campaign was
#: measured not to narrow the spread between runs)
TABLE1_MIN_CAMPAIGNS = 2
FLEET_MIN_CAMPAIGNS = 2
#: serve traffic: (algorithm, rk_order) strata, pairs per stratum per block
SERVE_STRATA = [(alg, rk) for alg in ("ppo", "sac") for rk in (3, 5, 8)]
SERVE_MIN_BLOCKS = 4  # 4 blocks x 6 strata = 24 cold + 24 warm submissions
SERVE_STEPS = 200
#: fresh interpreters timed per run for the import part of setup_s
IMPORT_SAMPLES = 3


@dataclass
class Context:
    root: str
    out: str
    seed: int
    seconds: float
    trace: bool
    checks: Checks = field(default_factory=Checks)

    @property
    def src(self) -> str:
        return os.path.join(self.root, "src")

    def child_env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src + os.pathsep + env.get("PYTHONPATH", "")
        return env


@dataclass
class Result:
    """What a workload hands back to the harness."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    samples: dict[str, Any] = field(default_factory=dict)
    #: traced pass: (label, epoch offset, spans) per process, and its wall
    processes: list[tuple[str, float, list[Span]]] = field(default_factory=list)
    traced_wall_s: float = 0.0


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds(ctx: Context, modules: str) -> list[float]:
    """Wall time of fresh interpreters importing what the workload needs."""
    times = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in 50 ms steps (the run's
        # deadline alarm still bounds it)
        subprocess.run([sys.executable, "-c", f"import {modules}"],
                       env=ctx.child_env(), check=True)
        times.append(time.perf_counter() - start)
    return times


def _keep_going(ctx: Context, start: float, done: int, minimum: int) -> bool:
    if ctx.trace:
        return done < 1
    return done < minimum or time.perf_counter() - start < ctx.seconds


def _run_campaign(campaign) -> tuple[Any, float, float, float]:
    """Run a campaign: (report, start, last trial committed, returned).

    ``campaign_s`` ends at the last commit. After it only ranking and
    executor teardown remain, and the fleet's teardown waits for the
    coordinator's accept loop to notice (it polls every 1 s), which would
    round fleet times to whole seconds; ``net.shutdown_s`` reports it.
    """
    commits: list[float] = []
    start = time.perf_counter()
    report = campaign.run(progress=lambda trial, n: commits.append(time.perf_counter()))
    end = time.perf_counter()
    return report, start, commits[-1] if commits else end, end


def _traced(ctx: Context, ledger: NetLedger | None = None) -> Tracer:
    tracer = Tracer()
    tracer.install(probes(ledger), package="repro")
    if tracer.missing:
        print(f"warning: entry points not found, not traced: {tracer.missing}",
              file=sys.stderr)
    return tracer


# ----------------------------------------------------------- table1_train
def table1_train(ctx: Context) -> Result:
    """Table I, 18 configs, in-process serial, n_envs=8, cache off."""
    from repro.core.serialization import table_fingerprint
    from repro.paper import Scale, table1_campaign

    imports = import_seconds(ctx, "repro.paper")

    def build():
        return table1_campaign(seed=ctx.seed, scale=Scale(real_steps=TABLE1_STEPS),
                               n_envs=8)

    ready, walls, fingerprints = [], [], {}
    attempted = failed = 0

    def one(label: str) -> tuple[float, float]:
        nonlocal attempted, failed
        t0 = time.perf_counter()
        campaign = build()
        ready.append(time.perf_counter() - t0)
        report, start, last, _ = _run_campaign(campaign)
        statuses = [t.status for t in report.table]
        attempted += len(statuses)
        failed += sum(s != "completed" for s in statuses)
        ctx.checks.trials_completed(f"table1_train {label}", statuses, 18)
        fingerprints[label] = table_fingerprint(report.table)
        walls.append(last - start)
        return start, last

    loop_start = time.perf_counter()
    while _keep_going(ctx, loop_start, len(walls), minimum=TABLE1_MIN_CAMPAIGNS):
        one(f"run {len(walls) + 1}")
    result = Result({}, 0, 0)
    if ctx.trace:
        tracer = _traced(ctx)
        try:
            window = one("traced run")
        finally:
            tracer.uninstall()
        result.processes = [("benchmark", tracer.epoch_offset, tracer.spans)]
        result.traced_wall_s = window[1] - window[0]
        result.metrics = layer_metrics(
            result.processes, tracer.counts, window=window, untraced_wall_s=walls[0],
        )
    ctx.checks.identical("table1_train repeated runs", fingerprints)
    if not ctx.trace:
        result.metrics = {
            "setup_s": _median(imports) + _median(ready),
            "campaign_s": _median(walls),
            "peak_rss_mb": _peak_rss_mb(),
        }
    result.attempted, result.failed = attempted, failed
    result.samples = {"campaign_s": walls, "import_s": imports, "ready_s": ready}
    return result


# -------------------------------------------------------- fleet_loopback2
class _Fleet:
    """A RemoteExecutor with loopback ``repro worker`` subprocesses."""

    def __init__(self, ctx: Context, label: str, trace: bool) -> None:
        from repro.net import RemoteExecutor

        self.results = [os.path.join(ctx.out, f"worker-{label}-{i}.json")
                        for i in range(FLEET_WORKERS)]
        self.procs: list[subprocess.Popen] = []
        start = time.perf_counter()
        self.executor = RemoteExecutor(max_workers=FLEET_WORKERS, heartbeat_timeout=30.0)
        host, port = self.executor.address
        boot = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker_boot.py")
        try:
            for i, path in enumerate(self.results):
                cmd = [sys.executable, boot, "--out", path]
                if trace:
                    cmd.append("--trace")
                cmd += ["--", "--connect", f"{host}:{port}", "--no-cache",
                        "--name", f"w{i}"]
                with open(os.path.join(ctx.out, f"worker-{label}-{i}.log"), "wb") as log:
                    self.procs.append(subprocess.Popen(
                        cmd, env=ctx.child_env(), stdout=log, stderr=subprocess.STDOUT))
            self.executor.wait_for_workers(FLEET_WORKERS, timeout=60.0)
        except BaseException:
            self._stop()
            raise
        self.ready_s = time.perf_counter() - start

    def _stop(self) -> None:
        self.executor.shutdown()
        for proc in self.procs:
            try:
                proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)

    def close(self) -> list[dict[str, Any]]:
        """Shut the fleet down, wait for every worker, return their reports."""
        self._stop()
        reports = []
        for path in self.results:
            try:
                with open(path, encoding="utf-8") as handle:
                    reports.append(json.load(handle))
            except (OSError, json.JSONDecodeError) as exc:
                raise CheckFailed(f"fleet worker left no report at {path}: {exc}") from exc
        return reports


def fleet_loopback2(ctx: Context) -> Result:
    """Table I at 800 steps, n_envs=1, over 2 loopback workers, cache off."""
    from repro.core.serialization import table_fingerprint
    from repro.paper import Scale, table1_campaign

    imports = import_seconds(ctx, "repro.paper, repro.net")

    def build(executor=None):
        return table1_campaign(seed=ctx.seed, scale=Scale(real_steps=FLEET_STEPS),
                               n_envs=1, executor=executor)

    # the reference: the same spec in-process, serial, outside the timed region
    reference = build().run()
    ctx.checks.trials_completed("fleet_loopback2 serial reference",
                                [t.status for t in reference.table], 18)
    fingerprints = {"in-process serial reference": table_fingerprint(reference.table)}

    ready, walls, rss = [], [], []
    attempted = failed = 0

    def one(label: str, trace: bool, ledger: NetLedger | None = None):
        nonlocal attempted, failed
        tracer = _traced(ctx, ledger) if trace else None
        try:
            fleet = _Fleet(ctx, label.replace(" ", "-"), trace)
            ready.append(fleet.ready_s)
            try:
                report, start, last, end = _run_campaign(build(fleet.executor))
            finally:
                workers = fleet.close()
        finally:
            if tracer is not None:
                tracer.uninstall()
        statuses = [t.status for t in report.table]
        attempted += len(statuses)
        failed += sum(s != "completed" for s in statuses)
        ctx.checks.trials_completed(f"fleet_loopback2 {label}", statuses, 18)
        fingerprints[f"fleet {label}"] = table_fingerprint(report.table)
        walls.append(last - start)
        rss.append(max(w["peak_rss_mb"] for w in workers))
        return tracer, workers, (start, last), end - last

    loop_start = time.perf_counter()
    while _keep_going(ctx, loop_start, len(walls), minimum=FLEET_MIN_CAMPAIGNS):
        one(f"run {len(walls) + 1}", trace=False)
    result = Result({}, 0, 0)
    if ctx.trace:
        ledger = NetLedger()
        tracer, workers, window, shutdown = one("traced run", trace=True, ledger=ledger)
        result.processes = [("coordinator", tracer.epoch_offset, tracer.spans)]
        for i, report in enumerate(workers):
            dump = report["trace"]
            result.processes.append((f"worker w{i}", dump["epoch_offset"],
                                     [Span.from_row(r) for r in dump["spans"]]))
        result.traced_wall_s = window[1] - window[0]
        result.metrics = layer_metrics(
            result.processes, tracer.counts, window=window,
            untraced_wall_s=walls[0], ledger=ledger, n_workers=FLEET_WORKERS,
            shutdown_s=shutdown,
        )
    ctx.checks.identical("fleet_loopback2 vs in-process serial", fingerprints)
    if not ctx.trace:
        result.metrics = {
            "setup_s": _median(imports) + _median(ready),
            "campaign_s": _median(walls),
            "peak_rss_mb": _median(rss),
        }
    result.attempted, result.failed = attempted, failed
    result.samples = {"campaign_s": walls, "import_s": imports, "ready_s": ready,
                      "worker_peak_rss_mb": rss}
    return result


# ------------------------------------------------------------ serve_mixed
def serve_specs(seed: int) -> Iterator[list[dict[str, Any]]]:
    """Blocks of seed-derived one-trial random-search specs, forever.

    Each block holds one spec per (algorithm, RK order) stratum in a
    seed-shuffled order, so a run's median does not hinge on how many
    expensive configurations its seed happened to draw. Spec seeds never
    repeat, so every first submission of a spec is a cache miss.
    """
    from repro.core import RandomSearch
    from repro.paper import airdrop_parameter_space

    rng = random.Random(seed)
    used: set[int] = set()
    while True:
        block: dict[tuple[str, int], int] = {}
        while len(block) < len(SERVE_STRATA):
            spec_seed = rng.randrange(2**31 - 1)
            config = RandomSearch(airdrop_parameter_space(), n_trials=1,
                                  seed=spec_seed).ask()
            stratum = (config["algorithm"], int(config["rk_order"]))
            if spec_seed not in used and stratum not in block:
                block[stratum] = spec_seed
                used.add(spec_seed)
        order = list(SERVE_STRATA)
        rng.shuffle(order)
        yield [{"explorer": "random", "trials": 1, "steps": SERVE_STEPS,
                "n_envs": 1, "seed": block[stratum]} for stratum in order]


class _Client:
    """A closed-loop HTTP client: one connection, one request at a time."""

    def __init__(self, port: int) -> None:
        self.port = port

    def request(self, method: str, path: str, body: Any = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        return conn, conn.getresponse()

    def get_json(self, path: str) -> dict[str, Any]:
        conn, resp = self.request("GET", path)
        try:
            payload = json.loads(resp.read())
            if resp.status != 200:
                raise CheckFailed(f"GET {path} -> {resp.status}: {payload}")
            return payload
        finally:
            conn.close()

    def submit(self, spec: dict[str, Any]) -> dict[str, Any]:
        """POST, then follow the trial stream to its end record."""
        start = time.perf_counter()
        conn, resp = self.request("POST", "/campaigns", spec)
        payload = json.loads(resp.read())
        posted = time.perf_counter()
        conn.close()
        if resp.status != 202:
            return {"ok": False, "error": f"POST -> {resp.status}: {payload}"}
        job = payload["id"]
        conn, resp = self.request("GET", f"/campaigns/{job}/trials")
        first = end = None
        try:
            while True:
                line = resp.readline()
                if not line:
                    break
                record = json.loads(line)
                if record["type"] == "trial" and first is None:
                    first = time.perf_counter()
                if record["type"] == "end":
                    end = time.perf_counter()
                    end_wall = time.time()
                    break
        finally:
            conn.close()
        if end is None:
            return {"ok": False, "id": job, "error": "stream closed without an end record"}
        return {
            "ok": record["state"] == "completed",
            "id": job,
            "post_s": posted - start,
            "first_trial_s": (first if first is not None else end) - start,
            "done_s": end - start,
            "end": record,
            "end_wall": end_wall,
        }


def _serve_pass(ctx: Context, state_dir: str, tracer_factory=None) -> dict[str, Any]:
    """Start a fresh server, drive the traffic, fetch every job's status and
    table, stop."""
    from repro.serve import CampaignServer, CampaignService

    # installed first: the job queue binds the service's runner at construction
    tracer = tracer_factory() if tracer_factory is not None else None
    start = time.perf_counter()
    service = CampaignService(state_dir)
    server = CampaignServer(service, host="127.0.0.1", port=0)
    server.start()
    ready = time.perf_counter() - start
    client = _Client(server.address[1])
    cold, warm = [], []
    blocks = serve_specs(ctx.seed)
    try:
        try:
            loop_start = time.perf_counter()
            done = 0
            while done < SERVE_MIN_BLOCKS or (
                not ctx.trace and time.perf_counter() - loop_start < ctx.seconds
            ):
                for spec in next(blocks):
                    cold.append(client.submit(spec))
                    warm.append(client.submit(spec))
                done += 1
            loop_end = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        # fetched after the timed loop, outside the trace
        statuses = {sub["id"]: client.get_json(f"/campaigns/{sub['id']}")
                    for sub in cold + warm if "id" in sub}
        tables = {sub["id"]: client.get_json(f"/campaigns/{sub['id']}/table")
                  for sub in cold + warm if sub.get("ok")}
    finally:
        server.drain(grace_s=10.0)
    return {"ready_s": ready, "cold": cold, "warm": warm, "statuses": statuses,
            "tables": tables, "window": (loop_start, loop_end), "tracer": tracer}


def _tally(run: dict[str, Any]) -> tuple[int, int]:
    """Submissions attempted, and those refused, failed or left unfinished."""
    subs = run["cold"] + run["warm"]
    return len(subs), sum(not sub.get("ok") for sub in subs)


def _verify_serve(ctx: Context, label: str, run: dict[str, Any]) -> None:
    from repro.core.serialization import table_fingerprint, table_from_dict

    for kind in ("cold", "warm"):
        for sub in run[kind]:
            if not sub.get("ok"):
                raise CheckFailed(f"serve_mixed {label}: {kind} submission failed: "
                                  f"{sub.get('error') or sub.get('end')}")
    for i, (cold, warm) in enumerate(zip(run["cold"], run["warm"])):
        pair = f"serve_mixed {label} pair {i + 1}"
        ctx.checks.equal(f"{pair} cold trials", cold["end"]["n_trials"], 1)
        ctx.checks.identical(f"{pair} warm vs cold",
                             {"cold": cold["end"]["fingerprint"],
                              "warm": warm["end"]["fingerprint"]})
        for kind, sub, cached in (("cold", cold, 0), ("warm", warm, 1)):
            table = run["tables"][sub["id"]]
            ctx.checks.trials_completed(f"{pair} {kind}",
                                        [t["status"] for t in table["trials"]], 1)
            rebuilt = table_fingerprint(table_from_dict(table))
            ctx.checks.refingerprints(f"{pair} {kind}", rebuilt,
                                      sub["end"]["fingerprint"])
            ctx.checks.equal(f"{pair} {kind} trials answered from cache",
                             table["meta"].get("n_cached"), cached)


def _serve_samples(run: dict[str, Any]) -> dict[str, list[float]]:
    cold, warm = run["cold"], run["warm"]
    statuses = run["statuses"]
    jobs = [statuses[sub["id"]] for sub in cold + warm]
    return {
        "post": [sub["post_s"] for sub in cold + warm],
        "queue_wait": [job["started_at"] - job["submitted_at"] for job in jobs],
        "exec": [statuses[sub["id"]]["finished_at"] - statuses[sub["id"]]["started_at"]
                 for sub in cold],
        "stream_lag": [sub["end_wall"] - statuses[sub["id"]]["finished_at"]
                       for sub in cold + warm],
        "cold_first_trial": [sub["first_trial_s"] for sub in cold],
        "cold_done": [sub["done_s"] for sub in cold],
        "warm_done": [sub["done_s"] for sub in warm],
    }


def _cache_ratio_by_kind(ctx: Context, run: dict[str, Any]) -> None:
    """Per submission kind, the traced cache lookups that hit (0 cold, 1 warm)."""
    spans = run["tracer"].spans
    jobs = sorted((s for s in spans if s.name == "serve.run_job"), key=lambda s: s.start)
    lookups = [s for s in spans if s.name == "exec.cache_lookup"]
    kinds = [k for _ in run["cold"] for k in ("cold", "warm")]
    if len(jobs) != len(kinds):
        raise CheckFailed(f"serve_mixed traced: {len(jobs)} jobs ran, "
                          f"{len(kinds)} were submitted")
    tally = {"cold": [0, 0], "warm": [0, 0]}
    for job, kind in zip(jobs, kinds):
        inside = [s for s in lookups
                  if s.tid == job.tid and job.start <= s.start and s.end <= job.end]
        tally[kind][0] += len(inside)
        tally[kind][1] += sum(s.rows for s in inside)
    for kind, expected in (("cold", 0.0), ("warm", 1.0)):
        n, hits = tally[kind]
        ctx.checks.equal(f"serve_mixed traced {kind} exec.cache_hit_ratio",
                         hits / n if n else None, expected)


def serve_mixed(ctx: Context) -> Result:
    """Closed-loop cold/warm submissions to an in-process CampaignServer."""
    imports = import_seconds(ctx, "repro.serve")
    state_root = os.path.join(ctx.out, "serve-state")
    try:
        untraced = _serve_pass(ctx, os.path.join(state_root, "untraced"))
        attempted, failed = _tally(untraced)
        _verify_serve(ctx, "untraced", untraced)
        # further fresh-state server starts, for more set-up samples
        ready = [untraced["ready_s"]]
        for i in range(2):
            from repro.serve import CampaignServer, CampaignService

            start = time.perf_counter()
            service = CampaignService(os.path.join(state_root, f"setup-{i}"))
            server = CampaignServer(service, host="127.0.0.1", port=0)
            server.start()
            ready.append(time.perf_counter() - start)
            server.drain(grace_s=10.0)
        samples = _serve_samples(untraced)
        result = Result({}, attempted, failed)
        if ctx.trace:
            traced = _serve_pass(ctx, os.path.join(state_root, "traced"),
                                 tracer_factory=lambda: _traced(ctx))
            attempted, failed = _tally(traced)
            result.attempted += attempted
            result.failed += failed
            _verify_serve(ctx, "traced", traced)
            _cache_ratio_by_kind(ctx, traced)
            tracer = traced["tracer"]
            window = traced["window"]
            result.processes = [("benchmark", tracer.epoch_offset, tracer.spans)]
            result.traced_wall_s = window[1] - window[0]
            result.metrics = layer_metrics(
                result.processes, tracer.counts, window=window,
                untraced_wall_s=untraced["window"][1] - untraced["window"][0],
                serve=_serve_samples(traced),
            )
        else:
            result.metrics = {
                "setup_s": _median(imports) + _median(ready),
                "campaign_s": _median(samples["cold_done"]),
                "peak_rss_mb": _peak_rss_mb(),
            }
        result.samples = {**samples, "import_s": imports, "ready_s": ready}
        return result
    finally:
        shutil.rmtree(state_root, ignore_errors=True)


WORKLOADS: dict[str, Callable[[Context], Result]] = {
    "table1_train": table1_train,
    "fleet_loopback2": fleet_loopback2,
    "serve_mixed": serve_mixed,
}
