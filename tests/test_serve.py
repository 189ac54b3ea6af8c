"""Campaign service tests: real sockets on ephemeral ports.

Covers the ``repro.serve`` package end to end:

* spec validation (typed 400s before any work is scheduled);
* bearer-token auth (401s, cross-tenant 404 indistinguishability);
* the queue's concurrency limit and round-robin tenant fairness,
  pinned down with an injected runner gated on ``threading.Event``;
* the JSONL trial stream's terminal record;
* graceful drain → "interrupted" checkpoint → restart resumes from the
  journal and replays committed trials instead of re-running them.

Everything binds ``127.0.0.1:0`` and reads the kernel-assigned port, so
tests run in parallel CI shards without port collisions.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time

import pytest

from repro.exec import CampaignJournal
from repro.obs import MeterRegistry
from repro.serve import (
    OPEN_TENANT,
    CampaignServer,
    CampaignService,
    Job,
    JobQueue,
    SpecError,
    TokenAuth,
    tenant_label,
    validate_spec,
)

TOKEN_A = "alpha-secret"
TOKEN_B = "beta-secret"

# small-but-real campaign: 2 random-search trials at 60 env steps runs in
# a couple of seconds and still exercises the full executor/journal path
FAST_SPEC = {"explorer": "random", "trials": 2, "steps": 60, "cache": False}


# ------------------------------------------------------------------ helpers
def request(
    port: int,
    method: str,
    path: str,
    token: str | None = None,
    body: object = None,
):
    """One HTTP exchange; returns (status, decoded-JSON-or-raw-bytes)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    headers = {}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    payload = None
    if body is not None:
        payload = body if isinstance(body, bytes) else json.dumps(body).encode()
        headers["Content-Type"] = "application/json"
    try:
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = response.read()
    finally:
        conn.close()
    if (response.getheader("Content-Type") or "").startswith("application/json"):
        return response.status, json.loads(data)
    return response.status, data


def wait_for_state(port, token, job_id, states, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, snap = request(port, "GET", f"/campaigns/{job_id}", token)
        assert status == 200, snap
        if snap["state"] in states:
            return snap
        time.sleep(0.2)
    raise AssertionError(f"{job_id} never reached {states}: {snap}")


def wait_until(predicate, timeout=60.0, message="condition never held"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.1)
    raise AssertionError(message)


# ------------------------------------------------------------- validate_spec
class TestValidateSpec:
    def test_defaults_fill_every_key(self):
        spec = validate_spec({})
        assert spec["explorer"] == "table1"
        assert spec["steps"] == 200 and spec["cache"] is True
        assert spec["executor"] == "serial"

    def test_rejects_non_object(self):
        with pytest.raises(SpecError, match="JSON object"):
            validate_spec([1, 2, 3])

    def test_rejects_unknown_keys(self):
        with pytest.raises(SpecError, match="unknown spec key.*nproc"):
            validate_spec({"nproc": 4})

    def test_rejects_bool_masquerading_as_int(self):
        with pytest.raises(SpecError, match="'trials' must be an integer"):
            validate_spec({"trials": True})

    def test_rejects_out_of_bounds(self):
        with pytest.raises(SpecError, match="'trials' must be in"):
            validate_spec({"trials": 0})

    def test_rejects_remote_executor(self):
        with pytest.raises(SpecError, match="configured server-side"):
            validate_spec({"executor": "remote"})

    def test_rejects_bad_fault_plan(self):
        with pytest.raises(SpecError, match="bad 'fault_plan'"):
            validate_spec({"fault_plan": {"format_version": 999}})
        with pytest.raises(SpecError, match="bad 'fault_plan'"):
            validate_spec({"fault_plan": {"task_failures": {}}})  # no rate

    def test_normalizes_valid_fault_plan(self):
        plan = {"seed": 7, "task_failures": {"rate": 0.1}}
        spec = validate_spec({"fault_plan": plan, "retries": 2})
        assert spec["fault_plan"]["task_failures"]["rate"] == 0.1
        assert spec["fault_plan"]["seed"] == 7
        assert spec["retries"] == 2

    def test_trial_timeout_coerced_to_float(self):
        assert validate_spec({"trial_timeout": 30})["trial_timeout"] == 30.0
        with pytest.raises(SpecError, match="trial_timeout"):
            validate_spec({"trial_timeout": -1})


# --------------------------------------------------------------------- auth
class TestTokenAuth:
    def test_open_mode_admits_everyone_as_public(self):
        auth = TokenAuth()
        assert not auth.enabled
        assert auth.tenant_for(None) == OPEN_TENANT
        assert auth.tenant_for("Bearer whatever") == OPEN_TENANT

    def test_token_mode_maps_tokens_to_stable_tenants(self):
        auth = TokenAuth([TOKEN_A, TOKEN_B])
        assert auth.enabled and auth.n_tenants == 2
        tenant = auth.tenant_for(f"Bearer {TOKEN_A}")
        assert tenant == tenant_label(TOKEN_A)
        assert tenant != auth.tenant_for(f"Bearer {TOKEN_B}")

    @pytest.mark.parametrize(
        "header", [None, "Bearer wrong", TOKEN_A, "Basic abc", "Bearer"]
    )
    def test_token_mode_rejects_everything_else(self, header):
        assert TokenAuth([TOKEN_A]).tenant_for(header) is None


# ------------------------------------------------------------------- queue
class TestJobQueue:
    def make_job(self, tenant, job_id):
        return Job(id=job_id, tenant=tenant, spec={})

    def test_concurrency_limit_queues_in_round_robin_order(self):
        """max_concurrent=1 → strictly serial, tenants served fairly."""
        started: list[str] = []
        gate = threading.Event()
        order_lock = threading.Lock()

        def runner(job: Job) -> None:
            with order_lock:
                started.append(job.id)
            gate.wait(timeout=30.0)
            job.mark("completed")

        queue = JobQueue(runner, max_concurrent=1)
        # submit before start so dispatch order is decided by the queue,
        # not by submission/start races: a1 a2 a3 from tenant A, b1 from B
        for job_id in ("a1", "a2", "a3"):
            queue.submit(self.make_job("tenant-a", job_id))
        queue.submit(self.make_job("tenant-b", "b1"))
        queue.start()

        wait_until(lambda: len(started) == 1, message="first job never started")
        assert queue.counts() == {"queued": 3, "running": 1}
        gate.set()  # release every subsequent runner invocation at once
        wait_until(lambda: len(started) == 4, message="queue never drained")
        # round-robin: tenant B's single job is served before A's backlog
        assert started == ["a1", "b1", "a2", "a3"]
        queue.drain(grace_s=5.0)

    def test_submit_after_drain_is_refused(self):
        queue = JobQueue(lambda job: job.mark("completed"), max_concurrent=1)
        queue.start()
        queue.drain(grace_s=5.0)
        with pytest.raises(RuntimeError, match="draining"):
            queue.submit(self.make_job("tenant-a", "late"))

    def test_trials_after_is_bounded_and_wakes_on_commit(self):
        job = self.make_job("tenant-a", "j1")
        start = time.monotonic()
        assert job.trials_after(0, timeout=0.2) == []
        assert time.monotonic() - start < 5.0  # bounded park, not forever
        job.append_trial({"trial": 0})
        assert job.trials_after(0, timeout=0.2) == [{"trial": 0}]


# -------------------------------------------------------- shared live server
@pytest.fixture(scope="module")
def live(tmp_path_factory):
    """One authenticated server with a completed 2-trial campaign."""
    state = tmp_path_factory.mktemp("serve-state")
    service = CampaignService(
        str(state), auth=TokenAuth([TOKEN_A, TOKEN_B]), max_concurrent=1
    )
    server = CampaignServer(service, port=0)
    assert server.start() == 0
    port = server.address[1]
    status, posted = request(
        port, "POST", "/campaigns", TOKEN_A, {**FAST_SPEC, "name": "shared"}
    )
    assert status == 202, posted
    snap = wait_for_state(port, TOKEN_A, posted["id"], ("completed", "failed"))
    assert snap["state"] == "completed", snap
    yield {"port": port, "state": str(state), "job_id": posted["id"]}
    server.drain(grace_s=10.0)


class TestEndpoints:
    def test_healthz_is_open_and_reports_auth(self, live):
        status, health = request(live["port"], "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok" and health["auth"] is True
        assert health["jobs"].get("completed", 0) >= 1
        assert "serve/jobs_completed" in health["meters"]["counters"]

    def test_dashboard_served_at_root_without_auth(self, live):
        status, body = request(live["port"], "GET", "/")
        assert status == 200 and b"<html" in body.lower()

    @pytest.mark.parametrize("token", [None, "wrong-token"])
    def test_campaign_routes_reject_bad_credentials(self, live, token):
        status, body = request(live["port"], "GET", "/campaigns", token)
        assert status == 401
        assert body["error"]["type"] == "unauthorized"
        status, body = request(
            live["port"], "POST", "/campaigns", token, FAST_SPEC
        )
        assert status == 401

    def test_unknown_campaign_and_endpoint_are_typed_404s(self, live):
        status, body = request(live["port"], "GET", "/campaigns/job-nope", TOKEN_A)
        assert status == 404 and body["error"]["type"] == "not_found"
        status, body = request(
            live["port"], "GET", f"/campaigns/{live['job_id']}/bogus", TOKEN_A
        )
        assert status == 404 and body["error"]["type"] == "not_found"

    def test_cross_tenant_probe_looks_like_a_miss(self, live):
        status, body = request(
            live["port"], "GET", f"/campaigns/{live['job_id']}", TOKEN_B
        )
        assert status == 404 and body["error"]["type"] == "not_found"
        status, listing = request(live["port"], "GET", "/campaigns", TOKEN_B)
        assert status == 200 and listing["campaigns"] == []

    def test_malformed_json_is_a_typed_400(self, live):
        status, body = request(
            live["port"], "POST", "/campaigns", TOKEN_A, b"not json"
        )
        assert status == 400
        assert body["error"]["type"] == "bad_request"
        assert "not valid JSON" in body["error"]["message"]

    def test_bad_spec_is_a_typed_400_naming_the_key(self, live):
        status, body = request(
            live["port"], "POST", "/campaigns", TOKEN_A, {"explorer": "grid9"}
        )
        assert status == 400
        assert body["error"]["type"] == "bad_request"
        assert "explorer" in body["error"]["message"]

    def test_write_methods_other_than_post_are_405(self, live):
        status, body = request(
            live["port"], "DELETE", f"/campaigns/{live['job_id']}", TOKEN_A
        )
        assert status == 405 and body["error"]["type"] == "method_not_allowed"

    def test_snapshot_carries_fingerprint_and_progress(self, live):
        status, snap = request(
            live["port"], "GET", f"/campaigns/{live['job_id']}", TOKEN_A
        )
        assert status == 200
        assert snap["state"] == "completed"
        assert snap["n_trials_done"] == 2 == snap["n_trials_expected"]
        assert len(snap["fingerprint"]) == 64  # sha256 hex
        assert snap["tenant"] == tenant_label(TOKEN_A)

    def test_trial_stream_is_jsonl_with_terminal_record(self, live):
        conn = http.client.HTTPConnection("127.0.0.1", live["port"], timeout=60)
        conn.request(
            "GET",
            f"/campaigns/{live['job_id']}/trials",
            headers={"Authorization": f"Bearer {TOKEN_A}"},
        )
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        lines = [json.loads(line) for line in response.read().splitlines()]
        conn.close()
        assert [line["type"] for line in lines] == ["trial", "trial", "end"]
        end = lines[-1]
        assert end["state"] == "completed" and end["n_trials"] == 2
        assert end["fingerprint"] and len(end["fingerprint"]) == 64
        for row in lines[:-1]:
            assert row["status"] == "completed" and "config" in row

    def test_table_round_trips_the_fingerprint(self, live):
        import hashlib

        from repro.core import table_fingerprint, table_from_dict

        status, result = request(
            live["port"], "GET", f"/campaigns/{live['job_id']}/table", TOKEN_A
        )
        assert status == 200
        digest = hashlib.sha256(
            table_fingerprint(table_from_dict(result)).encode()
        ).hexdigest()
        assert digest == result["fingerprint_sha256"]

    def test_pareto_exposes_paper_fronts(self, live):
        status, pareto = request(
            live["port"], "GET", f"/campaigns/{live['job_id']}/pareto", TOKEN_A
        )
        assert status == 200
        assert set(pareto["fronts"]) >= {"fig4", "fig5"}
        assert pareto["fingerprint"] and pareto["id"] == live["job_id"]

    def test_trace_is_valid_chrome_trace(self, live):
        from repro.obs import validate_chrome_trace

        status, trace = request(
            live["port"], "GET", f"/campaigns/{live['job_id']}/trace", TOKEN_A
        )
        assert status == 200
        assert validate_chrome_trace(trace) == []
        assert trace["traceEvents"]

    def test_table_on_unfinished_job_is_409_not_ready(self, live):
        # an 18-trial campaign cannot finish between POST and the probe;
        # module teardown's drain checkpoints it, so no completion wait
        status, posted = request(
            live["port"],
            "POST",
            "/campaigns",
            TOKEN_A,
            {"explorer": "table1", "steps": 3000, "cache": False},
        )
        assert status == 202
        for view in ("table", "pareto"):
            status, body = request(
                live["port"], "GET", f"/campaigns/{posted['id']}/{view}", TOKEN_A
            )
            assert status == 409 and body["error"]["type"] == "not_ready"


# ---------------------------------------------------------- drain + restart
class TestDrainRestart:
    def test_drain_checkpoints_and_restart_replays_journal(self, tmp_path):
        state = str(tmp_path / "state")
        spec = {"explorer": "random", "trials": 5, "steps": 60, "cache": False}

        service = CampaignService(state, max_concurrent=1)
        server = CampaignServer(service, port=0)
        server.start()
        port = server.address[1]
        status, posted = request(port, "POST", "/campaigns", None, spec)
        assert status == 202
        job_id = posted["id"]
        journal = os.path.join(state, f"{job_id}.journal.jsonl")

        def committed() -> int:
            try:
                with open(journal, encoding="utf-8") as handle:
                    return sum(
                        1 for line in handle if '"type": "trial"' in line
                    )
            except OSError:
                return 0

        wait_until(lambda: committed() >= 2, message="no trials journaled")
        server.drain(grace_s=30.0)

        with open(os.path.join(state, f"{job_id}.job.json")) as handle:
            persisted = json.load(handle)
        assert persisted["state"] == "interrupted"
        n_checkpointed = committed()
        assert 2 <= n_checkpointed < 5

        # posting into a draining service is refused with a typed 503
        # (the listener is already down here, so assert at service level)
        with pytest.raises(RuntimeError, match="draining"):
            service.submit(OPEN_TENANT, spec)

        service2 = CampaignService(state, max_concurrent=1)
        server2 = CampaignServer(service2, port=0)
        assert server2.start() == 1  # the interrupted job was re-enqueued
        try:
            snap = wait_for_state(
                server2.address[1], None, job_id, ("completed", "failed")
            )
            assert snap["state"] == "completed", snap
            assert snap["n_trials_done"] == 5
            assert snap["n_replayed"] >= n_checkpointed
            assert snap["restarts"] == 1
        finally:
            server2.drain(grace_s=10.0)

    def test_interrupted_stream_ends_with_interrupted_record(self, tmp_path, monkeypatch):
        """The trial stream terminates (no forever-park) across a drain."""
        # hold the campaign at its first commit until the drain trips the
        # stop flag, so the drain provably lands mid-campaign however fast
        # or slow the trials run
        first_commit = threading.Event()
        append_trial = Job.append_trial

        def gated(job: Job, row: dict) -> None:
            append_trial(job, row)
            first_commit.set()
            job._stop.wait(timeout=60.0)

        monkeypatch.setattr(Job, "append_trial", gated)
        state = str(tmp_path / "state")
        service = CampaignService(state, max_concurrent=1)
        server = CampaignServer(service, port=0)
        server.start()
        port = server.address[1]
        status, posted = request(port, "POST", "/campaigns", None, {**FAST_SPEC, "trials": 3})
        assert status == 202
        assert first_commit.wait(timeout=60.0), "no trial committed"

        # establish the stream (headers received) BEFORE draining, so the
        # handler is provably mid-stream when the checkpoint lands
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        conn.request("GET", f"/campaigns/{posted['id']}/trials")
        response = conn.getresponse()
        assert response.status == 200

        lines: list[dict] = []

        def stream() -> None:
            for raw in response.read().splitlines():
                lines.append(json.loads(raw))
            conn.close()

        reader = threading.Thread(target=stream, daemon=True)
        reader.start()
        server.drain(grace_s=30.0)
        reader.join(timeout=30.0)
        assert not reader.is_alive(), "stream never terminated after drain"
        assert lines[-1]["type"] == "end"
        assert lines[-1]["state"] == "interrupted"
        assert lines[-1]["n_trials"] >= 1


# ----------------------------------------------------------- support hooks
class TestSupportHooks:
    def test_resume_or_fresh_is_idempotent(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        fresh = CampaignJournal.resume_or_fresh(path)
        assert fresh.n_recorded == 0
        fresh.close()
        again = CampaignJournal.resume_or_fresh(path)  # now resumes
        assert again.n_recorded == 0
        again.close()

    def test_meter_registry_merge_snapshot(self):
        source = MeterRegistry()
        source.counter("jobs").inc(3)
        source.gauge("depth").set(7.0)
        target = MeterRegistry()
        target.counter("jobs").inc(1)
        target.merge_snapshot(source.snapshot())
        merged = target.snapshot()
        assert merged["counters"]["jobs"] == 4
        assert merged["gauges"]["depth"] == 7.0

    def test_campaign_stop_predicate_interrupts_cleanly(self):
        from repro.paper import Scale, table1_campaign

        deadline = time.monotonic() + 2.0
        report = table1_campaign(
            seed=0, scale=Scale(real_steps=40)
        ).run(stop=lambda: time.monotonic() > deadline)
        assert report.meta.get("interrupted") is True
        assert 1 <= len(report.table) < 18
