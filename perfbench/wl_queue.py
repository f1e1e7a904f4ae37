"""``queue``: the durable job plane with one outstanding job.

One ``repro work`` process runs at its defaults against a fresh sqlite
queue file; the benchmark is the single closed-loop producer.  Each job
analyses a 1/100-scale planted org drawn from a small seeded pool and
carries its own spec key, as the service's enqueue does, so no job is a
dedup hit.  The primary op is job turnaround: ``JobClient.enqueue`` until
the result has been decoded with ``Report.from_payload``.

Secondary kinds, timed after each job: ``counts`` is
``JobQueue.counts_by_state()``, ``analyze`` the job turnaround itself,
``cached`` re-submits the finished job's spec (a dedup hit served from
the stored result) and decodes it, and ``latest`` fetches the finished
job's stored result with ``JobClient.result`` and decodes it.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
import subprocess
import sys
import time

from common import (
    Outcome, Tracer, engine_stage_metrics, peak_rss_mb, program_env,
    record_engine_stages, unattributed_ms, work_dir,
)
from repro.core import AnalysisConfig, Report
from repro.datagen.orggen import OrgProfile, generate_org
from repro.io.jsonio import state_to_dict
from repro.jobs import JobClient, JobQueue

#: Set-up takes about a second here, so its median needs more samples.
SETUP_REPS = 5
DIVISOR = 100
POOL_SIZE = 4
#: About 80 jobs fit a 25 s window.  Turnaround clusters 50 ms apart (the
#: client's result poll), so percentiles above p75 straddle two clusters
#: and flip from run to run; p75 keeps about 20 samples beyond it.
TAIL_PERCENTILE = 75
WAIT_TIMEOUT_S = 60.0
#: Job-record intervals (wall clock, stamped by the queue) that split
#: the client's ``jobs.wait`` span.
RECORD_LAYERS = ("jobs.queue_wait", "jobs.run", "jobs.result_lag")
#: Client spans that tile the primary op.
CLIENT_SPANS = ("jobs.enqueue", "jobs.wait", "jobs.decode")


class _Pool:
    """The seeded pool of orgs with their ready-made job payloads."""

    def __init__(self, seed: int) -> None:
        config = AnalysisConfig().to_dict()
        self.orgs = []
        digest = hashlib.sha256()
        for member in range(POOL_SIZE):
            org = generate_org(
                OrgProfile.small(DIVISOR, seed=seed * POOL_SIZE + member)
            )
            fingerprint = org.state.fingerprint()
            digest.update(fingerprint.encode())
            payload = {
                "state": state_to_dict(org.state),
                "config": config,
                "fingerprint": fingerprint,
                "mutation_seq": 0,
            }
            self.orgs.append((org.state, org.expected_counts(), payload))
        self.input_sha256 = digest.hexdigest()


class _Plane:
    """One set-up: pool, queue file, one worker process, a warm-up job."""

    def __init__(self, scratch, seed: int, rep: int) -> None:
        self.pool = _Pool(seed)
        path = scratch / f"jobs-{rep}.sqlite"
        self.client = JobClient(JobQueue(path))
        self.worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "work", str(path)],
            env=program_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
        )
        self.done = 0
        try:
            state, expected, payload = self.pool.orgs[0]
            record, _ = self.client.enqueue(
                "analyze", payload, spec_key=f"warm-up-{seed}-{rep}"
            )
            result = self.client.wait(record.job_id, timeout=WAIT_TIMEOUT_S)
            self.done += 1
            if _decode(result, state).counts() != expected:
                raise RuntimeError("warm-up job returned wrong counts")
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Stop the worker (SIGTERM, graceful) and wait for it."""
        if self.worker.poll() is None:
            self.worker.send_signal(signal.SIGTERM)
            try:
                self.worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.worker.kill()
                self.worker.wait()
        self.client.queue.close()


def _decode(result: dict, state):
    return Report.from_payload(result["report"], state)


def run(seed: int, seconds: float, max_ops: int | None,
        tracer: Tracer) -> Outcome:
    outcome = Outcome()
    with work_dir("queue") as scratch:
        plane = None
        try:
            for rep in range(SETUP_REPS):
                if plane is not None:
                    plane.close()
                started = time.perf_counter()
                plane = _Plane(scratch, seed, rep)
                outcome.setup_s.append(time.perf_counter() - started)
            schedule = _drive(plane, outcome, tracer, seed, seconds, max_ops)
        finally:
            if plane is not None:
                plane.close()
    # The worker has been waited for, so its own peak is in RUSAGE_CHILDREN.
    outcome.peak_rss_mb = peak_rss_mb(include_children=True)
    outcome.notes.update(
        tail_percentile=TAIL_PERCENTILE,
        input_sha256=plane.pool.input_sha256,
        schedule_sha256=schedule,
    )
    if tracer.enabled:
        layers = {
            f"{name}_ms": tracer.per_op_ms(name)
            for name in ("jobs.enqueue", "jobs.decode") + RECORD_LAYERS
        }
        layers.update(
            {
                "jobs.payload_bytes": tracer.per_op("jobs.payload_bytes"),
                "jobs.result_bytes": tracer.per_op("jobs.result_bytes"),
                "jobs.attempts": tracer.per_op("jobs.attempts"),
                "engine.analyze_ms": tracer.per_op_ms("engine.total"),
            }
        )
        layers.update(engine_stage_metrics(tracer))
        layers["unattributed_ms"] = unattributed_ms(
            tracer, outcome.traced_primary_s(), CLIENT_SPANS
        )
        outcome.layers = layers
    return outcome


def _drive(plane: _Plane, outcome: Outcome, tracer: Tracer, seed: int,
           seconds: float, max_ops: int | None) -> str:
    """The timed window; returns the digest of the job sequence."""
    rng = random.Random(seed)
    client, kinds = plane.client, outcome.kinds_s
    digest = hashlib.sha256()
    window_started = time.perf_counter()
    index = 0
    while time.perf_counter() - window_started < seconds and (
        max_ops is None or index < max_ops
    ):
        member = rng.randrange(POOL_SIZE)
        state, expected, payload = plane.pool.orgs[member]
        spec_key = f"bench-{seed}-{index}-{payload['fingerprint']}"
        digest.update(spec_key.encode())
        traced = tracer.traces_op(index)
        with tracer.op("bench.job", traced, job=index):
            started = time.perf_counter()
            with tracer.span("jobs.enqueue"):
                record, created = client.enqueue(
                    "analyze", payload, spec_key=spec_key
                )
            with tracer.span("jobs.wait"):
                result = client.wait(record.job_id, timeout=WAIT_TIMEOUT_S)
            seen_at = time.time()
            with tracer.span("jobs.decode"):
                report = _decode(result, state)
            outcome.primary(time.perf_counter() - started, traced)
            plane.done += 1
            final = client.status(record.job_id)
            if tracer.active:
                tracer.record("jobs.queue_wait", final.queue_wait_seconds)
                tracer.record("jobs.run", final.run_seconds)
                tracer.record("jobs.result_lag", seen_at - final.finished_at)
                tracer.record("jobs.attempts", float(final.attempts))
                tracer.record(
                    "jobs.payload_bytes",
                    float(len(json.dumps(payload, sort_keys=True))),
                )
                tracer.record(
                    "jobs.result_bytes",
                    float(len(json.dumps(result, sort_keys=True))),
                )
                record_engine_stages(tracer, report.timings, report.total_seconds)
        kinds["analyze"].append(outcome.primary_s[-1])
        outcome.check(
            created and final.attempts == 1
            and report.counts() == expected,
            lambda: f"job {index}: created={created} "
            f"attempts={final.attempts}",
        )
        _secondaries(plane, outcome, record.job_id, spec_key, payload, state,
                     expected)
        index += 1
    outcome.window_s = time.perf_counter() - window_started
    return digest.hexdigest()


def _secondaries(plane, outcome, job_id, spec_key, payload, state,
                 expected) -> None:
    client, kinds = plane.client, outcome.kinds_s
    started = time.perf_counter()
    by_state = client.queue.counts_by_state()
    kinds["counts"].append(time.perf_counter() - started)
    outcome.check(
        by_state.get("done") == plane.done,
        lambda: f"counts_by_state {by_state}, expected {plane.done} done",
    )

    started = time.perf_counter()
    record, created = client.enqueue("analyze", payload, spec_key=spec_key)
    cached = _decode(client.wait(record.job_id, timeout=WAIT_TIMEOUT_S), state)
    kinds["cached"].append(time.perf_counter() - started)
    outcome.check(
        not created and cached.counts() == expected,
        lambda: f"re-submitted {spec_key}: created={created}",
    )

    started = time.perf_counter()
    latest = _decode(client.result(job_id), state)
    kinds["latest"].append(time.perf_counter() - started)
    outcome.check(
        latest.counts() == expected,
        lambda: f"result of {job_id}: wrong counts",
    )
