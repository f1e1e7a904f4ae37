"""``serve``: continuous monitoring through ``ServiceServer``.

The service runs at its default ``ServiceConfig`` on a 1/20-scale org, in
its own process (``serve_host.py``), and is driven over one keep-alive
loopback HTTP connection by a single closed-loop client.  Each round is
one batch of 64 seeded mutations followed by one ``GET /v1/counts``, so
the scheduler's 256-mutation refresh falls every fourth round.  The
batches of the other three rounds are the primary op.  At a quarter and
at three quarters of each refresh cycle the round adds ``POST
/v1/analyze`` (a deterministic cache miss), the same request again (a
deterministic hit) and ``GET /v1/reports/latest``.

The batch that reaches a refresh wakes the scheduler while its own
response is still being sent, so it is timed as its own kind
(``refresh``, never part of the primary op's figures); the client then
waits, untimed, until the refresh has published, so no background
analysis races any other timed request.

Batches of 64 and two analyze points per cycle (rather than batches of
16 and one point) give about 20 samples of each analyze kind per 25 s
window; with fewer, the run-to-run spread of their medians exceeded the
bounds, because a full collection lands in some analyze requests and not
others.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import subprocess
import sys
import time

from common import (
    BENCH_DIR, Outcome, Tracer, engine_stage_metrics, generate_org_file,
    median, program_env, record_engine_stages, unattributed_ms, work_dir,
)
from repro.io import load_json
from repro.obs import Span
from repro.service import ServiceConfig
from serve_host import GC_HEADER, HANDLE_HEADER, STATE_PROBE

SETUP_REPS = 3
DIVISOR = 20
BATCH = 64
#: About 35 primary ops (three rounds in four) fit a 25 s window, and
#: about 28 in a traced run; p65 keeps 10 samples beyond it from 28 on.
TAIL_PERCENTILE = 65
#: Bench-owned users/roles alive at once; churn adds until this many
#: exist and then removes the oldest, keeping the state size level.
CHURN_POOL = 8
REQUEST_KINDS = ("mutate", "counts", "analyze", "cached", "latest")


class MutationSchedule:
    """Seeded, valid mutation batches against a mirror of the state.

    Edge ops touch only the org's own roles, users and permissions; churn
    adds and removes bench-owned users and roles.  Nothing iterates a
    set, so one seed yields a byte-identical batch sequence on every run.
    """

    def __init__(self, state, seed: int) -> None:
        self._rng = random.Random(seed)
        self._roles = state.role_ids()
        self._users = state.user_ids()
        self._permissions = state.permission_ids()
        self._edges = {
            "user": self._edge_index(
                (role, user) for role in self._roles
                for user in sorted(state.users_of_role(role))
            ),
            "permission": self._edge_index(
                (role, perm) for role in self._roles
                for perm in sorted(state.permissions_of_role(role))
            ),
        }
        self._churn: list[tuple[str, str]] = []
        self._next_id = 0
        self.digest = hashlib.sha256()

    @staticmethod
    def _edge_index(pairs) -> tuple[list, dict]:
        edges = list(pairs)
        return edges, {pair: i for i, pair in enumerate(edges)}

    def _assign(self, kind: str) -> dict[str, str]:
        edges, where = self._edges[kind]
        targets = self._users if kind == "user" else self._permissions
        while True:
            pair = (self._rng.choice(self._roles), self._rng.choice(targets))
            if pair not in where:
                break
        where[pair] = len(edges)
        edges.append(pair)
        return {"op": f"assign_{kind}", "role": pair[0], kind: pair[1]}

    def _revoke(self, kind: str) -> dict[str, str]:
        edges, where = self._edges[kind]
        index = self._rng.randrange(len(edges))
        pair = edges[index]
        last = edges.pop()
        if index < len(edges):
            edges[index] = last
            where[last] = index
        del where[pair]
        return {"op": f"revoke_{kind}", "role": pair[0], kind: pair[1]}

    def _churn_op(self) -> dict[str, str]:
        if len(self._churn) >= CHURN_POOL:
            kind, entity = self._churn.pop(0)
            return {"op": f"remove_{kind}", "id": entity}
        kind = self._rng.choice(("user", "role"))
        entity = f"bench-{kind}-{self._next_id}"
        self._next_id += 1
        self._churn.append((kind, entity))
        return {"op": f"add_{kind}", "id": entity}

    def batch(self) -> list[dict[str, str]]:
        ops = []
        for _ in range(BATCH):
            draw = self._rng.random()
            if draw < 0.35:
                ops.append(self._assign("user"))
            elif draw < 0.70:
                ops.append(self._revoke("user"))
            elif draw < 0.80:
                ops.append(self._assign("permission"))
            elif draw < 0.90:
                ops.append(self._revoke("permission"))
            else:
                ops.append(self._churn_op())
        self.digest.update(json.dumps(ops, sort_keys=True).encode())
        return ops


class Client:
    """One keep-alive HTTP/1.1 connection; times every request."""

    def __init__(self, port: int, tracer: Tracer) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self._tracer = tracer
        #: The service process's cumulative GC (seconds, gen-2 count) as
        #: of the last traced response.
        self.service_gc = (0.0, 0)

    def close(self) -> None:
        self._conn.close()

    def request(self, kind: str, method: str, path: str, body=None):
        """Returns ``(seconds, status, payload, response bytes)``.

        In a traced op the server-side ``handle`` interval (from the
        host's response header) becomes a ``service.handle`` child span
        of the ``http.<kind>`` span; the rest of the round trip is the
        transport.
        """
        started = time.perf_counter()
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        with self._tracer.span(f"http.{kind}") as span:
            sent = time.perf_counter()
            self._conn.request(method, path, body=data, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        payload = json.loads(raw)
        seconds = time.perf_counter() - started
        gc_totals = response.getheader(GC_HEADER)
        if gc_totals:
            seconds_text, gen2_text = gc_totals.split()
            self.service_gc = (float(seconds_text), int(gen2_text))
        stamp = response.getheader(HANDLE_HEADER)
        if span is not None and stamp:
            handle_start, handle_end = (float(t) for t in stamp.split())
            handle = handle_end - handle_start
            span.children.append(Span(
                "service.handle",
                start=span.start + (handle_start - sent),
                duration=handle,
                attributes={"process": "service"},
            ))
            self._tracer.record(f"service.{kind}_handle", handle)
            self._tracer.record(
                f"http.{kind}_transport", span.duration - handle
            )
        return seconds, response.status, payload, len(raw)

    def get(self, path: str) -> dict:
        """An untimed, untraced ``GET``; the answer must be 200."""
        self._conn.request("GET", path)
        response = self._conn.getresponse()
        payload = json.loads(response.read())
        if response.status != 200:
            raise RuntimeError(f"GET {path} answered {response.status}")
        return payload


class _Service:
    """One set-up: dataset, service host process, client, warm-up."""

    def __init__(self, scratch, seed: int, tracer: Tracer) -> None:
        path = scratch / "org.json"
        generate_org_file(DIVISOR, seed, path)
        self.input_sha256 = hashlib.sha256(path.read_bytes()).hexdigest()
        self.schedule = MutationSchedule(load_json(path), seed)
        self.refresh_mutations = ServiceConfig().refresh_mutations
        self.host = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "serve_host.py"), str(path),
             "1" if tracer.enabled else "0"],
            env=program_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        self.client = None
        try:
            line = self.host.stdout.readline()
            if not line.startswith("PORT "):
                raise RuntimeError(f"service host did not start: {line!r}")
            self.client = Client(int(line.split()[1]), tracer)
            self.initial_counts = self._warm_up()
        except BaseException:
            self.close()
            raise

    def _warm_up(self) -> dict:
        """One request of each read kind; returns the opening counts."""
        answers = {}
        for kind, method, route in (
            ("counts", "GET", "/v1/counts"),
            ("analyze", "POST", "/v1/analyze"),
            ("latest", "GET", "/v1/reports/latest"),
        ):
            _, status, answers[kind], _ = self.client.request(
                kind, method, route
            )
            if status != 200:
                raise RuntimeError(f"warm-up {route} answered {status}")
        return answers["counts"]["counts"]

    def close(self) -> None:
        """Close the connection and stdin; the host then drains and exits."""
        if self.client is not None:
            self.client.close()
        self.host.stdin.close()
        try:
            self.host.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.host.kill()
            self.host.wait()
        self.host.stdout.close()

    def scheduler_runs(self) -> int:
        return self.client.get("/metricz")["scheduler"]["runs"]

    def wait_refresh(self, runs: int) -> None:
        deadline = time.monotonic() + 120
        while self.scheduler_runs() < runs:
            if time.monotonic() > deadline:
                raise RuntimeError("scheduler refresh did not publish")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """The host process's peak RSS so far (``VmHWM``)."""
        with open(f"/proc/{self.host.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the service host")


def run(seed: int, seconds: float, max_ops: int | None,
        tracer: Tracer) -> Outcome:
    outcome = Outcome()
    with work_dir("serve") as scratch:
        live = None
        try:
            for _ in range(SETUP_REPS):
                if live is not None:
                    live.close()
                started = time.perf_counter()
                live = _Service(scratch, seed, tracer)
                outcome.setup_s.append(time.perf_counter() - started)
            _drive(live, outcome, tracer, seconds, max_ops)
            metricz = live.client.get("/metricz")
            outcome.peak_rss_mb = live.peak_rss_mb()
        finally:
            if live is not None:
                live.close()
    outcome.notes.update(
        tail_percentile=TAIL_PERCENTILE,
        input_sha256=live.input_sha256,
        schedule_sha256=live.schedule.digest.hexdigest(),
    )
    refresh = outcome.kinds_s["refresh"]
    if refresh:
        outcome.notes["refresh_p50_ms"] = median(refresh) * 1e3
    if tracer.enabled:
        outcome.layers = _layers(tracer, outcome, metricz)
    return outcome


def _drive(live: _Service, outcome: Outcome, tracer: Tracer,
           seconds: float, max_ops: int | None) -> None:
    refresh_every = live.refresh_mutations
    rounds_per_cycle = refresh_every // BATCH
    client, kinds = live.client, outcome.kinds_s
    kinds["refresh"] = []
    counts_at = {0: live.initial_counts}
    seq = 0
    runs = live.scheduler_runs()
    window_started = time.perf_counter()
    index = 0
    while time.perf_counter() - window_started < seconds and (
        max_ops is None or index < max_ops
    ):
        refresh = (seq + BATCH) % refresh_every == 0
        traced = not refresh and tracer.traces_op(index // rounds_per_cycle)
        batch = live.schedule.batch()
        gc_before = client.service_gc
        with tracer.op("bench.serve_round", traced, round=index):
            took, status, body, _ = client.request(
                "refresh" if refresh else "mutate", "POST", "/v1/mutations",
                {"mutations": batch},
            )
            if refresh:
                kinds["refresh"].append(took)
            else:
                outcome.primary(took, traced)
            seq += BATCH
            outcome.check(
                status == 200 and body.get("mutation_seq") == seq,
                lambda: f"mutations at seq {seq}: {status} {body}",
            )
            if refresh:
                runs += 1
                live.wait_refresh(runs)
            took, status, body, _ = client.request(
                "counts", "GET", "/v1/counts"
            )
            kinds["counts"].append(took)
            counts_at[seq] = body.get("counts")
            outcome.check(
                status == 200 and body.get("mutation_seq") == seq,
                lambda: f"counts at seq {seq}: {status} {body}",
            )
            if seq % refresh_every in (refresh_every // 4, 3 * refresh_every // 4):
                _analyze_point(live, outcome, tracer, counts_at, seq)
            # The collections that matter run in the service process; these
            # values replace the benchmark process's own GC figures.
            tracer.record("runtime.gc", client.service_gc[0] - gc_before[0])
            tracer.record(
                "runtime.gc_gen2", client.service_gc[1] - gc_before[1]
            )
        index += 1
    outcome.window_s = time.perf_counter() - window_started


def _analyze_point(live, outcome, tracer, counts_at, seq) -> None:
    client, kinds = live.client, outcome.kinds_s
    if tracer.active:
        timings = client.get(STATE_PROBE)
        tracer.record("state.fingerprint", timings["fingerprint_s"])
        tracer.record("state.copy", timings["copy_s"])
    for kind, expect_cache in (("analyze", "miss"), ("cached", "hit")):
        took, status, body, size = client.request(
            kind, "POST", "/v1/analyze"
        )
        kinds[kind].append(took)
        report = body.get("report") or {}
        outcome.check(
            status == 200
            and body.get("cache") == expect_cache
            and body.get("mutation_seq") == seq
            and report.get("counts") == counts_at[seq],
            lambda: f"{kind} at seq {seq}: {status} cache={body.get('cache')}",
        )
        if kind == "analyze":
            tracer.record("response.analyze_bytes", float(size))
            record_engine_stages(
                tracer, report.get("timings_seconds", {}),
                report.get("total_seconds", 0.0),
            )
    took, status, body, _ = client.request(
        "latest", "GET", "/v1/reports/latest"
    )
    kinds["latest"].append(took)
    published = body.get("mutation_seq")
    outcome.check(
        status == 200 and body.get("counts") == counts_at.get(published),
        lambda: f"latest at seq {seq}: {status} published at {published}",
    )


def _layers(tracer: Tracer, outcome: Outcome, metricz: dict) -> dict[str, float]:
    layers = {}
    for kind in REQUEST_KINDS:
        layers[f"http.{kind}_transport_ms"] = tracer.per_op_ms(
            f"http.{kind}_transport"
        )
        layers[f"service.{kind}_handle_ms"] = tracer.per_op_ms(
            f"service.{kind}_handle"
        )
    layers["state.fingerprint_ms"] = tracer.per_op_ms("state.fingerprint")
    layers["state.copy_ms"] = tracer.per_op_ms("state.copy")
    layers["engine.analyze_ms"] = tracer.per_op_ms("engine.total")
    layers.update(engine_stage_metrics(tracer))
    cache = metricz["cache"]
    layers["cache.hit_ratio"] = cache["hits"] / max(1, cache["hits"] + cache["misses"])
    layers["cache.evictions"] = float(cache["evictions"])
    layers["scheduler.refreshes"] = float(metricz["scheduler"]["runs"])
    layers["response.analyze_bytes"] = tracer.per_op("response.analyze_bytes")
    layers["unattributed_ms"] = unattributed_ms(
        tracer, outcome.traced_primary_s(), ("http.mutate",)
    )
    return layers
