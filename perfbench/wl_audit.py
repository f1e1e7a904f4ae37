"""``audit``: the batch auditor's path on a 1/40-scale planted org.

Primary op: ``load_json`` -> ``analyze()`` -> ``Report.to_json()`` (what
``repro analyze --format json`` prints) -> ``build_plan`` ->
``apply_plan`` with its safety check on.  The engine, serialization,
remediation and GC do nearly all their work here; the service and job
plane none.

The org is 1/40 scale so that 60 to 90 ops fit a 25 s window and the
tail has 10 samples beyond it; at 1/10 scale only about 15 fit.

Secondary kinds, timed after the primary op: ``counts`` is
``Report.counts()``, ``analyze`` the ``analyze()`` call inside the op,
``cached`` reads the printed report back without the engine
(``Report.from_payload`` of the parsed JSON) and ``latest`` is the
``Report.to_json()`` call inside the op.
"""

from __future__ import annotations

import hashlib
import json
import time

from common import (
    Outcome, Tracer, engine_stage_metrics, generate_org_file,
    peak_rss_mb, record_engine_stages, unattributed_ms, work_dir,
)
from repro.core import Report, analyze
from repro.datagen.orggen import OrgProfile
from repro.exceptions import SafetyViolationError
from repro.io import load_json
from repro.remediation import apply_plan, build_plan

#: Set-up takes about a second here, so its median needs more samples.
SETUP_REPS = 5
DIVISOR = 40
#: p75 keeps 10 samples beyond it from 41 ops on.
TAIL_PERCENTILE = 75
LAYER_SPANS = (
    "io.load_json", "engine.analyze", "report.to_json",
    "remediation.build_plan", "remediation.apply_plan",
)


def _audit(path, expected, outcome: Outcome, tracer: Tracer, index: int,
           traced: bool, timed: bool) -> None:
    with tracer.op("bench.audit", traced, op=index):
        started = time.perf_counter()
        with tracer.span("io.load_json"):
            state = load_json(path)
        t_analyze = time.perf_counter()
        with tracer.span("engine.analyze"):
            report = analyze(state)
        t_encode = time.perf_counter()
        with tracer.span("report.to_json"):
            printed = report.to_json()
        t_plan = time.perf_counter()
        with tracer.span("remediation.build_plan"):
            plan = build_plan(report)
        safe = True
        with tracer.span("remediation.apply_plan"):
            try:
                apply_plan(state, plan, validate_safety=True)
            except SafetyViolationError:
                safe = False
        finished = time.perf_counter()
        record_engine_stages(tracer, report.timings, report.total_seconds)
        tracer.record("report.bytes", float(len(printed)))
    counts_started = time.perf_counter()
    counts = report.counts()
    cached_started = time.perf_counter()
    reread = Report.from_payload(json.loads(printed), state)
    cached_finished = time.perf_counter()
    if not timed:
        return
    outcome.primary(finished - started, traced)
    kinds = outcome.kinds_s
    kinds["analyze"].append(t_encode - t_analyze)
    kinds["latest"].append(t_plan - t_encode)
    kinds["counts"].append(cached_started - counts_started)
    kinds["cached"].append(cached_finished - cached_started)
    outcome.check(
        safe and counts == expected and reread.counts() == expected,
        lambda: f"audit op {index}: safe={safe} counts={counts}",
    )


def run(seed: int, seconds: float, max_ops: int | None,
        tracer: Tracer) -> Outcome:
    outcome = Outcome()
    expected = OrgProfile.small(DIVISOR, seed=seed).planted.as_dict()
    with work_dir("audit") as scratch:
        path = scratch / "org.json"
        for _ in range(SETUP_REPS):
            started = time.perf_counter()
            generate_org_file(DIVISOR, seed, path)
            _audit(path, expected, outcome, tracer, -1, False, timed=False)
            outcome.setup_s.append(time.perf_counter() - started)
        outcome.notes["input_sha256"] = hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        window_started = time.perf_counter()
        index = 0
        while time.perf_counter() - window_started < seconds and (
            max_ops is None or index < max_ops
        ):
            _audit(path, expected, outcome, tracer, index,
                   tracer.traces_op(index), timed=True)
            index += 1
        outcome.window_s = time.perf_counter() - window_started
    outcome.peak_rss_mb = peak_rss_mb()
    outcome.notes["tail_percentile"] = TAIL_PERCENTILE
    if tracer.enabled:
        layers = {
            "io.load_ms": tracer.per_op_ms("io.load_json"),
            "engine.analyze_ms": tracer.per_op_ms("engine.analyze"),
            "report.encode_ms": tracer.per_op_ms("report.to_json"),
            "report.bytes": tracer.per_op("report.bytes"),
            "remediation.plan_ms": tracer.per_op_ms("remediation.build_plan"),
            "remediation.apply_ms": tracer.per_op_ms("remediation.apply_plan"),
        }
        layers.update(engine_stage_metrics(tracer))
        layers["unattributed_ms"] = unattributed_ms(
            tracer, outcome.traced_primary_s(), LAYER_SPANS
        )
        outcome.layers = layers
    return outcome

