"""Repository benchmark: one command, three closed-loop workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload audit|serve|queue --seed N \
        --seconds S --trace 0|1 [--max-ops N]

Every op's output is checked; a failed check counts as a failed op.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (a traced run
traces every other op and also writes its spans as trace-schema-v2
JSONL under ``.perfbench/``).  The line before it, prefixed
``perfbench-notes:``, carries sample counts, the tail percentile, input
digests and the ``src/`` line count; it is informational only.

The metric definitions, the layer -> end-to-end map and the held-out
seed are in ``perfbench/design.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("audit", "serve", "queue")
KINDS = ("counts", "analyze", "cached", "latest")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--max-ops", type=int, default=None,
        help="stop after this many primary ops (short smoke mode)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def end_to_end(outcome, tail_percentile: float) -> dict[str, float]:
    from common import median, percentile

    metrics = {
        "setup_s": median(outcome.setup_s),
        "ops_per_s": len(outcome.primary_s) / outcome.window_s,
        "ok_frac": (outcome.attempted - outcome.failed) / outcome.attempted,
        "peak_rss_mb": outcome.peak_rss_mb,
        "p50_ms": median(outcome.primary_s) * 1e3,
        "tail_ms": percentile(outcome.primary_s, tail_percentile) * 1e3,
    }
    for kind in KINDS:
        metrics[f"{kind}_p50_ms"] = median(outcome.kinds_s[kind]) * 1e3
    return metrics


def per_layer(outcome, tracer, spec) -> dict[str, float]:
    """Every per-layer metric; a layer the workload bypasses reads 0."""
    from common import median

    declared = [item["name"] for item in spec["per_layer"]]
    traced = outcome.traced_primary_s()
    bare = [s for s, t in zip(outcome.primary_s, outcome.primary_traced) if not t]
    metrics = dict.fromkeys(declared, 0.0)
    metrics.update(tracer.gc_metrics())
    metrics.update(outcome.layers)
    metrics["trace.overhead_frac"] = (
        median(traced) / median(bare) - 1.0 if traced and bare else 0.0
    )
    unknown = set(metrics) - set(declared)
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return metrics


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    import common

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {common.SRC}; run from the "
            "repository root", file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(common.SRC))
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text("utf-8"))
    workload = __import__(f"wl_{args.workload}")

    with common.Tracer(bool(args.trace)) as tracer:
        outcome = workload.run(args.seed, args.seconds, args.max_ops, tracer)
    if not outcome.primary_s or outcome.attempted < 1:
        print("perfbench: no op completed in the window", file=sys.stderr)
        return 1
    tail_percentile = outcome.notes["tail_percentile"]
    if args.trace:
        metrics = per_layer(outcome, tracer, spec)
        trace_path = (
            common.WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        )
        tracer.write(trace_path)
        outcome.notes["trace_file"] = str(trace_path.relative_to(common.ROOT))
    else:
        metrics = end_to_end(outcome, tail_percentile)
    units = {
        item["name"]: item["unit"]
        for item in spec["end_to_end"] + spec["per_layer"]
    }
    outcome.notes.update(
        workload=args.workload,
        seed=args.seed,
        primary_samples=len(outcome.primary_s),
        samples_beyond_tail=common.beyond(outcome.primary_s, tail_percentile),
        kind_samples={k: len(v) for k, v in outcome.kinds_s.items()},
        setup_runs_s=outcome.setup_s,
        src_lines=common.src_line_count(),
    )
    for error in outcome.errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print("perfbench-notes: " + json.dumps(outcome.notes, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
