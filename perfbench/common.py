"""Shared pieces of the repository benchmark: statistics, set-up helpers,
the benchmark-owned tracer and the result record every workload returns.

Nothing here starts a thread or process at import time; ``run.py`` is the
entry point.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

BENCH_DIR = Path(__file__).resolve().parent
#: The checkout root: the benchmark is always run from it, and it holds
#: the program's sources under ``src/``.
ROOT = Path.cwd()
SRC = ROOT / "src"
#: Scratch space for datasets, queue files and traces (gitignored).
WORK_ROOT = ROOT / ".perfbench"


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: list[float]) -> float:
    if not values:
        raise ValueError("no samples")
    return float(statistics.median(values))


def percentile(values: list[float], q: float) -> float:
    """Percentile ``q`` (0-100), linearly interpolated between samples;
    ``q`` = 50 is the median."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    position = q / 100.0 * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def beyond(values: list[float], q: float) -> int:
    """How many samples lie strictly above percentile ``q``."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak RSS of this process (plus its largest waited-for child)."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024.0


def src_line_count() -> int:
    """Lines of Python under ``src/`` (informational, never gated)."""
    return sum(
        len(path.read_bytes().splitlines()) for path in SRC.rglob("*.py")
    )


# ----------------------------------------------------------------------
# Set-up helpers
# ----------------------------------------------------------------------
def program_env() -> dict[str, str]:
    """Environment for child processes that run the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def generate_org_file(divisor: int, seed: int, out: Path) -> None:
    """Generate ``OrgProfile.small(divisor, seed)`` into ``out`` (JSON).

    Runs in a child process so the generator's own peak memory never
    counts towards the peak RSS of the system under test.
    """
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "genorg.py"),
         str(divisor), str(seed), str(out)],
        env=program_env(), check=True, timeout=120,
    )


@contextmanager
def work_dir(tag: str) -> Iterator[Path]:
    """A fresh scratch directory under ``.perfbench/``, removed on exit."""
    path = WORK_ROOT / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class GcClock:
    """Cyclic-GC time and generation-2 collections, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.gen2 = 0
        self._started: float | None = None

    def __call__(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self._started = None
            if info.get("generation") == 2:
                self.gen2 += 1


class Tracer:
    """Benchmark-owned spans around the public layer calls of each op.

    In a traced run every other op is traced (even op indices) and the
    rest run bare, so the tracing overhead is measured inside one run
    under the same conditions.  Spans stay in memory and are written as
    trace schema v2 JSONL (readable by ``scripts/validate_trace.py`` and
    ``repro trace summarize``) when the run ends.  The program's own
    recorder is never installed, so its reports are unchanged.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.recorder = None
        self.gc = GcClock()
        self._active = False
        self._values: dict[str, float] = {}
        #: Per traced op: ``{span name: summed seconds}`` plus GC figures.
        self.ops: list[dict[str, float]] = []

    def __enter__(self) -> "Tracer":
        if self.enabled:
            from repro.obs import Recorder

            self.recorder = Recorder()
            gc.callbacks.append(self.gc)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self.enabled:
            gc.callbacks.remove(self.gc)

    def traces_op(self, index: int) -> bool:
        """Whether op (or cycle) ``index`` is traced in this run."""
        return self.enabled and index % 2 == 0

    @contextmanager
    def op(self, name: str, traced: bool, **attributes: Any) -> Iterator[None]:
        """Wrap one op; spans inside it record only when ``traced``."""
        if not traced:
            yield
            return
        gc_s, gc2 = self.gc.seconds, self.gc.gen2
        self._values = {}
        self._active = True
        try:
            with self.recorder.span(name, **attributes) as root:
                yield
                root.add("gc_ms", (self.gc.seconds - gc_s) * 1e3)
                root.add("gc_gen2_collections", self.gc.gen2 - gc2)
        finally:
            self._active = False
        sums = {
            "runtime.gc": self.gc.seconds - gc_s,
            "runtime.gc_gen2": float(self.gc.gen2 - gc2),
            **self._values,
        }
        for _path, depth, span in root.walk():
            if depth:
                sums[span.name] = sums.get(span.name, 0.0) + span.duration
        self.ops.append(sums)

    @property
    def active(self) -> bool:
        """Whether a traced op is open."""
        return self._active

    def span(self, name: str, **attributes: Any):
        """A child span of the current traced op (no-op otherwise)."""
        if not self._active:
            return nullcontext()
        return self.recorder.span(name, **attributes)

    def record(self, name: str, value: float) -> None:
        """Attach a value measured outside a span to the current traced op."""
        if self._active:
            self._values[name] = self._values.get(name, 0.0) + value

    def per_op(self, name: str, scale: float = 1.0) -> float:
        """Per-op median of ``name`` times ``scale`` (0 if never seen)."""
        values = [op[name] for op in self.ops if name in op]
        return median(values) * scale if values else 0.0

    def per_op_ms(self, name: str) -> float:
        return self.per_op(name, 1e3)

    def gc_metrics(self) -> dict[str, float]:
        return {
            "runtime.gc_ms": self.per_op_ms("runtime.gc"),
            "runtime.gc_gen2_count": self.per_op("runtime.gc_gen2"),
        }

    def write(self, path: Path) -> None:
        from repro.obs import JsonlTraceSink

        path.parent.mkdir(parents=True, exist_ok=True)
        with JsonlTraceSink(path) as sink:
            for root in self.recorder.traces:
                sink.emit(root)


#: ``Report.timings`` keys: the engine's own stage spans.
ENGINE_STAGES = (
    "matrix_build", "workspace_warm", "standalone_nodes",
    "disconnected_roles", "single_assignment_roles", "duplicate_roles",
    "similar_roles",
)


def record_engine_stages(
    tracer: Tracer, timings: dict[str, float], total_seconds: float
) -> None:
    """Attach the engine's stage split (its public ``Report.timings``)."""
    tracer.record("engine.total", total_seconds)
    for stage in ENGINE_STAGES:
        tracer.record(f"engine.{stage}", timings.get(stage, 0.0))


def engine_stage_metrics(tracer: Tracer) -> dict[str, float]:
    """``engine.*`` and ``detector.*`` per-op medians in milliseconds."""
    metrics = {}
    for stage in ENGINE_STAGES:
        layer = "engine" if stage in ("matrix_build", "workspace_warm") else "detector"
        metrics[f"{layer}.{stage}_ms"] = tracer.per_op_ms(f"engine.{stage}")
    return metrics


def unattributed_ms(tracer: Tracer, primary_s: list[float], names) -> float:
    """Median over traced ops of primary time minus its measured layers."""
    rest = [
        seconds - sum(op.get(name, 0.0) for name in names)
        for seconds, op in zip(primary_s, tracer.ops)
    ]
    return median(rest) * 1e3 if rest else 0.0


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    #: Setup seconds of each repetition (the median is reported).
    setup_s: list[float] = field(default_factory=list)
    window_s: float = 0.0
    #: Primary-op latencies in seconds, and whether each op was traced.
    primary_s: list[float] = field(default_factory=list)
    primary_traced: list[bool] = field(default_factory=list)
    #: Latencies of the four secondary request kinds, in seconds.
    kinds_s: dict[str, list[float]] = field(
        default_factory=lambda: {
            "counts": [], "analyze": [], "cached": [], "latest": []
        }
    )
    peak_rss_mb: float = 0.0
    #: Per-layer metrics from the traced run.
    layers: dict[str, float] = field(default_factory=dict)
    #: Notes printed before the result line (never parsed).
    notes: dict[str, Any] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def primary(self, seconds: float, traced: bool) -> None:
        self.primary_s.append(seconds)
        self.primary_traced.append(traced)

    def traced_primary_s(self) -> list[float]:
        return [s for s, t in zip(self.primary_s, self.primary_traced) if t]

    def check(self, ok: bool, message: Callable[[], str]) -> bool:
        """Count one op; a failed output check counts as a failed op."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(message())
        return ok

