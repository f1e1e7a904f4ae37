"""The benchmark's own smoke test: a few ops of every workload.

Usage (from the repository root): ``python3 perfbench/smoke.py``.

For each workload, untraced and traced, it asserts that every metric
declared in ``BENCHMARK.json`` is printed with its unit, that
``ok_frac == 1.0`` and that the run reports itself correct.  It also runs
each workload twice on one seed and once on another, and asserts that
the same seed gives identical inputs and an identical op sequence while
another seed does not.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SHORT = ["--seconds", "3", "--max-ops", "3"]


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One short run; returns ``(notes, result)``."""
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), *SHORT],
        capture_output=True, text=True, timeout=180, check=False,
    )
    if completed.returncode != 0:
        raise AssertionError(
            f"{workload} trace={trace} exited {completed.returncode}:\n"
            f"{completed.stderr}"
        )
    *_, notes_line, result_line = completed.stdout.strip().splitlines()
    notes = json.loads(notes_line.removeprefix("perfbench-notes: "))
    return notes, json.loads(result_line)


def check_result(workload: str, trace: int, result: dict) -> None:
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {item["name"]: item["unit"] for item in declared}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected, (
        f"{workload} trace={trace}: metrics/units differ: "
        f"missing {sorted(set(expected) - set(printed))}, "
        f"extra {sorted(set(printed) - set(expected))}"
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, (workload, result)
    assert result["attempted"] >= 1, (workload, result)
    if not trace:
        ok_frac = result["metrics"]["ok_frac"]["value"]
        assert ok_frac == 1.0, f"{workload}: ok_frac {ok_frac}"


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        notes, result = run(workload, 1, trace=0)
        check_result(workload, 0, result)
        _, traced = run(workload, 1, trace=1)
        check_result(workload, 1, traced)
        again, _ = run(workload, 1, trace=0)
        other, _ = run(workload, 2, trace=0)
        for key in ("input_sha256", "schedule_sha256"):
            if key in notes:
                assert notes[key] == again[key], f"{workload}: {key} not reproducible"
                assert notes[key] != other[key], f"{workload}: {key} ignores the seed"
        print(f"smoke ok: {workload}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
