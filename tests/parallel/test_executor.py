"""Unit tests for the worker-count helpers and ``WorkerPool.map``'s
execution contract: input order, serial paths, and the serial fallback.

Pool lifecycle (reuse, segment registry, ambient pool) is covered in
``test_shm.py``.
"""

from __future__ import annotations

import logging
import os

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import Recorder, use_recorder
from repro.parallel import WorkerPool, resolve_workers


def _square(x: int) -> int:
    return x * x


def _map_modes(recorder: Recorder) -> list[str]:
    return [
        span.attributes["mode"]
        for trace in recorder.traces
        for _, _, span in trace.walk()
        if span.name == "parallel.map"
    ]


class TestResolveWorkers:
    def test_default_passthrough(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3

    def test_none_means_all_cores(self):
        assert resolve_workers(None) == max(1, os.cpu_count() or 1)

    def test_zero_and_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(0)
        with pytest.raises(ConfigurationError):
            resolve_workers(-2)


class TestSerialPath:
    def test_single_worker_maps_in_order(self):
        with WorkerPool(1) as pool:
            assert pool.map(_square, range(6)) == [0, 1, 4, 9, 16, 25]
            assert not pool.warm

    def test_single_item_stays_in_process(self):
        # Closures are unpicklable; a pool would choke on them, but one
        # item never leaves the process.
        state = []
        with WorkerPool(8) as pool:
            assert pool.map(lambda x: state.append(x) or x, [42]) == [42]
            assert not pool.warm
        assert state == [42]

    def test_empty_items(self):
        with WorkerPool(4) as pool:
            assert pool.map(_square, []) == []


class TestPoolPath:
    def test_results_in_input_order(self):
        recorder = Recorder()
        with WorkerPool(2) as pool, use_recorder(recorder):
            assert pool.map(_square, range(10)) == [x * x for x in range(10)]
        assert _map_modes(recorder) == ["pool"]

    def test_unpicklable_fn_falls_back_serially(self):
        recorder = Recorder()
        with WorkerPool(2) as pool, use_recorder(recorder):
            assert pool.map(lambda x: 2 * x, [1, 2, 3]) == [2, 4, 6]
            # The broken executor is discarded, not reused.
            assert not pool.warm
        assert _map_modes(recorder) == ["serial-fallback"]

    def test_fallback_warns_and_counts(self, caplog):
        # The silent-degradation fix: falling back to serial must leave
        # an operator-visible trail — a WARNING log line and a
        # ``parallel.fallbacks`` counter that reaches Report.metrics.
        recorder = Recorder()
        with WorkerPool(2) as pool, use_recorder(recorder):
            with caplog.at_level(logging.WARNING, logger="repro.parallel.pool"):
                pool.map(lambda x: 2 * x, [1, 2, 3])
        assert any(
            "serially in-process" in record.message
            for record in caplog.records
        )
        assert recorder.counter_totals().get("parallel.fallbacks") == 1

    def test_pool_success_logs_no_warning(self, caplog):
        with WorkerPool(2) as pool:
            with caplog.at_level(logging.WARNING, logger="repro.parallel.pool"):
                pool.map(_square, range(8))
        assert not caplog.records

    def test_matches_serial_exactly(self):
        serial = [_square(x) for x in range(25)]
        with WorkerPool(3) as pool:
            assert pool.map(_square, range(25)) == serial
            # A second map reuses the warm executor with the same result.
            assert pool.map(_square, range(25)) == serial


class TestValidateWorkers:
    def test_none_passes_through(self):
        from repro.parallel import validate_workers

        assert validate_workers(None) is None

    def test_valid_counts_normalised_to_int(self):
        from repro.parallel import validate_workers

        assert validate_workers(1) == 1
        assert validate_workers(8) == 8

    @pytest.mark.parametrize("bad", [0, -1, -8])
    def test_rejects_non_positive(self, bad):
        from repro.parallel import validate_workers

        with pytest.raises(ConfigurationError, match="n_workers must be >= 1"):
            validate_workers(bad)

    def test_message_identical_to_engine_config(self):
        """AnalysisConfig and the pool share one validation helper, so a
        bad worker count reads the same wherever it is caught."""
        from repro.core.engine import AnalysisConfig
        from repro.parallel import validate_workers

        with pytest.raises(ConfigurationError) as from_helper:
            validate_workers(0)
        with pytest.raises(ConfigurationError) as from_config:
            AnalysisConfig(n_workers=0)
        assert str(from_helper.value) == str(from_config.value)

    def test_resolve_workers_routes_through_validation(self):
        with pytest.raises(ConfigurationError, match="n_workers must be >= 1"):
            resolve_workers(-2)
