"""Unit tests for AnalysisConfig / AnalysisEngine."""

from __future__ import annotations

import pytest

from repro.core import AnalysisConfig, AnalysisEngine, InefficiencyType, analyze
from repro.core.engine import ALL_TYPES
from repro.exceptions import ConfigurationError


class TestConfig:
    def test_defaults(self):
        config = AnalysisConfig()
        assert config.enabled_types == ALL_TYPES
        assert config.finder == "cooccurrence"
        assert config.similarity_threshold == 1

    def test_similarity_threshold_validated(self):
        with pytest.raises(ConfigurationError):
            AnalysisConfig(similarity_threshold=0)

    def test_bogus_types_rejected(self):
        with pytest.raises(ConfigurationError):
            AnalysisConfig(enabled_types=("duplicates",))  # type: ignore[arg-type]

    def test_parallel_defaults(self):
        config = AnalysisConfig()
        assert config.n_workers == 1
        assert config.block_rows is None

    def test_invalid_n_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="n_workers"):
            AnalysisConfig(n_workers=0)

    def test_invalid_block_rows_rejected(self):
        with pytest.raises(ConfigurationError, match="block_rows"):
            AnalysisConfig(block_rows=-1)

    def test_block_rows_forwarded_to_cooccurrence_finder(self):
        engine = AnalysisEngine(AnalysisConfig(block_rows=7))
        by_name = {d.name: d for d in engine.detectors}
        assert by_name["duplicate_roles"]._finder._block_rows == 7
        assert by_name["similar_roles"]._finder._block_rows == 7

    def test_explicit_finder_options_win_over_block_rows(self):
        engine = AnalysisEngine(
            AnalysisConfig(block_rows=7, finder_options={"block_rows": 3})
        )
        by_name = {d.name: d for d in engine.detectors}
        assert by_name["duplicate_roles"]._finder._block_rows == 3

    def test_block_rows_ignored_for_other_finders(self):
        engine = AnalysisEngine(AnalysisConfig(finder="dbscan", block_rows=7))
        assert [d.name for d in engine.detectors]  # builds without error


class TestEngine:
    def test_all_detectors_built_by_default(self):
        engine = AnalysisEngine()
        names = [d.name for d in engine.detectors]
        assert names == [
            "standalone_nodes",
            "disconnected_roles",
            "single_assignment_roles",
            "duplicate_roles",
            "similar_roles",
        ]

    def test_type_subset_builds_fewer_detectors(self):
        engine = AnalysisEngine(
            AnalysisConfig(
                enabled_types=(InefficiencyType.DUPLICATE_ROLES,)
            )
        )
        assert [d.name for d in engine.detectors] == ["duplicate_roles"]

    def test_analyze_is_read_only(self, paper_example):
        snapshot = paper_example.copy()
        AnalysisEngine().analyze(paper_example)
        assert paper_example == snapshot

    def test_report_carries_timings(self, paper_example):
        report = AnalysisEngine().analyze(paper_example)
        assert set(report.timings) == {
            "matrix_build",
            "workspace_warm",
            "standalone_nodes",
            "disconnected_roles",
            "single_assignment_roles",
            "duplicate_roles",
            "similar_roles",
        }
        assert all(t >= 0 for t in report.timings.values())
        assert report.total_seconds >= sum(report.timings.values()) * 0.5

    def test_analyze_deterministic(self, paper_example):
        first = AnalysisEngine().analyze(paper_example)
        second = AnalysisEngine().analyze(paper_example)
        assert [f.to_dict() for f in first.findings] == [
            f.to_dict() for f in second.findings
        ]

    def test_convenience_function_matches_engine(self, paper_example):
        assert (
            analyze(paper_example).counts()
            == AnalysisEngine().analyze(paper_example).counts()
        )

    def test_finder_options_forwarded(self, paper_example):
        config = AnalysisConfig(
            finder="hnsw", finder_options={"ef_search": 16, "m": 4}
        )
        report = analyze(paper_example, config)
        # the tiny example is easy even for a small-ef index
        assert report.counts()["roles_same_users"] == 2

    def test_similarity_threshold_flows_to_detector(self, paper_example):
        # At threshold 2, R01 {P02,P03} and R03 {P03,P04} become similar
        # on the permission axis (distance 2).
        report = analyze(paper_example, AnalysisConfig(similarity_threshold=2))
        similar = report.of_type(InefficiencyType.SIMILAR_ROLES)
        assert any(set(f.entity_ids) == {"R01", "R03"} for f in similar)

    def test_empty_state(self):
        from repro.core.state import RbacState

        report = analyze(RbacState())
        assert report.findings == []
        assert all(value == 0 for value in report.counts().values())


class TestScanFanOut:
    """``n_workers`` drives the blocked scan, gated by the cost model."""

    @staticmethod
    def _pool_maps(recorder) -> int:
        return sum(
            1
            for trace in recorder.traces
            for _, _, span in trace.walk()
            if span.name == "parallel.map"
            and span.attributes.get("mode") == "pool"
        )

    def test_n_workers_forwarded_to_cooccurrence_finder(self):
        engine = AnalysisEngine(AnalysisConfig(n_workers=3))
        by_name = {d.name: d for d in engine.detectors}
        assert by_name["duplicate_roles"]._finder._n_workers == 3
        explicit = AnalysisEngine(
            AnalysisConfig(n_workers=3, finder_options={"n_workers": 1})
        )
        by_name = {d.name: d for d in explicit.detectors}
        assert by_name["similar_roles"]._finder._n_workers == 1

    def test_heavy_axis_fans_out_under_the_gate(self):
        from repro.core.state import RbacState
        from repro.core.taxonomy import Axis
        from repro.datagen import MatrixSpec, generate_matrix
        from repro.obs import Recorder

        # The per-axis size of the parallel ablation's dual-axis state:
        # the cost model predicts ~90 ms, well above the pool overhead.
        ruam = generate_matrix(
            MatrixSpec(n_roles=2500, n_cols=400, row_density=0.12, seed=2)
        ).matrix
        state = RbacState.build(
            users=[f"u{j}" for j in range(ruam.shape[1])],
            roles=[f"r{i}" for i in range(ruam.shape[0])],
            permissions=[],
            user_assignments=[
                (f"r{i}", f"u{j}") for i, j in zip(*ruam.nonzero())
            ],
            permission_assignments=[],
        )
        options = dict(
            enabled_types=(InefficiencyType.DUPLICATE_ROLES,),
            axes=(Axis.USERS,),
        )
        recorder = Recorder()
        parallel = analyze(
            state, AnalysisConfig(n_workers=2, **options), recorder=recorder
        )
        assert self._pool_maps(recorder) == 1
        # About four blocks per worker: ceil(2500 / 8) = 313 rows each.
        assert recorder.counter_totals()["cooccurrence.blocks"] == 8
        serial = analyze(state, AnalysisConfig(**options))
        assert [f.entity_ids for f in parallel.findings] == [
            f.entity_ids for f in serial.findings
        ]

    def test_planted_org_scans_in_process(self, small_org_state):
        from repro.obs import Recorder

        recorder = Recorder()
        analyze(small_org_state, AnalysisConfig(n_workers=2), recorder=recorder)
        assert self._pool_maps(recorder) == 0
        # One in-process block per axis, as in a serial run.
        assert recorder.counter_totals()["cooccurrence.blocks"] == 2
