"""Tests for the runner's result caching and derived metrics."""

import pytest

from repro.cache.artifacts import set_artifact_store
from repro.cache.hierarchy import clear_miss_stream_cache
from repro.experiments.runner import ExperimentRunner, config_result_to_dict
from repro.trace.synthetic import AtumWorkload


@pytest.fixture(scope="module")
def small_runner():
    workload = AtumWorkload(segments=1, references_per_segment=12_000, seed=31)
    return ExperimentRunner(workload)


class TestResultCaching:
    def test_identical_args_return_cached_object(self, small_runner):
        a = small_runner.run("16K-16", "64K-32", 4)
        b = small_runner.run("16K-16", "64K-32", 4)
        assert a is b

    def test_different_associativity_distinct(self, small_runner):
        a = small_runner.run("16K-16", "64K-32", 4)
        b = small_runner.run("16K-16", "64K-32", 2)
        assert a is not b

    def test_option_changes_distinct(self, small_runner):
        base = small_runner.run("16K-16", "64K-32", 4)
        assert small_runner.run(
            "16K-16", "64K-32", 4, transforms=("improved",)
        ) is not base
        assert small_runner.run(
            "16K-16", "64K-32", 4, mru_list_lengths=(1,)
        ) is not base
        assert small_runner.run(
            "16K-16", "64K-32", 4, writeback_optimization=False
        ) is not base
        assert small_runner.run(
            "16K-16", "64K-32", 4, extra_tag_bits=(32,)
        ) is not base

    def test_geometry_objects_and_labels_share_cache(self, small_runner):
        from repro.experiments.configs import parse_geometry

        a = small_runner.run("16K-16", "64K-32", 4)
        b = small_runner.run(
            parse_geometry("16K-16"), parse_geometry("64K-32"), 4
        )
        assert a is b


class TestDerivedMetrics:
    def test_mru_update_fraction_in_range(self, small_runner):
        result = small_runner.run("16K-16", "64K-32", 4)
        assert 0.0 < result.mru_update_fraction <= 1.0

    def test_writeback_miss_ratio_in_range(self, small_runner):
        result = small_runner.run("16K-16", "64K-32", 4)
        assert 0.0 <= result.writeback_miss_ratio < 1.0

    def test_update_fraction_at_least_miss_share(self, small_runner):
        # Every miss rewrites the MRU list, so u >= share of misses
        # among accesses.
        result = small_runner.run("16K-16", "64K-32", 4)
        assert result.mru_update_fraction >= result.local_miss_ratio - 1e-9


class TestArtifactReuse:
    @pytest.fixture(autouse=True)
    def _isolate_store(self):
        clear_miss_stream_cache()
        yield
        set_artifact_store(None)
        clear_miss_stream_cache()

    def test_runner_roundtrips_through_artifact_store(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_STREAM_ARTIFACTS", str(tmp_path))
        workload = AtumWorkload(segments=3, references_per_segment=4_000, seed=19)
        first = ExperimentRunner(workload).run("4K-16", "64K-32", 4)
        saved = sorted(tmp_path.iterdir())
        assert saved, "expected a persisted stream artifact"
        # A fresh runner with a cold in-process cache must load the
        # artifact back instead of re-capturing, bit-identically.
        clear_miss_stream_cache()
        second = ExperimentRunner(workload).run("4K-16", "64K-32", 4)
        assert config_result_to_dict(second) == config_result_to_dict(first)
        assert sorted(tmp_path.iterdir()) == saved


class TestOneFrontEndPass:
    def test_tables_generate_each_segment_once(self, monkeypatch):
        from repro.experiments.tables import build_table3, build_table4

        set_artifact_store(None)
        clear_miss_stream_cache()
        generated = []
        segment_pairs = AtumWorkload.segment_pairs

        def counting(self, segment):
            generated.append(segment)
            return segment_pairs(self, segment)

        monkeypatch.setattr(AtumWorkload, "segment_pairs", counting)
        workload = AtumWorkload(segments=3, references_per_segment=2_000, seed=47)
        runner = ExperimentRunner(workload)
        build_table3(runner)
        build_table4(runner)
        clear_miss_stream_cache()
        assert generated == [0, 1, 2]
