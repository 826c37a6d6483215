"""Progress reporter: per-point events and ETA lines."""

import io

from repro.obs.progress import ProgressReporter, progress_enabled


def make_reporter(total=4, enabled=True):
    stream = io.StringIO()
    return ProgressReporter(total=total, stream=stream, enabled=enabled), stream


class TestEnablement:
    def test_env_var_forces_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        assert progress_enabled(io.StringIO()) is True

    def test_env_var_forces_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "0")
        assert progress_enabled(io.StringIO()) is False

    def test_non_tty_defaults_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROGRESS", raising=False)
        assert progress_enabled(io.StringIO()) is False

    def test_disabled_reporter_is_silent(self):
        reporter, stream = make_reporter(enabled=False)
        reporter.started()
        reporter.finished()
        assert stream.getvalue() == ""


class TestEvents:
    def test_started_line(self):
        reporter, stream = make_reporter(total=8)
        reporter.started("4K-16 / 64K-32 4-way, attempt 1")
        line = stream.getvalue()
        assert "point started" in line
        assert "shard" not in line
        assert "4K-16 / 64K-32 4-way, attempt 1" in line

    def test_finished_line_has_progress_and_eta(self):
        reporter, stream = make_reporter(total=4)
        reporter.finished()
        line = stream.getvalue()
        assert "point 1/4 finished" in line
        assert "ETA" in line

    def test_ordinal_is_the_completion_count(self):
        """Points finish out of input order; the ordinal counts up."""
        reporter, stream = make_reporter(total=3)
        for detail in ("8K-16 / 64K-32 4-way", "4K-16 / 64K-32 2-way"):
            reporter.finished(detail)
        lines = stream.getvalue().splitlines()
        assert "point 1/3 finished" in lines[0]
        assert "8K-16 / 64K-32 4-way" in lines[0]
        assert "point 2/3 finished" in lines[1]
        assert reporter.finished_count == 2

    def test_last_point_reports_done(self):
        reporter, stream = make_reporter(total=2)
        reporter.finished()
        reporter.finished()
        last = stream.getvalue().splitlines()[-1]
        assert "point 2/2 finished" in last
        assert "done" in last
        assert "ETA" not in last
