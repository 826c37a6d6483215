"""repro-sweep CLI: exit codes, JSON output, checkpoint/resume flags."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.sweepcli import EXIT_PARTIAL, main
from repro.resilience import faults
from repro.resilience.faults import ENV_VAR


@pytest.fixture(autouse=True)
def clean_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    faults.deactivate()
    yield
    faults.deactivate()


def base_args(tmp_path, *extra):
    return [
        "--l1", "4K-16",
        "--l2", "64K-32",
        "--assoc", "2,4",
        "--scale", "0.002",
        "--processes", "2",
        "--retry-base", "0.01",
        "--out", str(tmp_path / "results.json"),
        *extra,
    ]


def read_out(tmp_path):
    return json.loads((tmp_path / "results.json").read_text())


class TestHappyPath:
    def test_completes_with_exit_zero(self, tmp_path):
        assert main(base_args(tmp_path)) == 0
        payload = read_out(tmp_path)
        assert len(payload["points"]) == 2
        assert all(p["result"] is not None for p in payload["points"])
        assert payload["failures"] == []

    def test_checkpoint_and_resume(self, tmp_path):
        checkpoint = str(tmp_path / "sweep.ckpt")
        assert main(base_args(tmp_path, "--checkpoint", checkpoint)) == 0
        assert (
            main(
                base_args(
                    tmp_path, "--checkpoint", checkpoint, "--resume"
                )
            )
            == 0
        )
        payload = read_out(tmp_path)
        assert payload["resumed"] == 2


class TestUsageErrors:
    def test_resume_requires_checkpoint(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(base_args(tmp_path, "--resume"))
        assert excinfo.value.code == 2

    def test_existing_checkpoint_needs_resume(self, tmp_path):
        checkpoint = str(tmp_path / "sweep.ckpt")
        assert main(base_args(tmp_path, "--checkpoint", checkpoint)) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(base_args(tmp_path, "--checkpoint", checkpoint))
        assert excinfo.value.code == 2


class TestFailurePaths:
    def test_injected_failure_yields_partial_exit(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(ENV_VAR, "raise@0")
        code = main(
            base_args(tmp_path, "--failure-policy", "collect")
        )
        assert code == EXIT_PARTIAL
        payload = read_out(tmp_path)
        assert payload["points"][0]["result"] is None
        assert payload["points"][1]["result"] is not None
        (failure,) = payload["failures"]
        assert failure["error_type"] == "InjectedFaultError"

    def test_transient_failure_retried_to_success(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(ENV_VAR, "raise@0:attempts=1")
        code = main(
            base_args(tmp_path, "--failure-policy", "retry_then_collect")
        )
        assert code == 0
        payload = read_out(tmp_path)
        assert payload["retries"] >= 1
        assert payload["failures"] == []


class TestInterrupt:
    """SIGTERM/SIGINT mid-sweep: checkpoint survives, exit is partial."""

    def _interrupt_when_checkpointed(self, checkpoint, signum):
        """Fire ``signum`` at this process once one result is durable."""
        import os
        import signal as signal_module
        import threading
        import time

        def fire():
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if (
                    checkpoint.exists()
                    and '"kind": "result"' in checkpoint.read_text()
                ):
                    break
                time.sleep(0.05)
            os.kill(os.getpid(), signum)

        thread = threading.Thread(target=fire, daemon=True)
        thread.start()
        return thread

    @pytest.mark.parametrize("signame", ["SIGTERM", "SIGINT"])
    def test_signal_mid_sweep_exits_partial_with_durable_checkpoint(
        self, tmp_path, monkeypatch, signame
    ):
        import signal as signal_module

        from repro.resilience.checkpoint import SweepCheckpoint

        signum = getattr(signal_module, signame)
        previous = signal_module.getsignal(signum)
        # Point 1 hangs far longer than the test: the signal always
        # lands mid-sweep, after point 0 has been checkpointed.
        monkeypatch.setenv(ENV_VAR, "hang@1:seconds=300")
        checkpoint = tmp_path / "sweep.ckpt"
        thread = self._interrupt_when_checkpointed(checkpoint, signum)
        code = main(
            base_args(
                tmp_path,
                "--checkpoint", str(checkpoint),
                "--failure-policy", "collect",
            )
        )
        thread.join(timeout=10.0)
        assert code == EXIT_PARTIAL
        # The completed point is durable, and the handler was restored.
        assert len(SweepCheckpoint(checkpoint).load()) >= 1
        assert signal_module.getsignal(signum) == previous

    def test_resume_finishes_an_interrupted_sweep(
        self, tmp_path, monkeypatch
    ):
        import signal as signal_module

        monkeypatch.setenv(ENV_VAR, "hang@1:seconds=300")
        checkpoint = tmp_path / "sweep.ckpt"
        thread = self._interrupt_when_checkpointed(
            checkpoint, signal_module.SIGTERM
        )
        assert (
            main(
                base_args(
                    tmp_path,
                    "--checkpoint", str(checkpoint),
                    "--failure-policy", "collect",
                )
            )
            == EXIT_PARTIAL
        )
        thread.join(timeout=10.0)
        monkeypatch.delenv(ENV_VAR)
        code = main(
            base_args(
                tmp_path, "--checkpoint", str(checkpoint), "--resume"
            )
        )
        assert code == 0
        payload = read_out(tmp_path)
        assert payload["resumed"] >= 1
        assert all(p["result"] is not None for p in payload["points"])

    def test_terminated_pool_worker_exits_without_the_sweep_handler(self):
        """A pool worker forked after the sweep's handlers are installed
        dies of SIGTERM, as the executor's pool teardown expects, instead
        of raising the parent's interrupt exception."""
        import signal as signal_module

        script = "\n".join([
            "import os, signal, time",
            "from repro.experiments.sweepcli import _install_signal_handlers",
            "from repro.resilience.executor import ResilientPoolExecutor",
            "_install_signal_handlers()",
            "executor = ResilientPoolExecutor(abs, processes=1)",
            "executor._pool_size = 1",
            "pool = executor._ensure_pool()",
            "assert pool.submit(abs, -1).result(timeout=60) == 1",
            "(worker,) = pool._processes.values()",
            "os.kill(worker.pid, signal.SIGTERM)",
            # The pool's manager thread may reap the worker first; it
            # records the exit status on the same process object.
            "deadline = time.monotonic() + 60",
            "while worker.exitcode is None and time.monotonic() < deadline:",
            "    time.sleep(0.01)",
            "print(worker.exitcode)",
            "executor._kill_pool()",
        ])
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = src
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(-signal_module.SIGTERM)
        assert "_SweepInterrupted" not in proc.stderr


class TestStreamArtifacts:
    """``--stream-artifacts`` persists and reuses captures by default."""

    def _sweep(self, tmp_path, run, artifacts):
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = src
        obs = tmp_path / f"obs-{run}"
        out = tmp_path / f"out-{run}.json"
        subprocess.run(
            [
                sys.executable, "-m", "repro.experiments.sweepcli",
                "--l1", "4K-16", "--l2", "64K-16", "--assoc", "4",
                "--scale", "0.002", "--processes", "1",
                "--stream-artifacts", str(artifacts),
                "--obs-dir", str(obs), "--out", str(out),
            ],
            env=env, check=True, capture_output=True, timeout=120,
        )
        manifest = json.loads((obs / "manifest.json").read_text())
        spans = [
            json.loads(line)["name"]
            for line in (obs / "trace.jsonl").read_text().splitlines()
        ]
        return manifest["metrics"]["counters"], spans, out.read_bytes()

    def test_second_run_loads_the_artifact(self, tmp_path):
        artifacts = tmp_path / "artifacts"
        counters, spans, first_out = self._sweep(tmp_path, 1, artifacts)
        assert len(list(artifacts.glob("*.rpm2"))) == 1
        assert len(list(artifacts.glob("*.meta.json"))) == 1
        assert "l1_capture" in spans
        assert counters["miss_stream.artifact_misses"] >= 1

        counters, spans, second_out = self._sweep(tmp_path, 2, artifacts)
        assert counters["miss_stream.artifact_hits"] >= 1
        assert "l1_capture" not in spans
        assert second_out == first_out
