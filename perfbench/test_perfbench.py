"""Tests of the benchmark itself (outside the default ``tests`` path).

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Each test runs ``perfbench/run.py`` from the checkout root with
one-second runs: one cycle, that is one operation on each recorded
trace, or one untraced and one traced operation with ``--trace 1``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

NINE = (
    "setup_s", "wall_s", "peak_rss_mb", "failed_ratio", "paper_l1_err",
    "job_p50_s", "job_tail_s", "resumed_p50_s", "jobs_per_s",
)
EXACT_COUNTS = (
    "trace.refs", "l1.captures", "l1.events", "l2.replays", "l2.requests",
    "sweep.points",
)


def perfbench(*args, run=RUN, cwd=HERE.parent):
    proc = subprocess.run(
        [sys.executable, str(run), *args], cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_every_end_to_end_name_is_printed_with_its_unit(workload):
    proc, lines = perfbench(
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert proc.returncode == 0, proc.stderr
    for name in NINE:
        assert any(
            line.split()[:1] == [name] and f" {bench.UNITS[name]} " in line
            for line in lines
        ), name
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def traced_counts(seed: int) -> dict:
    proc, lines = perfbench(
        "--workload", "l2_sweep", "--seed", str(seed), "--seconds", "1",
        "--trace", "1",
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(lines[-1])["metrics"]
    assert set(metrics) == set(bench.PER_LAYER)
    return {name: metrics[name]["value"] for name in EXACT_COUNTS}


def test_exact_counts_repeat_for_a_seed_and_change_with_it():
    first = traced_counts(3)
    assert first == traced_counts(3)
    assert first != traced_counts(4)
    assert first["sweep.points"] == len(bench.sweep_points())


@pytest.mark.parametrize("workload", ["reproduce", "l2_sweep"])
def test_traced_layers_add_up_to_the_traced_wall(workload):
    proc, lines = perfbench(
        "--workload", workload, "--seed", "2", "--seconds", "1",
        "--trace", "1",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    wall = metrics["traced_wall_s"]
    total = metrics["unattributed_s"] + sum(
        metrics[f"{layer}.self_s"] for layer in bench.SHARE_LAYERS
    )
    assert total == pytest.approx(wall)
    # The remainder closes the sum by definition; the attribution is
    # sound only if no layer is negative and the remainder is small.
    for layer in bench.SHARE_LAYERS:
        assert metrics[f"{layer}.self_s"] >= 0, layer
    assert 0 <= metrics["unattributed_s"] <= 0.1 * wall
    if workload == "reproduce":
        assert metrics["l1.captures"] == 3
    assert any(line.strip().startswith("unattributed ") for line in lines)


def test_processes_an_operation_leaves_behind_are_killed():
    # A parent that exits while its child sleeps on, as an orphaned
    # pool worker would.
    parent = subprocess.Popen(
        [sys.executable, "-c",
         "import subprocess, sys; print(subprocess.Popen([sys.executable,"
         " '-c', 'import time; time.sleep(60)']).pid, flush=True)"],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    with parent.stdout:
        parent.stdout.readline()
        parent.wait(timeout=30)
        assert bench.end_group(parent.pid)
    with pytest.raises(ProcessLookupError):
        os.killpg(parent.pid, 0)
    assert not bench.end_group(parent.pid)


def copy_benchmark(tmp_path: Path) -> Path:
    """A checkout in ``tmp_path`` holding a copy of the benchmark only."""
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    return tmp_path


def test_a_corrupted_digest_fails_every_operation(tmp_path):
    checkout = copy_benchmark(tmp_path)
    (checkout / "src").symlink_to(HERE.parent / "src")
    corrupted = checkout / "perfbench" / "expected.json"
    expected = json.loads(corrupted.read_text())
    seed = 5
    recorded = expected["seeds"][str(1 + seed % bench.TRACE_SEEDS)]
    for key in recorded["points"]:
        recorded["points"][key] = "0" * 16
    corrupted.write_text(json.dumps(expected))
    proc, lines = perfbench(
        "--workload", "l2_sweep", "--seed", str(seed), "--seconds", "1",
        "--trace", "0", run=checkout / "perfbench" / "run.py", cwd=checkout,
    )
    assert proc.returncode != 0
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    ratio = next(line.split() for line in lines if "failed_ratio" in line)
    assert float(ratio[1]) == 1.0


def test_refuses_to_run_without_the_program_sources(tmp_path):
    copy_benchmark(tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reproduce",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
