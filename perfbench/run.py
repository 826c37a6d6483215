"""The repo benchmark: cold ``repro-tables``, ``repro-sweep`` and
``repro-serve`` runs, with every output checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --record        # rewrite perfbench/expected.json

Workloads (see README.md for why each was chosen):

- ``reproduce``: ``repro-tables`` for every target, one fresh process
  per operation;
- ``l2_sweep``: ``repro-sweep`` over one L1 and a grid of L2 geometries
  and associativities with ``--processes`` = nproc;
- ``service``: a fresh ``repro-serve`` (one job worker, one pool
  process) per round, driven closed-loop by nproc client threads with
  single-point jobs, a third of which repeat an earlier point.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations (``perfbench/probe.py``) and prints the
per-layer metrics. The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Any wrong
output makes the exit status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

#: Workload scale of every run: 80,500 references in one segment.
SCALE = 0.01
#: Number of recorded traces; an untraced run covers each equally.
TRACE_SEEDS = 4
#: Import probes per operation that sample ``setup_s``.
SETUP_PROBES = 3
TARGETS = (
    "table1", "table2", "table3", "table4", "fig3", "fig4", "fig5", "fig6",
)
L1S = ("4K-16", "16K-16", "16K-32")
PAPER_L2 = ("64K-16", "64K-32", "256K-16", "256K-32", "256K-64")
ASSOCS = (2, 4, 8, 16)
SWEEP_L1 = "4K-16"
SWEEP_L2 = tuple(
    f"{size}K-{block}" for size in (64, 128, 256, 512)
    for block in (16, 32, 64, 128)
)
SERVICE_JOBS = 12
SERVICE_REPEATS = 4
NPROC = os.cpu_count() or 1
#: Deadline of one operation; a whole run must end within 180 s.
OP_TIMEOUT = 120.0

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "failed_ratio": "ratio", "paper_l1_err": "ratio", "job_p50_s": "s",
    "job_tail_s": "s", "resumed_p50_s": "s", "jobs_per_s": "1/s",
}
PER_LAYER = (
    "setup.self_s", "trace.refs", "trace.self_s", "l1.captures",
    "l1.events", "l1.self_s", "l2.replays", "l2.requests", "l2.self_s",
    "l2.result_memo_hit_ratio", "sweep.points", "sweep.wall_s",
    "sweep.busy_s", "sweep.utilization", "sweep.retries", "sweep.self_s",
    "report.self_s", "service.submit_s", "service.queue_wait_s",
    "service.execute_s", "service.shed", "service.self_s",
    "checkpoint.resumed_ratio", "checkpoint.self_s", "unattributed_s",
    "traced_wall_s", "tracing_overhead_s",
)
#: Layers whose self times, with ``unattributed_s``, add up to the wall.
SHARE_LAYERS = (
    "setup", "trace", "l1", "l2", "sweep", "checkpoint", "report", "service",
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_ratio", "utilization")) else "count"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def result_digest(result: dict) -> str:
    """Digest of one point's full result as ``config_result_to_dict``."""
    return digest(json.dumps(result, sort_keys=True))


def point_key(l1: str, l2: str, assoc: int) -> str:
    return f"{l1}/{l2}/{assoc}"


def child_env() -> dict:
    """The caller's environment without any ``REPRO_*`` switch.

    A stray ``REPRO_COLUMNAR``, ``REPRO_STREAM_ARTIFACTS``,
    ``REPRO_FAULTS`` or the like would turn a cold run into an
    artifact hit or a fault-injection run.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def split_targets(stdout: str) -> dict:
    """Rendered text of each target, keyed by name, from repro-tables."""
    chunks, lines = {}, []
    for line in stdout.split("\n"):
        match = re.fullmatch(r"\[(\w+) built in [\d.]+s\]", line)
        if match:
            chunks[match.group(1)] = "\n".join(lines).strip("\n")
            lines = []
        else:
            lines.append(line)
    return chunks


def paper_l1_err(table3: str) -> float:
    """Mean |measured - paper| / paper over Table 3's L1 rows."""
    errors = [
        abs(float(measured) - float(paper)) / float(paper)
        for measured, paper in re.findall(
            r"^\d+K-\d+\s+([\d.]+)\s+([\d.]+)$", table3, re.MULTILINE
        )
    ]
    return sum(errors) / len(errors)


def tail(values):
    """(value, percentile) at the highest percentile with >= 10 samples
    beyond it, or ``None`` when that percentile is not above the median."""
    if len(values) < 20:
        return None
    ordered = sorted(values)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def end_group(pgid: int) -> bool:
    """Kill what an ended operation left in its process group (each
    operation runs in a session of its own), such as an orphaned pool
    worker, and wait until it has gone; ``True`` if anything was left.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)
    return True


class Bench:
    """State of one benchmark run: checks, samples and layer records."""

    def __init__(self, args, expected: dict) -> None:
        self.args = args
        self.expected = expected["seeds"]
        self.trace_seeds = []
        self.env = child_env()
        self.work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.samples = {}
        self.layers = []
        self.paper_l1_err = None
        #: Operations that left processes behind, which were killed.
        self.leftovers = 0
        self._dirs = 0

    def next_trace_seed(self) -> int:
        """Trace of the next operation.

        An untraced run cycles through the recorded traces from
        ``1 + seed % TRACE_SEEDS`` in whole cycles (see ``loop``), so
        every trace weighs the same in its medians whatever the number
        of operations (the traces differ by up to 24% in L1 misses); a
        traced run keeps to that first trace, so its counts are exact.
        """
        step = 0 if self.args.trace else len(self.trace_seeds)
        seed = 1 + (self.args.seed + step) % TRACE_SEEDS
        self.trace_seeds.append(seed)
        return seed

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.work / f"op{self._dirs:03d}"
        path.mkdir(parents=True)
        return path

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        print(f"perfbench: FAILED ({count}): {why}", file=sys.stderr)

    def check(self, seed: int, kind: str, key: str, actual: str) -> None:
        self.attempted += 1
        want = self.expected[str(seed)][kind].get(key)
        if actual != want:
            self.fail(1, f"{kind} {key}: digest {actual} != expected {want}")

    def command(self, module: str, args, trace_dir) -> list:
        if trace_dir is None:
            return [sys.executable, "-m", module, *args]
        return [
            sys.executable, str(HERE / "probe.py"), str(trace_dir), module,
            *args,
        ]

    def measure_setup(self, module: str) -> None:
        """Interpreter start plus import of the CLI module, in a new
        process, on the monotonic clock both processes share;
        ``SETUP_PROBES`` samples."""
        for _ in range(SETUP_PROBES):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c",
                 f"import time, {module}; print(time.perf_counter())"],
                cwd=self.work, env=self.env, capture_output=True, text=True,
                timeout=OP_TIMEOUT,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"cannot import {module}: {proc.stderr}")
            self.sample("setup_s", float(proc.stdout.strip()) - start)

    def run_cli(self, module: str, args, traced: bool):
        """One cold CLI process, timed (untraced) or traced; returns it.

        An untraced run first samples ``setup_s`` in its own process.
        """
        trace_dir = None
        if traced:
            trace_dir = self.fresh_dir()
        else:
            self.measure_setup(module)
        start = time.perf_counter()
        child = subprocess.Popen(
            self.command(module, args, trace_dir), cwd=self.work,
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            stdout, stderr = child.communicate(timeout=OP_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            self.end_group(child.pid)
            # Every output of the operation then counts as failed.
            return subprocess.CompletedProcess(
                child.args, None, "", f"timed out after {OP_TIMEOUT} s"
            )
        wall = time.perf_counter() - start
        self.end_group(child.pid)
        proc = subprocess.CompletedProcess(
            child.args, child.returncode, stdout, stderr
        )
        if traced:
            layers = read_trace(trace_dir, start, wall)
            self.layers.append(finish_layers(layers))
        else:
            self.sample("wall_s", wall)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
        return proc

    def end_group(self, pgid: int) -> None:
        if end_group(pgid):
            self.leftovers += 1
            print(f"perfbench: killed processes that operation "
                  f"{len(self.trace_seeds)} left behind", file=sys.stderr)

    def loop(self, operation) -> None:
        """Whole cycles of operations for about ``--seconds``.

        An untraced cycle runs once on each recorded trace; a traced
        cycle is one untraced and one traced operation on the same
        trace. The run ends after the cycle that brings it within half
        a cycle of ``--seconds``, or after any failure: it is then
        incorrect already, and must not run into the 180 s limit.
        """
        cycle = 1 if self.args.trace else TRACE_SEEDS
        start = time.perf_counter()
        cycles = 0
        while True:
            for _ in range(cycle):
                operation(False)
                if self.args.trace:
                    operation(True)
                if self.failed:
                    return
            cycles += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / cycles / 2 >= self.args.seconds:
                return


# ----------------------------------------------------------------------
# tracing: fold probe.py's per-process records into layer metrics


def read_trace(trace_dir: Path, start: float, wall: float) -> dict:
    """Layer metrics of one traced operation.

    Self times are wall-equivalent: a second spent in one of ``P``
    parallel pool workers counts ``1/P``, so the self times of all
    layers plus ``unattributed_s`` add up to the traced wall time.
    """
    main = {"self": {}, "top": {}}
    workers = {"self": {}, "top": {}}
    counts = {}
    for path in trace_dir.glob("*.jsonl"):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            side = workers if record["worker"] else main
            for part in ("self", "top"):
                for layer, value in record[part].items():
                    side[part][layer] = side[part].get(layer, 0.0) + value
            for name, value in record["counts"].items():
                counts[name] = counts.get(name, 0) + value
    ready = json.loads((trace_dir / "setup.json").read_text())["ready"]
    sweep_wall = main["top"].get("sweep", 0.0)
    capacity = counts.get("sweep.capacity_s", 0.0)
    processes = capacity / sweep_wall if sweep_wall else 1.0
    worker_time = sum(workers["self"].values())

    def self_s(layer: str) -> float:
        return main["self"].get(layer, 0.0) + (
            workers["self"].get(layer, 0.0) / processes
        )

    runs = counts.get("l2.runs", 0)
    metrics = {
        "setup.self_s": ready - start,
        "trace.refs": counts.get("trace.refs", 0),
        "trace.self_s": self_s("trace"),
        "l1.captures": counts.get("l1.captures", 0),
        "l1.events": counts.get("l1.events", 0),
        "l1.self_s": self_s("l1"),
        "l2.replays": counts.get("l2.replays", 0),
        "l2.requests": counts.get("l2.requests", 0),
        "l2.self_s": self_s("l2"),
        "l2.result_memo_hit_ratio": (
            counts.get("l2.memo_hits", 0) / runs if runs else 0.0
        ),
        "l2.runs": runs,
        "sweep.points": counts.get("sweep.points", 0),
        "sweep.wall_s": sweep_wall,
        "sweep.busy_s": workers["top"].get("l2", 0.0),
        "sweep.retries": counts.get("sweep.retries", 0),
        "sweep.self_s": self_s("sweep") - worker_time / processes,
        "report.self_s": self_s("report"),
        "checkpoint.self_s": self_s("checkpoint"),
        "sweep.utilization": (
            workers["top"].get("l2", 0.0) / capacity if capacity else 0.0
        ),
        "traced_wall_s": wall,
    }
    return metrics


def finish_layers(metrics: dict) -> dict:
    """Fill absent layers with 0 and close the sum with the remainder."""
    for name in PER_LAYER:
        metrics.setdefault(name, 0.0)
    metrics["unattributed_s"] = metrics["traced_wall_s"] - sum(
        metrics[f"{layer}.self_s"] for layer in SHARE_LAYERS
    )
    return metrics


# ----------------------------------------------------------------------
# workloads


def reproduce(bench: Bench) -> None:
    def operation(traced: bool) -> None:
        seed = bench.next_trace_seed()
        args = ["--scale", str(SCALE), "--seed", str(seed)]
        proc = bench.run_cli("repro.experiments.cli", args, traced)
        chunks = split_targets(proc.stdout) if proc.returncode == 0 else {}
        for target in TARGETS:
            bench.check(
                seed, "targets", target, digest(chunks.get(target, ""))
            )
        if "table3" in chunks and bench.paper_l1_err is None:
            bench.paper_l1_err = paper_l1_err(chunks["table3"])

    bench.loop(operation)


def sweep_points():
    return [
        (SWEEP_L1, l2, assoc) for l2 in SWEEP_L2 for assoc in ASSOCS
    ]


def l2_sweep(bench: Bench) -> None:
    points = sweep_points()

    def operation(traced: bool) -> None:
        out = bench.fresh_dir() / "sweep.json"
        seed = bench.next_trace_seed()
        args = [
            "--l1", SWEEP_L1, "--l2", ",".join(SWEEP_L2),
            "--assoc", ",".join(map(str, ASSOCS)),
            "--scale", str(SCALE), "--seed", str(seed),
            "--processes", str(NPROC), "--out", str(out),
        ]
        proc = bench.run_cli("repro.experiments.sweepcli", args, traced)
        results = {}
        if proc.returncode == 0 and out.exists():
            for entry in json.loads(out.read_text())["points"]:
                key = point_key(
                    entry["l1"], entry["l2"], entry["associativity"]
                )
                if entry["result"] is not None:
                    results[key] = result_digest(entry["result"])
        for point in points:
            key = point_key(*point)
            bench.check(seed, "points", key, results.get(key, "missing"))

    bench.loop(operation)


def job_sequence(seed: int):
    """SERVICE_JOBS single points; SERVICE_REPEATS of them, at seeded
    positions, repeat an earlier point (served from the checkpoint)."""
    rng = random.Random(f"perfbench-service-{seed}")
    grid = [(l1, l2, a) for l1 in L1S for l2 in PAPER_L2 for a in ASSOCS]
    fresh = rng.sample(grid, SERVICE_JOBS - SERVICE_REPEATS)
    repeats = set(rng.sample(range(1, SERVICE_JOBS), SERVICE_REPEATS))
    sequence = []
    for position in range(SERVICE_JOBS):
        if position in repeats:
            sequence.append((rng.choice([p for p, _ in sequence]), True))
        else:
            sequence.append((fresh.pop(), False))
    return sequence


def request(port: int, method: str, path: str, body=None, timeout=30.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(
            method, path, body=payload,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        data = response.read()
        try:
            return response.status, json.loads(data) if data else None
        except json.JSONDecodeError:
            return response.status, None
    finally:
        conn.close()


def wait_ready(proc, port_file: Path, deadline: float) -> int:
    """Port of a starting ``repro-serve`` once ``/readyz`` returns 200."""
    port = None
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"repro-serve exited with {proc.returncode}")
        if port is None and port_file.exists():
            text = port_file.read_text().strip()
            if text:
                port = int(text.rsplit(":", 1)[1])
        if port is not None:
            try:
                if request(port, "GET", "/readyz", timeout=5.0)[0] == 200:
                    return port
            except OSError:
                pass
        time.sleep(0.005)
    raise RuntimeError("repro-serve did not become ready")


def stop(proc) -> None:
    """Drain-stop a server and reap it (with its pool workers)."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def drive(port: int, sequence) -> list:
    """Closed loop: each client submits its next job when the last ends.

    Jobs are taken and submitted under one lock, so the service sees
    them in sequence order and every repeat follows its original.
    """
    lock = threading.Lock()
    cursor = [0]
    outcomes = [None] * len(sequence)

    def client() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(sequence):
                    return
                cursor[0] += 1
                (l1, l2, assoc), _ = sequence[index]
                submitted = time.perf_counter()
                try:
                    status, record = request(port, "POST", "/jobs", {
                        "points": [
                            {"l1": l1, "l2": l2, "associativity": assoc}
                        ],
                    })
                except OSError as exc:
                    status, record = None, {"error": str(exc)}
                submit_rtt = time.perf_counter() - submitted
            if status != 202:
                outcomes[index] = {"status": status, "error": record}
                continue
            delay = 0.001
            deadline = submitted + OP_TIMEOUT
            while time.perf_counter() < deadline:
                _, polled = request(port, "GET", f"/jobs/{record['id']}")
                record = polled or record
                if record.get("status") in ("done", "partial", "failed"):
                    break
                time.sleep(delay)
                delay = min(delay * 1.5, 0.02)
            outcomes[index] = {
                "status": status,
                "record": record,
                "submitted": submitted,
                "finished": time.perf_counter(),
                "submit_rtt": submit_rtt,
            }

    threads = [
        threading.Thread(target=client, name=f"perfbench-client-{i}")
        for i in range(min(NPROC, len(sequence)))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=OP_TIMEOUT + 30)
    return outcomes


def load_checkpoint(path: str) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.resilience.checkpoint import SweepCheckpoint

    return SweepCheckpoint(path).load()


def service(bench: Bench) -> None:
    sequence = job_sequence(bench.args.seed)

    def operation(traced: bool) -> None:
        work = bench.fresh_dir()
        trace_dir = None
        if traced:
            trace_dir = work / "trace"
            trace_dir.mkdir()
        port_file = work / "port"
        seed = bench.next_trace_seed()
        args = [
            "--port", "0", "--port-file", str(port_file),
            "--spool-dir", str(work / "spool"), "--workers", "1",
            "--processes", "1", "--scale", str(SCALE),
            "--seed", str(seed),
            "--bench-history", str(work / "history.json"),
        ]
        start = time.perf_counter()
        with open(work / "serve.log", "w") as log:
            proc = subprocess.Popen(
                bench.command("repro.service.servecli", args, trace_dir),
                cwd=work, env=bench.env, stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
        outcomes = []
        try:
            port = wait_ready(proc, port_file, start + OP_TIMEOUT)
            setup = time.perf_counter() - start
            outcomes = drive(port, sequence)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
        finally:
            stop(proc)
            bench.end_group(proc.pid)
        completed = [o for o in outcomes if o and o.get("record")]
        if not completed:
            bench.attempted += len(sequence)
            bench.fail(len(sequence), "no job completed")
            return
        wall = max(o["finished"] for o in completed) - min(
            o["submitted"] for o in completed
        )
        computed, resumed, execute, queue_wait = [], [], [], []
        shed = sum(1 for o in outcomes if o and o.get("status") == 429)
        for ((l1, l2, assoc), repeat), outcome in zip(sequence, outcomes):
            bench.attempted += 1
            record = (outcome or {}).get("record")
            if record is None:
                bench.fail(1, f"job {l1}/{l2}/{assoc}: {outcome}")
                continue
            summary = record.get("summary") or {}
            if record["status"] != "done" or summary.get("completed") != 1:
                bench.fail(1, f"job {record['id']}: {record}")
                continue
            if summary.get("resumed") != int(repeat):
                bench.fail(1, f"job {record['id']} resumed "
                           f"{summary.get('resumed')}, not {int(repeat)}")
                continue
            results = load_checkpoint(record["checkpoint"])
            key = point_key(l1, l2, assoc)
            actual = result_digest(next(iter(results.values())))
            want = bench.expected[str(seed)]["points"].get(key)
            if actual != want:
                bench.fail(1, f"job point {key}: digest {actual} != {want}")
                continue
            latency = outcome["finished"] - outcome["submitted"]
            (resumed if repeat else computed).append(latency)
            execute.append(record["finished_unix"] - record["started_unix"])
            queue_wait.append(
                record["started_unix"] - record["submitted_unix"]
            )
        if traced:
            layers = read_trace(trace_dir, start, wall)
            # The client-side round is the wall; server set-up precedes it.
            layers["setup.self_s"] = 0.0
            layers["service.self_s"] = sum(execute) - layers["sweep.wall_s"]
            layers["service.submit_s"] = median_or_zero(
                [o["submit_rtt"] for o in completed]
            )
            layers["service.queue_wait_s"] = median_or_zero(queue_wait)
            layers["service.execute_s"] = median_or_zero(execute)
            layers["service.shed"] = shed
            layers["checkpoint.resumed_ratio"] = len(resumed) / len(sequence)
            bench.layers.append(finish_layers(layers))
            return
        bench.sample("setup_s", setup)
        bench.sample("wall_s", wall)
        for latency in computed:
            bench.sample("job", latency)
        for latency in resumed:
            bench.sample("resumed", latency)
        bench.sample("jobs_per_s", len(completed) / wall)

    bench.loop(operation)


WORKLOADS = {"reproduce": reproduce, "l2_sweep": l2_sweep, "service": service}


# ----------------------------------------------------------------------
# reporting


def environment() -> dict:
    from importlib import metadata

    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy,
        "nproc": NPROC,
        "platform": sys.platform,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped descendant."""
    return max(
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    ) / 1024.0


def end_to_end(bench: Bench) -> dict:
    """Every end-to-end value, with a note; ``None`` where undefined."""

    def median(name: str, what: str):
        values = bench.samples.get(name, [])
        return (
            statistics.median(values) if values else None,
            f"median of {len(values)} {what}",
        )

    jobs = bench.samples.get("job", [])
    job_tail = tail(jobs)
    base = bench.attempted
    return {
        "setup_s": median("setup_s", "set-ups"),
        "wall_s": median("wall_s", "operations"),
        "peak_rss_mb": (peak_rss_mb(), "any process of the run"),
        "failed_ratio": (bench.failed / base if base else 1.0,
                         f"{bench.failed} of {base} operations"),
        "paper_l1_err": (bench.paper_l1_err,
                         f"Table 3 of trace {bench.trace_seeds[0]}"),
        "job_p50_s": median("job", "computed jobs"),
        "job_tail_s": (
            (job_tail[0], f"p{job_tail[1]:.0f} of {len(jobs)} computed jobs")
            if job_tail else
            (None, f"fewer than 20 computed jobs ({len(jobs)})")
        ),
        "resumed_p50_s": median("resumed", "resumed jobs"),
        "jobs_per_s": median("jobs_per_s", "rounds"),
    }


def per_layer(bench: Bench) -> dict:
    """Layers of the traced operation with the median traced wall, so
    its self times and remainder still add up to its wall."""
    if not bench.layers:  # the run failed before its traced operation
        return finish_layers({"traced_wall_s": 0.0})
    ordered = sorted(bench.layers, key=lambda layer: layer["traced_wall_s"])
    metrics = dict(ordered[(len(ordered) - 1) // 2])
    metrics["tracing_overhead_s"] = metrics["traced_wall_s"] - (
        median_or_zero(bench.samples.get("wall_s", []))
    )
    return metrics


def report(bench: Bench) -> dict:
    """Print the human-readable report; return the JSON metrics."""
    args = bench.args
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"scale={SCALE} seconds={args.seconds} trace={args.trace}")
    print(f"environment {json.dumps(environment(), sort_keys=True)}")
    print("  trace seeds: " + " ".join(map(str, bench.trace_seeds)))
    print(f"  operations that left processes behind: {bench.leftovers}")
    traced = [layer["traced_wall_s"] for layer in bench.layers]
    for label, walls in (("untraced", bench.samples.get("wall_s", [])),
                         ("traced", traced)):
        if walls:
            print(f"  {label} walls (s): "
                  + " ".join(f"{w:.4f}" for w in walls))
    if not args.trace:
        values = end_to_end(bench)
        for name, (value, note) in values.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:<16} {shown:>12} {UNITS[name]:<6} {note}")
        return {
            name: {"value": values[name][0], "unit": UNITS[name]}
            for name in END_TO_END
        }
    metrics = per_layer(bench)
    for name in PER_LAYER:
        print(f"  {name:<26} {metrics[name]:>14.6g} {layer_unit(name)}")
    wall = metrics["traced_wall_s"]
    print(f"  share of traced wall ({wall:.4g} s, the median of "
          f"{len(bench.layers)} traced operations):")
    for layer in SHARE_LAYERS + ("unattributed",):
        name = f"{layer}.self_s" if layer in SHARE_LAYERS else "unattributed_s"
        share = 100 * metrics[name] / wall if wall else 0.0
        print(f"    {layer:<14} {metrics[name]:>10.4f} s {share:6.1f} %")
    print("  l2.result_memo_hit_ratio base: "
          f"{metrics.get('l2.runs', 0):g} runs")
    return {
        name: {"value": metrics[name], "unit": layer_unit(name)}
        for name in PER_LAYER
    }


# ----------------------------------------------------------------------
# reference digests


def record() -> None:
    """Rewrite expected.json from the reference observer path."""
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    from repro.experiments import figures, tables
    from repro.experiments.configs import default_workload
    from repro.experiments.runner import (
        ExperimentRunner,
        config_result_to_dict,
    )
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import Tracer

    builders = {
        "table1": lambda runner: tables.build_table1(),
        "table2": lambda runner: tables.build_table2(),
        "table3": tables.build_table3,
        "table4": tables.build_table4,
        "fig3": figures.build_figure3,
        "fig4": figures.build_figure4,
        "fig5": figures.build_figure5,
        "fig6": figures.build_figure6,
    }
    points = sorted(set(sweep_points()) | {
        (l1, l2, a) for l1 in L1S for l2 in PAPER_L2 for a in ASSOCS
    })
    seeds = {}
    for trace_seed in range(1, TRACE_SEEDS + 1):
        runner = ExperimentRunner(
            default_workload(scale=SCALE, seed=trace_seed),
            use_engine=False, metrics=MetricsRegistry(), tracer=Tracer(),
        )
        seeds[str(trace_seed)] = {
            "targets": {
                target: digest(builders[target](runner).render().strip("\n"))
                for target in TARGETS
            },
            "points": {
                point_key(*point): result_digest(
                    config_result_to_dict(runner.run(*point))
                )
                for point in points
            },
        }
        print(f"recorded trace seed {trace_seed}", file=sys.stderr)
    EXPECTED.write_text(json.dumps({
        "scale": SCALE,
        "recorded_with": "ExperimentRunner(use_engine=False)",
        "seeds": seeds,
    }, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true",
        help="rewrite the reference digests and exit",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    bench = Bench(args, json.loads(EXPECTED.read_text()))
    bench.work.mkdir(parents=True)
    try:
        WORKLOADS[args.workload](bench)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    metrics = report(bench)
    correct = bench.failed == 0 and bench.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
