"""The benchmark's four workloads: inputs, measurement loops and checks.

Every workload is measured in three phases: set-up (cold starts, each from a
fresh ``Session`` or a freshly spawned daemon up to its first correct
result), an untimed warm-up, and a closed-loop measured window.  The warm-up
and the window are split evenly over the cold starts: each cold start's
session (or daemon) warms up and runs its share of the window before the
next cold start.  No check runs inside a timed region: each result is
compared after its timer stops.

A traced run (``trace=True``) makes one traced cold start, then splits the
window into an untraced half and a traced half; the difference between the
two halves' median run times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from spans import Recorder, Tracer, input_build_s, layer_metrics

NAMES = ("filter-cascade", "filter-verify", "reads-stream", "serve-mixed")
WARMUP_S = 3.0
COLD_STARTS = 5
THRESHOLD = 5
#: Fewest operations a measured window holds, however short it is.
MIN_OPS = 3

# reads-stream input: a reference with repeats and reads sampled from it.
GENOME_BP = 500_000
REPEAT_BP = 400
REPEAT_SHARE = 0.12
N_READS = 3_000
READ_BP = 100
SUBSTITUTION_RATE = 0.01
INDEL_RATE = 0.001


@dataclasses.dataclass
class Outcome:
    """What one workload run measured and whether its outputs were correct."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    exact: dict[str, Any]
    hashes: dict[str, str]
    modelled: dict[str, float]
    samples: int
    #: Measured figures printed for reading but carrying no bound.
    info: dict[str, float] = dataclasses.field(default_factory=dict)
    trace_file: str | None = None

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def reference_json(result: Any) -> str:
    """The JSON every later run of a workload must reproduce byte for byte."""
    return result.to_json()


def sha256(data: "bytes | str") -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def window_metrics(times: list[float], pairs: float, window_s: float) -> dict[str, float]:
    """Throughput and latency of one measured window.

    ``pairs`` is the number of pairs the window's operations completed and
    ``window_s`` the time the callers spent waiting on the program.
    """
    return {"pairs_per_s": pairs / window_s, "run_p50_s": statistics.median(times)}


#: Unit of each figure :func:`info_metrics` may report.
INFO_UNITS = {"requests_per_s": "req/s", "run_p90_s": "s", "run_p99_s": "s"}


def info_metrics(times: list[float], window_s: float) -> dict[str, float]:
    """Figures printed next to the metrics but carrying no bound (see README).

    A tail percentile is reported only when at least ten samples lie beyond it.
    """
    info = {"requests_per_s": len(times) / window_s}
    for q in (90, 99):
        if len(times) * (100 - q) >= 1000:
            info[f"run_p{q}_s"] = percentile(times, q)
    return info


def reset_peak_rss(pid: "int | str" = "self") -> None:
    """Restart a process's resident-memory high-water mark (Linux 4.0+)."""
    Path(f"/proc/{pid}/clear_refs").write_text("5")


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """A process's resident-memory high-water mark since its last reset."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _modelled(result: Any) -> dict[str, float]:
    """The Result's analytic-model times (model output, never a metric)."""
    keys = ("kernel_time_s", "filter_time_s", "verification_time_s")
    return {f"modelled.{k}": float(result.summary[k]) for k in keys}


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def dataset_workload(seed: int, n_pairs: int, filters: list[str], dataset: str = "Set 1",
                     **execution: Any) -> dict[str, Any]:
    return {
        "input": {"kind": "dataset", "dataset": dataset, "n_pairs": n_pairs, "seed": seed},
        "filter": {"filters": filters, "error_threshold": THRESHOLD},
        "execution": execution,
    }


def write_reads_inputs(seed: int, workdir: Path) -> tuple[Path, Path]:
    """A repeat-rich reference FASTA and a FASTQ of reads sampled from it."""
    rng = np.random.default_rng([seed, 11])
    genome = rng.integers(0, 4, GENOME_BP, dtype=np.uint8)
    for _ in range(int(REPEAT_SHARE * GENOME_BP / REPEAT_BP)):
        src, dst = rng.integers(0, GENOME_BP - REPEAT_BP, 2)
        genome[dst:dst + REPEAT_BP] = genome[src:src + REPEAT_BP]
    letters = np.frombuffer(b"ACGT", dtype=np.uint8)
    reference = letters[genome].tobytes().decode()

    fasta = workdir / "reference.fa"
    lines = [reference[i:i + 80] for i in range(0, GENOME_BP, 80)]
    fasta.write_text(">chr1\n" + "\n".join(lines) + "\n")

    records = []
    span = READ_BP + 20
    for i in range(N_READS):
        start = int(rng.integers(0, GENOME_BP - span))
        template = reference[start:start + span]
        u = rng.random(span)
        bases: list[str] = []
        for j, base in enumerate(template):
            if u[j] < INDEL_RATE / 2:  # deletion
                continue
            if u[j] < INDEL_RATE:  # insertion before the base
                bases.append("ACGT"[int(rng.integers(4))])
            elif u[j] < INDEL_RATE + SUBSTITUTION_RATE:
                base = "ACGT".replace(base, "")[int(rng.integers(3))]
            bases.append(base)
        read = "".join(bases)[:READ_BP]
        records.append(f"@read{i}\n{read}\n+\n{'I' * READ_BP}\n")
    fastq = workdir / "reads.fastq"
    fastq.write_text("".join(records))
    return fasta, fastq


# --------------------------------------------------------------------------- #
# In-process workloads (one caller, back to back)
# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class BatchWorkload:
    """A workload whose operation is one ``Session.run`` in this process."""

    build: Callable[[int, Path], tuple[dict[str, Any], dict[str, str]]]
    #: Untimed checks of the first result that do not rely on the program
    #: agreeing with itself; each returns (problems, exact fields).
    check: Callable[[Any, Any, Any], tuple[list[str], dict[str, Any]]]


def _filter_cascade(seed: int, _workdir: Path) -> tuple[dict[str, Any], dict[str, str]]:
    return dataset_workload(seed, 30_000, ["gatekeeper-gpu", "sneakysnake"], mode="memory",
                            verify=False, executor="threads", workers=2), {}


def _check_cascade(session: Any, spec: Any, result: Any) -> tuple[list[str], dict[str, Any]]:
    """Threaded decisions must match a serial run of the same workload."""
    serial = spec.replace(execution=dataclasses.replace(spec.execution, executor="serial",
                                                        workers=1))
    problems = [] if session.run(serial).to_json() == reference_json(result) else [
        "threaded result differs from the serial run"]
    stages = {s["filter"]: s["n_accepted"] for s in result.stages}
    return problems, {"stage_accepts": stages}


def _filter_verify(seed: int, _workdir: Path) -> tuple[dict[str, Any], dict[str, str]]:
    return dataset_workload(seed, 4_000, ["gatekeeper-gpu"], mode="memory", verify=True), {}


def _check_verify(session: Any, spec: Any, result: Any) -> tuple[list[str], dict[str, Any]]:
    """Verified accepts must equal the exact-DP count: no false rejects."""
    from repro.align.verification import ground_truth_labels

    dataset = session.dataset_for(spec)
    truth = int(ground_truth_labels(list(zip(dataset.reads, dataset.segments)), THRESHOLD,
                                    undefined_accepted=False).sum())
    s = result.summary
    problems = [] if s["verified_accepts"] == truth else [
        f"verified_accepts {s['verified_accepts']} != exact-DP accepts {truth}"]
    return problems, {
        "verified_accepts": s["verified_accepts"],
        "exact_dp_accepts": truth,
        "false_accept_pct": 100.0 * (s["n_accepted"] - s["verified_accepts"]) / s["n_pairs"],
    }


def _reads_stream(seed: int, workdir: Path) -> tuple[dict[str, Any], dict[str, str]]:
    fasta, fastq = write_reads_inputs(seed, workdir)
    spec = {
        "input": {"kind": "reads", "path": str(fastq), "reference": str(fasta),
                  "seeding_k": 10},
        "filter": {"filters": ["gatekeeper-gpu"], "error_threshold": THRESHOLD},
        "execution": {"mode": "streaming", "chunk_size": 8192, "prefetch": True,
                      "verify": False},
    }
    return spec, {"reference.fa": sha256(fasta.read_bytes()),
                  "reads.fastq": sha256(fastq.read_bytes())}


def _check_stream(session: Any, spec: Any, result: Any) -> tuple[list[str], dict[str, Any]]:
    """Prefetching must not change what the stream computes."""
    inline = spec.replace(execution=dataclasses.replace(spec.execution, prefetch=False))
    problems = [] if session.run(inline).to_json() == reference_json(result) else [
        "prefetching result differs from the inline run"]
    return problems, {"n_reads": N_READS,
                      "candidates_per_read": result.summary["n_pairs"] / N_READS}


BATCH = {
    "filter-cascade": BatchWorkload(_filter_cascade, _check_cascade),
    "filter-verify": BatchWorkload(_filter_verify, _check_verify),
    "reads-stream": BatchWorkload(_reads_stream, _check_stream),
}


def _window(session: Any, spec: Any, reference: str, seconds: float, min_ops: int = MIN_OPS
            ) -> tuple[list[float], int, tuple[float, float]]:
    """Closed loop of back-to-back runs; returns (run times, mismatches, window).

    Only ``Session.run`` is timed: each result is checked after its timer
    stops, so the checks add to the window's span but not to its run times.
    """
    times: list[float] = []
    failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        t0 = time.perf_counter()
        result = session.run(spec)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if result.to_json() != reference:
            failed += 1
        if t1 >= deadline and len(times) >= min_ops:
            return times, failed, (start, time.perf_counter())


def _session_cold_start(spec: Any, recorder: "Recorder | None" = None
                        ) -> tuple[Any, Any, tuple[float, float]]:
    """A fresh ``Session`` up to its first result: (session, result, span)."""
    from repro.api import Session

    with Tracer(recorder) if recorder is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        session = Session()
        result = session.run(spec)
        t1 = time.perf_counter()
    return session, result, (t0, t1)


def _first_checks(bench: BatchWorkload, session: Any, spec: Any,
                  first: Any) -> tuple[list[str], dict[str, Any]]:
    problems, exact = bench.check(session, spec, first)
    exact.update({k: first.summary[k] for k in ("n_pairs", "n_accepted", "n_undefined")})
    return problems, exact


def _warm_up(session: Any, spec: Any, reference: str, seconds: float,
             problems: list[str]) -> None:
    _, failed, _ = _window(session, spec, reference, seconds, min_ops=1)
    if failed:
        problems.append(f"{failed} warm-up runs differ from the first result")


def run_batch(name: str, seed: int, seconds: float, trace: bool, cold_starts: int,
              workdir: Path, trace_file: Path) -> Outcome:
    from repro.api import Workload

    bench = BATCH[name]
    raw, hashes = bench.build(seed, workdir)
    spec = Workload.from_dict(raw)
    hashes["workload"] = sha256(spec.to_json())
    warm_s = min(WARMUP_S, seconds)
    if trace:
        return _traced_batch(bench, spec, seconds, warm_s, hashes, trace_file)

    # Each cold start's session runs its share of the warm-up and the window:
    # a session keeps the speed it starts with (filter-cascade's sessions
    # differ by up to 25%), so one session would make the whole window fast
    # or slow.
    cold: list[float] = []
    times: list[float] = []
    rss: list[float] = []
    failed = 0
    for i in range(cold_starts):
        session, result, (t0, t1) = _session_cold_start(spec)
        cold.append(t1 - t0)
        with session:
            if i == 0:
                reference, first = reference_json(result), result
                problems, exact = _first_checks(bench, session, spec, first)
            elif result.to_json() != reference:
                problems.append("a cold start's result differs from the first")
            _warm_up(session, spec, reference, warm_s / cold_starts, problems)
            reset_peak_rss()
            part, part_failed, _ = _window(session, spec, reference, seconds / cold_starts)
            rss.append(peak_rss_mb())
        times += part
        failed += part_failed
    metrics = {
        "setup_s": statistics.median(cold),
        **window_metrics(times, len(times) * first.summary["n_pairs"], sum(times)),
        "peak_rss_mb": max(rss),
    }
    return Outcome(metrics, len(times), failed, problems, exact, hashes, _modelled(first),
                   len(times), info_metrics(times, sum(times)))


def _traced_batch(bench: BatchWorkload, spec: Any, seconds: float, warm_s: float,
                  hashes: dict[str, str], trace_file: Path) -> Outcome:
    """One traced cold start, then an untraced and a traced half window."""
    recorder = Recorder()
    session, first, cold_span = _session_cold_start(spec, recorder)
    with session:
        reference = reference_json(first)
        problems, exact = _first_checks(bench, session, spec, first)
        _warm_up(session, spec, reference, warm_s, problems)
        plain, plain_failed, _ = _window(session, spec, reference, seconds / 2)
        with Tracer(recorder):
            times, failed, window = _window(session, spec, reference, seconds / 2)
    metrics = traced_metrics(recorder, window, cold_span, times, plain, exact)
    recorder.dump(trace_file)
    return Outcome(metrics, len(plain) + len(times), plain_failed + failed, problems, exact,
                   hashes, _modelled(first), len(times), trace_file=str(trace_file))


def traced_metrics(recorder: Recorder, window: tuple[float, float],
                   cold: tuple[float, float], traced: list[float], plain: list[float],
                   exact: dict[str, Any], **serve: float) -> dict[str, float]:
    """Every per-layer metric of a traced window."""
    metrics = layer_metrics(recorder, window)
    plain_p50 = statistics.median(plain)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced) - plain_p50) / plain_p50
    metrics["setup.input_build_s"] = input_build_s(recorder, cold)
    metrics["align.false_accept_pct"] = exact.get("false_accept_pct", 0.0)
    metrics["serve.overhead_pct"] = serve.get("overhead_pct", 0.0)
    metrics["serve.worker_busy_frac"] = serve.get("worker_busy_frac", 0.0)
    return metrics


# --------------------------------------------------------------------------- #
# serve-mixed: a daemon subprocess and two closed-loop client threads
# --------------------------------------------------------------------------- #
SERVE_WORKERS = 2
CLIENTS = 2


def serve_requests(seed: int) -> list[dict[str, Any]]:
    """The three request types the clients cycle through."""
    return [
        dataset_workload(seed, 2_000, ["gatekeeper-gpu"], mode="memory", verify=False),
        dataset_workload(seed, 2_000, ["shouji", "sneakysnake"], dataset="Set 4",
                         mode="memory", verify=False),
        dataset_workload(seed, 2_000, ["gatekeeper-gpu"], mode="streaming", chunk_size=500,
                         verify=False),
    ]


class Daemon:
    """A ``repro serve`` subprocess (``spans_file``: traced, via ``daemon.py``)."""

    def __init__(self, workdir: Path, index: int, spans_file: "Path | None" = None) -> None:
        self.ready = workdir / f"daemon-{index}.ready"
        self.log = workdir / f"daemon-{index}.log"
        flags = ["--port", "0", "--workers", str(SERVE_WORKERS), "--queue-depth", "8",
                 "--ready-file", str(self.ready)]
        if spans_file is None:
            cmd = [sys.executable, "-m", "repro.serve", *flags]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("daemon.py")), str(spans_file),
                   *flags]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path("src").resolve()), os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep))
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env)
        self.traced = spans_file is not None
        self.port = 0

    def wait_ready(self, timeout: float = 60.0) -> int:
        deadline = time.perf_counter() + timeout
        while not self.ready.exists() or not self.ready.read_text().endswith("\n"):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"serve daemon did not start: {self.log.read_text()[-2000:]}")
            time.sleep(0.002)
        self.port = int(json.loads(self.ready.read_text())["port"])
        return self.port

    def terminate(self) -> None:
        """Ask for a graceful drain (SIGTERM) without waiting for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)

    def reap(self, deadline: float) -> None:
        """Wait for the terminated daemon to exit; kill it at ``deadline``.

        The daemon is idle by then, so it drains at once, but it then waits
        out a 5 s join of its accept thread (see the README's findings).  A
        traced daemon is given 30 s more, to write its spans.
        """
        timeout = deadline - time.perf_counter() + (30.0 if self.traced else 0.0)
        try:
            self.proc.wait(timeout=max(timeout, 0.0))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Daemons:
    """Every daemon a run spawns; all are terminated and reaped on exit.

    A terminated daemon drains in the background while the run goes on;
    all are reaped together at the end.
    """

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.spawned: list[Daemon] = []

    def spawn(self, spans_file: "Path | None" = None) -> Daemon:
        daemon = Daemon(self.workdir, len(self.spawned), spans_file)
        self.spawned.append(daemon)
        return daemon

    def __enter__(self) -> "Daemons":
        return self

    def __exit__(self, *exc_info: object) -> None:
        for daemon in self.spawned:
            daemon.terminate()
        deadline = time.perf_counter() + 1.0
        for daemon in self.spawned:
            daemon.reap(deadline)


def _drive(port: int, requests: list[dict[str, Any]], seconds: float
           ) -> tuple[list[tuple[int, float, Any]], tuple[float, float]]:
    """Closed loop: each client sends its next request when the last returns.

    Returns ``(type, seconds, response dict or error)`` per request and the
    window from the start signal to the last response.
    """
    from repro.serve.client import ServeClient, ServeError

    records: list[tuple[int, float, Any]] = []
    start_gate = threading.Barrier(CLIENTS + 1)
    clock: dict[str, float] = {}

    def client(index: int) -> None:
        conn = ServeClient(port=port, client_id=f"bench-{index}", timeout_s=60.0)
        start_gate.wait()
        deadline = clock["start"] + seconds
        k = index
        while True:
            kind = k % len(requests)
            k += 1
            t0 = time.perf_counter()
            try:
                response: Any = conn.run(requests[kind])
            except ServeError as exc:
                response = exc
            t1 = time.perf_counter()
            records.append((kind, t1 - t0, response))
            if t1 >= deadline:
                clock[f"end{index}"] = t1
                return

    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    clock["start"] = time.perf_counter()
    start_gate.wait()
    for thread in threads:
        thread.join()
    return records, (clock["start"], max(v for k, v in clock.items() if k != "start"))


def _mismatches(records: list[tuple[int, float, Any]], expected: list[str]) -> int:
    from repro.serve.protocol import canonical_result_json

    return sum(
        1 for kind, _, response in records
        if not isinstance(response, dict) or canonical_result_json(response) != expected[kind]
    )


def _status_run_time(port: int) -> float:
    from repro.serve.client import ServeClient

    return float(ServeClient(port=port).status()["totals"]["run_time_s"])


def _daemon_cold_start(daemons: Daemons, requests: list[dict[str, Any]], expected: list[str],
                       spans_file: "Path | None" = None
                       ) -> tuple[Daemon, tuple[float, float], bool]:
    """Spawn a daemon and time it to the first response of every request type."""
    from repro.serve.client import ServeClient, ServeError

    t0 = time.perf_counter()
    daemon = daemons.spawn(spans_file)
    client = ServeClient(port=daemon.wait_ready(), client_id="bench-cold")
    responses: list[Any] = []
    for request in requests:
        try:
            responses.append(client.run(request))
        except ServeError as exc:
            responses.append(exc)
    t1 = time.perf_counter()
    ok = _mismatches([(k, 0.0, r) for k, r in enumerate(responses)], expected) == 0
    return daemon, (t0, t1), ok


def run_serve(seed: int, seconds: float, trace: bool, cold_starts: int, workdir: Path,
              trace_file: Path) -> Outcome:
    from repro.api import Session, Workload

    requests = serve_requests(seed)
    specs = [Workload.from_dict(r) for r in requests]
    with Session() as local:
        results = [local.run(spec) for spec in specs]
    expected = [reference_json(r) for r in results]
    hashes = {f"request{i}": sha256(spec.to_json()) for i, spec in enumerate(specs)}
    exact = {f"request{i}": {k: r.summary[k] for k in ("n_pairs", "n_accepted", "n_undefined")}
             for i, r in enumerate(results)}
    modelled = {f"{k}.request{i}": v for i, r in enumerate(results)
                for k, v in _modelled(r).items()}
    pairs = [r.summary["n_pairs"] for r in results]
    problems: list[str] = []

    def start(daemons: Daemons, spans_file: "Path | None" = None
              ) -> tuple[Daemon, tuple[float, float]]:
        daemon, window, ok = _daemon_cold_start(daemons, requests, expected, spans_file)
        if not ok:
            problems.append("a cold-start response differs from the local run")
        return daemon, window

    def measure(daemon: Daemon, warm_s: float, window_s: float
                ) -> tuple[list, int, tuple[float, float], float, float]:
        """Warm up, then drive the window.

        Returns the window's requests, mismatches and span, and the daemon's
        busy time and peak resident memory during it.
        """
        warm, _ = _drive(daemon.port, requests, warm_s)
        if _mismatches(warm, expected):
            problems.append("a warm-up response differs from the local run")
        busy = _status_run_time(daemon.port)
        reset_peak_rss(daemon.proc.pid)
        records, window = _drive(daemon.port, requests, window_s)
        rss = peak_rss_mb(daemon.proc.pid)
        busy = _status_run_time(daemon.port) - busy
        return records, _mismatches(records, expected), window, busy, rss

    warm_s = min(WARMUP_S, seconds)
    if not trace:
        # As in run_batch, each cold start's daemon serves its share of the
        # warm-up and the window.
        cold: list[float] = []
        records: list[tuple[int, float, Any]] = []
        rss: list[float] = []
        failed = 0
        span = 0.0
        with Daemons(workdir) as daemons:
            for _ in range(cold_starts):
                daemon, (t0, t1) = start(daemons)
                cold.append(t1 - t0)
                part, part_failed, (w0, w1), _, part_rss = measure(
                    daemon, warm_s / cold_starts, seconds / cold_starts)
                daemon.terminate()
                records += part
                failed += part_failed
                span += w1 - w0
                rss.append(part_rss)
        times = [t for _, t, _ in records]
        done = sum(pairs[k] for k, _, r in records if isinstance(r, dict))
        metrics = {
            "setup_s": statistics.median(cold),
            **window_metrics(times, done, span),
            "peak_rss_mb": max(rss),
        }
        return Outcome(metrics, len(records), failed, problems, exact, hashes, modelled,
                       len(records), info_metrics(times, span))

    with Daemons(workdir) as daemons:
        daemon, cold_window = start(daemons, trace_file)
        traced, traced_failed, window, busy, _ = measure(daemon, warm_s, seconds / 2)
        daemon.terminate()
        plain, plain_failed, _, _, _ = measure(start(daemons)[0], warm_s, seconds / 2)
    recorder = Recorder.load(trace_file)
    traced_times = [t for _, t, _ in traced]
    roundtrip = statistics.median(traced_times)
    daemon_run = statistics.median(
        s[3] - s[2] for s in recorder.spans
        if s[1] == "api.run" and window[0] <= s[2] and s[3] <= window[1])
    metrics = traced_metrics(
        recorder, window, cold_window, traced_times, [t for _, t, _ in plain], exact,
        overhead_pct=100.0 * (roundtrip - daemon_run) / roundtrip,
        worker_busy_frac=busy / (SERVE_WORKERS * (window[1] - window[0])),
    )
    return Outcome(metrics, len(traced) + len(plain), traced_failed + plain_failed, problems,
                   exact, hashes, modelled, len(traced), trace_file=str(trace_file))


def run(name: str, seed: int, seconds: float, trace: bool, cold_starts: int,
        workdir: Path, trace_file: Path) -> Outcome:
    """Run one workload in this process and return what it measured."""
    if name == "serve-mixed":
        return run_serve(seed, seconds, trace, cold_starts, workdir, trace_file)
    return run_batch(name, seed, seconds, trace, cold_starts, workdir, trace_file)

