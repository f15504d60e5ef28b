"""Concurrent-client load benchmark over the real TCP driver.

    python benchmarks/load/run.py [--workload W] [--seed S] [--duration 15]
                                  [--repeat K] [--out FILE] [--trace-out FILE]

Per workload: a controller child process (``server.py``) is started and
populated, two closed-loop client threads connect through
``repro.connect("cjdbc://host:port/db")`` and run the seeded operation stream
with prepared statements — warm-up, then a measured window with the child's
``stats`` sampled at both edges — and the outputs are checked.  A separate
traced run (``traced.py``) gives the per-layer timings.  Every metric is
printed by name with its unit; a failed correctness check exits non-zero.

The benchmark driver's contract is the same program: ``--seconds`` is
``--duration``, and ``--trace 0|1`` selects one workload's end-to-end or
per-layer metrics, printed as one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402
from repro.errors import ReproError  # noqa: E402

from snapshot import counters, delta  # noqa: E402
from traced import TracedRun  # noqa: E402
from workloads import CLIENTS, WORKLOADS, execute, make_stream  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}

WARMUP_SECONDS = 3.0
#: operations of the traced run's driver pass / of its wire and bare-engine passes
TRACE_OPS = {"tpcw_browse": (300, 40)}
TRACE_OPS_DEFAULT = (2000, 100)
TRACE_OPS_QUICK = (20, 6)
#: p99 needs ten samples beyond it
P99_MIN_SAMPLES = 1000


# ---------------------------------------------------------------------------
# the controller child
# ---------------------------------------------------------------------------


class Server:
    """The ``server.py`` child: started, asked one-line questions, always stopped."""

    def __init__(self, workload: str, quick: bool):
        command = [sys.executable, str(HERE / "server.py"), "--workload", workload]
        if quick:
            command.append("--quick")
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        watchdog = threading.Timer(120.0, self.process.kill)
        watchdog.start()
        try:
            self.ready = self._read()
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"server child exited with code {self.process.wait()}")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.write("quit\n")
                self.process.stdin.close()
                self.process.wait(timeout=15)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                self.process.kill()
        self.process.wait()
        self.process.stdout.close()


def client_url(url: str, client: int) -> str:
    """The cluster URL with the controller list rotated, so client ``i`` of a
    replicated vdb talks to controller ``i`` first."""
    parsed = repro.parse_url(url)
    names = list(parsed.controllers)
    shift = client % len(names)
    return f"cjdbc://{','.join(names[shift:] + names[:shift])}/{parsed.database}"


class Setup:
    """Child started, cluster booted, populated and listening, clients connected."""

    def __init__(self, workload: str, seed: int, quick: bool):
        self.started = time.perf_counter()
        self.server = Server(workload, quick)
        self.streams = [make_stream(workload, seed, c, quick=quick) for c in range(CLIENTS)]
        self.connections, self.statements, connect_ms = [], [], []
        try:
            for client, stream in enumerate(self.streams):
                connecting = time.perf_counter()
                connection = repro.connect(client_url(self.server.ready["url"], client))
                self.connections.append(connection)
                self.statements.append({sql: connection.prepare(sql) for sql in stream.statements})
                connect_ms.append((time.perf_counter() - connecting) * 1e3)
        except BaseException:
            self.close()
            raise
        self.ready_s = time.perf_counter() - self.started
        self.connect_ms = statistics.fmean(connect_ms)

    def close(self) -> None:
        for connection in self.connections:
            try:
                connection.close()
            except ReproError:
                pass
        self.server.stop()


# ---------------------------------------------------------------------------
# the load run
# ---------------------------------------------------------------------------


class Client(threading.Thread):
    """One closed-loop client: the next operation starts when the reply is in."""

    def __init__(self, index: int, setup: Setup, run: "LoadRun"):
        super().__init__(name=f"load-client-{index}", daemon=True)
        self.stream = setup.streams[index]
        self.statements = setup.statements[index]
        self.load = run
        #: (kind, seconds) of every operation completed inside the window
        self.latencies: List[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.generator_s = 0.0
        self.finished_at = 0.0
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self._phases()
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            self.error = exc
            self.load.barrier.abort()

    def _operation(self, record: bool) -> None:
        before = time.perf_counter()
        op = self.stream.next()
        started = time.perf_counter()
        try:
            results = execute(self.statements, op)
        except ReproError:
            if record:
                self.attempted += 1
                self.failed += 1
            return
        finished = time.perf_counter()
        self.stream.acknowledge(op, results)
        if record:
            self.attempted += 1
            self.latencies.append((op.kind, finished - started))
            self.generator_s += (started - before) + (time.perf_counter() - finished)
            self.finished_at = finished

    def _phases(self) -> None:
        load = self.load
        warm_until = time.perf_counter() + load.warmup_s
        for op in self.stream.warmup():
            self.stream.acknowledge(op, execute(self.statements, op))
        while time.perf_counter() < warm_until:
            self._operation(record=False)
        load.barrier.wait()  # warm: the main thread samples the window's start
        load.barrier.wait()  # go
        while time.perf_counter() < load.deadline:
            self._operation(record=True)
        load.barrier.wait()  # done: the main thread samples the window's end


def percentile(ordered: List[float], share: float) -> float:
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


class LoadRun:
    """One timed run of one workload: set-up(s), warm-up, window, checks."""

    def __init__(self, workload, seed, duration, warmup_s, quick):
        self.workload = workload
        self.seed = seed
        self.duration = duration
        self.warmup_s = warmup_s
        self.quick = quick
        self.barrier = threading.Barrier(CLIENTS + 1, timeout=170.0)
        self.deadline = 0.0
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, Optional[float]] = {}
        self.samples: Dict[str, int] = {}
        self.checks: Dict[str, bool] = {}
        self.server_pids: List[int] = []

    def run(self) -> "LoadRun":
        setup = Setup(self.workload, self.seed, self.quick)
        self.server_pids.append(setup.server.ready["pid"])
        try:
            self._measure(setup)
        finally:
            setup.close()
        return self

    def _measure(self, setup: Setup) -> None:
        server = setup.server
        clients = [Client(index, setup, self) for index in range(CLIENTS)]
        for client in clients:
            client.start()
        try:
            self.barrier.wait()
            warm = time.perf_counter()
            start = server.ask("stats")
            cpu_start = time.process_time()
            window_start = time.perf_counter()
            self.deadline = window_start + self.duration
            self.barrier.wait()
            self.barrier.wait()
            cpu_end = time.process_time()
            end = server.ask("stats")
        except threading.BrokenBarrierError:
            errors = [client.error for client in clients if client.error is not None]
            raise RuntimeError(f"a load client died: {errors!r}") from (errors or [None])[0]
        for client in clients:
            client.join(timeout=30.0)

        latencies = sorted(seconds for c in clients for _, seconds in c.latencies)
        completed = len(latencies)
        if not completed:
            raise RuntimeError("no operation completed inside the window")
        self.attempted = sum(c.attempted for c in clients)
        self.failed = sum(c.failed for c in clients)
        elapsed = max(c.finished_at for c in clients) - window_start
        self.end_to_end = {
            # everything before the window: child start, boot, population,
            # connections, warm-up.  The CPU-bound share alone (cluster.ready_s)
            # follows this host's speed by up to +60%; the warm-up, paced by a
            # clock or by the wire, steadies the sum
            "setup_s": warm - setup.started,
            "ops_per_s": completed / elapsed,
            "lat_p50_ms": percentile(latencies, 0.50) * 1e3,
            "server_peak_rss_mb": end["rss_kb"] / 1024.0,
        }
        self.per_layer = {
            "lat_p95_ms": percentile(latencies, 0.95) * 1e3,
            "server_cpu_ms_per_op": (end["cpu_before"] - start["cpu_after"]) * 1e3 / completed,
            "client_cpu_ms_per_op": (cpu_end - cpu_start) * 1e3 / completed,
        }
        self.samples = {name: completed for name in (*self.end_to_end, *self.per_layer)}
        self.samples["setup_s"] = 1
        self.samples["server_peak_rss_mb"] = 1

        window = delta(counters(start), counters(end))
        self._load_counters(window, clients, latencies, server.ready, setup)
        self._check(setup, window, clients)

    def _load_counters(self, window, clients, latencies, ready, setup) -> None:
        """Per-layer metrics that only a concurrent run can give."""
        completed = len(latencies)

        def ratio(numerator, denominator, scale=1.0):
            return numerator / denominator * scale if denominator else None

        by_kind = {
            kind: sorted(s for c in clients for k, s in c.latencies if k == kind)
            for kind in ("read", "write")
        }
        layer = self.per_layer
        for kind, values in by_kind.items():
            layer[f"driver.{kind}_p50_ms"] = percentile(values, 0.5) * 1e3 if values else None
            self.samples[f"driver.{kind}_p50_ms"] = len(values)
        layer["driver.lat_p99_ms"] = (
            percentile(latencies, 0.99) * 1e3 if completed >= P99_MIN_SAMPLES else None
        )
        layer["driver.fail_share"] = self.failed / self.attempted
        layer["parser.hit_ratio"] = ratio(
            window["requests"] - window["parse_misses"], window["requests"]
        )
        layer["scheduler.write_wait_ms_per_write"] = ratio(
            window["write_wait_s"], window["writes"], 1e3
        )
        layer["scheduler.read_wait_ms_per_read"] = ratio(window["read_wait_s"], window["reads"], 1e3)
        cache_on = window["cache_enabled"]
        layer["cache.hit_ratio"] = (
            ratio(window["cache_hits"], window["cache_hits"] + window["cache_misses"])
            if cache_on
            else None
        )
        layer["cache.entries"] = window["cache_entries"] if cache_on else None
        backend_reads = window["backend_reads"].values()
        layer["balancer.read_share_max"] = ratio(max(backend_reads), sum(backend_reads))
        layer["cluster.boot_s"] = ready["boot_s"]
        layer["cluster.populate_s"] = ready["populate_s"]
        layer["cluster.connect_ms"] = setup.connect_ms
        layer["cluster.ready_s"] = setup.ready_s
        layer["gen.overhead_us_per_op"] = sum(c.generator_s for c in clients) * 1e6 / completed
        for name in ("driver.lat_p99_ms", "driver.fail_share", "gen.overhead_us_per_op"):
            self.samples[name] = completed
        for name in ("cache.entries", "cluster.boot_s", "cluster.populate_s", "cluster.ready_s"):
            self.samples[name] = 1
        self.samples["cluster.connect_ms"] = CLIENTS
        self.samples["parser.hit_ratio"] = window["requests"]
        self.samples["scheduler.write_wait_ms_per_write"] = window["writes"]
        self.samples["scheduler.read_wait_ms_per_read"] = window["reads"]
        self.samples["cache.hit_ratio"] = window["cache_hits"] + window["cache_misses"]
        self.samples["balancer.read_share_max"] = sum(backend_reads)

    def _check(self, setup: Setup, window, clients) -> None:
        """The correctness checks that end every load run."""
        server = setup.server
        # a replicated vdb applies remote writes asynchronously: let it settle
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            group = server.ask("stats")["group"]
            if len({status["last_applied_sequence"] for status in group.values()}) <= 1:
                break
            time.sleep(0.05)
        digests = server.ask("digests")
        self.checks["replicas_identical"] = len({json.dumps(d, sort_keys=True) for d in digests.values()}) == 1
        self.checks["no_backend_disabled"] = not window["disabled_backends"]
        self.checks["every_result_as_modelled"] = not any(c.stream.wrong for c in clients)
        if self.workload != "tpcw_browse":
            connection = setup.connections[0]
            total = connection.execute("SELECT SUM(n) FROM kv").scalar() or 0
            rows = connection.execute("SELECT k, note FROM hist").fetchall()
            updates = sum(c.stream.updates for c in clients)
            # an operation that raised may or may not have been applied
            self.checks["sum_n_equals_acknowledged_updates"] = (
                updates <= total <= updates + self.failed
            )
            expected = sorted(
                (k, note) for c in clients for k, notes in c.stream.hist.items() for note in notes
            )
            self.checks["hist_holds_acknowledged_inserts"] = (
                sorted(tuple(row) for row in rows) == expected
                if not self.failed
                else set(expected) <= {tuple(row) for row in rows}
            )


# ---------------------------------------------------------------------------
# one workload: load run(s) + traced run
# ---------------------------------------------------------------------------


def run_workload(name, seed, duration, warmup, repeat, traced, quick) -> dict:
    """``repeat`` load runs of ``name`` (seeds ``seed``..) and, if ``traced``, one traced run.

    Returns the workload's result-file entry, plus ``spans`` when traced.
    """
    result = {
        "why": WORKLOADS[name],
        "seeds": [seed + index for index in range(repeat)],
        "end_to_end": {},
        "per_layer": {},
        "checks": {},
        "attempted": 0,
        "failed": 0,
        "server_pids": [],
    }
    runs = [
        LoadRun(name, seed + index, duration, warmup, quick).run()
        for index in range(repeat)
    ]
    for run in runs:
        result["attempted"] += run.attempted
        result["failed"] += run.failed
        result["server_pids"] += run.server_pids
        for check, passed in run.checks.items():
            result["checks"][check] = result["checks"].get(check, True) and passed
    result["correct"] = all(result["checks"].values())
    # the load-run share of the per-layer metrics comes from the first run
    per_layer = dict(runs[0].per_layer)
    samples = dict(runs[0].samples)
    for metric in END_TO_END:
        values = [run.end_to_end[metric] for run in runs]
        entry = {
            "unit": END_TO_END[metric]["unit"],
            "value": statistics.median(values),
            "runs": values,
            "samples": runs[0].samples[metric],
        }
        if len(values) >= 2:
            entry["q1"], _, entry["q3"] = statistics.quantiles(values, n=4)
        result["end_to_end"][metric] = entry
    if traced:
        ops, slow_ops = TRACE_OPS_QUICK if quick else TRACE_OPS.get(name, TRACE_OPS_DEFAULT)
        trace = TracedRun(name, seed, ops, slow_ops, quick).run()
        per_layer.update(trace.metrics)
        samples.update(trace.samples)
        result["spans"] = trace.span_records()
        result["trace_ops"] = {"driver": ops, "remote_engine_untraced": trace.slow_ops}
    for metric in PER_LAYER:
        if metric in per_layer:
            result["per_layer"][metric] = {
                "unit": PER_LAYER[metric]["unit"],
                "value": per_layer[metric],
                "samples": samples.get(metric, 0),
            }
    return result


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def print_metrics(name: str, result: dict) -> None:
    for section in ("end_to_end", "per_layer"):
        for metric, entry in result[section].items():
            value = entry["value"]
            shown = "null" if value is None else f"{value:.6g}"
            spread = ""
            if "q1" in entry:
                spread = f"  (q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, runs {len(entry['runs'])})"
            print(f"{name:18s} {metric:42s} {shown:>12s} {entry['unit']:6s} n={entry['samples']}{spread}")
    for check, passed in result["checks"].items():
        print(f"{name:18s} check {check:36s} {'ok' if passed else 'FAILED'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--duration", "--seconds", type=float, default=SPEC["run_seconds"],
                        help="measured window per run, seconds")
    parser.add_argument("--repeat", type=int, default=1,
                        help="load runs per workload (seeds S..S+K-1); feeds compare.py")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver contract: 0 = end-to-end metrics only, 1 = per-layer metrics;"
                             " the result is the last line of stdout")
    parser.add_argument("--quick", action="store_true",
                        help="smoke scale: tiny data, no cache sweep, short traced run")
    parser.add_argument("--out", help="write the result file (JSON) here")
    parser.add_argument("--trace-out", help="write the traced run's spans (JSON) here")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    warmup = 0.2 if args.quick else WARMUP_SECONDS

    document = {
        "meta": {
            "seed": args.seed,
            "duration_s": args.duration,
            "warmup_s": warmup,
            "clients": CLIENTS,
            "repeat": args.repeat,
            "quick": args.quick,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "git_commit": git_commit(),
        },
        "workloads": {},
    }
    spans = {}
    correct = True
    for name in [args.workload] if args.workload else list(WORKLOADS):
        result = run_workload(
            name, args.seed, args.duration, warmup, args.repeat,
            traced=args.trace != 0, quick=args.quick,
        )
        spans[name] = result.pop("spans", [])
        document["workloads"][name] = result
        print_metrics(name, result)
        correct = correct and result["correct"]
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1))
    if args.trace_out:
        Path(args.trace_out).write_text(json.dumps(spans))
    if args.trace is not None:
        result = document["workloads"][args.workload]
        section = "end_to_end" if args.trace == 0 else "per_layer"
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            # the contract wants a number for every metric: a layer that is
            # not on this workload's path (null in the result file) did no work
            "metrics": {
                metric: {"value": entry["value"] if entry["value"] is not None else 0.0,
                         "unit": entry["unit"]}
                for metric, entry in result[section].items()
            },
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
