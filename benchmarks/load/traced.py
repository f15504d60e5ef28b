"""The traced run: one client, spans around every layer's public entry point.

Separate from the timed runs (which carry no instrumentation at all), this
builds an in-process fixture from the workload's descriptor, adds the
``tracing`` interceptor and replays the same seeded operation stream through
it with one client.  ``src/`` is not changed by the benchmark, so the spans
are recorded from here: the fixture's own objects — its request managers, its
backends, its group replicas — get their public entry points wrapped, per
instance, by a recorder (no class or module is patched, and nothing of this
exists in the load run).

Every operation ``0..N`` of the stream runs through the ``driver`` lane; the
first ``slow_ops`` of them also run through the ``untraced``, ``engine`` and
``remote`` lanes (one slow layer dominates each — the engine's full scans, the
wire stall — hence the shorter prefix).  Each lane is a tight loop of its own,
and lanes that are subtracted from each other run back to back — untraced,
driver ``0..slow_ops``, engine, the rest of the driver lane, remote — because
this host changes speed by tens of percent for seconds to minutes at a time.

``driver``
    ``driver.op`` around the in-process driver's prepared ``execute`` calls of
    one operation; nested inside it, one tree per operation:
    ``group.execute`` (replicated vdbs, writes only) →
    ``request_manager.execute`` → the pipeline's own inclusive stage spans
    (from the tracing interceptor: a duration, no clock times) →
    ``backend.execute_request``.
``remote``
    ``remote.op``: the same operation over ``cjdbc://host:port`` against the
    fixture's own TCP front-end.  The wire path enters the request manager
    directly, so it cannot nest the in-process driver: ``net.self`` is the
    difference of the two lanes over the same operations.
``engine``
    ``engine.op`` → ``engine.execute``: the same statements on a bare,
    identically populated engine through its DB-API cursor — the
    single-database baseline.
``untraced``
    before the interceptor is added, the first ``slow_ops`` operations
    in-process; against the driver lane's ``request_manager.execute`` this is
    the tracing overhead (tracing also forces the staged chain, so it includes
    what the fused read path saves).

A span is ``{id, op, pass, name, parent, start_us, end_us, duration_us}`` plus
tags; spans of one operation share ``op``.  ``compared_with`` on a
``remote.op`` or ``engine.execute`` span names the driver-lane span (the
operation's root; the backend or request that ran the statement) it is
subtracted from.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import statistics
import time
from typing import Dict, List, Optional

import repro
from repro.net.protocol import (
    MessageType,
    decode_frame_payload,
    encode_frame,
    result_frames,
    result_from_frames,
)
from repro.sql import DatabaseEngine, dbapi

from snapshot import counters, delta, snapshot
from workloads import VDB, descriptor, execute, make_stream, populate

#: pipeline stages, outermost first (each stage's span contains the next one's)
STAGES = (
    "classify",
    "authenticate",
    "schedule",
    "cache_lookup",
    "transaction",
    "recovery_log",
    "cache_invalidate",
    "plan",
    "load_balance",
)

#: mix operations run (unspanned) after the stream's own warm-up, so parsing
#: caches, plan caches and service-time EWMAs are settled before op 0
SETTLE_OPS = 50
PINGS = 200


class Recorder:
    """In-memory span store; one operation is in flight at a time."""

    def __init__(self):
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._origin = time.perf_counter()
        #: operation being traced (None: warm-up, population — record nothing)
        self.op: Optional[int] = None
        self.phase = "driver"
        #: (layer, controller) -> the open span, for parent lookup across threads
        self.open_spans: Dict[tuple, dict] = {}

    def _now_us(self) -> float:
        return (time.perf_counter() - self._origin) * 1e6

    def open(self, name: str, parent: Optional[int], **tags) -> dict:
        span = {
            "id": next(self._ids),
            "op": self.op,
            "pass": self.phase,
            "name": name,
            "parent": parent,
            "start_us": self._now_us(),
            "end_us": None,
            "duration_us": None,
            **tags,
        }
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end_us"] = self._now_us()
        span["duration_us"] = span["end_us"] - span["start_us"]

    def wrap(self, target, attribute: str, name: str, key: tuple, parents, keep=None) -> None:
        """Record a ``name`` span around every call of ``target.attribute``.

        The span is registered as open under ``key`` = ``(layer, controller)``;
        ``parents`` lists the keys to look for an open parent under, nearest
        first.  ``keep(span, args, result)`` may stash call details.
        """
        inner = getattr(target, attribute)
        tags = {"controller": key[1]} if key[1] else {}

        def traced(*args, **kwargs):
            if self.op is None:
                return inner(*args, **kwargs)
            parent = next((self.open_spans[k]["id"] for k in parents if k in self.open_spans), None)
            span = self.open(name, parent, **tags)
            self.open_spans[key] = span
            try:
                result = inner(*args, **kwargs)
                if keep is not None:
                    keep(span, args, result)
                return result
            finally:
                self.close(span)
                self.open_spans.pop(key, None)

        setattr(target, attribute, traced)


class _EngineStatement:
    """Prepared-statement look-alike over a bare engine cursor; one span per execute."""

    def __init__(self, recorder: Recorder, cursor, sql: str):
        self._recorder, self._cursor, self._sql = recorder, cursor, sql
        self._rows = None

    def execute(self, parameters) -> None:
        recorder, cursor = self._recorder, self._cursor
        span = None
        if recorder.op is not None:
            span = recorder.open("engine.execute", recorder.open_spans[("driver", None)]["id"])
        cursor.execute(self._sql, parameters)
        # a backend span covers fetching the rows too
        self._rows = cursor.fetchall() if cursor.description is not None else None
        if span is not None:
            recorder.close(span)

    @property
    def description(self):
        return self._cursor.description

    @property
    def rowcount(self) -> int:
        return self._cursor.rowcount

    def fetchall(self):
        return self._rows


class _Lane:
    """One way of running the stream: its own stream copy, statements and root span."""

    def __init__(self, run: "TracedRun", phase: str, statements, warm_statements=None):
        self.phase = phase
        self.stream = make_stream(run.workload, run.seed, 0, clients=1, quick=run.quick)
        self.statements = statements(self.stream.statements)
        warm = self.statements if warm_statements is None else warm_statements(self.stream.statements)
        # the same operations precede op 0 in every lane, so their streams and
        # models stay in step
        for op in self.stream.warmup() + [self.stream.next() for _ in range(SETTLE_OPS)]:
            self.stream.acknowledge(op, execute(warm, op))
        self.roots: List[dict] = []

    def step(self, recorder: Recorder, index: int) -> None:
        op = self.stream.next()
        recorder.op, recorder.phase = index, self.phase
        root = recorder.open(f"{self.phase}.op", None, kind=op.kind, op_name=op.name)
        if self.phase != "remote":  # server-side spans of a wire op have no in-process parent
            recorder.open_spans[("driver", None)] = root
        try:
            results = execute(self.statements, op)
        finally:
            recorder.close(root)
            recorder.open_spans.pop(("driver", None), None)
            recorder.op = None
        self.stream.acknowledge(op, results)
        self.roots.append(root)


@contextlib.contextmanager
def _collector_off():
    """Run the spanned part of a pass with the cyclic garbage collector off.

    With it on, what a lane costs depends on the heap it happens to run in —
    the spans recorded so far, the fixture's tables — by up to 40% on TPC-W's
    joins, which showed as the bare engine costing more than the backend that
    wraps it.  Lanes are compared with each other, so they must run under one
    regime; the timed load run keeps the collector as shipped.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _mean(values) -> Optional[float]:
    values = list(values)
    return statistics.fmean(values) if values else None


def _codec_us(sql: str, parameters, result) -> float:
    """Encode and decode one request and its result the way the wire does."""
    body = {"statement_id": 1, "parameters": list(parameters), "transaction_id": None, "sql": sql}
    started = time.perf_counter()
    decode_frame_payload(encode_frame(MessageType.EXECUTE_PREPARED, body)[4:])
    header, chunks = None, []
    for message_type, reply in result_frames(result):
        decoded_type, decoded = decode_frame_payload(encode_frame(message_type, reply)[4:])
        if decoded_type is MessageType.RESULT_HEADER:
            header = decoded
        elif decoded_type is MessageType.RESULT_ROWS:
            chunks.append(decoded["rows"])
    result_from_frames(header, iter(chunks))
    return (time.perf_counter() - started) * 1e6


class TracedRun:
    """Build the fixture, run the lanes, derive the per-layer timings."""

    def __init__(self, workload: str, seed: int, ops: int, slow_ops: int, quick: bool = False):
        self.workload = workload
        self.seed = seed
        self.ops = ops
        self.slow_ops = min(slow_ops, ops)
        self.quick = quick
        self.recorder = Recorder()
        self.metrics: Dict[str, Optional[float]] = {}
        self.samples: Dict[str, int] = {}

    # -- fixture ---------------------------------------------------------------------

    def _boot(self) -> None:
        self.cluster = repro.load_cluster(
            descriptor(self.workload), registry=repro.ControllerRegistry()
        )
        connection = self.cluster.connect(VDB)
        populate(connection, self.workload, quick=self.quick)
        connection.close()
        self.cluster.start_servers()
        self.origin = self.cluster.controllers_for(VDB)[0].name
        recorder = self.recorder
        for controller in self.cluster.controllers_for(VDB):
            name = controller.name
            replica = self.cluster.replicas.get((name, VDB))
            if replica is not None:
                recorder.wrap(replica, "execute", "group.execute", ("group", name), [("driver", None)])
            manager = self.cluster.virtual_database(VDB, name).request_manager
            for entry in ("execute", "execute_request"):
                recorder.wrap(
                    manager, entry, "request_manager.execute", ("request_manager", name),
                    [("group", self.origin), ("driver", None)], self._keep_request,
                )
            for backend in manager.backends:
                recorder.wrap(
                    backend, "execute_request", "backend.execute_request", ("backend", name),
                    [("request_manager", name)],
                    lambda span, args, result, backend=backend: span.update(backend=backend.name),
                )

    def _keep_request(self, span, args, result) -> None:
        # the codec timing re-encodes exactly what crossed (or would cross) the wire
        if span["pass"] == "driver" and span["op"] < self.slow_ops:
            if isinstance(args[0], str):  # execute(sql, parameters, ...)
                sql, parameters = args[0], args[1] if len(args) > 1 else ()
            else:  # execute_request(request)
                sql, parameters = args[0].sql, args[0].parameters
            span["_wire"] = (sql, parameters, result)

    def _quiesce(self) -> None:
        """Wait until every replica applied every multicast write."""
        replicas = list(self.cluster.replicas.values())
        deadline = time.monotonic() + 5.0
        while replicas and time.monotonic() < deadline:
            applied = {r.group_status()["last_applied_sequence"] for r in replicas}
            if len(applied) == 1:
                return
            time.sleep(0.01)

    # -- the run ---------------------------------------------------------------------

    def run(self) -> "TracedRun":
        self._boot()
        try:
            self._run_lanes()
        finally:
            self.cluster.shutdown()
        return self

    def _run_lanes(self) -> None:
        recorder, cluster = self.recorder, self.cluster
        local = cluster.connect(VDB)

        def prepared_on(connection):
            return lambda statements: {sql: connection.prepare(sql) for sql in statements}

        untraced = _Lane(self, "untraced", prepared_on(local))
        with _collector_off():
            for index in range(self.slow_ops):
                untraced.step(recorder, index)
        tracing = cluster.virtual_database(VDB, self.origin).add_interceptor(
            {"name": "tracing", "max_traces": 4 * self.ops + 64}
        )

        remote = repro.connect(cluster.remote_url(VDB))
        engine_connection = dbapi.connect(DatabaseEngine("baseline"))
        populate(engine_connection, self.workload, quick=self.quick)
        cursor = engine_connection.cursor()
        # the wire lane warms up in-process: sweeping the hot set through the
        # wire stall would cost 10 s and the cache is the fixture's either way
        wire = _Lane(self, "remote", prepared_on(remote), warm_statements=prepared_on(local))
        engine = _Lane(
            self, "engine",
            lambda statements: {sql: _EngineStatement(recorder, cursor, sql) for sql in statements},
        )
        # last, so that like the untraced lane it runs straight off its own warm-up
        driver = _Lane(self, "driver", prepared_on(local))

        session = remote.current_controller.get_virtual_database(VDB)
        frames = session.frames
        self._quiesce()
        before = counters(snapshot(cluster))
        wire_before = (frames.frames_in + frames.frames_out, frames.bytes_in + frames.bytes_out)
        # every lane runs as a tight loop (an operation timed right after a
        # 44 ms stall or someone else's table scan runs on a cold core), and
        # lanes that are subtracted from each other run back to back
        with _collector_off():
            for index in range(self.slow_ops):
                driver.step(recorder, index)
            for index in range(self.slow_ops):
                engine.step(recorder, index)
            for index in range(self.slow_ops, self.ops):
                driver.step(recorder, index)
            for index in range(self.slow_ops):
                wire.step(recorder, index)
        self._quiesce()
        window = delta(before, counters(snapshot(cluster)))
        wire_frames = frames.frames_in + frames.frames_out - wire_before[0]
        wire_bytes = frames.bytes_in + frames.bytes_out - wire_before[1]

        pings = []
        for _ in range(20 if self.quick else PINGS):
            started = time.perf_counter()
            session.ping()
            pings.append((time.perf_counter() - started) * 1e6)
        remote.close()
        local.close()
        engine_connection.close()

        by_op = self._index_driver_lane(driver.roots, tracing.traces())
        self._derive(by_op, wire.roots, pings)

        # one client, so these counts repeat exactly for a seed; the fixture ran
        # the first operations twice (driver and wire lane)
        writes = sum(root["kind"] == "write" for root in driver.roots + wire.roots)
        exact = {
            "net.frames_per_op": wire_frames / self.slow_ops,
            "net.bytes_per_op": wire_bytes / self.slow_ops,
            "cache.invalidated_per_write": (
                window["cache_invalidations"] / writes
                if writes and window["cache_enabled"]
                else None
            ),
            "recovery.entries_per_write": window["recovery_entries"] / writes if writes else None,
            "group.messages_per_write": (
                window["group_messages"] / writes if writes and cluster.replicas else None
            ),
        }
        self.metrics.update(exact)
        for name in exact:
            self.samples[name] = self.slow_ops if name.startswith("net.") else writes

    def _index_driver_lane(self, roots: List[dict], traces: List[dict]) -> Dict[int, dict]:
        """Group the driver lane's spans per operation and add the stage spans."""
        recorder = self.recorder
        by_op = {root["op"]: {"root": root, "group": [], "requests": [], "engine": []} for root in roots}
        traced_requests: List[dict] = []
        backends: Dict[int, List[dict]] = {}
        for span in recorder.spans:
            at_origin = span.get("controller") == self.origin
            if span["name"] == "request_manager.execute" and at_origin and span["pass"] != "untraced":
                traced_requests.append(span)  # wire-lane requests left a trace too
            if span["pass"] == "engine" and span["name"] == "engine.execute":
                by_op[span["op"]]["engine"].append(span)
            if span["pass"] != "driver":
                continue
            if span["name"] == "group.execute" and at_origin:
                by_op[span["op"]]["group"].append(span)
            elif span["name"] == "request_manager.execute" and at_origin:
                by_op[span["op"]]["requests"].append(span)
            elif span["name"] == "backend.execute_request":
                backends.setdefault(span["parent"], []).append(span)
        # the interceptor keeps one trace per request in completion order, which
        # with one client is the order the request spans were opened in
        for request, trace in zip(traced_requests, traces[len(traces) - len(traced_requests):]):
            if request["pass"] != "driver":
                continue
            request["sql"] = trace["sql"]
            request["_stages"] = {
                name: trace["stages"][name] * 1000.0 for name in STAGES if name in trace["stages"]
            }
            request["_backends"] = backends.get(request["id"], [])
            parent = request["id"]
            recorder.op, recorder.phase = request["op"], "driver"
            for name, duration in request["_stages"].items():
                stage = recorder.open(f"pipeline.{name}", parent, controller=self.origin)
                stage.update(start_us=None, duration_us=duration)
                parent = stage["id"]
            if "load_balance" in request["_stages"]:
                for backend in request["_backends"]:
                    backend["parent"] = parent
        recorder.op = None
        return by_op

    def _derive(self, by_op: Dict[int, dict], wire_roots: List[dict], pings: List[float]) -> None:
        metrics, samples = self.metrics, self.samples
        slow = range(self.slow_ops)

        def op_sum(op: int, key: str) -> float:
            return sum(span["duration_us"] for span in by_op[op][key])

        driver = {op: by_op[op]["root"]["duration_us"] for op in by_op}
        manager = {op: op_sum(op, "requests") for op in by_op}
        below_driver = {
            op: op_sum(op, "group") if by_op[op]["group"] else manager[op] for op in by_op
        }
        metrics["driver.self_us_per_op"] = _mean(driver[op] - below_driver[op] for op in by_op)
        metrics["pipeline.total_us_per_op"] = _mean(manager.values())
        samples["driver.self_us_per_op"] = samples["pipeline.total_us_per_op"] = len(by_op)

        # stage self time = its inclusive span minus the next stage's; the last
        # stage's child is the slowest backend (a broadcast waits for all)
        stage_self = {name: 0.0 for name in STAGES}
        backend_total, broadcast_overhead, backend_calls = 0.0, [], 0
        for op in by_op:
            for request in by_op[op]["requests"]:
                present = list(request.get("_stages", {}).items())
                slowest = max((b["duration_us"] for b in request.get("_backends", ())), default=0.0)
                backend_total += slowest
                backend_calls += bool(request.get("_backends"))
                for index, (name, inclusive) in enumerate(present):
                    inner = present[index + 1][1] if index + 1 < len(present) else slowest
                    stage_self[name] += inclusive - inner
                if by_op[op]["root"]["kind"] == "write" and "load_balance" in dict(present):
                    broadcast_overhead.append(dict(present)["load_balance"] - slowest)
        for name, total in stage_self.items():
            metrics[f"pipeline.self_us.{name}"] = total / len(by_op)
            samples[f"pipeline.self_us.{name}"] = len(by_op)
        metrics["backend.execute_us_per_op"] = backend_total / len(by_op)
        samples["backend.execute_us_per_op"] = backend_calls
        metrics["balancer.broadcast_overhead_us_per_write"] = _mean(broadcast_overhead)
        samples["balancer.broadcast_overhead_us_per_write"] = len(broadcast_overhead)

        group = [
            op_sum(op, "group") - manager[op]
            for op in by_op
            if by_op[op]["root"]["kind"] == "write" and by_op[op]["group"]
        ]
        metrics["group.self_us_per_write"] = _mean(group) if self.cluster.replicas else None
        samples["group.self_us_per_write"] = len(group)

        untraced = [
            span["duration_us"]
            for span in self.recorder.spans
            if span["pass"] == "untraced"
            and span["name"] == "request_manager.execute"
            and span.get("controller") == self.origin
        ]
        traced = sum(manager[op] for op in slow)
        metrics["pipeline.tracing_overhead_pct"] = (traced - sum(untraced)) / sum(untraced) * 100.0
        samples["pipeline.tracing_overhead_pct"] = len(untraced)

        # cross-lane comparisons over the same leading operations
        wire_mean = _mean(root["duration_us"] for root in wire_roots)
        engine_mean = _mean(op_sum(op, "engine") for op in slow)
        backend_self, codec = [], []
        for op in slow:
            wire_roots[op]["compared_with"] = by_op[op]["root"]["id"]
            codec.append(sum(_codec_us(*r.pop("_wire")) for r in by_op[op]["requests"]))
            for request, call in zip(by_op[op]["requests"], by_op[op]["engine"]):
                served = max(request.get("_backends", ()), key=lambda b: b["duration_us"], default=None)
                call["compared_with"] = (served or request)["id"]
                if served is not None:
                    backend_self.append(served["duration_us"] - call["duration_us"])
        metrics["net.self_us_per_op"] = wire_mean - _mean(driver[op] for op in slow)
        metrics["net.rtt_us"] = statistics.median(pings)
        metrics["net.codec_us_per_op"] = _mean(codec)
        metrics["sql.execute_us_per_op"] = engine_mean
        metrics["backend.self_us_per_op"] = (
            sum(backend_self) / self.slow_ops if backend_self else None
        )
        metrics["mw.overhead_us_per_op"] = wire_mean - engine_mean
        metrics["mw.share"] = (wire_mean - engine_mean) / wire_mean
        for name in ("net.self_us_per_op", "net.codec_us_per_op", "sql.execute_us_per_op",
                     "mw.overhead_us_per_op", "mw.share"):
            samples[name] = self.slow_ops
        samples["net.rtt_us"] = len(pings)
        samples["backend.self_us_per_op"] = len(backend_self)

    def span_records(self) -> List[dict]:
        """Spans as written to ``--trace-out`` (private scratch keys dropped)."""
        return [
            {key: value for key, value in span.items() if not key.startswith("_")}
            for span in self.recorder.spans
        ]
