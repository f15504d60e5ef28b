"""Cluster model: simulated backends, controller and emulated clients.

The controller reproduces the middleware's routing decisions (read-one /
write-all, least-pending-requests-first, partial replication placement,
early response).  It has no query result cache: the paper's cache result
(Table 1) is counted on the real middleware instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.simulation.core import Simulator
from repro.planner.costmodel import CostModel, TPCW_COST_MODEL
from repro.simulation.resources import Server
from repro.workloads.profile import InteractionProfile, StatementClass, StatementProfile


# ---------------------------------------------------------------------------
# configuration and result containers
# ---------------------------------------------------------------------------


@dataclass
class SimulationConfig:
    """Everything needed to run one cluster simulation."""

    interactions: Dict[str, InteractionProfile]
    mix: object  # a TPCWMix: needs .sample(rng), .sample_think_time(rng)
    backends: int = 1
    cpus_per_backend: int = 2
    #: "single" (no middleware replication), "full" (RAIDb-1), "partial" (RAIDb-2)
    replication: str = "full"
    #: for partial replication: table name -> set of backend indices hosting it;
    #: tables absent from the map are fully replicated
    table_placement: Dict[str, Set[int]] = field(default_factory=dict)
    clients: int = 100
    mean_think_time: Optional[float] = None
    warmup: float = 60.0
    measurement: float = 300.0
    cost_model: CostModel = field(default_factory=lambda: TPCW_COST_MODEL)
    early_response: bool = True
    seed: int = 1


@dataclass
class SimulationResult:
    """Metrics over the measurement window (paper-figure units)."""

    configuration: str
    backends: int
    sql_requests_per_minute: float
    interactions_per_minute: float
    avg_response_time_ms: float
    backend_cpu_utilization: float
    controller_cpu_utilization: float
    statements_executed: int
    interactions_executed: int

    def as_dict(self) -> dict:
        return {
            "configuration": self.configuration,
            "backends": self.backends,
            "sql_requests_per_minute": round(self.sql_requests_per_minute, 1),
            "interactions_per_minute": round(self.interactions_per_minute, 1),
            "avg_response_time_ms": round(self.avg_response_time_ms, 1),
            "backend_cpu_utilization": round(self.backend_cpu_utilization, 3),
            "controller_cpu_utilization": round(self.controller_cpu_utilization, 3),
        }


# ---------------------------------------------------------------------------
# simulated components
# ---------------------------------------------------------------------------


class SimulatedBackend:
    """One backend database: a queueing server plus its hosted tables."""

    def __init__(self, simulator: Simulator, index: int, cpus: int):
        self.index = index
        self.name = f"backend{index}"
        self.server = Server(simulator, self.name, cpus=cpus)

    @property
    def pending_requests(self) -> int:
        return self.server.queue_length


class SimulatedController:
    """Routes statements to backends the way the middleware would."""

    def __init__(self, simulator: Simulator, config: SimulationConfig):
        self.simulator = simulator
        self.config = config
        self.cost_model = config.cost_model
        self.backends = [
            SimulatedBackend(simulator, index, config.cpus_per_backend)
            for index in range(config.backends)
        ]
        self.server = Server(simulator, "controller", cpus=config.cpus_per_backend)
        self.statements_routed = 0

    # -- placement ----------------------------------------------------------------------

    def backends_hosting(self, tables: Sequence[str]) -> List[SimulatedBackend]:
        """Backends hosting *all* the given tables (read candidates)."""
        if self.config.replication != "partial" or not tables:
            return self.backends
        indices: Optional[Set[int]] = None
        for table in tables:
            placement = self.config.table_placement.get(table.lower())
            hosted = placement if placement is not None else set(range(len(self.backends)))
            indices = hosted if indices is None else indices & hosted
        if not indices:
            # Misconfigured placement: fall back to every backend rather than
            # dropping the statement (matches the middleware's behaviour of
            # refusing such configurations up front).
            return self.backends
        return [self.backends[i] for i in sorted(indices)]

    def backends_hosting_any(self, tables: Sequence[str]) -> List[SimulatedBackend]:
        """Backends hosting *any* of the given tables (write targets)."""
        if self.config.replication != "partial" or not tables:
            return self.backends
        indices: Set[int] = set()
        for table in tables:
            placement = self.config.table_placement.get(table.lower())
            hosted = placement if placement is not None else set(range(len(self.backends)))
            indices |= hosted
        return [self.backends[i] for i in sorted(indices)]

    # -- statement execution ----------------------------------------------------------------

    def execute_statement(
        self, statement: StatementProfile, on_complete: Callable[[], None]
    ) -> None:
        """Execute one abstract statement; call ``on_complete`` when the client
        may proceed (i.e. when the middleware would answer the client)."""
        self.statements_routed += 1
        if statement.is_read:
            self._execute_read(statement, on_complete)
        else:
            self._execute_write(statement, on_complete)

    def _execute_read(
        self, statement: StatementProfile, on_complete: Callable[[], None]
    ) -> None:
        if statement.statement_class is StatementClass.READ_BESTSELLER:
            self._execute_bestseller(statement, on_complete)
            return
        candidates = self.backends_hosting(statement.tables)
        backend = min(candidates, key=lambda b: (b.pending_requests, b.index))
        service = self.cost_model.read_service_time(
            statement.statement_class, statement.cost_factor
        )
        self.server.submit(self.cost_model.controller_per_statement, None)
        backend.server.submit(service, on_complete)

    def _execute_bestseller(
        self, statement: StatementProfile, on_complete: Callable[[], None]
    ) -> None:
        """The best-seller query: temp table on every replica of order_line,
        final select on one of them (paper §6.3)."""
        temp_targets = self.backends_hosting_any(("order_line",))
        chosen = min(temp_targets, key=lambda b: (b.pending_requests, b.index))
        select_cost = self.cost_model.read_service_time(
            StatementClass.READ_BESTSELLER, statement.cost_factor
        )
        temp_cost = self.cost_model.bestseller_temp_table * statement.cost_factor
        self.server.submit(self.cost_model.controller_per_statement, None)
        for backend in temp_targets:
            if backend is chosen:
                backend.server.submit(temp_cost + select_cost, on_complete)
            else:
                backend.server.submit(temp_cost, None)

    def _execute_write(
        self, statement: StatementProfile, on_complete: Callable[[], None]
    ) -> None:
        targets = self.backends_hosting_any(statement.tables)
        service = self.cost_model.write_service_time(
            statement.statement_class, statement.cost_factor
        )
        self.server.submit(self.cost_model.controller_per_statement, None)
        if self.config.early_response:
            # Early response: answer the client as soon as the first backend
            # has executed the write; the others continue asynchronously.
            completed = {"done": False}

            def first_done():
                if not completed["done"]:
                    completed["done"] = True
                    on_complete()

            for backend in targets:
                backend.server.submit(service, first_done)
        else:
            remaining = {"count": len(targets)}

            def one_done():
                remaining["count"] -= 1
                if remaining["count"] == 0:
                    on_complete()

            for backend in targets:
                backend.server.submit(service, one_done)


class ClientSession:
    """One emulated browser: closed loop of think time + interaction."""

    def __init__(
        self,
        simulator: Simulator,
        controller: SimulatedController,
        config: SimulationConfig,
        metrics: "MetricsCollector",
        seed: int,
    ):
        self.simulator = simulator
        self.controller = controller
        self.config = config
        self.metrics = metrics
        self.rng = random.Random(seed)
        self._statements: Tuple[StatementProfile, ...] = ()
        self._statement_index = 0
        self._interaction_start = 0.0

    def start(self) -> None:
        # Stagger session starts over the first think time to avoid a thundering herd.
        self.simulator.schedule(self.rng.uniform(0, self._think_time()), self._begin_interaction)

    # -- interaction loop ----------------------------------------------------------------------

    def _think_time(self) -> float:
        if self.config.mean_think_time is not None:
            mean = self.config.mean_think_time
            return min(self.rng.expovariate(1.0 / mean), mean * 10) if mean > 0 else 0.0
        return self.config.mix.sample_think_time(self.rng)

    def _begin_interaction(self) -> None:
        interaction = self.config.interactions[self.config.mix.sample(self.rng)]
        self._statements = interaction.statements
        self._statement_index = 0
        self._interaction_start = self.simulator.now
        self._next_statement()

    def _next_statement(self) -> None:
        if self._statement_index >= len(self._statements):
            self._finish_interaction()
            return
        statement = self._statements[self._statement_index]
        self._statement_index += 1
        statement_start = self.simulator.now

        def statement_done():
            self.metrics.record_statement(self.simulator.now, self.simulator.now - statement_start)
            self._next_statement()

        self.controller.execute_statement(statement, statement_done)

    def _finish_interaction(self) -> None:
        response_time = self.simulator.now - self._interaction_start
        self.metrics.record_interaction(self.simulator.now, response_time)
        self.simulator.schedule(self._think_time(), self._begin_interaction)


class MetricsCollector:
    """Counts statements/interactions and response times inside the window."""

    def __init__(self, window_start: float, window_end: float):
        self.window_start = window_start
        self.window_end = window_end
        self.statements = 0
        self.interactions = 0
        self.total_interaction_response = 0.0

    def record_statement(self, now: float, response_time: float) -> None:
        if self.window_start <= now <= self.window_end:
            self.statements += 1

    def record_interaction(self, now: float, response_time: float) -> None:
        if self.window_start <= now <= self.window_end:
            self.interactions += 1
            self.total_interaction_response += response_time

    @property
    def avg_interaction_response(self) -> float:
        if self.interactions == 0:
            return 0.0
        return self.total_interaction_response / self.interactions


# ---------------------------------------------------------------------------
# top-level simulation
# ---------------------------------------------------------------------------


class ClusterSimulation:
    """Assemble the cluster, run the closed-loop workload, report metrics."""

    def __init__(self, config: SimulationConfig, label: str = ""):
        self.config = config
        self.label = label or f"{config.replication}-{config.backends}"
        self.simulator = Simulator()
        self.controller = SimulatedController(self.simulator, config)

    def run(self) -> SimulationResult:
        config = self.config
        window_start = config.warmup
        window_end = config.warmup + config.measurement
        metrics = MetricsCollector(window_start, window_end)
        for client_index in range(config.clients):
            session = ClientSession(
                self.simulator,
                self.controller,
                config,
                metrics,
                seed=config.seed * 100003 + client_index,
            )
            session.start()

        # Busy-time bookkeeping for utilisation over the measurement window.
        self.simulator.run_until(window_start)
        backend_busy_at_start = [b.server.busy_time for b in self.controller.backends]
        controller_busy_at_start = self.controller.server.busy_time
        self.simulator.run_until(window_end)

        window = config.measurement
        backend_utilizations = [
            backend.server.utilization(window, busy_start)
            for backend, busy_start in zip(self.controller.backends, backend_busy_at_start)
        ]
        minutes = window / 60.0
        return SimulationResult(
            configuration=self.label,
            backends=config.backends,
            sql_requests_per_minute=metrics.statements / minutes,
            interactions_per_minute=metrics.interactions / minutes,
            avg_response_time_ms=metrics.avg_interaction_response * 1000.0,
            backend_cpu_utilization=(
                sum(backend_utilizations) / len(backend_utilizations)
                if backend_utilizations
                else 0.0
            ),
            controller_cpu_utilization=self.controller.server.utilization(
                window, controller_busy_at_start
            ),
            statements_executed=metrics.statements,
            interactions_executed=metrics.interactions,
        )


def tpcw_partial_placement(backend_count: int, replicas_for_write_tables: int = 2) -> Dict[str, Set[int]]:
    """Partial-replication placement used for the TPC-W figures.

    Read-mostly tables (item, author, customer, address, country) are fully
    replicated; write-heavy tables of the ordering path (orders, order_line,
    cc_xacts, shopping_cart, shopping_cart_line) live on
    ``replicas_for_write_tables`` backends.  Because ``order_line`` is the
    table the best-seller temporary table is built from, this placement
    "limits the temporary table creation to 2 backends" exactly as described
    in §6.3.
    """
    write_heavy = ("orders", "order_line", "cc_xacts", "shopping_cart", "shopping_cart_line")
    replicas = min(replicas_for_write_tables, backend_count)
    placement = {table: set(range(replicas)) for table in write_heavy}
    return placement
