"""Configuration layer: build virtual databases from declarative descriptions.

The real C-JDBC is configured through an XML file per virtual database.  The
equivalent here is a plain dictionary (or keyword arguments) consumed by
:class:`VirtualDatabaseConfig` / :func:`build_virtual_database`, covering the
same knobs: replication level (RAIDb-0/1/2 or single), load-balancing
policy, wait-for-completion (early response), scheduler, result cache and
its granularity and relaxation rules, recovery log and authentication.

One definition per knob.  The config dataclasses below are also the schema
of the cluster descriptor (:mod:`repro.cluster.descriptor` derives its specs
from them): a field declared with :func:`repro.core.schema.key` is a
descriptor key, and that one declaration carries its kind, bounds, default
and — for enums — the name -> builder table the value selects from, which is
the same table :func:`build_virtual_database` builds from.  To add a knob:
declare the field here, use it in a builder, document it in README.md (a
tier-1 test compares README's tables with the schema).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.core.authentication import AuthenticationManager
from repro.core.backend import DatabaseBackend
from repro.core.cache import RelaxationRule, ResultCache
from repro.core.cache.granularity import granularity_from_name
from repro.core.connection_manager import (
    FailFastPoolConnectionManager,
    RandomWaitPoolConnectionManager,
    SimpleConnectionManager,
    VariablePoolConnectionManager,
)
from repro.core.faults import build_fault_injector, parse_faults_section
from repro.core.loadbalancer import (
    RAIDb0LoadBalancer,
    RAIDb1LoadBalancer,
    RAIDb2LoadBalancer,
    SingleDBLoadBalancer,
    WaitForCompletion,
    policy_from_name,
)
from repro.core.pipeline import build_interceptors
from repro.core.recovery.recovery_log import FileRecoveryLog, MemoryRecoveryLog
from repro.core.request_manager import RequestManager
from repro.core.requestparser import RequestFactory
from repro.core.scheduler import build_scheduler, parse_scheduler
from repro.core.schema import Key, key, parse_value
from repro.core.virtualdb import VirtualDatabase
from repro.errors import ConfigurationError
from repro.planner import RoutingConfig, RoutingWeights
from repro.sql import dbapi
from repro.sql.engine import DatabaseEngine
from repro.sql.metadata import DatabaseMetaData


# ---------------------------------------------------------------------------
# name -> builder tables: the value sets of the enum knobs
# ---------------------------------------------------------------------------

_ALIASES = {
    "fail_fast": "failfast",
    "random_wait": "randomwait",
    "singledb": "single",
    "raidb-0": "raidb0",
    "partition": "raidb0",
    "raidb-1": "raidb1",
    "full": "raidb1",
    "raidb-2": "raidb2",
    "partial": "raidb2",
}


class _Builders(dict):
    """The name -> builder table of one enum knob (``what`` names it in errors)."""

    def __init__(self, what: str, builders: Mapping[str, Callable]):
        super().__init__(builders)
        self.what = what

    def lookup(self, name: str) -> Callable:
        """The builder ``name`` selects: case-insensitive, ``_ALIASES`` honoured."""
        lowered = name.lower()
        builder = self.get(_ALIASES.get(lowered, lowered))
        if builder is None:
            raise ConfigurationError(f"unknown {self.what} {name!r}")
        return builder

    def knob(self, default: str):
        """A descriptor key (and dataclass field) whose values are this table's names."""
        return key(str, default, choices=tuple(self), resolve=self.lookup)


_CONNECTION_MANAGERS = _Builders(
    "connection manager",
    {
        "simple": lambda factory, pool_size: SimpleConnectionManager(factory),
        "failfast": lambda factory, pool_size: FailFastPoolConnectionManager(
            factory, pool_size=pool_size
        ),
        "randomwait": lambda factory, pool_size: RandomWaitPoolConnectionManager(
            factory, pool_size=pool_size
        ),
        "variable": lambda factory, pool_size: VariablePoolConnectionManager(
            factory, initial_pool_size=pool_size
        ),
    },
)

#: builders take the config plus the read policy / wait-for-completion pair
_LOAD_BALANCERS = _Builders(
    "replication level",
    {
        "single": lambda config, **common: SingleDBLoadBalancer(**common),
        "raidb0": lambda config, **common: RAIDb0LoadBalancer(
            partition_map=config.partition_map, **common
        ),
        "raidb1": lambda config, **common: RAIDb1LoadBalancer(**common),
        "raidb2": lambda config, **common: RAIDb2LoadBalancer(
            replication_map={t: set(b) for t, b in config.replication_map.items()}, **common
        ),
    },
)

_RECOVERY_LOGS = _Builders(
    "recovery log specification", {"none": lambda: None, "memory": MemoryRecoveryLog}
)


def _recovery_log_builder(spec: str) -> Callable:
    if spec.lower().startswith("file:"):
        return lambda: FileRecoveryLog(spec[len("file:") :])
    return _RECOVERY_LOGS.lookup(spec)


def _scheduler_option(value: Any, where: str) -> Any:
    """The ``scheduler:`` knob, validated by the scheduler's own schema section."""
    parse_scheduler(value, where)
    return dict(value) if isinstance(value, Mapping) else value


def _interceptor_specs(value: Any, where: str) -> List[Any]:
    """The ``interceptors:`` list, validated by actually building every entry.

    The raw specs are kept; the virtual database materializes them again at
    boot.
    """
    specs = parse_value(Key(list), value, where)
    build_interceptors(specs, where=where)
    return [dict(spec) if isinstance(spec, Mapping) else spec for spec in specs]


# ---------------------------------------------------------------------------
# the declarative configs (and descriptor schema)
# ---------------------------------------------------------------------------


@dataclass
class BackendConfig:
    """Description of one backend attached to a virtual database."""

    name: str = key(str)
    #: an engine to create a local backend for, or None when a custom
    #: connection factory is supplied
    engine: Optional[DatabaseEngine] = None
    connection_factory: Optional[Callable[[], object]] = None
    metadata_factory: Optional[Callable[[], object]] = None
    weight: int = key(int, 1, minimum=1)
    # simple | failfast | randomwait | variable
    connection_manager: str = _CONNECTION_MANAGERS.knob("variable")
    pool_size: int = key(int, 10, minimum=1)
    static_schema: Optional[Sequence[str]] = None
    #: validated ``faults:`` document ({"seed": ..., "rules": [...]}) arming
    #: a deterministic fault injector on the backend at build time
    faults: Optional[Dict[str, Any]] = key(parse_faults_section, None)


@dataclass
class VirtualDatabaseConfig:
    """Declarative description of a virtual database."""

    name: str = key(str)
    backends: List[BackendConfig] = field(default_factory=list)
    # single | raidb0 | raidb1 | raidb2
    replication: str = _LOAD_BALANCERS.knob("raidb1")
    load_balancing_policy: str = key(
        str, "lprf", choices=("lprf", "rr", "wrr"), resolve=policy_from_name
    )
    wait_for_completion: str = key(
        str,
        "all",
        choices=tuple(wait.value for wait in WaitForCompletion),
        resolve=lambda name: WaitForCompletion(name.lower()),
    )
    #: scheduler name (passthrough | optimistic | pessimistic | table_lock |
    #: mvcc) or an options mapping ({"name": "table_lock", "lock_timeout": 2})
    scheduler: Any = key(_scheduler_option, "optimistic")
    lazy_transaction_begin: bool = key(bool, True)
    cache_enabled: bool = key(bool, False, name="cache.enabled")
    cache_granularity: str = key(
        str,
        "table",
        name="cache.granularity",
        choices=("column", "database", "table"),
        resolve=granularity_from_name,
    )
    cache_max_entries: int = key(int, 10000, name="cache.max_entries", minimum=1)
    cache_relaxation_rules: List[RelaxationRule] = key(
        list, factory=list, name="cache.relaxation_rules", item=Key(RelaxationRule)
    )
    #: entries in the SQL parsing cache (0 disables it)
    parsing_cache_size: int = key(
        int,
        1024,
        minimum=0,
        message="expected a non-negative integer number of cached statements"
        " (0 disables the parsing cache)",
    )
    #: pipeline interceptors: built-in names ("tracing"), option mappings
    #: ({"name": "rate_limit", "max_requests": 100}) or Interceptor instances
    interceptors: List[Any] = key(_interceptor_specs, factory=list)
    # none | memory | file:<path>
    recovery_log: str = key(
        str, "memory", choices=(*_RECOVERY_LOGS, "file:<path>"), resolve=_recovery_log_builder
    )
    users: Dict[str, str] = key(dict, factory=dict, item=Key(str, empty=True))
    transparent_authentication: bool = key(bool, True)
    group_name: Optional[str] = key(
        str,
        None,
        message="must be a non-empty group name (omit the key for a non-replicated vdb)",
    )
    #: table -> backend names, for RAIDb-2 DDL placement
    replication_map: Dict[str, List[str]] = key(
        dict, factory=dict, item=Key(list, item=Key(str))
    )
    #: table -> backend name, for RAIDb-0 DDL placement
    partition_map: Dict[str, str] = key(dict, factory=dict, item=Key(str))
    #: reads failing this many times on one backend disable it
    read_error_threshold: int = key(
        int, 3, name="failure_detector.read_error_threshold", minimum=1
    )
    #: automatically re-integrate disabled backends from the recovery log
    auto_resync: bool = key(bool, False, name="failure_detector.auto_resync")
    #: query routing: "policy" leaves read selection to the configured read
    #: policy, "cost" routes each read to the cheapest capable backend
    routing_policy: str = RoutingConfig.policy
    #: allow multi-table reads over disjoint RAIDb-2 partitions to scatter
    #: per-table fragments and merge them on the controller
    routing_scatter_gather: bool = RoutingConfig.scatter_gather
    #: cost-formula weight overrides: service_time, pending, pool
    routing_weights: Dict[str, float] = field(default_factory=dict)


def build_virtual_database(config: VirtualDatabaseConfig) -> VirtualDatabase:
    """Instantiate a virtual database (and all its components) from a config."""
    backends = []
    engines: Dict[str, DatabaseEngine] = {}
    for backend_config in config.backends:
        backend = _build_backend(backend_config)
        backends.append(backend)
        if backend_config.engine is not None:
            engines[backend_config.name] = backend_config.engine

    if config.parsing_cache_size < 0:
        raise ConfigurationError(
            f"parsing_cache_size must be >= 0 (0 disables the parsing cache),"
            f" got {config.parsing_cache_size}"
        )
    build_load_balancer = _LOAD_BALANCERS.lookup(config.replication)
    request_manager = RequestManager(
        backends=[],
        scheduler=build_scheduler(config.scheduler),
        load_balancer=build_load_balancer(
            config,
            read_policy=policy_from_name(config.load_balancing_policy),
            wait_for_completion=WaitForCompletion(config.wait_for_completion.lower()),
        ),
        result_cache=_build_cache(config),
        recovery_log=_recovery_log_builder(config.recovery_log)(),
        request_factory=RequestFactory(parsing_cache_size=config.parsing_cache_size),
        lazy_transaction_begin=config.lazy_transaction_begin,
        routing=RoutingConfig(
            policy=config.routing_policy.lower(),
            scatter_gather=config.routing_scatter_gather,
            weights=RoutingWeights(**config.routing_weights),
        ),
    )
    authentication = AuthenticationManager(transparent=config.transparent_authentication)
    for login, password in config.users.items():
        authentication.add_virtual_user(login, password)

    virtual_database = VirtualDatabase(
        name=config.name,
        request_manager=request_manager,
        authentication_manager=authentication,
        group_name=config.group_name,
        interceptors=config.interceptors,
        read_error_threshold=config.read_error_threshold,
        auto_resync=config.auto_resync,
    )
    # Attach backends through the public assembly path so engine registration
    # (checkpoint/restore support) is not duplicated here.
    for backend in backends:
        virtual_database.add_backend(backend, engine=engines.get(backend.name), enable=True)
    return virtual_database


# ---------------------------------------------------------------------------
# component builders
# ---------------------------------------------------------------------------


def _build_backend(config: BackendConfig) -> DatabaseBackend:
    if config.connection_factory is not None:
        factory = config.connection_factory
        metadata_factory = config.metadata_factory
    elif config.engine is not None:
        engine = config.engine
        factory = lambda: dbapi.connect(engine)  # noqa: E731 - closure over engine
        metadata_factory = lambda: DatabaseMetaData(engine)  # noqa: E731
    else:
        raise ConfigurationError(
            f"backend {config.name!r} needs either an engine or a connection factory"
        )
    build_manager = _CONNECTION_MANAGERS.lookup(config.connection_manager)
    backend = DatabaseBackend(
        name=config.name,
        connection_factory=factory,
        connection_manager=build_manager(factory, config.pool_size),
        weight=config.weight,
        static_schema=config.static_schema,
        metadata_factory=metadata_factory,
    )
    if config.faults:
        backend.set_fault_injector(build_fault_injector(config.faults))
    return backend


def _build_cache(config: VirtualDatabaseConfig) -> Optional[ResultCache]:
    if not config.cache_enabled:
        return None
    return ResultCache(
        granularity=granularity_from_name(config.cache_granularity),
        max_entries=config.cache_max_entries,
        relaxation_rules=config.cache_relaxation_rules,
    )
