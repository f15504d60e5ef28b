"""Declarative cluster descriptors (the XML virtual-database files of §2.2).

The real C-JDBC controller is configured with one XML document per virtual
database.  The Python equivalent here is a plain mapping — usually loaded
from a JSON or TOML file — describing a whole cluster at once::

    {
      "name": "my-cluster",
      "virtual_databases": [
        {
          "name": "mydb",
          "replication": "raidb1",
          "load_balancing_policy": "lprf",
          "cache": {"enabled": true, "granularity": "table"},
          "interceptors": ["tracing", {"name": "rate_limit", "max_requests": 500}],
          "recovery_log": "memory",
          "users": {"app": "secret"},
          "backends": [
            {"name": "node-a"},
            {"name": "node-b", "weight": 2}
          ]
        }
      ],
      "controllers": [
        {"name": "ctrl-a", "virtual_databases": ["mydb"]},
        {"name": "ctrl-b", "virtual_databases": ["mydb"]}
      ]
    }

:func:`load_descriptor` validates the document and returns a
:class:`ClusterDescriptor`; every validation error is a
:class:`ConfigurationError` whose message pinpoints the offending key
(``virtual_databases[0].backends[1].weight: ...``).  Backends name the
in-memory engine that backs them (``engine`` defaults to the backend name);
:meth:`VirtualDatabaseSpec.to_config` turns a spec into the
:class:`repro.core.config.VirtualDatabaseConfig` the existing builder
consumes, creating engines on demand.

One schema, one definition per key.  The spec dataclasses below *are* the
schema: a field declared with :func:`repro.core.schema.key` is a descriptor
key, and the declaration holds its kind, bounds and default — nothing else
in ``src/`` repeats them.  :class:`VirtualDatabaseSpec` and
:class:`BackendSpec` derive from the core config classes, so the keys they
share with programmatic configs are declared there
(:mod:`repro.core.config`) and only the descriptor-only keys here.
:func:`repro.core.schema.parse_section` does all per-key work (unknown
keys, types, ranges, enums, defaults, error paths); this module adds only
the rules that relate several keys, as explicit code in
:func:`parse_descriptor`.  To add a key: declare the field, document it in
README.md — a tier-1 test fails until both agree.

A virtual database with a ``group_name`` is *horizontal* (paper §4.1): each
controller listing it gets its own replica (with its own engines) and the
replicas are synchronised through group communication by the
:class:`repro.cluster.facade.Cluster` facade.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.core.config import BackendConfig, VirtualDatabaseConfig
from repro.core.retry import RETRY_OPTION_KEYS, RetryPolicy
from repro.core.schema import Key, check_keys, fail, key, parse_section, parse_value, quoted
from repro.errors import CJDBCError, ConfigurationError
from repro.net.server import DEFAULT_BACKLOG, DEFAULT_HOST, DEFAULT_MAX_CONNECTIONS
from repro.planner import ROUTING_POLICIES, RoutingConfig, RoutingWeights
from repro.sql.engine import DatabaseEngine

DescriptorSource = Union[Mapping, str, Path]


# ---------------------------------------------------------------------------
# validators for values another module owns
# ---------------------------------------------------------------------------


def _retry_policy(section: Any, where: str) -> RetryPolicy:
    """A ``retry:`` section: core/retry's URL options without the ``retry_`` prefix."""
    section = parse_value(Key(dict), section, where)
    check_keys(section, [option[len("retry_") :] for option in RETRY_OPTION_KEYS], where)
    try:
        return RetryPolicy.from_options(
            {f"retry_{name}": value for name, value in section.items()}
        ) or RetryPolicy()
    except CJDBCError as exc:
        fail(where, str(exc))


def _group_address(address: Any, where: str) -> str:
    host, _, port = parse_value(Key(str), address, where).rpartition(":")
    if not host or not port.isdigit() or not 0 <= int(port) <= 65535:
        fail(where, f"expected a 'host:port' group address, got {address!r}")
    return address


# ---------------------------------------------------------------------------
# the schema: one dataclass per descriptor section
# ---------------------------------------------------------------------------


@dataclass
class BackendSpec(BackendConfig):
    """One backend entry of a virtual database descriptor."""

    #: name of the in-memory engine backing it (default: the backend name)
    engine_name: Optional[str] = key(str, None, name="engine")

    def __post_init__(self) -> None:
        if self.engine_name is None:
            self.engine_name = self.name


@dataclass
class GroupSpec:
    """A grouped vdb's ``group:`` section: how its controllers communicate.

    Every controller gets its own group node running the one sequencer
    protocol; ``transport`` picks the link between the nodes: ``"inproc"``
    (the default) a dict lookup within the process, ``"tcp"`` framed sockets
    with heartbeat failure detection.  ``members`` optionally pins
    controllers to fixed ``host:port`` group addresses — controllers not
    listed bind an ephemeral port.
    """

    transport: str = key(str, "inproc", choices=("inproc", "tcp"))
    heartbeat_interval: float = key(float, 0.5, exclusive_minimum=0)
    heartbeat_threshold: int = key(int, 3, minimum=1)
    rpc_timeout: float = key(float, 10.0, exclusive_minimum=0)
    members: Dict[str, str] = key(dict, factory=dict, item=Key(_group_address))


@dataclass
class RoutingSpec:
    """A vdb's ``routing:`` section: how reads pick among capable backends.

    ``policy: "policy"`` (the default) keeps the classic behaviour — the
    configured read policy (rr/wrr/lprf) picks from the capable set.
    ``policy: "cost"`` routes each read to the cheapest capable backend by
    live cost estimate (measured service time × queue depth × pool
    pressure, weighted by ``weights``).  ``scatter_gather: true`` lets a
    multi-table read over disjoint RAIDb-2 partitions scatter per-table
    fragments and merge them on the controller instead of failing with
    :class:`~repro.errors.NotReplicatedError`.
    """

    policy: str = key(str, RoutingConfig.policy, choices=ROUTING_POLICIES)
    scatter_gather: bool = key(bool, RoutingConfig.scatter_gather)
    #: cost-formula weight overrides (pending / pool / service_time)
    weights: Dict[str, float] = key(
        dict,
        factory=dict,
        keys=[field.name for field in dataclasses.fields(RoutingWeights)],
        item=Key(float, minimum=0, maximum=100),
    )


@dataclass
class VirtualDatabaseSpec(VirtualDatabaseConfig):
    """One validated virtual database entry of a cluster descriptor."""

    backends: List[BackendSpec] = key(
        list, item=Key(BackendSpec, shorthand="name"), at_least_one="backend"
    )
    #: group-communication wiring of a horizontal vdb (None = inproc defaults)
    group: Optional[GroupSpec] = key(GroupSpec, None)
    #: client retry/backoff defaults for connections to this vdb
    retry: Optional[RetryPolicy] = key(_retry_policy, None)
    #: query routing configuration (None = policy routing, no scatter-gather);
    #: to_config copies it onto the inherited ``routing_*`` config fields
    routing: Optional[RoutingSpec] = key(RoutingSpec, None)

    @property
    def backend_names(self) -> List[str]:
        return [backend.name for backend in self.backends]

    def to_config(
        self,
        engines: Dict[str, DatabaseEngine],
        engine_prefix: str = "",
    ) -> VirtualDatabaseConfig:
        """Materialize a :class:`VirtualDatabaseConfig` from this spec.

        Engines are created on demand into ``engines`` (a cluster-wide pool,
        so two backends naming the same engine share one).  ``engine_prefix``
        namespaces the engines of one horizontal replica so that each
        controller of a group gets independent databases.  Every config gets
        private copies of the spec's mutable values.
        """
        values = _shared_values(self, VirtualDatabaseConfig)
        values["backends"] = []
        for backend in self.backends:
            engine_name = engine_prefix + backend.engine_name
            engine = engines.get(engine_name)
            if engine is None:
                engine = engines[engine_name] = DatabaseEngine(engine_name)
            values["backends"].append(
                BackendConfig(**{**_shared_values(backend, BackendConfig), "engine": engine})
            )
        if self.routing is not None:
            for name, value in _shared_values(self.routing, RoutingSpec).items():
                values[f"routing_{name}"] = value
        return VirtualDatabaseConfig(**values)


def _shared_values(spec: Any, cls: type) -> Dict[str, Any]:
    """Private copies of the values of the fields ``spec`` has from ``cls``."""
    return {
        field.name: copy.deepcopy(getattr(spec, field.name))
        for field in dataclasses.fields(cls)
    }


@dataclass
class ListenSpec:
    """A controller's ``listen:`` section: its TCP front-end configuration.

    ``port: 0`` binds an ephemeral port (useful for tests and examples);
    the actual port is reported by :meth:`ControllerServer.start`.
    """

    port: int = key(
        int,
        minimum=0,
        maximum=65535,
        message="expected a TCP port number (0-65535, 0 = ephemeral)",
    )
    host: str = key(str, DEFAULT_HOST)
    max_connections: int = key(int, DEFAULT_MAX_CONNECTIONS, minimum=1)
    idle_timeout: Optional[float] = key(
        float,
        None,
        exclusive_minimum=0,
        message="expected a positive number of seconds (or omit it)",
    )
    backlog: int = key(int, DEFAULT_BACKLOG, minimum=1)


@dataclass
class ControllerSpec:
    """One controller entry: a name plus the virtual databases it hosts."""

    name: str = key(str)
    #: hosted vdb names; a controller with no explicit list hosts every vdb
    virtual_databases: List[str] = key(list, factory=list, item=Key(str))
    #: TCP front-end configuration, or None for an in-process-only controller
    listen: Optional[ListenSpec] = key(ListenSpec, None)


@dataclass
class ClusterDescriptor:
    """A fully validated cluster description."""

    virtual_databases: List[VirtualDatabaseSpec] = key(
        list, item=Key(VirtualDatabaseSpec), at_least_one="virtual database"
    )
    #: omitting the section creates one default controller hosting every vdb
    controllers: List[ControllerSpec] = key(list, factory=list, item=Key(ControllerSpec))
    name: str = key(str, "cluster")

    def virtual_database(self, name: str) -> VirtualDatabaseSpec:
        for spec in self.virtual_databases:
            if spec.name.lower() == name.lower():
                return spec
        known = ", ".join(sorted(spec.name for spec in self.virtual_databases))
        raise ConfigurationError(
            f"descriptor has no virtual database {name!r} (defined: {known})"
        )

    def controllers_hosting(self, vdb_name: str) -> List[ControllerSpec]:
        """Controllers hosting ``vdb_name``, in declaration (failover) order."""
        return [
            controller
            for controller in self.controllers
            if any(name.lower() == vdb_name.lower() for name in controller.virtual_databases)
        ]


# ---------------------------------------------------------------------------
# descriptor parsing: the table pass, then the rules relating several keys
# ---------------------------------------------------------------------------


def _check_duplicates(names: List[str], what: str, where: str) -> None:
    seen = set()
    for name in names:
        if name.lower() in seen:
            fail(where, f"duplicate {what} name {name!r}")
        seen.add(name.lower())


def _check_virtual_database(spec: VirtualDatabaseSpec, entry: Mapping, where: str) -> None:
    """The rules of one virtual database that relate several of its keys."""
    _check_duplicates(spec.backend_names, "backend", f"{where}.backends")
    placed = {f"replication_map.{table}": hosts for table, hosts in spec.replication_map.items()}
    placed.update({f"partition_map.{table}": [host] for table, host in spec.partition_map.items()})
    for path, hosts in placed.items():
        unknown = set(hosts) - set(spec.backend_names)
        if unknown:
            fail(f"{where}.{path}", f"unknown {quoted('backend', unknown)}")
    if spec.group is not None:
        if spec.group_name is None:
            fail(
                f"{where}.group",
                "a group: section needs group_name (the vdb is not replicated without one)",
            )
        if spec.group.members and spec.group.transport != "tcp":
            fail(
                f"{where}.group.members",
                "fixed member addresses only apply to the 'tcp' transport",
            )
    if "cache" in entry:  # a present cache section means enabled unless stated otherwise
        spec.cache_enabled = entry["cache"].get("enabled", True)


def parse_descriptor(document: Mapping) -> ClusterDescriptor:
    """Validate a descriptor mapping into a :class:`ClusterDescriptor`."""
    if not isinstance(document, Mapping):
        raise ConfigurationError(
            f"cluster descriptor must be a mapping, got {type(document).__name__}"
        )
    descriptor = parse_section(ClusterDescriptor, document, "descriptor")
    specs = descriptor.virtual_databases
    for index, (spec, entry) in enumerate(zip(specs, document["virtual_databases"])):
        _check_virtual_database(spec, entry, f"descriptor.virtual_databases[{index}]")
    _check_duplicates(
        [spec.name for spec in specs], "virtual database", "descriptor.virtual_databases"
    )

    known_vdbs = {spec.name.lower(): spec.name for spec in specs}
    if not descriptor.controllers:
        descriptor.controllers = [ControllerSpec(name="controller0")]
    for index, controller in enumerate(descriptor.controllers):
        if not controller.virtual_databases:
            controller.virtual_databases = list(known_vdbs.values())
        for vdb_name in controller.virtual_databases:
            if vdb_name.lower() not in known_vdbs:
                fail(
                    f"descriptor.controllers[{index}].virtual_databases",
                    f"unknown virtual database {vdb_name!r}"
                    f" (defined: {', '.join(sorted(known_vdbs.values()))})",
                )
    controllers = descriptor.controllers
    _check_duplicates([c.name for c in controllers], "controller", "descriptor.controllers")

    bound: Dict[tuple, str] = {}
    for controller in controllers:
        listen = controller.listen
        if listen is None or listen.port == 0:  # ephemeral ports cannot collide
            continue
        address = (listen.host, listen.port)
        if address in bound:
            fail(
                "descriptor.controllers",
                f"controllers {bound[address]!r} and {controller.name!r} both"
                f" listen on {listen.host}:{listen.port}",
            )
        bound[address] = controller.name

    known_controllers = {controller.name.lower() for controller in controllers}
    for index, spec in enumerate(specs):
        members = spec.group.members if spec.group is not None else ()
        unknown = {name for name in members if name.lower() not in known_controllers}
        if unknown:
            fail(
                f"descriptor.virtual_databases[{index}].group.members",
                f"unknown {quoted('controller', unknown)}",
            )

    hosted_anywhere = {
        vdb_name.lower() for controller in controllers for vdb_name in controller.virtual_databases
    }
    orphans = set(known_vdbs) - hosted_anywhere
    if orphans:
        fail(
            "descriptor.controllers",
            f"{quoted('virtual database', orphans)} not hosted by any controller",
        )
    return descriptor


def load_descriptor(source: DescriptorSource) -> ClusterDescriptor:
    """Load and validate a descriptor from a mapping or a JSON/TOML file."""
    if isinstance(source, Mapping):
        return parse_descriptor(source)
    path = Path(source)
    if not path.exists():
        raise ConfigurationError(f"cluster descriptor file {str(path)!r} does not exist")
    suffix = path.suffix.lower()
    if suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # pragma: no cover - tomllib ships with 3.11+
            raise ConfigurationError(
                "TOML descriptors need the stdlib 'tomllib' module (Python 3.11+);"
                " use a JSON descriptor instead"
            ) from exc
        with path.open("rb") as handle:
            try:
                document = tomllib.load(handle)
            except tomllib.TOMLDecodeError as exc:
                raise ConfigurationError(f"invalid TOML in {str(path)!r}: {exc}") from exc
    else:
        try:
            document = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid JSON in {str(path)!r}: {exc}") from exc
    return parse_descriptor(document)
