"""The cluster facade: boot a whole deployment from a descriptor, connect by URL.

This is the public entry point of the reproduction, matching how C-JDBC is
actually used (paper §2.2–§2.3): the cluster is *described* in a declarative
document and *reached* through a driver URL — application code never
assembles middleware components by hand.

::

    import repro

    cluster = repro.load_cluster("cluster.json")      # boot controllers + vdbs
    connection = repro.connect("cjdbc://ctrl-a,ctrl-b/mydb?user=app&password=s")

    statement = connection.prepare("INSERT INTO t (a, b) VALUES (?, ?)")
    for row in rows:                                  # server-side batch:
        statement.add_batch(row)                      # one pipeline pass for
    statement.execute_batch()                         # the whole batch

Connections obtained here — directly, through :meth:`Cluster.connect`, or
from a :class:`repro.cluster.pool.ConnectionPool` checkout — all expose the
prepared-statement / batching surface of
:class:`repro.core.driver.PreparedStatement`.

:class:`Cluster` owns everything the descriptor declared: controllers
(registered in the controller registry so URLs resolve), virtual databases,
the in-memory engines standing in for real database backends, and — for
virtual databases with a ``group_name`` — the group-communication wiring
that turns one logical database into horizontally replicated controller
replicas (§4.1).
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.cluster.descriptor import (
    ClusterDescriptor,
    DescriptorSource,
    load_descriptor,
)
from repro.cluster.registry import ControllerRegistry, default_registry
from repro.cluster.url import ClusterURL, parse_url
from repro.core.config import VirtualDatabaseConfig, build_virtual_database
from repro.core.controller import Controller
from repro.core.driver import VirtualConnection
from repro.core.driver import connect as driver_connect
from repro.core.retry import RetryPolicy
from repro.core.virtualdb import VirtualDatabase
from repro.errors import ConfigurationError, ControllerError
from repro.net.client import connect_remote, looks_like_address
from repro.sql.engine import DatabaseEngine


def connect(
    url: str,
    *,
    user: str = "",
    password: str = "",
    registry: Optional[ControllerRegistry] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> VirtualConnection:
    """Open a driver connection to the virtual database a cluster URL names.

    The controller names of ``cjdbc://ctrl-a,ctrl-b/mydb?user=...`` are
    resolved through ``registry`` (the process default when omitted).  To
    connect to controller *objects* instead, use
    :func:`repro.core.driver.connect`.

    Controller names of the form ``host:port`` select the *remote* driver
    mode: instead of registry lookups, each name is dialled over TCP and
    spoken to through the wire protocol (see :mod:`repro.net`) — same DB-API
    surface, same ordered failover, but the controllers may live in other
    processes or on other machines.  Mixing registry names and addresses in
    one URL is rejected.

    ``retry_policy`` (a :class:`repro.core.retry.RetryPolicy`) upgrades
    failover from a single rotation pass to bounded retries with backoff;
    ``retry_*`` URL options build one when no explicit policy is given.
    """
    parsed = parse_url(url)
    if retry_policy is None:
        retry_policy = RetryPolicy.from_options(parsed.options)
    remote = [looks_like_address(name) for name in parsed.controllers]
    if any(remote):
        if not all(remote):
            raise ConfigurationError(
                f"cannot mix host:port addresses and registry names in one"
                f" URL: {', '.join(map(repr, parsed.controllers))}"
            )
        return connect_remote(
            parsed.controllers,
            parsed.database,
            parsed.user or user,
            parsed.password or password,
            retry_policy=retry_policy,
        )
    controllers = (registry or default_registry).resolve_all(parsed.controllers)
    return driver_connect(
        controllers,
        parsed.database,
        parsed.user or user,
        parsed.password or password,
        retry_policy=retry_policy,
    )


class Cluster:
    """A booted cluster: controllers, virtual databases and their engines."""

    def __init__(
        self,
        descriptor: Optional[Union[ClusterDescriptor, DescriptorSource]] = None,
        *,
        registry: Optional[ControllerRegistry] = None,
        transport=None,
        only_controller: Optional[str] = None,
    ):
        if descriptor is not None and not isinstance(descriptor, ClusterDescriptor):
            descriptor = load_descriptor(descriptor)
        self.descriptor: Optional[ClusterDescriptor] = descriptor
        self.registry = registry if registry is not None else default_registry
        self.name = descriptor.name if descriptor is not None else "cluster"
        #: boot only this controller of the descriptor (one process per
        #: controller; tcp group sections wire the replicas back together)
        self.only_controller = only_controller
        #: engine name -> in-memory engine backing one (shared) backend
        self.engines: Dict[str, DatabaseEngine] = {}
        self.controllers: Dict[str, Controller] = {}
        #: vdb name -> the shared VirtualDatabase (non-grouped vdbs only)
        self._virtual_databases: Dict[str, VirtualDatabase] = {}
        #: (controller name, lowercased vdb name) -> horizontal replica wrapper
        self.replicas: Dict[Tuple[str, str], object] = {}
        #: lowercased vdb name -> controller names hosting it, in failover order
        self._hosting: Dict[str, List[str]] = {}
        #: lowercased vdb name -> the name as declared in the descriptor
        self._vdb_names: Dict[str, str] = {}
        #: lowercased vdb name -> descriptor-declared client retry policy
        self._retry_policies: Dict[str, RetryPolicy] = {}
        self._transport = transport
        #: controller name (lowercased) -> its group node
        self.group_nodes: Dict[str, object] = {}
        #: controller name -> running ControllerServer (see start_servers())
        self.servers: Dict[str, "object"] = {}
        #: pools handed out by pool(); weakly referenced for statistics()
        self._pools: "weakref.WeakSet" = weakref.WeakSet()
        if descriptor is not None:
            self._boot(descriptor)

    # -- construction --------------------------------------------------------------------

    @classmethod
    def from_configs(
        cls,
        configs: Union[VirtualDatabaseConfig, Sequence[VirtualDatabaseConfig]],
        controller_name: str = "controller0",
        *,
        registry: Optional[ControllerRegistry] = None,
    ) -> "Cluster":
        """Programmatic assembly: one controller hosting pre-built configs.

        The escape hatch for callers (examples, tests) whose configuration
        is not expressible as pure data — e.g. custom connection factories.
        """
        if isinstance(configs, VirtualDatabaseConfig):
            configs = [configs]
        cluster = cls(registry=registry)
        controller = cluster._add_controller(controller_name)
        for config in configs:
            virtual_database = build_virtual_database(config)
            cluster._virtual_databases[virtual_database.name.lower()] = virtual_database
            cluster._vdb_names[virtual_database.name.lower()] = virtual_database.name
            cluster._hosting.setdefault(virtual_database.name.lower(), []).append(
                controller.name
            )
            controller.add_virtual_database(virtual_database)
            for backend_config in config.backends:
                if backend_config.engine is not None:
                    cluster.engines.setdefault(backend_config.engine.name, backend_config.engine)
        return cluster

    def _boot(self, descriptor: ClusterDescriptor) -> None:
        specs = {spec.name.lower(): spec for spec in descriptor.virtual_databases}
        controller_specs = descriptor.controllers
        if self.only_controller is not None:
            controller_specs = [
                spec
                for spec in descriptor.controllers
                if spec.name.lower() == self.only_controller.lower()
            ]
            if not controller_specs:
                known = ", ".join(sorted(spec.name for spec in descriptor.controllers))
                raise ConfigurationError(
                    f"descriptor has no controller {self.only_controller!r}"
                    f" (controllers: {known})"
                )
        # Shared (non-grouped) virtual databases are built once and attached
        # to every controller listing them — the budget-HA topology of §5.1.
        for spec in descriptor.virtual_databases:
            if spec.retry is not None:
                self._retry_policies[spec.name.lower()] = spec.retry
            if spec.group_name is None:
                config = spec.to_config(self.engines)
                self._virtual_databases[spec.name.lower()] = build_virtual_database(config)

        for controller_spec in controller_specs:
            controller = self._add_controller(controller_spec.name)
            for vdb_name in controller_spec.virtual_databases:
                spec = specs[vdb_name.lower()]
                self._vdb_names[spec.name.lower()] = spec.name
                self._hosting.setdefault(spec.name.lower(), []).append(controller.name)
                if spec.group_name is None:
                    controller.add_virtual_database(self._virtual_databases[spec.name.lower()])
                else:
                    self._add_replica(controller, spec)

    def _add_controller(self, name: str) -> Controller:
        if name.lower() in self.controllers:
            raise ConfigurationError(f"duplicate controller {name!r} in cluster")
        # Register only in this cluster's registry: a private registry must
        # not leak (or clobber) names in the process-wide default one.
        controller = Controller(name, register=False)
        self.controllers[name.lower()] = controller
        self.registry.register(controller)
        return controller

    def _add_replica(self, controller: Controller, spec) -> None:
        """Horizontal vdb: a private replica per controller, group-synchronised.

        The replica joins through its controller's own group node.  Joining
        with state transfer is always requested; when the node turns out to
        be the first group member it degrades to a plain join, and when
        peers already run (another controller booted first, or a controller
        rejoins a live group) the replica synchronizes its backends from
        one of them before serving.
        """
        from repro.distrib import DistributedVirtualDatabase

        config = spec.to_config(self.engines, engine_prefix=f"{controller.name}/")
        replica = DistributedVirtualDatabase(
            build_virtual_database(config),
            self._group_node(controller, spec.group),
            controller_name=controller.name,
            group_name=spec.group_name,
        )
        replica.join_group(state_transfer=True)
        controller.add_virtual_database(replica)
        self.replicas[(controller.name, spec.name.lower())] = replica

    def _group_node(self, controller: Controller, group):
        """This controller's group node, created on first use.

        One protocol, and ``group.transport`` only picks the link under it:
        a node of the cluster's in-process network (memory link), or a
        socket node of its own (TCP link) bound to the controller's address.
        """
        node = self.group_nodes.get(controller.name.lower())
        if node is not None:
            return node
        from repro.groupcomm import GroupTransport, SocketGroupTransport

        if group is None or group.transport != "tcp":
            if self._transport is None:
                self._transport = GroupTransport()
            node = self._transport.node(controller.name)
        else:
            address = next(
                (
                    member_address
                    for name, member_address in group.members.items()
                    if name.lower() == controller.name.lower()
                ),
                "127.0.0.1:0",
            )
            host, _, port = address.rpartition(":")
            peers = [
                member_address
                for name, member_address in group.members.items()
                if name.lower() != controller.name.lower()
            ]
            peers += [
                other.address for other in self.group_nodes.values()
                if other.address not in peers
            ]
            node = SocketGroupTransport(
                bind_host=host or "127.0.0.1",
                bind_port=int(port),
                peers=peers,
                heartbeat_interval=group.heartbeat_interval,
                heartbeat_threshold=group.heartbeat_threshold,
                rpc_timeout=group.rpc_timeout,
                name=controller.name,
            )
        node.start()
        self.group_nodes[controller.name.lower()] = node
        return node

    # -- lookups -------------------------------------------------------------------------

    def controller(self, name: str) -> Controller:
        try:
            return self.controllers[name.lower()]
        except KeyError:
            known = ", ".join(sorted(c.name for c in self.controllers.values()))
            raise ConfigurationError(
                f"cluster has no controller {name!r} (controllers: {known})"
            ) from None

    def engine(self, name: str) -> DatabaseEngine:
        try:
            return self.engines[name]
        except KeyError:
            known = ", ".join(sorted(self.engines))
            raise ConfigurationError(
                f"cluster has no engine {name!r} (engines: {known})"
            ) from None

    def virtual_database(
        self, name: str, controller: Optional[str] = None
    ) -> VirtualDatabase:
        """The virtual database ``name``; for grouped vdbs, one controller's replica."""
        hosting = self._hosting.get(name.lower(), [])
        if not hosting:
            known = ", ".join(sorted(self._vdb_names.values()))
            raise ConfigurationError(
                f"cluster has no virtual database {name!r} (virtual databases: {known})"
            )
        if controller is not None and self.controller(controller).name not in hosting:
            raise ConfigurationError(
                f"controller {controller!r} does not host {name!r}"
                f" (hosted by: {', '.join(hosting)})"
            )
        shared = self._virtual_databases.get(name.lower())
        if shared is not None:
            return shared
        controller_name = controller or hosting[0]
        replica = self.replicas.get((self.controller(controller_name).name, name.lower()))
        if replica is None:
            raise ConfigurationError(
                f"controller {controller_name!r} hosts no replica of {name!r}"
            )
        return replica.local

    def interceptor(self, vdb_name: str, interceptor_name: str, controller: Optional[str] = None):
        """An interceptor installed on ``vdb_name``'s execution pipeline.

        The handle for reaching descriptor-configured interceptors (metrics
        counters, slow-query entries, rate-limit stats, traces) from the
        facade without digging through controller internals.
        """
        return self.virtual_database(vdb_name, controller).pipeline.interceptor(
            interceptor_name
        )

    def fault_injector(
        self, vdb_name: str, backend_name: str, controller: Optional[str] = None
    ):
        """The fault injector of one backend (created idle on first access).

        The facade's runtime chaos toggle: arm latency/error/crash/hang
        rules, ``crash()``/``recover()`` the backend, read injection stats —
        all while the cluster serves traffic.
        """
        return self.virtual_database(vdb_name, controller).fault_injector(backend_name)

    def failure_detector(self, vdb_name: str, controller: Optional[str] = None):
        """The failure detector policy of one virtual database."""
        return self.virtual_database(vdb_name, controller).failure_detector

    def resynchronize(
        self,
        vdb_name: str,
        backend_name: str,
        controller: Optional[str] = None,
        checkpoint: Optional[str] = None,
    ) -> int:
        """Synchronously re-integrate a disabled backend (restore, replay, catch up).

        It comes back from the named checkpoint, else its own most recent
        one, else a fresh cut of the live backends — for a grouped vdb with
        none left on this controller, a state transfer from a peer controller.
        """
        vdb = self.virtual_database(vdb_name, controller)
        vdb = next((r for r in self.replicas.values() if r.local is vdb), vdb)
        return vdb.resynchronize_backend(backend_name, checkpoint)

    @property
    def virtual_database_names(self) -> List[str]:
        return sorted(self._vdb_names.values())

    @property
    def transport(self):
        """Group transport wiring horizontal replicas (None when unused)."""
        return self._transport

    def controllers_for(self, vdb_name: str) -> List[Controller]:
        """Controllers hosting ``vdb_name``, in descriptor (failover) order."""
        hosting = self._hosting.get(vdb_name.lower())
        if not hosting:
            known = ", ".join(sorted(self._hosting))
            raise ConfigurationError(
                f"cluster has no virtual database {vdb_name!r} (virtual databases: {known})"
            )
        return [self.controllers[name.lower()] for name in hosting]

    # -- client entry points -------------------------------------------------------------

    def connect(
        self,
        target: Optional[str] = None,
        user: str = "",
        password: str = "",
    ) -> VirtualConnection:
        """Connect by cluster URL or by virtual database name.

        With a URL the controller names are resolved through this cluster's
        registry; with a bare name the connection lists every controller
        hosting the database, in descriptor order, for transparent failover.
        The virtual database's descriptor ``retry:`` section (when present)
        becomes the connection's retry policy.
        """
        if target is None:
            if len(self._hosting) != 1:
                raise ConfigurationError(
                    "connect() without a target needs a single-vdb cluster;"
                    f" specify one of: {', '.join(sorted(self._hosting))}"
                )
            target = next(iter(self._hosting))
        if "://" in target:
            url = parse_url(target)
            # retry_* URL options take precedence over the descriptor default
            policy = RetryPolicy.from_options(url.options) or self._retry_policies.get(
                url.database.lower()
            )
            return connect(
                target,
                user=user,
                password=password,
                registry=self.registry,
                retry_policy=policy,
            )
        controllers = self.controllers_for(target)
        return driver_connect(
            controllers,
            target,
            user,
            password,
            retry_policy=self._retry_policies.get(target.lower()),
        )

    def url(self, vdb_name: str) -> str:
        """Canonical ``cjdbc://`` URL for one of this cluster's databases."""
        controllers = self.controllers_for(vdb_name)
        declared = self._vdb_names.get(vdb_name.lower(), vdb_name)
        return f"cjdbc://{','.join(c.name for c in controllers)}/{declared}"

    def pool(self, target: Optional[str] = None, user: str = "", password: str = "", **kwargs):
        """A :class:`repro.cluster.pool.ConnectionPool` over this cluster."""
        from repro.cluster.pool import ConnectionPool

        factory = lambda: self.connect(target, user=user, password=password)  # noqa: E731
        pool = ConnectionPool(factory=factory, **kwargs)
        self._pools.add(pool)
        return pool

    # -- network front-ends --------------------------------------------------------------

    def start_servers(self) -> Dict[str, Tuple[str, int]]:
        """Start a TCP front-end for every controller with a ``listen:`` section.

        Returns controller name -> bound ``(host, port)``; a ``listen`` with
        ``port: 0`` shows its actual ephemeral port here.  Servers are
        attached to their controllers, so :meth:`shutdown` (or a single
        controller's ``shutdown()``) drains and stops them.  Calling this on
        a cluster whose descriptor has no ``listen:`` sections is a no-op
        returning an empty mapping.
        """
        from repro.net.server import ControllerServer

        addresses: Dict[str, Tuple[str, int]] = {}
        if self.descriptor is None:
            return addresses
        for spec in self.descriptor.controllers:
            if spec.listen is None or spec.name.lower() not in self.controllers:
                continue
            controller = self.controller(spec.name)
            server = self.servers.get(controller.name)
            if server is None or not server.is_running:
                server = ControllerServer(controller, **dataclasses.asdict(spec.listen))
                controller.attach_network_server(server)
                server.start()
                self.servers[controller.name] = server
            addresses[controller.name] = server.address
        return addresses

    def remote_url(self, vdb_name: str) -> str:
        """``cjdbc://host:port,.../db`` URL reaching ``vdb_name`` over TCP.

        Requires :meth:`start_servers` to have been called; only controllers
        hosting the database *and* running a server appear, in descriptor
        (failover) order.
        """
        controllers = self.controllers_for(vdb_name)
        authorities = [
            self.servers[controller.name].url_authority
            for controller in controllers
            if controller.name in self.servers and self.servers[controller.name].is_running
        ]
        if not authorities:
            raise ConfigurationError(
                f"no running network server hosts {vdb_name!r};"
                " call start_servers() first (and give controllers a listen: section)"
            )
        declared = self._vdb_names.get(vdb_name.lower(), vdb_name)
        return f"cjdbc://{','.join(authorities)}/{declared}"

    # -- lifecycle / monitoring ----------------------------------------------------------

    def statistics(self) -> dict:
        return {
            "cluster": self.name,
            "controllers": {
                controller.name: controller.statistics()
                for controller in self.controllers.values()
            },
            "pools": self.pool_statistics(),
        }

    def pool_statistics(self) -> List[dict]:
        """Statistics of every live pool created through :meth:`pool`.

        Includes the checkout wait / exhaustion counters, so saturation of
        the client-side pool layer is visible from the cluster facade (and
        the admin console) without holding a reference to each pool.
        """
        return [pool.statistics() for pool in list(self._pools)]

    def shutdown(self) -> None:
        """Stop network servers and controllers, leave groups, drop registry entries."""
        for replica in self.replicas.values():
            close = getattr(replica, "close", None)
            if close is not None:
                close()
            else:  # pragma: no cover - every replica has close() today
                replica.leave_group()
        for node in self.group_nodes.values():
            node.stop()
        self.group_nodes.clear()
        for controller in self.controllers.values():
            controller.shutdown()  # stops any attached network server too
            # Only drop the registry entry if it is still ours: a later
            # cluster may have re-bound the name (latest registration wins).
            try:
                registered = self.registry.resolve(controller.name)
            except ControllerError:
                continue
            if registered is controller:
                self.registry.unregister(controller.name)
        for server in self.servers.values():
            if server.is_running:  # e.g. attached to an already-shut controller
                server.stop()
        self.servers.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster({self.name!r}, controllers={sorted(self.controllers)},"
            f" vdbs={self.virtual_database_names})"
        )


def load_cluster(
    source: DescriptorSource,
    *,
    registry: Optional[ControllerRegistry] = None,
    transport=None,
    only_controller: Optional[str] = None,
) -> Cluster:
    """Boot a cluster from a descriptor mapping or JSON/TOML file.

    ``only_controller`` boots just that controller of the descriptor — the
    one-process-per-controller deployment mode, where each process runs
    ``load_cluster(..., only_controller=<its name>)`` and grouped virtual
    databases find each other over their ``group:`` (tcp) addresses.
    """
    return Cluster(
        source, registry=registry, transport=transport, only_controller=only_controller
    )
