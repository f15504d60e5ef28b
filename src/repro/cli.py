"""Command-line interface.

Commands that boot, check and serve clusters from descriptors, drop into
the text administration console (``python -m repro console``), and run the
live experiments: the load-balancing ablation, the chaos scenarios and the
isolation matrix.  The paper's Table 1 and Figures 10-12 are count tables
in ``tests/`` (``python tests/test_tpcw_figures.py`` prints the figures).

The CLI is intentionally a thin shell over :mod:`repro.bench` and
:mod:`repro.core.management`; everything it does can be done from Python.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench import run_loadbalancer_ablation


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="C-JDBC reproduction: boot, serve and inspect clusters, run live experiments",
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("ablation-lb", help="load-balancing policy ablation")

    chaos = subparsers.add_parser(
        "chaos",
        help="run seeded fault-injection scenarios and check cluster invariants"
        " (no committed write lost, replica convergence, reads never served"
        " by disabled backends)",
    )
    chaos.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="scenario to run (may be repeated; default: the whole suite)",
    )
    chaos.add_argument("--seed", type=int, default=7, help="fault/workload seed")
    chaos.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="scale the per-scenario operation counts (use < 1 for a quick run)",
    )
    chaos.add_argument(
        "--list", action="store_true", dest="list_scenarios", help="list scenarios and exit"
    )

    isolation = subparsers.add_parser(
        "isolation",
        help="run the isolation exerciser: seeded anomaly probes against live"
        " clusters, reported as a scheduler×anomaly observed/prevented matrix",
    )
    isolation.add_argument(
        "--scheduler",
        action="append",
        default=None,
        metavar="NAME",
        help="scheduler to probe (may be repeated; default: all five variants)",
    )
    isolation.add_argument("--seed", type=int, default=7, help="interleaving seed")
    isolation.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="scale the probe windows and operation counts (use < 1 for a quick run)",
    )
    isolation.add_argument(
        "--json", action="store_true", dest="as_json", help="print the raw matrix as JSON"
    )

    console = subparsers.add_parser(
        "console", help="build a demo 2-backend virtual database and run admin commands"
    )
    console.add_argument(
        "--execute",
        action="append",
        default=None,
        metavar="CMD",
        help="console command to execute (may be repeated); omit for an interactive session",
    )
    console.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="boot the cluster from a JSON/TOML descriptor instead of the built-in demo",
    )
    console.add_argument(
        "--controller",
        default=None,
        metavar="NAME",
        help="with --config: attach the console to this controller (default: the first one)",
    )

    check = subparsers.add_parser(
        "check-config", help="validate a cluster descriptor file and print its topology"
    )
    check.add_argument("config", metavar="FILE", help="JSON/TOML cluster descriptor")

    serve = subparsers.add_parser(
        "serve",
        help="boot a cluster from a descriptor and serve its controllers over TCP"
        " (controllers need a listen: section; clients connect with"
        " cjdbc://host:port/db URLs)",
    )
    serve.add_argument(
        "--config", required=True, metavar="FILE", help="JSON/TOML cluster descriptor"
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve for this long then exit cleanly (default: until SIGINT/SIGTERM)",
    )
    serve.add_argument(
        "--controller",
        default=None,
        metavar="NAME",
        help="boot and serve only this controller of the descriptor (one process"
        " per controller; grouped vdbs reconnect over their group: tcp addresses)",
    )
    return parser


def _run_ablation_lb() -> str:
    fractions = run_loadbalancer_ablation()
    lines = ["Fraction of reads sent to the low-weight backend:"]
    for policy, fraction in fractions.items():
        lines.append(f"  {policy:5}: {fraction:.2%}")
    return "\n".join(lines)


def _run_chaos(args: argparse.Namespace, stdout) -> int:
    from repro.bench import CHAOS_SCENARIOS, format_chaos_report, run_chaos_suite
    from repro.errors import CJDBCError

    if args.list_scenarios:
        for name in sorted(CHAOS_SCENARIOS):
            print(name, file=stdout)
        return 0
    try:
        results = run_chaos_suite(args.scenario, seed=args.seed, scale=args.scale)
    except CJDBCError as exc:
        print(f"error: {exc}", file=stdout)
        return 2
    print(format_chaos_report(results), file=stdout)
    return 0 if all(result.ok for result in results) else 1


def _run_isolation(args: argparse.Namespace, stdout) -> int:
    import json

    from repro.errors import CJDBCError
    from repro.isolation import format_isolation_matrix, run_isolation_matrix

    try:
        matrix = run_isolation_matrix(args.scheduler, seed=args.seed, scale=args.scale)
    except CJDBCError as exc:
        print(f"error: {exc}", file=stdout)
        return 2
    if args.as_json:
        print(json.dumps(matrix, indent=2, sort_keys=True), file=stdout)
    else:
        print(format_isolation_matrix(matrix), file=stdout)
    return 0


#: the descriptor behind the demo console — the same document could live in
#: a JSON file and be passed with ``--config``.
DEMO_DESCRIPTOR = {
    "name": "demo",
    "virtual_databases": [
        {
            "name": "demodb",
            "replication": "raidb1",
            "cache": {"enabled": True},
            "backends": [
                {"name": "node-a", "engine": "demo-node-a"},
                {"name": "node-b", "engine": "demo-node-b"},
            ],
        }
    ],
    "controllers": [{"name": "demo-controller"}],
}


def _build_demo_console():
    """A small replicated virtual database for the console command."""
    from repro.cluster import load_cluster
    from repro.core.management import AdminConsole

    cluster = load_cluster(DEMO_DESCRIPTOR)
    connection = cluster.connect(
        "cjdbc://demo-controller/demodb?user=demo&password=demo"
    )
    cursor = connection.cursor()
    cursor.execute("CREATE TABLE demo (id INT PRIMARY KEY AUTO_INCREMENT, label VARCHAR(30))")
    cursor.executemany(
        "INSERT INTO demo (label) VALUES (?)", [("alpha",), ("beta",), ("gamma",)]
    )
    return AdminConsole(cluster.controller("demo-controller"))


def _build_config_console(config_path: str, controller_name: Optional[str]):
    """Boot a whole cluster from a descriptor file and attach the console."""
    from repro.cluster import load_cluster
    from repro.core.management import AdminConsole

    cluster = load_cluster(config_path)
    if controller_name is None:
        controller_name = next(iter(cluster.controllers.values())).name
    return AdminConsole(cluster.controller(controller_name), cluster=cluster)


def _run_check_config(config_path: str, stdout) -> int:
    from repro.cluster import load_cluster
    from repro.cluster.descriptor import GroupSpec
    from repro.core.scheduler import describe_scheduler
    from repro.errors import ConfigurationError

    try:
        cluster = load_cluster(config_path)
    except ConfigurationError as exc:
        print(f"invalid descriptor: {exc}", file=stdout)
        return 1
    print(f"cluster {cluster.name!r}: OK", file=stdout)
    for controller in cluster.controllers.values():
        print(f"  controller {controller.name}", file=stdout)
        for vdb_name in controller.virtual_database_names:
            vdb = controller.get_virtual_database(vdb_name)
            backends = ", ".join(backend.name for backend in vdb.backends)
            spec = cluster.descriptor.virtual_database(vdb_name)
            parsing = (
                f"parsing cache: {spec.parsing_cache_size} statements"
                if spec.parsing_cache_size
                else "parsing cache: disabled"
            )
            print(
                f"    virtual database {vdb_name} (backends: {backends}; {parsing})",
                file=stdout,
            )
            chain = vdb.pipeline.interceptor_names
            print(
                f"      interceptors: {', '.join(chain) if chain else 'none'}"
                f" (stages: {' -> '.join(vdb.pipeline.stage_names)})",
                file=stdout,
            )
            print(
                f"      scheduler: {describe_scheduler(spec.scheduler)}",
                file=stdout,
            )
            routing = spec.routing
            if routing is not None:
                weights = (
                    "weights: "
                    + ", ".join(f"{k}={v:g}" for k, v in sorted(routing.weights.items()))
                    if routing.weights
                    else "default weights"
                )
                print(
                    f"      routing: {routing.policy} (scatter_gather:"
                    f" {'on' if routing.scatter_gather else 'off'}; {weights})",
                    file=stdout,
                )
    for spec in cluster.descriptor.virtual_databases:
        if spec.group_name is None:
            continue
        group = spec.group or GroupSpec()
        line = f"  group: {spec.group_name} over {group.transport}"
        if group.transport == "tcp":
            members = ", ".join(
                f"{name}={address}" for name, address in sorted(group.members.items())
            )
            line += (
                f" (members: {members or 'ephemeral ports'};"
                f" heartbeat {group.heartbeat_interval:g}s x {group.heartbeat_threshold};"
                f" rpc_timeout {group.rpc_timeout:g}s)"
            )
        print(line, file=stdout)
    for spec in cluster.descriptor.controllers:
        if spec.listen is not None:
            idle = (
                f", idle_timeout {spec.listen.idle_timeout:g}s"
                if spec.listen.idle_timeout is not None
                else ""
            )
            print(
                f"  listen: {spec.name} on {spec.listen.host}:{spec.listen.port}"
                f" (max {spec.listen.max_connections} connections{idle})",
                file=stdout,
            )
    for vdb_name in cluster.virtual_database_names:
        print(f"  url: {cluster.url(vdb_name)}", file=stdout)
    return 0


def _run_serve(args: argparse.Namespace, stdout) -> int:
    """Boot a cluster and serve its controllers over TCP until stopped."""
    import signal
    import threading

    from repro.cluster import load_cluster
    from repro.errors import ConfigurationError

    try:
        cluster = load_cluster(args.config, only_controller=args.controller)
        addresses = cluster.start_servers()
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=stdout)
        return 1
    if not addresses:
        print(
            "error: no controller in the descriptor has a 'listen:' section;"
            " nothing to serve",
            file=stdout,
        )
        cluster.shutdown()
        return 1
    for name, (host, port) in addresses.items():
        print(f"listening {name} {host} {port}", file=stdout)
    for vdb_name in cluster.virtual_database_names:
        try:
            print(f"url {cluster.remote_url(vdb_name)}", file=stdout)
        except ConfigurationError:  # vdb hosted only by non-listening controllers
            pass
    print("ready", file=stdout, flush=True)

    stop = threading.Event()
    try:  # signal handlers only work in the main thread
        previous = {
            sig: signal.signal(sig, lambda signum, frame: stop.set())
            for sig in (signal.SIGINT, signal.SIGTERM)
        }
    except ValueError:
        previous = {}
    try:
        stop.wait(timeout=args.duration)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        cluster.shutdown()
        print("stopped", file=stdout, flush=True)
    return 0


def _run_console(args: argparse.Namespace, stdin=None, stdout=None) -> int:
    from repro.errors import ConfigurationError

    stdout = stdout or sys.stdout
    if args.config:
        try:
            console = _build_config_console(args.config, args.controller)
        except ConfigurationError as exc:
            print(f"invalid descriptor: {exc}", file=stdout)
            return 1
    else:
        if args.controller:
            print("--controller requires --config (the demo has a single controller)", file=stdout)
            return 2
        console = _build_demo_console()
    if args.execute:
        for command in args.execute:
            print(console.execute(command), file=stdout)
        return 0
    stdin = stdin or sys.stdin
    print("C-JDBC demo console — type 'help' for commands, 'quit' to exit", file=stdout)
    for line in stdin:
        command = line.strip()
        if command in ("quit", "exit"):
            break
        if command:
            print(console.execute(command), file=stdout)
    return 0


def main(argv: Optional[List[str]] = None, stdout=None) -> int:
    """CLI entry point; returns a process exit code."""
    stdout = stdout or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(stdout)
        return 2
    if args.command == "ablation-lb":
        print(_run_ablation_lb(), file=stdout)
        return 0
    if args.command == "chaos":
        return _run_chaos(args, stdout)
    if args.command == "isolation":
        return _run_isolation(args, stdout)
    if args.command == "console":
        return _run_console(args, stdout=stdout)
    if args.command == "check-config":
        return _run_check_config(args.config, stdout)
    if args.command == "serve":
        return _run_serve(args, stdout)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
