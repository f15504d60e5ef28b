"""Text administration console.

A tiny command interpreter over a controller, mirroring the C-JDBC
administration console operations used in the paper's deployment scenarios:
listing virtual databases and backends, enabling/disabling backends, taking
checkpoints and printing statistics.  Commands return strings so the console
can be driven programmatically from tests and examples.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable, Dict, List

from repro.errors import CJDBCError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.controller import Controller


class AdminConsole:
    """Programmatic administration console for one controller.

    When attached with the optional ``cluster`` facade, cluster-level views
    (client-side connection pools) become available too.
    """

    def __init__(self, controller: "Controller", cluster=None):
        self.controller = controller
        self.cluster = cluster
        self._commands: Dict[str, Callable[[List[str]], str]] = {
            "help": self._cmd_help,
            "show": self._cmd_show,
            "enable": self._cmd_enable,
            "disable": self._cmd_disable,
            "checkpoint": self._cmd_checkpoint,
            "recover": self._cmd_recover,
            "stats": self._cmd_stats,
            "scheduler": self._cmd_scheduler,
            "explain": self._cmd_explain,
            "interceptors": self._cmd_interceptors,
            "fault": self._cmd_fault,
            "resync": self._cmd_recover,
            "net": self._cmd_net,
            "pools": self._cmd_pools,
            "group": self._cmd_group,
        }

    def execute(self, command_line: str) -> str:
        """Execute one console command and return its textual output."""
        parts = command_line.strip().split()
        if not parts:
            return ""
        command, args = parts[0].lower(), parts[1:]
        handler = self._commands.get(command)
        if handler is None:
            return f"unknown command {command!r}; try 'help'"
        try:
            return handler(args)
        except CJDBCError as exc:
            return f"error: {exc}"

    # -- commands ---------------------------------------------------------------------

    def _cmd_help(self, args: List[str]) -> str:
        return (
            "commands:\n"
            "  show databases | show backends <vdb>\n"
            "  enable <vdb> <backend> [<checkpoint>]\n"
            "  disable <vdb> <backend> [checkpoint]\n"
            "  checkpoint <vdb> <backend> [<name>]\n"
            "  recover | resync <vdb> <backend> [<checkpoint>] (re-integrate a disabled"
            " backend: restore, replay, catch up)\n"
            "  stats <vdb>\n"
            "  scheduler <vdb> (scheduler variant, wait accounting,"
            " lock/conflict counters)\n"
            "  explain <vdb> <sql> (route plan: chosen backend(s), costs, merge)\n"
            "  interceptors <vdb>\n"
            "  fault <vdb> <backend> status|crash|recover|clear\n"
            "  fault <vdb> <backend> latency <ms> [probability]\n"
            "  fault <vdb> <backend> error [probability]\n"
            "  net (TCP front-end status of this controller)\n"
            "  pools (client-side connection pool statistics; needs a cluster)\n"
            "  group <vdb> (membership view, sequencer and heartbeat status of a"
            " distributed vdb)"
        )

    def _cmd_show(self, args: List[str]) -> str:
        if not args or args[0] == "databases":
            return "\n".join(self.controller.virtual_database_names)
        if args[0] == "backends" and len(args) > 1:
            vdb = self.controller.get_virtual_database(args[1])
            lines = []
            for backend in vdb.backends:
                lines.append(
                    f"{backend.name}: {backend.state.value}, "
                    f"{backend.total_requests} requests, "
                    f"{len(backend.tables)} tables"
                )
            log = vdb.statistics().get("recovery_log")
            if log is not None:
                lines.append("recovery log: " + ", ".join(f"{v} {k}" for k, v in log.items()))
            return "\n".join(lines)
        return "usage: show databases | show backends <vdb>"

    def _cmd_enable(self, args: List[str]) -> str:
        if len(args) < 2:
            return "usage: enable <vdb> <backend> [<checkpoint>]"
        vdb = self.controller.get_virtual_database(args[0])
        checkpoint = args[2] if len(args) > 2 else None
        vdb.enable_backend(args[1], from_checkpoint=checkpoint)
        return f"backend {args[1]} enabled"

    def _cmd_disable(self, args: List[str]) -> str:
        if len(args) < 2:
            return "usage: disable <vdb> <backend> [checkpoint]"
        vdb = self.controller.get_virtual_database(args[0])
        with_checkpoint = len(args) > 2 and args[2] == "checkpoint"
        checkpoint_name = vdb.disable_backend(args[1], with_checkpoint=with_checkpoint)
        if checkpoint_name:
            return f"backend {args[1]} disabled (checkpoint {checkpoint_name})"
        return f"backend {args[1]} disabled"

    def _cmd_checkpoint(self, args: List[str]) -> str:
        if len(args) < 2:
            return "usage: checkpoint <vdb> <backend> [<name>]"
        vdb = self.controller.get_virtual_database(args[0])
        name = args[2] if len(args) > 2 else None
        checkpoint_name = vdb.checkpoint_backend(args[1], name=name)
        return f"checkpoint {checkpoint_name} taken on backend {args[1]}"

    def _cmd_recover(self, args: List[str]) -> str:
        if len(args) < 2:
            return "usage: recover | resync <vdb> <backend> [<checkpoint>]"
        vdb = self.controller.get_virtual_database(args[0])
        checkpoint = args[2] if len(args) > 2 else None
        replayed = vdb.resynchronize_backend(args[1], checkpoint)
        return f"backend {args[1]} recovered ({replayed} log entries replayed)"

    def _cmd_interceptors(self, args: List[str]) -> str:
        if not args:
            return "usage: interceptors <vdb>"
        vdb = self.controller.get_virtual_database(args[0])
        pipeline = vdb.pipeline
        lines = [f"stages: {' -> '.join(pipeline.stage_names)}"]
        interceptors = pipeline.interceptors
        if not interceptors:
            lines.append("interceptors: none")
        for interceptor in interceptors:
            lines.append(
                f"{interceptor.name}: "
                + json.dumps(interceptor.statistics(), sort_keys=True, default=str)
            )
        return "\n".join(lines)

    def _cmd_fault(self, args: List[str]) -> str:
        usage = (
            "usage: fault <vdb> <backend> status|crash|recover|clear"
            " | latency <ms> [probability] | error [probability]"
        )
        if len(args) < 3:
            return usage
        vdb = self.controller.get_virtual_database(args[0])
        injector = vdb.fault_injector(args[1])
        action = args[2].lower()
        if action == "status":
            return json.dumps(injector.statistics(), indent=2, sort_keys=True, default=str)
        if action == "crash":
            injector.crash()
            return f"backend {args[1]} crashed (every operation now fails)"
        if action == "recover":
            injector.recover()
            return f"backend {args[1]} fault state cleared (operations succeed again)"
        if action == "clear":
            injector.clear()
            return f"fault rules cleared on backend {args[1]}"
        try:
            if action == "latency":
                if len(args) < 4:
                    return usage
                latency_ms = float(args[3])
                probability = float(args[4]) if len(args) > 4 else None
                injector.inject("latency", latency_ms=latency_ms, probability=probability)
                return (
                    f"latency fault armed on backend {args[1]}:"
                    f" {latency_ms:g}ms"
                    + (f" with probability {probability:g}" if probability is not None else "")
                )
            if action == "error":
                probability = float(args[3]) if len(args) > 3 else None
                injector.inject("error", probability=probability)
                return (
                    f"transient-error fault armed on backend {args[1]}"
                    + (f" with probability {probability:g}" if probability is not None else "")
                )
        except ValueError:
            return usage
        return usage

    def _cmd_net(self, args: List[str]) -> str:
        server = self.controller.network_server
        if server is None:
            return "no network server attached to this controller"
        return json.dumps(server.statistics(), indent=2, sort_keys=True, default=str)

    def _cmd_group(self, args: List[str]) -> str:
        if not args:
            return "usage: group <vdb>"
        vdb = self.controller.get_virtual_database(args[0])
        group_status = getattr(vdb, "group_status", None)
        if group_status is None:
            return (
                f"virtual database {args[0]!r} is not distributed"
                " (no group communication attached)"
            )
        return json.dumps(group_status(), indent=2, sort_keys=True, default=str)

    def _cmd_pools(self, args: List[str]) -> str:
        if self.cluster is None:
            return "no cluster attached to this console (pools are a cluster-level view)"
        stats = self.cluster.pool_statistics()
        if not stats:
            return "no connection pools created through this cluster"
        return json.dumps(stats, indent=2, sort_keys=True, default=str)

    def _cmd_explain(self, args: List[str]) -> str:
        if len(args) < 2:
            return "usage: explain <vdb> <sql>"
        vdb = self.controller.get_virtual_database(args[0])
        # the command line was whitespace-split; the SQL is everything after
        # the vdb name
        sql = " ".join(args[1:])
        result = vdb.explain_route(sql)
        width = max(len(row[0]) for row in result.rows)
        return "\n".join(f"{field:<{width}}  {value}" for field, value in result.rows)

    def _cmd_stats(self, args: List[str]) -> str:
        if not args:
            return json.dumps(self.controller.statistics(), indent=2, default=str)
        vdb = self.controller.get_virtual_database(args[0])
        return json.dumps(vdb.statistics(), indent=2, default=str)

    def _cmd_scheduler(self, args: List[str]) -> str:
        if not args:
            return "usage: scheduler <vdb>"
        vdb = self.controller.get_virtual_database(args[0])
        scheduler = vdb.request_manager.scheduler
        return json.dumps(
            scheduler.statistics(), indent=2, sort_keys=True, default=str
        )
