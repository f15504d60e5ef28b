"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("ablation-lb", "chaos", "isolation", "console", "check-config", "serve"):
            assert command in text
        # the paper's Table 1 and Figures 10-12 are count tables under tests/
        for command in ("table1", "figure10", "figure11", "figure12"):
            assert command not in text

    def test_no_command_prints_help(self):
        out = io.StringIO()
        assert main([], stdout=out) == 2
        assert "usage:" in out.getvalue()



class TestChaosCommand:
    def test_chaos_list(self):
        out = io.StringIO()
        assert main(["chaos", "--list"], stdout=out) == 0
        text = out.getvalue()
        assert "crash_mid_transaction" in text
        assert "distributed_controller_backend_failure" in text

    def test_chaos_single_scenario(self):
        out = io.StringIO()
        code = main(
            ["chaos", "--scenario", "crash_mid_transaction", "--seed", "11",
             "--scale", "0.3"],
            stdout=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "[PASS] crash_mid_transaction" in text
        assert "failover latency" in text
        assert "1/1 scenarios passed" in text

    def test_chaos_unknown_scenario(self):
        out = io.StringIO()
        assert main(["chaos", "--scenario", "nope"], stdout=out) == 2
        assert "unknown chaos scenario" in out.getvalue()


class TestConsoleCommand:
    def test_execute_console_commands(self):
        out = io.StringIO()
        code = main(
            ["console", "--execute", "show databases", "--execute", "show backends demodb"],
            stdout=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "demodb" in text
        assert "node-a" in text and "ENABLED" in text

    def test_console_stats_command(self):
        out = io.StringIO()
        code = main(["console", "--execute", "stats demodb"], stdout=out)
        assert code == 0
        assert "requests_executed" in out.getvalue()

    def test_console_controller_requires_config(self):
        out = io.StringIO()
        code = main(["console", "--controller", "x", "--execute", "help"], stdout=out)
        assert code == 2
        assert "--controller requires --config" in out.getvalue()

    def test_console_scheduler_command(self):
        out = io.StringIO()
        code = main(["console", "--execute", "scheduler demodb"], stdout=out)
        assert code == 0
        text = out.getvalue()
        assert "read_wait" in text and "write_wait" in text
        assert "Scheduler" in text  # the variant's class name


class TestConfigCommands:
    DESCRIPTOR = (
        '{"name": "cli-test", "virtual_databases":'
        ' [{"name": "clidb", "backends": ["b0", "b1"]}],'
        ' "controllers": [{"name": "cli-ctrl-a"}, {"name": "cli-ctrl-b"}]}'
    )

    def test_console_boots_from_descriptor_file(self, tmp_path):
        path = tmp_path / "cluster.json"
        path.write_text(self.DESCRIPTOR)
        out = io.StringIO()
        code = main(
            ["console", "--config", str(path), "--execute", "show backends clidb"],
            stdout=out,
        )
        assert code == 0
        assert "b0" in out.getvalue() and "ENABLED" in out.getvalue()

    def test_console_config_with_unknown_controller(self, tmp_path):
        path = tmp_path / "cluster.json"
        path.write_text(self.DESCRIPTOR)
        out = io.StringIO()
        code = main(
            ["console", "--config", str(path), "--controller", "ghost", "--execute", "help"],
            stdout=out,
        )
        assert code == 1
        assert "no controller 'ghost'" in out.getvalue()

    def test_check_config_valid_and_invalid(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(self.DESCRIPTOR)
        out = io.StringIO()
        assert main(["check-config", str(good)], stdout=out) == 0
        text = out.getvalue()
        assert "cluster 'cli-test': OK" in text
        assert "cjdbc://cli-ctrl-a,cli-ctrl-b/clidb" in text

        bad = tmp_path / "bad.json"
        bad.write_text('{"virtual_databases": []}')
        out = io.StringIO()
        assert main(["check-config", str(bad)], stdout=out) == 1
        assert "invalid descriptor" in out.getvalue()

    def test_check_config_reports_parsing_cache(self, tmp_path):
        path = tmp_path / "cluster.json"
        path.write_text(
            '{"virtual_databases": [{"name": "clidb", "backends": ["b0"],'
            ' "parsing_cache_size": 64}]}'
        )
        out = io.StringIO()
        assert main(["check-config", str(path)], stdout=out) == 0
        assert "parsing cache: 64 statements" in out.getvalue()

        disabled = tmp_path / "disabled.json"
        disabled.write_text(
            '{"virtual_databases": [{"name": "clidb2", "backends": ["b0"],'
            ' "parsing_cache_size": 0}]}'
        )
        out = io.StringIO()
        assert main(["check-config", str(disabled)], stdout=out) == 0
        assert "parsing cache: disabled" in out.getvalue()

    def test_check_config_handles_grouped_vdbs(self, tmp_path):
        # regression: the distributed replica wrapper must expose the
        # pipeline the topology report prints
        import json

        config = tmp_path / "grouped.json"
        config.write_text(
            json.dumps(
                {
                    "virtual_databases": [
                        {"name": "ccgdb", "group_name": "ccg", "backends": ["db"]}
                    ],
                    "controllers": [{"name": "ccg-a"}, {"name": "ccg-b"}],
                }
            )
        )
        out = io.StringIO()
        assert main(["check-config", str(config)], stdout=out) == 0
        assert out.getvalue().count("interceptors: metrics") == 2
        # one line per replicated vdb, not per controller; no group: section
        # means the in-process link
        assert out.getvalue().count("  group: ") == 1
        assert "  group: ccg over inproc\n" in out.getvalue()

    def test_check_config_reports_tcp_group_section(self, tmp_path):
        import json

        config = tmp_path / "tcpgroup.json"
        config.write_text(
            json.dumps(
                {
                    "virtual_databases": [
                        {
                            "name": "cctdb",
                            "group_name": "cct",
                            "backends": ["db"],
                            "group": {
                                "transport": "tcp",
                                "heartbeat_interval": 0.25,
                                "heartbeat_threshold": 4,
                                "rpc_timeout": 2.5,
                                "members": {"cct-a": "127.0.0.1:0"},
                            },
                        },
                        {"name": "plain", "backends": ["pdb"]},
                    ],
                    "controllers": [
                        {"name": "cct-a", "virtual_databases": ["cctdb", "plain"]}
                    ],
                }
            )
        )
        out = io.StringIO()
        assert main(["check-config", str(config)], stdout=out) == 0
        assert (
            "  group: cct over tcp (members: cct-a=127.0.0.1:0;"
            " heartbeat 0.25s x 4; rpc_timeout 2.5s)\n"
        ) in out.getvalue()
        assert out.getvalue().count("  group: ") == 1  # `plain` is not replicated

    def test_check_config_reports_scheduler(self, tmp_path):
        path = tmp_path / "cluster.json"
        path.write_text(
            '{"virtual_databases": [{"name": "clidb", "backends": ["b0", "b1"],'
            ' "scheduler": {"name": "table_lock", "lock_timeout": 2.0}}]}'
        )
        out = io.StringIO()
        assert main(["check-config", str(path)], stdout=out) == 0
        assert "scheduler: table_lock (lock_timeout: 2.0)" in out.getvalue()

        default = tmp_path / "default.json"
        default.write_text(
            '{"virtual_databases": [{"name": "clidb2", "backends": ["b0"]}]}'
        )
        out = io.StringIO()
        assert main(["check-config", str(default)], stdout=out) == 0
        assert "scheduler: optimistic" in out.getvalue()

    def test_check_config_rejects_unknown_scheduler(self, tmp_path):
        path = tmp_path / "cluster.json"
        path.write_text(
            '{"virtual_databases": [{"name": "clidb", "backends": ["b0"],'
            ' "scheduler": "fifo"}]}'
        )
        out = io.StringIO()
        assert main(["check-config", str(path)], stdout=out) == 1
        assert "scheduler" in out.getvalue()

    def test_check_config_rejects_bad_parsing_cache_size(self, tmp_path):
        path = tmp_path / "cluster.json"
        path.write_text(
            '{"virtual_databases": [{"name": "clidb", "backends": ["b0"],'
            ' "parsing_cache_size": -5}]}'
        )
        out = io.StringIO()
        assert main(["check-config", str(path)], stdout=out) == 1
        assert "parsing_cache_size" in out.getvalue()

    def test_check_config_rejects_invalid_enum_without_traceback(self, tmp_path):
        # regression: an unknown load-balancing policy used to escape
        # check-config as a ValueError traceback
        import os
        import subprocess
        import sys

        import repro

        path = tmp_path / "cluster.json"
        path.write_text(
            '{"virtual_databases": [{"name": "clidb", "backends": ["b0"],'
            ' "load_balancing_policy": "zzz"}]}'
        )
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "check-config", str(path)],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": source_root},
        )
        assert completed.returncode == 1
        assert completed.stdout.startswith(
            "invalid descriptor: descriptor.virtual_databases[0].load_balancing_policy:"
            " expected one of: lprf, rr, wrr, got 'zzz'"
        )
        assert completed.stderr == ""


class TestServeCommand:
    DESCRIPTOR = {
        "virtual_databases": [{"name": "servedb", "backends": ["se0", "se1"]}],
        "controllers": [
            {"name": "ctrl-x", "listen": {"port": 0, "max_connections": 8}},
        ],
    }

    def _write_config(self, tmp_path):
        import json

        config = tmp_path / "cluster.json"
        config.write_text(json.dumps(self.DESCRIPTOR))
        return str(config)

    def test_serve_registered_in_help(self):
        parser = build_parser()
        assert "serve" in parser.format_help()

    def test_serve_for_a_duration(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["serve", "--config", self._write_config(tmp_path), "--duration", "0.2"],
            stdout=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "listening ctrl-x 127.0.0.1 " in text
        assert "url cjdbc://127.0.0.1:" in text
        assert "ready" in text
        assert "stopped" in text

    def test_serve_accepts_clients_while_running(self, tmp_path):
        import threading

        import repro

        out = io.StringIO()
        config = self._write_config(tmp_path)
        seen = {}

        def client():
            # wait for the serving thread to print its URL, then connect
            deadline = __import__("time").monotonic() + 5.0
            url = None
            while __import__("time").monotonic() < deadline and url is None:
                for line in out.getvalue().splitlines():
                    if line.startswith("url "):
                        url = line.split()[1]
                        break
            assert url is not None
            connection = repro.connect(url)
            connection.execute("CREATE TABLE t (id INT PRIMARY KEY)")
            connection.execute("INSERT INTO t (id) VALUES (1)")
            seen["count"] = connection.execute("SELECT COUNT(*) FROM t").scalar()
            connection.close()

        thread = threading.Thread(target=client)
        thread.start()
        code = main(["serve", "--config", config, "--duration", "2.0"], stdout=out)
        thread.join()
        assert code == 0
        assert seen["count"] == 1

    def test_serve_without_listen_sections_errors(self, tmp_path):
        import json

        config = tmp_path / "nolisten.json"
        config.write_text(
            json.dumps(
                {
                    "virtual_databases": [{"name": "plaindb", "backends": ["pe0"]}],
                    "controllers": [{"name": "plain-ctrl"}],
                }
            )
        )
        out = io.StringIO()
        assert main(["serve", "--config", str(config)], stdout=out) == 1
        assert "no controller in the descriptor has a 'listen:' section" in out.getvalue()

    TWO_CONTROLLER_DESCRIPTOR = {
        "virtual_databases": [
            {
                "name": "splitdb",
                "group_name": "split",
                "recovery_log": "memory",
                "backends": ["sp0"],
                "group": {"transport": "tcp", "heartbeat_interval": 0.05},
            }
        ],
        "controllers": [
            {"name": "split-a", "listen": {"port": 0}},
            {"name": "split-b", "listen": {"port": 0}},
        ],
    }

    def _write_two_controller_config(self, tmp_path):
        import json

        config = tmp_path / "split.json"
        config.write_text(json.dumps(self.TWO_CONTROLLER_DESCRIPTOR))
        return str(config)

    def test_serve_only_one_controller_of_the_descriptor(self, tmp_path):
        out = io.StringIO()
        code = main(
            [
                "serve",
                "--config", self._write_two_controller_config(tmp_path),
                "--controller", "split-b",
                "--duration", "0.2",
            ],
            stdout=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "listening split-b 127.0.0.1 " in text
        assert "split-a" not in text.replace("split-ab", "")  # only split-b booted

    def test_serve_unknown_controller_errors_with_known_names(self, tmp_path):
        out = io.StringIO()
        code = main(
            [
                "serve",
                "--config", self._write_two_controller_config(tmp_path),
                "--controller", "ghost",
            ],
            stdout=out,
        )
        assert code == 1
        text = out.getvalue()
        assert "error:" in text
        assert "split-a" in text and "split-b" in text

    def test_check_config_reports_listen_sections(self, tmp_path):
        import json

        config = tmp_path / "cluster.json"
        config.write_text(json.dumps(self.DESCRIPTOR))
        out = io.StringIO()
        assert main(["check-config", str(config)], stdout=out) == 0
        assert "listen: ctrl-x on 127.0.0.1:0 (max 8 connections)" in out.getvalue()
