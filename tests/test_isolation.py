"""Isolation exerciser: history checker units and live anomaly probes.

The probe tests pin down the acceptance properties of the scheduler×anomaly
matrix: the passthrough scheduler *observes* an anomaly (lost update) that
the pessimistic scheduler provably prevents, and the MVCC scheduler detects
a seeded write-write conflict while never blocking a read.
"""

import io
import json

import pytest

from repro.cli import main
from repro.core.scheduler import SCHEDULER_NAMES
from repro.errors import CJDBCError
from repro.isolation import (
    ANOMALIES,
    History,
    backward_transitions,
    cell,
    dirty_reads,
    format_isolation_matrix,
    run_isolation_matrix,
    run_isolation_probe,
    run_random_mix,
)


class TestHistoryChecker:
    def test_events_are_sorted_by_start_time(self):
        history = History()
        history.add("b", "read", started=2.0, finished=2.1, table="kv", key=1, value="x")
        history.add("a", "read", started=1.0, finished=1.1, table="kv", key=1, value="y")
        assert [event.client for event in history.events] == ["a", "b"]
        assert len(history) == 2

    def test_reads_filters_by_table_and_key(self):
        history = History()
        history.add("c", "read", 1.0, 1.1, table="kv", key=1, value="x")
        history.add("c", "read", 2.0, 2.1, table="kv", key=2, value="y")
        history.add("c", "write", 3.0, 3.1, table="kv", key=1, value="z")
        assert len(history.reads("kv")) == 2
        assert len(history.reads("kv", key=1)) == 1
        assert history.reads("meta") == []

    def test_dirty_reads_respects_margin(self):
        history = History()
        # finished well before the ack: dirty
        history.add("c", "read", 1.0, 1.0, table="kv", key=0, value="new")
        # finished just before the ack, within the margin: not classified
        history.add("c", "read", 1.9, 1.95, table="kv", key=0, value="new")
        # old value: never dirty
        history.add("c", "read", 1.0, 1.1, table="kv", key=0, value="old")
        dirty = dirty_reads(history, "kv", 0, "new", acked_at=2.0, margin=0.5)
        assert len(dirty) == 1
        assert dirty[0].finished == 1.0

    def test_backward_transitions_counts_new_to_old(self):
        history = History()
        ranks = {"old": 0, "new": 1}
        for started, value in [(1, "old"), (2, "new"), (3, "old"), (4, "new")]:
            history.add("c", "read", started, started + 0.1, table="kv", key=1, value=value)
        # one backward pair (new at t=2 -> old at t=3); other clients ignored
        history.add("other", "read", 2.5, 2.6, table="kv", key=1, value="old")
        assert backward_transitions(history, "c", "kv", 1, ranks) == 1

    def test_cell_validates_status(self):
        assert cell("observed", mechanism="why", count=3) == {
            "status": "observed", "mechanism": "why", "count": 3,
        }
        with pytest.raises(ValueError):
            cell("maybe")

    def test_format_isolation_matrix(self):
        matrix = {
            "seed": 7,
            "anomalies": ["dirty_read"],
            "schedulers": {
                "passthrough": {"dirty_read": cell("observed")},
                "mvcc": {"dirty_read": cell("prevented")},
            },
        }
        rendered = format_isolation_matrix(matrix)
        assert "scheduler × anomaly matrix (seed 7)" in rendered
        assert "passthrough" in rendered and "mvcc" in rendered
        assert "observed" in rendered and "prevented" in rendered


class TestAnomalyProbes:
    def test_passthrough_observes_lost_update(self):
        """Two racing updates apply in different orders on different replicas."""
        result = run_isolation_probe("passthrough", "lost_update", seed=7, scale=0.5)
        assert result["status"] == "observed"

    def test_pessimistic_prevents_lost_update(self):
        """The same race under the pessimistic scheduler: total write order."""
        result = run_isolation_probe("pessimistic", "lost_update", seed=7, scale=0.5)
        assert result["status"] == "prevented"

    @pytest.mark.parametrize("anomaly", ["dirty_read", "non_repeatable_read"])
    def test_optimistic_observes_half_propagated_write(self, anomaly):
        """The probe's delay sits on the replica the broadcast reaches last,
        so the window it claims to test is open however the write is applied."""
        result = run_isolation_probe("optimistic", anomaly, seed=7, scale=0.5)
        assert result["status"] == "observed", result

    def test_mvcc_detects_seeded_ww_conflict(self):
        result = run_isolation_probe("mvcc", "ww_conflict", seed=7, scale=0.5)
        assert result["status"] == "prevented"
        assert result["conflicts_detected"] >= 1

    def test_mvcc_never_blocks_reads_during_write_storm(self):
        result = run_isolation_probe("mvcc", "read_blocking", seed=7, scale=0.5)
        assert result["status"] == "prevented"
        assert result["blocked_reads"] == 0
        assert result["reads_issued"] > 0

    def test_unknown_anomaly_and_scheduler_are_rejected(self):
        with pytest.raises(CJDBCError):
            run_isolation_probe("mvcc", "phantom_read")
        with pytest.raises(CJDBCError):
            run_isolation_probe("fifo", "dirty_read")


class TestMatrix:
    def test_matrix_structure_and_rendering(self):
        matrix = run_isolation_matrix(["passthrough", "mvcc"], seed=7, scale=0.5)
        assert matrix["seed"] == 7
        assert list(matrix["schedulers"]) == ["passthrough", "mvcc"]
        assert matrix["anomalies"] == list(ANOMALIES)
        for cells in matrix["schedulers"].values():
            assert set(cells) == set(ANOMALIES)
            for value in cells.values():
                assert value["status"] in ("observed", "prevented")
        rendered = format_isolation_matrix(matrix)
        for anomaly in ANOMALIES:
            assert anomaly in rendered

    def test_default_schedulers_are_the_five_variants(self):
        assert SCHEDULER_NAMES == (
            "passthrough", "optimistic", "pessimistic", "table_lock", "mvcc",
        )

    def test_random_mix_converges_under_ordered_scheduler(self):
        mix = run_random_mix("table_lock", seed=11, scale=0.4)
        assert mix["client_errors"] == 0
        assert mix["divergences"] == []
        assert mix["operations"] > 0


class TestIsolationCli:
    def test_cli_renders_matrix(self):
        stdout = io.StringIO()
        code = main(
            ["isolation", "--scheduler", "mvcc", "--scale", "0.5"], stdout=stdout
        )
        assert code == 0
        output = stdout.getvalue()
        assert "scheduler × anomaly matrix" in output
        assert "mvcc" in output

    def test_cli_json_output(self):
        stdout = io.StringIO()
        code = main(
            [
                "isolation", "--scheduler", "optimistic", "--scale", "0.5",
                "--seed", "3", "--json",
            ],
            stdout=stdout,
        )
        assert code == 0
        matrix = json.loads(stdout.getvalue())
        assert matrix["seed"] == 3
        assert "optimistic" in matrix["schedulers"]
