"""Tests for the exception hierarchy and the benchmark report formatting."""

import pytest

from repro import errors
from repro.bench.report import PAPER_TPCW_THROUGHPUT, format_scalability_table
from repro.simulation.cluster import SimulationResult


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not errors.ReproError:
                assert issubclass(obj, errors.ReproError), name

    def test_sql_family(self):
        assert issubclass(errors.SQLSyntaxError, errors.SQLError)
        assert issubclass(errors.ConstraintViolation, errors.SQLError)
        assert issubclass(errors.LockTimeoutError, errors.TransactionError)
        assert issubclass(errors.DeadlockError, errors.TransactionError)

    def test_dbapi_family(self):
        assert issubclass(errors.OperationalError, errors.DatabaseError)
        assert issubclass(errors.IntegrityError, errors.DatabaseError)
        assert issubclass(errors.ProgrammingError, errors.DatabaseError)
        assert issubclass(errors.NotSupportedError, errors.DatabaseError)

    def test_cjdbc_family(self):
        for exc in (
            errors.AuthenticationError,
            errors.NoMoreBackendError,
            errors.BackendError,
            errors.UnknownVirtualDatabaseError,
            errors.NotReplicatedError,
            errors.ControllerError,
            errors.CheckpointError,
            errors.ConfigurationError,
            errors.GroupCommunicationError,
        ):
            assert issubclass(exc, errors.CJDBCError)

    def test_catching_the_base_class(self):
        with pytest.raises(errors.ReproError):
            raise errors.NoMoreBackendError("nothing left")


def result(configuration, backends, throughput):
    return SimulationResult(
        configuration=configuration,
        backends=backends,
        sql_requests_per_minute=throughput,
        interactions_per_minute=throughput / 2,
        avg_response_time_ms=100.0,
        backend_cpu_utilization=0.5,
        controller_cpu_utilization=0.05,
        statements_executed=int(throughput),
        interactions_executed=int(throughput / 2),
    )


class TestReportFormatting:
    def test_paper_reference_values_present(self):
        assert PAPER_TPCW_THROUGHPUT["browsing"]["single"] == 129

    def test_scalability_table_contains_series_and_speedups(self):
        series = {
            "single": [result("single", 1, 100.0)],
            "full": [result("full-2", 2, 190.0), result("full-6", 6, 480.0)],
            "partial": [result("partial-2", 2, 195.0), result("partial-6", 6, 560.0)],
        }
        text = format_scalability_table("browsing", series)
        assert "TPC-W browsing mix" in text
        assert "480" in text and "560" in text
        assert "full=4.80x" in text
        assert "partial=5.60x" in text

    def test_scalability_table_without_paper_reference(self):
        series = {
            "single": [result("single", 1, 100.0)],
            "full": [result("full-2", 2, 150.0)],
            "partial": [result("partial-2", 2, 160.0)],
        }
        text = format_scalability_table("custom-mix", series)
        assert "custom-mix" in text

    def test_simulation_result_as_dict_rounds_values(self):
        data = result("x", 3, 123.456).as_dict()
        assert data["backends"] == 3
        assert data["sql_requests_per_minute"] == 123.5
