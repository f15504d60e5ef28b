"""Tests for the exception hierarchy."""

import pytest

from repro import errors


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
