"""Built-in SQL scalar functions and aggregate implementations.

:data:`VOLATILE_FUNCTIONS` is the one list of the non-deterministic
functions (``NOW()``, ``RAND()``, ...).  If each backend evaluated one in a
replicated write the replicas would diverge, so the controller draws the
value once and binds it as a parameter instead (paper §2.4.1,
:mod:`repro.core.macros`).  They are still implemented here so a *single*
backend, or a read, behaves like a normal RDBMS.
"""

from __future__ import annotations

import datetime as _dt
import math
import random
from typing import Any, Callable, Dict, List, Optional

from repro.errors import SQLError
from repro.sql.types import sort_key


# ---------------------------------------------------------------------------
# Scalar functions
# ---------------------------------------------------------------------------


def _fn_now(args: List[Any]) -> _dt.datetime:
    return _dt.datetime.now()


def _fn_current_date(args: List[Any]) -> _dt.date:
    return _dt.date.today()


def _fn_rand(args: List[Any]) -> float:
    return random.random()


def _fn_length(args: List[Any]) -> Optional[int]:
    value = args[0]
    return None if value is None else len(str(value))


def _fn_upper(args: List[Any]) -> Optional[str]:
    value = args[0]
    return None if value is None else str(value).upper()


def _fn_lower(args: List[Any]) -> Optional[str]:
    value = args[0]
    return None if value is None else str(value).lower()


def _fn_substring(args: List[Any]) -> Optional[str]:
    value = args[0]
    if value is None:
        return None
    text = str(value)
    start = int(args[1]) - 1 if len(args) > 1 else 0
    if len(args) > 2:
        return text[start : start + int(args[2])]
    return text[start:]


def _fn_concat(args: List[Any]) -> Optional[str]:
    if any(value is None for value in args):
        return None
    return "".join(str(value) for value in args)


def _fn_abs(args: List[Any]) -> Optional[float]:
    value = args[0]
    return None if value is None else abs(value)


def _fn_round(args: List[Any]) -> Optional[float]:
    value = args[0]
    if value is None:
        return None
    digits = int(args[1]) if len(args) > 1 else 0
    return round(value, digits)


def _fn_floor(args: List[Any]) -> Optional[int]:
    value = args[0]
    return None if value is None else math.floor(value)


def _fn_ceiling(args: List[Any]) -> Optional[int]:
    value = args[0]
    return None if value is None else math.ceil(value)


def _fn_mod(args: List[Any]) -> Optional[float]:
    if args[0] is None or args[1] is None:
        return None
    return args[0] % args[1]


def _fn_coalesce(args: List[Any]) -> Any:
    for value in args:
        if value is not None:
            return value
    return None


def _fn_nullif(args: List[Any]) -> Any:
    if len(args) != 2:
        raise SQLError("NULLIF takes exactly 2 arguments")
    return None if args[0] == args[1] else args[0]


def _fn_ifnull(args: List[Any]) -> Any:
    return args[1] if args[0] is None else args[0]


#: the non-deterministic functions: each call may give a different value
VOLATILE_FUNCTIONS: Dict[str, Callable[[List[Any]], Any]] = {
    "NOW": _fn_now,
    "CURRENT_TIMESTAMP": _fn_now,
    "SYSDATE": _fn_now,
    "CURRENT_DATE": _fn_current_date,
    "CURDATE": _fn_current_date,
    "RAND": _fn_rand,
    "RANDOM": _fn_rand,
}

SCALAR_FUNCTIONS: Dict[str, Callable[[List[Any]], Any]] = {
    **VOLATILE_FUNCTIONS,
    "LENGTH": _fn_length,
    "CHAR_LENGTH": _fn_length,
    "UPPER": _fn_upper,
    "UCASE": _fn_upper,
    "LOWER": _fn_lower,
    "LCASE": _fn_lower,
    "SUBSTRING": _fn_substring,
    "SUBSTR": _fn_substring,
    "CONCAT": _fn_concat,
    "ABS": _fn_abs,
    "ROUND": _fn_round,
    "FLOOR": _fn_floor,
    "CEILING": _fn_ceiling,
    "CEIL": _fn_ceiling,
    "MOD": _fn_mod,
    "COALESCE": _fn_coalesce,
    "NULLIF": _fn_nullif,
    "IFNULL": _fn_ifnull,
}

def call_scalar(name: str, args: List[Any]) -> Any:
    """Invoke the scalar function ``name`` (case-insensitive)."""
    try:
        function = SCALAR_FUNCTIONS[name.upper()]
    except KeyError:
        raise SQLError(f"unknown SQL function {name!r}") from None
    return function(args)


def is_scalar_function(name: str) -> bool:
    return name.upper() in SCALAR_FUNCTIONS


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


class Aggregate:
    """Incremental aggregate computation over a group of rows."""

    def add(self, value: Any) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def result(self) -> Any:  # pragma: no cover - interface
        raise NotImplementedError


class CountAggregate(Aggregate):
    def __init__(self, count_nulls: bool, distinct: bool = False):
        self._count = 0
        self._count_nulls = count_nulls
        self._distinct = distinct
        self._seen = set()

    def add(self, value: Any) -> None:
        if value is None and not self._count_nulls:
            return
        if self._distinct:
            key = sort_key(value)
            if key in self._seen:
                return
            self._seen.add(key)
        self._count += 1

    def result(self) -> int:
        return self._count


class SumAggregate(Aggregate):
    def __init__(self, distinct: bool = False):
        self._sum = None
        self._distinct = distinct
        self._seen = set()

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._distinct:
            key = sort_key(value)
            if key in self._seen:
                return
            self._seen.add(key)
        self._sum = value if self._sum is None else self._sum + value

    def result(self) -> Any:
        return self._sum


class AvgAggregate(Aggregate):
    def __init__(self, distinct: bool = False):
        self._sum = 0.0
        self._count = 0
        self._distinct = distinct
        self._seen = set()

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._distinct:
            key = sort_key(value)
            if key in self._seen:
                return
            self._seen.add(key)
        self._sum += value
        self._count += 1

    def result(self) -> Optional[float]:
        if self._count == 0:
            return None
        return self._sum / self._count


class MinAggregate(Aggregate):
    def __init__(self):
        self._min = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._min is None or sort_key(value) < sort_key(self._min):
            self._min = value

    def result(self) -> Any:
        return self._min


class MaxAggregate(Aggregate):
    def __init__(self):
        self._max = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._max is None or sort_key(value) > sort_key(self._max):
            self._max = value

    def result(self) -> Any:
        return self._max


AGGREGATE_NAMES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


def is_aggregate(name: str) -> bool:
    return name.upper() in AGGREGATE_NAMES


def make_aggregate(name: str, count_star: bool = False, distinct: bool = False) -> Aggregate:
    """Create an aggregate accumulator for function ``name``."""
    upper = name.upper()
    if upper == "COUNT":
        return CountAggregate(count_nulls=count_star, distinct=distinct)
    if upper == "SUM":
        return SumAggregate(distinct)
    if upper == "AVG":
        return AvgAggregate(distinct)
    if upper == "MIN":
        return MinAggregate()
    if upper == "MAX":
        return MaxAggregate()
    raise SQLError(f"unknown aggregate function {name!r}")
