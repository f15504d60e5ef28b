"""The controller's values for non-deterministic SQL functions.

Paper §2.4.1: "SQL queries containing macros such as RAND() or NOW() are
rewritten on-the-fly with a value computed by the scheduler so that each
backend stores exactly the same data."

The statement analysis (:mod:`repro.core.requestparser`) replaces every call
of a volatile function (:data:`repro.sql.functions.VOLATILE_FUNCTIONS`) in a
write by a ``?`` placeholder, once per statement text, and records which
slot of the parameter tuple it fills.  :func:`bind_macros` computes the
controller's value for each slot, once per request, and binds it.  The text
a backend receives therefore never changes, and every backend, the recovery
log and every replica controller get the same values.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Sequence, Tuple

from repro.sql.functions import VOLATILE_FUNCTIONS


def bind_macros(
    parameter_sets: Sequence[Sequence[Any]], slots: Sequence[Tuple[int, str]]
) -> Tuple[Tuple[Any, ...], ...]:
    """Each parameter set with a controller value inserted at every slot.

    ``slots`` are ``(slot, NAME)`` pairs in slot order.  One value is drawn
    per call and shared by every set, so a batch stores the same NOW()/RAND()
    in each row, as a single write would.  A value is what the function's
    literal would parse to: a timestamp as ISO text to the second, a date as
    ISO text, a number as is.
    """
    values = []
    for slot, name in slots:
        value = VOLATILE_FUNCTIONS[name](())
        if isinstance(value, _dt.datetime):
            value = value.isoformat(sep=" ", timespec="seconds")
        elif isinstance(value, _dt.date):
            value = value.isoformat()
        values.append((slot, value))
    bound = []
    for parameters in parameter_sets:
        row = list(parameters)
        for slot, value in values:
            row.insert(slot, value)
        bound.append(tuple(row))
    return tuple(bound)
