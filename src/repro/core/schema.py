"""The one generic parser for descriptor sections (the DTD of paper §2.2).

A section of a cluster descriptor is described by a dataclass.  Every field
that is a descriptor key is declared with :func:`key`, which records the
key's kind, bounds and choices in the field's metadata next to its default —
the only place either is written.  :func:`parse_section` walks
``dataclasses.fields(cls)`` and produces, for every section alike: the
unknown-key rejection, the missing-required-key error, the type / range /
enum checks, the defaults (by leaving absent keys to the dataclass) and the
``descriptor.virtual_databases[0].backends[1].weight: ...`` error paths.

Kinds (the first argument of :func:`key` / :class:`Key`):

* ``str`` — a non-empty string (``empty=True`` lifts that); with ``choices``
  an enum, accepted when ``resolve(value)`` does not raise (default: exact
  membership), so aliases and case rules stay with the table that owns them;
* ``bool``, ``int``, ``float`` (int or float, parsed to float) — with
  ``minimum`` / ``maximum`` (inclusive) and ``exclusive_minimum`` bounds;
* ``list`` / ``tuple`` — each element checked against ``item``;
* ``dict`` — string keys (restricted to ``keys`` when given), each value
  checked against ``item``;
* a dataclass — a nested section, parsed recursively;
* any other callable — a validator owned by another module, called as
  ``validator(value, where)`` and returning the parsed value.

A dotted ``name`` (``"cache.enabled"``) reads the key from a nested mapping
while keeping the field flat on the dataclass.  Rules relating several keys
are not expressible here on purpose: a section's own rules belong in its
``__post_init__`` (errors are re-raised with the section's path) and rules
across sections in explicit code after the parse.
"""

from __future__ import annotations

import dataclasses
from dataclasses import MISSING, dataclass
from typing import Any, Callable, Dict, Iterable, Mapping, NoReturn, Optional, Sequence

from repro.errors import CJDBCError, ConfigurationError

_METADATA = "descriptor_key"


@dataclass(frozen=True)
class Key:
    """Declaration of one descriptor key (see the module docstring)."""

    kind: Any
    #: descriptor key, ``section.key`` for one read from a nested mapping (one
    #: level); defaults to the field name
    name: Optional[str] = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    exclusive_minimum: Optional[float] = None
    choices: Sequence[str] = ()
    resolve: Optional[Callable[[str], Any]] = None
    empty: bool = False
    item: Optional["Key"] = None
    keys: Optional[Sequence[str]] = None
    #: noun for the "at least one ... is required" error of a list
    at_least_one: Optional[str] = None
    #: key a bare string stands for in a nested section ("b0" == {"name": "b0"})
    shorthand: Optional[str] = None
    #: replaces the generic type/range message (", got <value>" is appended)
    message: Optional[str] = None
    # filled in by schema(): the flattened section holding the key, and
    # whether the field has no default
    section: Optional[str] = None
    required: bool = False


def key(kind: Any, default: Any = MISSING, *, factory: Any = MISSING, **options: Any):
    """A dataclass field that is a descriptor key of the given kind."""
    return dataclasses.field(
        default=default, default_factory=factory, metadata={_METADATA: Key(kind, **options)}
    )


def schema(cls: type) -> Dict[str, Key]:
    """Field name -> resolved :class:`Key` of every descriptor key of ``cls``."""
    keys = {}
    for field in dataclasses.fields(cls):
        declared = field.metadata.get(_METADATA)
        if declared is not None:
            section, _, name = (declared.name or field.name).rpartition(".")
            keys[field.name] = dataclasses.replace(
                declared,
                name=name,
                section=section or None,
                required=field.default is MISSING and field.default_factory is MISSING,
            )
    return keys


def fail(where: str, message: str) -> NoReturn:
    raise ConfigurationError(f"{where}: {message}")


def quoted(noun: str, names: Iterable[str]) -> str:
    """``backend 'a'`` / ``backends 'a', 'b'``."""
    names = sorted(names)
    return f"{noun}{'s' if len(names) > 1 else ''} {', '.join(map(repr, names))}"


def check_keys(mapping: Mapping, allowed: Iterable[str], where: str) -> None:
    allowed = set(allowed)
    unknown = set(mapping) - allowed
    if unknown:
        fail(
            where,
            f"unknown {quoted('key', unknown)} (expected one of: {', '.join(sorted(allowed))})",
        )


def parse_section(cls: type, mapping: Any, where: str) -> Any:
    """Validate ``mapping`` against dataclass ``cls`` and instantiate it."""
    values = _section_values(schema(cls), mapping, where)
    try:
        return cls(**values)
    except CJDBCError as exc:  # the section's own __post_init__ rules
        fail(where, str(exc))


def _section_values(
    keys: Dict[str, Key], mapping: Any, where: str, section: Optional[str] = None
) -> Dict[str, Any]:
    """Parsed values of the keys of ``section`` (None: the dataclass's own level)."""
    if not isinstance(mapping, Mapping):
        fail(where, f"expected a mapping, got {mapping!r}")
    here = {name: declared for name, declared in keys.items() if declared.section == section}
    flattened = sorted({d.section for d in keys.values() if d.section} if section is None else ())
    check_keys(mapping, [declared.name for declared in here.values()] + flattened, where)
    values = {}
    for field_name, declared in here.items():
        if declared.name in mapping:
            values[field_name] = parse_value(
                declared, mapping[declared.name], f"{where}.{declared.name}"
            )
        elif declared.required:
            fail(where, f"missing required key {declared.name!r}")
    for name in flattened:
        values.update(_section_values(keys, mapping.get(name, {}), f"{where}.{name}", name))
    return values


_EXPECTED = {
    str: "a non-empty string",
    bool: "true/false",
    int: "an integer",
    float: "a number",
    list: "a list",
    tuple: "a list",
    dict: "a mapping",
}
_ACCEPTED = {float: (int, float), list: (list, tuple), tuple: (list, tuple), dict: Mapping}


def parse_value(declared: Key, value: Any, where: str) -> Any:
    """Check one value against its declaration and return it parsed."""
    kind = declared.kind
    if dataclasses.is_dataclass(kind):
        if declared.shorthand is not None and isinstance(value, str):
            value = {declared.shorthand: value}
        return parse_section(kind, value, where)
    if not isinstance(kind, type):
        return kind(value, where)
    problem = None
    if (
        not isinstance(value, _ACCEPTED.get(kind, kind))
        or (isinstance(value, bool) and kind is not bool)
        or (kind is str and not declared.empty and not value.strip())
    ):
        problem = f"expected {'a string' if declared.empty else _EXPECTED[kind]}"
    elif kind in (int, float):
        problem = _out_of_range(declared, value)
    if problem is not None:
        fail(where, f"{declared.message or problem}, got {value!r}")
    if kind is str and declared.choices:
        try:
            (declared.resolve or declared.choices.index)(value)
        except (ValueError, CJDBCError):
            fail(
                where,
                f"expected one of: {', '.join(sorted(declared.choices))}, got {value!r}",
            )
    if kind in (list, tuple):
        if declared.at_least_one is not None and not value:
            fail(where, f"at least one {declared.at_least_one} is required")
        if declared.item is None:
            return kind(value)
        return kind(
            parse_value(declared.item, element, f"{where}[{index}]")
            for index, element in enumerate(value)
        )
    if kind is dict:
        if declared.keys is not None:
            check_keys(value, declared.keys, where)
        for name in value:
            if not isinstance(name, str):
                fail(where, f"expected string keys, got {name!r}")
        if declared.item is None:
            return dict(value)
        return {
            name: parse_value(declared.item, element, f"{where}.{name}")
            for name, element in value.items()
        }
    return float(value) if kind is float else value


def _out_of_range(declared: Key, value: float) -> Optional[str]:
    low, high = declared.minimum, declared.maximum
    if declared.exclusive_minimum is not None and value <= declared.exclusive_minimum:
        return f"must be > {declared.exclusive_minimum}"
    if (low is not None and value < low) or (high is not None and value > high):
        return f"must be >= {low}" if high is None else f"must be between {low} and {high}"
    return None


__all__ = ["Key", "check_keys", "fail", "key", "parse_section", "parse_value", "quoted", "schema"]
