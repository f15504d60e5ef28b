"""Tests generated from the descriptor schema instead of hand-enumerated.

The spec dataclasses are the schema (``repro.core.schema``); these tests
walk it, so a key added to a section is covered — and must be documented —
without anyone remembering to add a case.
"""

import dataclasses
import functools
import json
import re
from pathlib import Path

import pytest

from repro.cluster import parse_descriptor
from repro.cluster.descriptor import ClusterDescriptor
from repro.core.retry import RETRY_OPTION_KEYS
from repro.core.schema import schema
from repro.errors import ConfigurationError

WRONG = object()  # not a string, number, boolean, list or mapping


def _sample(declared):
    """A valid value for a required key."""
    kind = declared.kind
    if dataclasses.is_dataclass(kind):
        return _minimal(kind)
    if kind in (list, tuple):
        return [_sample(declared.item)]
    if kind in (int, float):
        return declared.minimum or 0
    assert kind is str, f"no sample value for required kind {kind!r}"
    return "x"


def _minimal(cls):
    """The smallest valid mapping for a section: its required keys only."""
    return {d.name: _sample(d) for d in schema(cls).values() if d.required}


def _sites(cls, where, wrap):
    """Every place a value can sit below section ``cls``.

    Yields ``(path, place, field, declared)``: ``place(value)`` is a whole
    descriptor, minimal and valid except that ``value`` sits at ``path``;
    ``field`` is the dataclass field for key sites and None for the sites of
    list elements / mapping values.
    """
    fields = {field.name: field for field in dataclasses.fields(cls)}
    for field_name, declared in schema(cls).items():
        def place(value, declared=declared):
            mapping = _minimal(cls)
            target = mapping
            if declared.section is not None:
                target = mapping.setdefault(declared.section, {})
            target[declared.name] = value
            return wrap(mapping)

        prefix = f"{where}.{declared.section}" if declared.section else where
        path = f"{prefix}.{declared.name}"
        yield path, place, fields[field_name], declared
        if dataclasses.is_dataclass(declared.kind):
            yield from _sites(declared.kind, path, place)
        elif declared.item is not None and declared.kind is dict:
            name = declared.keys[0] if declared.keys else "k"
            yield f"{path}.{name}", lambda v, p=place, n=name: p({n: v}), None, declared.item
        elif declared.item is not None:
            yield f"{path}[0]", lambda v, p=place: p([v]), None, declared.item
            if dataclasses.is_dataclass(declared.item.kind):
                yield from _sites(declared.item.kind, f"{path}[0]", lambda v, p=place: p([v]))


SITES = list(_sites(ClusterDescriptor, "descriptor", lambda document: document))


def test_the_walk_reaches_every_section():
    paths = {path for path, _, _, _ in SITES}
    assert "descriptor.virtual_databases[0].backends[0].weight" in paths
    assert "descriptor.virtual_databases[0].cache.relaxation_rules[0].tables[0]" in paths
    assert "descriptor.virtual_databases[0].routing.weights.pending" in paths
    assert "descriptor.virtual_databases[0].group.members.k" in paths
    assert "descriptor.controllers[0].listen.port" in paths
    parse_descriptor(_minimal(ClusterDescriptor))  # the documents the walk builds on are valid


@pytest.mark.parametrize("path, place", [site[:2] for site in SITES], ids=[s[0] for s in SITES])
def test_wrong_typed_value_is_reported_at_its_full_key_path(path, place):
    with pytest.raises(ConfigurationError) as raised:
        parse_descriptor(place(WRONG))
    assert str(raised.value).startswith(f"{path}: ")


def _vdb(**overrides):
    return {"virtual_databases": [{"name": "d", "backends": ["a"], **overrides}]}


def _controller(**overrides):
    return {**_vdb(), "controllers": [{"name": "c", **overrides}]}


BOGUS = {"__bogus__": 1}

#: section -> (a document that is invalid there, the accepted set) — the
#: fifteen key / value sets of the hand-written parsers, verbatim
ACCEPTED = {
    "descriptor": (BOGUS, {"name", "virtual_databases", "controllers"}),
    "virtual database": (
        _vdb(**BOGUS),
        {
            "name", "backends", "replication", "load_balancing_policy",
            "wait_for_completion", "scheduler", "lazy_transaction_begin", "cache",
            "parsing_cache_size", "interceptors", "recovery_log", "users",
            "transparent_authentication", "group_name", "group", "retry", "routing",
            "replication_map", "partition_map", "failure_detector",
        },
    ),
    "backend": (
        _vdb(backends=[BOGUS]),
        {"name", "engine", "weight", "connection_manager", "pool_size", "faults"},
    ),
    "failure_detector": (
        _vdb(failure_detector=BOGUS),
        {"read_error_threshold", "auto_resync"},
    ),
    "cache": (
        _vdb(cache=BOGUS),
        {"enabled", "granularity", "max_entries", "relaxation_rules"},
    ),
    "relaxation rule": (
        _vdb(cache={"relaxation_rules": [BOGUS]}),
        {"staleness_seconds", "tables", "sql_pattern", "keep_on_write"},
    ),
    "controller": (_controller(**BOGUS), {"name", "virtual_databases", "listen"}),
    "listen": (
        _controller(listen=BOGUS),
        {"host", "port", "max_connections", "idle_timeout", "backlog"},
    ),
    "group": (
        _vdb(group=BOGUS),
        {"transport", "heartbeat_interval", "heartbeat_threshold", "rpc_timeout", "members"},
    ),
    "group transports": (_vdb(group={"transport": "pigeon"}), {"inproc", "tcp"}),
    "retry": (
        _vdb(retry=BOGUS),
        {"attempts", "backoff", "backoff_multiplier", "backoff_max", "jitter", "timeout", "seed"},
    ),
    "routing": (_vdb(routing=BOGUS), {"policy", "scatter_gather", "weights"}),
    "routing policies": (_vdb(routing={"policy": "fastest"}), {"cost", "policy"}),
    "routing weights": (
        _vdb(routing={"weights": BOGUS}),
        {"pending", "pool", "service_time"},
    ),
    "scheduler": (
        _vdb(scheduler={"name": "mvcc", **BOGUS}),
        {"name", "lock_timeout"},
    ),
}


@pytest.mark.parametrize("section", ACCEPTED)
def test_accepted_set_of_each_section_is_unchanged(section):
    """The refactor onto one schema adds and removes no knob."""
    document, accepted = ACCEPTED[section]
    with pytest.raises(ConfigurationError) as raised:
        parse_descriptor(document)
    listed = re.search(r"expected one of: ([^)]*?)(?:\)|, got )", str(raised.value)).group(1)
    assert set(listed.split(", ")) == accepted


README = Path(__file__).resolve().parent.parent / "README.md"


@functools.lru_cache(maxsize=None)
def _readme_rows():
    """First cell -> row, over the tables of the two descriptor sections."""
    text = README.read_text()
    rows = {}
    for heading in ("## Descriptor schema", "## Distributed controllers"):
        section = text.split(heading, 1)[1].split("\n## ", 1)[0]
        for match in re.finditer(r"^\| `([^`]+)` \|.*$", section, flags=re.MULTILINE):
            rows.setdefault(match.group(1), []).append(match.group(0))
    return rows


def _readme_name(path):
    """A key's name in README: its path below the nearest list entry."""
    return re.sub(r"^.*\]\.|^descriptor\.", "", path)


DOCUMENTED = [
    (_readme_name(path), field.default) for path, _, field, _ in SITES if field is not None
] + [(f"retry.{option[len('retry_'):]}", None) for option in RETRY_OPTION_KEYS]


@pytest.mark.parametrize("name, default", DOCUMENTED, ids=[name for name, _ in DOCUMENTED])
def test_readme_documents_every_key_with_its_default(name, default):
    rows = _readme_rows().get(name)
    assert rows, f"README.md has no table row for descriptor key `{name}`"
    if isinstance(default, (bool, int, float, str)):
        literal = f"`{json.dumps(default)}`"
        assert any(literal in row for row in rows), (
            f"README.md row for `{name}` does not state its default {literal}"
        )
