"""Tier-1 smoke run of the load benchmark (``pytest -m bench_smoke``).

Runs the real command once at smoke scale — 1 s windows, tiny data, short
traced run — and checks the contract rather than any number: every workload
and metric named in ``BENCHMARK.json`` is emitted, the spans form a forest,
the correctness checks ran, and no server child is left behind.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.bench_smoke

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    directory = tmp_path_factory.mktemp("load_smoke")
    out, spans = directory / "result.json", directory / "spans.json"
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--duration", "1",
         "--out", str(out), "--trace-out", str(spans)],
        capture_output=True, text=True, timeout=120,
    )
    assert process.returncode == 0, process.stdout + process.stderr
    return process.stdout, json.loads(out.read_text()), json.loads(spans.read_text())


def test_every_named_workload_and_metric_is_emitted(smoke):
    stdout, document, _spans = smoke
    assert list(document["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for workload, result in document["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            emitted = result[section]
            assert list(emitted) == [m["name"] for m in SPEC[section]], (workload, section)
            for metric in SPEC[section]:
                assert NAME.match(metric["name"])
                assert emitted[metric["name"]]["unit"] == metric["unit"]
                assert f"{workload:18s} {metric['name']} " in stdout
        for metric in SPEC["end_to_end"]:
            assert result["end_to_end"][metric["name"]]["value"] > 0, (workload, metric["name"])


def test_result_file_records_its_provenance(smoke):
    _stdout, document, _spans = smoke
    meta = document["meta"]
    for key in ("seed", "duration_s", "clients", "python", "cpu_count", "git_commit"):
        assert key in meta
    for result in document["workloads"].values():
        for section in ("end_to_end", "per_layer"):
            assert all("samples" in entry for entry in result[section].values())


def test_per_layer_metrics_separate_the_workloads(smoke):
    _stdout, document, _spans = smoke
    layers = {name: result["per_layer"] for name, result in document["workloads"].items()}
    for name, layer in layers.items():
        replicated = name == "replicated_write"
        writes = name in ("oltp_write", "replicated_write")
        assert (layer["group.self_us_per_write"]["value"] is not None) == replicated
        assert (layer["group.messages_per_write"]["value"] is not None) == replicated
        assert (layer["recovery.entries_per_write"]["value"] is not None) == writes
        assert (layer["cache.hit_ratio"]["value"] is not None) == (name != "tpcw_browse")
        assert layer["driver.fail_share"]["value"] == 0


def test_every_span_parent_resolves(smoke):
    _stdout, _document, spans = smoke
    assert set(spans) == {w["name"] for w in SPEC["workloads"]}
    for workload, records in spans.items():
        ids = {span["id"] for span in records}
        assert len(ids) == len(records)
        names = {span["name"] for span in records}
        assert {"driver.op", "request_manager.execute", "remote.op", "engine.execute"} <= names
        for span in records:
            assert span["parent"] is None or span["parent"] in ids, (workload, span)
            assert span["duration_us"] is not None and span["op"] is not None


def test_correctness_checks_ran_and_passed(smoke):
    _stdout, document, _spans = smoke
    for workload, result in document["workloads"].items():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {"replicas_identical", "no_backend_disabled", "every_result_as_modelled"} <= set(
            result["checks"]
        ), workload
        assert all(result["checks"].values()), (workload, result["checks"])


def test_server_child_never_outlives_the_run(smoke):
    _stdout, document, _spans = smoke
    for result in document["workloads"].values():
        assert result["server_pids"]
        for pid in result["server_pids"]:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


def test_seed_is_honoured_by_every_workload():
    from workloads import WORKLOADS, make_stream

    def head(workload, seed):
        stream = make_stream(workload, seed, client=0)
        return [stream.next() for _ in range(60)]

    for workload in WORKLOADS:
        assert head(workload, 1) == head(workload, 1)
        assert head(workload, 1) != head(workload, 2)


def test_compare_marks_single_runs_unresolved(smoke, tmp_path):
    _stdout, document, _spans = smoke
    path = tmp_path / "result.json"
    path.write_text(json.dumps(document))
    process = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(path), str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert process.returncode == 0, process.stdout + process.stderr
    rows = process.stdout.strip().splitlines()[1:]
    assert len(rows) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert all("unresolved" in row for row in rows)
