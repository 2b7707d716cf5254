"""The benchmark's own checks, at tiny sizes.

Not part of tier 1 (``testpaths`` is ``tests``); run it with

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_selftest.py
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import conditions  # noqa: E402
import contract  # noqa: E402
import harness  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SECONDS = 0.5


@pytest.fixture(autouse=True)
def benchmark_conditions(monkeypatch):
    """What ``run.py`` arranges for itself, undone after each test."""
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    conditions.use_checkout_engine()


def test_operation_list_depends_on_the_seed_and_nothing_else():
    for name in workloads.SPECS:
        first = workloads.build(name, 7, SECONDS, tiny=True)
        again = workloads.build(name, 7, SECONDS, tiny=True)
        other = workloads.build(name, 8, SECONDS, tiny=True)
        assert first.digest == again.digest
        assert first.digest != other.digest


def test_counts_repeat_exactly():
    first = bench.run_workload("frames_f", 7, SECONDS, trace=False, tiny=True)
    again = bench.run_workload("frames_f", 7, SECONDS, trace=False, tiny=True)
    assert first.correct and again.correct
    for name in ("space_amp", "read_pyops", "write_pyops", "commit_pyops"):
        assert first.values[name] == again.values[name], name
    assert set(first.values) == set(contract.units("end_to_end"))


def test_layer_counts_repeat_exactly_and_spans_cover_the_operations():
    first = bench.run_workload("inv_files", 7, SECONDS, trace=True, tiny=True)
    again = bench.run_workload("inv_files", 7, SECONDS, trace=True, tiny=True)
    assert first.correct, first.problems
    exact = [name for name in first.values
             if name.startswith("access.") and not name.endswith("_us")
             or re.fullmatch(r"smgr\..*_per_(op|commit)", name)]
    assert len(exact) >= 6
    for name in exact:
        assert first.values[name] == again.values[name], name
    assert set(first.values) == set(contract.units("per_layer"))
    assert first.values["compress.calls_per_op"] == 0
    assert first.values["server.read_self_us"] == 0
    assert first.values["inversion.read_self_us"] > 0
    with open(os.path.join(harness.WORK_ROOT, "trace_inv_files.json")) as out:
        events = json.load(out)["traceEvents"]
    assert events and {"name", "cat", "ph", "ts", "dur"} <= set(events[0])


def test_a_corrupted_read_is_counted(monkeypatch):
    from repro.lo.interface import LargeObject
    original, calls = LargeObject.read, [0]

    def read(self, nbytes=-1):
        data = original(self, nbytes)
        calls[0] += 1
        if calls[0] == 5 and data:
            data = bytes([data[0] ^ 1]) + data[1:]
        return data

    monkeypatch.setattr(LargeObject, "read", read)
    result = bench.run_workload("frames_f", 7, SECONDS, trace=False, tiny=True)
    assert result.failed == 1
    assert not result.correct


def test_printed_names_are_the_contracts():
    declared = contract.load()
    assert [w["name"] for w in declared["workloads"]] == list(workloads.SPECS)
    assert declared["paths"] == [os.path.relpath(HERE, conditions.ROOT)]
    for workload, trace, section in (("frames_v", 0, "end_to_end"),
                                     ("server", 1, "per_layer")):
        done = subprocess.run(
            [*declared["command"], "--workload", workload, "--tiny",
             "--seconds", str(SECONDS), "--trace", str(trace)],
            cwd=conditions.ROOT, stdout=subprocess.PIPE, check=True)
        result = json.loads(done.stdout.decode().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == list(contract.units(section))
        for name, entry in result["metrics"].items():
            assert NAME.fullmatch(name), name
            assert set(entry) == {"value", "unit"}


def test_reference_kernel_stands_alone():
    with open(os.path.join(HERE, "refkernel.py")) as source:
        tree = ast.parse(source.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").partition(".")[0])
    assert imported <= {"__future__", "os", "socket", "statistics", "struct",
                        "time", "zlib"}
