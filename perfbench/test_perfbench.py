"""Self-tests of the benchmark, on tiny inputs.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.dynamic_mpc import DMPCConnectivity  # noqa: E402
from repro.mpc.machine import Machine  # noqa: E402
from repro.static_mpc.connected_components import StaticConnectedComponents  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)

WORKLOAD_NAMES = [workload["name"] for workload in BENCHMARK["workloads"]]


@pytest.fixture(autouse=True)
def _no_program_overrides(monkeypatch):
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)


def tiny(name: str, trace: int, seed: int = 1) -> dict:
    return run.run(name, seed, 0.4, trace, scale=workloads.TINY)


def test_benchmark_json_matches_the_code():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {k: v[0] for k, v in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        k: v[0] for k, v in run.PER_LAYER.items()
    }
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_run_emits_every_named_metric(name, trace):
    result = tiny(name, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        assert values["failed_ops_ratio"] == 0
        self_ms = sum(values[f"{layer}.self_ms"] for layer in spans.LAYERS)
        assert self_ms + values["trace.unattributed_ms"] == pytest.approx(values["trace.op_ms"], rel=1e-9)
        assert values["trace.unattributed_ms"] >= 0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_model_counts_repeat_exactly_for_one_seed(name):
    model = [m["name"] for m in BENCHMARK["end_to_end"] if m["name"].startswith("model_")]
    first, second = tiny(name, 0), tiny(name, 0)
    assert [first["metrics"][m]["value"] for m in model] == [second["metrics"][m]["value"] for m in model]
    assert all(first["metrics"][m]["value"] > 0 for m in model)


def _flip_connected(original):
    return lambda self, u, v: not original(self, u, v)


def _merge_components(original):
    return lambda self: [set().union(*original(self))]


@pytest.mark.parametrize(
    "name, owner, attr, corrupt",
    [
        ("conn-churn", DMPCConnectivity, "connected", _flip_connected),
        ("conn-batched", DMPCConnectivity, "connected", _flip_connected),
        ("static-cc", StaticConnectedComponents, "components", _merge_components),
    ],
)
def test_wrong_answers_count_as_failed_operations(monkeypatch, name, owner, attr, corrupt):
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    result = tiny(name, 1)
    assert not result["correct"] and 0 < result["failed"] <= result["attempted"]
    assert result["metrics"]["failed_ops_ratio"]["value"] > 0


def test_conn_batched_applies_and_times_the_same_batches_however_long_it_runs(monkeypatch):
    timed = []
    monkeypatch.setattr(workloads, "percentile", lambda samples, q: timed.append(len(samples)) or max(samples))
    short, long = (run.run("conn-batched", 1, seconds, 0, scale=workloads.TINY) for seconds in (1e-3, 2.0))
    assert short["attempted"] == long["attempted"] == workloads.TINY.batches
    assert timed == [workloads.TINY.batches] * 2


def test_raised_error_is_a_failed_operation_and_ends_the_run(monkeypatch):
    original = DMPCConnectivity.apply
    calls = []

    def apply_then_raise(self, update):
        calls.append(update)
        if len(calls) == 5:
            raise RuntimeError("injected")
        return original(self, update)

    monkeypatch.setattr(DMPCConnectivity, "apply", apply_then_raise)
    result = tiny("conn-churn", 0)
    assert not result["correct"] and result["failed"] == 1
    assert len(calls) == 5


def test_layer_with_no_calls_fails_the_traced_run(monkeypatch):
    monkeypatch.setattr(workloads.ConnChurn, "layers", ("static_mpc.run",))
    with pytest.raises(RuntimeError, match="static_mpc.run"):
        tiny("conn-churn", 1)


def test_renamed_target_fails_loudly_and_nothing_stays_wrapped(monkeypatch):
    original_send = vars(Machine)["send"]
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("mpc.machine.send", "repro.mpc.machine", "Machine", "gone"),))
    with pytest.raises(AttributeError):
        with spans.Instrumented(spans.Recorder()):
            pass
    assert vars(Machine)["send"] is original_send


def test_self_times_are_durations_minus_children():
    workload = workloads.ConnChurn(workloads.TINY)
    inputs = workload.inputs(3)
    recorder = spans.Recorder(max_spans=10**7)
    with spans.Instrumented(recorder):
        workloads.measure(workload, inputs, 0.2, 20, 20, recorder)
    assert vars(Machine)["send"].__name__ == "send" and not hasattr(vars(Machine)["send"], "__wrapped__")
    child: dict[int, float] = {}
    for _, _, start, end, parent, _ in recorder.spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + end - start
    expected = [0.0] * len(spans.LAYERS)
    for span_id, layer, start, end, _, _ in recorder.spans:
        expected[layer] += end - start - child.get(span_id, 0.0)
    assert recorder.self_s == pytest.approx(expected, abs=1e-9)
    assert sum(recorder.self_s) == pytest.approx(recorder.top_s, rel=1e-9)
    assert sum(recorder.calls) == len(recorder.spans)


def test_cli_refuses_program_overrides(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_STATIC_LAYOUT", "dict")
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "static-cc", "--seed", "1", "--seconds", "1"])
    assert exc.value.code not in (0, None)
    assert capsys.readouterr().out == ""


def test_cli_without_the_library_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "conn-churn", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
