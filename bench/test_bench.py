"""Checks of the benchmark harness itself (not part of the tier-1 suite).

Run:  PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import layers, runner, scenarios  # noqa: E402
from bench.spec import load_spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = load_spec()


def bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=timeout,
    )


def test_benchmark_json_meets_the_contract():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert doc["paths"] == ["bench"] and doc["command"][0] == "python3"
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in doc[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    for row in doc["workloads"]:
        assert set(row) == {"name", "why"} and len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in doc["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(row["unit"]) and row["better"] in ("lower", "higher")
    setup = [row for row in doc["end_to_end"] if row["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert set(SPEC.workloads) == set(scenarios.WORKLOADS)


def test_smoke_pass_emits_every_declared_end_to_end_metric(tmp_path):
    t0 = time.monotonic()
    proc = bench("run", "--smoke", "--out", str(tmp_path))
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 30.0, f"smoke pass took {elapsed:.1f} s"
    for workload in SPEC.workloads:
        doc = json.loads((tmp_path / f"result-{workload}.json").read_text())
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 4
        assert set(doc["end_to_end"]) == set(SPEC.end_to_end)
        for name, entry in doc["end_to_end"].items():
            assert entry["unit"] == SPEC.end_to_end[name].unit
            assert entry["value"] > 0
        assert doc["machine"]["nproc"] and "blas_env_found" in doc["machine"]


@pytest.mark.parametrize("workload", ["local-dispatch", "cluster-fetch", "serve-mixed", "store-cycle"])
def test_traced_run_emits_every_declared_layer_metric(tmp_path, workload):
    proc = bench("run", "--workload", workload, "--smoke", "--trace", "1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and set(line["metrics"]) == set(SPEC.per_layer)
    for name, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == SPEC.per_layer[name].unit
        assert isinstance(entry["value"], (int, float))
    trace = json.loads((tmp_path / f"trace-{workload}.json").read_text())
    names = {event["name"] for event in trace["traceEvents"]}
    assert {"workload", "setup", "timed", "layers", "teardown", "job", "result"} <= names
    assert all(event["args"]["workload"] == workload for event in trace["traceEvents"])


def test_corrupted_value_is_a_failed_operation(tmp_path, monkeypatch):
    real_oracle = scenarios.oracle

    def off_by_a_hair(app, items, pairs):
        ref = real_oracle(app, items, pairs)
        first = next(iter(ref))
        ref[first] = ref[first] * (1 + 1e-6) + 1e-6
        return ref

    monkeypatch.setattr(scenarios, "oracle", off_by_a_hair)
    result = runner.run_workload("local-dispatch", 1, 0.1, False, True, tmp_path)
    assert not result["correct"] and result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0
    assert any("reference" in failure for failure in result["failures"])


def test_probe_on_a_missing_symbol_degrades_to_unavailable(capsys):
    out = {}

    def build():
        import repro.cache

        return {"cache.slot_op_us": repro.cache.NoSuchSlotCache(4)}

    layers.probe(out, ["cache.slot_op_us", "cache.replay_loads_per_item"], build)
    assert all(isinstance(v, runner.Unavailable) for v in out.values())
    assert "NoSuchSlotCache" in out["cache.slot_op_us"].reason
    assert "probe unavailable" in capsys.readouterr().out


def test_exits_nonzero_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = bench("run", "--workload", "local-reuse", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
