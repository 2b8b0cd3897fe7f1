"""Tests for the CLI, result persistence, and trace export."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.result import ResultMatrix, load_results, save_results
from repro.util.trace import TraceRecorder, to_chrome_trace


class TestResultPersistence:
    def test_roundtrip(self, tmp_path):
        rm = ResultMatrix(["a", "b", "c"])
        rm.set("a", "b", 1.5)
        rm.set("a", "c", -0.25)
        rm.set("b", "c", 3.0)
        path = tmp_path / "out.json"
        save_results(rm, path)
        back = load_results(path)
        assert back.keys == rm.keys
        for a, b, v in rm.items():
            assert back.get(a, b) == v

    def test_partial_matrix_roundtrip(self, tmp_path):
        rm = ResultMatrix(["a", "b", "c"])
        rm.set("a", "c", 7.0)
        path = tmp_path / "partial.json"
        save_results(rm, path)
        back = load_results(path)
        assert len(back) == 1
        assert back.get("a", "c") == 7.0

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_results(path)


class TestChromeTrace:
    def test_event_fields(self):
        rec = TraceRecorder()
        rec.record("GPU", "compare", 1.0, 2.5)
        rec.record("CPU", "parse", 0.0, 1.0)
        events = to_chrome_trace(rec)
        assert len(events) == 2
        gpu = next(e for e in events if e["args"]["lane"] == "GPU")
        assert gpu["name"] == "compare"
        assert gpu["ph"] == "X"
        assert gpu["ts"] == pytest.approx(1.0e6)
        assert gpu["dur"] == pytest.approx(1.5e6)

    def test_lanes_get_distinct_tids(self):
        rec = TraceRecorder()
        rec.record("A", "x", 0, 1)
        rec.record("B", "y", 0, 1)
        tids = {e["tid"] for e in to_chrome_trace(rec)}
        assert len(tids) == 2

    def test_json_serialisable(self):
        rec = TraceRecorder()
        rec.record("A", "x", 0, 1)
        json.dumps({"traceEvents": to_chrome_trace(rec)})


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_profiles_command(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "forensics" in out and "microscopy" in out
        assert "12397710" in out.replace(",", "")

    def test_simulate_command(self, capsys):
        rc = main(["simulate", "forensics", "--items", "24", "--nodes", "2",
                   "--device-slots", "6", "--host-slots", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pairs over 24 items" in out
        assert "R =" in out

    def test_simulate_writes_chrome_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        rc = main(["simulate", "microscopy", "--items", "8", "--nodes", "1",
                   "--device-slots", "4", "--host-slots", "6", "--trace", str(trace_path)])
        assert rc == 0
        doc = json.loads(trace_path.read_text())
        assert doc["traceEvents"]

    def test_run_command_saves_results(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        rc = main(["run", "forensics", "--items", "6", "--save", str(out_path)])
        assert rc == 0
        back = load_results(out_path)
        assert back.is_complete()
        assert back.n_items == 6

    def test_run_bioinformatics(self, capsys):
        assert main(["run", "bioinformatics", "--items", "4"]) == 0
        assert "pairs" in capsys.readouterr().out

    def test_run_microscopy(self, capsys):
        assert main(["run", "microscopy", "--items", "4"]) == 0

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "astronomy"])


class TestCliRun:
    """``repro run``: the CLI's path through ``Rocket`` on both backends."""

    def test_cluster_run_over_shm(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        rc = main(["run", "forensics", "--backend", "cluster", "--nodes", "2",
                   "--transport", "shm", "--items", "6", "--save", str(out_path)])
        assert rc == 0
        back = load_results(out_path)
        assert back.is_complete() and back.expected_pairs == 15
        assert "on 2 nodes" in capsys.readouterr().out

    def test_cluster_profile_holds_coordinator_and_nodes(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        rc = main(["run", "forensics", "--backend", "cluster", "--nodes", "2",
                   "--items", "6", "--devices", "1", "--profile", str(trace_path)])
        assert rc == 0
        spans = [e for e in json.loads(trace_path.read_text())["traceEvents"]
                 if e.get("ph") == "X"]
        assert len({e["pid"] for e in spans}) >= 3  # coordinator + 2 nodes

    def test_jobs_file_runs_every_job(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            {"workload": "all"},
            {"workload": "bipartite", "n": 2, "priority": 4},
        ]))
        out_path = tmp_path / "results"
        rc = main(["run", "forensics", "--items", "6", "--jobs-file", str(jobs),
                   "--save", str(out_path)])
        assert rc == 0
        whole = load_results(f"{out_path}.job0.json")
        query = load_results(f"{out_path}.job1.json")
        assert whole.is_complete() and whole.expected_pairs == 15
        assert query.is_complete() and query.expected_pairs == 2 * 4
        for a, b, value in query.items():
            assert whole.get(a, b) == value

    def test_per_node_device_speed_mix(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        rc = main(["run", "bioinformatics", "--backend", "cluster", "--nodes", "2",
                   "--devices", "2", "--device-speeds", "1.0,1.0,0.5,0.5",
                   "--steal-policy", "speed", "--items", "6", "--save", str(out_path)])
        assert rc == 0
        assert load_results(out_path).is_complete()

    @pytest.mark.parametrize("speeds", ["1.0,fast", "1.0,0.5,0.5"])
    def test_malformed_device_speeds_rejected(self, speeds):
        with pytest.raises(SystemExit):
            main(["run", "forensics", "--backend", "cluster", "--nodes", "2",
                  "--items", "6", "--device-speeds", speeds])
