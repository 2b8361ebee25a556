"""End-to-end tests of the command-line interface."""

import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from discal import cli
from discal import diagnostics as dg
from discal import label_mapping as lm
from discal import sim_model as sm


def run(argv):
    return cli.main(argv)


def test_simulate_and_reread(tmp_path, capsys):
    out = tmp_path / "table.jsonl"
    code = run(["simulate", "--d", "2", "--S", "20", "--M", "4",
                "--bias", "0.5", "--seed", "3", "--out", str(out)])
    assert code == 0
    table = sm.read_table(str(out))
    assert table.S == 20 and table.M == 4 and table.d_theta == 2
    assert table.has_densities
    assert "wrote" in capsys.readouterr().out


def test_simulate_deterministic(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for path in (a, b):
        run(["simulate", "--S", "5", "--M", "2", "--seed", "9", "--out", str(path)])
    assert a.read_text() == b.read_text()


def test_simulate_no_densities(tmp_path):
    out = tmp_path / "t.jsonl"
    run(["simulate", "--S", "3", "--M", "2", "--no-densities", "--out", str(out)])
    assert not sm.read_table(str(out)).has_densities


def test_diagnose_report_round_trip(tmp_path, capsys):
    table = tmp_path / "table.jsonl"
    run(["simulate", "--d", "1", "--S", "60", "--M", "3", "--bias", "1.0",
        "--seed", "1", "--out", str(table)])
    report = tmp_path / "report.json"
    visual = tmp_path / "visual.csv"
    code = run(["diagnose", "--table", str(table), "--mapping", "binary",
                "--weighted", "--features", "logp,logq",
                "--hidden", "4", "--epochs", "4", "--lr", "0.01",
                "--B", "100", "--R", "150", "--seed", "2",
                "--out", str(report), "--visual", str(visual),
                "--coordinate", "log_p"])
    assert code == 0
    payload = json.loads(report.read_text())
    for key in ("divergence", "ci_low", "ci_high", "p_value", "config"):
        assert key in payload
    assert payload["ci_low"] <= payload["divergence"] <= payload["ci_high"]
    assert payload["config"]["weighted"] is True
    lines = visual.read_text().splitlines()
    assert lines[0] == "coordinate,prediction,label"
    assert len(lines) == 60 * 4 + 1
    capsys.readouterr()
    assert run(["report", str(report)]) == 0
    assert "divergence estimate" in capsys.readouterr().out


def test_diagnose_rejects_weighted_multiclass(tmp_path, capsys):
    table = tmp_path / "table.jsonl"
    run(["simulate", "--S", "30", "--M", "2", "--seed", "0", "--out", str(table)])
    code = run(["diagnose", "--table", str(table), "--mapping", "multiclass",
                "--weighted", "--epochs", "1"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_diagnose_missing_table(tmp_path, capsys):
    code = run(["diagnose", "--table", str(tmp_path / "nope.jsonl")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_diagnose_malformed_table_reports_line(tmp_path, capsys):
    table = tmp_path / "table.jsonl"
    table.write_text('{"d_theta":1,"d_y":1,"M":1,"S":2}\n'
                     '{"run_id":0,"theta":[0.0],"y":[0.0],"draws":[[0.1]]}\n'
                     '{"run_id":1,"theta":["a"],"y":[0.0],"draws":[[0.1]]}\n')
    code = run(["diagnose", "--table", str(table), "--epochs", "1"])
    assert code == 1
    assert "error: line 3: " in capsys.readouterr().err


def test_diagnose_visual_uses_the_pipeline_mapping_seed(tmp_path):
    # integer-valued theta and draws tie often, so the rank mapping's jitter
    # decides ranks and the seed matters
    t = sm.generate_gaussian_table(1, 200, 9, 1.0, sm.Corruption(), seed=5)
    tied = sm.SimulationTable(np.round(t.theta), t.y, np.round(t.draws))
    table = tmp_path / "tied.jsonl"
    sm.write_table(tied, table)
    visual = tmp_path / "visual.csv"
    code = run(["diagnose", "--table", str(table), "--mapping", "rank",
                "--hidden", "4", "--epochs", "1", "--B", "10", "--R", "100",
                "--seed", "3", "--visual", str(visual)])
    assert code == 0
    coords = np.loadtxt(visual, delimiter=",", skiprows=1)[:, 0]

    def ranks(seed):
        batches = lm.map_table(tied, lm.MappingKind.BINARY_RANK, lm.FeatureConfig(),
                               seed=seed)
        return np.concatenate([b.features[:, 0] for b in batches])

    np.testing.assert_array_equal(coords, ranks(dg.pipeline_seeds(3)[0]))
    assert not np.array_equal(coords, ranks(0))


def test_diagnose_deterministic(tmp_path):
    table = tmp_path / "table.jsonl"
    run(["simulate", "--S", "40", "--M", "3", "--bias", "0.5", "--seed", "4",
        "--out", str(table)])
    outs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        run(["diagnose", "--table", str(table), "--features", "logp,logq",
             "--hidden", "4", "--epochs", "2", "--B", "50", "--R", "120",
             "--seed", "7", "--out", str(path)])
        outs.append(path.read_text())
    assert outs[0] == outs[1]


def test_benchmark(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run(["benchmark", "--d", "1", "--S", "60", "--M", "5",
                "--grid", "bias:1.5", "--repetitions", "2", "--epochs", "2",
                "--B", "60", "--seed", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "corruption,method,rejection_rate,repetitions"
    rows = [line.split(",") for line in lines[1:]]
    assert {r[1] for r in rows} == {"classifier", "sbc"}
    for r in rows:
        assert 0.0 <= float(r[2]) <= 1.0
    assert "rejection rate" in capsys.readouterr().out


def test_benchmark_workers_write_the_serial_csv(tmp_path, monkeypatch):
    argv = ["benchmark", "--d", "1", "--S", "30", "--M", "3",
            "--grid", "bias:1.0,var:2", "--repetitions", "2", "--epochs", "1",
            "--B", "20", "--seed", "5"]
    texts = []
    for workers in ("1", "2"):
        monkeypatch.setenv("DISCAL_WORKERS", workers)
        out = tmp_path / ("bench-%s.csv" % workers)
        assert run(argv + ["--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    assert len(texts[0].splitlines()) == 5


def test_benchmark_workers_get_one_blas_thread_unless_set(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    spawn = multiprocessing.get_context("spawn")
    with cli._blas_pinned_for_children():
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            seen = list(pool.map(os.getenv, cli.BLAS_THREAD_VARS, timeout=60))
    assert seen == ["1", "1", "3"]
    # this process's environment is as it was
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    assert "OMP_NUM_THREADS" not in os.environ
    assert os.environ["MKL_NUM_THREADS"] == "3"


def test_diagnose_rejects_bad_minibatch(tmp_path, capsys):
    table = tmp_path / "table.jsonl"
    run(["simulate", "--S", "10", "--M", "2", "--seed", "0", "--out", str(table)])
    code = run(["diagnose", "--table", str(table), "--minibatch", "0", "--epochs", "1"])
    assert code == 1
    assert "error: minibatch_size must be >= 1" in capsys.readouterr().err


def test_benchmark_bad_grid(tmp_path, capsys):
    code = run(["benchmark", "--grid", "volume:2", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_benchmark_bad_grid_value(tmp_path, capsys):
    code = run(["benchmark", "--grid", "bias:x", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error: grid cell 'bias:x': 'x' is not a number" in capsys.readouterr().err


def test_benchmark_rejects_zero_repetitions(tmp_path, capsys):
    code = run(["benchmark", "--grid", "bias:1", "--repetitions", "0",
                "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error: --repetitions must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["abc", "0", "-2", ""])
def test_benchmark_rejects_bad_worker_count(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setenv("DISCAL_WORKERS", workers)
    code = run(["benchmark", "--grid", "bias:1", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error: DISCAL_WORKERS must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_diagnose_prints_the_ci_level_it_used(tmp_path, capsys):
    table = tmp_path / "table.jsonl"
    run(["simulate", "--S", "30", "--M", "3", "--seed", "0", "--out", str(table)])
    report = tmp_path / "report.json"
    code = run(["diagnose", "--table", str(table), "--hidden", "4", "--epochs", "1",
                "--B", "20", "--R", "100", "--alpha", "0.2", "--out", str(report)])
    assert code == 0
    assert "(80% CI [" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert payload["ci_level"] == 0.8
    # a report stored without the level names none
    del payload["ci_level"]
    report.write_text(json.dumps(payload))
    assert run(["report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "(CI [" in out and "%" not in out.splitlines()[0]


def test_report_missing_file(tmp_path, capsys):
    code = run(["report", str(tmp_path / "missing.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        run(["frobnicate"])
