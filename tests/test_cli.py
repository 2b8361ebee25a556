"""End-to-end tests of the command-line interface."""

import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from discal import classifier as clf
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


@pytest.mark.parametrize("mapping", sorted(cli.MAPPING_NAMES))
def test_diagnose_rejects_a_table_without_runs(tmp_path, capsys, mapping):
    # a valid header with S = 0 reads as an empty table, which cannot be mapped
    table = tmp_path / "empty.jsonl"
    table.write_text('{"d_theta": 1, "d_y": 1, "M": 3, "S": 0}\n')
    assert sm.read_table(str(table)).S == 0
    report = tmp_path / "report.json"
    code = run(["diagnose", "--table", str(table), "--mapping", mapping, "--epochs", "1",
                "--out", str(report)])
    assert code == 1
    assert capsys.readouterr().err == "error: cannot map an empty table\n"
    assert not report.exists()


def test_diagnose_writes_no_report_with_a_non_finite_number(tmp_path, capsys, monkeypatch):
    # strict JSON has no NaN: the report fails before any file is written
    table = tmp_path / "table.jsonl"
    run(["simulate", "--S", "30", "--M", "3", "--seed", "0", "--out", str(table)])
    capsys.readouterr()
    real_pipeline = dg.run_pipeline

    def nan_divergence(*args, **kwargs):
        report, test, model = real_pipeline(*args, **kwargs)
        report.divergence = float("nan")
        return report, test, model

    monkeypatch.setattr(dg, "run_pipeline", nan_divergence)
    report = tmp_path / "report.json"
    code = run(["diagnose", "--table", str(table), "--hidden", "4", "--epochs", "1",
                "--B", "20", "--R", "100", "--out", str(report)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write the report: ")
    assert "not JSON compliant" in captured.err
    assert captured.out == ""
    assert not report.exists()


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


@pytest.mark.parametrize("option, value, message", [
    ("--alpha", "1.5", "stage 'estimate': alpha must be in (0, 1), got 1.5"),
    ("--alpha", "0", "stage 'estimate': alpha must be in (0, 1), got 0.0"),
    ("--R", "50", "stage 'estimate': R must be >= 100"),
    ("--B", "0", "stage 'permutation': B must be >= 1"),
])
def test_diagnose_rejects_bad_counts_before_training(tmp_path, capsys, monkeypatch,
                                                     option, value, message):
    table = tmp_path / "table.jsonl"
    run(["simulate", "--S", "30", "--M", "3", "--seed", "0", "--out", str(table)])

    def no_training(*args, **kwargs):
        raise AssertionError("trained before the check")

    monkeypatch.setattr(clf, "train", no_training)
    code = run(["diagnose", "--table", str(table), "--epochs", "1", option, value,
                "--out", str(tmp_path / "report.json")])
    assert code == 1
    assert "error: %s" % message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("options, message", [
    (["--mapping", "multiclass"], "visual export is defined for binary models"),
    (["--features", "logp", "--coordinate", "log_q"], "unknown feature 'log_q'"),
    (["--coordinate", "7"], "coordinate 7 out of range"),
])
def test_diagnose_rejects_bad_visual_before_training(tmp_path, capsys, monkeypatch,
                                                     options, message):
    table = tmp_path / "table.jsonl"
    run(["simulate", "--S", "30", "--M", "3", "--seed", "0", "--out", str(table)])

    def no_training(*args, **kwargs):
        raise AssertionError("trained before the check")

    monkeypatch.setattr(clf, "train", no_training)
    code = run(["diagnose", "--table", str(table), "--epochs", "1", *options,
                "--visual", str(tmp_path / "v.csv"), "--out", str(tmp_path / "report.json")])
    assert code == 1
    assert "error: %s" % message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "v.csv").exists()


@pytest.mark.parametrize("alpha", ["1.5", "0", "-0.1"])
def test_benchmark_rejects_alpha_outside_the_unit_interval(tmp_path, capsys, alpha):
    code = run(["benchmark", "--grid", "bias:1", "--alpha", alpha,
                "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error: --alpha must be in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_report_missing_file(tmp_path, capsys):
    code = run(["report", str(tmp_path / "missing.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


REPORT_FIELDS = {"divergence": 0.1, "ci_low": 0.0, "ci_high": 0.2, "upper_bound": 0.7,
                 "lpd_val": -0.6, "n_val_examples": 10, "p_value": 0.5, "B": 10}


@pytest.mark.parametrize("payload, message", [
    ([1, 2], "the report is not a JSON object"),
    ("x", "the report is not a JSON object"),
    ({**REPORT_FIELDS, "divergence": "x"}, "not str"),
    ({"divergence": 0.1}, "missing field 'ci_low'"),
    ({k: v for k, v in REPORT_FIELDS.items() if k != "B"}, "missing field 'B'"),
], ids=["top_level_list", "top_level_string", "string_number", "divergence_only", "no_B"])
def test_report_rejects_a_malformed_report(tmp_path, capsys, payload, message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(payload))
    code = run(["report", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot render report: ") and message in err


COLD_START_SCRIPT = """
import json, sys
from discal import cli, oracle, sim_model as sm

def loaded():
    return [m for m in ("scipy.special", "scipy.linalg", "scipy.stats") if m in sys.modules]

seen = {"import": loaded()}
fit = ["--hidden", "4", "--epochs", "2", "--B", "20", "--R", "100"]
runs = {
    "simulate": ["simulate", "--d", "1", "--S", "12", "--M", "3", "--bias", "0.5",
                 "--seed", "1", "--out", "table.jsonl"],
    "binary": ["diagnose", "--table", "table.jsonl", "--features", "logp,logq", *fit,
               "--visual", "v.csv", "--coordinate", "log_p", "--out", "report.json"],
    "multiclass": ["diagnose", "--table", "table.jsonl", "--mapping", "multiclass", *fit],
    "report": ["report", "report.json"],
}
for name, argv in runs.items():
    assert cli.main(argv) == 0, name
    seen[name] = loaded()
oracle.sbc_rank_test(sm.read_table("table.jsonl"))
seen["sbc"] = loaded()
print(json.dumps(seen))
"""


def test_cli_commands_leave_scipy_submodules_unloaded(tmp_path):
    # scipy.special, scipy.linalg and scipy.stats each add to every cold
    # start; of them only the SBC oracle needs one, scipy.special, on first use
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", COLD_START_SCRIPT], capture_output=True,
                         text=True, env=env, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen == {"import": [], "simulate": [], "binary": [], "multiclass": [],
                    "report": [], "sbc": ["scipy.special"]}


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        run(["frobnicate"])
