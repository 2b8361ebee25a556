"""The benchmark's three workloads: set-up, one operation, and output checks.

Each workload is a closed loop of operations ("ops"), one at a time in one
process.  An op receives an integer seed spawned from the workload seed and
calls discal's public API with inputs generated from it.  The shapes are the
ones the acceptance suite and CLI users run:

  power-sweep      one repetition of acceptance criterion 9, which is also the
                   per-repetition work of a `discal benchmark` cell
  multiclass-mcmc  criterion 10's autocorrelated arm at a quarter of its S
  diagnose-file    `discal diagnose` on criterion 3's table, read from a file

`toy=True` shrinks every size so the smoke mode runs in seconds; the
statistical run checks are calibrated for the full sizes and are skipped then.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
from pathlib import Path

import numpy as np

from discal import classifier as clf
from discal import cli
from discal import diagnostics as dg
from discal import label_mapping as lm
from discal import oracle
from discal import sim_model as sm

ALPHA = 0.05
LOG_DENSITIES = lm.FeatureConfig(linear_features=("log_p", "log_q"))
REPORT_NUMBERS = ("lpd_val", "entropy_offset", "divergence", "ci_low", "ci_high",
                  "upper_bound", "lpd_observed", "p_value")


def spawn_ints(seed, n):
    """n integer seeds spawned from one integer seed."""
    return [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(n)]


def check_report(d):
    """Problems with one diagnosis report, as `report_to_dict` lays it out."""
    numbers = [d[k] for k in REPORT_NUMBERS] + list(d["class_weights"])
    if not all(math.isfinite(x) for x in numbers):
        return ["non-finite number in report"]
    problems = []
    if not d["ci_low"] <= d["divergence"] <= d["ci_high"]:
        problems.append("divergence %r outside CI [%r, %r]"
                        % (d["divergence"], d["ci_low"], d["ci_high"]))
    if not d["divergence"] <= d["upper_bound"]:
        problems.append("divergence %r above upper bound %r"
                        % (d["divergence"], d["upper_bound"]))
    p, B = d["p_value"], d["B"]
    if not 0.0 <= p <= 1.0:
        problems.append("p-value %r outside [0, 1]" % p)
    elif abs(p * B - round(p * B)) > 1e-9 * B:
        problems.append("p-value %r is not a multiple of 1/B (B=%d)" % (p, B))
    return problems


COUNT_KEYS = ("diagnostics.reject_count", "diagnostics.p_zero_count",
              "diagnostics.ci_widened_count", "oracle.sbc_reject_count")


def report_counts(d):
    """Known p-value and CI defects, counted rather than gated.

    A CI endpoint equal to the point estimate means bootstrap_ci widened the
    interval to contain it; a genuine quantile lands there with probability ~0.
    """
    div = d["divergence"]
    tol = 1e-9 * max(1.0, abs(div))
    return {
        "diagnostics.reject_count": int(d["p_value"] < ALPHA),
        "diagnostics.p_zero_count": int(d["p_value"] == 0.0),
        "diagnostics.ci_widened_count": int(abs(d["ci_low"] - div) <= tol
                                            or abs(d["ci_high"] - div) <= tol),
    }


def _pipeline_report(report, test):
    return json.loads(json.dumps(dg.report_to_dict(report, test)))


class PowerSweep:
    name = "power-sweep"
    why = ("criterion-9 repetition: generation and SBC dominate, training is "
           "light; the sweep traffic and most of Tier-1")

    def __init__(self, toy=False):
        self.d, self.S, self.M, self.epochs = (2, 60, 10, 2) if toy else (4, 1000, 100, 10)
        self.toy = toy

    def setup(self, seed, workdir):
        return {}

    def op(self, state, seed):
        s_table, s_pipe, s_sbc = spawn_ints(seed, 3)
        table = sm.generate_gaussian_table(self.d, self.S, self.M, 1.0,
                                           sm.Corruption(variance_scale=1.2),
                                           seed=s_table, attach_densities=True)
        settings = clf.TrainSettings(learning_rate=0.01, epochs=self.epochs,
                                     minibatch_size=1024, patience=3, seed=s_pipe,
                                     weight_scheme=clf.balanced_binary(self.M))
        model_cfg = clf.ModelConfig(clf.ARCH_BINARY, input_dim=2 * self.d,
                                    hidden_sizes=(8,), n_linear_features=2)
        report, test, _ = dg.run_pipeline(table, lm.MappingKind.BINARY_FULL,
                                          LOG_DENSITIES, model_cfg=model_cfg,
                                          settings=settings, B=200, R=100)
        sbc_p, sbc_reject = oracle.sbc_rank_test(table, alpha=ALPHA, seed=s_sbc)
        return report, test, sbc_p, sbc_reject

    def inspect(self, state, result):
        """(report dict, counts, problems, fingerprint) of one op's output."""
        report, test, sbc_p, sbc_reject = result
        d = _pipeline_report(report, test)
        problems = check_report(d)
        if sbc_p.shape != (self.d,) or not np.all((sbc_p >= 0) & (sbc_p <= 1)):
            problems.append("SBC p-values %r not %d values in [0, 1]" % (sbc_p, self.d))
        counts = report_counts(d)
        counts["oracle.sbc_reject_count"] = int(sbc_reject)
        fingerprint = json.dumps([d, sbc_p.tolist(), bool(sbc_reject)])
        return d, counts, problems, fingerprint

    def check_run(self, state, reports):
        return []


class MulticlassMCMC:
    name = "multiclass-mcmc"
    why = ("criterion-10 AR(1) arm at S/4: label mapping and multiclass "
           "training dominate, S*K^2*d examples set memory; no SBC, no file I/O")

    BIAS = 0.1

    def __init__(self, toy=False):
        self.S, self.M, self.epochs = (80, 7, 2) if toy else (600, 31, 20)
        self.toy = toy

    def setup(self, seed, workdir):
        return {}

    def op(self, state, seed):
        s_table, s_pipe = spawn_ints(seed, 2)
        table = sm.generate_gaussian_table(1, self.S, self.M, 1.0,
                                           sm.Corruption(bias=self.BIAS),
                                           seed=s_table, attach_densities=True, rho=0.9)
        settings = clf.TrainSettings(learning_rate=0.01, epochs=self.epochs,
                                     minibatch_size=512, patience=6,
                                     val_fraction=0.5, seed=s_pipe)
        model_cfg = clf.ModelConfig(clf.ARCH_MULTICLASS, input_dim=2,
                                    hidden_sizes=(8,), n_linear_features=2,
                                    class_count=self.M + 1)
        return dg.run_pipeline(table, lm.MappingKind.MULTICLASS, LOG_DENSITIES,
                               model_cfg=model_cfg, settings=settings, B=100, R=1000)

    def inspect(self, state, result):
        report, test, _ = result
        d = _pipeline_report(report, test)
        return d, report_counts(d), check_report(d), json.dumps(d)

    def check_run(self, state, reports):
        """The median estimate sits in criterion 4's band around the KL.

        Criterion 4's band is [KL - chi2/(2M) - 0.03, KL]; its 0.03 slack is
        applied above KL too, because here KL = 0.01 is smaller than the
        sampling spread of one estimate (sd ~0.012 at these sizes).
        """
        if self.toy:
            return []
        p = sm.GaussianPosterior(np.array([0.0]), np.array([[0.5]]))
        q = sm.GaussianPosterior(np.array([self.BIAS]), np.array([[0.5]]))
        kl = oracle.kl_mvn(p, q)
        chi2, _ = oracle.chi2_gaussian(p, q)
        lo, hi = kl - chi2 / (2 * self.M) - 0.03, kl + 0.03
        med = statistics.median(r["divergence"] for r in reports)
        if not lo <= med <= hi:
            return ["median divergence %.4f outside [%.4f, %.4f] around KL %.4f"
                    % (med, lo, hi, kl)]
        return []


class DiagnoseFile:
    name = "diagnose-file"
    why = ("discal diagnose on criterion 3's table file: JSON read, mapping 3x, "
           "long binary training, B=1000; generation and SBC stay idle")

    def __init__(self, toy=False):
        self.S, self.M, self.epochs, self.B = (200, 5, 3, 100) if toy else (5000, 5, 60, 1000)
        self.toy = toy

    def setup(self, seed, workdir):
        """Write the table and compute the oracle JSD it should recover."""
        s_table, s_oracle = spawn_ints(seed, 2)
        table = sm.generate_gaussian_table(1, self.S, self.M, 1.0,
                                           sm.Corruption(bias=1.0),
                                           seed=s_table, attach_densities=True)
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "table.jsonl"
        sm.write_table(table, path)
        # the conditional pair is N(y/2, 1/2) vs N(y/2 + 1, 1/2) for every y
        p = sm.GaussianPosterior(np.array([0.0]), np.array([[0.5]]))
        q = sm.GaussianPosterior(np.array([1.0]), np.array([[0.5]]))
        jsd, se = oracle.jsd_conditional_mc(p, q, n_mc=10**5, seed=s_oracle)
        return {"table": path, "report": workdir / "report.json",
                "visual": workdir / "visual.csv", "jsd": jsd, "jsd_se": se}

    def argv(self, state, seed):
        return ["diagnose", "--table", str(state["table"]), "--mapping", "binary",
                "--weighted", "--features", "logp,logq", "--hidden", "32",
                "--epochs", str(self.epochs), "--lr", "0.01", "--minibatch", "1024",
                "--B", str(self.B), "--R", "1000", "--seed", str(seed),
                "--out", str(state["report"]), "--visual", str(state["visual"]),
                "--coordinate", "log_p"]

    def op(self, state, seed):
        # the CLI prints its report; keep the benchmark's own stdout clean
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv(state, seed))

    def inspect(self, state, code):
        if code != 0:
            return None, {}, ["discal diagnose exited with %r" % code], None
        text = state["report"].read_text()
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            return None, {}, ["report JSON does not parse: %s" % exc], None
        problems = check_report(d)
        with open(state["visual"]) as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != self.S * (self.M + 1):
            problems.append("visual CSV has %d rows, expected S*(M+1)=%d"
                            % (rows, self.S * (self.M + 1)))
        return d, report_counts(d), problems, text

    def check_run(self, state, reports):
        """The median estimate recovers the oracle JSD within criterion 3's tolerance."""
        if self.toy:
            return []
        jsd = state["jsd"]
        tol = max(0.1 * jsd, 0.02) + 3 * state["jsd_se"]
        med = statistics.median(r["divergence"] for r in reports)
        if not abs(med - jsd) < tol:
            return ["median divergence %.4f vs oracle JSD %.4f: error above %.4f"
                    % (med, jsd, tol)]
        return []


WORKLOADS = {w.name: w for w in (PowerSweep, MulticlassMCMC, DiagnoseFile)}
