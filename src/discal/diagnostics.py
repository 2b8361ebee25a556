"""End-to-end diagnostics: validation LPD, divergence estimate with a
Bayesian-bootstrap confidence interval, exact within-batch permutation
p-value, and a visual-check export.

The point estimate is LPD + entropy offset: for an unweighted classifier the
offset is -sum_k w_k log w_k (label entropy), and the estimate lower-bounds
the divergence induced by the label mapping.  For the balanced binary
weighting the offset is log 2 and the estimate targets the conditional
Jensen-Shannon divergence.  The permutation test permutes labels only
within each batch, which keeps the p-value exact at any sample size even
though examples within a batch share y.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from . import classifier as clf
from . import label_mapping as lm
from .sim_model import InvalidParameterError


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
    upper_bound: float
    n_val_examples: int


@dataclass
class TestResult:
    lpd_observed: float
    lpd_permuted: np.ndarray
    p_value: float
    B: int
    seed: int


def lpd_val(model, val_batches, weight_scheme=clf.UNWEIGHTED):
    """Mean (weighted) log predicted probability of the true labels.

    Returns (lpd, per-example scores); the scores feed bootstrap_ci.
    """
    data = clf.arrays_from_batches(val_batches)
    if len(data.labels) == 0:
        raise InvalidParameterError("empty validation set")
    logp = clf.class_log_probs(model, data)
    w = clf.example_weights(data.labels, weight_scheme)
    scores = w * logp[np.arange(len(data.labels)), data.labels]
    return float(scores.mean()), scores


def empirical_class_weights(batches):
    data = clf.arrays_from_batches(batches)
    counts = np.bincount(data.labels, minlength=data.n_classes).astype(float)
    return counts / counts.sum()


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
    if weight_scheme.kind == "balanced_binary":
        offset = math.log(2.0)
    else:
        offset = entropy(class_weights)
    return DivergenceReport(
        lpd_val=lpd,
        class_weights=class_weights,
        entropy_offset=offset,
        divergence=lpd + offset,
        ci_low=float("nan"),
        ci_high=float("nan"),
        upper_bound=offset,
        n_val_examples=n_val_examples,
    )


def bootstrap_ci(per_example_scores, batch_ids, R=1000, alpha=0.05, seed=0, offset=0.0):
    """Bayesian bootstrap: Dirichlet(1,..,1) weights over batches.

    The resampling unit is the batch because examples within a batch share
    y.  Each replicate reweights the batch-mean scores; the CI is the
    empirical (alpha/2, 1-alpha/2) quantile band of replicate means plus
    `offset` (pass the entropy offset to get a CI on the divergence scale).
    """
    if R < 100:
        raise InvalidParameterError("R must be >= 100")
    scores = np.asarray(per_example_scores, dtype=float)
    batch_ids = np.asarray(batch_ids)
    uniq, inverse = np.unique(batch_ids, return_inverse=True)
    if uniq.size < 2:
        raise InvalidParameterError("bootstrap needs at least 2 batches")
    sums = np.bincount(inverse, weights=scores)
    counts = np.bincount(inverse).astype(float)
    batch_means = sums / counts
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(uniq.size), size=R)
    reps = weights @ batch_means + offset
    lo, hi = np.quantile(reps, [alpha / 2.0, 1.0 - alpha / 2.0])
    point = batch_means.mean() + offset
    # empirical quantiles can exclude the point estimate in pathological
    # tiny-sample cases; widen so the report invariant always holds
    return float(min(lo, point)), float(max(hi, point))


def permutation_test(model, val_batches, weight_scheme=clf.UNWEIGHTED, B=1000, seed=0):
    """Exact finite-sample test: permute labels within batches, never globally.

    The model is fixed (never retrained); only the labels move, so one
    (N, K) matrix of log predicted probabilities is reused by every
    replicate.  p = (1/B) * #{b : permuted LPD_b >= observed LPD}; ties
    count toward the permuted side.
    """
    if B < 1:
        raise InvalidParameterError("B must be >= 1")
    data = clf.arrays_from_batches(val_batches)
    logp = clf.class_log_probs(model, data)
    labels = data.labels
    n = labels.size

    def lpd_for(lab, lp):
        w = clf.example_weights(lab, weight_scheme)
        return float(np.mean(w * lp[np.arange(n), lab]))

    observed = lpd_for(labels, logp)
    uniq, inverse = np.unique(data.batch_ids, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    sizes = np.bincount(inverse)
    rng = np.random.default_rng(seed)
    permuted = np.empty(B)
    if np.any(sizes != sizes[0]):
        raise InvalidParameterError("permutation test needs equal batch sizes "
                                    "(one M per table)")
    logp_g = logp[order]
    lab_mat = labels[order].reshape(uniq.size, sizes[0])
    for b in range(B):
        lab = rng.permuted(lab_mat, axis=1).reshape(-1)
        permuted[b] = lpd_for(lab, logp_g)
    p = float(np.sum(permuted >= observed) / B)
    return TestResult(lpd_observed=observed, lpd_permuted=permuted,
                      p_value=p, B=B, seed=seed)


def visual_export(model, batches, coordinate=0):
    """Rows of (coordinate value, Pr(t=1 | phi), label) for binary models.

    `coordinate` is an index into the nonlinear feature block, or the name
    of a linear feature (as recorded in the batch's linear_names).
    """
    if model.config.architecture != clf.ARCH_BINARY:
        raise lm.ConfigurationError("visual export is defined for binary models")
    data = clf.arrays_from_batches(batches)
    x_nl, x_lin, _ = data.scored_rows()
    if isinstance(coordinate, str):
        names = batches[0].linear_names
        if coordinate not in names:
            raise lm.ConfigurationError("unknown feature %r (have %s)"
                                        % (coordinate, list(names)))
        values = x_lin[:, names.index(coordinate)]
    else:
        coordinate = int(coordinate)
        if not (0 <= coordinate < x_nl.shape[1]):
            raise lm.ConfigurationError("coordinate %d out of range" % coordinate)
        values = x_nl[:, coordinate]
    preds = expit(model.score(x_nl, x_lin))
    return np.column_stack([values, preds, data.labels.astype(float)])


def write_visual_csv(rows, path):
    with open(path, "w") as fh:
        fh.write("coordinate,prediction,label\n")
        for coord, pred, lab in rows:
            fh.write("%.10g,%.10g,%d\n" % (coord, pred, int(lab)))


def pipeline_seeds(seed):
    """run_pipeline's stage seeds: (map, split, train, bootstrap, permutation)."""
    return tuple(int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(5))


def run_pipeline(table, kind, feature_cfg, model_cfg=None, settings=None,
                 B=1000, R=1000, alpha=0.05):
    """Map -> split -> train -> LPD -> divergence + CI -> permutation test.

    All randomness derives from settings.seed; errors carry a stage label.
    """
    if settings is None:
        settings = clf.TrainSettings()
    seed_map, seed_split, seed_train, seed_boot, seed_perm = pipeline_seeds(settings.seed)

    try:
        batches = lm.map_table(table, kind, feature_cfg, seed=seed_map)
    except Exception as exc:
        raise PipelineError("map", exc) from exc
    try:
        train_b, val_b = lm.split_batches(batches, settings.val_fraction, seed=seed_split)
        if not val_b or not train_b:
            raise InvalidParameterError("split produced an empty side "
                                        "(need more batches)")
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError("split", exc) from exc
    try:
        if model_cfg is None:
            model_cfg = clf.config_for_batches(batches)
        model = clf.train(train_b, model_cfg, replace(settings, seed=seed_train))
    except Exception as exc:
        raise PipelineError("train", exc) from exc
    try:
        val_data = clf.arrays_from_batches(val_b)
        lpd, scores = lpd_val(model, val_data, settings.weight_scheme)
        report = divergence_estimate(lpd, settings.weight_scheme,
                                     empirical_class_weights(val_data),
                                     n_val_examples=scores.size)
        lo, hi = bootstrap_ci(scores, val_data.batch_ids, R=R, alpha=alpha,
                              seed=seed_boot, offset=report.entropy_offset)
        report.ci_low, report.ci_high = lo, hi
    except Exception as exc:
        raise PipelineError("estimate", exc) from exc
    try:
        test = permutation_test(model, val_data, settings.weight_scheme, B=B,
                                seed=seed_perm)
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
        "upper_bound": report.upper_bound,
        "n_val_examples": report.n_val_examples,
        "lpd_observed": test.lpd_observed,
        "p_value": test.p_value,
        "B": test.B,
        "config": config_echo or {},
    }


def format_report(d):
    lines = [
        "divergence estimate: %.6f  (95%% CI [%.6f, %.6f])"
        % (d["divergence"], d["ci_low"], d["ci_high"]),
        "upper bound (-sum w_k log w_k): %.6f" % d["upper_bound"],
        "validation LPD: %.6f over %d examples" % (d["lpd_val"], d["n_val_examples"]),
        "permutation p-value: %.6g  (B=%d)" % (d["p_value"], d["B"]),
    ]
    if d.get("config"):
        lines.append("config: %s" % json.dumps(d["config"], sort_keys=True))
    return "\n".join(lines)
