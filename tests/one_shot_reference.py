"""Frozen one-shot passes: each builds its whole temporary at once.

The package runs these passes one block at a time (sim_model.blocks).  The
tests compare each blocked pass with the one-shot pass kept here and
require the same bits.
"""

import json
import math

import numpy as np

from discal import classifier as clf
from discal import sim_model as sm


def bootstrap_ci(run_scores, R=1000, alpha=0.05, seed=0, offset=0.0):
    """The Bayesian bootstrap from one (R, S) draw of Dirichlet weights."""
    run_scores = np.asarray(run_scores, dtype=float)
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(run_scores.size), size=R)
    reps = weights @ run_scores + offset
    lo, hi = np.quantile(reps, [alpha / 2.0, 1.0 - alpha / 2.0])
    point = run_scores.mean() + offset
    return float(min(lo, point)), float(max(hi, point)), bool(lo > point or hi < point)


def label_table(model, data, weight_scheme=clf.UNWEIGHTED):
    """The (R, K) label table from one scoring pass over all R runs' standardized rows."""
    if data.multiclass:
        return clf.run_log_probs(model, data) * clf.example_weights(
            np.arange(data.n_classes), weight_scheme).sum()
    L = clf.class_log_probs(model, data).reshape(data.rows.shape[:2] + (2,))
    L *= clf.example_weights(np.arange(2), weight_scheme)
    T = np.subtract(L[:, :, 0], L[:, :, 1])
    T += L[:, :, 1].sum(axis=1, keepdims=True)
    return T


def scored_runs(model, mapped, runs, weight_scheme=clf.UNWEIGHTED):
    """label_table of the runs at positions `runs`, gathered and standardized in one copy."""
    data = clf.arrays_from_batches(mapped, runs)
    data.x_nl -= model.x_mean
    data.x_nl /= model.x_scale
    return label_table(model, data, weight_scheme)


def standardizer(mapped, runs):
    """numpy's mean and std of the runs' nonlinear columns, from one gather of them."""
    K, d = mapped.rows.shape[1], mapped.d_nonlinear
    x = mapped.rows[runs, :, :d].reshape(len(runs) * K, d)
    mean = x.mean(axis=0)
    x -= mean
    scale = np.sqrt(np.square(x, out=x).sum(axis=0) / x.shape[0])
    scale[scale == 0.0] = 1.0
    return mean, scale


def gaussian_log_densities(table, sigma2, c):
    """generate_gaussian_table's (log_p, log_q), each from one (S, M+1, d) residual."""
    shrink = 1.0 / (1.0 + sigma2)
    var_p = sigma2 * shrink
    occupants = np.concatenate([table.theta[:, None], table.draws], axis=1)
    mean_p = table.y * shrink
    out = []
    for mean, sd in ((mean_p, math.sqrt(var_p)),
                     (mean_p + c.bias, math.sqrt(c.variance_scale * var_p))):
        d = occupants.shape[-1]
        r = np.subtract(occupants, mean[:, None, :])
        r *= 1.0 / sd
        r *= r
        out.append(-0.5 * r.sum(axis=-1) - np.sum(np.log(np.full(d, sd)))
                   - 0.5 * d * sm.LOG_2PI)
    return tuple(out)


def visual_export(model, mapped, column):
    """(value, Pr(t=1 | phi), label) of every row, standardized and scored in one pass."""
    values = mapped.rows.reshape(-1, mapped.rows.shape[-1])[:, column]
    x_nl = (mapped.x_nl - model.x_mean) / model.x_scale
    preds = model.score(x_nl, mapped.x_lin)
    return np.column_stack([values, clf.expit(preds, out=preds), mapped.labels])


def write_table(table, path):
    """The JSONL writer that converts every run to Python numbers at once."""
    names = [name for name in ("theta", "y", "draws", "log_p", "log_q")
             if getattr(table, name) is not None]
    columns = [getattr(table, name).tolist() for name in names]
    with open(path, "w") as fh:
        header = {"d_theta": table.d_theta, "d_y": table.d_y, "M": table.M, "S": table.S}
        fh.write(json.dumps(header) + "\n")
        for run_id, *values in zip(table.run_ids.tolist(), *columns):
            fh.write(json.dumps({"run_id": run_id, **dict(zip(names, values))}) + "\n")
