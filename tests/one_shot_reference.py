"""Frozen one-shot passes: each builds its whole temporary at once.

The package runs these passes one block at a time (sim_model.blocks).  The
tests compare each blocked pass with the one-shot pass kept here and
require the same bits.
"""

import json

import numpy as np

from discal import classifier as clf


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
    """The (R, K) label table from one scoring pass over all R runs."""
    if data.multiclass:
        return clf.run_log_probs(model, data) * clf.example_weights(
            np.arange(data.n_classes), weight_scheme).sum()
    L = clf.class_log_probs(model, data).reshape(data.rows.shape[:2] + (2,))
    L *= clf.example_weights(np.arange(2), weight_scheme)
    T = np.subtract(L[:, :, 0], L[:, :, 1])
    T += L[:, :, 1].sum(axis=1, keepdims=True)
    return T


def visual_export(model, mapped, column):
    """(value, Pr(t=1 | phi), label) of every row, scored in one pass."""
    values = mapped.rows.reshape(-1, mapped.rows.shape[-1])[:, column]
    preds = model.score(mapped.x_nl, mapped.x_lin)
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
