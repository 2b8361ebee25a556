"""Label mappings: turn simulation runs into batched classification examples.

Four mappings are supported.  All of them assign label 0 to the prior draw
theta and share the defining property that under perfect calibration
(q = true posterior) the feature distribution is independent of the label,
so any classifier's predictive edge measures miscalibration.

  BINARY_FULL   label 0 <-> (theta, y), label 1 <-> (draw_m, y)
  BINARY_NO_Y   same with y omitted
  BINARY_RANK   features are rank statistics of a scalar coordinate
  MULTICLASS    K = M+1 slots; example k places theta in slot k (cyclic
                insertion, draws keep their relative order)
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .sim_model import InvalidParameterError

JITTER_SCALE = 1e-10

VALID_LINEAR_FEATURES = ("log_p", "log_q", "rank")


class ConfigurationError(ValueError):
    """A feature configuration is invalid for the given table."""


class MappingKind(Enum):
    BINARY_FULL = "binary_full"
    BINARY_NO_Y = "binary_no_y"
    BINARY_RANK = "binary_rank"
    MULTICLASS = "multiclass"


@dataclass
class FeatureConfig:
    """Feature engineering knobs shared by all mappings.

    theta_subset selects coordinates of theta (dimension reduction);
    linear_features are appended per example (binary) or per slot
    (multiclass) and feed the classifier's final-layer skip connection.
    """

    include_y: bool = True
    theta_subset: tuple | None = None
    linear_features: tuple = ()
    standardize: bool = True

    def __post_init__(self):
        if self.theta_subset is not None:
            self.theta_subset = tuple(int(i) for i in self.theta_subset)
        self.linear_features = tuple(self.linear_features)
        for name in self.linear_features:
            if name not in VALID_LINEAR_FEATURES:
                raise ConfigurationError("unknown linear feature %r" % (name,))


@dataclass
class Example:
    label: int
    feature: np.ndarray
    batch_id: int


@dataclass
class Batch:
    """All examples mapped from one run, stored as a feature matrix.

    Feature layout (row = example):
      binary kinds:  [nonlinear block (d_nonlinear) | linear block (n_linear)]
      multiclass:    [theta*_0 .. theta*_M (d_sel each) | y (d_y) |
                      linear_0 .. linear_M (n_linear each)]
    """

    batch_id: int
    labels: np.ndarray
    features: np.ndarray
    kind: MappingKind
    n_classes: int
    d_nonlinear: int        # per-slot nonlinear dim for multiclass
    n_linear: int           # per-slot for multiclass, total for binary
    linear_names: tuple = ()
    d_theta_sel: int = 0
    d_y: int = 0

    @property
    def n_examples(self):
        return self.labels.shape[0]

    @property
    def n_slots(self):
        return self.n_classes if self.kind is MappingKind.MULTICLASS else 1

    @property
    def examples(self):
        return [Example(int(t), phi, self.batch_id)
                for t, phi in zip(self.labels, self.features)]

    @property
    def label_multiset(self):
        vals, counts = np.unique(self.labels, return_counts=True)
        return dict(zip(vals.tolist(), counts.tolist()))

    def nonlinear(self):
        """(L, d_nonlinear) nonlinear inputs; binary kinds only."""
        if self.kind is MappingKind.MULTICLASS:
            raise ConfigurationError("use slot_views() for multiclass batches")
        return self.features[:, : self.d_nonlinear]

    def linear(self):
        if self.kind is MappingKind.MULTICLASS:
            raise ConfigurationError("use slot_views() for multiclass batches")
        return self.features[:, self.d_nonlinear:]

    def slot_views(self):
        """Per-slot arrays for multiclass: (L, K, d_nonlinear), (L, K, n_linear)."""
        if self.kind is not MappingKind.MULTICLASS:
            raise ConfigurationError("slot_views() requires a multiclass batch")
        L = self.n_examples
        K = self.n_classes
        ds = self.d_theta_sel
        dy = self.d_y
        theta_part = self.features[:, : K * ds].reshape(L, K, ds)
        y_part = self.features[:, K * ds: K * ds + dy]
        nl = np.concatenate([theta_part, np.repeat(y_part[:, None, :], K, axis=1)], axis=2)
        lin = self.features[:, K * ds + dy:].reshape(L, K, self.n_linear)
        return nl, lin


def _selected(run, cfg):
    if cfg.theta_subset is None:
        return np.arange(run.theta.shape[0])
    idx = np.asarray(cfg.theta_subset, dtype=int)
    if idx.size == 0 or np.any(idx < 0) or np.any(idx >= run.theta.shape[0]):
        raise ConfigurationError("theta_subset indices out of range for d_theta=%d"
                                 % run.theta.shape[0])
    return idx


def _check_densities(run, cfg):
    for name in cfg.linear_features:
        if name == "log_p" and run.log_p is None:
            raise ConfigurationError("linear feature log_p requested but table has no log_p")
        if name == "log_q" and run.log_q is None:
            raise ConfigurationError("linear feature log_q requested but table has no log_q")


def _ranks_all(values, rng=None):
    """Rank of each entry among the others along the last axis.

    The rank is the strictly-greater count.  Each row of the last axis holds
    M+1 values (theta first, then draws); entry i's references are all other
    entries, matching the construction where the label-0 rank compares
    theta to the draws and each draw's rank compares it to the other draws
    plus theta.  With an rng, a uniform(0, 1e-10) jitter of the values'
    shape is added first, breaking ties deterministically given the rng
    state.  Leading axes are independent rows: callers that need one jitter
    stream per row add that jitter themselves and pass no rng.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 0 or v.shape[-1] < 2:
        raise InvalidParameterError("ranks need a value and a nonempty reference")
    if rng is not None:
        v = v + rng.uniform(0.0, JITTER_SCALE, size=v.shape)
    order = np.argsort(v, axis=-1, kind="stable")
    pos = np.empty_like(order)
    np.put_along_axis(pos, order, np.arange(v.shape[-1]), axis=-1)
    return (v.shape[-1] - 1) - pos


def _linear_block(run, cfg, sel, rng):
    """(M+1, n_linear) linear features for occupants [theta, draws]."""
    cols = []
    names = []
    for name in cfg.linear_features:
        if name == "log_p":
            cols.append(run.log_p)
            names.append("log_p")
        elif name == "log_q":
            cols.append(run.log_q)
            names.append("log_q")
        elif name == "rank":
            for j in sel:
                vals = np.concatenate([[run.theta[j]], run.draws[:, j]])
                cols.append(_ranks_all(vals, rng).astype(float))
                names.append("rank%d" % j)
    if not cols:
        return np.zeros((run.M + 1, 0)), ()
    return np.column_stack(cols), tuple(names)


def _map_binary(run, cfg, include_y, rng):
    _check_densities(run, cfg)
    sel = _selected(run, cfg)
    M = run.M
    occupants = np.vstack([run.theta[sel][None, :], run.draws[:, sel]])
    blocks = [occupants]
    d_y = 0
    if include_y:
        blocks.append(np.repeat(run.y[None, :], M + 1, axis=0))
        d_y = run.y.shape[0]
    lin, names = _linear_block(run, cfg, sel, rng)
    features = np.hstack(blocks + [lin])
    labels = np.concatenate([[0], np.ones(M, dtype=int)])
    kind = MappingKind.BINARY_FULL if include_y else MappingKind.BINARY_NO_Y
    return Batch(batch_id=int(run.run_id), labels=labels, features=features,
                 kind=kind, n_classes=2, d_nonlinear=sel.size + d_y,
                 n_linear=lin.shape[1], linear_names=names,
                 d_theta_sel=sel.size, d_y=d_y)


def map_binary_full(run, cfg, rng=None):
    """Label 0 <-> (theta, y); label 1 <-> (draw_m, y), m = 1..M."""
    return _map_binary(run, cfg, include_y=cfg.include_y, rng=rng)


def map_binary_no_y(run, cfg, rng=None):
    """Binary mapping with y omitted from the features."""
    return _map_binary(run, cfg, include_y=False, rng=rng)


def map_binary_rank(run, cfg, rng=None):
    """Binary mapping on rank statistics of a single theta coordinate.

    Label-0 feature: rank of theta among the M draws.  Label-1 feature for
    draw m: its rank among the other draws plus theta.
    """
    _check_densities(run, cfg)
    sel = _selected(run, cfg)
    if sel.size != 1:
        raise ConfigurationError(
            "rank mapping needs a scalar theta; got %d coordinates "
            "(use theta_subset to pick one)" % sel.size)
    j = sel[0]
    vals = np.concatenate([[run.theta[j]], run.draws[:, j]])
    ranks = _ranks_all(vals, rng).astype(float)
    lin, names = _linear_block(run, cfg, sel, rng)
    features = np.hstack([ranks[:, None], lin])
    labels = np.concatenate([[0], np.ones(run.M, dtype=int)])
    return Batch(batch_id=int(run.run_id), labels=labels, features=features,
                 kind=MappingKind.BINARY_RANK, n_classes=2, d_nonlinear=1,
                 n_linear=lin.shape[1], linear_names=names,
                 d_theta_sel=1, d_y=0)


def map_multiclass(run, cfg, rng=None):
    """K = M+1 classes: example k places theta in slot k among the draws.

    Cyclic insertion: slot contents for example k are
    (draw_1..draw_k, theta, draw_{k+1}..draw_M), so draws keep their
    original relative order.
    """
    _check_densities(run, cfg)
    sel = _selected(run, cfg)
    M = run.M
    K = M + 1
    theta_sel = run.theta[sel]
    draws_sel = run.draws[:, sel]
    lin, names = _linear_block(run, cfg, sel, rng)  # rows ordered [theta, draws]
    d_y = run.y.shape[0] if cfg.include_y else 0
    p = lin.shape[1]
    features = np.empty((K, K * sel.size + d_y + K * p))
    labels = np.arange(K)
    for k in range(K):
        # occupant indices into [theta, draws]: draws 1..k, theta, draws k+1..M
        occ = np.concatenate([np.arange(1, k + 1), [0], np.arange(k + 1, M + 1)])
        slot_vals = np.vstack([theta_sel[None, :] if i == 0 else draws_sel[i - 1][None, :]
                               for i in occ])
        parts = [slot_vals.ravel()]
        if d_y:
            parts.append(run.y)
        parts.append(lin[occ].ravel())
        features[k] = np.concatenate(parts)
    return Batch(batch_id=int(run.run_id), labels=labels, features=features,
                 kind=MappingKind.MULTICLASS, n_classes=K,
                 d_nonlinear=sel.size + d_y, n_linear=p, linear_names=names,
                 d_theta_sel=sel.size, d_y=d_y)


_MAPPERS = {
    MappingKind.BINARY_FULL: map_binary_full,
    MappingKind.BINARY_NO_Y: map_binary_no_y,
    MappingKind.BINARY_RANK: map_binary_rank,
    MappingKind.MULTICLASS: map_multiclass,
}


def map_run(run, kind, cfg, rng=None):
    """Map one run with the mapper for `kind`; rng drives the rank jitter."""
    return _MAPPERS[MappingKind(kind)](run, cfg, rng=rng)


def map_table(table, kind, cfg, seed=0):
    """Map every run of a table; one batch per run, ordered by run position.

    The seed drives only the rank tie-breaking jitter (one substream per
    run), so mappings without ranks are seed-independent.
    """
    if table.S == 0:
        raise ConfigurationError("cannot map an empty table")
    children = np.random.SeedSequence(seed).spawn(table.S)
    return [map_run(run, kind, cfg, rng=np.random.default_rng(ss))
            for run, ss in zip(table.runs, children)]


def split_batches(batches, val_fraction, seed=0):
    """Assign whole batches to train or validation (floor rule, seeded shuffle)."""
    if not (0.0 < val_fraction < 1.0):
        raise InvalidParameterError("val_fraction must be in (0, 1)")
    n = len(batches)
    n_val = int(math.floor(val_fraction * n))
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    val_idx = set(order[:n_val].tolist())
    train = [b for i, b in enumerate(batches) if i not in val_idx]
    val = [b for i, b in enumerate(batches) if i in val_idx]
    return train, val


def export_examples(batches, path):
    """Dump mapped examples as JSONL for external classifiers."""
    with open(path, "w") as fh:
        for batch in batches:
            for t, phi in zip(batch.labels, batch.features):
                fh.write(json.dumps({"batch_id": int(batch.batch_id),
                                     "t": int(t),
                                     "phi": phi.tolist()}) + "\n")
