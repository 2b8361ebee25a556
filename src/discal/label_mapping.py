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
from dataclasses import dataclass
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
        rows = slot_rows(self.features, self)
        return rows[..., :self.d_nonlinear], rows[..., self.d_nonlinear:]


def slot_rows(features, layout):
    """(L, K, d_nonlinear + n_linear) per-slot rows of L multiclass feature rows.

    `features` holds rows in the flat layout of the multiclass Batch
    `layout`, e.g. the rows of several such batches stacked.
    """
    L, K = features.shape[0], layout.n_classes
    ds, dy, p = layout.d_theta_sel, layout.d_y, layout.n_linear
    rows = np.empty((L, K, ds + dy + p))
    rows[:, :, :ds] = features[:, :K * ds].reshape(L, K, ds)
    rows[:, :, ds:ds + dy] = features[:, None, K * ds:K * ds + dy]
    rows[:, :, ds + dy:] = features[:, K * ds + dy:].reshape(L, K, p)
    return rows


def _selected(d_theta, cfg):
    if cfg.theta_subset is None:
        return np.arange(d_theta)
    idx = np.asarray(cfg.theta_subset, dtype=int)
    if idx.size == 0 or np.any(idx < 0) or np.any(idx >= d_theta):
        raise ConfigurationError("theta_subset indices out of range for d_theta=%d"
                                 % d_theta)
    return idx


def _ranks_all(values):
    """Rank of each entry among the others along the last axis.

    The rank is the strictly-greater count.  Each row of the last axis holds
    M+1 values (theta first, then draws); entry i's references are all other
    entries, matching the construction where the label-0 rank compares
    theta to the draws and each draw's rank compares it to the other draws
    plus theta.  Exact ties are broken by position; _jittered_ranks_all
    breaks them at random instead.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 0 or v.shape[-1] < 2:
        raise InvalidParameterError("ranks need a value and a nonempty reference")
    order = np.argsort(v, axis=-1, kind="stable")
    pos = np.empty_like(order)
    np.put_along_axis(pos, order, np.arange(v.shape[-1]), axis=-1)
    return (v.shape[-1] - 1) - pos


def _jittered_ranks_all(values, seed):
    """_ranks_all of (S, n, K) values after a per-run tie-breaking jitter.

    Run i adds one uniform(0, JITTER_SCALE, (n, K)) draw from the i-th
    substream of SeedSequence(seed).spawn(S), so a run's ranks depend only
    on its own values, its position and the seed.  A jitter cannot reorder
    two values more than 2*JITTER_SCALE plus a few ulps apart, so only runs
    with a closer pair (or a NaN) draw it; the other runs' ranks are their
    unjittered ones, which are the same.
    """
    ranks = _ranks_all(values)
    v = np.sort(values, axis=-1)
    slack = 2 * JITTER_SCALE + 4 * np.spacing(np.abs(v).max(axis=-1, keepdims=True))
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, which counts as close
        gaps = np.diff(v, axis=-1)
    close = np.flatnonzero(~np.all(gaps > slack, axis=(1, 2)))
    if close.size:
        root = np.random.SeedSequence(seed)
        jitter = np.empty((close.size,) + values.shape[1:])
        for j, i in enumerate(close):
            # the i-th child of root.spawn(S), built directly
            child = np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + (int(i),),
                                           pool_size=root.pool_size)
            jitter[j] = np.random.default_rng(child).uniform(0.0, JITTER_SCALE,
                                                             values.shape[1:])
        ranks[close] = _ranks_all(values[close] + jitter)
    return ranks


def _cyclic_insertion(K):
    """(K, K) occupant index: row k is [1..k, 0, k+1..K-1] (theta in slot k)."""
    k = np.arange(K)[:, None]
    j = np.arange(K)[None, :]
    return np.where(j < k, j + 1, np.where(j == k, 0, j))


def _map_runs(runs, kind, cfg, seed):
    """Map runs sharing (d_theta, d_y, M) to one Batch each, all at once.

    Every mapping starts from the same (S, K, .) rows, K = M+1 occupants per
    run with theta in slot 0: [occupant (or its rank) | y | linear].  These
    rows are the binary layout; multiclass gathers them by cyclic insertion.
    Batch s's features are the view buf[s] of one (S, K, F) buffer.  The
    seed drives only the rank jitter, whose rows per run are the rank
    mapping's feature first, then each 'rank' linear feature's coordinates
    in theta_subset order.
    """
    kind = MappingKind(kind)
    for name in cfg.linear_features:
        if name != "rank" and any(getattr(r, name) is None for r in runs):
            raise ConfigurationError("linear feature %s requested but table has no %s"
                                     % (name, name))
    first = runs[0]
    sel = _selected(first.theta.shape[0], cfg)
    if kind is MappingKind.BINARY_RANK and sel.size != 1:
        raise ConfigurationError(
            "rank mapping needs a scalar theta; got %d coordinates "
            "(use theta_subset to pick one)" % sel.size)
    include_y = cfg.include_y and kind in (MappingKind.BINARY_FULL, MappingKind.MULTICLASS)
    if kind is MappingKind.BINARY_FULL and not include_y:
        kind = MappingKind.BINARY_NO_Y
    S, K, ds = len(runs), first.M + 1, sel.size
    d_y = first.y.shape[0] if include_y else 0
    p = sum(ds if name == "rank" else 1 for name in cfg.linear_features)

    # written in place: the binary rows are the output, with no temporaries
    # of their size
    rows = np.empty((S, K, ds + d_y + p))
    occ = np.empty((S, K, 1)) if kind is MappingKind.BINARY_RANK else rows[:, :, :ds]
    occ[:, 0] = np.stack([r.theta for r in runs])[:, sel]
    np.stack([r.draws[:, sel] for r in runs], out=occ[:, 1:])
    if d_y:
        rows[:, :, ds:ds + d_y] = np.stack([r.y for r in runs])[:, None, :]
    ranked = [occ[:, :, 0]] if kind is MappingKind.BINARY_RANK else []
    ranked += [occ[:, :, i] for name in cfg.linear_features if name == "rank"
               for i in range(ds)]
    if ranked:
        ranks = iter(_jittered_ranks_all(np.stack(ranked, axis=1), seed)
                     .astype(float).transpose(1, 0, 2))
    if kind is MappingKind.BINARY_RANK:
        rows[:, :, 0] = next(ranks)
    lin = rows[:, :, ds + d_y:]
    names = []
    for name in cfg.linear_features:
        if name == "rank":
            for j in sel:
                lin[:, :, len(names)] = next(ranks)
                names.append("rank%d" % j)
        else:
            np.stack([getattr(r, name) for r in runs], out=lin[:, :, len(names)])
            names.append(name)

    if kind is MappingKind.MULTICLASS:
        idx = _cyclic_insertion(K)
        buf = np.empty((S, K, K * ds + d_y + K * p))
        buf[:, :, :K * ds] = rows[:, idx, :ds].reshape(S, K, K * ds)
        buf[:, :, K * ds:K * ds + d_y] = rows[:, :1, ds:ds + d_y]
        buf[:, :, K * ds + d_y:] = rows[:, idx, ds + d_y:].reshape(S, K, K * p)
        labels, n_classes = np.arange(K), K
    else:
        buf = rows
        labels, n_classes = np.concatenate([[0], np.ones(K - 1, dtype=int)]), 2
    labels.flags.writeable = False  # one array shared by every batch
    return [Batch(batch_id=int(r.run_id), labels=labels, features=buf[s], kind=kind,
                  n_classes=n_classes, d_nonlinear=ds + d_y, n_linear=p,
                  linear_names=tuple(names), d_theta_sel=ds, d_y=d_y)
            for s, r in enumerate(runs)]


def map_run(run, kind, cfg, seed=0):
    """Map one run; the result equals map_table's batch for a table of that run."""
    return _map_runs([run], kind, cfg, seed)[0]


def map_table(table, kind, cfg, seed=0):
    """Map every run of a table; one batch per run, ordered by run position.

    The seed drives only the rank tie-breaking jitter (one substream per
    run, spawned only when a rank is requested), so mappings without ranks
    are seed-independent.
    """
    if table.S == 0:
        raise ConfigurationError("cannot map an empty table")
    return _map_runs(table.runs, kind, cfg, seed)


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
