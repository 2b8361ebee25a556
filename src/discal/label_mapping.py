"""Label mappings: turn simulation runs into batched classification examples.

Every mapping lays a run out the same way: K = M+1 occupant rows
[occupant (or its rank) | y | linear], theta in row 0 and the draws in
order after it.  The mappings differ only in their labels.  All of them
assign label 0 to theta and share the defining property that under perfect
calibration (q = true posterior) the feature distribution is independent
of the label, so any classifier's predictive edge measures miscalibration.

  BINARY_FULL   label 0 <-> (theta, y), label 1 <-> (draw_m, y): one
                example per row
  BINARY_NO_Y   same with y omitted
  BINARY_RANK   the occupant is its rank among the run's K values of a
                scalar coordinate
  MULTICLASS    K classes; example k is the whole run with theta in slot k
                (cyclic insertion: the draws keep their relative order)
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
    linear_features are appended to every occupant row and feed the
    classifier's final-layer skip connection.
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
class Batch:
    """One run's K occupant rows and the labels of its examples.

    `features` is (K, d_nonlinear + n_linear): row j is
    [occupant j (or its rank) (d_nonlinear - d_y) | y (d_y) | linear (n_linear)]
    with theta in row 0.  A binary example is one row, labelled 0 for theta
    and 1 for a draw.  Multiclass example k (label k) is all K rows with
    theta in slot k and the draws in order around it
    (rows[_cyclic_insertion(K)[k]]).
    """

    batch_id: int
    labels: np.ndarray
    features: np.ndarray
    kind: MappingKind
    n_classes: int
    d_nonlinear: int
    n_linear: int
    linear_names: tuple = ()
    d_y: int = 0

    @property
    def n_examples(self):
        return self.labels.shape[0]

    @property
    def label_multiset(self):
        vals, counts = np.unique(self.labels, return_counts=True)
        return dict(zip(vals.tolist(), counts.tolist()))

    def nonlinear(self):
        """(K, d_nonlinear) nonlinear block of the occupant rows."""
        return self.features[:, : self.d_nonlinear]

    def linear(self):
        """(K, n_linear) linear block of the occupant rows."""
        return self.features[:, self.d_nonlinear:]


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

    Every mapping writes the same (S, K, F) occupant rows, K = M+1 per run
    with theta in row 0: [occupant (or its rank) | y | linear].  Batch s's
    features are the view rows[s].  The seed drives only the rank jitter,
    whose rows per run are the rank mapping's feature first, then each
    'rank' linear feature's coordinates in theta_subset order.
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

    # written in place: the rows are the output, with no temporaries of
    # their size
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
        labels, n_classes = np.arange(K), K
    else:
        labels, n_classes = np.concatenate([[0], np.ones(K - 1, dtype=int)]), 2
    labels.flags.writeable = False  # one array shared by every batch
    return [Batch(batch_id=int(r.run_id), labels=labels, features=rows[s], kind=kind,
                  n_classes=n_classes, d_nonlinear=ds + d_y, n_linear=p,
                  linear_names=tuple(names), d_y=d_y)
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
    """Dump mapped examples as JSONL for external classifiers.

    A binary example's phi is its row.  A multiclass example's phi is flat:
    its K slot occupants (d_nonlinear - d_y each), then y once, then the K
    slots' linear features.
    """
    with open(path, "w") as fh:
        for batch in batches:
            phis = batch.features
            if batch.kind is MappingKind.MULTICLASS:
                K, ds = batch.n_classes, batch.d_nonlinear - batch.d_y
                slots = batch.features[_cyclic_insertion(K)]
                phis = np.concatenate(
                    [slots[:, :, :ds].reshape(K, -1),
                     np.broadcast_to(batch.features[0, ds:batch.d_nonlinear],
                                     (K, batch.d_y)),
                     slots[:, :, batch.d_nonlinear:].reshape(K, -1)], axis=1)
            for t, phi in zip(batch.labels, phis):
                fh.write(json.dumps({"batch_id": int(batch.batch_id),
                                     "t": int(t),
                                     "phi": phi.tolist()}) + "\n")
