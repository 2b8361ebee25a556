"""Label mappings: turn a simulation table into classification examples.

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

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .sim_model import InvalidParameterError, run_streams

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

    theta_subset: tuple | None = None
    linear_features: tuple = ()

    def __post_init__(self):
        if self.theta_subset is not None:
            self.theta_subset = tuple(int(i) for i in self.theta_subset)
        self.linear_features = tuple(self.linear_features)
        for name in self.linear_features:
            if name not in VALID_LINEAR_FEATURES:
                raise ConfigurationError("unknown linear feature %r" % (name,))


class Run(NamedTuple):
    """One mapped run: its K occupant rows and the labels of its examples."""

    run_id: int
    labels: np.ndarray
    features: np.ndarray

    @property
    def n_examples(self):
        return self.labels.shape[0]


@dataclass
class MappedTable:
    """Mapped runs as one (R, K, F) block of occupant rows.

    rows[s] holds run s's K = M+1 occupant rows
    [occupant (or its rank) (d_nonlinear - d_y) | y (d_y) | linear],
    theta in row 0 and the draws in order after it; linear_names names the
    linear columns.  Labels are not stored, they follow from the layout.  A
    binary example is one row, labelled 0 for theta and 1 for a draw.
    Multiclass example k (label k) is all K rows of its run with theta in
    slot k and the draws in order around it (rows[s][_cyclic_insertion(K)[k]]).
    Example s*K + k is row k, or example k, of run s.  x_nl and x_lin are
    the column views of the flattened rows.  Iterating yields one Run per run.
    """

    rows: np.ndarray
    run_ids: np.ndarray
    kind: MappingKind
    d_nonlinear: int
    d_y: int = 0
    linear_names: tuple = ()
    x_nl: np.ndarray = field(init=False, repr=False)
    x_lin: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        flat = self.rows.reshape(-1, self.rows.shape[-1])
        self.x_nl, self.x_lin = flat[:, :self.d_nonlinear], flat[:, self.d_nonlinear:]

    @property
    def multiclass(self):
        return self.kind is MappingKind.MULTICLASS

    @property
    def n_classes(self):
        return self.rows.shape[1] if self.multiclass else 2

    def label_of(self, slot):
        return slot if self.multiclass else np.minimum(slot, 1)

    @property
    def labels(self):
        """(R*K,) label of each example."""
        return self.label_of(np.tile(np.arange(self.rows.shape[1]), self.rows.shape[0]))

    @property
    def batch_ids(self):
        """(R*K,) run id of each example."""
        return np.repeat(self.run_ids, self.rows.shape[1])

    def __len__(self):
        return self.rows.shape[0]

    def __iter__(self):
        labels = self.label_of(np.arange(self.rows.shape[1]))
        labels.flags.writeable = False  # one array shared by every run
        return map(Run, self.run_ids.tolist(), itertools.repeat(labels), self.rows)


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
    slack = _jitter_slack(v)
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, which counts as close
        gaps = np.diff(v, axis=-1)
    close = np.flatnonzero(~np.all(gaps > slack, axis=(1, 2)))
    if close.size:
        ranks[close] = _ranks_all(values[close] + _run_jitter(seed, close, values.shape[1:]))
    return ranks


def _jitter_slack(values):
    """How far apart two of a run's values (..., K) must be for no jitter to reorder them."""
    return 2 * JITTER_SCALE + 4 * np.spacing(np.abs(values).max(axis=-1, keepdims=True))


def _run_jitter(seed, runs, shape):
    """Tie-breaking jitter: run i's uniform(0, JITTER_SCALE, shape) draw, for each i in `runs`."""
    draws = [rng.uniform(0.0, JITTER_SCALE, shape) for rng in run_streams(seed, runs)]
    return np.array(draws).reshape((len(runs),) + tuple(shape))


def _cyclic_insertion(K):
    """(K, K) occupant index: row k is [1..k, 0, k+1..K-1] (theta in slot k)."""
    k = np.arange(K)[:, None]
    j = np.arange(K)[None, :]
    return np.where(j < k, j + 1, np.where(j == k, 0, j))


def map_table(table, kind, cfg, seed=0):
    """The MappedTable of every run of a table, in run order.

    Every mapping writes the same (S, K, F) occupant rows, K = M+1 per run
    with theta in row 0: [occupant (or its rank) | y | linear].  The rows
    are read-only: a pass that changes rows works on its own gathered copy.
    The seed drives only the rank jitter (see _jittered_ranks_all), whose
    rows per run are the rank mapping's feature first, then each 'rank'
    linear feature's coordinates in theta_subset order; mappings without
    ranks are seed-independent.
    """
    if table.S == 0:
        raise ConfigurationError("cannot map an empty table")
    kind = MappingKind(kind)
    for name in cfg.linear_features:
        if name != "rank" and getattr(table, name) is None:
            raise ConfigurationError("linear feature %s requested but table has no %s"
                                     % (name, name))
    sel = _selected(table.d_theta, cfg)
    if kind is MappingKind.BINARY_RANK and sel.size != 1:
        raise ConfigurationError(
            "rank mapping needs a scalar theta; got %d coordinates "
            "(use theta_subset to pick one)" % sel.size)
    S, K, ds = table.S, table.M + 1, sel.size
    d_y = table.d_y if kind in (MappingKind.BINARY_FULL, MappingKind.MULTICLASS) else 0
    p = sum(ds if name == "rank" else 1 for name in cfg.linear_features)

    # written in place: the rows are the output, with no temporaries of their size
    rows = np.empty((S, K, ds + d_y + p))
    occ = np.empty((S, K, 1)) if kind is MappingKind.BINARY_RANK else rows[:, :, :ds]
    cols = slice(None) if cfg.theta_subset is None else sel  # a basic slice copies nothing
    occ[:, 0] = table.theta[:, cols]
    occ[:, 1:] = table.draws[:, :, cols]
    if d_y:
        rows[:, :, ds:ds + d_y] = table.y[:, None, :]
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
            lin[:, :, len(names)] = getattr(table, name)
            names.append(name)

    rows.flags.writeable = False  # shared by every run view
    return MappedTable(rows, table.run_ids, kind, ds + d_y, d_y, tuple(names))
