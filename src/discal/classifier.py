"""Classifier core: MLP with a linear-feature skip connection, from scratch.

Two architectures:

  binary                Pr(t=1 | phi) = sigmoid(MLP(x) + w.l)
  separable_multiclass  Pr(t=k | slots) = softmax_k(g(slot_k)),
                        g(slot) = MLP(x_slot) + w.l_slot with shared params

where x is the nonlinear feature block and l the trailing linear features
(log densities / ranks, not standardized -- their scale is meaningful).
Every pass that scores gathers rows of its own from the map, standardizes
their x in place with training statistics (Model.standardize) and scores
them (Model.score).  The separable form is exactly permutation-equivariant
over slots, which keeps the divergence estimate on autocorrelated draws
valid without thinning; the permutation p-value is not valid there (a
chain is not exchangeable with an independent theta).

Training is minibatch gradient descent with adaptive moments, weighted
cross-entropy loss, and early stopping on held-out runs.  Everything is
deterministic given the seed (fixed shuffle order, fixed reduction order).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import label_mapping as lm
from .sim_model import InvalidParameterError, blocks, seed_sequence

PROB_CLAMP = 1e-12

# Model.standardize works through a block this many rows at a time
STANDARDIZE_ROWS = 1024

ARCH_BINARY = "binary"
ARCH_MULTICLASS = "separable_multiclass"

# Adam's decay rates of the first and second moments, and its denominator offset
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch):
        super().__init__("training loss became non-finite at epoch %d" % epoch)
        self.epoch = epoch


@dataclass(frozen=True)
class WeightScheme:
    """Per-example loss/LPD weights.

    'unweighted' gives weight 1 to every example.  'balanced_binary' uses
    (M+1)/2 for label 0 and (M+1)/(2M) for label 1, which rebalances the
    1:M class imbalance so the weighted LPD + log 2 estimates the
    conditional Jensen-Shannon divergence.
    """

    kind: str = "unweighted"
    M: int | None = None

    def __post_init__(self):
        if self.kind not in ("unweighted", "balanced_binary"):
            raise InvalidParameterError("unknown weight scheme %r" % self.kind)
        if self.kind == "balanced_binary" and (self.M is None or self.M < 1):
            raise InvalidParameterError("balanced_binary requires M >= 1")


UNWEIGHTED = WeightScheme()


def balanced_binary(M):
    return WeightScheme("balanced_binary", M)


def example_weights(labels, scheme):
    labels = np.asarray(labels)
    if scheme.kind == "unweighted":
        return np.ones(labels.shape[0])
    M = scheme.M
    w1 = (M + 1) / (2.0 * M)
    w0 = (M + 1) / 2.0
    return np.where(labels == 0, w0, w1)


@functools.lru_cache
def _weight_totals(K, scheme):
    """The K labels' example weights summed in label order (cumsum) and pairwise (sum)."""
    weights = example_weights(np.arange(K), scheme)
    return np.cumsum(weights)[-1], weights.sum()


@dataclass
class ModelConfig:
    architecture: str
    input_dim: int
    hidden_sizes: tuple = (64, 64)
    activation: str = "tanh"
    n_linear_features: int = 0
    class_count: int = 2

    def __post_init__(self):
        self.hidden_sizes = tuple(int(h) for h in self.hidden_sizes)
        if self.architecture not in (ARCH_BINARY, ARCH_MULTICLASS):
            raise InvalidParameterError("unknown architecture %r" % self.architecture)
        if any(h < 1 for h in self.hidden_sizes):
            raise InvalidParameterError("hidden sizes must all be >= 1")
        if self.class_count < 2:
            raise InvalidParameterError("class_count must be >= 2")
        if self.activation not in ("tanh", "relu"):
            raise InvalidParameterError("unknown activation %r" % self.activation)
        if self.input_dim < 0 or self.n_linear_features < 0:
            raise InvalidParameterError("negative dimensions")
        if self.input_dim + self.n_linear_features == 0:
            raise InvalidParameterError("model needs at least one input feature")


@dataclass
class TrainSettings:
    learning_rate: float = 1e-3
    epochs: int = 100
    minibatch_size: int = 256
    weight_scheme: WeightScheme = UNWEIGHTED
    patience: int = 10
    seed: int = 0
    val_fraction: float = 0.2

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise InvalidParameterError("learning_rate must be > 0")
        if self.epochs < 1:
            raise InvalidParameterError("epochs must be >= 1")
        if self.minibatch_size < 1:
            raise InvalidParameterError("minibatch_size must be >= 1")
        if self.patience < 0:
            raise InvalidParameterError("patience must be >= 0")
        if not 0 <= self.val_fraction < 1:
            raise InvalidParameterError("val_fraction must be in [0, 1)")
        seed_sequence(self.seed)  # train's default_rng would reject it mid-diagnosis


class Model:
    """MLP weights + linear-feature weight vector + input standardizer.

    The weights, biases and w_linear are views into one flat buffer,
    `params`, in get_params() order, so an optimizer can update them all in
    place.  The standardizer (x_mean, x_scale) is the identity until
    set_standardizer; standardize applies it to gathered rows in place, and
    score takes the rows it is given as standardized.
    """

    def __init__(self, config, seed=0):
        self.config = config
        rng = np.random.default_rng(seed)
        dims = [config.input_dim] + list(config.hidden_sizes) + [1]
        layers = list(zip(dims[:-1], dims[1:]))
        nlin = config.n_linear_features
        shapes = layers + [(fan_out,) for _, fan_out in layers] + [(nlin,)]
        ends = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
        self.blocks = list(zip([0] + ends, ends, shapes))   # (start, end, shape)
        self.params = np.zeros(ends[-1])
        self.weights, self.biases, self.w_linear = self.layout(self.params)
        for W, (fan_in, fan_out) in zip(self.weights, layers):
            bound = 1.0 / np.sqrt(max(fan_in, 1))
            W[...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        bound = 1.0 / np.sqrt(max(nlin, 1))
        self.w_linear[...] = rng.uniform(-bound, bound, size=nlin)
        self.set_standardizer(np.zeros(config.input_dim), np.ones(config.input_dim))

    def layout(self, flat):
        """(weights, biases, w_linear): views of a flat vector laid out like params."""
        views = [flat[start:end].reshape(shape) for start, end, shape in self.blocks]
        n_layers = len(self.config.hidden_sizes) + 1
        return views[:n_layers], views[n_layers:-1], views[-1]

    # ---- parameter plumbing -------------------------------------------------

    def get_params(self):
        """A copy of the flat parameter vector."""
        return self.params.copy()

    def set_params(self, flat):
        flat = np.asarray(flat, dtype=float)
        if flat.size != self.params.size:
            raise InvalidParameterError("parameter vector has wrong length")
        self.params[...] = flat.ravel()

    def set_standardizer(self, mean, scale):
        """Standardize the nonlinear columns by (x - mean) / scale from now on.

        Whole rows are faster than strided columns: the tiles hold 0 and 1,
        which leave a value exact, in the linear columns.
        """
        self.x_mean = np.asarray(mean, dtype=float)
        self.x_scale = np.asarray(scale, dtype=float)
        d, F = self.config.input_dim, self.config.input_dim + self.config.n_linear_features
        self._shift, self._spread = np.zeros((STANDARDIZE_ROWS, F)), np.ones((STANDARDIZE_ROWS, F))
        self._shift[:, :d], self._spread[:, :d] = self.x_mean, self.x_scale

    def standardize(self, rows):
        """Standardize a gathered (..., F) block in place, one tile of rows at a time."""
        flat = rows.reshape(-1, rows.shape[-1])
        for start in range(0, len(flat), STANDARDIZE_ROWS):
            x = flat[start:start + STANDARDIZE_ROWS]
            x -= self._shift[:len(x)]
            x /= self._spread[:len(x)]
        return rows

    # ---- forward ------------------------------------------------------------

    def _mlp_forward(self, X, keep_cache=False):
        """Scalar MLP output for each row of X (already standardized).

        Feature-major: the cache holds X.T (a view of the rows), then each
        hidden layer's (h, n) activation, so bias adds and the backward
        products and sums run along contiguous rows of n values.  Bias adds
        and activations write into the array each matmul made.
        """
        h = X.T
        cache = [h]
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = W.T @ h
            h += b[:, None]
            h = (np.tanh(h, out=h) if self.config.activation == "tanh"
                 else np.maximum(h, 0.0, out=h))
            cache.append(h)
        out = (self.weights[-1].T @ h).ravel()
        out += self.biases[-1]
        return (out, cache) if keep_cache else out

    def score(self, x_nl, x_lin, keep_cache=False):
        """Scores of standardized rows (x_nl, x_lin), in a fresh array; the rows are only read."""
        forward = self._mlp_forward(x_nl, keep_cache)
        out = forward[0] if keep_cache else forward
        out += x_lin @ self.w_linear
        return forward


def expit(x, out=None):
    """The logistic sigmoid 1 / (1 + exp(-x)) of a float array, into `out` (may be x).

    exp(-x) overflows to inf below x = -709.78, which gives exactly 0 and
    no warning, as at x = -inf.
    """
    out = np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _softmax(scores):
    z = scores - scores.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


# ---- dataset assembly -------------------------------------------------------

@dataclass
class ExampleArrays:
    """One training step: the standardized (n, F) rows of its examples and their labels.

    A binary example is one row; a multiclass step holds whole runs, K rows
    each.  x_nl and x_lin are the column views of the rows, as on a MappedTable.
    """

    rows: np.ndarray
    labels: np.ndarray
    kind: lm.MappingKind
    d_nonlinear: int
    n_classes: int
    x_nl: np.ndarray = field(init=False, repr=False)
    x_lin: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.x_nl, self.x_lin = self.rows[:, :self.d_nonlinear], self.rows[:, self.d_nonlinear:]

    @property
    def multiclass(self):
        return self.kind is lm.MappingKind.MULTICLASS


def arrays_from_batches(mapped, runs):
    """The MappedTable of the runs at positions `runs`, in that order, in rows of its own."""
    runs = np.asarray(runs, dtype=np.intp)
    return replace(mapped, rows=mapped.rows[runs], run_ids=mapped.run_ids[runs])


def config_for_table(mapped, hidden_sizes=(64, 64), activation="tanh"):
    """The ModelConfig for the layout of a mapped table.

    Only the layout is read (the nonlinear and linear widths and the class
    count), and every run of a table maps to the same layout.
    """
    arch = ARCH_MULTICLASS if mapped.multiclass else ARCH_BINARY
    return ModelConfig(architecture=arch, input_dim=mapped.d_nonlinear,
                       hidden_sizes=hidden_sizes, activation=activation,
                       n_linear_features=mapped.x_lin.shape[1], class_count=mapped.n_classes)


# ---- loss and gradient ------------------------------------------------------

def _clamped_log(p):
    """Clamped log of probabilities p, written over p."""
    np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP, out=p)
    return np.log(p, out=p)


def class_log_probs(model, data):
    """(N, 2) clamped log predicted probability of both classes for every binary example."""
    if data.multiclass:
        raise InvalidParameterError("class_log_probs scores binary examples; "
                                    "multiclass examples are scored per run by run_log_probs")
    p1 = model.score(data.x_nl, data.x_lin)
    expit(p1, out=p1)
    return _clamped_log(np.column_stack([1.0 - p1, p1]))


def run_log_probs(model, data):
    """(R, K) class log probabilities of each of R whole multiclass runs.

    Row s is the clamped log-softmax of run s's K occupant scores, theta in
    column 0: column j is the log probability that occupant j holds theta.
    Every example of a run has its label's probability at column 0, since
    its label is theta's slot.
    """
    occupant_scores = model.score(data.x_nl, data.x_lin).reshape(-1, data.n_classes)
    return _clamped_log(_softmax(occupant_scores))


def label_table(model, mapped, weight_scheme=UNWEIGHTED, runs=None):
    """(R, K) weighted label log-likelihoods of R whole runs, each run scored once.

    The runs are those at positions `runs` of a mapped table, in that
    order, or all of its runs.  T[s, j] is the sum of the weighted clamped
    log probabilities of run s's K example labels if occupant j held
    theta; column 0 holds the observed labels.
    With occupant j as theta a binary run's row j has label 0 and every
    other row label 1, so T[s, j] = sum_k w1 L1[s, k] + (w0 L0[s, j]
    - w1 L1[s, j]), and rows that score the same give equal columns, bit
    for bit.  All K examples of a multiclass run have the probability that
    theta's occupant holds theta, so T is run_log_probs times the sum of the
    K labels' weights.  The runs are gathered, standardized and scored one
    block at a time (see sim_model.blocks), so no copy of all of them
    exists.  A table of zero runs has no LPD and raises.
    """
    runs = np.arange(len(mapped)) if runs is None else np.asarray(runs)
    if runs.size == 0:
        raise InvalidParameterError("cannot score a table of zero runs")
    K, F = mapped.rows.shape[1:]
    T = np.empty((runs.size, K))
    for part in blocks(runs.size, K * scoring_width(model, F)):
        data = arrays_from_batches(mapped, runs[part])
        model.standardize(data.rows)
        _score_runs(model, data, weight_scheme, out=T[part])
    return T


def scoring_width(model, n_features):
    """Elements a scoring pass holds per row: the row and each hidden activation."""
    return n_features + sum(model.config.hidden_sizes)


def _score_runs(model, data, weight_scheme, out):
    """Write label_table of all the runs of `data` into `out`, in one scoring pass."""
    if data.multiclass:
        np.multiply(run_log_probs(model, data), _weight_totals(data.n_classes, weight_scheme)[1],
                    out=out)
        return
    L = class_log_probs(model, data).reshape(out.shape + (2,))
    L *= example_weights(np.arange(2), weight_scheme)
    np.subtract(L[:, :, 0], L[:, :, 1], out=out)
    out += L[:, :, 1].sum(axis=1, keepdims=True)


def table_lpd(T):
    """Mean weighted log probability of the observed labels: T[:, 0] over R*K examples."""
    return float(T[:, 0].sum() / T.size)


def loss(model, mapped, weight_scheme=UNWEIGHTED, runs=None):
    """Mean weighted negative log predicted probability of the true labels (see label_table)."""
    return -table_lpd(label_table(model, mapped, weight_scheme, runs))


def gradient(model, data, weight_scheme=UNWEIGHTED):
    """Exact gradient of loss() w.r.t. the flat parameter vector.

    `data` is a training step or a standardized MappedTable.  Every
    multiclass example of a run has the loss -log_softmax(s_run)[0], s_run
    its run's K occupant scores, so each run is scored once and its scores
    get (softmax(s_run) - e_0) * (the sum of its K examples' weights, added
    in label order) / n.
    """
    scores, cache = model.score(data.x_nl, data.x_lin, keep_cache=True)
    if data.multiclass:
        K = data.n_classes
        dscore = _softmax(scores.reshape(-1, K))
        dscore[:, 0] -= 1.0
        dscore *= _weight_totals(K, weight_scheme)[0] / scores.size
        dout = dscore.reshape(-1)
    else:
        labels = data.labels
        dout = expit(scores, out=scores)
        dout -= labels
        dout *= example_weights(labels, weight_scheme)
        dout /= labels.size
    return _backprop(model, cache, data.x_lin, dout)


def _backprop(model, cache, x_lin, dout):
    """Flat gradient, laid out like model.params, from d(loss)/d(score).

    Consumes the forward pass's (h, n) cache: its hidden activations are
    overwritten.  da is (h, n) too, so each bias gradient sums a contiguous row.
    """
    flat = np.empty_like(model.params)
    gw, gb, g_lin = model.layout(flat)
    np.matmul(cache[-1], dout, out=gw[-1][:, 0])
    gb[-1][0] = dout.sum()
    da = model.weights[-1] * dout[None, :]
    for i in range(len(model.weights) - 2, -1, -1):
        a = cache[i + 1]
        if model.config.activation == "tanh":
            da *= np.subtract(1.0, np.multiply(a, a, out=a), out=a)
        else:
            da *= a > 0
        np.matmul(cache[i], da.T, out=gw[i])
        da.sum(axis=1, out=gb[i])
        if i > 0:
            da = model.weights[i] @ da
    # a contiguous copy: x_lin.T @ dout on a column view of the row block
    # reduces in another order and changes the last bits
    np.matmul(np.ascontiguousarray(x_lin).T, dout, out=g_lin)
    return flat


# ---- training ---------------------------------------------------------------

def _standardizer(mapped, runs):
    """numpy's mean and std of the nonlinear columns of the runs at positions `runs`.

    Bit for bit, op for op: the column sums, then the sums of squared
    deviations from the mean, each over blocks of runs gathered from the
    map.  numpy sums a column of an (n, d >= 2) array row by row, so adding
    the running total into the first row of the next block's gather gives
    the whole sum's bits.  One column it sums pairwise, so there the column
    is gathered whole.  A zero std gives scale 1.
    """
    K, d = mapped.rows.shape[1], mapped.d_nonlinear
    parts = blocks(runs.size, K * d) if d > 1 else [slice(None)]

    def column_sums(centre):
        total = None
        for part in parts:
            x = mapped.rows[runs[part], :, :d].reshape(-1, d)
            if centre is not None:
                x -= centre
                np.square(x, out=x)
            if total is not None:
                x[0] += total
            total = x.sum(axis=0)
        return total

    n = runs.size * K
    mean = column_sums(None) / n
    scale = np.sqrt(column_sums(mean) / n)
    scale[scale == 0.0] = 1.0
    return mean, scale


def train(mapped, runs, config, settings):
    """Minibatch training with adaptive moments and early stopping.

    Trains on the runs at positions `runs` of a mapped table; another
    `config` than config_for_table's for it (with the same hidden sizes and
    activation) raises InvalidParameterError.  Each epoch visits the fit
    examples in a fresh random order, minibatch_size at a time.
    Multiclass training draws whole runs instead, minibatch_size // K of
    them per step (at least one): a run's K examples share one loss term
    and one scoring of its K rows, so a minibatch of whole runs still
    estimates the same mean loss without bias.  A fraction of the runs
    (val_fraction, floor rule) is held out for early stopping; the returned
    model carries the parameters with the best held-out loss, or the final
    parameters when no hold-out exists.  No copy of the fit runs is kept:
    the standardizer is summed over blocks of them (see _standardizer) and
    set on the model before the first step; each step (an ExampleArrays)
    gathers its rows from the read-only mapped rows and standardizes them
    in place, and each epoch's loss scores the hold-out runs (with none,
    the fit runs) one block at a time (see label_table).  A non-finite
    parameter update (from a non-finite gradient or an overflowing step), a
    non-finite second moment or a non-finite epoch loss raises
    TrainingDivergedError; an update is checked before it reaches the
    parameters.
    """
    runs = np.asarray(runs, dtype=np.intp)
    if runs.size == 0:
        raise InvalidParameterError("empty training set")
    fitted = config_for_table(mapped, config.hidden_sizes, config.activation)
    if config != fitted:
        raise InvalidParameterError("%s does not fit the mapped table: %s" % (config, fitted))
    rng = np.random.default_rng(settings.seed)

    n_hold = int(runs.size * settings.val_fraction)
    order = rng.permutation(runs.size)
    fit_runs, hold_runs = runs[order[n_hold:]], runs[order[:n_hold]]
    model = Model(config, seed=rng.integers(2**31))
    model.set_standardizer(*_standardizer(mapped, fit_runs))

    # Adam, in place on the live parameter buffer; each line keeps the
    # operation order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    # params -= lr*mhat / (sqrt(vhat) + eps)
    params = model.params
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    scratch = np.empty((2, params.size))
    step_size, denom = scratch
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    step = stale = 0
    best_loss, best_params = np.inf, None
    K, F = mapped.rows.shape[1:]
    # the unit of a step: a whole run of K rows for multiclass, a row for
    # binary; row u of fit_rows holds unit u's map positions
    multiclass = mapped.multiclass
    unit = K if multiclass else 1
    fit_rows = (fit_runs[:, None] * K + np.arange(K)).reshape(-1, unit)
    units = len(fit_rows)
    per_step = max(1, min(settings.minibatch_size // unit, units))
    flat = mapped.rows.reshape(-1, F)
    layout = (mapped.kind, mapped.d_nonlinear, mapped.n_classes)
    # each epoch's loss: the hold-out runs, or without any the fit runs
    checked = hold_runs if n_hold else fit_runs
    run_labels = np.tile(np.arange(K), per_step) if multiclass else None  # whole runs
    scheme = settings.weight_scheme
    for epoch in range(settings.epochs):
        perm = rng.permutation(units)
        for start in range(0, units, per_step):
            chosen = perm[start:start + per_step]
            chosen = fit_rows.take(np.sort(chosen) if multiclass else chosen, axis=0).ravel()
            rows = model.standardize(flat.take(chosen, axis=0))
            labels = run_labels[:chosen.size] if multiclass else mapped.label_of(chosen % K)
            g = gradient(model, ExampleArrays(rows, labels, *layout), scheme)
            step += 1
            np.multiply(g, 1 - b2, out=denom)
            denom *= g
            v *= b2
            v += denom
            g *= 1 - b1
            m *= b1
            m += g
            np.divide(m, 1 - b1 ** step, out=step_size)
            step_size *= settings.learning_rate
            np.divide(v, 1 - b2 ** step, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step_size /= denom
            # step_size is non-finite whenever g is and when lr*mhat
            # overflows; denom is when g*g overflows, which would leave
            # a zero step and freeze the parameter
            if not np.isfinite(scratch).all():
                raise TrainingDivergedError(epoch)
            params -= step_size
        check = loss(model, mapped, scheme, checked)
        if not np.isfinite(check):
            raise TrainingDivergedError(epoch)
        if n_hold:
            if check < best_loss - 1e-12:
                best_loss, best_params = check, model.get_params()
                stale = 0
            else:
                stale += 1
                if stale > settings.patience:
                    break
    if best_params is not None:
        model.set_params(best_params)
    return model

