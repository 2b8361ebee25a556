"""Classifier core: MLP with a linear-feature skip connection, from scratch.

Two architectures:

  binary                Pr(t=1 | phi) = sigmoid(MLP(x) + w.l)
  separable_multiclass  Pr(t=k | slots) = softmax_k(g(slot_k)),
                        g(slot) = MLP(x_slot) + w.l_slot with shared params

where x is the nonlinear feature block (standardized using training
statistics) and l the trailing linear features (log densities / ranks, not
standardized -- their scale is meaningful).  The separable form is exactly
permutation-equivariant over slots, which is what makes diagnostics on
autocorrelated draws valid without thinning.

Training is minibatch gradient descent with adaptive moments, weighted
cross-entropy loss, and early stopping on held-out runs.  Everything is
deterministic given the seed (fixed shuffle order, fixed reduction order).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import label_mapping as lm
from .sim_model import InvalidParameterError

PROB_CLAMP = 1e-12

ARCH_BINARY = "binary"
ARCH_MULTICLASS = "separable_multiclass"


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
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_scheme: WeightScheme = UNWEIGHTED
    patience: int = 10
    seed: int = 0
    val_fraction: float = 0.2
    standardize: bool = True

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
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise InvalidParameterError("%s must be in [0, 1)" % name)
        if not self.adam_eps > 0:
            raise InvalidParameterError("adam_eps must be > 0")


class Model:
    """MLP weights + linear-feature weight vector + input standardizer.

    The weights, biases and w_linear are views into one flat buffer,
    `params`, in get_params() order, so an optimizer can update them all in
    place.  x_mean and x_scale are None only inside train, whose rows are
    standardized already; score then takes the nonlinear block as it is.
    """

    SERIAL_VERSION = 1

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
        self.x_mean = np.zeros(config.input_dim)
        self.x_scale = np.ones(config.input_dim)

    def layout(self, flat):
        """(weights, biases, w_linear): views of a flat vector laid out like params."""
        views = [flat[start:end].reshape(shape) for start, end, shape in self.blocks]
        n_layers = len(self.config.hidden_sizes) + 1
        return views[:n_layers], views[n_layers:-1], views[-1]

    # ---- parameter plumbing -------------------------------------------------

    def param_arrays(self):
        return self.weights + self.biases + [self.w_linear]

    def get_params(self):
        """A copy of the flat parameter vector."""
        return self.params.copy()

    def set_params(self, flat):
        flat = np.asarray(flat, dtype=float)
        if flat.size != self.params.size:
            raise InvalidParameterError("parameter vector has wrong length")
        self.params[...] = flat.ravel()

    def set_standardizer(self, mean, scale):
        self.x_mean = np.asarray(mean, dtype=float)
        self.x_scale = np.asarray(scale, dtype=float)

    # ---- forward ------------------------------------------------------------

    def _mlp_forward(self, X, keep_cache=False):
        """Scalar MLP output for each row of X (already standardized).

        Bias adds and activations write into the array each matmul made.
        """
        cache = [X]
        h = X
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ W
            h += b
            h = (np.tanh(h, out=h) if self.config.activation == "tanh"
                 else np.maximum(h, 0.0, out=h))
            cache.append(h)
        out = (h @ self.weights[-1]).ravel()
        out += self.biases[-1]
        return (out, cache) if keep_cache else out

    def score(self, x_nl, x_lin, keep_cache=False):
        """Scores of rows (x_nl, x_lin), in a fresh array; the rows are only read."""
        if self.x_mean is not None:
            x_nl = x_nl - self.x_mean
            x_nl /= self.x_scale
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

class ExampleArrays(lm.MappedTable):
    """Runs gathered from a mapped table into rows of their own.

    A pass may change these rows in place (train standardizes its fit
    rows); map_table's rows are read-only and shared by its run views.
    gradient gets one from train: whole runs, or a binary minibatch's
    `index` over the fit rows.
    """


def arrays_from_batches(mapped, runs):
    """The runs at positions `runs` of a mapped table, in that order, in one gather."""
    runs = np.asarray(runs, dtype=np.intp)
    return ExampleArrays(mapped.rows[runs], mapped.run_ids[runs], mapped.kind,
                         mapped.d_nonlinear, mapped.d_y, mapped.linear_names)


def config_for_table(mapped, hidden_sizes=(64, 64), activation="tanh"):
    """The ModelConfig for the layout of a mapped table.

    A table's first run maps to the layout of the whole table, so
    map_table(table.take([0]), kind, cfg) is enough to build it.
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
    p1 = model.score(*data.scored_rows())
    expit(p1, out=p1)
    return _clamped_log(np.column_stack([1.0 - p1, p1]))


def run_log_probs(model, data):
    """(R, K) class log probabilities of each of R whole multiclass runs.

    Row s is the clamped log-softmax of run s's K occupant scores, theta in
    column 0: column j is the log probability that occupant j holds theta.
    Every example of a run has its label's probability at column 0, since
    its label is theta's slot.
    """
    x_nl, x_lin = data.scored_rows()
    occupant_scores = model.score(x_nl, x_lin).reshape(-1, data.n_classes)
    return _clamped_log(_softmax(occupant_scores))


def label_table(model, data, weight_scheme=UNWEIGHTED):
    """(R, K) weighted label log-likelihoods of R whole runs, one scoring pass.

    T[s, j] is the sum of the weighted clamped log probabilities of run s's
    K example labels if occupant j held theta; column 0 holds the observed
    labels.  With occupant j as theta a binary run's row j has label 0 and
    every other row label 1, so T[s, j] = sum_k w1 L1[s, k] + (w0 L0[s, j]
    - w1 L1[s, j]), and rows that score the same give equal columns, bit
    for bit.  All K examples of a multiclass run have the probability that
    theta's occupant holds theta, so T is run_log_probs times the sum of the
    K labels' weights.
    """
    if data.multiclass:
        return run_log_probs(model, data) * example_weights(np.arange(data.n_classes),
                                                            weight_scheme).sum()
    L = class_log_probs(model, data).reshape(data.rows.shape[:2] + (2,))
    L *= example_weights(np.arange(2), weight_scheme)
    T = np.subtract(L[:, :, 0], L[:, :, 1])
    T += L[:, :, 1].sum(axis=1, keepdims=True)
    return T


def table_lpd(T):
    """Mean weighted log probability of the observed labels: T[:, 0] over R*K examples."""
    return float(T[:, 0].sum() / T.size)


def loss(model, data, weight_scheme=UNWEIGHTED):
    """Mean weighted negative log predicted probability of the true label."""
    return -table_lpd(label_table(model, data, weight_scheme))


def gradient(model, data, weight_scheme=UNWEIGHTED):
    """Exact gradient of loss() w.r.t. the flat parameter vector.

    Every multiclass example of a run has the loss -log_softmax(s_run)[0],
    s_run its run's K occupant scores, so each run is scored once and its
    scores get (softmax(s_run) - e_0) * (the sum of its K examples' weights,
    added in label order) / n.
    """
    x_nl, x_lin = data.scored_rows()
    scores, cache = model.score(x_nl, x_lin, keep_cache=True)
    if data.multiclass:
        K = data.n_classes
        dscore = _softmax(scores.reshape(-1, K))
        dscore[:, 0] -= 1.0
        dscore *= np.cumsum(example_weights(np.arange(K), weight_scheme))[-1] / scores.size
        dout = dscore.reshape(-1)
    else:
        labels = data.labels
        dout = expit(scores, out=scores)
        dout -= labels
        dout *= example_weights(labels, weight_scheme)
        dout /= labels.size
    return _backprop(model, cache, x_lin, dout)


def _backprop(model, cache, x_lin, dout):
    """Flat gradient, laid out like model.params, from d(loss)/d(score).

    Consumes the forward pass's cache: its hidden activations are overwritten.
    """
    flat = np.empty_like(model.params)
    gw, gb, g_lin = model.layout(flat)
    np.matmul(cache[-1].T, dout[:, None], out=gw[-1])
    gb[-1][0] = dout.sum()
    da = np.outer(dout, model.weights[-1].ravel())
    for i in range(len(model.weights) - 2, -1, -1):
        a = cache[i + 1]
        if model.config.activation == "tanh":
            da *= np.subtract(1.0, np.multiply(a, a, out=a), out=a)
        else:
            da *= a > 0
        np.matmul(cache[i].T, da, out=gw[i])
        da.sum(axis=0, out=gb[i])
        if i > 0:
            da = da @ model.weights[i].T
    # a contiguous copy: x_lin.T @ dout on a column view of the row block
    # reduces in another order and changes the last bits
    np.matmul(np.ascontiguousarray(x_lin).T, dout, out=g_lin)
    return flat


# ---- training ---------------------------------------------------------------

def train(mapped, runs, config, settings):
    """Minibatch training with adaptive moments and early stopping.

    Trains on the runs at positions `runs` of a mapped table.  Each epoch
    visits the fit examples in a fresh random order, minibatch_size at a
    time.  Multiclass training draws whole runs instead, minibatch_size // K
    of them per step (at least one): a run's K examples share one loss term
    and one scoring of its K rows, so a minibatch of whole runs still
    estimates the same mean loss without bias.  A fraction of the runs
    (val_fraction, floor rule) is held out for early stopping; the returned
    model carries the parameters with the best held-out loss, or the final
    parameters when no hold-out exists.  The fit and hold-out runs are each
    gathered once from the mapped rows, their nonlinear columns are
    standardized in place, and the model gets the standardizer after the
    last step.  A non-finite parameter update (from a non-finite gradient
    or an overflowing step), a non-finite second moment or a non-finite
    epoch loss raises TrainingDivergedError; an update is checked before it
    reaches the parameters.
    """
    runs = np.asarray(runs, dtype=np.intp)
    if runs.size == 0:
        raise InvalidParameterError("empty training set")
    rng = np.random.default_rng(settings.seed)

    n_hold = int(runs.size * settings.val_fraction)
    order = rng.permutation(runs.size)
    fit_data = arrays_from_batches(mapped, runs[order[n_hold:]])
    hold_data = arrays_from_batches(mapped, runs[order[:n_hold]]) if n_hold else None

    model = Model(config, seed=rng.integers(2**31))
    standardizer = (model.x_mean, model.x_scale)
    if settings.standardize and config.input_dim > 0:
        mean = fit_data.x_nl.mean(axis=0)
        scale = fit_data.x_nl.std(axis=0)
        scale[scale == 0.0] = 1.0
        standardizer = (mean, scale)
        for data in (fit_data, hold_data):
            if data is not None:
                data.x_nl -= mean
                data.x_nl /= scale
    # the rows are standardized already: score takes them as they are until
    # the standardizer is attached after the last step
    model.x_mean = model.x_scale = None

    # Adam, in place on the live parameter buffer; each line keeps the
    # operation order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    # params -= lr*mhat / (sqrt(vhat) + eps)
    params = model.params
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    scratch = np.empty((2, params.size))
    step_size, denom = scratch
    b1, b2 = settings.beta1, settings.beta2
    step = 0
    best_loss, best_params = np.inf, None
    stale = 0
    # the unit of a step: a whole run for multiclass, a row for binary
    multiclass = fit_data.multiclass
    K = fit_data.n_classes if multiclass else 1
    units = len(fit_data) if multiclass else fit_data.x_nl.shape[0]
    per_step = max(1, min(settings.minibatch_size // K, units))
    scheme = settings.weight_scheme
    for epoch in range(settings.epochs):
        perm = rng.permutation(units)
        for start in range(0, units, per_step):
            chosen = perm[start:start + per_step]
            batch = (arrays_from_batches(fit_data, np.sort(chosen)) if multiclass
                     else replace(fit_data, index=chosen))
            g = gradient(model, batch, scheme)
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
            denom += settings.adam_eps
            step_size /= denom
            # step_size is non-finite whenever g is and when lr*mhat
            # overflows; denom is when g*g overflows, which would leave
            # a zero step and freeze the parameter
            if not np.isfinite(scratch).all():
                raise TrainingDivergedError(epoch)
            params -= step_size
        check = loss(model, hold_data if hold_data is not None else fit_data, scheme)
        if not np.isfinite(check):
            raise TrainingDivergedError(epoch)
        if hold_data is not None:
            if check < best_loss - 1e-12:
                best_loss, best_params = check, model.get_params()
                stale = 0
            else:
                stale += 1
                if stale > settings.patience:
                    break
    if best_params is not None:
        model.set_params(best_params)
    model.set_standardizer(*standardizer)
    return model


# ---- serialization ----------------------------------------------------------

def model_to_json(model):
    payload = {
        "version": Model.SERIAL_VERSION,
        "config": {
            "architecture": model.config.architecture,
            "input_dim": model.config.input_dim,
            "hidden_sizes": list(model.config.hidden_sizes),
            "activation": model.config.activation,
            "n_linear_features": model.config.n_linear_features,
            "class_count": model.config.class_count,
        },
        "params": model.get_params().tolist(),
        "shapes": [list(a.shape) for a in model.param_arrays()],
        "x_mean": model.x_mean.tolist(),
        "x_scale": model.x_scale.tolist(),
    }
    return json.dumps(payload)


def model_from_json(text):
    payload = json.loads(text)
    if payload.get("version") != Model.SERIAL_VERSION:
        raise InvalidParameterError("unsupported model version %r" % payload.get("version"))
    cfg = ModelConfig(**{**payload["config"],
                         "hidden_sizes": tuple(payload["config"]["hidden_sizes"])})
    model = Model(cfg, seed=0)
    model.set_params(np.asarray(payload["params"]))
    model.set_standardizer(np.asarray(payload["x_mean"]), np.asarray(payload["x_scale"]))
    return model
