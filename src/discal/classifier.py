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
cross-entropy loss, and early stopping on held-out batches.  Everything is
deterministic given the seed (fixed shuffle order, fixed reduction order).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .label_mapping import MappingKind, _cyclic_insertion
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


class Model:
    """MLP weights + linear-feature weight vector + input standardizer.

    The weights, biases and w_linear are views into one flat buffer,
    `params`, in get_params() order, so an optimizer can update them all in
    place.
    """

    SERIAL_VERSION = 1

    def __init__(self, config, seed=0):
        self.config = config
        rng = np.random.default_rng(seed)
        dims = [config.input_dim] + list(config.hidden_sizes) + [1]
        layers = list(zip(dims[:-1], dims[1:]))
        nlin = config.n_linear_features
        shapes = layers + [(fan_out,) for _, fan_out in layers] + [(nlin,)]
        self.params = np.zeros(sum(math.prod(shape) for shape in shapes))
        views, offset = [], 0
        for shape in shapes:
            n = math.prod(shape)
            views.append(self.params[offset:offset + n].reshape(shape))
            offset += n
        self.weights = views[:len(layers)]
        self.biases = views[len(layers):-1]
        self.w_linear = views[-1]
        for W, (fan_in, fan_out) in zip(self.weights, layers):
            bound = 1.0 / np.sqrt(max(fan_in, 1))
            W[...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        bound = 1.0 / np.sqrt(max(nlin, 1))
        self.w_linear[...] = rng.uniform(-bound, bound, size=nlin)
        self.x_mean = np.zeros(config.input_dim)
        self.x_scale = np.ones(config.input_dim)

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

    def _activation(self, z):
        return np.tanh(z) if self.config.activation == "tanh" else np.maximum(z, 0.0)

    def _mlp_forward(self, X, keep_cache=False):
        """Scalar MLP output for each row of X (already standardized)."""
        cache = [X]
        h = X
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = self._activation(h @ W + b)
            cache.append(h)
        out = (h @ self.weights[-1] + self.biases[-1]).ravel()
        return (out, cache) if keep_cache else out

    def score(self, x_nl, x_lin, keep_cache=False):
        X = (x_nl - self.x_mean) / self.x_scale
        if keep_cache:
            out, cache = self._mlp_forward(X, keep_cache=True)
            return out + x_lin @ self.w_linear, cache
        return self._mlp_forward(X) + x_lin @ self.w_linear

    def split_feature(self, phi):
        """Split a binary feature row/matrix into (nonlinear, linear) blocks."""
        phi = np.asarray(phi, dtype=float)
        d = self.config.input_dim
        total = d + self.config.n_linear_features
        if phi.shape[-1] != total:
            raise InvalidParameterError("feature length %d, expected %d"
                                        % (phi.shape[-1], total))
        return phi[..., :d], phi[..., d:]


def forward_binary(model, phi):
    """Pr(t=1 | phi) for one feature vector or a matrix of them."""
    phi = np.asarray(phi, dtype=float)
    single = phi.ndim == 1
    x_nl, x_lin = model.split_feature(np.atleast_2d(phi))
    p1 = expit(model.score(x_nl, x_lin))
    return float(p1[0]) if single else p1


def _softmax(scores):
    z = scores - scores.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=-1, keepdims=True)


def forward_multiclass(model, slots_nl, slots_lin=None):
    """Probability simplex over slots; accepts (K,d) or batched (n,K,d)."""
    slots_nl = np.asarray(slots_nl, dtype=float)
    single = slots_nl.ndim == 2
    if single:
        slots_nl = slots_nl[None, ...]
    n, K, d = slots_nl.shape
    if d != model.config.input_dim:
        raise InvalidParameterError("slot dim %d, expected %d"
                                    % (d, model.config.input_dim))
    if slots_lin is None:
        slots_lin = np.zeros((n, K, model.config.n_linear_features))
    else:
        slots_lin = np.asarray(slots_lin, dtype=float)
        if single and slots_lin.ndim == 2:
            slots_lin = slots_lin[None, ...]
    scores = model.score(slots_nl.reshape(n * K, d),
                         slots_lin.reshape(n * K, -1)).reshape(n, K)
    probs = _softmax(scores)
    return probs[0] if single else probs


# ---- dataset assembly -------------------------------------------------------

@dataclass
class ExampleArrays:
    """Examples over the occupant rows of R mapped runs, K rows per run.

    `rows` is (R, K, F), F = d + p: each run's occupant rows
    [occupant | y | linear] with theta in row 0, run-major.  x_nl and x_lin
    are the (R*K, d) and (R*K, p) column views of its flattened rows.
    `index` holds each example's flat position run*K + k, or is None when
    the examples are all R*K positions in order.  A binary example is the
    row at its position.  A multiclass example at position run*K + k has
    label k: run `run` with theta in slot k, the draws in order around it
    (label_mapping._cyclic_insertion).  Full data, a hold-out set, a
    partial run and a training minibatch are all subsets over shared rows.
    """

    multiclass: bool
    rows: np.ndarray      # (R, K, F)
    d: int
    labels: np.ndarray    # (N,)
    batch_ids: np.ndarray | None
    n_classes: int
    index: np.ndarray | None = None
    x_nl: np.ndarray = field(init=False, repr=False)
    x_lin: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        flat = self.rows.reshape(-1, self.rows.shape[-1])
        self.x_nl, self.x_lin = flat[:, :self.d], flat[:, self.d:]

    def take(self, idx):
        """The examples at positions idx, over the same rows."""
        return ExampleArrays(self.multiclass, self.rows, self.d, self.labels[idx],
                             None if self.batch_ids is None else self.batch_ids[idx],
                             self.n_classes, idx if self.index is None else self.index[idx])

    def scored_rows(self):
        """(x_nl, x_lin, run): the rows one scoring pass needs.

        Binary: each example's own row, in example order, and run None.
        Multiclass: the K rows of each distinct run, and the position of
        each example's run among those runs.
        """
        K = self.rows.shape[1]
        if self.index is None:
            run = np.arange(self.labels.size) // K if self.multiclass else None
            return self.x_nl, self.x_lin, run
        if self.multiclass:
            runs, run = np.unique(self.index // K, return_inverse=True)
            block = self.rows[runs].reshape(runs.size * K, -1)
        else:
            block, run = self.rows.reshape(-1, self.rows.shape[-1])[self.index], None
        return block[:, :self.d], block[:, self.d:], run


def arrays_from_batches(batches):
    if not batches:
        raise InvalidParameterError("empty batch list")
    if isinstance(batches, ExampleArrays):
        return batches
    b0 = batches[0]
    rows = np.stack([b.features for b in batches])
    labels = np.concatenate([b.labels for b in batches]).astype(int)
    ids = np.repeat([b.batch_id for b in batches], b0.n_examples)
    return ExampleArrays(b0.kind is MappingKind.MULTICLASS, rows, b0.d_nonlinear,
                         labels, ids, b0.n_classes)


def config_for_batches(batches, hidden_sizes=(64, 64), activation="tanh"):
    """Build a ModelConfig matching the layout of mapped batches."""
    b = batches[0]
    arch = ARCH_MULTICLASS if b.kind is MappingKind.MULTICLASS else ARCH_BINARY
    return ModelConfig(architecture=arch, input_dim=b.d_nonlinear,
                       hidden_sizes=hidden_sizes, activation=activation,
                       n_linear_features=b.n_linear, class_count=b.n_classes)


# ---- loss and gradient ------------------------------------------------------

def _clamped_log(p):
    return np.log(np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP))


def class_log_probs(model, data):
    """(N, K) clamped log predicted probability of every class for every example.

    Multiclass data is scored once per run: every example's slot scores
    are its run's K occupant scores in its cyclic-insertion order.
    """
    x_nl, x_lin, run = data.scored_rows()
    if not data.multiclass:
        p1 = expit(model.score(x_nl, x_lin))
        return _clamped_log(np.column_stack([1.0 - p1, p1]))
    K = data.n_classes
    occupant_scores = model.score(x_nl, x_lin).reshape(-1, K)
    slot_occupant = _cyclic_insertion(K)[data.labels]
    return _clamped_log(_softmax(occupant_scores[run[:, None], slot_occupant]))


def loss(model, batch_set, weight_scheme=UNWEIGHTED):
    """Mean weighted negative log predicted probability of the true label."""
    data = arrays_from_batches(batch_set)
    w = example_weights(data.labels, weight_scheme)
    logp = class_log_probs(model, data)[np.arange(len(data.labels)), data.labels]
    return float(-np.mean(w * logp))


def gradient(model, batch_set, weight_scheme=UNWEIGHTED):
    """Exact gradient of loss() w.r.t. the flat parameter vector.

    Every multiclass example of a run has the loss -log_softmax(s_run)[0],
    s_run its run's K occupant scores, so each distinct run is scored once
    and its scores get (softmax(s_run) - e_0) * (sum of its examples'
    weights) / n.
    """
    data = arrays_from_batches(batch_set)
    w = example_weights(data.labels, weight_scheme)
    n = len(data.labels)
    x_nl, x_lin, run = data.scored_rows()
    scores, cache = model.score(x_nl, x_lin, keep_cache=True)
    if data.multiclass:
        dscore = _softmax(scores.reshape(-1, data.n_classes))
        dscore[:, 0] -= 1.0
        dscore *= (np.bincount(run, weights=w, minlength=dscore.shape[0]) / n)[:, None]
        dout = dscore.reshape(-1)
    else:
        dout = w * (expit(scores) - data.labels) / n
    return _backprop(model, cache, x_lin, dout)


def _backprop(model, cache, x_lin, dout):
    """Flat gradient from d(loss)/d(score) and the forward pass's cache."""
    gw = [None] * len(model.weights)
    gb = [None] * len(model.biases)
    gw[-1] = cache[-1].T @ dout[:, None]
    gb[-1] = np.array([dout.sum()])
    da = np.outer(dout, model.weights[-1].ravel())
    for i in range(len(model.weights) - 2, -1, -1):
        a = cache[i + 1]
        if model.config.activation == "tanh":
            dz = da * (1.0 - a * a)
        else:
            dz = da * (a > 0)
        gw[i] = cache[i].T @ dz
        gb[i] = dz.sum(axis=0)
        if i > 0:
            da = dz @ model.weights[i].T
    # a contiguous copy: x_lin.T @ dout on a column view of the row block
    # reduces in another order and changes the last bits
    g_lin = np.ascontiguousarray(x_lin).T @ dout
    return np.concatenate([g.ravel() for g in gw] + [g.ravel() for g in gb]
                          + [g_lin.ravel()])


# ---- training ---------------------------------------------------------------

def train(train_batches, config, settings):
    """Minibatch training with adaptive moments and early stopping.

    A fraction of the training *batches* (val_fraction, floor rule) is held
    out for early stopping; the returned model carries the parameters with
    the best held-out loss, or the final parameters when no hold-out exists.
    A non-finite parameter update (from a non-finite gradient or an
    overflowing step), a non-finite second moment or a non-finite epoch
    loss raises TrainingDivergedError; an update is checked before it
    reaches the parameters.
    """
    if not train_batches:
        raise InvalidParameterError("empty training set")
    rng = np.random.default_rng(settings.seed)

    n_hold = int(len(train_batches) * settings.val_fraction)
    order = rng.permutation(len(train_batches))
    hold = [train_batches[i] for i in order[:n_hold]]
    fit = [train_batches[i] for i in order[n_hold:]]
    if not fit:
        fit, hold = hold, []
    fit_data = arrays_from_batches(fit)
    hold_data = arrays_from_batches(hold) if hold else None

    model = Model(config, seed=rng.integers(2**31))
    if settings.standardize and config.input_dim > 0:
        mean = fit_data.x_nl.mean(axis=0)
        scale = fit_data.x_nl.std(axis=0)
        scale[scale == 0.0] = 1.0
        model.set_standardizer(mean, scale)

    # Adam, in place on the live parameter buffer; each line keeps the
    # operation order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    # params -= lr*mhat / (sqrt(vhat) + eps)
    params = model.params
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    step_size = np.empty_like(params)
    denom = np.empty_like(params)
    b1, b2 = settings.beta1, settings.beta2
    step = 0
    best_loss, best_params = np.inf, None
    stale = 0
    n = len(fit_data.labels)
    bs = max(1, min(settings.minibatch_size, n))
    scheme = settings.weight_scheme
    for epoch in range(settings.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, bs):
            minibatch = fit_data.take(perm[start:start + bs])
            g = gradient(model, minibatch, scheme)
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
            if not (np.all(np.isfinite(step_size)) and np.all(np.isfinite(denom))):
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
