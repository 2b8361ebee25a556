"""Tests for the classifier core: forward passes, gradients, training."""

import dataclasses
import functools

import numpy as np
import pytest
from scipy.special import expit

from discal import classifier as clf
from discal import label_mapping as lm
from discal import sim_model as sm

import one_shot_reference


def make_mapped(kind, d=2, S=8, M=3, bias=0.3, seed=0, features=("log_p", "log_q")):
    c = sm.Corruption(bias=bias)
    t = sm.generate_gaussian_table(d, S, M, 1.0, c, seed=seed, attach_densities=True)
    cfg = lm.FeatureConfig(linear_features=features)
    return lm.map_table(t, kind, cfg, seed=seed)


def all_runs(mapped):
    return np.arange(len(mapped))


def finite_diff_grad(model, mapped, scheme, eps=1e-6):
    p0 = model.get_params()
    g = np.empty_like(p0)
    for i in range(p0.size):
        for sign, slot in ((1.0, 0), (-1.0, 1)):
            p = p0.copy()
            p[i] += sign * eps
            model.set_params(p)
            if slot == 0:
                up = clf.loss(model, mapped, scheme)
            else:
                dn = clf.loss(model, mapped, scheme)
        g[i] = (up - dn) / (2 * eps)
    model.set_params(p0)
    return g


def test_weight_schemes():
    labels = np.array([0, 1, 1, 1])
    np.testing.assert_allclose(clf.example_weights(labels, clf.UNWEIGHTED), 1.0)
    w = clf.example_weights(labels, clf.balanced_binary(3))
    np.testing.assert_allclose(w, [2.0, 2.0 / 3, 2.0 / 3, 2.0 / 3])
    # total weight is balanced across classes: 1*w0 == M*w1
    assert abs(w[0] - w[1:].sum()) < 1e-12
    with pytest.raises(sm.InvalidParameterError):
        clf.WeightScheme("nonsense")
    with pytest.raises(sm.InvalidParameterError):
        clf.balanced_binary(0)


def test_model_config_validation():
    with pytest.raises(sm.InvalidParameterError):
        clf.ModelConfig(architecture="mystery", input_dim=2)
    with pytest.raises(sm.InvalidParameterError):
        clf.ModelConfig(architecture=clf.ARCH_BINARY, input_dim=0,
                        n_linear_features=0)
    with pytest.raises(sm.InvalidParameterError):
        clf.ModelConfig(architecture=clf.ARCH_BINARY, input_dim=2,
                        hidden_sizes=(0,))
    with pytest.raises(sm.InvalidParameterError):
        clf.ModelConfig(architecture=clf.ARCH_BINARY, input_dim=2,
                        activation="sigmoidish")


@pytest.mark.parametrize("kind, change", [
    (lm.MappingKind.MULTICLASS, dict(architecture=clf.ARCH_BINARY, class_count=2)),
    (lm.MappingKind.MULTICLASS, dict(class_count=3)),
    (lm.MappingKind.BINARY_FULL, dict(architecture=clf.ARCH_MULTICLASS, class_count=4)),
    (lm.MappingKind.BINARY_FULL, dict(input_dim=3)),
    (lm.MappingKind.BINARY_FULL, dict(n_linear_features=1)),
], ids=["binary-on-multiclass", "class-count", "multiclass-on-binary", "input-dim",
        "linear-features"])
def test_train_rejects_a_model_config_that_does_not_fit_the_map(kind, change):
    # M = 3: K = 4 classes, 2 + 2 nonlinear columns and 2 linear ones; a
    # config off the map's layout in any field is refused before any step
    mapped = make_mapped(kind)
    good = clf.config_for_table(mapped, hidden_sizes=(3,), activation="relu")
    settings = clf.TrainSettings(epochs=1, val_fraction=0.0)
    clf.train(mapped, all_runs(mapped), good, settings)
    with pytest.raises(sm.InvalidParameterError, match="does not fit the mapped table"):
        clf.train(mapped, all_runs(mapped), dataclasses.replace(good, **change), settings)


def test_forward_binary_sigmoid_of_score():
    # a binary example's Pr(t=1) is the sigmoid of its own row's score
    mapped = make_mapped(lm.MappingKind.BINARY_FULL, S=3)
    model = clf.Model(clf.config_for_table(mapped, hidden_sizes=(4,)), seed=1)
    d = mapped.d_nonlinear
    row = mapped.rows[1, 2]                 # example 1*K + 2
    p1 = expit(model.score(row[None, :d], row[None, d:]))[0]
    logp = clf.class_log_probs(model, mapped)
    assert logp.shape == (12, 2)
    np.testing.assert_allclose(logp[6], np.log([1.0 - p1, p1]), rtol=1e-12)


def test_expit_agrees_with_scipy():
    # numpy's exp and libm's may differ in the last bit, which the
    # reciprocal can widen to a few ulp; the edges are exact
    rng = np.random.default_rng(0)
    for scale in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 400.0):
        x = rng.normal(scale=scale, size=20000)
        np.testing.assert_array_max_ulp(clf.expit(x), expit(x), maxulp=4)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 709.0, -709.0, -745.0,
                      800.0, -800.0, 1e308, -1e308, 5e-324])
    np.testing.assert_array_equal(clf.expit(edges), expit(edges))
    assert clf.expit(np.array([-745.0]))[0] == 0.0
    x = rng.normal(size=50)
    want = clf.expit(x)
    assert clf.expit(x, out=x) is x
    np.testing.assert_array_equal(x, want)


def test_separable_multiclass_permutation_equivariance():
    cfg = clf.ModelConfig(architecture=clf.ARCH_MULTICLASS, input_dim=3,
                          hidden_sizes=(5,), n_linear_features=2, class_count=4)
    model = clf.Model(cfg, seed=2)
    rng = np.random.default_rng(3)
    nl = rng.standard_normal((4, 3))
    lin = rng.standard_normal((4, 2))
    perm = np.array([2, 0, 3, 1])

    def run_probs(order):
        run = lm.MappedTable(np.hstack([nl, lin])[None, order], np.array([0]),
                             lm.MappingKind.MULTICLASS, d_nonlinear=3)
        return np.exp(clf.run_log_probs(model, run)[0])

    probs = run_probs(np.arange(4))
    np.testing.assert_allclose(run_probs(perm), probs[perm], atol=1e-12)
    np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)


def test_gradient_matches_finite_differences_binary():
    mapped = make_mapped(lm.MappingKind.BINARY_FULL)
    cfg = clf.config_for_table(mapped, hidden_sizes=(4, 3))
    model = clf.Model(cfg, seed=5)
    scheme = clf.balanced_binary(3)
    g = clf.gradient(model, mapped, scheme)
    fd = finite_diff_grad(model, mapped, scheme)
    rel = np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12)
    assert rel < 1e-5


def test_gradient_matches_finite_differences_multiclass():
    mapped = make_mapped(lm.MappingKind.MULTICLASS, d=1, S=5, M=2)
    cfg = clf.config_for_table(mapped, hidden_sizes=(4,), activation="relu")
    model = clf.Model(cfg, seed=6)
    g = clf.gradient(model, mapped, clf.UNWEIGHTED)
    fd = finite_diff_grad(model, mapped, clf.UNWEIGHTED)
    rel = np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12)
    assert rel < 1e-5


def test_full_batch_descent_decreases_loss():
    # plain gradient steps (no adaptivity) must decrease a smooth loss
    mapped = make_mapped(lm.MappingKind.BINARY_FULL, S=12)
    cfg = clf.config_for_table(mapped, hidden_sizes=(6,))
    model = clf.Model(cfg, seed=7)
    losses = [clf.loss(model, mapped)]
    params = model.get_params()
    for _ in range(10):
        params = params - 0.05 * clf.gradient(model, mapped)
        model.set_params(params)
        losses.append(clf.loss(model, mapped))
    assert losses[-1] < losses[0]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_train_improves_over_init_and_is_deterministic():
    mapped = make_mapped(lm.MappingKind.BINARY_FULL, S=40, bias=1.0)
    cfg = clf.config_for_table(mapped, hidden_sizes=(8,))
    settings = clf.TrainSettings(learning_rate=0.01, epochs=10, seed=3,
                                 weight_scheme=clf.balanced_binary(3))
    model = clf.train(mapped, all_runs(mapped), cfg, settings)
    init = clf.Model(cfg, seed=3)
    assert clf.loss(model, mapped, settings.weight_scheme) < clf.loss(
        init, mapped, settings.weight_scheme)
    model2 = clf.train(mapped, all_runs(mapped), cfg, settings)
    np.testing.assert_array_equal(model.get_params(), model2.get_params())


def test_train_standardizer_from_training_data_only():
    mapped = make_mapped(lm.MappingKind.BINARY_FULL, S=20)
    cfg = clf.config_for_table(mapped, hidden_sizes=(4,))
    settings = clf.TrainSettings(epochs=1, seed=0, val_fraction=0.25)
    model = clf.train(mapped, all_runs(mapped), cfg, settings)
    # the standardizer comes from the fit portion, not the full data
    assert not np.allclose(model.x_mean, mapped.x_nl.mean(axis=0), atol=1e-12)
    assert np.all(model.x_scale > 0)


def test_train_rejects_empty():
    cfg = clf.ModelConfig(architecture=clf.ARCH_BINARY, input_dim=1)
    with pytest.raises(sm.InvalidParameterError):
        clf.train(make_mapped(lm.MappingKind.BINARY_FULL), [], cfg, clf.TrainSettings())


def test_settings_validation():
    with pytest.raises(sm.InvalidParameterError):
        clf.TrainSettings(learning_rate=0.0)
    with pytest.raises(sm.InvalidParameterError):
        clf.TrainSettings(epochs=0)


@pytest.mark.parametrize("field,value", [
    ("minibatch_size", 0), ("minibatch_size", -5), ("patience", -1),
    ("val_fraction", -0.5), ("val_fraction", 1.0), ("seed", -1),
])
def test_settings_reject_out_of_range_values(field, value):
    with pytest.raises(sm.InvalidParameterError, match=field):
        clf.TrainSettings(**{field: value})


def test_settings_accept_the_range_edges():
    clf.TrainSettings(minibatch_size=1, patience=0, val_fraction=0.0)


def per_example_log_probs(model, data):
    """(N, K) log probability of every class of every example, from the
    binary matrix or the multiclass per-run table: class c of multiclass
    example k is slot c, which holds occupant _cyclic_insertion(K)[k, c]."""
    if not data.multiclass:
        return clf.class_log_probs(model, data)
    K = data.n_classes
    run = np.arange(data.labels.size) // K
    return clf.run_log_probs(model, data)[run[:, None], lm._cyclic_insertion(K)[data.labels]]


def test_per_example_forward_matches_class_log_probs():
    # each example scored on its own through the forward pass that defines
    # its head: a binary row, or a multiclass example's K slot rows
    for kind in (lm.MappingKind.BINARY_FULL, lm.MappingKind.MULTICLASS):
        mapped = make_mapped(kind, d=2, S=4, M=3)
        cfg = clf.config_for_table(mapped, hidden_sizes=(4,))
        model = clf.Model(cfg, seed=9)
        data = mapped
        expected = per_example_log_probs(model, data)
        got = []
        d = mapped.d_nonlinear
        for b in mapped:
            for k in range(b.n_examples):
                if kind is lm.MappingKind.MULTICLASS:
                    slots = reference_slots(b.features)[k]
                    probs = reference_softmax(model.score(slots[:, :d], slots[:, d:]))
                else:
                    row = b.features[k]
                    p1 = expit(model.score(row[None, :d], row[None, d:]))[0]
                    probs = np.array([1.0 - p1, p1])
                got.append(np.log(np.clip(probs, clf.PROB_CLAMP, 1.0 - clf.PROB_CLAMP)))
        np.testing.assert_allclose(got, expected, atol=1e-10)
    with pytest.raises(sm.InvalidParameterError, match="run_log_probs"):
        clf.class_log_probs(model, data)


def test_set_params_length_check():
    cfg = clf.ModelConfig(architecture=clf.ARCH_BINARY, input_dim=2)
    model = clf.Model(cfg)
    with pytest.raises(sm.InvalidParameterError):
        model.set_params(np.zeros(model.get_params().size + 1))


def test_probability_clamping_keeps_loss_finite():
    cfg = clf.ModelConfig(architecture=clf.ARCH_BINARY, input_dim=0,
                          hidden_sizes=(), n_linear_features=1)
    model = clf.Model(cfg, seed=0)
    model.set_params(np.array([0.0, 1e4]))  # saturates the sigmoid
    mapped = make_mapped(lm.MappingKind.BINARY_FULL, d=1, S=3,
                           features=("log_p",))
    # strip the nonlinear block by building the table directly
    data = lm.MappedTable(mapped.rows[..., mapped.d_nonlinear:], mapped.run_ids,
                          mapped.kind, d_nonlinear=0)
    assert np.isfinite(clf.loss(model, data))


# ---- frozen reference: the training loop before the in-place rewrite --------
# Parameters as separate arrays, two forward passes per gradient,
# out-of-place Adam, and every multiclass example scored slot by slot from
# its own copy of the K slot rows.  Its forward and backward products take
# the model's feature-major order, (h, n) activations, so binary training
# matches it bit for bit.

class ReferenceModel:
    def __init__(self, config, seed):
        self.config = config
        rng = np.random.default_rng(seed)
        dims = [config.input_dim] + list(config.hidden_sizes) + [1]
        self.weights, self.biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = 1.0 / np.sqrt(max(fan_in, 1))
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        nlin = config.n_linear_features
        bound = 1.0 / np.sqrt(max(nlin, 1))
        self.w_linear = rng.uniform(-bound, bound, size=nlin)
        self.x_mean = np.zeros(config.input_dim)
        self.x_scale = np.ones(config.input_dim)

    def param_arrays(self):
        return self.weights + self.biases + [self.w_linear]

    def get_params(self):
        return np.concatenate([a.ravel() for a in self.param_arrays()])

    def set_params(self, flat):
        offset = 0
        for arr in self.param_arrays():
            arr[...] = flat[offset:offset + arr.size].reshape(arr.shape)
            offset += arr.size

    def mlp_forward(self, X):
        h = X.T
        cache = [h]
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            z = W.T @ h + b[:, None]
            h = np.tanh(z) if self.config.activation == "tanh" else np.maximum(z, 0.0)
            cache.append(h)
        return (self.weights[-1].T @ h + self.biases[-1]).ravel(), cache

    def score(self, x_nl, x_lin):
        return self.mlp_forward((x_nl - self.x_mean) / self.x_scale)[0] + x_lin @ self.w_linear


def reference_slots(features):
    """(K, K, F) slot rows of the K multiclass examples of a run's (K, F) rows.

    Example k puts theta (occupant row 0) in slot k and the draws in order
    around it.
    """
    K = features.shape[0]
    return np.stack([features[np.concatenate([np.arange(1, k + 1), [0], np.arange(k + 1, K)])]
                     for k in range(K)])


def reference_arrays(mapped, runs=None):
    """(multiclass, x_nl, x_lin, labels) of the examples of the given runs
    (all by default), each run's blocks copied out on its own."""
    items = list(mapped)
    items = items if runs is None else [items[i] for i in runs]
    d, mc = mapped.d_nonlinear, mapped.multiclass
    if mc:
        slots = [reference_slots(b.features) for b in items]
        nl, lin = [x[..., :d] for x in slots], [x[..., d:] for x in slots]
    else:
        nl = [b.features[:, :d] for b in items]
        lin = [b.features[:, d:] for b in items]
    return (mc, np.concatenate(nl), np.concatenate(lin),
            np.concatenate([b.labels for b in items]).astype(int))


def reference_softmax(scores):
    z = scores - scores.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=-1, keepdims=True)


# the binary branches below take clf.expit, so the bit-for-bit comparisons
# check the training loop and layout; test_expit_agrees_with_scipy checks
# the sigmoid itself
def reference_class_log_probs(model, mc, x_nl, x_lin):
    if mc:
        N, K, d = x_nl.shape
        probs = reference_softmax(model.score(x_nl.reshape(N * K, d),
                                              x_lin.reshape(N * K, -1)).reshape(N, K))
    else:
        p1 = clf.expit(model.score(x_nl, x_lin))
        probs = np.column_stack([1.0 - p1, p1])
    return np.log(np.clip(probs, clf.PROB_CLAMP, 1.0 - clf.PROB_CLAMP))


def reference_loss(model, arrays, scheme):
    mc, x_nl, x_lin, labels = arrays
    w = clf.example_weights(labels, scheme)
    logp = reference_class_log_probs(model, mc, x_nl, x_lin)
    return float(-np.mean(w * logp[np.arange(len(labels)), labels]))


def reference_gradient(model, arrays, scheme):
    mc, x_nl, x_lin, labels = arrays
    w = clf.example_weights(labels, scheme)
    n = len(labels)
    if mc:
        N, K, d = x_nl.shape
        x_nl = x_nl.reshape(N * K, d)
        x_lin = x_lin.reshape(N * K, -1)
        dscore = reference_softmax(model.score(x_nl, x_lin).reshape(N, K)).copy()
        dscore[np.arange(N), labels] -= 1.0
        dscore *= (w / n)[:, None]
        dout = dscore.reshape(N * K)
    else:
        dout = w * (clf.expit(model.score(x_nl, x_lin)) - labels) / n
    _, cache = model.mlp_forward((x_nl - model.x_mean) / model.x_scale)
    gw = [None] * len(model.weights)
    gb = [None] * len(model.biases)
    gw[-1] = (cache[-1] @ dout)[:, None]
    gb[-1] = np.array([dout.sum()])
    da = model.weights[-1] * dout[None, :]
    for i in range(len(model.weights) - 2, -1, -1):
        a = cache[i + 1]
        dz = da * (1.0 - a * a) if model.config.activation == "tanh" else da * (a > 0)
        gw[i] = cache[i] @ dz.T
        gb[i] = dz.sum(axis=1)
        if i > 0:
            da = model.weights[i] @ dz
    return np.concatenate([g.ravel() for g in gw] + [g.ravel() for g in gb]
                          + [(x_lin.T @ dout).ravel()])


def reference_train(mapped, config, settings):
    rng = np.random.default_rng(settings.seed)
    n_hold = int(len(mapped) * settings.val_fraction)
    order = rng.permutation(len(mapped))
    fit_data = reference_arrays(mapped, order[n_hold:])
    hold_data = reference_arrays(mapped, order[:n_hold]) if n_hold else None
    model = ReferenceModel(config, seed=rng.integers(2**31))
    if config.input_dim > 0:
        flat = fit_data[1].reshape(-1, config.input_dim)
        scale = flat.std(axis=0)
        scale[scale == 0.0] = 1.0
        model.x_mean, model.x_scale = flat.mean(axis=0), scale
    params = model.get_params()
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    step, stale = 0, 0
    best = (np.inf, params.copy())
    mc, x_nl, x_lin, labels = fit_data
    n = len(labels)
    # a multiclass step takes whole runs: the K examples of run r sit at
    # r*K .. r*K + K-1
    K = config.class_count if mc else 1
    runs = n // K
    per_step = max(1, min(settings.minibatch_size // K, runs))
    for epoch in range(settings.epochs):
        perm = rng.permutation(runs)
        for start in range(0, runs, per_step):
            idx = np.concatenate([np.arange(r * K, (r + 1) * K)
                                  for r in perm[start:start + per_step]])
            g = reference_gradient(model, (mc, x_nl[idx], x_lin[idx], labels[idx]),
                                   settings.weight_scheme)
            step += 1
            m = clf.ADAM_BETA1 * m + (1 - clf.ADAM_BETA1) * g
            v = clf.ADAM_BETA2 * v + (1 - clf.ADAM_BETA2) * g * g
            mhat = m / (1 - clf.ADAM_BETA1 ** step)
            vhat = v / (1 - clf.ADAM_BETA2 ** step)
            params = params - settings.learning_rate * mhat / (np.sqrt(vhat) + clf.ADAM_EPS)
            model.set_params(params)
        check = reference_loss(model, hold_data or fit_data, settings.weight_scheme)
        assert np.isfinite(check)
        if hold_data is not None:
            if check < best[0] - 1e-12:
                best = (check, params.copy())
                stale = 0
            else:
                stale += 1
                if stale > settings.patience:
                    break
    if hold_data is not None:
        model.set_params(best[1])
    return model


TRAIN_CASES = {
    "binary-weighted-tanh-holdout": (lm.MappingKind.BINARY_FULL, ("log_p", "log_q"),
                                     "tanh", True, 0.25),
    "binary-unweighted-relu-holdout": (lm.MappingKind.BINARY_FULL, ("log_p", "log_q"),
                                       "relu", False, 0.25),
    "binary-weighted-relu-no-holdout": (lm.MappingKind.BINARY_FULL, ("log_p",),
                                        "relu", True, 0.0),
    "binary-no-linear-tanh-holdout": (lm.MappingKind.BINARY_FULL, (), "tanh", False, 0.25),
    "binary-no-linear-relu-no-holdout": (lm.MappingKind.BINARY_FULL, (), "relu", True, 0.0),
    "multiclass-tanh-holdout": (lm.MappingKind.MULTICLASS, ("log_p", "log_q"),
                                "tanh", False, 0.4),
    "multiclass-relu-no-holdout": (lm.MappingKind.MULTICLASS, ("log_q",), "relu", False, 0.0),
    "multiclass-no-linear-tanh-holdout": (lm.MappingKind.MULTICLASS, (), "tanh", False, 0.3),
}


@pytest.mark.parametrize("case", sorted(TRAIN_CASES))
@pytest.mark.parametrize("seed", [0, 1])
def test_train_matches_frozen_reference(case, seed):
    kind, features, activation, weighted, val_fraction = TRAIN_CASES[case]
    M = 4
    mapped = make_mapped(kind, d=2, S=24, M=M, bias=0.8, seed=seed, features=features)
    cfg = clf.config_for_table(mapped, hidden_sizes=(6, 3), activation=activation)
    settings = clf.TrainSettings(learning_rate=0.05, epochs=12, minibatch_size=13,
                                 patience=2, seed=seed, val_fraction=val_fraction,
                                 weight_scheme=clf.balanced_binary(M) if weighted
                                 else clf.UNWEIGHTED)
    model = clf.train(mapped, all_runs(mapped), cfg, settings)
    ref = reference_train(mapped, cfg, settings)
    if kind is lm.MappingKind.MULTICLASS:
        # scored once per run and standardized over the occupant rows: the
        # sums run in another order, so the result agrees to rounding only
        for got, want in ((model.get_params(), ref.get_params()),
                          (model.x_mean, ref.x_mean), (model.x_scale, ref.x_scale)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-7)
        return
    np.testing.assert_array_equal(model.get_params(), ref.get_params())
    np.testing.assert_array_equal(model.x_mean, ref.x_mean)
    np.testing.assert_array_equal(model.x_scale, ref.x_scale)


def _recorded_minibatches(monkeypatch):
    """Record every minibatch train hands to gradient."""
    seen, real_gradient = [], clf.gradient

    def recording_gradient(model, data, scheme=clf.UNWEIGHTED):
        seen.append(data)
        return real_gradient(model, data, scheme)

    monkeypatch.setattr(clf, "gradient", recording_gradient)
    return seen


@pytest.mark.parametrize("minibatch_size", [3, 13, 40, 1000])
def test_multiclass_minibatches_are_whole_runs(monkeypatch, minibatch_size):
    # K = 5: 3 < K gives one run per step, 13 two runs, 40 eight, 1000 all
    M, S, epochs = 4, 17, 3
    mapped = make_mapped(lm.MappingKind.MULTICLASS, d=1, S=S, M=M, seed=2)
    cfg = clf.config_for_table(mapped, hidden_sizes=(3,))
    settings = clf.TrainSettings(epochs=epochs, minibatch_size=minibatch_size, seed=4,
                                 val_fraction=0.0)
    seen = _recorded_minibatches(monkeypatch)
    model = clf.train(mapped, all_runs(mapped), cfg, settings)
    K, d = M + 1, mapped.d_nonlinear
    per_step = max(1, min(minibatch_size // K, S))
    steps = -(-S // per_step)
    assert len(seen) == epochs * steps
    # train's draws: the run order, the model seed, then one run order per epoch
    rng = np.random.default_rng(settings.seed)
    fit_runs = rng.permutation(S)      # the fit rows, in this order
    rng.integers(2**31)
    for epoch in range(epochs):
        perm = rng.permutation(S)
        covered = []
        for step, data in enumerate(seen[epoch * steps:(epoch + 1) * steps]):
            runs = fit_runs[np.sort(perm[step * per_step:(step + 1) * per_step])]
            # whole runs in fit-row order: the K rows of each, standardized,
            # and the labels of its K examples
            assert isinstance(data, clf.ExampleArrays) and data.multiclass
            rows = mapped.rows[runs].reshape(runs.size * K, -1)
            np.testing.assert_array_equal(data.x_nl, (rows[:, :d] - model.x_mean) / model.x_scale)
            np.testing.assert_array_equal(data.x_lin, rows[:, d:])
            np.testing.assert_array_equal(data.labels, np.tile(np.arange(K), runs.size))
            covered.extend(mapped.run_ids[runs])
        assert sorted(covered) == list(range(S))     # every fit run once per epoch


def test_binary_minibatches_slice_one_example_permutation(monkeypatch):
    mapped = make_mapped(lm.MappingKind.BINARY_FULL, d=1, S=9, M=3, seed=2)
    cfg = clf.config_for_table(mapped, hidden_sizes=(3,))
    settings = clf.TrainSettings(epochs=2, minibatch_size=5, seed=6, val_fraction=0.0)
    seen = _recorded_minibatches(monkeypatch)
    model = clf.train(mapped, all_runs(mapped), cfg, settings)
    K, n, bs = 4, 9 * 4, 5
    rng = np.random.default_rng(settings.seed)
    fit_runs = rng.permutation(9)      # the fit runs, in this order
    rng.integers(2**31)
    want = []
    for _ in range(settings.epochs):
        perm = rng.permutation(n)
        want.extend(perm[start:start + bs] for start in range(0, n, bs))
    assert len(seen) == len(want)
    flat, d = mapped.rows.reshape(n, -1), mapped.d_nonlinear
    for data, idx in zip(seen, want):
        # fit example i is row i % K of fit run i // K: the step scores its
        # own standardized rows of those map positions
        positions = fit_runs[idx // K] * K + idx % K
        assert isinstance(data, clf.ExampleArrays) and not data.multiclass
        np.testing.assert_array_equal(data.labels, np.minimum(idx % K, 1))
        np.testing.assert_array_equal(data.x_nl,
                                      (flat[positions, :d] - model.x_mean) / model.x_scale)
        np.testing.assert_array_equal(data.x_lin, flat[positions, d:])


@pytest.mark.parametrize("kind, d", [(lm.MappingKind.BINARY_FULL, 2),
                                     (lm.MappingKind.BINARY_NO_Y, 1),
                                     (lm.MappingKind.BINARY_RANK, 1),
                                     (lm.MappingKind.MULTICLASS, 2)],
                         ids=["binary", "binary-noy", "rank", "multiclass"])
def test_train_standardizer_is_numpys_mean_and_std_of_the_fit_runs(kind, d):
    # 16 fit runs of K = 16 rows: more than numpy's 128-element pairwise
    # block, so a one-column sum takes the recursive path
    mapped = make_mapped(kind, d=d, S=20, M=15, bias=0.5, seed=4)
    before = mapped.rows.copy()
    cfg = clf.config_for_table(mapped, hidden_sizes=(5,))
    model = clf.train(mapped, all_runs(mapped), cfg,
                      clf.TrainSettings(epochs=2, seed=1, val_fraction=0.2))
    # the caller's rows are untouched
    np.testing.assert_array_equal(mapped.rows, before)
    # the standardizer is numpy's over the fit runs' nonlinear columns: the
    # runs after the 4 held out, in the order train's seeded shuffle puts them
    order = np.random.default_rng(1).permutation(len(mapped))[4:]
    x_nl = clf.arrays_from_batches(mapped, order).x_nl
    assert x_nl.shape == (16 * 16, mapped.d_nonlinear)
    np.testing.assert_array_equal(model.x_mean, np.mean(x_nl, axis=0))
    np.testing.assert_array_equal(model.x_scale, np.std(x_nl, axis=0))


def test_train_heap_peak_is_below_the_map_size():
    # train keeps no copy of its fit or hold-out runs: the standardizer's
    # sums, each epoch's loss and each step read the map one block at a
    # time, and what grows with S is two int64 indexes of the fit rows (0.2
    # of the map here).  Gathering the standardizer's rows whole and
    # copying the hold-out read 0.65 of the map at S = 1000.
    import tracemalloc
    mapped = make_mapped(lm.MappingKind.BINARY_FULL, d=4, S=1000, M=100, seed=1)
    cfg = clf.config_for_table(mapped, hidden_sizes=(8,))
    settings = clf.TrainSettings(learning_rate=0.01, epochs=2, minibatch_size=1024, seed=3)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        clf.train(mapped, all_runs(mapped), cfg, settings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry < 0.45 * mapped.rows.nbytes


MAPPINGS = [(lm.MappingKind.BINARY_FULL, 2), (lm.MappingKind.BINARY_NO_Y, 1),
            (lm.MappingKind.BINARY_NO_Y, 3), (lm.MappingKind.BINARY_RANK, 1),
            (lm.MappingKind.MULTICLASS, 1), (lm.MappingKind.MULTICLASS, 2)]
MAPPING_IDS = ["binary", "binary-noy-d1", "binary-noy-d3", "rank", "multiclass-d1",
               "multiclass-d2"]


@pytest.mark.parametrize("kind, d", MAPPINGS, ids=MAPPING_IDS)
def test_standardizer_in_run_blocks_gives_the_one_gather_bits(monkeypatch, kind, d):
    # 250 of 300 runs, out of table order, in blocks of 64 runs; one
    # nonlinear column (binary-noy at d = 1, rank) is summed pairwise from
    # one gather of 1000 > 128 rows
    mapped = make_mapped(kind, d=d, S=300, M=3, bias=0.5, seed=4)
    runs = np.random.default_rng(1).permutation(300)[:250]
    K, d_nl = 4, mapped.d_nonlinear
    want = one_shot_reference.standardizer(mapped, runs)
    monkeypatch.setattr(sm, "_CHUNK_ELEMENTS", 64 * K * d_nl)
    assert len(sm.blocks(250, K * d_nl)) == 4
    mean, scale = clf._standardizer(mapped, runs)
    np.testing.assert_array_equal(mean, want[0])
    np.testing.assert_array_equal(scale, want[1])


@pytest.mark.parametrize("kind, d", MAPPINGS, ids=MAPPING_IDS)
def test_train_in_small_blocks_gives_the_same_model(monkeypatch, kind, d):
    # the standardizer, the steps and each epoch's hold-out loss over many
    # small blocks give the parameters and standardizer of the default blocks
    mapped = make_mapped(kind, d=d, S=300, M=3, bias=0.5, seed=4)
    cfg = clf.config_for_table(mapped, hidden_sizes=(16,))
    settings = clf.TrainSettings(learning_rate=0.05, epochs=4, minibatch_size=64, seed=2,
                                 patience=1, val_fraction=0.5)
    want = clf.train(mapped, all_runs(mapped), cfg, settings)
    monkeypatch.setattr(sm, "_CHUNK_ELEMENTS", 64)
    got = clf.train(mapped, all_runs(mapped), cfg, settings)
    np.testing.assert_array_equal(got.get_params(), want.get_params())
    np.testing.assert_array_equal(got.x_mean, want.x_mean)
    np.testing.assert_array_equal(got.x_scale, want.x_scale)


@pytest.mark.parametrize("held_out", [True, False], ids=["hold-out", "validation"])
@pytest.mark.parametrize("kind, d", MAPPINGS, ids=MAPPING_IDS)
def test_mapped_runs_score_in_blocks_with_the_one_gather_bits(monkeypatch, kind, d, held_out):
    # 193 runs gathered from the map in blocks of 64 (the one-run tail
    # joined to the third), each block standardized whole in place by the
    # model and its strided nonlinear columns scored; the runs are out of
    # table order as train holds them out, or sorted as diagnose_mapped
    # validates them.  The reference standardizes the columns of one copy
    mapped = make_mapped(kind, d=d, S=200, M=2, bias=0.5, seed=6)
    runs = np.random.default_rng(0).permutation(200)[:193]
    if not held_out:
        runs = np.sort(runs)
    model = clf.Model(clf.config_for_table(mapped, hidden_sizes=(16,)), seed=2)
    model.set_params(model.get_params()
                     + np.random.default_rng(3).normal(scale=0.5, size=model.params.size))
    model.set_standardizer(*one_shot_reference.standardizer(mapped, runs))
    scheme = clf.UNWEIGHTED if mapped.multiclass else clf.balanced_binary(2)
    want = one_shot_reference.scored_runs(model, mapped, runs, scheme)
    width = 3 * clf.scoring_width(model, mapped.rows.shape[-1])
    monkeypatch.setattr(sm, "_CHUNK_ELEMENTS", 64 * width)
    assert [b.stop - b.start for b in sm.blocks(193, width)] == [64, 64, 65]
    np.testing.assert_array_equal(clf.label_table(model, mapped, scheme, runs), want)
    assert clf.loss(model, mapped, scheme, runs) == -clf.table_lpd(want)


def test_train_without_a_hold_out_scores_its_loss_in_run_blocks():
    # each epoch's loss gathers, standardizes and scores 64 fit runs at a
    # time, so the heap stays near the map's size; the loss only guards
    # against divergence there, and the parameters are the reference's
    import tracemalloc
    mapped = make_mapped(lm.MappingKind.BINARY_FULL, d=4, S=200, M=100, seed=1)
    cfg = clf.config_for_table(mapped, hidden_sizes=(8,))
    settings = clf.TrainSettings(learning_rate=0.01, epochs=2, minibatch_size=1024, seed=3,
                                 val_fraction=0.0)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        model = clf.train(mapped, all_runs(mapped), cfg, settings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry <= 1.2 * mapped.rows.nbytes
    ref = reference_train(mapped, cfg, settings)
    np.testing.assert_array_equal(model.get_params(), ref.get_params())
    np.testing.assert_array_equal(model.x_mean, ref.x_mean)
    np.testing.assert_array_equal(model.x_scale, ref.x_scale)


def _recording_score(model):
    """Record the row count of every scoring pass of `model`."""
    rows, real = [], model.score

    def score(x_nl, x_lin, keep_cache=False):
        rows.append(x_nl.shape[0])
        return real(x_nl, x_lin, keep_cache)

    model.score = score
    return rows


def test_multiclass_scoring_per_run_matches_per_example_reference(monkeypatch):
    from discal import diagnostics as dg
    mapped = make_mapped(lm.MappingKind.MULTICLASS, d=2, S=12, M=5, bias=0.5, seed=3)
    cfg = clf.config_for_table(mapped, hidden_sizes=(5,))
    model = clf.train(mapped, all_runs(mapped), cfg,
                      clf.TrainSettings(epochs=3, seed=2, learning_rate=0.05))
    ref_arrays = reference_arrays(mapped)
    ref = ReferenceModel(cfg, seed=0)
    ref.set_params(model.get_params())
    ref.x_mean, ref.x_scale = model.x_mean, model.x_scale
    expected = reference_class_log_probs(ref, True, ref_arrays[1], ref_arrays[2])
    # the scoring functions take standardized rows: a gather of all runs
    # and one of two, each standardized by the model
    every_run = clf.arrays_from_batches(mapped, all_runs(mapped))
    two_runs = clf.arrays_from_batches(mapped, [1, 0])
    for data in (every_run, two_runs):
        model.standardize(data.rows)
    scored = _recording_score(model)
    logp = clf.run_log_probs(model, every_run)
    assert logp.shape == (12, 6)
    # example 0 of a run holds its occupants in order, theta in slot 0
    np.testing.assert_allclose(logp, expected[::6], rtol=0, atol=1e-12)
    np.testing.assert_allclose(per_example_log_probs(model, every_run), expected,
                               rtol=0, atol=1e-12)
    assert scored == [12 * 6] * 2      # one pass over each run's K rows
    # gathered runs are scored in the order given
    np.testing.assert_allclose(clf.run_log_probs(model, two_runs), expected[[6, 0]],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(per_example_log_probs(model, two_runs),
                               np.concatenate([expected[6:12], expected[:6]]),
                               rtol=0, atol=1e-12)
    assert scored == [12 * 6] * 2 + [2 * 6] * 2
    del model.score

    lpd, scores = dg.lpd_val(clf.label_table(model, mapped))
    test = dg.permutation_test(clf.label_table(model, mapped), B=50, seed=4)
    monkeypatch.setattr(clf, "run_log_probs", lambda model, d: expected[::6])
    ref_lpd, ref_scores = dg.lpd_val(clf.label_table(model, mapped))
    ref_test = dg.permutation_test(clf.label_table(model, mapped), B=50, seed=4)
    assert abs(lpd - ref_lpd) < 1e-12
    np.testing.assert_allclose(scores, ref_scores, rtol=0, atol=1e-12)
    assert abs(test.lpd_observed - ref_test.lpd_observed) < 1e-12
    np.testing.assert_allclose(test.lpd_permuted, ref_test.lpd_permuted, rtol=0, atol=1e-12)
    assert test.p_value == ref_test.p_value


def _example_positions(runs, K):
    return (np.asarray(runs)[:, None] * K + np.arange(K)).ravel()


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_multiclass_gradient_matches_per_slot_reference(activation):
    # one pass per run gives the per-slot gradient of every set of runs
    M = 4
    mapped = make_mapped(lm.MappingKind.MULTICLASS, d=2, S=10, M=M, bias=0.5, seed=4)
    cfg = clf.config_for_table(mapped, hidden_sizes=(6, 3), activation=activation)
    model = clf.Model(cfg, seed=3)
    rng = np.random.default_rng(8)
    model.set_params(model.get_params() + rng.normal(scale=0.3, size=model.params.size))
    model.set_standardizer(rng.normal(size=cfg.input_dim), rng.uniform(0.5, 2.0, cfg.input_dim))
    ref = ReferenceModel(cfg, seed=0)
    ref.set_params(model.get_params())
    ref.x_mean, ref.x_scale = model.x_mean, model.x_scale
    mc, x_nl, x_lin, labels = reference_arrays(mapped)
    subsets = {
        "whole table": np.arange(10),
        "one run": np.array([6]),
        "repeated runs": np.array([1, 0, 4, 1]),
        "shuffled minibatch": rng.permutation(10)[:3],
    }
    for name, runs in subsets.items():
        idx = _example_positions(runs, M + 1)
        data = clf.arrays_from_batches(mapped, runs)
        model.standardize(data.rows)
        for scheme in (clf.UNWEIGHTED, clf.balanced_binary(M)):
            g = clf.gradient(model, data, scheme)
            want = reference_gradient(ref, (mc, x_nl[idx], x_lin[idx], labels[idx]), scheme)
            err = np.max(np.abs(g - want))
            assert err <= 1e-13 * np.max(np.abs(want)), (name, scheme, err)
    full = clf.gradient(model, mapped, clf.UNWEIGHTED)
    np.testing.assert_array_equal(
        full, clf.gradient(model, clf.arrays_from_batches(mapped, np.arange(10)),
                           clf.UNWEIGHTED))


def test_multiclass_loss_per_run_matches_per_example_reference():
    M = 4
    mapped = make_mapped(lm.MappingKind.MULTICLASS, d=2, S=10, M=M, bias=0.5, seed=6)
    cfg = clf.config_for_table(mapped, hidden_sizes=(6, 3))
    model = clf.Model(cfg, seed=2)
    rng = np.random.default_rng(3)
    model.set_params(model.get_params() + rng.normal(scale=0.5, size=model.params.size))
    ref = ReferenceModel(cfg, seed=0)
    ref.set_params(model.get_params())
    mc, x_nl, x_lin, labels = reference_arrays(mapped)
    subsets = {
        "whole table": np.arange(10),
        "one run": np.array([0]),
        "repeated runs": np.array([1, 0, 4, 1]),
    }
    for name, runs in subsets.items():
        idx = _example_positions(runs, M + 1)
        data = clf.arrays_from_batches(mapped, runs)
        scored = _recording_score(model)
        got = clf.loss(model, data)
        want = reference_loss(ref, (mc, x_nl[idx], x_lin[idx], labels[idx]), clf.UNWEIGHTED)
        assert abs(got - want) <= 1e-12, (name, got, want)
        assert scored == [runs.size * (M + 1)], name     # each run once
        del model.score


def test_get_params_returns_a_copy_of_the_live_buffer():
    cfg = clf.ModelConfig(architecture=clf.ARCH_BINARY, input_dim=3,
                          hidden_sizes=(4, 2), n_linear_features=2)
    model = clf.Model(cfg, seed=1)
    before = model.get_params()
    out = model.get_params()
    out[:] = 7.0
    np.testing.assert_array_equal(model.get_params(), before)
    # the weight arrays are views of the flat buffer set_params writes
    model.set_params(np.arange(before.size, dtype=float))
    np.testing.assert_array_equal(model.weights[0].ravel(), np.arange(12.0))
    np.testing.assert_array_equal(model.w_linear, [before.size - 2.0, before.size - 1.0])
    assert all(np.shares_memory(a, model.params)
               for a in model.weights + model.biases + [model.w_linear])


def test_early_stopping_restores_recorded_best_params(monkeypatch):
    mapped = make_mapped(lm.MappingKind.BINARY_FULL, S=30, bias=0.5, seed=2)
    cfg = clf.config_for_table(mapped, hidden_sizes=(8,))
    settings = clf.TrainSettings(learning_rate=0.3, epochs=40, minibatch_size=8,
                                 patience=2, seed=5, val_fraction=0.3)
    record = []
    real_loss = clf.loss

    def recording_loss(model, data, scheme=clf.UNWEIGHTED, runs=None):
        value = real_loss(model, data, scheme, runs)
        record.append((value, model.get_params()))
        return value

    monkeypatch.setattr(clf, "loss", recording_loss)
    model = clf.train(mapped, all_runs(mapped), cfg, settings)
    best = 0
    for i, (value, _) in enumerate(record):
        if value < record[best][0] - 1e-12:
            best = i
    # a later epoch was worse, so the live buffer moved past the best one
    assert best < len(record) - 1
    assert not np.array_equal(record[-1][1], record[best][1])
    np.testing.assert_array_equal(model.get_params(), record[best][1])


def test_training_divergence_mid_epoch_raises(monkeypatch):
    # Adam's first step moves every weight by about the learning rate; at
    # 1e200 the second gradient is ~1e200, and lr * mhat overflows
    mapped = make_mapped(lm.MappingKind.BINARY_FULL, S=12, seed=1)
    cfg = clf.config_for_table(mapped, hidden_sizes=(8,), activation="relu")
    settings = clf.TrainSettings(learning_rate=1e200, epochs=3, minibatch_size=4,
                                 seed=0, val_fraction=0.0)
    seen = []
    real_gradient = clf.gradient

    def recording_gradient(model, data, scheme=clf.UNWEIGHTED):
        seen.append(model.get_params())
        return real_gradient(model, data, scheme)

    monkeypatch.setattr(clf, "gradient", recording_gradient)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(clf.TrainingDivergedError) as info:
            clf.train(mapped, all_runs(mapped), cfg, settings)
    assert info.value.epoch == 0
    steps_per_epoch = -(-12 * 4 // settings.minibatch_size)
    # raised before the epoch ended, and no step left non-finite parameters
    assert 1 < len(seen) < steps_per_epoch
    assert all(np.all(np.isfinite(p)) for p in seen)
    # a non-finite gradient raises as well
    monkeypatch.setattr(clf, "gradient", lambda model, data, scheme: np.full(
        model.params.size, np.nan))
    with pytest.raises(clf.TrainingDivergedError):
        clf.train(mapped, all_runs(mapped), cfg, clf.TrainSettings(epochs=1, seed=0))


def test_second_moment_overflow_raises():
    # one theta log density of 1.5e308 makes a finite gradient near 1e307
    # when its weight is positive: g*g overflows, Adam's second moment
    # becomes inf and the step 0, which would freeze the parameter silently
    from discal import diagnostics as dg
    t = sm.generate_gaussian_table(2, 12, 3, 1.0, sm.Corruption(bias=0.3), seed=1,
                                   attach_densities=True)
    log_p = t.log_p.copy()
    log_p[0, 0] = 1.5e308  # finite, so the table accepts it
    t = dataclasses.replace(t, log_p=log_p)
    cfg = lm.FeatureConfig(linear_features=("log_p", "log_q"))
    mapped = lm.map_table(t, lm.MappingKind.BINARY_FULL, cfg)
    model_cfg = clf.config_for_table(mapped, hidden_sizes=(8,))
    model = clf.Model(model_cfg, seed=0)
    model.w_linear[:] = [0.5, 0.0]
    with np.errstate(over="ignore"):
        g = clf.gradient(model, mapped)
        assert np.all(np.isfinite(g)) and np.max(np.abs(g)) > 1e154
        with pytest.raises(clf.TrainingDivergedError) as err:
            clf.train(mapped, all_runs(mapped), model_cfg, clf.TrainSettings(epochs=3, seed=2,
                                                            val_fraction=0.0))
        assert err.value.epoch == 0
        with pytest.raises(dg.PipelineError) as err:
            dg.run_pipeline(t, lm.MappingKind.BINARY_FULL, cfg, model_cfg=model_cfg,
                            settings=clf.TrainSettings(epochs=3, seed=0), B=10, R=100)
    assert err.value.stage == "train"
    assert isinstance(err.value.original, clf.TrainingDivergedError)


# ---- in-place passes --------------------------------------------------------

@pytest.mark.parametrize("hidden, activation", [((5, 3), "tanh"), ((5, 3), "relu"),
                                                ((), "tanh")])
@pytest.mark.parametrize("standardized_rows", [False, True])
@pytest.mark.parametrize("kind", [lm.MappingKind.BINARY_FULL, lm.MappingKind.MULTICLASS])
def test_passes_only_read_the_mapped_rows(hidden, activation, standardized_rows, kind):
    # map_table's rows are read-only, so a pass that wrote into its input
    # rows (or into the views it scores from) would raise here
    from discal import diagnostics as dg
    mapped = make_mapped(kind, d=2, S=6)
    assert not mapped.rows.flags.writeable
    before = mapped.rows.copy()
    model = clf.Model(clf.config_for_table(mapped, hidden_sizes=hidden,
                                           activation=activation), seed=2)
    if standardized_rows:
        # as after train: each pass standardizes rows of its own, in place
        model.set_standardizer(np.full(mapped.d_nonlinear, 0.3),
                               np.full(mapped.d_nonlinear, 1.7))
    params = model.get_params()
    scheme = clf.UNWEIGHTED if mapped.multiclass else clf.balanced_binary(3)
    g1 = clf.gradient(model, mapped, scheme)
    g2 = clf.gradient(model, mapped, scheme)
    assert not np.shares_memory(g1, g2)
    assert not np.shares_memory(g1, model.params)
    np.testing.assert_array_equal(g1, g2)
    scores = model.score(mapped.x_nl, mapped.x_lin)
    for source in (mapped.rows, mapped.x_nl, mapped.x_lin, model.params):
        assert not np.shares_memory(scores, source)
    assert np.isfinite(clf.loss(model, mapped, scheme))
    assert np.isfinite(dg.lpd_val(clf.label_table(model, mapped, scheme))[0])
    if not mapped.multiclass:
        assert dg.visual_export(model, mapped).shape == (mapped.rows[..., 0].size, 3)
    np.testing.assert_array_equal(mapped.rows, before)
    np.testing.assert_array_equal(model.get_params(), params)


def saturating_binary_table():
    """A binary table with one linear feature spanning [-40, 40], ends included."""
    values = np.concatenate([[-40.0, 40.0], np.linspace(-40.0, 40.0, 22)])
    rows = values.reshape(6, 4, 1)
    return lm.MappedTable(rows, np.arange(6), lm.MappingKind.BINARY_FULL, d_nonlinear=0)


def linear_model(n_linear, class_count=2, architecture=clf.ARCH_BINARY):
    cfg = clf.ModelConfig(architecture=architecture, input_dim=0, hidden_sizes=(),
                          n_linear_features=n_linear, class_count=class_count)
    model = clf.Model(cfg, seed=0)
    params = np.zeros(model.params.size)
    params[-n_linear:] = 1.0
    model.set_params(params)
    return model


def reference_label_table(model, data, scheme):
    """label_table from the per-example reference: column j weights each
    example's log probability of the label it would have if occupant j held
    theta.  Binary row k is then labelled 0 if k == j and 1 otherwise;
    multiclass example k keeps label k, now the slot that occupant j fills."""
    S, K = data.rows.shape[:2]
    logp = per_example_log_probs(model, data).reshape(S, K, -1)
    T = np.empty((S, K))
    for j in range(K):
        if data.multiclass:
            labels = np.arange(K)
            classes = np.argmax(lm._cyclic_insertion(K) == j, axis=1)
        else:
            labels = classes = (np.arange(K) != j).astype(int)
        T[:, j] = (clf.example_weights(labels, scheme) * logp[:, np.arange(K), classes]).sum(1)
    return T


@pytest.mark.parametrize("case", ["binary", "binary_weighted", "rank", "multiclass",
                                  "saturated"])
def test_label_table_matches_the_per_example_reference(case):
    scheme = clf.balanced_binary(3) if case in ("binary_weighted", "saturated") else clf.UNWEIGHTED
    if case == "saturated":
        data = saturating_binary_table()
        model = linear_model(1)
        # the clamp is active at both ends of both columns
        full = clf.class_log_probs(model, data)
        assert (full == np.log(clf.PROB_CLAMP)).any(axis=0).all()
        assert (full == np.log(1.0 - clf.PROB_CLAMP)).any(axis=0).all()
    else:
        kind = {"rank": lm.MappingKind.BINARY_RANK,
                "multiclass": lm.MappingKind.MULTICLASS}.get(case, lm.MappingKind.BINARY_FULL)
        mapped = make_mapped(kind, d=1 if case == "rank" else 2, S=10, M=3, bias=0.5)
        # gathered runs, out of table order, are scored in the order given
        data = clf.arrays_from_batches(mapped, [3, 0, 7, 7, 1])
        model = clf.Model(clf.config_for_table(mapped, hidden_sizes=(4, 3)), seed=4)
        rng = np.random.default_rng(1)
        model.set_params(model.get_params() + rng.normal(scale=0.5, size=model.params.size))
    T = clf.label_table(model, data, scheme)
    assert T.shape == data.rows.shape[:2]
    np.testing.assert_allclose(T, reference_label_table(model, data, scheme),
                               rtol=0, atol=1e-12)
    # the loss is minus column 0 over the R*K examples
    assert clf.loss(model, data, scheme) == -(T[:, 0].sum() / T.size)


def test_label_table_columns_of_equal_occupants_are_equal_bit_for_bit():
    # binary rows that score the same give the same column whatever their
    # position, so a permutation replicate that moves theta to one of them
    # ties the observed LPD exactly
    values = np.array([[0.5, 0.5, 0.5, -1.0], [2.0, 3.0, 2.0, 2.0], [-7.0, -7.0, 1.0, -7.0]])
    data = lm.MappedTable(values[:, :, None], np.arange(3), lm.MappingKind.BINARY_FULL,
                          d_nonlinear=0)
    T = clf.label_table(linear_model(1), data, clf.balanced_binary(3))
    for s, run in enumerate(values):
        same = np.flatnonzero(run == run[0])
        assert (T[s, same] == T[s, 0]).all()


@pytest.mark.parametrize("saturated", [False, True])
def test_run_log_probs_is_the_clamped_log_of_the_softmax_bit_for_bit(saturated):
    if saturated:
        values = np.concatenate([[-40.0, 40.0], np.linspace(-40.0, 40.0, 22)])
        mapped = lm.MappedTable(values.reshape(6, 4, 1), np.arange(6),
                                lm.MappingKind.MULTICLASS, d_nonlinear=0)
        model = linear_model(1, class_count=4, architecture=clf.ARCH_MULTICLASS)
    else:
        mapped = make_mapped(lm.MappingKind.MULTICLASS, d=2, S=10, M=4, bias=0.5)
        model = clf.Model(clf.config_for_table(mapped, hidden_sizes=(6, 3)), seed=3)
    scores = model.score(mapped.x_nl, mapped.x_lin).reshape(-1, mapped.n_classes)
    want = np.log(np.clip(reference_softmax(scores), clf.PROB_CLAMP, 1.0 - clf.PROB_CLAMP))
    if saturated:
        assert (want == np.log(clf.PROB_CLAMP)).any()
        assert (want == np.log(1.0 - clf.PROB_CLAMP)).any()
    np.testing.assert_array_equal(clf.run_log_probs(model, mapped), want)
    np.testing.assert_array_equal(clf._clamped_log(reference_softmax(scores)), want)


@pytest.mark.parametrize("kind, weighted", [(lm.MappingKind.BINARY_FULL, False),
                                            (lm.MappingKind.BINARY_FULL, True),
                                            (lm.MappingKind.MULTICLASS, False)],
                         ids=["binary", "binary-weighted", "multiclass"])
def test_label_table_in_run_blocks_gives_the_one_shot_bits(monkeypatch, kind, weighted):
    # 193 runs in blocks of 64: three blocks, the one-run tail joined to
    # the third; the runs are gathered out of table order.  With K = 3 rows
    # a run, blocks of 2, 3, 7 or 65 runs change the last bits here
    mapped = make_mapped(kind, d=2, S=200, M=2, bias=0.5, seed=6)
    data = clf.arrays_from_batches(mapped, np.random.default_rng(0).permutation(200)[:193])
    model = clf.Model(clf.config_for_table(mapped, hidden_sizes=(16,)), seed=2)
    model.set_params(model.get_params()
                     + np.random.default_rng(3).normal(scale=0.5, size=model.params.size))
    model.set_standardizer(np.full(mapped.d_nonlinear, 0.2), np.full(mapped.d_nonlinear, 1.5))
    scheme = clf.balanced_binary(2) if weighted else clf.UNWEIGHTED
    width = 3 * clf.scoring_width(model, mapped.rows.shape[-1])
    monkeypatch.setattr(sm, "_CHUNK_ELEMENTS", 64 * width)
    assert [b.stop - b.start for b in sm.blocks(193, width)] == [64, 64, 65]
    np.testing.assert_array_equal(
        clf.label_table(model, data, scheme),
        one_shot_reference.scored_runs(model, data, all_runs(data), scheme))


def test_standardize_works_through_tiles_with_the_whole_block_bits():
    # two whole tiles and a one-row tail, as (n, F) rows and as runs of
    # K = 3 rows; the linear columns, extreme values included, keep their bits
    d, n_lin = 3, 2
    cfg = clf.ModelConfig(clf.ARCH_BINARY, input_dim=d, hidden_sizes=(4,),
                          n_linear_features=n_lin)
    model = clf.Model(cfg, seed=0)
    rng = np.random.default_rng(5)
    mean, scale = rng.normal(size=d), rng.uniform(0.5, 2.0, d)
    model.set_standardizer(mean, scale)
    n = 2 * clf.STANDARDIZE_ROWS + 1
    raw = rng.normal(scale=30.0, size=(n, d + n_lin))
    raw[:4, d:] = [[-0.0, np.inf], [-np.inf, 5e-324], [-5e-324, 1e308], [-1e308, 0.0]]
    for shape in ((n, d + n_lin), (n // 3, 3, d + n_lin)):
        rows = raw.reshape(shape).copy()
        assert model.standardize(rows) is rows
        flat = rows.reshape(n, -1)
        np.testing.assert_array_equal(flat[:, :d], (raw[:, :d] - mean) / scale)
        assert flat[:, d:].tobytes() == raw[:, d:].tobytes()


@pytest.mark.parametrize("hidden", [(1,), (8,)])
def test_forward_scores_of_strided_and_contiguous_rows_are_equal(hidden):
    # the passes score the strided nonlinear columns of the blocks they
    # gather and standardize; a contiguous copy must give the same bits
    rng = np.random.default_rng(11)
    for d in range(1, 10):
        cfg = clf.ModelConfig(clf.ARCH_BINARY, input_dim=d, hidden_sizes=hidden,
                              n_linear_features=2)
        model = clf.Model(cfg, seed=d)
        model.set_params(model.get_params() + rng.normal(scale=0.5, size=model.params.size))
        model.set_standardizer(rng.normal(size=d), rng.uniform(0.5, 2.0, d))
        for n in (1, 2, 3, 5, 8, 63, 64, 65, 127, 1000, 3457, 7000):
            rows = model.standardize(rng.normal(scale=2.0, size=(n, d + 2)))
            strided = model.score(rows[:, :d], rows[:, d:])
            contiguous = model.score(np.ascontiguousarray(rows[:, :d]), rows[:, d:])
            np.testing.assert_array_equal(strided, contiguous, err_msg="d=%d n=%d" % (d, n))


@pytest.mark.parametrize("hidden", [(8,), (5, 3)])
def test_gradients_of_strided_and_contiguous_rows_are_equal(hidden):
    # a step back-propagates through the strided columns of its gathered
    # block; with several first-layer units, one input included, a
    # contiguous copy gives the same bits (with one unit or none it does not)
    rng = np.random.default_rng(12)
    for d in range(1, 10):
        cfg = clf.ModelConfig(clf.ARCH_BINARY, input_dim=d, hidden_sizes=hidden,
                              n_linear_features=2)
        model = clf.Model(cfg, seed=d)
        model.set_params(model.get_params() + rng.normal(scale=0.5, size=model.params.size))
        for n in (1, 2, 3, 5, 8, 63, 64, 65, 127, 1000, 1024, 3457):
            rows = rng.normal(scale=2.0, size=(n, d + 2))
            labels = rng.integers(0, 2, size=n)
            step = clf.ExampleArrays(rows, labels, lm.MappingKind.BINARY_FULL, d, 2)
            copy = clf.ExampleArrays(rows, labels, lm.MappingKind.BINARY_FULL, d, 2)
            copy.x_nl = np.ascontiguousarray(copy.x_nl)
            np.testing.assert_array_equal(clf.gradient(model, step), clf.gradient(model, copy),
                                          err_msg="d=%d n=%d" % (d, n))


# ---- the row-major kernel: each activation an (n, h) array -------------------
# The layout before feature-major activations.  Its products and bias sums
# reduce in another order, so the model agrees with it to rounding only.

def row_major_forward(model, X, keep_cache=False):
    cache = [X]
    h = X
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        z = h @ W + b
        h = np.tanh(z) if model.config.activation == "tanh" else np.maximum(z, 0.0)
        cache.append(h)
    out = (h @ model.weights[-1] + model.biases[-1]).ravel()
    return (out, cache) if keep_cache else out


def row_major_backprop(model, cache, x_lin, dout):
    flat = np.empty_like(model.params)
    gw, gb, g_lin = model.layout(flat)
    gw[-1][...] = cache[-1].T @ dout[:, None]
    gb[-1][0] = dout.sum()
    da = np.outer(dout, model.weights[-1].ravel())
    for i in range(len(model.weights) - 2, -1, -1):
        a = cache[i + 1]
        dz = da * (1.0 - a * a) if model.config.activation == "tanh" else da * (a > 0)
        gw[i][...] = cache[i].T @ dz
        gb[i][...] = dz.sum(axis=0)
        if i > 0:
            da = dz @ model.weights[i].T
    g_lin[...] = x_lin.T @ dout
    return flat


def row_major_pass(model, data, scheme):
    """Scores and gradient of a step through the row-major kernel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_mlp_forward", functools.partial(row_major_forward, model))
        patch.setattr(clf, "_backprop", row_major_backprop)
        return model.score(data.x_nl, data.x_lin), clf.gradient(model, data, scheme)


@pytest.mark.parametrize("hidden", [(), (1,), (8,), (5, 3)], ids=str)
@pytest.mark.parametrize("kind", [lm.MappingKind.BINARY_FULL, lm.MappingKind.MULTICLASS],
                         ids=["binary", "multiclass"])
def test_feature_major_kernel_agrees_with_the_row_major_kernel(hidden, kind):
    # steps of 1, 64 and 1024 rows (multiclass: 1, 16 and 256 whole runs of
    # K = 4), gathered and standardized as train does; without a hidden
    # layer the backward pass's first product reads the rows themselves
    rng = np.random.default_rng(12)
    multiclass = kind is lm.MappingKind.MULTICLASS
    K = 4 if multiclass else 2
    scheme = clf.UNWEIGHTED if multiclass else clf.balanced_binary(3)
    arch = clf.ARCH_MULTICLASS if multiclass else clf.ARCH_BINARY
    for activation in ("tanh", "relu"):
        for d in (1, 3):
            cfg = clf.ModelConfig(arch, input_dim=d, hidden_sizes=hidden, activation=activation,
                                  n_linear_features=2, class_count=K)
            model = clf.Model(cfg, seed=d)
            model.set_params(model.get_params() + rng.normal(scale=0.5, size=model.params.size))
            model.set_standardizer(rng.normal(size=d), rng.uniform(0.5, 2.0, d))
            for n in (1, 64, 1024):
                rows = max(1, n // K) * K if multiclass else n
                labels = (np.tile(np.arange(K), rows // K) if multiclass
                          else rng.integers(0, 2, size=rows))
                block = model.standardize(rng.normal(scale=2.0, size=(rows, d + 2)))
                data = clf.ExampleArrays(block, labels, kind, d, K)
                case = (activation, d, rows)
                for got, want in zip((model.score(data.x_nl, data.x_lin),
                                      clf.gradient(model, data, scheme)),
                                     row_major_pass(model, data, scheme)):
                    err = np.max(np.abs(got - want))
                    assert err <= 1e-12 * np.max(np.abs(want)), (case, err)
