"""Tests for the classifier core: forward passes, gradients, training."""

import dataclasses

import numpy as np
import pytest
from scipy.special import expit

from discal import classifier as clf
from discal import label_mapping as lm
from discal import sim_model as sm


def make_batches(kind, d=2, S=8, M=3, bias=0.3, seed=0, features=("log_p", "log_q")):
    c = sm.Corruption(bias=bias)
    t = sm.generate_gaussian_table(d, S, M, 1.0, c, seed=seed, attach_densities=True)
    cfg = lm.FeatureConfig(linear_features=features)
    return lm.map_table(t, kind, cfg, seed=seed)


def finite_diff_grad(model, batches, scheme, eps=1e-6):
    p0 = model.get_params()
    g = np.empty_like(p0)
    for i in range(p0.size):
        for sign, slot in ((1.0, 0), (-1.0, 1)):
            p = p0.copy()
            p[i] += sign * eps
            model.set_params(p)
            if slot == 0:
                up = clf.loss(model, batches, scheme)
            else:
                dn = clf.loss(model, batches, scheme)
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


def test_forward_binary_sigmoid_of_score():
    cfg = clf.ModelConfig(architecture=clf.ARCH_BINARY, input_dim=2,
                          hidden_sizes=(4,), n_linear_features=1)
    model = clf.Model(cfg, seed=1)
    phi = np.array([0.3, -0.7, 2.0])
    x_nl, x_lin = model.split_feature(phi)
    expected = expit(model.score(x_nl[None, :], x_lin[None, :]))[0]
    assert abs(clf.forward_binary(model, phi) - expected) < 1e-15
    mat = np.vstack([phi, phi + 1.0])
    out = clf.forward_binary(model, mat)
    assert out.shape == (2,)


def test_separable_multiclass_permutation_equivariance():
    cfg = clf.ModelConfig(architecture=clf.ARCH_MULTICLASS, input_dim=3,
                          hidden_sizes=(5,), n_linear_features=2, class_count=4)
    model = clf.Model(cfg, seed=2)
    rng = np.random.default_rng(3)
    nl = rng.standard_normal((4, 3))
    lin = rng.standard_normal((4, 2))
    probs = clf.forward_multiclass(model, nl, lin)
    perm = np.array([2, 0, 3, 1])
    probs_p = clf.forward_multiclass(model, nl[perm], lin[perm])
    np.testing.assert_allclose(probs_p, probs[perm], atol=1e-12)
    np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)


def test_gradient_matches_finite_differences_binary():
    batches = make_batches(lm.MappingKind.BINARY_FULL)
    cfg = clf.config_for_batches(batches, hidden_sizes=(4, 3))
    model = clf.Model(cfg, seed=5)
    scheme = clf.balanced_binary(3)
    g = clf.gradient(model, batches, scheme)
    fd = finite_diff_grad(model, batches, scheme)
    rel = np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12)
    assert rel < 1e-5


def test_gradient_matches_finite_differences_multiclass():
    batches = make_batches(lm.MappingKind.MULTICLASS, d=1, S=5, M=2)
    cfg = clf.config_for_batches(batches, hidden_sizes=(4,), activation="relu")
    model = clf.Model(cfg, seed=6)
    g = clf.gradient(model, batches, clf.UNWEIGHTED)
    fd = finite_diff_grad(model, batches, clf.UNWEIGHTED)
    rel = np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12)
    assert rel < 1e-5


def test_full_batch_descent_decreases_loss():
    # plain gradient steps (no adaptivity) must decrease a smooth loss
    batches = make_batches(lm.MappingKind.BINARY_FULL, S=12)
    cfg = clf.config_for_batches(batches, hidden_sizes=(6,))
    model = clf.Model(cfg, seed=7)
    losses = [clf.loss(model, batches)]
    params = model.get_params()
    for _ in range(10):
        params = params - 0.05 * clf.gradient(model, batches)
        model.set_params(params)
        losses.append(clf.loss(model, batches))
    assert losses[-1] < losses[0]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_train_improves_over_init_and_is_deterministic():
    batches = make_batches(lm.MappingKind.BINARY_FULL, S=40, bias=1.0)
    cfg = clf.config_for_batches(batches, hidden_sizes=(8,))
    settings = clf.TrainSettings(learning_rate=0.01, epochs=10, seed=3,
                                 weight_scheme=clf.balanced_binary(3))
    model = clf.train(batches, cfg, settings)
    init = clf.Model(cfg, seed=3)
    assert clf.loss(model, batches, settings.weight_scheme) < clf.loss(
        init, batches, settings.weight_scheme)
    model2 = clf.train(batches, cfg, settings)
    np.testing.assert_array_equal(model.get_params(), model2.get_params())


def test_train_standardizer_from_training_data_only():
    batches = make_batches(lm.MappingKind.BINARY_FULL, S=20)
    cfg = clf.config_for_batches(batches, hidden_sizes=(4,))
    settings = clf.TrainSettings(epochs=1, seed=0, val_fraction=0.25)
    model = clf.train(batches, cfg, settings)
    all_nl = np.concatenate([b.nonlinear() for b in batches])
    # the standardizer comes from the fit portion, not the full data
    assert not np.allclose(model.x_mean, all_nl.mean(axis=0), atol=1e-12)
    assert np.all(model.x_scale > 0)


def test_train_rejects_empty():
    cfg = clf.ModelConfig(architecture=clf.ARCH_BINARY, input_dim=1)
    with pytest.raises(sm.InvalidParameterError):
        clf.train([], cfg, clf.TrainSettings())


def test_settings_validation():
    with pytest.raises(sm.InvalidParameterError):
        clf.TrainSettings(learning_rate=0.0)
    with pytest.raises(sm.InvalidParameterError):
        clf.TrainSettings(epochs=0)


def test_per_example_forward_matches_class_log_probs():
    # each example scored on its own through the forward pass that defines
    # its head: a binary row, or a multiclass example's K slot rows
    for kind in (lm.MappingKind.BINARY_FULL, lm.MappingKind.MULTICLASS):
        batches = make_batches(kind, d=2, S=4, M=3)
        cfg = clf.config_for_batches(batches, hidden_sizes=(4,))
        model = clf.Model(cfg, seed=9)
        data = clf.arrays_from_batches(batches)
        expected = clf.class_log_probs(model, data)[np.arange(data.labels.size),
                                                   data.labels]
        got = []
        for b in batches:
            for k, t in enumerate(b.labels):
                if kind is lm.MappingKind.MULTICLASS:
                    slots, d = reference_slots(b)[k], b.d_nonlinear
                    p_true = clf.forward_multiclass(model, slots[:, :d], slots[:, d:])[t]
                else:
                    p1 = clf.forward_binary(model, b.features[k])
                    p_true = p1 if t == 1 else 1.0 - p1
                got.append(np.log(np.clip(p_true, clf.PROB_CLAMP, 1.0 - clf.PROB_CLAMP)))
        np.testing.assert_allclose(got, expected, atol=1e-10)


def test_serialization_round_trip():
    batches = make_batches(lm.MappingKind.MULTICLASS, d=1, S=4, M=2)
    cfg = clf.config_for_batches(batches, hidden_sizes=(3, 3))
    model = clf.train(batches, cfg, clf.TrainSettings(epochs=2, seed=1))
    clone = clf.model_from_json(clf.model_to_json(model))
    np.testing.assert_array_equal(clone.get_params(), model.get_params())
    np.testing.assert_array_equal(clone.x_mean, model.x_mean)
    data = clf.arrays_from_batches(batches)
    np.testing.assert_allclose(clf.class_log_probs(clone, data),
                               clf.class_log_probs(model, data), atol=0)
    with pytest.raises(sm.InvalidParameterError):
        clf.model_from_json('{"version": 99}')


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
    batches = make_batches(lm.MappingKind.BINARY_FULL, d=1, S=3,
                           features=("log_p",))
    # strip the nonlinear block by feeding arrays directly
    data = clf.arrays_from_batches(batches)
    data = clf.ExampleArrays(False, data.rows[..., data.d:], 0, data.labels,
                             data.batch_ids, n_classes=2)
    assert np.isfinite(clf.loss(model, data))


# ---- frozen reference: the training loop before the in-place rewrite --------
# Parameters as separate arrays, two forward passes per gradient,
# out-of-place Adam, and every multiclass example scored slot by slot from
# its own copy of the K slot rows.

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
        cache = [X]
        h = X
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            z = h @ W + b
            h = np.tanh(z) if self.config.activation == "tanh" else np.maximum(z, 0.0)
            cache.append(h)
        return (h @ self.weights[-1] + self.biases[-1]).ravel(), cache

    def score(self, x_nl, x_lin):
        return self.mlp_forward((x_nl - self.x_mean) / self.x_scale)[0] + x_lin @ self.w_linear


def reference_slots(b):
    """(K, K, F) slot rows of a multiclass batch's K examples.

    Example k puts theta (occupant row 0) in slot k and the draws in order
    around it.
    """
    K = b.n_classes
    return np.stack([b.features[np.concatenate([np.arange(1, k + 1), [0], np.arange(k + 1, K)])]
                     for k in range(K)])


def reference_slot_views(b):
    slots = reference_slots(b)
    return slots[..., :b.d_nonlinear], slots[..., b.d_nonlinear:]


def reference_arrays(batches):
    mc = batches[0].kind is lm.MappingKind.MULTICLASS
    if mc:
        nl, lin = zip(*(reference_slot_views(b) for b in batches))
    else:
        nl = [b.nonlinear() for b in batches]
        lin = [b.linear() for b in batches]
    return (mc, np.concatenate(nl), np.concatenate(lin),
            np.concatenate([b.labels for b in batches]).astype(int))


def reference_softmax(scores):
    z = scores - scores.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=-1, keepdims=True)


def reference_class_log_probs(model, mc, x_nl, x_lin):
    if mc:
        N, K, d = x_nl.shape
        probs = reference_softmax(model.score(x_nl.reshape(N * K, d),
                                              x_lin.reshape(N * K, -1)).reshape(N, K))
    else:
        p1 = expit(model.score(x_nl, x_lin))
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
        dout = w * (expit(model.score(x_nl, x_lin)) - labels) / n
    _, cache = model.mlp_forward((x_nl - model.x_mean) / model.x_scale)
    gw = [None] * len(model.weights)
    gb = [None] * len(model.biases)
    gw[-1] = cache[-1].T @ dout[:, None]
    gb[-1] = np.array([dout.sum()])
    da = np.outer(dout, model.weights[-1].ravel())
    for i in range(len(model.weights) - 2, -1, -1):
        a = cache[i + 1]
        dz = da * (1.0 - a * a) if model.config.activation == "tanh" else da * (a > 0)
        gw[i] = cache[i].T @ dz
        gb[i] = dz.sum(axis=0)
        if i > 0:
            da = dz @ model.weights[i].T
    return np.concatenate([g.ravel() for g in gw] + [g.ravel() for g in gb]
                          + [(x_lin.T @ dout).ravel()])


def reference_train(batches, config, settings):
    rng = np.random.default_rng(settings.seed)
    n_hold = int(len(batches) * settings.val_fraction)
    order = rng.permutation(len(batches))
    hold = [batches[i] for i in order[:n_hold]]
    fit = [batches[i] for i in order[n_hold:]]
    if not fit:
        fit, hold = hold, []
    fit_data = reference_arrays(fit)
    hold_data = reference_arrays(hold) if hold else None
    model = ReferenceModel(config, seed=rng.integers(2**31))
    if settings.standardize and config.input_dim > 0:
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
    bs = max(1, min(settings.minibatch_size, n))
    for epoch in range(settings.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, bs):
            idx = perm[start:start + bs]
            g = reference_gradient(model, (mc, x_nl[idx], x_lin[idx], labels[idx]),
                                   settings.weight_scheme)
            step += 1
            m = settings.beta1 * m + (1 - settings.beta1) * g
            v = settings.beta2 * v + (1 - settings.beta2) * g * g
            mhat = m / (1 - settings.beta1 ** step)
            vhat = v / (1 - settings.beta2 ** step)
            params = params - settings.learning_rate * mhat / (np.sqrt(vhat) + settings.adam_eps)
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
    batches = make_batches(kind, d=2, S=24, M=M, bias=0.8, seed=seed, features=features)
    cfg = clf.config_for_batches(batches, hidden_sizes=(6, 3), activation=activation)
    settings = clf.TrainSettings(learning_rate=0.05, epochs=12, minibatch_size=13,
                                 patience=2, seed=seed, val_fraction=val_fraction,
                                 weight_scheme=clf.balanced_binary(M) if weighted
                                 else clf.UNWEIGHTED)
    model = clf.train(batches, cfg, settings)
    ref = reference_train(batches, cfg, settings)
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
    batches = make_batches(lm.MappingKind.MULTICLASS, d=2, S=12, M=5, bias=0.5, seed=3)
    cfg = clf.config_for_batches(batches, hidden_sizes=(5,))
    model = clf.train(batches, cfg, clf.TrainSettings(epochs=3, seed=2, learning_rate=0.05))
    data = clf.arrays_from_batches(batches)
    ref_arrays = reference_arrays(batches)
    ref = ReferenceModel(cfg, seed=0)
    ref.set_params(model.get_params())
    ref.x_mean, ref.x_scale = model.x_mean, model.x_scale
    expected = reference_class_log_probs(ref, True, ref_arrays[1], ref_arrays[2])
    scored = _recording_score(model)
    np.testing.assert_allclose(clf.class_log_probs(model, data), expected, rtol=0, atol=1e-12)
    assert scored == [12 * 6]          # one pass over each run's K rows
    # a partial run still scores the K rows of each run it touches, once
    part = data.take(np.arange(1, data.labels.size))
    np.testing.assert_allclose(clf.class_log_probs(model, part), expected[1:],
                               rtol=0, atol=1e-12)
    two_runs = data.take(np.arange(4, 9))
    np.testing.assert_allclose(clf.class_log_probs(model, two_runs), expected[4:9],
                               rtol=0, atol=1e-12)
    assert scored == [12 * 6, 12 * 6, 2 * 6]
    del model.score

    lpd, scores = dg.lpd_val(model, data)
    test = dg.permutation_test(model, data, B=50, seed=4)
    monkeypatch.setattr(clf, "class_log_probs", lambda model, d: expected)
    ref_lpd, ref_scores = dg.lpd_val(model, data)
    ref_test = dg.permutation_test(model, data, B=50, seed=4)
    assert abs(lpd - ref_lpd) < 1e-12
    np.testing.assert_allclose(scores, ref_scores, rtol=0, atol=1e-12)
    assert abs(test.lpd_observed - ref_test.lpd_observed) < 1e-12
    np.testing.assert_allclose(test.lpd_permuted, ref_test.lpd_permuted, rtol=0, atol=1e-12)
    assert test.p_value == ref_test.p_value


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_multiclass_gradient_matches_per_slot_reference(activation):
    # one pass per run gives the per-slot gradient of every example subset
    M = 4
    batches = make_batches(lm.MappingKind.MULTICLASS, d=2, S=10, M=M, bias=0.5, seed=4)
    cfg = clf.config_for_batches(batches, hidden_sizes=(6, 3), activation=activation)
    model = clf.Model(cfg, seed=3)
    rng = np.random.default_rng(8)
    model.set_params(model.get_params() + rng.normal(scale=0.3, size=model.params.size))
    model.set_standardizer(rng.normal(size=cfg.input_dim), rng.uniform(0.5, 2.0, cfg.input_dim))
    ref = ReferenceModel(cfg, seed=0)
    ref.set_params(model.get_params())
    ref.x_mean, ref.x_scale = model.x_mean, model.x_scale
    data = clf.arrays_from_batches(batches)
    mc, x_nl, x_lin, labels = reference_arrays(batches)
    N = labels.size
    subsets = {
        "whole runs": np.arange(N),
        "partial run": np.arange(1, N - 2),
        "repeated runs": np.array([7, 3, 8, 6, 21, 0, 9, 22, 5]),   # runs 1, 0, 4, 1
        "shuffled minibatch": rng.permutation(N)[:13],
    }
    for name, idx in subsets.items():
        for scheme in (clf.UNWEIGHTED, clf.balanced_binary(M)):
            g = clf.gradient(model, data.take(idx), scheme)
            want = reference_gradient(ref, (mc, x_nl[idx], x_lin[idx], labels[idx]), scheme)
            err = np.max(np.abs(g - want))
            assert err <= 1e-13 * np.max(np.abs(want)), (name, scheme, err)
    full = clf.gradient(model, batches, clf.UNWEIGHTED)
    np.testing.assert_array_equal(full, clf.gradient(model, data, clf.UNWEIGHTED))


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
    assert all(np.shares_memory(a, model.params) for a in model.param_arrays())


def test_early_stopping_restores_recorded_best_params(monkeypatch):
    batches = make_batches(lm.MappingKind.BINARY_FULL, S=30, bias=0.5, seed=2)
    cfg = clf.config_for_batches(batches, hidden_sizes=(8,))
    settings = clf.TrainSettings(learning_rate=0.3, epochs=40, minibatch_size=8,
                                 patience=2, seed=5, val_fraction=0.3)
    record = []
    real_loss = clf.loss

    def recording_loss(model, data, scheme=clf.UNWEIGHTED):
        value = real_loss(model, data, scheme)
        record.append((value, model.get_params()))
        return value

    monkeypatch.setattr(clf, "loss", recording_loss)
    model = clf.train(batches, cfg, settings)
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
    batches = make_batches(lm.MappingKind.BINARY_FULL, S=12, seed=1)
    cfg = clf.config_for_batches(batches, hidden_sizes=(8,), activation="relu")
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
            clf.train(batches, cfg, settings)
    assert info.value.epoch == 0
    steps_per_epoch = -(-12 * 4 // settings.minibatch_size)
    # raised before the epoch ended, and no step left non-finite parameters
    assert 1 < len(seen) < steps_per_epoch
    assert all(np.all(np.isfinite(p)) for p in seen)
    # a non-finite gradient raises as well
    monkeypatch.setattr(clf, "gradient", lambda model, data, scheme: np.full(
        model.params.size, np.nan))
    with pytest.raises(clf.TrainingDivergedError):
        clf.train(batches, cfg, clf.TrainSettings(epochs=1, seed=0))


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
    batches = lm.map_table(t, lm.MappingKind.BINARY_FULL, cfg)
    model_cfg = clf.config_for_batches(batches, hidden_sizes=(8,))
    model = clf.Model(model_cfg, seed=0)
    model.w_linear[:] = [0.5, 0.0]
    with np.errstate(over="ignore"):
        g = clf.gradient(model, batches)
        assert np.all(np.isfinite(g)) and np.max(np.abs(g)) > 1e154
        with pytest.raises(clf.TrainingDivergedError) as err:
            clf.train(batches, model_cfg, clf.TrainSettings(epochs=3, seed=2,
                                                            val_fraction=0.0))
        assert err.value.epoch == 0
        with pytest.raises(dg.PipelineError) as err:
            dg.run_pipeline(t, lm.MappingKind.BINARY_FULL, cfg, model_cfg=model_cfg,
                            settings=clf.TrainSettings(epochs=3, seed=0), B=10, R=100)
    assert err.value.stage == "train"
    assert isinstance(err.value.original, clf.TrainingDivergedError)
