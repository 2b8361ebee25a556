"""Tests for the classifier core: forward passes, gradients, training."""

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


def test_predict_log_prob_matches_batch_forward():
    for kind in (lm.MappingKind.BINARY_FULL, lm.MappingKind.MULTICLASS):
        batches = make_batches(kind, d=2, S=4, M=3)
        cfg = clf.config_for_batches(batches, hidden_sizes=(4,))
        model = clf.Model(cfg, seed=9)
        data = clf.arrays_from_batches(batches)
        expected = clf.class_log_probs(model, data)[np.arange(data.labels.size),
                                                   data.labels]
        got = [clf.predict_log_prob(model, ex)
               for b in batches for ex in b.examples]
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
    data = clf.ExampleArrays(multiclass=False,
                             x_nl=np.zeros((data.labels.size, 0)),
                             x_lin=data.x_lin, labels=data.labels,
                             batch_ids=data.batch_ids, n_classes=2)
    assert np.isfinite(clf.loss(model, data))
