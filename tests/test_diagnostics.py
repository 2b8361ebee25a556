"""Tests for the diagnostics pipeline: LPD, CI, permutation test, exports."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discal import classifier as clf
from discal import diagnostics as dg
from discal import label_mapping as lm
from discal import sim_model as sm


def make_batches(bias=0.5, d=1, S=30, M=3, seed=0, kind=lm.MappingKind.BINARY_FULL,
                 features=("log_p", "log_q")):
    c = sm.Corruption(bias=bias)
    t = sm.generate_gaussian_table(d, S, M, 1.0, c, seed=seed, attach_densities=True)
    cfg = lm.FeatureConfig(linear_features=features)
    return lm.map_table(t, kind, cfg, seed=seed)


def oracle_weight_model(d):
    """Binary model with zero MLP and w = (-1, 1) on (log_p, log_q).

    Pr(t=1) = sigmoid(log q - log p) = q/(p+q), the Bayes classifier.
    """
    cfg = clf.ModelConfig(architecture=clf.ARCH_BINARY, input_dim=2 * d,
                          hidden_sizes=(1,), n_linear_features=2)
    model = clf.Model(cfg, seed=0)
    params = np.zeros(model.get_params().size)
    params[-2:] = [-1.0, 1.0]
    model.set_params(params)
    return model


def test_entropy():
    assert abs(dg.entropy([0.5, 0.5]) - math.log(2)) < 1e-15
    assert dg.entropy([1.0, 0.0]) == 0.0
    assert abs(dg.entropy(np.full(4, 0.25)) - math.log(4)) < 1e-15


def test_divergence_estimate_offsets():
    rep = dg.divergence_estimate(-0.6, clf.UNWEIGHTED, [0.25, 0.75])
    expected = -0.6 + dg.entropy([0.25, 0.75])
    assert abs(rep.divergence - expected) < 1e-15
    assert abs(rep.upper_bound - dg.entropy([0.25, 0.75])) < 1e-15
    rep_w = dg.divergence_estimate(-0.6, clf.balanced_binary(3), [0.25, 0.75])
    assert abs(rep_w.divergence - (-0.6 + math.log(2))) < 1e-15
    assert abs(rep_w.upper_bound - math.log(2)) < 1e-15


def test_lpd_val_against_direct_computation():
    batches = make_batches()
    model = oracle_weight_model(1)
    lpd, scores = dg.lpd_val(model, batches, clf.UNWEIGHTED)
    assert scores.size == sum(b.n_examples for b in batches)
    direct = []
    for b in batches:
        for phi, t in zip(b.features, b.labels):
            p1 = clf.forward_binary(model, phi)
            direct.append(np.log(np.clip(p1 if t == 1 else 1.0 - p1,
                                         clf.PROB_CLAMP, 1.0 - clf.PROB_CLAMP)))
    np.testing.assert_allclose(scores, direct, atol=1e-12)
    assert abs(lpd - np.mean(direct)) < 1e-12


def test_bootstrap_ci_basic_properties():
    rng = np.random.default_rng(0)
    scores = rng.standard_normal(200)
    ids = np.repeat(np.arange(50), 4)
    lo, hi = dg.bootstrap_ci(scores, ids, R=500, seed=1)
    assert lo <= scores.mean() <= hi
    lo2, hi2 = dg.bootstrap_ci(scores, ids, R=500, seed=1)
    assert (lo, hi) == (lo2, hi2)
    lo3, hi3 = dg.bootstrap_ci(scores, ids, R=500, seed=1, offset=2.0)
    assert abs(lo3 - (lo + 2.0)) < 1e-12 and abs(hi3 - (hi + 2.0)) < 1e-12
    with pytest.raises(sm.InvalidParameterError):
        dg.bootstrap_ci(scores, ids, R=50)
    with pytest.raises(sm.InvalidParameterError):
        dg.bootstrap_ci(scores[:4], np.zeros(4), R=100)


def test_bootstrap_ci_coverage_with_fixed_model():
    # a fixed (not trained) model removes training bias, so the CI should
    # cover the long-run weighted LPD close to its nominal 95% rate
    model = oracle_weight_model(1)
    scheme = clf.balanced_binary(3)
    big = make_batches(bias=0.5, S=20000, seed=999)
    truth, _ = dg.lpd_val(model, big, scheme)
    hits = 0
    n_rep = 60
    for rep in range(n_rep):
        batches = make_batches(bias=0.5, S=150, seed=1000 + rep)
        _, scores = dg.lpd_val(model, batches, scheme)
        ids = clf.arrays_from_batches(batches).batch_ids
        lo, hi = dg.bootstrap_ci(scores, ids, R=400, seed=rep)
        hits += lo <= truth <= hi
    # binomial(60, 0.95) is above 50 with overwhelming probability
    assert hits >= 50


def test_permutation_test_is_within_batch():
    # model whose prediction depends only on y, which is shared within a
    # batch: within-batch permutations cannot change the LPD, so every
    # replicate ties with the observed value and p = 1 exactly (a global
    # permutation would mix batches and break the tie)
    batches = make_batches(bias=1.0, S=6, features=())
    cfg = clf.ModelConfig(architecture=clf.ARCH_BINARY, input_dim=2,
                          hidden_sizes=(1,), n_linear_features=0)
    model = clf.Model(cfg, seed=0)
    model.set_params(np.array([0.0, 1.0, 0.0, 1.0, 0.0]))  # score = tanh(y)
    res = dg.permutation_test(model, batches, B=200, seed=4)
    np.testing.assert_allclose(res.lpd_permuted, res.lpd_observed, atol=1e-12)
    assert res.p_value == 1.0


def test_permutation_test_detects_signal():
    batches = make_batches(bias=2.0, S=60, seed=3)
    model = oracle_weight_model(1)
    res = dg.permutation_test(model, batches, clf.balanced_binary(3), B=500, seed=5)
    assert res.p_value < 0.01
    assert res.lpd_permuted.shape == (500,)


def test_permutation_test_unequal_batch_sizes():
    batches = make_batches(bias=1.5, S=40, seed=6)
    model = oracle_weight_model(1)
    data = clf.arrays_from_batches(batches)
    # one M per table gives equal batch sizes; anything else is rejected
    trimmed = data.take(np.arange(1, data.labels.size))
    with pytest.raises(sm.InvalidParameterError):
        dg.permutation_test(model, trimmed, B=300, seed=7)


def loop_lpds(L_raw, labels_per_draw, scheme):
    """The per-replicate reference: example_weights, a gather and a mean."""
    logp = L_raw.reshape(-1, L_raw.shape[-1])
    n = logp.shape[0]
    out = []
    for lab in labels_per_draw:
        lab = lab.reshape(-1)
        w = clf.example_weights(lab, scheme)
        out.append(float(np.mean(w * logp[np.arange(n), lab])))
    return np.array(out)


@pytest.mark.parametrize("C, K, zeros, scheme", [
    (2, 7, 1, clf.UNWEIGHTED),
    (2, 7, 1, clf.balanced_binary(6)),
])
def test_gathered_replicates_match_the_loop(C, K, zeros, scheme):
    # fixed draws, both as the gather sees them and as the labels they give
    rng = np.random.default_rng(C * 100 + K)
    S, n_draws = 40, 25
    L_raw = np.log(rng.dirichlet(np.ones(C), size=S * K)).reshape(S, K, C)
    lab = np.ones((S, K), dtype=int)
    lab[:, :zeros] = 0
    lab = rng.permuted(lab, axis=1)
    c, delta, theta_at = dg._run_terms(L_raw, lab, scheme, multiclass=False)
    pos = rng.integers(0, K, size=(n_draws, S))
    labels = np.ones((n_draws, S, K), dtype=int)
    np.put_along_axis(labels, pos[:, :, None], 0, axis=2)
    np.testing.assert_allclose(dg._replicate_lpds(c, delta, pos),
                               loop_lpds(L_raw, labels, scheme), rtol=0, atol=1e-12)
    np.testing.assert_allclose(dg._replicate_lpds(c, delta, theta_at[None]),
                               loop_lpds(L_raw, lab[None], scheme), rtol=0, atol=1e-12)


def swap_theta(table, j):
    """The table with theta and occupant j[s] swapped in every run s.

    Occupant 0 is theta and occupant j >= 1 is draw j; log_p and log_q move
    with their occupants.
    """
    runs = np.arange(table.S)

    def swapped(a):
        a = a.copy()
        a[runs, 0], a[runs, j] = a[runs, j], a[runs, 0]
        return a

    occupants = swapped(np.concatenate([table.theta[:, None], table.draws], axis=1))
    return sm.SimulationTable(occupants[:, 0], table.y, occupants[:, 1:],
                              swapped(table.log_p), swapped(table.log_q), table.run_ids)


@pytest.mark.parametrize("kind", [lm.MappingKind.BINARY_FULL, lm.MappingKind.MULTICLASS])
def test_a_replicate_is_the_lpd_of_a_swapped_table(kind):
    # replicate b draws occupant j_s of each run s to play theta; moving j_s
    # into theta's place in the table itself must give the same LPD
    S, M, B, seed = 12, 4, 6, 3
    table = sm.generate_gaussian_table(2, S, M, 1.0, sm.Corruption(bias=0.7), seed=5,
                                       attach_densities=True)
    cfg = lm.FeatureConfig(linear_features=("log_p", "log_q"))
    batches = lm.map_table(table, kind, cfg)
    model = clf.Model(clf.config_for_batches(batches, hidden_sizes=(4,)), seed=2)
    scheme = clf.UNWEIGHTED if kind is lm.MappingKind.MULTICLASS else clf.balanced_binary(M)
    res = dg.permutation_test(model, batches, scheme, B=B, seed=seed)
    draws = np.random.default_rng(seed).integers(0, M + 1, size=(B, S))
    assert len({tuple(row) for row in draws}) == B
    for b in range(B):
        lpd, _ = dg.lpd_val(model, lm.map_table(swap_theta(table, draws[b]), kind, cfg),
                            scheme)
        assert abs(lpd - res.lpd_permuted[b]) < 1e-12


@pytest.mark.parametrize("layout", ["binary", "multiclass", "two_zeros"])
def test_permutation_test_observed_is_the_validation_lpd(layout):
    kind = lm.MappingKind.MULTICLASS if layout == "multiclass" else lm.MappingKind.BINARY_FULL
    batches = make_batches(bias=0.7, d=2, S=30, M=4, seed=2, kind=kind)
    data = clf.arrays_from_batches(batches)
    model = clf.Model(clf.config_for_batches(batches, hidden_sizes=(4,)), seed=1)
    scheme = clf.balanced_binary(4) if layout == "binary" else clf.UNWEIGHTED
    if layout == "two_zeros":
        # a binary run scores one theta; a second label-0 row is rejected
        labels = data.labels.copy()
        labels[1::data.rows.shape[1]] = 0  # row 1 of every run takes label 0 too
        with pytest.raises(sm.InvalidParameterError, match="exactly one label-0 row"):
            dg.permutation_test(model, dataclasses.replace(data, labels=labels), scheme)
        return
    res = dg.permutation_test(model, data, scheme, B=300, seed=9)
    lpd, _ = dg.lpd_val(model, data, scheme)
    assert abs(res.lpd_observed - lpd) < 1e-12
    assert 0.0 <= res.p_value <= 1.0


def test_permutation_test_rejects_multiclass_labels_out_of_order():
    batches = make_batches(bias=0.7, d=2, S=10, M=4, seed=2, kind=lm.MappingKind.MULTICLASS)
    data = clf.arrays_from_batches(batches)
    model = clf.Model(clf.config_for_batches(batches, hidden_sizes=(4,)), seed=1)
    swapped = data.take(np.arange(data.labels.size).reshape(-1, 5)[:, [1, 0, 2, 3, 4]].ravel())
    with pytest.raises(sm.InvalidParameterError, match="labelled 0..K-1 in order"):
        dg.permutation_test(model, swapped)


def test_multiclass_permutation_p_is_uniform_under_the_null():
    # a fixed model on calibrated IID tables: p <= 0.05 has probability
    # ~0.05, so about 15 of 300 (binomial sd 3.8).  Permuting each run's
    # labels instead of redrawing theta's occupant gave 82.
    model, hits = None, 0
    for i in range(300):
        batches = make_batches(bias=0.0, d=2, S=30, M=4, seed=1000 + i,
                               kind=lm.MappingKind.MULTICLASS)
        if model is None:
            model = clf.Model(clf.config_for_batches(batches, hidden_sizes=(4,)), seed=1)
        hits += dg.permutation_test(model, batches, B=99, seed=i).p_value <= 0.05
    assert hits <= 27


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 3), S=st.integers(1, 12), M=st.integers(1, 6),
       multiclass=st.booleans(), weighted=st.booleans(), B=st.integers(1, 60),
       seed=st.integers(0, 2 ** 32 - 1))
def test_permutation_test_properties(d, S, M, multiclass, weighted, B, seed):
    kind = lm.MappingKind.MULTICLASS if multiclass else lm.MappingKind.BINARY_FULL
    batches = make_batches(bias=0.5, d=d, S=S, M=M, seed=seed % 1000, kind=kind)
    model = clf.Model(clf.config_for_batches(batches, hidden_sizes=(3,)), seed=seed)
    scheme = clf.balanced_binary(M) if weighted and not multiclass else clf.UNWEIGHTED
    res = dg.permutation_test(model, batches, scheme, B=B, seed=seed)
    again = dg.permutation_test(model, batches, scheme, B=B, seed=seed)
    assert 0.0 <= res.p_value <= 1.0
    assert res.p_value == round(res.p_value * B) / B  # k/B, as the nearest double
    assert res.lpd_permuted.shape == (B,)
    assert res.p_value == again.p_value and res.lpd_observed == again.lpd_observed
    assert res.lpd_permuted.tobytes() == again.lpd_permuted.tobytes()


def test_permutation_test_validation():
    batches = make_batches(S=4)
    model = oracle_weight_model(1)
    with pytest.raises(sm.InvalidParameterError):
        dg.permutation_test(model, batches, B=0)


def test_visual_export_layout_and_errors(tmp_path):
    batches = make_batches(S=5)
    model = oracle_weight_model(1)
    rows = dg.visual_export(model, batches, coordinate=0)
    assert rows.shape == (20, 3)
    assert set(np.unique(rows[:, 2])) <= {0.0, 1.0}
    assert np.all((rows[:, 1] > 0) & (rows[:, 1] < 1))
    by_name = dg.visual_export(model, batches, coordinate="log_p")
    data = clf.arrays_from_batches(batches)
    np.testing.assert_allclose(by_name[:, 0], data.x_lin[:, 0])
    with pytest.raises(lm.ConfigurationError):
        dg.visual_export(model, batches, coordinate=9)
    with pytest.raises(lm.ConfigurationError):
        dg.visual_export(model, batches, coordinate="mystery")
    path = tmp_path / "visual.csv"
    dg.write_visual_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "coordinate,prediction,label"
    assert len(lines) == 21


def test_write_visual_csv_matches_the_per_row_format(tmp_path):
    rows = np.array([[-3.5, 1e-300, 0.0], [1e300, 0.999999999999, 1.0],
                     [-0.0, 0.5, 1.0], [123456789012.0, 2.5e-17, 0.0],
                     [7.0, 1.0, 1.0], [-1.2345678901234e-8, 0.3333333333333333, 0.0]])
    path = tmp_path / "visual.csv"
    dg.write_visual_csv(rows, str(path))
    expected = "coordinate,prediction,label\n" + "".join(
        "%.10g,%.10g,%d\n" % (coord, pred, int(lab)) for coord, pred, lab in rows)
    assert path.read_bytes() == expected.encode()
    dg.write_visual_csv(rows[:0], str(path))
    assert path.read_text() == "coordinate,prediction,label\n"


def test_visual_export_narrow_posterior_is_u_shaped():
    # variance_scale < 1: draws cluster tighter than the prior sample, so
    # the classifier's Pr(t=1) should dip at extreme theta and rise centrally
    c = sm.Corruption(variance_scale=0.5)
    t = sm.generate_gaussian_table(1, 800, 7, 1.0, c, seed=17, attach_densities=True)
    cfg = lm.FeatureConfig(linear_features=())
    batches = lm.map_table(t, lm.MappingKind.BINARY_FULL, cfg)
    settings = clf.TrainSettings(learning_rate=0.02, epochs=40, seed=2,
                                 weight_scheme=clf.balanced_binary(7))
    model_cfg = clf.config_for_batches(batches, hidden_sizes=(16,))
    model = clf.train(batches, model_cfg, settings)
    # visualize against the standardized residual theta - E[theta|y], the
    # coordinate along which the narrow-posterior signature shows
    data = clf.arrays_from_batches(batches)
    resid = data.x_nl[:, 0] - data.x_nl[:, 1] / 2.0
    preds = dg.visual_export(model, batches, coordinate=0)[:, 1]
    inner = np.abs(resid) < 0.4
    outer = np.abs(resid) > 1.2
    assert preds[inner].mean() > preds[outer].mean()


def test_run_pipeline_smoke_and_determinism():
    c = sm.Corruption(bias=1.0)
    t = sm.generate_gaussian_table(1, 80, 3, 1.0, c, seed=8, attach_densities=True)
    cfg = lm.FeatureConfig(linear_features=("log_p", "log_q"))
    settings = clf.TrainSettings(learning_rate=0.01, epochs=5, seed=12,
                                 weight_scheme=clf.balanced_binary(3))
    out1 = dg.run_pipeline(t, lm.MappingKind.BINARY_FULL, cfg,
                           settings=settings, B=200, R=200)
    out2 = dg.run_pipeline(t, lm.MappingKind.BINARY_FULL, cfg,
                           settings=settings, B=200, R=200)
    rep1, test1, model1 = out1
    rep2, test2, _ = out2
    assert rep1.divergence == rep2.divergence
    assert test1.p_value == test2.p_value
    assert rep1.ci_low <= rep1.divergence <= rep1.ci_high
    assert rep1.divergence <= rep1.upper_bound + 1e-9
    assert model1.config.architecture == clf.ARCH_BINARY
    payload = dg.report_to_dict(rep1, test1, config_echo={"seed": 12})
    text = dg.format_report(payload)
    assert "divergence estimate" in text and "permutation p-value" in text


def test_run_pipeline_stage_errors():
    c = sm.Corruption()
    t = sm.generate_gaussian_table(2, 20, 3, 1.0, c, seed=0)
    with pytest.raises(dg.PipelineError) as err:
        dg.run_pipeline(t, lm.MappingKind.BINARY_RANK, lm.FeatureConfig())
    assert err.value.stage == "map"  # rank mapping needs a scalar coordinate
    tiny = sm.generate_gaussian_table(1, 1, 3, 1.0, c, seed=0)
    with pytest.raises(dg.PipelineError) as err2:
        dg.run_pipeline(tiny, lm.MappingKind.BINARY_FULL, lm.FeatureConfig())
    assert err2.value.stage == "split"
