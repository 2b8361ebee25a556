"""Tests for the diagnostics pipeline: LPD, CI, permutation test, exports."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from discal import classifier as clf
from discal import diagnostics as dg
from discal import label_mapping as lm
from discal import sim_model as sm

import one_shot_reference


def make_mapped(bias=0.5, d=1, S=30, M=3, seed=0, kind=lm.MappingKind.BINARY_FULL,
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
    mapped = make_mapped()
    model = oracle_weight_model(1)
    lpd, scores = dg.lpd_val(clf.label_table(model, mapped, clf.UNWEIGHTED))
    # one score per run: the mean over its examples
    assert scores.shape == (len(mapped),)
    direct = []
    d = mapped.d_nonlinear
    for b in mapped:
        run = []
        for phi, t in zip(b.features, b.labels):
            p1 = expit(model.score(phi[None, :d], phi[None, d:]))[0]
            run.append(np.log(np.clip(p1 if t == 1 else 1.0 - p1,
                                      clf.PROB_CLAMP, 1.0 - clf.PROB_CLAMP)))
        direct.append(run)
    np.testing.assert_allclose(scores, np.mean(direct, axis=1), atol=1e-12)
    assert abs(lpd - np.mean(direct)) < 1e-12


def test_bootstrap_ci_basic_properties():
    rng = np.random.default_rng(0)
    scores = rng.standard_normal(50)     # one mean score per run
    lo, hi, widened = dg.bootstrap_ci(scores, R=500, seed=1)
    assert lo <= scores.mean() <= hi and not widened
    assert dg.bootstrap_ci(scores, R=500, seed=1) == (lo, hi, widened)
    lo3, hi3, _ = dg.bootstrap_ci(scores, R=500, seed=1, offset=2.0)
    assert abs(lo3 - (lo + 2.0)) < 1e-12 and abs(hi3 - (hi + 2.0)) < 1e-12
    with pytest.raises(sm.InvalidParameterError):
        dg.bootstrap_ci(scores, R=50)
    for alpha in (0.0, 1.0, 1.5, -0.05, float("nan")):
        with pytest.raises(sm.InvalidParameterError, match="alpha must be in"):
            dg.bootstrap_ci(scores, R=100, alpha=alpha)
    for few in (scores[:1], scores[:0]):
        with pytest.raises(sm.InvalidParameterError, match="at least 2 runs"):
            dg.bootstrap_ci(few, R=100)


def test_bootstrap_ci_flags_a_widened_interval():
    # one run of 100 holds all the mass: a replicate mean is 100 times a
    # Beta(1, 99) weight, whose 55% quantile (0.80) lies below the point
    # estimate 1, so the 10% band excludes it; the 95% band contains it
    scores = np.zeros(100)
    scores[-1] = 100.0
    lo, hi, widened = dg.bootstrap_ci(scores, R=1000, alpha=0.9)
    assert widened and hi == 1.0 and lo < 1.0
    lo, hi, widened = dg.bootstrap_ci(scores, R=1000, alpha=0.05)
    assert not widened and lo < 1.0 < hi


@pytest.mark.parametrize("S", [2, 1000, 2049])
@pytest.mark.parametrize("R", [100, 129, 1000, 1025])
def test_bootstrap_ci_in_blocks_gives_the_one_shot_bits(S, R):
    # blocks of 65 536, 128 and 64 replicates; R = 1025 and, at S = 2049,
    # R = 129 leave one replicate after the last full block
    scores = np.random.default_rng(S).standard_normal(S)
    for seed, offset in ((R, 0.0), (R + 1, math.log(2.0))):
        got = dg.bootstrap_ci(scores, R=R, seed=seed, offset=offset)
        assert got == one_shot_reference.bootstrap_ci(scores, R=R, seed=seed, offset=offset)


def test_bootstrap_ci_coverage_with_fixed_model():
    # a fixed (not trained) model removes training bias, so the CI should
    # cover the long-run weighted LPD close to its nominal 95% rate
    model = oracle_weight_model(1)
    scheme = clf.balanced_binary(3)
    big = make_mapped(bias=0.5, S=20000, seed=999)
    truth, _ = dg.lpd_val(clf.label_table(model, big, scheme))
    hits = 0
    n_rep = 60
    for rep in range(n_rep):
        mapped = make_mapped(bias=0.5, S=150, seed=1000 + rep)
        _, scores = dg.lpd_val(clf.label_table(model, mapped, scheme))
        lo, hi, _ = dg.bootstrap_ci(scores, R=400, seed=rep)
        hits += lo <= truth <= hi
    # binomial(60, 0.95) is above 50 with overwhelming probability
    assert hits >= 50


def test_permutation_test_is_within_batch():
    # model whose prediction depends only on y, which is shared within a
    # batch: within-batch permutations cannot change the LPD, so every
    # replicate ties with the observed value and p = 1 exactly (a global
    # permutation would mix mapped and break the tie)
    mapped = make_mapped(bias=1.0, S=6, features=())
    cfg = clf.ModelConfig(architecture=clf.ARCH_BINARY, input_dim=2,
                          hidden_sizes=(1,), n_linear_features=0)
    model = clf.Model(cfg, seed=0)
    model.set_params(np.array([0.0, 1.0, 0.0, 1.0, 0.0]))  # score = tanh(y)
    res = dg.permutation_test(clf.label_table(model, mapped), B=200, seed=4)
    np.testing.assert_allclose(res.lpd_permuted, res.lpd_observed, atol=1e-12)
    assert res.p_value == 1.0


def test_permutation_test_detects_signal():
    mapped = make_mapped(bias=2.0, S=60, seed=3)
    model = oracle_weight_model(1)
    T = clf.label_table(model, mapped, clf.balanced_binary(3))
    res = dg.permutation_test(T, B=500, seed=5)
    assert res.p_value < 0.01
    assert res.lpd_permuted.shape == (500,)


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


@pytest.mark.parametrize("scheme", [clf.UNWEIGHTED, clf.balanced_binary(6)],
                         ids=["unweighted", "balanced"])
def test_binary_replicates_match_the_per_example_loop(scheme):
    # a replicate relabels each run s with occupant j_s as theta: row j_s
    # gets label 0 and the others 1, scored from one class_log_probs matrix
    S, K, B, seed = 40, 7, 25, 8
    mapped = make_mapped(bias=0.7, d=2, S=S, M=K - 1, seed=4)
    model = clf.Model(clf.config_for_table(mapped, hidden_sizes=(4,)), seed=6)
    res = dg.permutation_test(clf.label_table(model, mapped, scheme), B=B, seed=seed)
    pos = np.random.default_rng(seed).integers(0, K, size=(B, S))  # one chunk of draws
    labels = np.ones((B, S, K), dtype=int)
    np.put_along_axis(labels, pos[:, :, None], 0, axis=2)
    L_raw = clf.class_log_probs(model, mapped).reshape(S, K, 2)
    np.testing.assert_allclose(res.lpd_permuted, loop_lpds(L_raw, labels, scheme),
                               rtol=0, atol=1e-12)
    assert abs(res.lpd_observed - loop_lpds(L_raw, [mapped.labels], scheme)[0]) < 1e-12


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
    mapped = lm.map_table(table, kind, cfg)
    model = clf.Model(clf.config_for_table(mapped, hidden_sizes=(4,)), seed=2)
    scheme = clf.UNWEIGHTED if kind is lm.MappingKind.MULTICLASS else clf.balanced_binary(M)
    res = dg.permutation_test(clf.label_table(model, mapped, scheme), B=B, seed=seed)
    # a gathered copy of the runs, in table order, gives the same bits
    gathered = clf.arrays_from_batches(mapped, np.arange(S))
    again = dg.permutation_test(clf.label_table(model, gathered, scheme), B=B, seed=seed)
    assert again.lpd_permuted.tobytes() == res.lpd_permuted.tobytes()
    draws = np.random.default_rng(seed).integers(0, M + 1, size=(B, S))
    assert len({tuple(row) for row in draws}) == B
    for b in range(B):
        swapped = lm.map_table(swap_theta(table, draws[b]), kind, cfg)
        lpd, _ = dg.lpd_val(clf.label_table(model, swapped, scheme))
        assert abs(lpd - res.lpd_permuted[b]) < 1e-12


@pytest.mark.parametrize("layout", ["binary", "multiclass"])
def test_permutation_test_observed_is_the_validation_lpd(layout):
    kind = lm.MappingKind.MULTICLASS if layout == "multiclass" else lm.MappingKind.BINARY_FULL
    mapped = make_mapped(bias=0.7, d=2, S=30, M=4, seed=2, kind=kind)
    data = clf.arrays_from_batches(mapped, np.arange(29, -1, -2))
    model = clf.Model(clf.config_for_table(mapped, hidden_sizes=(4,)), seed=1)
    scheme = clf.balanced_binary(4) if layout == "binary" else clf.UNWEIGHTED
    res = dg.permutation_test(clf.label_table(model, data, scheme), B=300, seed=9)
    lpd, _ = dg.lpd_val(clf.label_table(model, data, scheme))
    assert abs(res.lpd_observed - lpd) < 1e-12
    assert 0.0 <= res.p_value <= 1.0


def test_multiclass_permutation_p_is_uniform_under_the_null():
    # a fixed model on calibrated IID tables: p <= 0.05 has probability
    # ~0.05, so about 15 of 300 (binomial sd 3.8).  Permuting each run's
    # labels instead of redrawing theta's occupant gave 82.
    model, hits = None, 0
    for i in range(300):
        mapped = make_mapped(bias=0.0, d=2, S=30, M=4, seed=1000 + i,
                               kind=lm.MappingKind.MULTICLASS)
        if model is None:
            model = clf.Model(clf.config_for_table(mapped, hidden_sizes=(4,)), seed=1)
        T = clf.label_table(model, mapped)
        hits += dg.permutation_test(T, B=99, seed=i).p_value <= 0.05
    assert hits <= 27


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 3), S=st.integers(1, 12), M=st.integers(1, 6),
       multiclass=st.booleans(), weighted=st.booleans(), B=st.integers(1, 60),
       seed=st.integers(0, 2 ** 32 - 1))
def test_permutation_test_properties(d, S, M, multiclass, weighted, B, seed):
    kind = lm.MappingKind.MULTICLASS if multiclass else lm.MappingKind.BINARY_FULL
    mapped = make_mapped(bias=0.5, d=d, S=S, M=M, seed=seed % 1000, kind=kind)
    model = clf.Model(clf.config_for_table(mapped, hidden_sizes=(3,)), seed=seed)
    scheme = clf.balanced_binary(M) if weighted and not multiclass else clf.UNWEIGHTED
    res = dg.permutation_test(clf.label_table(model, mapped, scheme), B=B, seed=seed)
    again = dg.permutation_test(clf.label_table(model, mapped, scheme), B=B, seed=seed)
    assert 0.0 <= res.p_value <= 1.0
    assert res.p_value == round(res.p_value * B) / B  # k/B, as the nearest double
    assert res.lpd_permuted.shape == (B,)
    assert res.p_value == again.p_value and res.lpd_observed == again.lpd_observed
    assert res.lpd_permuted.tobytes() == again.lpd_permuted.tobytes()


def test_permutation_test_validation():
    mapped = make_mapped(S=4)
    model = oracle_weight_model(1)
    with pytest.raises(sm.InvalidParameterError):
        dg.permutation_test(clf.label_table(model, mapped), B=0)


@pytest.mark.parametrize("kind", [lm.MappingKind.BINARY_FULL, lm.MappingKind.MULTICLASS])
def test_zero_runs_raise_one_labelled_error_in_every_scorer(kind):
    # the hold-out loss, the LPD and the permutation test read one label table
    mapped = make_mapped(S=4, kind=kind)
    empty = clf.arrays_from_batches(mapped, [])
    model = clf.Model(clf.config_for_table(mapped, hidden_sizes=(3,)), seed=0)
    scorers = (clf.loss, lambda m, data: dg.lpd_val(clf.label_table(m, data)),
               lambda m, data: dg.permutation_test(clf.label_table(m, data)))
    for score in scorers:
        with pytest.raises(sm.InvalidParameterError, match="^cannot score a table of zero runs$"):
            score(model, empty)


def test_visual_export_layout_and_errors(tmp_path):
    mapped = make_mapped(S=5)
    model = oracle_weight_model(1)
    rows = dg.visual_export(model, mapped, coordinate=0)
    assert rows.shape == (20, 3)
    assert set(np.unique(rows[:, 2])) <= {0.0, 1.0}
    assert np.all((rows[:, 1] > 0) & (rows[:, 1] < 1))
    by_name = dg.visual_export(model, mapped, coordinate="log_p")
    np.testing.assert_array_equal(by_name[:, 0], mapped.x_lin[:, 0])
    np.testing.assert_array_equal(by_name[:, 2], mapped.labels)
    with pytest.raises(lm.ConfigurationError):
        dg.visual_export(model, mapped, coordinate=9)
    with pytest.raises(lm.ConfigurationError):
        dg.visual_export(model, mapped, coordinate="mystery")
    assert dg.check_visual(mapped, "log_q") == mapped.d_nonlinear + 1
    with pytest.raises(lm.ConfigurationError, match="binary models"):
        dg.check_visual(make_mapped(S=5, kind=lm.MappingKind.MULTICLASS), 0)
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


@pytest.mark.parametrize("coordinate", [0, "log_q"])
def test_visual_export_in_blocks_gives_the_one_shot_bits(monkeypatch, tmp_path, coordinate):
    # 107 runs of K = 3 rows: 321 rows, five blocks of 64 with the last
    # row joined to the fifth.  A block of one row, or blocks of 2, 3 or 7
    # rows, change the last bits here
    mapped = make_mapped(S=107, M=2, seed=5)
    model = clf.Model(clf.config_for_table(mapped, hidden_sizes=(16,)), seed=1)
    model.set_params(model.get_params()
                     + np.random.default_rng(2).normal(scale=0.5, size=model.params.size))
    width = clf.scoring_width(model, mapped.rows.shape[-1])
    monkeypatch.setattr(sm, "_CHUNK_ELEMENTS", 64 * width)
    assert [b.stop - b.start for b in sm.blocks(321, width)] == [64, 64, 64, 64, 65]
    rows = dg.visual_export(model, mapped, coordinate)
    want = one_shot_reference.visual_export(model, mapped, dg.check_visual(mapped, coordinate))
    np.testing.assert_array_equal(rows, want)
    # the CSV is formatted in blocks of 64 rows of three numbers
    monkeypatch.setattr(sm, "_CHUNK_ELEMENTS", 64 * 3)
    path = tmp_path / "visual.csv"
    dg.write_visual_csv(rows, str(path))
    assert path.read_text() == "coordinate,prediction,label\n" + "".join(
        "%.10g,%.10g,%d\n" % (coord, pred, int(lab)) for coord, pred, lab in want)


def test_visual_export_narrow_posterior_is_u_shaped():
    # variance_scale < 1: draws cluster tighter than the prior sample, so
    # the classifier's Pr(t=1) should dip at extreme theta and rise centrally
    c = sm.Corruption(variance_scale=0.5)
    t = sm.generate_gaussian_table(1, 800, 7, 1.0, c, seed=17, attach_densities=True)
    cfg = lm.FeatureConfig(linear_features=())
    mapped = lm.map_table(t, lm.MappingKind.BINARY_FULL, cfg)
    settings = clf.TrainSettings(learning_rate=0.02, epochs=40, seed=2,
                                 weight_scheme=clf.balanced_binary(7))
    model_cfg = clf.config_for_table(mapped, hidden_sizes=(16,))
    model = clf.train(mapped, np.arange(len(mapped)), model_cfg, settings)
    # visualize against the standardized residual theta - E[theta|y], the
    # coordinate along which the narrow-posterior signature shows
    resid = mapped.x_nl[:, 0] - mapped.x_nl[:, 1] / 2.0
    preds = dg.visual_export(model, mapped, coordinate=0)[:, 1]
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


def test_run_pipeline_reports_whether_the_ci_was_widened():
    t = sm.generate_gaussian_table(1, 40, 3, 1.0, sm.Corruption(bias=1.0), seed=8,
                                   attach_densities=True)
    cfg = lm.FeatureConfig(linear_features=("log_p", "log_q"))
    settings = clf.TrainSettings(learning_rate=0.01, epochs=3, seed=12,
                                 weight_scheme=clf.balanced_binary(3))
    # a 0.1% band around the bootstrap median misses the point estimate
    for alpha, widened in ((0.05, False), (0.999, True)):
        rep, test, _ = dg.run_pipeline(t, lm.MappingKind.BINARY_FULL, cfg,
                                       settings=settings, B=20, R=200, alpha=alpha)
        assert rep.ci_widened is widened
        assert (rep.divergence in (rep.ci_low, rep.ci_high)) is widened
        payload = json.loads(json.dumps(dg.report_to_dict(rep, test)))
        assert payload["ci_widened"] is widened
        assert ("CI was widened" in dg.format_report(payload)) is widened
    # a report stored before the flag existed still renders, with no note
    del payload["ci_widened"]
    assert "widened" not in dg.format_report(payload)


@pytest.mark.parametrize("B, R, alpha, stage, message", [
    (0, 100, 0.05, "permutation", "B must be >= 1"),
    (10, 99, 0.05, "estimate", "R must be >= 100"),
    (10, 100, 1.5, "estimate", "alpha must be in"),
    (10, 100, 0.0, "estimate", "alpha must be in"),
])
def test_run_pipeline_checks_its_counts_before_mapping(monkeypatch, B, R, alpha, stage,
                                                       message):
    t = sm.generate_gaussian_table(1, 20, 3, 1.0, sm.Corruption(), seed=0)

    def no_mapping(*args, **kwargs):
        raise AssertionError("mapped before the check")

    monkeypatch.setattr(lm, "map_table", no_mapping)
    with pytest.raises(dg.PipelineError, match=message) as err:
        dg.run_pipeline(t, lm.MappingKind.BINARY_FULL, lm.FeatureConfig(), B=B, R=R,
                        alpha=alpha)
    assert err.value.stage == stage


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(multiclass=st.booleans(), d=st.integers(1, 2), S=st.integers(10, 16),
       M=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_run_pipeline_is_deterministic_for_any_seed(multiclass, d, S, M, seed):
    kind = lm.MappingKind.MULTICLASS if multiclass else lm.MappingKind.BINARY_FULL
    t = sm.generate_gaussian_table(d, S, M, 1.0, sm.Corruption(bias=0.5), seed=seed % 997,
                                   attach_densities=True)
    cfg = lm.FeatureConfig(linear_features=("log_p",))
    model_cfg = clf.config_for_table(lm.map_table(t.take([0]), kind, cfg), hidden_sizes=(3,))
    settings = clf.TrainSettings(learning_rate=0.05, epochs=3, minibatch_size=7,
                                 seed=seed, val_fraction=0.3)
    runs = [dg.run_pipeline(t, kind, cfg, model_cfg=model_cfg, settings=settings,
                            B=30, R=100) for _ in range(2)]
    (rep1, test1, _), (rep2, test2, _) = runs
    assert dg.report_to_dict(rep1, test1) == dg.report_to_dict(rep2, test2)
    assert test1.lpd_permuted.tobytes() == test2.lpd_permuted.tobytes()


# report_to_dict's numbers for three fixed cases, to 1e-12: a change of the
# data layout or of a reduction order that moves any bit fails here
PINNED_REPORTS = {
    "binary_full": dict(
        lpd_val=-0.687998086017778, class_weights=[0.25, 0.75],
        entropy_offset=0.6931471805599453, divergence=0.005149094542167276,
        ci_low=-0.015960381902606943, ci_high=0.020138194188468565, ci_level=0.95,
        ci_widened=False, upper_bound=0.6931471805599453, n_val_examples=48,
        lpd_observed=-0.687998086017778, p_value=0.275, B=40),
    "binary_rank": dict(
        lpd_val=-0.5197937168809665, class_weights=[0.2, 0.8],
        entropy_offset=0.5004024235381879, divergence=-0.01939129334277867,
        ci_low=-0.057457015492989455, ci_high=0.024509473463130895, ci_level=0.95,
        ci_widened=False, upper_bound=0.5004024235381879, n_val_examples=50,
        lpd_observed=-0.5197937168809665, p_value=0.575, B=40),
    "multiclass": dict(
        lpd_val=-1.7195717285664986, class_weights=[1 / 6] * 6,
        entropy_offset=1.7917594692280547, divergence=0.07218774066155609,
        ci_low=-0.014252494040979367, ci_high=0.15615417042288796, ci_level=0.95,
        ci_widened=False, upper_bound=1.7917594692280547, n_val_examples=72,
        lpd_observed=-1.7195717285664982, p_value=0.15, B=40),
}


def pinned_case(name):
    """(table, kind, feature config, model config, settings) of a pinned case."""
    if name == "binary_full":
        t = sm.generate_gaussian_table(1, 60, 3, 1.0, sm.Corruption(bias=0.3), seed=11,
                                       attach_densities=True)
        return (t, lm.MappingKind.BINARY_FULL,
                lm.FeatureConfig(linear_features=("log_p", "log_q")),
                clf.ModelConfig(clf.ARCH_BINARY, input_dim=2, hidden_sizes=(4,),
                                n_linear_features=2),
                clf.TrainSettings(learning_rate=0.02, epochs=4, minibatch_size=32, seed=12,
                                  weight_scheme=clf.balanced_binary(3)))
    if name == "binary_rank":
        t = sm.generate_gaussian_table(1, 50, 4, 1.0, sm.Corruption(variance_scale=0.6),
                                       seed=21, attach_densities=True)
        return (t, lm.MappingKind.BINARY_RANK,
                lm.FeatureConfig(linear_features=("log_p", "rank")),
                clf.ModelConfig(clf.ARCH_BINARY, input_dim=1, hidden_sizes=(5,),
                                n_linear_features=2),
                clf.TrainSettings(learning_rate=0.02, epochs=4, minibatch_size=16, seed=22))
    # minibatch_size 4 < K = 6: one whole run per step
    t = sm.generate_gaussian_table(1, 40, 5, 1.0, sm.Corruption(bias=0.2), seed=31,
                                   attach_densities=True)
    return (t, lm.MappingKind.MULTICLASS,
            lm.FeatureConfig(linear_features=("log_p", "log_q")),
            clf.ModelConfig(clf.ARCH_MULTICLASS, input_dim=2, hidden_sizes=(4,),
                            n_linear_features=2, class_count=6),
            clf.TrainSettings(learning_rate=0.02, epochs=4, minibatch_size=4, seed=32,
                              val_fraction=0.3))


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_run_pipeline_reports_pinned_numbers(name):
    # a change of layout or of reduction order moves these bits; the
    # determinism test compares a run only with itself and would not notice
    table, kind, cfg, model_cfg, settings = pinned_case(name)
    rep, test, _ = dg.run_pipeline(table, kind, cfg, model_cfg=model_cfg, settings=settings,
                                   B=40, R=150)
    got = dg.report_to_dict(rep, test)
    want = PINNED_REPORTS[name]
    assert set(got) - {"config"} == set(want)
    for key, value in want.items():
        np.testing.assert_allclose(got[key], value, rtol=1e-12, atol=0, err_msg=key)
    assert got["ci_widened"] is want["ci_widened"]


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_one_statistic_gives_one_number(name, monkeypatch):
    # the validation LPD, the permutation test's observed LPD and minus the
    # hold-out loss on the validation runs all read column 0 of one label
    # table, so they are one number, bit for bit
    table, kind, cfg, model_cfg, settings = pinned_case(name)
    scored = []
    real_lpd_val = dg.lpd_val

    def recording_lpd_val(T):
        scored.append(T)
        return real_lpd_val(T)

    monkeypatch.setattr(dg, "lpd_val", recording_lpd_val)
    rep, test, model = dg.run_pipeline(table, kind, cfg, model_cfg=model_cfg,
                                       settings=settings, B=40, R=150)
    (T,) = scored
    assert rep.lpd_val == test.lpd_observed == clf.table_lpd(T)
    assert rep.n_val_examples == T.size


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_run_pipeline_scores_the_validation_runs_once(name, monkeypatch):
    # after training, one label table of the validation runs feeds the LPD,
    # its bootstrap and the permutation test
    table, kind, cfg, model_cfg, settings = pinned_case(name)
    scored, trained = [], []
    real_train, real_label_table = clf.train, clf.label_table

    def recording_train(*args):
        model = real_train(*args)
        trained.append(len(scored))
        return model

    def recording_label_table(model, mapped, scheme=clf.UNWEIGHTED, runs=None):
        scored.append((mapped, runs))
        return real_label_table(model, mapped, scheme, runs)

    monkeypatch.setattr(clf, "train", recording_train)
    monkeypatch.setattr(clf, "label_table", recording_label_table)
    rep, test, model = dg.run_pipeline(table, kind, cfg, model_cfg=model_cfg,
                                       settings=settings, B=40, R=150)
    (after_train,) = trained
    ((mapped, val_runs),) = scored[after_train:]
    assert len(val_runs) == int(settings.val_fraction * table.S)
    assert rep.lpd_val == -clf.loss(model, mapped, settings.weight_scheme, val_runs)


def test_run_pipeline_heap_peak_is_the_map_plus_a_fixed_allowance():
    # the map is the only array of the diagnosis that grows with the table:
    # the standardizer, every hold-out loss and the validation table read
    # it one block at a time.  The allowance holds a few blocks of
    # sim_model._CHUNK_ELEMENTS float64s (1 MB each), a step's rows and
    # train's two int64 indexes of the 129 280 fit rows (2 MB); the
    # standardizer's one gather alone held 8.3 MB, and the hold-out and
    # validation copies 2.6 and 3.2 MB more
    import tracemalloc
    table = sm.generate_gaussian_table(4, 2000, 100, 1.0, sm.Corruption(variance_scale=1.2),
                                       seed=1, attach_densities=True)
    settings = clf.TrainSettings(learning_rate=0.01, epochs=2, minibatch_size=1024,
                                 patience=3, seed=2, weight_scheme=clf.balanced_binary(100))
    model_cfg = clf.ModelConfig(clf.ARCH_BINARY, input_dim=8, hidden_sizes=(8,),
                                n_linear_features=2)
    cfg = lm.FeatureConfig(linear_features=("log_p", "log_q"))
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        dg.run_pipeline(table, lm.MappingKind.BINARY_FULL, cfg, model_cfg=model_cfg,
                        settings=settings, B=100, R=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    map_bytes = 2000 * 101 * 10 * 8
    assert peak - entry <= map_bytes + 5 * 2**20


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


@pytest.mark.parametrize("kind, scheme, message", [
    (lm.MappingKind.MULTICLASS, clf.balanced_binary(3), r"\(3\) does not fit a multiclass map"),
    (lm.MappingKind.BINARY_FULL, clf.balanced_binary(50), r"\(50\) does not fit a binary_full"),
    (lm.MappingKind.BINARY_NO_Y, clf.balanced_binary(2), r"\(2\) does not fit a binary_no_y"),
], ids=["multiclass", "binary-M-50", "binary-noy-M-2"])
def test_diagnose_refuses_a_weight_scheme_that_does_not_fit_the_map(monkeypatch, kind,
                                                                    scheme, message):
    # the balanced weights and the log 2 offset hold for binary runs of
    # M + 1 = 4 examples only; anything else is stopped before training
    mapped = make_mapped(M=3, kind=kind)
    trained = []
    monkeypatch.setattr(clf, "train", lambda *args: trained.append(args))
    with pytest.raises(dg.PipelineError, match=message) as err:
        dg.diagnose_mapped(mapped, settings=clf.TrainSettings(weight_scheme=scheme))
    assert err.value.stage == "train" and trained == []
    assert isinstance(err.value.original, sm.InvalidParameterError)


def test_diagnose_refuses_a_model_config_that_does_not_fit_the_map():
    mapped = make_mapped(kind=lm.MappingKind.MULTICLASS)
    binary = clf.ModelConfig(clf.ARCH_BINARY, input_dim=2, n_linear_features=2)
    with pytest.raises(dg.PipelineError, match="does not fit the mapped table") as err:
        dg.diagnose_mapped(mapped, model_cfg=binary, settings=clf.TrainSettings(epochs=1))
    assert err.value.stage == "train"
