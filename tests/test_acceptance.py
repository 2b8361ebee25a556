"""Acceptance suite: end-to-end statistical guarantees of the package.

Each test prints exactly one ``ACCEPTANCE <n> ...: PASS|FAIL`` line with the
measured quantities, then asserts.  The statistical criteria use fixed seeds
so the suite is deterministic.
"""

import math

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import chisquare, kstest

from discal import classifier as clf
from discal import diagnostics as dg
from discal import label_mapping as lm
from discal import oracle
from discal import sim_model as sm
from gaussian_reference import exact_gaussian_posterior


def verdict(n, name, ok, detail):
    print("ACCEPTANCE %d (%s): %s  [%s]" % (n, name, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (name, detail)


def spawn_seeds(seed, n):
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


# ---------------------------------------------------------------------------


def test_criterion_01_null_validity():
    # calibrated tables must give uniform p-values; KS distance of 200
    # p-values below the 1% critical value 0.115
    reps = 200
    pvals = np.empty(reps)
    cfg = lm.FeatureConfig(linear_features=("log_p", "log_q"))
    for i, (s_tab, s_pipe) in enumerate(zip(spawn_seeds(11, reps), spawn_seeds(12, reps))):
        table = sm.generate_gaussian_table(4, 300, 50, 1.0, sm.Corruption(),
                                           seed=s_tab, attach_densities=True)
        settings = clf.TrainSettings(learning_rate=0.01, epochs=3, seed=s_pipe,
                                     weight_scheme=clf.balanced_binary(50),
                                     patience=3)
        model_cfg = None
        _, test, _ = dg.run_pipeline(table, lm.MappingKind.BINARY_FULL, cfg,
                                     model_cfg=model_cfg,
                                     settings=settings, B=200, R=100)
        pvals[i] = test.p_value
    ks = kstest(pvals, "uniform").statistic
    verdict(1, "null validity", ks < 0.115, "KS distance %.4f < 0.115" % ks)


def test_criterion_02_permutation_atom_law():
    # with B=9 the null p-value lands uniformly on the 10 atoms {0,1/9,..,1}
    reps = 500
    B = 9
    counts = np.zeros(B + 1)
    cfg = lm.FeatureConfig(linear_features=("log_p", "log_q"))
    for s_tab, s_pipe in zip(spawn_seeds(21, reps), spawn_seeds(22, reps)):
        table = sm.generate_gaussian_table(1, 40, 3, 1.0, sm.Corruption(),
                                           seed=s_tab, attach_densities=True)
        settings = clf.TrainSettings(learning_rate=0.01, epochs=2, seed=s_pipe,
                                     weight_scheme=clf.balanced_binary(3))
        _, test, _ = dg.run_pipeline(table, lm.MappingKind.BINARY_FULL, cfg,
                                     settings=settings, B=B, R=100)
        counts[round(test.p_value * B)] += 1
    stat = chisquare(counts)
    verdict(2, "permutation atom law", stat.pvalue > 0.01,
            "chi2 p=%.4f > 0.01 over atoms %s" % (stat.pvalue, counts.astype(int)))


def test_criterion_03_divergence_recovery():
    # weighted binary estimate must recover the conditional JSD oracle
    table = sm.generate_gaussian_table(1, 5000, 5, 1.0, sm.Corruption(bias=1.0),
                                       seed=31, attach_densities=True)
    cfg = lm.FeatureConfig(linear_features=("log_p", "log_q"))
    settings = clf.TrainSettings(learning_rate=0.01, epochs=60, seed=32,
                                 minibatch_size=1024, patience=10,
                                 weight_scheme=clf.balanced_binary(5))
    model_cfg = clf.config_for_table(lm.map_table(table.take([0]),
                                                  lm.MappingKind.BINARY_FULL, cfg),
                                     hidden_sizes=(32,))
    report, _, _ = dg.run_pipeline(table, lm.MappingKind.BINARY_FULL, cfg,
                                   model_cfg=model_cfg, settings=settings,
                                   B=200, R=500)
    # the conditional pair is N(y/2, 1/2) vs N(y/2 + 1, 1/2) for every y
    p = sm.GaussianPosterior(np.array([0.0]), np.array([[0.5]]))
    q = sm.GaussianPosterior(np.array([1.0]), np.array([[0.5]]))
    jsd, se = oracle.jsd_conditional_mc(p, q, n_mc=10**6, seed=33)
    tol = max(0.1 * jsd, 0.02) + 3 * se
    err = abs(report.divergence - jsd)
    verdict(3, "divergence recovery", err < tol,
            "estimate %.4f vs oracle JSD %.4f (err %.4f < tol %.4f)"
            % (report.divergence, jsd, err, tol))


def test_criterion_04_big_m_convergence():
    # multiclass estimates grow toward KL from below; at M=31 the estimate
    # sits inside [KL - chi2/(2*31) - 0.03, KL]
    p = sm.GaussianPosterior(np.array([0.0]), np.array([[0.5]]))
    q = sm.GaussianPosterior(np.array([1.0]), np.array([[0.5]]))
    kl = oracle.kl_mvn(p, q)
    chi2, _ = oracle.chi2_gaussian(p, q)
    cfg = lm.FeatureConfig(linear_features=("log_p", "log_q"))
    Ms = (1, 3, 7, 15, 31)
    sizes = (6000, 6000, 6000, 7000, 8000)
    est = []
    ses = []
    for M, S, s_tab, s_pipe in zip(Ms, sizes, spawn_seeds(41, 5), spawn_seeds(42, 5)):
        table = sm.generate_gaussian_table(1, S, M, 1.0, sm.Corruption(bias=1.0),
                                           seed=s_tab, attach_densities=True)
        settings = clf.TrainSettings(learning_rate=0.01, epochs=30, seed=s_pipe,
                                     minibatch_size=512, patience=6,
                                     val_fraction=0.5)
        model_cfg = clf.config_for_table(lm.map_table(table.take([0]),
                                                      lm.MappingKind.MULTICLASS, cfg),
                                         hidden_sizes=(8,))
        report, _, _ = dg.run_pipeline(table, lm.MappingKind.MULTICLASS, cfg,
                                       model_cfg=model_cfg, settings=settings,
                                       B=100, R=500)
        est.append(report.divergence)
        ses.append((report.ci_high - report.ci_low) / 3.92)
    monotone = all(est[i + 1] >= est[i] - 2 * math.hypot(ses[i], ses[i + 1])
                   for i in range(len(Ms) - 1))
    lo = kl - chi2 / (2 * 31) - 0.03
    in_band = lo <= est[-1] <= kl
    verdict(4, "big-M convergence", monotone and in_band,
            "estimates %s monotone=%s, M=31 est %.4f in [%.4f, %.4f]"
            % (np.round(est, 4).tolist(), monotone, est[-1], lo, kl))


def test_criterion_05_rate_check_discrete():
    # |D4 - (KL - chi2/(2M))| must shrink by at least 3x from M=4 to M=32
    p = np.array([0.55, 0.45])
    q = np.array([0.5, 0.5])
    rows = oracle.d4_rate_check(p, q, [4, 8, 16, 32])
    res = [r["residual"] for r in rows]
    decreasing = all(b < a for a, b in zip(res, res[1:]))
    ratio = res[0] / res[-1]
    verdict(5, "big-M rate on discrete instance", decreasing and ratio >= 3.0,
            "residuals %s, ratio %.2f >= 3" % (np.format_float_scientific(res[0], 3)
                                               + ".." + np.format_float_scientific(res[-1], 3),
                                               ratio))


def test_criterion_06_divergence_ordering():
    # D4 >= D1 >= D3 >= D2 on 50 random tie-safe discrete instances.
    # Swapped-conditional instances keep the theta-marginal identical under
    # p and q (so D2 = 0 exactly); this sidesteps the discreteness artifact
    # where tie-splitting degrades the rank statistic below the marginal
    # mapping (see test_oracle.test_discrete_ties_can_invert_rank_vs_marginal_order)
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 4))
        M = int(rng.integers(1, 5))
        a = rng.dirichlet(np.ones(n))
        b = rng.dirichlet(np.ones(n))
        p = np.vstack([a, b])
        q = np.vstack([b, a])
        d = oracle.brute_force_divergences(p, q, M, py=np.array([0.5, 0.5]))
        worst = max(worst, d.d1 - d.d4, d.d3 - d.d1, d.d2 - d.d3)
    verdict(6, "divergence ordering", worst <= 1e-12,
            "worst ordering violation %.2e <= 1e-12" % worst)


def test_criterion_07_weighting_identity():
    # optimal weighted ELPD + log 2 equals the symmetric JSD exactly
    rng = np.random.default_rng(71)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        M = int(rng.integers(1, 8))
        lhs = oracle.optimal_weighted_elpd(p, q, M) + math.log(2.0)
        rhs = oracle.discrete_jsd(p, q)
        worst = max(worst, abs(lhs - rhs))
    verdict(7, "weighting identity", worst < 1e-10,
            "max |weighted ELPD + log2 - JSD| = %.2e < 1e-10" % worst)


def test_criterion_08_gradient_correctness():
    rng = np.random.default_rng(81)
    worst = 0.0
    for trial in range(100):
        kind = (lm.MappingKind.BINARY_FULL, lm.MappingKind.BINARY_NO_Y,
                lm.MappingKind.MULTICLASS)[trial % 3]
        d = int(rng.integers(1, 3))
        M = int(rng.integers(1, 4))
        feats = (("log_p", "log_q"), ())[trial % 2]
        table = sm.generate_gaussian_table(d, 4, M, 1.0,
                                           sm.Corruption(bias=0.5),
                                           seed=int(rng.integers(2**31)),
                                           attach_densities=True)
        mapped = lm.map_table(table, kind, lm.FeatureConfig(linear_features=feats))
        hidden = ((3,), (4, 3))[trial % 2]
        activation = ("tanh", "relu")[(trial // 2) % 2]
        cfg = clf.config_for_table(mapped, hidden_sizes=hidden,
                                     activation=activation)
        model = clf.Model(cfg, seed=int(rng.integers(2**31)))
        # move to a generic point: zero-initialized biases put stacked relu
        # units exactly on their kink, where the derivative is one-sided
        model.set_params(model.get_params() + rng.normal(scale=0.1,
                                                         size=model.get_params().size))
        scheme = (clf.UNWEIGHTED if kind is lm.MappingKind.MULTICLASS or trial % 5
                  else clf.balanced_binary(M))
        g = clf.gradient(model, mapped, scheme)
        p0 = model.get_params()
        fd = np.empty_like(p0)
        eps = 1e-6
        for i in range(p0.size):
            pp = p0.copy()
            pp[i] += eps
            model.set_params(pp)
            up = clf.loss(model, mapped, scheme)
            pp[i] -= 2 * eps
            model.set_params(pp)
            dn = clf.loss(model, mapped, scheme)
            fd[i] = (up - dn) / (2 * eps)
        model.set_params(p0)
        rel = np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12)
        worst = max(worst, rel)
    verdict(8, "gradient correctness", worst < 1e-5,
            "max relative error %.2e < 1e-5 over 100 pairs" % worst)


def _classifier_rejects(table, seed, epochs, M):
    cfg = lm.FeatureConfig(linear_features=("log_p", "log_q"))
    settings = clf.TrainSettings(learning_rate=0.01, epochs=epochs, seed=seed,
                                 minibatch_size=1024, patience=3,
                                 weight_scheme=clf.balanced_binary(M))
    model_cfg = clf.config_for_table(lm.map_table(table.take([0]),
                                                  lm.MappingKind.BINARY_FULL, cfg),
                                     hidden_sizes=(8,))
    _, test, _ = dg.run_pipeline(table, lm.MappingKind.BINARY_FULL, cfg,
                                 model_cfg=model_cfg, settings=settings,
                                 B=200, R=100)
    return test.p_value < 0.05


def test_criterion_09_power_dominance():
    # variance corruption: classifier test at least as powerful as the SBC
    # rank test with Bonferroni correction, at the same 5% level
    reps = 200
    rej_clf = 0
    rej_sbc = 0
    c = sm.Corruption(variance_scale=1.2)
    for s_tab, s_pipe, s_sbc in zip(spawn_seeds(91, reps), spawn_seeds(92, reps),
                                    spawn_seeds(93, reps)):
        table = sm.generate_gaussian_table(4, 1000, 100, 1.0, c, seed=s_tab,
                                           attach_densities=True)
        rej_clf += _classifier_rejects(table, s_pipe, epochs=10, M=100)
        _, reject = oracle.sbc_rank_test(table, alpha=0.05, seed=s_sbc)
        rej_sbc += reject
    power_clf = rej_clf / reps
    power_sbc = rej_sbc / reps

    # counterexample: q = prior leaves every rank uniform, so the rank-only
    # mapping is blind while the (theta, y) classifier sees the miscalibration
    reps2 = 30
    hits_full = 0
    hits_rank = 0
    for s_tab, s_pipe in zip(spawn_seeds(94, reps2), spawn_seeds(95, reps2)):
        table = _prior_q_table(d=1, S=600, M=10, sigma2=1.0, seed=s_tab)
        feat = lm.FeatureConfig(linear_features=())
        settings = clf.TrainSettings(learning_rate=0.01, epochs=20, seed=s_pipe,
                                     weight_scheme=clf.balanced_binary(10),
                                     patience=5)
        mcfg = clf.config_for_table(lm.map_table(table.take([0]),
                                                 lm.MappingKind.BINARY_FULL, feat),
                                    hidden_sizes=(8,))
        _, test_full, _ = dg.run_pipeline(table, lm.MappingKind.BINARY_FULL, feat,
                                          model_cfg=mcfg, settings=settings,
                                          B=200, R=100)
        hits_full += test_full.p_value < 0.05
        mcfg_r = clf.config_for_table(lm.map_table(table.take([0]),
                                                   lm.MappingKind.BINARY_RANK, feat),
                                      hidden_sizes=(8,))
        _, test_rank, _ = dg.run_pipeline(table, lm.MappingKind.BINARY_RANK, feat,
                                          model_cfg=mcfg_r, settings=settings,
                                          B=200, R=100)
        hits_rank += test_rank.p_value < 0.05
    power_full = hits_full / reps2
    power_rank = hits_rank / reps2
    ok = (power_clf >= power_sbc) and power_full > 0.9 and power_rank < 0.2
    verdict(9, "power dominance", ok,
            "classifier %.3f >= sbc %.3f; counterexample full %.2f > 0.9, "
            "rank %.2f < 0.2" % (power_clf, power_sbc, power_full, power_rank))


def _prior_q_table(d, S, M, sigma2, seed):
    """Table whose draws come from the prior instead of any posterior."""
    children = np.random.SeedSequence(seed).spawn(S)
    theta, y, draws = np.empty((S, d)), np.empty((S, d)), np.empty((S, M, d))
    log_p, log_q = np.empty((S, M + 1)), np.empty((S, M + 1))
    prior = sm.GaussianPosterior(np.zeros(d), np.eye(d))
    for i, ss in enumerate(children):
        rng = np.random.default_rng(ss)
        theta[i] = rng.standard_normal(d)
        y[i] = theta[i] + math.sqrt(sigma2) * rng.standard_normal(d)
        draws[i] = prior.sample(M, rng)
        pts = np.vstack([theta[i][None, :], draws[i]])
        post = exact_gaussian_posterior(y[i], sigma2)
        log_p[i] = post.logpdf(pts)
        log_q[i] = prior.logpdf(pts)
    return sm.SimulationTable(theta, y, draws, log_p, log_q)


def test_criterion_10_zero_waste_mcmc():
    # AR(1) rho=0.9 draws and IID draws from the same corrupted posterior
    # must give separable-multiclass divergence estimates that agree within
    # two combined standard errors
    def arm(rho, seed_tab, seed_pipe):
        table = sm.generate_gaussian_table(1, 2400, 32, 1.0,
                                           sm.Corruption(bias=0.1),
                                           seed=seed_tab, attach_densities=True,
                                           rho=rho)
        cfg = lm.FeatureConfig(linear_features=("log_p", "log_q"))
        settings = clf.TrainSettings(learning_rate=0.01, epochs=20, seed=seed_pipe,
                                     minibatch_size=512, patience=6,
                                     val_fraction=0.5)
        report, _, _ = dg.run_pipeline(table, lm.MappingKind.MULTICLASS, cfg,
                                       settings=settings, B=100, R=1000)
        return report.divergence, (report.ci_high - report.ci_low) / 3.92

    d_iid, se_iid = arm(0.0, 101, 102)
    d_ar, se_ar = arm(0.9, 201, 202)
    diff = abs(d_ar - d_iid)
    thresh = 2 * math.hypot(se_iid, se_ar)
    verdict(10, "zero-waste autocorrelated draws", diff <= thresh,
            "AR %.4f vs IID %.4f: |diff| %.4f <= 2*combined SE %.4f"
            % (d_ar, d_iid, diff, thresh))


def test_criterion_11_oracle_attainability():
    # zero MLP with w = (1, -1) on (log_p, log_q) scores log p - log q, so
    # sigmoid reproduces the Bayes label-0 probability p/(p+q) exactly
    table = sm.generate_gaussian_table(2, 250, 3, 1.0,
                                       sm.Corruption(bias=0.5, variance_scale=1.3),
                                       seed=111, attach_densities=True)
    cfg = lm.FeatureConfig(linear_features=("log_p", "log_q"))
    data = lm.map_table(table, lm.MappingKind.BINARY_FULL, cfg)
    assert data.labels.size == 1000
    model_cfg = clf.ModelConfig(architecture=clf.ARCH_BINARY, input_dim=4,
                                hidden_sizes=(16, 16), n_linear_features=2)
    model = clf.Model(model_cfg, seed=0)
    params = np.zeros(model.get_params().size)
    params[-2:] = [1.0, -1.0]
    model.set_params(params)
    preds = expit(model.score(data.x_nl, data.x_lin))
    bayes0 = expit(data.x_lin[:, 0] - data.x_lin[:, 1])  # p/(p+q)
    err = np.max(np.abs(preds - bayes0))
    verdict(11, "oracle-classifier attainability", err < 1e-12,
            "max |sigmoid(log p - log q) - p/(p+q)| = %.2e < 1e-12" % err)
