"""Tests for the closed-form / brute-force oracles and the SBC baseline."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2, chisquare, norm

from discal import label_mapping as lm
from discal import oracle
from discal import sim_model as sm


def gauss(mean, var):
    return sm.GaussianPosterior(np.atleast_1d(mean),
                                np.atleast_2d(var))


def test_kl_mvn_closed_form():
    # 1-d: KL = 0.5*(s_p/s_q + (dm)^2/s_q - 1 + log(s_q/s_p))
    p = gauss(1.0, 0.5)
    q = gauss(0.0, 2.0)
    expected = 0.5 * (0.5 / 2.0 + 1.0 / 2.0 - 1.0 + math.log(4.0))
    assert abs(oracle.kl_mvn(p, q) - expected) < 1e-12
    assert oracle.kl_mvn(p, p) == 0.0
    with pytest.raises(sm.InvalidParameterError):
        oracle.kl_mvn(p, sm.GaussianPosterior(np.zeros(2), np.eye(2)))


def test_chi2_gaussian_equal_covariance_closed_form():
    p = gauss(1.5, 0.7)
    q = gauss(0.0, 0.7)
    val, se = oracle.chi2_gaussian(p, q)
    assert se == 0.0
    assert abs(val - math.expm1(1.5 ** 2 / 0.7)) < 1e-12


def test_chi2_gaussian_mc_matches_analytic_unequal_variance():
    # 1-d zero-mean: chi2 + 1 = b / sqrt(a*(2b - a)) for variances a, b
    p = gauss(0.0, 1.0)
    q = gauss(0.0, 2.0)
    truth = 2.0 / math.sqrt(3.0) - 1.0
    val, se = oracle.chi2_gaussian(p, q, n_mc=2 * 10**5, seed=3)
    assert se > 0
    assert abs(val - truth) < max(4 * se, 1e-3)


def test_chi2_gaussian_divergent_integral():
    p = gauss(0.0, 1.0)
    q = gauss(0.0, 0.4)  # 2/s_p - 1/s_q = -0.5 < 0
    with pytest.warns(RuntimeWarning):
        val, se = oracle.chi2_gaussian(p, q)
    assert math.isinf(val) and math.isinf(se)


def test_jsd_conditional_mc_against_quadrature():
    p = gauss(1.0, 0.5)
    q = gauss(0.0, 0.5)

    def integrand(x, dist, other, w):
        fp = norm.pdf(x, 1.0, math.sqrt(0.5))
        fq = norm.pdf(x, 0.0, math.sqrt(0.5))
        f = fp if dist == "p" else fq
        r = w * fp + (1 - w) * fq
        return f * math.log(f / r) if f > 0 else 0.0

    truth = (0.5 * quad(lambda x: integrand(x, "p", "q", 0.5), -15, 15)[0]
             + 0.5 * quad(lambda x: integrand(x, "q", "p", 0.5), -15, 15)[0])
    est, se = oracle.jsd_conditional_mc(p, q, n_mc=10**5, seed=5)
    assert abs(est - truth) < max(4 * se, 1e-3)
    assert 0.0 <= est <= math.log(2.0)


def test_jsd_conditional_mc_edges():
    p = gauss(0.0, 1.0)
    assert oracle.jsd_conditional_mc(p, p, n_mc=10**4)[0] < 1e-3
    assert oracle.jsd_conditional_mc(p, p, w=0.0) == (0.0, 0.0)
    assert oracle.jsd_conditional_mc(p, p, w=1.0) == (0.0, 0.0)
    far = gauss(50.0, 1.0)
    est, _ = oracle.jsd_conditional_mc(p, far, n_mc=10**4, seed=1)
    assert abs(est - math.log(2.0)) < 1e-3
    with pytest.raises(sm.InvalidParameterError):
        oracle.jsd_conditional_mc(p, p, w=1.5)


def test_discrete_dist_validation():
    with pytest.raises(sm.InvalidParameterError):
        oracle.DiscreteDist(np.array([0.5, 0.6]))
    with pytest.raises(sm.InvalidParameterError):
        oracle.DiscreteDist(np.array([1.5, -0.5]))


def test_mixture_divergence_discrete_hand_value():
    p = np.array([1.0, 0.0])
    q = np.array([0.0, 1.0])
    # disjoint support saturates at the label entropy
    w0 = 0.25
    bound = -(w0 * math.log(w0) + 0.75 * math.log(0.75))
    assert abs(oracle.mixture_divergence_discrete(p, q, w0) - bound) < 1e-14
    assert oracle.discrete_jsd(p, p) == 0.0
    assert abs(oracle.discrete_jsd(p, q) - math.log(2.0)) < 1e-14


def test_discrete_kl_chi2():
    p = np.array([0.6, 0.4])
    q = np.array([0.5, 0.5])
    kl = 0.6 * math.log(1.2) + 0.4 * math.log(0.8)
    chi2 = 0.6 ** 2 / 0.5 + 0.4 ** 2 / 0.5 - 1.0
    assert abs(oracle.discrete_kl(p, q) - kl) < 1e-14
    assert abs(oracle.discrete_chi2(p, q) - chi2) < 1e-14
    assert math.isinf(oracle.discrete_kl(p, np.array([1.0, 0.0])))
    assert math.isinf(oracle.discrete_chi2(p, np.array([1.0, 0.0])))
    # conditional form with a data variable
    py = np.array([0.3, 0.7])
    pc = np.vstack([p, q])
    qc = np.vstack([q, q])
    expected = 0.3 * oracle.discrete_kl(p, q)
    assert abs(oracle.discrete_kl(pc, qc, py) - expected) < 1e-14


def test_brute_force_null_is_zero():
    p = np.array([0.2, 0.5, 0.3])
    d = oracle.brute_force_divergences(p, p, M=3)
    for val in (d.d1, d.d2, d.d3, d.d4):
        assert abs(val) < 1e-12


def test_brute_force_disjoint_saturates_bounds():
    p = np.array([1.0, 0.0])
    q = np.array([0.0, 1.0])
    M = 3
    d = oracle.brute_force_divergences(p, q, M)
    w0 = 1.0 / (M + 1)
    bound = -(w0 * math.log(w0) + (1 - w0) * math.log(1 - w0))
    assert abs(d.d1 - bound) < 1e-12
    assert abs(d.d4 - math.log(M + 1)) < 1e-12


def test_brute_force_d1_matches_direct_mixture():
    p = np.array([0.7, 0.2, 0.1])
    q = np.array([0.4, 0.4, 0.2])
    M = 2
    d = oracle.brute_force_divergences(p, q, M)
    direct = oracle.mixture_divergence_discrete(p, q, 1.0 / (M + 1))
    assert abs(d.d1 - direct) < 1e-14
    # without a data variable there is nothing to marginalize: d2 == d1
    assert abs(d.d2 - d.d1) < 1e-14


def test_d4_counts_formula_matches_tuple_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(5):
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        for M in (1, 2, 3):
            d = oracle.brute_force_divergences(p, q, M)
            tup = oracle.d4_tuple_enumeration(p, q, M)
            assert abs(d.d4 - tup) < 1e-10
            assert d.d4 <= math.log(M + 1) + 1e-12


def test_d4_conditional_instance():
    py = np.array([0.5, 0.5])
    a = np.array([0.8, 0.2])
    b = np.array([0.3, 0.7])
    p = np.vstack([a, b])
    q = np.vstack([b, a])
    d = oracle.brute_force_divergences(p, q, 2, py=py)
    tup = oracle.d4_tuple_enumeration(p, q, 2, py=py)
    assert abs(d.d4 - tup) < 1e-10
    # swapped conditionals leave the theta-marginal unchanged: d2 == 0
    assert abs(d.d2) < 1e-14


def test_rank_pmfs_uniform_under_null():
    p = np.array([0.3, 0.45, 0.25])
    pmf0, pmf1 = oracle._rank_pmfs_given_y(p, p, 4)
    assert abs(pmf0.sum() - 1.0) < 1e-12
    assert abs(pmf1.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(pmf0, 0.2, atol=1e-12)
    np.testing.assert_allclose(pmf1, 0.2, atol=1e-12)


def test_discrete_ties_can_invert_rank_vs_marginal_order():
    # with atoms, uniform tie-splitting discards information, so the rank
    # divergence may drop below the marginal one -- hand-checkable instance:
    # d3 = jsd((1/8, 7/8), (7/8, 1/8)), d2 = jsd of the marginals
    p = np.array([0.5, 0.5, 0.0])
    q = np.array([0.0, 0.5, 0.5])
    d = oracle.brute_force_divergences(p, q, 1)
    d3_hand = oracle.discrete_jsd(np.array([0.125, 0.875]),
                                  np.array([0.875, 0.125]))
    assert abs(d.d3 - d3_hand) < 1e-12
    assert d.d3 < d.d2


def test_enumeration_budget():
    p = np.full(50, 0.02)
    with pytest.raises(oracle.EnumerationBudgetError):
        oracle.brute_force_divergences(p, p, 40)
    with pytest.raises(oracle.EnumerationBudgetError):
        oracle.d4_tuple_enumeration(p, p, 40)


def test_d4_rate_check_rows():
    p = np.array([0.55, 0.45])
    q = np.array([0.5, 0.5])
    rows = oracle.d4_rate_check(p, q, [2, 4, 8])
    assert [r["M"] for r in rows] == [2, 4, 8]
    kl = oracle.discrete_kl(p, q)
    chi2 = oracle.discrete_chi2(p, q)
    for r in rows:
        assert abs(r["expansion"] - (kl - chi2 / (2 * r["M"]))) < 1e-12
        assert r["residual"] == abs(r["d4"] - r["expansion"])


def test_optimal_weighted_elpd_identity():
    p = np.array([0.7, 0.2, 0.1])
    q = np.array([0.4, 0.4, 0.2])
    for M in (1, 3, 10):
        elpd = oracle.optimal_weighted_elpd(p, q, M)
        assert abs(elpd + math.log(2.0) - oracle.discrete_jsd(p, q)) < 1e-12


def test_sbc_ranks_range_and_determinism():
    t = sm.generate_gaussian_table(1, 50, 5, 1.0, sm.Corruption(), seed=0)
    r1 = oracle.sbc_ranks(t, seed=1)
    r2 = oracle.sbc_ranks(t, seed=1)
    np.testing.assert_array_equal(r1, r2)
    assert r1.min() >= 0 and r1.max() <= 5


def test_sbc_ranks_are_column_0_of_the_jittered_ranks():
    # theta's rank alone: the draws >= theta, after the run's jitter only
    # where a draw lies within its slack; on power-sweep's table, an
    # integer table full of exact ties, and near ties inside the slack
    power = sm.generate_gaussian_table(4, 1000, 100, 1.0, sm.Corruption(variance_scale=1.2),
                                       seed=3, attach_densities=True)
    rng = np.random.default_rng(0)
    theta = rng.integers(-2, 3, size=(500, 2)).astype(float)
    draws = rng.integers(-2, 3, size=(500, 20, 2)).astype(float)
    ties = sm.SimulationTable(theta, np.zeros((500, 1)), draws)
    near = sm.SimulationTable(theta, np.zeros((500, 1)),
                              draws + rng.uniform(-3e-10, 3e-10, size=draws.shape))
    for table in (power, ties, near):
        for j in range(table.d_theta):
            for seed in (0, 7):
                np.testing.assert_array_equal(oracle.sbc_ranks(table, j, seed),
                                              oracle._jittered_ranks(table, j, seed)[:, 0])
    assert (ties.draws[:, :, 0] == ties.theta[:, None, 0]).any(axis=1).mean() > 0.9


def test_sbc_rank_test_null_and_power():
    null = sm.generate_gaussian_table(2, 600, 9, 1.0, sm.Corruption(), seed=4)
    pvals, reject = oracle.sbc_rank_test(null, alpha=0.05, seed=0)
    assert pvals.shape == (2,)
    assert not reject
    bad = sm.generate_gaussian_table(2, 600, 9, 1.0, sm.Corruption(bias=1.0), seed=4)
    _, reject_bad = oracle.sbc_rank_test(bad, alpha=0.05, seed=0)
    assert reject_bad
    with pytest.raises(sm.InvalidParameterError):
        oracle.sbc_rank_test(null, n_bins=1)


def _no_ranking(*args, **kwargs):
    raise AssertionError("ranked before the check")


def test_sbc_rank_test_rejects_a_table_without_runs(monkeypatch):
    # zero runs have no rank histogram: no p-value, rather than p = nan
    empty = sm.generate_gaussian_table(2, 5, 4, 1.0, sm.Corruption(), seed=0).take(slice(0, 0))
    monkeypatch.setattr(oracle, "sbc_ranks", _no_ranking)
    with pytest.raises(sm.InvalidParameterError, match="^SBC needs at least one run$"):
        oracle.sbc_rank_test(empty)


@pytest.mark.parametrize("alpha", [1.5, -0.1, 0.0, 1.0, math.nan])
def test_sbc_rank_test_rejects_alpha_outside_the_unit_interval(monkeypatch, alpha):
    # alpha = 1.5 would reject every table and -0.1 none
    t = sm.generate_gaussian_table(1, 50, 5, 1.0, sm.Corruption(), seed=0)
    monkeypatch.setattr(oracle, "sbc_ranks", _no_ranking)
    with pytest.raises(sm.InvalidParameterError, match=r"alpha must be in \(0, 1\)"):
        oracle.sbc_rank_test(t, alpha=alpha)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("M, n_bins", [(39, 2), (39, 20), (39, 40), (39, 7), (9, 3)],
                         ids=["2_bins", "20_bins", "M+1_bins", "unequal_7_of_40",
                              "unequal_3_of_10"])
@pytest.mark.parametrize("bias", [0.0, 0.3, 1.0])
def test_sbc_pvalues_are_chisquare_bit_for_bit(d, M, n_bins, bias):
    # the statistic is chisquare's, bit for bit; its χ² tail is discal's own
    # series, so the p-values agree within 1e-12 relative and the Bonferroni
    # decision is the same
    t = sm.generate_gaussian_table(d, 200, M, 1.0, sm.Corruption(bias=bias), seed=M + d)
    pvals, reject = oracle.sbc_rank_test(t, n_bins=n_bins, seed=5)
    edges = np.floor(np.arange(n_bins + 1) * (M + 1) / n_bins).astype(int)
    exp = t.S * np.diff(edges) / (M + 1.0)
    ref = []
    for j, child in enumerate(np.random.SeedSequence(5).spawn(d)):
        ranks = oracle.sbc_ranks(t, coordinate=j, seed=int(child.generate_state(1)[0]))
        ref.append(chisquare(np.histogram(ranks, bins=edges)[0], exp).pvalue)
    np.testing.assert_allclose(pvals, ref, rtol=1e-12, atol=0)
    assert reject == (min(ref) < 0.05 / d)


def test_pearson_pvalue_checks_the_totals():
    exp = np.array([2.5, 2.5, 5.0])
    assert oracle._pearson_pvalue([3, 2, 5], exp) == pytest.approx(
        chisquare([3, 2, 5], exp).pvalue, rel=1e-12, abs=0)
    # chisquare's tolerance: totals may differ by a relative sqrt(eps) ~ 1.5e-8
    near, off = exp * [1, 1, 1 + 2e-9], exp * [1, 1, 1 + 4e-8]
    assert oracle._pearson_pvalue([3, 2, 5], near) == pytest.approx(
        chisquare([3, 2, 5], near).pvalue, rel=1e-12, abs=0)
    for obs, e in (([3, 2, 6], exp), ([3, 2, 5], off)):
        with pytest.raises(sm.InvalidParameterError, match="differ"):
            oracle._pearson_pvalue(obs, e)
        with pytest.raises(ValueError):
            chisquare(obs, e)


def test_chi2_sf_matches_mpmath():
    # df = 1..1000 and upper tails from 1 down to 1e-300, against the
    # regularized upper incomplete gamma Q(df/2, x/2) at 40 digits
    dfs = list(range(1, 41)) + [50, 51, 99, 100, 101, 255, 256, 500, 501, 777, 999, 1000]
    for df in dfs:
        for p in [10.0 ** -e for e in range(0, 301, 20)] + [0.5, 0.95, 1 - 1e-9]:
            x = float(chi2.isf(p, df))
            with mpmath.workdps(40):
                ref = float(mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2,
                                            mpmath.inf, regularized=True))
            assert oracle._chi2_sf(df, x) == pytest.approx(ref, rel=1e-12, abs=0), (df, p, x)
    assert oracle._chi2_sf(5, 0.0) == 1.0
    assert oracle._chi2_sf(5, math.inf) == 0.0
    assert math.isnan(oracle._chi2_sf(5, math.nan))


def test_naive_bayes_rank_divergence():
    null = sm.generate_gaussian_table(1, 2000, 7, 1.0, sm.Corruption(), seed=6)
    base = oracle.naive_bayes_rank_divergence(null, seed=0)
    bad = sm.generate_gaussian_table(1, 2000, 7, 1.0, sm.Corruption(bias=1.0), seed=6)
    hot = oracle.naive_bayes_rank_divergence(bad, seed=0)
    assert 0.0 <= base < 0.01
    assert hot > 10 * base
    wide = sm.generate_gaussian_table(2, 10, 3, 1.0, sm.Corruption(), seed=0)
    with pytest.raises(sm.InvalidParameterError):
        oracle.naive_bayes_rank_divergence(wide)


def _per_run_ranks(table, coordinate, seed):
    """Each run ranked on its own, with its own jitter substream."""
    children = np.random.SeedSequence(seed).spawn(table.S)
    ranks = []
    for theta, draws, ss in zip(table.theta, table.draws, children):
        vals = np.concatenate([[theta[coordinate]], draws[:, coordinate]])
        jitter = np.random.default_rng(ss).uniform(0.0, lm.JITTER_SCALE, vals.shape)
        ranks.append(lm._ranks_all(vals + jitter))
    return ranks


@pytest.mark.parametrize("seed", [0, 3, 2024])
def test_batched_sbc_ranks_match_per_run_reference(seed):
    t = sm.generate_gaussian_table(3, 60, 9, 1.0, sm.Corruption(bias=0.4), seed=seed)
    for j in range(3):
        ref = np.array([r[0] for r in _per_run_ranks(t, j, seed + 1)])
        np.testing.assert_array_equal(oracle.sbc_ranks(t, coordinate=j, seed=seed + 1),
                                      ref)
    # ties everywhere: only the per-run jitter streams decide the ranks
    tied = sm.SimulationTable(np.zeros((30, 1)), np.zeros((30, 1)), np.zeros((30, 5, 1)))
    ref = np.array([r[0] for r in _per_run_ranks(tied, 0, seed)])
    np.testing.assert_array_equal(oracle.sbc_ranks(tied, seed=seed), ref)


@pytest.mark.parametrize("seed", [0, 5, 99])
def test_batched_naive_bayes_matches_per_run_reference(seed):
    t = sm.generate_gaussian_table(1, 300, 6, 1.0, sm.Corruption(bias=0.5), seed=seed)
    M = t.M
    h0 = np.zeros(M + 1)
    h1 = np.zeros(M + 1)
    for ranks in _per_run_ranks(t, 0, seed):
        h0[ranks[0]] += 1
        for r in ranks[1:]:
            h1[r] += 1
    ref = oracle.mixture_divergence_discrete(h0 / h0.sum(), h1 / h1.sum(), 1.0 / (M + 1))
    assert oracle.naive_bayes_rank_divergence(t, seed=seed) == ref
