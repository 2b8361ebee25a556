"""Tests for the simulation-table data model and Gaussian generators."""

import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from discal import sim_model as sm


def test_exact_posterior_closed_form():
    # theta ~ N(0, I), y | theta ~ N(theta, sigma2 I)
    # posterior mean y/(1+sigma2), covariance sigma2/(1+sigma2) I
    y = np.array([2.0, -1.0])
    post = sm.exact_gaussian_posterior(y, 3.0)
    np.testing.assert_allclose(post.mean, y / 4.0, atol=1e-14)
    np.testing.assert_allclose(post.covariance, 0.75 * np.eye(2), atol=1e-14)


def test_exact_posterior_matches_bayes_rule_numerically():
    # cross-check: posterior density proportional to prior * likelihood
    y = np.array([1.3])
    sigma2 = 0.7
    post = sm.exact_gaussian_posterior(y, sigma2)
    grid = np.linspace(-3, 3, 7)[:, None]
    log_joint = (multivariate_normal(np.zeros(1), np.eye(1)).logpdf(grid)
                 + multivariate_normal(y, sigma2 * np.eye(1)).logpdf(grid))
    diff = post.logpdf(grid) - log_joint
    np.testing.assert_allclose(diff, diff[0] * np.ones_like(diff), atol=1e-10)


def test_logpdf_matches_scipy():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3))
    cov = A @ A.T + 3 * np.eye(3)
    mean = rng.standard_normal(3)
    dist = sm.GaussianPosterior(mean, cov)
    x = rng.standard_normal((20, 3))
    np.testing.assert_allclose(dist.logpdf(x),
                               multivariate_normal(mean, cov).logpdf(x),
                               atol=1e-10)
    # scalar input returns a float
    assert isinstance(dist.logpdf(x[0]), float)


def test_posterior_validation_errors():
    with pytest.raises(sm.InvalidParameterError):
        sm.GaussianPosterior(np.zeros(2), np.eye(3))
    with pytest.raises(sm.InvalidParameterError):
        sm.GaussianPosterior(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(sm.InvalidParameterError):
        sm.GaussianPosterior(np.zeros(2), -np.eye(2))
    with pytest.raises(sm.InvalidParameterError):
        sm.exact_gaussian_posterior(np.zeros(2), 0.0)


def test_corruption():
    post = sm.exact_gaussian_posterior(np.array([1.0]), 1.0)
    c = sm.Corruption(bias=0.5, variance_scale=2.0)
    assert not c.is_identity
    q = sm.corrupt(post, c)
    np.testing.assert_allclose(q.mean, post.mean + 0.5)
    np.testing.assert_allclose(q.covariance, 2.0 * post.covariance)
    assert sm.Corruption().is_identity
    with pytest.raises(sm.InvalidParameterError):
        sm.Corruption(variance_scale=0.0)


def test_ar1_rho_zero_is_iid():
    p = sm.GaussianPosterior(np.array([1.0, -2.0]), np.diag([2.0, 0.5]))
    draws = sm.generate_ar1_draws(p, 5000, 0.0, 7)
    direct = p.sample(5000, np.random.default_rng(7))
    # same generator consumption order: the chains coincide exactly at rho=0
    np.testing.assert_allclose(draws[0], direct[0])
    corr = np.corrcoef(draws[:-1, 0], draws[1:, 0])[0, 1]
    assert abs(corr) < 0.05


def test_ar1_lag1_autocorrelation():
    p = sm.GaussianPosterior(np.array([0.0]), np.array([[1.5]]))
    draws = sm.generate_ar1_draws(p, 10000, 0.9, 11)[:, 0]
    corr = np.corrcoef(draws[:-1], draws[1:])[0, 1]
    assert abs(corr - 0.9) < 0.02


def test_ar1_stationary_moments():
    p = sm.GaussianPosterior(np.array([2.0, -1.0]), np.diag([0.5, 3.0]))
    draws = sm.generate_ar1_draws(p, 10**5, 0.7, 13)
    n_eff = 10**5 * (1 - 0.7) / (1 + 0.7)  # AR(1) effective sample size
    se = np.sqrt(np.diag(p.covariance) / n_eff)
    assert np.all(np.abs(draws.mean(axis=0) - p.mean) < 4 * se)


def test_ar1_validation():
    p = sm.GaussianPosterior(np.array([0.0]), np.array([[1.0]]))
    for rho in (-0.1, 1.0, 1.5):
        with pytest.raises(sm.InvalidParameterError):
            sm.generate_ar1_draws(p, 3, rho, 0)
    with pytest.raises(sm.InvalidParameterError):
        sm.generate_ar1_draws(p, 0, 0.5, 0)


def test_generate_table_determinism_and_shapes():
    c = sm.Corruption(bias=0.2)
    t1 = sm.generate_gaussian_table(2, 4, 3, 1.0, c, seed=5, attach_densities=True)
    t2 = sm.generate_gaussian_table(2, 4, 3, 1.0, c, seed=5, attach_densities=True)
    assert t1.S == 4 and t1.M == 3 and t1.d_theta == 2 and t1.has_densities
    for r1, r2 in zip(t1.runs, t2.runs):
        np.testing.assert_array_equal(r1.theta, r2.theta)
        np.testing.assert_array_equal(r1.draws, r2.draws)
        np.testing.assert_array_equal(r1.log_p, r2.log_p)
    t3 = sm.generate_gaussian_table(2, 4, 3, 1.0, c, seed=6)
    assert not np.array_equal(t1.runs[0].theta, t3.runs[0].theta)
    assert not t3.has_densities


def test_minimal_table():
    t = sm.generate_gaussian_table(1, 1, 1, 1.0, sm.Corruption(), seed=0)
    assert t.S == 1 and t.M == 1 and t.runs[0].draws.shape == (1, 1)


def test_attached_densities_are_exact():
    c = sm.Corruption(bias=0.3, variance_scale=1.5)
    t = sm.generate_gaussian_table(2, 3, 4, 2.0, c, seed=9, attach_densities=True)
    for run in t.runs:
        p = sm.exact_gaussian_posterior(run.y, 2.0)
        q = sm.corrupt(p, c)
        pts = np.vstack([run.theta[None, :], run.draws])
        np.testing.assert_allclose(run.log_p, p.logpdf(pts), atol=1e-12)
        np.testing.assert_allclose(run.log_q, q.logpdf(pts), atol=1e-12)


def test_run_validation():
    with pytest.raises(sm.InvalidParameterError):
        sm.SimulationRun(0, np.zeros(2), np.zeros(1), np.zeros((3, 1)))
    with pytest.raises(sm.InvalidParameterError):
        sm.SimulationRun(0, np.zeros(1), np.zeros(1), np.zeros((2, 1)),
                         log_p=np.zeros(2))
    with pytest.raises(sm.InvalidParameterError):
        sm.SimulationRun(0, np.array([np.nan]), np.zeros(1), np.zeros((2, 1)))


def test_table_validation():
    r = sm.SimulationRun(0, np.zeros(1), np.zeros(1), np.zeros((2, 1)))
    r_dup = sm.SimulationRun(0, np.ones(1), np.zeros(1), np.zeros((2, 1)))
    with pytest.raises(sm.InvalidParameterError):
        sm.SimulationTable(runs=[r, r_dup], d_theta=1, d_y=1, M=2)
    with pytest.raises(sm.InvalidParameterError):
        sm.SimulationTable(runs=[r], d_theta=2, d_y=1, M=2)


def test_write_read_round_trip(tmp_path):
    c = sm.Corruption(bias=0.1)
    t = sm.generate_gaussian_table(2, 5, 3, 1.0, c, seed=1, attach_densities=True)
    path = tmp_path / "table.jsonl"
    sm.write_table(t, str(path))
    back = sm.read_table(str(path))
    assert back.S == t.S and back.M == t.M and back.d_theta == t.d_theta
    for r1, r2 in zip(t.runs, back.runs):
        np.testing.assert_allclose(r1.theta, r2.theta, atol=0)
        np.testing.assert_allclose(r1.draws, r2.draws, atol=0)
        np.testing.assert_allclose(r1.log_q, r2.log_q, atol=0)


def test_read_table_line_numbered_errors(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"d_theta":1,"d_y":1,"M":2,"S":1}\nnot json\n')
    with pytest.raises(sm.TableFormatError, match="line 2"):
        sm.read_table(str(path))
    path.write_text("")
    with pytest.raises(sm.TableFormatError):
        sm.read_table(str(path))
    path.write_text('{"d_theta":1,"M":2,"S":1}\n')
    with pytest.raises(sm.TableFormatError, match="d_y"):
        sm.read_table(str(path))
    path.write_text('{"d_theta":1,"d_y":1,"M":2,"S":2}\n'
                    '{"run_id":0,"theta":[0.0],"y":[0.0],"draws":[[0.1],[0.2]]}\n')
    with pytest.raises(sm.TableFormatError, match="S=2"):
        sm.read_table(str(path))
    path.write_text('{"d_theta":1,"d_y":1,"M":2,"S":1}\n'
                    '{"run_id":0,"theta":[0.0,1.0],"y":[0.0],"draws":[[0.1],[0.2]]}\n')
    with pytest.raises(sm.TableFormatError, match="line 2"):
        sm.read_table(str(path))


def test_generate_table_invalid_parameters():
    c = sm.Corruption()
    for d, S, M in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        with pytest.raises(sm.InvalidParameterError):
            sm.generate_gaussian_table(d, S, M, 1.0, c, seed=0)
    with pytest.raises(sm.InvalidParameterError):
        sm.generate_gaussian_table(1, 1, 1, -1.0, c, seed=0)
    # checked before any draw, with the parameter named in the message
    cases = (
        ({"sigma2": math.inf}, "sigma2"),
        ({"sigma2": math.nan}, "sigma2"),
        ({"c": sm.Corruption(bias=math.nan)}, "bias"),
        ({"c": sm.Corruption(bias=math.inf)}, "bias"),
        ({"c": sm.Corruption(bias=-math.inf)}, "bias"),
        ({"c": sm.Corruption(variance_scale=math.inf)}, "variance_scale"),
        ({"rho": -0.1}, "rho"),
        ({"rho": 1.0}, "rho"),
        ({"rho": math.nan}, "rho"),
    )
    for override, name in cases:
        kwargs = dict(d=2, S=3, M=4, sigma2=1.0, c=c, seed=0, rho=0.0)
        kwargs.update(override)
        with pytest.raises(sm.InvalidParameterError, match=name):
            sm.generate_gaussian_table(**kwargs)


def reference_gaussian_table(d, S, M, sigma2, c, seed, attach_densities=False,
                             rho=0.0):
    """The per-run generator the batched one replaced, kept verbatim.

    Each run builds its exact and corrupted GaussianPosterior, draws theta, y
    and the chain from its own substream with three RNG calls, and evaluates
    the log densities with a triangular solve.
    """

    def ar1(p, rng):
        innov_scale = math.sqrt(1.0 - rho * rho)
        z = rng.standard_normal((M, p.dim)) @ p.chol.T
        draws = np.empty((M, p.dim))
        x = p.mean + z[0]
        draws[0] = x
        for m in range(1, M):
            x = p.mean + rho * (x - p.mean) + innov_scale * z[m]
            draws[m] = x
        return draws

    sd = math.sqrt(sigma2)
    runs = []
    for i, ss in enumerate(np.random.SeedSequence(seed).spawn(S)):
        rng = np.random.default_rng(ss)
        theta = rng.standard_normal(d)
        y = theta + sd * rng.standard_normal(d)
        exact = sm.exact_gaussian_posterior(y, sigma2)
        qpost = sm.corrupt(exact, c)
        draws = ar1(qpost, rng)
        log_p = log_q = None
        if attach_densities:
            pts = np.vstack([theta[None, :], draws])
            log_p = exact.logpdf(pts)
            log_q = qpost.logpdf(pts)
        runs.append(sm.SimulationRun(i, theta, y, draws, log_p, log_q))
    return sm.SimulationTable(runs=runs, d_theta=d, d_y=d, M=M)


@pytest.mark.parametrize("d", [1, 4])
@pytest.mark.parametrize("rho", [0.0, 0.9])
@pytest.mark.parametrize("corruption", [sm.Corruption(),
                                        sm.Corruption(bias=0.3, variance_scale=1.7)])
def test_batched_generator_matches_per_run_reference(d, rho, corruption):
    for seed in (0, 7, 12345):
        for densities in (True, False):
            new = sm.generate_gaussian_table(d, 40, 13, 0.8, corruption, seed=seed,
                                             attach_densities=densities, rho=rho)
            ref = reference_gaussian_table(d, 40, 13, 0.8, corruption, seed=seed,
                                           attach_densities=densities, rho=rho)
            assert new.S == ref.S and new.has_densities == densities
            for a, b in zip(new.runs, ref.runs):
                assert a.run_id == b.run_id
                np.testing.assert_array_equal(a.theta, b.theta)
                np.testing.assert_array_equal(a.y, b.y)
                np.testing.assert_array_equal(a.draws, b.draws)
                if densities:
                    np.testing.assert_allclose(a.log_p, b.log_p, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(a.log_q, b.log_q, rtol=0, atol=1e-12)
                else:
                    assert a.log_p is None and a.log_q is None
