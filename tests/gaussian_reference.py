"""Per-run Gaussian helpers: the reference the batched table generator is checked against.

The conjugate posterior of one run, its corruption, and one AR(1) chain.
sim_model.generate_gaussian_table computes the same quantities batched
over runs.
"""

import numpy as np

from discal import sim_model as sm


def exact_gaussian_posterior(y, sigma2):
    """Exact posterior for theta ~ N(0, I), y|theta ~ N(theta, sigma2*I).

    Conjugate-normal algebra gives N(y/(1+sigma2), sigma2/(1+sigma2)*I).
    """
    if not sigma2 > 0:
        raise sm.InvalidParameterError("sigma2 must be > 0")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not np.all(np.isfinite(y)):
        raise sm.InvalidParameterError("y must be finite")
    d = y.shape[0]
    shrink = 1.0 / (1.0 + sigma2)
    return sm.GaussianPosterior(mean=y * shrink, covariance=sigma2 * shrink * np.eye(d))


def corrupt(p, c):
    """Apply a Corruption to a GaussianPosterior."""
    return sm.GaussianPosterior(mean=p.mean + c.bias, covariance=c.variance_scale * p.covariance)


def generate_ar1_draws(p, M, rho, rng):
    """M draws from a Gaussian AR(1) chain with stationary marginal p.

    theta_1 ~ p; theta_{m+1} = mu + rho*(theta_m - mu) + sqrt(1-rho^2)*L*z.
    rho=0 gives IID draws from p.  `rng` may be a Generator or an int seed.
    The recursion is the generator's own, sim_model._ar1_in_place.
    """
    if not (0.0 <= rho < 1.0):
        raise sm.InvalidParameterError("rho must be in [0, 1)")
    if M < 1:
        raise sm.InvalidParameterError("M must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    z = rng.standard_normal((M, p.dim)) @ p.chol.T
    return sm._ar1_in_place(z, p.mean, rho)
