"""Simulation-table data model and synthetic Gaussian generators.

A simulation table holds S independent runs; each run is one prior draw
theta ~ N(0, I_d), one synthetic observation y | theta ~ N(theta, sigma2*I),
and M draws from the inference procedure under scrutiny.  The generators
here produce scenarios with analytic truth: the exact conjugate posterior,
mean-biased / variance-scaled corruptions of it, and an AR(1) chain whose
stationary marginal equals the target exactly (an MCMC stand-in with
tunable autocorrelation).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


class InvalidParameterError(ValueError):
    """A parameter is outside its admissible range."""


class TableFormatError(ValueError):
    """A table file violates the JSONL schema."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


@dataclass
class GaussianPosterior:
    """A multivariate normal distribution N(mean, covariance)."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.covariance = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        d = self.mean.shape[0]
        if self.covariance.shape != (d, d):
            raise InvalidParameterError(
                "covariance shape %s incompatible with mean of length %d"
                % (self.covariance.shape, d)
            )
        if not np.all(np.isfinite(self.mean)) or not np.all(np.isfinite(self.covariance)):
            raise InvalidParameterError("non-finite mean or covariance")
        if not np.allclose(self.covariance, self.covariance.T, rtol=0.0, atol=1e-10):
            raise InvalidParameterError("covariance not symmetric within 1e-10")
        try:
            self._chol = np.linalg.cholesky(self.covariance)
        except np.linalg.LinAlgError as exc:
            raise InvalidParameterError("covariance not positive definite") from exc

    @property
    def dim(self):
        return self.mean.shape[0]

    @property
    def chol(self):
        return self._chol

    def logpdf(self, x):
        """Log density at x, vectorized over rows of a 2-d input."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x) - self.mean
        # solve L z = (x - mu)^T by forward substitution
        from scipy.linalg import solve_triangular

        z = solve_triangular(self._chol, pts.T, lower=True)
        logdet = np.sum(np.log(np.diag(self._chol)))
        out = -0.5 * np.sum(z * z, axis=0) - logdet - 0.5 * self.dim * LOG_2PI
        return float(out[0]) if single else out

    def sample(self, n, rng):
        z = rng.standard_normal((n, self.dim))
        return self.mean + z @ self._chol.T


@dataclass
class Corruption:
    """Posterior corruption: add `bias` to each mean coordinate, scale covariance."""

    bias: float = 0.0
    variance_scale: float = 1.0

    def __post_init__(self):
        if not self.variance_scale > 0:
            raise InvalidParameterError("variance_scale must be > 0")

    @property
    def is_identity(self):
        return self.bias == 0.0 and self.variance_scale == 1.0


@dataclass
class SimulationRun:
    """One run: prior draw theta, data y, M approximate posterior draws.

    log_p / log_q, when present, are length M+1 arrays of log p(theta|y) and
    log q(theta|y) evaluated at [theta, draw_1, ..., draw_M] (each up to an
    additive constant shared within the run).
    """

    run_id: int
    theta: np.ndarray
    y: np.ndarray
    draws: np.ndarray
    log_p: np.ndarray | None = None
    log_q: np.ndarray | None = None

    def __post_init__(self):
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        self.y = np.atleast_1d(np.asarray(self.y, dtype=float))
        self.draws = np.atleast_2d(np.asarray(self.draws, dtype=float))
        if self.draws.shape[1] != self.theta.shape[0]:
            raise InvalidParameterError(
                "run %s: draws have dimension %d, theta has %d"
                % (self.run_id, self.draws.shape[1], self.theta.shape[0])
            )
        if self.draws.shape[0] < 1:
            raise InvalidParameterError("run %s: M must be >= 1" % self.run_id)
        M = self.draws.shape[0]
        for name in ("log_p", "log_q"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                if arr.shape != (M + 1,):
                    raise InvalidParameterError(
                        "run %s: %s must have length M+1=%d" % (self.run_id, name, M + 1)
                    )
                setattr(self, name, arr)
        for name, arr in (("theta", self.theta), ("y", self.y), ("draws", self.draws),
                          ("log_p", self.log_p), ("log_q", self.log_q)):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise InvalidParameterError("run %s: non-finite %s" % (self.run_id, name))

    @property
    def M(self):
        return self.draws.shape[0]


@dataclass
class SimulationTable:
    """S independent runs sharing (d_theta, d_y, M)."""

    runs: list
    d_theta: int
    d_y: int
    M: int
    provenance: str = ""

    def __post_init__(self):
        seen = set()
        for run in self.runs:
            if run.theta.shape[0] != self.d_theta:
                raise InvalidParameterError("run %s: d_theta mismatch" % run.run_id)
            if run.y.shape[0] != self.d_y:
                raise InvalidParameterError("run %s: d_y mismatch" % run.run_id)
            if run.M != self.M:
                raise InvalidParameterError("run %s: M mismatch" % run.run_id)
            if run.run_id in seen:
                raise InvalidParameterError("duplicate run_id %s" % run.run_id)
            seen.add(run.run_id)

    @property
    def S(self):
        return len(self.runs)

    @property
    def has_densities(self):
        return all(r.log_p is not None and r.log_q is not None for r in self.runs)


def exact_gaussian_posterior(y, sigma2):
    """Exact posterior for theta ~ N(0, I), y|theta ~ N(theta, sigma2*I).

    Conjugate-normal algebra gives N(y/(1+sigma2), sigma2/(1+sigma2)*I).
    """
    if not sigma2 > 0:
        raise InvalidParameterError("sigma2 must be > 0")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not np.all(np.isfinite(y)):
        raise InvalidParameterError("y must be finite")
    d = y.shape[0]
    shrink = 1.0 / (1.0 + sigma2)
    return GaussianPosterior(mean=y * shrink, covariance=sigma2 * shrink * np.eye(d))


def corrupt(p, c):
    """Apply a Corruption to a GaussianPosterior."""
    return GaussianPosterior(mean=p.mean + c.bias, covariance=c.variance_scale * p.covariance)


def _check_rho(rho):
    if not (0.0 <= rho < 1.0):
        raise InvalidParameterError("rho must be in [0, 1)")


def _ar1_in_place(x, mean, rho):
    """Turn scaled innovations x (..., M, d) into AR(1) draws, in place.

    On entry x[..., m, :] holds L z_m; on return row 0 is mean + L z_0 and
    row m is mean + rho*(row m-1 - mean) + sqrt(1-rho^2)*L z_m.  Leading
    axes are independent chains with their own means (..., d); the loop
    runs over M only.  At rho=0 every row is mean + L z_m.
    """
    x[..., 0, :] += mean
    if rho == 0.0:
        x[..., 1:, :] += mean[..., None, :]
        return x
    innov_scale = math.sqrt(1.0 - rho * rho)
    for m in range(1, x.shape[-2]):
        x[..., m, :] *= innov_scale
        x[..., m, :] += mean + rho * (x[..., m - 1, :] - mean)
    return x


def generate_ar1_draws(p, M, rho, rng):
    """M draws from a Gaussian AR(1) chain with stationary marginal p.

    theta_1 ~ p; theta_{m+1} = mu + rho*(theta_m - mu) + sqrt(1-rho^2)*L*z.
    rho=0 gives IID draws from p.  `rng` may be a Generator or an int seed.
    """
    _check_rho(rho)
    if M < 1:
        raise InvalidParameterError("M must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    z = rng.standard_normal((M, p.dim)) @ p.chol.T
    return _ar1_in_place(z, p.mean, rho)


def _isotropic_logpdf(x, mean, sd):
    """log N(x; mean, sd^2 I) over the last axis of x (S, K, d); mean is (S, d).

    Matches GaussianPosterior.logpdf bit for bit: the residual is scaled by
    1/sd, as a triangular solve with a diagonal factor does, and the squares
    are summed over a contiguous last axis.
    """
    d = x.shape[-1]
    logdet = np.sum(np.log(np.full(d, sd)))
    r = np.subtract(x, mean[:, None, :])
    r *= 1.0 / sd
    r *= r
    return -0.5 * r.sum(axis=-1) - logdet - 0.5 * d * LOG_2PI


def generate_gaussian_table(d, S, M, sigma2, c, seed, attach_densities=False, rho=0.0):
    """Simulate S runs of the closed-form Gaussian scenario.

    Per run: theta ~ N(0, I_d), y ~ N(theta, sigma2*I), then M draws from
    corrupt(exact posterior, c) -- IID when rho=0, AR(1) otherwise.  With
    attach_densities, log_p holds the exact posterior log density and log_q
    the corrupted one, both evaluated at [theta, draws].  Each run uses an
    independent RNG substream spawned from `seed`, so the table is
    deterministic and independent of any parallel scheduling.

    Only the random draws are taken run by run (one standard_normal call of
    2d + M*d values per substream: theta, the y noise, then the draws'
    innovations); the arithmetic is batched over runs and gives the same
    bits as building exact_gaussian_posterior / corrupt / generate_ar1_draws
    for each run.  Every run's theta and draws are views into one
    (S, M+2, d) buffer.
    """
    if d < 1 or S < 1 or M < 1:
        raise InvalidParameterError("d, S, M must all be >= 1")
    if not (sigma2 > 0 and math.isfinite(sigma2)):
        raise InvalidParameterError("sigma2 must be finite and > 0")
    if not math.isfinite(c.bias):
        raise InvalidParameterError("bias must be finite")
    if not (c.variance_scale > 0 and math.isfinite(c.variance_scale)):
        raise InvalidParameterError("variance_scale must be finite and > 0")
    _check_rho(rho)
    shrink = 1.0 / (1.0 + sigma2)
    var_p = sigma2 * shrink
    var_q = c.variance_scale * var_p
    if not (var_p > 0 and var_q > 0 and math.isfinite(var_q)):
        raise InvalidParameterError(
            "posterior variance is not finite and > 0 for sigma2=%g, variance_scale=%g"
            % (sigma2, c.variance_scale))
    sd, sd_p, sd_q = math.sqrt(sigma2), math.sqrt(var_p), math.sqrt(var_q)

    # per run, rows are [theta, y noise, z_1..z_M]: one substream each
    buf = np.empty((S, M + 2, d))
    for i, ss in enumerate(np.random.SeedSequence(seed).spawn(S)):
        np.random.default_rng(ss).standard_normal(out=buf[i].reshape(-1))
    y = buf[:, 1] * sd
    y += buf[:, 0]
    buf[:, 1] = buf[:, 0]
    occupants = buf[:, 1:]                 # (S, M+1, d): [theta, draws]
    mean_p = y * shrink
    mean_q = mean_p + c.bias
    draws = occupants[:, 1:]
    draws *= sd_q
    _ar1_in_place(draws, mean_q, rho)

    log_p = log_q = None
    if attach_densities:
        log_p = _isotropic_logpdf(occupants, mean_p, sd_p)
        log_q = _isotropic_logpdf(occupants, mean_q, sd_q)
    runs = [SimulationRun(i, occupants[i, 0], y[i], draws[i],
                          None if log_p is None else log_p[i],
                          None if log_q is None else log_q[i])
            for i in range(S)]
    prov = ("gaussian d=%d S=%d M=%d sigma2=%g bias=%g scale=%g rho=%g seed=%d"
            % (d, S, M, sigma2, c.bias, c.variance_scale, rho, seed))
    return SimulationTable(runs=runs, d_theta=d, d_y=d, M=M, provenance=prov)


def write_table(table, path):
    """Write a table as JSONL: header line, then one run per line.

    The written file is re-parsed as a self-check before returning.
    """
    with open(path, "w") as fh:
        header = {"d_theta": table.d_theta, "d_y": table.d_y, "M": table.M, "S": table.S}
        fh.write(json.dumps(header) + "\n")
        for run in table.runs:
            rec = {
                "run_id": int(run.run_id),
                "theta": run.theta.tolist(),
                "y": run.y.tolist(),
                "draws": run.draws.tolist(),
            }
            if run.log_p is not None:
                rec["log_p"] = run.log_p.tolist()
            if run.log_q is not None:
                rec["log_q"] = run.log_q.tolist()
            fh.write(json.dumps(rec) + "\n")
    reread = read_table(path)
    if reread.S != table.S:
        raise TableFormatError("self-check failed: wrote %d runs, reread %d"
                               % (table.S, reread.S))


def read_table(path):
    """Parse a JSONL table; schema violations are reported with line numbers."""
    runs = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise TableFormatError("empty file", line=1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TableFormatError("invalid JSON: %s" % exc, line=1) from exc
    for key in ("d_theta", "d_y", "M", "S"):
        if key not in header:
            raise TableFormatError("header missing field %r" % key, line=1)
    d_theta, d_y, M, S = (int(header[k]) for k in ("d_theta", "d_y", "M", "S"))
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise TableFormatError("invalid JSON: %s" % exc, line=lineno) from exc
        for key in ("run_id", "theta", "y", "draws"):
            if key not in rec:
                raise TableFormatError("record missing field %r" % key, line=lineno)
        rid = rec["run_id"]
        theta = np.asarray(rec["theta"], dtype=float)
        y = np.asarray(rec["y"], dtype=float)
        draws = np.asarray(rec["draws"], dtype=float)
        if theta.shape != (d_theta,):
            raise TableFormatError("run %s: theta has length %d, expected %d"
                                   % (rid, theta.size, d_theta), line=lineno)
        if y.shape != (d_y,):
            raise TableFormatError("run %s: y has length %d, expected %d"
                                   % (rid, y.size, d_y), line=lineno)
        if draws.ndim != 2 or draws.shape != (M, d_theta):
            raise TableFormatError("run %s: draws have shape %s, expected (%d, %d)"
                                   % (rid, draws.shape, M, d_theta), line=lineno)
        log_p = np.asarray(rec["log_p"], dtype=float) if "log_p" in rec else None
        log_q = np.asarray(rec["log_q"], dtype=float) if "log_q" in rec else None
        for name, arr in (("log_p", log_p), ("log_q", log_q)):
            if arr is not None and arr.shape != (M + 1,):
                raise TableFormatError("run %s: %s has length %d, expected %d"
                                       % (rid, name, arr.size, M + 1), line=lineno)
        try:
            runs.append(SimulationRun(rid, theta, y, draws, log_p, log_q))
        except InvalidParameterError as exc:
            raise TableFormatError(str(exc), line=lineno) from exc
    if len(runs) != S:
        raise TableFormatError("header declares S=%d but found %d runs" % (S, len(runs)))
    return SimulationTable(runs=runs, d_theta=d_theta, d_y=d_y, M=M)
