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
from dataclasses import dataclass

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


class InvalidParameterError(ValueError):
    """A parameter is outside its admissible range (`row`: a bad run's table position)."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


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


@dataclass(eq=False)
class SimulationTable:
    """S independent runs sharing (d_theta, d_y, M), one array per field.

    theta is (S, d_theta), y (S, d_y) and draws (S, M, d_theta).  log_p /
    log_q, when present, are (S, M+1): log p(theta|y) and log q(theta|y)
    at [theta, draw_1, ..., draw_M], each up to an additive constant shared
    within the run.  run_ids are unique integers, arange(S) by default.
    The table keeps read-only views of the arrays it validated, so a later
    write raises instead of slipping past validation; the caller's own
    arrays stay writeable.
    """

    theta: np.ndarray
    y: np.ndarray
    draws: np.ndarray
    log_p: np.ndarray | None = None
    log_q: np.ndarray | None = None
    run_ids: np.ndarray | None = None
    provenance: str = ""

    def __post_init__(self):
        self.draws, self.y = (np.asarray(a, dtype=float) for a in (self.draws, self.y))
        if (self.draws.ndim != 3 or self.y.ndim != 2
                or 0 in self.draws.shape[1:] + self.y.shape[1:]):
            raise InvalidParameterError(
                "draws must be (S, M, d_theta) and y (S, d_y) with M, d_theta, d_y "
                ">= 1; got %s and %s" % (self.draws.shape, self.y.shape))
        S, M, d = self.draws.shape
        ids = np.arange(S) if self.run_ids is None else np.asarray(self.run_ids)
        self.run_ids = ids
        if ids.shape != (S,) or ids.dtype.kind not in "iu":
            raise InvalidParameterError("run_ids must be S=%d integers" % S)
        shapes = {"theta": (S, d), "y": (S, self.d_y), "draws": (S, M, d),
                  "log_p": (S, M + 1), "log_q": (S, M + 1)}
        for name, shape in shapes.items():
            if getattr(self, name) is None:
                continue
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise InvalidParameterError("%s has shape %s, expected %s"
                                            % (name, arr.shape, shape))
            ok = np.isfinite(arr).all(axis=tuple(range(1, arr.ndim)))
            if not ok.all():
                row = int(np.argmin(ok))
                raise InvalidParameterError("run %d: non-finite %s" % (ids[row], name),
                                            row=row)
            setattr(self, name, arr)
        _, first = np.unique(ids, return_index=True)
        if first.size < S:
            row = int(np.setdiff1d(np.arange(S), first)[0])
            raise InvalidParameterError("duplicate run_id %d" % ids[row], row=row)
        for name in ("theta", "y", "draws", "log_p", "log_q", "run_ids"):
            arr = getattr(self, name)
            if arr is not None:
                view = arr.view()
                view.flags.writeable = False
                setattr(self, name, view)

    S = property(lambda self: self.draws.shape[0])
    M = property(lambda self: self.draws.shape[1])
    d_theta = property(lambda self: self.draws.shape[2])
    d_y = property(lambda self: self.y.shape[1])

    @property
    def has_densities(self):
        return self.log_p is not None and self.log_q is not None

    def take(self, idx):
        """The table of the runs at positions idx (an index array or a slice)."""
        log_p, log_q = (None if a is None else a[idx] for a in (self.log_p, self.log_q))
        return SimulationTable(self.theta[idx], self.y[idx], self.draws[idx], log_p, log_q,
                               self.run_ids[idx], self.provenance)


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
    for each run.  The table's theta and draws are views into one
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
    prov = ("gaussian d=%d S=%d M=%d sigma2=%g bias=%g scale=%g rho=%g seed=%d"
            % (d, S, M, sigma2, c.bias, c.variance_scale, rho, seed))
    return SimulationTable(occupants[:, 0], y, draws, log_p, log_q, provenance=prov)


def write_table(table, path):
    """Write a table as JSONL: header line, then one run per line.

    The written file is re-parsed as a self-check before returning.
    """
    names = [name for name in ("theta", "y", "draws", "log_p", "log_q")
             if getattr(table, name) is not None]
    columns = [getattr(table, name).tolist() for name in names]
    with open(path, "w") as fh:
        header = {"d_theta": table.d_theta, "d_y": table.d_y, "M": table.M, "S": table.S}
        fh.write(json.dumps(header) + "\n")
        for run_id, *values in zip(table.run_ids.tolist(), *columns):
            fh.write(json.dumps({"run_id": run_id, **dict(zip(names, values))}) + "\n")
    read_table(path)  # the self-check; it also checks the run count against S


def _json_object(raw, what, lineno):
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise TableFormatError("invalid JSON: %s" % exc, line=lineno) from exc
    if not isinstance(obj, dict):
        raise TableFormatError("%s is not a JSON object" % what, line=lineno)
    return obj


def _numbers(value, shape, literal):
    """`value` as an array of numbers of the given shape, or None."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        return None
    # numpy reads a JSON true or false among numbers as 1.0 or 0.0
    bools = literal and any(type(v) is bool for v in np.asarray(value, dtype=object).flat)
    return arr if arr.dtype.kind in "iuf" and arr.shape == shape and not bools else None


def read_table(path):
    """Parse a JSONL table; schema violations are reported with line numbers.

    Records are written straight into preallocated (S, ...) arrays; blank
    lines are skipped.  log_p / log_q are on every record or on none.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise TableFormatError("empty file", line=1)
    header = _json_object(lines[0], "header", 1)
    for key, low in (("d_theta", 1), ("d_y", 1), ("M", 1), ("S", 0)):
        value = header.get(key)
        if not (type(value) is int and value >= low):
            got = json.dumps(value) if key in header else "nothing"
            raise TableFormatError("header field %r must be an integer >= %d, got %s"
                                   % (key, low, got), line=1)
    d_theta, d_y, M, S = (header[k] for k in ("d_theta", "d_y", "M", "S"))
    records = [(lineno, raw) for lineno, raw in enumerate(lines[1:], start=2)
               if raw.strip()]
    if len(records) != S:
        raise TableFormatError("header declares S=%d but found %d runs"
                               % (S, len(records)), line=1)
    shapes = {"theta": (d_theta,), "y": (d_y,), "draws": (M, d_theta),
              "log_p": (M + 1,), "log_q": (M + 1,)}
    try:
        out = {name: np.empty((S,) + shape) for name, shape in shapes.items()}
    except (ValueError, MemoryError) as exc:
        raise TableFormatError("header sizes too large: %s" % exc, line=1) from exc
    run_ids = np.empty(S, dtype=np.int64)
    present = None  # the array fields of the first record
    for i, (lineno, raw) in enumerate(records):
        rec = _json_object(raw, "record", lineno)
        for key in ("run_id", "theta", "y", "draws"):
            if key not in rec:
                raise TableFormatError("record missing field %r" % key, line=lineno)
        rid = rec["run_id"]
        if not (type(rid) is int and -2**63 <= rid < 2**63):  # bools are not ints here
            raise TableFormatError("run_id must be a 64-bit integer, got %r" % (rid,),
                                   line=lineno)
        run_ids[i] = rid
        names = [name for name in shapes if name in rec]
        present = present or names
        if names != present:
            raise TableFormatError("run %d has fields %s, the first run %s: log_p and "
                                   "log_q go on every run or on none"
                                   % (rid, names, present), line=lineno)
        for name in names:
            # checked before assignment, which would broadcast a short row
            arr = _numbers(rec[name], shapes[name], "true" in raw or "false" in raw)
            if arr is None:
                raise TableFormatError("run %d: %s must be numbers of shape %s"
                                       % (rid, name, shapes[name]), line=lineno)
            out[name][i] = arr
    log_p, log_q = (out[n] if n in (present or ()) else None for n in ("log_p", "log_q"))
    try:
        return SimulationTable(out["theta"], out["y"], out["draws"], log_p, log_q, run_ids)
    except InvalidParameterError as exc:
        line = None if exc.row is None else records[exc.row][0]
        raise TableFormatError(str(exc), line=line) from exc
