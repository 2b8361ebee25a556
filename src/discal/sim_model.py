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

# Every pass whose temporaries would grow with the runs, rows or replicates
# it covers works in blocks of about this many elements.
_CHUNK_ELEMENTS = 2 ** 17


def blocks(n, width):
    """Slices that cover range(n) in order, for items of `width` elements each.

    A block holds _CHUNK_ELEMENTS // width items, rounded down to a
    multiple of 64 and at least 64, and a trailing single item joins the
    block before it.  So every block starts at a multiple of 64 items,
    where single-threaded BLAS splits a blocked product as it splits the
    whole one, and no block takes numpy's one-row product: a pass over the
    blocks gives the bits of one pass over all n items.
    """
    size = 64 * max(1, _CHUNK_ELEMENTS // (64 * width))
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [n])]


class InvalidParameterError(ValueError):
    """A parameter is outside its admissible range (`row`: a bad run's table position)."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


def seed_sequence(seed):
    """np.random.SeedSequence(seed), or InvalidParameterError naming a seed it rejects."""
    try:
        return np.random.SeedSequence(seed)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError("invalid seed %r: %s" % (seed, exc)) from exc


def _hash(value, h, mult):
    """One step of SeedSequence's hash, mod 2**32: (the hashed value, the next constant h)."""
    h_next = h * mult & 0xFFFFFFFF
    value = (value ^ h) * h_next & 0xFFFFFFFF
    return value ^ value >> 16, h_next


def run_streams(seed, runs):
    """Yield, for each position i in `runs`, a Generator drawing run i's substream.

    Run i's substream is default_rng(SeedSequence(seed).spawn(S)[i]) for
    any S > i.  Every yield is the same Generator, moved to the next run:
    draw from it before advancing.  Child i's pool is the root's with i
    mixed in; that and PCG64's seeding are computed for a block of runs
    at a time, without a SeedSequence or bit generator per run.
    """
    root = seed_sequence(seed)
    n_words = sum(max(1, -(-int(e).bit_length() // 32)) for e in np.ravel(root.entropy))
    # the root's pool took 4 * max(4, n_words) steps of the hash constant
    h_pool = 0x43b0d7e5 * pow(0x931e8875, 4 * max(4, n_words), 2 ** 32) & 0xFFFFFFFF
    rng = np.random.Generator(np.random.PCG64(0))
    runs = np.asarray(runs, dtype=np.uint64)
    for part in blocks(runs.size, 40):  # a run's temporaries: about 40 elements' bytes
        h, pool, out = h_pool, [], []
        for p in root.pool.tolist():
            mixed, h = _hash(runs[part], h, 0x931e8875)
            r = (0xca01f9dd * p - 0x4973f715 * mixed) & 0xFFFFFFFF
            pool.append(r ^ r >> 16)
        h = 0x8b51f9dd
        for p in pool + pool:  # generate_state(4, np.uint64): 8 words from the cycled pool
            word, h = _hash(p, h, 0x58f38ded)
            out.append(word)
        words = [(out[2 * j] | out[2 * j + 1] << 32).tolist() for j in range(4)]
        for u0, u1, u2, u3 in zip(*words):
            inc = ((u2 << 64 | u3) << 1 | 1) % 2 ** 128  # PCG64's seeding, mod 2**128
            state = (inc + (u0 << 64 | u1)) * 0x2360ed051fc65da44385df649fccf645 + inc
            rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                       "state": {"state": state % 2 ** 128, "inc": inc}}
            yield rng


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
        # solve L z = (x - mu)^T by forward substitution in place; z is
        # (d, n) in Fortran layout, so each point's squares are summed over
        # contiguous memory, and each row is scaled by 1/L[i, i], as
        # OpenBLAS's trsm does: a diagonal L gives _isotropic_logpdf's bits
        z = np.subtract(np.atleast_2d(x), self.mean, order="C").T
        L = self._chol
        for i in range(self.dim):
            for j in range(i):
                z[i] -= L[i, j] * z[j]
            z[i] *= 1.0 / L[i, i]
        logdet = np.sum(np.log(np.diag(L)))
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


@dataclass(eq=False)
class SimulationTable:
    """S independent runs sharing (d_theta, d_y, M), one array per field.

    theta is (S, d_theta), y (S, d_y) and draws (S, M, d_theta).  log_p /
    log_q, when present, are (S, M+1): log p(theta|y) and log q(theta|y)
    at [theta, draw_1, ..., draw_M], each up to an additive constant shared
    within the run.  run_ids are unique integers in the int64 range, arange(S)
    by default.
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
        # the table format's run_id is an int64, so every valid table reads back
        if (ids.shape != (S,) or ids.dtype.kind not in "iu"
                or np.any(ids > np.iinfo(np.int64).max)):
            raise InvalidParameterError("run_ids must be S=%d integers in the int64 range" % S)
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

    def take(self, idx):
        """The table of the runs at positions idx (an index array or a slice)."""
        log_p, log_q = (None if a is None else a[idx] for a in (self.log_p, self.log_q))
        return SimulationTable(self.theta[idx], self.y[idx], self.draws[idx], log_p, log_q,
                               self.run_ids[idx])


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


def _isotropic_logpdf(x, mean, sd, out):
    """log N(x; mean, sd^2 I) over the last axis of x (S, K, d) into out (S, K); mean is (S, d).

    Matches GaussianPosterior.logpdf bit for bit: the residual is scaled by
    1/sd, as a triangular solve with a diagonal factor does, and the squares
    are summed over a contiguous last axis.
    """
    d = x.shape[-1]
    logdet = np.sum(np.log(np.full(d, sd)))
    r = np.subtract(x, mean[:, None, :])
    r *= 1.0 / sd
    r *= r
    np.multiply(r.sum(axis=-1), -0.5, out=out)
    out -= logdet
    out -= 0.5 * d * LOG_2PI


def generate_gaussian_table(d, S, M, sigma2, c, seed, attach_densities=False, rho=0.0):
    """Simulate S runs of the closed-form Gaussian scenario.

    Per run: theta ~ N(0, I_d), y ~ N(theta, sigma2*I), then M draws from
    the exact posterior N(y/(1+sigma2), sigma2/(1+sigma2)*I) with c.bias
    added to its mean and its covariance times c.variance_scale -- IID when
    rho=0, otherwise an AR(1) chain with that stationary marginal.  With
    attach_densities, log_p holds the exact posterior log density and log_q
    the corrupted one, both evaluated at [theta, draws].  Each run uses an
    independent RNG substream spawned from `seed` (see run_streams), so the
    table is deterministic and independent of any parallel scheduling.

    Only the random draws are taken run by run (one standard_normal call of
    2d + M*d values per substream: theta, the y noise, then the draws'
    innovations); the arithmetic is batched over runs and gives the same
    bits as building each run's GaussianPosterior pair and chain on its
    own (the per-run reference in the tests).  The table's theta and draws
    are views into one (S, M+2, d) buffer, and the log densities are
    written one block of runs at a time into their (S, M+1) arrays.
    """
    if d < 1 or S < 1 or M < 1:
        raise InvalidParameterError("d, S, M must all be >= 1")
    if not (sigma2 > 0 and math.isfinite(sigma2)):
        raise InvalidParameterError("sigma2 must be finite and > 0")
    if not math.isfinite(c.bias):
        raise InvalidParameterError("bias must be finite")
    if not (c.variance_scale > 0 and math.isfinite(c.variance_scale)):
        raise InvalidParameterError("variance_scale must be finite and > 0")
    if not (0.0 <= rho < 1.0):
        raise InvalidParameterError("rho must be in [0, 1)")
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
    for run, rng in zip(buf, run_streams(seed, np.arange(S))):
        rng.standard_normal(out=run.reshape(-1))
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
        # one block of runs at a time: the residuals are (runs, M+1, d)
        log_p, log_q = np.empty((S, M + 1)), np.empty((S, M + 1))
        for runs in blocks(S, (M + 1) * d):
            _isotropic_logpdf(occupants[runs], mean_p[runs], sd_p, log_p[runs])
            _isotropic_logpdf(occupants[runs], mean_q[runs], sd_q, log_q[runs])
    return SimulationTable(occupants[:, 0], y, draws, log_p, log_q)


def write_table(table, path):
    """Write a table as JSONL: header line, then one run per line.

    The runs are converted to Python numbers one block at a time.  A
    number costs about 32 bytes there (its float object and list slot),
    four times a float64, so a run counts four times its elements.
    """
    names = [name for name in ("theta", "y", "draws", "log_p", "log_q")
             if getattr(table, name) is not None]
    width = 4 * sum(math.prod(getattr(table, name).shape[1:]) for name in names)
    with open(path, "w") as fh:
        header = {"d_theta": table.d_theta, "d_y": table.d_y, "M": table.M, "S": table.S}
        fh.write(json.dumps(header) + "\n")
        for runs in blocks(table.S, width):
            _write_runs(fh, table, names, runs)


def _write_runs(fh, table, names, runs):
    """Write the JSONL lines of the runs at the slice `runs`."""
    columns = [getattr(table, name)[runs].tolist() for name in names]
    for run_id, *values in zip(table.run_ids[runs].tolist(), *columns):
        fh.write(json.dumps({"run_id": run_id, **dict(zip(names, values))}) + "\n")


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

    A line ends at the file's newline (\\n, \\r\\n or \\r); blank lines are
    skipped.  The file is streamed twice: the first pass counts the runs
    against the header's S, the second writes each record straight into
    preallocated (S, ...) arrays.  log_p / log_q are on every record or on
    none.
    """
    with open(path) as fh:
        first = fh.readline()
        if not first:
            raise TableFormatError("empty file", line=1)
        header = _json_object(first.rstrip("\n"), "header", 1)
        for key, low in (("d_theta", 1), ("d_y", 1), ("M", 1), ("S", 0)):
            value = header.get(key)
            if not (type(value) is int and value >= low):
                got = json.dumps(value) if key in header else "nothing"
                raise TableFormatError("header field %r must be an integer >= %d, got %s"
                                       % (key, low, got), line=1)
        d_theta, d_y, M, S = (header[k] for k in ("d_theta", "d_y", "M", "S"))
        found = sum(1 for raw in fh if raw.strip())
        if found != S:
            raise TableFormatError("header declares S=%d but found %d runs"
                                   % (S, found), line=1)
        shapes = {"theta": (d_theta,), "y": (d_y,), "draws": (M, d_theta),
                  "log_p": (M + 1,), "log_q": (M + 1,)}
        try:
            out = {name: np.empty((S,) + shape) for name, shape in shapes.items()}
        except (ValueError, MemoryError) as exc:
            raise TableFormatError("header sizes too large: %s" % exc, line=1) from exc
        run_ids = np.empty(S, dtype=np.int64)
        linenos = np.empty(S, dtype=np.int64)
        present = None  # the array fields of the first record
        fh.seek(0)
        fh.readline()
        records = ((lineno, raw.rstrip("\n")) for lineno, raw in enumerate(fh, start=2)
                   if raw.strip())
        for i, (lineno, raw) in enumerate(records):
            linenos[i] = lineno
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
        line = None if exc.row is None else int(linenos[exc.row])
        raise TableFormatError(str(exc), line=line) from exc
