"""Independent ground truth for the diagnostics.

Closed-form Gaussian divergences (KL, chi-squared), Monte-Carlo conditional
Jensen-Shannon, exact brute-force divergences D1..D4 on discrete instances,
the big-M rate check, the classical SBC chi-squared rank test, and the
naive-Bayes rank classifier that makes the SBC equivalence explicit.

Discrete instances may carry a finite data variable: pass p and q as
(n_y, n) arrays of conditionals plus a marginal py.  Outcomes are embedded
on the integer line for rank computations, with ties split uniformly
(exactly, not by sampling) -- the discrete analogue of continuous
tie-free ranks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from .label_mapping import _jittered_ranks_all, _jitter_slack, _run_jitter
from .sim_model import InvalidParameterError

ENUMERATION_BUDGET = 10**7


class EnumerationBudgetError(RuntimeError):
    pass


@dataclass
class DiscreteDist:
    probabilities: np.ndarray

    def __post_init__(self):
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        if np.any(self.probabilities < 0):
            raise InvalidParameterError("negative probability")
        if abs(self.probabilities.sum() - 1.0) > 1e-12:
            raise InvalidParameterError("probabilities must sum to 1 within 1e-12")


@dataclass
class OracleDivergences:
    d1: float
    d2: float
    d3: float
    d4: float


# ---- Gaussian oracles --------------------------------------------------------


def kl_mvn(p, q):
    """Closed-form KL(N_p || N_q) between multivariate normals."""
    d = p.dim
    if q.dim != d:
        raise InvalidParameterError("dimension mismatch")
    qi = np.linalg.inv(q.covariance)
    dm = q.mean - p.mean
    tr = float(np.trace(qi @ p.covariance))
    quad = float(dm @ qi @ dm)
    logdet = 2.0 * (np.sum(np.log(np.diag(q.chol))) - np.sum(np.log(np.diag(p.chol))))
    return 0.5 * (tr + quad - d + logdet)


def chi2_gaussian(p, q, n_mc=10**6, seed=0):
    """Chi-squared divergence E_q[(p/q - 1)^2] = Var_q(p/q).

    Equal covariances have the closed form exp(dm' Sigma^-1 dm) - 1; other
    cases use Monte Carlo over q.  Returns (value, standard error); a
    divergent integral (q too light-tailed against p) is reported as
    (inf, inf) with a warning.
    """
    if np.allclose(p.covariance, q.covariance, rtol=0, atol=1e-12):
        dm = p.mean - q.mean
        val = math.expm1(float(dm @ np.linalg.solve(q.covariance, dm)))
        return val, 0.0
    # integral of p^2/q exists iff 2*inv(Sigma_p) - inv(Sigma_q) is PD
    cond = 2.0 * np.linalg.inv(p.covariance) - np.linalg.inv(q.covariance)
    if np.any(np.linalg.eigvalsh(cond) <= 0):
        warnings.warn("chi-squared divergence diverges: q is too light-tailed "
                      "relative to p", RuntimeWarning)
        return float("inf"), float("inf")
    rng = np.random.default_rng(seed)
    x = q.sample(n_mc, rng)
    ratio = np.exp(p.logpdf(x) - q.logpdf(x))
    vals = (ratio - 1.0) ** 2
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_mc))


def jsd_conditional_mc(p, q, w=0.5, n_mc=10**5, seed=0):
    """Monte-Carlo w*KL(p||r) + (1-w)*KL(q||r), r = w*p + (1-w)*q.

    For the Gaussian suite the conditional divergence is constant in y, so
    this single unconditional computation is the conditional value.
    Returns (estimate, standard error).
    """
    if not (0.0 <= w <= 1.0):
        raise InvalidParameterError("w must be in [0, 1]")
    if w == 0.0 or w == 1.0:
        return 0.0, 0.0
    rng = np.random.default_rng(seed)

    def term(dist, wt):
        x = dist.sample(n_mc, rng)
        lp, lq = p.logpdf(x), q.logpdf(x)
        lr = np.logaddexp(math.log(w) + lp, math.log(1.0 - w) + lq)
        vals = (lp if dist is p else lq) - lr
        return wt * vals.mean(), (wt ** 2) * vals.var(ddof=1) / n_mc

    m1, v1 = term(p, w)
    m2, v2 = term(q, 1.0 - w)
    return float(m1 + m2), float(math.sqrt(v1 + v2))


# ---- discrete machinery ------------------------------------------------------


def _as_conditional(p, q, py):
    """Normalize inputs to (py (ny,), p (ny,n), q (ny,n))."""
    if isinstance(p, DiscreteDist):
        p = p.probabilities
    if isinstance(q, DiscreteDist):
        q = q.probabilities
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim == 1:
        p = p[None, :]
        q = q[None, :]
        py = np.array([1.0])
    else:
        if py is None:
            raise InvalidParameterError("conditional instances need a marginal py")
        py = np.asarray(py, dtype=float)
    if p.shape != q.shape or py.shape != (p.shape[0],):
        raise InvalidParameterError("shape mismatch between p, q, py")
    for arr in (p, q):
        if np.any(arr < 0) or np.any(np.abs(arr.sum(axis=1) - 1.0) > 1e-12):
            raise InvalidParameterError("rows must be probability simplexes")
    if np.any(py < 0) or abs(py.sum() - 1.0) > 1e-12:
        raise InvalidParameterError("py must be a probability simplex")
    return py, p, q


def mixture_divergence_discrete(p, q, w0):
    """w0*KL(p||r) + (1-w0)*KL(q||r) with r = w0*p + (1-w0)*q (exact)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    r = w0 * p + (1.0 - w0) * q
    out = 0.0
    for prob, wt in ((p, w0), (q, 1.0 - w0)):
        mask = prob > 0
        out += wt * float(np.sum(prob[mask] * np.log(prob[mask] / r[mask])))
    return out


def discrete_jsd(p, q):
    return mixture_divergence_discrete(p, q, 0.5)


def discrete_kl(p, q, py=None):
    py, p, q = _as_conditional(p, q, py)
    out = 0.0
    for wy, prow, qrow in zip(py, p, q):
        mask = prow > 0
        if np.any(qrow[mask] == 0):
            return float("inf")
        out += wy * float(np.sum(prow[mask] * np.log(prow[mask] / qrow[mask])))
    return out


def discrete_chi2(p, q, py=None):
    py, p, q = _as_conditional(p, q, py)
    out = 0.0
    for wy, prow, qrow in zip(py, p, q):
        if np.any((qrow == 0) & (prow > 0)):
            return float("inf")
        mask = qrow > 0
        out += wy * float(np.sum(prow[mask] ** 2 / qrow[mask]) - 1.0)
    return out


def _multinomial_counts(M, q):
    """Yield (counts, probability) over outcomes of M iid draws from q."""
    n = q.shape[0]
    logq = np.full(n, -np.inf)
    np.log(q, out=logq, where=q > 0)
    lgM = math.lgamma(M + 1)

    def rec(prefix, remaining, k):
        if k == n - 1:
            yield prefix + (remaining,)
            return
        for c in range(remaining + 1):
            yield from rec(prefix + (c,), remaining - c, k + 1)

    for counts in rec((), M, 0):
        c = np.asarray(counts)
        if np.any((c > 0) & (q == 0)):
            continue
        logprob = (lgM - sum(math.lgamma(k + 1) for k in counts)
                   + float(np.sum(c[c > 0] * logq[c > 0])))
        yield c, math.exp(logprob)


def _count_space_size(M, n):
    return math.comb(M + n - 1, n - 1)


def _check_budget(M, n, ny):
    if _count_space_size(M, n) * n * ny > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            "exact enumeration over %d outcome patterns exceeds the budget"
            % (_count_space_size(M, n) * n * ny))


def _rank_pmfs_given_y(p, q, M):
    """Exact class-conditional rank distributions for one conditional pair.

    Class 0: rank of a p-outcome among M iid q-references.  Class 1: rank of
    one designated q-draw among the other M-1 q-draws plus one p-draw.
    Ranks use the strictly-greater count with ties split uniformly over the
    tied positions (the exact law of jitter tie-breaking).
    """
    n = p.shape[0]
    pmf0 = np.zeros(M + 1)
    for a in range(n):
        if p[a] == 0:
            continue
        for c, prob in _multinomial_counts(M, q):
            g = int(c[a + 1:].sum())
            e = int(c[a])
            pmf0[g:g + e + 1] += p[a] * prob / (e + 1)
    pmf1 = np.zeros(M + 1)
    for a in range(n):
        if q[a] == 0:
            continue
        for c, prob in _multinomial_counts(M - 1, q):
            base_g = int(c[a + 1:].sum())
            base_e = int(c[a])
            for d_out in range(n):
                if p[d_out] == 0:
                    continue
                g = base_g + (1 if d_out > a else 0)
                e = base_e + (1 if d_out == a else 0)
                pmf1[g:g + e + 1] += q[a] * prob * p[d_out] / (e + 1)
    return pmf0, pmf1


def _d4_given_y(p, q, M):
    """Exact D4 for one conditional pair via multinomial-count enumeration.

    D4 = E_{pi_0}[log(pi_0 / mixture)]; collapsing the draw tuple to its
    outcome counts is exact because the summand depends only on counts.
    """
    n = p.shape[0]
    K = M + 1
    ratio = np.zeros(n)
    pos = q > 0
    ratio[pos] = p[pos] / q[pos]
    total = 0.0
    for a in range(n):
        if p[a] == 0:
            continue
        qa_over_pa = q[a] / p[a]
        for c, prob in _multinomial_counts(M, q):
            s = float(np.dot(c, ratio))
            total += p[a] * prob * (-math.log((1.0 + qa_over_pa * s) / K))
    return total


def brute_force_divergences(p, q, M, py=None):
    """Exact D1..D4 for a discrete instance by exhaustive summation.

    p and q are either plain simplexes (no data variable) or (n_y, n) arrays
    of conditionals with marginal py.  Without a data variable D2 coincides
    with D1 (there is nothing to marginalize away).
    """
    if M < 1:
        raise InvalidParameterError("M must be >= 1")
    py, p, q = _as_conditional(p, q, py)
    ny, n = p.shape
    _check_budget(M, n, ny)
    w0 = 1.0 / (M + 1)

    d1 = sum(wy * mixture_divergence_discrete(prow, qrow, w0)
             for wy, prow, qrow in zip(py, p, q))
    d2 = mixture_divergence_discrete(py @ p, py @ q, w0)
    pmf0 = np.zeros(M + 1)
    pmf1 = np.zeros(M + 1)
    for wy, prow, qrow in zip(py, p, q):
        r0, r1 = _rank_pmfs_given_y(prow, qrow, M)
        pmf0 += wy * r0
        pmf1 += wy * r1
    d3 = mixture_divergence_discrete(pmf0, pmf1, w0)
    d4 = sum(wy * _d4_given_y(prow, qrow, M) for wy, prow, qrow in zip(py, p, q))
    return OracleDivergences(d1=float(d1), d2=float(d2), d3=float(d3), d4=float(d4))


def d4_tuple_enumeration(p, q, M, py=None):
    """Direct n^(M+1) tuple enumeration of D4; cross-check for small M."""
    py, p, q = _as_conditional(p, q, py)
    ny, n = p.shape
    if ny * n ** (M + 1) > ENUMERATION_BUDGET:
        raise EnumerationBudgetError("tuple space too large")
    K = M + 1
    total = 0.0
    for wy, prow, qrow in zip(py, p, q):
        for tup in product(range(n), repeat=K):
            pi = [prow[tup[k]] * math.prod(qrow[tup[m]] for m in range(K) if m != k)
                  for k in range(K)]
            if pi[0] == 0:
                continue
            total += wy * pi[0] * math.log(pi[0] / (sum(pi) / K))
    return total


def d4_rate_check(p, q, M_list, py=None):
    """Tabulate exact D4 against the expansion KL - chi2/(2M) for each M."""
    kl = discrete_kl(p, q, py)
    chi2 = discrete_chi2(p, q, py)
    py_n, p_n, q_n = _as_conditional(p, q, py)
    rows = []
    for M in M_list:
        _check_budget(M, p_n.shape[1], p_n.shape[0])
        d4 = sum(wy * _d4_given_y(prow, qrow, M)
                 for wy, prow, qrow in zip(py_n, p_n, q_n))
        expansion = kl - chi2 / (2.0 * M)
        rows.append({"M": M, "d4": float(d4), "expansion": float(expansion),
                     "residual": float(abs(d4 - expansion))})
    return rows


def optimal_weighted_elpd(p, q, M):
    """Exact weighted ELPD of the Bayes classifier on a discrete instance.

    Population: fraction 1/(M+1) label-0 examples with feature ~ p and
    M/(M+1) label-1 with feature ~ q; balanced weights (M+1)/2 and
    (M+1)/(2M); Bayes posterior Pr(t=0|x) = p(x)/(p(x)+q(x)).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    w_pop = np.array([1.0 / (M + 1), M / (M + 1.0)])
    w_loss = np.array([(M + 1) / 2.0, (M + 1) / (2.0 * M)])
    out = 0.0
    for x in range(p.shape[0]):
        tot = p[x] + q[x]
        if tot == 0:
            continue
        if p[x] > 0:
            out += w_pop[0] * w_loss[0] * p[x] * math.log(p[x] / tot)
        if q[x] > 0:
            out += w_pop[1] * w_loss[1] * q[x] * math.log(q[x] / tot)
    return out


# ---- SBC baseline ------------------------------------------------------------


def _jittered_ranks(table, coordinate, seed):
    """(S, M+1) ranks of [theta, draws] at one coordinate, for every run.

    The tie-breaking jitter follows label_mapping's rule: run i draws it
    from the i-th substream spawned from `seed`.
    """
    vals = np.concatenate([table.theta[:, None, coordinate],
                           table.draws[:, :, coordinate]], axis=1)
    return _jittered_ranks_all(vals[:, None], seed)[:, 0]


def sbc_ranks(table, coordinate=0, seed=0):
    """Rank of theta among the draws, per run, with jitter tie-breaking.

    Column 0 of _jittered_ranks, from theta alone: theta's stable rank is
    the number of draws >= theta, and only a run with a draw within the
    jitter's slack of theta (see label_mapping._jittered_ranks_all) counts
    its draws after adding the run's jitter.
    """
    theta = table.theta[:, coordinate, None]
    draws = table.draws[:, :, coordinate]
    slack = _jitter_slack(np.maximum(np.abs(draws).max(axis=1, keepdims=True), np.abs(theta)))
    close = np.flatnonzero((np.abs(draws - theta) <= slack).any(axis=1))
    ranks = np.count_nonzero(draws >= theta, axis=1)
    if close.size:
        jittered = np.concatenate([theta[close], draws[close]], axis=1)
        jittered += _run_jitter(seed, close, (1, table.M + 1))[:, 0]
        ranks[close] = np.count_nonzero(jittered[:, 1:] >= jittered[:, :1], axis=1)
    return ranks


def _chi2_sf(df, x):
    """Upper tail Pr(X >= x) of a χ² variable with integer df >= 1 degrees of freedom.

    The finite series of the regularized Q(a, h), a = df/2, h = x/2: even
    df gives e^-h sum_{k<a} h^k/k!, odd df erfc(sqrt(h)) plus
    e^-h sum_{k=1}^{a-1/2} h^(k-1/2)/Γ(k+1/2).  Each term is taken from its
    logarithm, so e^-h never underflows on its own, and the positive terms
    are summed exactly with math.fsum.
    """
    if x <= 0:
        return 1.0
    if x == math.inf:
        return 0.0
    h = 0.5 * x
    log_h = math.log(h)
    head = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    # terms e^-h h^(j-1)/Γ(j) for j = a, a-1, ... down to 1 (even df) or 3/2 (odd)
    js = [0.5 * df - i for i in range(df // 2)]
    return head + math.fsum(math.exp((j - 1.0) * log_h - h - math.lgamma(j)) for j in js)


def _pearson_pvalue(obs, exp):
    """Upper χ² tail of Pearson's statistic, with len(obs) - 1 degrees of freedom.

    The statistic is the float64 sum `scipy.stats.chisquare` computes, and
    its totals check agrees: totals that differ by more than a relative
    sqrt(eps) raise.  The tail is _chi2_sf.
    """
    obs = np.asarray(obs, dtype=np.float64)
    exp = np.asarray(exp, dtype=np.float64)
    obs_sum, exp_sum = obs.sum(), exp.sum()
    if abs(obs_sum - exp_sum) / min(obs_sum, exp_sum) > np.sqrt(np.finfo(np.float64).eps):
        raise InvalidParameterError(
            "observed total %.17g and expected total %.17g differ" % (obs_sum, exp_sum))
    stat = np.sum((obs - exp) ** 2 / exp)
    return _chi2_sf(obs.size - 1, float(stat))


def sbc_rank_test(table, n_bins=None, alpha=0.05, seed=0):
    """Classical SBC: chi-squared uniformity of ranks, Bonferroni over dims.

    Returns (per-dimension p-values, reject flag).  Bins partition the M+1
    rank atoms contiguously; unequal bin sizes get exact expected counts.
    No runs, or an alpha outside (0, 1), raise before any ranking.
    """
    if table.S == 0:
        raise InvalidParameterError("SBC needs at least one run")
    if not 0 < alpha < 1:
        raise InvalidParameterError("alpha must be in (0, 1), got %r" % alpha)
    M = table.M
    if n_bins is None:
        n_bins = min(M + 1, 20)
    if not (2 <= n_bins <= M + 1):
        raise InvalidParameterError("n_bins must be in [2, M+1]")
    edges = np.floor(np.arange(n_bins + 1) * (M + 1) / n_bins).astype(int)
    atom_counts = np.diff(edges)
    pvals = np.empty(table.d_theta)
    children = np.random.SeedSequence(seed).spawn(table.d_theta)
    for j in range(table.d_theta):
        ranks = sbc_ranks(table, coordinate=j,
                          seed=int(children[j].generate_state(1)[0]))
        obs = np.histogram(ranks, bins=edges)[0]
        exp = table.S * atom_counts / (M + 1.0)
        pvals[j] = _pearson_pvalue(obs, exp)
    reject = bool(pvals.min() < alpha / table.d_theta)
    return pvals, reject


def naive_bayes_rank_divergence(table, seed=0):
    """Plug-in rank-mapping divergence from histogram class-conditionals.

    Builds the rank of theta (class 0) and, for every draw, its rank among
    the other draws plus theta (class 1), estimates both pmfs by empirical
    histograms over {0..M}, and evaluates the binary mixture divergence
    with weights (1/(M+1), M/(M+1)).  This is the naive-Bayes classifier
    view of the classical SBC statistic.
    """
    if table.d_theta != 1:
        raise InvalidParameterError("naive-Bayes rank estimate needs d_theta=1")
    M = table.M
    ranks = _jittered_ranks(table, 0, seed)
    h0 = np.bincount(ranks[:, 0], minlength=M + 1).astype(float)
    h1 = np.bincount(ranks[:, 1:].ravel(), minlength=M + 1).astype(float)
    if h0.sum() == 0 or h1.sum() == 0:
        raise InvalidParameterError("empty class")
    return mixture_divergence_discrete(h0 / h0.sum(), h1 / h1.sum(), 1.0 / (M + 1))
