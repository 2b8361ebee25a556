"""Tests for the simulation-table data model and Gaussian generators."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    assert t1.theta.shape == (4, 2) and t1.y.shape == (4, 2)
    assert t1.draws.shape == (4, 3, 2) and t1.log_p.shape == (4, 4)
    np.testing.assert_array_equal(t1.run_ids, np.arange(4))
    np.testing.assert_array_equal(t1.theta, t2.theta)
    np.testing.assert_array_equal(t1.draws, t2.draws)
    np.testing.assert_array_equal(t1.log_p, t2.log_p)
    t3 = sm.generate_gaussian_table(2, 4, 3, 1.0, c, seed=6)
    assert not np.array_equal(t1.theta[0], t3.theta[0])
    assert not t3.has_densities


def test_minimal_table():
    t = sm.generate_gaussian_table(1, 1, 1, 1.0, sm.Corruption(), seed=0)
    assert t.S == 1 and t.M == 1 and t.draws.shape == (1, 1, 1)


def test_attached_densities_are_exact():
    c = sm.Corruption(bias=0.3, variance_scale=1.5)
    t = sm.generate_gaussian_table(2, 3, 4, 2.0, c, seed=9, attach_densities=True)
    for i in range(t.S):
        p = sm.exact_gaussian_posterior(t.y[i], 2.0)
        q = sm.corrupt(p, c)
        pts = np.vstack([t.theta[i][None, :], t.draws[i]])
        np.testing.assert_allclose(t.log_p[i], p.logpdf(pts), atol=1e-12)
        np.testing.assert_allclose(t.log_q[i], q.logpdf(pts), atol=1e-12)


def test_run_validation():
    # a run's draws must share theta's dimension
    with pytest.raises(sm.InvalidParameterError, match="theta has shape"):
        sm.SimulationTable(np.zeros((1, 2)), np.zeros((1, 1)), np.zeros((1, 3, 1)))
    # log densities have length M+1 per run
    with pytest.raises(sm.InvalidParameterError, match="log_p"):
        sm.SimulationTable(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 2, 1)),
                           log_p=np.zeros((1, 2)))
    # M >= 1
    with pytest.raises(sm.InvalidParameterError, match="M"):
        sm.SimulationTable(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 0, 1)))
    # non-finite values name the first bad run
    theta = np.zeros((3, 1))
    theta[1:] = np.nan
    with pytest.raises(sm.InvalidParameterError, match="run 11: non-finite theta") as err:
        sm.SimulationTable(theta, np.zeros((3, 1)), np.zeros((3, 2, 1)),
                           run_ids=[10, 11, 12])
    assert err.value.row == 1
    log_q = np.zeros((3, 3))
    log_q[2, 0] = np.inf
    with pytest.raises(sm.InvalidParameterError, match="run 2: non-finite log_q"):
        sm.SimulationTable(np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((3, 2, 1)),
                           log_q=log_q)


def test_table_validation():
    # duplicate ids: the error names the id and the row of its second use
    with pytest.raises(sm.InvalidParameterError, match="duplicate run_id 0") as err:
        sm.SimulationTable(np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((3, 2, 1)),
                           run_ids=[0, 5, 0])
    assert err.value.row == 2
    # dimension mismatches between theta, y and draws
    with pytest.raises(sm.InvalidParameterError):
        sm.SimulationTable(np.zeros((1, 2)), np.zeros((1, 1)), np.zeros((1, 2, 1)))
    with pytest.raises(sm.InvalidParameterError):
        sm.SimulationTable(np.zeros((2, 1)), np.zeros((1, 1)), np.zeros((2, 2, 1)))
    with pytest.raises(sm.InvalidParameterError):
        sm.SimulationTable(np.zeros(1), np.zeros(1), np.zeros((2, 1)))
    # ids are S integers
    with pytest.raises(sm.InvalidParameterError, match="run_ids"):
        sm.SimulationTable(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 2, 1)),
                           run_ids=[0.5, 1.5])
    with pytest.raises(sm.InvalidParameterError, match="run_ids"):
        sm.SimulationTable(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 2, 1)),
                           run_ids=[0])
    # an empty table is valid; the sizes come from the shapes
    empty = sm.SimulationTable(np.zeros((0, 2)), np.zeros((0, 1)), np.zeros((0, 3, 2)))
    assert (empty.S, empty.M, empty.d_theta, empty.d_y) == (0, 3, 2, 1)


def test_table_arrays_are_read_only():
    # a write after validation raises instead of reaching mapping or training;
    # the table holds views, so the caller's arrays stay writeable
    theta, y, draws = np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((3, 2, 1))
    log_p, log_q = np.zeros((3, 3)), np.zeros((3, 3))
    t = sm.SimulationTable(theta, y, draws, log_p, log_q, run_ids=np.arange(3))
    for name in ("theta", "y", "draws", "log_p", "log_q", "run_ids"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(t, name)[0] = 1
    assert np.shares_memory(t.log_p, log_p)
    log_p[1, 0] = np.nan
    assert theta.flags.writeable and draws.flags.writeable
    g = sm.generate_gaussian_table(1, 12, 3, 1.0, sm.Corruption(), seed=0,
                                   attach_densities=True)
    with pytest.raises(ValueError, match="read-only"):
        g.log_p[5, 0] = np.nan
    assert not g.take([1, 2]).theta.flags.writeable


def test_take_selects_runs():
    t = sm.generate_gaussian_table(2, 5, 3, 1.0, sm.Corruption(bias=0.2), seed=4,
                                   attach_densities=True)
    sub = t.take([3, 1])
    np.testing.assert_array_equal(sub.run_ids, [3, 1])
    for name in ("theta", "y", "draws", "log_p", "log_q"):
        np.testing.assert_array_equal(getattr(sub, name), getattr(t, name)[[3, 1]])
    assert t.take(slice(0, 0)).S == 0
    assert t.take([0]).has_densities
    bare = sm.generate_gaussian_table(1, 3, 2, 1.0, sm.Corruption(), seed=0)
    assert bare.take([2]).log_p is None and not bare.take([2]).has_densities


def test_write_read_round_trip(tmp_path):
    c = sm.Corruption(bias=0.1)
    t = sm.generate_gaussian_table(2, 5, 3, 1.0, c, seed=1, attach_densities=True)
    path = tmp_path / "table.jsonl"
    sm.write_table(t, str(path))
    back = sm.read_table(str(path))
    assert back.S == t.S and back.M == t.M and back.d_theta == t.d_theta
    np.testing.assert_array_equal(back.run_ids, t.run_ids)
    for name in ("theta", "y", "draws", "log_p", "log_q"):
        np.testing.assert_array_equal(getattr(back, name), getattr(t, name))


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


HEADER = '{"d_theta":1,"d_y":1,"M":2,"S":2}'
REC0 = '{"run_id":0,"theta":[0.0],"y":[0.0],"draws":[[0.1],[0.2]]}'
REC1 = '{"run_id":1,"theta":[0.5],"y":[1.0],"draws":[[0.3],[0.4]]}'
DENS = ',"log_p":[0.0,0.0,0.0],"log_q":[0.0,0.0,0.0]}'

# (file lines, line of the error, message pattern)
MALFORMED = {
    "header-string-field": (['{"d_theta":"x","d_y":1,"M":2,"S":2}', REC0, REC1], 1,
                            "d_theta"),
    "header-bool-field": (['{"d_theta":1,"d_y":true,"M":2,"S":2}', REC0, REC1], 1, "d_y"),
    "header-float-field": (['{"d_theta":1,"d_y":1,"M":2.0,"S":2}', REC0, REC1], 1, "'M'"),
    "header-zero-dimension": (['{"d_theta":0,"d_y":1,"M":2,"S":2}', REC0, REC1], 1,
                              "d_theta"),
    "header-negative-S": (['{"d_theta":1,"d_y":1,"M":2,"S":-1}'], 1, "'S'"),
    "header-huge-M": (['{"d_theta":1,"d_y":1,"M":%d,"S":1}' % 10**30, REC0], 1,
                      "too large"),
    "header-number": (["5", REC0, REC1], 1, "header is not a JSON object"),
    "header-list": (["[1, 2]", REC0, REC1], 1, "header is not a JSON object"),
    "record-number": ([HEADER, REC0, "7"], 3, "record is not a JSON object"),
    "record-string": ([HEADER, '"run"', REC1], 2, "record is not a JSON object"),
    "theta-string": ([HEADER, REC0.replace("[0.0]", '["a"]', 1), REC1], 2, "theta"),
    "theta-numeric-string": ([HEADER, REC0, REC1.replace("[0.5]", '["0.5"]')], 3,
                             "theta"),
    "draws-null": ([HEADER, REC0.replace("[0.2]", "[null]"), REC1], 2, "draws"),
    "draws-bool-among-numbers": ([HEADER, REC0, REC1.replace("[0.4]", "[true]")], 3,
                                 "draws"),
    "y-object": ([HEADER, REC0.replace('"y":[0.0]', '"y":{"a":1}'), REC1], 2, "y"),
    "draws-ragged": ([HEADER, REC0.replace("[[0.1],[0.2]]", "[[0.1],[0.2,0.3]]"),
                      REC1], 2, "draws"),
    "theta-broadcast": (['{"d_theta":2,"d_y":1,"M":2,"S":1}',
                         '{"run_id":0,"theta":[0.0],"y":[0.0],"draws":[[0,0],[0,0]]}'],
                        2, "theta"),
    "draws-single-row": ([HEADER, REC0, REC1.replace("[[0.3],[0.4]]", "[[0.3]]")], 3,
                         "draws"),
    "run-id-float": ([HEADER, REC0.replace('"run_id":0', '"run_id":1.5'),
                      REC1.replace('"run_id":1', '"run_id":1.7')], 2, "run_id"),
    "run-id-bool": ([HEADER, REC0, REC1.replace('"run_id":1', '"run_id":true')], 3,
                    "run_id"),
    "run-id-string": ([HEADER, REC0.replace('"run_id":0', '"run_id":"0"'), REC1], 2,
                      "run_id"),
    "run-id-duplicate": ([HEADER, REC0, REC1.replace('"run_id":1', '"run_id":0')], 3,
                         "duplicate run_id 0"),
    "densities-on-first-only": ([HEADER, REC0[:-1] + DENS, REC1], 3, "log_p"),
    "densities-on-second-only": ([HEADER, REC0, REC1[:-1] + DENS], 3, "log_p"),
    "log-q-wrong-length": ([HEADER, REC0[:-1] + DENS, REC1[:-1] + DENS.replace(
        '"log_q":[0.0,0.0,0.0]', '"log_q":[0.0,0.0]')], 3, "log_q"),
    "nan-in-draws": ([HEADER, REC0, REC1.replace("0.4", "NaN")], 3, "non-finite draws"),
    "overflow-in-theta": ([HEADER, REC0.replace("[0.0]", "[1e400]", 1), REC1], 2,
                          "non-finite theta"),
    "missing-field": ([HEADER, REC0, REC1.replace('"y":[1.0],', "")], 3, "'y'"),
    "too-few-runs": ([HEADER, REC0], 1, "S=2"),
    "too-many-runs": ([HEADER, REC0, REC1, REC1.replace('"run_id":1', '"run_id":2')], 1,
                      "S=2"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_read_table_rejects_malformed_file(case, tmp_path):
    lines, line, pattern = MALFORMED[case]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(sm.TableFormatError, match=pattern) as err:
        sm.read_table(str(path))
    assert err.value.line == line
    assert str(err.value).startswith("line %d: " % line)


def test_read_table_skips_blank_lines_and_keeps_ids(tmp_path):
    path = tmp_path / "ok.jsonl"
    path.write_text("\n".join([HEADER, "", REC1.replace('"run_id":1', '"run_id":-4'),
                               "   ", REC0[:-1].replace('"run_id":0', '"run_id":9')
                               + "}", ""]) + "\n")
    t = sm.read_table(str(path))
    np.testing.assert_array_equal(t.run_ids, [-4, 9])
    np.testing.assert_array_equal(t.theta, [[0.5], [0.0]])
    np.testing.assert_array_equal(t.draws, [[[0.3], [0.4]], [[0.1], [0.2]]])
    assert not t.has_densities
    # an empty table is a header with S=0 and no records
    path.write_text('{"d_theta":2,"d_y":1,"M":3,"S":0}\n')
    t = sm.read_table(str(path))
    assert (t.S, t.M, t.d_theta, t.d_y) == (0, 3, 2, 1)


_FIELDS = ("run_id", "theta", "y", "draws", "log_p", "log_q")


@st.composite
def corrupted_tables(draw):
    """A written table, one record's position and a corruption of that record."""
    d, S, M = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    table = sm.generate_gaussian_table(d, S, M, 1.0, sm.Corruption(bias=0.2),
                                       seed=draw(st.integers(0, 2**32 - 1)),
                                       attach_densities=draw(st.booleans()))
    i = draw(st.integers(0, S - 1))
    how = draw(st.sampled_from(["length", "nan", "type", "drop"]))
    arrays = [f for f in _FIELDS[1:] if getattr(table, f) is not None]
    if how == "drop":
        field = draw(st.sampled_from(_FIELDS[:4]))
    elif how == "type":
        field = draw(st.sampled_from(_FIELDS[:1] + tuple(arrays)))
    else:
        field = draw(st.sampled_from(arrays))
    choice = draw(st.data())
    return table, i, how, field, choice


def _corrupt(rec, how, field, data):
    if how == "drop":
        del rec[field]
        return
    value = rec[field]
    if how == "type":
        bad = data.draw(st.sampled_from(["x", None, [], {"a": 1}, "1.5", 1.5]))
        if field == "run_id":
            rec[field] = data.draw(st.sampled_from([1.5, True, "3", None, [0]]))
        elif bad == 1.5 or bad == []:
            rec[field] = bad  # a scalar or an empty array: wrong shape
        else:
            flat = value if not isinstance(value[0], list) else value[0]
            flat[data.draw(st.integers(0, len(flat) - 1))] = bad
        return
    target = value if not isinstance(value[0], list) else \
        value[data.draw(st.integers(0, len(value) - 1))]
    if how == "nan":
        target[data.draw(st.integers(0, len(target) - 1))] = math.nan
    elif isinstance(value[0], list) and data.draw(st.booleans()):
        value.append(list(value[0]))   # one draw too many
    elif len(target) > 1 and data.draw(st.booleans()):
        target.pop()
    else:
        target.append(0.25)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(corrupted_tables())
def test_read_table_labels_a_corrupted_record_with_its_line(tmp_path_factory, case):
    table, i, how, field, data = case
    path = tmp_path_factory.mktemp("prop") / "table.jsonl"
    sm.write_table(table, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[i + 1])
    _corrupt(rec, how, field, data)
    lines[i + 1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(sm.TableFormatError) as err:
        sm.read_table(str(path))
    assert err.value.line == i + 2, (how, field, str(err.value))


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
        runs.append((theta, y, draws, log_p, log_q))
    theta, y, draws, log_p, log_q = zip(*runs)
    return sm.SimulationTable(np.stack(theta), np.stack(y), np.stack(draws),
                              None if log_p[0] is None else np.stack(log_p),
                              None if log_q[0] is None else np.stack(log_q))


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
            np.testing.assert_array_equal(new.run_ids, ref.run_ids)
            np.testing.assert_array_equal(new.theta, ref.theta)
            np.testing.assert_array_equal(new.y, ref.y)
            np.testing.assert_array_equal(new.draws, ref.draws)
            if densities:
                np.testing.assert_allclose(new.log_p, ref.log_p, rtol=0, atol=1e-12)
                np.testing.assert_allclose(new.log_q, ref.log_q, rtol=0, atol=1e-12)
            else:
                assert new.log_p is None and new.log_q is None
