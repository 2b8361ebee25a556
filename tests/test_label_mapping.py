"""Tests for the label mappings and batching machinery."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from discal import classifier as clf
from discal import label_mapping as lm
from discal import sim_model as sm


def small_table(d=2, S=6, M=3, bias=0.0, seed=0, densities=True):
    c = sm.Corruption(bias=bias)
    return sm.generate_gaussian_table(d, S, M, 1.0, c, seed=seed,
                                      attach_densities=densities)


def test_binary_full_layout():
    t = small_table()
    run = t.runs[0]
    b = lm.map_run(run, lm.MappingKind.BINARY_FULL, lm.FeatureConfig())
    assert b.kind is lm.MappingKind.BINARY_FULL
    assert b.features.shape == (4, 4)  # (theta 2 | y 2) per example
    np.testing.assert_array_equal(b.labels, [0, 1, 1, 1])
    np.testing.assert_allclose(b.features[0], np.concatenate([run.theta, run.y]))
    np.testing.assert_allclose(b.features[2], np.concatenate([run.draws[1], run.y]))
    assert b.label_multiset == {0: 1, 1: 3}


def test_binary_no_y_drops_y():
    t = small_table()
    b = lm.map_run(t.runs[0], lm.MappingKind.BINARY_NO_Y, lm.FeatureConfig())
    assert b.kind is lm.MappingKind.BINARY_NO_Y
    assert b.features.shape == (4, 2)
    np.testing.assert_allclose(b.features[0], t.runs[0].theta)


def test_linear_feature_block_order_and_names():
    t = small_table(d=1)
    cfg = lm.FeatureConfig(linear_features=("log_q", "log_p"))
    b = lm.map_run(t.runs[0], lm.MappingKind.BINARY_FULL, cfg)
    assert b.linear_names == ("log_q", "log_p")
    np.testing.assert_allclose(b.linear()[:, 0], t.runs[0].log_q)
    np.testing.assert_allclose(b.linear()[:, 1], t.runs[0].log_p)


def test_density_features_require_densities():
    t = small_table(densities=False)
    cfg = lm.FeatureConfig(linear_features=("log_p",))
    with pytest.raises(lm.ConfigurationError):
        lm.map_run(t.runs[0], lm.MappingKind.BINARY_FULL, cfg)


def test_unknown_linear_feature_rejected():
    with pytest.raises(lm.ConfigurationError):
        lm.FeatureConfig(linear_features=("nonsense",))


def test_theta_subset():
    t = small_table(d=3)
    cfg = lm.FeatureConfig(theta_subset=(2,))
    b = lm.map_run(t.runs[0], lm.MappingKind.BINARY_NO_Y, cfg)
    assert b.features.shape == (4, 1)
    np.testing.assert_allclose(b.features[0, 0], t.runs[0].theta[2])
    with pytest.raises(lm.ConfigurationError):
        lm.map_run(t.runs[0], lm.MappingKind.BINARY_NO_Y,
                   lm.FeatureConfig(theta_subset=(5,)))


def test_rank_statistic_basic():
    # entry 0 ranked against the rest: the strictly-greater count
    assert lm._ranks_all([2.0, 1.0, 3.0, 4.0])[0] == 2
    assert lm._ranks_all([5.0, 1.0, 3.0, 4.0])[0] == 0
    assert lm._ranks_all([0.0, 1.0, 3.0, 4.0])[0] == 3
    # rows along the last axis are ranked independently
    np.testing.assert_array_equal(
        lm._ranks_all([[2.0, 1.0, 3.0, 4.0], [5.0, 1.0, 3.0, 4.0]])[:, 0], [2, 0])
    with pytest.raises(sm.InvalidParameterError):
        lm._ranks_all([0.0])
    with pytest.raises(sm.InvalidParameterError):
        lm._ranks_all(np.zeros((3, 1)))


def test_rank_statistic_jitter_breaks_ties_uniformly():
    # all values tied: each run's own jitter substream must spread the rank
    # over {0..M}
    ranks = lm._jittered_ranks_all(np.ones((2000, 1, 4)), seed=0)[:, 0, 0]
    counts = np.bincount(ranks, minlength=4)
    assert counts.min() > 0
    # each atom should get roughly a quarter of the mass
    assert np.all(np.abs(counts / 2000 - 0.25) < 0.05)
    # one draw jitters all of a run's rows; each row stays a permutation
    batch = lm._jittered_ranks_all(np.ones((500, 4, 4)), seed=1).reshape(2000, 4)
    assert np.all(np.sort(batch, axis=1) == np.arange(4))
    counts = np.bincount(batch[:, 0], minlength=4)
    assert np.all(np.abs(counts / 2000 - 0.25) < 0.05)
    # run i's jitter is one (n, K) draw from the i-th spawned substream
    vals = np.ones((3, 2, 4))
    children = np.random.SeedSequence(7).spawn(3)
    ref = [lm._ranks_all(v + np.random.default_rng(ss).uniform(0.0, lm.JITTER_SCALE, (2, 4)))
           for v, ss in zip(vals, children)]
    np.testing.assert_array_equal(lm._jittered_ranks_all(vals, seed=7), ref)


def test_ranks_all_matches_pairwise_definition():
    rng = np.random.default_rng(4)
    vals = rng.standard_normal(8)
    ranks = lm._ranks_all(vals)
    for i in range(8):
        assert ranks[i] == np.sum(vals > vals[i])


def test_rank_mapping_layout_and_scalar_requirement():
    t = small_table(d=1, M=4)
    b = lm.map_run(t.runs[0], lm.MappingKind.BINARY_RANK, lm.FeatureConfig())
    assert b.kind is lm.MappingKind.BINARY_RANK
    assert b.features.shape == (5, 1)
    # ranks over M+1 values are a permutation of 0..M when there are no ties
    assert sorted(b.features[:, 0].astype(int).tolist()) == [0, 1, 2, 3, 4]
    t2 = small_table(d=2)
    with pytest.raises(lm.ConfigurationError):
        lm.map_run(t2.runs[0], lm.MappingKind.BINARY_RANK, lm.FeatureConfig())


def test_multiclass_cyclic_insertion():
    t = small_table(d=2, M=3)
    run = t.runs[0]
    b = lm.map_run(run, lm.MappingKind.MULTICLASS, lm.FeatureConfig())
    K = 4
    assert b.kind is lm.MappingKind.MULTICLASS
    assert b.n_classes == K
    np.testing.assert_array_equal(b.labels, np.arange(K))
    # one row per occupant, theta first, as in the binary layout
    occupants = np.vstack([run.theta[None, :], run.draws])
    assert b.features.shape == (K, 4)
    np.testing.assert_array_equal(b.features[:, :2], occupants)
    np.testing.assert_array_equal(b.features[:, 2:], np.repeat(run.y[None, :], K, axis=0))
    idx = lm._cyclic_insertion(K)
    for k in range(K):
        slots = b.features[idx[k], :2]
        # slot k holds theta; the draws keep their original order around it
        expect = np.vstack([run.draws[:k], run.theta[None, :], run.draws[k:]])
        np.testing.assert_allclose(slots, expect)
        np.testing.assert_allclose(b.features[idx[k], 2:], np.repeat(run.y[None, :], K, axis=0))


def test_multiclass_slot_views():
    t = small_table(d=1, M=2)
    cfg = lm.FeatureConfig(linear_features=("log_p", "log_q"))
    b = lm.map_run(t.runs[0], lm.MappingKind.MULTICLASS, cfg)
    # the occupant blocks work for every mapping
    assert b.nonlinear().shape == (3, 2) and b.linear().shape == (3, 2)
    # example k's slots are the occupant rows in cyclic-insertion order k
    slots = b.features[lm._cyclic_insertion(3)]
    nl, lin = slots[..., :b.d_nonlinear], slots[..., b.d_nonlinear:]
    assert nl.shape == (3, 3, 2)   # (examples, slots, theta+y)
    assert lin.shape == (3, 3, 2)
    run = t.runs[0]
    # example 1: slots are (draw_1, theta, draw_2)
    np.testing.assert_allclose(nl[1, 0], [run.draws[0, 0], run.y[0]])
    np.testing.assert_allclose(nl[1, 1], [run.theta[0], run.y[0]])
    np.testing.assert_allclose(lin[1, 1], [run.log_p[0], run.log_q[0]])
    np.testing.assert_allclose(lin[1, 2], [run.log_p[2], run.log_q[2]])
    # the classifier scores the same slots from the shared rows
    data = clf.arrays_from_batches([b])
    x_nl, x_lin, run_of = data.take(np.array([1])).scored_rows()
    np.testing.assert_array_equal(run_of, [0])
    np.testing.assert_array_equal(x_nl[lm._cyclic_insertion(3)[1]], nl[1])
    np.testing.assert_array_equal(x_lin[lm._cyclic_insertion(3)[1]], lin[1])


def test_map_table_seed_only_affects_rank_jitter():
    t = small_table(d=1, M=3)
    cfg = lm.FeatureConfig()
    b1 = lm.map_table(t, lm.MappingKind.BINARY_FULL, cfg, seed=0)
    b2 = lm.map_table(t, lm.MappingKind.BINARY_FULL, cfg, seed=99)
    for x, y in zip(b1, b2):
        np.testing.assert_array_equal(x.features, y.features)
    r1 = lm.map_table(t, lm.MappingKind.BINARY_RANK, cfg, seed=0)
    r2 = lm.map_table(t, lm.MappingKind.BINARY_RANK, cfg, seed=0)
    for x, y in zip(r1, r2):
        np.testing.assert_array_equal(x.features, y.features)


def test_null_feature_distribution_is_label_symmetric():
    # under exact calibration, label-0 and label-1 features share one law;
    # compare the two empirical means across many runs
    t = small_table(d=1, S=800, M=3, bias=0.0, seed=21)
    batches = lm.map_table(t, lm.MappingKind.BINARY_NO_Y, lm.FeatureConfig())
    f0 = np.concatenate([b.features[b.labels == 0, 0] for b in batches])
    f1 = np.concatenate([b.features[b.labels == 1, 0] for b in batches])
    se = np.sqrt(f0.var() / f0.size + f1.var() / f1.size)
    assert abs(f0.mean() - f1.mean()) < 4 * se


def test_split_batches_floor_rule_and_partition():
    t = small_table(S=10)
    batches = lm.map_table(t, lm.MappingKind.BINARY_FULL, lm.FeatureConfig())
    train, val = lm.split_batches(batches, 0.25, seed=3)
    assert len(val) == 2 and len(train) == 8  # floor(0.25 * 10)
    ids = sorted(b.batch_id for b in train + val)
    assert ids == sorted(b.batch_id for b in batches)
    train2, val2 = lm.split_batches(batches, 0.25, seed=3)
    assert [b.batch_id for b in val2] == [b.batch_id for b in val]
    with pytest.raises(sm.InvalidParameterError):
        lm.split_batches(batches, 0.0)
    with pytest.raises(sm.InvalidParameterError):
        lm.split_batches(batches, 1.0)


def test_export_examples(tmp_path):
    t = small_table(S=2, M=2)
    batches = lm.map_table(t, lm.MappingKind.BINARY_FULL, lm.FeatureConfig())
    path = tmp_path / "examples.jsonl"
    lm.export_examples(batches, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2 * 3
    rec = json.loads(lines[0])
    assert set(rec) == {"batch_id", "t", "phi"}
    np.testing.assert_allclose(rec["phi"], batches[0].features[0])
    # multiclass phi: K slot occupants, y once, then the K slots' linear features
    cfg = lm.FeatureConfig(linear_features=("log_p", "log_q"))
    mc = lm.map_table(t, lm.MappingKind.MULTICLASS, cfg)
    lm.export_examples(mc, str(path))
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["batch_id"], r["t"]) for r in recs] == [(b.batch_id, k) for b in mc
                                                     for k in range(3)]
    run = t.runs[1]
    occ = [1, 2, 0]          # example 2: (draw_1, draw_2, theta)
    theta_draws = np.vstack([run.theta[None, :], run.draws])
    lin = np.column_stack([run.log_p, run.log_q])
    expect = np.concatenate([theta_draws[occ].ravel(), run.y, lin[occ].ravel()])
    assert recs[5]["phi"] == expect.tolist()


def test_map_empty_table_rejected():
    t = small_table(S=1)
    t.runs = []
    with pytest.raises(lm.ConfigurationError):
        lm.map_table(t, lm.MappingKind.BINARY_FULL, lm.FeatureConfig())


def test_batch_examples_view():
    t = small_table(S=2, M=2)
    for kind in (lm.MappingKind.BINARY_FULL, lm.MappingKind.MULTICLASS):
        batches = lm.map_table(t, kind, lm.FeatureConfig())
        b = batches[1]
        data = clf.arrays_from_batches(batches)
        assert data.labels.size == 6 and data.rows.shape == (2, 3, 4)
        np.testing.assert_array_equal(data.labels[3:], b.labels)
        np.testing.assert_array_equal(data.batch_ids[3:], b.batch_id)
        np.testing.assert_array_equal(data.rows[1], b.features)
        # a subset of examples views the same rows; it copies no slot rows
        sub = data.take(np.array([5, 3]))
        assert sub.rows is data.rows
        np.testing.assert_array_equal(sub.index, [5, 3])
        np.testing.assert_array_equal(sub.labels, data.labels[[5, 3]])
        x_nl, x_lin, run = sub.scored_rows()
        if kind is lm.MappingKind.MULTICLASS:
            # both examples belong to run 1: its K rows are scored once
            np.testing.assert_array_equal(run, [0, 0])
            np.testing.assert_array_equal(x_nl, b.features)
        else:
            assert run is None
            np.testing.assert_array_equal(x_nl, b.features[[2, 0]])
        assert x_lin.shape == (x_nl.shape[0], 0)


# ---- guard: the batched mapper against the per-run reference ---------------


def _reference_ranks(vals, rng):
    v = vals + rng.uniform(0.0, lm.JITTER_SCALE, size=vals.shape)
    order = np.argsort(v, kind="stable")
    pos = np.empty_like(order)
    pos[order] = np.arange(v.size)
    return (v.size - 1) - pos


def reference_map_run(run, kind, cfg, rng):
    """Frozen per-run mappers: one run, one rng drawn from in mapping order.

    Multiclass features are the flat per-example rows
    [K slot occupants | y | K slots' linear features].
    """
    for name in cfg.linear_features:
        if name in ("log_p", "log_q") and getattr(run, name) is None:
            raise lm.ConfigurationError("missing %s" % name)
    d = run.theta.shape[0]
    sel = np.arange(d) if cfg.theta_subset is None else np.asarray(cfg.theta_subset)
    if sel.size == 0 or np.any(sel < 0) or np.any(sel >= d):
        raise lm.ConfigurationError("theta_subset out of range")
    M = run.M
    occupants = np.vstack([run.theta[sel][None, :], run.draws[:, sel]])
    ranks = None
    if kind is lm.MappingKind.BINARY_RANK:
        if sel.size != 1:
            raise lm.ConfigurationError("rank mapping needs a scalar theta")
        ranks = _reference_ranks(occupants[:, 0], rng).astype(float)
    cols, names = [], []
    for name in cfg.linear_features:
        if name == "rank":
            for i, j in enumerate(sel):
                cols.append(_reference_ranks(occupants[:, i], rng).astype(float))
                names.append("rank%d" % j)
        else:
            cols.append(getattr(run, name))
            names.append(name)
    lin = np.column_stack(cols) if cols else np.zeros((M + 1, 0))
    labels = np.concatenate([[0], np.ones(M, dtype=int)])
    meta = dict(batch_id=int(run.run_id), n_classes=2, n_linear=lin.shape[1],
                linear_names=tuple(names))
    if kind is lm.MappingKind.BINARY_RANK:
        return SimpleNamespace(labels=labels, features=np.hstack([ranks[:, None], lin]),
                               kind=kind, d_nonlinear=1, d_y=0, **meta)
    include_y = cfg.include_y and kind is not lm.MappingKind.BINARY_NO_Y
    d_y = run.y.shape[0] if include_y else 0
    if kind is lm.MappingKind.MULTICLASS:
        K = M + 1
        features = np.empty((K, K * sel.size + d_y + K * lin.shape[1]))
        for k in range(K):
            occ = np.concatenate([np.arange(1, k + 1), [0], np.arange(k + 1, K)])
            parts = [occupants[occ].ravel()] + ([run.y] if d_y else [])
            features[k] = np.concatenate(parts + [lin[occ].ravel()])
        meta.update(n_classes=K)
        return SimpleNamespace(labels=np.arange(K), features=features, kind=kind,
                               d_nonlinear=sel.size + d_y, d_y=d_y, **meta)
    blocks = [occupants] + ([np.repeat(run.y[None, :], M + 1, axis=0)] if d_y else [])
    kind = lm.MappingKind.BINARY_FULL if include_y else lm.MappingKind.BINARY_NO_Y
    return SimpleNamespace(labels=labels, features=np.hstack(blocks + [lin]), kind=kind,
                           d_nonlinear=sel.size + d_y, d_y=d_y, **meta)


def reference_map_table(table, kind, cfg, seed):
    children = np.random.SeedSequence(seed).spawn(table.S)
    return [reference_map_run(run, kind, cfg, np.random.default_rng(ss))
            for run, ss in zip(table.runs, children)]


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # compared by type against the reference
        return type(exc)


def reference_export(batches, path):
    """The JSONL export of flat example rows, one line per row."""
    with open(path, "w") as fh:
        for batch in batches:
            for t, phi in zip(batch.labels, batch.features):
                fh.write(json.dumps({"batch_id": int(batch.batch_id), "t": int(t),
                                     "phi": phi.tolist()}) + "\n")


def _assert_same_batches(got, ref, tmp_path=None):
    if isinstance(ref, type):
        assert got is ref
        return
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        if r.kind is not lm.MappingKind.MULTICLASS:
            np.testing.assert_array_equal(g.features, r.features, strict=True)
        np.testing.assert_array_equal(g.labels, r.labels, strict=True)
        for name in ("batch_id", "kind", "n_classes", "d_nonlinear", "n_linear",
                     "linear_names", "d_y"):
            assert getattr(g, name) == getattr(r, name), name
    if ref[0].kind is lm.MappingKind.MULTICLASS:
        # the multiclass rows are checked through the export of every example
        lm.export_examples(got, tmp_path / "got.jsonl")
        reference_export(ref, tmp_path / "ref.jsonl")
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()


def _tied_table(d, S=9, M=4):
    return sm.SimulationTable(
        runs=[sm.SimulationRun(i, np.zeros(d), np.zeros(2), np.zeros((M, d)),
                               log_p=np.zeros(M + 1), log_q=np.zeros(M + 1))
              for i in range(S)], d_theta=d, d_y=2, M=M)


FEATURE_SETS = ((), ("log_p", "log_q"), ("rank",), ("log_q", "rank", "log_p"))


@pytest.mark.parametrize("seed", [0, 7, 2024])
@pytest.mark.parametrize("d", [1, 3])
def test_batched_mapper_matches_per_run_reference(seed, d, tmp_path):
    tables = [sm.generate_gaussian_table(d, 7, 4, 1.0, sm.Corruption(bias=0.3),
                                         seed=seed, attach_densities=True),
              _tied_table(d)]
    for table in tables:
        for kind in lm.MappingKind:
            for feats in FEATURE_SETS:
                for subset in (None, (d - 1,), (0, d - 1)):
                    for include_y in (True, False):
                        cfg = lm.FeatureConfig(include_y=include_y, theta_subset=subset,
                                               linear_features=feats)
                        ref = _outcome(lambda: reference_map_table(table, kind, cfg, seed))
                        got = _outcome(lambda: lm.map_table(table, kind, cfg, seed))
                        _assert_same_batches(got, ref, tmp_path)
                        one = _outcome(lambda: [lm.map_run(table.runs[0], kind, cfg, seed)])
                        _assert_same_batches(one, ref if isinstance(ref, type) else ref[:1],
                                             tmp_path)


def test_batched_mapper_error_types_match_reference():
    bare = small_table(d=1, densities=False)
    wide = small_table(d=2)
    cases = ((bare, lm.MappingKind.BINARY_FULL, lm.FeatureConfig(linear_features=("log_q",))),
             (bare, lm.MappingKind.MULTICLASS, lm.FeatureConfig(linear_features=("log_p",))),
             (wide, lm.MappingKind.BINARY_RANK, lm.FeatureConfig()),
             (wide, lm.MappingKind.MULTICLASS, lm.FeatureConfig(theta_subset=(2,))),
             (wide, lm.MappingKind.BINARY_NO_Y, lm.FeatureConfig(theta_subset=())))
    for table, kind, cfg in cases:
        ref = _outcome(lambda: reference_map_table(table, kind, cfg, 0))
        assert ref is lm.ConfigurationError
        _assert_same_batches(_outcome(lambda: lm.map_table(table, kind, cfg, 0)), ref)
        _assert_same_batches(_outcome(lambda: [lm.map_run(table.runs[0], kind, cfg)]), ref)


def test_jitter_drawn_only_where_it_can_matter():
    # runs whose sorted gaps all exceed 2*JITTER_SCALE plus rounding skip the
    # jitter draw; their ranks must equal those of the every-run jitter rule
    rng = np.random.default_rng(4)
    J = lm.JITTER_SCALE
    near = rng.permuted(np.cumsum(rng.uniform(0.0, 5 * J, (60, 2, 6)), axis=-1), axis=-1)
    tables = [
        rng.standard_normal((40, 3, 9)),
        np.round(rng.standard_normal((40, 2, 7)), 1),            # exact ties
        near,                                                      # gaps around 2J
        1e6 + near,                                                # jitter below an ulp
        rng.standard_normal((20, 1, 5)) * 1e300,
        np.where(rng.random((30, 2, 6)) < 0.05, np.nan, rng.standard_normal((30, 2, 6))),
        np.where(rng.random((30, 2, 6)) < 0.05, np.inf, rng.standard_normal((30, 2, 6))),
    ]
    for vals in tables:
        for seed in (0, 9):
            children = np.random.SeedSequence(seed).spawn(vals.shape[0])
            ref = [lm._ranks_all(v + np.random.default_rng(ss).uniform(0.0, J, v.shape))
                   for v, ss in zip(vals, children)]
            np.testing.assert_array_equal(lm._jittered_ranks_all(vals, seed), ref)
