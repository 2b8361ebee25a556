"""Tests for the label mappings and the mapped table."""

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


def run_view(table, i):
    """Run i's fields, indexed out of the table's arrays."""
    def row(arr):
        return None if arr is None else arr[i]
    return SimpleNamespace(run_id=int(table.run_ids[i]), theta=table.theta[i],
                           y=table.y[i], draws=table.draws[i], log_p=row(table.log_p),
                           log_q=row(table.log_q), M=table.M)


def map_first(table, kind, cfg, seed=0):
    """map_table's result for a table of the first run only."""
    return lm.map_table(table.take([0]), kind, cfg, seed)


def test_binary_full_layout():
    t = small_table()
    run = run_view(t, 0)
    b = map_first(t, lm.MappingKind.BINARY_FULL, lm.FeatureConfig())
    assert b.kind is lm.MappingKind.BINARY_FULL
    assert b.rows[0].shape == (4, 4)  # (theta 2 | y 2) per example
    np.testing.assert_array_equal(b.labels, [0, 1, 1, 1])
    np.testing.assert_allclose(b.rows[0][0], np.concatenate([run.theta, run.y]))
    np.testing.assert_allclose(b.rows[0][2], np.concatenate([run.draws[1], run.y]))
    np.testing.assert_array_equal(np.bincount(b.labels), [1, 3])


def test_binary_no_y_drops_y():
    t = small_table()
    b = map_first(t, lm.MappingKind.BINARY_NO_Y, lm.FeatureConfig())
    assert b.kind is lm.MappingKind.BINARY_NO_Y
    assert b.rows[0].shape == (4, 2)
    np.testing.assert_allclose(b.rows[0][0], t.theta[0])


def test_linear_feature_block_order_and_names():
    t = small_table(d=1)
    cfg = lm.FeatureConfig(linear_features=("log_q", "log_p"))
    b = map_first(t, lm.MappingKind.BINARY_FULL, cfg)
    assert b.linear_names == ("log_q", "log_p")
    np.testing.assert_allclose(b.x_lin[:, 0], t.log_q[0])
    np.testing.assert_allclose(b.x_lin[:, 1], t.log_p[0])


def test_density_features_require_densities():
    t = small_table(densities=False)
    cfg = lm.FeatureConfig(linear_features=("log_p",))
    with pytest.raises(lm.ConfigurationError):
        map_first(t, lm.MappingKind.BINARY_FULL, cfg)


def test_unknown_linear_feature_rejected():
    with pytest.raises(lm.ConfigurationError):
        lm.FeatureConfig(linear_features=("nonsense",))


def test_theta_subset():
    t = small_table(d=3)
    cfg = lm.FeatureConfig(theta_subset=(2,))
    b = map_first(t, lm.MappingKind.BINARY_NO_Y, cfg)
    assert b.rows[0].shape == (4, 1)
    np.testing.assert_allclose(b.rows[0][0, 0], t.theta[0, 2])
    with pytest.raises(lm.ConfigurationError):
        map_first(t, lm.MappingKind.BINARY_NO_Y, lm.FeatureConfig(theta_subset=(5,)))


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


def reference_run_jitter(seed, runs, shape):
    """_run_jitter as one SeedSequence child and one generator per run."""
    root = np.random.SeedSequence(seed)
    jitter = np.empty((len(runs),) + tuple(shape))
    for j, i in enumerate(runs):
        # the i-th child of root.spawn(S), built directly
        child = np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + (int(i),),
                                       pool_size=root.pool_size)
        jitter[j] = np.random.default_rng(child).uniform(0.0, lm.JITTER_SCALE, shape)
    return jitter


@pytest.mark.parametrize("seed", [0, 9, 2 ** 32, 2 ** 70 + 1])
def test_run_jitter_matches_one_generator_per_run(seed):
    runs = np.array([5, 0, 64, 1999, 63, 1000])
    for shape in ((1, 4), (3, 9)):
        np.testing.assert_array_equal(lm._run_jitter(seed, runs, shape),
                                      reference_run_jitter(seed, runs, shape))


def test_ranks_all_matches_pairwise_definition():
    rng = np.random.default_rng(4)
    vals = rng.standard_normal(8)
    ranks = lm._ranks_all(vals)
    for i in range(8):
        assert ranks[i] == np.sum(vals > vals[i])


def test_rank_mapping_layout_and_scalar_requirement():
    t = small_table(d=1, M=4)
    b = map_first(t, lm.MappingKind.BINARY_RANK, lm.FeatureConfig())
    assert b.kind is lm.MappingKind.BINARY_RANK
    assert b.rows[0].shape == (5, 1)
    # ranks over M+1 values are a permutation of 0..M when there are no ties
    assert sorted(b.rows[0][:, 0].astype(int).tolist()) == [0, 1, 2, 3, 4]
    t2 = small_table(d=2)
    with pytest.raises(lm.ConfigurationError):
        map_first(t2, lm.MappingKind.BINARY_RANK, lm.FeatureConfig())


def test_multiclass_cyclic_insertion():
    t = small_table(d=2, M=3)
    run = run_view(t, 0)
    b = map_first(t, lm.MappingKind.MULTICLASS, lm.FeatureConfig())
    K = 4
    assert b.kind is lm.MappingKind.MULTICLASS
    assert b.n_classes == K
    np.testing.assert_array_equal(b.labels, np.arange(K))
    # one row per occupant, theta first, as in the binary layout
    occupants = np.vstack([run.theta[None, :], run.draws])
    assert b.rows[0].shape == (K, 4)
    np.testing.assert_array_equal(b.rows[0][:, :2], occupants)
    np.testing.assert_array_equal(b.rows[0][:, 2:], np.repeat(run.y[None, :], K, axis=0))
    idx = lm._cyclic_insertion(K)
    for k in range(K):
        slots = b.rows[0][idx[k], :2]
        # slot k holds theta; the draws keep their original order around it
        expect = np.vstack([run.draws[:k], run.theta[None, :], run.draws[k:]])
        np.testing.assert_allclose(slots, expect)
        np.testing.assert_allclose(b.rows[0][idx[k], 2:], np.repeat(run.y[None, :], K, axis=0))


def test_multiclass_slot_views():
    t = small_table(d=1, M=2)
    cfg = lm.FeatureConfig(linear_features=("log_p", "log_q"))
    b = map_first(t, lm.MappingKind.MULTICLASS, cfg)
    # the occupant blocks work for every mapping
    assert b.x_nl.shape == (3, 2) and b.x_lin.shape == (3, 2)
    # example k's slots are the occupant rows in cyclic-insertion order k
    slots = b.rows[0][lm._cyclic_insertion(3)]
    nl, lin = slots[..., :b.d_nonlinear], slots[..., b.d_nonlinear:]
    assert nl.shape == (3, 3, 2)   # (examples, slots, theta+y)
    assert lin.shape == (3, 3, 2)
    run = run_view(t, 0)
    # example 1: slots are (draw_1, theta, draw_2)
    np.testing.assert_allclose(nl[1, 0], [run.draws[0, 0], run.y[0]])
    np.testing.assert_allclose(nl[1, 1], [run.theta[0], run.y[0]])
    np.testing.assert_allclose(lin[1, 1], [run.log_p[0], run.log_q[0]])
    np.testing.assert_allclose(lin[1, 2], [run.log_p[2], run.log_q[2]])
    # the classifier scores the same slots from the run's rows, once
    np.testing.assert_array_equal(b.x_nl[lm._cyclic_insertion(3)[1]], nl[1])
    np.testing.assert_array_equal(b.x_lin[lm._cyclic_insertion(3)[1]], lin[1])


def test_map_table_seed_only_affects_rank_jitter():
    t = small_table(d=1, M=3)
    cfg = lm.FeatureConfig()
    b1 = lm.map_table(t, lm.MappingKind.BINARY_FULL, cfg, seed=0)
    b2 = lm.map_table(t, lm.MappingKind.BINARY_FULL, cfg, seed=99)
    np.testing.assert_array_equal(b1.rows, b2.rows)
    r1 = lm.map_table(t, lm.MappingKind.BINARY_RANK, cfg, seed=0)
    r2 = lm.map_table(t, lm.MappingKind.BINARY_RANK, cfg, seed=0)
    np.testing.assert_array_equal(r1.rows, r2.rows)


def test_null_feature_distribution_is_label_symmetric():
    # under exact calibration, label-0 and label-1 features share one law;
    # compare the two empirical means across many runs
    t = small_table(d=1, S=800, M=3, bias=0.0, seed=21)
    mapped = lm.map_table(t, lm.MappingKind.BINARY_NO_Y, lm.FeatureConfig())
    f0 = mapped.x_nl[mapped.labels == 0, 0]
    f1 = mapped.x_nl[mapped.labels == 1, 0]
    se = np.sqrt(f0.var() / f0.size + f1.var() / f1.size)
    assert abs(f0.mean() - f1.mean()) < 4 * se


def test_pipeline_split_floor_rule_and_partition(monkeypatch):
    # run_pipeline splits whole runs: floor(val_fraction * S) validation
    # runs by a seeded shuffle, each side in table order
    from discal import diagnostics as dg
    t = small_table(S=10)
    seen, real = [], clf.arrays_from_batches
    steps, real_gradient = [], clf.gradient

    def recording(mapped, runs):
        seen.append(np.asarray(runs).copy())
        return real(mapped, runs)

    def recording_gradient(model, data, scheme=clf.UNWEIGHTED):
        steps.append(np.column_stack([data.rows, data.labels]))
        return real_gradient(model, data, scheme)

    monkeypatch.setattr(clf, "arrays_from_batches", recording)
    monkeypatch.setattr(clf, "gradient", recording_gradient)
    settings = clf.TrainSettings(epochs=1, seed=3, val_fraction=0.25)
    _, _, model = dg.run_pipeline(t, lm.MappingKind.BINARY_FULL, lm.FeatureConfig(),
                                  settings=settings, B=10, R=100)
    _, s_split, s_train, _, _ = dg.pipeline_seeds(3)
    order = np.random.default_rng(s_split).permutation(10)
    val, train = np.sort(order[:2]), np.sort(order[2:])   # floor(0.25 * 10) = 2
    # train's hold-out (floor(0.25 * 8) = 2 runs), then validation: the fit
    # runs are never gathered whole
    hold_order = np.random.default_rng(s_train).permutation(8)
    fit = train[hold_order[2:]]
    assert len(seen) == 2
    np.testing.assert_array_equal(seen[0], train[hold_order[:2]])
    np.testing.assert_array_equal(seen[1], val)
    # the epoch's minibatches visit every row of every fit run once: each
    # standardized, with its label, in some order
    fit_map = real(lm.map_table(t, lm.MappingKind.BINARY_FULL, lm.FeatureConfig()), fit)
    want = np.column_stack([model.standardize(fit_map.rows).reshape(fit_map.labels.size, -1),
                            fit_map.labels])
    got = np.concatenate(steps)
    np.testing.assert_array_equal(got[np.lexsort(got.T)], want[np.lexsort(want.T)])
    assert sorted(np.concatenate(seen + [fit]).tolist()) == list(range(10))   # a partition
    with pytest.raises(dg.PipelineError, match="val_fraction") as err:
        dg.run_pipeline(t, lm.MappingKind.BINARY_FULL, lm.FeatureConfig(),
                        settings=clf.TrainSettings(val_fraction=0.0), B=10, R=100)
    assert err.value.stage == "split"


def test_map_empty_table_rejected():
    t = small_table(S=1).take(slice(0, 0))
    assert t.S == 0
    with pytest.raises(lm.ConfigurationError):
        lm.map_table(t, lm.MappingKind.BINARY_FULL, lm.FeatureConfig())


def test_batch_examples_view():
    t = small_table(S=2, M=2)
    for kind in (lm.MappingKind.BINARY_FULL, lm.MappingKind.MULTICLASS):
        mapped = lm.map_table(t, kind, lm.FeatureConfig())
        assert not mapped.rows.flags.writeable
        runs = list(mapped)
        assert len(runs) == len(mapped) == 2
        b = runs[1]
        assert b.run_id == 1 and b.n_examples == 3
        np.testing.assert_array_equal(b.labels, [0, 1, 2] if mapped.multiclass else [0, 1, 1])
        assert np.shares_memory(b.features, mapped.rows)
        # labels and run ids per example follow from the layout
        assert mapped.labels.size == 6 and mapped.rows.shape == (2, 3, 4)
        np.testing.assert_array_equal(mapped.labels[3:], b.labels)
        np.testing.assert_array_equal(mapped.batch_ids, [0, 0, 0, 1, 1, 1])
        # a gather of runs, in the order given, into a map of its own
        # writable rows, with the same layout
        data = clf.arrays_from_batches(mapped, [1, 0])
        assert type(data) is lm.MappedTable and data.rows.flags.writeable
        assert not np.shares_memory(data.rows, mapped.rows)
        assert (data.kind, data.d_nonlinear, data.d_y, data.linear_names) == \
            (mapped.kind, mapped.d_nonlinear, mapped.d_y, mapped.linear_names)
        np.testing.assert_array_equal(data.rows, mapped.rows[[1, 0]])
        np.testing.assert_array_equal(data.run_ids, [1, 0])
        np.testing.assert_array_equal(data.batch_ids, [1, 1, 1, 0, 0, 0])
        np.testing.assert_array_equal(data.labels, mapped.labels)


# ---- guard: the batched mapper against the per-run reference ---------------


def _reference_ranks(vals, rng):
    v = vals + rng.uniform(0.0, lm.JITTER_SCALE, size=vals.shape)
    order = np.argsort(v, kind="stable")
    pos = np.empty_like(order)
    pos[order] = np.arange(v.size)
    return (v.size - 1) - pos


def reference_map_one_run(run, kind, cfg, rng):
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
    d_y = 0 if kind is lm.MappingKind.BINARY_NO_Y else run.y.shape[0]
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
    return SimpleNamespace(labels=labels, features=np.hstack(blocks + [lin]), kind=kind,
                           d_nonlinear=sel.size + d_y, d_y=d_y, **meta)


def reference_map_table(table, kind, cfg, seed):
    children = np.random.SeedSequence(seed).spawn(table.S)
    return [reference_map_one_run(run_view(table, i), kind, cfg, np.random.default_rng(ss))
            for i, ss in enumerate(children)]


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # compared by type against the reference
        return type(exc)


def multiclass_example_rows(mapped, s):
    """Run s's K multiclass examples as flat rows
    [K slot occupants | y | K slots' linear features], example k with theta
    in slot k."""
    K, ds = mapped.n_classes, mapped.d_nonlinear - mapped.d_y
    rows = mapped.rows[s]
    slots = rows[lm._cyclic_insertion(K)]
    return np.concatenate([slots[:, :, :ds].reshape(K, -1),
                           np.broadcast_to(rows[0, ds:mapped.d_nonlinear], (K, mapped.d_y)),
                           slots[:, :, mapped.d_nonlinear:].reshape(K, -1)], axis=1)


def _assert_same_batches(got, ref):
    if isinstance(ref, type):
        assert got is ref
        return
    assert len(got) == len(ref)
    for name in ("kind", "n_classes", "d_nonlinear", "linear_names", "d_y"):
        assert getattr(got, name) == getattr(ref[0], name), name
    assert got.x_lin.shape[1] == ref[0].n_linear
    for s, (g, r) in enumerate(zip(got, ref)):
        assert g.run_id == r.batch_id
        features = multiclass_example_rows(got, s) if got.multiclass else g.features
        np.testing.assert_array_equal(features, r.features, strict=True)
        np.testing.assert_array_equal(g.labels, r.labels, strict=True)


def _tied_table(d, S=9, M=4):
    return sm.SimulationTable(np.zeros((S, d)), np.zeros((S, 2)), np.zeros((S, M, d)),
                              log_p=np.zeros((S, M + 1)), log_q=np.zeros((S, M + 1)))


FEATURE_SETS = ((), ("log_p", "log_q"), ("rank",), ("log_q", "rank", "log_p"))


@pytest.mark.parametrize("seed", [0, 7, 2024])
@pytest.mark.parametrize("d", [1, 3])
def test_batched_mapper_matches_per_run_reference(seed, d):
    tables = [sm.generate_gaussian_table(d, 7, 4, 1.0, sm.Corruption(bias=0.3),
                                         seed=seed, attach_densities=True),
              _tied_table(d)]
    for table in tables:
        for kind in lm.MappingKind:
            for feats in FEATURE_SETS:
                for subset in (None, (d - 1,), (0, d - 1)):
                    cfg = lm.FeatureConfig(theta_subset=subset, linear_features=feats)
                    ref = _outcome(lambda: reference_map_table(table, kind, cfg, seed))
                    got = _outcome(lambda: lm.map_table(table, kind, cfg, seed))
                    _assert_same_batches(got, ref)
                    one = _outcome(lambda: map_first(table, kind, cfg, seed))
                    _assert_same_batches(one, ref if isinstance(ref, type) else ref[:1])


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
        _assert_same_batches(_outcome(lambda: map_first(table, kind, cfg)), ref)


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
