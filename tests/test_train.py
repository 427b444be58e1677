from types import SimpleNamespace

import numpy as np
import pytest

from hyperinit import data as dt
from hyperinit import hypergen as hg
from hyperinit import mainnet as mn
from hyperinit import train as tr
from hyperinit.init_schemes import parse_scheme
from hyperinit.tensor import Rng


@pytest.fixture(scope="module")
def tiny_classification(request):
    """A miniature image-classification preset registered for loop tests."""
    preset = tr.Preset(
        name="tiny-clf", kind="classification",
        build_mainnet=lambda: mn.mlp([64, 32, 32, 4], activation="tanh"),
        build_hspec=lambda: hg.HypernetSpec(
            embedding_dim=8, head_topology=hg.SHARED_SAME_SIZE),
        defaults=dict(learning_rate=1e-3, batch_size=16, epochs=2,
                      eval_every=5, probe_every=10))
    tr.PRESETS["tiny-clf"] = preset
    train_ds, test_ds = dt.make_synthetic_images(128, 64, (8, 8), 4, seed=9)
    yield "tiny-clf", (train_ds, test_ds)
    del tr.PRESETS["tiny-clf"]


class TestTrainConfig:
    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(learning_rate=-1.0)

    def test_zero_lr_allowed(self):
        assert tr.TrainConfig(learning_rate=0.0).learning_rate == 0.0

    @pytest.mark.parametrize("field,value", [
        ("iterations", -2), ("subset", -10), ("subset", 0),
        ("eval_every", -1), ("probe_every", -3),
    ])
    def test_bad_count_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            tr.TrainConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("iterations", 0), ("iterations", None), ("eval_every", 0),
        ("eval_every", None), ("probe_every", 0), ("probe_every", None),
        ("subset", 1), ("subset", None),
    ])
    def test_zero_and_none_counts_allowed(self, field, value):
        assert getattr(tr.TrainConfig(**{field: value}), field) == value


class TestSgdStep:
    def test_zero_lr_keeps_params(self):
        p = np.array([1.0, 2.0])
        assert tr.sgd_step(p, np.array([5.0, 5.0]), 0.0)
        np.testing.assert_array_equal(p, [1.0, 2.0])

    def test_scalar_hand_example(self):
        p = np.array([1.0])
        tr.sgd_step(p, np.array([2.0]), 0.1)
        assert p[0] == pytest.approx(0.8)

    def test_nonfinite_gradient_rejects_whole_step(self):
        p = np.array([1.0, 1.0])
        ok = tr.sgd_step(p, np.array([np.nan, 1.0]), 0.1)
        assert not ok
        np.testing.assert_array_equal(p, [1.0, 1.0])

    def test_updatable_filter(self):
        # the updatable parameters are a prefix view: entries past it stay
        p, g = np.array([1.0, 1.0]), np.array([1.0, np.inf])
        assert tr.sgd_step(p[:1], g[:1], 0.5)
        np.testing.assert_array_equal(p, [0.5, 1.0])

    def test_quadratic_convergence(self):
        p = np.array([10.0])
        for _ in range(1000):
            tr.sgd_step(p, 2.0 * (p - 3.0), 0.1)
        assert abs(p[0] - 3.0) < 1e-6


class TestFastPath:
    def build(self, seed=0, bias=False):
        mspec = mn.mlp([12, 8, 8, 8, 5], activation="tanh",
                       bias_source="generated" if bias else "zero")
        hspec = hg.HypernetSpec(embedding_dim=4,
                                head_topology=hg.SHARED_SAME_SIZE,
                                generates_bias=bias)
        return mspec, hg.init_hypernet(hspec, mspec, parse_scheme("hyperfan-in"),
                                       Rng(seed))

    def test_applicable_conditions(self):
        _, net = self.build()
        assert tr._FixedHeadFastPath.applicable(net)
        mspec = mn.mlp([4, 3, 2], activation="tanh")
        hspec = hg.HypernetSpec(embedding_dim=2, hidden_layers=(6,),
                                head_topology=hg.PER_LAYER)
        deep = hg.init_hypernet(hspec, mspec, parse_scheme("hyperfan-in"), Rng(0))
        assert not tr._FixedHeadFastPath.applicable(deep)

    @staticmethod
    def step_with(dw, db, hyper=None):
        """A pipeline step carrying the given mainnet (and hypernet) gradients."""
        return tr.Step(params=None, trace=None, loss=0.0, diverged=False,
                       grads=SimpleNamespace(weight=dw, bias=db), hyper=hyper)

    @pytest.mark.parametrize("bias", [False, True])
    def test_matches_head_space_sgd_exactly(self, bias):
        # feed the same gradient sequence to the head-space updater and the
        # reparameterized fast path; weights and heads must agree
        mspec, net_fast = self.build(seed=3, bias=bias)
        _, net_naive = self.build(seed=3, bias=bias)
        fast = tr._FixedHeadFastPath(net_fast)
        naive = tr._HeadSpaceSgd(net_naive)
        assert naive.carried is None and fast.carried is not None
        rng = Rng(44)
        lr = 0.05
        for step in range(25):
            params, gtrace = net_naive.generate()
            dw = [rng.child(100 * step + t).normal(1.0, p["W"].shape)
                  for t, p in enumerate(params)]
            db = [rng.child(900 + 100 * step + t).normal(1.0, p["b"].shape)
                  for t, p in enumerate(params)]
            hyper = net_naive.backward(gtrace, dw, db if bias else None)
            assert naive.update(self.step_with(dw, db, hyper), lr)
            assert fast.update(self.step_with(dw, db), lr)
        fast.sync()
        naive_params = naive.current_params()
        fast_params, _ = net_fast.generate()
        for t in range(len(mspec.layers)):
            np.testing.assert_allclose(fast.current_params()[t]["W"], naive_params[t]["W"],
                                       rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(fast_params[t]["W"], naive_params[t]["W"],
                                       rtol=1e-9, atol=1e-12)
            if bias:
                np.testing.assert_allclose(fast.current_params()[t]["b"],
                                           naive_params[t]["b"], rtol=1e-9, atol=1e-12)

    def test_sync_makes_regeneration_idempotent(self):
        mspec, net = self.build(seed=5)
        fast = tr._FixedHeadFastPath(net)
        rng = Rng(7)
        for step in range(5):
            dw = [rng.child(step * 10 + t).normal(1.0, p["W"].shape)
                  for t, p in enumerate(fast.carried)]
            fast.update(self.step_with(dw, [np.zeros(l.d_out) for l in mspec.layers]), 0.1)
        fast.sync()
        regen, _ = net.generate()
        for t in range(len(mspec.layers)):
            np.testing.assert_allclose(regen[t]["W"], fast.carried[t]["W"],
                                       rtol=1e-10, atol=1e-13)

    def test_nonfinite_gradient_rejected(self):
        mspec, net = self.build(seed=5)
        fast = tr._FixedHeadFastPath(net)
        dw = [np.full(l.weight_shape, np.nan) for l in mspec.layers]
        assert not fast.update(self.step_with(dw, [np.zeros(l.d_out) for l in mspec.layers]),
                               0.1)


class TestHeadSpaceSgd:
    def test_nonfinite_fixed_embedding_gradient_is_ignored(self):
        mspec = mn.mlp([3, 4, 2], activation="tanh", loss="mse")
        hspec = hg.HypernetSpec(embedding_dim=3, hidden_layers=(4,), trunk_activation="tanh",
                                head_topology=hg.PER_LAYER)
        net = hg.init_hypernet(hspec, mspec, parse_scheme("hyperfan-in"), Rng(2))
        rng = Rng(3)
        step = tr.pipeline_step(net, mspec, rng.child(0).normal(1.0, (5, 3)),
                                rng.child(1).normal(1.0, (5, 2)))
        step.hyper.by_key["emb.w0"][...] = np.nan
        before = {key: a.copy() for key, a in net.param_arrays().items()}
        assert tr._HeadSpaceSgd(net).update(step, 0.1)
        after = net.param_arrays()
        np.testing.assert_array_equal(after["emb.w0"], before["emb.w0"])
        for key in ("trunk_h.W0", "wg0.H"):   # the rest of the step was taken
            assert not np.array_equal(after[key], before[key])


class TestClassificationLoop:
    def test_deterministic_curves(self, tiny_classification):
        name, data = tiny_classification
        cfg = tr.config_for(name)
        a = tr.train(name, cfg, data=data)
        b = tr.train(name, cfg, data=data)
        assert a.curve == b.curve
        assert a.epoch_train_loss == b.epoch_train_loss

    def test_zero_lr_flat_loss_and_frozen_probes(self, tiny_classification):
        from dataclasses import replace
        name, data = tiny_classification
        cfg = replace(tr.config_for(name), learning_rate=0.0, probe_every=5)
        res = tr.train(name, cfg, data=data)
        # per-epoch means cover the same examples, so they match exactly
        assert len(res.epoch_train_loss) == 2
        assert res.epoch_train_loss[0] == pytest.approx(res.epoch_train_loss[1])
        base = {(r.layer, r.kind): r.var for r in res.reports[0].rows}
        for rep in res.reports[1:]:
            for row in rep.rows:
                assert row.var == pytest.approx(base[(row.layer, row.kind)])

    def test_fixed_embeddings_never_move(self, tiny_classification):
        name, data = tiny_classification
        res = tr.train(name, tr.config_for(name), data=data)
        net = res.hypernet
        fresh = hg.init_hypernet(net.hspec, net.mspec, parse_scheme("hyperfan-in"),
                                 Rng(res.config.seed).child(1))
        want = fresh.param_arrays()
        for key, a in net.param_arrays().items():
            if key.startswith("emb."):
                np.testing.assert_array_equal(a, want[key])

    def test_divergence_flag_on_huge_lr(self, tiny_classification):
        # one insane step pushes the output layer past the 1e30 overflow line
        from dataclasses import replace
        name, data = tiny_classification
        cfg = replace(tr.config_for(name), learning_rate=1e40, epochs=3)
        res = tr.train(name, cfg, data=data)
        assert res.diverged
        assert res.divergence_step is not None
        assert res.steps == res.divergence_step

    def test_curve_rows_have_metric(self, tiny_classification):
        name, data = tiny_classification
        res = tr.train(name, tr.config_for(name), data=data)
        assert res.curve
        for step, epoch, loss, metric in res.curve:
            assert 0.0 <= metric <= 1.0
        assert res.final_metric == res.curve[-1][3]


class TestRegressionLoop:
    def test_runs_three_tasks(self):
        cfg = tr.config_for("regression-seq")
        from dataclasses import replace
        cfg = replace(cfg, iterations=40)
        res = tr.train("regression-seq", cfg)
        assert len(res.task_init_losses) == 3
        assert len(res.task_final_losses) == 3
        assert not res.diverged

    @pytest.mark.parametrize("seed", [5, 6])
    def test_overflow_records_divergence_without_a_warning(self, seed):
        # fan-in at this rate overflows within two steps: seed 5 in the MSE
        # loss, seed 6 in a layer's matmul; pytest turns a warning into an error
        from dataclasses import replace
        cfg = replace(tr.config_for("regression-seq"), scheme="fan-in",
                      learning_rate=1e-3, seed=seed, iterations=100)
        res = tr.train("regression-seq", cfg)
        assert res.diverged
        assert res.steps == res.divergence_step == 2

    def test_zero_iterations_take_no_steps(self):
        from dataclasses import replace
        cfg = replace(tr.config_for("regression-seq"), iterations=0)
        res = tr.train("regression-seq", cfg)
        assert res.steps == 0
        assert res.task_init_losses == [] and res.task_final_losses == []
        assert res.final_metric is None
        assert not res.diverged

    def test_deterministic(self):
        from dataclasses import replace
        cfg = replace(tr.config_for("regression-seq"), iterations=30)
        a = tr.train("regression-seq", cfg)
        b = tr.train("regression-seq", cfg)
        assert a.curve == b.curve
        assert a.task_final_losses == b.task_final_losses

    def test_trainable_embeddings_move(self):
        from dataclasses import replace
        cfg = replace(tr.config_for("regression-seq"), iterations=30)
        res = tr.train("regression-seq", cfg)
        net = res.hypernet
        fresh = hg.init_hypernet(net.hspec, net.mspec, parse_scheme(cfg.scheme),
                                 Rng(cfg.seed).child(1))
        want = fresh.param_arrays()
        moved = any(not np.array_equal(a, want[k])
                    for k, a in net.param_arrays().items() if k.startswith("emb."))
        assert moved


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        mspec = mn.mlp([6, 4, 2], activation="tanh")
        hspec = hg.HypernetSpec(embedding_dim=3, head_topology=hg.PER_LAYER)
        net = hg.init_hypernet(hspec, mspec, parse_scheme("hyperfan-out"), Rng(1))
        cfg = tr.TrainConfig(scheme="hyperfan-out", seed=1)
        path = tmp_path / "ckpt.npz"
        tr.save_checkpoint(path, net, cfg, step=17)
        meta, arrays = tr.load_checkpoint(path)
        assert meta["version"] == 1
        assert meta["step"] == 17
        assert meta["scheme"] == "hyperfan-out"
        for key, arr in net.param_arrays().items():
            np.testing.assert_array_equal(arrays[key], arr)

    def test_write_outputs(self, tmp_path, tiny_classification):
        name, data = tiny_classification
        res = tr.train(name, tr.config_for(name), data=data,
                       out_dir=tmp_path / "run")
        out = tmp_path / "run"
        assert (out / "curves.csv").exists()
        assert (out / "probe.json").exists()
        assert (out / "checkpoint.npz").exists()
        header = (out / "curves.csv").read_text().splitlines()[0]
        assert header == "step,epoch,train_loss,test_metric"
        meta, _ = tr.load_checkpoint(out / "checkpoint.npz")
        assert meta["step"] == res.steps == 16   # 2 epochs of 128 / 16 batches


class TestLabelCheck:
    @pytest.mark.parametrize("split,label", [(0, 4), (1, -1)])
    def test_out_of_range_label_rejected_before_step_one(self, tiny_classification,
                                                         split, label):
        from dataclasses import replace
        name, data = tiny_classification
        labels = data[split].labels.copy()
        labels[5] = label   # the tiny preset is a 4-way classifier
        data = tuple(replace(ds, labels=labels) if i == split else ds
                     for i, ds in enumerate(data))
        which = ("train", "test")[split]
        with pytest.raises(dt.FormatError, match=f"{which} label {label} at index 5"):
            tr.train(name, tr.config_for(name), data=data)


class TestDataLoading:
    def test_missing_mnist_raises_not_found(self, tmp_path):
        with pytest.raises(tr.DataNotFoundError):
            tr.train("mnist-mlp", tr.config_for("mnist-mlp"),
                     data_dir=tmp_path)

    def test_idx_files_feed_the_preset(self, tmp_path):
        from dataclasses import replace
        train_ds, test_ds = dt.make_synthetic_images(64, 32, (28, 28), 10, seed=2)
        dt.write_idx(tmp_path / "train-images-idx3-ubyte",
                     tmp_path / "train-labels-idx1-ubyte",
                     (train_ds.inputs * 255).astype(np.uint8),
                     train_ds.labels.astype(np.uint8))
        dt.write_idx(tmp_path / "t10k-images-idx3-ubyte",
                     tmp_path / "t10k-labels-idx1-ubyte",
                     (test_ds.inputs * 255).astype(np.uint8),
                     test_ds.labels.astype(np.uint8))
        cfg = replace(tr.config_for("mnist-mlp"), epochs=1, subset=64,
                      eval_every=None, probe_every=10 ** 6)
        res = tr.train("mnist-mlp", cfg, data_dir=tmp_path)
        assert not res.diverged
        assert res.curve
