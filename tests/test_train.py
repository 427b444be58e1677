import tracemalloc

import numpy as np
import pytest

from hyperinit import data as dt
from hyperinit import hypergen as hg
from hyperinit import mainnet as mn
from hyperinit import tensor
from hyperinit import train as tr
from hyperinit.init_schemes import ALL_KINDS, parse_scheme
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


@pytest.fixture(scope="module")
def tiny_bias_classification(tiny_classification):
    """A miniature ``mnist-mlp-bias``: shared same-size heads, generated biases."""
    preset = tr.Preset(
        name="tiny-clf-bias", kind="classification",
        build_mainnet=lambda: mn.mlp([64, 32, 32, 32, 4], activation="tanh",
                                     bias_source="generated"),
        build_hspec=lambda: hg.HypernetSpec(
            embedding_dim=8, head_topology=hg.SHARED_SAME_SIZE),
        defaults=dict(learning_rate=2e-2, batch_size=16, epochs=2,
                      eval_every=5, probe_every=6))
    tr.PRESETS["tiny-clf-bias"] = preset
    yield "tiny-clf-bias", tiny_classification[1]
    del tr.PRESETS["tiny-clf-bias"]


@pytest.fixture(scope="module")
def every_head_path(tiny_bias_classification):
    """Preset name -> data of one tiny preset per head path: shared heads on
    the fixed-head fast path, a chunked conv head, and per-layer heads behind
    a trunk, stepped by head-space SGD."""
    presets = {
        "tiny-conv-chunked": tr.Preset(
            name="tiny-conv-chunked", kind="classification",
            build_mainnet=lambda: mn.allconv(2, [4, 4], 3),
            build_hspec=lambda: hg.HypernetSpec(embedding_dim=3, head_topology=hg.CHUNKED,
                                                chunk=hg.ChunkPlan(K=2, n=3)),
            defaults=dict(learning_rate=1e-2, batch_size=8, epochs=1,
                          eval_every=2, probe_every=2)),
        "tiny-regression-trunk": tr.Preset(
            name="tiny-regression-trunk", kind="regression",
            build_mainnet=lambda: mn.mlp([1, 6, 6, 1], activation="relu", loss="mse",
                                         bias_source="generated"),
            build_hspec=lambda: hg.HypernetSpec(
                embedding_dim=2, hidden_layers=(4,), embeddings_trainable=True,
                head_topology=hg.PER_LAYER),
            defaults=dict(learning_rate=1e-2, batch_size=8, epochs=1, eval_every=2)),
    }
    tr.PRESETS.update(presets)
    yield {tiny_bias_classification[0]: tiny_bias_classification[1],
           "tiny-conv-chunked": dt.make_synthetic_images(32, 16, (2, 8, 8), 3, seed=4),
           "tiny-regression-trunk": dt.make_regression_tasks(3, n_train=16, n_test=8)}
    for name in presets:
        del tr.PRESETS[name]


def head_space_only(monkeypatch):
    """Make every later ``train`` call step the heads by head-space SGD."""
    monkeypatch.setattr(tr._FixedHeadFastPath, "applicable", staticmethod(lambda net: False))


def assert_same_hypernet(got, want, rtol):
    for key, a in want.param_arrays().items():
        np.testing.assert_allclose(got.param_arrays()[key], a, rtol=rtol,
                                   atol=rtol * np.abs(a).max(), err_msg=key)


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_lr_rejected(self, value):
        with pytest.raises(ValueError, match="learning rate must be finite"):
            tr.TrainConfig(learning_rate=value)

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 2.5), ("epochs", 1.5), ("subset", 10.5),
        ("iterations", 2.5), ("eval_every", 4.0), ("probe_every", 1.5),
    ])
    def test_non_integer_count_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            tr.TrainConfig(**{field: value})

    def test_numpy_integer_counts_allowed(self):
        cfg = tr.TrainConfig(batch_size=np.int64(4), iterations=np.int32(3))
        assert (cfg.batch_size, cfg.iterations) == (4, 3)


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
        hspec = hg.HypernetSpec(embedding_dim=4, head_topology=hg.SHARED_SAME_SIZE)
        return mspec, hg.init_hypernet(hspec, mspec, parse_scheme("hyperfan-in"),
                                       Rng(seed))

    def test_applicable_conditions(self):
        _, net = self.build()
        assert tr._FixedHeadFastPath.applicable(net)
        assert tr._FixedHeadFastPath.applicable(self.build_conv()[1])
        mspec = mn.mlp([4, 3, 2], activation="tanh")
        hspec = hg.HypernetSpec(embedding_dim=2, hidden_layers=(6,),
                                head_topology=hg.PER_LAYER)
        deep = hg.init_hypernet(hspec, mspec, parse_scheme("hyperfan-in"), Rng(0))
        assert not tr._FixedHeadFastPath.applicable(deep)

    def build_conv(self, seed=0):
        mspec = mn.allconv(2, [4, 4], 3, kernel=3, strides=[1, 2])
        hspec = hg.HypernetSpec(embedding_dim=4, head_topology=hg.PER_LAYER)
        return mspec, hg.init_hypernet(hspec, mspec, parse_scheme("hyperfan-in"),
                                       Rng(seed))

    def build_kind(self, kind, seed=0):
        return self.build_conv(seed) if kind == "conv" else self.build(seed, kind == "bias")

    @staticmethod
    def batch(mspec, rng, size=3):
        first = mspec.layers[0]
        shape = (size, first.d_in, 6, 6) if first.kind == "conv" else (size, first.d_in)
        x = rng.child(0).normal(1.0, shape)
        return x, np.asarray(rng.child(1).integers(mspec.output_dim, size=size))

    def fast_step(self, net, mspec, fast, rng):
        """A real pipeline step on the fast path's carried parameters, as the
        training loop takes it: gradient factors and no weight gradient."""
        step = tr.pipeline_step(net, mspec, *self.batch(mspec, rng), fast.carried,
                                weights=fast.weights)
        assert not step.diverged and step.grads.weight == [None] * len(mspec.layers)
        return step

    @staticmethod
    def generated(rec):
        """The head's whole-matrix stack: ``H @ e + beta`` of every target."""
        head = rec["head"]
        return np.stack([head.H @ e + head.beta for e in rec["emb"]])

    def state(self, fast, net):
        """Every array the fast path carries, the hypernet's parameters and
        the stacks they generate."""
        arrays = [net.flat]
        for p in fast.carried:
            arrays += [p["W"], p["b"]]
        for rec in fast.heads:
            arrays += [rec["stack"], self.generated(rec)]
        return arrays

    @staticmethod
    def dense_update(fast, mspec, step, x, y, lr):
        """Every head's stack after a whole-gradient update: stack minus
        lr * gram @ (the targets' gradients: ``dy.T @ x`` of the step's own
        factors for a dense layer, mainnet.backward's for a conv layer, on a
        fresh forward: the step's trace keeps its patch matrices for the
        update)."""
        want = mn.backward(mspec, step.params, mn.forward(mspec, step.params, x, y)[0], y)
        weight = [step.grads.preacts[t].T @ step.trace.inputs[t] if layer.kind == "dense"
                  else want.weight[t] for t, layer in enumerate(mspec.layers)]
        grads = {"W": weight, "b": step.grads.bias}
        out = []
        for rec in fast.heads:
            head = rec["head"]
            grad = np.stack([grads[head.slot.param][t].ravel() for t in head.targets])
            out.append(rec["stack"] - lr * (rec["gram"] @ grad))
        return out

    def assert_matches_head_space_sgd(self, kind):
        # the same batches through the head-space updater and the
        # reparameterized fast path; weights and heads must agree
        mspec, net_fast = self.build_kind(kind, seed=3)
        _, net_naive = self.build_kind(kind, seed=3)
        fast = tr._FixedHeadFastPath(net_fast)
        naive = tr._HeadSpaceSgd(net_naive)
        assert naive.carried is None and fast.carried is not None
        lr = 0.05
        for step in range(25):
            rng = Rng(44).child(step)
            x, y = self.batch(mspec, rng)
            s = tr.pipeline_step(net_naive, mspec, x, y)
            assert naive.update(s, lr)
            assert fast.update(self.fast_step(net_fast, mspec, fast, rng), lr)
        fast.sync()
        naive_params = naive.current_params()
        fast_params, _ = net_fast.generate()
        for t in range(len(mspec.layers)):
            np.testing.assert_allclose(fast.current_params()[t]["W"], naive_params[t]["W"],
                                       rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(fast_params[t]["W"], naive_params[t]["W"],
                                       rtol=1e-9, atol=1e-12)
            if kind == "bias":
                np.testing.assert_allclose(fast.current_params()[t]["b"],
                                           naive_params[t]["b"], rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("bias", [False, True])
    def test_matches_head_space_sgd_exactly(self, bias):
        self.assert_matches_head_space_sgd("bias" if bias else "dense")

    def test_conv_matches_head_space_sgd_exactly(self):
        self.assert_matches_head_space_sgd("conv")

    def test_sync_makes_regeneration_idempotent(self):
        for kind in ("dense", "bias", "conv"):
            mspec, net = self.build_kind(kind, seed=5)
            fast = tr._FixedHeadFastPath(net)
            for step in range(5):
                assert fast.update(self.fast_step(net, mspec, fast, Rng(7).child(step)), 0.1)
            fast.sync()
            regen, _ = net.generate()
            for t in range(len(mspec.layers)):
                np.testing.assert_allclose(regen[t]["W"], fast.carried[t]["W"],
                                           rtol=1e-10, atol=1e-13, err_msg=kind)
                np.testing.assert_allclose(regen[t]["b"], fast.carried[t]["b"],
                                           rtol=1e-10, atol=1e-13, err_msg=kind)

    def test_nonfinite_gradient_rejected(self):
        mspec, net = self.build(seed=5)
        fast = tr._FixedHeadFastPath(net)
        step = self.fast_step(net, mspec, fast, Rng(7))
        step.grads.preacts[1][...] = np.nan
        assert not fast.update(step, 0.1)

    def test_sync_in_row_chunks_is_bit_identical(self, monkeypatch):
        monkeypatch.setattr(tr, "row_chunks",
                            lambda n, size, entries=1 << 20:
                            tensor.row_chunks(n, size, entries=8 * size))
        mspec, net = self.build(seed=5)
        fast = tr._FixedHeadFastPath(net)
        assert len(tr.row_chunks(*fast.heads[0]["head"].H.shape)) > 1
        for step in range(3):
            assert fast.update(self.fast_step(net, mspec, fast, Rng(7).child(step)), 0.1)
        want = []
        for rec in fast.heads:   # the whole-matrix fold
            acc = np.linalg.lstsq(rec["gram"], self.generated(rec) - rec["stack"],
                                  rcond=None)[0]
            want.append((rec["head"].H - acc.T @ rec["emb"], rec["head"].beta - acc.sum(axis=0)))
        fast.sync()
        for rec, (h, beta) in zip(fast.heads, want):
            np.testing.assert_array_equal(rec["head"].H, h)
            np.testing.assert_array_equal(rec["head"].beta, beta)

    @pytest.mark.parametrize("bias", [False, True])
    def test_refused_step_touches_nothing(self, bias):
        # only the last head's last target is bad: no head may move
        mspec, net = self.build(seed=6, bias=bias)
        fast = tr._FixedHeadFastPath(net)
        weight_head = [rec["head"] for rec in fast.heads if rec["head"].slot.param == "W"][-1]
        t = weight_head.targets[-1]

        def nan_in_dy(step):
            step.grads.preacts[t].flat[-1] = np.nan

        def inf_in_x(step):
            step.trace.inputs[t].flat[0] = np.inf

        def product_overflows(step):
            # finite factors, K max|dy| max|x| far past 1e300: decided by the blocks
            step.grads.preacts[t][...] *= 1e160
            step.trace.inputs[t][...] *= 1e160

        def nan_in_bias_grad(step):
            step.grads.bias[fast.heads[-1]["head"].targets[-1]][-1] = np.nan

        spoilers = [nan_in_dy, inf_in_x, product_overflows] + ([nan_in_bias_grad] if bias else [])
        for i, spoil in enumerate(spoilers):
            step = self.fast_step(net, mspec, fast, Rng(8).child(i))
            spoil(step)
            before = [a.copy() for a in self.state(fast, net)]
            assert not fast.update(step, 0.1), spoil.__name__
            fast.sync()
            for got, want in zip(self.state(fast, net), before):
                np.testing.assert_array_equal(got, want)

    def test_huge_but_safe_step_is_accepted(self):
        # K max|dy| max|x| reaches 1e300, yet every gradient entry is finite:
        # the blocks decide, and the step is taken as the dense update takes it
        mspec, net = self.build(seed=6)
        fast = tr._FixedHeadFastPath(net)
        rng = Rng(9)
        x, y = self.batch(mspec, rng)
        step = tr.pipeline_step(net, mspec, x, y, fast.carried, weights=False)
        t = fast.heads[0]["head"].targets[0]
        dy, xin = step.grads.preacts[t], step.trace.inputs[t]
        dy[...] = 0.0
        dy[0, 0] = 1e150
        xin *= 1e150 / np.abs(xin).max()
        assert len(xin) * np.abs(dy).max() * np.abs(xin).max() >= tr.SAFE_PRODUCT
        want = self.dense_update(fast, mspec, step, x, y, 1e-3)
        assert fast.update(step, 1e-3)
        for rec, w in zip(fast.heads, want):
            assert np.isfinite(rec["stack"]).all()
            np.testing.assert_allclose(rec["stack"], w, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["dense", "bias", "conv"])
    @pytest.mark.parametrize("entries", [None, 16])
    def test_update_matches_the_dense_gram_update(self, kind, entries, monkeypatch):
        # blocks of the default size, and blocks of a few rows, the last partial
        if entries is not None:
            monkeypatch.setattr(tr, "BLOCK_ENTRIES", entries)
        mspec, net = self.build_kind(kind, seed=2)
        assert tr._FixedHeadFastPath.applicable(net)
        fast = tr._FixedHeadFastPath(net)
        if entries is not None:
            assert any(len(rec["blocks"]) > 1 for rec in fast.heads)
        x, y = self.batch(mspec, Rng(31))
        step = tr.pipeline_step(net, mspec, x, y, fast.carried, weights=False)
        want = self.dense_update(fast, mspec, step, x, y, 0.1)
        assert fast.update(step, 0.1)
        for rec, w in zip(fast.heads, want):
            np.testing.assert_allclose(rec["stack"], w, rtol=1e-12, atol=1e-15)

    def test_update_allocates_less_than_one_head(self):
        # the blocks reuse one buffer: no gradient-sized array is made
        mspec = mn.mlp([16, 400, 400, 4], activation="tanh")
        hspec = hg.HypernetSpec(embedding_dim=4, head_topology=hg.SHARED_SAME_SIZE)
        net = hg.init_hypernet(hspec, mspec, parse_scheme("hyperfan-in"), Rng(4))
        fast = tr._FixedHeadFastPath(net)
        head_bytes = max(rec["stack"].nbytes for rec in fast.heads)
        assert head_bytes >= 1 << 20
        step = self.fast_step(net, mspec, fast, Rng(5))
        tracemalloc.start()
        try:
            assert fast.update(step, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < head_bytes

    @staticmethod
    def build_wide():
        # a 400x400 head shared by two layers, plus two heads of one target
        mspec = mn.mlp([16, 400, 400, 400, 4], activation="tanh")
        hspec = hg.HypernetSpec(embedding_dim=4, head_topology=hg.SHARED_SAME_SIZE)
        return mspec, hg.init_hypernet(hspec, mspec, parse_scheme("hyperfan-in"), Rng(4))

    def test_building_allocates_less_than_twice_the_stacks(self):
        # the stacks are built straight from the heads: no copy of them is kept
        _, net = self.build_wide()
        tracemalloc.start()
        try:
            fast = tr._FixedHeadFastPath(net)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stack_bytes = sum(rec["stack"].nbytes for rec in fast.heads)
        assert stack_bytes >= 2 << 20
        assert peak < 2 * stack_bytes

    def test_sync_allocates_less_than_one_head(self):
        # a fold rebuilds, solves and folds one row chunk at a time
        mspec, net = self.build_wide()
        fast = tr._FixedHeadFastPath(net)
        head_bytes = max(rec["stack"].nbytes for rec in fast.heads)
        assert head_bytes >= 2 << 20
        assert len(tr.row_chunks(*fast.heads[1]["head"].H.shape, tr.BLOCK_ENTRIES)) > 1
        assert fast.update(self.fast_step(net, mspec, fast, Rng(5)), 0.1)
        tracemalloc.start()
        try:
            fast.sync()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < head_bytes
        for rec in fast.heads:   # and it folded
            np.testing.assert_allclose(self.generated(rec), rec["stack"], rtol=1e-10,
                                       atol=1e-13)

    def test_train_allocates_no_hypernet_gradient(self, tiny_bias_classification):
        name, data = tiny_bias_classification
        res = tr.train(name, tr.config_for(name), data=data)
        assert tr._FixedHeadFastPath.applicable(res.hypernet)
        assert res.steps > 0 and res.hypernet.grad is None


class TestHeadSpaceSgd:
    def test_nonfinite_fixed_embedding_gradient_is_ignored(self):
        mspec = mn.mlp([3, 4, 2], activation="tanh", loss="mse")
        hspec = hg.HypernetSpec(embedding_dim=3, hidden_layers=(4,), trunk_activation="tanh",
                                head_topology=hg.PER_LAYER)
        net = hg.init_hypernet(hspec, mspec, parse_scheme("hyperfan-in"), Rng(2))
        rng = Rng(3)
        step = tr.pipeline_step(net, mspec, rng.child(0).normal(1.0, (5, 3)),
                                rng.child(1).normal(1.0, (5, 2)))
        net.grad_arrays()["emb.w0"][...] = np.nan
        before = {key: a.copy() for key, a in net.param_arrays().items()}
        assert tr._HeadSpaceSgd(net).update(step, 0.1)
        after = net.param_arrays()
        np.testing.assert_array_equal(after["emb.w0"], before["emb.w0"])
        for key in ("trunk_h.W0", "wg0.H"):   # the rest of the step was taken
            assert not np.array_equal(after[key], before[key])

    def test_steps_reuse_one_hypernet_gradient(self, tiny_bias_classification, monkeypatch):
        # every step's Hypernet.backward writes into the hypernet's own gradient
        head_space_only(monkeypatch)
        seen = []
        backward = hg.Hypernet.backward

        def recorded_backward(net, *args, **kwargs):
            backward(net, *args, **kwargs)
            seen.append(net.grad)

        monkeypatch.setattr(hg.Hypernet, "backward", recorded_backward)
        name, data = tiny_bias_classification
        res = tr.train(name, tr.config_for(name), data=data)
        assert res.steps > 0 and not res.diverged
        assert len(seen) == res.steps and all(g is seen[0] for g in seen)


def one_block_conv(bias):
    return mn.allconv(2, [4, 4], 3, kernel=3, strides=[1, 2],
                      bias_source="generated" if bias else "zero")


# A hypernet of each head path that head-space SGD steps: per-layer heads
# behind a trunk, shared heads, and chunked conv kernels of one output block
# (read in place) and of two (copied in), each with and without generated biases.
STEP_BUILDS = {
    "per-layer": lambda bias: (
        mn.mlp([3, 5, 5, 2], activation="relu", loss="mse",
               bias_source="generated" if bias else "zero"),
        hg.HypernetSpec(embedding_dim=3, hidden_layers=(4,), embeddings_trainable=True,
                        head_topology=hg.PER_LAYER)),
    "shared": lambda bias: (
        mn.mlp([3, 5, 5, 5, 2], activation="tanh", loss="mse",
               bias_source="generated" if bias else "zero"),
        hg.HypernetSpec(embedding_dim=3, hidden_layers=(4,), head_topology=hg.SHARED_SAME_SIZE)),
    "chunked-one-block": lambda bias: (
        one_block_conv(bias),
        hg.HypernetSpec(embedding_dim=3, head_topology=hg.CHUNKED, chunk=hg.ChunkPlan(K=4, n=3),
                        embeddings_trainable=True)),
    "chunked-two-blocks": lambda bias: (
        one_block_conv(bias),
        hg.HypernetSpec(embedding_dim=3, head_topology=hg.CHUNKED, chunk=hg.ChunkPlan(K=2, n=3),
                        embeddings_trainable=True)),
}


def step_case(build, bias, seed=4):
    mspec, hspec = STEP_BUILDS[build](bias)
    net = hg.init_hypernet(hspec, mspec, parse_scheme("hyperfan-in"), Rng(seed))
    rng = Rng(seed + 1)
    first = mspec.layers[0]
    if first.kind == "conv":
        x = rng.child(0).normal(1.0, (3, first.d_in, 6, 6))
        y = np.asarray(rng.child(1).integers(mspec.output_dim, size=3))
    else:
        x = rng.child(0).normal(1.0, (4, first.d_in))
        y = rng.child(1).normal(1.0, (4, mspec.output_dim))
    return net, mspec, x, y


class TestGradientsInPlace:
    @pytest.mark.parametrize("bias", [False, True], ids=["zero-bias", "generated-bias"])
    @pytest.mark.parametrize("build", sorted(STEP_BUILDS))
    def test_step_gradient_equals_backward_of_copies(self, build, bias):
        # the mainnet writes a generated step's gradients into the slot
        # matrices; Hypernet.backward fed copies of them must give the same bits
        net, mspec, x, y = step_case(build, bias)
        ref, *_ = step_case(build, bias)
        net.grad = None
        views = net.gradient_views()
        for _ in range(2):   # the second step reads the kept matrices again
            step = tr.pipeline_step(net, mspec, x, y, stop_on_divergence=False)
            params, trace = ref.generate()
            want = mn.backward(mspec, params, mn.forward(mspec, params, x, y)[0], y)
            for t in range(len(mspec.layers)):
                np.testing.assert_array_equal(step.grads.weight[t], want.weight[t])
                np.testing.assert_array_equal(step.grads.bias[t], want.bias[t])
            ref.backward(trace, [g.copy() for g in step.grads.weight],
                         [g.copy() for g in step.grads.bias])
            np.testing.assert_array_equal(net.grad, ref.grad)
            assert tr._HeadSpaceSgd(net).update(step, 0.05)
            assert tr._HeadSpaceSgd(ref).update(step, 0.05)
        for t, (w, b) in enumerate(zip(*views)):   # which gradients were read in place
            assert (w is not None) == (build != "chunked-two-blocks" or mspec.layers[t].kind
                                       == "dense")
            assert (b is not None) == bias
            assert w is None or step.grads.weight[t] is w
            assert b is None or step.grads.bias[t] is b

    @pytest.mark.parametrize("build", sorted(STEP_BUILDS))
    def test_each_bank_keeps_one_slot_gradient(self, build):
        net, mspec, x, y = step_case(build, True)
        kept = None
        for _ in range(3):
            step = tr.pipeline_step(net, mspec, x, y, stop_on_divergence=False)
            assert tr._HeadSpaceSgd(net).update(step, 0.05)
            banks = [(bank.D, list(bank.views)) for bank in net.heads]
            if kept is not None:
                for (d, views), (d0, views0) in zip(banks, kept):
                    assert d is d0 and all(v is v0 for v, v0 in zip(views, views0))
            kept = banks

    def test_a_bank_allocates_no_slot_matrix_after_the_first_step(self):
        mspec = mn.mlp([3, 64, 64, 2], activation="relu", loss="mse", bias_source="generated")
        hspec = hg.HypernetSpec(embedding_dim=3, hidden_layers=(4,), head_topology=hg.PER_LAYER)
        net = hg.init_hypernet(hspec, mspec, parse_scheme("hyperfan-in"), Rng(2))
        x, y = Rng(3).child(0).normal(1.0, (4, 3)), Rng(3).child(1).normal(1.0, (4, 2))
        step = tr.pipeline_step(net, mspec, x, y)
        trace = net.generate()[1]
        grads = {"W": step.grads.weight, "b": step.grads.bias}
        bank = net.sources["w"].head
        assert bank.D.nbytes > 10 ** 5
        tracemalloc.start()
        bank.backward(trace.feats["w"], grads["W"])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < bank.D.nbytes / 20


class TestSampledBatches:
    @pytest.mark.parametrize("count,size", [(7, 5), (1, 16), (0, 3)])
    def test_one_draw_gives_the_per_batch_draws(self, count, size):
        mspec = mn.mlp([2, 3, 1], loss="mse")
        rng = Rng(12)
        ds = dt.Dataset(rng.child(0).normal(1.0, (20, 2)), rng.child(1).normal(1.0, (20, 1)))
        got_rng, want_rng = Rng(8), Rng(8)
        got = list(tr._sampled_batches(got_rng, mspec, ds, count, size))
        assert len(got) == count
        for x, y in got:
            idx = want_rng.integers(len(ds), size=size)
            np.testing.assert_array_equal(x, ds.rows(idx))
            np.testing.assert_array_equal(y, ds.labels[idx])
        np.testing.assert_array_equal(got_rng.integers(1 << 30, size=4),
                                      want_rng.integers(1 << 30, size=4))


class TestClassificationLoop:
    def test_init_linear_vars_equal_np_var(self, tiny_classification, monkeypatch):
        # read from the first probe's rows, they are the variances np.var gives
        replays = []
        replay = tr.linear_activation_variances

        def recorded(*args):
            replays.append(replay(*args))
            return replays[-1]

        monkeypatch.setattr(tr, "linear_activation_variances", recorded)
        name, data = tiny_classification
        res = tr.train(name, tr.config_for(name), data=data)
        assert res.init_linear_vars == [float(np.var(a)) for a in replays[0]]
        assert len(res.init_linear_vars) == len(res.hypernet.mspec.layers)

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

    def test_diverged_run_keeps_its_last_step(self, tiny_classification, monkeypatch):
        # the hypernet (and so the checkpoint) of a diverged fast-path run
        # holds every step the run took, as head-space SGD's does
        from dataclasses import replace
        name, data = tiny_classification
        cfg = replace(tr.config_for(name), learning_rate=1e40)
        fast = tr.train(name, cfg, data=data)
        head_space_only(monkeypatch)
        slow = tr.train(name, cfg, data=data)
        assert fast.diverged and slow.diverged
        assert fast.steps == slow.steps >= 1
        assert_same_hypernet(fast.hypernet, slow.hypernet, rtol=1e-9)

    @staticmethod
    def assert_fast_path_matches_head_space_sgd(name, cfg, data, monkeypatch):
        fast = tr.train(name, cfg, data=data)
        assert tr._FixedHeadFastPath.applicable(fast.hypernet)
        head_space_only(monkeypatch)
        slow = tr.train(name, cfg, data=data)
        assert not fast.diverged and fast.steps == slow.steps == 16
        assert [r[:2] for r in fast.curve] == [r[:2] for r in slow.curve]
        np.testing.assert_allclose([r[2:] for r in fast.curve], [r[2:] for r in slow.curve],
                                   rtol=1e-9)
        assert len(fast.reports) == len(slow.reports) == 4
        for a, b in zip(fast.reports, slow.reports):
            assert [(r.layer, r.kind) for r in a.rows] == [(r.layer, r.kind) for r in b.rows]
            np.testing.assert_allclose([r.var for r in a.rows], [r.var for r in b.rows],
                                       rtol=1e-9)
        assert_same_hypernet(fast.hypernet, slow.hypernet, rtol=1e-9)

    def test_bias_heads_match_head_space_sgd(self, tiny_bias_classification, monkeypatch):
        name, data = tiny_bias_classification
        self.assert_fast_path_matches_head_space_sgd(name, tr.config_for(name), data,
                                                     monkeypatch)

    def test_const_embedding_heads_match_head_space_sgd(self, tiny_bias_classification,
                                                        monkeypatch):
        # layers of one fan-in share one constant embedding, so a shared
        # head's Gram matrix is singular; the fast path still steps exactly
        from dataclasses import replace
        name, data = tiny_bias_classification
        cfg = replace(tr.config_for(name), scheme="const-embedding")
        self.assert_fast_path_matches_head_space_sgd(name, cfg, data, monkeypatch)

    @pytest.mark.parametrize("iterations,want", [(10, [0, 5, 10]), (0, [0]),
                                                 (12, [0, 5, 10, 12])])
    def test_each_step_is_probed_once(self, tiny_classification, iterations, want):
        # the closing probe is skipped when the loop already probed its step
        from dataclasses import replace
        name, data = tiny_classification
        cfg = replace(tr.config_for(name), iterations=iterations, probe_every=5)
        res = tr.train(name, cfg, data=data)
        assert res.steps == iterations
        assert [r.step for r in res.reports] == want

    def test_probe_asks_no_bias_head_for_feature_grads(self, tiny_bias_classification,
                                                        monkeypatch):
        # the probe reports the weight heads' feature gradients only
        slots = []
        feature_grads = hg.SlotBank.feature_grads

        def recorded(bank, dslot):
            slots.append(bank.slot)
            return feature_grads(bank, dslot)

        monkeypatch.setattr(hg.SlotBank, "feature_grads", recorded)
        name, data = tiny_bias_classification
        res = tr.train(name, tr.config_for(name), data=data)
        assert res.reports and hg.WEIGHT in slots and hg.BIAS not in slots
        layers = [row.layer for row in res.reports[0].rows if row.kind == "head_feature_grad"]
        assert sorted(layers) == list(range(len(res.hypernet.mspec.layers)))

    def test_curve_rows_have_metric(self, tiny_classification):
        name, data = tiny_classification
        res = tr.train(name, tr.config_for(name), data=data)
        assert res.curve
        for step, epoch, loss, metric in res.curve:
            assert 0.0 <= metric <= 1.0
        assert res.final_metric == res.curve[-1][3]


class TestEveryScheme:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("name", ["tiny-clf-bias", "tiny-conv-chunked",
                                      "tiny-regression-trunk"])
    def test_every_scheme_trains_on_every_head_path(self, every_head_path, name, kind):
        # baselines may diverge: a diverged run stops where it is recorded
        from dataclasses import replace
        cfg = replace(tr.config_for(name), scheme=kind, iterations=4)
        res = tr.train(name, cfg, data=every_head_path[name])
        assert isinstance(res, tr.TrainResult)
        assert tr._FixedHeadFastPath.applicable(res.hypernet) == (name == "tiny-clf-bias")
        if res.diverged:
            assert res.steps == res.divergence_step
        else:
            assert res.steps == 4 * len(res.task_final_losses or [None])
            assert res.curve and all(np.isfinite(row[2]) for row in res.curve)


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


def refuse_hypernet(monkeypatch):
    """Make building the hypernet fail, for checks that must come before it."""
    def refuse(*args, **kwargs):
        raise AssertionError("the hypernet was built")

    monkeypatch.setattr(tr, "init_hypernet", refuse)


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

    @pytest.mark.parametrize("split, labels, message", [
        (0, lambda a: a[:100], r"train labels of shape \(100,\) are not one per example of 128"),
        (1, lambda a: a[:40], r"test labels of shape \(40,\) are not one per example of 64"),
        (0, lambda a: a[:, None], r"train labels of shape \(128, 1\)"),
        (1, lambda a: np.where(np.arange(len(a)) == 5, 2.5, a),
         r"test label 2.5 at index 5 is not a class in \[0, 4\)"),
    ], ids=["short-train", "short-test", "a-column", "not-whole"])
    def test_labels_not_one_class_per_example_rejected_before_the_hypernet(
            self, tiny_classification, monkeypatch, split, labels, message):
        from dataclasses import replace
        name, data = tiny_classification
        data = tuple(replace(ds, labels=labels(ds.labels)) if i == split else ds
                     for i, ds in enumerate(data))
        refuse_hypernet(monkeypatch)
        with pytest.raises(dt.FormatError, match=message):
            tr.train(name, tr.config_for(name), data=data)


class TestShapeCheck:
    @pytest.mark.parametrize("preset, split, shape, message", [
        ("mnist-mlp", 0, (20, 20), r"train examples of shape \(20, 20\) .* takes 784 values"),
        ("mnist-mlp", 1, (28, 27), r"test examples of shape \(28, 27\) .* takes 784 values"),
        ("cifar-allconv", 0, (1, 32, 32), r"train .* \(1, 32, 32\) .* takes 3 channels"),
        ("cifar-allconv", 1, (96, 32), r"test .* \(96, 32\) .* takes 3 channels"),
    ])
    def test_examples_that_do_not_fit_layer_zero_are_rejected_before_the_hypernet(
            self, monkeypatch, preset, split, shape, message):
        good = (28, 28) if preset == "mnist-mlp" else (3, 32, 32)
        sets = [dt.make_synthetic_images(20, 10, shape if i == split else good, 10, seed=1)[i]
                for i in (0, 1)]
        refuse_hypernet(monkeypatch)
        with pytest.raises(dt.FormatError, match=message):
            tr.train(preset, tr.config_for(preset), data=tuple(sets))


class TestNonFiniteData:
    @pytest.mark.parametrize("split,field,value", [
        (0, "inputs", np.nan), (1, "inputs", -np.inf), (0, "labels", np.nan)])
    def test_classification_arrays_rejected_before_step_one(self, tiny_classification,
                                                            split, field, value):
        from dataclasses import replace
        name, data = tiny_classification
        arr = getattr(data[split], field).astype(float)
        arr.reshape(len(arr), -1)[7, -1] = value   # one entry of example 7
        data = tuple(replace(ds, **{field: arr}) if i == split else ds
                     for i, ds in enumerate(data))
        which = ("train", "test")[split]
        with pytest.raises(dt.FormatError, match=f"{which} {field}: non-finite value at index 7"):
            tr.train(name, tr.config_for(name), data=data)

    @pytest.mark.parametrize("field", ["train_x", "train_y", "test_x"])
    def test_regression_task_arrays_rejected_before_step_one(self, field):
        # a NaN in task 1's train_x used to end the run as a divergence
        from dataclasses import replace
        tasks = dt.make_regression_tasks(0)
        arr = getattr(tasks.tasks[1], field).copy()
        arr[55] = np.nan
        tasks.tasks[1] = replace(tasks.tasks[1], **{field: arr})
        with pytest.raises(dt.FormatError, match=f"task 1 {field}: non-finite value at index 55"):
            tr.train("regression-seq", tr.config_for("regression-seq"), data=tasks)

    @pytest.mark.parametrize("task, message", [
        (dict(train_x=np.zeros((0, 1)), train_y=np.zeros((0, 1))),
         r"task 1 train_x has shape \(0, 1\); want \(N, 1\), N > 0"),
        (dict(test_x=np.zeros((0, 1)), test_y=np.zeros((0, 1))), r"task 1 test_x has shape"),
        (dict(train_y=np.zeros((56, 1))), r"task 1 train_y has shape \(56, 1\); want \(N, 1\)"),
        (dict(test_y=np.zeros(100)), r"task 1 test_y has shape \(100,\)"),
        (dict(train_x=np.zeros(100)), r"task 1 train_x has shape \(100,\); want \(N, 1\)"),
        (dict(train_x=np.zeros((100, 2))), r"task 1 train_x has shape \(100, 2\)"),
        (dict(train_y=np.zeros((100, 3))), r"task 1 train_y has shape \(100, 3\)"),
    ], ids=["empty-train", "empty-test", "short-train-y", "flat-test-y", "flat-train-x",
            "wide-train-x", "wide-train-y"])
    def test_regression_task_shapes_rejected_before_the_hypernet(self, monkeypatch, task,
                                                                  message):
        # empty, ragged or misshapen arrays used to end in a reshape or index error
        from dataclasses import replace
        tasks = dt.make_regression_tasks(0)
        tasks.tasks[1] = replace(tasks.tasks[1], **task)
        refuse_hypernet(monkeypatch)
        with pytest.raises(dt.FormatError, match=message):
            tr.train("regression-seq", tr.config_for("regression-seq"), data=tasks)


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
                     train_ds.inputs,
                     train_ds.labels.astype(np.uint8))
        dt.write_idx(tmp_path / "t10k-images-idx3-ubyte",
                     tmp_path / "t10k-labels-idx1-ubyte",
                     test_ds.inputs,
                     test_ds.labels.astype(np.uint8))
        cfg = replace(tr.config_for("mnist-mlp"), epochs=1, subset=64,
                      eval_every=None, probe_every=10 ** 6)
        res = tr.train("mnist-mlp", cfg, data_dir=tmp_path)
        assert not res.diverged
        assert res.curve
