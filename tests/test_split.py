"""Every pass the core scheduler (``tensor.in_groups``) splits gives the bits
of its serial result, on one core and on every core the process may use; and
the passes of a small step stay below its floor and start no thread."""

import os
import sys
import threading

import numpy as np
import pytest

from hyperinit import hypergen as hg
from hyperinit import mainnet as mn
from hyperinit import tensor
from hyperinit import train as tr
from hyperinit.init_schemes import parse_scheme
from hyperinit.tensor import Rng

from helpers import CORE_COUNTS, on_cores, on_each_core_count, refuse_threads


def assert_all_equal(results, want):
    for got in results:
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


def mnist_net():
    preset = tr.PRESETS["mnist-mlp"]
    mspec = preset.build_mainnet()
    return mspec, hg.init_hypernet(preset.build_hspec(), mspec, parse_scheme("hyperfan-in"),
                                   Rng(3))


@pytest.fixture(scope="module")
def mnist():
    return mnist_net()


class TestDraws:
    @pytest.mark.parametrize("before", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [5, 3 << 20, (3 << 20) + 7])
    def test_draws_equal_generator_uniform(self, before, n):
        # ``before`` doubles drawn first leave the Philox buffer at positions 0-3
        def draw():
            rng = Rng(11)
            rng._gen.random(before)
            return rng.uniform_symmetric(0.3, n), rng._gen.random(9)

        twin = np.random.Generator(np.random.Philox(np.random.SeedSequence((11,))))
        twin.random(before)
        want = twin.uniform(-0.3, 0.3, size=n), twin.random(9)
        assert_all_equal(on_each_core_count(draw), want)

    def test_draws_on_more_threads_than_cores(self, monkeypatch):
        # four groups of draws trading the interpreter every microsecond
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rng = Rng(12)
            got = rng.uniform_symmetric(1.0, (5 << 20) + 3), rng._gen.random(9)
        finally:
            sys.setswitchinterval(interval)
        twin = Rng(12)._gen
        assert_all_equal([got], (twin.uniform(-1.0, 1.0, size=(5 << 20) + 3), twin.random(9)))

    def test_draws_go_straight_into_out(self):
        out = np.empty((1 << 12, 50))
        got = Rng(4).uniform_symmetric(2.0, out=out)
        assert got is out
        np.testing.assert_array_equal(out, Rng(4).uniform_symmetric(2.0, out.shape))

    def test_the_mnist_heads_draw_on_every_core_as_on_one(self, mnist):
        with on_cores(1):
            _, serial = mnist_net()
        np.testing.assert_array_equal(mnist[1].flat, serial.flat)


def test_dense_passes_equal_the_whole_gemm():
    for batch in (10, 300, 500):   # the mnist-mlp layers at its step, probe and evaluation
        for d_in, d_out in ((784, 500), (500, 500), (500, 10)):
            rng = Rng(batch + d_in + d_out)
            x = rng.child(0).normal(1.0, (batch, d_in))
            w = rng.child(1).normal(1.0, (d_out, d_in))
            b = rng.child(2).normal(1.0, d_out)
            dy = rng.child(3).normal(1.0, (batch, d_out))
            spec = mn.MainnetSpec(layers=(mn.LayerSpec(mn.DENSE, d_in, d_out),), loss=mn.MSE)
            trace = mn.ForwardTrace(inputs=[x])
            want = x @ w.T + b, dy @ w, dy.T @ x, dy[:, 64:192].T @ x
            got = on_each_core_count(lambda: (
                mn.forward(spec, [{"W": w, "b": b}], x)[0].preacts[0],
                tensor.matmul_cols(dy, w),   # the input gradient of mainnet.backward
                mn.weight_grad(spec.layers[0], trace, 0, dy),
                mn.weight_grad(spec.layers[0], trace, 0, dy, slice(64, 192))))
            assert_all_equal(got, want)


@pytest.mark.parametrize("n_cores, ranges", [
    (1, [(0, 500)]),
    (2, [(0, 256), (256, 500)]),
    (3, [(0, 128), (128, 256), (256, 500)]),
    (4, [(0, 128), (128, 256), (256, 384), (384, 500)]),
])
def test_column_ranges_at_each_core_count(monkeypatch, n_cores, ranges):
    # the power-of-two column blocks of a 300 x 784 by 784 x 500 product, as
    # a machine of 1 to 4 cores splits it: the ranges each group multiplies
    monkeypatch.setattr(tensor, "cores", lambda: n_cores)
    whole, got = tensor.in_groups, []

    def recording(blocks, work, buffers, run):
        def record(group, *bufs):
            got.append((group[0].start, min(group[-1].stop, 500)))
            run(group, *bufs)
        whole(blocks, work, buffers, record)

    monkeypatch.setattr(tensor, "in_groups", recording)
    a, b = np.ones((300, 784)), np.ones((784, 500))
    out = tensor.matmul_cols(a, b)
    assert sorted(got) == ranges
    assert (out == 784.0).all()


class TestConvWeightGrad:
    # cifar-allconv's conv layers: positions per sample, patch width. Layer
    # 0's 27 patch columns, fewer than the 96 (or 32) channels asked for,
    # take the transposed product (cols.T @ dy).T, split by channels.
    @pytest.mark.parametrize("batch", [50, 300])
    @pytest.mark.parametrize("p, c_in", [(256, 3), (64, 96), (16, 96)])
    def test_gradient_equals_the_whole_gemm(self, batch, p, c_in):
        rng = Rng(batch + p)
        cols = rng.child(0).normal(1.0, (batch * p, 9 * c_in))
        dy = rng.child(1).normal(1.0, (batch, p, 1, 96))
        layer = mn.LayerSpec(mn.CONV, c_in, 96, kernel=(3, 3, 2, 1))
        trace = mn.ForwardTrace(conv_cols={0: cols})
        for rows in (slice(None), slice(32, 64)):
            g = dy.reshape(-1, 96)[:, rows].T @ cols
            want = g.reshape(-1, 3, 3, c_in).transpose(0, 3, 1, 2)
            for got in on_each_core_count(lambda: mn.weight_grad(layer, trace, 0, dy, rows)):
                # by bit pattern: -0.0 and 0.0 differ
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestHeads:
    def test_generate_equals_the_slot_product(self, mnist):
        _, net = mnist
        bank = net.sources["w"].head
        y = net.sources["w"].block @ bank.H.T + bank.beta
        want = {t: hg._assemble(y[row, cols], shape) for t, row, cols, shape in bank.places}
        for params in on_each_core_count(lambda: net.generate()[0]):
            for t, w in want.items():
                np.testing.assert_array_equal(params[t]["W"], w)

    def test_stacks_and_sync_equal_the_whole_matrix_fold(self, mnist):
        _, net = mnist
        flat = net.flat.copy()
        results = []
        for n in CORE_COUNTS:
            with on_cores(n):
                fast = tr._FixedHeadFastPath(net)
            for rec in fast.heads:   # the stack, straight from the head
                head = rec["head"]
                generated = np.stack([head.H @ e + head.beta for e in rec["emb"]])
                np.testing.assert_array_equal(rec["stack"], generated)
                rec["stack"] -= Rng(5).normal(1e-3, rec["stack"].shape)
            fast.moved = True
            want = []
            for rec in fast.heads:
                head = rec["head"]
                generated = np.stack([head.H @ e + head.beta for e in rec["emb"]])
                acc = np.linalg.lstsq(rec["gram"], generated - rec["stack"], rcond=None)[0]
                want.append((head.H - acc.T @ rec["emb"], head.beta - acc.sum(axis=0),
                             rec["stack"].copy()))
            with on_cores(n):
                fast.sync()
            for rec, (h, beta, stack) in zip(fast.heads, want):
                np.testing.assert_array_equal(rec["head"].H, h)
                np.testing.assert_array_equal(rec["head"].beta, beta)
                np.testing.assert_array_equal(rec["stack"], stack)   # the carried weights stay
            results.append(net.flat.copy())
            net.flat[...] = flat
        np.testing.assert_array_equal(results[0], results[1])

    def test_sync_without_an_update_folds_nothing(self, mnist, monkeypatch):
        _, net = mnist
        fast = tr._FixedHeadFastPath(net)

        def refuse(*args, **kwargs):
            raise AssertionError("folded with nothing to fold")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        fast.sync()


class TestFloor:
    def test_a_regression_step_starts_no_thread(self, monkeypatch):
        preset = tr.PRESETS["regression-seq"]
        mspec = preset.build_mainnet()
        net = hg.init_hypernet(preset.build_hspec(), mspec, parse_scheme("hyperfan-in"),
                               Rng(1))
        rng = Rng(2)
        x, y = rng.child(0).normal(1.0, (32, 1)), rng.child(1).normal(1.0, (32, 1))
        refuse_threads(monkeypatch)
        step = tr.pipeline_step(net, mspec, x, y)
        assert not step.diverged
        assert tr._HeadSpaceSgd(net).update(step, 1e-3)

    def test_a_batch_10_mnist_step_starts_no_thread(self, mnist, monkeypatch):
        mspec, net = mnist
        fast = tr._FixedHeadFastPath(net)
        rng = Rng(6)
        x = rng.child(0).normal(1.0, (10, 784))
        y = np.asarray(rng.child(1).integers(10, size=10))
        refuse_threads(monkeypatch)
        step = tr.pipeline_step(net, mspec, x, y, fast.carried, weights=fast.weights)
        assert fast.update(step, 5e-4)

    def test_a_probe_batch_does_split(self, mnist, monkeypatch):
        # the floor's other side, where the machine has more than one core
        if tensor.cores() < 2:
            pytest.skip("one core: nothing splits")
        mspec, net = mnist
        started = []
        thread = threading.Thread

        def counting(*args, **kwargs):
            started.append(1)
            return thread(*args, **kwargs)

        monkeypatch.setattr(threading, "Thread", counting)
        x = Rng(7).normal(1.0, (300, 784))
        mn.forward(mspec, net.generate()[0], x)
        assert started


def cifar_net():
    preset = tr.PRESETS["cifar-allconv"]
    mspec = preset.build_mainnet()
    net = hg.init_hypernet(preset.build_hspec(), mspec, parse_scheme("hyperfan-in"), Rng(8))
    return mspec, net.generate()[0]


@pytest.fixture(scope="module")
def cifar():
    return cifar_net()


def unfused(mspec, params, x, labels):
    """What the fused conv passes replace, from their own GEMMs: each conv
    window's product plus the bias, then the activation and the overflow
    check over the whole map, and each layer's dy = activation_grad(dx)."""
    trace, _ = mn.forward(mspec, params, x, labels)
    grads = mn.backward(mspec, params, trace, labels, weights=False)
    preacts, acts, overflow = [], [], None
    for t, layer in enumerate(mspec.layers):
        y = trace.preacts[t]
        if layer.kind == mn.CONV:
            _, c_in, kh, kw = layer.weight_shape
            wm_t = mn._weight_matrix(params[t]["W"]).T
            windows, _ = mn._sample_windows(len(y), y[0].size // layer.d_out * kh * kw * c_in,
                                            layer.d_out)
            y = np.empty_like(y)
            y_mat, cols, p = y.reshape(-1, layer.d_out), trace.conv_cols[t], y[0].size // layer.d_out
            for s in windows:
                rows = slice(s.start * p, s.stop * p)
                y_mat[rows] = np.matmul(cols[rows], wm_t) + params[t]["b"]
        preacts.append(y)
        acts.append(mn.activate(layer.activation, y))
        m = np.abs(y).max()
        if overflow is None and (not np.isfinite(m) or m > mn.OVERFLOW_LIMIT):
            overflow = t
    dys = [mn.activation_grad(l.activation, y, a, d)
           for l, y, a, d in zip(mspec.layers, preacts, acts, grads.acts)]
    dws = [mn.weight_grad(l, trace, t, dy) for t, (l, dy) in enumerate(zip(mspec.layers, dys))]
    return (preacts, acts, overflow, dys, [dy.reshape(-1, dy.shape[-1]).sum(axis=0) for dy in dys],
            dws)


def fused(mspec, params, x, labels):
    trace, _ = mn.forward(mspec, params, x, labels)
    kept = mn.backward(mspec, params, trace, labels, weights=False)
    trace, _ = mn.forward(mspec, params, x, labels)
    grads = mn.backward(mspec, params, trace, labels)
    return (trace.preacts, trace.acts, trace.overflow_layer, kept.preacts, grads.bias,
            grads.weight)


def assert_passes_equal(got, want):
    for name, a, b in zip(("preacts", "acts", "overflow", "dy", "db", "dW"), got, want):
        if name == "overflow":
            assert a == b
            continue
        assert len(a) == len(b)
        for t, (u, v) in enumerate(zip(a, b)):
            assert u.shape == v.shape, (name, t)
            # bit patterns: -0.0 and 0.0 differ, NaNs compare by payload
            np.testing.assert_array_equal(u.view(np.uint64), v.view(np.uint64),
                                          err_msg=f"{name} of layer {t}")


class TestFusedConvPasses:
    """The conv windows add the bias, activate and check for overflow on
    their output rows, and the input gradient forms the layer below's dy per
    window: the same bits as the whole-map formulas, at every batch and core
    count."""

    @pytest.mark.parametrize("batch", [1, 17, 50, 129, 300, 500])
    def test_the_cifar_passes_equal_the_unfused_formulas(self, cifar, batch):
        mspec, params = cifar
        rng = Rng(batch)
        x = rng.child(0).normal(1.0, (batch, 3, 32, 32))
        labels = np.asarray(rng.child(1).integers(10, size=batch))
        want = unfused(mspec, params, x, labels)
        for n in CORE_COUNTS:
            with on_cores(n):
                assert_passes_equal(fused(mspec, params, x, labels), want)

    def test_on_more_threads_than_cores(self, cifar, monkeypatch):
        # four groups of windows trading the interpreter every microsecond
        mspec, params = cifar
        rng = Rng(44)
        x = rng.child(0).normal(1.0, (129, 3, 32, 32))
        labels = np.asarray(rng.child(1).integers(10, size=129))
        want = unfused(mspec, params, x, labels)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = fused(mspec, params, x, labels)
        finally:
            sys.setswitchinterval(interval)
        assert_passes_equal(got, want)

    @pytest.mark.parametrize("batch", [11, 12])
    def test_a_tanh_layer_in_small_windows(self, batch):
        # 45 x 45 maps make 2-sample windows in the first layer: at 11
        # samples an overlapping last one, at 12 none overlapping
        mspec = mn.MainnetSpec(layers=(
            mn.LayerSpec(mn.CONV, 16, 5, kernel=(3, 3, 1, 1), activation=mn.TANH),
            mn.LayerSpec(mn.CONV, 5, 5, kernel=(3, 3, 1, 1), activation=mn.TANH),
            mn.LayerSpec(mn.DENSE, 5, 3)))
        rng = Rng(21)
        params = [{"W": rng.child(2 * t).normal(0.3, l.weight_shape),
                   "b": rng.child(2 * t + 1).normal(0.1, l.d_out)}
                  for t, l in enumerate(mspec.layers)]
        x = rng.child(9).normal(1.0, (batch, 16, 45, 45))
        labels = np.asarray(rng.child(10).integers(3, size=batch))
        want = unfused(mspec, params, x, labels)
        for n in CORE_COUNTS:
            with on_cores(n):
                assert_passes_equal(fused(mspec, params, x, labels), want)

    def test_a_relu_derivative_of_non_finite_values(self):
        # cifar-allconv's layer 1 at batch 50: 13 windows, the last one
        # overlapping; +inf and NaN in dy put +-inf and NaN into dx, beside
        # a y of NaN, 0.0, -0.0 and negative values
        x_shape, kernel = (50, 16, 16, 96), (3, 3, 2, 1)
        rng = Rng(45)
        w = rng.child(0).normal(1.0, (96, 96, 3, 3))
        dy = rng.child(1).normal(1.0, (50, 8, 8, 96))
        dy[3, 2, 5, 0], dy[31, 2, 2, 4], dy[32, 1, 1, 7] = np.inf, np.nan, np.inf
        y = rng.child(2).normal(1.0, x_shape)
        y[::3, 4:9] = np.nan
        y[1::3, :, 2:7] = 0.0
        y[2::3, :, 2:7] = -0.0
        below = (mn.RELU, y, mn.activate(mn.RELU, y))
        got = []
        with np.errstate(invalid="ignore"):   # inf - inf and inf * 0
            for n in CORE_COUNTS:
                with on_cores(n):
                    got.append(mn._conv_input_grad(x_shape, w, kernel, dy, below))
            dx = got[0][0]
            assert np.isposinf(dx).any() and np.isneginf(dx).any() and np.isnan(dx).any()
            for at in (np.isnan(y), (y == 0) & ~np.signbit(y), (y == 0) & np.signbit(y), y < 0):
                assert (at & ~np.isfinite(dx)).any()
            want = mn.activation_grad(mn.RELU, y, None, dx)
        for dx_n, dy_below in got:
            np.testing.assert_array_equal(dx_n.view(np.uint64), dx.view(np.uint64))
            np.testing.assert_array_equal(dy_below.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_an_overflow_in_a_later_group_names_its_layer(self, cifar, bad):
        # 300 samples: the last windows run on the last group's thread
        mspec, params = cifar
        x = np.zeros((300, 3, 32, 32))
        x[290, 1, 5, 7] = bad
        for n in CORE_COUNTS:
            with on_cores(n):
                assert mn.forward(mspec, params, x)[0].overflow_layer == 0
        # layer 1 alone overflows: layer 0 passes sample 290's 1e10 on in
        # channels 0 and 1, and layer 1 multiplies them by 1e308. (Its GEMM's
        # fused multiply-adds keep a +-inf sum, so no NaN can start there.)
        x[290, 1, 5, 7] = 1e10
        huge = [dict(p) for p in params]
        huge[0]["W"] = np.zeros_like(params[0]["W"])
        huge[0]["W"][:2] = 1.0
        huge[0]["b"] = np.zeros_like(params[0]["b"])
        huge[1]["W"] = np.zeros_like(params[1]["W"])
        huge[1]["W"][:, :2] = 1e308
        for n in CORE_COUNTS:
            with on_cores(n):
                trace = mn.forward(mspec, huge, x)[0]
                assert trace.overflow_layer == 1
                bad_samples = ~np.isfinite(trace.preacts[1]).all(axis=(1, 2, 3))
                assert np.flatnonzero(bad_samples).tolist() == [290]
