import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from hyperinit import mainnet as mn
from hyperinit import tensor
from hyperinit.gradcheck import gradient_errors, numeric_gradient
from hyperinit.tensor import Rng

from helpers import conv2d_forward, zero_params


def conv_oracle(x, w, b, kernel):
    """Six nested loops, no tricks."""
    kh, kw, stride, pad = kernel
    bs, c_in, h, w_in = x.shape
    c_out = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w_in + 2 * pad - kw) // stride + 1
    out = np.zeros((bs, c_out, oh, ow))
    for n in range(bs):
        for co in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(c_in):
                        for u in range(kh):
                            for v in range(kw):
                                acc += (xp[n, ci, i * stride + u, j * stride + v]
                                        * w[co, ci, u, v])
                    out[n, co, i, j] = acc + b[co]
    return out


def random_params(spec, rng, scale=0.5):
    params = []
    for i, layer in enumerate(spec.layers):
        params.append({
            "W": rng.child(2 * i).normal(scale, layer.weight_shape),
            "b": rng.child(2 * i + 1).normal(scale, layer.d_out),
        })
    return params


class TestSpecValidation:
    def test_dense_forbids_kernel(self):
        with pytest.raises(mn.SpecError):
            mn.LayerSpec("dense", 3, 4, kernel=(3, 3, 1, 1))

    def test_conv_requires_kernel(self):
        with pytest.raises(mn.SpecError):
            mn.LayerSpec("conv", 3, 4)

    def test_dims_must_compose(self):
        with pytest.raises(mn.SpecError):
            mn.MainnetSpec(layers=(mn.LayerSpec("dense", 3, 4),
                                   mn.LayerSpec("dense", 5, 2)))

    def test_conv_cannot_follow_dense(self):
        with pytest.raises(mn.SpecError):
            mn.MainnetSpec(layers=(
                mn.LayerSpec("dense", 3, 4),
                mn.LayerSpec("conv", 4, 4, kernel=(3, 3, 1, 1))))

    def test_conv_fan_in_includes_kernel(self):
        layer = mn.LayerSpec("conv", 96, 96, kernel=(3, 3, 1, 1))
        assert layer.fan_in == 864
        assert layer.receptive_field == 9

    def test_kernel_larger_than_input(self):
        spec = mn.MainnetSpec(layers=(
            mn.LayerSpec("conv", 1, 1, kernel=(5, 5, 1, 0)),
            mn.LayerSpec("dense", 1, 1)), loss="mse")
        params = zero_params(spec)
        with pytest.raises(mn.SpecError):
            mn.forward(spec, params, np.zeros((1, 1, 3, 3)))


class TestForward:
    def test_zero_net_zero_mse(self):
        spec = mn.mlp([3, 2], activation="identity", loss="mse")
        params = zero_params(spec)
        _, loss = mn.forward(spec, params, np.ones((4, 3)), np.zeros((4, 2)))
        assert loss == 0.0

    def test_single_dense_hand_example(self):
        spec = mn.mlp([2, 1], activation="identity", loss="mse")
        params = [{"W": np.array([[1.0, 1.0]]), "b": np.zeros(1)}]
        trace, _ = mn.forward(spec, params, np.array([[3.0, 4.0]]))
        assert trace.output.item() == 7.0

    def test_tanh_applied_to_hidden_only(self):
        spec = mn.mlp([2, 2, 2], activation="tanh")
        assert spec.layers[0].activation == "tanh"
        assert spec.layers[1].activation == "identity"

    def test_overflow_reported_not_raised(self):
        spec = mn.mlp([2, 2, 2], activation="identity", loss="mse")
        params = [{"W": np.full((2, 2), 1e20), "b": np.zeros(2)},
                  {"W": np.full((2, 2), 1e20), "b": np.zeros(2)}]
        trace, loss = mn.forward(spec, params, np.ones((1, 2)),
                                 np.zeros((1, 2)))
        assert trace.overflow_layer == 1
        assert not np.isfinite(loss) or loss > 1e30

    def test_fan_in_hypernet_style_explosion(self):
        # unit-variance weights on width-500 layers: variance grows ~ d_j per
        # layer, exceeding 1e4 absolute activations by layer 5
        rng = Rng(0)
        spec = mn.mlp([500] * 6, activation="identity", loss="mse")
        params = [{"W": rng.child(i).normal(1.0, (500, 500)), "b": np.zeros(500)}
                  for i in range(5)]
        trace, _ = mn.forward(spec, params, rng.child(9).normal(1.0, (8, 500)))
        assert np.abs(trace.acts[-1]).max() > 1e4
        v_prev, v_last = np.var(trace.acts[-2]), np.var(trace.acts[-1])
        assert v_last / v_prev == pytest.approx(500, rel=0.5)


class TestLosses:
    def test_cross_entropy_uniform_logits(self):
        logits = np.zeros((5, 10))
        labels = np.arange(5) % 10
        assert mn.softmax_cross_entropy(logits, labels) == pytest.approx(np.log(10))

    def test_mse(self):
        assert mn.mse_loss(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]])) == 2.5

    def test_accuracy(self):
        out = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert mn.accuracy(out, np.array([0, 1, 1])) == pytest.approx(2 / 3)


class TestBackward:
    def test_identity_net_at_minimum(self):
        spec = mn.mlp([3, 3], activation="identity", loss="mse")
        params = [{"W": np.eye(3), "b": np.zeros(3)}]
        x = np.array([[1.0, -2.0, 0.5]])
        trace, loss = mn.forward(spec, params, x, x)
        assert loss == 0.0
        grads = mn.backward(spec, params, trace, x)
        assert not grads.weight[0].any()

    def test_dense_hand_gradient(self):
        # y = 7, MSE target 0 -> dL/dW = 2*y*x
        spec = mn.mlp([2, 1], activation="identity", loss="mse")
        params = [{"W": np.array([[1.0, 1.0]]), "b": np.zeros(1)}]
        x = np.array([[3.0, 4.0]])
        trace, _ = mn.forward(spec, params, x, np.zeros((1, 1)))
        grads = mn.backward(spec, params, trace, np.zeros((1, 1)))
        np.testing.assert_allclose(grads.weight[0], [[42.0, 56.0]])

    @pytest.mark.parametrize("activation,loss", [
        ("tanh", "mse"), ("relu", "mse"), ("tanh", "cross-entropy"),
        ("relu", "cross-entropy"), ("identity", "mse"),
    ])
    def test_finite_difference_dense(self, activation, loss):
        rng = Rng(21)
        spec = mn.mlp([5, 8, 6, 3], activation=activation, loss=loss)
        params = random_params(spec, rng)
        x = rng.child(50).normal(1.0, (4, 5))
        if loss == "mse":
            y = rng.child(51).normal(1.0, (4, 3))
        else:
            y = np.asarray(rng.child(51).integers(3, size=4))

        def loss_fn():
            _, l = mn.forward(spec, params, x, y)
            return l

        trace, _ = mn.forward(spec, params, x, y)
        grads = mn.backward(spec, params, trace, y)
        worst = 0.0
        for t in range(len(spec.layers)):
            for arr, g in ((params[t]["W"], grads.weight[t]),
                           (params[t]["b"], grads.bias[t])):
                num = numeric_gradient(loss_fn, arr)
                rel, _ = gradient_errors(g, num)
                worst = max(worst, rel)
        assert worst < 1e-5


class TestConv:
    def test_one_by_one_kernel_is_per_pixel_dense(self):
        rng = Rng(5)
        x = rng.normal(1.0, (2, 3, 4, 4))
        w = rng.normal(1.0, (5, 3, 1, 1))
        b = rng.normal(1.0, 5)
        out = conv2d_forward(x, w, b, (1, 1, 1, 0))
        want = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0]) + b[None, :, None, None]
        np.testing.assert_allclose(out, want, rtol=1e-12)

    def test_all_ones_valid_conv(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        out = conv2d_forward(x, w, np.zeros(1), (3, 3, 1, 0))
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 9.0

    @pytest.mark.parametrize("kernel", [
        (3, 3, 1, 1), (3, 3, 2, 1), (1, 1, 1, 0), (3, 3, 1, 0), (2, 2, 2, 0),
    ])
    def test_forward_matches_naive_oracle(self, kernel):
        rng = Rng(8)
        x = rng.child(0).normal(1.0, (2, 3, 6, 6))
        w = rng.child(1).normal(1.0, (4, 3, kernel[0], kernel[1]))
        b = rng.child(2).normal(1.0, 4)
        got = conv2d_forward(x, w, b, kernel)
        want = conv_oracle(x, w, b, kernel)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kernel", [(3, 3, 2, 1), (2, 2, 2, 0)])
    def test_non_square_odd_input_matches_oracle(self, kernel):
        # H != W, both odd: a swapped spatial axis cannot pass unnoticed
        rng = Rng(9)
        x = rng.child(0).normal(1.0, (2, 3, 5, 7))
        w = rng.child(1).normal(1.0, (4, 3, kernel[0], kernel[1]))
        b = rng.child(2).normal(1.0, 4)
        got = conv2d_forward(x, w, b, kernel)
        want = conv_oracle(x, w, b, kernel)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_non_square_conv_net_finite_difference(self):
        rng = Rng(14)
        spec = mn.allconv(2, [3, 4], 3, kernel=3, strides=[2, 1])
        params = random_params(spec, rng, scale=0.3)
        x = rng.child(40).normal(1.0, (2, 2, 5, 7))
        y = np.asarray(rng.child(41).integers(3, size=2))

        def loss_fn():
            _, l = mn.forward(spec, params, x, y)
            return l

        trace, _ = mn.forward(spec, params, x, y)
        grads = mn.backward(spec, params, trace, y)
        pairs = []
        for t in range(len(spec.layers)):
            pairs += [(params[t]["W"], grads.weight[t]), (params[t]["b"], grads.bias[t])]
        worst = max(gradient_errors(g, numeric_gradient(loss_fn, arr))[0]
                    for arr, g in pairs)
        assert worst < 1e-5

    def test_gradient_shapes_keep_the_public_layout(self):
        rng = Rng(15)
        spec = mn.allconv(2, [3, 4], 3, kernel=3, strides=[2, 1])
        params = random_params(spec, rng)
        x = rng.child(40).normal(1.0, (2, 2, 5, 7))
        y = np.asarray(rng.child(41).integers(3, size=2))
        trace, _ = mn.forward(spec, params, x, y)
        grads = mn.backward(spec, params, trace, y)
        for t, layer in enumerate(spec.layers):
            assert grads.weight[t].shape == layer.weight_shape
            assert grads.bias[t].shape == (layer.d_out,)

    def test_conv_net_finite_difference(self):
        rng = Rng(13)
        spec = mn.allconv(2, [4, 4], 3, kernel=3, strides=[1, 2])
        params = random_params(spec, rng, scale=0.3)
        x = rng.child(40).normal(1.0, (2, 2, 6, 6))
        y = np.asarray(rng.child(41).integers(3, size=2))

        def loss_fn():
            _, l = mn.forward(spec, params, x, y)
            return l

        trace, _ = mn.forward(spec, params, x, y)
        grads = mn.backward(spec, params, trace, y)
        worst = 0.0
        for t in range(len(spec.layers)):
            for arr, g in ((params[t]["W"], grads.weight[t]),
                           (params[t]["b"], grads.bias[t])):
                num = numeric_gradient(loss_fn, arr)
                rel, _ = gradient_errors(g, num)
                worst = max(worst, rel)
        assert worst < 1e-5

    @pytest.mark.parametrize("conv", [False, True])
    def test_weight_factors_give_the_weight_gradients(self, conv):
        rng = Rng(16)
        if conv:
            spec = mn.allconv(2, [5, 4], 3, kernel=3, strides=[2, 1])
            x = rng.child(40).normal(1.0, (2, 2, 5, 7))
        else:
            spec = mn.mlp([5, 7, 4, 3], activation="tanh")
            x = rng.child(40).normal(1.0, (2, 5))
        params = random_params(spec, rng)
        y = np.asarray(rng.child(41).integers(3, size=2))
        trace, _ = mn.forward(spec, params, x, y)
        want = mn.backward(spec, params, trace, y)
        assert want.preacts is None
        # the first backward has spent the trace's patch matrices
        trace, _ = mn.forward(spec, params, x, y)
        got = mn.backward(spec, params, trace, y, weights=False)
        assert got.weight == [None] * len(spec.layers)
        for t, layer in enumerate(spec.layers):
            np.testing.assert_array_equal(got.bias[t], want.bias[t])
            np.testing.assert_array_equal(got.acts[t], want.acts[t])
            dy = got.preacts[t]
            np.testing.assert_array_equal(mn.weight_grad(layer, trace, t, dy), want.weight[t])
            # row blocks, the last one partial, into given arrays
            for lo in range(0, layer.d_out, 2):
                rows = slice(lo, lo + 2)
                out = np.full(want.weight[t][rows].shape, np.nan)
                assert mn.weight_grad(layer, trace, t, dy, rows, out=out) is out
                np.testing.assert_allclose(out, want.weight[t][rows], rtol=1e-12, atol=1e-15)

    def test_global_average_pool_between_conv_and_dense(self):
        spec = mn.allconv(1, [2], 3, kernel=3, strides=[1])
        params = zero_params(spec)
        params[0]["W"][:] = 0.0
        params[0]["b"][:] = np.array([1.0, 2.0])
        params[1]["W"][:] = np.eye(3, 2)
        trace, _ = mn.forward(spec, params, np.zeros((1, 1, 4, 4)))
        np.testing.assert_allclose(trace.output, [[1.0, 2.0, 0.0]])


def im2col_per_tap(x, kernel):
    """The patch matrix built one kernel tap at a time from an np.pad copy."""
    kh, kw, stride, pad = kernel
    b, h, w, c = x.shape
    oh, ow = (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1
    x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    patches = np.empty((b, oh, ow, kh, kw, c))
    for i in range(kh):
        for j in range(kw):
            patches[:, :, :, i, j] = x[:, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return patches.reshape(b * oh * ow, kh * kw * c), (oh, ow)


def col2im_per_tap(dcols, x_shape, kernel, out_hw):
    """Patch gradients added into a zero-padded batch one kernel tap at a
    time, the padding cut off afterwards."""
    kh, kw, stride, pad = kernel
    b, h, w, c = x_shape
    oh, ow = out_hw
    dpatches = dcols.reshape(b, oh, ow, kh, kw, c)
    dx = np.zeros((b, h + 2 * pad, w + 2 * pad, c))
    for i in range(kh):
        for j in range(kw):
            dx[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += dpatches[:, :, :, i, j]
    return dx[:, pad:pad + h, pad:pad + w]


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def weight_matrix(w):
    return w.transpose(0, 2, 3, 1).reshape(w.shape[0], -1)


def conv_case(shape, kernel, c_out, seed=3, nchw_view=True):
    """An NHWC batch (a transposed NCHW one, as layer 0 receives it, unless
    ``nchw_view`` is off), weights and a bias."""
    b, c, h, w = shape
    rng = Rng(seed)
    x = rng.child(0).normal(1.0, shape if nchw_view else (b, h, w, c))
    if nchw_view:
        x = x.transpose(0, 2, 3, 1)
    return (x, rng.child(1).normal(1.0, (c_out, c, kernel[0], kernel[1])),
            rng.child(2).normal(1.0, c_out))


# (batch NCHW shape, kernel, C_out): cifar-allconv's three conv layers at
# batches of several windows with a partial last one, then odd shapes, one
# of them (129 samples of 4x4) with a one-sample last window, then strides
# above 2 and 1x1 kernels, some leaving input positions no tap reaches
BLOCKED_CASES = [
    ((137, 3, 32, 32), (3, 3, 2, 1), 96),
    ((50, 96, 16, 16), (3, 3, 2, 1), 96),
    ((137, 96, 8, 8), (3, 3, 2, 1), 96),
    ((5, 13, 37, 41), (3, 3, 1, 1), 7),
    ((70, 6, 20, 21), (3, 2, 1, 1), 32),
    ((129, 32, 4, 4), (3, 3, 1, 1), 8),
    ((300, 20, 5, 5), (3, 3, 2, 2), 20),
    ((41, 16, 28, 28), (3, 3, 3, 1), 128),
    ((41, 16, 28, 28), (3, 3, 4, 0), 128),
    ((41, 16, 28, 28), (1, 1, 1, 0), 128),
    ((41, 16, 28, 28), (1, 1, 3, 1), 128),
    ((41, 16, 28, 28), (1, 1, 4, 1), 128),
]


class TestBlockedConv:
    @pytest.mark.parametrize("kernel", [
        (3, 3, 1, 1), (3, 3, 2, 1), (1, 1, 1, 0), (3, 3, 1, 0), (2, 2, 2, 0), (3, 2, 2, 2),
    ])
    @pytest.mark.parametrize("nchw_view", [False, True])
    @pytest.mark.parametrize("shape", [(2, 3, 5, 7), (1, 1, 3, 3)])
    def test_matches_per_tap_reference(self, kernel, nchw_view, shape):
        # a transposed NCHW batch is what layer 0 receives: not C-contiguous,
        # and with length-1 axes it may pass for C-contiguous anyway
        x, w, b = conv_case(shape, kernel, 4, nchw_view=nchw_view)
        want_cols, hw = im2col_per_tap(x, kernel)
        want = want_cols @ weight_matrix(w).T
        want += b
        y, _, cols, _ = mn._conv_forward(x, w, b, kernel)
        np.testing.assert_array_equal(cols, want_cols)
        np.testing.assert_array_equal(y, want.reshape(shape[0], *hw, -1))
        y, _, cols, _ = mn._conv_forward(x, w, b, kernel, for_backward=False)
        assert cols is None
        np.testing.assert_array_equal(y, want.reshape(shape[0], *hw, -1))

    @pytest.mark.parametrize("shape, kernel, c_out", BLOCKED_CASES)
    def test_blocked_passes_equal_the_whole_batch_gemm(self, shape, kernel, c_out):
        x, w, b = conv_case(shape, kernel, c_out)
        want_cols, hw = im2col_per_tap(x, kernel)
        windows, n = mn._sample_windows(shape[0], hw[0] * hw[1] * want_cols.shape[1], c_out)
        assert len(windows) > 1 and shape[0] % n   # a partial last window
        want = want_cols @ weight_matrix(w).T
        want += b
        want = want.reshape(shape[0], *hw, -1)
        y, _, cols, _ = mn._conv_forward(x, w, b, kernel)
        np.testing.assert_array_equal(cols, want_cols)
        np.testing.assert_array_equal(y, want)
        y, *_ = mn._conv_forward(x, w, b, kernel, for_backward=False)
        np.testing.assert_array_equal(y, want)
        dy = Rng(4).normal(1.0, want.shape)
        dcols = dy.reshape(-1, c_out) @ weight_matrix(w)
        np.testing.assert_array_equal(bits(mn._conv_input_grad(x.shape, w, kernel, dy)[0]),
                                      bits(col2im_per_tap(dcols, x.shape, kernel, hw)))

    def test_an_empty_batch_gives_empty_passes(self):
        x, w, b = conv_case((0, 3, 8, 8), (3, 3, 2, 1), 4)
        y, _, cols, _ = mn._conv_forward(x, w, b, (3, 3, 2, 1))
        assert y.shape == (0, 4, 4, 4) and cols.shape == (0, 27)
        y, _, cols, _ = mn._conv_forward(x, w, b, (3, 3, 2, 1), for_backward=False)
        assert y.shape == (0, 4, 4, 4) and cols is None
        assert mn._conv_input_grad(x.shape, w, (3, 3, 2, 1), y)[0].shape == x.shape

    def test_windows_cover_the_batch_once_in_order(self):
        # 1<<14 patch entries per sample: at most 16 samples, an eighth of
        # the batch, but a GEMM of 2^21 multiply-adds (at 1 channel, 128)
        for b, c_out, want in ((1, 128, 1), (5, 128, 1), (16, 128, 2), (17, 128, 2),
                               (300, 128, 16), (300, 1, 128), (17, 1, 17)):
            windows, n = mn._sample_windows(b, 1 << 14, c_out)
            assert n == want
            assert all(s.stop - s.start == n for s in windows)
            assert windows[0].start == 0 and windows[-1].stop == b
            assert all(p.stop <= s.stop and s.start <= p.stop
                       for p, s in zip(windows, windows[1:]))
        assert mn._sample_windows(0, 10, 1) == ([], 0)

    def test_forward_only_pass_peaks_below_one_patch_matrix(self):
        spec = mn.MainnetSpec(layers=(
            mn.LayerSpec("conv", 32, 8, kernel=(3, 3, 1, 1), activation="relu"),
            mn.LayerSpec("dense", 8, 3)), loss="cross-entropy")
        params = random_params(spec, Rng(6))
        x = Rng(7).normal(1.0, (64, 32, 16, 16))
        cols_bytes = 64 * 16 * 16 * 9 * 32 * 8
        peaks = {}
        for for_backward in (True, False):
            tracemalloc.start()
            try:
                trace, _ = mn.forward(spec, params, x, for_backward=for_backward)
                _, peaks[for_backward] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del trace
        assert peaks[True] > cols_bytes
        assert peaks[False] < cols_bytes / 2

    def test_backward_refuses_a_forward_only_trace(self):
        spec = mn.allconv(2, [3], 3, kernel=3, strides=[1])
        params = random_params(spec, Rng(8))
        x = Rng(9).normal(1.0, (2, 2, 5, 5))
        trace, _ = mn.forward(spec, params, x, for_backward=False)
        assert trace.conv_cols == {0: None}
        with pytest.raises(mn.SpecError, match="trace kept no patch matrices"):
            mn.backward(spec, params, trace, np.array([0, 1]))

    def test_backward_spends_the_patch_matrices(self):
        spec = mn.allconv(2, [3, 4], 3, kernel=3, strides=[1, 2])
        params = random_params(spec, Rng(8))
        x = Rng(9).normal(1.0, (2, 2, 5, 5))
        y = np.array([0, 1])
        trace, _ = mn.forward(spec, params, x, y)
        assert sorted(trace.conv_cols) == [0, 1]
        mn.backward(spec, params, trace, y, weights=False)
        assert all(isinstance(cols, np.ndarray) for cols in trace.conv_cols.values())
        mn.backward(spec, params, trace, y)
        assert trace.conv_cols == {0: None, 1: None}
        dy = np.zeros(trace.preacts[1].shape)
        with pytest.raises(mn.SpecError, match="layer 1 kept no patch matrix"):
            mn.weight_factors(trace, 1, dy)
        with pytest.raises(mn.SpecError, match="trace kept no patch matrices"):
            mn.backward(spec, params, trace, y, weights=False)


class TestCol2im:
    """The clipped scatter into an unpadded map gives the bits of the per-tap
    scatter into a zero-padded batch: signed zeros, infinities and NaNs
    included, and positions no tap reaches (a stride above the kernel) set
    to 0.0 over a NaN-filled ``out``."""

    @pytest.mark.parametrize("kernel", [(k, k, stride, pad) for k in (3, 1)
                                        for stride in (1, 2, 3, 4) for pad in (0, 1)])
    @pytest.mark.parametrize("hw", [(9, 11), (8, 8), (3, 5)])
    def test_equals_the_zero_padded_scatter(self, kernel, hw):
        kh, kw, stride, pad = kernel
        (h, w), c = hw, 3
        oh, ow = mn._conv_out_hw(h, w, kernel)
        rng = np.random.default_rng(stride * 10 + pad)
        d = rng.normal(size=(4, oh, ow, kh, kw, c))
        picks = rng.integers(6, size=d.shape)
        for value, pick in ((0.0, 1), (-0.0, 2), (np.inf, 3), (-np.inf, 4), (np.nan, 5)):
            d[picks == pick] = value
        taps = [(i, j, rows, cols, hs, ws)
                for i, rows, hs in mn._tap_ranges(h, oh, kh, stride, pad)
                for j, cols, ws in mn._tap_ranges(w, ow, kw, stride, pad)]
        with np.errstate(invalid="ignore"):   # inf - inf
            got = mn._col2im(d, taps, np.full((4, h, w, c), np.nan))
            want = col2im_per_tap(d.reshape(-1, kh * kw * c), got.shape, kernel, (oh, ow))
        np.testing.assert_array_equal(bits(got), bits(want))


def force_cores(monkeypatch, cores):
    """Make the conv passes see ``cores`` cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


# (batch NCHW shape, kernel, C_out): three windows at cifar-allconv's layer
# 0 (0-127, 128-255 and an overlapping 172-299, which runs after 128-255 on
# its thread); two windows, the last overlapping the first, so one group at
# any core count (137 samples at layer 0: windows 0-127 and 9-136, and two
# odd shapes); four windows, the last overlapping; six, none overlapping
PARALLEL_CASES = [
    ((300, 3, 32, 32), (3, 3, 2, 1), 8),
    ((137, 3, 32, 32), (3, 3, 2, 1), 96),
    ((70, 6, 20, 21), (3, 2, 1, 1), 32),
    ((300, 20, 5, 5), (3, 3, 2, 2), 20),
    ((50, 96, 16, 16), (3, 3, 2, 1), 96),
    ((96, 96, 16, 16), (3, 3, 2, 1), 8),
]


class TestParallelWindows:
    @pytest.mark.parametrize("shape, kernel, c_out", PARALLEL_CASES)
    def test_passes_are_bit_equal_at_every_core_count(self, shape, kernel, c_out,
                                                      monkeypatch):
        x, w, b = conv_case(shape, kernel, c_out)
        dy = None
        got = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # threads trade the interpreter often
        try:
            for cores in (1, 2, 3):
                force_cores(monkeypatch, cores)
                y, _, cols, _ = mn._conv_forward(x, w, b, kernel)
                y_only, *_ = mn._conv_forward(x, w, b, kernel, for_backward=False)
                if dy is None:
                    dy = Rng(4).normal(1.0, y.shape)
                got[cores] = y, cols, y_only, mn._conv_input_grad(x.shape, w, kernel, dy)[0]
        finally:
            sys.setswitchinterval(interval)
        cols = got[1][1]
        assert len(mn._sample_windows(shape[0], cols.size // shape[0], c_out)[0]) > 1
        for cores in (2, 3):
            for want, have in zip(got[1], got[cores]):
                np.testing.assert_array_equal(have, want)

    def test_both_modes_give_equal_outputs_on_a_wide_layer(self):
        # one forward-only and one for-backward pass run the same window GEMMs
        x, w, b = conv_case((64, 64, 15, 15), (3, 3, 1, 1), 500)
        y, *_ = mn._conv_forward(x, w, b, (3, 3, 1, 1))
        y_only, *_ = mn._conv_forward(x, w, b, (3, 3, 1, 1), for_backward=False)
        np.testing.assert_array_equal(y_only, y)

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_passes_leave_no_thread_running(self, cores, monkeypatch):
        force_cores(monkeypatch, cores)
        spec = mn.allconv(3, [8, 8], 3, kernel=3, strides=[2, 1])
        params = random_params(spec, Rng(10))
        x = Rng(11).normal(1.0, (64, 3, 32, 32))
        y = np.asarray(Rng(12).integers(3, size=64))
        before = threading.active_count()
        trace, _ = mn.forward(spec, params, x, y)
        assert threading.active_count() == before
        mn.backward(spec, params, trace, y)
        assert threading.active_count() == before

    def test_an_error_in_a_later_group_reaches_the_caller(self, monkeypatch):
        force_cores(monkeypatch, 2)
        patches = mn._patches

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("window failed")
            return patches(*args)

        monkeypatch.setattr(mn, "_patches", failing)
        # 300 samples are five windows in two groups
        x, w, b = conv_case((300, 3, 32, 32), (3, 3, 2, 1), 8)
        before = threading.active_count()
        for for_backward in (True, False):
            with pytest.raises(RuntimeError, match="window failed"):
                mn._conv_forward(x, w, b, (3, 3, 2, 1), for_backward)
            assert threading.active_count() == before
        # 137 samples, below the floor, are three windows, the last
        # overlapping the second: one group, run on the calling thread alone
        x = x[:137]
        for for_backward in (True, False):
            mn._conv_forward(x, w, b, (3, 3, 2, 1), for_backward)

    @pytest.mark.parametrize("shape", [(3, 32, 32), (96, 16, 16), (96, 8, 8)])
    def test_no_sample_falls_in_two_groups(self, shape, monkeypatch):
        # cifar-allconv's conv layers at every batch up to 600
        c, h, w = shape
        oh, ow = mn._conv_out_hw(h, w, (3, 3, 2, 1))
        for cores in (1, 2, 3, 4):
            force_cores(monkeypatch, cores)
            for batch in range(601):
                windows, _ = mn._sample_windows(batch, oh * ow * 9 * c, 96)
                groups = []
                tensor.in_groups(windows, tensor.SPLIT_FLOOR, tuple, groups.append)
                assert len(groups) <= cores
                groups.sort(key=lambda group: group[0].start)
                assert [s for group in groups for s in group] == windows
                # each group starts where the one before it stops
                bounds = [0] + [group[-1].stop for group in groups]
                assert [group[0].start for group in groups] == bounds[:-1]
                assert bounds[-1] == batch


class TestVarianceRecursion:
    def test_linear_recursion_matches_fan_in_times_variance(self):
        # Var(x[t+1]) / Var(x[t]) ~= d_j * v for a linear stack
        rng = Rng(77)
        d, v, batch = 500, 1.0 / 500, 300
        spec = mn.mlp([d] * 4, activation="identity", loss="mse")
        params = [{"W": rng.child(i).normal(np.sqrt(v), (d, d)), "b": np.zeros(d)}
                  for i in range(3)]
        x = rng.child(30).normal(1.0, (batch, d))
        trace, _ = mn.forward(spec, params, x)
        vs = [np.var(x)] + [np.var(a) for a in trace.acts]
        for t in range(3):
            assert vs[t + 1] / vs[t] == pytest.approx(d * v, rel=0.10)

    def test_relu_halves_the_recursion(self):
        rng = Rng(78)
        d, v, batch = 500, 2.0 / 500, 300
        layers = tuple(mn.LayerSpec("dense", d, d, activation="relu")
                       for _ in range(4))
        spec = mn.MainnetSpec(layers=layers, loss="mse")
        params = [{"W": rng.child(i).normal(np.sqrt(v), (d, d)), "b": np.zeros(d)}
                  for i in range(4)]
        x = rng.child(30).normal(1.0, (batch, d))
        trace, _ = mn.forward(spec, params, x)
        # between hidden layers both sides are ReLU outputs, so the
        # post-activation variance ratio equals the pre-activation one
        for t in range(1, 4):
            ratio = np.var(trace.acts[t]) / np.var(trace.acts[t - 1])
            assert ratio == pytest.approx(d * v / 2, rel=0.10)
