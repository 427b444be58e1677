import numpy as np
import pytest

from hyperinit import mainnet as mn
from hyperinit.gradcheck import gradient_errors, numeric_gradient
from hyperinit.tensor import Rng


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
        params = mn.zero_params(spec)
        with pytest.raises(mn.SpecError):
            mn.forward(spec, params, np.zeros((1, 1, 3, 3)))


class TestForward:
    def test_zero_net_zero_mse(self):
        spec = mn.mlp([3, 2], activation="identity", loss="mse")
        params = mn.zero_params(spec)
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

    def test_sum_vs_mean_reduction(self):
        logits = np.array([[2.0, -1.0], [0.5, 0.5]])
        labels = np.array([0, 1])
        mean = mn.softmax_cross_entropy(logits, labels)
        total = mn.softmax_cross_entropy(logits, labels, reduction="sum")
        assert total == pytest.approx(2 * mean)

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
        out = mn.conv2d_forward(x, w, b, (1, 1, 1, 0))
        want = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0]) + b[None, :, None, None]
        np.testing.assert_allclose(out, want, rtol=1e-12)

    def test_all_ones_valid_conv(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        out = mn.conv2d_forward(x, w, np.zeros(1), (3, 3, 1, 0))
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
        got = mn.conv2d_forward(x, w, b, kernel)
        want = conv_oracle(x, w, b, kernel)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kernel", [(3, 3, 2, 1), (2, 2, 2, 0)])
    def test_non_square_odd_input_matches_oracle(self, kernel):
        # H != W, both odd: a swapped spatial axis cannot pass unnoticed
        rng = Rng(9)
        x = rng.child(0).normal(1.0, (2, 3, 5, 7))
        w = rng.child(1).normal(1.0, (4, 3, kernel[0], kernel[1]))
        b = rng.child(2).normal(1.0, 4)
        got = mn.conv2d_forward(x, w, b, kernel)
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

    def test_global_average_pool_between_conv_and_dense(self):
        spec = mn.allconv(1, [2], 3, kernel=3, strides=[1])
        params = mn.zero_params(spec)
        params[0]["W"][:] = 0.0
        params[0]["b"][:] = np.array([1.0, 2.0])
        params[1]["W"][:] = np.eye(3, 2)
        trace, _ = mn.forward(spec, params, np.zeros((1, 1, 4, 4)))
        np.testing.assert_allclose(trace.output, [[1.0, 2.0, 0.0]])


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
