"""Forward and backward passes for the generated (main) networks.

Dense and convolutional layers with tanh / ReLU / identity activations,
softmax cross-entropy and mean-squared-error losses. Nothing here owns
parameters: callers pass them in, usually fresh from a hypernetwork, and get
exact analytic gradients of the batch loss back.

A conv stack is followed by an implicit global average pool when the next
layer is dense. Overflowing activations (|y| > 1e30 or non-finite) are
reported on the trace rather than raised, so deliberately bad initializations
can be measured instead of crashing.
"""

from dataclasses import dataclass, field

import numpy as np

from .tensor import DTYPE

OVERFLOW_LIMIT = 1e30

DENSE = "dense"
CONV = "conv"
TANH = "tanh"
RELU = "relu"
IDENTITY = "identity"
CROSS_ENTROPY = "cross-entropy"
MSE = "mse"

ZERO_BIAS = "zero"
GENERATED_BIAS = "generated"


class SpecError(ValueError):
    """Architecture description or shape mismatch error."""


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    d_in: int
    d_out: int
    kernel: tuple | None = None  # (kh, kw, stride, pad)
    activation: str = IDENTITY
    bias_source: str = ZERO_BIAS

    def __post_init__(self):
        if self.kind not in (DENSE, CONV):
            raise SpecError(f"unknown layer kind {self.kind!r}")
        if self.activation not in (TANH, RELU, IDENTITY):
            raise SpecError(f"unknown activation {self.activation!r}")
        if self.bias_source not in (ZERO_BIAS, GENERATED_BIAS):
            raise SpecError(f"unknown bias source {self.bias_source!r}")
        if self.d_in < 1 or self.d_out < 1:
            raise SpecError("layer dims must be positive")
        if self.kind == CONV:
            if self.kernel is None or len(self.kernel) != 4:
                raise SpecError("conv layers need kernel=(kh, kw, stride, pad)")
            kh, kw, stride, pad = self.kernel
            if min(kh, kw, stride) < 1 or pad < 0:
                raise SpecError(f"bad kernel spec {self.kernel}")
        elif self.kernel is not None:
            raise SpecError("dense layers must not carry a kernel")

    @property
    def receptive_field(self):
        if self.kind == CONV:
            return self.kernel[0] * self.kernel[1]
        return 1

    @property
    def fan_in(self):
        """Fan-in for variance purposes: channels * kernel area for conv."""
        return self.d_in * self.receptive_field

    @property
    def weight_shape(self):
        if self.kind == CONV:
            kh, kw = self.kernel[0], self.kernel[1]
            return (self.d_out, self.d_in, kh, kw)
        return (self.d_out, self.d_in)


@dataclass(frozen=True)
class MainnetSpec:
    layers: tuple
    loss: str = CROSS_ENTROPY

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise SpecError("need at least one layer")
        if self.loss not in (CROSS_ENTROPY, MSE):
            raise SpecError(f"unknown loss {self.loss!r}")
        seen_dense = False
        for prev, cur in zip(self.layers, self.layers[1:]):
            if prev.d_out != cur.d_in:
                raise SpecError(f"layer dims do not compose: {prev.d_out} -> {cur.d_in}")
            if prev.kind == DENSE:
                seen_dense = True
            if seen_dense and cur.kind == CONV:
                raise SpecError("conv layers cannot follow dense layers")

    @property
    def output_dim(self):
        return self.layers[-1].d_out


def mlp(dims, activation=TANH, loss=CROSS_ENTROPY, bias_source=ZERO_BIAS):
    """Fully connected net: hidden layers use `activation`, the output layer is linear."""
    if len(dims) < 2:
        raise SpecError("mlp needs at least input and output dims")
    layers = []
    for t, (a, b) in enumerate(zip(dims, dims[1:])):
        act = activation if t < len(dims) - 2 else IDENTITY
        layers.append(LayerSpec(DENSE, a, b, activation=act, bias_source=bias_source))
    return MainnetSpec(layers=tuple(layers), loss=loss)


def allconv(in_channels, conv_channels, n_classes, kernel=3, strides=None,
            bias_source=ZERO_BIAS):
    """Conv stack (ReLU) + global average pool + linear classifier."""
    if strides is None:
        strides = [1] * len(conv_channels)
    layers = []
    c = in_channels
    for ch, s in zip(conv_channels, strides):
        pad = kernel // 2
        layers.append(LayerSpec(CONV, c, ch, kernel=(kernel, kernel, s, pad),
                                activation=RELU, bias_source=bias_source))
        c = ch
    layers.append(LayerSpec(DENSE, c, n_classes, activation=IDENTITY,
                            bias_source=bias_source))
    return MainnetSpec(layers=tuple(layers), loss=CROSS_ENTROPY)


def zero_params(spec):
    return [{"W": np.zeros(l.weight_shape, dtype=DTYPE), "b": np.zeros(l.d_out, dtype=DTYPE)}
            for l in spec.layers]


@dataclass
class ForwardTrace:
    inputs: list = field(default_factory=list)    # inputs[t] = tensor layer t consumed
    preacts: list = field(default_factory=list)   # y[t] before the activation
    acts: list = field(default_factory=list)      # x[t+1] = activation(y[t])
    pool_shape: dict = field(default_factory=dict)  # {t: conv shape averaged into layer t}
    conv_cols: dict = field(default_factory=dict)   # {t: (patch matrix, out_hw)}
    overflow_layer: int | None = None

    @property
    def output(self):
        return self.acts[-1]


def activate(name, y):
    if name == TANH:
        return np.tanh(y)
    if name == RELU:
        return np.maximum(y, 0.0)
    return y


def activation_grad(name, y, x, dx):
    # tanh derivative from the cached post-activation: 1 - x^2 (exact).
    if name == TANH:
        return dx * (1.0 - x * x)
    if name == RELU:
        return dx * (y > 0.0)
    return dx


def _conv_out_hw(h, w, kernel):
    kh, kw, stride, pad = kernel
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise SpecError(f"kernel {kh}x{kw} larger than padded input {h}x{w} (pad {pad})")
    return oh, ow


def _im2col(x, kernel):
    """Patch matrix of shape (B*oh*ow, C*kh*kw): one GEMM drives the conv."""
    kh, kw, stride, pad = kernel
    b, c, h, w = x.shape
    oh, ow = _conv_out_hw(h, w, kernel)
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    patches = np.empty((b, c, kh, kw, oh, ow), dtype=DTYPE)
    for i in range(kh):
        for j in range(kw):
            patches[:, :, i, j] = x[:, :, i:i + stride * oh:stride,
                                    j:j + stride * ow:stride]
    cols = patches.transpose(0, 4, 5, 1, 2, 3).reshape(b * oh * ow, c * kh * kw)
    return cols, (oh, ow)


def _col2im(dcols, x_shape, kernel, out_hw):
    kh, kw, stride, pad = kernel
    b, c, h, w = x_shape
    oh, ow = out_hw
    dpatches = np.ascontiguousarray(
        dcols.reshape(b, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2))
    dx = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=DTYPE)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i:i + stride * oh:stride,
               j:j + stride * ow:stride] += dpatches[:, :, i, j]
    if pad:
        dx = dx[:, :, pad:pad + h, pad:pad + w]
    return dx


def _conv_forward_cols(cols, out_hw, batch, weight, bias):
    oh, ow = out_hw
    w_mat = weight.reshape(weight.shape[0], -1)
    y = cols @ w_mat.T + bias                  # (B*oh*ow, C_out)
    return np.ascontiguousarray(
        y.reshape(batch, oh, ow, -1).transpose(0, 3, 1, 2))


def _conv_backward_cols(cols, out_hw, x_shape, weight, kernel, dy):
    c_out = weight.shape[0]
    dy_mat = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(-1, c_out)
    dw = dy_mat.T @ cols
    db = dy_mat.sum(axis=0)
    dcols = dy_mat @ weight.reshape(c_out, -1)
    dx = _col2im(dcols, x_shape, kernel, out_hw)
    return dw.reshape(weight.shape), db, dx


def conv2d_forward(x, weight, bias, kernel):
    """Cross-correlation of (B, C, H, W) with (C_out, C, kh, kw) weights."""
    cols, out_hw = _im2col(x, kernel)
    return _conv_forward_cols(cols, out_hw, x.shape[0], weight, bias)


def forward(spec, params, batch, labels=None):
    """Run the net; returns (trace, loss) with loss None when labels are absent.

    The trace keeps every pre- and post-activation for backprop and probing.
    """
    x = np.asarray(batch, dtype=DTYPE)
    trace = ForwardTrace()
    for t, layer in enumerate(spec.layers):
        if layer.kind == DENSE and x.ndim == 4:
            trace.pool_shape[t] = x.shape
            x = x.mean(axis=(2, 3))
        if layer.kind == DENSE:
            if x.shape[1] != layer.d_in:
                raise SpecError(f"layer {t} expects width {layer.d_in}, got {x.shape[1]}")
            y = x @ params[t]["W"].T + params[t]["b"]
        else:
            if x.ndim != 4 or x.shape[1] != layer.d_in:
                raise SpecError(f"layer {t} expects {layer.d_in} channels, got {x.shape}")
            cols, out_hw = _im2col(x, layer.kernel)
            trace.conv_cols[t] = (cols, out_hw)
            y = _conv_forward_cols(cols, out_hw, x.shape[0], params[t]["W"],
                                   params[t]["b"])
        if trace.overflow_layer is None:
            with np.errstate(invalid="ignore"):
                m = np.abs(y).max()
            if not np.isfinite(m) or m > OVERFLOW_LIMIT:
                trace.overflow_layer = t
        trace.inputs.append(x)
        trace.preacts.append(y)
        x = activate(layer.activation, y)
        trace.acts.append(x)
    loss = None
    if labels is not None:
        loss = batch_loss(spec, trace.output, labels)
    return trace, loss


def softmax_cross_entropy(logits, labels, reduction="mean"):
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    picked = logp[np.arange(len(labels)), np.asarray(labels, dtype=np.intp)]
    if reduction == "sum":
        return float(-picked.sum())
    return float(-picked.mean())


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def mse_loss(pred, target):
    d = pred - np.asarray(target, dtype=DTYPE)
    return float(np.mean(d * d))


def batch_loss(spec, output, labels):
    if spec.loss == CROSS_ENTROPY:
        return softmax_cross_entropy(output, labels)
    return mse_loss(output, labels)


def loss_output_grad(spec, output, labels):
    if spec.loss == CROSS_ENTROPY:
        p = _softmax(output)
        p[np.arange(len(labels)), np.asarray(labels, dtype=np.intp)] -= 1.0
        return p / len(labels)
    d = output - np.asarray(labels, dtype=DTYPE)
    return 2.0 * d / d.size


def accuracy(output, labels):
    return float((output.argmax(axis=1) == np.asarray(labels)).mean())


@dataclass
class MainnetGrads:
    weight: list
    bias: list
    acts: list   # acts[t] = dL/d(activation output of layer t)
    batch: np.ndarray  # dL/d(input batch)


def backward(spec, params, trace, labels):
    """Exact gradients of the batch loss for every parameter and activation."""
    n_layers = len(spec.layers)
    if len(trace.acts) != n_layers:
        raise SpecError("trace does not match the spec")
    dW = [None] * n_layers
    db = [None] * n_layers
    dacts = [None] * n_layers
    dx = loss_output_grad(spec, trace.output, labels)
    for t in range(n_layers - 1, -1, -1):
        layer = spec.layers[t]
        dacts[t] = dx
        dy = activation_grad(layer.activation, trace.preacts[t], trace.acts[t], dx)
        x_in = trace.inputs[t]
        if layer.kind == DENSE:
            dW[t] = dy.T @ x_in
            db[t] = dy.sum(axis=0)
            dx = dy @ params[t]["W"]
        else:
            cols, out_hw = trace.conv_cols[t]
            dW[t], db[t], dx = _conv_backward_cols(
                cols, out_hw, x_in.shape, params[t]["W"], layer.kernel, dy)
        if t in trace.pool_shape:
            shape = trace.pool_shape[t]
            dx = np.broadcast_to(
                dx[:, :, None, None] / (shape[2] * shape[3]), shape).copy()
    return MainnetGrads(weight=dW, bias=db, acts=dacts, batch=dx)
