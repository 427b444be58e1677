"""Forward and backward passes for the generated (main) networks.

Dense and convolutional layers with tanh / ReLU / identity activations,
softmax cross-entropy and mean-squared-error losses. Nothing here owns
parameters: callers pass them in, usually fresh from a hypernetwork, and get
exact analytic gradients of the batch loss back.

A conv stack is followed by an implicit global average pool when the next
layer is dense. Conv activations are channels-last inside the net: the
(B, C, H, W) input batch is viewed as (B, H, W, C) once, every conv entry of
the trace (inputs after the first, pre-activations, activations, patch
matrices) and of ``MainnetGrads.acts`` is (B, H, W, C), and so is the output
of a net that ends in a conv layer. The caller-facing layouts stay NCHW/OIHW:
``trace.inputs[0]`` and ``conv2d_forward`` use (B, C, H, W), and conv weights
and their gradients (C_out, C_in, kh, kw). ``backward`` returns no gradient
for the input batch: nothing trains it.
Overflowing activations (|y| > 1e30 or non-finite) are
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
    # Conv entries are (B, H, W, C), except inputs[0], the caller's NCHW batch.
    inputs: list = field(default_factory=list)    # inputs[t] = tensor layer t consumed
    preacts: list = field(default_factory=list)   # y[t] before the activation
    acts: list = field(default_factory=list)      # x[t+1] = activation(y[t])
    pool_shape: dict = field(default_factory=dict)  # {t: NHWC shape averaged into layer t}
    conv_cols: dict = field(default_factory=dict)   # {t: (patch matrix, NHWC input shape)}
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
    """Patch matrix of shape (B*oh*ow, kh*kw*C) of an NHWC batch: one GEMM
    drives the conv. Each patch is one contiguous run of kh*kw*C values."""
    kh, kw, stride, pad = kernel
    b, h, w, c = x.shape
    oh, ow = _conv_out_hw(h, w, kernel)
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    patches = np.empty((b, oh, ow, kh, kw, c), dtype=DTYPE)
    for i in range(kh):
        for j in range(kw):
            patches[:, :, :, i, j] = x[:, i:i + stride * oh:stride,
                                       j:j + stride * ow:stride]
    return patches.reshape(b * oh * ow, kh * kw * c), (oh, ow)


def _col2im(dcols, x_shape, kernel, out_hw):
    kh, kw, stride, pad = kernel
    b, h, w, c = x_shape
    oh, ow = out_hw
    dpatches = dcols.reshape(b, oh, ow, kh, kw, c)
    dx = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=DTYPE)
    for i in range(kh):
        for j in range(kw):
            dx[:, i:i + stride * oh:stride,
               j:j + stride * ow:stride] += dpatches[:, :, :, i, j]
    if pad:
        dx = dx[:, pad:pad + h, pad:pad + w]
    return dx


def _weight_matrix(weight):
    """(C_out, kh*kw*C_in) rows in patch order, from OIHW weights."""
    return weight.transpose(0, 2, 3, 1).reshape(weight.shape[0], -1)


def _conv_forward(x, weight, bias, kernel):
    """NHWC conv: returns the (B, oh, ow, C_out) output and the patch matrix."""
    cols, out_hw = _im2col(x, kernel)
    y = cols @ _weight_matrix(weight).T + bias
    return y.reshape(x.shape[0], *out_hw, -1), cols


def _conv_backward(cols, weight, dy):
    """OIHW weight and bias gradients of an NHWC conv from its patch matrix."""
    c_out, c_in, kh, kw = weight.shape
    dy_mat = dy.reshape(-1, c_out)
    dw = (dy_mat.T @ cols).reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(dw), dy_mat.sum(axis=0)


def _conv_input_grad(x_shape, weight, kernel, dy):
    dy_mat = dy.reshape(-1, weight.shape[0])
    return _col2im(dy_mat @ _weight_matrix(weight), x_shape, kernel, dy.shape[1:3])


def conv2d_forward(x, weight, bias, kernel):
    """Cross-correlation of (B, C, H, W) with (C_out, C, kh, kw) weights."""
    y, _ = _conv_forward(np.asarray(x, dtype=DTYPE).transpose(0, 2, 3, 1),
                         weight, bias, kernel)
    return np.ascontiguousarray(y.transpose(0, 3, 1, 2))


@np.errstate(over="ignore", invalid="ignore")
def forward(spec, params, batch, labels=None):
    """Run the net; returns (trace, loss) with loss None when labels are absent.

    The trace keeps every pre- and post-activation for backprop and probing.
    Overflow raises no floating-point warning: the trace records the first
    overflowing layer, and the caller judges a non-finite or huge loss.
    """
    x = np.asarray(batch, dtype=DTYPE)
    if x.ndim == 4:
        x = x.transpose(0, 2, 3, 1)   # NHWC from here on
    trace = ForwardTrace()
    for t, layer in enumerate(spec.layers):
        if layer.kind == DENSE and x.ndim == 4:
            trace.pool_shape[t] = x.shape
            x = x.mean(axis=(1, 2))
        if layer.kind == DENSE:
            if x.shape[1] != layer.d_in:
                raise SpecError(f"layer {t} expects width {layer.d_in}, got {x.shape[1]}")
            y = x @ params[t]["W"].T + params[t]["b"]
        else:
            if x.ndim != 4 or x.shape[3] != layer.d_in:   # only the batch can fail this
                raise SpecError(f"layer {t} expects {layer.d_in} channels, got {np.shape(batch)}")
            y, cols = _conv_forward(x, params[t]["W"], params[t]["b"], layer.kernel)
            trace.conv_cols[t] = (cols, x.shape)
        if trace.overflow_layer is None:
            m = np.abs(y).max()
            if not np.isfinite(m) or m > OVERFLOW_LIMIT:
                trace.overflow_layer = t
        # a conv net's inputs[0] stays the caller's NCHW batch
        trace.inputs.append(x.transpose(0, 3, 1, 2) if t == 0 and x.ndim == 4 else x)
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
    acts: list   # acts[t] = dL/d(activation output of layer t), NHWC for conv


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
        if layer.kind == DENSE:
            dW[t] = dy.T @ trace.inputs[t]
            db[t] = dy.sum(axis=0)
        else:
            dW[t], db[t] = _conv_backward(trace.conv_cols[t][0], params[t]["W"], dy)
        if t == 0:
            break   # the input batch is not trained: no gradient for it
        if layer.kind == DENSE:
            dx = dy @ params[t]["W"]
        else:
            dx = _conv_input_grad(trace.conv_cols[t][1], params[t]["W"], layer.kernel, dy)
        if t in trace.pool_shape:
            shape = trace.pool_shape[t]
            dx = np.broadcast_to(
                dx[:, None, None, :] / (shape[1] * shape[2]), shape).copy()
    return MainnetGrads(weight=dW, bias=db, acts=dacts)
