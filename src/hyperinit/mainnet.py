"""Forward and backward passes for the generated (main) networks.

Dense and convolutional layers with tanh / ReLU / identity activations,
softmax cross-entropy and mean-squared-error losses. Nothing here owns
parameters: callers pass them in, usually fresh from a hypernetwork, and get
exact analytic gradients of the batch loss back.

A conv stack is followed by an implicit global average pool when the next
layer is dense. Conv activations are channels-last inside the net: the
(B, C, H, W) input batch is viewed as (B, H, W, C) once, every conv entry of
the trace (inputs after the first, pre-activations, activations, patch
matrices) and of ``MainnetGrads.acts`` and ``preacts`` is (B, H, W, C), and so
is the output of a net that ends in a conv layer. The caller-facing layouts
stay NCHW/OIHW: ``trace.inputs[0]`` is (B, C, H, W), and conv weights and
their gradients (C_out, C_in, kh, kw). ``backward`` returns no gradient for
the input batch: nothing trains it.
Passes above the engine's split floor run on every core through its one
scheduler, ``tensor.in_groups``, each group writing rows no other group
writes. A dense product splits by output units, a weight gradient by input
units or patch columns (``matmul_cols``), at power-of-two boundaries where
every entry's reduction stays whole, so the bits are the whole product's.
Batch-10 dense layers stay below the floor.
Every conv pass works through the batch in windows of samples (at most
about 1<<18 patch-matrix entries and an eighth of the batch each), one
contiguous group of windows per core, each group on its own thread through
buffers reused from window to window: no padded copy of the batch, no patch
matrix beyond the one a backward needs, no padded gradient. Every window
runs the same n-row GEMM in either forward mode, and no sample is handled by
two threads, so the bits do not depend on the core count. Each forward
window also adds the bias, writes the activation and checks for overflow on
its output block, and each input-gradient window zeroes its samples of the
input gradient, adds its patch gradients into them and forms the layer
below's pre-activation gradient for them (a ReLU's as a product with its
bool mask), so no elementwise pass reads a whole conv map again. A
forward-only pass (``forward(..., for_backward=False)``: evaluation, the
probe's replay) keeps no patch matrix at all, and
``backward(..., weights=True)`` drops each conv layer's patch matrix once its
weight gradient is formed; ``backward`` refuses a trace without them.
Overflowing activations (|y| > 1e30 or non-finite) are
reported on the trace rather than raised, so deliberately bad initializations
can be measured instead of crashing.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import DTYPE, in_groups, matmul_cols, row_chunks

OVERFLOW_LIMIT = 1e30
# A conv window's patch rows fill at most WINDOW_ENTRIES (2 MiB, a core's L2
# cache), so its buffers, a backward's dcols blocks among them, add little to
# the probe step's peak memory. It holds at most 1/WINDOW_SHARE of the batch,
# but runs a GEMM of at least MIN_WINDOW_WORK multiply-adds: OpenBLAS takes
# smaller products through its small-matrix kernel, with other last bits
# (cifar-allconv's layer 0 on one sample, 0.66M, differs from a taller
# window; on two, 1.3M, does not).
WINDOW_ENTRIES = 1 << 18
WINDOW_SHARE = 8
MIN_WINDOW_WORK = 1 << 21

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


@dataclass
class ForwardTrace:
    # Conv entries are (B, H, W, C), except inputs[0], the caller's NCHW batch.
    inputs: list = field(default_factory=list)    # inputs[t] = tensor layer t consumed
    preacts: list = field(default_factory=list)   # y[t] before the activation
    acts: list = field(default_factory=list)      # x[t+1] = activation(y[t])
    # {t: conv layer t's patch matrix, no sample of it handled by two threads};
    # None in a trace of a forward-only pass (forward(..., for_backward=False))
    # and once backward(..., weights=True) has formed layer t's weight gradient
    conv_cols: dict = field(default_factory=dict)
    overflow_layer: int | None = None

    @property
    def output(self):
        return self.acts[-1]


def activate(name, y, out=None):
    """activation(y), into ``out`` when given (identity returns y itself)."""
    if name == TANH:
        return np.tanh(y, out=out)
    if name == RELU:
        return np.maximum(y, 0.0, out=out)
    return y


def activation_grad(name, y, x, dx, out=None):
    """dL/dy from dL/dx of x = activation(y), into ``out`` when given."""
    # tanh derivative from the cached post-activation: 1 - x^2 (exact).
    if name == TANH:
        g = np.multiply(x, x, out=out)
        np.subtract(1.0, g, out=g)
        return np.multiply(dx, g, out=g)
    if name == RELU:
        return np.multiply(dx, y > 0.0, out=out)
    return dx


def _conv_out_hw(h, w, kernel):
    kh, kw, stride, pad = kernel
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise SpecError(f"kernel {kh}x{kw} larger than padded input {h}x{w} (pad {pad})")
    return oh, ow


def _patches(xp, kernel, out_hw):
    """The (n, oh, ow, kh, kw*C) patch view of a zero-padded, C-contiguous
    NHWC block: in it the kw*C values of one kernel row are adjacent, so one
    strided view covers every patch and one copy packs them into patch rows."""
    kh, kw, stride, _ = kernel
    n, hp, wp, c = xp.shape
    oh, ow = out_hw
    # strides from the shape: numpy may give a length-1 axis any stride
    sw = c * xp.itemsize
    sh = wp * sw
    return as_strided(xp, (n, oh, ow, kh, kw * c),
                      (hp * sh, stride * sh, stride * sw, sh, xp.itemsize),
                      writeable=False)


def _weight_matrix(weight):
    """(C_out, kh*kw*C_in) rows in patch order, from OIHW weights."""
    return weight.transpose(0, 2, 3, 1).reshape(weight.shape[0], -1)


def _sample_windows(b, rows_per_sample, c_out):
    """Windows of n samples covering [0, b) in order, and n: a power of two
    of at most ~WINDOW_ENTRIES patch-matrix entries (``row_chunks``) and at
    most b / WINDOW_SHARE samples, so every core runs several windows and a
    batch-50 step splits, unless that leaves a window's GEMM (``c_out``
    output channels) under MIN_WINDOW_WORK multiply-adds; b if fewer. The last
    window ends at b and may overlap the one before it, so every GEMM of a
    pass is n samples tall: OpenBLAS takes a small product through another
    kernel, whose last bits differ, and windows of one size above it give the
    bits of the whole-batch GEMM."""
    cap = row_chunks(max(b, 1), rows_per_sample, WINDOW_ENTRIES)[0].stop
    share = 1 << max(0, (b // WINDOW_SHARE).bit_length() - 1)
    least = 1 << (-(-MIN_WINDOW_WORK // (rows_per_sample * c_out)) - 1).bit_length()
    n = min(b, max(least, min(cap, share)))
    return [slice(min(lo, b - n), min(lo, b - n) + n) for lo in range(0, b, max(n, 1))], n


def _conv_forward(x, weight, bias, kernel, for_backward=True, activation=IDENTITY):
    """NHWC conv: the (B, oh, ow, C_out) output, its activation (the output
    itself for identity), the (B*oh*ow, kh*kw*C) patch matrix, or None for it
    without ``for_backward``, and whether any output is non-finite or beyond
    OVERFLOW_LIMIT in magnitude.

    The windows of samples run in groups, one per core, and no sample is
    handled by two threads (``tensor.in_groups``). Each window is copied into the
    interior of its group's zeroed padded block, unrolled from it, and
    multiplied by one n-row GEMM straight into its rows of the output. With
    ``for_backward`` it unrolls into its rows of the whole-batch patch matrix
    that ``weight_factors`` needs; without, into its group's reused block of
    patch rows. The window's output rows then take the bias, the activation
    and the overflow check. An overlapping last window rewrites the rows it
    shares with the window before it, with the same values, on the same
    thread."""
    kh, kw, stride, pad = kernel
    b, h, w, c = x.shape
    oh, ow = _conv_out_hw(h, w, kernel)
    k, p = kh * kw * c, oh * ow
    c_out = weight.shape[0]
    wm_t = _weight_matrix(weight).T
    windows, n = _sample_windows(b, p * k, c_out)
    cols = np.empty((b * p, k), dtype=DTYPE) if for_backward else None
    y = np.empty((b, oh, ow, c_out), dtype=DTYPE)
    act = y if activation == IDENTITY else np.empty_like(y)
    y_mat, act_mat = y.reshape(b * p, c_out), act.reshape(b * p, c_out)
    overflow = []

    def buffers():
        return (np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=DTYPE),
                None if for_backward else np.empty((n * p, k), dtype=DTYPE))

    def run(group, xp, block):
        for s in group:
            xp[:, pad:pad + h, pad:pad + w] = x[s]
            rows = slice(s.start * p, s.stop * p)
            a = cols[rows] if for_backward else block
            a.reshape(n, oh, ow, kh, kw * c)[...] = _patches(xp, kernel, (oh, ow))
            yr = np.matmul(a, wm_t, out=y_mat[rows])
            yr += bias
            if activation != IDENTITY:
                activate(activation, yr, act_mat[rows])
            # comparisons, so a NaN counts (Python's max would drop it)
            if not (yr.max() <= OVERFLOW_LIMIT and yr.min() >= -OVERFLOW_LIMIT):
                overflow.append(True)

    in_groups(windows, b * p * k * (c_out + 1), buffers, run)
    return y, act, cols, bool(overflow)


def _tap_ranges(size, out, k, stride, pad):
    """Per kernel tap i, the output positions whose tap i reads an input
    position inside [0, size), and those input positions, as two slices."""
    taps = []
    for i in range(k):
        lo = max(0, -(-(pad - i) // stride))
        hi = min(out, (size - 1 + pad - i) // stride + 1)
        if hi > lo:
            start = lo * stride + i - pad
            stop = start + (hi - lo - 1) * stride + 1
            taps.append((i, slice(lo, hi), slice(start, stop, stride)))
    return taps


def _col2im(d, taps, out):
    """The (n, oh, ow, kh, kw, C) patch gradients ``d`` scattered into the
    (n, h, w, C) ``out`` and returned: ``out`` zero-filled, then each tap of
    ``taps`` (i, j, out rows, out cols, in rows, in cols) added in kernel
    order, so every element takes the adds, and the bits, of a scatter into
    a zero-padded batch."""
    out[...] = 0.0
    for i, j, rows, cols, hs, ws in taps:
        out[:, hs, ws] += d[:, rows, cols, i, j]
    return out


def _conv_input_grad(x_shape, weight, kernel, dy, below=(IDENTITY, None, None)):
    """dL/dx of an NHWC conv from its output gradient ``dy``, and the dL/dy of
    the layer below, whose (activation, y, x) ``below`` gives: dL/dx itself
    for identity.

    The windows of samples run in groups, one per core, no sample handled by
    two threads (``tensor.in_groups``): a window's patch gradients go into its
    group's reused buffer and are scattered into its samples of the unpadded
    ``dx`` (``_col2im``): zeroed, then added tap by tap in kernel order, with
    the taps that read the zero padding clipped off. Its samples then take
    the layer below's activation derivative on the same thread, a ReLU's as
    ``dx`` times the window's ``y > 0`` mask. An overlapping last window
    rewrites the samples it shares with the window before it, with the same
    values, on the same thread."""
    kh, kw, stride, pad = kernel
    b, h, w, c = x_shape
    _, oh, ow, c_out = dy.shape
    k, p = kh * kw * c, oh * ow
    wm = _weight_matrix(weight)
    dy_mat = dy.reshape(b * p, c_out)
    windows, n = _sample_windows(b, p * k, c_out)
    dx = np.empty(x_shape, dtype=DTYPE)
    name, y_below, x_below = below
    dy_below = dx if name == IDENTITY else np.empty(x_shape, dtype=DTYPE)
    taps = [(i, j, rows, cols, hs, ws)
            for i, rows, hs in _tap_ranges(h, oh, kh, stride, pad)
            for j, cols, ws in _tap_ranges(w, ow, kw, stride, pad)]

    def run(group, dcols, mask):
        for s in group:
            d = np.matmul(dy_mat[s.start * p:s.stop * p], wm, out=dcols)
            dxs = _col2im(d.reshape(n, oh, ow, kh, kw, c), taps, dx[s])
            if name == RELU:   # dx * (y > 0), the bool mask cast in the multiply
                np.multiply(dxs, np.greater(y_below[s], 0.0, out=mask), out=dy_below[s])
            elif name != IDENTITY:
                activation_grad(name, y_below[s], x_below[s], dxs, out=dy_below[s])

    def buffers():   # a ReLU's mask too, so a group allocates nothing on its thread
        return (np.empty((n * p, k), dtype=DTYPE),
                np.empty((n, h, w, c), dtype=bool) if name == RELU else None)

    in_groups(windows, b * p * k * (c_out + 1), buffers, run)
    return dx, dy_below


def weight_factors(trace, t, dy):
    """The two factors of layer t's weight gradient: its pre-activation
    gradient ``dy`` as a (K, C_out) matrix and its input as a (K, fan_in)
    matrix (a conv layer's patch matrix, K = B*oh*ow), so that the gradient
    is ``dy.T @ x``."""
    if t in trace.conv_cols:
        cols = trace.conv_cols[t]
        if cols is None:
            raise SpecError(f"layer {t} kept no patch matrix: the trace comes from a "
                            "forward-only pass or was spent by backward(..., weights=True)")
        return dy.reshape(-1, dy.shape[-1]), cols
    return dy, trace.inputs[t]


def weight_grad(layer, trace, t, dy, rows=slice(None), out=None):
    """Rows ``rows`` (output units or channels) of layer t's weight gradient,
    in the weight's own layout (OIHW for conv), from the factors of
    ``weight_factors``; written into ``out`` when given. Above the floor the
    product splits by its columns (``matmul_cols``): a dense gradient's input
    units, a conv gradient's patch columns. A split by output units would
    change a dense gradient's bits (500 -> 500), and by channels would read
    the whole patch matrix on every core. A conv patch matrix with fewer
    columns than ``rows`` has channels is multiplied as ``(x.T @ dy).T``,
    split by channels: it reads its few columns on every core, and the bits
    are those of ``dy.T @ x`` (``tests/test_split.py``)."""
    dy_mat, x = weight_factors(trace, t, dy)
    dy_mat = dy_mat[:, rows]
    if layer.kind == DENSE:
        return matmul_cols(dy_mat.T, x, out=out)
    _, c_in, kh, kw = layer.weight_shape
    g = matmul_cols(x.T, dy_mat).T if x.shape[1] < dy_mat.shape[1] else matmul_cols(dy_mat.T, x)
    g = g.reshape(-1, kh, kw, c_in).transpose(0, 3, 1, 2)
    if out is None:
        out = np.empty(g.shape, dtype=DTYPE)
    out[...] = g
    return out


@np.errstate(over="ignore", invalid="ignore")
def forward(spec, params, batch, labels=None, for_backward=True):
    """Run the net; returns (trace, loss) with loss None when labels are absent.

    The trace keeps every pre- and post-activation for backprop and probing.
    With ``for_backward=False`` (an evaluation or a replay) it keeps no conv
    patch matrix: each window of samples is unrolled into a reused block,
    and ``backward`` refuses the trace.
    Overflow raises no floating-point warning: the trace records the first
    overflowing layer, and the caller judges a non-finite or huge loss.
    """
    x = np.asarray(batch, dtype=DTYPE)
    if x.ndim == 4:
        x = x.transpose(0, 2, 3, 1)   # NHWC from here on
    trace = ForwardTrace()
    for t, layer in enumerate(spec.layers):
        if layer.kind == DENSE and x.ndim == 4:
            x = x.mean(axis=(1, 2))
        # a conv net's inputs[0] stays the caller's NCHW batch
        trace.inputs.append(x.transpose(0, 3, 1, 2) if t == 0 and x.ndim == 4 else x)
        if layer.kind == DENSE:
            if x.shape[1] != layer.d_in:
                raise SpecError(f"layer {t} expects width {layer.d_in}, got {x.shape[1]}")
            y = matmul_cols(x, params[t]["W"].T)   # split by output units
            y += params[t]["b"]
            m = np.abs(y).max()
            overflow = not np.isfinite(m) or m > OVERFLOW_LIMIT
            x = activate(layer.activation, y)
        else:   # the windows add the bias, activate and check their own rows
            if x.ndim != 4 or x.shape[3] != layer.d_in:   # only the batch can fail this
                raise SpecError(f"layer {t} expects {layer.d_in} channels, got {np.shape(batch)}")
            y, x, trace.conv_cols[t], overflow = _conv_forward(
                x, params[t]["W"], params[t]["b"], layer.kernel, for_backward, layer.activation)
        if overflow and trace.overflow_layer is None:
            trace.overflow_layer = t
        trace.preacts.append(y)
        trace.acts.append(x)
    loss = None
    if labels is not None:
        loss = batch_loss(spec, trace.output, labels)
    return trace, loss


def softmax_cross_entropy(logits, labels):
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    picked = logp[np.arange(len(labels)), np.asarray(labels, dtype=np.intp)]
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
    acts: list             # acts[t] = dL/d(activation output of layer t), NHWC for conv
    preacts: list | None   # preacts[t] = dL/dy[t], kept only when no weight gradient is formed


def backward(spec, params, trace, labels, weights=True):
    """Exact gradients of the batch loss for every parameter and activation.

    Each layer's weight gradient is the product ``dy.T @ x`` of two factors
    the walk already holds, its pre-activation gradient and its input (see
    ``weight_factors``). With ``weights=False`` no weight gradient is formed:
    every ``weight`` entry is None and ``preacts`` keeps each layer's ``dy``
    instead. The fixed-head fast path takes them so: it forms each head's
    gradient block by block with ``weight_grad`` and applies the block at
    once, so a whole weight gradient is never written.
    With ``weights=True`` each conv layer's patch matrix is dropped from the
    trace once its weight gradient is formed, so the rest of the walk does
    not hold it; the trace is then spent, and ``weight_factors`` and
    a second ``backward`` refuse it. Conv input gradients run their windows
    on every core (``_conv_input_grad``).
    """
    n_layers = len(spec.layers)
    if len(trace.acts) != n_layers:
        raise SpecError("trace does not match the spec")
    if any(cols is None for cols in trace.conv_cols.values()):
        raise SpecError("trace kept no patch matrices: it comes from a forward-only "
                        "pass or was spent by backward(..., weights=True)")
    dW = [None] * n_layers
    db = [None] * n_layers
    dys = [None] * n_layers
    dacts = [None] * n_layers
    dx = loss_output_grad(spec, trace.output, labels)
    dy = None   # layer t's dL/dy, when the conv layer above has formed it
    for t in range(n_layers - 1, -1, -1):
        layer = spec.layers[t]
        dacts[t] = dx
        if dy is None:
            dy = activation_grad(layer.activation, trace.preacts[t], trace.acts[t], dx)
        if weights:
            dW[t] = weight_grad(layer, trace, t, dy)
            if t in trace.conv_cols:   # nothing reads the patch matrix again
                trace.conv_cols[t] = None
        else:
            dys[t] = dy
        db[t] = dy.reshape(-1, layer.d_out).sum(axis=0)
        if t == 0:
            break   # the input batch is not trained: no gradient for it
        if layer.kind == DENSE:
            dx = matmul_cols(dy, params[t]["W"])
            pooled = trace.acts[t - 1]
            if pooled.ndim == 4:   # layer t averaged this NHWC map
                _, h, w, _ = pooled.shape
                dx = np.broadcast_to(dx[:, None, None, :] / (h * w), pooled.shape).copy()
            dy = None
        else:   # the layer below is conv too: its dy comes with dx
            below = (spec.layers[t - 1].activation, trace.preacts[t - 1], trace.acts[t - 1])
            dx, dy = _conv_input_grad(trace.inputs[t].shape, params[t]["W"], layer.kernel, dy,
                                      below)
    return MainnetGrads(weight=dW, bias=db, acts=dacts, preacts=None if weights else dys)
