"""Hypernetwork engines: generate mainnet parameters from embeddings.

A hypernet owns sources. A source is one (rows, d_e) block of embeddings read
through its own trunk by its own head: ``"w"`` through trunk_h, ``"b"`` through
trunk_g (dense stacks, identity when empty), and the chunked ``"c"`` through a
``Projection``, an affine map per row. The head, a ``SlotBank``, is the one
object that owns a source's generator arrays: it draws them, ``generate``
writes mainnet parameters from the source features, ``backward`` maps their
gradients back, and ``feature_grads`` returns only the features' gradients,
which the variance probe reads. Three head topologies are supported:

* ``per-layer``: every target layer gets its own linear head.
* ``shared-same-size``: layers with identical weight shapes and the same
  ReLU gain share one head, each layer keeping its own embedding, so a head
  serves one variance formula.
* ``chunked``: one shared linear head emits fixed-size (K, n, n) blocks of
  conv weights, one per source row; each block has its own embedding, read
  through its own input projection, and a layer's blocks are assembled into
  its weight tensor in (output-block, input-channel) order. Layers the chunk
  grid cannot cover (e.g. a dense classifier) fall back to per-layer heads.

The linear heads of one slot (weights or biases) are one ``SlotBank``, and
each ``LinearHead`` (``W = H h(e) + beta``, ``b = G g(e) + gamma``) is a row
range of it: their H (G) matrices are consecutive row blocks of one (N, d)
matrix and their beta (gamma) offsets consecutive pieces of one (N,) vector.
``generate`` is one GEMM per slot, every target's parameter its rows and
columns of the product (one row, or a chunk grid); ``backward`` reads each
target's gradient from one (rows, N) slot-gradient matrix and takes the head
gradients and the feature gradients from it in three whole-slot operations;
``feature_grads`` multiplies each target's weight gradient by its own head's
rows. For shared heads the head gradient is the sum of the per-target
contributions, which combats the usual head-gradient shrinkage. The bank
keeps its slot-gradient matrix from its first use on, and
``Hypernet.gradient_views`` hands out each target's rows of it as a view in
the parameter's layout, which ``mainnet.backward(..., out=)`` writes in
place; ``backward`` copies a gradient in only when it is not that view (a
caller's own arrays, or a conv kernel of several output blocks, whose chunk
rows no view can order).

Every hypernet array is a view into one flat float64 vector, ``Hypernet.flat``,
laid out in one order: shared trunks, then each source's head and projection,
then each source's embedding block, so the updatable arrays form the prefix
``flat[:n_updatable]``. Each of these parts declares its arrays in layout
order and binds itself to its one segment of ``flat``. The hypernet owns its
gradient the same way: ``Hypernet.grad``, laid out like ``flat``, is allocated
by the first ``backward``, which binds each part's ``grads`` to its segment;
every ``backward`` overwrites every entry, each trunk writing the embedding
gradients straight into its source's segment, so one SGD step is one check
and one update. Embeddings are drawn uniform at
``HypernetSpec.embedding_variance``, the declared ``Var(e)`` the head
formulas read.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import init_schemes as schemes
from .init_schemes import FanGeometry, InitScheme
from .mainnet import (CONV, GENERATED_BIAS, RELU, MainnetSpec, SpecError,
                      activate, activation_grad)
from .tensor import DTYPE, SPLIT_FLOOR, Rng, matmul_cols, sample

PER_LAYER = "per-layer"
SHARED_SAME_SIZE = "shared-same-size"
CHUNKED = "chunked"
TOPOLOGIES = (PER_LAYER, SHARED_SAME_SIZE, CHUNKED)


@dataclass(frozen=True)
class ChunkPlan:
    """Chunk grid: blocks of K output channels over an n x n kernel."""

    K: int
    n: int

    def __post_init__(self):
        if self.K < 1 or self.n < 1:
            raise SpecError("chunk plan needs K >= 1 and n >= 1")

    def n_rows(self, t, layer):
        """Conv layer t's chunk count: one per (output block, input channel)."""
        kh, kw = layer.kernel[0], layer.kernel[1]
        if kh != self.n or kw != self.n:
            raise SpecError(f"layer {t} kernel {kh}x{kw} does not match chunk side {self.n}")
        if layer.d_out % self.K != 0:
            raise SpecError(f"layer {t} has {layer.d_out} output channels, "
                            f"not divisible by chunk size K={self.K}")
        return layer.d_out // self.K * layer.d_in

    @property
    def slot(self):
        """The chunked head's slot. The head, a (K n n, d) output layer,
        takes the interior-layer rule with no ReLU gain under every scheme;
        the projections carry the target layers' variance."""
        width = self.K * self.n * self.n
        return replace(WEIGHT, tag="c", variance=lambda scheme, geom: schemes.layer_variance(
            replace(scheme, relu_gain=False), FanGeometry(d_i=width, d_j=geom.d_k, d_k=1),
            output=True))


@dataclass(frozen=True)
class HypernetSpec:
    embedding_dim: int = 50
    hidden_layers: tuple = ()
    trunk_activation: str = RELU
    embedding_variance: float = 1.0   # Var(e): embeddings are drawn uniform
    embeddings_trainable: bool = False
    head_topology: str = SHARED_SAME_SIZE
    chunk: ChunkPlan | None = None
    normalize_embeddings: bool = False

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(self.hidden_layers))
        if self.embedding_dim < 1:
            raise SpecError("embedding_dim must be positive")
        if not np.isfinite(self.embedding_variance) or self.embedding_variance <= 0:
            raise SpecError(f"embedding_variance must be finite and > 0, "
                            f"got {self.embedding_variance}")
        if self.head_topology not in TOPOLOGIES:
            raise SpecError(f"unknown head topology {self.head_topology!r}")
        if self.head_topology == CHUNKED and self.chunk is None:
            raise SpecError("chunked topology requires a ChunkPlan")



class Segment:
    """Arrays laid out back to back in one segment of ``Hypernet.flat``, named
    by ``keys`` and sized by ``shapes`` in layout order. ``Hypernet._allocate``
    sets ``span``, the segment's slice, then calls ``bind``. The first
    ``Hypernet.backward`` sets its ``grads``, its arrays of the same segment
    of ``Hypernet.grad``, which a trunk's or head's ``backward`` writes."""

    span = slice(0, 0)
    grads = ()

    @property
    def size(self):
        return sum(math.prod(shape) for shape in self.shapes)

    def arrays(self, vector):
        """The arrays, in layout order, as views of this segment of ``vector``
        (``Hypernet.flat`` or ``Hypernet.grad``)."""
        out, lo = [], self.span.start
        for shape in self.shapes:
            out.append(vector[lo:lo + math.prod(shape)].reshape(shape))
            lo += math.prod(shape)
        return out

    def named(self, vector):
        return dict(zip(self.keys, self.arrays(vector)))


class Trunk(Segment):
    """Dense stack mapping embeddings to head features; identity when empty.
    Its arrays are W0, b0, W1, b1, ..."""

    def __init__(self, name, in_dim, widths, activation):
        self.in_dim = in_dim
        self.widths = tuple(widths)
        self.activation = activation
        dims = (in_dim,) + self.widths
        self.keys = tuple(f"{name}.{p}{i}" for i in range(len(self.widths)) for p in "Wb")
        self.shapes = tuple(s for a, b in zip(dims, dims[1:]) for s in ((b, a), (b,)))
        self.weights, self.biases = [], []   # views set by bind()

    def bind(self, flat):
        arrays = self.arrays(flat)
        self.weights, self.biases = arrays[0::2], arrays[1::2]

    @property
    def out_dim(self):
        return self.widths[-1] if self.widths else self.in_dim

    def initialize(self, net, scheme, rng):
        """Each layer's bias by the offset rule, then its weight by the
        interior-layer rule with this trunk's own ReLU gain."""
        inner = replace(scheme, relu_gain=scheme.relu_gain and self.activation == RELU)
        for w, b in zip(self.weights, self.biases):
            var = schemes.layer_variance(inner, FanGeometry(*w.shape, d_k=1))
            sample(schemes.offset_variance(scheme), b.shape, rng, out=b)
            sample(var, w.shape, rng, out=w)

    def forward(self, emb_matrix):
        """emb_matrix: (T, in_dim) stacked embeddings -> (features, cache)."""
        x = emb_matrix
        xs, ys = [x], []
        for w, b in zip(self.weights, self.biases):
            y = x @ w.T + b
            x = activate(self.activation, y)
            ys.append(y)
            xs.append(x)
        return x, (xs, ys)

    def backward(self, cache, dfeat, out):
        """Write dL/d(trunk arrays) into ``grads`` and dL/d(embeddings) into ``out``."""
        xs, ys = cache
        dx = dfeat
        for i in range(len(self.weights) - 1, -1, -1):
            dy = activation_grad(self.activation, ys[i], xs[i + 1], dx)
            np.matmul(dy.T, xs[i], out=self.grads[2 * i])
            dy.sum(axis=0, out=self.grads[2 * i + 1])
            dx = np.matmul(dy, self.weights[i], out=None if i else out)
        if dx is not out:   # an identity trunk
            out[...] = dx


class Projection(Segment):
    """Per-row affine map of a source's embeddings, the chunked source's
    trunk: feature row m is ``proj[m] @ e[m] + proj_bias[m]``. Target
    ``targets[i]`` owns the rows ``rows[i]``."""

    def __init__(self, key, targets, rows, d_e):
        self.targets, self.rows = tuple(targets), tuple(rows)
        self.out_dim = d_e
        self.keys = (f"{key}.proj", f"{key}.proj_bias")
        self.shapes = ((rows[-1].stop, d_e, d_e), (rows[-1].stop, d_e))

    def bind(self, flat):
        self.proj, self.proj_bias = self.arrays(flat)

    def initialize(self, net, scheme, rng):
        """Each target's rows by the projection rule, then the offsets."""
        for t, rows in zip(self.targets, self.rows):
            var = schemes.projection_variance(net.layer_scheme(scheme, t), net.geometry(t))
            block = self.proj[rows]
            sample(var, block.shape, rng, out=block)
        sample(schemes.offset_variance(scheme), self.proj_bias.shape, rng, out=self.proj_bias)

    def forward(self, emb):
        """emb: (rows, d_e) embeddings -> (features, cache)."""
        return np.einsum("mpd,md->mp", self.proj, emb) + self.proj_bias, emb

    def backward(self, emb, dfeat, out):
        """Write dL/d(projection arrays) into ``grads`` and dL/d(embeddings) into ``out``."""
        proj, proj_bias = self.grads
        np.einsum("mp,md->mpd", dfeat, emb, out=proj)
        proj_bias[...] = dfeat
        np.einsum("mpd,mp->md", self.proj, dfeat, out=out)


class Source(Segment):
    """One (rows, d_e) embedding block, ``block``, read through ``trunk`` by
    ``head``, a ``SlotBank``. Row i feeds mainnet layer ``targets[i]``;
    ``keys`` and ``shapes`` name the block's arrays in row order. ``parts``
    are what the source lays out after the shared trunks: its head, then its
    trunk if that is its own projection."""

    def __init__(self, trunk, head, keys, shapes, targets):
        self.trunk, self.head = trunk, head
        self.keys, self.shapes, self.targets = tuple(keys), tuple(shapes), tuple(targets)
        self.parts = (head, trunk) if isinstance(trunk, Projection) else (head,)

    def bind(self, flat):
        self.block = flat[self.span].reshape(len(self.targets), -1)


@dataclass(frozen=True)
class Slot:
    """A generated mainnet parameter: what its heads fill and are called."""

    param: str          # params[t] entry: "W" or "b"
    tag: str            # source name, embedding keys emb.<tag><t>, head keys <tag>g<i>
    names: tuple        # the head's (matrix, offset) parameter names
    variance: callable  # head variance of a scheme on a target geometry
    shape: callable     # layer -> generated shape


WEIGHT = Slot("W", "w", ("H", "beta"), schemes.scheme_weight_variance,
              lambda layer: layer.weight_shape)
BIAS = Slot("b", "b", ("G", "gamma"), schemes.scheme_bias_variance,
            lambda layer: (layer.d_out,))


def _assemble(block, shape):
    """A target's parameter from its rows of a slot matrix: one row reshaped,
    or a conv kernel's chunk rows, one (K, kh, kw) block per (output block,
    input channel) in row-major order."""
    if block.ndim == 1:
        return block.reshape(shape)
    d_out, d_in = shape[:2]
    blocks = len(block) // d_in
    return block.reshape(blocks, d_in, d_out // blocks, -1).transpose(0, 2, 1, 3).reshape(shape)


def _layout_view(block, shape):
    """A target's rows of a slot matrix as a view in its parameter's layout,
    the view ``_disassemble`` undoes: one row reshaped, or the chunk rows of
    a conv kernel with one output block, its (input channel, K, kh, kw) view
    transposed; None for several output blocks, whose chunk rows no view of
    the rows can order."""
    if block.ndim == 1:
        return block.reshape(shape, copy=False)
    d_out, d_in = shape[:2]
    if len(block) != d_in:
        return None
    return block.reshape(d_in, d_out, *shape[2:], copy=False).transpose(1, 0, 2, 3)


def _disassemble(grad, row):
    """The inverse of ``_assemble``: a target's parameter gradient as its
    rows ``row`` (an index or a range) of a slot matrix."""
    if not isinstance(row, slice):
        return grad.reshape(-1)
    d_out, d_in = grad.shape[:2]
    blocks = (row.stop - row.start) // d_in
    d = grad.reshape(blocks, d_out // blocks, d_in, -1).transpose(0, 2, 1, 3)
    return d.reshape(blocks * d_in, -1)


class LinearHead:
    """Rows ``cols`` of its ``SlotBank``: a linear map generating one slot of
    its targets, each row x of the source features giving ``H x + beta``.
    Target ``targets[i]`` owns the source rows ``rows[i]``: one row (an
    index) of its whole parameter, of shape ``shapes[i]``, or a range of its
    chunks. ``keys`` name its H and beta arrays (G and gamma for a bias head);
    the bank sets ``cols``, ``H`` and ``beta``."""

    def __init__(self, slot, key, targets, rows, mspec, d_in):
        self.slot = slot
        self.key = key
        self.targets = tuple(targets)
        self.rows = tuple(rows)
        self.d_in = d_in
        self.shapes = tuple(slot.shape(mspec.layers[t]) for t in self.targets)
        widths = {math.prod(shape) // (row.stop - row.start if isinstance(row, slice) else 1)
                  for shape, row in zip(self.shapes, self.rows)}
        if len(widths) != 1:
            raise SpecError(f"head shared across different-size layers {self.targets}; "
                            "only the chunked topology can cover mixed shapes")
        self.n_out = widths.pop()
        self.keys = tuple(f"{key}.{name}" for name in slot.names)


class SlotBank(Segment):
    """The linear heads of one slot, read from one source, as one head.

    Its segment holds ``H``, (N, d), then ``beta``, (N,); each head owns the
    rows ``cols`` of both, so every head's matrix is laid out before any
    head's offset. Target t of a head owns the rows ``row`` of the source
    features and the head's columns ``cols`` of the (rows, N) slot matrix, so
    its parameter is assembled from ``(x @ H.T + beta)[row, cols]`` and its
    gradient sits at ``D[row, cols]``. The (rows, N) slot-gradient matrix
    ``D`` is allocated by the first ``slot_grad`` and kept, with ``views``,
    each place's view of it in its parameter's layout (``_layout_view``).
    """

    D = None
    views = ()

    def __init__(self, slot, heads):
        self.slot = slot
        self.heads = tuple(heads)
        self.places = []   # (target, source rows, columns, shape), head by head
        lo = 0
        for h in self.heads:
            h.cols = slice(lo, lo + h.n_out)
            self.places += [(t, row, h.cols, shape)
                            for t, row, shape in zip(h.targets, h.rows, h.shapes)]
            lo = h.cols.stop
        self.n_out = lo
        self.shapes = ((lo, self.heads[0].d_in), (lo,))

    def named(self, vector):
        """Every head's rows of the matrix, then of the offsets, by key."""
        blocks = self.arrays(vector)
        return {h.keys[i]: blocks[i][h.cols] for i in (0, 1) for h in self.heads}

    def bind(self, flat):
        self.H, self.beta = self.arrays(flat)
        for h in self.heads:
            h.H, h.beta = self.H[h.cols], self.beta[h.cols]

    def initialize(self, net, scheme, rng):
        for h in self.heads:
            t0 = h.targets[0]
            var = self.slot.variance(net.layer_scheme(scheme, t0), net.geometry(t0))
            sample(var, h.H.shape, rng, out=h.H)
            sample(schemes.offset_variance(scheme), h.beta.shape, rng, out=h.beta)

    def generate(self, x, params):
        """Every target's parameter from the slot product ``x @ H.T + beta``,
        split above the floor by power-of-two blocks of head rows
        (``matmul_cols``); products per head would change the bits. There
        each parameter is copied out and the product freed: a target reads
        only its head's columns, 11 of the 31 MB of mnist-mlp's product.
        Every parameter is C-contiguous: a conv kernel's chunk rows, a
        strided view, are copied too, so its ``mean()`` sums it in C order."""
        y = matmul_cols(x, self.H.T)
        y += self.beta
        small = y.size * x.shape[1] < SPLIT_FLOOR
        for t, row, cols, shape in self.places:
            p = _assemble(y[row, cols], shape)
            params[t][self.slot.param] = p if small and p.flags.c_contiguous else p.copy()

    def feature_grads(self, dslot):
        """Each target's gradient times its own head's rows alone, by layer:
        one GEMM per head, over its targets' rows, and no (T, N) matrix."""
        out = {}
        for h in self.heads:
            d = [_disassemble(dslot[t], row) for t, row in zip(h.targets, h.rows)]
            g, lo = np.vstack(d) @ h.H, 0
            for t, dt in zip(h.targets, d):
                out[t] = g[lo] if dt.ndim == 1 else g[lo:lo + len(dt)]
                lo += 1 if dt.ndim == 1 else len(dt)
        return out

    def slot_grad(self, n_rows):
        """``D``, allocated zeroed by the first call, with ``views``. Every
        ``backward`` writes only the places, so the entries outside them stay
        zero and ``D`` is never zeroed again."""
        if self.D is None:
            self.D = np.zeros((n_rows, self.n_out), dtype=DTYPE)
            self.views = [_layout_view(self.D[row, cols], shape)
                          for _, row, cols, shape in self.places]
        return self.D

    def backward(self, x, dslot):
        """Write dL/d(head arrays) into ``grads``; return dL/dx. Each target's
        gradient is placed in ``D``: copied there (``_disassemble``), unless
        it is its own view of ``D``, which the mainnet wrote in place."""
        d = self.slot_grad(len(x))
        for (t, row, cols, _), view in zip(self.places, self.views):
            if dslot[t] is not view:
                d[row, cols] = _disassemble(dslot[t], row)
        h, beta = self.grads
        np.matmul(d.T, x, out=h)
        d.sum(axis=0, out=beta)
        return d @ self.H


@dataclass
class GenTrace:
    """Intermediate activations of one generate() call, kept for backward.

    A trunk's features and cache may hold its source's embedding block
    itself, a view of ``Hypernet.flat``: a trace is valid only until the next
    update.
    """

    feats: dict          # source name -> (rows, d) head input features
    trunk_caches: dict   # source name -> trunk forward cache


class Hypernet:
    """Generates and backpropagates through all mainnet parameters.

    ``sources`` maps each source name (``"w"``, ``"b"``, ``"c"``), its slot's
    tag, to its ``Source``, and ``heads`` lists their heads in the same order; trunk_g
    never shares trunk_h's arrays. ``grad``, the gradient vector laid out
    like ``flat``, is None until the first ``backward``.
    """

    def __init__(self, mspec: MainnetSpec, hspec: HypernetSpec, rng: Rng):
        self.mspec = mspec
        self.hspec = hspec
        d_e = hspec.embedding_dim
        bias_layers = [t for t, l in enumerate(mspec.layers)
                       if l.bias_source == GENERATED_BIAS]
        chunked = hspec.head_topology == CHUNKED
        chunk_targets = [t for t, l in enumerate(mspec.layers) if chunked and l.kind == CONV]
        plain_targets = [t for t in range(len(mspec.layers)) if t not in chunk_targets]
        if chunked and not chunk_targets:
            raise SpecError("chunked topology requires at least one conv layer")
        self.bias_targets = tuple(bias_layers)

        self.trunks = [Trunk(name, d_e, hspec.hidden_layers, hspec.trunk_activation)
                       for name in (("trunk_h", "trunk_g") if bias_layers else ("trunk_h",))]
        self.sources = {}
        shared = hspec.head_topology == SHARED_SAME_SIZE
        for slot, trunk, targets in zip((WEIGHT, BIAS), self.trunks,
                                        (plain_targets, bias_layers)):
            by_head = {}   # one head per target, or per same-size, same-gain group when shared
            for t in targets:
                layer = mspec.layers[t]
                by_head.setdefault((slot.shape(layer), layer.activation == RELU) if shared else t,
                                   []).append(t)
            heads = [LinearHead(slot, f"{slot.tag}g{i}", ts, [targets.index(t) for t in ts],
                                mspec, trunk.out_dim) for i, ts in enumerate(by_head.values())]
            if heads:
                self.sources[slot.tag] = Source(trunk, SlotBank(slot, heads),
                                                [f"emb.{slot.tag}{t}" for t in targets],
                                                [(d_e,)] * len(targets), targets)
        if chunk_targets:   # cg<n> follows the per-layer heads wg0 .. wg<n-1>
            i, slot, rows = len(plain_targets), hspec.chunk.slot, []
            for t in chunk_targets:
                lo = rows[-1].stop if rows else 0
                rows.append(slice(lo, lo + hspec.chunk.n_rows(t, mspec.layers[t])))
            head = LinearHead(slot, f"cg{i}", chunk_targets, rows, mspec, d_e)
            self.sources[slot.tag] = Source(
                Projection(head.key, chunk_targets, rows, d_e), SlotBank(slot, [head]),
                [f"emb.c{i}"], [(rows[-1].stop, d_e)],
                [t for t, r in zip(chunk_targets, rows) for _ in range(r.start, r.stop)])
        self.heads = [src.head for src in self.sources.values()]
        self._heads_by_target = {(h.slot.param, t): h for head in self.heads
                                 for h in head.heads for t in h.targets}
        self._allocate()
        self.grad = None
        self._gradient_views = None

        var_e, erng = hspec.embedding_variance, rng.child(0)
        for src in self.sources.values():
            e = sample(var_e, src.block.shape, erng, out=src.block)
            if hspec.normalize_embeddings:
                # Pin each embedding's empirical second moment to the declared
                # variance, so head-variance checks see the formula rather than
                # the luck of one finite draw.
                e *= np.sqrt(var_e / np.mean(np.square(e), axis=-1, keepdims=True))

    # ---- parameter access -------------------------------------------------

    def _parts(self):
        """Every part laid out in ``flat``, in layout order."""
        return (self.trunks + [p for src in self.sources.values() for p in src.parts]
                + list(self.sources.values()))

    def _allocate(self):
        """Lay the parts out back to back in ``self.flat``: the shared trunks,
        then each source's head and projection, then each source's embedding
        block, so the updatable arrays come first. The buffer is allocated
        once, each part binds itself to its segment, and ``param_arrays``
        keeps the layout order."""
        lo = 0
        for part in self._parts():
            part.span = slice(lo, lo + part.size)
            lo = part.span.stop
        self.flat = np.zeros(lo, dtype=DTYPE)
        for part in self._parts():
            part.bind(self.flat)
        self.n_updatable = lo if self.hspec.embeddings_trainable else next(iter(self.sources.values())).span.start

    def param_arrays(self):
        """Flat name -> array view of every parameter, embeddings included."""
        return {k: v for part in self._parts() for k, v in part.named(self.flat).items()}

    def grad_arrays(self):
        """Flat name -> array view of ``grad``, keyed like ``param_arrays``."""
        return {k: v for part in self._parts() for k, v in part.named(self.grad).items()}

    # ---- initialization ---------------------------------------------------

    def geometry(self, t):
        """Fan geometry of the generator heads targeting mainnet layer t."""
        layer = self.mspec.layers[t]
        var_e = self.hspec.embedding_variance
        b_head = self.head_of(t, BIAS.param)
        d_l, var_e2 = (b_head.d_in, var_e) if b_head else (1, 1.0)
        return FanGeometry(d_i=layer.d_out, d_j=layer.d_in, d_k=self.head_of(t).d_in, d_l=d_l,
                           var_e1=var_e, var_e2=var_e2, receptive_field=layer.receptive_field)

    def head_of(self, t, param=WEIGHT.param):
        """The ``LinearHead`` generating ``param`` ("W" or "b") of mainnet
        layer t, or None."""
        return self._heads_by_target.get((param, t))

    def layer_scheme(self, scheme, t):
        layer = self.mspec.layers[t]
        return replace(scheme, relu_gain=scheme.relu_gain and layer.activation == RELU,
                       hypernet_bias=layer.bias_source == GENERATED_BIAS)

    def initialize(self, scheme: InitScheme, rng: Rng):
        """Sample every hypernet parameter according to the scheme.

        Each trunk, head and projection draws its own arrays at the variances
        ``init_schemes`` gives: heads the scheme's weight/bias variance on
        their target geometry, trunks and projections its interior-layer and
        projection rules, every bias and offset its offset rule. Every draw
        is uniform, in one order: trunks, weight heads (each followed by its
        source's projection), bias heads. A zero variance draws nothing.
        """
        bias_last = sorted(self.sources.values(), key=lambda src: src.head.slot is BIAS)
        for part in self.trunks + [part for src in bias_last for part in src.parts]:
            part.initialize(self, scheme, rng)

        if scheme.kind == schemes.CONST_EMBEDDING:
            for src in self.sources.values():
                for row, t in zip(src.block, src.targets):
                    row[:] = self.mspec.layers[t].fan_in ** -0.5
        return self

    # ---- generation -------------------------------------------------------

    def generate(self):
        """Produce all mainnet parameters plus the trace needed for backward."""
        params = [{} if t in self.bias_targets else {"b": np.zeros(layer.d_out, dtype=DTYPE)}
                  for t, layer in enumerate(self.mspec.layers)]
        feats, caches = {}, {}
        for name, src in self.sources.items():
            feats[name], caches[name] = src.trunk.forward(src.block)
            src.head.generate(feats[name], params)
        return params, GenTrace(feats, caches)

    def feature_grads(self, weight_grads):
        """dL/d(weight-head input features) keyed by layer, the one way to get
        them. A feature gradient depends only on the heads' arrays and the
        mainnet weight gradients, so it needs no ``GenTrace`` and builds no
        hypernet parameter gradient."""
        out = {}
        for head in self.heads:
            if head.slot.param == WEIGHT.param:
                out.update(head.feature_grads(weight_grads))
        return out

    def gradient_views(self):
        """The (weight, bias) lists, by layer, of the views ``backward`` reads
        in place: each generated parameter's rows of its head's ``D`` in the
        parameter's layout, None where there is none (an ungenerated bias, a
        kernel of several output blocks). ``mainnet.backward(..., out=)``
        writes a step's gradients there, and the next step overwrites them."""
        if self._gradient_views is None:
            n = len(self.mspec.layers)
            out = {WEIGHT.param: [None] * n, BIAS.param: [None] * n}
            for src in self.sources.values():
                src.head.slot_grad(len(src.targets))
                for (t, *_), view in zip(src.head.places, src.head.views):
                    out[src.head.slot.param][t] = view
            self._gradient_views = out[WEIGHT.param], out[BIAS.param]
        return self._gradient_views

    def backward(self, trace: GenTrace, weight_grads, bias_grads=None):
        """Map mainnet parameter gradients to hypernet parameter gradients,
        written into ``grad``: the first call allocates it and binds each
        part's ``grads`` to it, and every call overwrites every entry. A
        gradient that is its own ``gradient_views`` entry is read in place."""
        if self.bias_targets and bias_grads is None:
            raise SpecError("bias gradients required: this hypernet generates biases")
        if self.grad is None:
            self.grad = np.zeros_like(self.flat)
            for part in self._parts():
                part.grads = part.arrays(self.grad)
        dslots = {WEIGHT.param: weight_grads, BIAS.param: bias_grads}
        for name, src in self.sources.items():
            dfeat = src.head.backward(trace.feats[name], dslots[src.head.slot.param])
            src.trunk.backward(trace.trunk_caches[name], dfeat,
                               self.grad[src.span].reshape(src.block.shape))


def init_hypernet(hspec, mspec, scheme, rng):
    """Build a hypernet for the mainnet spec and initialize it under the scheme."""
    net = Hypernet(mspec, hspec, rng.child(1))
    net.initialize(scheme, rng.child(2))
    return net


def gradient_shrink_factor(geom: FanGeometry):
    """Predicted Var(dL/d head features) / Var(dL/dW) under hyperfan-out.

    The head sums d_i * d_j * r weight-gradient terms scaled by Var(H) =
    1/(d_i * d_k * var_e1 * r), leaving d_j / (d_k * var_e1); gradients shrink
    on the way into the hypernet whenever the target fan-in exceeds the head
    width.
    """
    return geom.d_j / (geom.d_k * geom.var_e1)
