"""Hypernetwork engines: generate mainnet parameters from embeddings.

A hypernet owns sources. A source is one (rows, d_e) block of embeddings, a
row per target, read through its own trunk (a dense stack, identity when
empty) by its own head: ``"w"`` through trunk_h, ``"b"`` through trunk_g, and
each chunked head's ``emb.c<i>`` through an identity trunk. The head is the
one object that owns a source's generator arrays: it draws them, ``generate``
writes mainnet parameters from the source features, ``backward`` maps their
gradients back, and ``feature_grads`` returns only the features' gradients,
which the variance probe reads. Three head topologies are supported:

* ``per-layer``: every target layer gets its own linear head.
* ``shared-same-size``: layers with identical weight shapes share one head,
  each layer keeping its own embedding.
* ``chunked``: one shared output layer emits fixed-size (K, n, n) blocks of
  conv weights; each block has its own embedding and its own input
  projection, and blocks are assembled into full weight tensors in
  (output-block, input-channel) order. Layers the chunk grid cannot cover
  (e.g. a dense classifier) fall back to per-layer heads.

The linear heads of one slot (weights or biases) are one ``SlotBank``, and
each ``LinearHead`` (``W = H h(e) + beta``, ``b = G g(e) + gamma``) is a row
range of it: their H (G) matrices are consecutive row blocks of one (N, d)
matrix and their beta (gamma) offsets consecutive pieces of one (N,) vector.
``generate`` is one GEMM per slot, every target's parameter a view of its rows
and columns of the product; ``backward`` places each target's gradient in one
(T, N) matrix and takes the head gradients and the feature gradients from it
in three whole-slot operations; ``feature_grads`` multiplies each target's
weight gradient by its own head's rows. For shared heads the head gradient is
the sum of the per-target contributions, which combats the usual head-gradient
shrinkage.

Every hypernet array is a view into one flat float64 vector, ``Hypernet.flat``,
laid out in one order: trunks, then each source's head, then each source's
embedding block, so the updatable arrays form the prefix ``flat[:n_updatable]``.
Each of these parts declares its arrays in layout order and binds itself to
its one segment of ``flat``. The hypernet owns its gradient the same way:
``Hypernet.grad``, laid out like ``flat``, is allocated by the first
``backward``, which binds each part's ``grads`` to its segment; every
``backward`` overwrites every entry, so one SGD step is one check and one
update. The head formulas read the declared embedding variance, ``Var(e)``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import init_schemes as schemes
from .init_schemes import FanGeometry, InitScheme
from .mainnet import (CONV, GENERATED_BIAS, RELU, MainnetSpec, SpecError,
                      activate, activation_grad)
from .tensor import DTYPE, UNIFORM, Distribution, Rng, row_chunks, sample

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


@dataclass(frozen=True)
class HypernetSpec:
    embedding_dim: int = 50
    hidden_layers: tuple = ()
    trunk_activation: str = RELU
    embedding_distribution: Distribution = Distribution("uniform", 1.0)
    embeddings_trainable: bool = False
    head_topology: str = SHARED_SAME_SIZE
    generates_bias: bool = False
    chunk: ChunkPlan | None = None
    normalize_embeddings: bool = False

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(self.hidden_layers))
        if self.embedding_dim < 1:
            raise SpecError("embedding_dim must be positive")
        if self.head_topology not in TOPOLOGIES:
            raise SpecError(f"unknown head topology {self.head_topology!r}")
        if self.head_topology == CHUNKED and self.chunk is None:
            raise SpecError("chunked topology requires a ChunkPlan")



class Segment:
    """Arrays laid out back to back in one segment of ``Hypernet.flat``, named
    by ``keys`` and sized by ``shapes`` in layout order. ``Hypernet._allocate``
    sets ``span``, the segment's slice, then calls ``bind``. The first
    ``Hypernet.backward`` sets a trunk's or head's ``grads``, its arrays of
    the same segment of ``Hypernet.grad``, which its ``backward`` writes."""

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
        views = self.named(flat)
        arrays = list(views.values())
        self.weights, self.biases = arrays[0::2], arrays[1::2]
        return views

    @property
    def out_dim(self):
        return self.widths[-1] if self.widths else self.in_dim

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

    def backward(self, cache, dfeat):
        """Write dL/d(trunk arrays) into ``grads``; return dL/d(embeddings)."""
        xs, ys = cache
        dx = dfeat
        for i in range(len(self.weights) - 1, -1, -1):
            dy = activation_grad(self.activation, ys[i], xs[i + 1], dx)
            np.matmul(dy.T, xs[i], out=self.grads[2 * i])
            dy.sum(axis=0, out=self.grads[2 * i + 1])
            dx = dy @ self.weights[i]
        return dx


class Source(Segment):
    """One (rows, d_e) embedding block, ``block``, read through ``trunk`` by
    ``head`` (a ``SlotBank`` or a ``ChunkedHeadGroup``). Row i feeds mainnet
    layer ``targets[i]``; ``keys`` and ``shapes`` name the block's arrays in
    row order."""

    def __init__(self, trunk, head, keys, shapes, targets):
        self.trunk, self.head = trunk, head
        self.keys, self.shapes, self.targets = tuple(keys), tuple(shapes), tuple(targets)

    def bind(self, flat):
        self.block = flat[self.span].reshape(len(self.targets), -1)
        return self.named(flat)


@dataclass(frozen=True)
class Slot:
    """A generated mainnet parameter: what its heads fill and are called."""

    param: str          # params[t] entry: "W" or "b"
    tag: str            # embedding keys emb.<tag><t>, head keys <tag>g<i>
    names: tuple        # the head's (matrix, offset) parameter names
    variance: callable  # head variance of a scheme on a target geometry
    shape: callable     # layer -> generated shape


WEIGHT = Slot("W", "w", ("H", "beta"), schemes.scheme_weight_variance,
              lambda layer: layer.weight_shape)
BIAS = Slot("b", "b", ("G", "gamma"), schemes.scheme_bias_variance,
            lambda layer: (layer.d_out,))


def _classical_kind(scheme):
    """Formula for hypernet-internal layers: the scheme's own if classical."""
    return scheme.kind if scheme.kind in schemes.CLASSICAL_KINDS else schemes.FAN_IN


class LinearHead:
    """Rows ``cols`` of its ``SlotBank``: a linear map generating one slot of
    same-size layers, target ``targets[i]`` getting ``H x[rows[i]] + beta``
    from its source features x. ``keys`` name its H and beta arrays (G and
    gamma for a bias head); the bank sets ``cols``, ``H`` and ``beta``."""

    def __init__(self, slot, key, targets, rows, mspec, d_in):
        self.slot = slot
        self.key = key
        self.targets = tuple(targets)
        self.rows = tuple(rows)
        self.d_in = d_in
        shapes = {slot.shape(mspec.layers[t]) for t in self.targets}
        if len(shapes) != 1:
            raise SpecError(f"head shared across different-size layers {self.targets}; "
                            "only the chunked topology can cover mixed shapes")
        self.shape = shapes.pop()
        self.n_out = math.prod(self.shape)
        self.keys = tuple(f"{key}.{name}" for name in slot.names)


class SlotBank(Segment):
    """The linear heads of one slot, read from one source, as one head.

    Its segment holds ``H``, (N, d), then ``beta``, (N,); each head owns the
    rows ``cols`` of both, so every head's matrix is laid out before any
    head's offset. Target t of a head owns row ``row`` of the source features
    and the head's columns ``cols`` of the (T, N) slot matrix, so its
    parameter is ``(x @ H.T + beta)[row, cols]`` and its gradient sits at
    ``D[row, cols]``.
    """

    def __init__(self, slot, heads):
        self.slot = slot
        self.heads = tuple(heads)
        self.places = []   # (target, source row, columns, shape), head by head
        lo = 0
        for h in self.heads:
            h.cols = slice(lo, lo + h.n_out)
            self.places += [(t, row, h.cols, h.shape) for t, row in zip(h.targets, h.rows)]
            lo = h.cols.stop
        self.n_out = lo
        self.shapes = ((lo, self.heads[0].d_in), (lo,))

    def named(self, vector):
        """Every head's rows of the matrix, then of the offsets, by key."""
        blocks = self.arrays(vector)
        return {h.keys[i]: blocks[i][h.cols] for i in (0, 1) for h in self.heads}

    def bind(self, flat):
        self.H, self.beta = self.arrays(flat)
        views = self.named(flat)
        for h in self.heads:
            h.H, h.beta = (views[key] for key in h.keys)
        return views

    def initialize(self, net, scheme, draw):
        for h in self.heads:
            t0 = h.targets[0]
            var = self.slot.variance(net.layer_scheme(scheme, t0), net.geometry(t0))
            for rows in row_chunks(*h.H.shape):   # no head-sized temporary
                h.H[rows] = draw(var, h.H[rows].shape)
            h.beta[:] = (draw(schemes.BASELINE_SCALE[scheme.kind] ** 2, h.beta.shape)
                         if scheme.kind == schemes.SMALL_RANDOM else 0.0)

    def generate(self, x, params):
        y = x @ self.H.T
        y += self.beta
        for t, row, cols, shape in self.places:
            params[t][self.slot.param] = y[row, cols].reshape(shape)

    def feature_grads(self, dslot):
        """Each target's gradient times its own head's rows alone, by layer:
        one GEMM per head, over a row per target, and no (T, N) matrix."""
        out = {}
        for h in self.heads:
            d = np.stack([dslot[t].reshape(-1) for t in h.targets])
            out.update(zip(h.targets, d @ h.H))
        return out

    def backward(self, x, cache, dslot):
        """Write dL/d(head arrays) into ``grads``; return dL/dx."""
        d = np.zeros((len(self.places), self.n_out), dtype=DTYPE)
        for t, row, cols, _ in self.places:
            d[row, cols] = dslot[t].reshape(-1)
        h, beta = self.grads
        np.matmul(d.T, x, out=h)
        d.sum(axis=0, out=beta)
        return d @ self.H


class ChunkedHeadGroup(Segment):
    """Shared output layer over (K, n, n) chunks with per-chunk input projections.

    Chunks for a layer of shape (out, in, n, n) are indexed row-major by
    (block = out // K, input channel); the global chunk list concatenates the
    per-layer grids in target order. The head reads its own embedding matrix,
    one row per chunk, and is the one head of every layer it generates.
    """

    slot = WEIGHT

    def __init__(self, index, targets, mspec, plan, emb_dim):
        self.key = f"cg{index}"
        self.source = f"emb.c{index}"
        self.targets = tuple(targets)
        self.plan = plan
        self.d_in = self.proj_dim = emb_dim
        self.layers = {t: mspec.layers[t] for t in self.targets}
        k, n = plan.K, plan.n
        index = []
        self.layer_rows = {}
        for t, layer in self.layers.items():
            if layer.kind != CONV:
                raise SpecError(f"layer {t} is not a conv layer; cannot chunk")
            kh, kw = layer.kernel[0], layer.kernel[1]
            if kh != n or kw != n:
                raise SpecError(f"layer {t} kernel {kh}x{kw} does not match chunk side {n}")
            if layer.d_out % k != 0:
                raise SpecError(f"layer {t} has {layer.d_out} output channels, "
                                f"not divisible by chunk size K={k}")
            start = len(index)
            index += [(t, block, cin) for block in range(layer.d_out // k)
                      for cin in range(layer.d_in)]
            self.layer_rows[t] = (start, len(index))
        self.index = tuple(index)
        self.n_chunks = m = len(index)
        self.keys = tuple(f"{self.key}.{name}" for name in ("H", "beta", "proj", "proj_bias"))
        self.shapes = ((k * n * n, emb_dim), (k * n * n,), (m, emb_dim, emb_dim), (m, emb_dim))

    @property
    def heads(self):   # a property: a stored (self,) would be a reference cycle
        return (self,)

    def bind(self, flat):
        views = self.named(flat)
        self.H, self.beta, self.proj, self.proj_bias = views.values()
        return views

    def assemble(self, chunk_mat, t, layer):
        k, n = self.plan.K, self.plan.n
        lo, hi = self.layer_rows[t]
        blocks = layer.d_out // k
        w = chunk_mat[lo:hi].reshape(blocks, layer.d_in, k, n, n)
        return np.ascontiguousarray(w.transpose(0, 2, 1, 3, 4)).reshape(layer.weight_shape)

    def disassemble(self, dw, t, layer):
        k, n = self.plan.K, self.plan.n
        blocks = layer.d_out // k
        d = dw.reshape(blocks, k, layer.d_in, n, n).transpose(0, 2, 1, 3, 4)
        return np.ascontiguousarray(d).reshape(blocks * layer.d_in, k * n * n)

    def initialize(self, net, scheme, draw):
        # The shared output layer is an interior linear map: plain fan-in.
        # The per-chunk projections are the effective output layer and carry
        # the hyperfan variance of their target layer.
        k, n = self.plan.K, self.plan.n
        if scheme.kind == schemes.SMALL_RANDOM:
            var = schemes.BASELINE_SCALE[scheme.kind] ** 2
            for a in (self.H, self.beta, self.proj, self.proj_bias):
                a[:] = draw(var, a.shape)
            return
        kind = _classical_kind(scheme)
        var_h = schemes.classical_variance(
            kind, FanGeometry(d_i=k * n * n, d_j=self.proj_dim, d_k=1), False)
        if scheme.kind == schemes.SCALED_OUTPUT:
            var_h *= schemes.BASELINE_SCALE[scheme.kind] ** 2
        self.H[:] = draw(var_h, self.H.shape)
        self.beta[:] = 0.0
        proj_geom = FanGeometry(d_i=self.proj_dim, d_j=self.d_in, d_k=1)
        for m, (t, _, _) in enumerate(self.index):
            eff = net.layer_scheme(scheme, t)
            var_p = (schemes.scheme_weight_variance(eff, net.geometry(t))
                     if scheme.kind in schemes.HYPERFAN_KINDS
                     else schemes.classical_variance(kind, proj_geom, eff.relu_gain))
            self.proj[m] = draw(var_p, (self.proj_dim, self.d_in))
        self.proj_bias[:] = 0.0

    def generate(self, x, params):
        alphas = np.einsum("mpd,md->mp", self.proj, x) + self.proj_bias
        chunk_mat = alphas @ self.H.T + self.beta
        for t, layer in self.layers.items():
            params[t]["W"] = self.assemble(chunk_mat, t, layer)
        return alphas

    def feature_grads(self, dslot):
        """dL/d(alphas), the shared layer's input features, by layer."""
        return {t: self.disassemble(dslot[t], t, layer) @ self.H
                for t, layer in self.layers.items()}

    def backward(self, x, alphas, dslot):
        """Write dL/d(head arrays) into ``grads``; return dL/dx."""
        dcm = np.zeros((self.n_chunks, self.H.shape[0]), dtype=DTYPE)
        for t, layer in self.layers.items():
            dcm[slice(*self.layer_rows[t])] = self.disassemble(dslot[t], t, layer)
        dalphas = dcm @ self.H
        h, beta, proj, proj_bias = self.grads
        np.matmul(dcm.T, alphas, out=h)
        dcm.sum(axis=0, out=beta)
        np.einsum("mp,md->mpd", dalphas, x, out=proj)
        proj_bias[...] = dalphas
        return np.einsum("mpd,mp->md", self.proj, dalphas)


@dataclass
class GenTrace:
    """Intermediate activations of one generate() call, kept for backward.

    An identity trunk's features are its source's embedding block itself, a
    view of ``Hypernet.flat``: a trace is valid only until the next update.
    """

    feats: dict          # source name -> (rows, d) head input features
    trunk_caches: dict   # source name -> trunk forward cache
    head_caches: dict    # source name -> whatever its head's generate() returned


class Hypernet:
    """Generates and backpropagates through all mainnet parameters.

    ``sources`` maps each source name (``"w"``, ``"b"``, ``emb.c<i>``) to its
    ``Source``, and ``heads`` lists their heads in the same order; trunk_g
    never shares trunk_h's arrays. ``grad``, the gradient vector laid out
    like ``flat``, is None until the first ``backward``.
    """

    def __init__(self, mspec: MainnetSpec, hspec: HypernetSpec, rng: Rng):
        self.mspec = mspec
        self.hspec = hspec
        d_e = hspec.embedding_dim
        bias_layers = [t for t, l in enumerate(mspec.layers)
                       if l.bias_source == GENERATED_BIAS]
        if hspec.generates_bias != bool(bias_layers):
            raise SpecError("generates_bias flag disagrees with the layer bias sources")
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
            by_head = {}   # one head per target, or per same-size group when shared
            for t in targets:
                by_head.setdefault(slot.shape(mspec.layers[t]) if shared else t, []).append(t)
            heads = [LinearHead(slot, f"{slot.tag}g{i}", ts, [targets.index(t) for t in ts],
                                mspec, trunk.out_dim) for i, ts in enumerate(by_head.values())]
            if heads:
                self.sources[slot.tag] = Source(trunk, SlotBank(slot, heads),
                                                [f"emb.{slot.tag}{t}" for t in targets],
                                                [(d_e,)] * len(targets), targets)
        if chunk_targets:   # cg<n> follows the per-layer heads wg0 .. wg<n-1>
            head = ChunkedHeadGroup(len(plain_targets), chunk_targets, mspec, hspec.chunk, d_e)
            self.sources[head.source] = Source(
                Trunk(None, d_e, (), hspec.trunk_activation), head, [head.source],
                [(head.n_chunks, d_e)], [t for t, _, _ in head.index])
        self.heads = [src.head for src in self.sources.values()]
        self._heads_by_target = {(h.slot.param, t): h for head in self.heads
                                 for h in head.heads for t in h.targets}
        self._allocate()
        self.grad = None

        dist = hspec.embedding_distribution
        erng = rng.child(0)
        for src in self.sources.values():
            e = sample(dist, src.block.shape, erng)
            if hspec.normalize_embeddings and dist.variance > 0:
                # Pin each embedding's empirical second moment to the declared
                # variance, so head-variance checks see the formula rather than
                # the luck of one finite draw.
                m2 = np.mean(np.square(e), axis=-1, keepdims=True)
                e = e * np.sqrt(dist.variance / m2)
            src.block[...] = e

    # ---- parameter access -------------------------------------------------

    def _parts(self):
        """Every part laid out in ``flat``, in layout order."""
        return self.trunks + self.heads + list(self.sources.values())

    def _allocate(self):
        """Lay the parts out back to back in ``self.flat``: trunks, then each
        source's head, then each source's embedding block, so the updatable
        arrays come first. The buffer is allocated once, each part binds
        itself to its segment, and ``param_arrays`` keeps the layout order."""
        lo = 0
        for part in self._parts():
            part.span = slice(lo, lo + part.size)
            lo = part.span.stop
        self.flat = np.zeros(lo, dtype=DTYPE)
        self._arrays = {}
        for part in self._parts():
            self._arrays.update(part.bind(self.flat))
        self.n_updatable = lo if self.hspec.embeddings_trainable else self.heads[-1].span.stop

    def param_arrays(self):
        """Flat name -> array view of every parameter, embeddings included."""
        return dict(self._arrays)

    def grad_arrays(self):
        """Flat name -> array view of ``grad``, keyed like ``param_arrays``."""
        return {k: v for part in self._parts() for k, v in part.named(self.grad).items()}

    # ---- initialization ---------------------------------------------------

    def geometry(self, t):
        """Fan geometry of the generator heads targeting mainnet layer t."""
        layer = self.mspec.layers[t]
        var_e = self.hspec.embedding_distribution.variance
        b_head = self.head_of(t, BIAS.param)
        d_l, var_e2 = (b_head.d_in, var_e) if b_head else (1, 1.0)
        return FanGeometry(d_i=layer.d_out, d_j=layer.d_in, d_k=self.head_of(t).d_in, d_l=d_l,
                           var_e1=var_e, var_e2=var_e2, receptive_field=layer.receptive_field)

    def head_of(self, t, param=WEIGHT.param):
        """The head generating ``param`` ("W" or "b") of mainnet layer t, or None:
        a ``LinearHead`` or a ``ChunkedHeadGroup``."""
        return self._heads_by_target.get((param, t))

    def layer_scheme(self, scheme, t):
        layer = self.mspec.layers[t]
        return scheme.with_flags(
            relu_gain=scheme.relu_gain and layer.activation == RELU,
            hypernet_bias=layer.bias_source == GENERATED_BIAS)

    def initialize(self, scheme: InitScheme, rng: Rng):
        """Sample every hypernet parameter according to the scheme.

        Trunks receive fan-in init with their own activation's gain (the
        baselines override this: small-random draws everything at its
        baseline scale squared, classical schemes apply their formula to each
        trunk matrix as well). Heads receive the scheme's weight/bias variance
        on their target geometry; beta and gamma start at zero. Every draw is
        uniform, in one order: trunks, weight heads, bias heads.
        """
        def draw(var, shape):
            return sample(Distribution(UNIFORM, var), shape, rng)

        for trunk in self.trunks:
            trunk_relu = scheme.relu_gain and trunk.activation == RELU
            for w, b in zip(trunk.weights, trunk.biases):
                if scheme.kind == schemes.SMALL_RANDOM:
                    var = schemes.BASELINE_SCALE[scheme.kind] ** 2
                    b[:] = draw(var, b.shape)
                else:
                    var = schemes.classical_variance(
                        _classical_kind(scheme),
                        FanGeometry(d_i=w.shape[0], d_j=w.shape[1], d_k=1), trunk_relu)
                    b[:] = 0.0
                w[:] = draw(var, w.shape)

        for head in sorted(self.heads, key=lambda head: head.slot is BIAS):
            head.initialize(self, scheme, draw)

        if scheme.kind == schemes.CONST_EMBEDDING:
            for src in self.sources.values():
                for row, t in zip(src.block, src.targets):
                    row[:] = self.mspec.layers[t].fan_in ** -0.5
        return self

    # ---- generation -------------------------------------------------------

    def generate(self):
        """Produce all mainnet parameters plus the trace needed for backward."""
        params = [{"b": np.zeros(layer.d_out, dtype=DTYPE)} for layer in self.mspec.layers]
        feats, caches, head_caches = {}, {}, {}
        for name, src in self.sources.items():
            feats[name], caches[name] = src.trunk.forward(src.block)
            head_caches[name] = src.head.generate(feats[name], params)
        return params, GenTrace(feats, caches, head_caches)

    def feature_grads(self, weight_grads):
        """dL/d(weight-head input features) keyed by layer, the one way to get
        them. A feature gradient depends only on the heads' arrays and the
        mainnet weight gradients, so it needs no ``GenTrace`` and builds no
        hypernet parameter gradient."""
        out = {}
        for head in self.heads:
            if head.slot is WEIGHT:
                out.update(head.feature_grads(weight_grads))
        return out

    def backward(self, trace: GenTrace, weight_grads, bias_grads=None):
        """Map mainnet parameter gradients to hypernet parameter gradients,
        written into ``grad``: the first call allocates it and binds each
        part's ``grads`` to it, and every call overwrites every entry."""
        if self.bias_targets and bias_grads is None:
            raise SpecError("bias gradients required: this hypernet generates biases")
        if self.grad is None:
            self.grad = np.zeros_like(self.flat)
            for part in self.trunks + self.heads:
                part.grads = part.arrays(self.grad)
        dslots = {WEIGHT.param: weight_grads, BIAS.param: bias_grads}
        for name, src in self.sources.items():
            dfeat = src.head.backward(trace.feats[name], trace.head_caches[name],
                                      dslots[src.head.slot.param])
            demb = src.trunk.backward(trace.trunk_caches[name], dfeat)
            self.grad[src.span] = demb.ravel()


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
