"""Hypernetwork engines: generate mainnet parameters from embeddings.

A hypernet owns sources and generator heads. A source is one (rows, d_e)
block of embeddings, a row per target, read through its own trunk (a dense
stack, identity when empty): ``"w"`` through trunk_h, ``"b"`` through
trunk_g, and each chunked head's ``emb.c<i>`` through an identity trunk.
Heads share one interface: ``generate`` writes mainnet parameters from source
features, ``backward`` maps their gradients back. Weights and biases share
one ``LinearHead`` class (``W = H h(e) + beta``, ``b = G g(e) + gamma``).
Three head topologies are supported:

* ``per-layer``: every target layer gets its own linear head.
* ``shared-same-size``: layers with identical weight shapes share one head,
  each layer keeping its own embedding.
* ``chunked``: one shared output layer emits fixed-size (K, n, n) blocks of
  conv weights; each block has its own embedding and its own input
  projection, and blocks are assembled into full weight tensors in
  (output-block, input-channel) order. Layers the chunk grid cannot cover
  (e.g. a dense classifier) fall back to per-layer heads.

``backward`` pushes mainnet parameter gradients through the heads, the trunk,
and into the embeddings. For shared heads the head gradient is the sum of the
per-target contributions, which combats the usual head-gradient shrinkage.

Every hypernet array is a view into one flat float64 vector, ``Hypernet.flat``:
trunks, then heads, then each source's block, so the updatable arrays form the
prefix ``flat[:n_updatable]``. Each ``backward`` call returns a fresh gradient
vector with the same layout, so one SGD step is one check and one update.
The head formulas read the declared embedding variance, ``Var(e)``.
"""

from dataclasses import dataclass

import numpy as np

from . import init_schemes as schemes
from .init_schemes import FanGeometry, InitScheme
from .mainnet import (CONV, GENERATED_BIAS, RELU, MainnetSpec, SpecError,
                      activate, activation_grad)
from .tensor import DTYPE, UNIFORM, Distribution, Rng, sample

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


class Trunk:
    """Dense stack mapping embeddings to head features; identity when empty."""

    def __init__(self, name, in_dim, widths, activation):
        self.name = name
        self.in_dim = in_dim
        self.widths = tuple(widths)
        self.activation = activation
        self.weights, self.biases = [], []   # views set by bind()

    def shapes(self):
        dims = (self.in_dim,) + self.widths
        out = {}
        for i, (a, b) in enumerate(zip(dims, dims[1:])):
            out[f"{self.name}.W{i}"] = (b, a)
            out[f"{self.name}.b{i}"] = (b,)
        return out

    def bind(self, views):
        self.weights = [views[f"{self.name}.W{i}"] for i in range(len(self.widths))]
        self.biases = [views[f"{self.name}.b{i}"] for i in range(len(self.widths))]

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

    def backward(self, cache, dfeat, grads):
        """Write dL/d(trunk params) into ``grads``; return dL/d(embeddings)."""
        xs, ys = cache
        dx = dfeat
        for i in range(len(self.weights) - 1, -1, -1):
            dy = activation_grad(self.activation, ys[i], xs[i + 1], dx)
            np.matmul(dy.T, xs[i], out=grads.by_key[f"{self.name}.W{i}"])
            dy.sum(axis=0, out=grads.by_key[f"{self.name}.b{i}"])
            dx = dy @ self.weights[i]
        return dx


@dataclass
class Source:
    """``trunk`` over one (rows, d_e) embedding block, the view ``block`` of
    ``Hypernet.flat[span[0]:span[1]]``. Row i feeds mainnet layer
    ``targets[i]``; ``shapes`` holds the block's parameter keys in row order."""

    trunk: Trunk
    shapes: dict
    targets: tuple
    span: tuple = None
    block: np.ndarray = None


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
    """Linear map generating one slot of same-size layers: target ``targets[i]``
    gets ``H x[rows[i]] + beta`` from its source features x. A bias head's
    parameter keys call H and beta G and gamma."""

    def __init__(self, slot, key, targets, rows, mspec, d_in):
        self.slot = slot
        self.key = key
        self.source = slot.tag
        self.targets = tuple(targets)
        self.rows = tuple(rows)
        self.d_in = d_in
        shapes = {slot.shape(mspec.layers[t]) for t in self.targets}
        if len(shapes) != 1:
            raise SpecError(f"head shared across different-size layers {self.targets}; "
                            "only the chunked topology can cover mixed shapes")
        self.shape = shapes.pop()
        self.array_keys = tuple(f"{key}.{name}" for name in slot.names)

    def shapes(self):
        n_out = int(np.prod(self.shape))
        return dict(zip(self.array_keys, ((n_out, self.d_in), (n_out,))))

    def bind(self, views):
        self.H, self.beta = (views[key] for key in self.array_keys)

    def initialize(self, net, scheme, draw):
        t0 = self.targets[0]
        var = self.slot.variance(net.layer_scheme(scheme, t0), net.geometry(t0))
        self.H[:] = draw(var, self.H.shape)
        self.beta[:] = (draw(scheme.scale_param ** 2, self.beta.shape)
                        if scheme.kind == schemes.SMALL_RANDOM else 0.0)

    def generate(self, x, params):
        for t, row in zip(self.targets, self.rows):
            params[t][self.slot.param] = (self.H @ x[row] + self.beta).reshape(self.shape)

    def backward(self, x, cache, dslot, dx, grads):
        """Add dL/d(head params) to ``grads`` and dL/dx into ``dx``."""
        if len(self.targets) == 1:
            d = dslot[self.targets[0]].reshape(-1, 1)
        else:
            d = np.stack([dslot[t].ravel() for t in self.targets], axis=1)
        h, beta = (grads.by_key[key] for key in self.array_keys)
        np.matmul(d, x[list(self.rows)], out=h)
        d.sum(axis=1, out=beta)
        dfeat = (self.H.T @ d).T
        for i, (t, row) in enumerate(zip(self.targets, self.rows)):
            dx[row] += dfeat[i]
            grads.head_feature_grads[(self.slot.tag, t)] = dfeat[i]


class ChunkedHeadGroup:
    """Shared output layer over (K, n, n) chunks with per-chunk input projections.

    Chunks for a layer of shape (out, in, n, n) are indexed row-major by
    (block = out // K, input channel); the global chunk list concatenates the
    per-layer grids in target order. The head reads its own embedding matrix,
    one row per chunk.
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
        self.n_chunks = len(index)
        self.array_keys = tuple(f"{self.key}.{name}"
                                for name in ("H", "beta", "proj", "proj_bias"))

    def shapes(self):
        width, d, m = self.plan.K * self.plan.n ** 2, self.proj_dim, self.n_chunks
        return dict(zip(self.array_keys, ((width, d), (width,), (m, d, d), (m, d))))

    def bind(self, views):
        self.H, self.beta, self.proj, self.proj_bias = (views[key] for key in self.array_keys)

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
            var = scheme.scale_param ** 2
            for a in (self.H, self.beta, self.proj, self.proj_bias):
                a[:] = draw(var, a.shape)
            return
        kind = _classical_kind(scheme)
        var_h = schemes.classical_variance(
            kind, FanGeometry(d_i=k * n * n, d_j=self.proj_dim, d_k=1), False)
        if scheme.kind == schemes.SCALED_OUTPUT:
            var_h *= scheme.scale_param ** 2
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

    def backward(self, x, alphas, dslot, dx, grads):
        """Add dL/d(head params) to ``grads`` and dL/dx into ``dx``."""
        dcm = np.zeros((self.n_chunks, self.H.shape[0]), dtype=DTYPE)
        for t, layer in self.layers.items():
            lo, hi = self.layer_rows[t]
            dcm[lo:hi] = self.disassemble(dslot[t], t, layer)
        dalphas = dcm @ self.H
        h, beta, proj, proj_bias = (grads.by_key[key] for key in self.array_keys)
        np.matmul(dcm.T, alphas, out=h)
        dcm.sum(axis=0, out=beta)
        np.einsum("mp,md->mpd", dalphas, x, out=proj)
        proj_bias[...] = dalphas
        dx += np.einsum("mpd,mp->md", self.proj, dalphas)
        for t in self.targets:
            lo, hi = self.layer_rows[t]
            grads.head_feature_grads[("w", t)] = dalphas[lo:hi]


@dataclass
class GenTrace:
    """Intermediate activations of one generate() call, kept for backward.

    An identity trunk's features are its source's embedding block itself, a
    view of ``Hypernet.flat``: a trace is valid only until the next update.
    """

    feats: dict          # source name -> (rows, d) head input features
    trunk_caches: dict   # source name -> trunk forward cache
    head_caches: list    # per head, whatever its generate() returned


@dataclass
class HyperGrads:
    flat: np.ndarray           # one gradient vector laid out like Hypernet.flat
    by_key: dict               # name -> view of flat, keyed like param_arrays()
    head_feature_grads: dict   # ("w"|"b", layer) -> dL/d(head input features)


class Hypernet:
    """Generates and backpropagates through all mainnet parameters.

    ``sources`` maps each source name (``"w"``, ``"b"``, ``emb.c<i>``) to its
    ``Source``; trunk_g never shares trunk_h's arrays.
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
        groups = {BIAS: []}
        shared = hspec.head_topology == SHARED_SAME_SIZE
        for slot, trunk, targets in zip((WEIGHT, BIAS), self.trunks,
                                        (plain_targets, bias_layers)):
            by_head = {}   # one head per target, or per same-size group when shared
            for t in targets:
                by_head.setdefault(slot.shape(mspec.layers[t]) if shared else t, []).append(t)
            groups[slot] = [LinearHead(slot, f"{slot.tag}g{i}", ts,
                                       [targets.index(t) for t in ts], mspec, trunk.out_dim)
                            for i, ts in enumerate(by_head.values())]
            if targets:
                self.sources[slot.tag] = Source(
                    trunk, {f"emb.{slot.tag}{t}": (d_e,) for t in targets}, tuple(targets))
        self.weight_groups = groups[WEIGHT]
        self.bias_groups = groups[BIAS]
        if chunk_targets:
            head = ChunkedHeadGroup(len(self.weight_groups), chunk_targets, mspec,
                                    hspec.chunk, d_e)
            self.weight_groups.append(head)
            self.sources[head.source] = Source(
                Trunk(None, d_e, (), hspec.trunk_activation),
                {head.source: (head.n_chunks, d_e)}, tuple(t for t, _, _ in head.index))
        self.heads = self.weight_groups + self.bias_groups
        self._heads_by_target = {(h.slot.param, t): h for h in self.heads for t in h.targets}
        self._allocate()

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

    def _allocate(self):
        """Lay every array out in ``self.flat`` and bind its owner to a view:
        trunks, heads, then each source's embedding block, so the updatable
        arrays come first. The buffer is allocated once."""
        shapes = {}
        for part in self.trunks + self.heads:
            shapes.update(part.shapes())
        lo = n_params = sum(int(np.prod(shape)) for shape in shapes.values())
        for src in self.sources.values():
            src.span = (lo, lo + len(src.targets) * self.hspec.embedding_dim)
            lo = src.span[1]
            shapes.update(src.shapes)
        self._layout, lo = [], 0
        for key, shape in shapes.items():
            hi = lo + int(np.prod(shape))
            self._layout.append((key, lo, hi, shape))
            lo = hi
        self.flat = np.zeros(lo, dtype=DTYPE)
        self._arrays = self._views(self.flat)
        for part in self.trunks + self.heads:
            part.bind(self._arrays)
        for src in self.sources.values():
            src.block = self.flat[slice(*src.span)].reshape(len(src.targets), -1)
        self.n_updatable = self.flat.size if self.hspec.embeddings_trainable else n_params

    def _views(self, vector):
        return {key: vector[lo:hi].reshape(shape) for key, lo, hi, shape in self._layout}

    def param_arrays(self):
        """Flat name -> array view of every parameter, embeddings included."""
        return dict(self._arrays)

    def updatable_keys(self):
        return {key for key in self.param_arrays()
                if not key.startswith("emb.") or self.hspec.embeddings_trainable}

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
        """The head generating ``param`` ("W" or "b") of mainnet layer t, or None."""
        return self._heads_by_target.get((param, t))

    def layer_scheme(self, scheme, t):
        layer = self.mspec.layers[t]
        return scheme.with_flags(
            relu_gain=scheme.relu_gain and layer.activation == RELU,
            hypernet_bias=layer.bias_source == GENERATED_BIAS)

    def initialize(self, scheme: InitScheme, rng: Rng):
        """Sample every hypernet parameter according to the scheme.

        Trunks receive fan-in init with their own activation's gain (the
        baselines override this: small-random draws everything at
        scale_param^2, classical schemes apply their formula to each trunk
        matrix as well). Heads receive the scheme's weight/bias variance on
        their target geometry; beta and gamma start at zero. Every draw is
        uniform.
        """
        def draw(var, shape):
            return sample(Distribution(UNIFORM, var), shape, rng)

        for trunk in self.trunks:
            trunk_relu = scheme.relu_gain and trunk.activation == RELU
            for w, b in zip(trunk.weights, trunk.biases):
                if scheme.kind == schemes.SMALL_RANDOM:
                    var = scheme.scale_param ** 2
                    b[:] = draw(var, b.shape)
                else:
                    var = schemes.classical_variance(
                        _classical_kind(scheme),
                        FanGeometry(d_i=w.shape[0], d_j=w.shape[1], d_k=1), trunk_relu)
                    b[:] = 0.0
                w[:] = draw(var, w.shape)

        for head in self.heads:
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
        feats, caches = {}, {}
        for name, src in self.sources.items():
            feats[name], caches[name] = src.trunk.forward(src.block)
        head_caches = [head.generate(feats[head.source], params) for head in self.heads]
        return params, GenTrace(feats, caches, head_caches)

    def backward(self, trace: GenTrace, weight_grads, bias_grads=None):
        """Map mainnet parameter gradients to hypernet parameter gradients."""
        if self.bias_targets and bias_grads is None:
            raise SpecError("bias gradients required: this hypernet generates biases")
        flat = np.zeros_like(self.flat)   # fresh per call: callers keep by_key arrays
        grads = HyperGrads(flat=flat, by_key=self._views(flat), head_feature_grads={})
        dslots = {WEIGHT.param: weight_grads, BIAS.param: bias_grads}
        dfeats = {name: np.zeros_like(f) for name, f in trace.feats.items()}
        for head, cache in zip(self.heads, trace.head_caches):
            head.backward(trace.feats[head.source], cache, dslots[head.slot.param],
                          dfeats[head.source], grads)
        for name, src in self.sources.items():
            demb = src.trunk.backward(trace.trunk_caches[name], dfeats[name], grads)
            flat[slice(*src.span)] = demb.ravel()
        return grads


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
