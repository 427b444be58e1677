"""Hypernetwork engines: generate mainnet parameters from embeddings.

A hypernet owns embeddings, trunks (dense stacks shared by heads), and
generator heads with one interface: ``generate`` writes mainnet parameters
from input features, ``backward`` maps their gradients back. Weights and
biases share one ``LinearHead`` class (``W = H h(e) + beta``, ``b = G g(e) +
gamma``). Three head topologies are supported:

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
"""

from dataclasses import dataclass

import numpy as np

from . import init_schemes as schemes
from .init_schemes import FanGeometry, InitScheme
from .mainnet import (CONV, GENERATED_BIAS, RELU, MainnetSpec, SpecError,
                      activate, activation_grad, zero_params)
from .tensor import DTYPE, Distribution, Rng, empirical_variance, sample

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
    var_e_mode: str = "declared"   # "declared" | "empirical"
    shared_trunk: bool = False
    normalize_embeddings: bool = False

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(self.hidden_layers))
        if self.embedding_dim < 1:
            raise SpecError("embedding_dim must be positive")
        if self.head_topology not in TOPOLOGIES:
            raise SpecError(f"unknown head topology {self.head_topology!r}")
        if self.head_topology == CHUNKED and self.chunk is None:
            raise SpecError("chunked topology requires a ChunkPlan")
        if self.var_e_mode not in ("declared", "empirical"):
            raise SpecError(f"unknown var_e mode {self.var_e_mode!r}")


@dataclass
class Embedding:
    values: np.ndarray
    targets: tuple   # the mainnet layer each row of values feeds


class Trunk:
    """Dense stack mapping embeddings to head features; identity when empty."""

    def __init__(self, name, in_dim, widths, activation):
        self.name = name
        self.in_dim = in_dim
        self.widths = tuple(widths)
        self.activation = activation
        dims = (in_dim,) + self.widths
        self.weights = [np.zeros((b, a), dtype=DTYPE) for a, b in zip(dims, dims[1:])]
        self.biases = [np.zeros(b, dtype=DTYPE) for b in self.widths]

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
        xs, ys = cache
        dws = [None] * len(self.weights)
        dbs = [None] * len(self.weights)
        dx = dfeat
        for i in range(len(self.weights) - 1, -1, -1):
            dy = activation_grad(self.activation, ys[i], xs[i + 1], dx)
            dws[i] = dy.T @ xs[i]
            dbs[i] = dy.sum(axis=0)
            dx = dy @ self.weights[i]
        return dws, dbs, dx


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
        n_out = int(np.prod(self.shape))
        self.H = np.zeros((n_out, d_in), dtype=DTYPE)
        self.beta = np.zeros(n_out, dtype=DTYPE)

    def arrays(self):
        h, beta = self.slot.names
        return {f"{self.key}.{h}": self.H, f"{self.key}.{beta}": self.beta}

    def emb_key(self, t):
        return f"emb.{self.slot.tag}{t}"

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
        h, beta = self.arrays()
        grads.by_key[h] = d @ x[list(self.rows)]
        grads.by_key[beta] = d.sum(axis=1)
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
        self.H = np.zeros((k * n * n, emb_dim), dtype=DTYPE)
        self.beta = np.zeros(k * n * n, dtype=DTYPE)
        self.proj = np.zeros((self.n_chunks, emb_dim, emb_dim), dtype=DTYPE)
        self.proj_bias = np.zeros((self.n_chunks, emb_dim), dtype=DTYPE)

    def arrays(self):
        return {f"{self.key}.{name}": getattr(self, name)
                for name in ("H", "beta", "proj", "proj_bias")}

    def emb_key(self, t):
        return self.source

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
            for a in self.arrays().values():
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
        h, beta, proj, proj_bias = self.arrays()
        grads.by_key[h] = dcm.T @ alphas
        grads.by_key[beta] = dcm.sum(axis=0)
        grads.by_key[proj] = np.einsum("mp,md->mpd", dalphas, x)
        grads.by_key[proj_bias] = dalphas
        dx += np.einsum("mpd,mp->md", self.proj, dalphas)
        for t in self.targets:
            lo, hi = self.layer_rows[t]
            grads.head_feature_grads[("w", t)] = dalphas[lo:hi]


@dataclass
class GenTrace:
    """Intermediate activations of one generate() call, kept for backward."""

    feats: dict          # source name -> (rows, d) head input features
    trunk_caches: dict   # source name -> trunk forward cache
    head_caches: list    # per head, whatever its generate() returned


@dataclass
class HyperGrads:
    by_key: dict
    head_feature_grads: dict   # ("w"|"b", layer) -> dL/d(head input features)


class Hypernet:
    """Generates and backpropagates through all mainnet parameters.

    Heads read their input from named sources: ``"w"`` and ``"b"`` push the
    per-layer weight and bias embeddings through trunk_h and trunk_g, and
    each chunked head reads its own embedding matrix through an identity
    trunk.
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

        self.trunk_h = Trunk("trunk_h", d_e, hspec.hidden_layers, hspec.trunk_activation)
        self.trunk_g = (None if not bias_layers else self.trunk_h if hspec.shared_trunk
                        else Trunk("trunk_g", d_e, hspec.hidden_layers, hspec.trunk_activation))
        self.trunks = [self.trunk_h] + (
            [self.trunk_g] if self.trunk_g not in (None, self.trunk_h) else [])

        dist = hspec.embedding_distribution
        erng = rng.child(0)

        def add_embedding(key, shape, targets):
            e = sample(dist, shape, erng)
            if hspec.normalize_embeddings and dist.variance > 0:
                # Pin each embedding's empirical second moment to the declared
                # variance, so head-variance checks see the formula rather than
                # the luck of one finite draw.
                m2 = np.mean(np.square(e), axis=-1, keepdims=True)
                e = e * np.sqrt(dist.variance / m2)
            self.embeddings[key] = Embedding(e, targets)

        self.embeddings = {}
        self.sources = {}   # name -> (trunk, embedding keys stacked in order)
        groups = {}
        shared = hspec.head_topology == SHARED_SAME_SIZE
        for slot, trunk, targets in ((WEIGHT, self.trunk_h, plain_targets),
                                     (BIAS, self.trunk_g, bias_layers)):
            by_head = {}   # one head per target, or per same-size group when shared
            for t in targets:
                by_head.setdefault(slot.shape(mspec.layers[t]) if shared else t, []).append(t)
            groups[slot] = [LinearHead(slot, f"{slot.tag}g{i}", ts,
                                       [targets.index(t) for t in ts], mspec, trunk.out_dim)
                            for i, ts in enumerate(by_head.values())]
            for t in targets:
                add_embedding(f"emb.{slot.tag}{t}", d_e, (t,))
            if targets:
                self.sources[slot.tag] = (trunk, tuple(f"emb.{slot.tag}{t}" for t in targets))
        self.weight_groups = groups[WEIGHT]
        self.bias_groups = groups[BIAS]
        if chunk_targets:
            head = ChunkedHeadGroup(len(self.weight_groups), chunk_targets, mspec,
                                    hspec.chunk, d_e)
            self.weight_groups.append(head)
            add_embedding(head.source, (head.n_chunks, d_e),
                          tuple(t for t, _, _ in head.index))
            self.sources[head.source] = (Trunk(None, d_e, (), hspec.trunk_activation),
                                         (head.source,))
        self.heads = self.weight_groups + self.bias_groups
        self._heads_by_target = {(h.slot.param, t): h for h in self.heads for t in h.targets}

    # ---- parameter access -------------------------------------------------

    def param_arrays(self):
        """Flat name -> array view of every parameter, embeddings included."""
        out = {}
        for trunk in self.trunks:
            for i, (w, b) in enumerate(zip(trunk.weights, trunk.biases)):
                out[f"{trunk.name}.W{i}"] = w
                out[f"{trunk.name}.b{i}"] = b
        for head in self.heads:
            out.update(head.arrays())
        for key, emb in self.embeddings.items():
            out[key] = emb.values
        return out

    def updatable_keys(self):
        return {key for key in self.param_arrays()
                if not key.startswith("emb.") or self.hspec.embeddings_trainable}

    # ---- initialization ---------------------------------------------------

    def _var_e(self, key):
        values = self.embeddings[key].values
        if self.hspec.var_e_mode == "empirical" and values.size >= 2:
            return empirical_variance(values)
        return self.hspec.embedding_distribution.variance

    def geometry(self, t):
        """Fan geometry of the generator heads targeting mainnet layer t."""
        layer = self.mspec.layers[t]
        w_head, b_head = self.head_of(t), self.head_of(t, BIAS.param)
        var_e2, d_l = ((self._var_e(b_head.emb_key(t)), b_head.d_in) if b_head
                       else (1.0, 1))
        return FanGeometry(d_i=layer.d_out, d_j=layer.d_in, d_k=w_head.d_in, d_l=d_l,
                           var_e1=self._var_e(w_head.emb_key(t)), var_e2=var_e2,
                           receptive_field=layer.receptive_field)

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
        their target geometry; beta and gamma start at zero.
        """
        fam = scheme.family

        def draw(var, shape):
            return sample(Distribution(fam, var), shape, rng)

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
            for emb in self.embeddings.values():
                for row, t in zip(emb.values.reshape(len(emb.targets), -1), emb.targets):
                    row[:] = self.mspec.layers[t].fan_in ** -0.5
        return self

    # ---- generation -------------------------------------------------------

    def generate(self):
        """Produce all mainnet parameters plus the trace needed for backward."""
        params = zero_params(self.mspec)
        feats, caches = {}, {}
        for name, (trunk, keys) in self.sources.items():
            emb = np.concatenate([self.embeddings[k].values.reshape(-1, trunk.in_dim)
                                  for k in keys])
            feats[name], caches[name] = trunk.forward(emb)
        head_caches = [head.generate(feats[head.source], params) for head in self.heads]
        return params, GenTrace(feats, caches, head_caches)

    def backward(self, trace: GenTrace, weight_grads, bias_grads=None):
        """Map mainnet parameter gradients to hypernet parameter gradients."""
        if self.bias_targets and bias_grads is None:
            raise SpecError("bias gradients required: this hypernet generates biases")
        grads = HyperGrads(by_key={}, head_feature_grads={})
        dslots = {WEIGHT.param: weight_grads, BIAS.param: bias_grads}
        dfeats = {name: np.zeros_like(f) for name, f in trace.feats.items()}
        for head, cache in zip(self.heads, trace.head_caches):
            head.backward(trace.feats[head.source], cache, dslots[head.slot.param],
                          dfeats[head.source], grads)
        for name, (trunk, keys) in self.sources.items():
            dws, dbs, demb = trunk.backward(trace.trunk_caches[name], dfeats[name])
            for i, (dw, db) in enumerate(zip(dws, dbs)):
                # A shared trunk is reached from both sources: gradients add.
                for key, d in ((f"{trunk.name}.W{i}", dw), (f"{trunk.name}.b{i}", db)):
                    grads.by_key[key] = grads.by_key[key] + d if key in grads.by_key else d
            lo = 0
            for key in keys:
                values = self.embeddings[key].values
                hi = lo + values.size // trunk.in_dim
                grads.by_key[key] = demb[lo:hi].reshape(values.shape)
                lo = hi
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
