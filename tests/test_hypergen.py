import gc
import tracemalloc

import numpy as np
import pytest

from hyperinit import hypergen as hg
from hyperinit import init_schemes as s
from hyperinit import mainnet as mn
from hyperinit.gradcheck import run_suite
from hyperinit.tensor import Rng, sample

from helpers import updatable_keys


def simple_dense_net(widths, topology, scheme="hyperfan-in", emb=4, seed=0,
                     activation="tanh", bias=False, hidden=(), **hkw):
    mspec = mn.mlp(widths, activation=activation,
                   loss="mse", bias_source="generated" if bias else "zero")
    hspec = hg.HypernetSpec(embedding_dim=emb, hidden_layers=hidden,
                            head_topology=topology, **hkw)
    net = hg.init_hypernet(hspec, mspec, s.parse_scheme(scheme), Rng(seed))
    return net, mspec


class TestTopologyConstruction:
    def test_per_layer_heads(self):
        net, _ = simple_dense_net([3, 4, 4, 2], hg.PER_LAYER)
        assert len(slot_heads(net)) == 3
        assert all(len(g.targets) == 1 for g in slot_heads(net))

    def test_shared_same_size_groups_by_shape(self):
        net, _ = simple_dense_net([3, 4, 4, 4, 2], hg.SHARED_SAME_SIZE)
        sizes = sorted(len(g.targets) for g in slot_heads(net))
        assert sizes == [1, 1, 2]

    def test_shared_head_rejects_mixed_shapes(self):
        mspec = mn.mlp([3, 4, 5], activation="tanh")
        with pytest.raises(mn.SpecError):
            hg.LinearHead(hg.WEIGHT, "wg0", [0, 1], [0, 1], mspec, 4)
        with pytest.raises(mn.SpecError):   # bias widths 4 and 5 differ too
            hg.LinearHead(hg.BIAS, "bg0", [0, 1], [0, 1], mspec, 4)
        # grouping by shape never mixes sizes, so each layer here gets its own head
        net, _ = simple_dense_net([3, 4, 5], hg.SHARED_SAME_SIZE)
        assert all(len(g.targets) == 1 for g in slot_heads(net))

    def test_chunked_requires_plan(self):
        with pytest.raises(mn.SpecError):
            hg.HypernetSpec(head_topology=hg.CHUNKED)

    def test_embedding_variance_must_be_finite_and_positive(self):
        for v in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(mn.SpecError):
                hg.HypernetSpec(embedding_variance=v)

    def test_chunk_divisibility_checked_at_construction(self):
        mspec = mn.allconv(3, [5], 2, kernel=3)   # 5 % 2 != 0
        hspec = hg.HypernetSpec(embedding_dim=3, head_topology=hg.CHUNKED,
                                chunk=hg.ChunkPlan(K=2, n=3))
        with pytest.raises(mn.SpecError):
            hg.Hypernet(mspec, hspec, Rng(0))

    def test_chunk_kernel_side_checked(self):
        mspec = mn.allconv(3, [4], 2, kernel=5)
        hspec = hg.HypernetSpec(embedding_dim=3, head_topology=hg.CHUNKED,
                                chunk=hg.ChunkPlan(K=2, n=3))
        with pytest.raises(mn.SpecError):
            hg.Hypernet(mspec, hspec, Rng(0))


class TestGenerate:
    def test_identity_trunk_hand_example(self):
        # h = identity, H manual, e = ones: W entries are row sums of H
        net, mspec = simple_dense_net([2, 2, 2], hg.PER_LAYER, emb=2)
        g = net.head_of(0)
        g.H[:] = np.arange(8.0).reshape(4, 2)
        g.beta[:] = 0.0
        net.param_arrays()["emb.w0"][:] = 1.0
        params, _ = net.generate()
        np.testing.assert_allclose(params[0]["W"].ravel(), g.H.sum(axis=1))

    def test_beta_gamma_zero_at_init(self):
        net, _ = simple_dense_net([3, 4, 4, 2], hg.SHARED_SAME_SIZE, bias=True)
        arrays = net.param_arrays()
        for gi in range(len(slot_heads(net))):
            assert not arrays[f"wg{gi}.beta"].any()
        for gi, g in enumerate(slot_heads(net, hg.BIAS)):
            assert same_view(arrays[f"bg{gi}.gamma"], g.beta)
            assert not g.beta.any()

    def test_ungenerated_biases_are_zero(self):
        net, _ = simple_dense_net([3, 4, 2], hg.PER_LAYER)
        params, _ = net.generate()
        assert not params[0]["b"].any()
        assert not params[1]["b"].any()

    def test_generation_is_idempotent(self):
        net, _ = simple_dense_net([3, 4, 4, 2], hg.SHARED_SAME_SIZE)
        p1, _ = net.generate()
        p2, _ = net.generate()
        for a, b in zip(p1, p2):
            np.testing.assert_array_equal(a["W"], b["W"])
            np.testing.assert_array_equal(a["b"], b["b"])

    def test_hyperfan_in_generated_weight_variance(self):
        # d_j = 500, d_k = 50: Var(W) should land within 2% of 1/500
        mspec = mn.mlp([500, 2000], activation="identity", loss="mse")
        hspec = hg.HypernetSpec(embedding_dim=50, head_topology=hg.PER_LAYER,
                                normalize_embeddings=True)
        net = hg.init_hypernet(hspec, mspec, s.parse_scheme("hyperfan-in"), Rng(3))
        params, _ = net.generate()
        var = np.var(params[0]["W"])    # 10^6 generated entries
        assert var == pytest.approx(1 / 500, rel=0.02)

    @pytest.mark.parametrize("scheme", ["hyperfan-in", "hyperfan-out"])
    def test_declared_embedding_variance_reaches_the_generated_weights(self, scheme):
        # the head formulas divide by the declared Var(e); embeddings of
        # variance 0.25 must still land the weights on the classical target
        mspec = mn.mlp([500, 2000], activation="identity", loss="mse")
        hspec = hg.HypernetSpec(embedding_dim=50, head_topology=hg.PER_LAYER,
                                embedding_variance=0.25, normalize_embeddings=True)
        sch = s.parse_scheme(scheme)
        net = hg.init_hypernet(hspec, mspec, sch, Rng(3))
        geom = net.geometry(0)
        assert geom.var_e1 == 0.25
        params, _ = net.generate()
        want = s.generated_weight_variance(net.layer_scheme(sch, 0), geom)
        assert want == pytest.approx(1 / 500 if scheme == "hyperfan-in" else 1 / 2000)
        assert np.var(params[0]["W"]) == pytest.approx(want, rel=0.02)

    def test_fan_in_on_head_is_width_independent(self):
        net, mspec = simple_dense_net([784, 500, 10], hg.PER_LAYER,
                                      scheme="fan-in", emb=50,
                                      activation="identity")
        for g in slot_heads(net):
            assert np.var(g.H) == pytest.approx(1 / 50, rel=0.05)

    def test_hyperfan_in_head_variance_for_first_layer(self):
        # 784 -> 500 generated from 50 features: Var(H) = 1/(784 * 50)
        net, _ = simple_dense_net([784, 500, 10], hg.PER_LAYER,
                                  scheme="hyperfan-in", emb=50,
                                  activation="identity")
        head = net.head_of(0)
        assert np.var(head.H) == pytest.approx(1 / 39200, rel=2e-3)
        assert 1 / 39200 == pytest.approx(2.551e-5, rel=1e-3)


class TestChunked:
    def make(self, seed=0, scheme="hyperfan-in"):
        mspec = mn.allconv(3, [4, 4], 3, kernel=1, strides=[1, 1])
        hspec = hg.HypernetSpec(embedding_dim=3, head_topology=hg.CHUNKED,
                                chunk=hg.ChunkPlan(K=2, n=1))
        net = hg.init_hypernet(hspec, mspec, s.parse_scheme(scheme), Rng(seed))
        return net, mspec

    def test_chunk_grid_shape(self):
        net, mspec = self.make()
        head = net.head_of(0)
        # layer (4, 3, 1, 1): 2 blocks * 3 channels; layer (4, 4, 1, 1): 2 * 4
        assert len(net.sources[head.slot.tag].targets) == 6 + 8
        assert head.rows[0] == slice(0, 6)
        assert head.rows[1] == slice(6, 14)

    def test_assembly_round_trip_positions(self):
        # every weight entry maps to exactly one chunk slot
        net, mspec = self.make()
        head = net.head_of(0)
        k, n = net.hspec.chunk.K, net.hspec.chunk.n
        for t in (0, 1):
            layer = mspec.layers[t]
            rows = head.rows[t]
            m = rows.stop - rows.start
            chunk_mat = np.arange(m * k * n * n, dtype=float).reshape(m, k * n * n)
            marks = np.vstack([np.zeros((rows.start, k * n * n)), chunk_mat])
            w = hg._assemble(marks[rows], layer.weight_shape)
            seen = sorted(w.ravel().tolist())
            assert seen == sorted(chunk_mat.ravel().tolist())
            # block b, input channel c, kernel slot (u, v) comes from chunk
            # row b * d_in + c
            blocks = layer.d_out // k
            for b in range(blocks):
                for c in range(layer.d_in):
                    row = chunk_mat[b * layer.d_in + c].reshape(k, n, n)
                    np.testing.assert_array_equal(
                        w[b * k:(b + 1) * k, c], row)
            back = hg._disassemble(w, rows)
            np.testing.assert_array_equal(back, chunk_mat)

    def test_shared_output_layer_gets_plain_fan_in(self):
        mspec = mn.allconv(24, [96], 10, kernel=3)
        hspec = hg.HypernetSpec(embedding_dim=50, head_topology=hg.CHUNKED,
                                chunk=hg.ChunkPlan(K=8, n=3))
        net = hg.init_hypernet(hspec, mspec, s.parse_scheme("hyperfan-in"), Rng(2))
        head = net.head_of(0)
        # 72 x 50 entries: enough samples to pin the plain 1/d_k variance
        assert np.var(head.H) == pytest.approx(1 / head.d_in, rel=0.1)

    @pytest.mark.parametrize("scheme,target_of", [
        ("hyperfan-in", "fan_in"),
        ("hyperfan-out", "fan_out"),
    ])
    def test_generated_variance_hits_classical_target(self, scheme, target_of):
        # big enough grid for ~1e5 generated entries per layer
        mspec = mn.allconv(24, [96, 96], 10, kernel=3, strides=[1, 1])
        hspec = hg.HypernetSpec(embedding_dim=50, head_topology=hg.CHUNKED,
                                chunk=hg.ChunkPlan(K=8, n=3),
                                normalize_embeddings=True)
        net = hg.init_hypernet(hspec, mspec, s.parse_scheme(scheme, relu_gain=True),
                               Rng(12))
        params, _ = net.generate()
        for t in (0, 1):
            layer = mspec.layers[t]
            fan = layer.fan_in if target_of == "fan_in" else (
                layer.d_out * layer.receptive_field)
            target = 2.0 / fan  # ReLU gain
            assert params[t]["W"].size >= 2 * 10 ** 4
            assert np.var(params[t]["W"]) == pytest.approx(target, rel=0.05)


def chunked_net():
    mspec = mn.allconv(2, [4], 2, kernel=3)
    hspec = hg.HypernetSpec(embedding_dim=3, head_topology=hg.CHUNKED,
                            chunk=hg.ChunkPlan(K=2, n=3))
    return hg.init_hypernet(hspec, mspec, s.parse_scheme("hyperfan-in"), Rng(0))


# Nets covering each way linear heads share a slot: per-layer heads with a
# hidden trunk and generated biases, shared same-size heads with generated
# biases, and a chunked net whose dense classifier falls back to a linear head.
SLOT_BUILDS = {
    "per-layer": lambda: simple_dense_net([3, 4, 4, 2], hg.PER_LAYER, hidden=(3,),
                                          bias=True, seed=2)[0],
    "shared-same-size-bias": lambda: simple_dense_net([3, 4, 4, 4, 2], hg.SHARED_SAME_SIZE,
                                                      bias=True, seed=3)[0],
    "chunked": chunked_net,
}


def slot_heads(net, slot=hg.WEIGHT):
    """The linear heads generating one parameter, in key order: those of its
    bank, then, for weights, the chunked bank's one head."""
    return [h for bank in net.heads if bank.slot.param == slot.param for h in bank.heads]


def linear_heads(net):
    return slot_heads(net) + slot_heads(net, hg.BIAS)


def random_mainnet_grads(net, params, seed):
    rng = Rng(seed)
    dw = [rng.child(t).normal(1.0, p["W"].shape) for t, p in enumerate(params)]
    db = ([rng.child(10 + t).normal(1.0, p["b"].shape) for t, p in enumerate(params)]
          if net.bias_targets else None)
    return dw, db


def per_head_generate(net, trace):
    """Every linear head's parameters, one product per target."""
    out = {}
    for head in linear_heads(net):
        x = trace.feats[head.slot.tag]
        for t, row, shape in zip(head.targets, head.rows, head.shapes):
            out[(head.slot.param, t)] = hg._assemble(x[row] @ head.H.T + head.beta, shape)
    return out


def per_head_backward(net, trace, dw, db):
    """(head gradients by key, feature gradients by (param, layer)) of every
    linear head, computed head by head."""
    dslots = {"W": dw, "b": db}
    grads, feats = {}, {}
    for head in linear_heads(net):
        x = trace.feats[head.slot.tag]
        d = [hg._disassemble(dslots[head.slot.param][t], row)
             for t, row in zip(head.targets, head.rows)]
        rows = np.vstack(d)   # every target's rows of the slot matrix, in order
        grads[head.keys[0]] = rows.T @ np.vstack([x[row] for row in head.rows])
        grads[head.keys[1]] = rows.sum(axis=0)
        for t, dt in zip(head.targets, d):
            feats[(head.slot.param, t)] = dt @ head.H
    return grads, feats


def address(a):
    return a.__array_interface__["data"][0]


def same_view(a, b):
    """Whether two arrays view the same memory in the same layout."""
    return (address(a), a.shape, a.strides) == (address(b), b.shape, b.strides)


class TestSlotLayout:
    @pytest.mark.parametrize("build", sorted(SLOT_BUILDS))
    def test_each_slot_is_one_block_in_head_order(self, build):
        net = SLOT_BUILDS[build]()
        assert [h for bank in net.heads for h in bank.heads] == linear_heads(net)
        for bank in net.heads:
            d = bank.heads[0].d_in
            assert bank.H.shape == (bank.n_out, d) and bank.beta.shape == (bank.n_out,)
            assert bank.H.flags.c_contiguous
            assert np.shares_memory(bank.H, net.flat) and np.shares_memory(bank.beta, net.flat)
            assert address(bank.beta) == address(bank.H) + bank.H.nbytes
            row = 0
            for head in bank.heads:
                item = head.H.itemsize
                assert address(head.H) == address(bank.H) + row * d * item, head.key
                assert address(head.beta) == address(bank.beta) + row * item, head.key
                row += head.n_out
            assert row == bank.n_out

    @pytest.mark.parametrize("build", sorted(SLOT_BUILDS))
    def test_dropped_hypernet_leaves_no_reference_cycle(self, build):
        # a cycle would keep the whole flat vector alive until a full collection
        gc.collect()
        gc.disable()
        try:
            net = SLOT_BUILDS[build]()
            params, trace = net.generate()
            net.backward(trace, *random_mainnet_grads(net, params, 3))
            del net, params, trace
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("build", sorted(SLOT_BUILDS))
    def test_param_array_keys_and_identity_unchanged(self, build):
        net = SLOT_BUILDS[build]()
        arrays = net.param_arrays()
        want = [key for trunk in net.trunks for key in trunk.keys]
        want += [key for head in linear_heads(net) for key in head.keys]
        want += [key for src in net.sources.values() if isinstance(src.trunk, hg.Projection)
                 for key in src.trunk.keys]
        want += [key for src in net.sources.values() for key in src.keys]
        assert sorted(arrays) == sorted(want)
        end = address(net.flat)   # in layout order: each array starts where the last ends
        for key, a in arrays.items():
            assert address(a) == end, key
            end += a.nbytes
        assert end == address(net.flat) + net.flat.nbytes
        for head in linear_heads(net):
            assert same_view(arrays[head.keys[0]], head.H)
            assert same_view(arrays[head.keys[1]], head.beta)

    def test_head_draws_go_straight_into_the_head(self):
        scheme = s.parse_scheme("hyperfan-in")
        net, _ = simple_dense_net([5, 7, 3], hg.PER_LAYER, emb=4, seed=9)
        rng = Rng(9).child(2)   # init_hypernet's initialization stream
        for head in linear_heads(net):   # identity trunk, hyperfan-in: only H is drawn
            t = head.targets[0]
            var = head.slot.variance(net.layer_scheme(scheme, t), net.geometry(t))
            np.testing.assert_array_equal(head.H, sample(var, head.H.shape, rng))


# The initial draws of every scheme: a dense net whose ReLU trunks feed
# per-layer weight and bias heads, and a chunked net whose conv layer's
# chunks are read through a projection and whose classifier falls back to a
# per-layer head, with every bias generated.
DRAW_BUILDS = {
    "dense-trunk": lambda kind: simple_dense_net([3, 4, 4, 2], hg.PER_LAYER, scheme=kind,
                                                 activation="relu", hidden=(3,), bias=True,
                                                 seed=6)[0],
    "chunked": lambda kind: hg.init_hypernet(
        hg.HypernetSpec(embedding_dim=3, head_topology=hg.CHUNKED, chunk=hg.ChunkPlan(K=2, n=3)),
        mn.allconv(2, [4], 2, kernel=3, bias_source="generated"), s.parse_scheme(kind), Rng(6)),
}

SCALE = {"small-random": 0.01, "scaled-output": 0.1}   # the baselines' fixed scales


def classical_var(kind, d_out, d_in, gain):
    """A hypernet layer seen as a classical one: the scheme's own formula,
    fan-in for the hyperfan and baseline schemes, or small-random's scale."""
    if kind == "small-random":
        return SCALE[kind] ** 2
    return gain / {"fan-out": d_out, "harmonic": (d_in + d_out) / 2}.get(kind, d_in)


def expected_draws(net, kind):
    """(array, variance) of every initial draw, in draw order, from the
    formulas: each trunk layer's bias and weight (ReLU trunks, gain 2), then
    each weight head's H and beta (the chunked head's followed by its
    projection's rows and offsets), then each bias head's G and gamma. Under
    scaled-output only the heads are scaled down; under small-random every
    offset is drawn at its scale, otherwise it is zero. Embeddings have
    variance 1."""
    offset = SCALE[kind] ** 2 if kind == "small-random" else 0.0
    scale = SCALE[kind] ** 2 if kind == "scaled-output" else 1.0
    layers = net.mspec.layers

    def gain(layer):
        return 2.0 if layer.activation == "relu" else 1.0

    def hyperfan(t, d_k):
        """The hyperfan weight variance for layer t read from d_k features,
        or None under the other schemes."""
        layer = layers[t]
        r, d_i, d_j = layer.receptive_field, layer.d_out, layer.d_in
        split = 2.0 if layer.bias_source == "generated" else 1.0
        return {"hyperfan-in": gain(layer) / (split * d_j * d_k * r),
                "hyperfan-out": gain(layer) / (d_i * d_k * r)}.get(kind)

    out = []
    for trunk in net.trunks:
        for w, b in zip(trunk.weights, trunk.biases):
            out += [(b, offset), (w, classical_var(kind, *w.shape, 2.0))]
    for head in slot_heads(net):
        t, d_k = head.targets[0], head.d_in
        proj = net.sources[head.slot.tag].trunk
        if isinstance(proj, hg.Projection):   # the chunked head: a layer with no gain
            width = net.hspec.chunk.K * net.hspec.chunk.n ** 2
            out += [(head.H, classical_var(kind, width, d_k, 1.0) * scale), (head.beta, offset)]
            for t, rows in zip(head.targets, head.rows):
                var = hyperfan(t, d_k)
                out.append((proj.proj[rows], classical_var(kind, d_k, d_k, gain(layers[t]))
                            if var is None else var))
            out.append((proj.proj_bias, offset))
            continue
        var = hyperfan(t, d_k)
        if var is None:
            layer = layers[t]
            var = classical_var(kind, layer.d_out * layer.d_in * layer.receptive_field, d_k,
                                gain(layer)) * scale
        out += [(head.H, var), (head.beta, offset)]
    for head in slot_heads(net, hg.BIAS):
        layer, d_l = layers[head.targets[0]], head.d_in
        var = {"hyperfan-in": gain(layer) / (2 * d_l),
               "hyperfan-out": max(gain(layer) * (1 - layer.d_in / layer.d_out) / d_l, 0.0),
               }.get(kind)
        if var is None:
            var = classical_var(kind, layer.d_out, d_l, gain(layer)) * scale
        out += [(head.H, var), (head.beta, offset)]
    return out


class TestInitialDraws:
    @pytest.mark.parametrize("kind", s.ALL_KINDS)
    @pytest.mark.parametrize("build", sorted(DRAW_BUILDS))
    def test_every_draw_follows_its_rule(self, build, kind):
        net = DRAW_BUILDS[build](kind)
        rng = Rng(6).child(2)   # init_hypernet's initialization stream
        draws = expected_draws(net, kind)
        assert sum(a.size for a, _ in draws) == net.n_updatable   # every hypernet array
        for a, var in draws:
            want = sample(var, a.shape, rng)   # var 0: zeros, no draw
            np.testing.assert_array_equal(a, want)


class TestSlotPath:
    @pytest.mark.parametrize("build", sorted(SLOT_BUILDS))
    def test_generate_matches_per_head_reference(self, build):
        net = SLOT_BUILDS[build]()
        params, trace = net.generate()
        want = per_head_generate(net, trace)
        assert want
        for (param, t), w in want.items():
            np.testing.assert_allclose(params[t][param], w, rtol=1e-12)

    @pytest.mark.parametrize("build", sorted(SLOT_BUILDS))
    def test_backward_matches_per_head_reference(self, build):
        net = SLOT_BUILDS[build]()
        params, trace = net.generate()
        dw, db = random_mainnet_grads(net, params, 21)
        want, _ = per_head_backward(net, trace, dw, db)
        net.backward(trace, dw, db)
        got = net.grad_arrays()
        for key, w in want.items():
            np.testing.assert_allclose(got[key], w, rtol=1e-12, err_msg=key)

    @pytest.mark.parametrize("build", sorted(SLOT_BUILDS))
    def test_backward_overwrites_one_gradient(self, build):
        # every call writes the same vector, entry by entry, steps apart: a
        # NaN-filled gradient comes out equal to a fresh net's
        net = SLOT_BUILDS[build]()
        assert net.grad is None
        for step in range(3):
            params, trace = net.generate()
            dw, db = random_mainnet_grads(net, params, 40 + step)
            fresh = SLOT_BUILDS[build]()
            fresh.flat[:] = net.flat
            fresh.backward(fresh.generate()[1], dw, db)
            grad = net.grad
            if grad is not None:
                grad[:] = np.nan
            net.backward(trace, dw, db)
            assert step == 0 or net.grad is grad
            np.testing.assert_array_equal(net.grad, fresh.grad)
            net.flat[:net.n_updatable] -= 0.01 * net.grad[:net.n_updatable]


class TestFlatLayout:
    BUILDS = [
        lambda: simple_dense_net([3, 4, 4, 2], hg.PER_LAYER, hidden=(3,), bias=True,
                                 embeddings_trainable=True)[0],
        lambda: simple_dense_net([3, 4, 4, 2], hg.PER_LAYER, hidden=(3,), bias=True)[0],
        lambda: simple_dense_net([3, 4, 4, 2], hg.SHARED_SAME_SIZE)[0],
        chunked_net,
    ]

    @pytest.mark.parametrize("build", BUILDS)
    def test_arrays_are_views_of_one_vector_updatable_first(self, build):
        net = build()
        arrays = net.param_arrays()
        assert sum(a.size for a in arrays.values()) == net.flat.size
        for key, a in arrays.items():
            assert np.shares_memory(a, net.flat), key
        prefix = net.flat[:net.n_updatable]
        updatable = {k for k, a in arrays.items() if np.shares_memory(a, prefix)}
        assert updatable == updatable_keys(net)

    @pytest.mark.parametrize("build", BUILDS)
    def test_each_source_is_one_block_of_its_embeddings(self, build):
        net = build()
        arrays = net.param_arrays()
        covered = []
        for name, src in net.sources.items():
            lo, hi = src.span.start, src.span.stop
            assert src.block.shape == (len(src.targets), net.hspec.embedding_dim), name
            assert np.shares_memory(src.block, net.flat[lo:hi]), name
            assert src.block.size == hi - lo, name
            inside = {k for k, a in arrays.items() if np.shares_memory(a, src.block)}
            assert inside == set(src.keys), name
            covered += src.keys
        assert sorted(covered) == sorted(k for k in arrays if k.startswith("emb."))

    def test_gradients_share_the_layout(self):
        net, _ = simple_dense_net([3, 4, 2], hg.PER_LAYER, hidden=(3,), bias=True)
        params, trace = net.generate()
        net.backward(trace, [np.ones_like(p["W"]) for p in params],
                     [np.ones_like(p["b"]) for p in params])
        assert net.grad.shape == net.flat.shape
        arrays, grads = net.param_arrays(), net.grad_arrays()
        assert grads.keys() == arrays.keys()
        for key, g in grads.items():
            assert g.shape == arrays[key].shape
            assert address(g) - address(net.grad) == address(arrays[key]) - address(net.flat)


class TestBackwardGenerate:
    def test_zero_grads_give_zero_hypernet_grads(self):
        net, mspec = simple_dense_net([3, 4, 4, 2], hg.SHARED_SAME_SIZE, bias=True)
        params, trace = net.generate()
        dw = [np.zeros_like(p["W"]) for p in params]
        db = [np.zeros_like(p["b"]) for p in params]
        net.backward(trace, dw, db)
        assert not net.grad.any()

    def test_identity_trunk_head_gradient_is_outer_product(self):
        net, mspec = simple_dense_net([2, 2, 2], hg.PER_LAYER, emb=2)
        params, trace = net.generate()
        dw = [np.zeros_like(p["W"]) for p in params]
        dw[0] = np.array([[1.0, 2.0], [3.0, 4.0]])
        net.backward(trace, dw)
        e = net.param_arrays()["emb.w0"]
        np.testing.assert_allclose(net.grad_arrays()["wg0.H"],
                                   np.outer(dw[0].ravel(), e))
        np.testing.assert_allclose(net.grad_arrays()["wg0.beta"], dw[0].ravel())

    def test_adjoint_dot_product_identity(self):
        # <dW, A dH> == <A^T dW, dH> for the linear map H -> W
        net, mspec = simple_dense_net([3, 5, 5, 2], hg.SHARED_SAME_SIZE, seed=4)
        params, trace = net.generate()
        rng = Rng(99)
        group = net.head_of(0)
        dh = rng.child(0).normal(1.0, group.H.shape)
        dw = [rng.child(1 + t).normal(1.0, p["W"].shape)
              for t, p in enumerate(params)]
        # forward direction: perturb H, see the induced W motion
        group.H += dh
        params2, _ = net.generate()
        group.H -= dh
        lhs = sum(float(np.vdot(dw[t], params2[t]["W"] - params[t]["W"]))
                  for t in group.targets)
        net.backward(trace, dw)
        rhs = float(np.vdot(net.grad_arrays()["wg0.H"], dh))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_shared_head_gradient_is_sum_of_per_layer_contributions(self):
        net, mspec = simple_dense_net([3, 4, 4, 4, 2], hg.SHARED_SAME_SIZE, seed=8)
        params, trace = net.generate()
        rng = Rng(55)
        dw = [rng.child(t).normal(1.0, p["W"].shape) for t, p in enumerate(params)]
        shared = [g for g in slot_heads(net) if len(g.targets) > 1][0]
        net.backward(trace, dw)
        full = net.grad_arrays()[shared.keys[0]].copy()
        total = np.zeros_like(full)
        for t in shared.targets:
            solo = [np.zeros_like(p["W"]) for p in params]
            solo[t] = dw[t]
            net.backward(trace, solo)
            total += net.grad_arrays()[shared.keys[0]]
        np.testing.assert_allclose(full, total, rtol=1e-12, atol=1e-15)

    def test_missing_bias_grads_rejected(self):
        net, _ = simple_dense_net([3, 4, 2], hg.PER_LAYER, bias=True)
        params, trace = net.generate()
        dw = [np.zeros_like(p["W"]) for p in params]
        with pytest.raises(mn.SpecError):
            net.backward(trace, dw)

    def test_feature_grads_allocate_less_than_the_slot_matrix(self):
        # heads of different widths: each target's gradient meets its own
        # head's rows, and no zero-padded (T, N) matrix is built
        net, _ = simple_dense_net([64, 256, 256, 8], hg.PER_LAYER)
        bank, = net.heads
        assert len({h.n_out for h in bank.heads}) == 3
        slot_bytes = len(bank.places) * bank.n_out * 8
        params, _ = net.generate()
        dw = [np.ones_like(p["W"]) for p in params]
        tracemalloc.start()
        try:
            got = net.feature_grads(dw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(got) == [0, 1, 2]
        assert peak < slot_bytes / 2

    @pytest.mark.parametrize("build", sorted(SLOT_BUILDS))
    def test_feature_grads_equal_backward_head_feature_grads(self, build):
        # every weight head, the chunked one too, against the per-head reference
        net = SLOT_BUILDS[build]()
        params, trace = net.generate()
        dw, db = random_mainnet_grads(net, params, 21)
        _, feats = per_head_backward(net, trace, dw, db)
        want = {t: g for (param, t), g in feats.items() if param == hg.WEIGHT.param}
        got = net.feature_grads(dw)
        assert sorted(got) == sorted(want)
        for key, g in want.items():
            np.testing.assert_allclose(got[key], g, rtol=1e-12, err_msg=str(key))


class TestPipelineGradients:
    def test_full_suite_under_1e5(self):
        results = run_suite(seed=7)
        assert set(results) == {"dense-per-layer-bias", "dense-shared-head",
                                "conv-chunked"}
        for name, (rel, _) in results.items():
            assert rel < 1e-5, f"{name}: {rel}"


class TestGradientShrink:
    def test_formula_values(self):
        g = s.FanGeometry(d_i=500, d_j=500, d_k=50)
        assert hg.gradient_shrink_factor(g) == pytest.approx(10.0)
        g2 = s.FanGeometry(d_i=64, d_j=32, d_k=32)
        assert hg.gradient_shrink_factor(g2) == pytest.approx(1.0)

    def test_adjoint_variance_transfer_matches_prediction(self):
        # push an isotropic cotangent through the head adjoint; the variance
        # ratio into the hypernet features should hit d_j / (d_k var_e)
        mspec = mn.mlp([500] * 4, activation="identity", loss="mse")
        hspec = hg.HypernetSpec(embedding_dim=100, head_topology=hg.PER_LAYER,
                                normalize_embeddings=True)
        net = hg.init_hypernet(hspec, mspec, s.parse_scheme("hyperfan-out"),
                               Rng(17))
        params, _ = net.generate()
        rng = Rng(18)
        dw = [rng.child(t).normal(1.0, p["W"].shape)
              for t, p in enumerate(params)]
        feature_grads = net.feature_grads(dw)
        pred = hg.gradient_shrink_factor(net.geometry(1))
        ratios = [np.var(feature_grads[t]) / np.var(dw[t])
                  for t in range(3)]
        assert np.mean(ratios) == pytest.approx(pred, rel=0.2)


class TestEmbeddings:
    def test_fixed_embeddings_not_updatable(self):
        net, _ = simple_dense_net([3, 4, 2], hg.PER_LAYER)
        keys = updatable_keys(net)
        assert not any(k.startswith("emb.") for k in keys)

    def test_trainable_embeddings_updatable(self):
        net, _ = simple_dense_net([3, 4, 2], hg.PER_LAYER,
                                  embeddings_trainable=True)
        keys = updatable_keys(net)
        assert any(k.startswith("emb.") for k in keys)

    def test_declared_uniform_distribution_bound(self):
        net, _ = simple_dense_net([3, 4, 2], hg.PER_LAYER, emb=64)
        e = net.param_arrays()["emb.w0"]
        assert np.abs(e).max() <= np.sqrt(3.0)

    def test_normalization_pins_second_moment(self):
        net, _ = simple_dense_net([3, 4, 2], hg.PER_LAYER, emb=64,
                                  normalize_embeddings=True)
        e = net.param_arrays()["emb.w0"]
        assert np.mean(e ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_const_embedding_overwrites_with_inverse_sqrt_fan_in(self):
        net, mspec = simple_dense_net([9, 4, 2], hg.PER_LAYER,
                                      scheme="const-embedding")
        arrays = net.param_arrays()
        np.testing.assert_allclose(arrays["emb.w0"], 1 / 3)
        np.testing.assert_allclose(arrays["emb.w1"], 1 / 2)
