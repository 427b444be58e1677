import numpy as np
import pytest

from hyperinit import hypergen as hg
from hyperinit import init_schemes as s
from hyperinit import mainnet as mn
from hyperinit.gradcheck import run_suite
from hyperinit.tensor import Distribution, Rng


def simple_dense_net(widths, topology, scheme="hyperfan-in", emb=4, seed=0,
                     activation="tanh", bias=False, hidden=(), **hkw):
    mspec = mn.mlp(widths, activation=activation,
                   loss="mse", bias_source="generated" if bias else "zero")
    hspec = hg.HypernetSpec(embedding_dim=emb, hidden_layers=hidden,
                            head_topology=topology, generates_bias=bias, **hkw)
    net = hg.init_hypernet(hspec, mspec, s.parse_scheme(scheme), Rng(seed))
    return net, mspec


class TestTopologyConstruction:
    def test_per_layer_heads(self):
        net, _ = simple_dense_net([3, 4, 4, 2], hg.PER_LAYER)
        assert len(net.weight_groups) == 3
        assert all(len(g.targets) == 1 for g in net.weight_groups)

    def test_shared_same_size_groups_by_shape(self):
        net, _ = simple_dense_net([3, 4, 4, 4, 2], hg.SHARED_SAME_SIZE)
        sizes = sorted(len(g.targets) for g in net.weight_groups)
        assert sizes == [1, 1, 2]

    def test_shared_head_rejects_mixed_shapes(self):
        mspec = mn.mlp([3, 4, 5], activation="tanh")
        with pytest.raises(mn.SpecError):
            hg.LinearHead(hg.WEIGHT, "wg0", [0, 1], [0, 1], mspec, 4)
        with pytest.raises(mn.SpecError):   # bias widths 4 and 5 differ too
            hg.LinearHead(hg.BIAS, "bg0", [0, 1], [0, 1], mspec, 4)
        # grouping by shape never mixes sizes, so each layer here gets its own head
        net, _ = simple_dense_net([3, 4, 5], hg.SHARED_SAME_SIZE)
        assert all(len(g.targets) == 1 for g in net.weight_groups)

    def test_chunked_requires_plan(self):
        with pytest.raises(mn.SpecError):
            hg.HypernetSpec(head_topology=hg.CHUNKED)

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

    def test_bias_flag_must_match_layers(self):
        mspec = mn.mlp([3, 4, 2], activation="tanh", bias_source="generated")
        hspec = hg.HypernetSpec(embedding_dim=3, generates_bias=False)
        with pytest.raises(mn.SpecError):
            hg.Hypernet(mspec, hspec, Rng(0))


class TestGenerate:
    def test_identity_trunk_hand_example(self):
        # h = identity, H manual, e = ones: W entries are row sums of H
        net, mspec = simple_dense_net([2, 2, 2], hg.PER_LAYER, emb=2)
        g = net.weight_groups[0]
        g.H[:] = np.arange(8.0).reshape(4, 2)
        g.beta[:] = 0.0
        net.param_arrays()["emb.w0"][:] = 1.0
        params, _ = net.generate()
        np.testing.assert_allclose(params[0]["W"].ravel(), g.H.sum(axis=1))

    def test_beta_gamma_zero_at_init(self):
        net, _ = simple_dense_net([3, 4, 4, 2], hg.SHARED_SAME_SIZE, bias=True)
        arrays = net.param_arrays()
        for gi in range(len(net.weight_groups)):
            assert not arrays[f"wg{gi}.beta"].any()
        for gi, g in enumerate(net.bias_groups):
            assert arrays[f"bg{gi}.gamma"] is g.beta
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
        # the head formulas divide by the declared Var(e); normal embeddings
        # of variance 0.25 must still land the weights on the classical target
        mspec = mn.mlp([500, 2000], activation="identity", loss="mse")
        hspec = hg.HypernetSpec(embedding_dim=50, head_topology=hg.PER_LAYER,
                                embedding_distribution=Distribution("normal", 0.25),
                                normalize_embeddings=True)
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
        for g in net.weight_groups:
            assert np.var(g.H) == pytest.approx(1 / 50, rel=0.05)

    def test_hyperfan_in_head_variance_for_first_layer(self):
        # 784 -> 500 generated from 50 features: Var(H) = 1/(784 * 50)
        net, _ = simple_dense_net([784, 500, 10], hg.PER_LAYER,
                                  scheme="hyperfan-in", emb=50,
                                  activation="identity")
        head = net.weight_groups[0]
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
        group = [g for g in net.weight_groups
                 if isinstance(g, hg.ChunkedHeadGroup)][0]
        # layer (4, 3, 1, 1): 2 blocks * 3 channels; layer (4, 4, 1, 1): 2 * 4
        assert group.n_chunks == 6 + 8
        assert group.layer_rows[0] == (0, 6)
        assert group.layer_rows[1] == (6, 14)

    def test_assembly_round_trip_positions(self):
        # every weight entry maps to exactly one chunk slot
        net, mspec = self.make()
        group = [g for g in net.weight_groups
                 if isinstance(g, hg.ChunkedHeadGroup)][0]
        k, n = group.plan.K, group.plan.n
        for t in (0, 1):
            layer = mspec.layers[t]
            m = group.layer_rows[t][1] - group.layer_rows[t][0]
            chunk_mat = np.arange(m * k * n * n, dtype=float).reshape(m, k * n * n)
            w = group.assemble(np.vstack([np.zeros((group.layer_rows[t][0],
                                                    k * n * n)), chunk_mat]), t, layer)
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
            back = group.disassemble(w, t, layer)
            np.testing.assert_array_equal(back, chunk_mat)

    def test_shared_output_layer_gets_plain_fan_in(self):
        mspec = mn.allconv(24, [96], 10, kernel=3)
        hspec = hg.HypernetSpec(embedding_dim=50, head_topology=hg.CHUNKED,
                                chunk=hg.ChunkPlan(K=8, n=3))
        net = hg.init_hypernet(hspec, mspec, s.parse_scheme("hyperfan-in"), Rng(2))
        group = [g for g in net.weight_groups
                 if isinstance(g, hg.ChunkedHeadGroup)][0]
        # 72 x 50 entries: enough samples to pin the plain 1/d_k variance
        assert np.var(group.H) == pytest.approx(1 / group.proj_dim, rel=0.1)

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
        assert updatable == net.updatable_keys()

    @pytest.mark.parametrize("build", BUILDS)
    def test_each_source_is_one_block_of_its_embeddings(self, build):
        net = build()
        arrays = net.param_arrays()
        covered = []
        for name, src in net.sources.items():
            lo, hi = src.span
            assert src.block.shape == (len(src.targets), net.hspec.embedding_dim), name
            assert np.shares_memory(src.block, net.flat[lo:hi]), name
            assert src.block.size == hi - lo, name
            inside = {k for k, a in arrays.items() if np.shares_memory(a, src.block)}
            assert inside == set(src.shapes), name
            covered += src.shapes
        assert sorted(covered) == sorted(k for k in arrays if k.startswith("emb."))

    def test_gradients_share_the_layout(self):
        net, _ = simple_dense_net([3, 4, 2], hg.PER_LAYER, hidden=(3,), bias=True)
        params, trace = net.generate()
        hyper = net.backward(trace, [np.ones_like(p["W"]) for p in params],
                             [np.ones_like(p["b"]) for p in params])
        assert hyper.flat.shape == net.flat.shape
        arrays = net.param_arrays()
        assert hyper.by_key.keys() == arrays.keys()
        for key, g in hyper.by_key.items():
            assert g.shape == arrays[key].shape
            offset = (g.__array_interface__["data"][0]
                      - hyper.flat.__array_interface__["data"][0])
            assert offset == (arrays[key].__array_interface__["data"][0]
                              - net.flat.__array_interface__["data"][0])


class TestBackwardGenerate:
    def test_zero_grads_give_zero_hypernet_grads(self):
        net, mspec = simple_dense_net([3, 4, 4, 2], hg.SHARED_SAME_SIZE, bias=True)
        params, trace = net.generate()
        dw = [np.zeros_like(p["W"]) for p in params]
        db = [np.zeros_like(p["b"]) for p in params]
        hyper = net.backward(trace, dw, db)
        for g in hyper.by_key.values():
            assert not np.asarray(g).any()

    def test_identity_trunk_head_gradient_is_outer_product(self):
        net, mspec = simple_dense_net([2, 2, 2], hg.PER_LAYER, emb=2)
        params, trace = net.generate()
        dw = [np.zeros_like(p["W"]) for p in params]
        dw[0] = np.array([[1.0, 2.0], [3.0, 4.0]])
        hyper = net.backward(trace, dw)
        e = net.param_arrays()["emb.w0"]
        np.testing.assert_allclose(hyper.by_key["wg0.H"],
                                   np.outer(dw[0].ravel(), e))
        np.testing.assert_allclose(hyper.by_key["wg0.beta"], dw[0].ravel())

    def test_adjoint_dot_product_identity(self):
        # <dW, A dH> == <A^T dW, dH> for the linear map H -> W
        net, mspec = simple_dense_net([3, 5, 5, 2], hg.SHARED_SAME_SIZE, seed=4)
        params, trace = net.generate()
        rng = Rng(99)
        group = net.weight_groups[0]
        dh = rng.child(0).normal(1.0, group.H.shape)
        dw = [rng.child(1 + t).normal(1.0, p["W"].shape)
              for t, p in enumerate(params)]
        # forward direction: perturb H, see the induced W motion
        group.H += dh
        params2, _ = net.generate()
        group.H -= dh
        lhs = sum(float(np.vdot(dw[t], params2[t]["W"] - params[t]["W"]))
                  for t in group.targets)
        hyper = net.backward(trace, dw)
        rhs = float(np.vdot(hyper.by_key["wg0.H"], dh))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_shared_head_gradient_is_sum_of_per_layer_contributions(self):
        net, mspec = simple_dense_net([3, 4, 4, 4, 2], hg.SHARED_SAME_SIZE, seed=8)
        params, trace = net.generate()
        rng = Rng(55)
        dw = [rng.child(t).normal(1.0, p["W"].shape) for t, p in enumerate(params)]
        shared = [g for g in net.weight_groups if len(g.targets) > 1][0]
        gi = net.weight_groups.index(shared)
        full = net.backward(trace, dw).by_key[f"wg{gi}.H"]
        total = np.zeros_like(full)
        for t in shared.targets:
            solo = [np.zeros_like(p["W"]) for p in params]
            solo[t] = dw[t]
            total += net.backward(trace, solo).by_key[f"wg{gi}.H"]
        np.testing.assert_allclose(full, total, rtol=1e-12, atol=1e-15)

    def test_each_call_returns_fresh_gradients(self):
        # callers keep by_key arrays across calls: a second call must not
        # write into the first call's arrays
        net, _ = simple_dense_net([3, 4, 4, 2], hg.SHARED_SAME_SIZE, bias=True,
                                  hidden=(3,), embeddings_trainable=True)
        params, trace = net.generate()
        rng = Rng(12)
        dw = [rng.child(t).normal(1.0, p["W"].shape) for t, p in enumerate(params)]
        db = [rng.child(10 + t).normal(1.0, p["b"].shape) for t, p in enumerate(params)]
        first = net.backward(trace, dw, db).by_key
        kept = {key: g.copy() for key, g in first.items()}
        second = net.backward(trace, [2.0 * d for d in dw], [2.0 * d for d in db]).by_key
        assert first.keys() == second.keys()
        for key, g in first.items():
            assert not np.shares_memory(g, second[key])
            np.testing.assert_array_equal(g, kept[key])

    def test_missing_bias_grads_rejected(self):
        net, _ = simple_dense_net([3, 4, 2], hg.PER_LAYER, bias=True)
        params, trace = net.generate()
        dw = [np.zeros_like(p["W"]) for p in params]
        with pytest.raises(mn.SpecError):
            net.backward(trace, dw)


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
        params, trace = net.generate()
        rng = Rng(18)
        dw = [rng.child(t).normal(1.0, p["W"].shape)
              for t, p in enumerate(params)]
        hyper = net.backward(trace, dw)
        pred = hg.gradient_shrink_factor(net.geometry(1))
        ratios = [np.var(hyper.head_feature_grads[("w", t)]) / np.var(dw[t])
                  for t in range(3)]
        assert np.mean(ratios) == pytest.approx(pred, rel=0.2)


class TestEmbeddings:
    def test_fixed_embeddings_not_updatable(self):
        net, _ = simple_dense_net([3, 4, 2], hg.PER_LAYER)
        keys = net.updatable_keys()
        assert not any(k.startswith("emb.") for k in keys)

    def test_trainable_embeddings_updatable(self):
        net, _ = simple_dense_net([3, 4, 2], hg.PER_LAYER,
                                  embeddings_trainable=True)
        keys = net.updatable_keys()
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
