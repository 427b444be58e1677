import json

import numpy as np
import pytest

from hyperinit import hypergen as hg
from hyperinit import mainnet as mn
from hyperinit import probe
from hyperinit.init_schemes import parse_scheme
from hyperinit.tensor import Rng


def small_setup(scheme="hyperfan-in", width=40, depth=3, emb=8, seed=0,
                activation="identity", bias=False):
    mspec = mn.mlp([width] * (depth + 1), activation=activation, loss="mse",
                   bias_source="generated" if bias else "zero")
    hspec = hg.HypernetSpec(embedding_dim=emb,
                            head_topology=hg.SHARED_SAME_SIZE,
                            generates_bias=bias, normalize_embeddings=True)
    net = hg.init_hypernet(hspec, mspec, parse_scheme(scheme), Rng(seed))
    params, gtrace = net.generate()
    rng = Rng(seed + 1)
    x = rng.child(0).normal(1.0, (64, width))
    y = rng.child(1).normal(1.0, (64, width))
    trace, loss = mn.forward(mspec, params, x, y)
    grads = mn.backward(mspec, params, trace, y)
    hyper = net.backward(gtrace, grads.weight, grads.bias if bias else None)
    return net, mspec, params, trace, grads, hyper


class TestSnapshot:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            probe.snapshot(0, mn.ForwardTrace())

    def test_constant_activations_have_zero_variance(self):
        spec = mn.mlp([3, 2], activation="identity", loss="mse")
        params = mn.zero_params(spec)
        trace, _ = mn.forward(spec, params, np.ones((4, 3)))
        rep = probe.snapshot(0, trace)
        for row in rep.rows:
            if row.kind in (probe.ACT, probe.PREACT):
                assert row.var == 0.0

    def test_rows_cover_expected_kinds(self):
        net, mspec, params, trace, grads, hyper = small_setup()
        rep = probe.snapshot(3, trace, params, grads,
                             head_feature_grads=hyper.head_feature_grads)
        kinds = rep.kinds()
        for kind in (probe.INPUT, probe.PREACT, probe.ACT, probe.WEIGHT,
                     probe.GRAD_ACT, probe.GRAD_WEIGHT,
                     probe.HEAD_FEATURE_GRAD):
            assert kind in kinds
        assert all(row.n >= 2 for row in rep.rows)
        assert all(row.step == 3 for row in rep.rows)

    def test_snapshot_is_deterministic(self):
        net, mspec, params, trace, grads, hyper = small_setup()
        r1 = probe.snapshot(0, trace, params, grads)
        r2 = probe.snapshot(0, trace, params, grads)
        for a, b in zip(r1.rows, r2.rows):
            assert (a.layer, a.kind, a.mean, a.var) == (b.layer, b.kind, b.mean, b.var)

    def test_singleton_arrays_skipped(self):
        spec = mn.mlp([3, 1], activation="identity", loss="mse")
        params = mn.zero_params(spec)
        trace, _ = mn.forward(spec, params, np.ones((1, 3)))
        rep = probe.snapshot(0, trace)
        assert rep.find(0, probe.ACT) is None  # one element only


class TestPredict:
    def test_hyperfan_in_predicts_constant_activation_variance(self):
        net, mspec, *_ = small_setup("hyperfan-in", depth=4)
        pred = probe.predict(parse_scheme("hyperfan-in"), mspec, net, var_input=1.0)
        for v in pred.act_var:
            assert v == pytest.approx(1.0, rel=1e-12)

    def test_fan_in_predicts_exponential_growth(self):
        net, mspec, *_ = small_setup("fan-in", width=40, depth=3, emb=8)
        pred = probe.predict(parse_scheme("fan-in"), mspec, net, var_input=1.0)
        # Var(W) = 1 per layer under head fan-in init, so each layer
        # multiplies the variance by its width
        np.testing.assert_allclose(pred.linear_var, [40.0, 1600.0, 64000.0],
                                   rtol=1e-12)

    def test_hyperfan_out_with_bias_predicts_unit_preact(self):
        net, mspec, *_ = small_setup("hyperfan-out", depth=3, bias=True)
        pred = probe.predict(parse_scheme("hyperfan-out"), mspec, net,
                             var_input=1.0)
        for v in pred.preact_var:
            assert v == pytest.approx(1.0, rel=1e-12)

    def test_grad_shrink_per_layer(self):
        net, mspec, *_ = small_setup(width=40, emb=8)
        pred = probe.predict(parse_scheme("hyperfan-in"), mspec, net)
        assert pred.grad_shrink[0] == pytest.approx(40 / 8)


class TestCompare:
    def test_identical_values_pass(self):
        net, mspec, params, trace, grads, hyper = small_setup()
        rep = probe.snapshot(0, trace, params, grads)
        pred = probe.predict(parse_scheme("hyperfan-in"), mspec, net)
        for row in rep.rows:
            if row.kind == probe.ACT:
                row.var = pred.act_var[row.layer]
        comp = probe.compare(rep, pred, band=(0.999, 1.001))
        act_rows = [r for r in comp.rows if r.kind == probe.ACT]
        assert act_rows and all(r.passed for r in act_rows)

    def test_within_band_passes(self):
        net, mspec, params, trace, grads, _ = small_setup()
        rep = probe.snapshot(0, trace, params, grads)
        pred = probe.predict(parse_scheme("hyperfan-in"), mspec, net)
        comp = probe.compare(rep, pred, band=(0.8, 1.25))
        assert comp.all_passed

    def test_large_mismatch_fails_with_ratio(self):
        net, mspec, params, trace, grads, _ = small_setup("fan-in")
        rep = probe.snapshot(0, trace, params, grads)
        hyper_pred = probe.predict(parse_scheme("hyperfan-in"), mspec, net)
        comp = probe.compare(rep, hyper_pred, band=(0.8, 1.25))
        assert not comp.all_passed
        worst = max(r.ratio for r in comp.rows if r.ratio is not None)
        assert worst > 30  # exploding net measured against preservation theory

    def test_layer_mismatch_rejected(self):
        net, mspec, params, trace, grads, _ = small_setup(depth=3)
        net2, mspec2, *_ = small_setup(depth=2)
        rep = probe.snapshot(0, trace, params, grads)
        pred = probe.predict(parse_scheme("hyperfan-in"), mspec2, net2)
        with pytest.raises(mn.SpecError):
            probe.compare(rep, pred)


class TestRatios:
    def test_activation_ratios_near_one_for_hyperfan(self):
        net, mspec, params, trace, grads, _ = small_setup(width=300, emb=20,
                                                          seed=3)
        ratios = probe.activation_variance_ratios(trace)
        assert all(0.7 < r < 1.4 for r in ratios)

    def test_gradient_ratio_count(self):
        # one ratio per adjacent layer pair
        net, mspec, params, trace, grads, _ = small_setup(depth=4)
        assert len(probe.gradient_variance_ratios(grads)) == 3


class TestLinearReplay:
    def test_replay_ignores_saturation(self):
        # tanh squashes the forward trace; the identity replay must not
        net, mspec, params, trace, grads, _ = small_setup(
            "fan-in", width=100, activation="tanh", seed=2)
        x = Rng(9).normal(1.0, (32, 100))
        lin = probe.linear_activation_variances(mspec, params, x)
        assert np.var(lin[-1]) > 100 * np.var(trace.acts[-1])


class TestConvLayout:
    def test_rows_match_nchw_reference_activations(self):
        # the probe's per-layer statistics do not depend on the memory
        # layout the mainnet keeps its conv activations in
        rng = Rng(4)
        mspec = mn.MainnetSpec(layers=(
            mn.LayerSpec("conv", 2, 3, kernel=(3, 3, 1, 1), activation="relu"),
            mn.LayerSpec("conv", 3, 4, kernel=(3, 3, 2, 1), activation="tanh"),
            mn.LayerSpec("dense", 4, 3)), loss="cross-entropy")
        params = [{"W": rng.child(2 * t).normal(0.5, l.weight_shape),
                   "b": rng.child(2 * t + 1).normal(0.5, l.d_out)}
                  for t, l in enumerate(mspec.layers)]
        x = rng.child(9).normal(1.0, (3, 2, 5, 7))

        def reference(activations):
            preacts, acts, h = [], [], x
            for layer, p in zip(mspec.layers, params):
                if layer.kind == "conv":
                    y = mn.conv2d_forward(h, p["W"], p["b"], layer.kernel)
                else:
                    y = h.mean(axis=(2, 3)) @ p["W"].T + p["b"]
                h = mn.activate(layer.activation if activations else "identity", y)
                preacts.append(y)
                acts.append(h)
            return preacts, acts

        trace, _ = mn.forward(mspec, params, x)
        linear = probe.linear_activation_variances(mspec, params, x)
        rows = {(r.kind, r.layer): r
                for r in probe.snapshot(0, trace, linear_acts=linear).rows}
        preacts, acts = reference(True)
        _, linear_acts = reference(False)
        for kind, arrays in ((probe.PREACT, preacts), (probe.ACT, acts),
                             (probe.LINEAR_ACT, linear_acts)):
            for t, a in enumerate(arrays):
                row = rows[(kind, t)]
                assert row.n == a.size
                assert row.mean == pytest.approx(a.mean(), rel=1e-10)
                assert row.var == pytest.approx(a.var(), rel=1e-10)


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        net, mspec, params, trace, grads, hyper = small_setup()
        rep = probe.snapshot(5, trace, params, grads)
        pred = probe.predict(parse_scheme("hyperfan-in"), mspec, net)
        probe.compare(rep, pred)
        path = tmp_path / "probe.json"
        probe.write_json(path, [rep])
        with open(path) as f:
            data = json.load(f)
        assert "5" in data
        back = probe.rows_from_dict(data)
        assert back[0].step == 5
        orig = {(r.layer, r.kind): r for r in rep.rows}
        for row in back[0].rows:
            assert row.var == pytest.approx(orig[(row.layer, row.kind)].var)

    def test_csv_columns(self, tmp_path):
        net, mspec, params, trace, grads, _ = small_setup()
        rep = probe.snapshot(0, trace, params, grads)
        path = tmp_path / "probe.csv"
        probe.write_csv(path, rep)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,layer,kind,mean,var,theory,ratio"
        assert len(lines) == len(rep.rows) + 1
