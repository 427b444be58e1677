import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hyperinit import hypergen as hg
from hyperinit import mainnet as mn
from hyperinit import probe
from hyperinit import train as tr
from hyperinit.init_schemes import parse_scheme
from hyperinit.tensor import Rng

from helpers import conv2d_forward, zero_params


def small_setup(scheme="hyperfan-in", width=40, depth=3, emb=8, seed=0,
                activation="identity", bias=False):
    mspec = mn.mlp([width] * (depth + 1), activation=activation, loss="mse",
                   bias_source="generated" if bias else "zero")
    hspec = hg.HypernetSpec(embedding_dim=emb,
                            head_topology=hg.SHARED_SAME_SIZE,
                            normalize_embeddings=True)
    net = hg.init_hypernet(hspec, mspec, parse_scheme(scheme), Rng(seed))
    params, _ = net.generate()
    rng = Rng(seed + 1)
    x = rng.child(0).normal(1.0, (64, width))
    y = rng.child(1).normal(1.0, (64, width))
    trace, loss = mn.forward(mspec, params, x, y)
    grads = mn.backward(mspec, params, trace, y)
    return net, mspec, params, trace, grads


class TestSnapshot:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            probe.snapshot(0, mn.ForwardTrace())

    def test_constant_activations_have_zero_variance(self):
        spec = mn.mlp([3, 2], activation="identity", loss="mse")
        params = zero_params(spec)
        trace, _ = mn.forward(spec, params, np.ones((4, 3)))
        rep = probe.snapshot(0, trace)
        for row in rep.rows:
            if row.kind in (probe.ACT, probe.PREACT):
                assert row.var == 0.0

    def test_rows_cover_expected_kinds(self):
        net, mspec, params, trace, grads = small_setup()
        rep = probe.snapshot(3, trace, params, grads,
                             head_feature_grads=net.feature_grads(grads.weight))
        kinds = rep.kinds()
        for kind in (probe.INPUT, probe.PREACT, probe.ACT, probe.WEIGHT,
                     probe.GRAD_ACT, probe.GRAD_WEIGHT,
                     probe.HEAD_FEATURE_GRAD):
            assert kind in kinds
        assert all(row.n >= 2 for row in rep.rows)
        assert all(row.step == 3 for row in rep.rows)

    def test_snapshot_is_deterministic(self):
        net, mspec, params, trace, grads = small_setup()
        r1 = probe.snapshot(0, trace, params, grads)
        r2 = probe.snapshot(0, trace, params, grads)
        for a, b in zip(r1.rows, r2.rows):
            assert (a.layer, a.kind, a.mean, a.var) == (b.layer, b.kind, b.mean, b.var)

    def test_singleton_arrays_skipped(self):
        spec = mn.mlp([3, 1], activation="identity", loss="mse")
        params = zero_params(spec)
        trace, _ = mn.forward(spec, params, np.ones((1, 3)))
        rep = probe.snapshot(0, trace)
        assert not [r for r in rep.rows if (r.layer, r.kind) == (0, probe.ACT)]  # one element


class TestPredict:
    def test_hyperfan_in_predicts_constant_activation_variance(self):
        net, mspec, *_ = small_setup("hyperfan-in", depth=4)
        pred = probe.predict(parse_scheme("hyperfan-in"), mspec, net, var_input=1.0)
        for v in pred[probe.ACT]:
            assert v == pytest.approx(1.0, rel=1e-12)

    def test_fan_in_predicts_exponential_growth(self):
        net, mspec, *_ = small_setup("fan-in", width=40, depth=3, emb=8)
        pred = probe.predict(parse_scheme("fan-in"), mspec, net, var_input=1.0)
        # Var(W) = 1 per layer under head fan-in init, so each layer
        # multiplies the variance by its width
        np.testing.assert_allclose(pred[probe.LINEAR_ACT], [40.0, 1600.0, 64000.0],
                                   rtol=1e-12)

    def test_hyperfan_out_with_bias_predicts_unit_preact(self):
        net, mspec, *_ = small_setup("hyperfan-out", depth=3, bias=True)
        pred = probe.predict(parse_scheme("hyperfan-out"), mspec, net,
                             var_input=1.0)
        for v in pred[probe.PREACT]:
            assert v == pytest.approx(1.0, rel=1e-12)


class TestCompare:
    def test_identical_values_pass(self):
        net, mspec, params, trace, grads = small_setup()
        rep = probe.snapshot(0, trace, params, grads)
        pred = probe.predict(parse_scheme("hyperfan-in"), mspec, net)
        for row in rep.rows:
            if row.kind == probe.ACT:
                row.var = pred[probe.ACT][row.layer]
        checked = probe.compare(rep, pred, band=(0.999, 1.001))
        act_rows = [r for r in checked if r.kind == probe.ACT]
        assert act_rows and all(r.passed for r in act_rows)

    def test_within_band_passes(self):
        net, mspec, params, trace, grads = small_setup()
        rep = probe.snapshot(0, trace, params, grads)
        pred = probe.predict(parse_scheme("hyperfan-in"), mspec, net)
        checked = probe.compare(rep, pred, band=(0.8, 1.25))
        assert checked and all(r.passed for r in checked)

    def test_large_mismatch_fails_with_ratio(self):
        net, mspec, params, trace, grads = small_setup("fan-in")
        rep = probe.snapshot(0, trace, params, grads)
        hyper_pred = probe.predict(parse_scheme("hyperfan-in"), mspec, net)
        checked = probe.compare(rep, hyper_pred, band=(0.8, 1.25))
        assert not all(r.passed for r in checked)
        worst = max(r.ratio for r in checked if r.ratio is not None)
        assert worst > 30  # exploding net measured against preservation theory

    def test_checks_every_row_of_a_predicted_kind(self):
        net, mspec, params, trace, grads = small_setup("hyperfan-in", activation="relu")
        rep = probe.snapshot(0, trace, params, grads,
                             linear_acts=probe.linear_activation_variances(mspec, params, trace))
        pred = probe.predict(parse_scheme("hyperfan-in"), mspec, net)
        assert sorted(pred) == sorted([probe.WEIGHT, probe.PREACT, probe.ACT, probe.LINEAR_ACT])
        assert all(len(values) == len(mspec.layers) for values in pred.values())
        checked = probe.compare(rep, pred)
        want = [r for r in rep.rows if r.kind in pred and pred[r.kind][r.layer] is not None]
        assert checked == want and None in pred[probe.ACT]   # a ReLU's ACT is not checked
        for r in checked:
            assert r.theory == pred[r.kind][r.layer]

    def test_layer_mismatch_rejected(self):
        net, mspec, params, trace, grads = small_setup(depth=3)
        net2, mspec2, *_ = small_setup(depth=2)
        rep = probe.snapshot(0, trace, params, grads)
        pred = probe.predict(parse_scheme("hyperfan-in"), mspec2, net2)
        with pytest.raises(mn.SpecError):
            probe.compare(rep, pred)


class TestRatios:
    def test_activation_ratios_near_one_for_hyperfan(self):
        net, mspec, params, trace, grads = small_setup(width=300, emb=20,
                                                          seed=3)
        ratios = probe.activation_variance_ratios(trace)
        assert all(0.7 < r < 1.4 for r in ratios)

    def test_gradient_ratio_count(self):
        # one ratio per adjacent layer pair
        net, mspec, params, trace, grads = small_setup(depth=4)
        assert len(probe.gradient_variance_ratios(grads)) == 3

    def test_a_zero_variance_gives_inf_or_nan(self):
        # over a layer of zero variance: inf, and nan when the layer above is zero too
        zero, one = np.zeros((4, 3)), np.eye(4, 3)
        trace = mn.ForwardTrace(inputs=[one], acts=[zero, zero, one])
        ratios = probe.activation_variance_ratios(trace)
        assert ratios[0] == 0.0 and np.isnan(ratios[1]) and ratios[2] == np.inf
        grads = mn.MainnetGrads(weight=[], bias=[], acts=[one, zero, zero], preacts=None)
        ratios = probe.gradient_variance_ratios(grads)
        assert ratios[0] == np.inf and np.isnan(ratios[1])


class TestLinearReplay:
    def test_replay_ignores_saturation(self):
        # tanh squashes the forward trace; the identity replay must not
        net, mspec, params, trace, grads = small_setup(
            "fan-in", width=100, activation="tanh", seed=2)
        lin = probe.linear_activation_variances(mspec, params, trace)
        assert np.var(lin[-1]) > 100 * np.var(trace.acts[-1])

    @staticmethod
    def conv_setup():
        # 150 samples: the second conv layer's windows are 128 samples, so
        # the replay's forward-only pass ends in an overlapping window
        rng = Rng(12)
        mspec = mn.MainnetSpec(layers=(
            mn.LayerSpec("conv", 2, 16, kernel=(3, 3, 1, 1), activation="relu"),
            mn.LayerSpec("conv", 16, 8, kernel=(3, 3, 2, 1), activation="tanh"),
            mn.LayerSpec("dense", 8, 3)), loss="cross-entropy")
        params = [{"W": rng.child(2 * t).normal(0.5, l.weight_shape),
                   "b": rng.child(2 * t + 1).normal(0.5, l.d_out)}
                  for t, l in enumerate(mspec.layers)]
        return mspec, params, rng.child(9).normal(1.0, (150, 2, 12, 12))

    @pytest.mark.parametrize("net", ["dense", "conv"])
    def test_replay_from_the_trace_equals_a_full_identity_replay(self, net):
        if net == "dense":
            _, mspec, params, trace, _ = small_setup(activation="tanh", seed=5)
        else:
            mspec, params, x = self.conv_setup()
            trace, _ = mn.forward(mspec, params, x)
        identity = replace(mspec, layers=tuple(replace(l, activation="identity")
                                               for l in mspec.layers))
        want, _ = mn.forward(identity, params, trace.inputs[0])
        got = probe.linear_activation_variances(mspec, params, trace)
        assert len(got) == len(want.acts)
        for a, b in zip(got, want.acts):
            np.testing.assert_array_equal(a, b)

    def test_one_layer_replay_is_the_trace_preactivation(self):
        mspec = mn.mlp([4, 3], activation="tanh", loss="mse")
        params = [{"W": Rng(1).normal(1.0, (3, 4)), "b": np.zeros(3)}]
        trace, _ = mn.forward(mspec, params, Rng(2).normal(1.0, (5, 4)))
        lin = probe.linear_activation_variances(mspec, params, trace)
        assert len(lin) == 1 and lin[0] is trace.preacts[0]


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
                    y = conv2d_forward(h, p["W"], p["b"], layer.kernel)
                else:
                    y = h.mean(axis=(2, 3)) @ p["W"].T + p["b"]
                h = mn.activate(layer.activation if activations else "identity", y)
                preacts.append(y)
                acts.append(h)
            return preacts, acts

        trace, _ = mn.forward(mspec, params, x)
        linear = probe.linear_activation_variances(mspec, params, trace)
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


class TestCifarProbeSnapshot:
    """A probe step at the probe's batch on cifar-allconv: each row is its
    array's own ``mean()`` and ``var()``, read without a copy of it."""

    @pytest.fixture(scope="class")
    def probe_batch(self):
        preset = tr.PRESETS["cifar-allconv"]
        mspec = preset.build_mainnet()
        net = hg.init_hypernet(preset.build_hspec(), mspec, parse_scheme("hyperfan-in"),
                               Rng(4))
        rng = Rng(5)
        x = rng.child(0).normal(1.0, (tr.PROBE_BATCH, 3, 32, 32))
        y = np.asarray(rng.child(1).integers(10, size=tr.PROBE_BATCH))
        step, feature_grads = tr.probe_step(net, mspec, x, y)
        linear = probe.linear_activation_variances(mspec, step.params, step.trace)
        arrays = {(-1, probe.INPUT): step.trace.inputs[0]}
        for t in range(len(mspec.layers)):
            arrays.update({(t, probe.PREACT): step.trace.preacts[t],
                           (t, probe.ACT): step.trace.acts[t],
                           (t, probe.WEIGHT): step.params[t]["W"],
                           (t, probe.BIAS): step.params[t]["b"],
                           (t, probe.GRAD_ACT): step.grads.acts[t],
                           (t, probe.GRAD_WEIGHT): step.grads.weight[t],
                           (t, probe.LINEAR_ACT): linear[t]})
        arrays.update({(t, probe.HEAD_FEATURE_GRAD): g for t, g in feature_grads.items()})
        return step, feature_grads, linear, arrays

    def snapshot(self, probe_batch):
        step, feature_grads, linear, _ = probe_batch
        return probe.snapshot(0, step.trace, step.params, step.grads,
                              head_feature_grads=feature_grads, linear_acts=linear)

    def test_each_row_is_its_arrays_mean_and_var(self, probe_batch):
        arrays = probe_batch[3]
        rows = self.snapshot(probe_batch).rows
        assert {(r.layer, r.kind) for r in rows} == set(arrays)
        for row in rows:
            a = arrays[(row.layer, row.kind)]
            assert (row.mean, row.var, row.n) == (float(a.mean()), float(a.var()), a.size), \
                (row.layer, row.kind)

    def test_the_layer_0_replay_row_is_the_preact_row(self, probe_batch):
        step, _, linear, _ = probe_batch
        assert linear[0] is step.trace.preacts[0]
        rows = {(r.layer, r.kind): r for r in self.snapshot(probe_batch).rows}
        linear_row, preact_row = rows[(0, probe.LINEAR_ACT)], rows[(0, probe.PREACT)]
        assert (linear_row.mean, linear_row.var) == (preact_row.mean, preact_row.var)

    def test_no_copy_of_an_array(self, probe_batch):
        largest = max(a.nbytes for a in probe_batch[3].values())
        tracemalloc.start()
        try:
            self.snapshot(probe_batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < largest / 2


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        net, mspec, params, trace, grads = small_setup()
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
        net, mspec, params, trace, grads = small_setup()
        rep = probe.snapshot(0, trace, params, grads)
        path = tmp_path / "probe.csv"
        probe.write_csv(path, [rep])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,layer,kind,mean,var,theory,ratio"
        assert len(lines) == len(rep.rows) + 1
