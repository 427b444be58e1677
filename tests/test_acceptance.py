"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The desk-scale training criteria (8-10) synthesize datasets in the
real on-disk formats (IDX, CIFAR binary) and load them through the real
loaders; the qualitative claims they check are dataset-agnostic.
"""

from dataclasses import replace

import numpy as np
import pytest

from hyperinit import data as dt
from hyperinit import hypergen as hg
from hyperinit import init_schemes as s
from hyperinit import mainnet as mn
from hyperinit import probe
from hyperinit import train as tr
from hyperinit.gradcheck import run_suite
from hyperinit.init_schemes import parse_scheme
from hyperinit.tensor import Rng, sample

from helpers import empirical_variance, write_cifar10_binary


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def geom(d_i, d_j, d_k, d_l=1, v1=1.0, v2=1.0, r=1):
    return s.FanGeometry(d_i=d_i, d_j=d_j, d_k=d_k, d_l=d_l,
                         var_e1=v1, var_e2=v2, receptive_field=r)


@pytest.fixture(scope="module")
def mnist_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("mnist")
    train_ds, test_ds = dt.make_synthetic_images(10000, 2000, (28, 28), 10,
                                                 seed=123)
    dt.write_idx(root / "train-images-idx3-ubyte",
                 root / "train-labels-idx1-ubyte",
                 (train_ds.inputs * 255).astype(np.uint8),
                 train_ds.labels.astype(np.uint8))
    dt.write_idx(root / "t10k-images-idx3-ubyte",
                 root / "t10k-labels-idx1-ubyte",
                 (test_ds.inputs * 255).astype(np.uint8),
                 test_ds.labels.astype(np.uint8))
    return root


@pytest.fixture(scope="module")
def cifar_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cifar")
    train_ds, test_ds = dt.make_synthetic_images(5000, 500, (3, 32, 32), 10,
                                                 seed=321)
    write_cifar10_binary(root / "data_batch_1.bin",
                            (train_ds.inputs * 255).astype(np.uint8),
                            train_ds.labels.astype(np.uint8))
    write_cifar10_binary(root / "test_batch.bin",
                            (test_ds.inputs * 255).astype(np.uint8),
                            test_ds.labels.astype(np.uint8))
    return root


def test_c01_formula_exactness():
    """Every variance formula against hand arithmetic, 1e-15 relative."""
    cases = []
    # hyperfan-in weights: gain / (split * d_j * d_k * var_e1 * r)
    for (g, relu, hb, expect) in [
        (geom(500, 500, 50), False, False, 1 / 25000),
        (geom(500, 784, 50), True, True, 2 / (2 * 784 * 50)),
        (geom(500, 784, 50), False, True, 1 / (2 * 784 * 50)),
        (geom(1, 1, 1), False, False, 1.0),
        (geom(96, 96, 50, r=9), True, False, 2 / (96 * 50 * 9)),
        (geom(32, 64, 16, v1=2.0), False, False, 1 / (64 * 16 * 2)),
        (geom(32, 64, 16, v1=2.0), True, True, 2 / (2 * 64 * 16 * 2)),
        (geom(10, 300, 20, r=25), False, False, 1 / (300 * 20 * 25)),
        (geom(7, 11, 13), True, False, 2 / (11 * 13)),
        (geom(1000, 250, 10, v1=0.5), False, False, 1 / (250 * 10 * 0.5)),
    ]:
        got = s.hyperfan_in_weight_variance(g, relu, hb)
        cases.append(abs(got - expect) <= 1e-15 * abs(expect))
    # hyperfan-out weights: gain / (d_i * d_k * var_e1 * r)
    for (g, relu, expect) in [
        (geom(10, 500, 50), False, 1 / 500),
        (geom(500, 500, 50, v1=2.0, r=9), True, 2 / (500 * 50 * 2 * 9)),
        (geom(1, 1, 1), False, 1.0),
        (geom(64, 128, 32), True, 2 / (64 * 32)),
        (geom(96, 3, 50, r=9), True, 2 / (96 * 50 * 9)),
        (geom(300, 10, 20, v1=0.25), False, 1 / (300 * 20 * 0.25)),
        (geom(2, 9, 4), False, 1 / 8),
        (geom(17, 5, 3, v1=2.0), True, 2 / (17 * 3 * 2)),
        (geom(1000, 1, 100), False, 1 / 100000),
        (geom(10, 10, 10, v1=10.0), False, 1 / 1000),
    ]:
        got = s.hyperfan_out_weight_variance(g, relu)
        cases.append(abs(got - expect) <= 1e-15 * abs(expect))
    # hyperfan-in biases: gain / (2 * d_l * var_e2), no receptive field
    for (g, relu, expect) in [
        (geom(5, 5, 5, d_l=50), False, 1 / 100),
        (geom(5, 5, 5, d_l=50), True, 1 / 50),
        (geom(5, 5, 5, d_l=1, v2=0.5), False, 1.0),
        (geom(5, 5, 5, d_l=25, v2=2.0), False, 1 / 100),
        (geom(5, 5, 5, d_l=25, v2=2.0), True, 1 / 50),
        (geom(5, 5, 5, d_l=10, v2=0.1), False, 0.5),
        (geom(5, 5, 5, d_l=11), True, 1 / 11),
        (geom(5, 5, 5, d_l=2), False, 0.25),
        (geom(5, 5, 5, d_l=2, v2=4.0), False, 1 / 16),
        (geom(5, 5, 5, d_l=78, v2=0.9), False, 1 / (2 * 78 * 0.9)),
    ]:
        cases.append(abs(s.hyperfan_in_bias_variance(g, relu) - expect)
                     <= 1e-15 * abs(expect))
    # hyperfan-out biases: max(gain * (1 - d_j/d_i) / (d_l * var_e2), 0)
    for (g, relu, expect) in [
        (geom(500, 10, 5, d_l=50), False, 0.98 / 50),
        (geom(500, 500, 5, d_l=50), False, 0.0),
        (geom(500, 784, 5, d_l=50), False, 0.0),
        (geom(100, 50, 5, d_l=20), False, 0.5 / 20),
        (geom(100, 50, 5, d_l=20), True, 1.0 / 20),
        (geom(100, 25, 5, d_l=10, v2=3.0), False, 0.75 / 30),
        (geom(4, 1, 1, d_l=1), False, 0.75),
        (geom(4, 1, 1, d_l=1), True, 1.5),
        (geom(10, 9, 3, d_l=5, v2=0.2), False, 0.1),
        (geom(7, 7, 7, d_l=7), True, 0.0),
    ]:
        got = s.hyperfan_out_bias_variance(g, relu)
        if expect == 0.0:
            cases.append(got == 0.0)
        else:
            cases.append(abs(got - expect) <= 1e-15 * abs(expect))
    # classical formulas with receptive-field divisor and ReLU gain
    for (kind, g, relu, expect) in [
        ("fan-in", geom(10, 500, 1), False, 1 / 500),
        ("fan-in", geom(96, 96, 1, r=9), True, 2 / 864),
        ("fan-out", geom(500, 10, 1), False, 1 / 500),
        ("fan-out", geom(256, 64, 1, r=4), True, 2 / 1024),
        ("harmonic", geom(300, 100, 1), False, 1 / 200),
        ("harmonic", geom(300, 100, 1), True, 1 / 100),
        ("fan-in", geom(1, 1, 1), True, 2.0),
        ("fan-out", geom(1, 1, 1), False, 1.0),
        ("harmonic", geom(7, 7, 7), False, 1 / 7),
        ("fan-in", geom(5, 2, 3, r=25), False, 1 / 50),
    ]:
        got = s.classical_variance(kind, g, relu)
        cases.append(abs(got - expect) <= 1e-15 * abs(expect))
    report(1, all(cases), f"{len(cases)} hand-checked formula evaluations exact "
                          f"to 1e-15 relative")


def test_c02_mainnet_scale_recovery():
    """d_k * Var(H) * var_e * r recovers 1/d_j resp. 1/d_i algebraically."""
    rng = Rng(2024)
    worst = 0.0
    for _ in range(1000):
        g = geom(1 + int(rng.integers(2000)), 1 + int(rng.integers(2000)),
                 1 + int(rng.integers(500)), d_l=1 + int(rng.integers(500)),
                 v1=float(np.exp(rng.normal(1.0))),
                 v2=float(np.exp(rng.normal(1.0))),
                 r=[1, 1, 9, 25][int(rng.integers(4))])
        vin = s.hyperfan_in_weight_variance(g)
        vout = s.hyperfan_out_weight_variance(g)
        worst = max(worst,
                    abs(g.d_k * vin * g.var_e1 * g.receptive_field * g.d_j - 1.0),
                    abs(g.d_k * vout * g.var_e1 * g.receptive_field * g.d_i - 1.0))
        vw = s.hyperfan_in_weight_variance(g, hypernet_bias=True)
        vb = s.hyperfan_in_bias_variance(g)
        split = (g.d_j * g.receptive_field * g.d_k * vw * g.var_e1
                 + g.d_l * vb * g.var_e2)
        worst = max(worst, abs(split - 1.0))
    report(2, worst < 1e-13,
           f"1000 random geometries, worst identity residual {worst:.2e}")


def test_c03_sampling_fidelity():
    """10^6 samples at seed 42 land within 1% of each scheme's variance."""
    g = geom(500, 784, 50, d_l=50)
    lines = []
    ok = True
    for kind in s.ALL_KINDS:
        sch = parse_scheme(kind, relu_gain=False, hypernet_bias=True)
        target = s.scheme_weight_variance(sch, g)
        vals = sample(target, 10 ** 6, Rng(42))
        err = abs(empirical_variance(vals) - target) / target
        ok = ok and err < 0.01
        lines.append(f"{kind}={err:.4f}")
    report(3, ok, "relative errors " + " ".join(lines))


def _stack_hypernet(scheme, width=500, depth=5, d_k=50, bias=False, seed=42):
    mspec = mn.mlp([width] * (depth + 1), activation="identity", loss="mse",
                   bias_source="generated" if bias else "zero")
    hspec = hg.HypernetSpec(embedding_dim=d_k,
                            head_topology=hg.SHARED_SAME_SIZE,
                            normalize_embeddings=True)
    net = hg.init_hypernet(hspec, mspec, parse_scheme(scheme), Rng(seed))
    return net, mspec


def test_c04_explosion_vs_preservation():
    """Classical init explodes layer-by-layer; hyperfan-in preserves."""
    rng = Rng(42)
    x = rng.child(2).normal(1.0, (300, 500))

    net, mspec = _stack_hypernet("fan-in")
    head_var = float(np.var(net.head_of(0).H))
    params, _ = net.generate()
    trace, _ = mn.forward(mspec, params, x)
    ratios = probe.activation_variance_ratios(trace)
    cumulative = float(np.prod(ratios))
    explode_ok = (abs(head_var - 1 / 50) / (1 / 50) < 0.05
                  and all(250 <= r <= 1000 for r in ratios)
                  and cumulative >= 1e10)

    net_h, _ = _stack_hypernet("hyperfan-in")
    params_h, _ = net_h.generate()
    trace_h, _ = mn.forward(mspec, params_h, x)
    ratios_h = probe.activation_variance_ratios(trace_h)
    preserve_ok = all(0.8 <= r <= 1.25 for r in ratios_h)

    report(4, explode_ok and preserve_ok,
           f"fan-in head Var(H)={head_var:.5f} ratios~{np.mean(ratios):.0f} "
           f"cumulative={cumulative:.2e}; hyperfan-in ratios "
           f"{[f'{r:.3f}' for r in ratios_h]}")


def test_c05_bias_split_preserves_preactivations():
    """With weights+biases generated, Var(y) stays in [0.85, 1.15]."""
    net, mspec = _stack_hypernet("hyperfan-in", bias=True, seed=42)
    params, _ = net.generate()
    x = Rng(43).normal(1.0, (300, 500))
    trace, _ = mn.forward(mspec, params, x)
    vs = [float(np.var(y)) for y in trace.preacts]
    ok = all(0.85 <= v <= 1.15 for v in vs)
    report(5, ok, "per-layer Var(y) " + " ".join(f"{v:.3f}" for v in vs))


def test_c06_hyperfan_out_gradient_preservation():
    """Gradient variance ratios near 1; head-gradient shrink matches formula."""
    width, d_k = 500, 100
    mspec = mn.mlp([width] * 6, activation="identity", loss="mse")
    hspec = hg.HypernetSpec(embedding_dim=d_k, head_topology=hg.PER_LAYER,
                            normalize_embeddings=True)
    net = hg.init_hypernet(hspec, mspec, parse_scheme("hyperfan-out"), Rng(17))
    params, _ = net.generate()
    rng = Rng(18)
    x = rng.child(0).normal(1.0, (300, width))
    # targets with much larger variance act as an output cotangent that is
    # effectively independent of the forward chain
    y = rng.child(1).normal(30.0, (300, width))
    trace, _ = mn.forward(mspec, params, x, y)
    grads = mn.backward(mspec, params, trace, y)
    gratios = probe.gradient_variance_ratios(grads)
    ratios_ok = all(0.8 <= r <= 1.25 for r in gratios)

    # shrink measured as the head adjoint's variance transfer on an isotropic
    # weight-gradient cotangent
    dw = [rng.child(10 + t).normal(1.0, p["W"].shape)
          for t, p in enumerate(params)]
    feature_grads = net.feature_grads(dw)
    shrinks = [float(np.var(feature_grads[t]) / np.var(dw[t]))
               for t in range(len(params))]
    predicted = hg.gradient_shrink_factor(net.geometry(1))
    shrink = float(np.mean(shrinks))
    shrink_ok = abs(shrink - predicted) / predicted < 0.20
    report(6, ratios_ok and shrink_ok,
           f"grad ratios {[f'{r:.3f}' for r in gratios]}; shrink {shrink:.2f} "
           f"vs predicted {predicted:.2f}")


def test_c07_pipeline_gradient_correctness():
    """Hypernet -> mainnet -> loss matches central finite differences."""
    results = run_suite(seed=7)
    worst = max(rel for rel, _ in results.values())
    detail = " ".join(f"{k}={rel:.2e}" for k, (rel, _) in sorted(results.items()))
    report(7, worst < 1e-5, detail)


@pytest.mark.slow
def test_c08_desk_mnist(mnist_files):
    """Hyperfan runs reach 90%+; classical-on-hypernet explodes and lags."""
    results = {}
    for scheme in ("hyperfan-in", "hyperfan-out", "fan-in"):
        cfg = replace(tr.config_for("mnist-mlp"), seed=42, scheme=scheme)
        results[scheme] = tr.train("mnist-mlp", cfg, data_dir=mnist_files)
    acc_in = results["hyperfan-in"].final_metric
    acc_out = results["hyperfan-out"].final_metric
    # layer-5 variance measured on the identity-activation replay of the
    # generated weights; tanh saturation would otherwise mask the explosion
    explosion = results["fan-in"].init_linear_vars[4]
    input_var = 1.0  # inputs are standardized
    loss_m1 = results["fan-in"].epoch_train_loss[0]
    loss_in = results["hyperfan-in"].epoch_train_loss[0]
    loss_out = results["hyperfan-out"].epoch_train_loss[0]
    ok = (acc_in >= 0.90 and acc_out >= 0.90
          and not results["hyperfan-in"].diverged
          and not results["hyperfan-out"].diverged
          and explosion >= 1e6 * input_var
          and loss_m1 > loss_in and loss_m1 > loss_out)
    report(8, ok,
           f"acc(hyperfan-in)={acc_in:.3f} acc(hyperfan-out)={acc_out:.3f}; "
           f"M1 layer-5 linear var={explosion:.2e}; epoch-1 losses "
           f"M1={loss_m1:.3f} vs {loss_in:.3f}/{loss_out:.3f}")


@pytest.mark.slow
def test_c09_desk_regression():
    """Hyperfan init beats the classical baseline at its best stable lr."""
    grid = (1e-2, 1e-3, 1e-4, 1e-5)
    seeds = range(15)

    def sweep(scheme):
        best = None
        for lr in grid:
            inits, finals = [], []
            stable = True
            for seed in seeds:
                cfg = replace(tr.config_for("regression-seq"), seed=seed,
                              scheme=scheme, learning_rate=lr)
                res = tr.train("regression-seq", cfg)
                if res.diverged or len(res.task_final_losses) < 3:
                    stable = False
                    break
                inits.append(np.mean(res.task_init_losses))
                finals.append(np.mean(res.task_final_losses))
            if not stable:
                continue
            cand = (float(np.mean(finals)), float(np.mean(inits)), lr)
            if best is None or cand[0] < best[0]:
                best = cand
        return best

    base_final, base_init, base_lr = sweep("fan-in")
    in_final, in_init, in_lr = sweep("hyperfan-in")
    out_final, out_init, out_lr = sweep("hyperfan-out")
    ok = (in_init < base_init and out_init < base_init
          and in_final < base_final and out_final < base_final)
    report(9, ok,
           f"init {in_init:.2f}/{out_init:.2f} vs baseline {base_init:.2f} "
           f"(lr {base_lr:g}); final {in_final:.4f}/{out_final:.4f} vs "
           f"{base_final:.4f}")


@pytest.mark.slow
def test_c10_desk_chunked_conv(cifar_files):
    """Chunked hyperfan trains; classical-on-hypernet fails to."""
    results = {}
    for scheme in ("hyperfan-in", "hyperfan-out", "fan-in"):
        cfg = replace(tr.config_for("cifar-allconv"), seed=7, scheme=scheme)
        results[scheme] = tr.train("cifar-allconv", cfg, data_dir=cifar_files)
    ok = True
    details = []
    for scheme in ("hyperfan-in", "hyperfan-out"):
        res = results[scheme]
        final_loss = res.curve[-1][2]
        good = (not res.diverged and np.isfinite(final_loss)
                and final_loss < res.init_loss)
        ok = ok and good
        details.append(f"{scheme}: {res.init_loss:.3f}->{final_loss:.3f}")
    base = results["fan-in"]
    base_failed = base.diverged or (base.curve
                                    and base.curve[-1][2] > base.init_loss)
    ok = ok and base_failed
    details.append(
        f"fan-in diverged@{base.divergence_step}" if base.diverged
        else "fan-in ended above its initial loss")
    report(10, ok, "; ".join(details))


def test_c11_shared_head_gradient_sum():
    """Shared-head gradient equals the sum of per-layer head gradients."""
    mspec = mn.mlp([6, 9, 9, 9, 4], activation="tanh", loss="mse")
    hspec = hg.HypernetSpec(embedding_dim=5, head_topology=hg.SHARED_SAME_SIZE)
    net = hg.init_hypernet(hspec, mspec, parse_scheme("hyperfan-in"), Rng(8))
    params, trace = net.generate()
    rng = Rng(55)
    dw = [rng.child(t).normal(1.0, p["W"].shape) for t, p in enumerate(params)]
    shared = [h for h in net.heads[0].heads if len(h.targets) > 1][0]
    net.backward(trace, dw)
    full = net.grad_arrays()[shared.keys[0]].copy()
    total = np.zeros_like(full)
    for t in shared.targets:
        solo = [np.zeros_like(p["W"]) for p in params]
        solo[t] = dw[t]
        net.backward(trace, solo)
        total += net.grad_arrays()[shared.keys[0]]
    err = float(np.abs(full - total).max())
    report(11, err < 1e-12, f"max |shared - sum of per-layer| = {err:.2e} "
                            f"over {len(shared.targets)} shared layers")


def test_c12_chunk_assembly_and_variance():
    """Chunk slots are a bijection onto weight entries; Var(W) hits target."""
    # position bijection on a small grid
    mspec_small = mn.allconv(3, [4, 4], 3, kernel=1, strides=[1, 1])
    hspec_small = hg.HypernetSpec(embedding_dim=3, head_topology=hg.CHUNKED,
                                  chunk=hg.ChunkPlan(K=2, n=1))
    net = hg.Hypernet(mspec_small, hspec_small, Rng(0))
    head = net.head_of(0)   # every conv layer comes from the chunked head
    assert head.targets == (0, 1)
    bijective = True
    n_chunks = head.rows[-1].stop
    marks = np.arange(n_chunks * 2, dtype=float).reshape(n_chunks, 2)
    for t, rows in zip(head.targets, head.rows):
        w = hg._assemble(marks[rows], mspec_small.layers[t].weight_shape)
        expected = sorted(marks[rows].ravel().tolist())
        bijective = bijective and sorted(w.ravel().tolist()) == expected
        back = hg._disassemble(w, rows)
        bijective = bijective and np.array_equal(back, marks[rows])

    # generated variance over >= 1e5 entries per scheme
    layers = tuple(mn.LayerSpec("conv", 96, 96, kernel=(3, 3, 1, 1),
                                activation="identity") for _ in range(2)) + (
        mn.LayerSpec("dense", 96, 10),)
    mspec = mn.MainnetSpec(layers=layers, loss="cross-entropy")
    hspec = hg.HypernetSpec(embedding_dim=50, head_topology=hg.CHUNKED,
                            chunk=hg.ChunkPlan(K=96, n=3),
                            normalize_embeddings=True)
    details = [f"bijection={'yes' if bijective else 'NO'}"]
    var_ok = True
    for scheme, fan_of in (("hyperfan-in", "fan_in"), ("hyperfan-out", "fan_out")):
        net = hg.init_hypernet(hspec, mspec, parse_scheme(scheme), Rng(12))
        params, _ = net.generate()
        entries = np.concatenate([params[0]["W"].ravel(), params[1]["W"].ravel()])
        assert entries.size >= 10 ** 5
        target = 1 / 864  # square 96-channel 3x3 layers: fan-in == fan-out
        err = abs(float(np.var(entries)) - target) / target
        var_ok = var_ok and err < 0.05
        details.append(f"{scheme} Var(W) err={err:.3f}")
    report(12, bijective and var_ok, "; ".join(details))
