"""Central-finite-difference gradient checking for the full pipeline.

Used by the test suite and by the ``grad-check`` CLI subcommand so CI can
gate on it. Errors are reported as max |analytic - numeric| / max(1, |a|, |n|)
plus the raw absolute error; both should sit many orders of magnitude below
the 1e-5 acceptance threshold on the reduced architectures checked here.
"""

import numpy as np

from .hypergen import (CHUNKED, PER_LAYER, SHARED_SAME_SIZE, ChunkPlan,
                       HypernetSpec, init_hypernet)
from .init_schemes import parse_scheme
from .mainnet import (CROSS_ENTROPY, GENERATED_BIAS, MSE, RELU, TANH, allconv,
                      forward, mlp)
from .tensor import Rng
from .train import pipeline_step


def numeric_gradient(loss_fn, arr, h=1e-5):
    """Central differences dL/d(arr), perturbing the live array in place."""
    g = np.zeros_like(arr)
    flat, gflat = arr.ravel(), g.ravel()
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        lp = loss_fn()
        flat[i] = saved - h
        lm = loss_fn()
        flat[i] = saved
        gflat[i] = (lp - lm) / (2.0 * h)
    return g


def gradient_errors(analytic, numeric):
    diff = np.abs(analytic - numeric)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((diff / denom).max()), float(diff.max())


def check_pipeline(net, mspec, x, y, h=1e-5):
    """Compare analytic vs numeric gradients for every parameter tensor."""
    def loss_fn():
        params, _ = net.generate()
        _, loss = forward(mspec, params, x, y)
        return loss

    pipeline_step(net, mspec, x, y, stop_on_divergence=False)
    arrays = net.param_arrays()
    worst_rel, worst_abs = 0.0, 0.0
    for key, grad in net.grad_arrays().items():
        numeric = numeric_gradient(loss_fn, arrays[key], h)
        rel, absolute = gradient_errors(grad, numeric)
        worst_rel = max(worst_rel, rel)
        worst_abs = max(worst_abs, absolute)
    return worst_rel, worst_abs


def _case(seed, scheme, mspec, hspec, x_shape):
    """A reduced architecture and one batch: normal inputs, and class labels
    (cross-entropy) or normal targets (MSE)."""
    rng = Rng(seed)
    net = init_hypernet(hspec, mspec, parse_scheme(scheme), rng)
    x = rng.child(5).normal(1.0, x_shape)
    n, k = x_shape[0], mspec.output_dim
    y = (np.asarray(rng.child(6).integers(k, size=n)) if mspec.loss == CROSS_ENTROPY
         else rng.child(6).normal(1.0, (n, k)))
    return net, mspec, x, y


SUITE = {
    "dense-per-layer-bias": lambda seed: _case(
        seed, "hyperfan-in",
        mlp([4, 6, 5, 3], activation=RELU, loss=MSE, bias_source=GENERATED_BIAS),
        HypernetSpec(embedding_dim=3, hidden_layers=(5,), trunk_activation=RELU,
                     embeddings_trainable=True, head_topology=PER_LAYER), (4, 4)),
    "dense-shared-head": lambda seed: _case(
        seed, "hyperfan-out", mlp([4, 6, 6, 6, 3], activation=TANH, loss=CROSS_ENTROPY),
        HypernetSpec(embedding_dim=3, head_topology=SHARED_SAME_SIZE), (4, 4)),
    "conv-chunked": lambda seed: _case(
        seed, "hyperfan-in", allconv(2, [4, 4], 3, kernel=3, strides=[1, 2]),
        HypernetSpec(embedding_dim=3, head_topology=CHUNKED, chunk=ChunkPlan(K=2, n=3),
                     embeddings_trainable=True), (3, 2, 6, 6)),
}


def run_suite(seed=7, h=1e-5):
    """Gradient-check every reduced architecture; returns {name: (rel, abs)}."""
    results = {}
    for name, builder in SUITE.items():
        net, mspec, x, y = builder(seed)
        results[name] = check_pipeline(net, mspec, x, y, h)
    return results
