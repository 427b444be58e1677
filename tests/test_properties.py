"""Property tests over small random hypernets.

Each drawn case picks a head layout (per-layer, shared-same-size or chunked),
generated biases on or off, a trunk of depth 0 or 1 and fixed or trainable
embeddings. Every case
must pass the whole-pipeline finite-difference check, every chunked head
must map its chunk slots one-to-one onto weight entries, and the head-space
SGD updater, stepping from the one gradient it owns, must step exactly like
plain per-array SGD on fresh gradients.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperinit import hypergen as hg
from hyperinit import mainnet as mn
from hyperinit.gradcheck import check_pipeline
from hyperinit.init_schemes import parse_scheme
from hyperinit.tensor import Rng
from hyperinit.train import _HeadSpaceSgd as HeadSpaceSgd
from hyperinit.train import pipeline_step

from helpers import updatable_keys

# Central differences straddle a ReLU kink now and then (the chunked layout
# runs ReLU conv layers); a fixed example set keeps the suite deterministic.
CASES = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def hypernet_builds(draw):
    """(build, mainnet spec, x, y): build() returns a fresh copy of one net."""
    topology = draw(st.sampled_from(hg.TOPOLOGIES))
    bias = draw(st.booleans())
    depth = draw(st.integers(0, 1))
    emb = draw(st.integers(2, 3))
    hspec = hg.HypernetSpec(
        embedding_dim=emb,
        hidden_layers=(draw(st.integers(2, 3)),) * depth,
        trunk_activation=mn.TANH,
        embeddings_trainable=draw(st.booleans()),
        head_topology=topology,
        generates_bias=bias,
        chunk=hg.ChunkPlan(K=2, n=3) if topology == hg.CHUNKED else None)
    source = mn.GENERATED_BIAS if bias else mn.ZERO_BIAS
    rng = Rng(draw(st.integers(0, 2 ** 16)))
    if topology == hg.CHUNKED:
        channels = draw(st.lists(st.sampled_from([2, 4]), min_size=1, max_size=2))
        mspec = mn.allconv(2, channels, 2, kernel=3, bias_source=source)
        x = rng.child(5).normal(1.0, (2, 2, 4, 4))
        y = np.asarray(rng.child(6).integers(2, size=2))
    else:
        # Widths from {3, 4} give shared-same-size both shared and solo heads.
        hidden = draw(st.lists(st.sampled_from([3, 4]), min_size=1, max_size=3))
        dims = [3] + hidden + [2]
        mspec = mn.mlp(dims, activation=mn.TANH, loss=mn.MSE, bias_source=source)
        x = rng.child(5).normal(1.0, (3, dims[0]))
        y = rng.child(6).normal(1.0, (3, dims[-1]))
    scheme = parse_scheme(draw(st.sampled_from(["hyperfan-in", "hyperfan-out"])))
    return (lambda: hg.init_hypernet(hspec, mspec, scheme, rng)), mspec, x, y


hypernet_cases = hypernet_builds().map(lambda case: (case[0](),) + case[1:])


def chunked_heads(net):
    """The linear heads of a hypernet whose targets own ranges of chunk rows."""
    return [h for bank in net.heads for h in bank.heads if isinstance(h.rows[0], slice)]


@given(hypernet_cases)
@CASES
def test_pipeline_gradients_match_finite_differences(case):
    rel, _ = check_pipeline(*case)
    assert rel < 1e-5


@given(hypernet_cases)
@CASES
def test_chunk_assembly_is_a_bijection(case):
    net, mspec, _, _ = case
    assert bool(chunked_heads(net)) == (net.hspec.head_topology == hg.CHUNKED)
    for head in chunked_heads(net):
        width, n_chunks = head.n_out, head.rows[-1].stop
        marks = np.arange(n_chunks * width, dtype=float).reshape(n_chunks, width)
        for t, rows in zip(head.targets, head.rows):
            layer = mspec.layers[t]
            w = hg._assemble(marks[rows], layer.weight_shape)
            assert w.shape == layer.weight_shape
            assert sorted(w.ravel().tolist()) == marks[rows].ravel().tolist()
            np.testing.assert_array_equal(hg._disassemble(w, rows), marks[rows])


def reference_sgd_step(net, grads, lr):
    """Per-array SGD: refuse the step if any updatable gradient is non-finite."""
    arrays, keys = net.param_arrays(), updatable_keys(net)
    if not all(np.isfinite(grads[k]).all() for k in keys):
        return False
    for k in keys:
        arrays[k] -= lr * grads[k]
    return True


@given(hypernet_builds())
@CASES
def test_head_space_sgd_matches_per_array_reference(case):
    build, mspec, x, y = case
    net, ref = build(), build()
    updater = HeadSpaceSgd(net)
    for _ in range(3):
        step = pipeline_step(net, mspec, x, y, stop_on_divergence=False)
        pipeline_step(ref, mspec, x, y, stop_on_divergence=False)
        assert updater.update(step, 0.05) == reference_sgd_step(ref, ref.grad_arrays(), 0.05)
    want = ref.param_arrays()
    for key, a in net.param_arrays().items():
        np.testing.assert_array_equal(a, want[key], err_msg=key)
