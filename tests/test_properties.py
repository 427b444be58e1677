"""Property tests over small random hypernets.

Each drawn case picks a head layout (per-layer, shared-same-size or chunked),
generated biases on or off, a trunk of depth 0 or 1 (shared between the
weight and bias sides or not) and fixed or trainable embeddings. Every case
must pass the whole-pipeline finite-difference check, and every chunked head
must map its chunk slots one-to-one onto weight entries.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperinit import hypergen as hg
from hyperinit import mainnet as mn
from hyperinit.gradcheck import check_pipeline
from hyperinit.init_schemes import parse_scheme
from hyperinit.tensor import Rng

# Central differences straddle a ReLU kink now and then (the chunked layout
# runs ReLU conv layers); a fixed example set keeps the suite deterministic.
CASES = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def hypernet_cases(draw):
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
        chunk=hg.ChunkPlan(K=2, n=3) if topology == hg.CHUNKED else None,
        shared_trunk=bias and draw(st.booleans()))
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
    net = hg.init_hypernet(hspec, mspec, scheme, rng)
    return net, mspec, x, y


def chunked_heads(net):
    """The chunked heads of a hypernet, found through their parameter keys."""
    return [net.weight_groups[int(key[2:-2])] for key in net.param_arrays()
            if key.startswith("cg") and key.endswith(".H")]


@given(hypernet_cases())
@CASES
def test_pipeline_gradients_match_finite_differences(case):
    rel, _ = check_pipeline(*case)
    assert rel < 1e-5


@given(hypernet_cases())
@CASES
def test_chunk_assembly_is_a_bijection(case):
    net, mspec, _, _ = case
    for head in chunked_heads(net):
        width = head.H.shape[0]
        marks = np.arange(head.n_chunks * width, dtype=float).reshape(head.n_chunks, width)
        for t in head.targets:
            layer = mspec.layers[t]
            lo, hi = head.layer_rows[t]
            w = head.assemble(marks, t, layer)
            assert w.shape == layer.weight_shape
            assert sorted(w.ravel().tolist()) == marks[lo:hi].ravel().tolist()
            np.testing.assert_array_equal(head.disassemble(w, t, layer), marks[lo:hi])
