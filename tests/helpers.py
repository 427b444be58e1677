"""Small builders the tests share."""

import numpy as np


def zero_params(spec):
    """All-zero mainnet parameters for a spec, one {"W", "b"} dict per layer."""
    return [{"W": np.zeros(l.weight_shape), "b": np.zeros(l.d_out)} for l in spec.layers]


def updatable_keys(net):
    """Keys of the hypernet arrays SGD moves: embeddings only when trainable."""
    return {key for key in net.param_arrays()
            if not key.startswith("emb.") or net.hspec.embeddings_trainable}
