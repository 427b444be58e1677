"""Principled weight initialization for hypernetworks.

A hypernet maps embeddings to the parameters of a main network. Sizing its
output-layer variance so the *generated* weights land on classical fan-in or
fan-out scaling (hyperfan-in / hyperfan-out) keeps mainnet activations and
gradients in range where classical schemes applied to the hypernet explode or
vanish. This package provides those formulas, samplers, a small manual-
backprop engine for the generated networks, a variance probe that verifies
the claims empirically, and SGD experiment presets.
"""

__version__ = "0.1.0"

from .init_schemes import (FanGeometry, InitScheme, classical_variance,
                           hyperfan_in_bias_variance, hyperfan_in_weight_variance,
                           hyperfan_out_bias_variance, hyperfan_out_weight_variance,
                           parse_scheme, uniform_bound)
from .hypergen import (ChunkPlan, Hypernet, HypernetSpec, gradient_shrink_factor,
                       init_hypernet)
from .mainnet import LayerSpec, MainnetSpec, allconv, backward, forward, mlp
from .tensor import Rng, sample

__all__ = [
    "FanGeometry", "InitScheme", "classical_variance",
    "hyperfan_in_bias_variance", "hyperfan_in_weight_variance",
    "hyperfan_out_bias_variance", "hyperfan_out_weight_variance",
    "parse_scheme", "uniform_bound",
    "ChunkPlan", "Hypernet", "HypernetSpec", "gradient_shrink_factor",
    "init_hypernet",
    "LayerSpec", "MainnetSpec", "allconv", "backward", "forward", "mlp",
    "Rng", "sample",
    "__version__",
]
