"""Gradient flow under hyperfan-out init.

Hyperfan-out sizes heads from the mainnet fan-out, which preserves gradient
variance across mainnet layers. The price is paid inside the hypernet: the
head gradient shrinks by d_j / (d_k * var_e) on the way in, unless the head
is shared across layers, in which case the per-layer contributions sum.
"""

import numpy as np

from hyperinit import mainnet as mn
from hyperinit import probe
from hyperinit.hypergen import (PER_LAYER, HypernetSpec, gradient_shrink_factor,
                                init_hypernet)
from hyperinit.init_schemes import parse_scheme
from hyperinit.tensor import Rng

WIDTH, HEAD = 500, 100

mspec = mn.mlp([WIDTH] * 6, activation="identity", loss="mse")
hspec = HypernetSpec(embedding_dim=HEAD, head_topology=PER_LAYER,
                     normalize_embeddings=True)
net = init_hypernet(hspec, mspec, parse_scheme("hyperfan-out"), Rng(17))
params, _ = net.generate()

rng = Rng(18)
x = rng.child(0).normal(1.0, (300, WIDTH))
y = rng.child(1).normal(30.0, (300, WIDTH))  # dominant, independent cotangent
trace, _ = mn.forward(mspec, params, x, y)
grads = mn.backward(mspec, params, trace, y)

print("mainnet gradient variance ratios Var(dL/dx[t]) / Var(dL/dx[t+1]):")
for t, r in enumerate(probe.gradient_variance_ratios(grads)):
    print(f"  layers {t}/{t + 1}: {r:.3f}")

print()
print("head-gradient shrink, measured with an isotropic weight cotangent:")
dw = [rng.child(10 + t).normal(1.0, p["W"].shape) for t, p in enumerate(params)]
feature_grads = net.feature_grads(dw)
pred = gradient_shrink_factor(net.geometry(1))
for t in range(len(params)):
    measured = np.var(feature_grads[t]) / np.var(dw[t])
    print(f"  layer {t}: measured {measured:6.2f}   predicted {pred:.2f}")
