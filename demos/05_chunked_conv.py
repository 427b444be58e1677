"""Chunked weight generation for a conv net.

One shared output layer emits (K, 3, 3) blocks; each block has its own
embedding and input projection. The shared layer gets plain fan-in init and
the per-block projections carry the hyperfan variance, so the assembled
kernels land on classical scaling. A few SGD iterations on synthetic data
show the chunked pipeline training end to end.
"""

from dataclasses import replace

import numpy as np

from hyperinit import data as dt
from hyperinit.hypergen import CHUNKED, ChunkPlan, HypernetSpec, init_hypernet
from hyperinit.init_schemes import parse_scheme
from hyperinit.mainnet import allconv
from hyperinit.tensor import Rng
from hyperinit.train import config_for, train

mspec = allconv(3, [96, 96, 96], 10, kernel=3, strides=[2, 2, 2])
hspec = HypernetSpec(embedding_dim=50, head_topology=CHUNKED,
                     chunk=ChunkPlan(K=96, n=3))
net = init_hypernet(hspec, mspec, parse_scheme("hyperfan-in"), Rng(0))

head = net.head_of(0)   # the conv layers' weights all come from the chunked head
plan = hspec.chunk
print(f"chunk grid: {head.rows[-1].stop} chunks of shape ({plan.K}, {plan.n}, {plan.n})")
for t, rows in zip(head.targets, head.rows):   # each layer owns a range of chunk rows
    layer = mspec.layers[t]
    print(f"  layer {t} {layer.weight_shape}: chunks {rows.start}..{rows.stop - 1}")
print(f"shared head H: {head.H.shape}, Var = {np.var(head.H):.5f} "
      f"(plain fan-in 1/{head.d_in})")

params, _ = net.generate()
for t in (0, 1, 2):
    layer = mspec.layers[t]
    target = 2.0 / layer.fan_in  # ReLU gain over channels * kernel area
    print(f"  generated Var(W[{t}]) = {np.var(params[t]['W']):.5f} "
          f"(fan-in target {target:.5f})")

print("\n30 training iterations on a synthetic CIFAR-shaped set:")
train_ds, test_ds = dt.make_synthetic_images(1000, 200, (3, 32, 32), 10, seed=5)
cfg = replace(config_for("cifar-allconv"), seed=7, scheme="hyperfan-in",
              iterations=30, eval_every=10, subset=1000)
res = train("cifar-allconv", cfg, data=(train_ds, test_ds))
print(f"  init loss {res.init_loss:.4f}")
for step, _, loss, acc in res.curve:
    print(f"  step {step:3d}  train loss {loss:.4f}  test acc {acc:.3f}")
