"""A shortened desk-scale run of the image-classification experiment.

Synthesizes an MNIST-shaped dataset (real IDX files in a temporary directory,
removed at exit, loaded back through the IDX reader), then trains the
5-hidden-layer tanh mainnet via the shared-head hypernet for one epoch under
two initializations and prints the curves. The full desk preset (10k subset,
3 epochs) is what the acceptance suite runs.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from hyperinit import data as dt
from hyperinit.train import config_for, train

with tempfile.TemporaryDirectory(prefix="hyperinit-demo-") as tmp:
    root = Path(tmp)
    train_ds, test_ds = dt.make_synthetic_images(2000, 500, (28, 28), 10, seed=123)
    dt.write_idx(root / "train-images-idx3-ubyte", root / "train-labels-idx1-ubyte",
                 train_ds.inputs,
                 train_ds.labels.astype(np.uint8))
    dt.write_idx(root / "t10k-images-idx3-ubyte", root / "t10k-labels-idx1-ubyte",
                 test_ds.inputs,
                 test_ds.labels.astype(np.uint8))

    for scheme in ("hyperfan-in", "fan-in"):
        cfg = replace(config_for("mnist-mlp", subset=2000, epochs=1),
                      seed=42, scheme=scheme, eval_every=50)
        res = train("mnist-mlp", cfg, data_dir=root, out_dir=root / scheme)
        print(f"\nscheme {scheme}:")
        print(f"  init loss {res.init_loss:.3f}; "
              f"layer-5 identity-replay variance {res.init_linear_vars[4]:.3e}")
        for step, epoch, loss, acc in res.curve:
            print(f"  step {step:4d}  train loss {loss:7.4f}  test acc {acc:.3f}")
