"""Workload table and seeded input synthesis for the perfbench benchmark.

Inputs are made here, from the benchmark's seed, with numpy alone: the image
sets are written in the on-disk formats the presets read (IDX and CIFAR-10
binary) and the regression tasks are plain arrays. Nothing in this file calls
into hyperinit, so a change to ``hyperinit.data`` cannot change a workload.
"""

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_CLASSES = 10
IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

HYPERFAN = ("hyperfan-in", "hyperfan-out")


@dataclass(frozen=True)
class Run:
    """One ``train()`` call of a pass: init scheme, learning rate (None keeps
    the preset default) and which derived init seed (and, for regression,
    which task data) to use."""

    scheme: str
    learning_rate: float | None
    seed_index: int


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    files: str | None          # "idx", "cifar" or None (data passed in memory)
    n_train: int
    n_test: int
    iterations: int            # steps per run (per task for regression)
    runs: tuple                # one pass: every run is repeated once per pass


def _grid(schemes, rates, seeds):
    return tuple(Run(s, lr, i) for s in schemes for lr in rates for i in range(seeds))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="mnist-mlp", preset="mnist-mlp", files="idx",
        n_train=10000, n_test=2000, iterations=150,
        runs=_grid(("hyperfan-in", "fan-in"), (None,), 1)),
    Workload(
        name="cifar-allconv", preset="cifar-allconv", files="cifar",
        n_train=5000, n_test=500, iterations=10,
        # Two hyperfan-in runs per fan-in run: fan-in diverges within a few
        # steps, and the run-time median must sit on the full-length runs.
        runs=_grid(("hyperfan-in",), (None,), 2) + _grid(("fan-in",), (None,), 1)),
    Workload(
        name="regression-sweep", preset="regression-seq", files=None,
        n_train=100, n_test=100, iterations=100,
        # Learning rates from the c09 grid at which hyperfan-in never
        # diverged in 300 trial runs each; hyperfan-out is left out because
        # it occasionally diverges within 5 steps at both.
        runs=_grid(("hyperfan-in", "fan-in"), (1e-3, 1e-4), 10)),
)}


def init_seeds(seed, count):
    """Init seeds handed to ``TrainConfig``, derived from the bench seed."""
    state = np.random.SeedSequence([seed, 1]).generate_state(count)
    return [int(s) for s in state]


def _prototypes(rng, shape):
    """One smooth random pattern in [0, 1] per class, shape (C, H, W)."""
    c, h, w = shape
    coarse = rng.standard_normal((N_CLASSES, c, 7, 7))
    up = np.repeat(np.repeat(coarse, -(-h // 7), axis=2), -(-w // 7), axis=3)
    up = up[:, :, :h, :w]
    for ax in (2, 3):
        up = (up + np.roll(up, 1, axis=ax) + np.roll(up, -1, axis=ax)) / 3.0
    lo = up.min(axis=(1, 2, 3), keepdims=True)
    hi = up.max(axis=(1, 2, 3), keepdims=True)
    return (up - lo) / (hi - lo)


def class_images(seed, n_train, n_test, shape, max_shift=3, noise=0.25):
    """Class-structured uint8 images: each sample is its class prototype,
    amplitude-jittered, shifted by up to ``max_shift`` pixels, plus noise."""
    rng = np.random.default_rng([seed, 2])
    protos = _prototypes(rng, shape)
    span = 2 * max_shift + 1
    shifted = np.stack([np.roll(protos, (dy - max_shift, dx - max_shift), axis=(2, 3))
                        for dy in range(span) for dx in range(span)], axis=1)
    out = []
    for n in (n_train, n_test):
        labels = rng.integers(N_CLASSES, size=n)
        shift = rng.integers(span * span, size=n)
        amp = rng.uniform(0.7, 1.3, size=(n, 1, 1, 1)).astype(np.float32)
        img = shifted[labels, shift].astype(np.float32) * amp
        img += rng.standard_normal(img.shape, dtype=np.float32) * np.float32(noise)
        pixels = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
        out.append((pixels, labels.astype(np.uint8)))
    return out


def _write_idx(root, images_name, labels_name, pixels, labels):
    n, _, h, w = pixels.shape
    (root / images_name).write_bytes(
        struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w) + pixels.tobytes())
    (root / labels_name).write_bytes(
        struct.pack(">II", IDX_LABELS_MAGIC, n) + labels.tobytes())


def _write_cifar(path, pixels, labels):
    records = np.empty((len(labels), 1 + pixels[0].size), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = pixels.reshape(len(labels), -1)
    path.write_bytes(records.tobytes())


def write_image_files(workload, seed, root):
    """Write the workload's dataset files under ``root``; returns bytes written."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    if workload.files == "idx":
        (tr_px, tr_lb), (te_px, te_lb) = class_images(
            seed, workload.n_train, workload.n_test, (1, 28, 28))
        _write_idx(root, "train-images-idx3-ubyte", "train-labels-idx1-ubyte", tr_px, tr_lb)
        _write_idx(root, "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte", te_px, te_lb)
    elif workload.files == "cifar":
        (tr_px, tr_lb), (te_px, te_lb) = class_images(
            seed, workload.n_train, workload.n_test, (3, 32, 32))
        _write_cifar(root / "data_batch_1.bin", tr_px, tr_lb)
        _write_cifar(root / "test_batch.bin", te_px, te_lb)
    else:
        raise ValueError(f"workload {workload.name} has no dataset files")
    return sum(p.stat().st_size for p in root.iterdir())


_TASKS = (
    ("cubic", (-4.0, -2.0), lambda x: (x + 3.0) ** 3),
    ("sine", (-1.0, 1.0), lambda x: np.sin(np.pi * x)),
    ("quadratic", (2.0, 4.0), lambda x: 2.0 * (x - 3.0) ** 2 - 1.0),
)


def regression_arrays(seed, index, n_train, n_test, noise=0.05):
    """Three 1-D tasks over staggered intervals for run ``index``: (name,
    train_x, train_y, test_x, test_y), inputs standardized by the train split."""
    rng = np.random.default_rng([seed, 3, index])
    tasks = []
    for name, (lo, hi), fn in _TASKS:
        x = rng.uniform(lo, hi, size=n_train + n_test)
        y = fn(x) + rng.normal(0.0, noise, size=x.shape)
        x = (x - x[:n_train].mean()) / x[:n_train].std()
        tasks.append((name, x[:n_train, None], y[:n_train, None],
                      x[n_train:, None], y[n_train:, None]))
    return tasks
