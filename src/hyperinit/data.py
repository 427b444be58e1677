"""Dataset ingestion and synthesis.

Readers for the two on-disk formats the experiments use (IDX images/labels
and the 3073-byte-record CIFAR-10 binary), an IDX writer so fixtures can be
produced in-process, standardization, and the synthetic regression task
sequence. Loaders are byte-deterministic and never touch the network.

A ``Dataset`` keeps the values it was read from: an image set its uint8
pixels, with the deferred ``/ 255.0`` and the ``(mean, std)`` pairs that
``standardize`` attaches. No float copy of a whole set is made. ``rows``
turns the requested rows into float64 by the same elementwise ops, in the
same order, as a whole float array would have been built with, so a batch
has the bits of indexing that array.
"""

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .tensor import DTYPE, Rng, mean_var

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD = 3073  # 1 label byte + 3 * 32 * 32 pixels
PIXEL_SCALE = 255.0  # a uint8 pixel over this is its float value in [0, 1]
READ_CHUNK = 1 << 20  # bytes of CIFAR records read at a time

GLOBAL = "global"


class FormatError(ValueError):
    """Malformed dataset file; the message names the offending byte offset."""


@dataclass
class Dataset:
    """Examples as stored: ``inputs`` holds the values read (uint8 pixels, or
    a caller's floats), ``scale`` their divisor (``PIXEL_SCALE`` for pixels)
    and ``stats`` the ``(mean, std)`` pairs ``standardize`` attached, applied
    in order. ``inputs`` is kept C-contiguous, so ``standardize`` reads it
    leaf by leaf."""

    inputs: np.ndarray
    labels: np.ndarray
    scale: float = 1.0
    stats: tuple = ()

    def __post_init__(self):
        self.inputs = np.ascontiguousarray(self.inputs)

    def __len__(self):
        return len(self.inputs)

    def rows(self, idx):
        """The float64 inputs of rows ``idx`` (an index array or a slice):
        ``inputs[idx] / scale``, then ``(x - mean) / std`` per attached pair.
        A caller's float set with no stats keeps its bits (``x / 1.0``)."""
        stored = self.inputs[idx]
        return _floats(stored, self.scale, self.stats, np.empty(stored.shape, dtype=DTYPE))

    def take(self, n):
        """First-n subset (desk-scale runs)."""
        if n is None or n >= len(self):
            return self
        return replace(self, inputs=self.inputs[:n], labels=self.labels[:n])


def _floats(stored, scale, stats, out):
    """``stored / scale`` in float64, then ``(x - mean) / std`` for each
    ``(mean, std)`` of ``stats`` in order, all into ``out``; returns ``out``."""
    np.divide(stored, scale, out=out, dtype=DTYPE)
    for mean, std in stats:
        np.subtract(out, mean, out=out)
        np.divide(out, std, out=out)
    return out


def _read_be32(f, path, offset):
    raw = f.read(4)
    if len(raw) != 4:
        raise FormatError(f"{path}: truncated header at offset {offset}")
    return struct.unpack(">I", raw)[0], offset + 4


def read_idx(path):
    """Raw IDX payload: images (N, rows, cols) or labels (N,), still uint8."""
    with open(path, "rb") as f:
        offset = 0
        magic, offset = _read_be32(f, path, offset)
        if magic not in (IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC):
            raise FormatError(f"{path}: bad magic 0x{magic:08x} at offset 0")
        count, offset = _read_be32(f, path, offset)
        if magic == IDX_IMAGES_MAGIC:
            rows, offset = _read_be32(f, path, offset)
            cols, offset = _read_be32(f, path, offset)
            shape = (count, rows, cols)
        else:
            shape = (count,)
        need = math.prod(shape)   # a Python int: no wrap at 2^63
        left = os.fstat(f.fileno()).st_size - offset
        if left < need:   # checked before reading, so a huge header allocates nothing
            raise FormatError(f"{path}: expected {need} data bytes at offset {offset}, "
                              f"got {left}")
        if left > need:
            raise FormatError(f"{path}: trailing bytes after offset {offset + need}")
        payload = f.read(need)
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape)


def load_idx(images_path, labels_path):
    """IDX image+label pair as a Dataset of its uint8 pixels, read as [0, 1]."""
    images = read_idx(images_path)
    labels = read_idx(labels_path)
    if images.ndim != 3:
        raise FormatError(f"{images_path}: not an image file")
    if labels.ndim != 1:
        raise FormatError(f"{labels_path}: not a label file")
    if len(images) != len(labels):
        raise FormatError(f"image/label count mismatch: {len(images)} vs {len(labels)}")
    return Dataset(inputs=images, labels=labels.astype(np.int64), scale=PIXEL_SCALE)


def write_idx(images_path, labels_path, images, labels):
    images = np.asarray(images)
    labels = np.asarray(labels)
    if images.dtype != np.uint8 or labels.dtype != np.uint8:
        raise ValueError("IDX files store uint8 data")
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, *images.shape))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


def load_cifar10_binary(path):
    """One CIFAR-10 binary batch file -> Dataset of (N, 3, 32, 32) uint8
    pixels, read as [0, 1]. The records are read in chunks of at most
    ``READ_CHUNK`` bytes straight into one pixel array and one label array,
    so loading holds the pixels once."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size == 0 or size % CIFAR_RECORD != 0:
            raise FormatError(f"{path}: size {size} is not a multiple of "
                              f"{CIFAR_RECORD}-byte records")
        n = size // CIFAR_RECORD
        pixels = np.empty((n, CIFAR_RECORD - 1), dtype=np.uint8)
        labels = np.empty(n, dtype=np.int64)
        records = np.empty((READ_CHUNK // CIFAR_RECORD, CIFAR_RECORD), dtype=np.uint8)
        for lo in range(0, n, len(records)):
            chunk = records[:min(len(records), n - lo)]
            if f.readinto(chunk) != chunk.nbytes:
                raise FormatError(f"{path}: truncated at record {lo}, offset {lo * CIFAR_RECORD}")
            labels[lo:lo + len(chunk)] = chunk[:, 0]
            pixels[lo:lo + len(chunk)] = chunk[:, 1:]
    bad = np.flatnonzero(labels > 9)
    if bad.size:
        i = int(bad[0])
        raise FormatError(f"{path}: record {i} at offset {i * CIFAR_RECORD} has label "
                          f"byte {labels[i]}; CIFAR-10 labels are 0-9")
    return Dataset(inputs=pixels.reshape(-1, 3, 32, 32), labels=labels, scale=PIXEL_SCALE)


def standardize(ds, mode=GLOBAL, stats=None):
    """Center/scale inputs by their global mean and standard deviation (1 when
    zero); returns (dataset, stats) so test splits reuse train stats. The
    pair is attached to the dataset, which ``rows`` applies. The statistics
    are the float array's ``mean()`` and ``std()`` to the bit, from the two
    reads of ``tensor.mean_var``, each leaf of the stored values turned into
    floats by ``rows``'s ops in the leaf buffer."""
    if stats is None:
        if mode != GLOBAL:
            raise ValueError(f"unknown standardization mode {mode!r}")
        mean, var = mean_var(ds.inputs, lambda v, out: _floats(v, ds.scale, ds.stats, out))
        std = float(np.sqrt(var))   # x.std() is the root of x.var()
        if std == 0.0:
            std = 1.0
        stats = (mean, std)
    mean, std = stats
    return replace(ds, stats=ds.stats + ((mean, std),)), stats


@dataclass
class RegressionTask:
    name: str
    train_x: np.ndarray   # standardized, shape (N, 1)
    train_y: np.ndarray   # shape (N, 1)
    test_x: np.ndarray
    test_y: np.ndarray


@dataclass
class RegressionTaskSeq:
    seed: int
    tasks: list


_TASK_FAMILIES = (
    ("cubic", (-4.0, -2.0), lambda x: (x + 3.0) ** 3),
    ("sine", (-1.0, 1.0), lambda x: np.sin(np.pi * x)),
    ("quadratic", (2.0, 4.0), lambda x: 2.0 * (x - 3.0) ** 2 - 1.0),
)


def make_regression_tasks(seed, n_train=100, n_test=100, noise_std=0.05):
    """Three 1-D scalar tasks over staggered input intervals, exact per seed."""
    rng = Rng(seed)
    tasks = []
    for i, (name, (lo, hi), fn) in enumerate(_TASK_FAMILIES):
        r = rng.child(i)
        half = (hi - lo) / 2.0
        mid = (lo + hi) / 2.0
        xs = mid + r.uniform_symmetric(half, n_train + n_test)
        ys = fn(xs)
        if noise_std > 0:
            ys = ys + r.normal(noise_std, xs.shape)
        mean, std = xs[:n_train].mean(), xs[:n_train].std()
        xs = (xs - mean) / std
        tasks.append(RegressionTask(
            name=name,
            train_x=xs[:n_train, None], train_y=ys[:n_train, None],
            test_x=xs[n_train:, None], test_y=ys[n_train:, None]))
    return RegressionTaskSeq(seed=seed, tasks=tasks)


def _smooth_prototypes(n_classes, shape, rng):
    """Per-class low-frequency patterns in [0, 1]."""
    channels = shape[0] if len(shape) == 3 else 1
    h, w = shape[-2], shape[-1]
    protos = []
    for c in range(n_classes):
        coarse = rng.child(c).normal(1.0, (channels, 7, 7))
        up = np.repeat(np.repeat(coarse, h // 7 + 1, axis=1),
                       w // 7 + 1, axis=2)[:, :h, :w]
        # light box blur to remove the blockiness
        blurred = up
        for ax in (1, 2):
            blurred = (blurred + np.roll(blurred, 1, axis=ax)
                       + np.roll(blurred, -1, axis=ax)) / 3.0
        lo, hi = blurred.min(), blurred.max()
        proto = (blurred - lo) / (hi - lo + 1e-12)
        protos.append(proto if len(shape) == 3 else proto[0])
    return protos


def make_synthetic_images(n_train, n_test, shape, n_classes, seed):
    """Deterministic image classification set with class-prototype structure.

    Each class is a smooth random pattern; samples are amplitude-jittered
    copies, shifted by up to 3 pixels each way, with pixel noise of standard
    deviation 0.25, quantized to uint8. Returns
    (train Dataset, test Dataset) of uint8 pixels, read as [0, 1].
    """
    rng = Rng(seed)
    protos = _smooth_prototypes(n_classes, shape, rng.child(0))
    sets = []
    for si, n in enumerate((n_train, n_test)):
        r = rng.child(si + 1)
        labels = np.asarray(r.integers(n_classes, size=n), dtype=np.int64)
        amps = 1.0 + r.uniform_symmetric(0.3, n)
        shifts = r.integers(7, size=(n, 2)) - 3
        pixel_noise = r.normal(0.25, (n,) + tuple(shape))
        images = np.empty((n,) + tuple(shape), dtype=DTYPE)
        for i in range(n):
            img = protos[labels[i]] * amps[i]
            img = np.roll(img, (shifts[i][0], shifts[i][1]), axis=(-2, -1))
            images[i] = img
        images = np.clip(images + pixel_noise, 0.0, 1.0)
        images_u8 = np.round(images * 255.0).astype(np.uint8)
        sets.append(Dataset(inputs=images_u8, labels=labels, scale=PIXEL_SCALE))
    return tuple(sets)
