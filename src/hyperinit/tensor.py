"""Dense float64 tensors, a deterministic counter-based RNG, and sampling helpers.

Everything downstream moves activations, weights and gradients around as plain
numpy float64 arrays; this module pins the dtype and provides the few
numerical primitives the rest of the package builds on.
"""

from dataclasses import dataclass

import numpy as np

DTYPE = np.float64

UNIFORM = "uniform"
NORMAL = "normal"


class Rng:
    """Deterministic random stream backed by the counter-based Philox generator.

    The same seed and the same call sequence produce the same samples on every
    platform. ``child(tag)`` derives an independent stream keyed by
    ``(seed, ..., tag)``, so independent trials and subsystems can split seeds
    without sharing any mutable state.
    """

    def __init__(self, seed, _path=()):
        self.seed = int(seed)
        self._path = tuple(int(t) for t in _path)
        key = np.random.SeedSequence((self.seed,) + self._path)
        self._gen = np.random.Generator(np.random.Philox(key))

    def child(self, tag):
        return Rng(self.seed, self._path + (int(tag),))

    def uniform_symmetric(self, bound, shape=None):
        """Samples from [-bound, +bound)."""
        return np.asarray(self._gen.uniform(-bound, bound, size=shape), dtype=DTYPE)

    def normal(self, std, shape=None):
        return np.asarray(self._gen.standard_normal(size=shape) * std, dtype=DTYPE)

    def integers(self, high, size=None):
        return self._gen.integers(0, high, size=size)

    def permutation(self, n):
        return self._gen.permutation(n)

    def __repr__(self):
        return f"Rng(seed={self.seed}, path={self._path})"


@dataclass(frozen=True)
class Distribution:
    """Mean-zero sampling distribution described by family and variance."""

    family: str = UNIFORM
    variance: float = 1.0

    def __post_init__(self):
        if self.family not in (UNIFORM, NORMAL):
            raise ValueError(f"unknown distribution family: {self.family!r}")
        if not np.isfinite(self.variance) or self.variance < 0:
            raise ValueError(f"variance must be finite and >= 0, got {self.variance}")


def sample(dist, shape, rng):
    """Draw a tensor of the given shape from the distribution.

    Uniform draws come from [-sqrt(3 v), +sqrt(3 v)) so the population variance
    is exactly ``v``; normal draws are mean-zero with variance ``v``.
    Variance zero yields an all-zero tensor.
    """
    if dist.variance == 0.0:
        return np.zeros(shape, dtype=DTYPE)
    if dist.family == UNIFORM:
        return rng.uniform_symmetric(np.sqrt(3.0 * dist.variance), shape)
    return rng.normal(np.sqrt(dist.variance), shape)


def row_chunks(n_rows, row_size, entries=1 << 20):
    """Slices covering rows [0, n_rows) in order, each at most ``entries``
    entries of ``row_size`` (and at least one row): bounded temporaries for
    row-wise work on a large matrix. A chunk is a power of two rows, so a BLAS
    product blocks each chunk as it blocks the whole matrix and gives the
    same bits."""
    step = 1 << max(0, (entries // max(1, row_size)).bit_length() - 1)
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]

