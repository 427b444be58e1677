"""Dense float64 tensors, a deterministic counter-based RNG, the uniform
sampler every hypernet array is drawn with, and the engine's one core
scheduler.

Everything downstream moves activations, weights and gradients around as plain
numpy float64 arrays; this module pins the dtype and provides the few
numerical primitives the rest of the package builds on.

``mean_var`` gives an array's ``mean()`` and ``var()`` to the bit from two
reads on every core, by summing the leaves of numpy's own pairwise-sum tree;
given a conversion, those of stored values' float array, one leaf at a time.

``in_groups`` is the one place that splits a pass across cores: one
contiguous group of row ranges per core, every buffer made on the calling
thread, nothing split below ``SPLIT_FLOOR``, and no option, flag or
environment variable. Each caller splits only where the bits of every entry
are proven equal to the whole pass's (``tests/test_split.py``). Importing
this module sets numpy's bundled OpenBLAS to one thread (``blas_threads``),
since OpenBLAS's own threads change a GEMM's last bits with the core count:
``in_groups`` is the only code that runs on more than one core.
"""

import contextvars
import ctypes
import glob
import os
import threading

import numpy as np

DTYPE = np.float64

# Below this much work a pass runs whole on the calling thread. Work counts
# multiply-adds, a uniform draw as DRAW_WORK of them: on a 2-core Sapphire
# Rapids VM a large GEMM takes ~0.05 ns per multiply-add at one BLAS thread,
# a draw ~14 ns and a thread start ~120 us, so a pass at the floor takes ~1 ms.
# Batch-10 steps and every regression-seq array stay below it.
SPLIT_FLOOR = 1 << 24
DRAW_WORK = 256
# A value streamed once from memory (summed, or read and written elementwise)
# counts STREAM_WORK multiply-adds: ~1.1 ns per value on the same VM. A sum
# splits at leaves of SUM_LEAF values: leaves of 1<<13 or 1<<14 ran slower on
# two threads than on one, 1<<17 fastest on either.
STREAM_WORK = 24
SUM_LEAF = 1 << 17


def _pin_openblas():
    """Set numpy's bundled OpenBLAS (``numpy.libs/libscipy_openblas64_*.so``)
    to one thread and return its thread-count getter; None, leaving BLAS
    alone, when numpy carries no such library or it lacks the symbols."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    if not libs:
        return None
    lib = ctypes.CDLL(libs[0])
    try:
        set_threads = lib.scipy_openblas_set_num_threads64_
        get_threads = lib.scipy_openblas_get_num_threads64_
    except AttributeError:
        return None
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads(1)
    return get_threads


_get_blas_threads = _pin_openblas()


def blas_threads():
    """numpy's OpenBLAS thread count, read back from the library (1 once this
    module is imported), or None when its bundled OpenBLAS was not found."""
    return None if _get_blas_threads is None else _get_blas_threads()


def cores():
    """The cores this process may run on."""
    return len(os.sched_getaffinity(0))


def in_groups(ranges, work, buffers, run):
    """Run the row ranges (slices, in order) in contiguous groups, one per
    core: ``run(group, *buffers())`` for each, the first group on the calling
    thread and each other on a short-lived thread of its own. With less than
    ``SPLIT_FLOOR`` work all ranges are one group and no thread starts.

    No row is handled by two threads: an overlapping last range that the even
    split leaves alone joins the group before it, to run right after the range
    it overlaps. All buffers are made on the calling thread before any group
    runs, and every group runs in the caller's context (``np.errstate``
    included). Once every group has ended, the first exception one raised is
    raised again."""
    if not ranges:
        return
    m = min(cores(), len(ranges)) if work >= SPLIT_FLOOR else 1
    groups = [ranges[len(ranges) * g // m:len(ranges) * (g + 1) // m] for g in range(m)]
    if m > 1 and groups[-1][0].start < groups[-2][-1].stop:
        groups[-2:] = [groups[-2] + groups[-1]]
    args = [(group, *buffers()) for group in groups]
    errors = []

    def guarded(*a):
        try:
            run(*a)
        except BaseException as e:
            errors.append(e)

    # each thread runs in a copy of the caller's context, np.errstate with it
    threads = [threading.Thread(target=contextvars.copy_context().run, args=(guarded, *a))
               for a in args[1:]]
    for thread in threads:
        thread.start()
    try:
        run(*args[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def matmul_cols(a, b, out=None):
    """``a @ b`` (into ``out`` when given). Above the floor the columns of
    ``b`` and of the product split across cores at multiples of the largest
    power of two, at most 1<<14, that gives every core a block (500 columns
    split at 256 on 2 cores, at 128 and 256 on 3), each group multiplying
    the whole of ``a`` straight into its columns, so every entry's reduction
    stays whole. Such splits keep OpenBLAS's bits for mnist-mlp's dense
    layers and generated heads; a split by the product's rows, or one at 320
    of 500 columns, does not."""
    work = a.shape[0] * a.shape[1] * b.shape[1]
    if work < SPLIT_FLOOR:   # the common small case, without a closure
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty((a.shape[0], b.shape[1]), dtype=DTYPE)

    def run(group):   # one product over the group's adjacent blocks
        cols = slice(group[0].start, group[-1].stop)
        np.matmul(a, b[:, cols], out=out[:, cols])

    n = b.shape[1]
    in_groups(row_chunks(n, 1, min(1 << 14, -(-n // cores()))), work, tuple, run)
    return out


def _sum_tree(lo, n):
    """numpy's pairwise-sum tree over the values [lo, lo + n), cut at leaves
    of at most SUM_LEAF values: a leaf is a slice, a node its (left, right)
    pair. numpy splits a node of more than 128 values at n // 2 rounded down
    to a multiple of 8, so a leaf's own ``sum()`` is its subtree's."""
    if n <= SUM_LEAF:
        return slice(lo, lo + n)
    n2 = n // 2 - (n // 2) % 8
    return _sum_tree(lo, n2), _sum_tree(lo + n2, n - n2)


def _leaves(tree):
    return [tree] if isinstance(tree, slice) else _leaves(tree[0]) + _leaves(tree[1])


def _fold(tree, sums):
    """The tree's sum from its leaves' ``sums`` (by leaf start), added in
    numpy's order."""
    if isinstance(tree, slice):
        return sums[tree.start]
    return _fold(tree[0], sums) + _fold(tree[1], sums)


def mean_var(a, convert=None):
    """``(a.mean(), a.var())`` as floats, with their bits, from one summing
    read and one read of squared deviations, each leaf's into a leaf-sized
    buffer. The leaves of numpy's pairwise-sum tree are summed in groups on
    every core above the floor (``in_groups``), and the leaf sums are added
    in the tree's order. A non-contiguous or empty array takes numpy's own
    reductions, which do not sum a strided array as one tree.

    With ``convert``, ``a`` holds stored values and the statistics are those
    of the float64 array ``convert(a, out)`` writes into ``out``, which is
    never made whole: each leaf is converted into the leaf buffer first."""
    a = np.asarray(a, dtype=DTYPE) if convert is None else np.asarray(a)
    if a.size == 0 or not a.flags.c_contiguous:
        if convert is not None:
            a = convert(a, np.empty(a.shape, dtype=DTYPE))
        return float(a.mean()), float(a.var())
    flat = a.reshape(-1)
    n = flat.size
    tree = _sum_tree(0, n)
    leaves = _leaves(tree)
    sums = {}

    def values(s, buffer):   # leaf s as floats: a view, or converted into the buffer
        return flat[s] if convert is None else convert(flat[s], buffer[:s.stop - s.start])

    def total(run):
        in_groups(leaves, n * STREAM_WORK, lambda: (np.empty(min(n, SUM_LEAF), dtype=DTYPE),),
                  run)
        return _fold(tree, sums)

    def add(group, buffer):
        for s in group:
            sums[s.start] = float(values(s, buffer).sum())

    mean = total(add) / n

    def add_squares(group, buffer):
        for s in group:
            dev = np.subtract(values(s, buffer), mean, out=buffer[:s.stop - s.start])
            np.multiply(dev, dev, out=dev)
            sums[s.start] = float(dev.sum())

    return mean, total(add_squares) / n


def _philox_at(state, skip):
    """A generator on a copy of the Philox ``state`` whose next double is the
    stream's draw ``skip``: draws still buffered are served first, then
    ``advance(k)`` skips 4k doubles and at most 3 more are drawn and dropped."""
    bits = np.random.Philox(key=state["state"]["key"])
    buffered = 4 - state["buffer_pos"]
    if skip < buffered:
        bits.state = {**state, "buffer_pos": state["buffer_pos"] + skip}
        return np.random.Generator(bits)
    bits.state = state
    blocks, rest = divmod(skip - buffered, 4)
    gen = np.random.Generator(bits.advance(blocks))
    gen.random(rest)
    return gen


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

    def uniform_symmetric(self, bound, shape=None, out=None):
        """Samples from [-bound, +bound), written into ``out`` (C-contiguous)
        when given: the bits of ``Generator.uniform(-bound, bound)``, which
        computes ``-bound + 2 bound u``.

        Above the floor the draws run in groups of 1<<20 (``in_groups``).
        Philox is counter-based, so each group draws on its own copy of the
        generator, started at the group's first draw (``_philox_at``); it
        fills its rows with ``random`` and scales them in place, ``*= 2
        bound; += -bound``. The stream ends in the last group's state."""
        if out is None:
            out = np.empty(() if shape is None else shape, dtype=DTYPE)
        flat = np.reshape(out, -1, copy=False)

        def fill(gen, rows):
            gen.random(out=flat[rows])
            flat[rows] *= 2.0 * bound
            flat[rows] += -bound

        if flat.size * DRAW_WORK < SPLIT_FLOOR:   # the common small case
            fill(self._gen, slice(None))
            return out
        state = self._gen.bit_generator.state
        last = {}

        def run(group):
            gen = _philox_at(state, group[0].start)
            for rows in group:
                fill(gen, rows)
            last[group[0].start] = gen.bit_generator.state

        in_groups(row_chunks(flat.size, 1), flat.size * DRAW_WORK, tuple, run)
        # the last group's stream position, and the parent's uint32 buffer
        self._gen.bit_generator.state = {**last[max(last)], "has_uint32": state["has_uint32"],
                                         "uinteger": state["uinteger"]}
        return out

    def normal(self, std, shape=None):
        return np.asarray(self._gen.standard_normal(size=shape) * std, dtype=DTYPE)

    def integers(self, high, size=None):
        return self._gen.integers(0, high, size=size)

    def permutation(self, n):
        return self._gen.permutation(n)

    def __repr__(self):
        return f"Rng(seed={self.seed}, path={self._path})"


def sample(variance, shape, rng, out=None):
    """A tensor of the given shape drawn uniformly from [-sqrt(3 v),
    +sqrt(3 v)), whose population variance is exactly ``variance``, into
    ``out`` (C-contiguous, of that shape) when given. Variance zero yields
    an all-zero tensor and draws nothing; a negative or non-finite variance
    raises ValueError."""
    if not np.isfinite(variance) or variance < 0:
        raise ValueError(f"variance must be finite and >= 0, got {variance}")
    if out is None:
        out = np.empty(shape, dtype=DTYPE)
    if variance == 0.0:
        out[...] = 0.0
    else:
        rng.uniform_symmetric(np.sqrt(3.0 * variance), out=out)
    return out


def row_chunks(n_rows, row_size, entries=1 << 20):
    """Slices covering rows [0, n_rows) in order, each at most ``entries``
    entries of ``row_size`` (and at least one row): bounded temporaries for
    row-wise work on a large matrix. A chunk is a power of two rows, so a BLAS
    product blocks each chunk as it blocks the whole matrix and gives the
    same bits."""
    step = 1 << max(0, (entries // max(1, row_size)).bit_length() - 1)
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]
