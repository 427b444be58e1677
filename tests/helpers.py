"""Small builders the tests share."""

import contextlib
import os
import threading

import numpy as np

from hyperinit import mainnet as mn
from hyperinit.data import CIFAR_RECORD


@contextlib.contextmanager
def on_cores(n):
    """Narrow this thread's affinity to its first ``n`` cores (all when n is
    None), and restore it afterwards."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(before)[:n or len(before)])
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


CORE_COUNTS = [1, None]   # one core, and every core


def on_each_core_count(f):
    """f()'s result on one core and on every core."""
    out = []
    for n in CORE_COUNTS:
        with on_cores(n):
            out.append(f())
    return out


def refuse_threads(monkeypatch):
    """Make any thread start fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started below the floor")

    monkeypatch.setattr(threading, "Thread", refuse)


def zero_params(spec):
    """All-zero mainnet parameters for a spec, one {"W", "b"} dict per layer."""
    return [{"W": np.zeros(l.weight_shape), "b": np.zeros(l.d_out)} for l in spec.layers]


def updatable_keys(net):
    """Keys of the hypernet arrays SGD moves: embeddings only when trainable."""
    return {key for key in net.param_arrays()
            if not key.startswith("emb.") or net.hspec.embeddings_trainable}


def empirical_variance(t):
    """Population variance (divide by N) over all elements of the tensor."""
    t = np.asarray(t, dtype=np.float64)
    if t.size < 2:
        raise ValueError("variance needs at least 2 elements")
    return float(np.var(t))


def conv2d_forward(x, weight, bias, kernel):
    """Cross-correlation of (B, C, H, W) with (C_out, C, kh, kw) weights."""
    y, *_ = mn._conv_forward(np.asarray(x, dtype=np.float64).transpose(0, 2, 3, 1),
                            weight, bias, kernel)
    return np.ascontiguousarray(y.transpose(0, 3, 1, 2))


def write_cifar10_binary(path, images, labels):
    """A CIFAR-10 binary batch file: one label byte, then the pixels, per record."""
    images = np.asarray(images)
    labels = np.asarray(labels)
    if images.dtype != np.uint8 or labels.dtype != np.uint8:
        raise ValueError("CIFAR binary files store uint8 data")
    n = len(labels)
    records = np.empty((n, CIFAR_RECORD), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = images.reshape(n, -1)
    with open(path, "wb") as f:
        f.write(records.tobytes())
