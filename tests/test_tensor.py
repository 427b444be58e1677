import _ctypes
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperinit import tensor
from hyperinit.tensor import (SPLIT_FLOOR, STREAM_WORK, SUM_LEAF, Rng, cores, mean_var,
                              sample)

from helpers import empirical_variance, on_each_core_count, refuse_threads


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(123).uniform_symmetric(1.0, 100)
        b = Rng(123).uniform_symmetric(1.0, 100)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = Rng(1).uniform_symmetric(1.0, 100)
        b = Rng(2).uniform_symmetric(1.0, 100)
        assert not np.array_equal(a, b)

    def test_children_are_independent_and_reproducible(self):
        r = Rng(7)
        a1 = r.child(0).normal(1.0, 50)
        a2 = Rng(7).child(0).normal(1.0, 50)
        b = r.child(1).normal(1.0, 50)
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_call_sequence_determines_stream(self):
        r1, r2 = Rng(5), Rng(5)
        x1 = [r1.uniform_symmetric(1.0, 10) for _ in range(3)]
        x2 = [r2.uniform_symmetric(1.0, 10) for _ in range(3)]
        for a, b in zip(x1, x2):
            np.testing.assert_array_equal(a, b)


class TestSample:
    def test_uniform_bound_from_variance(self):
        # variance 4e-5 -> samples bounded by sqrt(1.2e-4)
        vals = sample(4.0e-5, 10000, Rng(0))
        bound = np.sqrt(3 * 4.0e-5)
        assert np.abs(vals).max() <= bound
        assert bound == pytest.approx(0.010954451150103323)

    def test_zero_variance_gives_zeros(self):
        vals = sample(0.0, (3, 4), Rng(0))
        assert not vals.any()

    def test_negative_variance_rejected(self):
        for v in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                sample(v, (3, 4), Rng(0))

    def test_uniform_large_sample_variance(self):
        vals = sample(1.0, 10 ** 6, Rng(42))
        assert abs(empirical_variance(vals) - 1.0) < 0.01

    @pytest.mark.parametrize("v", [1e-5, 1e-2, 1.0])
    def test_variance_and_mean_across_scales(self, v):
        n = 10 ** 6
        vals = sample(v, n, Rng(9))
        assert abs(empirical_variance(vals) - v) / v < 0.01
        assert abs(vals.mean()) < 2 * 3 * np.sqrt(v / n)

    @given(st.floats(min_value=1e-8, max_value=1e4))
    @settings(max_examples=50, deadline=None)
    def test_uniform_bound_is_exact_for_every_sample(self, v):
        vals = sample(v, 512, Rng(3))
        assert np.abs(vals).max() <= np.sqrt(3 * v)


class TestEmpiricalVariance:
    def test_constant(self):
        assert empirical_variance([1.0, 1.0, 1.0]) == 0.0

    def test_hand_example(self):
        assert empirical_variance([0.0, 2.0]) == 1.0

    def test_population_convention(self):
        # divide by N, not N-1
        assert empirical_variance([0.0, 1.0]) == pytest.approx(0.25)

    def test_too_few_elements(self):
        with pytest.raises(ValueError):
            empirical_variance([1.0])

    def test_large_uniform_sample(self):
        vals = sample(0.25, 10 ** 6, Rng(4))
        assert abs(empirical_variance(vals) - 0.25) / 0.25 < 0.01


class TestMeanVar:
    """``mean_var`` sums numpy's own pairwise tree leaf by leaf: if a numpy
    version ever sums another way, these fail instead of the bits drifting."""

    @pytest.fixture(scope="class")
    def values(self):
        # a large offset, so a sum in any other order differs in its last bits
        return Rng(8).normal(1.0, (1 << 23) + 1) + 1e3

    SIZES = sorted({*range(2, 131),
                    *(SUM_LEAF + d for d in (-8, -1, 1, 8)),
                    *((1 << k) + d for k in range(8, 24) for d in (-1, 1))})

    @staticmethod
    def numpy_stats(a):
        return float(a.mean()), float(a.var())

    def test_equals_numpy_at_every_size(self, values):
        want = [self.numpy_stats(values[:n]) for n in self.SIZES]
        for got in on_each_core_count(lambda: [mean_var(values[:n]) for n in self.SIZES]):
            assert got == want

    def test_equals_numpy_on_views(self, values):
        for view in (values[::3], values[: 3 << 18].reshape(-1, 1 << 10).T,
                     values[: 1 << 20].reshape(1 << 10, -1)[:, 1:]):
            assert not view.flags.c_contiguous
            assert mean_var(view) == self.numpy_stats(view)
        image = values[: 2000 * 3 * 32 * 32].reshape(2000, 3, 32, 32)
        assert mean_var(image) == self.numpy_stats(image)

    @pytest.mark.parametrize("bad", [{-5: np.inf}, {-5: -np.inf}, {-5: np.nan},
                                     {1: np.inf, -5: -np.inf}])
    def test_non_finite_values(self, values, bad):
        a = values[: 3 << 20].copy()
        for i, v in bad.items():   # in the first and the last leaf
            a[i] = v
        with np.errstate(invalid="ignore"):   # on every group's thread too
            want = self.numpy_stats(a)
            for got in on_each_core_count(lambda: mean_var(a)):
                np.testing.assert_array_equal(got, want)

    def test_tiny(self):
        assert mean_var(np.array([2.5, 2.5])) == (2.5, 0.0)
        assert mean_var(np.array([[1.0]])) == (1.0, 0.0)

    def test_on_more_threads_than_cores(self, values, monkeypatch):
        # four groups of leaves trading the interpreter every microsecond
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = mean_var(values)
        finally:
            sys.setswitchinterval(interval)
        assert got == self.numpy_stats(values)

    def test_no_thread_below_the_floor(self, values, monkeypatch):
        n = SPLIT_FLOOR // STREAM_WORK - 1
        refuse_threads(monkeypatch)
        assert mean_var(values[:n]) == self.numpy_stats(values[:n])

    def test_a_large_array_does_split(self, values, monkeypatch):
        if cores() < 2:
            pytest.skip("one core: nothing splits")
        started = []
        thread = threading.Thread

        def counting(*args, **kwargs):
            started.append(1)
            return thread(*args, **kwargs)

        monkeypatch.setattr(threading, "Thread", counting)
        mean_var(values)
        assert started


class TestBlasThreads:
    @pytest.mark.parametrize("found", [[], [_ctypes.__file__]])
    def test_without_the_library_or_its_symbols_blas_is_left_alone(self, monkeypatch, found):
        # no bundled OpenBLAS, or a library without its thread-count symbols
        monkeypatch.setattr(tensor.glob, "glob", lambda pattern: found)
        assert tensor._pin_openblas() is None
        monkeypatch.setattr(tensor, "_get_blas_threads", None)
        assert tensor.blas_threads() is None
