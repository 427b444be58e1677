import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperinit import init_schemes as s
from hyperinit.tensor import Rng, sample

from helpers import empirical_variance

REL = 1e-15


def geom(d_i, d_j, d_k, d_l=1, v1=1.0, v2=1.0, r=1):
    return s.FanGeometry(d_i=d_i, d_j=d_j, d_k=d_k, d_l=d_l,
                         var_e1=v1, var_e2=v2, receptive_field=r)


class TestClassicalVariance:
    @pytest.mark.parametrize("kind,g,relu,expected", [
        ("fan-in", geom(10, 500, 1), False, 1 / 500),
        ("fan-in", geom(96, 864, 1), True, 2 / 864),
        ("fan-in", geom(96, 96, 1, r=9), True, 2 / (96 * 9)),
        ("fan-out", geom(500, 10, 1), False, 1 / 500),
        ("fan-out", geom(256, 64, 1, r=4), True, 2 / (256 * 4)),
        ("harmonic", geom(300, 100, 1), False, 2 / 400),
        ("harmonic", geom(300, 100, 1), True, 4 / 400),
        ("fan-in", geom(1, 1, 1), False, 1.0),
        ("fan-out", geom(1, 1, 1), True, 2.0),
        ("harmonic", geom(7, 7, 1), False, 1 / 7),
    ])
    def test_formulas(self, kind, g, relu, expected):
        assert s.classical_variance(kind, g, relu) == pytest.approx(expected, rel=REL)

    def test_harmonic_equals_fan_in_when_square(self):
        g = geom(64, 64, 1)
        assert s.classical_variance("harmonic", g) == s.classical_variance("fan-in", g)


class TestHyperfanWeightVariance:
    @pytest.mark.parametrize("g,relu,hbias,expected", [
        (geom(500, 500, 50), False, False, 4.0e-5),
        (geom(500, 784, 50), True, True, 2 / (2 * 784 * 50)),
        (geom(1, 1, 1), False, False, 1.0),
        (geom(10, 300, 20, v1=2.0), False, False, 1 / (300 * 20 * 2)),
        (geom(96, 96, 50, v1=1.0, r=9), True, False, 2 / (96 * 50 * 9)),
        (geom(128, 64, 32, v1=0.5), True, True, 2 / (2 * 64 * 32 * 0.5)),
        (geom(500, 500, 50), True, False, 8.0e-5),
        (geom(2, 3, 5, v1=4.0), False, True, 1 / (2 * 3 * 5 * 4)),
        (geom(7, 11, 13, v1=1.0, r=25), False, False, 1 / (11 * 13 * 25)),
        (geom(1000, 250, 10), False, False, 1 / 2500),
    ])
    def test_hyperfan_in(self, g, relu, hbias, expected):
        got = s.hyperfan_in_weight_variance(g, relu, hbias)
        assert got == pytest.approx(expected, rel=REL)

    @pytest.mark.parametrize("g,relu,expected", [
        (geom(10, 500, 50), False, 2.0e-3),
        (geom(500, 500, 50, v1=2.0, r=9), True, 2 / (500 * 50 * 2 * 9)),
        (geom(1, 1, 1), False, 1.0),
        (geom(64, 128, 32), True, 2 / (64 * 32)),
        (geom(300, 10, 20, v1=0.25), False, 1 / (300 * 20 * 0.25)),
        (geom(96, 3, 50, r=9), True, 2 / (96 * 50 * 9)),
        (geom(10, 10, 10, v1=10.0), False, 1e-3),
        (geom(2, 9, 4), False, 1 / 8),
        (geom(17, 5, 3, v1=2.0), True, 2 / (17 * 3 * 2)),
        (geom(1000, 1, 100), False, 1e-5),
    ])
    def test_hyperfan_out(self, g, relu, expected):
        assert s.hyperfan_out_weight_variance(g, relu) == pytest.approx(expected, rel=REL)

    def test_symmetry_when_square(self):
        g = geom(77, 77, 12, v1=1.5, r=4)
        assert (s.hyperfan_in_weight_variance(g)
                == pytest.approx(s.hyperfan_out_weight_variance(g), rel=REL))


class TestHyperfanBiasVariance:
    @pytest.mark.parametrize("g,relu,expected", [
        (geom(500, 500, 50, d_l=50), False, 0.01),
        (geom(500, 500, 50, d_l=50), True, 0.02),
        (geom(1, 1, 1, d_l=1, v2=0.5), False, 1.0),
        (geom(8, 8, 8, d_l=25, v2=2.0), False, 1 / 100),
        (geom(8, 8, 8, d_l=25, v2=2.0), True, 2 / 100),
        (geom(3, 3, 3, d_l=10, v2=0.1), False, 0.5),
        (geom(99, 5, 7, d_l=11, v2=1.0), True, 1 / 11),
        (geom(4, 4, 4, d_l=2), False, 0.25),
        (geom(4, 4, 4, d_l=2, v2=4.0), False, 1 / 16),
        (geom(123, 45, 6, d_l=78, v2=0.9), False, 1 / (2 * 78 * 0.9)),
    ])
    def test_hyperfan_in_bias(self, g, relu, expected):
        assert s.hyperfan_in_bias_variance(g, relu) == pytest.approx(expected, rel=REL)

    def test_bias_ignores_receptive_field(self):
        a = s.hyperfan_in_bias_variance(geom(8, 8, 8, d_l=5, r=1))
        b = s.hyperfan_in_bias_variance(geom(8, 8, 8, d_l=5, r=9))
        assert a == b

    @pytest.mark.parametrize("g,relu,expected", [
        (geom(500, 10, 50, d_l=50), False, 0.0196),
        (geom(500, 500, 50, d_l=50), False, 0.0),
        (geom(500, 784, 50, d_l=50), False, 0.0),
        (geom(100, 50, 10, d_l=20, v2=1.0), False, 0.5 / 20),
        (geom(100, 50, 10, d_l=20, v2=1.0), True, 1.0 / 20),
        (geom(100, 25, 10, d_l=10, v2=3.0), False, 0.75 / 30),
        (geom(4, 1, 1, d_l=1), False, 0.75),
        (geom(4, 1, 1, d_l=1), True, 1.5),
        (geom(10, 9, 3, d_l=5, v2=0.2), False, 0.1),
        (geom(7, 7, 7, d_l=7), True, 0.0),
    ])
    def test_hyperfan_out_bias(self, g, relu, expected):
        assert s.hyperfan_out_bias_variance(g, relu) == pytest.approx(expected, rel=REL)

    @given(st.integers(1, 2000), st.integers(1, 2000), st.integers(1, 100),
           st.floats(0.01, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_clamp_never_negative(self, d_i, d_j, d_l, v2):
        g = geom(d_i, d_j, 1, d_l=d_l, v2=v2)
        assert s.hyperfan_out_bias_variance(g) >= 0.0


class TestScaleRecoveryProperties:
    # 1000 randomized geometries: the generated weight variance times the
    # layer fan-in is exactly 1 (up to float rounding).
    def _random_geoms(self, n=1000):
        rng = Rng(2024)
        for _ in range(n):
            d_i = 1 + int(rng.integers(2000))
            d_j = 1 + int(rng.integers(2000))
            d_k = 1 + int(rng.integers(500))
            d_l = 1 + int(rng.integers(500))
            r = [1, 1, 9, 25][int(rng.integers(4))]
            v1 = float(np.exp(rng.normal(1.0)))
            v2 = float(np.exp(rng.normal(1.0)))
            yield geom(d_i, d_j, d_k, d_l=d_l, v1=v1, v2=v2, r=r)

    def test_hyperfan_in_recovers_fan_in(self):
        for g in self._random_geoms():
            v = s.hyperfan_in_weight_variance(g)
            assert abs(g.d_k * v * g.var_e1 * g.receptive_field * g.d_j - 1.0) < 1e-13

    def test_hyperfan_out_recovers_fan_out(self):
        for g in self._random_geoms():
            v = s.hyperfan_out_weight_variance(g)
            assert abs(g.d_k * v * g.var_e1 * g.receptive_field * g.d_i - 1.0) < 1e-13

    def test_case2_split_sums_to_one(self):
        # weight and bias branches each carry exactly 1/2
        for g in self._random_geoms():
            vw = s.hyperfan_in_weight_variance(g, hypernet_bias=True)
            vb = s.hyperfan_in_bias_variance(g)
            total = (g.d_j * g.receptive_field * g.d_k * vw * g.var_e1
                     + g.d_l * vb * g.var_e2)
            assert abs(total - 1.0) < 1e-13

    def test_hyperfan_out_bias_budget(self):
        # before clamping, weight + bias variance contributions sum to 1
        for g in self._random_geoms():
            if g.d_j > g.d_i:
                continue
            vw = s.hyperfan_out_weight_variance(g)
            vb = s.hyperfan_out_bias_variance(g)
            total = (g.d_j * g.receptive_field * g.d_k * vw * g.var_e1
                     + g.d_l * vb * g.var_e2)
            assert abs(total - 1.0) < 1e-12


class TestSchemeDispatch:
    def test_scheme_table_values(self):
        g = geom(500, 500, 50, d_l=50)
        no_bias = s.parse_scheme("hyperfan-in", relu_gain=False)
        with_bias = s.parse_scheme("hyperfan-in", relu_gain=False, hypernet_bias=True)
        assert s.scheme_weight_variance(no_bias, g) == pytest.approx(4.0e-5, rel=REL)
        assert s.scheme_weight_variance(with_bias, g) == pytest.approx(2.0e-5, rel=REL)
        assert s.scheme_bias_variance(with_bias, g) == pytest.approx(0.01, rel=REL)

    def test_classical_head_variance_uses_head_fans(self):
        # a head mapping d_k features to d_i*d_j outputs
        g = geom(500, 784, 50)
        fan_in = s.parse_scheme("fan-in", relu_gain=False)
        fan_out = s.parse_scheme("fan-out", relu_gain=False)
        assert s.scheme_weight_variance(fan_in, g) == pytest.approx(1 / 50, rel=REL)
        assert s.scheme_weight_variance(fan_out, g) == pytest.approx(
            1 / (500 * 784), rel=REL)

    def test_small_random_uses_scale_param(self):
        g = geom(500, 500, 50)
        sch = s.parse_scheme("small-random")
        assert s.BASELINE_SCALE[sch.kind] == 0.01
        assert s.scheme_weight_variance(sch, g) == pytest.approx(1e-4, rel=REL)

    def test_scaled_output_scales_kaiming_head(self):
        g = geom(500, 500, 50)
        sch = s.parse_scheme("scaled-output", relu_gain=False)
        assert s.scheme_weight_variance(sch, g) == pytest.approx(
            (1 / 50) * 0.01, rel=REL)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            s.parse_scheme("xavier-magic")


class TestHypernetLayerRules:
    def test_only_output_layers_are_scaled_down(self):
        g = geom(10, 40, 1)
        sch = s.parse_scheme("scaled-output", relu_gain=True)
        assert s.layer_variance(sch, g) == pytest.approx(2 / 40, rel=REL)
        assert s.layer_variance(sch, g, output=True) == pytest.approx(2 / 40 * 0.01, rel=REL)
        for kind in ("harmonic", "hyperfan-out", "small-random"):   # the flag moves no other
            sch = s.parse_scheme(kind)
            assert s.layer_variance(sch, g, output=True) == s.layer_variance(sch, g)
        assert s.layer_variance(s.parse_scheme("harmonic"), g) == pytest.approx(4 / 50, rel=REL)

    def test_projection_takes_hyperfan_else_a_square_layer(self):
        g = geom(8, 4, 5, r=9)
        for kind in s.HYPERFAN_KINDS:
            sch = s.parse_scheme(kind)
            assert s.projection_variance(sch, g) == s.scheme_weight_variance(sch, g)
        assert s.projection_variance(s.parse_scheme("fan-out"), g) == pytest.approx(2 / 5)
        assert s.projection_variance(s.parse_scheme("scaled-output"), g) == pytest.approx(2 / 5)
        assert s.projection_variance(s.parse_scheme("small-random"), g) == pytest.approx(1e-4)

    @pytest.mark.parametrize("kind", s.ALL_KINDS)
    def test_offsets_are_zero_but_under_small_random(self, kind):
        want = 1e-4 if kind == "small-random" else 0.0
        assert s.offset_variance(s.parse_scheme(kind)) == pytest.approx(want, rel=REL)


class TestSamplingFidelity:
    N = 10 ** 6

    @pytest.mark.parametrize("kind", list(s.ALL_KINDS))
    def test_sampled_variance_matches_formula(self, kind):
        g = geom(500, 784, 50, d_l=50)
        sch = s.parse_scheme(kind, relu_gain=False, hypernet_bias=True)
        target = s.scheme_weight_variance(sch, g)
        vals = sample(target, self.N, Rng(42))
        assert abs(empirical_variance(vals) - target) / target < 0.01

    def test_zero_variance_scheme_samples_zero(self):
        g = geom(500, 500, 50, d_l=50)
        sch = s.parse_scheme("hyperfan-out", relu_gain=False)
        target = s.scheme_bias_variance(sch, g)
        assert target == 0.0
        vals = sample(target, 1000, Rng(42))
        assert not vals.any()


class TestUniformBound:
    def test_matches_formula(self):
        assert s.uniform_bound(4.0e-5) == pytest.approx(np.sqrt(1.2e-4), rel=REL)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            s.uniform_bound(-1e-9)


class TestFanGeometryValidation:
    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            s.FanGeometry(d_i=0, d_j=1, d_k=1)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            s.FanGeometry(d_i=1, d_j=1, d_k=1, var_e1=0.0)
