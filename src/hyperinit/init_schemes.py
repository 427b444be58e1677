"""Closed-form variance formulas for every supported initialization scheme.

Three families:

* classical fan-in / fan-out / harmonic, with an optional factor 2 for layers
  whose output passes through a ReLU, and a receptive-field divisor for
  convolutional geometry;
* hyperfan-in / hyperfan-out, which size a hypernet's output layer so that the
  *generated* network's weights land on classical fan-in (resp. fan-out)
  scaling;
* ad-hoc baselines seen in practice: small random values, Kaiming with a
  scaled-down output layer, and Kaiming with constant embeddings.

Beside the heads' formulas, three rules cover every other hypernet array:

* the interior-layer rule, ``layer_variance``: a layer seen as a classical
  one (a trunk layer, the chunked head, any head under a classical or
  baseline scheme) takes the scheme's own classical formula (fan-in for the
  others) or small-random's fixed scale; only output heads, which emit
  mainnet parameters, take scaled-output's scale-down;
* the projection rule, ``projection_variance``: a chunk row's projection is
  its target's effective output layer, so it takes the target's hyperfan
  variance, or else the interior-layer rule on a (d_k, d_k) layer;
* the offset rule, ``offset_variance``: every bias and offset of the
  hypernet starts at zero, except under small-random, which draws it at its
  scale.

All functions are pure and operate on a :class:`FanGeometry`, which carries
the dimensions of one generator head and its target layer:

``d_i``    fan-out of the target layer (output width / channels)
``d_j``    fan-in of the target layer (input width / channels, kernel excluded)
``d_k``    width of the hypernet features feeding the weight head
``d_l``    width of the hypernet features feeding the bias head
``var_e1`` declared variance of the weight-side embedding distribution
``var_e2`` declared variance of the bias-side embedding distribution
``receptive_field``  kernel_h * kernel_w for conv targets, 1 for dense
"""

from dataclasses import dataclass

import numpy as np

FAN_IN = "fan-in"
FAN_OUT = "fan-out"
HARMONIC = "harmonic"
HYPERFAN_IN = "hyperfan-in"
HYPERFAN_OUT = "hyperfan-out"
SMALL_RANDOM = "small-random"
SCALED_OUTPUT = "scaled-output"
CONST_EMBEDDING = "const-embedding"

CLASSICAL_KINDS = (FAN_IN, FAN_OUT, HARMONIC)
HYPERFAN_KINDS = (HYPERFAN_IN, HYPERFAN_OUT)
BASELINE_KINDS = (SMALL_RANDOM, SCALED_OUTPUT, CONST_EMBEDDING)
ALL_KINDS = CLASSICAL_KINDS + HYPERFAN_KINDS + BASELINE_KINDS

BASELINE_SCALE = {SMALL_RANDOM: 0.01, SCALED_OUTPUT: 0.1}   # the baselines' fixed scales


@dataclass(frozen=True)
class FanGeometry:
    d_i: int
    d_j: int
    d_k: int
    d_l: int = 1
    var_e1: float = 1.0
    var_e2: float = 1.0
    receptive_field: int = 1

    def __post_init__(self):
        for name in ("d_i", "d_j", "d_k", "d_l", "receptive_field"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v}")
        for name in ("var_e1", "var_e2"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be finite and > 0, got {v}")


@dataclass(frozen=True)
class InitScheme:
    """An initialization strategy plus the indicator flags it depends on.

    ``relu_gain`` enables the factor 2 for targets followed by a ReLU (layers
    with other activations never receive it); ``hypernet_bias`` marks that the
    hypernet also generates biases, which splits the hyperfan-in weight
    variance in half. The small-random and scaled-output baselines take their
    scale from ``BASELINE_SCALE``.
    """

    kind: str
    relu_gain: bool = True
    hypernet_bias: bool = False

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown init scheme {self.kind!r}; expected one of {ALL_KINDS}")


def parse_scheme(name, **kw):
    return InitScheme(kind=name, **kw)


def _gain(relu_gain):
    return 2.0 if relu_gain else 1.0


def classical_variance(kind, geom, relu_gain=False):
    """Classical weight variance for a layer with the given geometry.

    fan-in:   g / (d_j * r)
    fan-out:  g / (d_i * r)
    harmonic: 2 g / ((d_j + d_i) * r)
    """
    g = _gain(relu_gain)
    r = geom.receptive_field
    if kind == FAN_IN:
        return g / (geom.d_j * r)
    if kind == FAN_OUT:
        return g / (geom.d_i * r)
    if kind == HARMONIC:
        return 2.0 * g / ((geom.d_j + geom.d_i) * r)
    raise ValueError(f"not a classical kind: {kind!r}")


def hyperfan_in_weight_variance(geom, relu_gain=False, hypernet_bias=False):
    """Head variance that makes generated weights match fan-in scaling.

    Var(H) = 2^relu / (2^hbias * d_j * d_k * var_e1 * r). The generated weight
    then has variance 2^relu / (2^hbias * d_j * r), i.e. fan-in init in the
    generated network (halved when the bias is generated too).
    """
    g = _gain(relu_gain)
    split = 2.0 if hypernet_bias else 1.0
    return g / (split * geom.d_j * geom.d_k * geom.var_e1 * geom.receptive_field)


def hyperfan_out_weight_variance(geom, relu_gain=False):
    """Head variance that makes generated weights match fan-out scaling.

    Var(H) = 2^relu / (d_i * d_k * var_e1 * r).
    """
    g = _gain(relu_gain)
    return g / (geom.d_i * geom.d_k * geom.var_e1 * geom.receptive_field)


def hyperfan_in_bias_variance(geom, relu_gain=False):
    """Bias-head variance for hyperfan-in: Var(G) = 2^relu / (2 * d_l * var_e2).

    Biases are per output channel, so no receptive-field divisor applies.
    """
    g = _gain(relu_gain)
    return g / (2.0 * geom.d_l * geom.var_e2)


def hyperfan_out_bias_variance(geom, relu_gain=False):
    """Bias-head variance for hyperfan-out.

    Var(G) = max(2^relu * (1 - d_j/d_i) / (d_l * var_e2), 0). The clamp kicks
    in when the target layer contracts (d_j >= d_i): the weight term already
    fills the whole output-variance budget, so the bias contributes nothing.
    """
    g = _gain(relu_gain)
    v = g * (1.0 - geom.d_j / geom.d_i) / (geom.d_l * geom.var_e2)
    return max(v, 0.0)


def layer_variance(scheme, geom, output=False):
    """The interior-layer rule: the variance of a hypernet layer of geometry
    ``geom`` that the scheme sees as a classical layer. That is the scheme's
    own formula (fan-in for the hyperfan and baseline schemes), or
    small-random's fixed scale; an ``output`` head under scaled-output is
    scaled down as well."""
    kind = scheme.kind
    if kind == SMALL_RANDOM:
        return BASELINE_SCALE[kind] ** 2
    var = classical_variance(kind if kind in CLASSICAL_KINDS else FAN_IN, geom, scheme.relu_gain)
    return var * BASELINE_SCALE[kind] ** 2 if output and kind == SCALED_OUTPUT else var


def projection_variance(scheme, geom):
    """The projection rule: a chunk row's (d_k, d_k) projection takes its
    target's hyperfan weight variance, or else the interior-layer rule."""
    if scheme.kind in HYPERFAN_KINDS:
        return scheme_weight_variance(scheme, geom)
    return layer_variance(scheme, FanGeometry(d_i=geom.d_k, d_j=geom.d_k, d_k=1))


def offset_variance(scheme):
    """The offset rule: hypernet biases and head offsets start at zero, or at
    small-random's scale."""
    return BASELINE_SCALE[SMALL_RANDOM] ** 2 if scheme.kind == SMALL_RANDOM else 0.0


def scheme_weight_variance(scheme, geom):
    """Variance assigned to a weight-generating head H under the scheme."""
    if scheme.kind == HYPERFAN_IN:
        return hyperfan_in_weight_variance(geom, scheme.relu_gain, scheme.hypernet_bias)
    if scheme.kind == HYPERFAN_OUT:
        return hyperfan_out_weight_variance(geom, scheme.relu_gain)
    # The head maps d_k features to d_i*d_j*r generated entries.
    return layer_variance(scheme, FanGeometry(d_i=geom.d_i * geom.d_j * geom.receptive_field,
                                              d_j=geom.d_k, d_k=1), output=True)


def scheme_bias_variance(scheme, geom):
    """Variance assigned to a bias-generating head G under the scheme."""
    if scheme.kind == HYPERFAN_IN:
        return hyperfan_in_bias_variance(geom, scheme.relu_gain)
    if scheme.kind == HYPERFAN_OUT:
        return hyperfan_out_bias_variance(geom, scheme.relu_gain)
    # The head maps d_l features to d_i generated biases.
    return layer_variance(scheme, FanGeometry(d_i=geom.d_i, d_j=geom.d_l, d_k=1), output=True)


def generated_weight_variance(scheme, geom):
    """Variance of the *generated* weights: d_k * Var(H) * var_e1.

    This is the quantity the hyperfan formulas steer; for hyperfan-in it
    equals fan-in-init variance of the target layer, for hyperfan-out the
    fan-out version.
    """
    if scheme.kind == CONST_EMBEDDING:
        # Constant embeddings replace var_e1 with 1/(d_j * r).
        head = scheme_weight_variance(scheme, geom)
        return geom.d_k * head / (geom.d_j * geom.receptive_field)
    return geom.d_k * scheme_weight_variance(scheme, geom) * geom.var_e1


def uniform_bound(variance):
    """Half-width of the symmetric uniform distribution with this variance."""
    if variance < 0:
        raise ValueError("variance must be >= 0")
    return float(np.sqrt(3.0 * variance))
