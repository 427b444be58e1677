"""Per-layer variance instrumentation.

``snapshot`` reduces forward/backward traces to per-layer mean/variance rows,
each the array's own ``mean()`` and ``var()`` to the bit (``tensor.mean_var``:
two reads on every core, no copy; an array on two rows is read once),
``predict`` produces the closed-form values those rows should take right
after initialization, keyed by the same row kinds, and ``compare`` joins the
two into pass/fail ratios.
Reports serialize to JSON (step -> layer -> kind -> stats) and to a flat CSV
with columns step,layer,kind,mean,var,theory,ratio.
"""

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from . import init_schemes as schemes
from .mainnet import GENERATED_BIAS, IDENTITY, RELU, SpecError, forward
from .tensor import mean_var

DEFAULT_BAND = (0.8, 1.25)

# Row kinds a snapshot can emit.
INPUT = "input"
PREACT = "preact"
ACT = "act"
WEIGHT = "weight"
BIAS = "bias"
GRAD_ACT = "grad_act"
GRAD_WEIGHT = "grad_weight"
HEAD_FEATURE_GRAD = "head_feature_grad"
LINEAR_ACT = "linear_act"


@dataclass
class StatRow:
    step: int
    layer: int
    kind: str
    mean: float
    var: float
    n: int
    theory: float | None = None
    ratio: float | None = None
    passed: bool | None = None


@dataclass
class VarianceReport:
    step: int
    rows: list

    def kinds(self):
        return sorted({r.kind for r in self.rows})


def snapshot(step, trace, params=None, grads=None, head_feature_grads=None,
             linear_acts=None):
    """Deterministic per-layer statistics of one probe batch.

    ``trace`` is a mainnet ForwardTrace; ``grads`` a MainnetGrads; the
    optional ``head_feature_grads``, by layer, come from Hypernet.feature_grads
    and measure the gradient entering the hypernet; ``linear_acts`` are activations of an
    identity-activation replay of the same weights (the exploding-variance
    diagnostic, unsquashed by tanh). Arrays of fewer than two values give
    no row.
    """
    if not trace.acts:
        raise ValueError("empty trace")
    items = [(-1, INPUT, trace.inputs[0])]
    for t in range(len(trace.acts)):
        items += [(t, PREACT, trace.preacts[t]), (t, ACT, trace.acts[t])]
        if params is not None:
            items += [(t, WEIGHT, params[t]["W"]), (t, BIAS, params[t]["b"])]
        if grads is not None:
            items += [(t, GRAD_ACT, grads.acts[t]), (t, GRAD_WEIGHT, grads.weight[t])]
    if head_feature_grads is not None:
        items += [(t, HEAD_FEATURE_GRAD, g) for t, g in head_feature_grads.items()]
    if linear_acts is not None:
        items += [(t, LINEAR_ACT, x) for t, x in enumerate(linear_acts)]
    stats = {}   # by array: the layer-0 linear_act row is preacts[0] itself
    rows = []
    for t, kind, values in items:
        if np.size(values) >= 2:
            if id(values) not in stats:
                stats[id(values)] = mean_var(values)
            mean, var = stats[id(values)]
            rows.append(StatRow(step=step, layer=t, kind=kind, mean=mean, var=var,
                                n=int(np.size(values))))
    return VarianceReport(step=step, rows=rows)


def linear_activation_variances(mspec, params, trace):
    """Replay the weights with identity activations; returns activations per layer.

    This measures the raw variance recursion of the generated weights, which a
    saturating activation would otherwise mask. ``trace`` is the probe's own
    forward trace of the same weights: its layer-0 pre-activation is the
    replay's layer 0, and one forward-only pass replays the layers after it.
    """
    x = trace.preacts[0]
    acts = [x]
    if len(mspec.layers) > 1:
        tail = tuple(replace(l, activation=IDENTITY) for l in mspec.layers[1:])
        batch = x.transpose(0, 3, 1, 2) if x.ndim == 4 else x   # forward takes NCHW
        replay, _ = forward(replace(mspec, layers=tail), params[1:], batch,
                            for_backward=False)
        acts += replay.acts
    return acts


def predict(scheme, mspec, hypernet, var_input=1.0):
    """Theoretical per-layer variances for a freshly initialized hypernet,
    keyed by the row kind they predict: ``{WEIGHT: [...], PREACT: [...],
    ACT: [...], LINEAR_ACT: [...]}``, one value per layer.

    Uses the declared embedding variance and the scheme's formulas; the
    activation recursion treats tanh as identity (its linear regime) and
    halves the propagated second moment after each ReLU, whose ACT value is
    None (not closed-form). LINEAR_ACT follows the raw weight recursion
    fan_in * Var(W) with no activation at all, matching
    :func:`linear_activation_variances`.
    """
    out = {WEIGHT: [], PREACT: [], ACT: [], LINEAR_ACT: []}
    m2 = lin = var_input
    for t, layer in enumerate(mspec.layers):
        geom = hypernet.geometry(t)
        eff = hypernet.layer_scheme(scheme, t)
        w = schemes.generated_weight_variance(eff, geom)
        bias_term = 0.0
        if layer.bias_source == GENERATED_BIAS:
            bias_term = geom.d_l * schemes.scheme_bias_variance(eff, geom) * geom.var_e2
        v = layer.fan_in * w * m2 + bias_term
        lin = layer.fan_in * w * lin + bias_term
        m2 = v / 2.0 if layer.activation == RELU else v
        for kind, value in ((WEIGHT, w), (PREACT, v), (LINEAR_ACT, lin),
                            (ACT, None if layer.activation == RELU else v)):
            out[kind].append(value)
    return out


def compare(report, prediction, band=DEFAULT_BAND):
    """Attach theory values and ratio pass/fail to the report's rows of the
    kinds ``prediction`` holds (per-layer weight, pre-activation, activation
    and identity-replay activation variance), within ``band`` of the theory
    value; returns the rows checked."""
    lo, hi = band
    layers_seen = {r.layer for r in report.rows if r.layer >= 0}
    if layers_seen and max(layers_seen) >= len(prediction[WEIGHT]):
        raise SpecError("report and prediction cover different layer sets")
    checked = []
    for row in report.rows:
        theory = prediction[row.kind][row.layer] if row.kind in prediction else None
        if theory is None:
            continue
        row.theory = float(theory)
        if theory > 0:
            row.ratio = row.var / theory
            row.passed = bool(lo <= row.ratio <= hi)
        else:
            row.ratio = None
            row.passed = bool(row.var == 0.0)
        checked.append(row)
    return checked


@np.errstate(divide="ignore", invalid="ignore")
def activation_variance_ratios(trace):
    """Per-layer Var(act[t]) / Var(act[t-1]), with the input as layer -1.

    A variance-preserving initialization keeps every ratio near 1; a classical
    scheme applied to the hypernet pushes each ratio toward the layer width.
    A layer after one of zero variance gives inf (nan if it is zero too).
    """
    vs = np.array([mean_var(a)[1] for a in [trace.inputs[0], *trace.acts]])
    return (vs[1:] / vs[:-1]).tolist()


@np.errstate(divide="ignore", invalid="ignore")
def gradient_variance_ratios(grads):
    """Var(dL/dx[t]) / Var(dL/dx[t+1]) across adjacent layers, inf or nan
    over a zero variance as in ``activation_variance_ratios``."""
    vs = np.array([mean_var(g)[1] for g in grads.acts])
    return (vs[:-1] / vs[1:]).tolist()


def _finite(value):
    """A JSON-safe number: None for a non-finite value, which strict JSON
    cannot hold."""
    return value if value is None or np.isfinite(value) else None


def report_to_dict(reports):
    """Reports as plain data, strict JSON: a non-finite mean, var, theory
    or ratio (an act_ratio row's mean, a ratio over a zero variance) is None."""
    out = {}
    for rep in reports:
        step = out.setdefault(str(rep.step), {})
        for row in rep.rows:
            layer = step.setdefault(str(row.layer), {})
            layer[row.kind] = {"mean": _finite(row.mean), "var": _finite(row.var),
                               "theory": _finite(row.theory), "ratio": _finite(row.ratio),
                               "n": row.n}
    return out


def write_json(path, reports):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report_to_dict(reports), f, indent=1, sort_keys=True, allow_nan=False)


def write_csv(path, reports):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["step", "layer", "kind", "mean", "var", "theory", "ratio"])
        for rep in reports:
            for row in rep.rows:
                w.writerow([row.step, row.layer, row.kind, row.mean, row.var,
                            "" if row.theory is None else row.theory,
                            "" if row.ratio is None else row.ratio])


def _number(stats, key, optional=False):
    """stats[key], which must be a JSON number or null: null reads as None
    when ``optional``, else as nan (a value strict JSON could not hold)."""
    value = stats.get(key) if optional else stats[key]
    if value is None:
        return None if optional else float("nan")
    if type(value) not in (int, float):
        raise ValueError(f"{key} {value!r} is not a number")
    return value


def rows_from_dict(data):
    """Inverse of report_to_dict: rebuild VarianceReports from parsed JSON;
    raises ValueError on a mean, var, theory or ratio that is neither a
    number nor null."""
    reports = []
    for step_key in sorted(data, key=lambda s: int(s)):
        rows = []
        for layer_key, kinds in sorted(data[step_key].items(), key=lambda kv: int(kv[0])):
            for kind, stats in sorted(kinds.items()):
                rows.append(StatRow(step=int(step_key), layer=int(layer_key), kind=kind,
                                    mean=_number(stats, "mean"), var=_number(stats, "var"),
                                    n=stats.get("n", 0),
                                    theory=_number(stats, "theory", optional=True),
                                    ratio=_number(stats, "ratio", optional=True)))
        reports.append(VarianceReport(step=int(step_key), rows=rows))
    return reports
