"""Per-layer variance instrumentation.

``snapshot`` reduces forward/backward traces to per-layer mean/variance rows,
``predict`` produces the closed-form values those rows should take right
after initialization, and ``compare`` joins the two into pass/fail ratios.
Reports serialize to JSON (step -> layer -> kind -> stats) and to a flat CSV
with columns step,layer,kind,mean,var,theory,ratio.
"""

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from . import init_schemes as schemes
from .hypergen import gradient_shrink_factor
from .mainnet import IDENTITY, RELU, SpecError, forward
from .tensor import DTYPE

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

    def find(self, layer, kind):
        for row in self.rows:
            if row.layer == layer and row.kind == kind:
                return row
        return None

    def kinds(self):
        return sorted({r.kind for r in self.rows})


def _stat(rows, step, layer, kind, values):
    values = np.asarray(values, dtype=DTYPE).ravel()
    if values.size < 2:
        return
    # The sums and divisions of values.mean() and values.var(), with the mean
    # taken once: the same bits in one pass fewer.
    mean = values.sum() / values.size
    dev = values - mean
    dev *= dev
    rows.append(StatRow(step=step, layer=layer, kind=kind,
                        mean=float(mean), var=float(dev.sum() / values.size),
                        n=int(values.size)))


def snapshot(step, trace, params=None, grads=None, head_feature_grads=None,
             linear_acts=None):
    """Deterministic per-layer statistics of one probe batch.

    ``trace`` is a mainnet ForwardTrace; ``grads`` a MainnetGrads; the
    optional ``head_feature_grads`` come from Hypernet.backward and measure
    the gradient entering the hypernet; ``linear_acts`` are activations of an
    identity-activation replay of the same weights (the exploding-variance
    diagnostic, unsquashed by tanh).
    """
    if not trace.acts:
        raise ValueError("empty trace")
    rows = []
    _stat(rows, step, -1, INPUT, trace.inputs[0])
    for t in range(len(trace.acts)):
        _stat(rows, step, t, PREACT, trace.preacts[t])
        _stat(rows, step, t, ACT, trace.acts[t])
        if params is not None:
            _stat(rows, step, t, WEIGHT, params[t]["W"])
            _stat(rows, step, t, BIAS, params[t]["b"])
        if grads is not None:
            _stat(rows, step, t, GRAD_ACT, grads.acts[t])
            _stat(rows, step, t, GRAD_WEIGHT, grads.weight[t])
    if head_feature_grads is not None:
        for (side, t), g in head_feature_grads.items():
            if side == "w":
                _stat(rows, step, t, HEAD_FEATURE_GRAD, g)
    if linear_acts is not None:
        for t, x in enumerate(linear_acts):
            _stat(rows, step, t, LINEAR_ACT, x)
    return VarianceReport(step=step, rows=rows)


def linear_activation_variances(mspec, params, batch):
    """Replay the weights with identity activations; returns activations per layer.

    This measures the raw variance recursion of the generated weights, which a
    saturating activation would otherwise mask.
    """
    linear_layers = tuple(replace(l, activation=IDENTITY) for l in mspec.layers)
    linear_spec = replace(mspec, layers=linear_layers)
    trace, _ = forward(linear_spec, params, batch)
    return trace.acts


@dataclass
class Prediction:
    """Closed-form per-layer targets at initialization."""

    weight_var: list
    preact_var: list
    act_var: list          # None where the activation makes the value non-closed-form
    linear_var: list       # identity-replay recursion, never squashed or halved
    grad_shrink: list
    input_var: float


def predict(scheme, mspec, hypernet, var_input=1.0):
    """Theoretical per-layer variances for a freshly initialized hypernet.

    Uses the declared embedding variances and the scheme's formulas; the
    activation recursion treats tanh as identity (its linear regime) and
    halves the propagated second moment after each ReLU. ``linear_var``
    follows the raw weight recursion fan_in * Var(W) with no activation at
    all, matching :func:`linear_activation_variances`.
    """
    weight_var, preact_var, act_var, linear_var, shrink = [], [], [], [], []
    m2 = var_input
    lin = var_input
    for t, layer in enumerate(mspec.layers):
        geom = hypernet.geometry(t)
        eff = hypernet.layer_scheme(scheme, t)
        w = schemes.generated_weight_variance(eff, geom)
        weight_var.append(w)
        bias_term = 0.0
        if layer.bias_source == "generated":
            bias_term = geom.d_l * schemes.scheme_bias_variance(eff, geom) * geom.var_e2
        v = layer.fan_in * w * m2 + bias_term
        preact_var.append(v)
        lin = layer.fan_in * w * lin + bias_term
        linear_var.append(lin)
        if layer.activation == RELU:
            act_var.append(None)
            m2 = v / 2.0
        else:
            act_var.append(v)
            m2 = v
        shrink.append(gradient_shrink_factor(geom))
    return Prediction(weight_var=weight_var, preact_var=preact_var,
                      act_var=act_var, linear_var=linear_var,
                      grad_shrink=shrink, input_var=var_input)


@dataclass
class Comparison:
    rows: list
    all_passed: bool


def compare(report, prediction, band=DEFAULT_BAND):
    """Attach theory values and ratio pass/fail to the report's rows.

    Rows checked: per-layer weight variance and (identity/tanh) activation
    variance against the prediction, within ``band`` of the theory value.
    """
    lo, hi = band
    n_layers = len(prediction.weight_var)
    layers_seen = {r.layer for r in report.rows if r.layer >= 0}
    if layers_seen and max(layers_seen) >= n_layers:
        raise SpecError("report and prediction cover different layer sets")
    checked = []
    ok = True
    for row in report.rows:
        theory = None
        if row.kind == WEIGHT:
            theory = prediction.weight_var[row.layer]
        elif row.kind == ACT:
            theory = prediction.act_var[row.layer]
        elif row.kind == PREACT:
            theory = prediction.preact_var[row.layer]
        elif row.kind == LINEAR_ACT:
            theory = prediction.linear_var[row.layer]
        if theory is None:
            continue
        row.theory = float(theory)
        if theory > 0:
            row.ratio = row.var / theory
            row.passed = bool(lo <= row.ratio <= hi)
        else:
            row.ratio = None
            row.passed = bool(row.var == 0.0)
        ok = ok and row.passed
        checked.append(row)
    return Comparison(rows=checked, all_passed=ok)


def activation_variance_ratios(trace):
    """Per-layer Var(act[t]) / Var(act[t-1]), with the input as layer -1.

    A variance-preserving initialization keeps every ratio near 1; a classical
    scheme applied to the hypernet pushes each ratio toward the layer width.
    """
    vs = [float(np.var(trace.inputs[0]))] + [float(np.var(a)) for a in trace.acts]
    return [vs[t + 1] / vs[t] for t in range(len(trace.acts))]


def gradient_variance_ratios(grads):
    """Var(dL/dx[t]) / Var(dL/dx[t+1]) across adjacent layers."""
    vs = [float(np.var(g)) for g in grads.acts]
    return [vs[t] / vs[t + 1] for t in range(len(vs) - 1)]


def report_to_dict(reports):
    if not isinstance(reports, (list, tuple)):
        reports = [reports]
    out = {}
    for rep in reports:
        step = out.setdefault(str(rep.step), {})
        for row in rep.rows:
            layer = step.setdefault(str(row.layer), {})
            layer[row.kind] = {"mean": row.mean, "var": row.var,
                               "theory": row.theory, "ratio": row.ratio,
                               "n": row.n}
    return out


def write_json(path, reports):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report_to_dict(reports), f, indent=1, sort_keys=True)


def write_csv(path, reports):
    if not isinstance(reports, (list, tuple)):
        reports = [reports]
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["step", "layer", "kind", "mean", "var", "theory", "ratio"])
        for rep in reports:
            for row in rep.rows:
                w.writerow([row.step, row.layer, row.kind, row.mean, row.var,
                            "" if row.theory is None else row.theory,
                            "" if row.ratio is None else row.ratio])


def rows_from_dict(data):
    """Inverse of report_to_dict: rebuild VarianceReports from parsed JSON."""
    reports = []
    for step_key in sorted(data, key=lambda s: int(s)):
        rows = []
        for layer_key, kinds in sorted(data[step_key].items(), key=lambda kv: int(kv[0])):
            for kind, stats in sorted(kinds.items()):
                rows.append(StatRow(step=int(step_key), layer=int(layer_key), kind=kind,
                                    mean=stats["mean"], var=stats["var"],
                                    n=stats.get("n", 0), theory=stats.get("theory"),
                                    ratio=stats.get("ratio")))
        reports.append(VarianceReport(step=int(step_key), rows=rows))
    return reports
