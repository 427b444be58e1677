"""Outside-in span tracer: times calls into hyperinit's public functions.

``Tracer.installed()`` swaps each traced function, in every module namespace
the training loop looks it up from, for a wrapper that records a span
(id, parent id, name, start, end, run id, work) and restores the originals on
exit. The program itself is not edited; spans inside the program (per
mainnet layer, im2col/GEMM/col2im, per head group) need timers in the
program and are not recorded here.

A span's self time is its duration minus the time its child spans cover, so
the self times of one run add up to the duration of its root span.
"""

import contextlib
import importlib
import json
import os
import time
from collections import defaultdict
from statistics import median

ID, PARENT, NAME, START, END, RUN, WORK = range(7)


def gemm_flops(mspec, batch_shape):
    """Computed multiply-add FLOPs of one mainnet forward: 2 * B * fan_in *
    outputs per layer, conv outputs counted per spatial position."""
    b = batch_shape[0]
    hw = tuple(batch_shape[2:]) if len(batch_shape) == 4 else None
    total = 0
    for layer in mspec.layers:
        if layer.kind == "conv":
            kh, kw, stride, pad = layer.kernel
            hw = ((hw[0] + 2 * pad - kh) // stride + 1, (hw[1] + 2 * pad - kw) // stride + 1)
            total += 2 * b * hw[0] * hw[1] * layer.d_out * layer.d_in * kh * kw
        else:
            total += 2 * b * layer.d_in * layer.d_out
    return total


def _forward_work(args, kwargs, out):
    return gemm_flops(args[0], args[2].shape)


def _backward_work(args, kwargs, out):
    # dW and dx GEMMs per layer: twice the forward count.
    return 2 * gemm_flops(args[0], args[2].inputs[0].shape)


def _sample_work(args, kwargs, out):
    return out.size


def _rejected_work(args, kwargs, out):
    return 0 if out else 1


def _load_work(args, kwargs, out):
    return sum(os.path.getsize(a) for a in args if isinstance(a, (str, os.PathLike)))


# (span name, sites, work function). A site is "module:attribute path"; each
# function is patched where train() and its helpers look it up, since they
# import names directly.
TRACED = (
    ("mainnet.forward", ("hyperinit.mainnet:forward", "hyperinit.train:forward",
                         "hyperinit.probe:forward"), _forward_work),
    ("mainnet.backward", ("hyperinit.mainnet:backward", "hyperinit.train:backward"),
     _backward_work),
    ("hypergen.generate", ("hyperinit.hypergen:Hypernet.generate",), None),
    ("hypergen.backward", ("hyperinit.hypergen:Hypernet.backward",), None),
    ("hypergen.init_hypernet", ("hyperinit.hypergen:init_hypernet",
                                "hyperinit.train:init_hypernet"), None),
    ("tensor.sample", ("hyperinit.tensor:sample", "hyperinit.hypergen:sample"), _sample_work),
    ("train.sgd_step", ("hyperinit.train:sgd_step",), _rejected_work),
    ("probe.snapshot", ("hyperinit.probe:snapshot", "hyperinit.train:snapshot"), None),
    ("probe.linear_activation_variances",
     ("hyperinit.probe:linear_activation_variances",
      "hyperinit.train:linear_activation_variances"), None),
    ("data.load", ("hyperinit.data:load_idx", "hyperinit.train:load_idx",
                   "hyperinit.data:load_cifar10_binary",
                   "hyperinit.train:load_cifar10_binary"), _load_work),
    ("data.standardize", ("hyperinit.data:standardize", "hyperinit.train:standardize"), None),
)
ROOT = "train"
SPAN_NAMES = (ROOT,) + tuple(name for name, _, _ in TRACED)


def _resolve(site):
    """(owner, attribute, function) of a "module:Class.attr" site; the
    function is None when the program no longer has it."""
    module, _, dotted = site.partition(":")
    *path, attr = dotted.split(".")
    try:
        owner = importlib.import_module(module)
        for part in path:
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return None, attr, None
    return owner, attr, getattr(owner, attr, None)


class Tracer:
    """Keeps spans in memory; one instance per traced process."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self.run = None
        self.runs = 0

    def wrap(self, name, fn, work=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                # A finished span is a tuple of atoms, which the garbage
                # collector stops tracking, so long traces do not slow it.
                spans[sid] = (sid, parent, name, start, end, self.run, 0)
            if work is not None:
                spans[sid] = spans[sid][:WORK] + (work(args, kwargs, out),)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        saved = []
        try:
            for name, sites, work in TRACED:
                wrappers = {}
                for site in sites:
                    owner, attr, fn = _resolve(site)
                    if fn is None:
                        self.missing.append(site)
                        continue
                    if id(fn) not in wrappers:
                        wrappers[id(fn)] = self.wrap(name, fn, work)
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, wrappers[id(fn)])
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def call(self, fn, *args, **kwargs):
        """Run ``fn`` as the root span of a new run; its spans share the run id."""
        self.run = self.runs
        self.runs += 1
        try:
            return self.wrap(ROOT, fn)(*args, **kwargs)
        finally:
            self.run = None

    def self_times(self):
        """Per-span self time: duration minus the time covered by children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def summary(self, passes):
        """Per-layer totals divided by ``passes``; ms_p50 over every call."""
        own = self.self_times()
        by_name = defaultdict(list)
        for s, own_s in zip(self.spans, own):
            by_name[s[NAME]].append((s[END] - s[START], own_s, s[WORK]))
        out = {}
        for name in SPAN_NAMES:
            rows = by_name.get(name, [])
            busy = sum(r[0] for r in rows)
            out[name] = {
                "calls": len(rows) / passes,
                "busy_s": busy / passes,
                "self_s": sum(r[1] for r in rows) / passes,
                "ms_p50": median(r[0] for r in rows) * 1e3 if rows else 0.0,
                "work": sum(r[2] for r in rows) / passes,
            }
        return out

    def write(self, path):
        """Write spans as JSON lines: id, parent, name, start, end, run, work."""
        keys = ("id", "parent", "name", "start", "end", "run", "work")
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(keys, s))) + "\n")
