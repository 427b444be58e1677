"""Vanilla SGD over (hypernet -> mainnet -> loss), plus the experiment presets.

``pipeline_step`` (generate, forward, stop if diverged, backward,
Hypernet.backward) serves the training loop, the probe, the variance check
and the gradient check. The probe and the variance check read only the
weight heads' feature gradients: ``probe_step`` runs the step on freshly
generated parameters and asks ``Hypernet.feature_grads`` for them, so no
hypernet parameter gradient is built. ``train`` runs one loop over a preset's
batch schedule: shuffled epochs, or a sequence of tasks of sampled batches.
Every batch, the probe batch and each evaluation chunk is gathered from a
``data.Dataset`` by ``Dataset.rows``, so an image set stays uint8 pixels in
memory; an evaluation runs its chunk one forward-only layer at a time and
holds only the running layer's maps.

Only hypernet parameters and trainable embeddings are ever updated, through
``sgd_step`` on the updatable prefix of the hypernet's flat parameter vector
and the same prefix of its gradient, ``Hypernet.grad``: one finiteness check
refuses the whole step, one in-place update takes it. The hypernet owns that
gradient, and each step's ``Hypernet.backward`` overwrites it. For
empty-trunk, fixed-embedding hypernets (the MNIST-style presets) the loop's
updater never calls ``Hypernet.backward``, so it never allocates that
gradient, and uses an exact reparameterization instead: SGD on a linear head
(H, beta) with fixed embeddings moves the generated weights by

    W_s  <-  W_s - lr * sum_t (<e_t, e_s> + 1) * dW_t

so it can carry the generated weights directly and reconstruct the head
update lazily (a least-squares solve of the small Gram system, exact even
when equal embeddings make it singular) whenever the head itself is
needed: at each probe and when the loop ends, however it ends. This is
algebraically identical to stepping (H, beta) and orders of magnitude cheaper
when the head is large. Each head keeps its targets' weights as one (T, n)
stack, computed straight from the head. A weight gradient is the product
``dW_t = dy_t.T @ x_t`` of two factors backward already holds, the layer's
pre-activation gradient and its input (the patch matrix of a conv layer), so
the loop asks ``mainnet.backward`` for those factors and no ``dW``. The update
walks each head's rows in blocks that fit in L2: it forms the block of every
target's gradient (one small GEMM each) in one reused buffer, multiplies it by
the head's Gram matrix, scales it by lr and subtracts it from the stack's
matching block. Each step reads and writes each stack once. A head of one
target has a 1x1 Gram matrix, which ``np.multiply`` applies with the bits of
``np.matmul``. The stacks are built, and folded back at ``sync``, in the
head's power-of-two row chunks on every core (``tensor.in_groups``), with the
bits of the whole-matrix products; a ``sync`` with no update since the last
one folds nothing.

A step is refused, before any head moves, exactly when some gradient entry
would be non-finite: when a factor has a non-finite entry, or, if the
factors' bound K max|dy| max|x| (K the batch, or B*oh*ow for a conv layer)
reaches 1e300, when one of the head's blocks, computed first without being
applied, does.

Divergence (non-finite or > 1e30 loss/activations, or non-finite gradients)
halts training and returns partial results with the step recorded; several
baseline initializations are expected to end this way.
"""

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import (GLOBAL, Dataset, FormatError, load_cifar10_binary, load_idx,
                   make_regression_tasks, standardize)
from .hypergen import (CHUNKED, PER_LAYER, SHARED_SAME_SIZE, ChunkPlan, Hypernet,
                       HypernetSpec, init_hypernet)
from .init_schemes import parse_scheme
from .mainnet import (CROSS_ENTROPY, DENSE, GENERATED_BIAS, MSE, OVERFLOW_LIMIT, TANH, RELU,
                      ForwardTrace, MainnetGrads, accuracy, allconv,
                      backward, forward, mlp, mse_loss, weight_factors, weight_grad)
from .probe import (LINEAR_ACT, linear_activation_variances, snapshot, write_csv,
                    write_json)
from .tensor import DTYPE, Rng, in_groups, row_chunks

PROBE_BATCH = 300
BLOCK_ENTRIES = 1 << 16   # a 512 KiB gradient block: it, its Gram product and the
                          # stack's block stay within a 2 MiB per-core L2 cache
SAFE_PRODUCT = 1e300      # K max|dy| max|x| below this cannot overflow


class DataNotFoundError(FileNotFoundError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-4
    batch_size: int = 10
    epochs: int = 3
    seed: int = 0
    scheme: str = "hyperfan-in"
    probe_every: int = 1000
    eval_every: int | None = 200
    subset: int | None = None
    iterations: int | None = None   # per-task iteration cap (regression / conv desk runs)

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning rate must be >= 0")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch size and epochs must be positive")
        if self.subset is not None and self.subset < 1:
            raise ValueError("subset must be positive")
        for name in ("iterations", "eval_every", "probe_every"):
            if (getattr(self, name) or 0) < 0:
                raise ValueError(f"{name} must be >= 0")


def sgd_step(params, grads, lr):
    """In-place params -= lr * grads on two same-shape arrays; returns False
    (and changes nothing) if any gradient entry is non-finite."""
    if not np.isfinite(grads).all():
        return False
    params -= lr * grads
    return True


def _diverged(trace, loss):
    return (trace.overflow_layer is not None or not np.isfinite(loss)
            or abs(loss) > OVERFLOW_LIMIT)


@dataclass
class Step:
    """One pipeline pass; ``grads`` stays None when it stopped."""

    params: list
    trace: ForwardTrace
    loss: float
    diverged: bool
    grads: MainnetGrads | None = None


def pipeline_step(net, mspec, x, y, params=None, stop_on_divergence=True, weights=True):
    """Generate the mainnet parameters (unless carried ``params`` are given),
    run forward, stop if diverged, then backpropagate through the mainnet and,
    for generated parameters, through the hypernet into ``net.grad``.
    ``weights`` is passed to ``mainnet.backward``."""
    gtrace = None
    if params is None:
        params, gtrace = net.generate()
    trace, loss = forward(mspec, params, x, y)
    diverged = _diverged(trace, loss)
    if diverged and stop_on_divergence:
        return Step(params, trace, loss, diverged)
    grads = backward(mspec, params, trace, y, weights=weights)
    if gtrace is not None:
        net.backward(gtrace, grads.weight, grads.bias if net.bias_targets else None)
    return Step(params, trace, loss, diverged, grads)


def probe_step(net, mspec, x, y):
    """A pipeline step on freshly generated parameters, never stopped, and
    the head feature gradients of it, without a hypernet parameter gradient."""
    s = pipeline_step(net, mspec, x, y, net.generate()[0], stop_on_divergence=False)
    return s, net.feature_grads(s.grads.weight)


class _HeadSpaceSgd:
    """Updater applying ``sgd_step`` to the updatable prefixes of the
    hypernet's flat parameter vector and of its gradient, ``Hypernet.grad``,
    which the step's ``Hypernet.backward`` wrote."""

    carried = None   # no carried parameters: pipeline_step generates them
    weights = True   # Hypernet.backward reads the mainnet weight gradients

    def __init__(self, net: Hypernet):
        self.net = net

    def current_params(self):
        return self.net.generate()[0]

    def update(self, step, lr):
        n = self.net.n_updatable
        return sgd_step(self.net.flat[:n], self.net.grad[:n], lr)

    def sync(self):
        pass


class _FixedHeadFastPath:
    """Updater that carries the generated parameters of empty-trunk,
    fixed-embedding hypernets through SGD, reconstructing the heads exactly on
    demand.

    Each head owns a (T, n) stack of its targets' carried parameters, one row
    per target. ``update`` steps it in blocks of rows (output units) of at
    most ``BLOCK_ENTRIES`` entries, from the gradient factors backward left on
    the step (see the module docstring).
    """

    weights = False      # update forms the weight gradients from the step's factors

    @staticmethod
    def applicable(net: Hypernet):
        return (not net.hspec.embeddings_trainable
                and all(src.trunk.size == 0 for src in net.sources.values()))

    def __init__(self, net: Hypernet):
        self.layers = net.mspec.layers
        self.carried = [{"b": np.zeros(layer.d_out, dtype=DTYPE)} for layer in self.layers]
        self.heads = []
        size = 0
        for head in (h for bank in net.heads for h in bank.heads):
            emb = net.sources[head.slot.tag].block[list(head.rows)]   # identity trunk
            stack = np.empty((len(head.targets), head.n_out), dtype=DTYPE)
            base = np.empty_like(stack)

            def build(group):   # straight from the head: no product of every source row
                for rows in group:
                    for row in range(len(stack)):
                        np.matmul(head.H[rows], emb[row], out=stack[row, rows])
                        stack[row, rows] += head.beta[rows]
                    base[:, rows] = stack[:, rows]

            in_groups(row_chunks(*head.H.shape), stack.size * head.d_in, tuple, build)
            shape = head.shapes[0]   # a row per target: chunks come with a projection
            for row, t in enumerate(head.targets):
                self.carried[t][head.slot.param] = stack[row].reshape(shape)
            n_rows = shape[0]
            width = head.n_out // n_rows   # entries per row of one target
            blocks = [(rows, slice(rows.start * width, min(rows.stop, n_rows) * width))
                      for rows in row_chunks(n_rows, stack.shape[0] * width, BLOCK_ENTRIES)]
            size = max(size, stack.shape[0] * (blocks[0][1].stop - blocks[0][1].start))
            self.heads.append({"head": head, "emb": emb, "gram": emb @ emb.T + 1.0,
                               "stack": stack, "base": base, "blocks": blocks})
        self.block, self.prod = np.empty(size, dtype=DTYPE), np.empty(size, dtype=DTYPE)
        self.moved = False   # whether an update ran since the last sync

    def current_params(self):
        return self.carried

    def _gradient_block(self, rec, step, rows, cols):
        """Rows ``rows`` of every target's gradient, target i in row i of the
        returned view of ``self.block`` (its columns ``cols`` of the stack)."""
        head = rec["head"]
        block = self.block[:len(head.targets) * (cols.stop - cols.start)]
        block = block.reshape(len(head.targets), -1)
        for i, t in enumerate(head.targets):
            if head.slot.param == "W":
                weight_grad(self.layers[t], step.trace, t, step.grads.preacts[t], rows,
                            out=block[i].reshape(-1, *head.shapes[0][1:]))
            else:
                block[i] = step.grads.bias[t][rows]
        return block

    def _surely_finite(self, rec, step):
        """Whether every gradient entry of the head is finite: True or False
        when the factors decide it, None when only the entries can.

        A non-finite factor entry makes a non-finite gradient entry. With
        finite factors, no entry of ``dy.T @ x`` exceeds K max|dy| max|x| for
        K rows of the factors, so below ``SAFE_PRODUCT`` none overflows."""
        head = rec["head"]
        if head.slot.param == "b":
            return all(np.isfinite(step.grads.bias[t]).all() for t in head.targets)
        sure = True
        for t in head.targets:
            dy, x = weight_factors(step.trace, t, step.grads.preacts[t])
            a, b = float(np.abs(dy).max()), float(np.abs(x).max())
            if not (np.isfinite(a) and np.isfinite(b)):
                return False
            if len(x) * a * b >= SAFE_PRODUCT:
                sure = None
        return sure

    @np.errstate(over="ignore", invalid="ignore")   # the refusal rule judges overflow
    def update(self, step, lr):
        """Step every head from the gradient factors of ``step``; if any
        gradient entry would be non-finite, refuse the step before touching
        any head."""
        for rec in self.heads:
            finite = self._surely_finite(rec, step)
            if finite is None:   # only the entries can tell: compute them, apply none
                finite = all(np.isfinite(self._gradient_block(rec, step, *b)).all()
                             for b in rec["blocks"])
            if not finite:
                return False
        for rec in self.heads:
            for rows, cols in rec["blocks"]:
                block = self._gradient_block(rec, step, rows, cols)
                prod = self.prod[:block.size].reshape(block.shape)
                # a single target's 1x1 Gram matrix: the bits of matmul, no BLAS call
                (np.multiply if len(block) == 1 else np.matmul)(rec["gram"], block, out=prod)
                prod *= lr
                rec["stack"][:, cols] -= prod
        self.moved = True
        return True

    def sync(self):
        """Fold the accumulated weight motion back into the heads, exactly:
        with ``A = [E, 1]``, every solution of ``A Aᵀ acc = delta`` moves the
        head by the same ``Aᵀ acc``, so least squares serves a singular Gram.
        ``delta`` is formed in ``base``, and nothing is folded when no update
        ran since the last fold. Each group of the head's row chunks forms
        its chunks' products ``acc[:, rows].T @ emb`` in its own buffer."""
        if not self.moved:
            return
        for rec in self.heads:
            head, emb, stack, base = rec["head"], rec["emb"], rec["stack"], rec["base"]
            delta = np.subtract(base, stack, out=base)
            if not delta.any():
                np.copyto(base, stack)
                continue
            acc = np.linalg.lstsq(rec["gram"], delta, rcond=None)[0]
            chunks = row_chunks(*head.H.shape)

            def fold(group, prod):
                for rows in group:
                    h = head.H[rows]
                    h -= np.matmul(acc[:, rows].T, emb, out=prod[:len(h)])
                    base[:, rows] = stack[:, rows]

            rows = min(chunks[0].stop, len(head.H))
            in_groups(chunks, stack.size * head.d_in,
                      lambda: (np.empty((rows, head.d_in), dtype=DTYPE),), fold)
            head.beta -= acc.sum(axis=0)
        self.moved = False


@dataclass
class TrainResult:
    preset: str
    config: TrainConfig
    curve: list = field(default_factory=list)   # (step, epoch, train_loss, test_metric)
    epoch_train_loss: list = field(default_factory=list)
    task_init_losses: list = field(default_factory=list)
    task_final_losses: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    diverged: bool = False
    divergence_step: int | None = None
    steps: int = 0                              # SGD steps taken
    init_loss: float | None = None
    init_linear_vars: list | None = None
    final_metric: float | None = None
    hypernet: Hypernet | None = None


@dataclass(frozen=True)
class Preset:
    name: str
    kind: str                      # "classification" | "regression"
    build_mainnet: callable
    build_hspec: callable
    defaults: dict
    load: callable = None
    standardize_mode: str = GLOBAL


def _mnist_mainnet(bias):
    src = GENERATED_BIAS if bias else "zero"
    return mlp([784, 500, 500, 500, 500, 500, 10], activation=TANH,
               loss=CROSS_ENTROPY, bias_source=src)


def _mnist_hspec():
    return HypernetSpec(embedding_dim=50, hidden_layers=(), head_topology=SHARED_SAME_SIZE)


def _regression_mainnet():
    # Desk-scale mainnet: deep enough that a bad hypernet init visibly hurts
    # within a few hundred iterations (the full-scale setting pairs a
    # 2-hidden-layer width-10 mainnet with 6000 iterations per task).
    return mlp([1, 16, 16, 16, 1], activation=RELU, loss=MSE,
               bias_source=GENERATED_BIAS)


def _regression_hspec():
    return HypernetSpec(embedding_dim=2, hidden_layers=(10, 10),
                        trunk_activation=RELU, embeddings_trainable=True,
                        head_topology=PER_LAYER)


def _cifar_mainnet():
    # Aggressive striding keeps the desk-scale patch matrices small; channel
    # counts stay multiples of the K=96 chunk so the grid divides evenly.
    return allconv(3, [96, 96, 96], 10, kernel=3, strides=[2, 2, 2])


def _cifar_hspec():
    return HypernetSpec(embedding_dim=50, hidden_layers=(),
                        head_topology=CHUNKED, chunk=ChunkPlan(K=96, n=3))


def _load_mnist(data_dir):
    root = Path(data_dir or ".")
    files = {
        "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
    }
    out = []
    for split, (imgs, labels) in files.items():
        ip, lp = root / imgs, root / labels
        if not ip.exists() or not lp.exists():
            raise DataNotFoundError(f"missing {split} IDX files under {root}")
        out.append(load_idx(str(ip), str(lp)))
    return tuple(out)


def _load_cifar(data_dir):
    root = Path(data_dir or ".")
    train_path, test_path = root / "data_batch_1.bin", root / "test_batch.bin"
    if not train_path.exists() or not test_path.exists():
        raise DataNotFoundError(f"missing CIFAR-10 binary files under {root}")
    return load_cifar10_binary(str(train_path)), load_cifar10_binary(str(test_path))


# Desk-scale defaults; the acceptance suite pins these. The README lists the
# paper's full-size settings.
_MNIST_DEFAULTS = dict(learning_rate=5e-4, batch_size=10, epochs=3,
                       subset=10000, eval_every=200, probe_every=1000)
PRESETS = {
    "mnist-mlp": Preset(
        name="mnist-mlp", kind="classification",
        build_mainnet=lambda: _mnist_mainnet(False),
        build_hspec=_mnist_hspec,
        load=_load_mnist, defaults=_MNIST_DEFAULTS),
    "mnist-mlp-bias": Preset(
        name="mnist-mlp-bias", kind="classification",
        build_mainnet=lambda: _mnist_mainnet(True),
        build_hspec=_mnist_hspec,
        load=_load_mnist, defaults=_MNIST_DEFAULTS),
    "regression-seq": Preset(
        name="regression-seq", kind="regression",
        build_mainnet=_regression_mainnet,
        build_hspec=_regression_hspec,
        defaults=dict(learning_rate=1e-2, batch_size=32, epochs=1,
                      iterations=300, eval_every=100, probe_every=1000)),
    "cifar-allconv": Preset(
        name="cifar-allconv", kind="classification",
        build_mainnet=_cifar_mainnet,
        build_hspec=_cifar_hspec,
        load=_load_cifar,
        defaults=dict(learning_rate=5e-4, batch_size=50, epochs=100,
                      subset=5000, iterations=200, eval_every=50,
                      probe_every=1000)),
}


def config_for(preset_name, **overrides):
    base = dict(PRESETS[preset_name].defaults)
    base.update({k: v for k, v in overrides.items() if v is not None})
    return TrainConfig(**base)


def _batch(mspec, ds, idx):
    """Rows ``idx`` of ``ds`` as a mainnet batch: float inputs (flattened for
    a dense first layer) and their labels."""
    x = ds.rows(idx)
    if mspec.layers[0].kind == DENSE and x.ndim > 2:
        x = x.reshape(len(x), -1)
    return x, ds.labels[idx]


def _test_metric(mspec, params, ds, chunk=500):
    """Accuracy for classifiers, MSE for regression outputs, over ``ds`` in
    chunks. Each chunk runs one forward-only layer at a time, so only the
    running layer's maps are held, not the whole trace."""
    metric = accuracy if mspec.loss == CROSS_ENTROPY else mse_loss
    total = 0.0
    for lo in range(0, len(ds), chunk):
        x, y = _batch(mspec, ds, slice(lo, lo + chunk))
        for t, layer in enumerate(mspec.layers):
            if t and x.ndim == 4:   # a conv layer's NHWC map: forward takes NCHW
                x = x.transpose(0, 3, 1, 2)
            x = forward(replace(mspec, layers=(layer,)), [params[t]], x,
                        for_backward=False)[0].output
        total += metric(x, y) * len(x)
    return total / len(ds)


@dataclass
class Schedule:
    """``segments`` yields (index, (x, y) batches, test Dataset) per epoch
    or task. Without a ``probe`` batch a run takes no probes and its initial
    loss is its first batch loss. ``tasks`` segments each record their first
    and tail loss, keep curve windows inside the task, record nothing when cut
    by divergence, and get no final evaluation."""

    segments: object
    probe: tuple | None = None
    tasks: bool = False


def _epochs(rng, mspec, ds, test, config):
    """Shuffled epochs of batches, at most ``iterations`` batches in all (if set)."""
    n, size, left = len(ds), config.batch_size, config.iterations
    for epoch in range(config.epochs):
        order = rng.child(100 + epoch).permutation(n)
        starts = range(0, n - n % size, size)[:left]
        yield epoch, (_batch(mspec, ds, order[lo:lo + size]) for lo in starts), test
        if left is not None:
            left -= len(starts)
            if left <= 0:
                return


def _sampled_batches(rng, mspec, ds, count, size):
    for _ in range(count):
        yield _batch(mspec, ds, rng.integers(len(ds), size=size))


def _check_finite(arrays):
    """FormatError for the first named array that holds a non-finite value,
    naming the index of its first example that does. A dataset is checked
    by its stored values, so pixels are never turned into floats here."""
    for name, a in arrays:
        bad = np.flatnonzero(~np.isfinite(a).reshape(len(a), -1).all(axis=1))
        if bad.size:
            raise FormatError(f"{name}: non-finite value at index {bad[0]}")


def _classification_schedule(preset, config, rng, mspec, data_dir, data):
    train_raw, test_raw = preset.load(data_dir) if data is None else data
    train_raw = train_raw.take(config.subset)
    for split, ds in (("train", train_raw), ("test", test_raw)):
        if len(ds) == 0:
            raise FormatError(f"{split} split holds no images")
    if data is not None:   # checked once, before step 1; loaded bytes are finite
        _check_finite((f"{split} {name}", getattr(ds, name))
                      for split, ds in (("train", train_raw), ("test", test_raw))
                      for name in ("inputs", "labels"))
    train_ds, stats = standardize(train_raw, preset.standardize_mode)
    test_ds, _ = standardize(test_raw, preset.standardize_mode, stats)
    if mspec.loss == CROSS_ENTROPY:   # checked once, before step 1
        for split, labels in (("train", train_ds.labels), ("test", test_ds.labels)):
            bad = np.flatnonzero((labels < 0) | (labels >= mspec.output_dim))
            if bad.size:
                raise FormatError(f"{split} label {labels[bad[0]]} at index {bad[0]} "
                                  f"is outside [0, {mspec.output_dim})")
    return Schedule(_epochs(rng, mspec, train_ds, test_ds, config),
                    probe=_batch(mspec, test_ds, slice(0, PROBE_BATCH)))


def _regression_schedule(preset, config, rng, mspec, data_dir, data):
    """Tasks in sequence, ``iterations`` (default 400) sampled batches each."""
    if data is None:
        tasks = make_regression_tasks(config.seed)
    else:   # checked once, before step 1
        tasks = data
        _check_finite((f"task {i} {name}", getattr(task, name))
                      for i, task in enumerate(tasks.tasks)
                      for name in ("train_x", "train_y", "test_x", "test_y"))
    count = 400 if config.iterations is None else config.iterations
    return Schedule(((i, _sampled_batches(rng.child(200 + i), mspec,
                                          Dataset(task.train_x, task.train_y),
                                          count, config.batch_size),
                      Dataset(task.test_x, task.test_y))
                     for i, task in enumerate(tasks.tasks)), tasks=True)


SCHEDULES = {"classification": _classification_schedule,
             "regression": _regression_schedule}


def train(preset_name, config, data_dir=None, data=None, out_dir=None):
    """Run one experiment preset; returns a TrainResult (partial on divergence)."""
    preset = PRESETS[preset_name]
    rng = Rng(config.seed)
    mspec = preset.build_mainnet()
    schedule = SCHEDULES[preset.kind](preset, config, rng, mspec, data_dir, data)
    net = init_hypernet(preset.build_hspec(), mspec, parse_scheme(config.scheme), rng.child(1))
    result = TrainResult(preset=preset.name, config=config, hypernet=net)
    _run(net, mspec, config, schedule, result)
    if out_dir is not None:
        write_outputs(out_dir, result)
    return result


def _run(net, mspec, config, schedule, result):
    """The training loop: one pipeline step and one update per batch."""
    updater = (_FixedHeadFastPath if _FixedHeadFastPath.applicable(net) else _HeadSpaceSgd)(net)

    def take_probe(step):
        if schedule.probe is None:
            return
        updater.sync()
        x, y = schedule.probe
        s, feature_grads = probe_step(net, mspec, x, y)
        report = snapshot(step, s.trace, s.params, s.grads, head_feature_grads=feature_grads,
                          linear_acts=linear_activation_variances(mspec, s.params, s.trace))
        if not result.reports:   # the first probe measures the initial state
            result.init_loss = s.loss
            result.init_linear_vars = [row.var for row in report.rows if row.kind == LINEAR_ACT]
        result.reports.append(report)

    take_probe(0)
    step = 0
    losses = []   # the loss of every batch, in order
    for index, batches, test in schedule.segments:
        first = len(losses)
        floor = first if schedule.tasks else 0   # a task's curve rows see only its losses
        for xb, yb in batches:
            s = pipeline_step(net, mspec, xb, yb, updater.carried, weights=updater.weights)
            if not s.diverged:
                losses.append(s.loss)
            if s.diverged or not updater.update(s, config.learning_rate):
                result.diverged, result.divergence_step = True, step
                break
            step += 1
            if config.eval_every and step % config.eval_every == 0:
                window = losses[max(floor, len(losses) - config.eval_every):]
                metric = _test_metric(mspec, updater.current_params(), test)
                result.curve.append((step, index, float(np.mean(window)), metric))
            if config.probe_every and step % config.probe_every == 0:
                take_probe(step)
        segment = losses[first:]
        if schedule.tasks:
            if segment:
                result.task_init_losses.append(segment[0])
            if result.diverged:
                break
            if segment:
                tail = max(1, len(segment) // 10)
                result.task_final_losses.append(float(np.mean(segment[-tail:])))
        if segment:
            result.epoch_train_loss.append(float(np.mean(segment)))
        if result.diverged:
            break
    updater.sync()   # the hypernet, and so its checkpoint, holds the last step
    result.steps = step
    if result.init_loss is None and losses:
        result.init_loss = losses[0]

    if schedule.tasks:
        # The last test MSE, else the last task's tail loss; none after divergence.
        if not result.diverged and result.curve:
            result.final_metric = result.curve[-1][3]
        elif not result.diverged and result.task_final_losses:
            result.final_metric = result.task_final_losses[-1]
        return
    if not result.diverged:
        last = result.curve[-1][0] if result.curve else 0
        if last != step or not result.curve:
            window = losses[last:]
            metric = _test_metric(mspec, updater.current_params(), test)
            result.curve.append((step, index,
                                 float(np.mean(window)) if window else float("nan"), metric))
        if not result.reports or result.reports[-1].step != step:   # not probed yet
            take_probe(step)
    result.final_metric = result.curve[-1][3] if result.curve else None


def write_curve_csv(path, result):
    with open(path, "w", encoding="utf-8") as f:
        f.write("step,epoch,train_loss,test_metric\n")
        for step, epoch, train_loss, metric in result.curve:
            f.write(f"{step},{epoch},{train_loss!r},{metric!r}\n")


def save_checkpoint(path, net, config, step=0):
    meta = {"version": 1, "scheme": config.scheme, "seed": config.seed,
            "step": step, "keys": sorted(net.param_arrays())}
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **net.param_arrays())


def load_checkpoint(path):
    with np.load(path) as z:
        meta = json.loads(bytes(z["__meta__"]).decode())
        arrays = {k: z[k] for k in z.files if k != "__meta__"}
    return meta, arrays


def write_outputs(out_dir, result):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_curve_csv(out / "curves.csv", result)
    write_json(out / "probe.json", result.reports)
    write_csv(out / "probe.csv", result.reports)
    if result.hypernet is not None:
        save_checkpoint(out / "checkpoint.npz", result.hypernet, result.config,
                        step=result.steps)
