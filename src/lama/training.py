"""Minibatch SGD training with momentum, weight decay and early stopping.

A run is fully determined by its seed: one PCG64 generator drives weight
init, epoch shuffling and dropout masks in a fixed order, so identical
seeds give byte-identical checkpoints.

Each minibatch is one autodiff graph (``model.forward_batch``): its
summed objective (``model.batch_objective``, from the regularizer and
lambda that ``TrainConfig`` holds and checks), scaled by 1/batch, is
backpropagated once into the batch's parameter leaves, and ``backward``
frees the inner gradients as it goes. The graph is built and walked
inside one helper that returns only the loss, so it is garbage before the
SGD step and the next batch's forward pass. The batch's dropout masks are
drawn document by document in batch order, the stream per-document passes
would draw. Evaluation runs
``forward_batch`` forward only, EVAL_CHUNK documents per graph on leaves
that track no gradient, and draws nothing from the RNG.

Every batch graph reaches every parameter. The parameters are views of
one flat buffer (``model.ParamStore``) with ``W_e`` first, so the dense
ones are the buffer's tail: each batch copies their leaf gradients into
one preallocated array in buffer order, and one ``sgd_step`` updates that
tail and its one velocity array in place. ``W_e`` is stepped a batch's
rows at a time: ``LazyRowSGD.gather`` copies out the rows of the batch's
distinct ids, the graph reads them as one dense leaf, and
``LazyRowSGD.step`` steps that block with the leaf's gradient and writes
it back once. The other rows owe whole steps of momentum and decay at
g = 0, which they catch up when next read: a batch's ids when gathered,
the validation ids before each ``evaluate``, every row before a
best-epoch snapshot and before ``train`` returns. That equals the dense
update in real arithmetic, not bit for bit. One sort of a batch's ids
(``model.batch_groups``) serves its gather, the spreading of its rows and
their step: the BiGRU spreads them over the positions, the embedding-only
encoder over each document's distinct tokens, whose (document, token)
pairs ``model`` derives from that same grouping. No embedding row is
special: the PAD row starts at zero with zero velocity, and since the
model reads no padding (see ``text.Document``) and no text encodes to
``PAD_ID``, it is never gathered and stays zero. The best-epoch snapshot
is one array the size of the buffer: the first improving epoch copies the
buffer, each later one copies it into that array in place, and the end of
the run copies it back.

The primitives raise ``NonFiniteError``, so ``train`` and ``evaluate``
silence numpy's overflow warnings. An epoch is one boundary: every
batch's gather, graph, row step and ``sgd_step``, then validation; a
``NonFiniteError`` in it is a ``DivergenceError`` naming the epoch and
batch. A step that overflows is named at the next read of its weights,
batch k + 1, or validation for the epoch's last batch.

So a run holds the parameter buffer, ``W_e``'s velocity, the dense
tail's velocity and gradient, one snapshot and, for its whole-table
passes, one block: the catch-up of every row and ``sgd_step`` work on
``model.row_blocks`` of about ``model.BLOCK`` values, so their
temporaries are that small however large the table is. A batch's graph
and its gathered rows come on top; they depend on the batch, not on the
vocabulary.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import shutil
import time
from itertools import zip_longest
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from . import autodiff as ad
from .attention import CTX_LEARNED
from .classifier import REGULARIZERS
from .model import (ENCODER_BIGRU, ModelParams, ParamStore, batch_groups, batch_objective,
                    forward_batch, init_model, param_layout, param_shapes, row_blocks)
# test_perfbench.py::test_install_patches_callers_namespaces_and_uninstall_restores reads this
from .model import forward_doc  # noqa: F401
from .text import Dataset, TextError, Vocab

WEIGHTS_DTYPE = np.dtype("<f4")  # little-endian IEEE-754 32-bit
EVAL_CHUNK = 64  # documents per forward-only graph in evaluation and the attention export
MAX_LEN = 2**16  # every document is padded to max_len ids, so it is bounded


class TrainingError(Exception):
    pass


class DivergenceError(TrainingError):
    def __init__(self, epoch, batch, detail):
        super().__init__(
            f"training diverged at epoch {epoch}, batch {batch}: {detail}")
        self.epoch = epoch
        self.batch = batch


class LabelMismatchError(TrainingError):
    pass


class CheckpointError(TrainingError):
    pass


@dataclass
class TrainConfig:
    d: int = 100               # word embedding size
    h: int = 50                # GRU hidden state per direction
    m: int = 1                 # attention heads
    max_len: int = 256
    batch: int = 32
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0001
    dropout: float = 0.4
    patience: int = 5
    lam: float = 0.2
    regularizer: str = "none"
    ctx: str = CTX_LEARNED
    encoder: str = ENCODER_BIGRU
    mlp_hidden: int = 512
    max_epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.regularizer not in REGULARIZERS:
            raise ValueError(f"regularizer must be one of {REGULARIZERS}")
        sizes = ("d", "h", "m", "max_len", "batch", "patience", "mlp_hidden", "max_epochs")
        for name in sizes + ("seed",):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        for name in sizes:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("lr", "momentum", "weight_decay", "dropout", "lam"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.lam < 0 or self.lr <= 0 or self.weight_decay < 0:
            raise ValueError("lr must be > 0; lambda and weight_decay >= 0")
        if self.max_len > MAX_LEN:
            raise ValueError(f"max_len must be <= {MAX_LEN}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    valid_acc: float
    seconds: float


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)
    best_epoch: int = 0

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,train_loss,valid_acc,seconds\n")
            for r in self.records:
                fh.write(f"{r.epoch},{r.train_loss:.6f},{r.valid_acc:.6f},{r.seconds:.3f}\n")


def sgd_step(param: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
             lr: float, momentum: float, weight_decay: float) -> None:
    """One momentum step, in place: v <- mu v + (g + wd p); p <- p - lr v.

    ``param`` and ``velocity`` are updated and ``grad`` is used as scratch.
    The ops and their order are those of the out-of-place formula, so the
    result has the same bits. They run on ``model.row_blocks``, views of
    whole rows, so the temporaries ``wd p`` and ``lr v`` are no larger than
    a block.
    """
    if param.shape != grad.shape or param.shape != velocity.shape:
        raise ad.ShapeMismatchError("sgd_step", param.shape, grad.shape, velocity.shape)
    for rows in row_blocks(param.shape):
        p, g, v = param[rows], grad[rows], velocity[rows]
        g += weight_decay * p
        v *= momentum
        v += g
        p -= lr * v


class LazyRowSGD:
    """``sgd_step`` on a few rows of a table. A row with no gradient
    for k steps moves by one linear map, (v, p) <- M^k (v, p) with
    M = [[mu, wd], [-lr mu, 1 - lr wd]], the dense step at g = 0.
    ``catch_up`` applies it, M^k computed in float64 and cast, to rows about
    to be read (every row by default); ``last[row]`` is the step a row is
    current at.
    """

    def __init__(self, value: np.ndarray, lr: float, momentum: float, weight_decay: float):
        self.value = value
        self.velocity = np.zeros_like(value)
        self.hyper = (lr, momentum, weight_decay)
        self.M = np.array([[momentum, weight_decay], [-lr * momentum, 1.0 - lr * weight_decay]])
        self.powers = np.eye(2)[None]  # powers[k] = M^k
        self.steps = 0
        self.last = np.zeros(len(value), dtype=np.int64)

    def catch_up(self, rows: np.ndarray | None = None) -> None:
        """Bring ``rows`` up to the current step. With no rows, every stale
        row is, one block of ``model.row_blocks`` after another, so the
        gathers and products stay the size of a block; a row gets the same
        ops as in a call that names it."""
        if rows is None:
            for block in row_blocks(self.value.shape):
                self.catch_up(block.start + np.flatnonzero(self.last[block] < self.steps))
            return
        k = self.steps - self.last[rows]
        rows, k = rows[k > 0], k[k > 0]
        if not rows.size:
            return
        while len(self.powers) <= k.max():  # M^(n + j) = M^j M^n
            self.powers = np.concatenate([self.powers, self.powers @ (self.powers[-1] @ self.M)])
        c = self.powers[k].astype(self.value.dtype)[..., None]
        v, p = self.velocity[rows], self.value[rows]
        self.velocity[rows] = c[:, 0, 0] * v + c[:, 0, 1] * p
        self.value[rows] = c[:, 1, 0] * v + c[:, 1, 1] * p
        self.last[rows] = self.steps

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the values and velocities of the distinct ``rows``,
        caught up."""
        self.catch_up(rows)
        return self.value[rows], self.velocity[rows]

    def step(self, rows: np.ndarray, p: np.ndarray, v: np.ndarray, g: np.ndarray) -> None:
        """One step: the dense formula's ops on ``p`` and ``v``, what
        ``gather(rows)`` returned, with their gradient ``g`` (used as
        scratch), written back; every other row falls one step behind."""
        sgd_step(p, g, v, *self.hyper)
        self.value[rows], self.velocity[rows] = p, v
        self.steps += 1
        self.last[rows] = self.steps


@dataclass
class Checkpoint:
    config: TrainConfig
    vocab: Vocab
    label_names: list
    params: ModelParams

    def save(self, out_dir):
        """Write config.json, vocab.txt and weights.bin atomically: stage
        into a temp dir, move any old checkpoint aside, rename the new one
        into place, then delete the old one. A target that exists and is
        not a directory is a CheckpointError, raised before anything is
        written (``checkpoint_target``)."""
        out_dir = checkpoint_target(out_dir)
        tmp = out_dir + f".tmp-{os.getpid()}"
        old = tmp + "-old"
        for stale in (tmp, old):
            _remove(stale)
        os.makedirs(tmp)
        store = self.params.store
        manifest = [{"name": name, "shape": list(shape),
                     "offset": start * WEIGHTS_DTYPE.itemsize}
                    for name, shape, start in store.layout]
        config = {
            "config": asdict(self.config),
            "labels": list(self.label_names),
            "tensors": manifest,
            "version": __version__,
        }
        with open(os.path.join(tmp, "config.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self.vocab.save(os.path.join(tmp, "vocab.txt"))
        with open(os.path.join(tmp, "weights.bin"), "wb") as fh:
            np.asarray(store.buffer, dtype=WEIGHTS_DTYPE).tofile(fh)
        replacing = os.path.exists(out_dir)
        if replacing:
            os.replace(out_dir, old)
        os.replace(tmp, out_dir)
        if replacing:
            _remove(old)

    @classmethod
    def load(cls, ckpt_dir) -> "Checkpoint":
        """Read a saved checkpoint. The manifest must list exactly the
        model's tensors, in order and with their shapes, laid out back to
        back over the whole of weights.bin, and every weight must be
        finite; anything else is a CheckpointError.

        weights.bin's size is checked against the manifest before it is
        read, so an oversized file costs nothing; it is then read once into
        the store's flat buffer and screened once."""
        ckpt_dir = str(ckpt_dir)
        try:
            with open(os.path.join(ckpt_dir, "config.json"), encoding="utf-8") as fh:
                meta = json.load(fh)
            vocab = Vocab.load(os.path.join(ckpt_dir, "vocab.txt"))
            config = TrainConfig(**meta["config"])
            labels = list(meta["labels"])
            if len(set(labels)) < len(labels):
                raise ValueError(f"repeated label names in {labels}")
            # compared as read: a fractional or quoted number matches nothing
            entries = [(e["name"], tuple(e["shape"]), e["offset"]) for e in meta["tensors"]]
            shapes = param_shapes(len(vocab), len(labels), d=config.d, h=config.h,
                                  m=config.m, ctx=config.ctx, encoder=config.encoder,
                                  mlp_hidden=config.mlp_hidden)
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {ckpt_dir}: {exc}") from exc
        except (ValueError, TypeError, KeyError, TextError, RecursionError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint {ckpt_dir}: {type(exc).__name__}: {exc}") from exc

        # everything is checked against the config's layout before any
        # tensor is allocated, so a config with huge dims costs nothing
        layout, total = param_layout(shapes)
        nbytes = total * WEIGHTS_DTYPE.itemsize
        expected = [(name, shape, start * WEIGHTS_DTYPE.itemsize)
                    for name, shape, start in layout]
        for got, want in zip_longest(entries, expected):
            if got != want:
                raise CheckpointError(f"corrupt checkpoint {ckpt_dir}: manifest entry "
                                      f"{got} where the model needs {want}")
        try:
            with open(os.path.join(ckpt_dir, "weights.bin"), "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                if size == nbytes:
                    store = ParamStore(shapes, dtype=WEIGHTS_DTYPE)
                    size = fh.readinto(store.buffer)  # the file may shrink while it is read
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {ckpt_dir}: {exc}") from exc
        if size != nbytes:
            raise CheckpointError(f"corrupt checkpoint {ckpt_dir}: weights.bin holds "
                                  f"{size} bytes, the manifest {nbytes}")
        if not np.isfinite(store.buffer).all():
            name = next(name for name, value in store.items() if not np.isfinite(value).all())
            raise CheckpointError(f"corrupt checkpoint {ckpt_dir}: tensor {name} "
                                  f"holds a non-finite value")
        params = ModelParams(store=store, ctx=config.ctx, encoder=config.encoder,
                             num_classes=len(labels), dropout=config.dropout)
        return cls(config, vocab, labels, params)


def checkpoint_target(out_dir) -> str:
    """``out_dir`` normalised, so a trailing separator does not put the
    temp names inside it; a CheckpointError if it exists and is not a
    directory, the one target ``Checkpoint.save`` refuses."""
    out_dir = os.path.normpath(out_dir)
    if os.path.lexists(out_dir) and not os.path.isdir(out_dir):
        raise CheckpointError(f"cannot write checkpoint {out_dir}: it exists and is "
                              f"not a directory")
    return out_dir


def _remove(path) -> None:
    """Delete ``path`` whatever it is (a symlink itself, not its target);
    nothing there is no error."""
    if os.path.isdir(path) and not os.path.islink(path):
        shutil.rmtree(path)
    elif os.path.lexists(path):
        os.remove(path)


def _fresh_model(config: TrainConfig, vocab_size: int, num_classes: int,
                 rng, pretrained=None) -> ModelParams:
    params = init_model(vocab_size, num_classes, rng, d=config.d, h=config.h,
                        m=config.m, ctx=config.ctx, encoder=config.encoder,
                        mlp_hidden=config.mlp_hidden, dropout=config.dropout)
    if pretrained is not None:
        ids, rows = pretrained
        params.store["W_e"][ids] = rows
    return params


def _backward_batch(params: ModelParams, nodes: dict, batch: list,
                    config: TrainConfig, rng: np.random.Generator,
                    lookup: tuple[ad.Groups, ad.Node] | None = None) -> float:
    """Add the gradient of the batch's mean objective into the leaves in
    ``nodes`` (and ``lookup``'s rows, see ``forward_batch``) and return
    the summed objective. Nothing of the graph outlives the call."""
    out = forward_batch(params, nodes, batch, train=True, rng=rng, lookup=lookup)
    j = batch_objective(out, [doc.label for doc in batch], config.regularizer, config.lam)
    ad.backward(ad.scale(j, 1.0 / len(batch)))
    return j.value.item()


def _check_labels(dataset: Dataset, label_names) -> None:
    if list(dataset.label_names) != list(label_names):
        raise LabelMismatchError(
            f"dataset labels {dataset.label_names} != model labels {list(label_names)}")


def train(config: TrainConfig, train_set: Dataset, valid_set: Dataset,
          vocab: Vocab, pretrained: tuple[np.ndarray, np.ndarray] | None = None,
          log=None, snapshot: str = "best") -> tuple[Checkpoint, TrainHistory]:
    """Train until max_epochs or until validation accuracy has not improved
    for ``patience`` consecutive epochs; returns the best-epoch checkpoint.

    ``pretrained=(ids, rows)`` (see ``text.read_pretrained``) overwrites
    those rows of the freshly initialized ``W_e``; every other row and
    every later draw are the ones the run without it makes.

    ``snapshot="final"`` returns the last-epoch weights instead (for
    analyses of where training ends up rather than its best point).
    """
    if snapshot not in ("best", "final"):
        raise ValueError("snapshot must be 'best' or 'final'")
    if len(valid_set) == 0:
        raise TrainingError("validation set is empty")
    classes = sorted({doc.label for doc in train_set.documents})
    if len(classes) < 2:
        raise TrainingError("training set is empty" if not classes else
                            f"training set has one class only: "
                            f"{train_set.label_names[classes[0]]!r}")
    _check_labels(valid_set, train_set.label_names)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    params = _fresh_model(config, len(vocab), train_set.num_classes, rng, pretrained)

    store = params.store
    rows_sgd = LazyRowSGD(store["W_e"], config.lr, config.momentum, config.weight_decay)
    # the dense parameters are the buffer's tail, after W_e
    dense_names = store.names()[1:]
    dense = store.buffer[store["W_e"].size:]
    velocity, grad = np.zeros_like(dense), np.empty_like(dense)
    valid_rows = batch_groups(valid_set.documents).unique
    history = TrainHistory()
    best_acc = -1.0
    best_buffer = None
    bad_epochs = 0
    docs = train_set.documents

    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(len(docs))
        loss_sum = 0.0
        try:  # the epoch's one divergence boundary (see the module docstring)
            with np.errstate(over="ignore", invalid="ignore"):
                for batch_no, start in enumerate(range(0, len(order), config.batch)):
                    batch = [docs[i] for i in order[start:start + config.batch]]
                    groups = batch_groups(batch)  # shared by the gather, graph and step
                    block, block_velocity = rows_sgd.gather(groups.unique)
                    rows = ad.leaf(block, requires_grad=True)
                    nodes = store.nodes()
                    loss_sum += _backward_batch(params, nodes, batch, config, rng,
                                                (groups, rows))
                    rows_sgd.step(groups.unique, block, block_velocity, rows.grad)
                    np.concatenate([nodes[n].grad for n in dense_names], axis=None, out=grad)
                    sgd_step(dense, grad, velocity, *rows_sgd.hyper)
                rows_sgd.catch_up(valid_rows)
                valid_acc = evaluate(params, valid_set).accuracy
        except ad.NonFiniteError as exc:
            raise DivergenceError(epoch, batch_no, str(exc)) from exc
        record = EpochRecord(epoch, loss_sum / len(docs), valid_acc,
                             time.perf_counter() - started)
        history.records.append(record)
        if log:
            log(f"epoch {epoch}: loss={record.train_loss:.4f} "
                f"valid_acc={valid_acc:.4f} ({record.seconds:.1f}s)")
        if valid_acc > best_acc:
            best_acc = valid_acc
            history.best_epoch = epoch
            rows_sgd.catch_up()
            # a copy at the first improvement, in place after it; allocated
            # before the first batch instead, it tripled the minor page
            # faults of a zipf benchmark run and slowed training and serving
            if best_buffer is None:
                best_buffer = store.buffer.copy()
            else:
                best_buffer[...] = store.buffer
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break

    if snapshot == "best":
        store.buffer[...] = best_buffer
    else:
        rows_sgd.catch_up()
    checkpoint = Checkpoint(config, vocab, list(train_set.label_names), params)
    return checkpoint, history


@dataclass
class EvalMetrics:
    accuracy: float
    precision: list
    recall: list
    confusion: list  # confusion[true][pred]
    total: int

    def to_dict(self):
        return asdict(self)


def forward_chunks(params: ModelParams, docs):
    """(documents, ForwardPass) for each run of EVAL_CHUNK documents, in
    order, each one forward-only graph with dropout off."""
    nodes = params.store.nodes(requires_grad=False)
    for start in range(0, len(docs), EVAL_CHUNK):
        chunk = docs[start:start + EVAL_CHUNK]
        yield chunk, forward_batch(params, nodes, chunk)


def evaluate(params_or_checkpoint, dataset: Dataset) -> EvalMetrics:
    """Accuracy, per-class precision/recall and the confusion matrix, with
    dropout disabled."""
    if isinstance(params_or_checkpoint, Checkpoint):
        _check_labels(dataset, params_or_checkpoint.label_names)
        params = params_or_checkpoint.params
    else:
        params = params_or_checkpoint
    if len(dataset) == 0:
        raise TrainingError(f"{dataset.split} set is empty")
    C = params.num_classes
    if any(doc.label >= C for doc in dataset.documents):
        raise LabelMismatchError(f"dataset has label ids >= {C}")
    confusion = np.zeros((C, C), dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk, fw in forward_chunks(params, dataset.documents):
            np.add.at(confusion, ([doc.label for doc in chunk], fw.predictions), 1)
    correct = int(np.trace(confusion))
    precision = [
        float(confusion[k, k] / s) if (s := confusion[:, k].sum()) else 0.0
        for k in range(C)
    ]
    recall = [
        float(confusion[k, k] / s) if (s := confusion[k, :].sum()) else 0.0
        for k in range(C)
    ]
    return EvalMetrics(accuracy=correct / len(dataset.documents),
                       precision=precision, recall=recall,
                       confusion=confusion.tolist(),
                       total=len(dataset.documents))


def heads_sweep(base_config: TrainConfig, m_values, train_set: Dataset,
                valid_set: Dataset, vocab: Vocab, pretrained=None,
                log=None) -> list[tuple[int, float]]:
    """Train one model per head count (shared seed and ``pretrained`` rows,
    see ``train``) and report the best validation accuracy of each, sorted
    ascending by m."""
    if not m_values:
        raise TrainingError("heads_sweep needs a non-empty grid")
    rows = []
    for m in sorted(set(int(v) for v in m_values)):
        _, history = train(replace(base_config, m=m), train_set, valid_set, vocab,
                           pretrained=pretrained, log=log)
        best = max(r.valid_acc for r in history.records)
        rows.append((m, best))
        if log:
            log(f"m={m}: best valid acc {best:.4f}")
    return rows


def sweep_to_csv(rows, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("m,best_valid_acc\n")
        for m, acc in rows:
            fh.write(f"{m},{acc:.6f}\n")
