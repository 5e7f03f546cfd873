"""Minibatch SGD training with momentum, weight decay and early stopping.

A run is fully determined by its seed: one PCG64 generator drives weight
init, epoch shuffling and dropout masks in a fixed order, so identical
seeds give byte-identical checkpoints.

Each minibatch is one autodiff graph (``model.forward_batch``): its
summed objective, scaled by 1/batch, is backpropagated once into the
batch's parameter leaves, and ``backward`` frees the inner gradients as
it goes. The graph is built and walked inside one helper that returns
only the loss, so it is garbage before the SGD step and the next batch's
forward pass. The batch's dropout masks are drawn document by document in
batch order, the stream per-document passes would draw. Evaluation runs
one document at a time, through ``model.forward_doc``.

Every batch graph reaches every parameter, and ``sgd_step`` updates each
parameter and its velocity in place, with its gradient as scratch. No
embedding row is special. The PAD row starts at zero with zero velocity.
Padding is trimmed before the lookup and no text encodes to ``PAD_ID``,
so the row's gradient is exactly zero and every step keeps it at zero.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
from itertools import zip_longest
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from . import autodiff as ad
from .classifier import ObjectiveConfig, REGULARIZERS
from .model import (ENCODER_BIGRU, ModelParams, ParamStore, batch_objective, forward_batch,
                    forward_doc, init_model, param_shapes)
from .text import Dataset, EmbeddingMatrix, TextError, Vocab

WEIGHTS_DTYPE = "<f4"  # little-endian IEEE-754 32-bit


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
    ctx: str = "learned"
    encoder: str = ENCODER_BIGRU
    mlp_hidden: int = 512
    max_epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.regularizer not in REGULARIZERS:
            raise ValueError(f"regularizer must be one of {REGULARIZERS}")
        for name in ("d", "h", "m", "max_len", "batch", "patience", "mlp_hidden",
                     "max_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.lam < 0 or self.lr <= 0 or self.weight_decay < 0:
            raise ValueError("lr must be > 0; lambda and weight_decay >= 0")


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
    result has the same bits.
    """
    if param.shape != grad.shape or param.shape != velocity.shape:
        raise ad.ShapeMismatchError("sgd_step", param.shape, grad.shape, velocity.shape)
    grad += weight_decay * param
    velocity *= momentum
    velocity += grad
    param -= lr * velocity


@dataclass
class Checkpoint:
    config: TrainConfig
    vocab: Vocab
    label_names: list
    params: ModelParams

    def save(self, out_dir):
        """Write config.json, vocab.txt and weights.bin atomically: stage
        into a temp dir, move any old checkpoint aside, rename the new one
        into place, then delete the old one."""
        out_dir = str(out_dir)
        tmp = out_dir + f".tmp-{os.getpid()}"
        old = tmp + "-old"
        for stale in (tmp, old):
            if os.path.exists(stale):
                shutil.rmtree(stale)
        os.makedirs(tmp)
        manifest = []
        offset = 0
        blobs = []
        for p in self.params.store:
            raw = np.ascontiguousarray(p.value, dtype=WEIGHTS_DTYPE).tobytes()
            manifest.append({"name": p.name, "shape": list(p.value.shape),
                             "offset": offset})
            offset += len(raw)
            blobs.append(raw)
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
            for raw in blobs:
                fh.write(raw)
        replacing = os.path.exists(out_dir)
        if replacing:
            os.replace(out_dir, old)
        os.replace(tmp, out_dir)
        if replacing:
            shutil.rmtree(old)

    @classmethod
    def load(cls, ckpt_dir) -> "Checkpoint":
        """Read a saved checkpoint. The manifest must list exactly the
        model's tensors, in order and with their shapes, laid out back to
        back over the whole of weights.bin, and every weight must be
        finite; anything else is a CheckpointError."""
        ckpt_dir = str(ckpt_dir)
        try:
            with open(os.path.join(ckpt_dir, "config.json"), encoding="utf-8") as fh:
                meta = json.load(fh)
            vocab = Vocab.load(os.path.join(ckpt_dir, "vocab.txt"))
            with open(os.path.join(ckpt_dir, "weights.bin"), "rb") as fh:
                blob = fh.read()
            config = TrainConfig(**meta["config"])
            labels = list(meta["labels"])
            entries = [(str(e["name"]), tuple(int(n) for n in e["shape"]), int(e["offset"]))
                       for e in meta["tensors"]]
            shapes = param_shapes(len(vocab), len(labels), d=config.d, h=config.h,
                                  m=config.m, ctx=config.ctx, encoder=config.encoder,
                                  mlp_hidden=config.mlp_hidden)
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {ckpt_dir}: {exc}") from exc
        except (ValueError, TypeError, KeyError, TextError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint {ckpt_dir}: {type(exc).__name__}: {exc}") from exc

        # everything is checked against the config's shapes before any
        # tensor is allocated, so a config with huge dims costs nothing
        expected, offset = [], 0
        for name, shape in shapes.items():
            expected.append((name, shape, offset))
            offset += math.prod(shape) * np.dtype(WEIGHTS_DTYPE).itemsize
        for got, want in zip_longest(entries, expected):
            if got != want:
                raise CheckpointError(f"corrupt checkpoint {ckpt_dir}: manifest entry "
                                      f"{got} where the model needs {want}")
        if len(blob) != offset:
            raise CheckpointError(f"corrupt checkpoint {ckpt_dir}: weights.bin holds "
                                  f"{len(blob)} bytes, the manifest {offset}")
        store = ParamStore()
        for name, shape, start in entries:
            arr = np.frombuffer(blob, dtype=WEIGHTS_DTYPE, count=math.prod(shape),
                                offset=start).reshape(shape)
            if not np.isfinite(arr).all():
                raise CheckpointError(f"corrupt checkpoint {ckpt_dir}: tensor {name} "
                                      f"holds a non-finite value")
            store.add(name, np.array(arr, dtype=np.float32))
        params = ModelParams(store=store, d=config.d, h=config.h, m=config.m,
                             ctx=config.ctx, encoder=config.encoder,
                             mlp_hidden=config.mlp_hidden, num_classes=len(labels),
                             dropout=config.dropout)
        return cls(config, vocab, labels, params)


def _fresh_model(config: TrainConfig, vocab_size: int, num_classes: int,
                 rng, embedding: EmbeddingMatrix | None = None) -> ModelParams:
    return init_model(vocab_size, num_classes, rng, d=config.d, h=config.h,
                      m=config.m, ctx=config.ctx, encoder=config.encoder,
                      mlp_hidden=config.mlp_hidden, dropout=config.dropout,
                      embedding=embedding)


def _backward_batch(params: ModelParams, nodes: dict, batch: list,
                    objective: ObjectiveConfig, rng: np.random.Generator) -> float:
    """Add the gradient of the batch's mean objective into the leaves in
    ``nodes`` and return the summed objective. Nothing of the graph
    outlives the call."""
    out = forward_batch(params, nodes, batch, train=True, rng=rng)
    j = batch_objective(out, [doc.label for doc in batch], params.num_classes, objective)
    ad.backward(ad.scale(j, 1.0 / len(batch)))
    return j.value.item()


def _check_labels(dataset: Dataset, label_names) -> None:
    if list(dataset.label_names) != list(label_names):
        raise LabelMismatchError(
            f"dataset labels {dataset.label_names} != model labels {list(label_names)}")


def train(config: TrainConfig, train_set: Dataset, valid_set: Dataset,
          vocab: Vocab, embedding: EmbeddingMatrix | None = None,
          log=None, snapshot: str = "best") -> tuple[Checkpoint, TrainHistory]:
    """Train until max_epochs or until validation accuracy has not improved
    for ``patience`` consecutive epochs; returns the best-epoch checkpoint.

    ``snapshot="final"`` returns the last-epoch weights instead (for
    analyses of where training ends up rather than its best point).
    """
    if snapshot not in ("best", "final"):
        raise ValueError("snapshot must be 'best' or 'final'")
    if len(valid_set) == 0:
        raise TrainingError("validation set is empty")
    _check_labels(valid_set, train_set.label_names)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    params = _fresh_model(config, len(vocab), train_set.num_classes, rng, embedding)
    objective = ObjectiveConfig(config.regularizer, config.lam)

    velocities = {p.name: np.zeros_like(p.value) for p in params.store}
    history = TrainHistory()
    best_acc = -1.0
    best_values = None
    bad_epochs = 0
    docs = train_set.documents

    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(len(docs))
        loss_sum = 0.0
        for batch_no, start in enumerate(range(0, len(order), config.batch)):
            batch = [docs[i] for i in order[start:start + config.batch]]
            nodes = params.store.nodes()
            try:
                # overflow is detected (and raised) by the primitives, so
                # numpy's warnings would only duplicate the signal
                with np.errstate(over="ignore", invalid="ignore"):
                    batch_loss = _backward_batch(params, nodes, batch, objective, rng)
            except ad.NonFiniteError as exc:
                raise DivergenceError(epoch, batch_no, str(exc)) from exc
            if not np.isfinite(batch_loss):
                raise DivergenceError(epoch, batch_no, f"loss={batch_loss}")
            loss_sum += batch_loss
            for p in params.store:
                sgd_step(p.value, nodes[p.name].grad, velocities[p.name], config.lr,
                         config.momentum, config.weight_decay)

        valid_acc = evaluate(params, valid_set).accuracy
        record = EpochRecord(epoch, loss_sum / len(docs), valid_acc,
                             time.perf_counter() - started)
        history.records.append(record)
        if log:
            log(f"epoch {epoch}: loss={record.train_loss:.4f} "
                f"valid_acc={valid_acc:.4f} ({record.seconds:.1f}s)")
        if valid_acc > best_acc:
            best_acc = valid_acc
            history.best_epoch = epoch
            best_values = params.store.copy_values()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break

    if snapshot == "best":
        params.store.load_values(best_values)
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
    nodes = params.store.nodes()
    for doc in dataset.documents:
        fw = forward_doc(params, nodes, doc.ids, doc.true_length, train=False)
        confusion[doc.label, fw.prediction] += 1
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
                valid_set: Dataset, vocab: Vocab, log=None) -> list[tuple[int, float]]:
    """Train one model per head count (shared seed) and report the best
    validation accuracy of each, sorted ascending by m."""
    if not m_values:
        raise TrainingError("heads_sweep needs a non-empty grid")
    rows = []
    for m in sorted(set(int(v) for v in m_values)):
        cfg_dict = asdict(base_config)
        cfg_dict["m"] = m
        _, history = train(TrainConfig(**cfg_dict), train_set, valid_set, vocab, log=log)
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
