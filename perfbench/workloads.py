"""The benchmark's two workloads, each loading a different layer of the
program through its public API and its CLI.

- keyword-bigru-train: ``training.train`` on the 28-token keyword task.
  Documents are short and the vocabulary tiny, so time goes to the
  per-token BiGRU graph, the autodiff tape and GC, and almost none to the
  embedding gradient or the SGD step.
- zipf50k-le-train: ``training.train`` with the embedding-only encoder on a
  |V|=50k Zipf corpus of 64-256-token documents. It never touches the GRU;
  time goes to the dense |V|x d embedding gradient, the SGD step over 5M
  embedding parameters and multi-head attention over long documents.
- Both serve a model of their shape with ``lama eval`` between epochs, so
  the forward pass, text ingest and ``Checkpoint.load`` are timed too: the
  BiGRU forward-only on keyword, the 50k-word checkpoint and vocabulary on
  zipf50k.

Every workload sets up its inputs from the seed, then runs rounds until its
time is up. A train round is one ``train`` call with ``lama eval`` calls on
the set-up model between its epochs, then a ``Checkpoint.save`` and one
untimed ``lama eval`` call on the trained model. Each epoch and each timed
``lama eval`` call is one sample.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from lama import cli
from lama import synthetic
from lama import text
from lama import training
from lama.model import init_model
from lama.training import Checkpoint, TrainConfig

import zipfcorpus

KEYWORD_FLOOR = 0.95  # acceptance criterion 6


@dataclass(frozen=True)
class Sizes:
    n_train: int
    n_valid: int
    n_test: int
    epochs: int        # epochs per train call; patience is as long, so all run
    serve_docs: int    # test documents in each timed ``lama eval`` call
    serve_calls: int   # timed ``lama eval`` calls on the set-up model between epochs
    setups: int        # set-ups per run; setup_s is their median


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: Sizes


# Timed samples are spread over the whole run; keyword documents are cheap,
# so its timed calls serve part of its test set, several times per gap.
WORKLOADS = {w.name: w for w in [
    Workload("keyword-bigru-train",
             Sizes(n_train=256, n_valid=64, n_test=128, epochs=10, serve_docs=32,
                   serve_calls=4, setups=25)),
    Workload("zipf50k-le-train",
             Sizes(n_train=256, n_valid=64, n_test=256, epochs=16, serve_docs=256,
                   serve_calls=2, setups=3)),
]}


@dataclass
class EvalSet:
    """A TSV that ``lama eval`` reads, with its size."""
    tsv: str
    docs: int
    tokens: int  # after truncation to max_len


@dataclass
class Inputs:
    config: TrainConfig
    vocab: text.Vocab
    train_set: text.Dataset
    valid_set: text.Dataset
    test: EvalSet    # accuracy and the round-trip check
    serve: EvalSet   # the timed calls on the set-up model
    train_lengths: list
    test_lengths: list
    checkpoint: Checkpoint | None = None  # the last model saved for lama eval
    served_dir: str | None = None         # the model saved in set-up


@dataclass
class Tally:
    """What a run attempted and measured, in documents and seconds."""
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    train_samples: list = field(default_factory=list)  # (docs, tokens, seconds)
    infer_samples: list = field(default_factory=list)
    train_losses: list = field(default_factory=list)
    train_docs: int = 0                               # for nodes_per_doc
    checks: dict = field(default_factory=dict)        # name -> passed
    eval_metrics: dict | None = None

    def fail(self, docs, exc):
        self.failed += docs
        self.errors.append(f"{type(exc).__name__}: {exc}")


def setup(workload: Workload, seed: int, work: str) -> Inputs:
    """Build the workload's inputs from ``seed`` under ``work``, and save an
    untrained model of the workload's shape to serve between epochs."""
    sizes = workload.sizes
    os.makedirs(work, exist_ok=True)
    if workload.name == "keyword-bigru-train":
        config = TrainConfig(m=4, regularizer="positions", max_len=32,
                             max_epochs=sizes.epochs, patience=sizes.epochs, seed=seed)
        train_set, valid_set, vocab = synthetic.make_task(
            "keyword", sizes.n_train, sizes.n_valid, seed, max_len=config.max_len)
        test_pairs = synthetic.keyword_pairs(sizes.n_test, seed + 20_000)
    else:
        spec = zipfcorpus.ZipfSpec()
        vocab = zipfcorpus.make_vocab(spec)
        config = TrainConfig(encoder="le", m=8, regularizer="embeddings",
                             max_len=256, max_epochs=sizes.epochs,
                             patience=sizes.epochs, seed=seed)
        train_set = synthetic.pairs_to_dataset(
            zipfcorpus.make_pairs(spec, sizes.n_train, seed), vocab, config.max_len)
        valid_set = synthetic.pairs_to_dataset(
            zipfcorpus.make_pairs(spec, sizes.n_valid, seed + 10_000), vocab,
            config.max_len, label_names=train_set.label_names, split="valid")
        test_pairs = zipfcorpus.make_pairs(spec, sizes.n_test, seed + 20_000)
    lengths = [len(text.tokenize(t)) for _, t in test_pairs]

    def eval_set(name, n):
        path = os.path.join(work, name)
        synthetic.write_tsv(test_pairs[:n], path)
        return EvalSet(path, len(lengths[:n]),
                       sum(min(k, config.max_len) for k in lengths[:n]))

    inputs = Inputs(config, vocab, train_set, valid_set,
                    test=eval_set("test.tsv", sizes.n_test),
                    serve=eval_set("serve.tsv", sizes.serve_docs),
                    train_lengths=[d.true_length for d in train_set.documents],
                    test_lengths=lengths)
    params = init_model(len(vocab), train_set.num_classes,
                        np.random.Generator(np.random.PCG64(seed)), d=config.d,
                        h=config.h, m=config.m, ctx=config.ctx,
                        encoder=config.encoder, mlp_hidden=config.mlp_hidden,
                        dropout=config.dropout)
    inputs.checkpoint = Checkpoint(config, vocab, list(train_set.label_names), params)
    inputs.served_dir = os.path.join(work, "served")
    inputs.checkpoint.save(inputs.served_dir)
    return inputs


def _train_docs_tokens(inputs: Inputs, epochs: int):
    tokens = sum(inputs.train_lengths)
    return len(inputs.train_lengths) * epochs, tokens * epochs


def timed_train(inputs: Inputs, between_epochs):
    """``training.train`` plus the wall time of each epoch, validation
    included, read from its per-epoch ``log`` callback. ``between_epochs``
    runs inside that callback, outside the epochs' timing."""
    starts, ends = [], []

    def log(_):
        ends.append(time.perf_counter())
        between_epochs()
        gc.collect()
        starts.append(time.perf_counter())

    gc.collect()
    starts.append(time.perf_counter())
    checkpoint, history = training.train(
        inputs.config, inputs.train_set, inputs.valid_set, inputs.vocab, log=log)
    if not ends:  # no per-epoch callback: share the call's time out
        epochs = max(len(history.records), 1)
        return checkpoint, history, [(time.perf_counter() - starts[0]) / epochs] * epochs
    return checkpoint, history, [b - a for a, b in zip(starts, ends)]


def epoch_samples(inputs: Inputs, epoch_seconds) -> list:
    """(docs, tokens, seconds) of each timed epoch."""
    docs, tokens = _train_docs_tokens(inputs, 1)
    return [(docs, tokens, s) for s in epoch_seconds]


def _lama_eval(data: EvalSet, checkpoint_dir: str, out: str, tally: Tally,
               timed: bool = True):
    """One ``lama eval`` call, timed whole; returns metrics.json or None."""
    tally.attempted += data.docs
    gc.collect()  # start each timed call from the same heap state
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(["eval", "--checkpoint", checkpoint_dir,
                             "--data", data.tsv, "--out", out])
        seconds = time.perf_counter() - started
        if code != 0:
            raise RuntimeError(f"lama eval exited {code}: {err.getvalue().strip()}")
        with open(os.path.join(out, "metrics.json"), encoding="utf-8") as fh:
            metrics = json.load(fh)
    except Exception as exc:  # a failed call fails all of its documents
        tally.fail(data.docs, exc)
        return None
    if timed:
        tally.infer_samples.append((data.docs, data.tokens, seconds))
    return metrics


def run_round(workload: Workload, inputs: Inputs, work: str, tally: Tally):
    sizes = workload.sizes
    out = os.path.join(work, "eval-out")
    docs, tokens = _train_docs_tokens(inputs, sizes.epochs)
    tally.attempted += docs
    # inference time does not depend on the weights, so serving the set-up
    # model between epochs spreads the inference samples over the whole run
    def serve():
        for _ in range(sizes.serve_calls):
            _lama_eval(inputs.serve, inputs.served_dir, out, tally)

    try:
        checkpoint, history, epoch_seconds = timed_train(inputs, between_epochs=serve)
    except Exception as exc:  # a failed call fails all of its documents
        tally.fail(docs, exc)
        tally.attempted += inputs.test.docs
        tally.failed += inputs.test.docs
        return
    tally.train_docs += docs
    tally.train_samples += epoch_samples(inputs, epoch_seconds)
    tally.train_losses.append([r.train_loss for r in history.records])
    checkpoint_dir = os.path.join(work, "checkpoint")
    checkpoint.save(checkpoint_dir)
    inputs.checkpoint = checkpoint
    # one untimed call on the trained model, for accuracy and the round trip
    tally.eval_metrics = _lama_eval(inputs.test, checkpoint_dir, out, tally,
                                    timed=False) or tally.eval_metrics


def check(workload: Workload, inputs: Inputs, tally: Tally):
    """Correctness checks on the last round's outputs, into ``tally.checks``."""
    losses = [x for run in tally.train_losses for x in run]
    tally.checks["losses_finite"] = bool(losses) and all(math.isfinite(x) for x in losses)
    metrics = tally.eval_metrics
    if metrics is None or inputs.checkpoint is None:
        tally.checks["eval_round_trip"] = False
        return
    # lama eval loaded the checkpoint from disk; the in-memory params it was
    # saved from must give the same confusion matrix
    dataset = text.load_dataset(inputs.test.tsv, inputs.vocab, inputs.config.max_len,
                                label_names=inputs.checkpoint.label_names, split="eval")
    expected = training.evaluate(inputs.checkpoint, dataset)
    tally.checks["eval_round_trip"] = (metrics["confusion"] == expected.confusion
                                       and metrics["total"] == inputs.test.docs)
    if workload.name == "keyword-bigru-train":
        tally.checks["keyword_accuracy_floor"] = metrics["accuracy"] >= KEYWORD_FLOOR


def rates(samples) -> tuple[float, float]:
    """(docs/s, tokens/s) over all of a run's timed samples: their documents
    and tokens over their summed seconds. On a shared host the speed drifts
    over tens of seconds; the whole run's total averages that drift."""
    seconds = sum(s for _, _, s in samples)
    return sum(d for d, _, _ in samples) / seconds, sum(t for _, t, _ in samples) / seconds


def end_to_end(tally: Tally, setup_seconds: list, peak_rss_mb: float) -> dict:
    """End-to-end metrics as {name: (value, unit)}: rates over all timed
    samples, set-up time and loss as medians."""
    losses = [run[-1] for run in tally.train_losses]
    out = {"setup_s": (statistics.median(setup_seconds), "s")}
    for kind, samples in (("train", tally.train_samples), ("infer", tally.infer_samples)):
        if samples:
            docs_per_s, tokens_per_s = rates(samples)
            out[f"{kind}_docs_per_s"] = (docs_per_s, "docs/s")
            out[f"{kind}_tokens_per_s"] = (tokens_per_s, "tokens/s")
    if losses:
        out["train_loss"] = (statistics.median(losses), "nats")
    if tally.eval_metrics is not None:
        out["accuracy"] = (float(tally.eval_metrics["accuracy"]), "fraction")
    out["peak_rss_mb"] = (peak_rss_mb, "MB")
    return out


def describe(workload: Workload, inputs: Inputs) -> dict:
    """Inputs and dims recorded with every result."""
    c = inputs.config
    return {
        "workload": workload.name,
        "dims": {"d": c.d, "h": c.h, "m": c.m, "max_len": c.max_len,
                 "vocab": len(inputs.vocab), "encoder": c.encoder,
                 "regularizer": c.regularizer, "batch": c.batch,
                 "classes": inputs.train_set.num_classes},
        "sizes": vars(workload.sizes),
        "padded_share": {
            "train": zipfcorpus.padded_share(inputs.train_lengths, c.max_len),
            "test": zipfcorpus.padded_share(inputs.test_lengths, c.max_len),
        },
    }
