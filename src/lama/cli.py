"""Command-line surface: train, eval, attend, topwords, params, bench,
heads-sweep.

Every command resolves its flags into a RunManifest (written before any
long computation) and drops its artifacts under --out. Exit codes: 2 usage,
3 io, 4 data, 5 divergence or a non-finite value in a forward pass.

The parser is built once per process, on the first ``main`` call, and every
later call parses with it. Its defaults are shared by those calls, so they
are immutable (the list flags default to tuples) and a handler must not
mutate ``args``.
"""

from __future__ import annotations

import os

# one BLAS thread unless the environment says otherwise, set before numpy
# loads its BLAS: with more, a shared host's scheduler times `lama bench`
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, baseline
from .attention import CTX_DOC_MEAN, CTX_LEARNED
from .autodiff import NonFiniteError
from .classifier import REGULARIZERS
from .model import ENCODER_BIGRU, ENCODER_LE, param_shapes
from .text import (FileOpenError, TextError, build_vocab, load_dataset, read_pretrained,
                   read_tsv, rows_to_dataset, tokenize_rows)
from .training import (MAX_LEN, Checkpoint, CheckpointError, DivergenceError, TrainConfig,
                       TrainingError, checkpoint_target, evaluate, forward_chunks,
                       heads_sweep, sweep_to_csv, train)

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_DIVERGED = 5


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int | None
    inputs: list
    outputs: list
    version: str

    def write(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _int_list(text):
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {text!r}") from exc


def _add_train_flags(p):
    """The ``TrainConfig`` flags but ``--seed``, each defaulting to its field's
    default."""
    p.add_argument("--heads", "-m", type=int, default=TrainConfig.m, help="attention heads")
    p.add_argument("--hidden", type=int, default=TrainConfig.h,
                   help="GRU hidden size per direction")
    p.add_argument("--embed-dim", type=int, default=TrainConfig.d)
    p.add_argument("--max-len", type=int, default=TrainConfig.max_len,
                   help=f"tokens kept per document, at most {MAX_LEN}")
    p.add_argument("--epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--momentum", type=float, default=TrainConfig.momentum)
    p.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay)
    p.add_argument("--batch", type=int, default=TrainConfig.batch)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--dropout", type=float, default=TrainConfig.dropout)
    p.add_argument("--mlp-hidden", type=int, default=TrainConfig.mlp_hidden)
    p.add_argument("--lambda", dest="lam", type=float, default=TrainConfig.lam)
    p.add_argument("--regularizer", choices=REGULARIZERS, default=TrainConfig.regularizer)
    p.add_argument("--ctx", choices=[CTX_LEARNED, CTX_DOC_MEAN], default=TrainConfig.ctx)
    p.add_argument("--encoder", choices=[ENCODER_BIGRU, ENCODER_LE],
                   default=TrainConfig.encoder)
    p.add_argument("--min-count", type=int, default=5, help="vocab frequency threshold")
    p.add_argument("--embeddings",
                   help="pretrained vectors (token v1 .. vd per line) that replace their "
                        "tokens' initial rows; other tokens' values are only counted")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="lama",
        description="Factorized multi-head attention text classification toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a classifier on a TSV corpus")
    p.add_argument("--data", required=True, help="train TSV (label<TAB>text)")
    p.add_argument("--valid", required=True, help="validation TSV")
    _add_train_flags(p)
    p.add_argument("--snapshot", choices=["best", "final"], default="best",
                   help="which weights the checkpoint keeps")
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--out", default=os.path.join("lama-out", "train"))

    p = sub.add_parser("eval", help="evaluate a checkpoint on a TSV corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=os.path.join("lama-out", "eval"))

    p = sub.add_parser("attend", help="export per-document attention weights")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=os.path.join("lama-out", "attend"))

    p = sub.add_parser("topwords", help="rank words by attention from an export")
    p.add_argument("--data", required=True, help="attention JSONL from `lama attend`")
    p.add_argument("--label", help="restrict to documents with this true label")
    p.add_argument("--top-k", type=int, default=20)
    p.add_argument("--min-occurrences", type=int, default=3)
    p.add_argument("--out", default=os.path.join("lama-out", "topwords"))

    p = sub.add_parser("params", help="parameter accounting vs the TE baseline")
    p.add_argument("--heads", type=_int_list, default=(2, 4, 8, 16, 32, 64))
    p.add_argument("--d-ann", type=int, default=512, help="annotation dim (= 2h)")
    p.add_argument("--embed-dim", type=int, default=100)
    p.add_argument("--vocab-size", type=int, default=50000)
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--mlp-hidden", type=int, default=1024)
    p.add_argument("--d-model", type=int, default=512)
    p.add_argument("--out", default=os.path.join("lama-out", "params"))

    p = sub.add_parser("bench", help="forward-pass runtime vs sequence length")
    p.add_argument("--kind", choices=["le", "bigru", "te"], required=True)
    p.add_argument("--lengths", type=_int_list, default=(64, 128, 256, 512, 1024))
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--dim", type=int, help="embedding dim (le, bigru) or d_model (te)")
    p.add_argument("--heads", "-m", type=int)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=os.path.join("lama-out", "bench"))

    p = sub.add_parser("heads-sweep", help="best validation accuracy per head count")
    p.add_argument("--data", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--grid", type=_int_list, default=(1, 2, 4, 8))
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--out", default=os.path.join("lama-out", "heads-sweep"))

    return parser


def _config_from_args(args) -> TrainConfig:
    try:
        return TrainConfig(
            d=args.embed_dim, h=args.hidden, m=args.heads, max_len=args.max_len,
            batch=args.batch, lr=args.lr, momentum=args.momentum,
            weight_decay=args.weight_decay, dropout=args.dropout,
            patience=args.patience, lam=args.lam, regularizer=args.regularizer,
            ctx=args.ctx, encoder=args.encoder, mlp_hidden=args.mlp_hidden,
            max_epochs=args.epochs, seed=args.seed)
    except ValueError as exc:
        raise CliError(f"invalid training configuration: {exc}", EXIT_USAGE) from exc


def _manifest(args, inputs, outputs) -> RunManifest:
    config = {k: v for k, v in vars(args).items() if k != "command"}
    return RunManifest(command=args.command, config=config,
                       seed=getattr(args, "seed", None),
                       inputs=[str(p) for p in inputs],
                       outputs=[str(p) for p in outputs], version=__version__)


def _check_model(vocab_size, num_classes, **dims):
    try:
        param_shapes(vocab_size, num_classes, **dims)
    except ValueError as exc:
        raise CliError(f"invalid model: {exc}", EXIT_USAGE) from exc


def _load_inputs(args, config, m):
    """Vocabulary and train set from one read of --data, then --valid, and
    the (ids, rows) of --embeddings, its coverage printed, or None. Exits 2
    first if the model with ``m`` heads is invalid or too large to allocate
    (``model.param_shapes``)."""
    if args.min_count < 1:
        raise CliError(f"--min-count must be >= 1, got {args.min_count}", EXIT_USAGE)
    rows = tokenize_rows(read_tsv(args.data))
    vocab = build_vocab((tokens for _, _, tokens in rows), args.min_count)
    if len(vocab) == 2:  # <pad> and <unk> only
        raise CliError(f"--min-count {args.min_count} keeps no token of {args.data}, "
                       f"so every word would read as <unk>", EXIT_DATA)
    train_set = rows_to_dataset(rows, vocab, config.max_len, source=args.data)
    _check_model(len(vocab), train_set.num_classes, d=config.d, h=config.h, m=m,
                 ctx=config.ctx, encoder=config.encoder, mlp_hidden=config.mlp_hidden)
    valid_set = load_dataset(args.valid, vocab, config.max_len,
                             label_names=train_set.label_names, split="valid")
    pretrained = None
    if args.embeddings:
        pretrained = read_pretrained(args.embeddings, vocab, config.d)
        print(f"pretrained coverage: {len(pretrained[0]) / (len(vocab) - 2):.3f}")
    return train_set, valid_set, vocab, pretrained


def cmd_train(args):
    ckpt_dir = os.path.join(args.out, "checkpoint")
    history_csv = os.path.join(args.out, "history.csv")
    _manifest(args, [args.data, args.valid], [ckpt_dir, history_csv]).write(args.out)

    config = _config_from_args(args)
    checkpoint_target(ckpt_dir)  # refused now, not after the last epoch
    train_set, valid_set, vocab, pretrained = _load_inputs(args, config, config.m)
    checkpoint, history = train(config, train_set, valid_set, vocab, pretrained=pretrained,
                                log=print, snapshot=args.snapshot)
    checkpoint.save(ckpt_dir)
    history.to_csv(history_csv)
    best = history.records[history.best_epoch - 1]
    print(f"best epoch {history.best_epoch}: valid acc {best.valid_acc:.4f}")
    print(f"checkpoint: {ckpt_dir}")
    return 0


def cmd_eval(args):
    metrics_path = os.path.join(args.out, "metrics.json")
    _manifest(args, [args.checkpoint, args.data], [metrics_path]).write(args.out)
    checkpoint = Checkpoint.load(args.checkpoint)
    dataset = load_dataset(args.data, checkpoint.vocab, checkpoint.config.max_len,
                           label_names=checkpoint.label_names, split="eval")
    metrics = evaluate(checkpoint, dataset)
    report = json.dumps({"labels": checkpoint.label_names, **metrics.to_dict()}, indent=2)
    with open(metrics_path, "w", encoding="utf-8") as fh:
        fh.write(report + "\n")
    print(report)
    return 0


def cmd_attend(args):
    jsonl_path = os.path.join(args.out, "attention.jsonl")
    _manifest(args, [args.checkpoint, args.data], [jsonl_path]).write(args.out)
    checkpoint = Checkpoint.load(args.checkpoint)
    rows = tokenize_rows(read_tsv(args.data))
    dataset = rows_to_dataset(rows, checkpoint.vocab, checkpoint.config.max_len,
                              label_names=checkpoint.label_names, split="attend",
                              source=args.data)
    if len(dataset) == 0:
        raise CliError(f"attend set is empty: {args.data}", EXIT_DATA)
    # one forward-only graph per chunk of documents, the attention of its
    # positions split by document
    predicted, A_docs = [], []
    for chunk, fw in forward_chunks(checkpoint.params, dataset.documents):
        predicted += [checkpoint.label_names[k] for k in fw.predictions]
        ends = np.cumsum([doc.true_length for doc in chunk])
        A_docs += np.split(fw.attn.A_valid.value, ends[:-1], axis=1)
    with open(jsonl_path, "w", encoding="utf-8") as fh:
        for doc_id, ((_, label, tokens), pred, A) in enumerate(zip(rows, predicted, A_docs)):
            record = {
                "doc_id": doc_id,
                "tokens": tokens[:A.shape[1]],
                "label": label,
                "predicted": pred,
                "A": [[float(x) for x in row] for row in A],
            }
            fh.write(json.dumps(record) + "\n")
    print(f"wrote {len(dataset)} documents to {jsonl_path}")
    return 0


def top_attended_words(jsonl_path, label=None, top_k=20, min_occurrences=3):
    """Aggregate an attention export: a word scores the mean over its
    occurrences of its max attention weight across heads."""
    if top_k < 1:
        raise CliError(f"--top-k must be >= 1, got {top_k}", EXIT_USAGE)
    if min_occurrences < 1:
        raise CliError(f"--min-occurrences must be >= 1, got {min_occurrences}", EXIT_USAGE)
    sums = {}
    counts = {}
    try:
        fh = open(jsonl_path, "rb")
    except OSError as exc:
        raise CliError(f"cannot open attention export {jsonl_path}: {exc}", EXIT_IO)
    with fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8")  # line by line, so an error names its line
                if not line.strip():
                    continue
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError(f"expected a JSON object, got {type(record).__name__}")
                tokens = record["tokens"]
                if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
                    raise ValueError("tokens must be a list of strings")
                A = np.asarray(record["A"], dtype=np.float64)
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                raise CliError(f"{jsonl_path}:{line_no}: bad record: {exc}", EXIT_DATA)
            if A.ndim != 2 or A.shape[1] != len(tokens):
                raise CliError(f"{jsonl_path}:{line_no}: A shape {A.shape} does not "
                               f"match {len(tokens)} tokens", EXIT_DATA)
            weights = (A >= 0) & (A <= 1)  # false for NaN too
            if not weights.all():
                raise CliError(f"{jsonl_path}:{line_no}: attention weight {A[~weights][0]} "
                               f"is not in [0, 1]", EXIT_DATA)
            if label is not None and record.get("label") != label:
                continue
            best = A.max(axis=0)
            for token, weight in zip(tokens, best):
                sums[token] = sums.get(token, 0.0) + float(weight)
                counts[token] = counts.get(token, 0) + 1
    scored = [(sums[t] / counts[t], t, counts[t])
              for t in sums if counts[t] >= min_occurrences]
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [(t, score, n) for score, t, n in scored[:top_k]]


def cmd_topwords(args):
    out_path = os.path.join(args.out, "topwords.tsv")
    _manifest(args, [args.data], [out_path]).write(args.out)
    ranking = top_attended_words(args.data, args.label, args.top_k,
                                 args.min_occurrences)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("word\tscore\toccurrences\n")
        for word, score, n in ranking:
            fh.write(f"{word}\t{score:.6f}\t{n}\n")
    for word, score, n in ranking:
        print(f"{word}\t{score:.6f}\t{n}")
    return 0


def cmd_params(args):
    out_path = os.path.join(args.out, "params.csv")
    _manifest(args, [], [out_path]).write(args.out)
    if not args.heads or min(args.heads) < 1:
        raise CliError(f"--heads must list head counts >= 1, got {args.heads}", EXIT_USAGE)
    for name in ("d_ann", "embed_dim", "vocab_size", "classes", "mlp_hidden", "d_model"):
        if getattr(args, name) < 1:
            raise CliError(f"--{name.replace('_', '-')} must be >= 1, "
                           f"got {getattr(args, name)}", EXIT_USAGE)
    if args.d_ann % 2 != 0:
        raise CliError(f"--d-ann must be even (it is 2h), got {args.d_ann}", EXIT_USAGE)
    h = args.d_ann // 2
    _check_model(args.vocab_size, args.classes, d=args.embed_dim, h=h, m=max(args.heads),
                 ctx=CTX_LEARNED, encoder=ENCODER_BIGRU, mlp_hidden=args.mlp_hidden)
    # one head: the TE count does not depend on it, and 1 divides any d_model
    te = baseline.te_param_count(
        baseline.TeConfig(d_model=args.d_model, heads=1, mlp_hidden=args.mlp_hidden),
        args.vocab_size, args.classes)
    lines = ["heads,lama_millions,lama_delta_millions,te_millions"]
    prev = None
    for m in args.heads:
        lama = baseline.lama_param_count(args.embed_dim, h, m, args.vocab_size,
                                         args.mlp_hidden, args.classes,
                                         include_classifier=False)
        delta = "" if prev is None else f"{(lama.total - prev) / 1e6:.3f}"
        lines.append(f"{m},{lama.millions:.3f},{delta},{te.millions:.3f}")
        prev = lama.total
    table = "\n".join(lines) + "\n"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(table)
    print(table, end="")
    print(f"# lama marginal cost per extra head: {2 * args.d_ann} parameters")
    return 0


def cmd_bench(args):
    out_path = os.path.join(args.out, f"bench_{args.kind}.csv")
    _manifest(args, [], [out_path]).write(args.out)
    result = baseline.bench_runtime(args.kind, args.lengths, trials=args.trials,
                                    d=args.dim, heads=args.heads,
                                    batch=args.batch, seed=args.seed, log=print)
    result.to_csv(out_path)
    print(result.summary())
    return 0


def cmd_heads_sweep(args):
    out_path = os.path.join(args.out, "sweep.csv")
    _manifest(args, [args.data, args.valid], [out_path]).write(args.out)
    config = _config_from_args(args)
    if not args.grid or min(args.grid) < 1:
        raise CliError(f"--grid must list head counts >= 1, got {args.grid}", EXIT_USAGE)
    train_set, valid_set, vocab, pretrained = _load_inputs(args, config, max(args.grid))
    table = heads_sweep(config, args.grid, train_set, valid_set, vocab,
                        pretrained=pretrained, log=print)
    sweep_to_csv(table, out_path)
    for m, acc in table:
        print(f"m={m}: {acc:.4f}")
    return 0


HANDLERS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "attend": cmd_attend,
    "topwords": cmd_topwords,
    "params": cmd_params,
    "bench": cmd_bench,
    "heads-sweep": cmd_heads_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the primitives raise on non-finite values; numpy's warnings repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            return HANDLERS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (DivergenceError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (CheckpointError, FileOpenError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (TrainingError, TextError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except baseline.BaselineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
