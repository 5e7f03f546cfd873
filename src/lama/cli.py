"""Command-line surface: train, eval, attend, topwords, params, bench,
heads-sweep.

Every command resolves its flags into a RunManifest (written before any
long computation) and drops its artifacts under --out. Exit codes: 2 usage,
3 io, 4 data, 5 divergence or a non-finite value in a forward pass.
"""

from __future__ import annotations

import os

# honor the thread cap before numpy loads its BLAS
_threads = os.environ.get("LAMA_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, baseline
from .autodiff import NonFiniteError
from .classifier import REGULARIZERS
from .model import forward_doc
from .text import (FileOpenError, TextError, build_vocab, init_embeddings,
                   load_dataset, read_tsv, rows_to_dataset, tokenize_rows)
from .training import (Checkpoint, CheckpointError, DivergenceError, TrainConfig,
                       TrainingError, evaluate, heads_sweep, sweep_to_csv, train)

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
    p.add_argument("--heads", "-m", type=int, default=1, help="attention heads")
    p.add_argument("--hidden", type=int, default=50, help="GRU hidden size per direction")
    p.add_argument("--embed-dim", type=int, default=100)
    p.add_argument("--max-len", type=int, default=256)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=0.0001)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--dropout", type=float, default=0.4)
    p.add_argument("--mlp-hidden", type=int, default=512)
    p.add_argument("--lambda", dest="lam", type=float, default=0.2)
    p.add_argument("--regularizer", choices=REGULARIZERS, default="none")
    p.add_argument("--ctx", choices=["learned", "doc-mean"], default="learned")
    p.add_argument("--encoder", choices=["bigru", "le"], default="bigru")
    p.add_argument("--min-count", type=int, default=5, help="vocab frequency threshold")
    p.add_argument("--embeddings",
                   help="pretrained vectors (token v1 .. vd per line); the values of "
                        "tokens outside the vocabulary are not parsed, only counted")


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
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--heads", type=_int_list, default=[2, 4, 8, 16, 32, 64])
    p.add_argument("--d-ann", type=int, default=512, help="annotation dim (= 2h)")
    p.add_argument("--embed-dim", type=int, default=100)
    p.add_argument("--vocab-size", type=int, default=50000)
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--mlp-hidden", type=int, default=1024)
    p.add_argument("--d-model", type=int, default=512)
    p.add_argument("--out", default=os.path.join("lama-out", "params"))

    p = sub.add_parser("bench", help="forward-pass runtime vs sequence length")
    p.add_argument("--kind", choices=["le", "te"], required=True)
    p.add_argument("--lengths", type=_int_list, default=[64, 128, 256, 512, 1024])
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--dim", type=int, help="embedding dim (le) or d_model (te)")
    p.add_argument("--heads", "-m", type=int)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=os.path.join("lama-out", "bench"))

    p = sub.add_parser("heads-sweep", help="best validation accuracy per head count")
    p.add_argument("--data", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--grid", type=_int_list, default=[1, 2, 4, 8])
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=os.path.join("lama-out", "heads-sweep"))

    return parser


def _config_from_args(args) -> TrainConfig:
    return TrainConfig(
        d=args.embed_dim, h=args.hidden, m=args.heads, max_len=args.max_len,
        batch=args.batch, lr=args.lr, momentum=args.momentum,
        weight_decay=args.weight_decay, dropout=args.dropout,
        patience=args.patience, lam=args.lam, regularizer=args.regularizer,
        ctx=args.ctx, encoder=args.encoder, mlp_hidden=args.mlp_hidden,
        max_epochs=args.epochs, seed=args.seed)


def _manifest(args, inputs, outputs) -> RunManifest:
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    return RunManifest(command=args.command, config=config,
                       seed=getattr(args, "seed", None),
                       inputs=[str(p) for p in inputs],
                       outputs=[str(p) for p in outputs], version=__version__)


def _load_train_valid(args, max_len):
    """Vocabulary and train set from one read of --data, then --valid."""
    rows = tokenize_rows(read_tsv(args.data))
    vocab = build_vocab((tokens for _, _, tokens in rows), args.min_count)
    train_set = rows_to_dataset(rows, vocab, max_len, source=args.data)
    valid_set = load_dataset(args.valid, vocab, max_len,
                             label_names=train_set.label_names, split="valid")
    return train_set, valid_set, vocab


def cmd_train(args):
    ckpt_dir = os.path.join(args.out, "checkpoint")
    history_csv = os.path.join(args.out, "history.csv")
    _manifest(args, [args.data, args.valid], [ckpt_dir, history_csv]).write(args.out)

    config = _config_from_args(args)
    train_set, valid_set, vocab = _load_train_valid(args, config.max_len)
    embedding = None
    if args.embeddings:
        rng = np.random.Generator(np.random.PCG64(config.seed))
        embedding = init_embeddings(vocab, config.d, rng, pretrained_path=args.embeddings)
        print(f"pretrained coverage: {embedding.coverage:.3f}")
    checkpoint, history = train(config, train_set, valid_set, vocab,
                                embedding=embedding, log=print,
                                snapshot=args.snapshot)
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
    payload = {"labels": checkpoint.label_names, **metrics.to_dict()}
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(json.dumps(payload, indent=2))
    return 0


def cmd_attend(args):
    jsonl_path = os.path.join(args.out, "attention.jsonl")
    _manifest(args, [args.checkpoint, args.data], [jsonl_path]).write(args.out)
    checkpoint = Checkpoint.load(args.checkpoint)
    rows = tokenize_rows(read_tsv(args.data))
    dataset = rows_to_dataset(rows, checkpoint.vocab, checkpoint.config.max_len,
                              label_names=checkpoint.label_names, split="attend",
                              source=args.data)
    nodes = checkpoint.params.store.nodes()
    with open(jsonl_path, "w", encoding="utf-8") as fh:
        for doc_id, ((_, label, tokens), doc) in enumerate(zip(rows, dataset.documents)):
            fw = forward_doc(checkpoint.params, nodes, doc.ids, doc.true_length)
            record = {
                "doc_id": doc_id,
                "tokens": tokens[:doc.true_length],
                "label": label,
                "predicted": checkpoint.label_names[fw.prediction],
                "A": [[float(x) for x in row] for row in fw.attn.A_valid.value],
            }
            fh.write(json.dumps(record) + "\n")
    print(f"wrote {len(dataset)} documents to {jsonl_path}")
    return 0


def top_attended_words(jsonl_path, label=None, top_k=20, min_occurrences=3):
    """Aggregate an attention export: a word scores the mean over its
    occurrences of its max attention weight across heads."""
    sums = {}
    counts = {}
    try:
        fh = open(jsonl_path, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot open attention export {jsonl_path}: {exc}", EXIT_IO)
    with fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                tokens = record["tokens"]
                A = np.asarray(record["A"], dtype=np.float64)
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise CliError(f"{jsonl_path}:{line_no}: bad record: {exc}", EXIT_DATA)
            if label is not None and record.get("label") != label:
                continue
            if A.ndim != 2 or A.shape[1] != len(tokens):
                raise CliError(f"{jsonl_path}:{line_no}: A shape {A.shape} does not "
                               f"match {len(tokens)} tokens", EXIT_DATA)
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
    if args.d_ann % 2 != 0:
        raise CliError(f"--d-ann must be even (it is 2h), got {args.d_ann}", EXIT_USAGE)
    h = args.d_ann // 2
    lines = ["heads,lama_millions,lama_delta_millions,te_millions"]
    prev = None
    for m in args.heads:
        lama = baseline.lama_param_count(args.embed_dim, h, m, args.vocab_size,
                                         args.mlp_hidden, args.classes,
                                         include_classifier=False)
        te = baseline.te_param_count(
            baseline.TeConfig(d_model=args.d_model, heads=m,
                              mlp_hidden=args.mlp_hidden),
            args.vocab_size, args.classes)
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
    train_set, valid_set, vocab = _load_train_valid(args, config.max_len)
    table = heads_sweep(config, args.grid, train_set, valid_set, vocab, log=print)
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
