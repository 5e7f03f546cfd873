"""Tokenization, vocabulary construction, embeddings and dataset ingestion.

Datasets are TSV files, one document per line: ``label<TAB>text``. The
vocabulary reserves id 0 for padding and id 1 for unknown tokens and keeps
the remaining ids dense, ordered by descending frequency then token.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass

import numpy as np

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


class TextError(Exception):
    pass


class FileOpenError(TextError):
    """An input file could not be opened (an I/O failure, not bad data)."""


class EncodingError(TextError):
    pass


class MalformedLineError(TextError):
    def __init__(self, path, line_no, reason):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.line_no = line_no


class EmptyCorpusError(TextError):
    pass


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, and break punctuation out into
    standalone tokens."""
    tokens = []
    word = []

    def flush():
        if word:
            tokens.append("".join(word))
            word.clear()

    for ch in text.lower():
        if ch.isspace():
            flush()
        elif unicodedata.category(ch).startswith("P"):
            flush()
            tokens.append(ch)
        else:
            word.append(ch)
    flush()
    return tokens


@dataclass
class Vocab:
    token_to_id: dict
    id_to_token: list

    def __len__(self):
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        """The token's id; an unknown token, ``<pad>`` or ``<unk>`` is UNK_ID,
        so no text encodes to PAD_ID."""
        return UNK_ID if token == PAD_TOKEN else self.token_to_id.get(token, UNK_ID)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for token in self.id_to_token:
                fh.write(token + "\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh]
        if len(tokens) < 2 or tokens[0] != PAD_TOKEN or tokens[1] != UNK_TOKEN:
            raise TextError(f"{path}: not a vocab file (missing reserved tokens)")
        token_to_id = {t: i for i, t in enumerate(tokens)}
        if len(token_to_id) != len(tokens):
            raise TextError(f"{path}: not a vocab file (repeated tokens)")
        return cls(token_to_id, tokens)


def build_vocab(corpus, min_count: int = 5) -> Vocab:
    """Build a vocabulary from an iterable of token sequences.

    Tokens seen fewer than ``min_count`` times are dropped, and so are the
    reserved ``<pad>`` and ``<unk>`` as text; survivors are ordered by
    descending frequency, ties broken by token, so two runs over the same
    corpus assign identical ids.
    """
    if min_count < 1:
        raise TextError(f"min_count must be >= 1, got {min_count}")
    counts = Counter()
    ndocs = 0
    for tokens in corpus:
        ndocs += 1
        counts.update(tokens)
    if ndocs == 0 or not counts:
        raise EmptyCorpusError("cannot build a vocabulary from an empty corpus")
    reserved = [PAD_TOKEN, UNK_TOKEN]
    kept = sorted(
        (t for t, c in counts.items() if c >= min_count and t not in reserved),
        key=lambda t: (-counts[t], t),
    )
    id_to_token = reserved + kept
    return Vocab({t: i for i, t in enumerate(id_to_token)}, id_to_token)


@dataclass
class Document:
    ids: np.ndarray          # padded to max_len
    true_length: int
    label: int

    def valid_ids(self) -> np.ndarray:
        return self.ids[: self.true_length]


@dataclass
class Dataset:
    documents: list
    label_names: list
    split: str = "train"

    @property
    def num_classes(self) -> int:
        return len(self.label_names)

    def __len__(self):
        return len(self.documents)


def encode(tokens, vocab: Vocab, max_len: int) -> tuple[np.ndarray, int]:
    """Map tokens to ids, truncate to ``max_len`` and pad with PAD."""
    if max_len < 1:
        raise TextError(f"max_len must be >= 1, got {max_len}")
    ids = [vocab.lookup(t) for t in tokens[:max_len]]
    true_length = len(ids)
    padded = np.full(max_len, PAD_ID, dtype=np.int64)
    padded[:true_length] = ids
    return padded, true_length


def read_tsv(path) -> list[tuple[int, str, str]]:
    """Read ``label<TAB>text`` lines into (line_no, label, text) triples,
    failing fast with the line number on malformed input."""
    rows = []
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise FileOpenError(f"cannot open dataset {path}: {exc}") from exc
    with fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                if "\t" not in line:
                    raise MalformedLineError(path, line_no, "expected label<TAB>text")
                label, text = line.split("\t", 1)
                if not label:
                    raise MalformedLineError(path, line_no, "empty label")
                if not text.strip():
                    raise MalformedLineError(path, line_no, "empty document text")
                rows.append((line_no, label, text))
        except UnicodeDecodeError as exc:
            raise EncodingError(f"{path}: invalid UTF-8: {exc}") from exc
    return rows


def tokenize_rows(rows) -> list[tuple[int, str, list[str]]]:
    """(line_no, label, text) rows to (line_no, label, tokens) rows."""
    return [(line_no, label, tokenize(text)) for line_no, label, text in rows]


def rows_to_dataset(rows, vocab: Vocab, max_len: int, label_names=None,
                    split: str = "train", source="<rows>") -> Dataset:
    """Encode (line_no, label, tokens) rows into documents.

    With ``label_names=None`` label ids are assigned by first appearance;
    otherwise the given map is authoritative and unseen labels are an error.
    A document with no tokens is an error too. Errors name ``source`` and
    the row's line number.
    """
    closed = label_names is not None
    names = list(label_names) if closed else []
    index = {n: i for i, n in enumerate(names)}
    documents = []
    for line_no, label, tokens in rows:
        if label not in index:
            if closed:
                raise MalformedLineError(source, line_no, f"unknown label {label!r}")
            index[label] = len(names)
            names.append(label)
        ids, true_length = encode(tokens, vocab, max_len)
        if true_length == 0:
            raise MalformedLineError(source, line_no, "document has no tokens")
        documents.append(Document(ids, true_length, index[label]))
    return Dataset(documents, names, split)


def load_dataset(path, vocab: Vocab, max_len: int = 256,
                 label_names=None, split: str = "train") -> Dataset:
    """Load a TSV corpus into encoded documents (see ``rows_to_dataset``)."""
    return rows_to_dataset(tokenize_rows(read_tsv(path)), vocab, max_len, label_names,
                           split, source=path)


@dataclass
class EmbeddingMatrix:
    weights: np.ndarray      # |V| x d, PAD row all zeros
    coverage: float | None = None  # pretrained hit ratio


def init_embeddings(vocab: Vocab, d: int, rng: np.random.Generator,
                    pretrained_path=None, dtype=np.float32) -> EmbeddingMatrix:
    """Random uniform(-0.1, 0.1) init, or rows copied from a whitespace
    separated ``token v1 .. vd`` text file with random fill for misses.

    A row without d values, or a copied row that is not d finite numbers,
    is a TextError naming ``path:line``. Rows of tokens outside the
    vocabulary are not parsed: only their field count is checked."""
    if d < 1:
        raise TextError(f"embedding dimension must be >= 1, got {d}")
    weights = rng.uniform(-0.1, 0.1, size=(len(vocab), d)).astype(dtype)
    coverage = None
    if pretrained_path is not None:
        hits = 0
        try:
            fh = open(pretrained_path, encoding="utf-8")
        except OSError as exc:
            raise FileOpenError(f"cannot open embeddings {pretrained_path}: {exc}") from exc
        with fh:
            for line_no, line in enumerate(fh, start=1):
                parts = line.rstrip("\n").split()
                if not parts:
                    continue
                token, values = parts[0], parts[1:]
                if len(values) != d:
                    raise TextError(
                        f"{pretrained_path}:{line_no}: expected {d} floats, got {len(values)}"
                    )
                idx = vocab.token_to_id.get(token)
                if idx is not None and idx >= 2:
                    try:
                        row = np.asarray([float(v) for v in values], dtype=dtype)
                    except ValueError as exc:
                        raise TextError(f"{pretrained_path}:{line_no}: {exc}") from exc
                    if not np.isfinite(row).all():
                        raise TextError(f"{pretrained_path}:{line_no}: non-finite value")
                    weights[idx] = row
                    hits += 1
        coverage = hits / max(len(vocab) - 2, 1)
    weights[PAD_ID] = 0.0
    return EmbeddingMatrix(weights, coverage=coverage)
