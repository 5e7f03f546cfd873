"""Tokenization, vocabulary construction, dataset ingestion and pretrained
vector files.

Datasets are TSV files, one document per line: ``label<TAB>text``. TSV and
vector files are read as UTF-8, a leading byte order mark skipped. The
vocabulary reserves id 0 for padding and id 1 for unknown tokens and keeps
the remaining ids dense, ordered by descending frequency then token.
Padding is decided here: ``encode`` pads to max_len, a ``Document``
checks its true length when it is made, and ``model`` reads only its
``valid_ids``. ``read_pretrained`` only reads a vector file: the trainer
writes its rows into the model's own randomly initialized embedding matrix.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import repeat

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
    standalone tokens.

    ``str.split`` splits where ``str.isspace`` holds, and an alphanumeric
    word has no character of Unicode category P, so only other words are
    scanned character by character."""
    tokens = []
    for word in text.lower().split():
        if word.isalnum():
            tokens.append(word)
            continue
        start = 0
        for i, ch in enumerate(word):
            if unicodedata.category(ch).startswith("P"):
                tokens += [word[start:i], ch] if start < i else [ch]
                start = i + 1
        if start < len(word):
            tokens.append(word[start:])
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
        # universal newlines make this the lines that iteration reads
        with open(path, encoding="utf-8") as fh:
            tokens = fh.read().split("\n")
        if tokens[-1] == "":
            tokens.pop()
        if len(tokens) < 2 or tokens[0] != PAD_TOKEN or tokens[1] != UNK_TOKEN:
            raise TextError(f"{path}: not a vocab file (missing reserved tokens)")
        token_to_id = dict(zip(tokens, range(len(tokens))))
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
    # by token, then stably by descending count: the order of the key
    # (-count, token), without building a tuple per token
    kept = sorted(t for t, c in counts.items() if c >= min_count and t not in reserved)
    kept.sort(key=counts.__getitem__, reverse=True)
    id_to_token = reserved + kept
    return Vocab({t: i for i, t in enumerate(id_to_token)}, id_to_token)


@dataclass
class Document:
    ids: np.ndarray          # padded to max_len
    true_length: int
    label: int

    def __post_init__(self):  # the tokens are ids[:true_length]
        if not 0 < self.true_length <= len(self.ids):
            raise ValueError(f"true_length {self.true_length} out of range for "
                             f"{len(self.ids)} ids")

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
    """Map tokens to ids as ``Vocab.lookup`` does, truncate to ``max_len``
    and pad with PAD.

    Unknown tokens become UNK_ID through ``token_to_id``; a literal
    ``<pad>`` is then remapped by id, which relies on id 0 belonging only
    to ``<pad>``, as ``Vocab.load`` and ``build_vocab`` guarantee."""
    if max_len < 1:
        raise TextError(f"max_len must be >= 1, got {max_len}")
    tokens = tokens[:max_len]
    true_length = len(tokens)
    padded = np.full(max_len, PAD_ID, dtype=np.int64)
    valid = padded[:true_length]
    valid[:] = np.fromiter(map(vocab.token_to_id.get, tokens, repeat(UNK_ID)),
                           dtype=np.int64, count=true_length)
    valid[valid == PAD_ID] = UNK_ID  # a literal <pad> in the text
    return padded, true_length


def read_tsv(path) -> list[tuple[int, str, str]]:
    """Read ``label<TAB>text`` lines into (line_no, label, text) triples,
    failing fast with the line number on malformed input."""
    rows = []
    try:
        fh = open(path, encoding="utf-8-sig")
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
                if not label.strip():
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


def read_pretrained(path, vocab: Vocab, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The vocabulary ids a whitespace separated ``token v1 .. vd`` text
    file lists, in file order, and their rows as a float32 len(ids) x d
    array.

    A row without d values, a listed row that is not d finite numbers, or
    a vocabulary token listed twice is a TextError naming ``path:line``.
    Rows of tokens outside the vocabulary, and of ``<pad>`` and ``<unk>``,
    are not parsed: only their field count is checked."""
    if d < 1:
        raise TextError(f"embedding dimension must be >= 1, got {d}")
    rows = {}
    try:
        fh = open(path, encoding="utf-8-sig")
    except OSError as exc:
        raise FileOpenError(f"cannot open embeddings {path}: {exc}") from exc
    with fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                parts = line.rstrip("\n").split()
                if not parts:
                    continue
                token, values = parts[0], parts[1:]
                if len(values) != d:
                    raise TextError(f"{path}:{line_no}: expected {d} floats, got {len(values)}")
                idx = vocab.token_to_id.get(token)
                if idx is None or idx <= UNK_ID:
                    continue
                if idx in rows:
                    raise TextError(f"{path}:{line_no}: token {token!r} listed twice")
                try:
                    rows[idx] = np.asarray([float(v) for v in values], dtype=np.float32)
                except ValueError as exc:
                    raise TextError(f"{path}:{line_no}: {exc}") from exc
                if not np.isfinite(rows[idx]).all():
                    raise TextError(f"{path}:{line_no}: non-finite value")
        except UnicodeDecodeError as exc:
            raise EncodingError(f"{path}: invalid UTF-8: {exc}") from exc
    return (np.fromiter(rows, dtype=np.int64, count=len(rows)),
            np.asarray(list(rows.values()), dtype=np.float32).reshape(len(rows), d))
