"""Synthetic corpora for desk-scale training checks.

Two generators: a keyword-separable sentiment task (one marker family per
class, learnable by a single head plus a linear layer) and a multi-aspect
task whose label is a conjunction of a food marker and a service marker
planted in different places, so one attention distribution has to split
itself across both aspects while several heads can specialize.
"""

from __future__ import annotations

import numpy as np

from .text import Dataset, Vocab, build_vocab, rows_to_dataset, tokenize

FILLERS = [f"filler{i:02d}" for i in range(20)]

POS_MARKERS = ["superb", "delightful", "wonderful"]
NEG_MARKERS = ["dreadful", "terrible", "awful"]

FOOD_GOOD = ["tasty", "delicious"]
FOOD_BAD = ["bland", "stale"]
SVC_GOOD = ["friendly", "attentive"]
SVC_BAD = ["rude", "slow"]


def _doc(rng: np.random.Generator, markers: list, length: int) -> str:
    tokens = list(rng.choice(FILLERS, size=length))
    for marker in markers:
        tokens.insert(int(rng.integers(0, len(tokens) + 1)), marker)
    return " ".join(tokens)


def keyword_pairs(n: int, seed: int) -> list[tuple[str, str]]:
    """Balanced 2-class corpus where each document carries 2-3 markers of
    its class."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = []
    for i in range(n):
        label = "pos" if i % 2 == 0 else "neg"
        family = POS_MARKERS if label == "pos" else NEG_MARKERS
        markers = list(rng.choice(family, size=int(rng.integers(2, 4))))
        pairs.append((label, _doc(rng, markers, int(rng.integers(6, 13)))))
    return pairs


def multi_aspect_pairs(n: int, seed: int) -> list[tuple[str, str]]:
    """Label is positive only when both the food and the service aspects are
    positive; classes are balanced.

    Food markers land in the front half of the document and service markers
    in the back half, so no single region of the text settles the label.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = []
    for i in range(n):
        if i % 2 == 0:
            food, svc = True, True
        else:
            food, svc = [(False, False), (False, True), (True, False)][int(rng.integers(3))]
        half = int(rng.integers(8, 13))
        front = list(rng.choice(FILLERS, size=half))
        back = list(rng.choice(FILLERS, size=half))
        for marker in rng.choice(FOOD_GOOD if food else FOOD_BAD, size=2):
            front.insert(int(rng.integers(0, len(front) + 1)), str(marker))
        for marker in rng.choice(SVC_GOOD if svc else SVC_BAD, size=2):
            back.insert(int(rng.integers(0, len(back) + 1)), str(marker))
        label = "pos" if (food and svc) else "neg"
        pairs.append((label, " ".join(front + back)))
    return pairs


def write_tsv(pairs, path):
    with open(path, "w", encoding="utf-8") as fh:
        for label, text in pairs:
            fh.write(f"{label}\t{text}\n")


def pairs_to_dataset(pairs, vocab: Vocab, max_len: int = 32,
                     label_names=None, split="train") -> Dataset:
    """Encode (label, text) pairs; pair k counts as line k + 1 in errors."""
    rows = [(k, label, text) for k, (label, text) in enumerate(pairs, start=1)]
    return rows_to_dataset(rows, vocab, max_len, label_names, split, source="<pairs>")


def make_task(kind: str, n_train: int, n_valid: int, seed: int,
              max_len: int = 32) -> tuple[Dataset, Dataset, Vocab]:
    """Train/valid datasets plus the vocabulary built from the train split."""
    gen = {"keyword": keyword_pairs, "multi-aspect": multi_aspect_pairs}[kind]
    train_pairs = gen(n_train, seed)
    valid_pairs = gen(n_valid, seed + 10_000)
    vocab = build_vocab((tokenize(t) for _, t in train_pairs), min_count=2)
    train_set = pairs_to_dataset(train_pairs, vocab, max_len, split="train")
    valid_set = pairs_to_dataset(valid_pairs, vocab, max_len,
                                 label_names=train_set.label_names, split="valid")
    return train_set, valid_set, vocab
