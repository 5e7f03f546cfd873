"""Seeded Zipf-distributed corpus with planted class markers.

Filler words follow a Zipf law over a fixed word list, so a few words are
very common and most of the 50k-word vocabulary is rare, as in real text.
Each position holds a marker word of the document's class with a fixed
probability (and every document holds at least one), so the labels are
learnable in a few epochs at any document length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lama.text import Vocab, build_vocab

CLASSES = 2
MARKERS_PER_CLASS = 2
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class ZipfSpec:
    vocab_size: int = 50_000     # |V|, the two reserved ids included
    marker_share: float = 0.25   # chance that a position holds a marker
    min_len: int = 64            # document length in tokens, markers included
    max_len: int = 256

    def __post_init__(self):
        if self.num_fillers < 1:
            raise ValueError("vocab_size leaves no room for filler words")
        if not 0 < self.min_len <= self.max_len:
            raise ValueError("need 0 < min_len <= max_len")
        if not 0.0 < self.marker_share < 1.0:
            raise ValueError("marker_share must be in (0, 1)")

    @property
    def num_fillers(self) -> int:
        return self.vocab_size - 2 - CLASSES * MARKERS_PER_CLASS


def label_name(k: int) -> str:
    return f"class{k}"


def marker_words(k: int) -> list[str]:
    return [f"mark{k}x{j}" for j in range(MARKERS_PER_CLASS)]


def filler_words(spec: ZipfSpec) -> list[str]:
    return [f"w{i}" for i in range(spec.num_fillers)]


def make_vocab(spec: ZipfSpec) -> Vocab:
    """The full |V|-word vocabulary, independent of which words a sample
    happens to draw."""
    words = filler_words(spec)
    for k in range(CLASSES):
        words += marker_words(k)
    return build_vocab([words], min_count=1)


def make_pairs(spec: ZipfSpec, n: int, seed: int) -> list[tuple[str, str]]:
    """``n`` balanced (label, text) pairs; the same seed gives the same pairs."""
    rng = np.random.Generator(np.random.PCG64(seed))
    fillers = np.array(filler_words(spec))
    weights = np.arange(1, spec.num_fillers + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    cdf = np.cumsum(weights / weights.sum())
    # lengths spread evenly over the range in seeded order, so every seed
    # gives the same total length and throughput does not move with it
    lengths = rng.permutation(np.linspace(spec.min_len, spec.max_len, n).round())
    pairs = []
    for i in range(n):
        k = i % CLASSES
        length = int(lengths[i])
        ranks = np.minimum(np.searchsorted(cdf, rng.random(length)), spec.num_fillers - 1)
        tokens = fillers[ranks].astype(object)
        is_marker = rng.random(length) < spec.marker_share
        is_marker[int(rng.integers(length))] = True
        markers = marker_words(k)
        tokens[is_marker] = [markers[j] for j in
                             rng.integers(len(markers), size=int(is_marker.sum()))]
        pairs.append((label_name(k), " ".join(tokens)))
    return pairs


def padded_share(lengths, max_len: int) -> float:
    """Share of padded positions, 1 - sum(len) / (N * max_len), in a batch
    that pads every document to ``max_len``."""
    lengths = list(lengths)
    return 1.0 - sum(min(n, max_len) for n in lengths) / (len(lengths) * max_len)
