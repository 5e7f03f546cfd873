"""Rank-1 factorized multi-head attention over a global context vector.

Per head i, the word score is the bilinear form c^T W_i u_t with W_i
factorized as the outer product p_i q_i^T, which collapses the m scores
into a Hadamard product of two projections: F[:, t] = (P^T c) o (Q^T u_t).
The m x L score matrix then runs through tanh, a per-word L2 normalization
across heads, and a row-wise softmax to give each head a distribution over
words.

Every function here works on the columns of a minibatch's documents,
packed back to back as the runs of the one ``autodiff.runs`` layout
``model`` builds per batch; one document is one run. ``model`` trims the
padding before the encoder, so no mask reaches the normalizations and
padding a document further cannot perturb the attended output. The
softmax over words, S = A H, the doc-mean context and the disagreement
terms look at the runs; the word transform and the Q projection look only
at a word's own row.

With the BiGRU a column is a position. With the embedding-only encoder a
word's annotation is its token's row, so its score, tanh, L2 and softmax
weight depend on the (document, token) pair alone, and a document is its
bag of tokens (a ``Bag``): ``attend`` runs the word transform and the Q
projection once per distinct token of the batch, spreads the m projected
scores over the pairs with ``autodiff.expand``, and runs everything from
the (P^T c) Hadamard on once per pair. A pair of n positions adds log n to
its scores before the softmax, so its column of A is n e^s / sum n e^s,
the summed weight of its positions; S = A H over the pairs is then the
sum over the positions, the doc-mean context weighs a pair by n / L, and
``classifier.disagreement_positions`` divides a pair's A A^T term by n.
``AttentionOutput.A`` is that graph node; ``A_valid`` gives every valid
position its pair's weight / n, one column per position for either
encoder.

With a single head (m = 1) the L2 step normalizes each word's column of
one score by its own magnitude, so every word scores exactly +1 or -1
(up to the 1e-12 epsilon, which float32 absorbs unless |tanh F| < ~0.01).
The softmax then gives at most two weights, e^2 apart: a document whose
word scores all share a sign gets exactly uniform attention. This is the
current behaviour, pinned by the tests; whether the paper normalizes
across heads or across words cannot be checked against the abstract alone,
so it is left unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Node

CTX_LEARNED = "learned"
CTX_DOC_MEAN = "doc-mean"


class Bag(NamedTuple):
    """Embedding-only documents as their (document, distinct token) pairs,
    in document order and, within a document, in order of first
    occurrence. ``tokens`` groups the pairs by token, so
    ``autodiff.expand(rows, tokens)`` gives each pair its token's row;
    ``counts`` holds each pair's number of positions n and ``pairs`` the
    pair of each position."""
    tokens: ad.Groups
    counts: np.ndarray
    pairs: np.ndarray


def init_attention_arrays(d_ann: int, m: int, rng: np.random.Generator,
                          ctx: str = CTX_LEARNED, dtype=np.float32) -> dict:
    """N(0, 0.1^2) init for the word transform, both factor matrices and
    (in learned mode) the context vector. Order of draws is fixed."""
    out = {
        "W_w": rng.normal(0.0, 0.1, size=(d_ann, d_ann)).astype(dtype),
        "b_w": rng.normal(0.0, 0.1, size=(d_ann, 1)).astype(dtype),
        "P": rng.normal(0.0, 0.1, size=(d_ann, m)).astype(dtype),
        "Q": rng.normal(0.0, 0.1, size=(d_ann, m)).astype(dtype),
    }
    if ctx == CTX_LEARNED:
        out["c"] = rng.normal(0.0, 0.1, size=(d_ann, 1)).astype(dtype)
    return out


def doc_mean_context(X: Node, runs=None, counts=None) -> Node:
    """Each column's context: the mean embedding of its document's valid
    tokens, as a d x N Node over the N packed rows of ``X``. With
    ``counts`` row k of ``X`` stands for ``counts[k]`` positions."""
    runs = ad.runs([X.shape[0]]) if runs is None else runs
    starts, sizes = ad.run_spans(runs, X.shape[0], "doc_mean_context")
    n = np.ones(X.shape[0]) if counts is None else counts
    weights = (n / np.repeat(np.add.reduceat(n, starts), sizes)).astype(X.value.dtype)
    means = ad.segment_matmul(ad.constant(weights[None, :]), X, runs)
    return ad.transpose(ad.expand(means, runs))


def word_transform(H: Node, W_w: Node, b_w: Node) -> Node:
    """u_t = tanh(W_w h_t + b_w), applied to every row of H."""
    if W_w.shape[1] != H.shape[1] or b_w.shape != (W_w.shape[0], 1):
        raise ad.ShapeMismatchError("word_transform", H.shape, W_w.shape, b_w.shape)
    return ad.tanh(ad.add(ad.matmul(H, ad.transpose(W_w)), ad.transpose(b_w)))


def lama_scores(U: Node, c: Node, P: Node, Q: Node, groups: ad.Groups | None = None) -> Node:
    """All m head scores at once: column t of F is (P^T c) o (Q^T u_t), ``c``
    one context column for all words or one column per word.

    With ``groups``, U holds one row per distinct token and column t is
    ``groups.inverse[t]``: Q^T u runs once per distinct token and is then
    spread over the columns.
    """
    d_ann = U.shape[1]
    T = U.shape[0] if groups is None else groups.inverse.size
    if P.shape[0] != d_ann or Q.shape[0] != d_ann or P.shape[1] != Q.shape[1] \
            or c.shape[0] != d_ann or c.shape[1] not in (1, T):
        raise ad.ShapeMismatchError("lama_scores", U.shape, c.shape, P.shape, Q.shape)
    ctx_proj = ad.matmul(ad.transpose(P), c)           # m x 1 (broadcast) or m x T
    if groups is None:
        word_proj = ad.matmul(ad.transpose(Q), ad.transpose(U))  # m x T
    else:
        word_proj = ad.transpose(ad.expand(ad.matmul(U, Q), groups))
    return ad.hadamard(ctx_proj, word_proj)


def attention_matrix(F: Node, runs=None, counts=None) -> Node:
    """tanh -> per-column L2 across heads -> softmax of each head over each
    document's run of the m x N scores; a column of ``counts[t]``
    positions gets that many times their weight."""
    Z = ad.l2_normalize(ad.tanh(F), axis=0)
    if counts is not None:
        Z = ad.add(Z, ad.constant(np.log(counts).astype(Z.value.dtype)[None, :]))
    return ad.softmax(Z, axis=1, runs=runs)


def sentence_embedding(A: Node, H: Node, runs=None) -> tuple[Node, Node]:
    """S, the documents' m x d blocks A H stacked, and d_doc, whose column
    b is block b flattened row-major."""
    if A.shape[1] != H.shape[0]:
        raise ad.ShapeMismatchError("sentence_embedding", A.shape, H.shape)
    S = ad.segment_matmul(A, H, runs)
    m = A.shape[0]
    return S, ad.transpose(ad.reshape(S, (S.shape[0] // m, m * H.shape[1])))


@dataclass
class AttentionOutput:
    """Attention and sentence embeddings of the documents of ``runs``.

    ``A``/``S``/``d_doc`` are the graph nodes the model trains through,
    built from the valid positions (see ``sentence_embedding``); with a
    ``bag`` the columns of ``A`` and the runs are its pairs.
    """
    A: Node
    S: Node
    d_doc: Node
    runs: ad.Groups | None = None
    bag: Bag | None = None

    @property
    def A_valid(self) -> Node:
        """The m x N attention of the valid positions: ``A`` itself, or a
        constant giving each position its pair's weight / n."""
        if self.bag is None:
            return self.A
        A = self.A.value
        return ad.constant((A / self.bag.counts.astype(A.dtype))[:, self.bag.pairs])


def attend(H_valid: Node, c: Node, W_w: Node, b_w: Node, P: Node, Q: Node,
           runs=None, distinct: tuple[Node, Bag] | None = None) -> AttentionOutput:
    """Full pipeline over the valid annotation rows of the documents of
    ``runs`` (one document when None).

    With the embedding-only encoder ``H_valid`` is the embedded rows
    themselves, so the attention dimension equals the embedding dimension.
    ``distinct=(rows, bag)``, where ``H_valid`` is
    ``ad.expand(rows, bag.tokens)`` and ``runs`` lays out the pairs, runs
    the word transform and the Q projection on the distinct ``rows`` only
    and the rest once per pair of the ``Bag``.
    """
    if distinct is None:
        bag, F = None, lama_scores(word_transform(H_valid, W_w, b_w), c, P, Q)
    else:
        rows, bag = distinct
        F = lama_scores(word_transform(rows, W_w, b_w), c, P, Q, bag.tokens)
    A = attention_matrix(F, runs, None if bag is None else bag.counts)
    S, d_doc = sentence_embedding(A, H_valid, runs)
    return AttentionOutput(A=A, S=S, d_doc=d_doc, runs=runs, bag=bag)
