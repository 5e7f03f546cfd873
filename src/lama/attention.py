"""Rank-1 factorized multi-head attention over a global context vector.

Per head i, the word score is the bilinear form c^T W_i u_t with W_i
factorized as the outer product p_i q_i^T, which collapses the m scores
into a Hadamard product of two projections: F[:, t] = (P^T c) o (Q^T u_t).
The m x L score matrix then runs through tanh, a per-word L2 normalization
across heads, and a row-wise softmax to give each head a distribution over
words. A dense (unfactorized) single-head scorer is kept as the exactness
oracle for the factorized path.

Every function here works on the L valid positions of one document only:
``model.forward_doc`` trims the padding before the encoder, so no mask
reaches the normalizations and padding a document further cannot perturb
the attended output. ``attend`` can lay its attention out over the padded
width for export, with exact zeros in the padded columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node

CTX_LEARNED = "learned"
CTX_DOC_MEAN = "doc-mean"


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


def doc_mean_context(doc_embeddings: Node) -> Node:
    """Mean embedding of the (valid) tokens, as a column vector Node."""
    return ad.transpose(ad.tmean(doc_embeddings, axis=0))


def word_transform(H: Node, W_w: Node, b_w: Node) -> Node:
    """u_t = tanh(W_w h_t + b_w), applied to every row of H."""
    if W_w.shape[1] != H.shape[1] or b_w.shape != (W_w.shape[0], 1):
        raise ad.ShapeMismatchError("word_transform", H.shape, W_w.shape, b_w.shape)
    return ad.tanh(ad.add(ad.matmul(H, ad.transpose(W_w)), ad.transpose(b_w)))


def single_head_scores(U: Node, c: Node, W_i: Node) -> tuple[Node, Node]:
    """Dense bilinear oracle: f_t = c^T W_i u_t, softmax over t."""
    if W_i.shape != (c.shape[0], U.shape[1]):
        raise ad.ShapeMismatchError("single_head_scores", W_i.shape, c.shape, U.shape)
    f = ad.matmul(ad.matmul(ad.transpose(c), W_i), ad.transpose(U))  # 1 x T
    alpha = attention_matrix(f, normalize=False)
    return f, alpha


def lama_scores(U: Node, c: Node, P: Node, Q: Node) -> Node:
    """All m head scores at once: column t of F is (P^T c) o (Q^T u_t)."""
    d_ann = U.shape[1]
    if P.shape[0] != d_ann or Q.shape[0] != d_ann or P.shape[1] != Q.shape[1] \
            or c.shape != (d_ann, 1):
        raise ad.ShapeMismatchError("lama_scores", U.shape, c.shape, P.shape, Q.shape)
    ctx_proj = ad.matmul(ad.transpose(P), c)           # m x 1, broadcast over words
    word_proj = ad.matmul(ad.transpose(Q), ad.transpose(U))  # m x T
    return ad.hadamard(ctx_proj, word_proj)


def attention_matrix(F: Node, normalize: bool = True) -> Node:
    """tanh -> per-word L2 across heads -> row softmax over the m x L scores.

    ``normalize=False`` skips tanh+L2 (the dense single-head oracle applies
    the softmax directly to its scores).
    """
    core = ad.l2_normalize(ad.tanh(F), axis=0) if normalize else F
    return ad.softmax(core, axis=1)


def sentence_embedding(A: Node, H: Node) -> tuple[Node, Node]:
    """S = A H (one row per head) and its row-major flattening d_doc."""
    if A.shape[1] != H.shape[0]:
        raise ad.ShapeMismatchError("sentence_embedding", A.shape, H.shape)
    S = ad.matmul(A, H)
    d_doc = ad.reshape(S, (S.shape[0] * S.shape[1], 1))
    return S, d_doc


@dataclass
class AttentionOutput:
    """Attention and sentence embedding for one document.

    ``A`` is ``A_valid``'s value laid out over ``total_length`` positions,
    padded columns exactly zero; ``A_valid``/``S``/``d_doc`` are the graph
    nodes the model trains through, built from the valid positions.
    """
    A: np.ndarray
    A_valid: Node
    S: Node
    d_doc: Node


def attend(H_valid: Node, c: Node, W_w: Node, b_w: Node, P: Node, Q: Node,
           total_length: int | None = None) -> AttentionOutput:
    """Full pipeline over the L valid annotation rows of one document.

    With the embedding-only encoder ``H_valid`` is the embedded rows
    themselves, so the attention dimension equals the embedding dimension.
    """
    U = word_transform(H_valid, W_w, b_w)
    F = lama_scores(U, c, P, Q)
    A_valid = attention_matrix(F)
    S, d_doc = sentence_embedding(A_valid, H_valid)
    m, L = A_valid.shape
    T = total_length if total_length is not None else L
    A = np.zeros((m, T), dtype=A_valid.value.dtype)
    A[:, :L] = A_valid.value
    return AttentionOutput(A=A, A_valid=A_valid, S=S, d_doc=d_doc)

