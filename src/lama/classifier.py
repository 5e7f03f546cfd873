"""MLP classifier head and the two disagreement regularizers.

The training objective is J = L - lambda * D where D measures how much the
attention heads disagree: D_penal penalizes overlap between the head
distributions (via ||A A^T - I||_F^2), D_emb penalizes cosine similarity
between the per-head sentence embeddings. Both are <= their maximum at
perfectly disagreeing heads, so subtracting them pushes heads apart.
Each is summed over the documents of ``attention``'s packed layout, per
position or per (document, token) pair of a ``Bag``. The
loss L is ``autodiff.softmax_cross_entropy`` on the logits.
``training.TrainConfig`` checks the regularizer (one of ``REGULARIZERS``)
and lambda, ``model.batch_objective`` builds J, and ``classify`` alone
gates dropout.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Node

REGULARIZERS = ("none", "positions", "embeddings")


def init_classifier_arrays(input_dim: int, hidden: int, num_classes: int,
                           rng: np.random.Generator, dtype=np.float32) -> dict:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    b1 = 1.0 / np.sqrt(input_dim)
    b2 = 1.0 / np.sqrt(hidden)
    return {
        "W1": rng.uniform(-b1, b1, size=(hidden, input_dim)).astype(dtype),
        "b1": np.zeros((hidden, 1), dtype=dtype),
        "W_c": rng.uniform(-b2, b2, size=(num_classes, hidden)).astype(dtype),
        "b_c": np.zeros((num_classes, 1), dtype=dtype),
    }


def classify(d_doc: Node, W1: Node, b1: Node, W_c: Node, b_c: Node,
             dropout_rate: float, train: bool,
             rng: np.random.Generator | None = None) -> tuple[Node, Node]:
    """Class probabilities and the logits they came from.

    One tanh hidden layer with (inverted) dropout on its activations, then a
    linear map to C logits and a softmax. Dropout runs only when ``train``
    and ``dropout_rate > 0``; otherwise nothing is drawn from ``rng``.
    """
    if W1.shape[1] != d_doc.shape[0]:
        raise ad.ShapeMismatchError("classify", W1.shape, d_doc.shape)
    hidden = ad.tanh(ad.add(ad.matmul(W1, d_doc), b1))
    if train and dropout_rate > 0.0:
        if rng is None:
            raise ValueError("training-mode dropout needs an rng")
        hidden = ad.dropout(hidden, dropout_rate, rng)
    logits = ad.add(ad.matmul(W_c, hidden), b_c)
    probs = ad.softmax(logits, axis=0)
    return probs, logits


def disagreement_positions(A: Node, runs=None, counts=None) -> Node:
    """D_penal = -||A A^T - I||_F^2 over each document's run of columns,
    summed (0 exactly when every document's rows are orthonormal). A
    column of ``counts[t]`` positions holds their summed weight, so its
    term of A A^T is divided by that count."""
    m = A.shape[0]
    B = A if counts is None else ad.hadamard(
        A, ad.constant((1.0 / counts).astype(A.value.dtype)[None, :]))
    gram = ad.segment_matmul(A, ad.transpose(B), runs)  # one m x m block each
    minus_eye = np.tile(-np.eye(m, dtype=A.value.dtype), (gram.shape[0] // m, 1))
    return ad.scale(ad.frobenius_sq(ad.add(gram, ad.constant(minus_eye))), -1.0)


def disagreement_embeddings(S: Node, m: int | None = None) -> Node:
    """D_emb = -(1/m^2) sum_ij cos(s_i, s_j), diagonal included, summed
    over the m-row blocks of S (one block when ``m`` is None). A block's
    cosines sum to the squared norm of the sum of its unit rows."""
    m = S.shape[0] if m is None else m
    unit = ad.l2_normalize(S, axis=1)
    ones = ad.constant(np.ones((1, S.shape[0]), dtype=S.value.dtype))
    sums = ad.segment_matmul(ones, unit, ad.runs([m] * (S.shape[0] // m)))
    return ad.scale(ad.frobenius_sq(sums), -1.0 / (m * m))
