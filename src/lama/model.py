"""Full model assembly: embedding lookup, encoder, attention, classifier.

Parameters live in a ``ParamStore`` (ordered name -> array registry). Each
document forward pass builds a fresh graph over leaf Nodes wrapping those
arrays and shares no other node with another document, so the trainer
backpropagates each document on its own into the batch's leaves, then
folds their gradients back into the store.

RNG draws during initialization happen in a fixed, documented order
(embeddings, forward GRU, backward GRU, attention, classifier) so a seed
pins every weight.

Padding is decided here and nowhere else: ``forward_doc`` keeps the first
``true_length`` ids and drops the rest before the embedding lookup, so the
encoder, attention and classifier only ever see the document's real tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention, autodiff as ad, classifier, gru
from .attention import CTX_DOC_MEAN, CTX_LEARNED, AttentionOutput
from .autodiff import Node
from .text import EmbeddingMatrix, PAD_ID

ENCODER_BIGRU = "bigru"
ENCODER_LE = "le"


@dataclass
class Parameter:
    name: str
    value: np.ndarray
    frozen_rows: tuple = ()


class ParamStore:
    """Ordered registry of named parameter arrays."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def add(self, name, value, frozen_rows=()):
        if name in self._params:
            raise ValueError(f"duplicate parameter {name}")
        self._params[name] = Parameter(name, value, frozen_rows)

    def __getitem__(self, name) -> Parameter:
        return self._params[name]

    def __contains__(self, name) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params.values())

    def names(self):
        return list(self._params)

    def nodes(self) -> dict[str, Node]:
        """Fresh leaf Nodes over the stored arrays (no copies)."""
        return {p.name: ad.leaf(p.value, requires_grad=True) for p in self}

    def trainable_size(self) -> int:
        return sum(p.value.size for p in self)

    def copy_values(self) -> dict[str, np.ndarray]:
        return {p.name: p.value.copy() for p in self}

    def load_values(self, values: dict):
        for p in self:
            p.value = values[p.name].copy()


@dataclass
class ModelParams:
    store: ParamStore
    d: int
    h: int
    m: int
    ctx: str
    encoder: str
    mlp_hidden: int
    num_classes: int
    dropout: float

    @property
    def d_ann(self) -> int:
        return self.d if self.encoder == ENCODER_LE else 2 * self.h


def init_model(vocab_size: int, num_classes: int, rng: np.random.Generator, *,
               d: int = 100, h: int = 50, m: int = 1, ctx: str = CTX_LEARNED,
               encoder: str = ENCODER_BIGRU, mlp_hidden: int = 512,
               dropout: float = 0.4, dtype=np.float32,
               embedding: EmbeddingMatrix | None = None) -> ModelParams:
    """Allocate and initialize every trainable tensor."""
    if encoder not in (ENCODER_BIGRU, ENCODER_LE):
        raise ValueError(f"unknown encoder {encoder!r}")
    if ctx not in (CTX_LEARNED, CTX_DOC_MEAN):
        raise ValueError(f"unknown context mode {ctx!r}")
    d_ann = d if encoder == ENCODER_LE else 2 * h
    if ctx == CTX_DOC_MEAN and d != d_ann:
        raise ValueError(
            f"doc-mean context needs embedding dim == annotation dim ({d} != {d_ann})")

    store = ParamStore()
    if embedding is None:
        weights = rng.uniform(-0.1, 0.1, size=(vocab_size, d)).astype(dtype)
    else:
        if embedding.weights.shape != (vocab_size, d):
            raise ValueError(
                f"embedding shape {embedding.weights.shape} != ({vocab_size}, {d})")
        weights = embedding.weights.astype(dtype, copy=True)
    weights[PAD_ID] = 0.0
    store.add("W_e", weights, frozen_rows=(PAD_ID,))

    if encoder == ENCODER_BIGRU:
        for prefix in ("gru_f.", "gru_b."):
            for name, arr in gru.init_gru_arrays(d, h, rng, dtype).items():
                store.add(prefix + name, arr)

    for name, arr in attention.init_attention_arrays(d_ann, m, rng, ctx, dtype).items():
        store.add("attn." + name, arr)

    cls_arrays = classifier.init_classifier_arrays(d_ann * m, mlp_hidden,
                                                   num_classes, rng, dtype)
    for name, arr in cls_arrays.items():
        store.add("cls." + name, arr)

    return ModelParams(store=store, d=d, h=h, m=m, ctx=ctx, encoder=encoder,
                       mlp_hidden=mlp_hidden, num_classes=num_classes,
                       dropout=dropout)


@dataclass
class ForwardPass:
    logits: Node
    probs: Node
    attn: AttentionOutput

    @property
    def prediction(self) -> int:
        return int(np.argmax(self.probs.value))


def forward_doc(params: ModelParams, nodes: dict, ids, true_length: int | None = None,
                train: bool = False, rng: np.random.Generator | None = None) -> ForwardPass:
    """Run one document through the model.

    ``ids`` may include padding. This is the one place that trims it: only
    the first ``true_length`` ids (all of them when it is None) reach the
    embedding lookup, so padded and unpadded calls are bit-identical.
    """
    ids = np.asarray(ids, dtype=np.int64)
    L = int(true_length) if true_length is not None else len(ids)
    if not 0 < L <= len(ids):
        raise ValueError(f"true_length {L} out of range for {len(ids)} ids")
    X = ad.take_rows(nodes["W_e"], ids[:L])

    if params.encoder == ENCODER_BIGRU:
        fwd = gru.GruCell.from_nodes(nodes, "gru_f.")
        bwd = gru.GruCell.from_nodes(nodes, "gru_b.")
        H_valid = gru.bigru_encode(X, fwd, bwd)
    else:
        H_valid = X

    if params.ctx == CTX_LEARNED:
        c = nodes["attn.c"]
    else:
        c = attention.doc_mean_context(X)

    attn_out = attention.attend(H_valid, c, nodes["attn.W_w"], nodes["attn.b_w"],
                                nodes["attn.P"], nodes["attn.Q"])
    probs, logits = classifier.classify(attn_out.d_doc, nodes["cls.W1"],
                                        nodes["cls.b1"], nodes["cls.W_c"],
                                        nodes["cls.b_c"], params.dropout,
                                        train=train, rng=rng)
    return ForwardPass(logits=logits, probs=probs, attn=attn_out)


def doc_objective(fw: ForwardPass, label: int, num_classes: int,
                  objective: classifier.ObjectiveConfig) -> Node:
    """Cross-entropy (fused, on logits) plus the selected disagreement term."""
    y = np.zeros((num_classes, 1), dtype=fw.logits.value.dtype)
    y[label] = 1.0
    loss = ad.softmax_cross_entropy(fw.logits, ad.constant(y))
    d = classifier.disagreement(objective, fw.attn.A_valid, fw.attn.S)
    return classifier.total_objective(loss, d, objective.lam)
