"""Full model assembly: embedding lookup, encoder, attention, classifier.

Parameters live in a ``ParamStore`` (ordered name -> array registry). A
forward pass builds a fresh graph over leaf Nodes wrapping those arrays.
``forward_batch`` builds one graph for a whole minibatch: one embedding
lookup over the documents' concatenated ids, one packed BiGRU scan per
direction (see ``gru``), attention per document on its own block of
annotation rows, and one classifier pass over the m*d_ann x B matrix of
sentence embeddings. The trainer backpropagates that graph once per
batch. ``forward_doc`` is the one-document case of the same path.

Dropout in the classifier draws one mask column per document, in batch
order, from one hidden x B draw; that is the stream B one-document passes
in the same order would consume, so a seed gives the same masks whichever
way the documents are run.

RNG draws during initialization happen in a fixed, documented order
(embeddings, forward GRU, backward GRU, attention, classifier) so a seed
pins every weight.

Padding is decided here and nowhere else: every document is trimmed to
its first ``true_length`` ids before the embedding lookup, so the
encoder, attention and classifier only ever see the real tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

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


class ParamStore:
    """Ordered registry of named parameter arrays."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def add(self, name, value):
        if name in self._params:
            raise ValueError(f"duplicate parameter {name}")
        self._params[name] = Parameter(name, value)

    def __getitem__(self, name) -> Parameter:
        return self._params[name]

    def __iter__(self):
        return iter(self._params.values())

    def names(self):
        return list(self._params)

    def nodes(self) -> dict[str, Node]:
        """Fresh leaf Nodes over the stored arrays (no copies)."""
        return {p.name: ad.leaf(p.value, requires_grad=True) for p in self}

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


def param_shapes(vocab_size: int, num_classes: int, *, d: int, h: int, m: int,
                 ctx: str, encoder: str, mlp_hidden: int) -> dict[str, tuple]:
    """Name -> shape of every tensor ``init_model`` makes, in store order,
    allocating nothing; a ValueError names an invalid combination."""
    if encoder not in (ENCODER_BIGRU, ENCODER_LE):
        raise ValueError(f"unknown encoder {encoder!r}")
    if ctx not in (CTX_LEARNED, CTX_DOC_MEAN):
        raise ValueError(f"unknown context mode {ctx!r}")
    d_ann = d if encoder == ENCODER_LE else 2 * h
    if ctx == CTX_DOC_MEAN and d != d_ann:
        raise ValueError(
            f"doc-mean context needs embedding dim == annotation dim ({d} != {d_ann})")
    shapes = {"W_e": (vocab_size, d)}
    if encoder == ENCODER_BIGRU:
        by_kind = {"W": (h, d), "U": (h, h), "b": (h, 1)}
        for prefix in ("gru_f.", "gru_b."):
            shapes.update((prefix + name, by_kind[name[0]]) for name in gru.GATE_NAMES)
    shapes.update({"attn.W_w": (d_ann, d_ann), "attn.b_w": (d_ann, 1),
                   "attn.P": (d_ann, m), "attn.Q": (d_ann, m)})
    if ctx == CTX_LEARNED:
        shapes["attn.c"] = (d_ann, 1)
    shapes.update({"cls.W1": (mlp_hidden, m * d_ann), "cls.b1": (mlp_hidden, 1),
                   "cls.W_c": (num_classes, mlp_hidden), "cls.b_c": (num_classes, 1)})
    return shapes


def init_model(vocab_size: int, num_classes: int, rng: np.random.Generator, *,
               d: int = 100, h: int = 50, m: int = 1, ctx: str = CTX_LEARNED,
               encoder: str = ENCODER_BIGRU, mlp_hidden: int = 512,
               dropout: float = 0.4, dtype=np.float32,
               embedding: EmbeddingMatrix | None = None) -> ModelParams:
    """Allocate and initialize every trainable tensor."""
    param_shapes(vocab_size, num_classes, d=d, h=h, m=m, ctx=ctx, encoder=encoder,
                 mlp_hidden=mlp_hidden)  # rejects an invalid combination
    d_ann = d if encoder == ENCODER_LE else 2 * h

    store = ParamStore()
    if embedding is None:
        weights = rng.uniform(-0.1, 0.1, size=(vocab_size, d)).astype(dtype)
    else:
        if embedding.weights.shape != (vocab_size, d):
            raise ValueError(
                f"embedding shape {embedding.weights.shape} != ({vocab_size}, {d})")
        weights = embedding.weights.astype(dtype, copy=True)
    weights[PAD_ID] = 0.0
    store.add("W_e", weights)

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


@dataclass
class BatchPass:
    """A minibatch's forward pass: column i of ``logits`` and ``probs``, and
    ``attns[i]``, belong to document i."""
    logits: Node
    probs: Node
    attns: list


def _valid_ids(ids, true_length: int | None) -> np.ndarray:
    """The first ``true_length`` ids (all of them when it is None)."""
    ids = np.asarray(ids, dtype=np.int64)
    L = int(true_length) if true_length is not None else len(ids)
    if not 0 < L <= len(ids):
        raise ValueError(f"true_length {L} out of range for {len(ids)} ids")
    return ids[:L]


def _forward(params: ModelParams, nodes: dict, id_rows: list, train: bool,
             rng: np.random.Generator | None) -> BatchPass:
    """One graph over the valid ids of each document: one embedding lookup
    and one BiGRU scan per direction for all rows, attention per document
    on its block of rows, and one classifier pass over the joined
    sentence embeddings, one column per document."""
    lengths = [len(ids) for ids in id_rows]
    X = ad.take_rows(nodes["W_e"], np.concatenate(id_rows))

    if params.encoder == ENCODER_BIGRU:
        fwd = gru.GruCell.from_nodes(nodes, "gru_f.")
        bwd = gru.GruCell.from_nodes(nodes, "gru_b.")
        H = gru.bigru_encode(X, fwd, bwd, lengths)
    else:
        H = X

    attns = []
    for hi, L in zip(np.cumsum(lengths).tolist(), lengths):
        if params.ctx == CTX_LEARNED:
            c = nodes["attn.c"]
        else:
            c = attention.doc_mean_context(ad.slice_rows(X, hi - L, hi))
        attns.append(attention.attend(ad.slice_rows(H, hi - L, hi), c, nodes["attn.W_w"],
                                      nodes["attn.b_w"], nodes["attn.P"], nodes["attn.Q"]))
    d_docs = ad.concat([a.d_doc for a in attns], axis=1)
    probs, logits = classifier.classify(d_docs, nodes["cls.W1"], nodes["cls.b1"],
                                        nodes["cls.W_c"], nodes["cls.b_c"],
                                        params.dropout, train=train, rng=rng)
    return BatchPass(logits=logits, probs=probs, attns=attns)


def forward_doc(params: ModelParams, nodes: dict, ids, true_length: int | None = None,
                train: bool = False, rng: np.random.Generator | None = None) -> ForwardPass:
    """Run one document through the model.

    ``ids`` may include padding; only the first ``true_length`` ids (all of
    them when it is None) reach the embedding lookup, so padded and
    unpadded calls are bit-identical.
    """
    out = _forward(params, nodes, [_valid_ids(ids, true_length)], train, rng)
    return ForwardPass(logits=out.logits, probs=out.probs, attn=out.attns[0])


def forward_batch(params: ModelParams, nodes: dict, docs, train: bool = False,
                  rng: np.random.Generator | None = None) -> BatchPass:
    """Run a minibatch of ``text.Document``s through the model as one graph.

    Each document is trimmed to its ``true_length`` first. Dropout draws
    the masks of the documents one after another, in batch order, as
    ``forward_doc`` calls in that order would.
    """
    return _forward(params, nodes, [_valid_ids(d.ids, d.true_length) for d in docs],
                    train, rng)


def _objective(logits: Node, labels, attns, num_classes: int,
               objective: classifier.ObjectiveConfig) -> Node:
    """Summed over the documents: cross-entropy (fused, on the logits
    column of each) plus its selected disagreement term."""
    y = np.zeros((num_classes, len(labels)), dtype=logits.value.dtype)
    y[labels, np.arange(len(labels))] = 1.0
    loss = ad.softmax_cross_entropy(logits, ad.constant(y))
    if objective.regularizer == "none":
        return loss
    d = reduce(ad.add, [classifier.disagreement(objective, a.A_valid, a.S) for a in attns])
    return classifier.total_objective(loss, d, objective.lam)


def doc_objective(fw: ForwardPass, label: int, num_classes: int,
                  objective: classifier.ObjectiveConfig) -> Node:
    """Cross-entropy (fused, on logits) plus the selected disagreement term."""
    return _objective(fw.logits, [label], [fw.attn], num_classes, objective)


def batch_objective(batch: BatchPass, labels, num_classes: int,
                    objective: classifier.ObjectiveConfig) -> Node:
    """The sum over the batch's documents of their ``doc_objective``."""
    return _objective(batch.logits, labels, batch.attns, num_classes, objective)
