"""Full model assembly: embedding lookup, encoder, attention, classifier.

Parameters live in a ``ParamStore``: one flat buffer holding every tensor
back to back in ``param_shapes`` order (``W_e`` first), each tensor a
C-order view of its slice. ``param_layout`` gives the names, shapes and
offsets without allocating, and ``weights.bin`` is the buffer's bytes. A
forward pass builds a fresh graph over leaf Nodes wrapping those views.
``forward_batch`` builds one graph for a whole minibatch: one embedding
lookup over the documents' concatenated ids, one packed BiGRU scan of
both directions (see ``gru``), one ``attention.attend`` over the packed
annotation rows, and one classifier pass over the m*d_ann x B matrix of
sentence embeddings, so its node count does not depend on the batch size.
The trainer backpropagates it once per batch; evaluation and the
attention export run it forward only, on leaves that track no gradient.
``forward_doc`` is the one-document case of the same path.

The batch's ids are grouped once (``batch_groups``) and its documents
laid out once (``autodiff.runs``), the one layout of the graph's segment
ops. Both encoders read ``W_e``'s rows at the distinct ids. In training
those rows are the trainer's own leaf, so their gradient is one dense row
per distinct token and ``W_e`` gets none; otherwise ``autodiff.take_rows``
gathers them from ``W_e``. The BiGRU's annotations depend on context, so
the word transform and everything after it run per position; the layout's
runs are the documents' positions. The BiGRU itself reads the distinct
rows and the grouping: the input half of its gates depends only on the
token, so it runs once per distinct row and is spread over the positions
inside the scan (see ``gru``). ``autodiff.expand`` spreads the looked-up
rows only for the embedding-only encoder and for the doc-mean context.

With the embedding-only encoder a word's annotation is its token's row, so
a document is its bag of tokens (``attention.Bag``): ``_token_pairs``
derives the (document, distinct token) pairs, each with its count n, from
the batch's one grouping by id, with no second sort. The word transform
and the Q projection run once per distinct token and the rest of
attention once per pair (see ``attention``); the layout's runs are the
documents' pairs. That equals the per-position graph in real arithmetic;
a document whose tokens are all distinct is its positions in order, with
n = 1, and keeps its bits. ``AttentionOutput.A_valid`` spreads a pair's
weight evenly over its positions again.

Dropout in the classifier draws one mask column per document, in batch
order, from one hidden x B draw; that is the stream B one-document passes
in the same order would consume, so a seed gives the same masks whichever
way the documents are run.

RNG draws during initialization happen in a fixed, documented order
(embeddings, forward GRU, backward GRU, attention, classifier), the
buffer's order, so a seed pins every weight.

Padding is decided in ``text``: the model reads only each document's
``valid_ids`` and ``true_length``, so it never sees padding.
``batch_groups`` is the one place a batch's documents become ids; the
trainer calls it for its gather, ``forward_batch`` when given no lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import attention, autodiff as ad, classifier, gru
from .attention import CTX_DOC_MEAN, CTX_LEARNED, AttentionOutput
from .autodiff import Node
from .text import PAD_ID, Document

ENCODER_BIGRU = "bigru"
ENCODER_LE = "le"
# 1 GiB of float32 weights in the one buffer; training holds about twice
# that again (velocities, the dense tail's gradient and one best-epoch
# snapshot, see ``training``), so a larger model cannot train on a small host
# anyway
MAX_PARAMS = 2**28
# values per block of a whole-table pass (W_e's init draw here, the catch-up
# and the momentum step in ``training``), so its temporaries stay this small
BLOCK = 2**16


def row_blocks(shape: tuple):
    """Slices of whole first-axis rows, about ``BLOCK`` values each (at
    least one row), that cover an array of ``shape`` in order."""
    rows = max(1, BLOCK // max(1, math.prod(shape[1:])))
    return (slice(lo, lo + rows) for lo in range(0, shape[0], rows))


class ParamStore:
    """Every tensor of a model as a C-order view of one flat ``buffer`` of
    zeros, laid out by ``param_layout``; ``store[name]`` is the view, so a
    write through it is a write to the buffer and no tensor can be rebound."""

    def __init__(self, shapes: dict[str, tuple], dtype=np.float32):
        self.layout, size = param_layout(shapes)
        self.buffer = np.zeros(size, dtype=dtype)
        self._views = {name: self.buffer[start:start + math.prod(shape)].reshape(shape)
                       for name, shape, start in self.layout}

    def __getitem__(self, name) -> np.ndarray:
        return self._views[name]

    def names(self) -> list[str]:
        return list(self._views)

    def items(self):
        return self._views.items()

    def nodes(self, requires_grad: bool = True) -> dict[str, Node]:
        """Fresh leaf Nodes over the views (no copies)."""
        return {name: ad.leaf(value, requires_grad=requires_grad)
                for name, value in self.items()}


@dataclass
class ModelParams:
    store: ParamStore
    ctx: str
    encoder: str
    num_classes: int
    dropout: float


def param_shapes(vocab_size: int, num_classes: int, *, d: int, h: int, m: int,
                 ctx: str, encoder: str, mlp_hidden: int) -> dict[str, tuple]:
    """Name -> shape of every tensor ``init_model`` makes, in store order,
    allocating nothing; a ValueError names an invalid combination or a
    total above ``MAX_PARAMS``."""
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
    _, total = param_layout(shapes)
    if total > MAX_PARAMS:
        raise ValueError(f"the model would have {total:,} parameters, more than the "
                         f"{MAX_PARAMS:,} allowed")
    return shapes


def param_layout(shapes: dict[str, tuple]) -> tuple[list[tuple[str, tuple, int]], int]:
    """The flat buffer's layout, allocating nothing: (name, shape, offset) of
    each tensor, back to back in ``shapes`` order, and the total. Offsets
    and total count values, not bytes."""
    layout, offset = [], 0
    for name, shape in shapes.items():
        layout.append((name, tuple(shape), offset))
        offset += math.prod(shape)
    return layout, offset


def init_model(vocab_size: int, num_classes: int, rng: np.random.Generator, *,
               d: int = 100, h: int = 50, m: int = 1, ctx: str = CTX_LEARNED,
               encoder: str = ENCODER_BIGRU, mlp_hidden: int = 512,
               dropout: float = 0.4, dtype=np.float32) -> ModelParams:
    """Allocate the flat buffer and fill every tensor's view, drawing in
    buffer order."""
    shapes = param_shapes(vocab_size, num_classes, d=d, h=h, m=m, ctx=ctx, encoder=encoder,
                          mlp_hidden=mlp_hidden)  # rejects an invalid combination
    d_ann = shapes["attn.W_w"][0]
    store = ParamStore(shapes, dtype=dtype)
    # drawn a block of rows at a time, straight into the buffer: the same
    # float64 stream as one whole-table draw, without its temporary
    W_e = store["W_e"]
    for rows in row_blocks(W_e.shape):
        W_e[rows] = rng.uniform(-0.1, 0.1, size=W_e[rows].shape)
    W_e[PAD_ID] = 0.0
    parts = []
    if encoder == ENCODER_BIGRU:
        parts += [(prefix, gru.init_gru_arrays(d, h, rng, dtype))
                  for prefix in ("gru_f.", "gru_b.")]
    parts.append(("attn.", attention.init_attention_arrays(d_ann, m, rng, ctx, dtype)))
    parts.append(("cls.", classifier.init_classifier_arrays(d_ann * m, mlp_hidden,
                                                             num_classes, rng, dtype)))
    for prefix, arrays in parts:
        for name, arr in arrays.items():
            store[prefix + name][...] = arr
    return ModelParams(store=store, ctx=ctx, encoder=encoder, num_classes=num_classes,
                       dropout=dropout)


@dataclass
class ForwardPass:
    """Column i of ``logits`` and ``probs`` is document i; ``attn`` spans all."""
    logits: Node
    probs: Node
    attn: AttentionOutput

    @property
    def predictions(self) -> np.ndarray:
        """The most probable class of each document."""
        return np.argmax(self.probs.value, axis=0)


def _token_pairs(groups: ad.Groups, lengths) -> tuple[attention.Bag, ad.Groups]:
    """The (document, distinct token) pairs of documents of ``lengths``
    positions whose concatenated ids ``groups`` groups, as an
    ``attention.Bag``, and the documents' runs of pairs.

    In ``groups.order`` the positions of a token are in document order, so
    a pair starts where the token or the document changes, and its first
    position there is its first occurrence. Ranking the pairs by that
    position orders them by document and first occurrence, and keeps each
    token's pairs in document order: the ranks, taken in (token, document)
    order, are the stable sort of the pairs by token that ``expand``'s
    pullback reads. No step sorts."""
    n, order = groups.order.size, groups.order
    doc = np.repeat(np.arange(len(lengths)), lengths)
    new_pair = np.empty(n, dtype=bool)  # in sort order: a pair's first position
    new_pair[:1] = True
    sorted_doc = doc[order]
    np.not_equal(sorted_doc[1:], sorted_doc[:-1], out=new_pair[1:])
    new_pair[groups.starts] = True
    sorted_pair = np.cumsum(new_pair) - 1  # in sort order, pairs in (token, document) order
    heads = np.flatnonzero(new_pair)
    first = np.zeros(n, dtype=bool)  # by position: a pair's first position
    first[order[heads]] = True
    rank = (np.cumsum(first) - 1)[order[heads]]  # (token, document) order -> final order
    pairs = np.empty(n, dtype=np.int64)
    pairs[order] = rank[sorted_pair]
    counts = np.empty(heads.size, dtype=np.int64)
    counts[rank] = np.diff(heads, append=n)
    firsts = np.flatnonzero(first)
    tokens = ad.Groups(groups.unique, groups.inverse[firsts], rank, sorted_pair[groups.starts])
    return (attention.Bag(tokens, counts, pairs),
            ad.runs(np.bincount(doc[firsts], minlength=len(lengths))))


def batch_groups(docs) -> ad.Groups:
    """``autodiff.group_ids`` of the documents' concatenated valid ids: the
    one sort of a batch, which its lookup, its spreading and, in training,
    its gather and step share."""
    return ad.group_ids(np.concatenate([doc.valid_ids() for doc in docs]))


def forward_doc(params: ModelParams, nodes: dict, ids, true_length: int | None = None,
                train: bool = False, rng: np.random.Generator | None = None) -> ForwardPass:
    """``forward_batch`` over one ``text.Document`` of ``ids``, of which the
    first ``true_length`` (all of them when it is None) are real, so padded
    and unpadded calls are bit-identical."""
    ids = np.asarray(ids, dtype=np.int64)
    doc = Document(ids, len(ids) if true_length is None else true_length, 0)
    return forward_batch(params, nodes, [doc], train, rng)


def forward_batch(params: ModelParams, nodes: dict, docs, train: bool = False,
                  rng: np.random.Generator | None = None,
                  lookup: tuple[ad.Groups, Node] | None = None) -> ForwardPass:
    """Run a minibatch of ``text.Document``s through the model as one graph
    over their valid ids: one embedding lookup, BiGRU scan, attention pass
    and classifier pass for all.

    Dropout draws the masks of the documents one after another, in batch
    order, as ``forward_doc`` calls in that order would.
    ``lookup=(groups, rows)`` replaces the lookup in ``W_e``: ``groups`` is
    ``batch_groups(docs)`` and ``rows`` a node holding ``W_e``'s rows at
    ``groups.unique``, so the gradient goes to ``rows``.
    """
    lengths = [doc.true_length for doc in docs]
    if lookup is None:
        groups = batch_groups(docs)
        rows = ad.take_rows(nodes["W_e"], groups.unique)
    else:
        groups, rows = lookup
    if params.encoder == ENCODER_BIGRU:
        runs, bag = ad.runs(lengths), None
        H = gru.bigru_encode(rows, [nodes["gru_f." + n] for n in gru.GATE_NAMES],
                             [nodes["gru_b." + n] for n in gru.GATE_NAMES], runs, groups)
    else:  # a word's annotation is its token's row: a document is its bag of tokens
        bag, runs = _token_pairs(groups, lengths)
        H = ad.expand(rows, bag.tokens)

    if params.ctx == CTX_LEARNED:
        c = nodes["attn.c"]
    elif bag is None:  # the mean of the documents' embedded positions
        c = attention.doc_mean_context(ad.expand(rows, groups), runs)
    else:
        c = attention.doc_mean_context(H, runs, bag.counts)
    attn = attention.attend(H, c, nodes["attn.W_w"], nodes["attn.b_w"], nodes["attn.P"],
                            nodes["attn.Q"], runs=runs,
                            distinct=None if bag is None else (rows, bag))
    probs, logits = classifier.classify(attn.d_doc, nodes["cls.W1"], nodes["cls.b1"],
                                        nodes["cls.W_c"], nodes["cls.b_c"],
                                        params.dropout, train=train, rng=rng)
    return ForwardPass(logits=logits, probs=probs, attn=attn)


def batch_objective(fw: ForwardPass, labels, regularizer: str, lam: float) -> Node:
    """The one builder of J = L - lambda * D, summed over the documents: L
    the fused cross-entropy of each logits column, D the ``regularizer``'s
    term. At lambda = 0 or with "none" J is the L node itself and no D is
    built. ``training.TrainConfig`` checks ``regularizer`` and ``lam``."""
    y = np.zeros((fw.logits.shape[0], len(labels)), dtype=fw.logits.value.dtype)
    y[labels, np.arange(len(labels))] = 1.0
    loss = ad.softmax_cross_entropy(fw.logits, y)
    if lam == 0 or regularizer == "none":
        return loss
    attn = fw.attn
    if regularizer == "positions":
        d = classifier.disagreement_positions(attn.A, attn.runs,
                                              None if attn.bag is None else attn.bag.counts)
    else:  # "embeddings"
        d = classifier.disagreement_embeddings(attn.S, attn.A.shape[0])
    return ad.add(loss, ad.scale(d, -lam))


def doc_objective(fw: ForwardPass, label: int, regularizer: str, lam: float) -> Node:
    """``batch_objective`` of a one-document pass."""
    return batch_objective(fw, [label], regularizer, lam)
