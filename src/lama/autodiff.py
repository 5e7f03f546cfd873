"""Reverse-mode automatic differentiation over dense 1-D/2-D float arrays.

Values are numpy arrays, always stored with 2 dimensions (vectors are
column vectors of shape (n, 1), scalars are (1, 1)). Each operation builds
a Node eagerly: the forward value is computed at construction time and the
backward rule is recorded as a closure. Calling ``backward`` on a scalar
root walks the tape in reverse creation order and accumulates gradients
into every node that requires them.

Leaf gradients are never reset: each ``backward`` call adds into the
``.grad`` of the leaves it reaches, so calls on several roots sum there.
A non-leaf node's ``.grad`` is dropped as soon as its pullbacks have run,
so a walk over a large graph holds only the gradients still in flight.

A pullback returns either a fresh array that nothing else holds, or the
incoming gradient or a view (of it or of any other array). ``backward``
adopts a fresh array as a parent's first ``.grad`` as it is, and copies
anything else (``add``'s gradient for an operand of the output's shape,
``transpose``, ``reshape``, the GRU's per-tensor views), since two parents
may be handed the same memory and each one's gradient is later added into.

Every primitive validates shapes up front and screens its output through
``check_finite``, so a non-finite value never propagates silently. The
screen is ``np.isfinite(out).all()``: exact, with no arithmetic on the
values, so finite values whose sum would overflow pass and numpy has
nothing to warn of. Its temporary is a bool array a quarter of the size of
a float32 output.

Most nodes are one elementwise or matrix op. The GRU is the exception:
``gru.bigru_encode`` builds one fused ``gru_scan`` node for both
directions of a whole minibatch, runs the recurrence on raw arrays and
keeps the per-step intermediates itself. Its parents are the batch's
distinct input rows, which a ``Groups`` spreads over the positions inside
the node, and each direction's nine gate tensors; their nineteen pullbacks
share one hand-written backpropagation through time, run on the first of
them that ``backward`` calls. Its finiteness check runs once, on the whole
pre-activation buffer and on the output, through ``check_finite``.

``group_ids`` sorts an id array once into its distinct ids, each
position's group, the sort order and the group starts. ``expand`` is the
gather that spreads one row per distinct id over the positions (it screens
its source rows for finiteness, since each one appears in the output); its
pullback, ``Groups.sum``, sums each group's rows with ``np.add.reduceat``
over that presorted order, so it needs no sort and no scatter, and its
gradient is dense. That sum is where every repeated index accumulates;
``gru_scan`` sums its input rows' gradient with it too.

``take_rows`` gathers strictly increasing rows only, such as a batch's
distinct ids, so its pullback scatters each row once into a dense
gradient of the whole table. Every gradient is dense; the trainer avoids
a |V| x d one for the embedding by making a batch's distinct rows a leaf
of their own.

A minibatch's documents lie in one node as back-to-back runs of rows, laid
out once by ``runs`` as the ``Groups`` of the rows by document. ``softmax``
and ``segment_matmul`` take that layout; on one run they do exactly what
the plain op does, so a one-document graph keeps its bits.
``segment_matmul`` and its two pullbacks preallocate their result and write
each run's GEMM into its block of it through ``out=``, so they neither split
the gradient nor concatenate the blocks.

``dropout`` draws its mask one column after another, so a batch of
column vectors draws the masks those columns would draw one at a time.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np


class AutodiffError(Exception):
    pass


class ShapeMismatchError(AutodiffError):
    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")
        self.op = op
        self.shapes = shapes


class NonFiniteError(AutodiffError):
    def __init__(self, op: str):
        super().__init__(f"{op}: produced a non-finite value (NaN or Inf)")
        self.op = op


class NonScalarRootError(AutodiffError):
    def __init__(self, shape):
        super().__init__(f"backward root must be a scalar (1, 1) node, got shape {shape}")


_node_counter = itertools.count()


def _as_matrix(x, op: str) -> np.ndarray:
    a = np.asarray(x)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    elif a.ndim != 2:
        raise ShapeMismatchError(op, a.shape)
    if not np.issubdtype(a.dtype, np.floating):
        a = a.astype(np.float32)
    return a


class Node:
    """One tape entry: a value, its (lazily used) gradient and a backward rule.

    ``parents`` holds (node, pullback) pairs where pullback maps the
    gradient at this node to the contribution for that parent.
    """

    __slots__ = ("value", "grad", "op", "parents", "requires_grad", "_id")

    def __init__(self, value: np.ndarray, op: str, parents=(), requires_grad=False):
        self.value = value
        self.grad = None
        self.op = op
        self.parents = parents
        if not requires_grad:
            for pair in parents:
                if pair[0].requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        self._id = next(_node_counter)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.op}, shape={self.value.shape}, id={self._id})"


def leaf(value, requires_grad: bool = False, op: str = "leaf") -> Node:
    """Wrap an array as a graph leaf. The array is used in place, not copied."""
    return Node(_as_matrix(value, op), op, (), requires_grad=requires_grad)


def constant(value) -> Node:
    return leaf(value, requires_grad=False, op="const")


def check_finite(out: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(out).all():
        raise NonFiniteError(op)
    return out


def _make(op: str, out: np.ndarray, parents) -> Node:
    return Node(check_finite(out, op), op, tuple(parents))


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient back down to ``shape`` after numpy broadcasting; a
    gradient already of that shape is returned as it is."""
    if shape[0] == 1 and grad.shape[0] != 1:
        grad = grad.sum(axis=0, keepdims=True)
    if shape[1] == 1 and grad.shape[1] != 1:
        grad = grad.sum(axis=1, keepdims=True)
    return grad


def _broadcastable(a, b) -> bool:
    return all(x == y or x == 1 or y == 1 for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a: Node, b: Node) -> Node:
    """Element-wise sum; size-1 axes broadcast (covers bias-broadcast-add)."""
    sa, sb = a.value.shape, b.value.shape
    if not _broadcastable(sa, sb):
        raise ShapeMismatchError("add", sa, sb)
    return _make("add", a.value + b.value, [
        (a, lambda g: _unbroadcast(g, sa)),
        (b, lambda g: _unbroadcast(g, sb)),
    ])


def hadamard(a: Node, b: Node) -> Node:
    """Element-wise product; size-1 axes broadcast."""
    av, bv = a.value, b.value
    sa, sb = av.shape, bv.shape
    if not _broadcastable(sa, sb):
        raise ShapeMismatchError("hadamard", sa, sb)
    return _make("hadamard", av * bv, [
        (a, lambda g: _unbroadcast(g * bv, sa)),
        (b, lambda g: _unbroadcast(g * av, sb)),
    ])


def matmul(a: Node, b: Node) -> Node:
    av, bv = a.value, b.value
    if av.shape[1] != bv.shape[0]:
        raise ShapeMismatchError("matmul", av.shape, bv.shape)
    return _make("matmul", av @ bv, (
        (a, lambda g: g @ bv.T),
        (b, lambda g: av.T @ g),
    ))


def transpose(a: Node) -> Node:
    # values are never mutated, so sharing memory through the view is safe
    return _make("transpose", a.value.T, [(a, lambda g: g.T)])


def reshape(a: Node, shape) -> Node:
    if int(np.prod(shape)) != a.value.size:
        raise ShapeMismatchError("reshape", a.shape, tuple(shape))
    old = a.shape
    return _make("reshape", a.value.reshape(shape), [(a, lambda g: g.reshape(old))])


def scale(a: Node, s: float) -> Node:
    """Multiply by a python scalar."""
    s = float(s)
    return _make("scale", a.value * s, [(a, lambda g: g * s)])


def tanh(a: Node) -> Node:
    out = np.tanh(a.value)
    return _make("tanh", out, [(a, lambda g: g * (1.0 - out * out))])


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) on an array, exact 0 and 1 at the extremes."""
    # as (1 + tanh(x / 2)) / 2, in place on one temporary: tanh never
    # overflows and saturates to exactly -1 and 1, so no branch is needed
    out = x * 0.5
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def run_spans(runs, n: int, op: str) -> tuple[np.ndarray, np.ndarray]:
    """The first row and the size of each run of ``runs`` (None: one run),
    a layout that must cover ``n`` rows; a ShapeMismatchError names ``op``."""
    if runs is not None and runs.inverse.size != n:
        raise ShapeMismatchError(op, (n,), (runs.inverse.size,))
    starts = np.zeros(1, dtype=np.int64) if runs is None else runs.starts
    return starts, np.diff(starts, append=n)


def softmax(a: Node, axis: int = 1, runs=None) -> Node:
    """Softmax along ``axis`` with the max subtracted for stability; with
    the layout ``runs``, separately within each run of entries."""
    x = a.value
    starts, sizes = run_spans(runs, x.shape[axis], "softmax")

    def per_run(ufunc, v):
        if starts.size == 1:  # keeps the bits of the unsegmented reduction
            return ufunc.reduce(v, axis=axis, keepdims=True)
        return np.repeat(ufunc.reduceat(v, starts, axis=axis), sizes, axis=axis)

    e = np.exp(x - per_run(np.maximum, x))
    out = e / per_run(np.add, e)
    return _make("softmax", out, [(a, lambda g: out * (g - per_run(np.add, g * out)))])


L2_EPS = 1e-12


def l2_normalize(a: Node, axis: int = 0) -> Node:
    """x / sqrt(sum(x^2) + eps) along ``axis``; zero maps to zero."""
    x = a.value
    sq = (x * x).sum(axis=axis, keepdims=True) + L2_EPS
    norm = np.sqrt(sq)
    out = x / norm

    def back(g):
        dot = (g * x).sum(axis=axis, keepdims=True)
        return g / norm - x * (dot / (sq * norm))

    return _make("l2_normalize", out, [(a, back)])


def segment_matmul(a: Node, b: Node, runs=None) -> Node:
    """``a[:, seg] @ b[seg]`` for each run ``seg`` of ``runs`` (columns of
    ``a``, rows of ``b``), stacked in run order; no ``runs`` is ``a @ b``."""
    av, bv = a.value, b.value
    if av.shape[1] != bv.shape[0]:
        raise ShapeMismatchError("segment_matmul", av.shape, bv.shape)
    starts, sizes = run_spans(runs, av.shape[1], "segment_matmul")
    r = av.shape[0]
    # each run's columns s of a and rows s of b, and its r rows of the output
    segs = [(slice(lo, lo + k), slice(i * r, i * r + r))
            for i, (lo, k) in enumerate(zip(starts.tolist(), sizes.tolist()))]
    out = np.empty((len(segs) * r, bv.shape[1]), np.result_type(av, bv))
    for s, rows in segs:
        np.matmul(av[:, s], bv[s], out=out[rows])

    def grad_a(g):
        ga = np.empty(av.shape, np.result_type(g, bv))
        for s, rows in segs:
            np.matmul(g[rows], bv[s].T, out=ga[:, s])
        return ga

    def grad_b(g):
        gb = np.empty(bv.shape, np.result_type(av, g))
        for s, rows in segs:
            np.matmul(av[:, s].T, g[rows], out=gb[s])
        return gb

    return _make("segment_matmul", out, ((a, grad_a), (b, grad_b)))


class Groups(NamedTuple):
    """An id array grouped by value: ``unique`` is strictly increasing and
    ``ids == unique[inverse]``; ``order`` is the stable sort of the ids and
    group k takes ``order[starts[k]:starts[k + 1]]``."""
    unique: np.ndarray
    inverse: np.ndarray
    order: np.ndarray
    starts: np.ndarray

    def sum(self, values) -> np.ndarray:
        """Row k: the sum of the rows of ``values`` at group k's positions
        (a group is summed pairwise, so not in ``np.add.at``'s order).
        ``values`` is an array with one row per position, or a function
        that returns a new array of the rows at an array of positions.

        ``reduceat`` runs one inner loop per row, so each group's first row
        is gathered, which is the sum of a group of one row, and only the
        repeated groups are reduced; each group's sum is the one
        ``reduceat`` over the whole order gives."""
        take = values if callable(values) else values.__getitem__
        sizes = np.diff(self.starts, append=len(self.order))
        out = take(self.order[self.starts])
        repeated = sizes > 1
        counts = sizes[repeated]
        out[repeated] = np.add.reduceat(take(self.order[np.repeat(repeated, sizes)]),
                                        np.cumsum(counts) - counts, axis=0)
        return out


def group_ids(ids) -> Groups:
    """Group a 1-D integer array by value, with one sort."""
    # sorted by hand: np.unique imports numpy.ma, 1.5 MB of resident memory
    ids = np.asarray(ids, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    ordered = ids[order]
    first = np.empty(ids.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    return Groups(ordered[starts], inverse, order, starts)


def runs(lengths) -> Groups:
    """The layout of back-to-back runs of ``lengths`` (each >= 1) rows:
    ``group_ids(np.repeat(arange(B), lengths))``, built with no sort."""
    sizes = np.asarray(lengths)
    if (not np.issubdtype(sizes.dtype, np.integer) or sizes.ndim != 1 or sizes.size == 0
            or sizes.min() < 1):
        raise ShapeMismatchError("runs", sizes.shape, tuple(sizes.ravel().tolist()))
    sizes = sizes.astype(np.int64, copy=False)
    docs = np.arange(sizes.size)
    return Groups(docs, np.repeat(docs, sizes), np.arange(sizes.sum()), np.cumsum(sizes) - sizes)


def expand(a: Node, groups: Groups) -> Node:
    """Row t is row ``groups.inverse[t]`` of ``a``, whose rows are the
    groups' values (one row per distinct id); the pullback sums each group's
    rows over the presorted order, with no sort and no scatter."""
    if a.shape[0] != groups.unique.size:
        raise ShapeMismatchError("expand", a.shape, groups.unique.shape)
    # every row of a appears in the output, so its U rows give the verdict
    # of the output's N rows
    check_finite(a.value, "expand")
    return Node(a.value[groups.inverse], "expand", ((a, groups.sum),))


def take_rows(a: Node, indices) -> Node:
    """Gather rows at strictly increasing indices (an embedding lookup at
    distinct ids); ``expand`` spreads them over repeated positions."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeMismatchError("take_rows", idx.shape)
    if not (idx[1:] > idx[:-1]).all():
        raise AutodiffError("take_rows: indices must be strictly increasing")
    if idx.size and (idx[0] < 0 or idx[-1] >= a.shape[0]):
        raise ShapeMismatchError("take_rows", a.shape, (int(idx[0]), int(idx[-1])))

    def scatter(g):
        out = np.zeros_like(a.value)
        out[idx] = g  # correct only because no row repeats
        return out

    return _make("take_rows", a.value[idx, :], [(a, scatter)])


def frobenius_sq(a: Node) -> Node:
    """Sum of squared entries, as a (1, 1) scalar."""
    out = np.array([[float((a.value * a.value).sum())]], dtype=a.value.dtype)
    return _make("frobenius_sq", out, [(a, lambda g: 2.0 * g * a.value)])


def dropout(a: Node, rate: float, rng: np.random.Generator) -> Node:
    """Inverted dropout: keeps scale the expectation equal to the input.

    It always drops (``classifier.classify`` decides whether it runs), so
    ``rate`` is in (0, 1). The mask is drawn column by column, so an n x B
    input consumes the generator exactly as B n x 1 inputs in column order
    would.
    """
    if not 0.0 < rate < 1.0:
        raise AutodiffError(f"dropout: rate must be in (0, 1), got {rate}")
    keep = 1.0 - rate
    mask = (rng.random(a.shape[::-1]).T >= rate).astype(a.value.dtype) / keep
    return _make("dropout", a.value * mask, [(a, lambda g: g * mask)])


def softmax_cross_entropy(logits: Node, onehot: np.ndarray) -> Node:
    """Fused stable -sum(y * log softmax(z)), the softmax taken over each
    column of logits and the losses of the columns summed. ``onehot`` is an
    array (``model.batch_objective`` builds it), so it gets no gradient."""
    if logits.shape != onehot.shape:
        raise ShapeMismatchError("softmax_cross_entropy", logits.shape, onehot.shape)
    z = logits.value
    y = onehot
    zmax = z.max(axis=0, keepdims=True)
    lse = zmax + np.log(np.exp(z - zmax).sum(axis=0, keepdims=True))
    loss = lse.sum() - float((y * z).sum())
    probs = np.exp(z - lse)
    out = np.array([[loss]], dtype=z.dtype)

    def back_z(g):
        return float(g[0, 0]) * (probs - y)

    return _make("softmax_cross_entropy", out, [(logits, back_z)])


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(root: Node) -> None:
    """Add d(root)/d(leaf) into ``.grad`` of every requires-grad leaf under
    ``root``; nothing is reset, so calls on roots that share leaves sum there.

    Each non-leaf node's ``.grad`` is dropped once its pullbacks have run,
    so only leaves keep a gradient after the call, and the graph's inner
    gradients are freed while the walk goes on. The trainer calls this once
    per minibatch, on the root of the graph ``model.forward_batch`` built.
    """
    if root.shape != (1, 1):
        raise NonScalarRootError(root.shape)

    # collect the subgraph and process in reverse creation order, which is a
    # valid topological order for an eagerly built DAG
    seen = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node._id in seen:
            continue
        seen[node._id] = node
        for parent, _ in node.parents:
            if parent.requires_grad and parent._id not in seen:
                stack.append(parent)

    root.grad = np.ones((1, 1), dtype=root.value.dtype)
    for node in sorted(seen.values(), key=lambda n: n._id, reverse=True):
        for parent, pull in node.parents:
            if not parent.requires_grad:
                continue
            contrib = pull(node.grad)
            if parent.grad is None:
                fresh = (contrib is not node.grad and contrib.base is None
                         and contrib.dtype == parent.value.dtype)
                parent.grad = contrib if fresh else np.array(contrib, dtype=parent.value.dtype)
            else:
                parent.grad += contrib
        if node.parents:
            node.grad = None

