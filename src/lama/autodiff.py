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

Every primitive validates shapes up front and checks its output for
NaN/Inf, so a non-finite value never propagates silently.

Most nodes are one elementwise or matrix op. The GRU is the exception:
``gru.gru_scan`` builds one fused node for a whole direction of a
minibatch, runs the recurrence on raw arrays and keeps the per-step
intermediates itself. Its parents are the input rows and the nine gate
tensors; their pullbacks share one hand-written backpropagation through
time, run on the first of them that ``backward`` calls. Its finiteness
check runs once, on the whole pre-activation buffer and on the output,
through ``check_finite``.

The pullbacks of ``take_rows`` and ``slice_rows`` return a ``RowGrad``
rather than a dense array, and ``backward`` adds its rows into the
parent's gradient in place, so an embedding lookup never materialises a
|V| x d gradient per call, and the row blocks that split a minibatch's
annotations into documents share one gradient array.

``dropout`` draws its mask one column after another, so a batch of
column vectors draws the masks those columns would draw one at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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
    # single-pass screen: any NaN/Inf makes the sum non-finite; the exact
    # check then rules out (vanishingly unlikely) accumulation overflow
    if not np.isfinite(out.sum()) and not np.isfinite(out).all():
        raise NonFiniteError(op)
    return out


def _make(op: str, out: np.ndarray, parents) -> Node:
    return Node(check_finite(out, op), op, tuple(parents))


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient back down to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    out = grad
    if shape[0] == 1 and out.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def _broadcastable(a, b) -> bool:
    return all(x == y or x == 1 or y == 1 for x, y in zip(a, b))


def _identity(g):
    return g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a: Node, b: Node) -> Node:
    """Element-wise sum; size-1 axes broadcast (covers bias-broadcast-add)."""
    sa, sb = a.value.shape, b.value.shape
    if sa == sb:
        return _make("add", a.value + b.value, ((a, _identity), (b, _identity)))
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
    if sa == sb:
        return _make("hadamard", av * bv, ((a, lambda g: g * bv), (b, lambda g: g * av)))
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
    # exp(-|x|) never overflows; the where() picks the stable branch
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def softmax(a: Node, axis: int = 1) -> Node:
    """Softmax along ``axis`` with the max subtracted for stability."""
    x = a.value
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        return out * (g - (g * out).sum(axis=axis, keepdims=True))

    return _make("softmax", out, [(a, back)])


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


def concat(nodes, axis: int = 0) -> Node:
    """Join nodes along ``axis``; a single node is returned as it is."""
    nodes = list(nodes)
    if not nodes:
        raise ShapeMismatchError("concat", ())
    if len(nodes) == 1:
        return nodes[0]
    other = 1 - axis
    base = nodes[0].shape[other]
    for n in nodes[1:]:
        if n.shape[other] != base:
            raise ShapeMismatchError("concat", nodes[0].shape, n.shape)
    sizes = [n.shape[axis] for n in nodes]
    offsets = np.cumsum([0] + sizes)
    out = np.concatenate([n.value for n in nodes], axis=axis)

    def make_pull(i):
        lo, hi = offsets[i], offsets[i + 1]
        if axis == 0:
            return lambda g: g[lo:hi, :]
        return lambda g: g[:, lo:hi]

    return _make("concat", out, [(n, make_pull(i)) for i, n in enumerate(nodes)])


class RowGrad(NamedTuple):
    """A gradient that is zero outside a few rows: ``values[k]`` adds into
    row ``rows[k]``, repeated rows accumulating. ``rows`` is an index array
    or a slice."""
    rows: np.ndarray | slice
    values: np.ndarray


def slice_rows(a: Node, lo: int, hi: int) -> Node:
    """Rows ``lo:hi`` of ``a``; all of its rows give ``a`` itself."""
    if not 0 <= lo < hi <= a.shape[0]:
        raise ShapeMismatchError("slice_rows", a.shape, (lo, hi))
    if (lo, hi) == (0, a.shape[0]):
        return a
    rows = slice(lo, hi)
    # a block of an already checked value needs no finiteness check
    return Node(a.value[rows], "slice_rows", ((a, lambda g: RowGrad(rows, g)),))


def take_rows(a: Node, indices) -> Node:
    """Gather rows by index (embedding lookup); repeated rows accumulate."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeMismatchError("take_rows", idx.shape)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeMismatchError("take_rows", a.shape, (int(idx.min()), int(idx.max())))
    return _make("take_rows", a.value[idx, :], [(a, lambda g: RowGrad(idx, g))])


def tsum(a: Node, axis=None) -> Node:
    """Sum of all entries (scalar) or along an axis (keepdims)."""
    out = a.value.sum(axis=axis, keepdims=True)
    return _make("sum", out, [(a, lambda g: np.broadcast_to(g, a.shape).copy())])


def tmean(a: Node, axis=None) -> Node:
    n = a.value.size if axis is None else a.shape[axis]
    return scale(tsum(a, axis=axis), 1.0 / n)


def frobenius_sq(a: Node) -> Node:
    """Sum of squared entries, as a (1, 1) scalar."""
    out = np.array([[float((a.value * a.value).sum())]], dtype=a.value.dtype)
    return _make("frobenius_sq", out, [(a, lambda g: 2.0 * g * a.value)])


def dropout(a: Node, rate: float, rng: np.random.Generator, train: bool) -> Node:
    """Inverted dropout: keeps scale the expectation equal to the input.

    The mask is drawn column by column, so an n x B input consumes the
    generator exactly as B n x 1 inputs in column order would.
    """
    if not 0.0 <= rate < 1.0:
        raise AutodiffError(f"dropout: rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return _make("dropout", a.value.copy(), [(a, lambda g: g)])
    keep = 1.0 - rate
    mask = (rng.random(a.shape[::-1]).T >= rate).astype(a.value.dtype) / keep
    return _make("dropout", a.value * mask, [(a, lambda g: g * mask)])


def softmax_cross_entropy(logits: Node, onehot: Node) -> Node:
    """Fused stable -sum(y * log softmax(z)), the softmax taken over each
    column of logits and the losses of the columns summed."""
    if logits.shape != onehot.shape:
        raise ShapeMismatchError("softmax_cross_entropy", logits.shape, onehot.shape)
    z = logits.value
    y = onehot.value
    zmax = z.max(axis=0, keepdims=True)
    lse = zmax + np.log(np.exp(z - zmax).sum(axis=0, keepdims=True))
    loss = lse.sum() - float((y * z).sum())
    probs = np.exp(z - lse)
    out = np.array([[loss]], dtype=z.dtype)

    def back_z(g):
        return float(g[0, 0]) * (probs - y)

    def back_y(g):
        return float(g[0, 0]) * (-z)

    return _make("softmax_cross_entropy", out, [(logits, back_z), (onehot, back_y)])


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
            if not isinstance(contrib, RowGrad):
                if parent.grad is None:
                    # a copy: a pullback may hand the same array to two parents
                    parent.grad = np.array(contrib, dtype=parent.value.dtype)
                else:
                    parent.grad += contrib
                continue
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.value)
            if isinstance(contrib.rows, slice):
                parent.grad[contrib.rows] += contrib.values
            else:
                np.add.at(parent.grad, contrib.rows, contrib.values)
        if node.parents:
            node.grad = None


# ---------------------------------------------------------------------------
# finite-difference gradient checker
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_errors: list
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = all(e <= self.tolerance for e in self.max_rel_errors)

    def worst(self) -> float:
        return max(self.max_rel_errors) if self.max_rel_errors else 0.0


def grad_check(builder, params, step: float = 1e-5, tolerance: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``builder`` takes a list of leaf Nodes (one per entry of ``params``) and
    returns a scalar root; it must be deterministic. ``params`` are plain
    arrays; they are copied, never mutated.
    """
    if step <= 0:
        raise AutodiffError("grad_check: step must be positive")
    base = [_as_matrix(np.array(p, dtype=np.float64), "grad_check") for p in params]

    leaves = [leaf(p.copy(), requires_grad=True) for p in base]
    root = builder(leaves)
    backward(root)
    analytic = [lf.grad if lf.grad is not None else np.zeros_like(lf.value) for lf in leaves]

    def value_at(arrays):
        return builder([leaf(a) for a in arrays]).value.item()

    errors = []
    for k, p in enumerate(base):
        worst = 0.0
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            plus = [a.copy() for a in base]
            minus = [a.copy() for a in base]
            plus[k][idx] = orig + step
            minus[k][idx] = orig - step
            num = (value_at(plus) - value_at(minus)) / (2.0 * step)
            ana = float(analytic[k][idx])
            rel = abs(ana - num) / max(abs(ana), abs(num), 1e-8)
            worst = max(worst, rel)
        errors.append(worst)
    return GradCheckReport(errors, tolerance)
