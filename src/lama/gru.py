"""GRU cell and bidirectional encoder producing contextual word annotations.

All graph-level functions take parameters as Nodes (see ``GruCell``) so
gradients flow to the underlying arrays.

Each direction is one fused autodiff node, ``gru_scan``, rather than a
tape of small ops per step. Its forward pass does one input GEMM for the
whole document with the stacked W_z|W_r|W_h, then loops over the steps on
raw arrays with one matvec by the stacked U_z|U_r and one by U_h, keeping
the pre-activations, gates, candidates, U_h h and previous states in
L-row buffers. Its backward pass is backpropagation through time, run
once and shared by the pullbacks of all ten parents (the input rows and
the nine gate tensors): one matvec per step carries the state gradient,
and the weight gradients come from whole-document GEMMs after the loop.
The finiteness check runs once per direction, after the loop, on the
L x 3h pre-activation buffer and on the output states; a non-finite
value anywhere in a step reaches one of those two arrays.

The encoder never sees padding: ``model.forward_doc`` passes only the rows
of the document's real tokens, and gets back one annotation per token.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node

GATE_NAMES = ("W_z", "U_z", "b_z", "W_r", "U_r", "b_r", "W_h", "U_h", "b_h")


def init_gru_arrays(d: int, h: int, rng: np.random.Generator, dtype=np.float32) -> dict:
    """Uniform(-1/sqrt(h), 1/sqrt(h)) weights, zero biases.

    Arrays are created in GATE_NAMES order so RNG consumption is fixed.
    """
    bound = 1.0 / np.sqrt(h)
    out = {}
    for name in GATE_NAMES:
        if name.startswith("W"):
            out[name] = rng.uniform(-bound, bound, size=(h, d)).astype(dtype)
        elif name.startswith("U"):
            out[name] = rng.uniform(-bound, bound, size=(h, h)).astype(dtype)
        else:
            out[name] = np.zeros((h, 1), dtype=dtype)
    return out


@dataclass
class GruCell:
    """Node view of one direction's parameters."""
    W_z: Node
    U_z: Node
    b_z: Node
    W_r: Node
    U_r: Node
    b_r: Node
    W_h: Node
    U_h: Node
    b_h: Node

    @classmethod
    def from_nodes(cls, nodes: dict, prefix: str) -> "GruCell":
        return cls(**{name: nodes[prefix + name] for name in GATE_NAMES})

    @property
    def hidden_dim(self) -> int:
        return self.W_z.shape[0]

    @property
    def input_dim(self) -> int:
        return self.W_z.shape[1]


def gru_scan(X: Node, cell: GruCell, reverse: bool = False) -> Node:
    """One direction of the GRU over the L x d rows of ``X``, as one node.

    Returns the L x h states, row t holding the state after position t;
    ``reverse`` visits the positions from last to first. Each step computes
    z = sigmoid(W_z x + U_z h + b_z), r = sigmoid(W_r x + U_r h + b_r),
    c = tanh(W_h x + r o (U_h h) + b_h) and h' = (1 - z) o h + z o c.
    """
    x = X.value
    L, h = x.shape[0], cell.hidden_dim
    if x.shape[1] != cell.input_dim:
        raise ad.ShapeMismatchError("gru_scan", x.shape, cell.W_z.shape)
    W = np.concatenate([cell.W_z.value, cell.W_r.value, cell.W_h.value])
    U_zr = np.concatenate([cell.U_z.value, cell.U_r.value])
    U_h = cell.U_h.value
    b_zr = np.concatenate([cell.b_z.value, cell.b_r.value])[:, 0]
    b_h = cell.b_h.value[:, 0]
    dtype = np.result_type(x, W)
    order = range(L - 1, -1, -1) if reverse else range(L)

    # per-step state, kept for the backward sweep; pre starts as W x_t
    pre = x @ W.T                          # L x 3h: a_z | a_r | a_h
    gates = np.empty((L, 3 * h), dtype)    # z | r | c
    uh = np.empty((L, h), dtype)           # U_h h_prev
    prev = np.empty((L, h), dtype)         # h_prev
    out = np.empty((L, h), dtype)
    state = np.zeros(h, dtype)
    for t in order:
        prev[t] = state
        a_zr, a_h = pre[t, :2 * h], pre[t, 2 * h:]
        a_zr += U_zr @ state
        a_zr += b_zr
        zr = gates[t, :2 * h] = ad.stable_sigmoid(a_zr)
        z, r = zr[:h], zr[h:]
        uh[t] = U_h @ state
        a_h += r * uh[t]
        a_h += b_h
        c = gates[t, 2 * h:] = np.tanh(a_h)
        state = out[t] = (1.0 - z) * state + z * c
    ad.check_finite(pre, "gru_scan")
    ad.check_finite(out, "gru_scan")

    def bptt(g):
        """Gradients of every parent from dL/d(states) ``g``."""
        d_pre = np.empty_like(pre)         # d a_z | d a_r | d a_h
        d_u = np.empty_like(pre)           # d(U_z h) | d(U_r h) | d(U_h h)
        U_T = np.concatenate([U_zr, U_h]).T
        carry = np.zeros(h, dtype)
        for t in reversed(order):
            dh = g[t] + carry
            zr, c = gates[t, :2 * h], gates[t, 2 * h:]
            z, r = zr[:h], zr[h:]
            d_a_h = dh * z * (1.0 - c * c)
            d_zr = np.concatenate([dh * (c - prev[t]), d_a_h * uh[t]])
            d_pre[t, :2 * h] = d_u[t, :2 * h] = d_zr * zr * (1.0 - zr)
            d_pre[t, 2 * h:] = d_a_h
            d_u[t, 2 * h:] = d_a_h * r
            carry = dh * (1.0 - z) + U_T @ d_u[t]
        d_W = d_pre.T @ x
        d_U = d_u.T @ prev
        d_b = d_pre.sum(axis=0).reshape(-1, 1)
        grads = {"X": d_pre @ W}
        for k, gate in enumerate("zrh"):
            rows = slice(k * h, (k + 1) * h)
            grads["W_" + gate] = d_W[rows]
            grads["U_" + gate] = d_U[rows]
            grads["b_" + gate] = d_b[rows]
        return grads

    # backward calls every pullback with the same gradient array, so the
    # sweep runs on the first call and the others read its result
    swept = [None, None]

    def pull(name):
        def back(g):
            if swept[0] is not g:
                swept[:] = [g, bptt(g)]
            return swept[1][name]
        return back

    parents = [(X, pull("X"))] + [(getattr(cell, n), pull(n)) for n in GATE_NAMES]
    return ad.Node(out, "gru_scan", tuple(parents))


def bigru_encode(embedded: Node, forward_cell: GruCell, backward_cell: GruCell) -> Node:
    """Encode the L x d embedded rows of a document into L x 2h annotations,
    row t holding [forward state; backward state] at position t.

    Every row is a real token: the caller trims padding first, so the
    backward direction starts at the last token.
    """
    if forward_cell.hidden_dim != backward_cell.hidden_dim:
        raise ad.ShapeMismatchError(
            "bigru_encode", (forward_cell.hidden_dim,), (backward_cell.hidden_dim,))
    return ad.concat([gru_scan(embedded, forward_cell),
                      gru_scan(embedded, backward_cell, reverse=True)], axis=1)
