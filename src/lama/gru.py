"""GRU cell and bidirectional encoder producing contextual word annotations.

All graph-level functions take parameters as Nodes (see ``GruCell``) so
gradients flow to the underlying arrays. Vectors are column vectors.

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


def _one_minus(x: Node) -> Node:
    return ad.add_scalar(ad.scale(x, -1.0), 1.0)


def _step(wx_z: Node, wx_r: Node, wx_h: Node, h_prev: Node, cell: GruCell) -> Node:
    """Advance one step given precomputed input projections W_* x_t."""
    z = ad.sigmoid(ad.add(ad.add(wx_z, ad.matmul(cell.U_z, h_prev)), cell.b_z))
    r = ad.sigmoid(ad.add(ad.add(wx_r, ad.matmul(cell.U_r, h_prev)), cell.b_r))
    # bias sits outside the reset product: tanh(W_h x + r o (U_h h) + b_h)
    cand = ad.tanh(ad.add(ad.add(wx_h, ad.hadamard(r, ad.matmul(cell.U_h, h_prev))), cell.b_h))
    return ad.add(ad.hadamard(_one_minus(z), h_prev), ad.hadamard(z, cand))


def gru_step(x_t: Node, h_prev: Node, cell: GruCell) -> Node:
    """h_t = (1 - z) o h_prev + z o tanh(W_h x + r o (U_h h_prev) + b_h)."""
    if x_t.shape != (cell.input_dim, 1) or h_prev.shape != (cell.hidden_dim, 1):
        raise ad.ShapeMismatchError("gru_step", x_t.shape, h_prev.shape)
    return _step(ad.matmul(cell.W_z, x_t), ad.matmul(cell.W_r, x_t),
                 ad.matmul(cell.W_h, x_t), h_prev, cell)


def _run_direction(x_cols: Node, cell: GruCell, order) -> Node:
    """h x L states for positions visited in ``order``; column t is the state
    at position t."""
    h = ad.constant(np.zeros((cell.hidden_dim, 1), dtype=x_cols.value.dtype))
    # one matmul per gate for the whole document, sliced per step
    wx_z = ad.matmul(cell.W_z, x_cols)
    wx_r = ad.matmul(cell.W_r, x_cols)
    wx_h = ad.matmul(cell.W_h, x_cols)
    states = [None] * x_cols.shape[1]
    for t in order:
        h = _step(ad.slice_cols(wx_z, t, t + 1), ad.slice_cols(wx_r, t, t + 1),
                  ad.slice_cols(wx_h, t, t + 1), h, cell)
        states[t] = h
    return ad.concat(states, axis=1)


def bigru_encode(embedded: Node, forward_cell: GruCell, backward_cell: GruCell) -> Node:
    """Encode the L x d embedded rows of a document into L x 2h annotations,
    row t holding [forward state; backward state] at position t.

    Every row is a real token: the caller trims padding first, so the
    backward direction starts at the last token.
    """
    if forward_cell.hidden_dim != backward_cell.hidden_dim:
        raise ad.ShapeMismatchError(
            "bigru_encode", (forward_cell.hidden_dim,), (backward_cell.hidden_dim,))
    L = embedded.shape[0]
    x_cols = ad.transpose(embedded)
    fwd = _run_direction(x_cols, forward_cell, range(L))
    bwd = _run_direction(x_cols, backward_cell, range(L - 1, -1, -1))
    return ad.transpose(ad.concat([fwd, bwd], axis=0))
