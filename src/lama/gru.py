"""GRU cell and bidirectional encoder producing contextual word annotations.

The graph-level functions take each direction's parameters as its nine
gate Nodes in ``GATE_NAMES`` order, so gradients flow to the underlying
arrays.

Each direction is one fused autodiff node, ``gru_scan``, rather than a
tape of small ops per step, and one node serves a whole minibatch. Its
input holds the documents' rows back to back with their lengths; the
documents run in lockstep, longest first, so the documents still running
at step t are a prefix of those running at step t - 1. The rows are
permuted into that packed order once: step t owns one contiguous block of
n_t rows and carries an n_t x h state (Appleyard et al., arXiv:1604.01946).
The forward pass does one input GEMM for every row with the stacked
W_z|W_r|W_h, then per step one n_t x h product with the stacked U_z|U_r
and one with U_h on raw arrays, keeping the pre-activations, gates,
candidates, U_h h and previous states in packed buffers. Its backward
pass is backpropagation through time over the same schedule in reverse,
run once and shared by the pullbacks of all ten parents (the input rows
and the nine gate tensors): one product per step carries the state
gradient, and the weight gradients come from whole-batch GEMMs after the
loop. The finiteness check runs once per direction, after the loop, on
the pre-activation buffer and on the output states; a non-finite value
anywhere in a step reaches one of those two arrays. A single document is
the one-segment case of the same scan.

The encoder never sees padding: ``model`` passes only the rows of the
documents' real tokens, and gets back one annotation per token.
"""

from __future__ import annotations

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


def _packed_schedule(lengths, rows: int, reverse: bool = False):
    """Order in which a lockstep scan visits the rows of back-to-back
    segments of ``lengths`` rows each (one segment when it is None),
    longest segment first.

    Returns ``(perm, widths)``: step t visits the next ``widths[t]`` rows
    of ``perm``, one per segment still running, in the same segment order
    at every step, so the active segments always form a prefix of the
    previous step's. ``reverse`` walks each segment from its last row.
    ``perm`` indexes rows: an index array, or for one segment a slice.
    """
    lengths = ad.segment_runs(lengths, rows, "gru_scan")
    if lengths is None:
        return slice(None, None, -1 if reverse else 1), [1] * rows
    by_length = np.argsort(-lengths, kind="stable")
    sorted_lengths = lengths[by_length]
    # row-major nonzero lists step 0's segments first, then step 1's, ...
    step, k = np.nonzero(np.arange(sorted_lengths[0])[:, None] < sorted_lengths)
    position = sorted_lengths[k] - 1 - step if reverse else step
    starts = np.cumsum(lengths) - lengths
    return starts[by_length][k] + position, np.bincount(step).tolist()


def gru_scan(X: Node, gate_nodes, reverse: bool = False, lengths=None) -> Node:
    """One direction of the GRU over the rows of ``X``, as one node, with
    ``gate_nodes`` the direction's nine parameter Nodes in ``GATE_NAMES`` order.

    ``X`` holds segments of ``lengths`` rows back to back (one segment of
    all rows when it is None), each scanned from a zero state; row i of the
    result is the state after row i. ``reverse`` visits each segment's rows
    from last to first. Each step computes z = sigmoid(W_z x + U_z h + b_z),
    r = sigmoid(W_r x + U_r h + b_r), c = tanh(W_h x + r o (U_h h) + b_h)
    and h' = (1 - z) o h + z o c.
    """
    x = X.value
    W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h = gate_nodes
    N, h = x.shape[0], W_z.shape[0]
    if x.shape[1] != W_z.shape[1]:
        raise ad.ShapeMismatchError("gru_scan", x.shape, W_z.shape)
    perm, widths = _packed_schedule(lengths, N, reverse)
    W = np.concatenate([W_z.value, W_r.value, W_h.value])
    U = np.concatenate([U_z.value, U_r.value, U_h.value])
    b = np.concatenate([b_z.value, b_r.value, b_h.value])[:, 0]
    U_T = U.T
    dtype = np.result_type(x, W)

    # buffers in scan order, kept for the backward sweep: step t owns the
    # next widths[t] rows, the state of its segments is n_t x h
    xp = x[perm]
    pre = xp @ W.T                         # a_z | a_r | a_h, from W x + b
    pre += b
    gates = np.empty((N, 3 * h), dtype)    # z | r | c
    u = np.empty((N, 3 * h), dtype)        # U_z h_prev | U_r h_prev | U_h h_prev
    prev = np.empty((N, h), dtype)         # h_prev
    out = np.empty((N, h), dtype)
    state = np.zeros((widths[0], h), dtype)
    lo = 0
    for n in widths:
        hi = lo + n
        s = prev[lo:hi] = state[:n]
        u_t = u[lo:hi] = np.dot(s, U_T)
        a_zr, a_h = pre[lo:hi, :2 * h], pre[lo:hi, 2 * h:]
        a_zr += u_t[:, :2 * h]
        zr = gates[lo:hi, :2 * h] = ad.stable_sigmoid(a_zr)
        z, r = zr[:, :h], zr[:, h:]
        a_h += r * u_t[:, 2 * h:]
        c = gates[lo:hi, 2 * h:] = np.tanh(a_h)
        state = out[lo:hi] = s + z * (c - s)
        lo = hi
    ad.check_finite(pre, "gru_scan")
    ad.check_finite(out, "gru_scan")
    states = np.empty_like(out)
    states[perm] = out

    def bptt(g):
        """Gradients of every parent from dL/d(states) ``g``."""
        g = g[perm]
        d_pre = np.empty_like(pre)         # d a_z | d a_r | d a_h
        d_u = np.empty_like(pre)           # d(U_z h) | d(U_r h) | d(U_h h)
        carry = np.zeros((widths[0], h), dtype)
        hi = N
        for n in reversed(widths):
            lo = hi - n
            dh = g[lo:hi] + carry[:n]
            zr, c = gates[lo:hi, :2 * h], gates[lo:hi, 2 * h:]
            z, r = zr[:, :h], zr[:, h:]
            d_a_h = dh * z * (1.0 - c * c)
            d_zr = np.concatenate([dh * (c - prev[lo:hi]), d_a_h * u[lo:hi, 2 * h:]], axis=1)
            d_pre[lo:hi, :2 * h] = d_u[lo:hi, :2 * h] = d_zr * zr * (1.0 - zr)
            d_pre[lo:hi, 2 * h:] = d_a_h
            d_u[lo:hi, 2 * h:] = d_a_h * r
            carry[:n] = dh * (1.0 - z) + np.dot(d_u[lo:hi], U)
            hi = lo
        d_W = d_pre.T @ xp
        d_U = d_u.T @ prev
        d_b = d_pre.sum(axis=0).reshape(-1, 1)
        d_x = np.empty((N, x.shape[1]), d_pre.dtype)
        d_x[perm] = d_pre @ W
        grads = {"X": d_x}
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

    parents = [(X, pull("X"))] + [(node, pull(n)) for n, node in zip(GATE_NAMES, gate_nodes)]
    return ad.Node(states, "gru_scan", tuple(parents))


def bigru_encode(embedded: Node, forward_gates, backward_gates, lengths=None) -> Node:
    """Encode embedded rows into annotations, row t holding [forward
    state; backward state] at position t.

    ``embedded`` holds documents of ``lengths`` rows back to back (one
    document when it is None); each direction's gates are as in
    ``gru_scan``. Every row is a real token: the caller trims
    padding first, so each document's backward direction starts at its
    last token.
    """
    h_f, h_b = forward_gates[0].shape[0], backward_gates[0].shape[0]
    if h_f != h_b:
        raise ad.ShapeMismatchError("bigru_encode", (h_f,), (h_b,))
    return ad.concat([gru_scan(embedded, forward_gates, lengths=lengths),
                      gru_scan(embedded, backward_gates, reverse=True, lengths=lengths)],
                     axis=1)
