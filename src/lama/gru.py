"""GRU cell and bidirectional encoder producing contextual word annotations.

The graph-level functions take each direction's parameters as its nine
gate Nodes in ``GATE_NAMES`` order, so gradients flow to the underlying
arrays.

The BiGRU is one fused autodiff node, ``gru_scan``, rather than a tape of
small ops per step: one node for both directions of a whole minibatch.
Its positions are the documents' tokens back to back, as ``autodiff.runs``
lays them out (one document is one run, with no branch of its own); the
documents run in lockstep, longest first, so the documents still running
at step t are a prefix of those running at step t - 1, and the widths n_t
are the same in both directions, whose row orders differ only in where
each document starts (Appleyard et al., arXiv:1604.01946). So one loop
runs both directions. Its buffers are gate-major and direction-stacked,
[gate, direction, row, unit], with the rows permuted into scan order once:
step t's rows of one gate are one contiguous n_t x h block per direction.

Contiguity is the point of that layout. At h = 50 a step's arrays hold a
few thousand values, so each numpy call costs about as much in set-up as
in arithmetic, and a call over a column slice of a rows x 3h buffer runs
one inner loop per row. Each step does one batched product of the
2 x n_t x h state with the contiguous transposed U of every gate and
direction, and its elementwise work (the sigmoid in its tanh form, the
candidate, the blend) runs on contiguous temporaries; each buffer block is
read or written once. The input half of every gate, W x + b, depends only
on the token, so it runs before the loop once per distinct row of the
batch, as one GEMM by both directions' stacked W, and one gather spreads
it over the scan's positions.

The backward pass is backpropagation through time over the same schedule
in reverse, run once and shared by the pullbacks of all nineteen parents
(the distinct input rows and each direction's nine gate tensors). The
factors that do not depend on the incoming gradient are computed once over
all rows before the loop: z(1 - c^2) for the candidate's pre-activation, with r for
U_h h; (c - h) z(1 - z) for the update gate's; z(1 - c^2) r (U_h h)(1 - r)
for the reset gate's; and 1 - z for the state's own path back. Each
reverse step then adds the carried gradient, multiplies the factors by it
in place and does one batched product with U for the next carry. After
the loop the pre-activations' gradient is summed per distinct row
(``autodiff.Groups.sum``: a row that one position reads is gathered, and
only the repeated ones are reduced), so the input weight, bias and row
gradients are GEMMs over the distinct rows, not over the positions.

The finiteness check runs once, after the loop, on the pre-activation
buffer and on the output states; a non-finite value anywhere in a step
reaches one of those two arrays. The encoder never sees padding:
``model`` passes only the rows of the documents' real tokens, and gets
back one annotation per token.
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


def _packed_schedule(runs, rows: int):
    """Order in which a lockstep scan visits the ``rows`` rows of the
    segments of the layout ``runs`` (one when None), longest first.

    Returns ``(perm, widths)``: step t visits the next ``widths[t]``
    entries of ``perm[0]`` (forward, each segment from its first row) and
    of ``perm[1]`` (backward, each segment from its last row), one row per
    segment still running, in the same segment order at every step, so
    the active segments always form a prefix of the previous step's.
    """
    starts, lengths = ad.run_spans(runs, rows, "gru_scan")
    by_length = np.argsort(-lengths, kind="stable")
    sorted_lengths = lengths[by_length]
    # row-major nonzero lists step 0's segments first, then step 1's, ...
    step, k = np.nonzero(np.arange(sorted_lengths[0])[:, None] < sorted_lengths)
    first = starts[by_length][k]
    return (np.stack([first + step, first + sorted_lengths[k] - 1 - step]),
            np.bincount(step).tolist())


def bigru_encode(rows: Node, forward_gates, backward_gates, runs, groups: ad.Groups) -> Node:
    """Encode the positions of the layout ``runs`` (one document when it is
    None) into annotations, row t holding [forward state; backward state]
    at position t, as one ``gru_scan`` node.

    ``rows`` holds one input row per distinct token, and position t reads
    row ``groups.inverse[t]`` (``groups`` is ``autodiff.group_ids`` of the
    positions' ids). Each document is scanned from a zero state in both
    directions; each direction's gates are its nine parameter Nodes in
    ``GATE_NAMES`` order. Every position is a real token (``model`` passes
    no padding), so each document's backward direction starts at its last
    token. Each step computes z = sigmoid(W_z x + U_z h + b_z), r =
    sigmoid(W_r x + U_r h + b_r), c = tanh(W_h x + r o (U_h h) + b_h) and
    h' = (1 - z) o h + z o c.
    """
    x = rows.value
    h_f, h_b = forward_gates[0].shape[0], backward_gates[0].shape[0]
    if h_f != h_b:
        raise ad.ShapeMismatchError("bigru_encode", (h_f,), (h_b,))
    for gates in (forward_gates, backward_gates):
        if x.shape[1] != gates[0].shape[1]:
            raise ad.ShapeMismatchError("gru_scan", x.shape, gates[0].shape)
    if x.shape[0] != groups.unique.size:
        raise ad.ShapeMismatchError("gru_scan", x.shape, groups.unique.shape)
    N, h = groups.inverse.size, h_f
    perm, widths = _packed_schedule(runs, N)
    values = [[node.value for node in gates] for gates in (forward_gates, backward_gates)]

    # the recurrent weights gate-major, direction-stacked: [gate][direction]
    U = np.array([[v[1 + 3 * g] for v in values] for g in range(3)])
    U_T = np.ascontiguousarray(U.transpose(0, 1, 3, 2))
    # the input weights and biases direction-major, [direction][gate]
    W = np.array([v[0::3] for v in values]).reshape(6 * h, -1)
    bias = np.array([v[2::3] for v in values])[..., 0]
    dtype = np.result_type(x, W)

    # W x + b once per distinct row, [row, direction, gate, unit]
    lin = np.matmul(x, W.T).reshape(-1, 2, 3, h)
    lin += bias
    # gate-major buffers in scan order, kept for the backward sweep:
    # [gate, direction, row, unit]; step t owns rows lo:hi, so each of its
    # gate blocks is one contiguous n_t x h block per direction. Scan row j
    # of direction k is position perm[k, j], so its gate g block is lin's
    # block (inverse[perm[k, j]], k, g): one gather fills the buffer
    at = groups.inverse[perm] * 6 + np.arange(2)[:, None] * 3 + np.arange(3)[:, None, None]
    pre = lin.reshape(-1, h)[at]                       # a_z, a_r, a_h
    act = np.empty_like(pre)                           # z, r, c
    u_h = np.empty((2, N, h), dtype)                   # U_h h
    prev = np.empty((2, N, h), dtype)                  # h before the step
    out = np.empty((2, N, h), dtype)
    state = np.zeros((2, widths[0], h), dtype)
    lo = 0
    for n in widths:
        hi = lo + n
        # the step's arithmetic runs on contiguous n x h temporaries; the
        # buffers' multi-block views are only read once or written once
        s = np.ascontiguousarray(state[:, :n])
        prev[:, lo:hi] = s
        u = np.matmul(s, U_T)                          # U_z h, U_r h, U_h h
        a_zr = pre[:2, :, lo:hi]
        a_zr += u[:2]
        z, r = act[:2, :, lo:hi] = ad.stable_sigmoid(a_zr)
        u_h[:, lo:hi] = u[2]
        a_h = pre[2, :, lo:hi]
        a_h += r * u[2]
        c = act[2, :, lo:hi] = np.tanh(a_h)
        state = c - s
        state *= z
        state += s
        out[:, lo:hi] = state
        lo = hi
    ad.check_finite(pre, "gru_scan")
    ad.check_finite(out, "gru_scan")
    states = np.empty((N, 2 * h), dtype)
    states[perm[0], :h] = out[0]
    states[perm[1], h:] = out[1]

    def bptt(g):
        """Gradients of every parent from dL/d(states) ``g``."""
        z, r, c = act
        # d holds the factors that do not depend on the incoming gradient
        # dh, computed once over all rows: d(U_h h) = dh f_u, d a_z = dh f_z,
        # d a_r = dh f_r and d a_h = dh f_h; the sweep multiplies them by dh
        # in place. The first three meet U_h, U_z and U_r in the carry
        # product; the last three are the pre-activations' gradients.
        d = np.empty((4, 2, N, h), dtype)
        f_u, f_z, f_r, f_h = d
        np.multiply(c, c, out=f_h)
        np.subtract(1.0, f_h, out=f_h)
        f_h *= z
        np.multiply(f_h, r, out=f_u)
        keep = 1.0 - z                     # the state's own path back
        np.subtract(c, prev, out=f_z)
        f_z *= z
        f_z *= keep
        np.subtract(1.0, r, out=f_r)
        f_r *= f_u
        f_r *= u_h
        U_back = U[[2, 0, 1]]
        g = np.stack([g[perm[0], :h], g[perm[1], h:]])
        carry = np.zeros((2, 0, h), dtype)
        hi = N
        for n in reversed(widths):
            lo = hi - n
            # dL/dh' of the step's rows; the segments that end here get no carry
            dh = g[:, lo:hi].copy()
            dh[:, :carry.shape[1]] += carry
            d_t = d[:, :, lo:hi]
            d_t *= dh
            p = np.matmul(d_t[:3], U_back)
            carry = keep[:, lo:hi] * dh
            carry += p[0]
            carry += p[1]
            carry += p[2]
            hi = lo
        d_pre, d_u = d[1:], d[:3]
        d_U = np.matmul(d_u.transpose(0, 1, 3, 2), prev)[[1, 2, 0]]  # to z, r, h
        # d lin: the pre-activations' gradient summed per distinct row; the
        # position p is scan row step[k, p] of direction k
        step = np.empty_like(perm)
        step[[[0], [1]], perm] = np.arange(N)
        by_step = d_pre.transpose(1, 2, 0, 3)          # [direction, row, gate, unit]
        d_lin = groups.sum(
            lambda pos: by_step[[0, 1], step[:, pos].T].reshape(len(pos), 6 * h))
        d_W = np.matmul(d_lin.T, x).reshape(2, 3, h, -1)
        # a GEMV: sum(axis=0) would run an inner loop per row
        d_b = np.matmul(np.ones(len(d_lin), dtype), d_lin).reshape(2, 3, h, 1)
        grads = [np.matmul(d_lin, W)]
        for k in range(2):
            for gate in range(3):
                grads += [d_W[k, gate], d_U[gate, k], d_b[k, gate]]
        return grads

    # backward calls every pullback with the same gradient array, so the
    # sweep runs on the first call and the others read its result
    swept = [None, None]

    def pull(i):
        def back(g):
            if swept[0] is not g:
                swept[:] = [g, bptt(g)]
            return swept[1][i]
        return back

    parents = [rows, *forward_gates, *backward_gates]
    return ad.Node(states, "gru_scan", tuple((node, pull(i)) for i, node in enumerate(parents)))
