"""Reference implementations the tests check the package against.

None of these run in training or in the CLI: a finite-difference gradient
checker, the dense single-head bilinear scorer that the factorized scores
must equal, cross-entropy on probabilities, and one document's attention
laid out over a padded width.
"""

from dataclasses import dataclass, field

import numpy as np

from lama import autodiff as ad
from lama.autodiff import Node

PROB_FLOOR = 1e-12


def dense_grad(node: Node) -> np.ndarray:
    """``node.grad``; zeros when there is none."""
    return np.zeros_like(node.value) if node.grad is None else node.grad


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
        raise ad.AutodiffError("grad_check: step must be positive")
    base = [ad._as_matrix(np.array(p, dtype=np.float64), "grad_check") for p in params]

    leaves = [ad.leaf(p.copy(), requires_grad=True) for p in base]
    root = builder(leaves)
    ad.backward(root)
    analytic = [dense_grad(lf) for lf in leaves]

    def value_at(arrays):
        return builder([ad.leaf(a) for a in arrays]).value.item()

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


def single_head_scores(U: Node, c: Node, W_i: Node) -> tuple[Node, Node]:
    """Dense bilinear oracle: f_t = c^T W_i u_t, softmax over t."""
    if W_i.shape != (c.shape[0], U.shape[1]):
        raise ad.ShapeMismatchError("single_head_scores", W_i.shape, c.shape, U.shape)
    f = ad.matmul(ad.matmul(ad.transpose(c), W_i), ad.transpose(U))  # 1 x T
    return f, ad.softmax(f, axis=1)


def cross_entropy(probs: Node, onehot: Node) -> Node:
    """-sum(y log yhat) on probabilities, clamped at PROB_FLOOR before log.

    The training path feeds logits to the fused stable primitive instead
    (``autodiff.softmax_cross_entropy``); this form is for probabilities
    coming from anywhere.
    """
    if probs.shape != onehot.shape:
        raise ad.ShapeMismatchError("cross_entropy", probs.shape, onehot.shape)
    p = probs.value
    clamped = np.maximum(p, PROB_FLOOR)
    out = np.array([[-float((onehot.value * np.log(clamped)).sum())]], dtype=p.dtype)

    def back_p(g):
        grad = -onehot.value / clamped
        grad[p < PROB_FLOOR] = 0.0
        return float(g[0, 0]) * grad

    def back_y(g):
        return float(g[0, 0]) * (-np.log(clamped))

    return ad.Node(out, "cross_entropy", ((probs, back_p), (onehot, back_y)))


def padded_A(out, width: int) -> np.ndarray:
    """One document's ``attend`` output ``A_valid`` laid out over ``width``
    positions, padded columns exactly zero; a width narrower than the
    document is a ShapeMismatchError."""
    m, L = out.A_valid.shape
    if width < L:
        raise ad.ShapeMismatchError("attend", out.A_valid.shape, (width,))
    A = np.zeros((m, width), dtype=out.A_valid.value.dtype)
    A[:, :L] = out.A_valid.value
    return A
