"""Transformer-encoder comparison point: analytic parameter counts and a
forward-only scaled-dot-product attention layer for runtime scaling.

The counting functions mirror how the two attention designs spend
parameters: the factorized model pays 2 * d_ann per extra head (the two new
factor columns), while the transformer encoder's Q/K/V/output projections
are d_model^2 regardless of how many ways they are split, so its count is
constant in the head count.

Runtime measurements sweep the sequence length on synthetic batches and
report the least-squares slope of log(time) against log(length); dimensions
are deliberately small enough that the quadratic term dominates the
transformer encoder inside the measured window.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import attention, autodiff as ad


class BaselineError(Exception):
    pass


@dataclass
class TeConfig:
    d_model: int = 512
    heads: int = 8
    d_ff: int = 2048
    max_positions: int = 256
    layers: int = 1
    mlp_hidden: int = 1024

    def __post_init__(self):
        if self.d_model % self.heads != 0:
            raise BaselineError(
                f"d_model {self.d_model} not divisible by heads {self.heads}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.heads


@dataclass
class ParamReport:
    kind: str
    heads: int
    breakdown: dict
    total: int = field(init=False)

    def __post_init__(self):
        self.total = sum(self.breakdown.values())

    @property
    def millions(self) -> float:
        return self.total / 1e6


def lama_param_count(d: int, h: int, m: int, vocab_size: int,
                     mlp_hidden: int, num_classes: int, ctx: str = "learned",
                     include_classifier: bool = True) -> ParamReport:
    """Exact trainable-parameter count of the recurrent attention model.

    With ``include_classifier=False`` the count covers the published
    comparison scope (embeddings + encoder + attention), where the only
    m-dependent entry is the pair of factor matrices and each extra head
    costs exactly 2 * d_ann parameters. The full model also grows its
    classifier input (the flattened m x d_ann sentence matrix), adding
    mlp_hidden * d_ann per head on top.
    """
    d_ann = 2 * h
    breakdown = {
        "embeddings": vocab_size * d,
        "bigru": 2 * 3 * (h * d + h * h + h),
        "word_transform": d_ann * d_ann + d_ann,
        "attention_factors": 2 * d_ann * m,
        "context": d_ann if ctx == "learned" else 0,
    }
    if include_classifier:
        breakdown["classifier"] = (mlp_hidden * (d_ann * m) + mlp_hidden
                                   + num_classes * mlp_hidden + num_classes)
    return ParamReport("lama", m, breakdown)


def te_param_count(config: TeConfig, vocab_size: int, num_classes: int) -> ParamReport:
    """Single-layer transformer encoder count; provably head-independent."""
    d = config.d_model
    breakdown = {
        "embeddings": vocab_size * d,
        "positions": config.max_positions * d,
        "attention_projections": config.layers * 4 * (d * d + d),
        "ffn": config.layers * (d * config.d_ff + config.d_ff + config.d_ff * d + d),
        "layer_norms": config.layers * 2 * 2 * d,
        "classifier": config.mlp_hidden * d + config.mlp_hidden
                      + num_classes * config.mlp_hidden + num_classes,
    }
    return ParamReport("te", config.heads, breakdown)


@dataclass
class TeParams:
    W_q: np.ndarray
    W_k: np.ndarray
    W_v: np.ndarray
    W_o: np.ndarray
    b_q: np.ndarray
    b_k: np.ndarray
    b_v: np.ndarray
    b_o: np.ndarray


def init_te_params(d_model: int, rng: np.random.Generator,
                   dtype=np.float32) -> TeParams:
    scale = 1.0 / np.sqrt(d_model)
    def w():
        return (rng.standard_normal((d_model, d_model)) * scale).astype(dtype)
    def b():
        return np.zeros(d_model, dtype=dtype)
    return TeParams(w(), w(), w(), w(), b(), b(), b(), b())


def _split_heads(M: np.ndarray, heads: int) -> np.ndarray:
    """T x d_model -> heads x T x head_dim."""
    T, d_model = M.shape
    return M.reshape(T, heads, d_model // heads).transpose(1, 0, 2)


def sdpa_attention_weights(X: np.ndarray, params: TeParams, heads: int) -> np.ndarray:
    """The heads x T x T matrix of softmaxed scaled dot-product scores."""
    T, d_model = X.shape
    if d_model % heads != 0:
        raise BaselineError(f"d_model {d_model} not divisible by heads {heads}")
    if params.W_q.shape != (d_model, d_model):
        raise ad.ShapeMismatchError("sdpa", X.shape, params.W_q.shape)
    Q = _split_heads(X @ params.W_q + params.b_q, heads)
    K = _split_heads(X @ params.W_k + params.b_k, heads)
    scores = Q @ K.transpose(0, 2, 1) / np.sqrt(d_model // heads)
    scores -= scores.max(axis=2, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=2, keepdims=True)
    return weights


def sdpa_forward(X: np.ndarray, params: TeParams, heads: int) -> np.ndarray:
    """Standard multi-head scaled dot-product self-attention, forward only.

    Scores are divided by sqrt(head_dim) and softmaxed row-wise; head
    outputs are concatenated and passed through the output projection.
    """
    weights = sdpa_attention_weights(X, params, heads)
    V = _split_heads(X @ params.W_v + params.b_v, heads)
    ctx = weights @ V                                  # heads x T x dh
    merged = ctx.transpose(1, 0, 2).reshape(X.shape)
    return merged @ params.W_o + params.b_o


@dataclass
class BenchResult:
    kind: str
    rows: list          # (length, median_seconds, trials)
    slope: float
    dims: dict

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("length,median_seconds,trials\n")
            for length, median, trials in self.rows:
                fh.write(f"{length},{median:.9f},{trials}\n")

    def summary(self) -> str:
        return (f"{self.kind}: log-log slope {self.slope:.3f} over lengths "
                f"{self.rows[0][0]}..{self.rows[-1][0]}")


def _le_forward_batch(embedded_docs, arrays):
    nodes = {k: ad.leaf(v) for k, v in arrays.items()}
    for X in embedded_docs:
        attention.attend(ad.leaf(X), nodes["c"], nodes["W_w"], nodes["b_w"],
                         nodes["P"], nodes["Q"])


def _te_forward_batch(docs, params, heads):
    for X in docs:
        sdpa_forward(X, params, heads)


def bench_runtime(kind: str, lengths, trials: int = 5, d: int | None = None,
                  heads: int | None = None, batch: int = 4,
                  seed: int = 0, log=None) -> BenchResult:
    """Median wall time of a synthetic-batch forward pass per length, plus
    the fitted log-log slope.

    Defaults keep the factorized encoder matmul-bound (d=512) and the
    transformer encoder attention-bound (d_model=32) so each layer's
    length-scaling shows inside the 64..1024 window.
    """
    lengths = [int(x) for x in lengths]
    if len(lengths) < 4 or any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise BaselineError("need >= 4 strictly increasing lengths")
    if lengths[-1] < 8 * lengths[0]:
        raise BaselineError("lengths must span at least an 8x range")
    if trials < 5:
        raise BaselineError("need at least 5 trials")

    rng = np.random.Generator(np.random.PCG64(seed))
    if kind == "le":
        d = 512 if d is None else d
        m = 8 if heads is None else heads
        arrays = attention.init_attention_arrays(d, m, rng)
        run = lambda docs: _le_forward_batch(docs, arrays)
        dims = {"d": d, "heads": m, "batch": batch}
    elif kind == "te":
        d = 32 if d is None else d
        m = 4 if heads is None else heads
        params = init_te_params(d, rng)
        run = lambda docs: _te_forward_batch(docs, params, m)
        dims = {"d_model": d, "heads": m, "batch": batch}
    else:
        raise BaselineError(f"unknown benchmark kind {kind!r}")

    resolution = time.get_clock_info("perf_counter").resolution
    rows = []
    for length in lengths:
        docs = [rng.standard_normal((length, d)).astype(np.float32)
                for _ in range(batch)]
        run(docs)  # warmup
        samples = []
        for _ in range(trials):
            t0 = time.perf_counter()
            run(docs)
            samples.append(time.perf_counter() - t0)
        median = float(np.median(samples))
        if median < 100 * resolution:
            warnings.warn(
                f"{kind} at length {length}: median {median:.3e}s is below "
                f"100x the clock resolution {resolution:.1e}s", RuntimeWarning)
        rows.append((length, median, trials))
        if log:
            log(f"{kind} length {length}: {median * 1e3:.3f} ms")

    slope = float(np.polyfit(np.log([r[0] for r in rows]),
                             np.log([r[1] for r in rows]), 1)[0])
    return BenchResult(kind, rows, slope, dims)
