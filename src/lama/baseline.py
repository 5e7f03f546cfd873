"""Transformer-encoder comparison point: analytic parameter counts and a
forward-only scaled-dot-product attention layer for runtime scaling.

The counting functions mirror how the two attention designs spend
parameters: the factorized model pays 2 * d_ann per extra head (the two new
factor columns), while the transformer encoder's Q/K/V/output projections
are d_model^2 regardless of how many ways they are split, so its count is
constant in the head count. The LAMA count is summed from
``model.param_shapes``, the shapes ``init_model`` allocates, so it rejects
what the model rejects; only the transformer encoder's count is written
out here.

Runtime measurements sweep the sequence length on synthetic batches and
report the least-squares slope of log(time) against log(length); dimensions
are deliberately small enough that the quadratic term dominates the
transformer encoder inside the measured window. The factorized kinds time
a whole model's ``model.forward_batch``, embedding-only ("le") or BiGRU
("bigru"), on ids uniform over ``BENCH_VOCAB`` tokens that rarely repeat:
the per-position cost that grouping by token cuts, each encoder's worst case.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad, model, training
from .attention import CTX_LEARNED
from .model import ENCODER_BIGRU, MAX_PARAMS, param_shapes
from .text import Document

MAX_TRIALS = 1000
BENCH_VOCAB = 2**14  # the factorized bench draws its ids from [2, BENCH_VOCAB)
# ``lama_param_count``'s breakdown: the entry each ``param_shapes`` name
# prefix counts towards, in report order
_BREAKDOWN = {"W_e": "embeddings", "gru_": "bigru", "attn.W_w": "word_transform",
              "attn.b_w": "word_transform", "attn.P": "attention_factors",
              "attn.Q": "attention_factors", "attn.c": "context", "cls.": "classifier"}


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
                     mlp_hidden: int, num_classes: int, ctx: str = CTX_LEARNED,
                     include_classifier: bool = True) -> ParamReport:
    """Exact trainable-parameter count of the recurrent attention model,
    summed from ``model.param_shapes``; a model it rejects is a ValueError.

    With ``include_classifier=False`` the count covers the published
    comparison scope (embeddings + encoder + attention), where the only
    m-dependent entry is the pair of factor matrices and each extra head
    costs exactly 2 * d_ann parameters. The full model also grows its
    classifier input (the flattened m x d_ann sentence matrix), adding
    mlp_hidden * d_ann per head on top.
    """
    shapes = param_shapes(vocab_size, num_classes, d=d, h=h, m=m, ctx=ctx,
                          encoder=ENCODER_BIGRU, mlp_hidden=mlp_hidden)
    breakdown = dict.fromkeys(_BREAKDOWN.values(), 0)
    for name, shape in shapes.items():
        prefix = next(p for p in _BREAKDOWN if name.startswith(p))
        breakdown[_BREAKDOWN[prefix]] += math.prod(shape)
    if not include_classifier:
        del breakdown["classifier"]
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


def bench_runtime(kind: str, lengths, trials: int = 5, d: int | None = None,
                  heads: int | None = None, batch: int = 4,
                  seed: int = 0, log=None) -> BenchResult:
    """Median wall time of a synthetic-batch forward pass per length, plus
    the fitted log-log slope: "le" and "bigru" time ``model.forward_batch``
    of a model with that encoder on ids drawn from [2, ``BENCH_VOCAB``), "te"
    ``sdpa_forward`` on random embedded documents (see the module docstring).

    Defaults keep the embedding-only model matmul-bound (d=512) and the
    transformer encoder attention-bound (d_model=32), so each one's scaling
    shows in the 64..1024 window; the BiGRU takes the trainer's d and h.
    """
    lengths = [int(x) for x in lengths]
    if len(lengths) < 4 or any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise BaselineError("need >= 4 strictly increasing lengths")
    if lengths[0] < 1 or lengths[-1] < 8 * lengths[0]:
        raise BaselineError("lengths must be >= 1 and span at least an 8x range")
    if not 5 <= trials <= MAX_TRIALS:
        raise BaselineError(f"need 5 to {MAX_TRIALS} trials, got {trials}")
    if kind not in ("le", "bigru", "te"):
        raise BaselineError(f"unknown benchmark kind {kind!r}")
    d = {"le": 512, "bigru": training.TrainConfig.d, "te": 32}[kind] if d is None else d
    m = (4 if kind == "te" else 8) if heads is None else heads
    if min(batch, d, m, seed + 1) < 1:
        raise BaselineError(f"batch, dim and heads must be >= 1 and seed >= 0, got "
                            f"batch={batch}, dim={d}, heads={m}, seed={seed}")
    # the weights, batch, scores and BiGRU buffers (~24h a position), bounded before allocation
    L, h = lengths[-1], training.TrainConfig.h
    lama = dict(d=d, h=h, m=m, ctx=CTX_LEARNED, encoder=kind, mlp_hidden=512)
    try:
        floats = (model.param_layout(param_shapes(BENCH_VOCAB, 2, **lama))[1]
                  if kind != "te" else 4 * d * d)
    except ValueError as exc:
        raise BaselineError(f"an {kind} benchmark at dim={d}, heads={m}: {exc}") from None
    floats += batch * L * (d + m * (L if kind == "te" else 1) + 24 * h * (kind == "bigru"))
    if floats > MAX_PARAMS:
        raise BaselineError(f"a {kind} benchmark at dim={d}, heads={m}, batch={batch} "
                            f"and length {L} holds {floats} floats, over {MAX_PARAMS}")

    rng = np.random.Generator(np.random.PCG64(seed))
    dims = {"d" if kind != "te" else "d_model": d, "heads": m, "batch": batch}
    if kind != "te":
        params = model.init_model(BENCH_VOCAB, 2, rng, **lama)
        draw = lambda length: Document(rng.integers(2, BENCH_VOCAB, size=length), length, 0)
        run = lambda docs: model.forward_batch(
            params, params.store.nodes(requires_grad=False), docs)
    else:
        params = init_te_params(d, rng)
        draw = lambda length: rng.standard_normal((length, d)).astype(np.float32)
        run = lambda docs: [sdpa_forward(X, params, m) for X in docs]

    resolution = time.get_clock_info("perf_counter").resolution
    rows = []
    for length in lengths:
        docs = [draw(length) for _ in range(batch)]
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
