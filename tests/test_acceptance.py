"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import time

import numpy as np
import pytest
from oracles import cross_entropy, grad_check, padded_A, single_head_scores

from lama import autodiff as ad
from lama import model as mdl
from lama.attention import attend, lama_scores, word_transform
from lama.baseline import TeConfig, bench_runtime, lama_param_count, te_param_count
from lama.classifier import disagreement_embeddings, disagreement_positions
from lama.model import forward_doc
from lama.synthetic import make_task
from lama.training import Checkpoint, TrainConfig, train


def verdict(number, name, ok, detail):
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. rank-1 factorization equals the dense bilinear oracle
# ---------------------------------------------------------------------------

def test_criterion_1_rank1_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(120):
        T = int(rng.integers(1, 33))
        h = int(rng.integers(1, 17))
        m = int(rng.integers(1, 9))
        d_ann = 2 * h
        H = ad.leaf(rng.standard_normal((T, d_ann)))
        W_w = ad.leaf(rng.standard_normal((d_ann, d_ann)) * 0.5)
        b_w = ad.leaf(rng.standard_normal((d_ann, 1)) * 0.5)
        c = ad.leaf(rng.standard_normal((d_ann, 1)))
        P = ad.leaf(rng.standard_normal((d_ann, m)))
        Q = ad.leaf(rng.standard_normal((d_ann, m)))
        U = word_transform(H, W_w, b_w)
        F = lama_scores(U, c, P, Q)
        for i in range(m):
            dense = ad.leaf(np.outer(P.value[:, i], Q.value[:, i]))
            f, _ = single_head_scores(U, c, dense)
            worst = max(worst, float(np.abs(F.value[i] - f.value[0]).max()))
    elapsed = time.perf_counter() - started
    verdict(1, "rank-1 oracle equivalence", worst < 1e-6 and elapsed < 10,
            f"max |factorized - dense| = {worst:.2e} over 120 instances, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. end-to-end gradient check (64-bit, every regularizer)
# ---------------------------------------------------------------------------

def test_criterion_2_end_to_end_gradient_check():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    params = mdl.init_model(vocab_size=12, num_classes=3, rng=rng, d=6, h=3,
                            m=3, mlp_hidden=8, dropout=0.0, dtype=np.float64)
    # a generic random point: the symmetric init leaves gate gradients small
    # enough to drown in finite-difference noise
    params.store.buffer[...] = rng.uniform(-0.6, 0.6, size=params.store.buffer.size)
    ids = np.array([2, 5, 7, 3, 9, 4])
    names = params.store.names()
    worst = 0.0
    for kind in ("none", "positions", "embeddings"):
        def builder(leaves):
            nodes = dict(zip(names, leaves))
            fw = forward_doc(params, nodes, ids)
            return mdl.doc_objective(fw, 2, kind, 0.2)

        report = grad_check(builder, [params.store[n] for n in names],
                            step=1e-5, tolerance=1e-5)
        worst = max(worst, report.worst())
        assert report.passed, (kind, report.max_rel_errors)
    elapsed = time.perf_counter() - started
    verdict(2, "end-to-end gradient check", worst < 1e-5 and elapsed < 60,
            f"max relative error {worst:.2e} at 64-bit, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. parameter accounting
# ---------------------------------------------------------------------------

def test_criterion_3_parameter_accounting():
    started = time.perf_counter()
    d_ann = 512
    h = d_ann // 2
    count = lambda m: lama_param_count(100, h, m, 50000, 1024, 5,
                                       include_classifier=False).total
    marginals_exact = all(count(m + 1) - count(m) == 2 * d_ann
                          for m in range(1, 65))

    grid = (2, 4, 8, 16, 32, 64)
    totals = [count(m) for m in grid]
    deltas = [(b - a) / 1e6 for a, b in zip(totals, totals[1:])]
    published = [0.002, 0.004, 0.009, 0.016, 0.034]
    # published deltas are differences of 0.001M-rounded totals (+-0.001),
    # and the table's last row is off by a further ~0.0002 from any
    # constant-base linear model, hence the 1.5-unit bound
    deltas_ok = all(abs(d - p) <= 0.0015 + 1e-12 for d, p in zip(deltas, published))

    te_totals = {m: te_param_count(TeConfig(d_model=512, heads=m), 50000, 5).total
                 for m in grid}
    te_constant = len(set(te_totals.values())) == 1
    elapsed = time.perf_counter() - started
    verdict(3, "parameter accounting",
            marginals_exact and deltas_ok and te_constant and elapsed < 1,
            f"marginal = {2 * d_ann}/head exact; deltas "
            + "/".join(f"{d:.3f}" for d in deltas)
            + f" vs published 0.002/0.004/0.009/0.016/0.034; TE constant, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. complexity scaling
# ---------------------------------------------------------------------------

def test_criterion_4_complexity_scaling():
    started = time.perf_counter()
    lengths = [64, 128, 256, 512, 1024]
    le = bench_runtime("le", lengths, trials=5)
    te = bench_runtime("te", lengths, trials=5)
    elapsed = time.perf_counter() - started
    ok = 0.6 < le.slope < 1.4 and 1.6 < te.slope < 2.4 and elapsed < 300
    verdict(4, "complexity scaling", ok,
            f"LE slope {le.slope:.2f} in (0.6, 1.4); TE slope {te.slope:.2f} "
            f"in (1.6, 2.4); {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. normalization and masking invariants
# ---------------------------------------------------------------------------

def test_criterion_5_normalization_invariants():
    started = time.perf_counter()
    rng = np.random.default_rng(105)
    worst_row_sum = 0.0
    for _ in range(40):
        T = int(rng.integers(1, 40))
        h = int(rng.integers(1, 12))
        m = int(rng.integers(1, 9))
        d_ann = 2 * h
        out = attend(ad.leaf(rng.standard_normal((T, d_ann))),
                     ad.leaf(rng.standard_normal((d_ann, 1))),
                     ad.leaf(rng.standard_normal((d_ann, d_ann)) * 0.5),
                     ad.leaf(rng.standard_normal((d_ann, 1)) * 0.5),
                     ad.leaf(rng.standard_normal((d_ann, m))),
                     ad.leaf(rng.standard_normal((d_ann, m))))
        A = padded_A(out, T + int(rng.integers(0, 6)))
        sums = A[:, :T].sum(axis=1)
        worst_row_sum = max(worst_row_sum, float(np.abs(sums - 1.0).max()))
        assert (A[:, T:] == 0.0).all()

    # appending PAD ids to a document leaves every output bit-identical
    bit_identical = True
    for seed in range(10):
        rng_m = np.random.default_rng(200 + seed)
        params = mdl.init_model(vocab_size=15, num_classes=2, rng=rng_m,
                                d=8, h=4, m=3, mlp_hidden=8)
        nodes = params.store.nodes()
        L = int(rng_m.integers(1, 9))
        ids = rng_m.integers(2, 15, size=L)
        padded = np.concatenate([ids, np.zeros(4, dtype=np.int64)])
        a = forward_doc(params, nodes, ids)
        b = forward_doc(params, nodes, padded, true_length=L)
        bit_identical &= np.array_equal(a.probs.value, b.probs.value)
        bit_identical &= np.array_equal(a.attn.A_valid.value, b.attn.A_valid.value)
        bit_identical &= np.array_equal(a.attn.S.value, b.attn.S.value)
    elapsed = time.perf_counter() - started
    ok = worst_row_sum < 1e-5 and bit_identical and elapsed < 30
    verdict(5, "normalization invariants", ok,
            f"max |row sum - 1| = {worst_row_sum:.2e}; padded cols exactly 0; "
            f"padding extension bit-identical; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. learnability
# ---------------------------------------------------------------------------

def bow_logistic_accuracy(train_set, valid_set, vocab_size, steps=300, lr=0.5):
    """Independent bag-of-words logistic-regression oracle."""
    def features(ds):
        X = np.zeros((len(ds.documents), vocab_size))
        y = np.zeros(len(ds.documents), dtype=int)
        for i, doc in enumerate(ds.documents):
            for t in doc.valid_ids():
                X[i, t] += 1.0
            y[i] = doc.label
        return X, y

    Xtr, ytr = features(train_set)
    Xva, yva = features(valid_set)
    w = np.zeros(vocab_size)
    b = 0.0
    for _ in range(steps):
        z = Xtr @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        g = p - ytr
        w -= lr * (Xtr.T @ g) / len(ytr)
        b -= lr * g.mean()
    pred = (Xva @ w + b) > 0
    return float((pred == yva).mean())


def test_criterion_6_learnability():
    started = time.perf_counter()
    # keyword task at the published hyperparameter defaults
    train_set, valid_set, vocab = make_task("keyword", 200, 100, seed=1)
    oracle_acc = bow_logistic_accuracy(train_set, valid_set, len(vocab))
    assert oracle_acc >= 0.95, f"oracle says task not separable: {oracle_acc}"
    cfg = TrainConfig(m=2, max_epochs=20, seed=7, max_len=32)
    assert (cfg.d, cfg.h, cfg.batch, cfg.lr, cfg.momentum,
            cfg.weight_decay, cfg.dropout) == (100, 50, 32, 0.05, 0.9, 0.0001, 0.4)
    _, hist = train(cfg, train_set, valid_set, vocab)
    keyword_acc = max(r.valid_acc for r in hist.records)

    # multi-aspect task: several heads beat one (RNN-free variant isolates
    # the attention mechanism and keeps the 5-seed comparison fast)
    tr2, va2, vocab2 = make_task("multi-aspect", 150, 100, seed=2)
    means = {}
    for m in (1, 4):
        accs = []
        for seed in range(5):
            cfg2 = TrainConfig(d=24, h=12, m=m, max_epochs=20, patience=20,
                               seed=seed, max_len=40, mlp_hidden=48, encoder="le")
            _, h2 = train(cfg2, tr2, va2, vocab2)
            accs.append(max(r.valid_acc for r in h2.records))
        means[m] = float(np.mean(accs))
    elapsed = time.perf_counter() - started
    ok = keyword_acc >= 0.95 and means[4] >= means[1] and elapsed < 300
    verdict(6, "learnability", ok,
            f"keyword {keyword_acc:.3f} >= 0.95 within 20 epochs (oracle "
            f"{oracle_acc:.2f}); multi-aspect mean acc m=4 {means[4]:.3f} >= "
            f"m=1 {means[1]:.3f} over 5 seeds; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. disagreement regularizer shrinks attention overlap
# ---------------------------------------------------------------------------

def mean_overlap(params, dataset):
    nodes = params.store.nodes()
    vals = []
    for doc in dataset.documents:
        fw = forward_doc(params, nodes, doc.ids, doc.true_length, train=False)
        A = fw.attn.A_valid.value
        vals.append(float(((A @ A.T - np.eye(A.shape[0])) ** 2).sum()))
    return float(np.mean(vals))


def test_criterion_7_regularizer_effect():
    started = time.perf_counter()
    train_set, valid_set, vocab = make_task("multi-aspect", 120, 60, seed=3)
    wins = 0
    rows = []
    for seed in range(5):
        overlap = {}
        for lam in (0.0, 0.2):
            cfg = TrainConfig(d=24, h=12, m=4, max_epochs=15, patience=15,
                              seed=seed, max_len=40, mlp_hidden=48, encoder="le",
                              lr=0.02, regularizer="positions", lam=lam)
            ckpt, _ = train(cfg, train_set, valid_set, vocab, snapshot="final")
            overlap[lam] = mean_overlap(ckpt.params, valid_set)
        wins += overlap[0.2] < overlap[0.0]
        rows.append(f"{overlap[0.0]:.3f}->{overlap[0.2]:.3f}")
    elapsed = time.perf_counter() - started
    verdict(7, "regularizer effect", wins >= 4 and elapsed < 300,
            f"||AA^T - I||_F^2 smaller with lambda=0.2 for {wins}/5 seeds "
            f"({', '.join(rows)}); {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. loss constants
# ---------------------------------------------------------------------------

def test_criterion_8_loss_constants():
    uniform = ad.leaf(np.full((4, 1), 0.25))
    onehot = ad.leaf(np.eye(4)[1].reshape(-1, 1))
    ce = cross_entropy(uniform, onehot).value.item()
    ce_ok = abs(ce - np.log(4)) < 1e-6

    S = ad.leaf(np.tile([[0.3, -1.2, 0.7]], (5, 1)))
    demb = disagreement_embeddings(S).value.item()
    demb_ok = abs(demb - (-1.0)) < 1e-6

    A = np.zeros((3, 6))
    A[0, 1] = A[1, 3] = A[2, 5] = 1.0
    dpen = disagreement_positions(ad.leaf(A)).value.item()
    dpen_ok = dpen == 0.0

    verdict(8, "loss constants", ce_ok and demb_ok and dpen_ok,
            f"uniform CE {ce:.8f} = log 4; identical-head D_emb {demb:.8f} = -1; "
            f"orthonormal D_penal {dpen} = 0")


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    train_set, valid_set, vocab = make_task("keyword", 64, 32, seed=11)
    cfg = TrainConfig(d=16, h=8, m=2, max_len=32, batch=16, mlp_hidden=24,
                      max_epochs=4, patience=5, seed=42)
    outs = []
    histories = []
    for run in range(2):
        ckpt, hist = train(cfg, train_set, valid_set, vocab)
        out = tmp_path / f"run{run}"
        ckpt.save(out)
        outs.append(out)
        histories.append([(r.epoch, r.train_loss, r.valid_acc) for r in hist.records])
    files_identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("weights.bin", "config.json", "vocab.txt"))
    # wall-time column exempted, as for all timing outputs
    histories_identical = histories[0] == histories[1]
    verdict(9, "determinism", files_identical and histories_identical,
            "byte-identical checkpoints; identical histories (timing column exempt)")
