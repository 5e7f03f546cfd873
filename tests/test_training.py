import json
import os
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_views_of_one_buffer, graph_nodes
from oracles import dense_grad

from lama import attention, classifier
from lama import autodiff as ad
from lama import training as tr
from lama.classifier import REGULARIZERS
from lama.model import (BLOCK, ForwardPass, batch_groups, batch_objective, doc_objective,
                        forward_batch, forward_doc, init_model)
from lama.synthetic import keyword_pairs, make_task, pairs_to_dataset
from lama.text import PAD_ID, UNK_ID, Document, build_vocab, load_dataset, tokenize
from lama.training import (Checkpoint, CheckpointError, DivergenceError, EvalMetrics,
                           LabelMismatchError, LazyRowSGD, TrainConfig, evaluate,
                           heads_sweep, sgd_step, train)


def traced_peak(fn):
    """The peak of the memory traced while ``fn`` runs, in bytes; numpy
    reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def step(p, g, v, **kw):
    """sgd_step on copies; returns the new parameter and velocity."""
    p, v = p.copy(), v.copy()
    sgd_step(p, g.copy(), v, **kw)
    return p, v


class TestSgdStep:
    def test_vanilla_step_without_momentum_or_decay(self):
        p = np.array([[1.0, 2.0]])
        g = np.array([[0.5, -0.5]])
        new_p, new_v = step(p, g, np.zeros_like(p), lr=0.1, momentum=0.0,
                            weight_decay=0.0)
        np.testing.assert_allclose(new_p, [[0.95, 2.05]])
        np.testing.assert_allclose(new_v, g)

    def test_zero_grad_zero_velocity_leaves_param(self):
        p = np.array([[3.0]])
        new_p, _ = step(p, np.zeros_like(p), np.zeros_like(p),
                        lr=0.5, momentum=0.9, weight_decay=0.0)
        np.testing.assert_array_equal(new_p, p)

    def test_two_momentum_steps_accumulate(self):
        p = np.zeros((1, 1))
        v = np.zeros_like(p)
        for _ in range(2):
            sgd_step(p, np.full((1, 1), 2.0), v, lr=1.0, momentum=0.9, weight_decay=0.0)
        # displacement g then 1.9 g
        np.testing.assert_allclose(p, [[-2.0 - 3.8]])
        np.testing.assert_allclose(v, [[3.8]])

    def test_weight_decay_added_to_gradient(self):
        p = np.array([[10.0]])
        new_p, _ = step(p, np.zeros_like(p), np.zeros_like(p),
                        lr=0.1, momentum=0.0, weight_decay=0.01)
        np.testing.assert_allclose(new_p, [[10.0 - 0.1 * 0.1]])

    def test_bit_identical_to_out_of_place_formula(self, shape=(50, 20)):
        # the in-place ops run in the order of v <- mu v + (g + wd p);
        # p <- p - lr v written with fresh arrays, so every bit matches,
        # block by block
        rng = np.random.default_rng(7)
        lr, mu, wd = 0.05, 0.9, 1e-4
        p = rng.standard_normal(shape).astype(np.float32)
        v = np.zeros_like(p)
        ref_p, ref_v = p.copy(), v.copy()
        for _ in range(6):
            g = rng.standard_normal(p.shape).astype(np.float32)
            ref_v = mu * ref_v + (g + wd * ref_p)
            ref_p = ref_p - lr * ref_v
            sgd_step(p, g, v, lr, mu, wd)
            assert p.dtype == v.dtype == np.float32
            assert p.tobytes() == ref_p.tobytes() and v.tobytes() == ref_v.tobytes()

    @pytest.mark.parametrize("shape", [(3000, 50), (2 * BLOCK + 3,)],
                             ids=["rows-over-blocks", "flat-over-blocks"])
    def test_bit_identical_over_several_blocks(self, shape):
        self.test_bit_identical_to_out_of_place_formula(shape)

    def test_temporaries_stay_within_a_block(self):
        rng = np.random.default_rng(8)
        p, g, v = (rng.standard_normal(16 * BLOCK).astype(np.float32) for _ in range(3))
        peak = traced_peak(lambda: sgd_step(p, g, v, 0.05, 0.9, 1e-4))
        assert peak < p.nbytes / 4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(Exception, match="sgd_step"):
            sgd_step(np.ones((2, 2)), np.ones((2, 3)), np.ones((2, 2)),
                     0.1, 0.9, 0.0)


class TestLazyRowSGD:
    def test_catch_up_of_every_row_walks_blocks_with_the_row_formula(self):
        # 2^21 values, 32 blocks; stale rows (owing 1 to 7 steps) and
        # current ones are mixed within each block
        rng = np.random.default_rng(12)
        shape = (2**14, 128)
        value = rng.standard_normal(shape).astype(np.float32)
        velocity = rng.standard_normal(shape).astype(np.float32)
        last = rng.integers(0, 8, size=shape[0])
        tables = []
        for _ in range(2):
            lazy = LazyRowSGD(value.copy(), 0.05, 0.9, 1e-4)
            lazy.velocity[:] = velocity
            lazy.last[:] = last
            lazy.steps = 7
            tables.append(lazy)
        blocked, by_rows = tables
        by_rows.catch_up(np.arange(shape[0]))
        peak = traced_peak(blocked.catch_up)
        assert blocked.value.tobytes() == by_rows.value.tobytes()
        assert blocked.velocity.tobytes() == by_rows.velocity.tobytes()
        assert (blocked.last == 7).all() and (value != blocked.value).any()
        assert peak < value.nbytes / 4

    def test_equals_dense_steps_in_float64(self):
        # random row gradients with repeats; the last rows and PAD are never
        # touched, and rows are read (caught up) at arbitrary steps
        rng = np.random.default_rng(13)
        lr, mu, wd = 0.05, 0.9, 0.01
        p = rng.standard_normal((40, 5))
        p[PAD_ID] = 0.0
        v = np.zeros_like(p)
        lazy = LazyRowSGD(p.copy(), lr, mu, wd)
        for _ in range(60):
            read = rng.choice(40, size=int(rng.integers(1, 8)))
            lazy.catch_up(np.unique(read))
            np.testing.assert_allclose(lazy.value[read], p[read], rtol=1e-10)
            np.testing.assert_allclose(lazy.velocity[read], v[read], rtol=1e-10)
            if rng.random() < 0.1:
                lazy.catch_up()
                np.testing.assert_allclose(lazy.value, p, rtol=1e-10)
            ids = rng.integers(1, 30, size=int(rng.integers(1, 12)))
            values = rng.standard_normal((ids.size, 5))
            g = np.zeros_like(p)
            np.add.at(g, ids, values)
            sgd_step(p, g, v, lr, mu, wd)
            groups = ad.group_ids(ids)
            lazy.step(groups.unique, *lazy.gather(groups.unique), groups.sum(values))
        lazy.catch_up()
        np.testing.assert_allclose(lazy.value, p, rtol=1e-10)
        np.testing.assert_allclose(lazy.velocity, v, rtol=1e-10)
        assert not lazy.value[PAD_ID].any() and not lazy.velocity[PAD_ID].any()

    def test_touched_rows_take_the_dense_step_bits(self):
        # rows current before the step get sgd_step's ops on the summed rows
        rng = np.random.default_rng(14)
        p = rng.standard_normal((6, 3)).astype(np.float32)
        v = rng.standard_normal((6, 3)).astype(np.float32)
        lazy = LazyRowSGD(p.copy(), 0.05, 0.9, 1e-4)
        lazy.velocity[:] = v
        ids = np.array([4, 1, 4])
        values = rng.standard_normal((3, 3)).astype(np.float32)
        groups = ad.group_ids(ids)
        lazy.step(groups.unique, *lazy.gather(groups.unique), groups.sum(values))
        g = np.zeros_like(p)
        np.add.at(g, ids, values)
        sgd_step(p, g, v, 0.05, 0.9, 1e-4)
        assert lazy.value[[1, 4]].tobytes() == p[[1, 4]].tobytes()
        assert lazy.velocity[[1, 4]].tobytes() == v[[1, 4]].tobytes()
        assert (lazy.last == [0, 1, 0, 0, 1, 0]).all()


@pytest.fixture(scope="module")
def keyword_task():
    return make_task("keyword", 64, 32, seed=11)


def small_config(**overrides):
    kw = dict(d=16, h=8, m=2, max_len=32, batch=16, mlp_hidden=24,
              max_epochs=3, patience=5, seed=0)
    kw.update(overrides)
    return TrainConfig(**kw)


class TestTrainConfig:
    @pytest.mark.parametrize("name", ["d", "h", "m", "max_len", "batch", "patience",
                                      "mlp_hidden", "max_epochs", "seed"])
    @pytest.mark.parametrize("value", [2.0, 2.5, True, np.int64(2), "2", None])
    def test_integer_fields_take_only_ints(self, name, value):
        # a float or a bool would reach a shape, a count or a seed
        with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
            small_config(**{name: value})

    @pytest.mark.parametrize("name", ["lr", "momentum", "weight_decay", "dropout", "lam"])
    @pytest.mark.parametrize("value", [True, False, "0.1", None, [0.1]])
    def test_real_fields_take_only_real_numbers(self, name, value):
        # a bool is an int to isinstance, and a string would reach
        # math.isfinite's TypeError
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
            small_config(**{name: value})

    @pytest.mark.parametrize("value", [0, np.float32(0.25), np.float64(0.5)])
    def test_real_fields_take_ints_and_numpy_floats(self, value):
        assert small_config(dropout=value, lam=value).lam == value

    def test_config_validation(self):
        # the objective's settings are checked here and nowhere else
        with pytest.raises(ValueError):
            TrainConfig(regularizer="sideways")
        with pytest.raises(ValueError):
            TrainConfig(lam=-0.1)


class TestFlatBuffer:
    @pytest.mark.parametrize("snapshot", ["best", "final"])
    def test_trained_tensors_stay_views_of_the_buffer(self, keyword_task, snapshot):
        train_set, valid_set, vocab = keyword_task
        ckpt, _ = train(small_config(), train_set, valid_set, vocab, snapshot=snapshot)
        assert_views_of_one_buffer(ckpt.params.store)

    def test_loaded_tensors_are_views_of_the_buffer(self, tmp_path, keyword_task):
        train_set, valid_set, vocab = keyword_task
        ckpt, _ = train(small_config(), train_set, valid_set, vocab)
        ckpt.save(tmp_path / "ckpt")
        assert_views_of_one_buffer(Checkpoint.load(tmp_path / "ckpt").params.store)

    @pytest.mark.parametrize("encoder", ["bigru", "le"])
    def test_two_sgd_steps_per_batch(self, keyword_task, monkeypatch, encoder):
        # one over the dense parameters, one in LazyRowSGD.step for W_e's rows
        train_set, valid_set, vocab = keyword_task
        calls = []
        monkeypatch.setattr(tr, "sgd_step", lambda *a: calls.append(a[0].size) or sgd_step(*a))
        cfg = small_config(encoder=encoder, max_epochs=2)
        store = tr._fresh_model(cfg, len(vocab), 2, np.random.default_rng(0)).store
        dense = store.buffer.size - store["W_e"].size
        _, history = train(cfg, train_set, valid_set, vocab)
        batches = len(history.records) * -(-len(train_set) // cfg.batch)
        assert len(calls) == 2 * batches
        assert calls.count(dense) == batches

    def test_two_improving_epochs_hold_one_snapshot(self):
        # W_e is nearly all of the buffer; a run holds the buffer, W_e's
        # velocity, one snapshot and its last-step counters (int64 per row),
        # plus one block in the whole-table passes. A second snapshot would
        # add a buffer
        pairs = keyword_pairs(64, seed=11)
        words = build_vocab([tokenize(t) for _, t in pairs], min_count=1).id_to_token
        tokens = words + [f"unused{i}" for i in range(200_000 - len(words))]
        vocab = tr.Vocab({t: i for i, t in enumerate(tokens)}, tokens)
        train_set = pairs_to_dataset(pairs, vocab, 32)
        valid_set = pairs_to_dataset(keyword_pairs(16, seed=12), vocab, 32,
                                     label_names=train_set.label_names, split="valid")
        cfg = small_config(encoder="le", d=8, m=1, mlp_hidden=4, max_epochs=4, patience=4)
        runs = []
        peak = traced_peak(lambda: runs.append(train(cfg, train_set, valid_set, vocab)))
        ckpt, history = runs[0]
        accs = [r.valid_acc for r in history.records]
        improving = [a > max(accs[:i], default=-1.0) for i, a in enumerate(accs)]
        assert sum(improving) >= 2, accs
        buffer = ckpt.params.store.buffer.nbytes
        assert peak < 3 * buffer + 8 * len(vocab) + buffer / 2


class TestTrainLoop:
    def test_same_seed_bit_identical_history_and_weights(self, keyword_task):
        train_set, valid_set, vocab = keyword_task
        runs = []
        for _ in range(2):
            ckpt, hist = train(small_config(), train_set, valid_set, vocab)
            runs.append((ckpt, hist))
        h1, h2 = runs[0][1], runs[1][1]
        assert [(r.epoch, r.train_loss, r.valid_acc) for r in h1.records] == \
               [(r.epoch, r.train_loss, r.valid_acc) for r in h2.records]
        np.testing.assert_array_equal(runs[0][0].params.store.buffer,
                                      runs[1][0].params.store.buffer)

    def test_pad_embedding_row_stays_zero(self, keyword_task):
        train_set, valid_set, vocab = keyword_task
        ckpt, _ = train(small_config(), train_set, valid_set, vocab)
        np.testing.assert_array_equal(ckpt.params.store["W_e"][PAD_ID], 0.0)

    def test_literal_pad_token_leaves_pad_row_zero(self):
        # a "<pad>" in the text encodes to UNK_ID, never to PAD_ID, so no
        # gradient reaches the PAD row and momentum and decay keep it zero
        pairs = keyword_pairs(64, seed=11)
        pairs[0] = (pairs[0][0], "<pad> " + pairs[0][1])
        pairs[1] = (pairs[1][0], pairs[1][1] + " <pad> <unk>")
        vocab = build_vocab((tokenize(t) for _, t in pairs), min_count=2)
        train_set = pairs_to_dataset(pairs, vocab)
        valid_set = pairs_to_dataset(keyword_pairs(16, seed=12), vocab,
                                     label_names=train_set.label_names)
        assert train_set.documents[0].ids[0] == UNK_ID
        for encoder in ("bigru", "le"):
            ckpt, _ = train(small_config(encoder=encoder), train_set, valid_set, vocab)
            np.testing.assert_array_equal(ckpt.params.store["W_e"][PAD_ID], 0.0)

    def test_final_snapshot_catches_up_never_read_rows(self):
        # a vocabulary row that no document reads only decays; after train
        # returns it has taken every step, as the dense update would
        pairs = keyword_pairs(64, seed=11)
        vocab = build_vocab([tokenize(t) for _, t in pairs] + [["zzunread"] * 2], min_count=2)
        train_set = pairs_to_dataset(pairs, vocab)
        valid_set = pairs_to_dataset(keyword_pairs(16, seed=12), vocab,
                                     label_names=train_set.label_names)
        row = vocab.lookup("zzunread")
        cfg = small_config(encoder="le", weight_decay=0.01)
        ckpt, hist = train(cfg, train_set, valid_set, vocab, snapshot="final")
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        p = tr._fresh_model(cfg, len(vocab), 2, rng).store["W_e"][row].astype(np.float64)
        v = np.zeros_like(p)
        for _ in range(len(hist.records) * -(-len(train_set) // cfg.batch)):
            v = cfg.momentum * v + cfg.weight_decay * p
            p = p - cfg.lr * v
        np.testing.assert_allclose(ckpt.params.store["W_e"][row], p, rtol=1e-5)

    @pytest.mark.parametrize("snapshot", ["best", "final"])
    @pytest.mark.parametrize(("encoder", "ctx"), [
        pytest.param("bigru", "learned", id="bigru"), pytest.param("le", "learned", id="le"),
        pytest.param("le", "doc-mean", id="le-doc-mean")])
    def test_lazy_embedding_update_equals_dense_update(self, keyword_task, monkeypatch,
                                                       encoder, ctx, snapshot):
        # the same run with W_e stepped densely, every row every step: the
        # gathered rows need no catch-up, and the others take g = 0
        class DenseRows(LazyRowSGD):
            def catch_up(self, rows=None):
                pass

            def step(self, rows, p, v, g):
                dense = np.zeros_like(self.value)
                dense[rows] = g
                sgd_step(self.value, dense, self.velocity, *self.hyper)

        train_set, valid_set, vocab = keyword_task
        cfg = small_config(encoder=encoder, ctx=ctx, weight_decay=0.01, max_epochs=4)
        lazy, lazy_hist = train(cfg, train_set, valid_set, vocab, snapshot=snapshot)
        monkeypatch.setattr(tr, "LazyRowSGD", DenseRows)
        dense, dense_hist = train(cfg, train_set, valid_set, vocab, snapshot=snapshot)
        assert lazy_hist.best_epoch == dense_hist.best_epoch
        np.testing.assert_allclose([r.train_loss for r in lazy_hist.records],
                                   [r.train_loss for r in dense_hist.records], rtol=1e-5)
        for name, p_lazy in lazy.params.store.items():
            np.testing.assert_allclose(p_lazy, dense.params.store[name], rtol=1e-4, atol=1e-6,
                                       err_msg=name)

    def test_every_row_a_forward_pass_reads_is_current(self, monkeypatch):
        # training batches and the per-epoch validation read only rows that
        # have taken every step so far; a batch reads about half the rows
        steppers, stale = [], []

        class Recorded(LazyRowSGD):
            def __init__(self, *args):
                super().__init__(*args)
                steppers.append(self)

        def checked_forward_batch(params, nodes, docs, *args, **kw):
            ids = np.concatenate([doc.valid_ids() for doc in docs]).astype(int)
            stale.append(int((steppers[-1].last[ids] < steppers[-1].steps).sum()))
            return forward_batch(params, nodes, docs, *args, **kw)

        monkeypatch.setattr(tr, "LazyRowSGD", Recorded)
        monkeypatch.setattr(tr, "forward_batch", checked_forward_batch)
        vocab = build_vocab([[f"w{i}" for i in range(198)]], min_count=1)
        docs = mixed_docs(np.random.default_rng(16), 96, vocab_size=len(vocab))
        train(small_config(encoder="le", max_epochs=2), tr.Dataset(docs[:64], ["a", "b", "c"]),
              tr.Dataset(docs[64:], ["a", "b", "c"]), vocab)
        assert len(stale) == 2 * (64 // 16 + 1) and not any(stale)

    @pytest.mark.parametrize("encoder", ["bigru", "le"])
    def test_more_heads_than_words(self, encoder):
        # m = 8 heads over documents of 1 to 12 words, single words included
        rng = np.random.default_rng(15)
        vocab = build_vocab([[f"w{i}" for i in range(28)]], min_count=1)
        docs = mixed_docs(rng, 48, vocab_size=len(vocab))
        train_set = tr.Dataset(docs, ["a", "b", "c"], "train")
        valid_set = tr.Dataset(docs[:16], ["a", "b", "c"], "valid")
        ckpt, hist = train(small_config(encoder=encoder, m=8, max_epochs=2),
                           train_set, valid_set, vocab)
        assert all(np.isfinite(r.train_loss) for r in hist.records)
        for chunk, fw in tr.forward_chunks(ckpt.params, docs):
            lengths = [doc.true_length for doc in chunk]
            sums = np.add.reduceat(fw.attn.A_valid.value, np.cumsum(lengths) - lengths, axis=1)
            np.testing.assert_allclose(sums, 1.0, rtol=1e-5)

    def test_single_class_train_set_rejected(self, keyword_task):
        train_set, valid_set, vocab = keyword_task
        pos = [doc for doc in train_set.documents if doc.label == 0]
        one_class = tr.Dataset(pos, train_set.label_names, "train")
        name = train_set.label_names[0]
        with pytest.raises(tr.TrainingError, match=f"one class only: '{name}'"):
            train(small_config(), one_class, valid_set, vocab)
        with pytest.raises(tr.TrainingError, match="training set is empty"):
            train(small_config(), tr.Dataset([], train_set.label_names), valid_set, vocab)

    def test_early_stopping_plateau_runs_patience_more_epochs(self, keyword_task):
        # seeded dropout/shuffle makes accuracy wiggle; force a plateau by
        # patience on a task learned to 1.0 quickly
        train_set, valid_set, vocab = keyword_task
        cfg = small_config(d=24, h=12, m=2, max_epochs=30, patience=3, seed=1)
        ckpt, hist = train(cfg, train_set, valid_set, vocab)
        best = hist.best_epoch
        assert len(hist.records) < 30
        assert len(hist.records) == best + 3
        accs = [r.valid_acc for r in hist.records]
        assert max(accs) == accs[best - 1]
        assert all(a <= accs[best - 1] for a in accs[best:])

    def test_best_checkpoint_ties_broken_by_earliest(self, keyword_task):
        train_set, valid_set, vocab = keyword_task
        cfg = small_config(d=24, h=12, max_epochs=12, patience=12, seed=3)
        ckpt, hist = train(cfg, train_set, valid_set, vocab)
        accs = [r.valid_acc for r in hist.records]
        assert hist.best_epoch == int(np.argmax(accs)) + 1  # argmax takes first max

    def test_divergence_raises_with_location(self, keyword_task):
        train_set, valid_set, vocab = keyword_task
        cfg = small_config(lr=200.0, weight_decay=0.05, max_epochs=50)
        with pytest.raises(DivergenceError, match="epoch"):
            train(cfg, train_set, valid_set, vocab)

    def test_divergence_in_an_epochs_last_step_names_that_batch(self):
        # one batch per epoch: its step overflows the weights, and the first
        # op to read them is the epoch's validation
        train_set, valid_set, vocab = make_task("keyword", 32, 8, seed=1)
        cfg = TrainConfig(d=16, h=8, m=2, max_len=32, batch=32, mlp_hidden=24, lr=1e30,
                          max_epochs=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning only repeats it
            with pytest.raises(DivergenceError,
                               match=r"^training diverged at epoch 1, batch 0: gru_scan: "):
                train(cfg, train_set, valid_set, vocab)

    def test_overflowing_step_is_divergence_not_a_warning(self):
        # lr = 1e39 overflows float32 in the first dense step's cast; the
        # step is inside the epoch's boundary, so the next batch's read of
        # the weights names it, not numpy's RuntimeWarning
        train_set, valid_set, vocab = make_task("keyword", 64, 8, seed=1)
        cfg = TrainConfig(d=16, h=8, m=2, max_len=32, batch=32, mlp_hidden=24, lr=1e39,
                          max_epochs=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError,
                               match=r"^training diverged at epoch 1, batch 1: "):
                train(cfg, train_set, valid_set, vocab)

    def test_empty_validation_rejected(self, keyword_task):
        train_set, _, vocab = keyword_task
        empty = tr.Dataset([], train_set.label_names, "valid")
        with pytest.raises(tr.TrainingError):
            train(small_config(), train_set, empty, vocab)

    def test_loss_decreases_after_one_step_across_seeds(self, keyword_task):
        train_set, valid_set, vocab = keyword_task
        decreased = 0
        for seed in range(10):
            cfg = small_config(seed=seed, max_epochs=1, batch=64)
            before_after = []
            for epochs in (0, 1):
                # epoch 0: evaluate the fresh model's mean objective
                rng = np.random.Generator(np.random.PCG64(seed))
                params = tr._fresh_model(cfg, len(vocab), 2, rng)
                if epochs:
                    ckpt, _ = train(cfg, train_set, valid_set, vocab,
                                    snapshot="final")
                    params = ckpt.params
                nodes = params.store.nodes()
                total = 0.0
                for doc in train_set.documents[:64]:
                    fw = forward_doc(params, nodes, doc.ids, doc.true_length)
                    total += doc_objective(fw, doc.label, "none", 0.2).value.item()
                before_after.append(total / 64)
            decreased += before_after[1] < before_after[0]
        assert decreased >= 8

    def test_snapshot_validation(self, keyword_task):
        train_set, valid_set, vocab = keyword_task
        with pytest.raises(ValueError):
            train(small_config(), train_set, valid_set, vocab, snapshot="median")


class TestPretrained:
    def test_misses_keep_the_plain_init_and_pad_row_stays_zero(self, keyword_task):
        _, _, vocab = keyword_task
        ids = np.array([5, 2, 9])
        rows = np.arange(3 * 16, dtype=np.float32).reshape(3, 16)
        plain = tr._fresh_model(small_config(), len(vocab), 2, np.random.default_rng(4))
        pre = tr._fresh_model(small_config(), len(vocab), 2, np.random.default_rng(4),
                              (ids, rows))
        expected = plain.store["W_e"].copy()
        expected[ids] = rows
        assert pre.store["W_e"].tobytes() == expected.tobytes()
        np.testing.assert_array_equal(pre.store["W_e"][PAD_ID], 0.0)
        for name, value in plain.store.items():
            if name != "W_e":
                assert pre.store[name].tobytes() == value.tobytes(), name

    def test_heads_sweep_hands_the_rows_to_every_run(self, keyword_task, monkeypatch):
        seen = []
        real_train = tr.train
        monkeypatch.setattr(tr, "train", lambda *a, **kw: seen.append(kw["pretrained"])
                            or real_train(*a, **kw))
        pretrained = (np.array([2]), np.zeros((1, 16), dtype=np.float32))
        heads_sweep(small_config(max_epochs=1), [1, 2], *keyword_task, pretrained=pretrained)
        assert [p is pretrained for p in seen] == [True, True]


def ragged_docs(rng, lengths, vocab_size, num_classes, pad=3):
    """Padded documents of the given true lengths with random ids and labels."""
    return [Document(np.append(rng.integers(2, vocab_size, size=L), [PAD_ID] * pad), L,
                     int(rng.integers(num_classes)))
            for L in lengths]


# (encoder, ctx) pairs; a learned context keeps the bare encoder as its id
ENCODER_CTX = [pytest.param(encoder, ctx, id=encoder if ctx == "learned" else f"{encoder}-{ctx}")
               for ctx in ("learned", "doc-mean") for encoder in ("bigru", "le")]


class TestBatchGraph:
    @pytest.mark.parametrize(("encoder", "ctx"), ENCODER_CTX)
    @pytest.mark.parametrize("regularizer", REGULARIZERS)
    def test_batch_grads_equal_summed_doc_grads(
            self, encoder, ctx, regularizer):
        # float64, dropout off; the batch graph's leaf gradients must equal
        # those of one forward_doc graph per document, each scaled by 1/B.
        # The bound is relative to each parameter's largest gradient entry:
        # an entry that cancels has no relative precision of its own
        for seed in range(5):
            rng = np.random.default_rng(seed)
            params = init_model(vocab_size=12, num_classes=3, rng=rng, d=6, h=3, m=3,
                                mlp_hidden=8, dropout=0.0, encoder=encoder, ctx=ctx,
                                dtype=np.float64)
            params.store.buffer[...] = rng.uniform(-0.6, 0.6, size=params.store.buffer.size)
            docs = ragged_docs(rng, [3, 7, 1, 5, 9, 5], 12, 3)
            config = TrainConfig(regularizer=regularizer, lam=0.2)

            single = params.store.nodes()
            expected_loss = 0.0
            for doc in docs:
                fw = forward_doc(params, single, doc.ids, doc.true_length)
                j = doc_objective(fw, doc.label, regularizer, 0.2)
                ad.backward(ad.scale(j, 1.0 / len(docs)))
                expected_loss += j.value.item()
            batch = params.store.nodes()
            loss = tr._backward_batch(params, batch, docs, config, rng)
            assert loss == pytest.approx(expected_loss, rel=1e-12)
            for name in params.store.names():
                got, want = dense_grad(batch[name]), dense_grad(single[name])
                assert np.abs(want).max() > 0, (seed, name)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (seed, name)

    @pytest.mark.parametrize("ctx", ["learned", "doc-mean"])
    @pytest.mark.parametrize("regularizer", REGULARIZERS)
    def test_pooled_embedding_only_batch_has_the_per_position_gradients(
            self, ctx, regularizer):
        # float64, dropout off: a training batch of the embedding-only
        # encoder attends over each document's distinct tokens, weighted by
        # their counts; its loss and every gradient must be those of the
        # same batch attended position by position. Six tokens over 22
        # positions make every document but the one-word one repeat some
        for seed in range(5):
            rng = np.random.default_rng(seed)
            params = init_model(vocab_size=8, num_classes=3, rng=rng, d=6, m=3,
                                mlp_hidden=8, dropout=0.0, encoder="le", ctx=ctx,
                                dtype=np.float64)
            params.store.buffer[...] = rng.uniform(-0.6, 0.6, size=params.store.buffer.size)
            docs = ragged_docs(rng, [5, 9, 1, 7], 8, 3)
            labels = [doc.label for doc in docs]
            groups = batch_groups(docs)
            config = TrainConfig(regularizer=regularizer, lam=0.2)

            def leaves():
                return (params.store.nodes(),
                        ad.leaf(params.store["W_e"][groups.unique], requires_grad=True))

            pooled, pooled_rows = leaves()
            loss = tr._backward_batch(params, pooled, docs, config, rng, (groups, pooled_rows))
            nodes, rows = leaves()
            runs = ad.runs([doc.true_length for doc in docs])
            X = ad.expand(rows, groups)
            c = nodes["attn.c"] if ctx == "learned" else attention.doc_mean_context(X, runs)
            attn = attention.attend(X, c, nodes["attn.W_w"], nodes["attn.b_w"],
                                    nodes["attn.P"], nodes["attn.Q"], runs=runs)
            probs, logits = classifier.classify(attn.d_doc, nodes["cls.W1"], nodes["cls.b1"],
                                                nodes["cls.W_c"], nodes["cls.b_c"], 0.0,
                                                train=False)
            j = batch_objective(ForwardPass(logits, probs, attn), labels, regularizer, 0.2)
            ad.backward(ad.scale(j, 1.0 / len(docs)))
            assert loss == pytest.approx(j.value.item(), rel=1e-12)
            got = [pooled_rows.grad] + [pooled[n].grad for n in params.store.names()[1:]]
            want = [rows.grad] + [nodes[n].grad for n in params.store.names()[1:]]
            for name, g, w in zip(params.store.names(), got, want):
                assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), (seed, name)

    @pytest.mark.parametrize("encoder", ["bigru", "le"])
    @pytest.mark.parametrize("ctx", ["learned", "doc-mean"])
    @pytest.mark.parametrize("regularizer", REGULARIZERS)
    def test_every_parameter_gets_a_gradient(self, encoder, ctx, regularizer, monkeypatch):
        # train steps every parameter with its gradient, so each batch
        # graph must reach all of them; W_e's through the leaf of the batch's
        # distinct rows, which train gathers, and never through a lookup in
        # W_e itself. The padding is trimmed, so the PAD row is not gathered
        rng = np.random.default_rng(8)
        params = init_model(vocab_size=12, num_classes=3, rng=rng, d=6, h=3, m=2,
                            mlp_hidden=8, ctx=ctx, encoder=encoder)
        docs = ragged_docs(rng, [3, 1, 6], 12, 3)
        groups = batch_groups(docs)
        rows = ad.leaf(params.store["W_e"][groups.unique], requires_grad=True)
        graphs = []

        def recorded_forward_batch(*args, **kw):
            graphs.append(forward_batch(*args, **kw))
            return graphs[-1]

        monkeypatch.setattr(tr, "forward_batch", recorded_forward_batch)
        nodes = params.store.nodes()
        tr._backward_batch(params, nodes, docs, TrainConfig(regularizer=regularizer, lam=0.2),
                           rng, (groups, rows))
        for name, value in params.store.items():
            if name != "W_e":
                assert nodes[name].grad.shape == value.shape, name
        assert nodes["W_e"].grad is None and PAD_ID not in groups.unique
        assert rows.grad.shape == (groups.unique.size, 6)
        assert np.abs(rows.grad).sum(axis=1).min() > 0
        assert not any(n.op == "take_rows" for n in graph_nodes(graphs[0].logits))

    def test_dropout_masks_are_drawn_in_document_order(self):
        rng = np.random.default_rng(6)
        params = init_model(vocab_size=12, num_classes=3, rng=rng, d=6, h=3, m=2,
                            mlp_hidden=16, dropout=0.4, dtype=np.float64)
        docs = ragged_docs(rng, [4, 2, 6, 1], 12, 3)
        nodes = params.store.nodes()
        out = forward_batch(params, nodes, docs, train=True,
                            rng=np.random.Generator(np.random.PCG64(9)))
        one_by_one = np.random.Generator(np.random.PCG64(9))
        for i, doc in enumerate(docs):
            fw = forward_doc(params, nodes, doc.ids, doc.true_length, train=True,
                             rng=one_by_one)
            np.testing.assert_allclose(out.logits.value[:, i:i + 1], fw.logits.value,
                                       rtol=1e-12, err_msg=f"document {i}")
        # the masks differ between documents, so the check is not vacuous
        rerun = forward_batch(params, nodes, [docs[0]] * 2, train=True, rng=rng)
        assert not np.allclose(rerun.logits.value[:, 0], rerun.logits.value[:, 1])

    @pytest.mark.parametrize("ctx", ["learned", "doc-mean"])
    def test_graph_size_does_not_depend_on_batch_size(self, ctx):
        # the documents share every node: attention runs over the packed rows
        for encoder in ("bigru", "le"):
            rng = np.random.default_rng(9)
            params = init_model(vocab_size=12, num_classes=3, rng=rng, d=6, h=3, m=2,
                                mlp_hidden=8, ctx=ctx, encoder=encoder)
            nodes = params.store.nodes()
            docs = ragged_docs(rng, rng.integers(1, 9, size=16), 12, 3)
            counts, expands = [], []
            for B in (1, 4, 16):
                out = forward_batch(params, nodes, docs[:B])
                j = batch_objective(out, [d.label for d in docs[:B]], "positions", 0.2)
                counts.append(len(graph_nodes(j)))
                expands.append(sum(n.op == "expand" for n in graph_nodes(j)))
            assert counts[0] == counts[1] == counts[2], encoder
            # the embedding-only encoder spreads the rows looked up at the
            # distinct ids over its pairs, and its projected scores; the BiGRU
            # reads the distinct rows itself, so in doc-mean mode alone it
            # spreads them over the positions for the means; doc-mean then
            # spreads each document's mean over its columns
            spread = {("bigru", "learned"): 0, ("bigru", "doc-mean"): 2,
                      ("le", "learned"): 2, ("le", "doc-mean"): 3}[encoder, ctx]
            assert set(expands) == {spread}, encoder

    @pytest.mark.parametrize("regularizer", ["positions", "embeddings"])
    def test_zero_lambda_builds_no_disagreement_term(self, regularizer):
        rng = np.random.default_rng(10)
        params = init_model(vocab_size=12, num_classes=3, rng=rng, d=6, h=3, m=2,
                            mlp_hidden=8)
        docs = ragged_docs(rng, [3, 1, 6], 12, 3)
        fw = forward_batch(params, params.store.nodes(), docs)

        def objective(reg):
            before = next(ad._node_counter)
            j = batch_objective(fw, [d.label for d in docs], reg, 0.0)
            return next(ad._node_counter) - before, j.value.tobytes()

        assert objective(regularizer) == objective("none")

    def test_one_sort_per_embedding_only_batch(self, keyword_task, monkeypatch):
        for ctx in ("learned", "doc-mean"):
            sorts, expected = count_sorts("le", ctx, keyword_task, monkeypatch)
            assert sorts == expected, ctx

    def test_one_sort_per_bigru_batch(self, keyword_task, monkeypatch):
        for ctx in ("learned", "doc-mean"):
            sorts, expected = count_sorts("bigru", ctx, keyword_task, monkeypatch)
            assert sorts == expected, ctx

    def test_one_backward_and_one_gru_scan_per_batch(self, keyword_task, monkeypatch):
        train_set, valid_set, vocab = keyword_task
        scans = []
        backward = ad.backward
        monkeypatch.setattr(ad, "backward", lambda root: scans.append(
            sum(n.op == "gru_scan" for n in graph_nodes(root))) or backward(root))
        for batch in (4, 16):
            scans.clear()
            train(small_config(batch=batch, max_epochs=1), train_set, valid_set, vocab)
            assert len(scans) == -(-len(train_set) // batch)  # one call per batch
            assert set(scans) == {1}  # both directions scan in one node


    @pytest.mark.parametrize("encoder,ctx,regularizer", [
        ("bigru", "learned", "none"), ("bigru", "doc-mean", "positions"),
        ("le", "doc-mean", "embeddings")])
    def test_one_run_layout_per_graph(self, encoder, ctx, regularizer, keyword_task,
                                      monkeypatch):
        # each graph lays its documents out once and its segment ops share
        # that layout; D_emb lays out its m-row blocks of S once more
        train_set, valid_set, vocab = keyword_task
        layouts = []
        runs = ad.runs
        monkeypatch.setattr(ad, "runs", lambda lengths: layouts.append(1) or runs(lengths))
        config = small_config(encoder=encoder, ctx=ctx, regularizer=regularizer, lam=0.5,
                              max_epochs=1)
        train(config, train_set, valid_set, vocab)
        batches = -(-len(train_set) // config.batch)
        chunks = -(-len(valid_set) // tr.EVAL_CHUNK)
        per_batch = 2 if regularizer == "embeddings" else 1
        assert len(layouts) == per_batch * batches + chunks


def count_sorts(encoder, ctx, keyword_task, monkeypatch):
    """The ``group_ids`` calls of a ``train`` run, and the count if the
    gather, the spreading of the rows and their step share one grouping of
    each batch's ids, which the doc-mean context needs none of; each
    evaluation chunk and the validation ids are grouped once more."""
    train_set, valid_set, vocab = keyword_task
    sorts = []
    group_ids = ad.group_ids
    config = small_config(encoder=encoder, ctx=ctx, max_epochs=2, patience=2)
    with monkeypatch.context() as patched:
        patched.setattr(ad, "group_ids", lambda ids: sorts.append(1) or group_ids(ids))
        _, history = train(config, train_set, valid_set, vocab)
    epochs = len(history.records)
    batches = -(-len(train_set) // config.batch)
    chunks = -(-len(valid_set) // tr.EVAL_CHUNK)
    return len(sorts), epochs * (batches + chunks) + 1


def mixed_docs(rng, n, max_len=12, vocab_size=30, num_classes=3):
    """Single-token, unpadded max-length and in-between documents, cycled."""
    lengths = np.resize([1, max_len, 2, 7, 3, max_len - 1, 5], n)
    return [Document(np.append(rng.integers(2, vocab_size, size=L), [PAD_ID] * (max_len - L)),
                     int(L), int(rng.integers(num_classes)))
            for L in lengths]


class TestBatchedInference:
    """``evaluate`` runs chunks of EVAL_CHUNK documents through one forward
    graph each; it must predict what one ``forward_doc`` per document does."""

    @pytest.mark.parametrize(("encoder", "ctx"), ENCODER_CTX)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_per_document_forward(self, encoder, ctx, dtype):
        rng = np.random.default_rng(21)
        params = init_model(vocab_size=30, num_classes=3, rng=rng, d=8, h=4, m=4,
                            mlp_hidden=16, encoder=encoder, ctx=ctx, dtype=dtype)
        # 129 documents make chunks of 64, 64 and 1; m=4 exceeds L=1, 2, 3
        docs = mixed_docs(rng, 2 * tr.EVAL_CHUNK + 1)
        chunks = [fw for _, fw in tr.forward_chunks(params, docs)]
        assert [fw.probs.shape[1] for fw in chunks] == [64, 64, 1]

        nodes = params.store.nodes()
        single = [forward_doc(params, nodes, d.ids, d.true_length) for d in docs]
        tol = dict(rtol=1e-12) if dtype == np.float64 else dict(rtol=0, atol=1e-6)
        np.testing.assert_allclose(np.hstack([fw.probs.value for fw in chunks]),
                                   np.hstack([fw.probs.value for fw in single]), **tol)
        np.testing.assert_allclose(np.hstack([fw.attn.A_valid.value for fw in chunks]),
                                   np.hstack([fw.attn.A_valid.value for fw in single]), **tol)

        expected = np.zeros((3, 3), dtype=int)
        for doc, fw in zip(docs, single):
            expected[doc.label, int(np.argmax(fw.probs.value))] += 1
        metrics = evaluate(params, tr.Dataset(docs, ["a", "b", "c"], "eval"))
        assert metrics.confusion == expected.tolist()
        assert metrics.total == len(docs)

    def test_leaves_track_no_gradient(self):
        rng = np.random.default_rng(22)
        params = init_model(vocab_size=30, num_classes=3, rng=rng, d=8, h=4, m=2,
                            mlp_hidden=16)
        (_, fw), = tr.forward_chunks(params, mixed_docs(rng, 5))
        assert not any(node.requires_grad for node in graph_nodes(fw.probs))


class TestEvaluate:
    def test_empty_dataset_rejected(self, keyword_task):
        train_set, _, vocab = keyword_task
        params = tr._fresh_model(small_config(), len(vocab), 2, np.random.default_rng(0))
        with pytest.raises(tr.TrainingError, match="empty"):
            evaluate(params, tr.Dataset([], train_set.label_names, "eval"))

    def test_perfect_predictions_accuracy_one(self, keyword_task):
        train_set, valid_set, vocab = keyword_task
        cfg = small_config(d=24, h=12, max_epochs=20, patience=20, seed=1)
        ckpt, hist = train(cfg, train_set, valid_set, vocab)
        metrics = evaluate(ckpt, valid_set)
        assert metrics.accuracy == max(r.valid_acc for r in hist.records)

    def test_confusion_rows_sum_to_support(self, keyword_task):
        train_set, valid_set, vocab = keyword_task
        ckpt, _ = train(small_config(), train_set, valid_set, vocab)
        metrics = evaluate(ckpt, valid_set)
        support = [sum(1 for d in valid_set.documents if d.label == k)
                   for k in range(2)]
        assert [sum(row) for row in metrics.confusion] == support
        assert metrics.total == len(valid_set)

    def test_idempotent(self, keyword_task):
        train_set, valid_set, vocab = keyword_task
        ckpt, _ = train(small_config(), train_set, valid_set, vocab)
        m1 = evaluate(ckpt, valid_set)
        m2 = evaluate(ckpt, valid_set)
        assert m1 == m2

    def test_label_mismatch_rejected(self, keyword_task):
        train_set, valid_set, vocab = keyword_task
        ckpt, _ = train(small_config(), train_set, valid_set, vocab)
        renamed = tr.Dataset(valid_set.documents, ["up", "down"], "valid")
        with pytest.raises(LabelMismatchError):
            evaluate(ckpt, renamed)

    def test_overflowing_weights_raise_non_finite_error(self, keyword_task):
        # finite float32 rows whose products overflow: the primitives name
        # the op, with no numpy RuntimeWarning before them
        train_set, valid_set, vocab = keyword_task
        ckpt, _ = train(small_config(), train_set, valid_set, vocab)
        ckpt.params.store["W_e"][2:] = 3e38
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ad.NonFiniteError):
                evaluate(ckpt, valid_set)


class TestCheckpointIO:
    def test_roundtrip_preserves_weights_and_metadata(self, tmp_path, keyword_task):
        train_set, valid_set, vocab = keyword_task
        ckpt, _ = train(small_config(), train_set, valid_set, vocab)
        out = tmp_path / "ckpt"
        ckpt.save(out)
        loaded = Checkpoint.load(out)
        assert loaded.config == ckpt.config
        assert loaded.label_names == ckpt.label_names
        assert loaded.vocab.id_to_token == vocab.id_to_token
        assert loaded.params.store.names() == ckpt.params.store.names()
        np.testing.assert_array_equal(ckpt.params.store.buffer, loaded.params.store.buffer)

    def test_loaded_checkpoint_predicts_identically(self, tmp_path, keyword_task):
        train_set, valid_set, vocab = keyword_task
        ckpt, _ = train(small_config(), train_set, valid_set, vocab)
        out = tmp_path / "ckpt"
        ckpt.save(out)
        loaded = Checkpoint.load(out)
        assert evaluate(loaded, valid_set) == evaluate(ckpt, valid_set)

    def test_checkpoint_of_the_per_tensor_writer_loads_and_evaluates_identically(
            self, tmp_path):
        # data/checkpoint-0.1.0 was written tensor by tensor, before the
        # parameters shared one buffer; expected.json holds what evaluating
        # it gave then. Probabilities are compared to float32 rounding, as
        # another BLAS kernel may sum a product in another order
        data = Path(__file__).parent / "data" / "checkpoint-0.1.0"
        expected = json.loads((data / "expected.json").read_text())
        ckpt = Checkpoint.load(data / "checkpoint")
        dataset = load_dataset(data / "eval.tsv", ckpt.vocab, ckpt.config.max_len,
                               label_names=ckpt.label_names, split="eval")
        assert evaluate(ckpt, dataset).to_dict() == expected["metrics"]
        probs = np.concatenate([fw.probs.value for _, fw in
                                tr.forward_chunks(ckpt.params, dataset.documents)], axis=1)
        np.testing.assert_allclose(probs, expected["probs"], rtol=1e-5, atol=1e-7)
        ckpt.save(tmp_path / "again")
        for name in ("config.json", "weights.bin", "vocab.txt"):
            assert (tmp_path / "again" / name).read_bytes() == \
                (data / "checkpoint" / name).read_bytes()

    def test_save_writes_the_buffer_without_a_copy(self, tmp_path, keyword_task):
        train_set, _, vocab = keyword_task
        cfg = small_config(mlp_hidden=20_000)  # cls.W1 makes the buffer 2.6 MB
        ckpt = Checkpoint(cfg, vocab, list(train_set.label_names),
                          tr._fresh_model(cfg, len(vocab), 2, np.random.default_rng(0)))
        tracemalloc.start()
        try:
            ckpt.save(tmp_path / "ckpt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ckpt.params.store.buffer.nbytes / 8
        assert (tmp_path / "ckpt" / "weights.bin").read_bytes() == \
            ckpt.params.store.buffer.tobytes()

    def test_save_twice_is_byte_identical(self, tmp_path, keyword_task):
        train_set, valid_set, vocab = keyword_task
        ckpt, _ = train(small_config(), train_set, valid_set, vocab)
        a, b = tmp_path / "a", tmp_path / "b"
        ckpt.save(a)
        ckpt.save(b)
        for name in ("config.json", "weights.bin", "vocab.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_offsets_are_consistent(self, tmp_path, keyword_task):
        train_set, valid_set, vocab = keyword_task
        ckpt, _ = train(small_config(), train_set, valid_set, vocab)
        out = tmp_path / "ckpt"
        ckpt.save(out)
        meta = json.loads((out / "config.json").read_text())
        blob_len = len((out / "weights.bin").read_bytes())
        offset = 0
        for entry in meta["tensors"]:
            assert entry["offset"] == offset
            offset += int(np.prod(entry["shape"])) * 4
        assert offset == blob_len

    @staticmethod
    def saved_untrained(tmp_path, keyword_task):
        train_set, _, vocab = keyword_task
        cfg = small_config()
        out = tmp_path / "ckpt"
        Checkpoint(cfg, vocab, list(train_set.label_names),
                   tr._fresh_model(cfg, len(vocab), 2, np.random.default_rng(0))).save(out)
        return out

    def test_oversized_weights_rejected_before_read(self, tmp_path, keyword_task):
        out = self.saved_untrained(tmp_path, keyword_task)
        weights = out / "weights.bin"
        size = weights.stat().st_size
        os.truncate(weights, size + 64 * 2**20)  # a sparse 64 MiB tail
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match=f"weights.bin holds {size + 64 * 2**20} "
                                                      f"bytes, the manifest {size}$"):
                Checkpoint.load(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_finite_weights_whose_sum_overflows_load(self, tmp_path, keyword_task):
        # 3e38 + 3e38 is inf in float32: the sum alone would reject this tensor
        out = self.saved_untrained(tmp_path, keyword_task)
        entry = next(e for e in json.loads((out / "config.json").read_text())["tensors"]
                     if e["name"] == "cls.W1")
        blob = np.fromfile(out / "weights.bin", dtype="<f4")
        start = entry["offset"] // 4
        blob[start:start + int(np.prod(entry["shape"]))] = 3e38
        blob.tofile(out / "weights.bin")
        W1 = Checkpoint.load(out).params.store["cls.W1"]
        assert W1.size > 1 and (W1 == np.float32(3e38)).all()

    def test_save_over_existing_checkpoint_never_deletes_it_first(
            self, tmp_path, keyword_task, monkeypatch):
        train_set, valid_set, vocab = keyword_task
        cfg = small_config()
        ckpt = Checkpoint(cfg, vocab, list(train_set.label_names),
                          tr._fresh_model(cfg, len(vocab), 2, np.random.default_rng(0)))
        out = tmp_path / "ckpt"
        ckpt.save(out)
        removed = []
        rmtree = tr.shutil.rmtree
        monkeypatch.setattr(tr.shutil, "rmtree",
                            lambda path, *a, **kw: (removed.append(str(path)),
                                                    rmtree(path, *a, **kw)))
        ckpt.save(out)
        assert str(out) not in removed
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        assert evaluate(Checkpoint.load(out), valid_set) == evaluate(ckpt, valid_set)

    def test_save_to_a_path_with_a_trailing_separator(self, tmp_path, keyword_task):
        # new, then existing: the temp names sit beside the target, not in it
        train_set, valid_set, vocab = keyword_task
        cfg = small_config()
        ckpt = Checkpoint(cfg, vocab, list(train_set.label_names),
                          tr._fresh_model(cfg, len(vocab), 2, np.random.default_rng(0)))
        for _ in range(2):
            ckpt.save(str(tmp_path / "ck") + os.sep)
            assert [p.name for p in tmp_path.iterdir()] == ["ck"]
            assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == \
                ["config.json", "vocab.txt", "weights.bin"]
        assert evaluate(Checkpoint.load(tmp_path / "ck"), valid_set) == evaluate(ckpt, valid_set)

    def test_load_draws_no_random_init(self, tmp_path, keyword_task, monkeypatch):
        # every tensor comes from weights.bin, so nothing is drawn to be
        # overwritten; the loaded model scores like the saved one
        train_set, valid_set, vocab = keyword_task
        cfg = small_config()
        ckpt = Checkpoint(cfg, vocab, list(train_set.label_names),
                          tr._fresh_model(cfg, len(vocab), 2, np.random.default_rng(3)))
        ckpt.save(tmp_path / "ckpt")

        def no_generator(*args, **kwargs):
            raise AssertionError("Checkpoint.load made a random generator")

        # load is given no generator, so it would have to make one to draw
        for name in ("default_rng", "Generator", "PCG64"):
            monkeypatch.setattr(np.random, name, no_generator)
        loaded = Checkpoint.load(tmp_path / "ckpt")
        monkeypatch.undo()
        assert loaded.params.store.names() == ckpt.params.store.names()
        np.testing.assert_array_equal(ckpt.params.store.buffer, loaded.params.store.buffer)
        assert evaluate(loaded, valid_set) == evaluate(ckpt, valid_set)

    def test_missing_checkpoint_raises_checkpoint_error(self, tmp_path):
        with pytest.raises(tr.CheckpointError):
            Checkpoint.load(tmp_path / "nope")


class TestHeadsSweep:
    def test_single_point_grid(self, keyword_task):
        train_set, valid_set, vocab = keyword_task
        rows = heads_sweep(small_config(max_epochs=2), [1],
                           train_set, valid_set, vocab)
        assert len(rows) == 1 and rows[0][0] == 1

    def test_rows_sorted_ascending(self, keyword_task):
        train_set, valid_set, vocab = keyword_task
        rows = heads_sweep(small_config(max_epochs=1), [4, 1, 2],
                           train_set, valid_set, vocab)
        assert [m for m, _ in rows] == [1, 2, 4]

    def test_empty_grid_rejected(self, keyword_task):
        train_set, valid_set, vocab = keyword_task
        with pytest.raises(tr.TrainingError):
            heads_sweep(small_config(), [], train_set, valid_set, vocab)

    def test_csv_format(self, tmp_path):
        tr.sweep_to_csv([(1, 0.5), (4, 0.75)], tmp_path / "s.csv")
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "m,best_valid_acc"
        assert lines[1] == "1,0.500000"
