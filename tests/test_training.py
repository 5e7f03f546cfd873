import json

import numpy as np
import pytest

from lama import training as tr
from lama.model import forward_doc
from lama.synthetic import make_task
from lama.text import PAD_ID
from lama.training import (Checkpoint, DivergenceError, EvalMetrics,
                           LabelMismatchError, TrainConfig, evaluate,
                           heads_sweep, sgd_step, train)


class TestSgdStep:
    def test_vanilla_step_without_momentum_or_decay(self):
        p = np.array([[1.0, 2.0]])
        g = np.array([[0.5, -0.5]])
        v = np.zeros_like(p)
        new_p, new_v = sgd_step(p, g, v, lr=0.1, momentum=0.0, weight_decay=0.0)
        np.testing.assert_allclose(new_p, [[0.95, 2.05]])
        np.testing.assert_allclose(new_v, g)

    def test_zero_grad_zero_velocity_leaves_param(self):
        p = np.array([[3.0]])
        new_p, _ = sgd_step(p, np.zeros_like(p), np.zeros_like(p),
                            lr=0.5, momentum=0.9, weight_decay=0.0)
        np.testing.assert_array_equal(new_p, p)

    def test_two_momentum_steps_accumulate(self):
        p = np.zeros((1, 1))
        g = np.full((1, 1), 2.0)
        v = np.zeros_like(p)
        p, v = sgd_step(p, g, v, lr=1.0, momentum=0.9, weight_decay=0.0)
        p, v = sgd_step(p, g, v, lr=1.0, momentum=0.9, weight_decay=0.0)
        # displacement g then 1.9 g
        np.testing.assert_allclose(p, [[-2.0 - 3.8]])

    def test_weight_decay_added_to_gradient(self):
        p = np.array([[10.0]])
        new_p, _ = sgd_step(p, np.zeros_like(p), np.zeros_like(p),
                            lr=0.1, momentum=0.0, weight_decay=0.01)
        np.testing.assert_allclose(new_p, [[10.0 - 0.1 * 0.1]])

    def test_frozen_rows_never_move(self):
        p = np.ones((3, 2))
        g = np.ones_like(p)
        new_p, new_v = sgd_step(p, g, np.zeros_like(p), lr=0.1, momentum=0.9,
                                weight_decay=0.05, frozen_rows=(0,))
        np.testing.assert_array_equal(new_p[0], 1.0)
        np.testing.assert_array_equal(new_v[0], 0.0)
        assert (new_p[1:] < 1.0).all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(Exception, match="sgd_step"):
            sgd_step(np.ones((2, 2)), np.ones((2, 3)), np.ones((2, 2)),
                     0.1, 0.9, 0.0)


@pytest.fixture(scope="module")
def keyword_task():
    return make_task("keyword", 64, 32, seed=11)


def small_config(**overrides):
    kw = dict(d=16, h=8, m=2, max_len=32, batch=16, mlp_hidden=24,
              max_epochs=3, patience=5, seed=0)
    kw.update(overrides)
    return TrainConfig(**kw)


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
        for p1, p2 in zip(runs[0][0].params.store, runs[1][0].params.store):
            np.testing.assert_array_equal(p1.value, p2.value)

    def test_pad_embedding_row_stays_zero(self, keyword_task):
        train_set, valid_set, vocab = keyword_task
        ckpt, _ = train(small_config(), train_set, valid_set, vocab)
        np.testing.assert_array_equal(ckpt.params.store["W_e"].value[PAD_ID], 0.0)

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
                import lama.autodiff as ad
                from lama.classifier import ObjectiveConfig
                from lama.model import doc_objective
                nodes = params.store.nodes()
                total = 0.0
                for doc in train_set.documents[:64]:
                    fw = forward_doc(params, nodes, doc.ids, doc.true_length)
                    total += doc_objective(fw, doc.label, 2,
                                           ObjectiveConfig("none")).value.item()
                before_after.append(total / 64)
            decreased += before_after[1] < before_after[0]
        assert decreased >= 8

    def test_snapshot_validation(self, keyword_task):
        train_set, valid_set, vocab = keyword_task
        with pytest.raises(ValueError):
            train(small_config(), train_set, valid_set, vocab, snapshot="median")


class TestEvaluate:
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
        for p_old, p_new in zip(ckpt.params.store, loaded.params.store):
            assert p_old.name == p_new.name
            np.testing.assert_array_equal(p_old.value.astype(np.float32), p_new.value)

    def test_loaded_checkpoint_predicts_identically(self, tmp_path, keyword_task):
        train_set, valid_set, vocab = keyword_task
        ckpt, _ = train(small_config(), train_set, valid_set, vocab)
        out = tmp_path / "ckpt"
        ckpt.save(out)
        loaded = Checkpoint.load(out)
        assert evaluate(loaded, valid_set) == evaluate(ckpt, valid_set)

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
