import json

import numpy as np
import pytest
from conftest import graph_nodes

from lama import autodiff as ad
from lama import training as tr
from lama.classifier import REGULARIZERS, ObjectiveConfig
from lama.model import doc_objective, forward_batch, forward_doc, init_model
from lama.synthetic import keyword_pairs, make_task, pairs_to_dataset
from lama.text import PAD_ID, UNK_ID, Document, build_vocab, tokenize
from lama.training import (Checkpoint, DivergenceError, EvalMetrics,
                           LabelMismatchError, TrainConfig, evaluate,
                           heads_sweep, sgd_step, train)


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

    def test_bit_identical_to_out_of_place_formula(self):
        # the in-place ops run in the order of v <- mu v + (g + wd p);
        # p <- p - lr v written with fresh arrays, so every bit matches
        rng = np.random.default_rng(7)
        lr, mu, wd = 0.05, 0.9, 1e-4
        p = rng.standard_normal((50, 20)).astype(np.float32)
        v = np.zeros_like(p)
        ref_p, ref_v = p.copy(), v.copy()
        for _ in range(6):
            g = rng.standard_normal(p.shape).astype(np.float32)
            ref_v = mu * ref_v + (g + wd * ref_p)
            ref_p = ref_p - lr * ref_v
            sgd_step(p, g, v, lr, mu, wd)
            assert p.dtype == v.dtype == np.float32
            assert p.tobytes() == ref_p.tobytes() and v.tobytes() == ref_v.tobytes()

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


def ragged_docs(rng, lengths, vocab_size, num_classes, pad=3):
    """Padded documents of the given true lengths with random ids and labels."""
    return [Document(np.append(rng.integers(2, vocab_size, size=L), [PAD_ID] * pad), L,
                     int(rng.integers(num_classes)))
            for L in lengths]


class TestBatchGraph:
    @pytest.mark.parametrize("encoder", ["bigru", "le"])
    @pytest.mark.parametrize("regularizer", REGULARIZERS)
    def test_batch_grads_equal_summed_doc_grads(
            self, encoder, regularizer):
        # float64, dropout off; the batch graph's leaf gradients must equal
        # those of one forward_doc graph per document, each scaled by 1/B
        rng = np.random.default_rng(5)
        params = init_model(vocab_size=12, num_classes=3, rng=rng, d=6, h=3, m=3,
                            mlp_hidden=8, dropout=0.0, encoder=encoder)
        for p in params.store:
            p.value = rng.uniform(-0.6, 0.6, size=p.value.shape)
        docs = ragged_docs(rng, [3, 7, 1, 5, 9, 5], 12, 3)
        objective = ObjectiveConfig(regularizer, 0.2)

        single = params.store.nodes()
        expected_loss = 0.0
        for doc in docs:
            fw = forward_doc(params, single, doc.ids, doc.true_length)
            j = doc_objective(fw, doc.label, 3, objective)
            ad.backward(ad.scale(j, 1.0 / len(docs)))
            expected_loss += j.value.item()
        batch = params.store.nodes()
        loss = tr._backward_batch(params, batch, docs, objective, rng)
        assert loss == pytest.approx(expected_loss, rel=1e-12)
        for name in params.store.names():
            np.testing.assert_allclose(batch[name].grad, single[name].grad,
                                       rtol=1e-12, err_msg=name)

    @pytest.mark.parametrize("encoder", ["bigru", "le"])
    @pytest.mark.parametrize("ctx", ["learned", "doc-mean"])
    @pytest.mark.parametrize("regularizer", REGULARIZERS)
    def test_every_parameter_gets_a_gradient(self, encoder, ctx, regularizer):
        # train steps every parameter with its gradient, so each batch
        # graph must reach all of them; the PAD row's gradient is exactly 0
        rng = np.random.default_rng(8)
        params = init_model(vocab_size=12, num_classes=3, rng=rng, d=6, h=3, m=2,
                            mlp_hidden=8, ctx=ctx, encoder=encoder)
        nodes = params.store.nodes()
        tr._backward_batch(params, nodes, ragged_docs(rng, [3, 1, 6], 12, 3),
                           ObjectiveConfig(regularizer, 0.2), rng)
        for p in params.store:
            assert nodes[p.name].grad is not None, p.name
            assert nodes[p.name].grad.shape == p.value.shape, p.name
        assert not nodes["W_e"].grad[PAD_ID].any()

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

    def test_one_backward_and_two_gru_scans_per_batch(self, keyword_task, monkeypatch):
        train_set, valid_set, vocab = keyword_task
        scans = []
        backward = ad.backward
        monkeypatch.setattr(ad, "backward", lambda root: scans.append(
            sum(n.op == "gru_scan" for n in graph_nodes(root))) or backward(root))
        for batch in (4, 16):
            scans.clear()
            train(small_config(batch=batch, max_epochs=1), train_set, valid_set, vocab)
            assert len(scans) == -(-len(train_set) // batch)  # one call per batch
            assert set(scans) == {2}


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
        for saved, read in zip(ckpt.params.store, loaded.params.store):
            assert saved.name == read.name
            np.testing.assert_array_equal(saved.value, read.value)
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
