import contextlib
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lama import attention, baseline, cli, text, training as tr
from lama import autodiff as ad
from lama.model import forward_doc, param_shapes
from lama.synthetic import keyword_pairs, write_tsv


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def marker_pairs(n, seed):
    """pos docs always contain 'zing', neg docs 'blah'; 'meh' docs carry no
    marker, so both markers stay informative."""
    rng = np.random.Generator(np.random.PCG64(seed))
    fillers = [f"mundane{i}" for i in range(8)]
    pairs = []
    for i in range(n):
        label, marker = [("pos", "zing"), ("neg", "blah"), ("meh", None)][i % 3]
        tokens = list(rng.choice(fillers, size=int(rng.integers(5, 9))))
        if marker:
            for _ in range(2):
                tokens.insert(int(rng.integers(0, len(tokens) + 1)), marker)
        pairs.append((label, " ".join(tokens)))
    return pairs


TRAIN_FLAGS = ["--encoder", "le", "--embed-dim", "16", "--hidden", "8",
               "--mlp-hidden", "24", "--max-len", "32", "--batch", "16",
               "--min-count", "2", "--epochs", "15", "--patience", "15",
               "-m", "2"]


def _edit_config(edit):
    def corrupt(ckpt):
        meta = json.loads((ckpt / "config.json").read_text())
        edit(meta)
        (ckpt / "config.json").write_text(json.dumps(meta))
    return corrupt


def _edit_file(name, edit):
    def corrupt(ckpt):
        path = ckpt / name
        path.write_bytes(edit(path.read_bytes()))
    return corrupt


def _set_tensor(name, key, value):
    def edit(meta):
        entry = next(e for e in meta["tensors"] if e["name"] == name)
        entry[key] = value
    return edit


def _write_weights(name, value):
    def corrupt(ckpt):
        meta = json.loads((ckpt / "config.json").read_text())
        entry = next(e for e in meta["tensors"] if e["name"] == name)
        blob = np.frombuffer((ckpt / "weights.bin").read_bytes(), dtype="<f4").copy()
        start = entry["offset"] // 4
        blob[start:start + int(np.prod(entry["shape"]))] = value
        (ckpt / "weights.bin").write_bytes(blob.tobytes())
    return corrupt


def _repeat_first_token(blob):
    lines = blob.split(b"\n")
    lines[3] = lines[2]
    return b"\n".join(lines)


# each turns a copy of a good checkpoint into one that must not load
CORRUPTIONS = {
    "tensor-missing": _edit_config(lambda meta: meta.update(
        tensors=[e for e in meta["tensors"] if e["name"] != "cls.b_c"])),
    "tensor-wrong-shape": _edit_config(_set_tensor("cls.b_c", "shape", [1, 1])),
    "tensor-wrong-offset": _edit_config(_set_tensor("cls.b_c", "offset", 0)),
    "tensor-fractional-shape": _edit_config(lambda meta: meta["tensors"][0].update(
        shape=[meta["tensors"][0]["shape"][0] + 0.5, meta["tensors"][0]["shape"][1]])),
    "tensor-quoted-offset": _edit_config(_set_tensor("W_e", "offset", "0")),
    "weights-truncated": _edit_file("weights.bin", lambda b: b[:len(b) // 2]),
    "weights-too-long": _edit_file("weights.bin", lambda b: b + b"\0" * 4),
    "weights-nan": _write_weights("attn.W_w", np.nan),
    "weights-inf": _write_weights("W_e", np.inf),
    "config-not-json": _edit_file("config.json", lambda b: b"{not json"),
    # deeper than the JSON decoder's recursion limit
    "config-deeply-nested": _edit_file("config.json", lambda b: b"[" * 100_000),
    "config-unknown-key": _edit_config(lambda meta: meta["config"].update(frobnicate=1)),
    "config-no-labels": _edit_config(lambda meta: meta.pop("labels")),
    "config-float-dim": _edit_config(lambda meta: meta["config"].update(m=2.0)),
    "config-bool-dim": _edit_config(lambda meta: meta["config"].update(d=True)),
    "config-unknown-regularizer": _edit_config(
        lambda meta: meta["config"].update(regularizer="sideways")),
    "vocab-no-reserved-tokens": _edit_file("vocab.txt", lambda b: b"hello\nworld\n"),
    "vocab-repeated-token": _edit_file("vocab.txt", _repeat_first_token),
    "vocab-not-utf8": _edit_file("vocab.txt", lambda b: b + b"\xff\n"),
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    train_tsv = root / "train.tsv"
    valid_tsv = root / "valid.tsv"
    write_tsv(marker_pairs(96, seed=0), train_tsv)
    write_tsv(marker_pairs(48, seed=1), valid_tsv)
    out = root / "trained"
    code = run_cli("train", "--data", train_tsv, "--valid", valid_tsv,
                   "--seed", "7", "--out", out, *TRAIN_FLAGS)
    assert code == 0
    return {"root": root, "train": train_tsv, "valid": valid_tsv,
            "ckpt": out / "checkpoint", "out": out}


class TestTrain:
    def test_artifacts_written(self, workspace):
        out = workspace["out"]
        assert (out / "manifest.json").exists()
        assert (out / "history.csv").exists()
        for name in ("config.json", "vocab.txt", "weights.bin"):
            assert (workspace["ckpt"] / name).exists()

    def test_same_seed_byte_identical_weights(self, workspace, tmp_path):
        out2 = tmp_path / "again"
        code = run_cli("train", "--data", workspace["train"], "--valid",
                       workspace["valid"], "--seed", "7", "--out", out2,
                       *TRAIN_FLAGS)
        assert code == 0
        for name in ("weights.bin", "config.json", "vocab.txt"):
            assert (out2 / "checkpoint" / name).read_bytes() == \
                   (workspace["ckpt"] / name).read_bytes()
        # history matches except the timing column
        def meat(path):
            rows = list(csv.DictReader(path.read_text().splitlines()))
            return [(r["epoch"], r["train_loss"], r["valid_acc"]) for r in rows]
        assert meat(out2 / "history.csv") == meat(workspace["out"] / "history.csv")

    def test_manifest_contains_resolved_config(self, workspace):
        manifest = json.loads((workspace["out"] / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 7
        assert manifest["config"]["encoder"] == "le"
        assert manifest["config"]["lr"] == 0.05
        assert str(workspace["train"]) in manifest["inputs"]

    def test_each_document_is_tokenized_once(self, tmp_path, monkeypatch):
        write_tsv(marker_pairs(50, seed=2), tmp_path / "train.tsv")
        write_tsv(marker_pairs(10, seed=3), tmp_path / "valid.tsv")
        calls = []
        tokenize = text.tokenize
        # count calls made through any module that imported the function
        for module in (text, cli):
            if getattr(module, "tokenize", None) is tokenize:
                monkeypatch.setattr(module, "tokenize",
                                    lambda s: calls.append(s) or tokenize(s))
        code = run_cli("train", "--data", tmp_path / "train.tsv", "--valid",
                       tmp_path / "valid.tsv", "--out", tmp_path / "out",
                       *TRAIN_FLAGS, "--epochs", "1")
        assert code == 0
        assert len(calls) == 60

    def test_checkpoint_target_that_is_a_file_is_io_error(self, workspace, tmp_path, capsys):
        # refused before training starts: the file stays and no temp entry
        # is left beside it
        out = tmp_path / "out"
        out.mkdir()
        (out / "checkpoint").write_text("not a checkpoint\n")
        capsys.readouterr()
        code = run_cli("train", "--data", workspace["train"], "--valid", workspace["valid"],
                       "--out", out, *TRAIN_FLAGS, "--epochs", "1")
        stdout, err = capsys.readouterr()
        err = err.strip().splitlines()
        assert code == cli.EXIT_IO
        assert not any(line.startswith("epoch ") for line in stdout.splitlines())  # no training
        assert len(err) == 1 and err[0].startswith(
            f"error: cannot write checkpoint {out / 'checkpoint'}: "), err
        assert (out / "checkpoint").read_text() == "not a checkpoint\n"
        assert sorted(p.name for p in out.iterdir()) == ["checkpoint", "manifest.json"]

    def test_stale_temp_entries_of_any_kind_are_removed(self, workspace, tmp_path):
        # a file and a dangling symlink where the save stages and moves aside
        out = tmp_path / "out"
        out.mkdir()
        staged = out / f"checkpoint.tmp-{os.getpid()}"
        staged.write_text("stale\n")
        os.symlink(tmp_path / "nowhere", f"{staged}-old")
        code = run_cli("train", "--data", workspace["train"], "--valid", workspace["valid"],
                       "--out", out, *TRAIN_FLAGS, "--epochs", "1")
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == \
            ["checkpoint", "history.csv", "manifest.json"]
        tr.Checkpoint.load(out / "checkpoint")

    def test_divergence_exit_code(self, workspace, tmp_path):
        code = run_cli("train", "--data", workspace["train"], "--valid",
                       workspace["valid"], "--out", tmp_path / "boom",
                       "--lr", "200", "--weight-decay", "0.05", *TRAIN_FLAGS[2:])
        assert code == cli.EXIT_DIVERGED

    def test_divergence_in_an_epochs_last_step_exits_5(self, tmp_path, capsys):
        # 32 documents make one batch; its step overflows the weights, and
        # the epoch's validation is the first to read them
        write_tsv(keyword_pairs(32, seed=1), tmp_path / "train.tsv")
        write_tsv(keyword_pairs(8, seed=10_001), tmp_path / "valid.tsv")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("train", "--data", tmp_path / "train.tsv", "--valid",
                           tmp_path / "valid.tsv", "--out", tmp_path / "out", "--batch", "32",
                           "--lr", "1e30")
        err = capsys.readouterr().err.strip().splitlines()
        assert code == cli.EXIT_DIVERGED
        assert len(err) == 1 and err[0].startswith("error: training diverged at epoch 1"), err

    def test_overflowing_step_exits_5(self, tmp_path, capsys):
        # lr = 1e39 overflows float32 in the first step; the next batch names it
        write_tsv(keyword_pairs(64, seed=1), tmp_path / "train.tsv")
        write_tsv(keyword_pairs(8, seed=10_001), tmp_path / "valid.tsv")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("train", "--data", tmp_path / "train.tsv", "--valid",
                           tmp_path / "valid.tsv", "--out", tmp_path / "out", "--batch", "32",
                           "--lr", "1e39")
        err = capsys.readouterr().err.strip().splitlines()
        assert code == cli.EXIT_DIVERGED
        assert len(err) == 1 and err[0].startswith("error: training diverged at epoch 1"), err

    def test_single_class_train_set_is_data_error(self, tmp_path, capsys):
        pairs = [pair for pair in marker_pairs(48, seed=0) if pair[0] == "pos"]
        write_tsv(pairs, tmp_path / "train.tsv")
        write_tsv(pairs[:4], tmp_path / "valid.tsv")
        capsys.readouterr()
        code = run_cli("train", "--data", tmp_path / "train.tsv", "--valid",
                       tmp_path / "valid.tsv", "--out", tmp_path / "out", *TRAIN_FLAGS)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == cli.EXIT_DATA
        assert len(err) == 1 and err[0].startswith("error: ") and "'pos'" in err[0], err

    def test_pretrained_embeddings_flag(self, workspace, tmp_path, capsys):
        vecs = tmp_path / "vectors.txt"
        dims = 16
        vecs.write_text("zing " + " ".join(["0.05"] * dims) + "\n"
                        "blah " + " ".join(["-0.05"] * dims) + "\n",
                        encoding="utf-8")
        code = run_cli("train", "--data", workspace["train"], "--valid",
                       workspace["valid"], "--out", tmp_path / "pre",
                       "--embeddings", vecs, "--epochs", "1", *TRAIN_FLAGS)
        assert code == 0
        assert "pretrained coverage" in capsys.readouterr().out

    def test_pretrained_dimension_mismatch_is_data_error(self, workspace, tmp_path):
        vecs = tmp_path / "short.txt"
        vecs.write_text("zing 1.0 2.0\n", encoding="utf-8")
        code = run_cli("train", "--data", workspace["train"], "--valid",
                       workspace["valid"], "--out", tmp_path / "pre2",
                       "--embeddings", vecs, "--epochs", "1", *TRAIN_FLAGS)
        assert code == cli.EXIT_DATA

    def test_plain_initial_rows_as_pretrained_give_the_plain_weights(self, workspace,
                                                                      tmp_path):
        # the vectors only replace their rows of the plain run's W_e, so a
        # file of those same initial rows leaves every weight as it was
        argv = ["--data", workspace["train"], "--valid", workspace["valid"], "--seed", "3",
                *TRAIN_FLAGS, "--epochs", "2"]
        assert run_cli("train", *argv, "--out", tmp_path / "plain") == 0
        plain = tr.Checkpoint.load(tmp_path / "plain" / "checkpoint")
        W_e = tr._fresh_model(plain.config, len(plain.vocab), len(plain.label_names),
                              np.random.Generator(np.random.PCG64(3))).store["W_e"]
        vecs = tmp_path / "vectors.txt"
        vecs.write_text("".join(
            f"{t} " + " ".join(repr(float(x)) for x in W_e[plain.vocab.lookup(t)]) + "\n"
            for t in ("zing", "blah", "mundane3")), encoding="utf-8")
        assert run_cli("train", *argv, "--embeddings", vecs, "--out", tmp_path / "pre") == 0
        assert (tmp_path / "pre" / "checkpoint" / "weights.bin").read_bytes() == \
            (tmp_path / "plain" / "checkpoint" / "weights.bin").read_bytes()

    @pytest.mark.parametrize("bad_value", ["abc", "nan", "inf"])
    def test_bad_pretrained_value_is_data_error(self, workspace, tmp_path, capsys, bad_value):
        vecs = tmp_path / "bad.txt"
        values = ["0.05"] * 16
        values[3] = bad_value
        vecs.write_text("blah " + " ".join(["0.1"] * 16) + "\n"
                        "zing " + " ".join(values) + "\n", encoding="utf-8")
        capsys.readouterr()
        code = run_cli("train", "--data", workspace["train"], "--valid",
                       workspace["valid"], "--out", tmp_path / "pre3",
                       "--embeddings", vecs, "--epochs", "1", *TRAIN_FLAGS)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == cli.EXIT_DATA
        assert len(err) == 1 and err[0].startswith(f"error: {vecs}:2: "), err


class TestEval:
    def test_two_paths_suffice(self, workspace, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli("eval", "--checkpoint", workspace["ckpt"],
                       "--data", workspace["valid"])
        assert code == 0
        payload = json.loads((tmp_path / "lama-out" / "eval" / "metrics.json").read_text())
        assert payload["accuracy"] >= 0.95
        assert len(payload["confusion"]) == 3

    def test_metrics_file_and_stdout_are_the_indented_json(self, workspace, tmp_path, capsys):
        ckpt = tr.Checkpoint.load(workspace["ckpt"])
        dataset = text.load_dataset(workspace["valid"], ckpt.vocab, ckpt.config.max_len,
                                    label_names=ckpt.label_names)
        payload = {"labels": ckpt.label_names, **tr.evaluate(ckpt, dataset).to_dict()}
        expected = io.StringIO()
        json.dump(payload, expected, indent=2)
        expected.write("\n")
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", workspace["ckpt"], "--data", workspace["valid"],
                       "--out", tmp_path)
        assert code == 0
        assert (tmp_path / "metrics.json").read_bytes() == expected.getvalue().encode()
        assert capsys.readouterr().out == expected.getvalue()

    def test_reserved_tokens_in_text_round_trip(self, tmp_path):
        # a reserved token kept from the text would be listed twice in
        # vocab.txt, and eval could not load the checkpoint train wrote
        pairs = marker_pairs(60, seed=4)
        pairs = [(label, f"{t} <unk>" if k < 40 else f"<pad> {t}")
                 for k, (label, t) in enumerate(pairs)]
        write_tsv(pairs, tmp_path / "train.tsv")
        code = run_cli("train", "--data", tmp_path / "train.tsv", "--valid",
                       tmp_path / "train.tsv", "--out", tmp_path / "out",
                       *TRAIN_FLAGS, "--epochs", "1")
        assert code == 0
        code = run_cli("eval", "--checkpoint", tmp_path / "out" / "checkpoint",
                       "--data", tmp_path / "train.tsv", "--out", tmp_path / "eval")
        assert code == 0

    def test_byte_order_mark_prefixed_data_evaluates(self, workspace, tmp_path):
        data = tmp_path / "bom.tsv"
        data.write_bytes(b"\xef\xbb\xbf" + workspace["valid"].read_bytes())
        code = run_cli("eval", "--checkpoint", workspace["ckpt"], "--data", data,
                       "--out", tmp_path / "out")
        assert code == 0

    def test_unknown_label_is_data_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("weird\tzing zing mundane0\n", encoding="utf-8")
        code = run_cli("eval", "--checkpoint", workspace["ckpt"], "--data", bad,
                       "--out", tmp_path / "out")
        assert code == cli.EXIT_DATA

    def test_missing_checkpoint_is_io_error(self, workspace, tmp_path):
        code = run_cli("eval", "--checkpoint", tmp_path / "nope",
                       "--data", workspace["valid"], "--out", tmp_path / "out")
        assert code == cli.EXIT_IO

    @pytest.mark.parametrize("command", ["eval", "attend"])
    def test_empty_dataset_is_data_error(self, workspace, tmp_path, capsys, command):
        empty = tmp_path / "empty.tsv"
        empty.write_text("\n", encoding="utf-8")
        capsys.readouterr()
        code = run_cli(command, "--checkpoint", workspace["ckpt"], "--data", empty,
                       "--out", tmp_path / "out")
        err = capsys.readouterr().err.strip().splitlines()
        assert code == cli.EXIT_DATA
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_overflow_in_forward_pass_is_divergence(self, workspace, tmp_path, capsys):
        # 3e38 is a finite float32, so the checkpoint loads; the recurrence
        # then overflows in the BiGRU forward pass
        trained = tr.Checkpoint.load(workspace["ckpt"])
        cfg = tr.TrainConfig(d=16, h=8, m=2, max_len=32, mlp_hidden=24)
        ckpt = tr.Checkpoint(cfg, trained.vocab, trained.label_names, tr._fresh_model(
            cfg, len(trained.vocab), len(trained.label_names), np.random.default_rng(0)))
        ckpt.save(tmp_path / "ckpt")
        _write_weights("gru_f.U_h", 3e38)(tmp_path / "ckpt")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning is noise too
            code = run_cli("eval", "--checkpoint", tmp_path / "ckpt", "--data",
                           workspace["valid"], "--out", tmp_path / "out")
        err = capsys.readouterr().err.strip().splitlines()
        assert code == cli.EXIT_DIVERGED
        assert len(err) == 1 and err[0].startswith("error: gru_scan"), err

    def test_overflow_in_the_last_chunk_is_divergence(self, workspace, tmp_path, capsys):
        # 129 documents run as chunks of 64, 64 and 1; only the last holds
        # an unknown word, whose 3e38 embedding row overflows W_w h
        ckpt = tr.Checkpoint.load(workspace["ckpt"])
        ckpt.params.store["W_e"][text.UNK_ID] = 3e38
        ckpt.params.store["attn.W_w"][:] = 1.0
        ckpt.save(tmp_path / "ckpt")
        lines = (workspace["train"].read_text() + workspace["valid"].read_text()).splitlines()
        data = tmp_path / "eval.tsv"
        for extra, expected in (([], 0), (["pos\tzing qwertyuiop mundane1"], cli.EXIT_DIVERGED)):
            data.write_text("\n".join(lines[:2 * tr.EVAL_CHUNK] + extra) + "\n")
            capsys.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run_cli("eval", "--checkpoint", tmp_path / "ckpt", "--data", data,
                               "--out", tmp_path / "out")
            assert code == expected
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: matmul"), err

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_checkpoint_is_io_error(self, workspace, tmp_path, capsys, corruption):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workspace["ckpt"], ckpt)
        CORRUPTIONS[corruption](ckpt)
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", ckpt, "--data", workspace["valid"],
                       "--out", tmp_path / "out")
        err = capsys.readouterr().err.strip().splitlines()
        assert code == cli.EXIT_IO
        assert len(err) == 1 and err[0].startswith("error: "), err

    @pytest.mark.parametrize("corruption,tensor", [("weights-nan", "attn.W_w"),
                                                   ("weights-inf", "W_e")])
    def test_non_finite_weights_name_their_tensor(self, workspace, tmp_path, capsys,
                                                  corruption, tensor):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workspace["ckpt"], ckpt)
        CORRUPTIONS[corruption](ckpt)
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", ckpt, "--data", workspace["valid"],
                       "--out", tmp_path / "out")
        err = capsys.readouterr().err.strip()
        assert code == cli.EXIT_IO
        assert err.endswith(f": tensor {tensor} holds a non-finite value"), err

    @pytest.mark.parametrize("edit,message", [
        (lambda meta: meta.update(labels=["pos", "pos"]),
         "repeated label names in ['pos', 'pos']"),
        (lambda meta: meta["config"].update(lr=True), "lr must be a real number, got True"),
        (lambda meta: meta["config"].update(dropout="0.1"),
         "dropout must be a real number, got '0.1'"),
    ], ids=["repeated-labels", "bool-lr", "quoted-dropout"])
    def test_config_fields_of_the_wrong_kind_are_io_errors(self, tmp_path, capsys, edit,
                                                           message):
        # on a copy of the checkpoint kept under tests/data: repeated labels
        # would be blamed on the eval data (exit 4), a bool lr would load
        data = Path(__file__).parent / "data" / "checkpoint-0.1.0"
        ckpt = tmp_path / "ckpt"
        shutil.copytree(data / "checkpoint", ckpt)
        _edit_config(edit)(ckpt)
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", ckpt, "--data", data / "eval.tsv",
                       "--out", tmp_path / "out")
        err = capsys.readouterr().err.strip().splitlines()
        assert code == cli.EXIT_IO
        assert len(err) == 1 and err[0].endswith(message), err


@pytest.fixture(scope="module")
def export(workspace, tmp_path_factory):
    # attention sharpens well after accuracy saturates, so the
    # interpretability export trains to the final snapshot
    out = tmp_path_factory.mktemp("attend")
    run = out / "run"
    code = run_cli("train", "--data", workspace["train"], "--valid",
                   workspace["valid"], "--seed", "7", "--out", run,
                   "--snapshot", "final", *TRAIN_FLAGS)
    assert code == 0
    code = run_cli("attend", "--checkpoint", run / "checkpoint",
                   "--data", workspace["train"], "--out", out)
    assert code == 0
    return out / "attention.jsonl"


class TestAttendAndTopwords:

    def test_export_format(self, export):
        lines = export.read_text().splitlines()
        assert len(lines) == 96
        rec = json.loads(lines[0])
        assert set(rec) == {"doc_id", "tokens", "label", "predicted", "A"}
        A = np.asarray(rec["A"])
        assert A.shape == (2, len(rec["tokens"]))
        np.testing.assert_allclose(A.sum(axis=1), 1.0, atol=1e-5)

    def test_unique_marker_ranks_first_per_class(self, export, tmp_path):
        for label, marker in (("pos", "zing"), ("neg", "blah")):
            out = tmp_path / f"top-{label}"
            code = run_cli("topwords", "--data", export, "--label", label,
                           "--out", out)
            assert code == 0
            rows = (out / "topwords.tsv").read_text().splitlines()[1:]
            assert rows[0].split("\t")[0] == marker
            assert len(rows) <= 20

    def test_aggregation_matches_brute_force(self, export, tmp_path):
        ranking = cli.top_attended_words(export, label="pos", top_k=1000,
                                         min_occurrences=1)
        # independent recomputation
        sums, counts = {}, {}
        for line in export.read_text().splitlines():
            rec = json.loads(line)
            if rec["label"] != "pos":
                continue
            A = np.asarray(rec["A"])
            for t, token in enumerate(rec["tokens"]):
                sums[token] = sums.get(token, 0.0) + A[:, t].max()
                counts[token] = counts.get(token, 0) + 1
        expected = sorted(((sums[t] / counts[t], t) for t in sums),
                          key=lambda x: (-x[0], x[1]))
        assert [w for w, _, _ in ranking] == [t for _, t in expected]
        got = {w: (s, n) for w, s, n in ranking}
        for score, token in expected:
            assert got[token][0] == pytest.approx(score, rel=1e-9)
            assert got[token][1] == counts[token]

    def test_repeated_tokens_share_their_weight_and_rank_as_per_position(
            self, export, workspace, tmp_path):
        # the embedding-only model attends over each document's distinct
        # tokens; the export gives each occurrence its token's weight / n.
        # The ranking is the one of an export attended position by position
        records = [json.loads(line) for line in export.read_text().splitlines()]
        ckpt = tr.Checkpoint.load(export.parent / "run" / "checkpoint")
        assert ckpt.config.encoder == "le" and ckpt.config.ctx == "learned"
        rows = text.tokenize_rows(text.read_tsv(workspace["train"]))
        dataset = text.rows_to_dataset(rows, ckpt.vocab, ckpt.config.max_len,
                                       label_names=ckpt.label_names)
        nodes = ckpt.params.store.nodes(requires_grad=False)
        repeated = 0
        oracle = tmp_path / "per-position.jsonl"
        with open(oracle, "w", encoding="utf-8") as fh:
            for rec, doc in zip(records, dataset.documents, strict=True):
                A = np.asarray(rec["A"])
                np.testing.assert_allclose(A.sum(axis=1), 1.0, rtol=0, atol=1e-6)
                for token in set(rec["tokens"]):
                    cols = A[:, [t == token for t in rec["tokens"]]]
                    repeated += cols.shape[1] > 1
                    assert (cols == cols[:, :1]).all(), (rec["doc_id"], token)
                X = ad.constant(ckpt.params.store["W_e"][doc.valid_ids()])
                per_position = attention.attend(X, nodes["attn.c"], nodes["attn.W_w"],
                                                nodes["attn.b_w"], nodes["attn.P"],
                                                nodes["attn.Q"]).A_valid.value
                np.testing.assert_allclose(A, per_position, rtol=0, atol=1e-6)
                fh.write(json.dumps({**rec, "A": per_position.tolist()}) + "\n")
        assert repeated > len(records)
        for label in (None, "pos", "neg"):
            got = cli.top_attended_words(export, label=label, top_k=1000, min_occurrences=1)
            want = cli.top_attended_words(oracle, label=label, top_k=1000,
                                          min_occurrences=1)
            assert [(w, n) for w, _, n in got] == [(w, n) for w, _, n in want], label
            np.testing.assert_allclose([s for _, s, _ in got], [s for _, s, _ in want],
                                       rtol=0, atol=1e-6)

    def test_min_occurrences_filter(self, export):
        ranking = cli.top_attended_words(export, min_occurrences=10_000)
        assert ranking == []

    @pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity", "-0.25", "1.5"])
    def test_weight_outside_unit_interval_names_path_and_line(self, weight, tmp_path, capsys):
        # the bad record is on line 2 and under another label: a corrupt
        # export is rejected whichever documents --label selects
        export = tmp_path / "attention.jsonl"
        export.write_text('{"tokens": ["a", "b"], "label": "pos", "A": [[0.0, 1.0]]}\n'
                          f'{{"tokens": ["a", "b"], "label": "neg", "A": [[{weight}, 0.5]]}}\n',
                          encoding="utf-8")
        capsys.readouterr()
        code = run_cli("topwords", "--data", export, "--label", "pos",
                       "--min-occurrences", "1", "--out", tmp_path / "out")
        err = capsys.readouterr().err.strip().splitlines()
        assert code == cli.EXIT_DATA
        assert len(err) == 1 and err[0].startswith(f"error: {export}:2: attention weight"), err


class TestAttendBatched:
    def test_records_equal_per_document_export(self, workspace, tmp_path):
        # 144 documents: chunks of 64, 64 and 16
        data = tmp_path / "all.tsv"
        data.write_text(workspace["train"].read_text() + workspace["valid"].read_text())
        code = run_cli("attend", "--checkpoint", workspace["ckpt"], "--data", data,
                       "--out", tmp_path / "out")
        assert code == 0
        got = [json.loads(line)
               for line in (tmp_path / "out" / "attention.jsonl").read_text().splitlines()]
        ckpt = tr.Checkpoint.load(workspace["ckpt"])
        rows = text.tokenize_rows(text.read_tsv(data))
        dataset = text.rows_to_dataset(rows, ckpt.vocab, ckpt.config.max_len,
                                       label_names=ckpt.label_names)
        nodes = ckpt.params.store.nodes()
        assert len(got) == len(rows) == 144
        for doc_id, (rec, (_, label, tokens), doc) in enumerate(
                zip(got, rows, dataset.documents)):
            fw = forward_doc(ckpt.params, nodes, doc.ids, doc.true_length)
            assert list(rec) == ["doc_id", "tokens", "label", "predicted", "A"]
            assert (rec["doc_id"], rec["label"]) == (doc_id, label)
            assert rec["tokens"] == tokens[:doc.true_length]
            assert rec["predicted"] == ckpt.label_names[int(np.argmax(fw.probs.value))]
            np.testing.assert_allclose(rec["A"], fw.attn.A_valid.value, rtol=0, atol=1e-6)


class TestParams:
    def test_table_matches_published_deltas(self, tmp_path):
        out = tmp_path / "params"
        code = run_cli("params", "--heads", "2,4,8,16,32,64", "--d-ann", "512",
                       "--out", out)
        assert code == 0
        rows = list(csv.DictReader((out / "params.csv").read_text().splitlines()))
        assert [int(r["heads"]) for r in rows] == [2, 4, 8, 16, 32, 64]
        published = [0.002, 0.004, 0.009, 0.016, 0.034]
        deltas = [float(r["lama_delta_millions"]) for r in rows[1:]]
        for ours, pub in zip(deltas, published):
            assert abs(ours - pub) <= 0.0015
        te = {r["te_millions"] for r in rows}
        assert len(te) == 1

    @pytest.mark.parametrize("argv", [["--heads", "1,3", "--d-ann", "64"], ["--d-model", "7"]],
                             ids=["heads-1-3", "d-model-7"])
    def test_te_column_takes_any_head_count_and_width(self, tmp_path, argv):
        # the TE count does not depend on the head count, so no head count
        # or d_model is refused for it
        out = tmp_path / "params"
        assert run_cli("params", *argv, "--out", out) == 0
        rows = list(csv.DictReader((out / "params.csv").read_text().splitlines()))
        assert len(rows) >= 2 and len({r["te_millions"] for r in rows}) == 1

    def test_odd_d_ann_rejected(self, tmp_path):
        code = run_cli("params", "--d-ann", "511", "--out", tmp_path / "x")
        assert code == cli.EXIT_USAGE


class TestBench:
    def test_smoke_and_csv(self, tmp_path):
        out = tmp_path / "bench"
        code = run_cli("bench", "--kind", "le", "--lengths", "8,16,32,64",
                       "--trials", "5", "--dim", "16", "-m", "2",
                       "--batch", "1", "--out", out)
        assert code == 0
        lines = (out / "bench_le.csv").read_text().splitlines()
        assert lines[0] == "length,median_seconds,trials"
        assert len(lines) == 5

    def test_bigru_smoke_and_csv(self, tmp_path):
        out = tmp_path / "bench"
        code = run_cli("bench", "--kind", "bigru", "--lengths", "8,16,32,64",
                       "--trials", "5", "--dim", "16", "-m", "2",
                       "--batch", "1", "--out", out)
        assert code == 0
        lines = (out / "bench_bigru.csv").read_text().splitlines()
        assert lines[0] == "length,median_seconds,trials"
        assert [line.split(",")[0] for line in lines[1:]] == ["8", "16", "32", "64"]

    def test_bad_lengths_usage_error(self, tmp_path):
        code = run_cli("bench", "--kind", "te", "--lengths", "8,16",
                       "--out", tmp_path / "x")
        assert code == cli.EXIT_USAGE


TRAIN_DATA = ["--data", "{train}", "--valid", "{valid}"]

# argv and exit code of inputs outside their documented domain; "{...}"
# names an input file, and each case fails before any training step
OUT_OF_DOMAIN = {
    "train-dropout-nan": (["train", *TRAIN_DATA, "--dropout", "nan"], cli.EXIT_USAGE),
    "train-lambda-nan": (["train", *TRAIN_DATA, "--regularizer", "positions",
                          "--lambda", "nan"], cli.EXIT_USAGE),
    "train-lr-nan": (["train", *TRAIN_DATA, "--lr", "nan"], cli.EXIT_USAGE),
    "train-lr-inf": (["train", *TRAIN_DATA, "--lr", "inf"], cli.EXIT_USAGE),
    "train-momentum-5": (["train", *TRAIN_DATA, "--momentum", "5"], cli.EXIT_USAGE),
    "train-momentum-1": (["train", *TRAIN_DATA, "--momentum", "1"], cli.EXIT_USAGE),
    "train-momentum-nan": (["train", *TRAIN_DATA, "--momentum", "nan"], cli.EXIT_USAGE),
    "train-weight-decay-nan": (["train", *TRAIN_DATA, "--weight-decay", "nan"],
                               cli.EXIT_USAGE),
    "train-min-count-1000": (["train", *TRAIN_DATA, "--min-count", "1000"], cli.EXIT_DATA),
    "train-min-count-0": (["train", *TRAIN_DATA, "--min-count", "0"], cli.EXIT_USAGE),
    # models over model.MAX_PARAMS, rejected before anything is allocated
    "train-embed-dim-huge": (["train", *TRAIN_DATA, "--embed-dim", "100000000"],
                             cli.EXIT_USAGE),
    "train-heads-huge": (["train", *TRAIN_DATA, "--heads", "100000"], cli.EXIT_USAGE),
    "train-doc-mean-dim-mismatch": (["train", *TRAIN_DATA, "--ctx", "doc-mean",
                                     "--embed-dim", "8"], cli.EXIT_USAGE),
    "heads-sweep-grid-huge": (["heads-sweep", *TRAIN_DATA, "--grid", "1,100000"],
                              cli.EXIT_USAGE),
    "heads-sweep-grid-0": (["heads-sweep", *TRAIN_DATA, "--grid", "0"], cli.EXIT_USAGE),
    "heads-sweep-min-count-0": (["heads-sweep", *TRAIN_DATA, "--min-count", "0"],
                                cli.EXIT_USAGE),
    "params-heads-0": (["params", "--heads", "0"], cli.EXIT_USAGE),
    "params-vocab-size-negative": (["params", "--vocab-size", "-5"], cli.EXIT_USAGE),
    "params-heads-huge": (["params", "--heads", "2,100000"], cli.EXIT_USAGE),
    "bench-le-heads-0": (["bench", "--kind", "le", "--heads", "0"], cli.EXIT_USAGE),
    "bench-te-heads-0": (["bench", "--kind", "te", "--heads", "0"], cli.EXIT_USAGE),
    "bench-batch-0": (["bench", "--kind", "le", "--batch", "0"], cli.EXIT_USAGE),
    "bench-dim-0": (["bench", "--kind", "le", "--dim", "0"], cli.EXIT_USAGE),
    # an embedding-only model over model.MAX_PARAMS, refused before it is allocated
    "bench-le-dim-huge": (["bench", "--kind", "le", "--dim", "32768"], cli.EXIT_USAGE),
    # a BiGRU model over model.MAX_PARAMS, refused the same way
    "bench-bigru-dim-huge": (["bench", "--kind", "bigru", "--dim", "32768"], cli.EXIT_USAGE),
    "topwords-array-record": (["topwords", "--data", "{jsonl}"], cli.EXIT_DATA),
    "topwords-deeply-nested": (["topwords", "--data", "{nested}"], cli.EXIT_DATA),
    "topwords-non-utf8": (["topwords", "--data", "{non_utf8}"], cli.EXIT_DATA),
    "topwords-top-k-0": (["topwords", "--data", "{jsonl}", "--top-k", "0"], cli.EXIT_USAGE),
    "topwords-top-k-negative": (["topwords", "--data", "{jsonl}", "--top-k", "-1"],
                                cli.EXIT_USAGE),
    "topwords-min-occurrences-0": (["topwords", "--data", "{jsonl}", "--min-occurrences", "0"],
                                   cli.EXIT_USAGE),
    "topwords-weight-nan": (["topwords", "--data", "{nan_weight}"], cli.EXIT_DATA),
    "topwords-weight-inf": (["topwords", "--data", "{inf_weight}"], cli.EXIT_DATA),
}


@pytest.mark.parametrize("case", list(OUT_OF_DOMAIN))
def test_out_of_domain_input_exits_with_one_error_line(case, workspace, tmp_path, capsys):
    argv, code = OUT_OF_DOMAIN[case]
    files = {"train": workspace["train"], "valid": workspace["valid"]}
    for name, line in (("jsonl", '["not", "an", "object"]'),
                       ("nan_weight", '{"tokens": ["a", "b"], "A": [[NaN, 0.5]]}'),
                       ("inf_weight", '{"tokens": ["a", "b"], "A": [[Infinity, 0.5]]}'),
                       ("nested", "[" * 100_000)):
        files[name] = tmp_path / f"{name}.jsonl"
        files[name].write_text(line + "\n", encoding="utf-8")
    # a good record, then a line that starts with a UTF-16 byte-order mark
    files["non_utf8"] = tmp_path / "non_utf8.jsonl"
    files["non_utf8"].write_bytes(b'{"tokens": ["a"], "A": [[1.0]]}\n\xff\xfe{}\n')
    capsys.readouterr()
    assert run_cli(*[a.format(**files) for a in argv], "--out", tmp_path / "out") == code
    out, err = capsys.readouterr()
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "error:" not in out and "Traceback" not in out + err


# Every numeric flag of params, bench, topwords and train draws its value
# from these, and the property holds for each draw: an exit code in
# {0, 2, 3, 4, 5}, at most one `error:` line, no traceback, and a nonzero
# code whenever a value is outside the flag's domain. A domain is a range
# (int or finite float) plus, for a model dimension, model.param_shapes'
# budget, which allocates nothing; the in-domain draws run on tiny inputs.
HUGE = 10**30
DRAWS = ["nan", "inf", "-inf", "0", "-1", "1e300", str(HUGE)]
UNBOUNDED = float("inf")


def in_range(text, kind, lo, hi=UNBOUNDED, lo_open=False, hi_open=False):
    """Whether argparse reads ``text`` as ``kind`` and it lies in [lo, hi]
    (a bound left out when open)."""
    try:
        value = kind(text)
    except ValueError:
        return False
    return (math.isfinite(value) and (value > lo if lo_open else value >= lo)
            and (value < hi if hi_open else value <= hi))


def fits_budget(**dims):
    """A model dimension's value against param_shapes, shapes only."""
    shape = dict(vocab_size=3, num_classes=2, d=4, h=3, m=1, ctx="learned",
                 encoder="bigru", mlp_hidden=8)
    shape.update({k: int(v) for k, v in dims.items()})
    try:
        param_shapes(**shape)
    except ValueError:
        return False
    return True


def run_captured(argv):
    """Exit code, stdout and stderr of one in-process ``lama`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejected the value
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_exit_contract(argv, in_domain):
    code, out, err = run_captured(argv)
    assert code in (0, 2, 3, 4, 5), (argv, code, err)
    assert sum("error:" in line for line in (out + err).splitlines()) <= 1, (argv, err)
    assert "Traceback" not in out + err, (argv, err)
    if not in_domain:
        assert code != 0, (argv, out)


def int_flag(lo=1, model_dim=None):
    if model_dim is None:
        return lambda text: in_range(text, int, lo)
    return lambda text: in_range(text, int, lo) and fits_budget(**{model_dim: text})


PARAMS_FLAGS = {
    "--heads": int_flag(model_dim="m"),
    "--d-ann": lambda text: (in_range(text, int, 1) and int(text) % 2 == 0
                             and fits_budget(h=int(text) // 2)),
    "--embed-dim": int_flag(model_dim="d"),
    "--vocab-size": int_flag(model_dim="vocab_size"),
    "--classes": int_flag(model_dim="num_classes"),
    "--mlp-hidden": int_flag(model_dim="mlp_hidden"),
    "--d-model": int_flag(),  # a count of the transformer's parameters only
}
BENCH_FLAGS = {
    "--trials": lambda text: in_range(text, int, 5, baseline.MAX_TRIALS),
    # HUGE is over the benchmark's size budget; the draws hold nothing near 10**6
    "--dim": lambda text: in_range(text, int, 1, 10**6),
    "--heads": lambda text: in_range(text, int, 1, 10**6),
    "--batch": lambda text: in_range(text, int, 1, 10**6),
    "--seed": int_flag(lo=0),
    "--lengths": lambda text: in_range(text.split(",")[-1], int, 32, 10**6),  # 4,8,16,v
}
TOPWORDS_FLAGS = {
    "--top-k": int_flag(),
    "--min-occurrences": int_flag(),
    "A": lambda text: in_range(text, float, 0, 1),  # one attention weight in the export
}
TRAIN_FLAGS_DOMAIN = {
    **{flag: int_flag(model_dim=dim) for flag, dim in (
        ("--heads", "m"), ("--hidden", "h"), ("--embed-dim", "d"),
        ("--mlp-hidden", "mlp_hidden"))},
    "--max-len": lambda text: in_range(text, int, 1, tr.MAX_LEN),
    **{flag: int_flag() for flag in ("--epochs", "--batch", "--patience", "--min-count")},
    "--seed": int_flag(lo=0),
    "--lr": lambda text: in_range(text, float, 0, lo_open=True),
    "--momentum": lambda text: in_range(text, float, 0, 1, hi_open=True),
    "--dropout": lambda text: in_range(text, float, 0, 1, hi_open=True),
    "--weight-decay": lambda text: in_range(text, float, 0),
    "--lambda": lambda text: in_range(text, float, 0),
}
JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@pytest.fixture(scope="module")
def flag_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("flags")
    write_tsv(marker_pairs(24, seed=3), root / "train.tsv")
    write_tsv(marker_pairs(9, seed=4), root / "valid.tsv")
    return root


# each property draws one flag and one value; its max_examples covers
# every pair, which hypothesis then draws once each
class TestFlagProperties:
    @settings(max_examples=len(PARAMS_FLAGS) * len(DRAWS), deadline=None)
    @given(flag=st.sampled_from(sorted(PARAMS_FLAGS)), value=st.sampled_from(DRAWS))
    def test_params(self, flag, value, flag_inputs):
        assert_exit_contract(["params", "--out", flag_inputs / "params", flag, value],
                             PARAMS_FLAGS[flag](value))

    @settings(max_examples=3 * len(BENCH_FLAGS) * len(DRAWS), deadline=None)
    @given(flag=st.sampled_from(sorted(BENCH_FLAGS)), value=st.sampled_from(DRAWS),
           kind=st.sampled_from(["le", "bigru", "te"]))
    def test_bench(self, flag, value, kind, flag_inputs):
        argv = ["bench", "--kind", kind, "--lengths", "4,8,16,32", "--trials", "5",
                "--dim", "8", "--heads", "2", "--batch", "1", "--out", flag_inputs / "bench"]
        if flag == "--lengths":
            value = f"4,8,16,{value}"
        assert_exit_contract([*argv, flag, value], BENCH_FLAGS[flag](value))

    @settings(max_examples=len(TOPWORDS_FLAGS) * len(DRAWS), deadline=None)
    @given(flag=st.sampled_from(sorted(TOPWORDS_FLAGS)), value=st.sampled_from(DRAWS))
    def test_topwords(self, flag, value, flag_inputs):
        # a record under another label holds the drawn weight when flag is "A"
        weight = JSON_SPELLING.get(value, value) if flag == "A" else "0.5"
        export = flag_inputs / "attention.jsonl"
        export.write_text('{"tokens": ["a", "b"], "label": "pos", "A": [[0.25, 0.75]]}\n'
                          f'{{"tokens": ["a", "b"], "label": "neg", "A": [[{weight}, 0.5]]}}\n',
                          encoding="utf-8")
        argv = ["topwords", "--data", export, "--label", "pos", "--out", flag_inputs / "top"]
        assert_exit_contract(argv + ([flag, value] if flag != "A" else []),
                             TOPWORDS_FLAGS[flag](value))

    @settings(max_examples=len(TRAIN_FLAGS_DOMAIN) * len(DRAWS), deadline=None)
    @given(flag=st.sampled_from(sorted(TRAIN_FLAGS_DOMAIN)), value=st.sampled_from(DRAWS))
    def test_train(self, flag, value, flag_inputs):
        # the other flags are tiny; a huge --epochs runs until --patience 1 stops it
        argv = ["train", "--data", flag_inputs / "train.tsv",
                "--valid", flag_inputs / "valid.tsv", "--embed-dim", "4", "--hidden", "3",
                "--mlp-hidden", "8", "--heads", "1", "--max-len", "16", "--batch", "16",
                "--epochs", "1", "--patience", "1", "--min-count", "1",
                "--out", flag_inputs / "train"]
        in_domain = TRAIN_FLAGS_DOMAIN[flag](value)
        with mock.patch.object(tr, "_backward_batch", wraps=tr._backward_batch) as step:
            assert_exit_contract([*argv, flag, value], in_domain)
        # an out-of-domain value is rejected before any training step
        assert in_domain or not step.called, (flag, value)


class TestHeadsSweep:
    def test_sweep_writes_sorted_csv(self, workspace, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli("heads-sweep", "--data", workspace["train"], "--valid",
                       workspace["valid"], "--grid", "2,1", "--out", out,
                       *TRAIN_FLAGS[:-2], "--epochs", "2")
        assert code == 0
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert [int(r["m"]) for r in rows] == [1, 2]


    def test_embeddings_dimension_mismatch_is_data_error(self, workspace, tmp_path, capsys):
        vecs = tmp_path / "short.txt"
        vecs.write_text("zing 1.0 2.0\n", encoding="utf-8")
        capsys.readouterr()
        code = run_cli("heads-sweep", "--data", workspace["train"], "--valid",
                       workspace["valid"], "--grid", "1", "--out", tmp_path / "sweep",
                       "--embeddings", vecs, *TRAIN_FLAGS[:-2], "--embed-dim", "8")
        err = capsys.readouterr().err.strip().splitlines()
        assert code == cli.EXIT_DATA
        assert len(err) == 1 and err[0].startswith(f"error: {vecs}:1: expected 8 floats"), err


class TestErrorSurface:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--frobnicate")
        assert exc.value.code == 2

    def test_missing_data_file_is_io_error(self, tmp_path):
        code = run_cli("train", "--data", tmp_path / "absent.tsv",
                       "--valid", tmp_path / "absent.tsv",
                       "--out", tmp_path / "out")
        assert code == cli.EXIT_IO

    def test_malformed_tsv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("no tab here\n", encoding="utf-8")
        code = run_cli("train", "--data", bad, "--valid", bad,
                       "--out", tmp_path / "out")
        assert code == cli.EXIT_DATA

    def test_rerun_reproduces_outputs_byte_identically(self, tmp_path):
        out = tmp_path / "params"
        argv = ["params", "--heads", "2,4", "--out", str(out)]
        assert run_cli(*argv) == 0
        first = {name: (out / name).read_bytes()
                 for name in ("params.csv", "manifest.json")}
        assert run_cli(*argv) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob


# the shortest argv each command parses; parsing opens no file
MINIMAL_ARGV = {
    "train": ["train", "--data", "t.tsv", "--valid", "v.tsv"],
    "eval": ["eval", "--checkpoint", "ckpt", "--data", "d.tsv"],
    "attend": ["attend", "--checkpoint", "ckpt", "--data", "d.tsv"],
    "topwords": ["topwords", "--data", "a.jsonl"],
    "params": ["params"],
    "bench": ["bench", "--kind", "le"],
    "heads-sweep": ["heads-sweep", "--data", "t.tsv", "--valid", "v.tsv"],
}


class TestParserBuiltOnce:
    def test_build_parser_returns_one_parser(self):
        assert cli.build_parser() is cli.build_parser()

    def test_three_calls_build_one_parser_tree(self, tmp_path, monkeypatch):
        built = []
        init = cli.argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting_init)
        for k in range(3):
            assert run_cli("params", "--heads", "2,4", "--out", tmp_path / str(k)) == 0
        # the top-level parser and one subparser per command
        assert len(built) == 1 + len(cli.HANDLERS)

    def test_default_runs_write_identical_outputs(self, tmp_path):
        # the second run sees the same default objects the first one did
        names = ("params.csv", "manifest.json")
        assert run_cli("params", "--out", tmp_path) == 0
        first = {name: (tmp_path / name).read_bytes() for name in names}
        assert json.loads(first["manifest.json"])["config"]["heads"] == [2, 4, 8, 16, 32, 64]
        assert run_cli("params", "--out", tmp_path) == 0
        assert {name: (tmp_path / name).read_bytes() for name in names} == first

    def test_usage_error_leaves_the_parser_usable(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("params", "--heads", "two")
        assert exc.value.code == cli.EXIT_USAGE
        assert "expected comma-separated ints" in capsys.readouterr().err
        assert run_cli("params", "--heads", "2,4", "--out", tmp_path) == 0
        assert (tmp_path / "params.csv").read_text().startswith("heads,")

    @pytest.mark.parametrize("command", ["train", "heads-sweep"])
    def test_training_flags_default_to_the_train_config(self, command):
        args = cli.build_parser().parse_args(MINIMAL_ARGV[command])
        assert cli._config_from_args(args) == tr.TrainConfig()

    @pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
    def test_every_default_is_immutable(self, command):
        assert set(MINIMAL_ARGV) == set(cli.HANDLERS)
        args = cli.build_parser().parse_args(MINIMAL_ARGV[command])
        for name, value in vars(args).items():
            try:
                hash(value)
            except TypeError:
                pytest.fail(f"{command} {name} defaults to a mutable {type(value).__name__}")


def test_import_defaults_blas_to_one_thread_and_keeps_a_set_value():
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    env["MKL_NUM_THREADS"] = "3"
    out = subprocess.run(
        [sys.executable, "-c",
         f"import os, lama.cli; print(*(os.environ[v] for v in {blas!r}))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["1", "1", "3"]
