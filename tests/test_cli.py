import csv
import json
import os
import shutil
import warnings

import numpy as np
import pytest

from lama import cli, text, training as tr
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
    "weights-truncated": _edit_file("weights.bin", lambda b: b[:len(b) // 2]),
    "weights-too-long": _edit_file("weights.bin", lambda b: b + b"\0" * 4),
    "weights-nan": _write_weights("attn.W_w", np.nan),
    "config-not-json": _edit_file("config.json", lambda b: b"{not json"),
    "config-unknown-key": _edit_config(lambda meta: meta["config"].update(frobnicate=1)),
    "config-no-labels": _edit_config(lambda meta: meta.pop("labels")),
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

    def test_divergence_exit_code(self, workspace, tmp_path):
        code = run_cli("train", "--data", workspace["train"], "--valid",
                       workspace["valid"], "--out", tmp_path / "boom",
                       "--lr", "200", "--weight-decay", "0.05", *TRAIN_FLAGS[2:])
        assert code == cli.EXIT_DIVERGED

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

    def test_empty_dataset_is_data_error(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("\n", encoding="utf-8")
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", workspace["ckpt"], "--data", empty,
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

    def test_min_occurrences_filter(self, export):
        ranking = cli.top_attended_words(export, min_occurrences=10_000)
        assert ranking == []


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

    def test_bad_lengths_usage_error(self, tmp_path):
        code = run_cli("bench", "--kind", "te", "--lengths", "8,16",
                       "--out", tmp_path / "x")
        assert code == cli.EXIT_USAGE


class TestHeadsSweep:
    def test_sweep_writes_sorted_csv(self, workspace, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli("heads-sweep", "--data", workspace["train"], "--valid",
                       workspace["valid"], "--grid", "2,1", "--out", out,
                       *TRAIN_FLAGS[:-2], "--epochs", "2")
        assert code == 0
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert [int(r["m"]) for r in rows] == [1, 2]


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
