"""Tests of the benchmark itself: tracer arithmetic, corpus determinism and
a tiny run of each workload. No assertion depends on wall-clock speed."""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

import run

run.import_program()

import lama.training  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
import zipfcorpus  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    """Advances by one tick each time it is read."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_on_a_toy_call_tree():
    tracer = tracing.Tracer(clock=FakeClock())
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: (leaf(), leaf()))
    top = tracer.wrap("top", lambda: (mid(), leaf()))
    with tracer.in_phase("measure"):
        top()
    # clock reads: in_phase 1, top 2..11, mid 3..8, leaves 4-5, 6-7, 9-10
    selfs = tracing.self_times(tracer.spans)
    assert selfs[("measure", "leaf")] == 3.0
    assert selfs[("measure", "mid")] == 5.0 - 2.0
    assert selfs[("measure", "top")] == 9.0 - 5.0 - 1.0
    assert tracer.calls[("measure", "leaf")] == 3
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 1, 0]
    # the phase spans 1..12; spans cover 2..11
    layer = tracer.per_layer({"measure": 1}, train_docs=0, call_cost=0.0)
    assert layer["unattributed.s"] == 11.0 - 9.0


def test_self_times_splits_by_phase_and_sums_repeats():
    spans = [tracing.Span("a", "setup", 0.0, 4.0),
             tracing.Span("b", "setup", 1.0, 2.0, parent=0),
             tracing.Span("a", "measure", 5.0, 6.0)]
    assert tracing.self_times(spans) == {("setup", "a"): 3.0, ("setup", "b"): 1.0,
                                         ("measure", "a"): 1.0}


def test_install_patches_callers_namespaces_and_uninstall_restores():
    original = lama.training.forward_doc
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert lama.training.forward_doc is not original
        assert lama.training.forward_doc.__wrapped__ is original
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    assert lama.training.forward_doc is original


def test_a_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TRACED",
                        tracing.TRACED + [("lama.gru", "no_such_function"),
                                          ("lama.training", "Checkpoint.no_such")])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["gru.no_such_function", "training.Checkpoint.no_such"]


def test_zipf_corpus_is_determined_by_its_seed():
    spec = zipfcorpus.ZipfSpec()
    first = zipfcorpus.make_pairs(spec, 12, seed=3)
    assert first == zipfcorpus.make_pairs(spec, 12, seed=3)
    assert first != zipfcorpus.make_pairs(spec, 12, seed=4)
    vocab = zipfcorpus.make_vocab(spec)
    assert len(vocab) == spec.vocab_size
    for i, (label, doc) in enumerate(first):
        k = i % zipfcorpus.CLASSES
        tokens = doc.split()
        assert label == zipfcorpus.label_name(k)
        assert spec.min_len <= len(tokens) <= spec.max_len
        markers = {t for t in tokens if t.startswith("mark")}
        assert markers and markers <= set(zipfcorpus.marker_words(k))
        assert all(vocab.lookup(t) > 1 for t in tokens)


def test_padded_share():
    assert zipfcorpus.padded_share([64, 128, 256], 256) == pytest.approx(1 - 448 / 768)
    assert zipfcorpus.padded_share([300], 256) == 0.0


def test_metric_and_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == run.WORKLOAD_NAMES
    assert list(wl.WORKLOADS) == run.WORKLOAD_NAMES
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == tracing.PER_LAYER
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


TINY = {
    "keyword-bigru-train": dict(n_train=8, n_valid=4, n_test=4, epochs=1,
                                serve_docs=2, serve_calls=1, setups=1),
    "zipf50k-le-train": dict(n_train=4, n_valid=2, n_test=2, epochs=1,
                             serve_docs=2, serve_calls=1, setups=1),
}


def tiny(name):
    workload = wl.WORKLOADS[name]
    return replace(workload, sizes=replace(workload.sizes, **TINY[name]))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_of_each_workload(name, tmp_path):
    workload = tiny(name)
    record = run.bench(workload, seed=1, seconds=0.0, trace=False, base=tmp_path)
    assert record["failed"] == 0 and record["attempted"] > 0
    assert record["checks"]["losses_finite"] and record["checks"]["eval_round_trip"]
    expected = {(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]}
    assert {(k, m["unit"]) for k, m in record["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) and m["value"] > 0
               for m in record["metrics"].values())
    saved = json.loads(Path(tmp_path, "results", f"{name}-seed1-trace0.json").read_text())
    assert saved["metrics"] == record["metrics"]
    assert not (tmp_path / "work").exists() or not any((tmp_path / "work").iterdir())


def test_tiny_traced_run_reports_every_per_layer_metric(tmp_path):
    workload = tiny("keyword-bigru-train")
    record = run.bench(workload, seed=2, seconds=0.0, trace=True, base=tmp_path)
    assert record["failed"] == 0
    assert list(record["metrics"]) == [name for name, _ in tracing.PER_LAYER]
    values = {k: m["value"] for k, m in record["metrics"].items()}
    assert values["gru.bigru_encode.calls"] > 0
    assert values["training.Checkpoint.save.s"] > 0
    assert 0 <= values["trace.overhead_frac"] < 1
    assert lama.training.evaluate.__module__ == "lama.training"
    assert not hasattr(lama.training.evaluate, "__wrapped__")
