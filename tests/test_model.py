import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from conftest import assert_views_of_one_buffer, graph_nodes
from oracles import dense_grad, grad_check

from lama import attention, classifier
from lama import autodiff as ad
from lama import model as mdl
from lama.text import PAD_ID, Document


def tiny_model(rng=None, **overrides):
    rng = rng or np.random.default_rng(0)
    kw = dict(d=6, h=3, m=2, mlp_hidden=8)
    kw.update(overrides)
    return mdl.init_model(vocab_size=12, num_classes=3, rng=rng, **kw)


class TestInit:
    def test_registry_names_cover_all_components(self):
        params = tiny_model()
        names = params.store.names()
        assert "W_e" in names
        assert "gru_f.W_z" in names and "gru_b.U_h" in names
        assert {"attn.W_w", "attn.b_w", "attn.P", "attn.Q", "attn.c"} <= set(names)
        assert {"cls.W1", "cls.b1", "cls.W_c", "cls.b_c"} <= set(names)

    def test_le_model_has_no_gru(self):
        params = tiny_model(encoder="le")
        assert not any(n.startswith("gru") for n in params.store.names())
        assert params.store["attn.W_w"].shape == (6, 6)

    def test_doc_mean_model_has_no_context_vector(self):
        params = tiny_model(ctx="doc-mean")
        assert "attn.c" not in params.store.names()

    def test_doc_mean_requires_dim_match(self):
        with pytest.raises(ValueError, match="doc-mean"):
            tiny_model(ctx="doc-mean", d=5)  # d != 2h

    def test_embedding_init_shape_bound_and_zero_pad_row(self):
        W_e = tiny_model().store["W_e"]
        assert W_e.shape == (12, 6) and W_e.dtype == np.float32
        assert np.abs(W_e).max() <= 0.1 and np.abs(W_e[1:]).min() > 0
        np.testing.assert_array_equal(W_e[PAD_ID], 0.0)

    def test_pad_row_zeroed(self):
        params = tiny_model()
        np.testing.assert_array_equal(params.store["W_e"][PAD_ID], 0.0)

    @pytest.mark.parametrize("encoder,ctx", [("bigru", "learned"), ("bigru", "doc-mean"),
                                             ("le", "learned"), ("le", "doc-mean")])
    def test_param_shapes_match_the_initialized_store(self, encoder, ctx):
        dims = dict(d=6, h=3, m=2, mlp_hidden=8, ctx=ctx, encoder=encoder)
        params = tiny_model(**dims)
        assert mdl.param_shapes(12, 3, **dims) == \
            {name: value.shape for name, value in params.store.items()}
        assert list(mdl.param_shapes(12, 3, **dims)) == params.store.names()

    def test_param_shapes_rejects_a_model_over_the_budget(self, monkeypatch):
        # only shapes are computed: nothing of the size is allocated
        dims = dict(d=6, h=3, m=2, mlp_hidden=8, ctx="learned", encoder="bigru")
        total = sum(np.prod(s) for s in mdl.param_shapes(12, 3, **dims).values())
        monkeypatch.setattr(mdl, "MAX_PARAMS", total)
        mdl.param_shapes(12, 3, **dims)
        monkeypatch.setattr(mdl, "MAX_PARAMS", total - 1)
        with pytest.raises(ValueError, match=f"{total:,} parameters"):
            mdl.param_shapes(12, 3, **dims)
        monkeypatch.undo()
        for huge in (dict(d=10**8), dict(m=10**7), dict(h=10**5), dict(mlp_hidden=10**8)):
            with pytest.raises(ValueError, match="parameters, more than"):
                mdl.param_shapes(12, 3, **{**dims, **huge})

    @pytest.mark.parametrize("encoder,ctx", [("bigru", "learned"), ("le", "doc-mean")])
    def test_every_tensor_is_a_view_of_one_buffer(self, encoder, ctx):
        store = tiny_model(encoder=encoder, ctx=ctx).store
        layout, total = mdl.param_layout(mdl.param_shapes(
            12, 3, d=6, h=3, m=2, mlp_hidden=8, ctx=ctx, encoder=encoder))
        assert store.layout == layout and store.buffer.shape == (total,)
        assert layout[0][:2] == ("W_e", (12, 6))
        assert_views_of_one_buffer(store)
        with pytest.raises(TypeError):
            store["W_e"] = np.zeros((12, 6), dtype=np.float32)  # no tensor can be rebound

    def test_same_seed_same_weights(self):
        a = tiny_model(np.random.default_rng(5))
        b = tiny_model(np.random.default_rng(5))
        np.testing.assert_array_equal(a.store.buffer, b.store.buffer)

    @pytest.mark.parametrize("encoder", ["bigru", "le"])
    def test_blocked_embedding_draw_is_the_whole_table_draw(self, monkeypatch, encoder):
        # W_e spans several blocks and ends in a partial one; a block as
        # large as the table is the one whole-table draw
        dims = dict(vocab_size=5000, num_classes=3, d=40, h=3, m=2, mlp_hidden=8,
                    encoder=encoder)
        rngs = [np.random.default_rng(5), np.random.default_rng(5)]
        blocked = mdl.init_model(rng=rngs[0], **dims)
        monkeypatch.setattr(mdl, "BLOCK", 2**62)
        whole = mdl.init_model(rng=rngs[1], **dims)
        assert blocked.store.buffer.tobytes() == whole.store.buffer.tobytes()
        assert rngs[0].random() == rngs[1].random()

    def test_init_holds_the_buffer_and_one_block(self):
        # the float64 draw of one block of W_e is the only temporary; a few
        # KiB of Python objects (the store's views and layout) come on top
        models = []
        tracemalloc.start()
        try:
            models.append(mdl.init_model(20_000, 2, np.random.default_rng(0), d=32, h=4, m=1,
                                         mlp_hidden=8, encoder="le"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= models[0].store.buffer.nbytes + mdl.BLOCK * 8 + 2**14


class TestForward:
    def test_probabilities_normalized(self):
        params = tiny_model()
        fw = mdl.forward_doc(params, params.store.nodes(), [2, 5, 7, 3])
        assert fw.probs.value.sum() == pytest.approx(1.0, abs=1e-6)
        assert fw.attn.A_valid.shape == (2, 4)

    def test_padding_is_ignored_bit_exactly(self):
        # padding is decided in text.Document, and the model reads only its
        # valid ids; the annotations reach the output through S = A H, so S
        # pins them bit for bit
        for encoder in ("bigru", "le"):
            params = tiny_model(encoder=encoder)
            nodes = params.store.nodes()
            ids = np.array([2, 5, 7, 3, PAD_ID, PAD_ID])
            fw_padded = mdl.forward_doc(params, nodes, ids, true_length=4)
            fw_plain = mdl.forward_doc(params, nodes, ids[:4])
            for attr in ("probs", "logits"):
                np.testing.assert_array_equal(getattr(fw_padded, attr).value,
                                              getattr(fw_plain, attr).value)
            for attr in ("A_valid", "S", "d_doc"):
                np.testing.assert_array_equal(getattr(fw_padded.attn, attr).value,
                                              getattr(fw_plain.attn, attr).value)

    def test_le_forward_uses_embeddings_as_annotations(self):
        params = tiny_model(encoder="le")
        nodes = params.store.nodes()
        fw = mdl.forward_doc(params, nodes, [4, 9])
        E = params.store["W_e"][[4, 9]]
        np.testing.assert_allclose(fw.attn.S.value, fw.attn.A_valid.value @ E,
                                   rtol=1e-6, atol=1e-7)

    def test_bad_true_length_rejected(self):
        params = tiny_model()
        for true_length in (5, 0, -1):
            with pytest.raises(ValueError, match="true_length"):
                mdl.forward_doc(params, params.store.nodes(), [2, 3],
                                true_length=true_length)

    def test_doc_mean_context_flows_gradient_to_embeddings(self):
        params = tiny_model(ctx="doc-mean")
        nodes = params.store.nodes()
        fw = mdl.forward_doc(params, nodes, [2, 5])
        obj = mdl.doc_objective(fw, 1, "none", 0.2)
        ad.backward(obj)
        grad = dense_grad(nodes["W_e"])
        assert nodes["W_e"].grad is not None and np.abs(grad[[2, 5]]).max() > 0

    def test_full_model_gradient_check_all_regularizers(self):
        # bi-GRU + attention + classifier, float64, dropout off; the check
        # runs at a generic random point because the symmetric init (zero
        # biases) leaves gate gradients tiny enough to drown in FD noise
        rng = np.random.default_rng(3)
        params = tiny_model(rng, dropout=0.0, dtype=np.float64)
        params.store.buffer[...] = rng.uniform(-0.6, 0.6, size=params.store.buffer.size)
        ids = np.array([2, 5, 7, 3, 9, 4])
        names = params.store.names()
        for kind in ("none", "positions", "embeddings"):
            def builder(leaves):
                nodes = dict(zip(names, leaves))
                fw = mdl.forward_doc(params, nodes, ids)
                return mdl.doc_objective(fw, 2, kind, 0.2)

            report = grad_check(builder, [params.store[n] for n in names],
                                step=1e-5, tolerance=1e-5)
            assert report.passed, (kind, report.max_rel_errors)


def shared_token_docs():
    """Three padded documents whose tokens repeat within and across them."""
    rows = [([2, 5, 2, 7], 0), ([5, 9, 2], 2), ([7, 7], 1)]
    return [Document(np.array(ids + [PAD_ID] * 2), len(ids), label) for ids, label in rows]


def assert_one_lookup_of_distinct_rows(fw, W_e):
    """The graph gathers W_e once, at the distinct ids of
    ``shared_token_docs``, and only those rows get a gradient."""
    lookups = [n for n in graph_nodes(fw.logits) if n.op == "take_rows"]
    assert len(lookups) == 1 and lookups[0].shape[0] == 4
    assert np.flatnonzero(np.abs(W_e.grad).sum(axis=1)).tolist() == [2, 5, 7, 9]


class TestGroupedEmbeddingPath:
    """The embedding-only encoder transforms each distinct token of a batch
    once and attends over each document's distinct tokens, weighted by
    their counts; the result must be the per-position computation."""

    @pytest.mark.parametrize("ctx", ["learned", "doc-mean"])
    def test_matches_the_per_position_oracle(self, ctx):
        params = tiny_model(encoder="le", ctx=ctx)
        nodes = params.store.nodes(requires_grad=False)
        docs = shared_token_docs()
        fw = mdl.forward_batch(params, nodes, docs)
        # the lookup, the Q projection and, in doc-mean mode, the context
        expands = sum(n.op == "expand" for n in graph_nodes(fw.logits))
        assert expands == (2 if ctx == "learned" else 3)
        # the graph's A has one column per (document, token) pair; A_valid
        # spreads each pair's weight over its positions
        assert fw.attn.A.shape == (2, 7)
        # attend without a grouping, over every position's own row
        runs = ad.runs([doc.true_length for doc in docs])
        X = ad.constant(params.store["W_e"][np.concatenate(
            [doc.valid_ids() for doc in docs])])
        c = nodes["attn.c"] if ctx == "learned" else attention.doc_mean_context(X, runs)
        oracle = attention.attend(X, c, nodes["attn.W_w"], nodes["attn.b_w"],
                                  nodes["attn.P"], nodes["attn.Q"], runs=runs)
        _, logits = classifier.classify(oracle.d_doc, nodes["cls.W1"], nodes["cls.b1"],
                                        nodes["cls.W_c"], nodes["cls.b_c"], 0.0, train=False)
        for got, want in ((fw.attn.A_valid, oracle.A_valid), (fw.attn.S, oracle.S),
                          (fw.logits, logits)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got.value, want.value, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("ctx", ["learned", "doc-mean"])
    def test_embedding_gradient_has_one_row_per_distinct_token(self, ctx):
        params = tiny_model(encoder="le", ctx=ctx)
        nodes = params.store.nodes()
        docs = shared_token_docs()
        fw = mdl.forward_batch(params, nodes, docs)
        ad.backward(mdl.batch_objective(fw, [doc.label for doc in docs], "positions", 0.2))
        assert_one_lookup_of_distinct_rows(fw, nodes["W_e"])

    @pytest.mark.parametrize("ctx", ["learned", "doc-mean"])
    def test_bigru_looks_each_distinct_token_up_once(self, ctx):
        # the BiGRU encodes every position, but from rows looked up once each
        params = tiny_model(encoder="bigru", ctx=ctx)
        nodes = params.store.nodes()
        docs = shared_token_docs()
        fw = mdl.forward_batch(params, nodes, docs)
        ad.backward(mdl.batch_objective(fw, [doc.label for doc in docs], "positions", 0.2))
        assert_one_lookup_of_distinct_rows(fw, nodes["W_e"])

    @pytest.mark.parametrize("ctx,regularizer", [
        ("learned", "embeddings"), ("doc-mean", "positions"),
        ("learned", "positions"), ("doc-mean", "embeddings")])
    def test_full_model_gradient_check(self, ctx, regularizer):
        rng = np.random.default_rng(4)
        params = tiny_model(rng, encoder="le", ctx=ctx, dropout=0.0, dtype=np.float64)
        params.store.buffer[...] = rng.uniform(-0.6, 0.6, size=params.store.buffer.size)
        names = params.store.names()
        docs = shared_token_docs()

        def builder(leaves):
            fw = mdl.forward_batch(params, dict(zip(names, leaves)), docs)
            return mdl.batch_objective(fw, [doc.label for doc in docs], regularizer, 0.2)

        report = grad_check(builder, [params.store[n] for n in names],
                            step=1e-5, tolerance=1e-5)
        assert report.passed, report.max_rel_errors

    @settings(max_examples=60, deadline=None)
    @given(id_rows=st.lists(st.lists(st.integers(2, 7), min_size=1, max_size=9),
                            min_size=1, max_size=6))
    def test_token_pairs_are_each_documents_distinct_tokens(self, id_rows):
        ids = np.concatenate(id_rows)
        groups = ad.group_ids(ids)
        bag, runs = mdl._token_pairs(groups, [len(row) for row in id_rows])
        # by document, then by first occurrence, each with its count
        want = [(b, t, row.count(t)) for b, row in enumerate(id_rows)
                for t in dict.fromkeys(row)]
        token = groups.unique[bag.tokens.inverse]
        assert list(zip(runs.inverse.tolist(), token.tolist(), bag.counts.tolist())) == want
        docs = np.repeat(np.arange(len(id_rows)), [len(row) for row in id_rows])
        assert (token[bag.pairs] == ids).all() and (runs.inverse[bag.pairs] == docs).all()
        # the grouping of the pairs by token is the one a sort would make
        for name, got, sorted_ in zip(ad.Groups._fields, bag.tokens, ad.group_ids(token)):
            assert np.array_equal(got, sorted_), name

    @pytest.mark.parametrize("ctx", ["learned", "doc-mean"])
    @pytest.mark.parametrize("regularizer", ["positions", "embeddings"])
    def test_no_node_spans_the_positions(self, ctx, regularizer):
        # the documents repeat tokens, so their 9 positions make 7 pairs of
        # 4 distinct tokens; no dimension of the model is 9
        params = tiny_model(encoder="le", ctx=ctx)
        docs = shared_token_docs()
        N = sum(doc.true_length for doc in docs)
        fw = mdl.forward_batch(params, params.store.nodes(), docs)
        j = mdl.batch_objective(fw, [doc.label for doc in docs], regularizer, 0.2)
        shapes = {n.op: n.shape for n in graph_nodes(j) if N in n.shape}
        assert N == 9 and not shapes, shapes
        assert fw.attn.A_valid.shape == (2, N)


class TestBatchObjective:
    """J = L - lambda * D, built by ``batch_objective`` alone."""

    @staticmethod
    def doc_pass():
        params = tiny_model(dtype=np.float64)
        return mdl.forward_doc(params, params.store.nodes(), [2, 5, 7, 3])

    def test_lambda_zero_returns_loss(self):
        fw = self.doc_pass()
        for kind in ("positions", "embeddings"):
            j = mdl.batch_objective(fw, [1], kind, 0.0)
            assert j.op == "softmax_cross_entropy" and j.parents[0][0] is fw.logits, kind

    def test_none_kind_returns_loss(self):
        fw = self.doc_pass()
        j = mdl.batch_objective(fw, [1], "none", 0.7)
        assert j.op == "softmax_cross_entropy" and j.parents[0][0] is fw.logits

    def test_arithmetic(self):
        fw = self.doc_pass()
        L = ad.softmax_cross_entropy(fw.logits, np.eye(3)[1].reshape(-1, 1)).value.item()
        for kind, D in (("positions", classifier.disagreement_positions(fw.attn.A_valid)),
                        ("embeddings", classifier.disagreement_embeddings(fw.attn.S, 2))):
            J = mdl.batch_objective(fw, [1], kind, 0.2).value.item()
            assert J == pytest.approx(L - 0.2 * D.value.item()), kind
