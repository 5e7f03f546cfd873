import numpy as np
import pytest

from lama import autodiff as ad
from lama import model as mdl
from lama.classifier import ObjectiveConfig
from lama.text import PAD_ID


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
        assert params.d_ann == 6

    def test_doc_mean_model_has_no_context_vector(self):
        params = tiny_model(ctx="doc-mean")
        assert "attn.c" not in params.store.names()

    def test_doc_mean_requires_dim_match(self):
        with pytest.raises(ValueError, match="doc-mean"):
            tiny_model(ctx="doc-mean", d=5)  # d != 2h

    def test_pad_row_zeroed(self):
        params = tiny_model()
        np.testing.assert_array_equal(params.store["W_e"].value[PAD_ID], 0.0)

    @pytest.mark.parametrize("encoder,ctx", [("bigru", "learned"), ("bigru", "doc-mean"),
                                             ("le", "learned"), ("le", "doc-mean")])
    def test_param_shapes_match_the_initialized_store(self, encoder, ctx):
        dims = dict(d=6, h=3, m=2, mlp_hidden=8, ctx=ctx, encoder=encoder)
        params = tiny_model(**dims)
        assert mdl.param_shapes(12, 3, **dims) == \
            {p.name: p.value.shape for p in params.store}
        assert list(mdl.param_shapes(12, 3, **dims)) == params.store.names()

    def test_same_seed_same_weights(self):
        a = tiny_model(np.random.default_rng(5))
        b = tiny_model(np.random.default_rng(5))
        for pa, pb in zip(a.store, b.store):
            np.testing.assert_array_equal(pa.value, pb.value)


class TestForward:
    def test_probabilities_normalized(self):
        params = tiny_model()
        fw = mdl.forward_doc(params, params.store.nodes(), [2, 5, 7, 3])
        assert fw.probs.value.sum() == pytest.approx(1.0, abs=1e-6)
        assert fw.attn.A_valid.shape == (2, 4)

    def test_padding_is_ignored_bit_exactly(self):
        # forward_doc is the only place that trims padding; the annotations
        # reach the output through S = A H, so S pins them bit for bit
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
        E = params.store["W_e"].value[[4, 9]]
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
        obj = mdl.doc_objective(fw, 1, 3, ObjectiveConfig("none"))
        ad.backward(obj)
        grad = nodes["W_e"].grad
        assert grad is not None and np.abs(grad[[2, 5]]).max() > 0

    def test_full_model_gradient_check_all_regularizers(self):
        # bi-GRU + attention + classifier, float64, dropout off; the check
        # runs at a generic random point because the symmetric init (zero
        # biases) leaves gate gradients tiny enough to drown in FD noise
        rng = np.random.default_rng(3)
        params = tiny_model(rng, dropout=0.0)
        for p in params.store:
            p.value = rng.uniform(-0.6, 0.6, size=p.value.shape)
        ids = np.array([2, 5, 7, 3, 9, 4])
        names = params.store.names()
        for kind in ("none", "positions", "embeddings"):
            obj = ObjectiveConfig(kind, 0.2)

            def builder(leaves):
                nodes = dict(zip(names, leaves))
                fw = mdl.forward_doc(params, nodes, ids)
                return mdl.doc_objective(fw, 2, 3, obj)

            report = ad.grad_check(builder, [p.value for p in params.store],
                                   step=1e-5, tolerance=1e-5)
            assert report.passed, (kind, report.max_rel_errors)
