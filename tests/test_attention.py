import numpy as np
import pytest

from lama import attention as att
from lama import autodiff as ad
from lama import model as mdl
from lama.attention import (attend, attention_matrix, doc_mean_context, lama_scores,
                            sentence_embedding, single_head_scores, word_transform)


def nodes_for(rng, T, d_ann, m):
    H = ad.leaf(rng.standard_normal((T, d_ann)))
    c = ad.leaf(rng.standard_normal((d_ann, 1)))
    P = ad.leaf(rng.standard_normal((d_ann, m)))
    Q = ad.leaf(rng.standard_normal((d_ann, m)))
    return H, c, P, Q


class TestWordTransform:
    def test_identity_weights_give_tanh(self):
        rng = np.random.default_rng(0)
        H = rng.uniform(-0.9, 0.9, (4, 3))
        U = word_transform(ad.leaf(H), ad.leaf(np.eye(3)), ad.leaf(np.zeros((3, 1))))
        np.testing.assert_allclose(U.value, np.tanh(H), rtol=1e-12)

    def test_zero_input_zero_bias_gives_zero(self):
        U = word_transform(ad.leaf(np.zeros((4, 3))), ad.leaf(np.eye(3)),
                           ad.leaf(np.zeros((3, 1))))
        np.testing.assert_array_equal(U.value, 0.0)

    def test_gradient_wrt_weights(self):
        rng = np.random.default_rng(1)
        H = rng.standard_normal((4, 3)) * 0.5
        W = rng.standard_normal((3, 3)) * 0.5
        b = rng.standard_normal((3, 1)) * 0.5
        report = ad.grad_check(
            lambda p: ad.tsum(word_transform(ad.constant(H), p[0], p[1])),
            [W, b], step=1e-5, tolerance=1e-6)
        assert report.passed, report.max_rel_errors


class TestContextInit:
    def test_doc_mean_single_token_is_that_embedding(self):
        x = np.array([[1.0, -2.0, 3.0]])
        c = doc_mean_context(ad.leaf(x))
        np.testing.assert_allclose(c.value, x.T, rtol=1e-12)

    def test_doc_mean_opposite_embeddings_cancel(self):
        x = np.array([[1.0, -2.0], [-1.0, 2.0]])
        c = doc_mean_context(ad.leaf(x))
        np.testing.assert_array_equal(c.value, np.zeros((2, 1)))

    def test_learned_mode_reproducible_from_seed(self):
        a = att.init_attention_arrays(8, 2, np.random.default_rng(42), ctx="learned")
        b = att.init_attention_arrays(8, 2, np.random.default_rng(42), ctx="learned")
        assert a["c"].shape == (8, 1)
        np.testing.assert_array_equal(a["c"], b["c"])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="context mode"):
            mdl.init_model(12, 2, np.random.default_rng(0), d=6, h=3, ctx="weird")


class TestSingleHeadScores:
    def test_identity_projection_is_dot_product(self):
        rng = np.random.default_rng(2)
        U = rng.standard_normal((5, 3))
        c = rng.standard_normal((3, 1))
        f, _ = single_head_scores(ad.leaf(U), ad.leaf(c), ad.leaf(np.eye(3)))
        np.testing.assert_allclose(f.value, (U @ c).T, rtol=1e-10)

    def test_identical_words_get_uniform_attention(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((1, 3))
        U = np.repeat(u, 4, axis=0)
        _, alpha = single_head_scores(ad.leaf(U), ad.leaf(rng.standard_normal((3, 1))),
                                      ad.leaf(rng.standard_normal((3, 3))))
        np.testing.assert_allclose(alpha.value, 0.25, rtol=1e-6)

    def test_single_position_gets_everything(self):
        rng = np.random.default_rng(4)
        _, alpha = single_head_scores(ad.leaf(rng.standard_normal((1, 3))),
                                      ad.leaf(rng.standard_normal((3, 1))),
                                      ad.leaf(rng.standard_normal((3, 3))))
        np.testing.assert_array_equal(alpha.value, [[1.0]])


class TestLamaScores:
    def test_rank1_equivalence_with_dense_oracle(self):
        # the central claim: per head i, factorized scores equal c^T (p_i q_i^T) u_t
        rng = np.random.default_rng(5)
        for trial in range(100):
            T = int(rng.integers(1, 33))
            d_ann = 2 * int(rng.integers(1, 17))
            m = int(rng.integers(1, 9))
            H, c, P, Q = nodes_for(rng, T, d_ann, m)
            U = word_transform(H, ad.leaf(np.eye(d_ann)), ad.leaf(np.zeros((d_ann, 1))))
            F = lama_scores(U, c, P, Q)
            for i in range(m):
                W_i = np.outer(P.value[:, i], Q.value[:, i])
                f, _ = single_head_scores(U, c, ad.leaf(W_i))
                assert np.abs(F.value[i] - f.value[0]).max() < 1e-6, f"trial {trial} head {i}"

    def test_zero_context_annihilates(self):
        rng = np.random.default_rng(6)
        H, _, P, Q = nodes_for(rng, 5, 4, 3)
        F = lama_scores(H, ad.leaf(np.zeros((4, 1))), P, Q)
        np.testing.assert_array_equal(F.value, np.zeros((3, 5)))

    def test_scaling_context_scales_scores(self):
        rng = np.random.default_rng(7)
        H, c, P, Q = nodes_for(rng, 5, 4, 3)
        F1 = lama_scores(H, c, P, Q)
        F2 = lama_scores(H, ad.scale(c, 2.5), P, Q)
        np.testing.assert_allclose(F2.value, 2.5 * F1.value, rtol=1e-10)

    def test_shape_validation(self):
        rng = np.random.default_rng(8)
        H, c, P, Q = nodes_for(rng, 5, 4, 3)
        with pytest.raises(ad.ShapeMismatchError):
            lama_scores(H, c, ad.leaf(np.ones((6, 3))), Q)


class TestAttentionMatrix:
    def test_equal_scores_split_evenly(self):
        A = attention_matrix(ad.leaf(np.array([[0.7, 0.7]])))
        np.testing.assert_allclose(A.value, [[0.5, 0.5]], rtol=1e-12)

    def test_pre_softmax_values_bounded_by_unit_columns(self):
        rng = np.random.default_rng(9)
        F = ad.leaf(rng.standard_normal((4, 7)) * 5)
        bounded = ad.l2_normalize(ad.tanh(F), axis=0)
        assert np.abs(bounded.value).max() <= 1.0 + 1e-12

    def test_masked_columns_exactly_zero(self):
        # attend lays the L valid columns out over the padded width for export
        rng = np.random.default_rng(10)
        H, c, P, Q = nodes_for(rng, 4, 6, 3)
        out = attend(H, c, ad.leaf(np.eye(6)), ad.leaf(np.zeros((6, 1))), P, Q,
                     total_length=6)
        np.testing.assert_array_equal(out.A[:, 4:], 0.0)
        np.testing.assert_array_equal(out.A[:, :4], out.A_valid.value)
        np.testing.assert_allclose(out.A.sum(axis=1), 1.0, atol=1e-5)

    def test_row_stochastic_over_random_configs(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = int(rng.integers(1, 9))
            L = int(rng.integers(1, 40))
            A = attention_matrix(ad.leaf(rng.standard_normal((m, L)) * 3))
            np.testing.assert_allclose(A.value.sum(axis=1), 1.0, atol=1e-5)
            assert (A.value >= 0).all()


class TestSentenceEmbedding:
    def test_one_hot_rows_select_annotations(self):
        rng = np.random.default_rng(13)
        H = rng.standard_normal((5, 4))
        A = np.zeros((3, 5))
        A[0, 2] = A[1, 0] = A[2, 4] = 1.0
        S, d_doc = sentence_embedding(ad.leaf(A), ad.leaf(H))
        np.testing.assert_allclose(S.value, H[[2, 0, 4]], rtol=1e-12)
        np.testing.assert_allclose(d_doc.value.ravel(), H[[2, 0, 4]].ravel(), rtol=1e-12)

    def test_uniform_rows_average_annotations(self):
        rng = np.random.default_rng(14)
        H = rng.standard_normal((6, 4))
        A = np.full((2, 6), 1 / 6)
        S, _ = sentence_embedding(ad.leaf(A), ad.leaf(H))
        np.testing.assert_allclose(S.value, np.tile(H.mean(axis=0), (2, 1)), rtol=1e-10)

    def test_head_by_head_loop_matches_matrix_product(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            m, T, d_ann = rng.integers(1, 6), rng.integers(1, 10), rng.integers(2, 8)
            A = rng.random((m, T))
            A /= A.sum(axis=1, keepdims=True)
            H = rng.standard_normal((T, d_ann))
            S, _ = sentence_embedding(ad.leaf(A), ad.leaf(H))
            for j in range(m):
                looped = sum(H[k] * A[j, k] for k in range(T))
                np.testing.assert_allclose(S.value[j], looped, rtol=1e-10, atol=1e-12)


class TestFullPipeline:
    def run_attend(self, rng, T, d_ann, m, total_length=None):
        H, c, P, Q = nodes_for(rng, T, d_ann, m)
        W_w = ad.leaf(rng.standard_normal((d_ann, d_ann)) * 0.3)
        b_w = ad.leaf(rng.standard_normal((d_ann, 1)) * 0.1)
        return attend(H, c, W_w, b_w, P, Q, total_length=total_length), (H, c, W_w, b_w, P, Q)

    def test_output_shapes_and_row_sums(self):
        rng = np.random.default_rng(16)
        out, _ = self.run_attend(rng, T=7, d_ann=6, m=4)
        assert out.A.shape == (4, 7)
        assert out.S.shape == (4, 6)
        assert out.d_doc.shape == (24, 1)
        np.testing.assert_allclose(out.A.sum(axis=1), 1.0, atol=1e-5)

    def test_padding_extension_is_bit_identical(self):
        rng = np.random.default_rng(17)
        state = rng.bit_generator.state
        out_short, _ = self.run_attend(rng, T=5, d_ann=6, m=3, total_length=5)
        rng2 = np.random.default_rng(17)
        rng2.bit_generator.state = state
        out_long, _ = self.run_attend(rng2, T=5, d_ann=6, m=3, total_length=9)
        np.testing.assert_array_equal(out_short.A, out_long.A[:, :5])
        np.testing.assert_array_equal(out_long.A[:, 5:], 0.0)
        np.testing.assert_array_equal(out_short.S.value, out_long.S.value)
        np.testing.assert_array_equal(out_short.d_doc.value, out_long.d_doc.value)

    def test_gradients_through_whole_pipeline(self):
        rng = np.random.default_rng(18)
        T, d_ann, m = 4, 4, 3
        H = rng.standard_normal((T, d_ann)) * 0.5
        c = rng.standard_normal((d_ann, 1)) * 0.5
        W_w = rng.standard_normal((d_ann, d_ann)) * 0.3
        b_w = rng.standard_normal((d_ann, 1)) * 0.1
        P = rng.standard_normal((d_ann, m)) * 0.5
        Q = rng.standard_normal((d_ann, m)) * 0.5

        def builder(p):
            out = attend(p[0], p[1], p[2], p[3], p[4], p[5])
            return ad.frobenius_sq(out.S)

        report = ad.grad_check(builder, [H, c, W_w, b_w, P, Q],
                               step=1e-5, tolerance=1e-6)
        assert report.passed, report.max_rel_errors


class TestLamaEncoder:
    """The embedding-only (LE) encoder: ``attend`` over the raw embeddings."""

    def test_single_token_embedding_comes_back(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((1, 6))
        c = ad.leaf(rng.standard_normal((6, 1)))
        W_w = ad.leaf(rng.standard_normal((6, 6)))
        b_w = ad.leaf(rng.standard_normal((6, 1)))
        P = ad.leaf(rng.standard_normal((6, 3)))
        Q = ad.leaf(rng.standard_normal((6, 3)))
        out = attend(ad.leaf(x), c, W_w, b_w, P, Q)
        np.testing.assert_allclose(out.S.value, np.tile(x, (3, 1)), rtol=1e-10)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((7, 6))
        c = ad.leaf(rng.standard_normal((6, 1)))
        W_w = ad.leaf(rng.standard_normal((6, 6)) * 0.5)
        b_w = ad.leaf(rng.standard_normal((6, 1)) * 0.1)
        P = ad.leaf(rng.standard_normal((6, 3)))
        Q = ad.leaf(rng.standard_normal((6, 3)))
        out = attend(ad.leaf(x), c, W_w, b_w, P, Q)
        perm = rng.permutation(7)
        out_p = attend(ad.leaf(x[perm]), c, W_w, b_w, P, Q)
        np.testing.assert_allclose(out_p.A, out.A[:, perm], atol=1e-12)
        np.testing.assert_allclose(out_p.S.value, out.S.value, atol=1e-12)

    def test_matches_bigru_pipeline_when_annotations_are_embeddings(self):
        # LE is by definition the same pipeline applied to raw embeddings
        params = mdl.init_model(12, 2, np.random.default_rng(21), d=4, m=2,
                                encoder="le", mlp_hidden=8)
        nodes = params.store.nodes()
        ids = [3, 7, 2, 9, 5]
        fw = mdl.forward_doc(params, nodes, ids)
        out = attend(ad.leaf(params.store["W_e"].value[ids]), nodes["attn.c"],
                     nodes["attn.W_w"], nodes["attn.b_w"], nodes["attn.P"],
                     nodes["attn.Q"])
        np.testing.assert_array_equal(fw.attn.A, out.A)
        np.testing.assert_array_equal(fw.attn.S.value, out.S.value)
