import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import grad_check, padded_A, single_head_scores

from lama import attention as att
from lama import autodiff as ad
from lama import gru
from lama import model as mdl
from lama.attention import (attend, attention_matrix, doc_mean_context, lama_scores,
                            sentence_embedding, word_transform)


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
        report = grad_check(
            lambda p: ad.frobenius_sq(word_transform(ad.constant(H), p[0], p[1])),
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
        np.testing.assert_array_equal(c.value, np.zeros((2, 2)))  # one column per word

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
        # the L valid columns laid out over the padded width
        rng = np.random.default_rng(10)
        H, c, P, Q = nodes_for(rng, 4, 6, 3)
        out = attend(H, c, ad.leaf(np.eye(6)), ad.leaf(np.zeros((6, 1))), P, Q)
        A = padded_A(out, 6)
        np.testing.assert_array_equal(A[:, 4:], 0.0)
        np.testing.assert_array_equal(A[:, :4], out.A_valid.value)
        np.testing.assert_allclose(A.sum(axis=1), 1.0, atol=1e-5)

    def test_row_stochastic_over_random_configs(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = int(rng.integers(1, 9))
            L = int(rng.integers(1, 40))
            A = attention_matrix(ad.leaf(rng.standard_normal((m, L)) * 3))
            np.testing.assert_allclose(A.value.sum(axis=1), 1.0, atol=1e-5)
            assert (A.value >= 0).all()


class TestSingleHeadNormalization:
    """With m = 1 the per-word L2 step across heads divides each word's
    score by its own magnitude (see the attention module docstring)."""

    def test_every_word_scores_plus_or_minus_one(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            L = int(rng.integers(2, 30))
            F = rng.choice([-1.0, 1.0], size=(1, L)) * rng.uniform(0.05, 5.0, size=(1, L))
            A = attention_matrix(ad.leaf(F.astype(np.float32))).value
            assert len(np.unique(A)) <= 2
            pos, neg = A[F > 0], A[F < 0]
            if pos.size and neg.size:
                np.testing.assert_allclose(pos.max() / neg.max(), np.e ** 2, rtol=1e-5)

    def test_agreeing_signs_give_exactly_uniform_attention(self):
        rng = np.random.default_rng(15)
        f32 = lambda *shape: ad.leaf(rng.uniform(0.2, 1.0, shape).astype(np.float32))
        H, c, P, Q = f32(12, 6), f32(6, 1), f32(6, 1), f32(6, 1)
        W_w = ad.leaf(np.eye(6, dtype=np.float32))
        b_w = ad.leaf(np.zeros((6, 1), np.float32))
        out = attend(H, c, W_w, b_w, P, Q)
        scores = lama_scores(word_transform(H, W_w, b_w), c, P, Q)
        assert np.ptp(scores.value) > 0.1  # the words do score differently
        np.testing.assert_array_equal(out.A_valid.value, out.A_valid.value[0, 0])
        np.testing.assert_allclose(out.A_valid.value, 1 / 12, rtol=1e-6)


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
    def run_attend(self, rng, T, d_ann, m, width=None):
        """``attend``'s output and its A over ``width`` positions (T when None)."""
        H, c, P, Q = nodes_for(rng, T, d_ann, m)
        W_w = ad.leaf(rng.standard_normal((d_ann, d_ann)) * 0.3)
        b_w = ad.leaf(rng.standard_normal((d_ann, 1)) * 0.1)
        out = attend(H, c, W_w, b_w, P, Q)
        return out, padded_A(out, T if width is None else width)

    def test_output_shapes_and_row_sums(self):
        rng = np.random.default_rng(16)
        out, A = self.run_attend(rng, T=7, d_ann=6, m=4)
        assert A.shape == (4, 7)
        assert out.S.shape == (4, 6)
        assert out.d_doc.shape == (24, 1)
        np.testing.assert_allclose(A.sum(axis=1), 1.0, atol=1e-5)

    def test_padding_extension_is_bit_identical(self):
        rng = np.random.default_rng(17)
        state = rng.bit_generator.state
        out_short, A_short = self.run_attend(rng, T=5, d_ann=6, m=3, width=5)
        rng2 = np.random.default_rng(17)
        rng2.bit_generator.state = state
        out_long, A_long = self.run_attend(rng2, T=5, d_ann=6, m=3, width=9)
        np.testing.assert_array_equal(A_short, A_long[:, :5])
        np.testing.assert_array_equal(A_long[:, 5:], 0.0)
        np.testing.assert_array_equal(out_short.S.value, out_long.S.value)
        np.testing.assert_array_equal(out_short.d_doc.value, out_long.d_doc.value)

    def test_total_length_below_the_valid_width_rejected(self):
        # a padded width narrower than the document cannot hold its attention
        rng = np.random.default_rng(19)
        with pytest.raises(ad.ShapeMismatchError, match="attend"):
            self.run_attend(rng, T=6, d_ann=4, m=2, width=3)

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

        report = grad_check(builder, [H, c, W_w, b_w, P, Q],
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
        np.testing.assert_allclose(padded_A(out_p, 7), padded_A(out, 7)[:, perm], atol=1e-12)
        np.testing.assert_allclose(out_p.S.value, out.S.value, atol=1e-12)

    def test_matches_bigru_pipeline_when_annotations_are_embeddings(self):
        # LE is by definition the same pipeline applied to raw embeddings
        params = mdl.init_model(12, 2, np.random.default_rng(21), d=4, m=2,
                                encoder="le", mlp_hidden=8)
        nodes = params.store.nodes()
        ids = [3, 7, 2, 9, 5]
        fw = mdl.forward_doc(params, nodes, ids)
        out = attend(ad.leaf(params.store["W_e"][ids]), nodes["attn.c"],
                     nodes["attn.W_w"], nodes["attn.b_w"], nodes["attn.P"],
                     nodes["attn.Q"])
        np.testing.assert_array_equal(padded_A(fw.attn, len(ids)), padded_A(out, len(ids)))
        np.testing.assert_array_equal(fw.attn.S.value, out.S.value)


class TestPackedDocuments:
    """``attend`` over the packed rows of several documents equals
    ``attend`` over each document on its own."""

    @settings(max_examples=40, deadline=None)
    @given(lengths=st.lists(st.integers(1, 9), min_size=1, max_size=6),
           d_ann=st.integers(1, 6), m=st.integers(1, 4),
           doc_mean=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_packed_attend_matches_each_document(self, lengths, d_ann, m, doc_mean, seed):
        rng = np.random.default_rng(seed)
        H = rng.standard_normal((sum(lengths), d_ann))
        weights = [ad.leaf(rng.standard_normal(shape) * 0.5)
                   for shape in ((d_ann, 1), (d_ann, d_ann), (d_ann, 1), (d_ann, m), (d_ann, m))]
        c, W_w, b_w, P, Q = weights
        runs = ad.runs(lengths)
        packed = attend(ad.leaf(H), doc_mean_context(ad.leaf(H), runs) if doc_mean else c,
                        W_w, b_w, P, Q, runs=runs)
        assert packed.S.shape == (len(lengths) * m, d_ann)
        assert packed.d_doc.shape == (m * d_ann, len(lengths))
        for b, hi in enumerate(np.cumsum(lengths)):
            H_b = ad.leaf(H[hi - lengths[b]:hi])
            one = attend(H_b, doc_mean_context(H_b) if doc_mean else c, W_w, b_w, P, Q)
            tol = dict(rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(packed.A_valid.value[:, hi - lengths[b]:hi],
                                       one.A_valid.value, **tol)
            np.testing.assert_allclose(packed.S.value[b * m:(b + 1) * m], one.S.value, **tol)
            np.testing.assert_allclose(packed.d_doc.value[:, b:b + 1], one.d_doc.value, **tol)

    def test_one_document_is_the_unsegmented_case(self):
        rng = np.random.default_rng(22)
        H, c, P, Q = nodes_for(rng, 5, 4, 3)
        W_w, b_w = ad.leaf(np.eye(4)), ad.leaf(np.zeros((4, 1)))
        plain = attend(H, c, W_w, b_w, P, Q)
        one_run = attend(H, c, W_w, b_w, P, Q, runs=ad.runs([5]))
        for attr in ("A_valid", "S", "d_doc"):
            np.testing.assert_array_equal(getattr(one_run, attr).value,
                                          getattr(plain, attr).value)
        # the BiGRU and segment_matmul have no one-run branch: one run takes
        # the general path, whose schedule is the plain scan order
        arrays = [gru.init_gru_arrays(4, 3, rng) for _ in range(2)]
        f, b = ([ad.leaf(a[name]) for name in gru.GATE_NAMES] for a in arrays)
        groups = ad.group_ids(np.arange(5))
        np.testing.assert_array_equal(gru.bigru_encode(H, f, b, ad.runs([5]), groups).value,
                                      gru.bigru_encode(H, f, b, None, groups).value)
        a = ad.leaf(rng.standard_normal((3, 5)))
        np.testing.assert_array_equal(ad.segment_matmul(a, H, ad.runs([5])).value,
                                      ad.segment_matmul(a, H).value)
        perm, widths = gru._packed_schedule(ad.runs([5]), 5)
        np.testing.assert_array_equal(perm, [np.arange(5), np.arange(5)[::-1]])
        assert widths == [1] * 5

    def test_lengths_must_tile_the_rows(self):
        rng = np.random.default_rng(23)
        H, c, P, Q = nodes_for(rng, 5, 4, 3)
        # the lengths themselves are checked by ad.runs (tests/test_autodiff.py)
        for lengths in ([2, 2], [3, 3], [6]):
            with pytest.raises(ad.ShapeMismatchError, match="softmax"):
                attend(H, c, ad.leaf(np.eye(4)), ad.leaf(np.zeros((4, 1))), P, Q,
                       runs=ad.runs(lengths))
