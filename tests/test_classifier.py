import numpy as np
import pytest
from oracles import cross_entropy, grad_check

from lama import autodiff as ad
from lama import model as mdl
from lama.attention import AttentionOutput
from lama.classifier import (classify, disagreement_embeddings, disagreement_positions,
                             init_classifier_arrays)


def make_head(rng, input_dim=6, hidden=5, C=3, dtype=np.float64):
    arrays = init_classifier_arrays(input_dim, hidden, C, rng, dtype=dtype)
    return {k: ad.leaf(v) for k, v in arrays.items()}


class TestClassify:
    def test_symmetric_weights_give_even_split(self):
        d = ad.leaf(np.ones((4, 1)))
        W1 = ad.leaf(np.ones((3, 4)))
        b1 = ad.leaf(np.zeros((3, 1)))
        W_c = ad.leaf(np.ones((2, 3)))  # both classes see identical logits
        b_c = ad.leaf(np.zeros((2, 1)))
        probs, _ = classify(d, W1, b1, W_c, b_c, dropout_rate=0.0, train=False)
        np.testing.assert_allclose(probs.value, 0.5, rtol=1e-12)

    def test_eval_mode_is_deterministic(self):
        rng = np.random.default_rng(0)
        head = make_head(rng)
        d = ad.leaf(rng.standard_normal((6, 1)))
        p1, _ = classify(d, head["W1"], head["b1"], head["W_c"], head["b_c"], 0.4, False)
        p2, _ = classify(d, head["W1"], head["b1"], head["W_c"], head["b_c"], 0.4, False)
        np.testing.assert_array_equal(p1.value, p2.value)

    def test_train_mode_rate_zero_equals_eval(self):
        rng = np.random.default_rng(1)
        head = make_head(rng)
        d = ad.leaf(rng.standard_normal((6, 1)))
        p_train, _ = classify(d, head["W1"], head["b1"], head["W_c"], head["b_c"],
                              0.0, True, rng=rng)
        p_eval, _ = classify(d, head["W1"], head["b1"], head["W_c"], head["b_c"],
                             0.0, False)
        np.testing.assert_array_equal(p_train.value, p_eval.value)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        head = make_head(rng, C=5)
        d = ad.leaf(rng.standard_normal((6, 1)) * 3)
        probs, _ = classify(d, head["W1"], head["b1"], head["W_c"], head["b_c"], 0.0, False)
        assert probs.value.sum() == pytest.approx(1.0, abs=1e-6)

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((4, 1))
        p1 = ad.softmax(ad.leaf(z), axis=0).value
        p2 = ad.softmax(ad.leaf(z + 17.5), axis=0).value
        np.testing.assert_allclose(p1, p2, rtol=1e-10)


class TestCrossEntropy:
    def test_perfect_prediction_zero_loss(self):
        y = np.array([[0.0], [1.0], [0.0]])
        loss = cross_entropy(ad.leaf(y.copy()), ad.leaf(y))
        assert loss.value.item() == 0.0

    def test_uniform_prediction_is_log_c(self):
        probs = ad.leaf(np.full((4, 1), 0.25))
        y = ad.leaf(np.eye(4)[2].reshape(-1, 1))
        assert cross_entropy(probs, y).value.item() == pytest.approx(np.log(4), abs=1e-6)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            p = rng.random((5, 1))
            p /= p.sum()
            y = np.eye(5)[rng.integers(5)].reshape(-1, 1)
            assert cross_entropy(ad.leaf(p), ad.leaf(y)).value.item() >= 0.0

    def test_clamp_keeps_zero_probability_finite(self):
        probs = ad.leaf(np.array([[0.0], [1.0]]))
        y = ad.leaf(np.array([[1.0], [0.0]]))
        loss = cross_entropy(probs, y)
        assert loss.value.item() == pytest.approx(-np.log(1e-12))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        p = rng.random((4, 1)) + 0.1
        y = np.eye(4)[1].reshape(-1, 1)
        report = grad_check(
            lambda leaves: cross_entropy(leaves[0], ad.constant(y)), [p],
            step=1e-6, tolerance=1e-6)
        assert report.passed


class TestDisagreementPositions:
    def test_orthonormal_rows_score_zero(self):
        A = np.zeros((3, 5))
        A[0, 0] = A[1, 2] = A[2, 4] = 1.0  # disjoint one-hots: A A^T = I
        assert disagreement_positions(ad.leaf(A)).value.item() == 0.0

    def test_identical_one_hot_rows(self):
        A = np.zeros((2, 4))
        A[:, 1] = 1.0
        assert disagreement_positions(ad.leaf(A)).value.item() == pytest.approx(-2.0)

    def test_never_positive(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            A = rng.random((3, 6))
            A /= A.sum(axis=1, keepdims=True)
            assert disagreement_positions(ad.leaf(A)).value.item() <= 0.0


class TestDisagreementEmbeddings:
    def test_identical_rows_give_minus_one(self):
        S = np.tile([[1.0, 2.0, 3.0]], (4, 1))
        assert disagreement_embeddings(ad.leaf(S)).value.item() == pytest.approx(-1.0, abs=1e-6)

    def test_two_orthogonal_rows(self):
        S = np.array([[1.0, 0.0], [0.0, 1.0]])
        # diagonal cosines only: -(2*1 + 2*0)/4
        assert disagreement_embeddings(ad.leaf(S)).value.item() == pytest.approx(-0.5, abs=1e-6)

    def test_bounded_by_one_in_magnitude(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            S = rng.standard_normal((4, 6))
            val = disagreement_embeddings(ad.leaf(S)).value.item()
            assert -1.0 - 1e-9 <= val <= 1.0 + 1e-9


class TestGradientsThroughRegularizers:
    def test_classifier_and_both_regularizers_pass_grad_check(self):
        rng = np.random.default_rng(8)
        T, d_ann, m, C, hidden = 4, 4, 3, 2, 5
        A0 = rng.random((m, T))
        A0 /= A0.sum(axis=1, keepdims=True)
        H = rng.standard_normal((T, d_ann)) * 0.5
        head = init_classifier_arrays(d_ann * m, hidden, C, rng, dtype=np.float64)
        for kind in ("none", "positions", "embeddings"):
            def builder(p):
                A = ad.softmax(p[0], axis=1)
                S = ad.matmul(A, p[1])
                d_doc = ad.reshape(S, (d_ann * m, 1))
                probs, logits = classify(d_doc, p[2], p[3], p[4], p[5], 0.0, False)
                fw = mdl.ForwardPass(logits, probs, AttentionOutput(A, S, d_doc))
                return mdl.batch_objective(fw, [1], kind, 0.2)

            report = grad_check(
                builder, [A0, H, head["W1"], head["b1"], head["W_c"], head["b_c"]],
                step=1e-5, tolerance=1e-6)
            assert report.passed, (kind, report.max_rel_errors)
