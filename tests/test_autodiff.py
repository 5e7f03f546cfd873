import numpy as np
import pytest

from lama import autodiff as ad


def scalar(node):
    return node.value.item()


def rand(rng, *shape):
    return rng.standard_normal(shape)


class TestForward:
    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        x = rand(rng, 3, 3)
        out = ad.matmul(ad.leaf(np.eye(3)), ad.leaf(x))
        np.testing.assert_array_equal(out.value, x)

    def test_tanh_at_zero(self):
        out = ad.tanh(ad.leaf(np.zeros((2, 3))))
        np.testing.assert_array_equal(out.value, np.zeros((2, 3)))

    def test_softmax_equal_logits_is_uniform(self):
        out = ad.softmax(ad.leaf(np.zeros((1, 3))), axis=1)
        np.testing.assert_allclose(out.value, np.full((1, 3), 1 / 3), atol=1e-12)

    def test_softmax_rows_are_distributions(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rand(rng, 4, 7) * 10
            out = ad.softmax(ad.leaf(x), axis=1).value
            assert (out >= 0).all()
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_l2_normalize_columns(self):
        rng = np.random.default_rng(2)
        x = rand(rng, 5, 4) + 0.5
        out = ad.l2_normalize(ad.leaf(x), axis=0).value
        np.testing.assert_allclose(np.linalg.norm(out, axis=0), 1.0, atol=1e-6)

    def test_l2_normalize_zero_maps_to_zero(self):
        out = ad.l2_normalize(ad.leaf(np.zeros((4, 2))), axis=0).value
        np.testing.assert_array_equal(out, np.zeros((4, 2)))

    def test_sigmoid_extremes_are_exact(self):
        out = ad.sigmoid(ad.leaf(np.array([[-1e9, 0.0, 1e9]]))).value
        np.testing.assert_array_equal(out, [[0.0, 0.5, 1.0]])


class TestErrors:
    def test_matmul_shape_error_names_op_and_shapes(self):
        with pytest.raises(ad.ShapeMismatchError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
            ad.matmul(ad.leaf(np.ones((2, 3))), ad.leaf(np.ones((2, 3))))

    def test_non_finite_error_names_op(self):
        big = ad.leaf(np.full((1, 1), 1e308))
        with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError, match="hadamard"):
            ad.hadamard(big, big)

    def test_backward_rejects_non_scalar_root(self):
        x = ad.leaf(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ad.NonScalarRootError):
            ad.backward(ad.tanh(x))

    def test_concat_shape_error(self):
        with pytest.raises(ad.ShapeMismatchError):
            ad.concat([ad.leaf(np.ones((2, 3))), ad.leaf(np.ones((3, 4)))], axis=1)

    def test_dropout_rate_validation(self):
        with pytest.raises(ad.AutodiffError):
            ad.dropout(ad.leaf(np.ones((2, 2))), 1.0, np.random.default_rng(0), True)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        rng = np.random.default_rng(3)
        x = ad.leaf(rand(rng, 3, 4), requires_grad=True)
        ad.backward(ad.tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_frobenius_gradient_is_2x(self):
        rng = np.random.default_rng(4)
        xv = rand(rng, 3, 3)
        x = ad.leaf(xv, requires_grad=True)
        ad.backward(ad.frobenius_sq(x))
        np.testing.assert_allclose(x.grad, 2 * xv, rtol=1e-12)

    def test_hadamard_product_rule(self):
        rng = np.random.default_rng(5)
        av, bv = rand(rng, 2, 5), rand(rng, 2, 5)
        a = ad.leaf(av, requires_grad=True)
        b = ad.leaf(bv, requires_grad=True)
        ad.backward(ad.tsum(ad.hadamard(a, b)))
        np.testing.assert_allclose(a.grad, bv, rtol=1e-12)
        np.testing.assert_allclose(b.grad, av, rtol=1e-12)

    def test_fanout_gradients_add(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            xv = rand(rng, 3, 2)
            x = ad.leaf(xv, requires_grad=True)
            ad.backward(ad.add(ad.tsum(ad.tanh(x)), ad.frobenius_sq(x)))
            combined = x.grad.copy()

            x1 = ad.leaf(xv, requires_grad=True)
            ad.backward(ad.tsum(ad.tanh(x1)))
            x2 = ad.leaf(xv, requires_grad=True)
            ad.backward(ad.frobenius_sq(x2))
            np.testing.assert_allclose(combined, x1.grad + x2.grad, rtol=1e-10)

    def test_backward_returns_leaf_map(self):
        x = ad.leaf(np.ones((2, 2)), requires_grad=True)
        y = ad.leaf(np.ones((2, 2)), requires_grad=True)
        leaves = ad.backward(ad.tsum(ad.add(x, y)))
        assert set(leaves) == {x._id, y._id}

    def test_take_rows_accumulates_repeats(self):
        w = ad.leaf(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = ad.take_rows(w, [1, 1, 2])
        ad.backward(ad.tsum(out))
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[2] = 1.0
        np.testing.assert_array_equal(w.grad, expected)


PRIMITIVE_BUILDERS = {
    "matmul": lambda p: ad.tsum(ad.matmul(p[0], p[1])),
    "add": lambda p: ad.tsum(ad.tanh(ad.add(p[0], p[1]))),
    # add broadcasting a bias column over every column of a matrix
    "bias_add": lambda p: ad.tsum(ad.tanh(ad.add(p[0], ad.slice_cols(p[1], 0, 1)))),
    "hadamard": lambda p: ad.tsum(ad.hadamard(p[0], p[1])),
    "tanh": lambda p: ad.tsum(ad.tanh(p[0])),
    "sigmoid": lambda p: ad.tsum(ad.sigmoid(p[0])),
    "softmax": lambda p: ad.tsum(ad.hadamard(ad.softmax(p[0], axis=1), p[1])),
    "l2_normalize": lambda p: ad.tsum(ad.hadamard(ad.l2_normalize(p[0], axis=0), p[1])),
    "concat": lambda p: ad.tsum(ad.tanh(ad.concat([p[0], p[1]], axis=0))),
    "slice": lambda p: ad.tsum(ad.tanh(ad.slice_cols(p[0], 1, 4))),
    "sum_axis": lambda p: ad.tsum(ad.tanh(ad.tsum(ad.scale(p[0], 0.3), axis=1))),
    "mean": lambda p: ad.scale(ad.tmean(ad.hadamard(p[0], p[0])), 3.0),
    "scale": lambda p: ad.tsum(ad.scale(p[0], -2.5)),
    "frobenius": lambda p: ad.frobenius_sq(p[0]),
    "transpose": lambda p: ad.tsum(ad.hadamard(ad.transpose(p[0]), ad.transpose(p[1]))),
    "reshape": lambda p: ad.tsum(ad.tanh(ad.reshape(p[0], (1, p[0].value.size)))),
    "take_rows": lambda p: ad.frobenius_sq(ad.take_rows(p[0], [0, 2, 2, 1])),
    "softmax_xent": lambda p: ad.softmax_cross_entropy(
        ad.reshape(p[0], (p[0].value.size, 1)),
        ad.constant(np.eye(p[0].value.size)[2].reshape(-1, 1))),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_BUILDERS))
def test_primitive_gradients_match_finite_differences(name):
    builder = PRIMITIVE_BUILDERS[name]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rand(rng, 3, 5)
        b = rand(rng, 3, 5) if name != "matmul" else rand(rng, 5, 3)
        report = ad.grad_check(lambda p: builder(p), [a, b], step=1e-6, tolerance=1e-6)
        assert report.passed, f"{name} seed {seed}: {report.max_rel_errors}"


class TestGradCheckHarness:
    def test_quadratic_is_exact_to_roundoff(self):
        rng = np.random.default_rng(7)
        report = ad.grad_check(lambda p: ad.frobenius_sq(p[0]), [rand(rng, 4, 4)],
                               step=1e-4, tolerance=1e-5)
        assert report.passed
        assert report.worst() < 1e-5

    def test_constant_builder_passes_with_zero_grads(self):
        report = ad.grad_check(lambda p: ad.constant(np.ones((1, 1))),
                               [np.ones((2, 2))], step=1e-4, tolerance=1e-8)
        assert report.passed
        assert report.worst() == 0.0

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ad.AutodiffError):
            ad.grad_check(lambda p: ad.tsum(p[0]), [np.ones((1, 1))], step=0.0)


class TestDropout:
    def test_eval_mode_is_identity(self):
        rng = np.random.default_rng(8)
        x = rand(rng, 4, 4)
        out = ad.dropout(ad.leaf(x), 0.5, rng, train=False)
        np.testing.assert_array_equal(out.value, x)

    def test_rate_zero_equals_eval(self):
        rng = np.random.default_rng(9)
        x = rand(rng, 4, 4)
        out = ad.dropout(ad.leaf(x), 0.0, rng, train=True)
        np.testing.assert_array_equal(out.value, x)

    def test_inverted_scaling_preserves_expectation(self):
        rng = np.random.default_rng(10)
        x = np.ones((10, 10))
        total = np.zeros_like(x)
        n = 4000
        for _ in range(n):
            total += ad.dropout(ad.leaf(x), 0.4, rng, train=True).value
        np.testing.assert_allclose(total / n, x, atol=0.08)

    def test_backward_uses_same_mask(self):
        rng = np.random.default_rng(11)
        x = ad.leaf(np.ones((6, 6)), requires_grad=True)
        out = ad.dropout(x, 0.5, rng, train=True)
        ad.backward(ad.tsum(out))
        np.testing.assert_array_equal(x.grad, (out.value != 0) * 2.0)


class TestCrossEntropyPrimitive:
    def test_matches_manual_logsumexp(self):
        rng = np.random.default_rng(12)
        z = rand(rng, 5, 1) * 3
        y = np.eye(5)[1].reshape(-1, 1)
        node = ad.softmax_cross_entropy(ad.leaf(z), ad.leaf(y))
        probs = np.exp(z - z.max())
        probs /= probs.sum()
        assert node.value.item() == pytest.approx(-np.log(probs[1, 0]), rel=1e-6)

    def test_gradient_is_probs_minus_onehot(self):
        rng = np.random.default_rng(13)
        z = ad.leaf(rand(rng, 4, 1), requires_grad=True)
        y = np.eye(4)[3].reshape(-1, 1)
        ad.backward(ad.softmax_cross_entropy(z, ad.constant(y)))
        probs = np.exp(z.value - z.value.max())
        probs /= probs.sum()
        np.testing.assert_allclose(z.grad, probs - y, rtol=1e-6)
