import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import grad_check

from lama import autodiff as ad
from lama.classifier import classify, init_classifier_arrays


def scalar(node):
    return node.value.item()


def rand(rng, *shape):
    return rng.standard_normal(shape)


def total(node):
    """The sum of all entries of ``node``, as a (1, 1) root."""
    rows, cols = node.shape
    return ad.matmul(ad.matmul(ad.constant(np.ones((1, rows))), node),
                     ad.constant(np.ones((cols, 1))))


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
        out = ad.stable_sigmoid(np.array([[-1e9, 0.0, 1e9]]))
        np.testing.assert_array_equal(out, [[0.0, 0.5, 1.0]])


class TestErrors:
    def test_matmul_shape_error_names_op_and_shapes(self):
        with pytest.raises(ad.ShapeMismatchError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
            ad.matmul(ad.leaf(np.ones((2, 3))), ad.leaf(np.ones((2, 3))))

    @pytest.mark.parametrize("shape_b", [(2, 3), (1, 3)], ids=["equal", "broadcast"])
    @pytest.mark.parametrize("op", ["add", "hadamard"])
    def test_non_finite_error_names_op(self, op, shape_b):
        big_a, big_b = ad.leaf(np.full((2, 3), 1e308)), ad.leaf(np.full(shape_b, 1e308))
        with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError, match=f"^{op}: "):
            getattr(ad, op)(big_a, big_b)

    @pytest.mark.parametrize("where", [0, 7, 14], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_check_finite_names_the_op_of_any_non_finite_element(self, bad, where):
        out = np.ones((3, 5), np.float32)
        out.flat[where] = bad
        with pytest.raises(ad.NonFiniteError, match="^some_op: "):
            ad.check_finite(out, "some_op")

    @pytest.mark.parametrize("out", [np.full((4, 1000), 3e38, np.float32),
                                     np.empty((0, 5), np.float32)], ids=["sum-overflows", "empty"])
    def test_check_finite_passes_finite_values(self, out):
        # finite values whose sum overflows are no fault, and the screen
        # does no arithmetic that numpy could warn of
        assert ad.check_finite(out, "some_op") is out

    def test_backward_rejects_non_scalar_root(self):
        x = ad.leaf(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ad.NonScalarRootError):
            ad.backward(ad.tanh(x))

    @pytest.mark.parametrize("ids", [[1, 1, 2], [2, 1], [3, 0, 2]])
    def test_take_rows_rejects_repeated_or_decreasing_ids(self, ids):
        # its pullback scatters each row once; repeats go through expand
        with pytest.raises(ad.AutodiffError, match="take_rows"):
            ad.take_rows(ad.leaf(np.ones((4, 2))), ids)

    def test_dropout_rate_validation(self):
        with pytest.raises(ad.AutodiffError):
            ad.dropout(ad.leaf(np.ones((2, 2))), 1.0, np.random.default_rng(0))
        with pytest.raises(ad.AutodiffError):
            ad.dropout(ad.leaf(np.ones((2, 2))), 0.0, np.random.default_rng(0))


class TestBackward:
    def test_only_leaves_keep_a_gradient(self):
        rng = np.random.default_rng(2)
        x = ad.leaf(rand(rng, 3, 4), requires_grad=True)
        hidden = ad.tanh(x)
        root = total(ad.hadamard(hidden, hidden))
        ad.backward(root)
        assert hidden.grad is None and root.grad is None
        np.testing.assert_allclose(x.grad, 2 * hidden.value * (1 - hidden.value ** 2),
                                   rtol=1e-12)

    def test_frobenius_gradient_is_2x(self):
        rng = np.random.default_rng(4)
        xv = rand(rng, 3, 3)
        x = ad.leaf(xv, requires_grad=True)
        ad.backward(ad.frobenius_sq(x))
        np.testing.assert_allclose(x.grad, 2 * xv, rtol=1e-12)

    @pytest.mark.parametrize("shape_a, shape_b", [((2, 5), (2, 5)), ((2, 5), (1, 5)),
                                                  ((2, 1), (2, 5)), ((1, 1), (2, 5))],
                             ids=["equal", "row", "column", "scalar"])
    @pytest.mark.parametrize("op", ["add", "hadamard"])
    def test_elementwise_value_and_pullbacks_are_numpys(self, op, shape_a, shape_b):
        # each pullback sums the broadcast gradient over its operand's
        # size-1 axes, the rows first
        rng = np.random.default_rng(15)
        av, bv = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
        out = getattr(ad, op)(ad.leaf(av, True), ad.leaf(bv, True))
        g = rng.standard_normal(out.shape)
        (_, pull_a), (_, pull_b) = out.parents
        grad_a, grad_b = (g, g) if op == "add" else (g * bv, g * av)

        def reduced(grad, shape):
            for axis in (0, 1):
                if shape[axis] == 1 != grad.shape[axis]:
                    grad = grad.sum(axis=axis, keepdims=True)
            return grad

        np.testing.assert_array_equal(out.value, av + bv if op == "add" else av * bv)
        np.testing.assert_array_equal(pull_a(g), reduced(grad_a, shape_a))
        np.testing.assert_array_equal(pull_b(g), reduced(grad_b, shape_b))

    def test_hadamard_product_rule(self):
        rng = np.random.default_rng(5)
        av, bv = rand(rng, 2, 5), rand(rng, 2, 5)
        a = ad.leaf(av, requires_grad=True)
        b = ad.leaf(bv, requires_grad=True)
        ad.backward(total(ad.hadamard(a, b)))
        np.testing.assert_allclose(a.grad, bv, rtol=1e-12)
        np.testing.assert_allclose(b.grad, av, rtol=1e-12)

    def test_fanout_gradients_add(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            xv = rand(rng, 3, 2)
            x = ad.leaf(xv, requires_grad=True)
            ad.backward(ad.add(total(ad.tanh(x)), ad.frobenius_sq(x)))
            combined = x.grad.copy()

            x1 = ad.leaf(xv, requires_grad=True)
            ad.backward(total(ad.tanh(x1)))
            x2 = ad.leaf(xv, requires_grad=True)
            ad.backward(ad.frobenius_sq(x2))
            np.testing.assert_allclose(combined, x1.grad + x2.grad, rtol=1e-10)

    def test_two_lookups_sum_into_a_dense_gradient(self):
        # one lookup scatters its rows into zeros; a second backward and a
        # second lookup in the same graph add into that dense gradient
        w = ad.leaf(np.arange(12.0).reshape(4, 3), requires_grad=True)
        ad.backward(total(ad.take_rows(w, [1, 3])))
        assert isinstance(w.grad, np.ndarray)
        np.testing.assert_array_equal(w.grad, [[0.0] * 3, [1.0] * 3, [0.0] * 3, [1.0] * 3])
        ad.backward(ad.add(total(ad.take_rows(w, [0, 1])), total(ad.take_rows(w, [1]))))
        np.testing.assert_array_equal(w.grad, [[1.0] * 3, [3.0] * 3, [0.0] * 3, [1.0] * 3])

    @pytest.mark.parametrize("lookup_first", [True, False])
    def test_lookup_and_dense_contribution_sum(self, lookup_first):
        # backward runs the node created last first, so the order of creation
        # decides whether the rows or the dense gradient arrive first
        rng = np.random.default_rng(7)
        w = ad.leaf(rand(rng, 4, 3), requires_grad=True)
        weights = ad.constant([[1.0], [2.0]])
        if lookup_first:
            lookup = total(ad.hadamard(ad.take_rows(w, [0, 2]), weights))
            square = ad.frobenius_sq(w)
        else:
            square = ad.frobenius_sq(w)
            lookup = total(ad.hadamard(ad.take_rows(w, [0, 2]), weights))
        ad.backward(ad.add(lookup, square))
        expected = 2 * w.value
        expected[[0, 2]] += [[1.0], [2.0]]
        assert isinstance(w.grad, np.ndarray)
        np.testing.assert_allclose(w.grad, expected, rtol=1e-15)

    def test_a_sum_of_a_node_with_itself_gets_its_own_array(self):
        # add's pullbacks hand the incoming gradient to both parents; the
        # first one copies it, so the second adds into that copy alone
        a = ad.leaf(np.ones((2, 3)), requires_grad=True)
        s = ad.add(a, a)
        ad.backward(total(s))
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))

    def test_an_identity_pullback_gives_each_parent_its_own_array(self):
        a = ad.leaf(np.ones((2, 3)), requires_grad=True)
        b = ad.leaf(np.ones((2, 3)), requires_grad=True)
        s = ad.add(a, b)
        root = ad.add(total(s), ad.frobenius_sq(a))  # a gets a second contribution
        ad.backward(root)
        assert not np.shares_memory(a.grad, b.grad)
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 3.0))

    def test_a_fresh_pullback_result_is_adopted_without_a_copy(self):
        rng = np.random.default_rng(8)
        a = ad.leaf(rand(rng, 3, 2), requires_grad=True)
        t = ad.tanh(a)
        handed = []
        pull = t.parents[0][1]
        t.parents = ((a, lambda g: handed.append(pull(g)) or handed[-1]),)
        ad.backward(total(t))
        assert a.grad is handed[0]

    def test_non_leaf_gets_a_dense_gradient(self):
        x = ad.leaf(np.ones((3, 2)), requires_grad=True)
        ad.backward(total(ad.hadamard(ad.take_rows(ad.tanh(x), [0, 2]),
                                      ad.constant([[2.0], [1.0]]))))
        assert isinstance(x.grad, np.ndarray)
        np.testing.assert_allclose(x.grad[:, 0], np.array([2.0, 0.0, 1.0]) *
                                   (1 - np.tanh(1.0) ** 2), rtol=1e-15)


class TestRowGrad:
    """A gradient's repeated rows are summed by ``Groups.sum``, the pullback
    of ``expand``; ``take_rows`` only ever sees distinct rows."""

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.integers(0, 9), min_size=1, max_size=40)
           | st.lists(st.sampled_from([3]), min_size=1, max_size=40),
           seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_sum_equals_add_at(self, rows, seed, dtype):
        # many repeats, a single row and unsorted rows, against np.add.at.
        # reduceat sums a run pairwise and np.add.at one value at a time, so
        # a row of k values may differ by the bound on reordering a sum,
        # (k - 1) eps sum|v|, in either dtype; up to two values agree exactly
        rows = np.array(rows)
        values = np.random.default_rng(seed).standard_normal((rows.size, 4)).astype(dtype)
        groups = ad.group_ids(rows)
        unique, summed = groups.unique, groups.sum(values)
        assert unique.tolist() == sorted(set(rows.tolist())) and summed.dtype == dtype
        expected, got, bound = (np.zeros((10, 4), dtype=dtype) for _ in range(3))
        np.add.at(expected, rows, values)
        got[unique] = summed
        np.add.at(bound, rows, np.abs(values))
        counts = np.bincount(rows, minlength=10)[:, None]
        bound *= np.maximum(counts - 1, 0) * np.finfo(dtype).eps
        assert (np.abs(got - expected) <= bound).all()
        assert (got[counts[:, 0] <= 2] == expected[counts[:, 0] <= 2]).all()

    def test_no_rows(self):
        groups = ad.group_ids(np.zeros(0, dtype=np.int64))
        unique, summed = groups.unique, groups.sum(np.zeros((0, 3)))
        assert unique.shape == (0,) and summed.shape == (0, 3)


class TestGroups:
    @settings(max_examples=80, deadline=None)
    @given(ids=st.lists(st.integers(-3, 12), min_size=1, max_size=50)
           | st.lists(st.sampled_from([7]), min_size=1, max_size=20),
           seed=st.integers(0, 2**32 - 1))
    def test_grouping_and_expand_pullback(self, ids, seed):
        ids = np.array(ids)
        groups = ad.group_ids(ids)
        assert (groups.unique[groups.inverse] == ids).all()
        assert (np.diff(groups.unique) > 0).all()
        assert sorted(groups.order.tolist()) == list(range(ids.size))
        # the pullback of expand against np.add.at; integer-valued float64
        # values sum exactly in any order, so the two must be equal
        rng = np.random.default_rng(seed)
        rows = ad.leaf(rng.standard_normal((groups.unique.size, 3)), requires_grad=True)
        weights = rng.integers(-50, 50, size=(ids.size, 3)).astype(np.float64)
        spread = ad.expand(rows, groups)
        np.testing.assert_array_equal(spread.value, rows.value[groups.inverse])
        ad.backward(total(ad.hadamard(spread, ad.constant(weights))))
        expected = np.zeros_like(rows.value)
        np.add.at(expected, groups.inverse, weights)
        np.testing.assert_array_equal(rows.grad, expected)

    def test_no_ids(self):
        groups = ad.group_ids(np.zeros(0, dtype=np.int64))
        assert all(part.shape == (0,) for part in groups)
        assert groups.sum(np.zeros((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("d", [1, 8, 100])
    @pytest.mark.parametrize("ids", [
        np.arange(40)[::-1],                      # every group a single row
        np.repeat(np.arange(10), 4)[::-1],        # every group repeated
        np.array([5, 3, 5, 9, 0, 3, 3, 7, 11, 5, 2, 9, 4, 13]),  # both kinds
    ], ids=["singletons", "repeated", "mixed"])
    def test_sum_is_reduceat_over_the_whole_order_bit_for_bit(self, ids, d):
        # singletons are gathered and only repeated groups reduced; each
        # group's sum must keep the bits one reduceat over every row gives
        groups = ad.group_ids(ids)
        values = np.random.default_rng(d).standard_normal((ids.size, d)).astype(np.float32)
        want = np.add.reduceat(values[groups.order], groups.starts, axis=0)
        got = groups.sum(values)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.integers(1, 9), min_size=1, max_size=12))
    def test_runs_is_the_grouping_of_the_rows_by_run(self, lengths):
        runs = ad.runs(lengths)
        grouped = ad.group_ids(np.repeat(np.arange(len(lengths)), lengths))
        for name, got, want in zip(ad.Groups._fields, runs, grouped):
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    @pytest.mark.parametrize("lengths", [[], [5, 0], [6, -1], [[2, 3], [1, 4]],
                                         [2.5, 2.7], [2.0, 3.0], [True, True]])
    def test_runs_rejects_lengths_that_tile_no_rows(self, lengths):
        # no run, an empty run, a negative one, a 2-D list, and lengths that
        # are not integers, which a cast would truncate to another layout
        with pytest.raises(ad.ShapeMismatchError, match="runs"):
            ad.runs(lengths)

    def test_expand_rejects_a_row_count_other_than_the_groups(self):
        with pytest.raises(ad.ShapeMismatchError, match="expand"):
            ad.expand(ad.leaf(np.ones((3, 2))), ad.group_ids([4, 4, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_expand_of_a_non_finite_row_names_expand(self, bad):
        # leaves are not screened, so the expand itself must catch the row
        rows = np.ones((3, 2))
        rows[1, 0] = bad
        with pytest.raises(ad.NonFiniteError, match="expand"):
            ad.expand(ad.leaf(rows), ad.group_ids([4, 4, 1, 9, 1]))

    @pytest.mark.parametrize("r, lengths, c", [(1, [3, 1, 4], 5), (4, [7, 2, 9, 1], 6),
                                               (2, [5], 1), (3, [1, 1], 2)])
    def test_segment_matmul_is_one_gemm_per_run(self, r, lengths, c):
        # the output and both pullbacks equal each run's own products,
        # stacked, bit for bit
        rng = np.random.default_rng(r * 100 + c)
        n = sum(lengths)
        av = rng.standard_normal((r, n)).astype(np.float32)
        bv = rng.standard_normal((n, c)).astype(np.float32)
        g = rng.standard_normal((len(lengths) * r, c)).astype(np.float32)
        out = ad.segment_matmul(ad.leaf(av, True), ad.leaf(bv, True), ad.runs(lengths))
        (_, grad_a), (_, grad_b) = out.parents
        cuts = np.cumsum(lengths)[:-1]
        pairs = list(zip(np.split(av, cuts, axis=1), np.split(bv, cuts),
                         np.split(g, len(lengths))))
        # numpy reports the floating-point flags a BLAS call leaves set, and
        # these small products of finite operands have raised a spurious
        # "invalid value" in about one full tier-1 run in twelve; the
        # references ignore that flag, and a NaN in one still fails below
        with np.errstate(invalid="ignore"):
            out_ref = np.concatenate([a @ b for a, b, _ in pairs])
            grad_a_ref = np.concatenate([gk @ b.T for _, b, gk in pairs], axis=1)
            grad_b_ref = np.concatenate([a.T @ gk for a, _, gk in pairs])
        np.testing.assert_array_equal(out.value, out_ref)
        np.testing.assert_array_equal(grad_a(g), grad_a_ref)
        np.testing.assert_array_equal(grad_b(g), grad_b_ref)


PRIMITIVE_BUILDERS = {
    "matmul": lambda p: total(ad.matmul(p[0], p[1])),
    "add": lambda p: total(ad.tanh(ad.add(p[0], p[1]))),
    # add broadcasting a bias column over every column of a matrix
    "bias_add": lambda p: total(ad.tanh(ad.add(
        p[0], ad.matmul(p[1], ad.constant(np.full((5, 1), 0.2)))))),
    "hadamard": lambda p: total(ad.hadamard(p[0], p[1])),
    "tanh": lambda p: total(ad.tanh(p[0])),
    "softmax": lambda p: total(ad.hadamard(ad.softmax(p[0], axis=1), p[1])),
    # one softmax per run of columns, a one-column run included
    "softmax_segments": lambda p: total(ad.hadamard(
        ad.softmax(p[0], axis=1, runs=ad.runs([2, 1, 2])), p[1])),
    "l2_normalize": lambda p: total(ad.hadamard(ad.l2_normalize(p[0], axis=0), p[1])),
    "scale": lambda p: total(ad.scale(p[0], -2.5)),
    "frobenius": lambda p: ad.frobenius_sq(p[0]),
    "transpose": lambda p: total(ad.hadamard(ad.transpose(p[0]), ad.transpose(p[1]))),
    "reshape": lambda p: total(ad.tanh(ad.reshape(p[0], (1, p[0].value.size)))),
    "take_rows": lambda p: ad.frobenius_sq(ad.take_rows(p[0], [0, 2])),
    # three distinct ids, two of them repeated, spread over six rows
    "expand": lambda p: total(ad.hadamard(
        ad.tanh(ad.expand(p[0], ad.group_ids([9, 4, 9, 7, 4, 9]))),
        ad.expand(p[1], ad.group_ids([0, 1, 2, 0, 1, 2])))),
    # a 3 x 3 product per run of 2 and 3 columns of p[0] (rows of p[1]^T)
    "segment_matmul": lambda p: total(ad.tanh(
        ad.segment_matmul(p[0], ad.transpose(p[1]), ad.runs([2, 3])))),
    "softmax_xent": lambda p: ad.softmax_cross_entropy(
        ad.reshape(p[0], (p[0].value.size, 1)),
        np.eye(p[0].value.size)[2].reshape(-1, 1)),
    # one softmax per column, the column losses summed
    "softmax_xent_columns": lambda p: ad.softmax_cross_entropy(
        p[0], np.eye(3)[[2, 0, 1, 1, 0]].T),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_BUILDERS))
def test_primitive_gradients_match_finite_differences(name):
    builder = PRIMITIVE_BUILDERS[name]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rand(rng, 3, 5)
        b = rand(rng, 3, 5) if name != "matmul" else rand(rng, 5, 3)
        report = grad_check(lambda p: builder(p), [a, b], step=1e-6, tolerance=1e-6)
        assert report.passed, f"{name} seed {seed}: {report.max_rel_errors}"


class TestGradCheckHarness:
    def test_quadratic_is_exact_to_roundoff(self):
        rng = np.random.default_rng(7)
        report = grad_check(lambda p: ad.frobenius_sq(p[0]), [rand(rng, 4, 4)],
                            step=1e-4, tolerance=1e-5)
        assert report.passed
        assert report.worst() < 1e-5

    def test_constant_builder_passes_with_zero_grads(self):
        report = grad_check(lambda p: ad.constant(np.ones((1, 1))),
                            [np.ones((2, 2))], step=1e-4, tolerance=1e-8)
        assert report.passed
        assert report.worst() == 0.0

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ad.AutodiffError):
            grad_check(lambda p: total(p[0]), [np.ones((1, 1))], step=0.0)


def dropout_gate(rate, train):
    """classify's hidden dropout seen from outside: whether a pass at
    ``rate``/``train`` drew from its rng, and whether its logits equal a
    no-dropout pass's."""
    rng = np.random.default_rng(1)
    arrays = init_classifier_arrays(6, 5, 3, rng)
    head = [ad.leaf(arrays[k]) for k in ("W1", "b1", "W_c", "b_c")]
    d = ad.leaf(rng.standard_normal((6, 2)))
    _, plain = classify(d, *head, 0.0, False)
    state = rng.bit_generator.state
    _, logits = classify(d, *head, rate, train, rng=rng)
    return rng.bit_generator.state != state, np.array_equal(logits.value, plain.value)


class TestDropout:
    # classify alone decides whether dropout runs: in eval mode or at rate 0
    # it draws nothing and gives the no-dropout logits; with both on it draws
    def test_eval_mode_is_identity(self):
        assert dropout_gate(0.4, False) == (False, True)
        assert dropout_gate(0.4, True) == (True, False)

    def test_rate_zero_equals_eval(self):
        assert dropout_gate(0.0, True) == (False, True)
        assert dropout_gate(0.4, True) == (True, False)

    def test_inverted_scaling_preserves_expectation(self):
        rng = np.random.default_rng(10)
        x = np.ones((10, 10))
        total = np.zeros_like(x)
        n = 4000
        for _ in range(n):
            total += ad.dropout(ad.leaf(x), 0.4, rng).value
        np.testing.assert_allclose(total / n, x, atol=0.08)

    def test_backward_uses_same_mask(self):
        rng = np.random.default_rng(11)
        x = ad.leaf(np.ones((6, 6)), requires_grad=True)
        out = ad.dropout(x, 0.5, rng)
        ad.backward(total(out))
        np.testing.assert_array_equal(x.grad, (out.value != 0) * 2.0)


class TestCrossEntropyPrimitive:
    def test_matches_manual_logsumexp(self):
        rng = np.random.default_rng(12)
        z = rand(rng, 5, 1) * 3
        y = np.eye(5)[1].reshape(-1, 1)
        node = ad.softmax_cross_entropy(ad.leaf(z), y)
        probs = np.exp(z - z.max())
        probs /= probs.sum()
        assert node.value.item() == pytest.approx(-np.log(probs[1, 0]), rel=1e-6)

    def test_gradient_is_probs_minus_onehot(self):
        rng = np.random.default_rng(13)
        z = ad.leaf(rand(rng, 4, 1), requires_grad=True)
        y = np.eye(4)[3].reshape(-1, 1)
        ad.backward(ad.softmax_cross_entropy(z, y))
        probs = np.exp(z.value - z.value.max())
        probs /= probs.sum()
        np.testing.assert_allclose(z.grad, probs - y, rtol=1e-6)

    def test_equal_logits_give_log_c_per_column(self):
        # criterion 8's constant on the loss that trains: 4 classes, 3 columns
        z = ad.leaf(np.full((4, 3), 0.7), requires_grad=True)
        y = np.eye(4)[[1, 3, 0]].T
        node = ad.softmax_cross_entropy(z, y)
        assert node.value.item() == pytest.approx(3 * np.log(4), rel=1e-12)
        ad.backward(node)
        np.testing.assert_allclose(z.grad, 0.25 - y, rtol=1e-12)
