import numpy as np
import pytest
from conftest import count_nodes
from hypothesis import given, settings, strategies as st
from oracles import grad_check

from lama import autodiff as ad
from lama import gru
from lama import model as mdl
from lama.gru import GATE_NAMES, bigru_encode, init_gru_arrays
from lama.synthetic import make_task
from lama.text import PAD_ID
from lama.training import DivergenceError, TrainConfig, train


def sigmoid(x):
    return 1 / (1 + np.exp(-x))


def reference_gru(x_seq, arrays):
    """Independent plain-numpy recomputation of the recurrence."""
    h = np.zeros((arrays["W_z"].shape[0], 1))
    out = []
    for x in x_seq:
        x = x.reshape(-1, 1)
        z = 1 / (1 + np.exp(-(arrays["W_z"] @ x + arrays["U_z"] @ h + arrays["b_z"])))
        r = 1 / (1 + np.exp(-(arrays["W_r"] @ x + arrays["U_r"] @ h + arrays["b_r"])))
        cand = np.tanh(arrays["W_h"] @ x + r * (arrays["U_h"] @ h) + arrays["b_h"])
        h = (1 - z) * h + z * cand
        out.append(h)
    return out


def reference_bigru(x, fwd_arrays, bwd_arrays):
    """L x 2h annotations from the reference recurrence in both directions."""
    fwd = np.hstack(reference_gru(list(x), fwd_arrays)).T
    bwd = np.hstack(reference_gru(list(x[::-1]), bwd_arrays)).T[::-1]
    return np.hstack([fwd, bwd])


def encode(x, fwd_arrays, bwd_arrays, lengths=None):
    fwd = [ad.leaf(fwd_arrays[n]) for n in GATE_NAMES]
    bwd = [ad.leaf(bwd_arrays[n]) for n in GATE_NAMES]
    runs = None if lengths is None else ad.runs(lengths)
    return bigru_encode(ad.leaf(x), fwd, bwd, runs, ad.group_ids(np.arange(len(x)))).value


class TestBigruEncode:
    def test_update_gate_saturated_high_returns_candidate(self):
        # x[0] = +1 drives every update gate to exactly 1, so each state is
        # exactly the candidate computed from the state before it
        rng = np.random.default_rng(0)
        fa = init_gru_arrays(4, 3, rng, dtype=np.float64)
        ba = init_gru_arrays(4, 3, rng, dtype=np.float64)
        fa["W_z"][:, 0] = 1e9
        x = rng.standard_normal((5, 4)) * 0.5
        x[:, 0] = 1.0
        states = encode(x, fa, ba)[:, :3]
        prev = np.zeros(3)
        for t in range(5):
            r = sigmoid(fa["W_r"] @ x[t] + fa["U_r"] @ prev)
            cand = np.tanh(fa["W_h"] @ x[t] + r * (fa["U_h"] @ prev))
            np.testing.assert_allclose(states[t], cand, rtol=1e-12)
            prev = states[t]

    def test_update_gate_saturated_low_keeps_state(self):
        # x[0] = -1 drives every update gate to exactly 0, and the state
        # carries over bit for bit; x[0] = +1 lets it move
        rng = np.random.default_rng(1)
        fa = init_gru_arrays(4, 3, rng, dtype=np.float64)
        ba = init_gru_arrays(4, 3, rng, dtype=np.float64)
        fa["W_z"][:, 0] = 1e9
        x = rng.standard_normal((6, 4)) * 0.5
        x[:, 0] = [1, 1, -1, 1, -1, -1]
        states = encode(x, fa, ba)[:, :3]
        assert np.abs(states[1]).min() > 0
        np.testing.assert_array_equal(states[2], states[1])
        np.testing.assert_array_equal(states[4], states[3])
        np.testing.assert_array_equal(states[5], states[3])
        assert not np.array_equal(states[3], states[2])

    def test_all_zero_inputs_stay_zero(self):
        rng = np.random.default_rng(2)
        fa = init_gru_arrays(4, 3, rng, dtype=np.float64)
        ba = init_gru_arrays(4, 3, rng, dtype=np.float64)
        np.testing.assert_array_equal(encode(np.zeros((5, 4)), fa, ba),
                                      np.zeros((5, 6)))

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        fa = init_gru_arrays(4, 3, rng, dtype=np.float64)
        ba = init_gru_arrays(4, 3, rng, dtype=np.float64)
        with pytest.raises(ad.ShapeMismatchError, match="gru_scan"):
            encode(np.zeros((2, 5)), fa, ba)
        with pytest.raises(ad.ShapeMismatchError, match="bigru_encode"):
            encode(np.zeros((2, 4)), fa, init_gru_arrays(4, 2, rng))

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(1, 40), d=st.integers(1, 6), h=st.integers(1, 5),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_gru_for_any_length(self, L, d, h, dtype, seed):
        rng = np.random.default_rng(seed)
        arrays = []
        for _ in range(2):
            a = init_gru_arrays(d, h, rng, dtype=dtype)
            for name in ("b_z", "b_r", "b_h"):
                a[name] = rng.uniform(-1, 1, size=(h, 1)).astype(dtype)
            arrays.append(a)
        x = rng.standard_normal((L, d)).astype(dtype)
        annot = encode(x, *arrays)
        assert annot.shape == (L, 2 * h) and annot.dtype == dtype
        tol = dict(rtol=1e-10, atol=1e-12) if dtype == np.float64 else \
            dict(rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(annot, reference_bigru(x, *arrays), **tol)

    def test_single_token_equals_one_step_each_direction(self):
        rng = np.random.default_rng(5)
        fa = init_gru_arrays(4, 3, rng, dtype=np.float64)
        ba = init_gru_arrays(4, 3, rng, dtype=np.float64)
        x = rng.standard_normal((1, 4))
        annot = encode(x, fa, ba)
        assert annot.shape == (1, 6)
        np.testing.assert_allclose(
            annot[0, :3].reshape(-1, 1), reference_gru([x[0]], fa)[0], rtol=1e-10)
        np.testing.assert_allclose(
            annot[0, 3:].reshape(-1, 1), reference_gru([x[0]], ba)[0], rtol=1e-10)

    def test_backward_states_are_forward_states_of_reversed_input(self):
        rng = np.random.default_rng(6)
        fa = init_gru_arrays(4, 3, rng, dtype=np.float64)
        ba = init_gru_arrays(4, 3, rng, dtype=np.float64)
        x = rng.standard_normal((6, 4))
        annot = encode(x, fa, ba)
        swapped = encode(x[::-1].copy(), ba, fa)
        # forward half of the swapped run equals the reversed backward half
        np.testing.assert_allclose(swapped[:, :3], annot[::-1, 3:], rtol=1e-10)
        np.testing.assert_allclose(swapped[:, 3:], annot[::-1, :3], rtol=1e-10)

    def test_matches_reference_recurrence_in_both_directions(self):
        rng = np.random.default_rng(7)
        fa = init_gru_arrays(4, 3, rng, dtype=np.float64)
        ba = init_gru_arrays(4, 3, rng, dtype=np.float64)
        x = rng.standard_normal((5, 4))
        annot = encode(x, fa, ba)
        assert annot.shape == (5, 6)
        np.testing.assert_allclose(annot, reference_bigru(x, fa, ba), rtol=1e-10)

    def test_padding_extension_leaves_valid_rows_bit_identical(self):
        # the encoder never sees padding: the model reads only a
        # text.Document's valid ids, so the annotations, pinned here through
        # S = A H, do not depend on it
        rng = np.random.default_rng(8)
        params = mdl.init_model(15, 2, rng, d=4, h=3, m=2, mlp_hidden=8,
                                dtype=np.float64)
        nodes = params.store.nodes()
        ids = np.array([4, 9, 2, 7])
        short = mdl.forward_doc(params, nodes, ids)
        padded = mdl.forward_doc(params, nodes, np.append(ids, [PAD_ID] * 3),
                                 true_length=4)
        np.testing.assert_array_equal(short.attn.S.value, padded.attn.S.value)
        np.testing.assert_array_equal(short.attn.A_valid.value,
                                      padded.attn.A_valid.value)

    @staticmethod
    def gradient_report(L, seed, runs=None):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((L, 3)) * 0.5
        fa = init_gru_arrays(3, 2, rng, dtype=np.float64)
        ba = init_gru_arrays(3, 2, rng, dtype=np.float64)

        def builder(leaves):
            return ad.frobenius_sq(ad.tanh(bigru_encode(leaves[0], leaves[1:10],
                                                        leaves[10:], runs,
                                                        ad.group_ids(np.arange(L)))))

        params = [x] + [fa[n] for n in GATE_NAMES] + [ba[n] for n in GATE_NAMES]
        return grad_check(builder, params, step=1e-5, tolerance=1e-6)

    def test_gradients_pass_finite_difference_check(self):
        report = self.gradient_report(5, seed=10)
        assert report.passed, report.max_rel_errors

    @pytest.mark.parametrize("L", [1, 24])
    def test_gradient_check_at_length(self, L):
        # L=24 carries the state gradient back through a long chain of steps
        report = self.gradient_report(L, seed=20 + L)
        assert report.passed, report.max_rel_errors

    def test_gradient_check_over_ragged_segments(self):
        # three documents in one packed scan: 4 rows, 1 row, 3 rows
        report = self.gradient_report(8, seed=30, runs=ad.runs([4, 1, 3]))
        assert report.passed, report.max_rel_errors

    def test_fused_node_gradients_of_all_nineteen_parents(self):
        # one gru_scan node: the input rows, then each direction's nine gate
        # tensors; float64 finite differences over unsorted segments with a
        # tie and a single row, d != h, and nonzero biases
        rng = np.random.default_rng(31)
        d, h, lengths = 4, 3, [2, 1, 5, 5, 3]
        arrays = []
        for _ in range(2):
            a = init_gru_arrays(d, h, rng, dtype=np.float64)
            for name in ("b_z", "b_r", "b_h"):
                a[name] = rng.uniform(-0.5, 0.5, size=(h, 1))
            arrays.append(a)
        x = rng.standard_normal((sum(lengths), d)) * 0.5

        def builder(leaves):
            H = bigru_encode(leaves[0], leaves[1:10], leaves[10:], ad.runs(lengths),
                             ad.group_ids(np.arange(sum(lengths))))
            assert H.op == "gru_scan" and [p for p, _ in H.parents] == leaves
            return ad.frobenius_sq(ad.tanh(H))

        params = [x] + [a[n] for a in arrays for n in GATE_NAMES]
        report = grad_check(builder, params, step=1e-5, tolerance=1e-6)
        assert len(report.max_rel_errors) == 19 and report.passed, report.max_rel_errors

    def test_bad_lengths_rejected(self):
        rng = np.random.default_rng(4)
        fa = init_gru_arrays(4, 3, rng, dtype=np.float64)
        x = np.zeros((5, 4))
        # the lengths themselves are checked by ad.runs (tests/test_autodiff.py)
        for lengths in ([2, 2], [3, 3], [6]):
            with pytest.raises(ad.ShapeMismatchError, match="gru_scan"):
                encode(x, fa, fa, lengths)

    @settings(max_examples=40, deadline=None)
    @given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=6),
           d=st.integers(1, 5), h=st.integers(1, 4),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_packed_segments_match_reference_per_segment(self, lengths, d, h, dtype, seed):
        # documents scanned together in one node give each document the
        # states it gets on its own, from a zero state, in both directions
        rng = np.random.default_rng(seed)
        arrays = []
        for _ in range(2):
            a = init_gru_arrays(d, h, rng, dtype=dtype)
            for name in ("b_z", "b_r", "b_h"):
                a[name] = rng.uniform(-1, 1, size=(h, 1)).astype(dtype)
            arrays.append(a)
        x = rng.standard_normal((sum(lengths), d)).astype(dtype)
        annot = encode(x, *arrays, lengths=lengths)
        assert annot.shape == (sum(lengths), 2 * h) and annot.dtype == dtype
        expected = np.vstack([reference_bigru(seg, *arrays)
                              for seg in np.split(x, np.cumsum(lengths)[:-1])])
        tol = dict(rtol=1e-10, atol=1e-12) if dtype == np.float64 else \
            dict(rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(annot, expected, **tol)

    def test_long_sequence_stays_finite(self):
        rng = np.random.default_rng(11)
        fa = init_gru_arrays(4, 3, rng, dtype=np.float64)
        ba = init_gru_arrays(4, 3, rng, dtype=np.float64)
        x = rng.standard_normal((1000, 4))
        annot = encode(x, fa, ba)
        assert np.isfinite(annot).all()
        np.testing.assert_allclose(annot, reference_bigru(x, fa, ba), rtol=1e-8, atol=1e-12)

    def test_graph_size_does_not_grow_with_length(self):
        # one node for both directions: the tape of a document is the same size
        # whatever its length
        rng = np.random.default_rng(13)
        params = mdl.init_model(40, 2, rng, d=6, h=4, m=2, mlp_hidden=8)
        nodes = params.store.nodes()
        counts = []
        for L in (5, 30):
            fw = mdl.forward_doc(params, nodes, rng.integers(2, 40, size=L))
            counts.append(count_nodes(mdl.doc_objective(fw, 1, "positions", 0.2)))
        assert counts[0] == counts[1]

    def test_overflow_in_training_names_gru_scan(self, monkeypatch):
        init = gru.init_gru_arrays

        def huge_recurrent_weights(*args, **kwargs):
            arrays = init(*args, **kwargs)
            arrays["U_h"][:] = 3e38
            return arrays

        monkeypatch.setattr(gru, "init_gru_arrays", huge_recurrent_weights)
        train_set, valid_set, vocab = make_task("keyword", 32, 8, seed=11)
        cfg = TrainConfig(d=16, h=8, m=2, max_len=32, batch=16, mlp_hidden=24,
                          max_epochs=1, seed=0)
        with pytest.raises(DivergenceError, match="gru_scan"):
            train(cfg, train_set, valid_set, vocab)


# positions' ids over the documents of GROUPED_LENGTHS (unsorted, one of a
# single token); the grouping's distinct ids are the encoder's rows
GROUPINGS = {
    "all-repeated": [3, 7, 3, 7, 7, 3, 9, 9, 3, 9],
    "all-singletons": [5, 2, 8, 1, 4, 9, 0, 6, 3, 7],
    "mixed": [4, 1, 4, 6, 2, 4, 8, 1, 5, 3],
    "one-id": [6] * 10,
}
GROUPED_LENGTHS = [4, 1, 3, 2]


class TestGroupedRows:
    """The encoder reads one row per distinct token and a grouping that
    spreads the rows over the positions; that must be the per-position
    encode of the spread rows, with the rows' gradient summed per group."""

    @staticmethod
    def inputs(case, dtype, seed):
        rng = np.random.default_rng(seed)
        groups = ad.group_ids(GROUPINGS[case])
        d, h = 4, 3
        arrays = []
        for _ in range(2):
            a = init_gru_arrays(d, h, rng, dtype=dtype)
            for name in ("b_z", "b_r", "b_h"):
                a[name] = rng.uniform(-0.5, 0.5, size=(h, 1)).astype(dtype)
            arrays.append(a)
        rows = (rng.standard_normal((groups.unique.size, d)) * 0.5).astype(dtype)
        return groups, rows, [a[n] for a in arrays for n in GATE_NAMES]

    @pytest.mark.parametrize("case", list(GROUPINGS))
    def test_gradients_of_all_nineteen_parents(self, case):
        groups, rows, gates = self.inputs(case, np.float64, seed=40)
        runs = ad.runs(GROUPED_LENGTHS)

        def builder(leaves):
            H = bigru_encode(leaves[0], leaves[1:10], leaves[10:], runs, groups)
            assert H.op == "gru_scan" and [p for p, _ in H.parents] == leaves
            return ad.frobenius_sq(ad.tanh(H))

        report = grad_check(builder, [rows] + gates, step=1e-5, tolerance=1e-6)
        assert len(report.max_rel_errors) == 19 and report.passed, report.max_rel_errors

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case", list(GROUPINGS))
    def test_equals_the_per_position_encode_of_the_spread_rows(self, case, dtype):
        groups, rows, gates = self.inputs(case, dtype, seed=41)
        runs = ad.runs(GROUPED_LENGTHS)
        weights = np.random.default_rng(42).standard_normal(
            (len(GROUPINGS[case]), 6)).astype(dtype)
        results = []
        identity = ad.group_ids(np.arange(groups.inverse.size))
        for x, grouping in ((rows, groups), (rows[groups.inverse], identity)):
            leaves = [ad.leaf(a.copy(), requires_grad=True) for a in [x] + gates]
            H = bigru_encode(leaves[0], leaves[1:10], leaves[10:], runs, grouping)
            ad.backward(ad.frobenius_sq(ad.hadamard(H, ad.constant(weights))))
            results.append((H.value, [leaf.grad for leaf in leaves]))
        (grouped, grads), (spread, spread_grads) = results
        spread_grads[0] = groups.sum(spread_grads[0])
        tol = dict(rtol=1e-12, atol=1e-12) if dtype == np.float64 else \
            dict(rtol=1e-5, atol=1e-6)
        assert grouped.dtype == dtype and grads[0].shape == rows.shape
        np.testing.assert_allclose(grouped, spread, **tol)
        for k, (got, want) in enumerate(zip(grads, spread_grads)):
            np.testing.assert_allclose(got, want, **tol, err_msg=f"parent {k}")

    def test_rows_other_than_the_groups_rejected(self):
        groups, rows, gates = self.inputs("mixed", np.float64, seed=43)
        leaves = [ad.leaf(a) for a in gates]
        with pytest.raises(ad.ShapeMismatchError, match="gru_scan"):
            bigru_encode(ad.leaf(rows[1:]), leaves[:9], leaves[9:],
                         ad.runs(GROUPED_LENGTHS), groups)


def test_init_bounds_scale_with_hidden_dim():
    rng = np.random.default_rng(12)
    arrays = init_gru_arrays(d=6, h=16, rng=rng)
    bound = 1 / np.sqrt(16)
    for name in ("W_z", "U_z", "W_r", "U_r", "W_h", "U_h"):
        assert np.abs(arrays[name]).max() <= bound
    for name in ("b_z", "b_r", "b_h"):
        np.testing.assert_array_equal(arrays[name], 0.0)
