import numpy as np
import pytest

from lama import autodiff as ad
from lama import model as mdl
from lama.gru import GruCell, bigru_encode, gru_step, init_gru_arrays
from lama.text import PAD_ID


def make_cell(d, h, rng, dtype=np.float64):
    arrays = init_gru_arrays(d, h, rng, dtype=dtype)
    return arrays, GruCell(**{k: ad.leaf(v) for k, v in arrays.items()})


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


class TestGruStep:
    def test_update_gate_saturated_high_returns_candidate(self):
        rng = np.random.default_rng(0)
        arrays, _ = make_cell(4, 3, rng)
        arrays["b_z"] = np.full((3, 1), 1e9)  # sigmoid -> exactly 1.0
        cell = GruCell(**{k: ad.leaf(v) for k, v in arrays.items()})
        x = ad.leaf(rng.standard_normal((4, 1)))
        h_prev = ad.leaf(rng.standard_normal((3, 1)))
        h = gru_step(x, h_prev, cell)
        cand = np.tanh(arrays["W_h"] @ x.value
                       + (1 / (1 + np.exp(-(arrays["W_r"] @ x.value
                                            + arrays["U_r"] @ h_prev.value))))
                       * (arrays["U_h"] @ h_prev.value))
        np.testing.assert_allclose(h.value, cand, rtol=1e-12)

    def test_update_gate_saturated_low_keeps_state(self):
        rng = np.random.default_rng(1)
        arrays, _ = make_cell(4, 3, rng)
        arrays["b_z"] = np.full((3, 1), -1e9)  # sigmoid -> exactly 0.0
        cell = GruCell(**{k: ad.leaf(v) for k, v in arrays.items()})
        h_prev = ad.leaf(rng.standard_normal((3, 1)))
        h = gru_step(ad.leaf(rng.standard_normal((4, 1))), h_prev, cell)
        np.testing.assert_array_equal(h.value, h_prev.value)

    def test_all_zero_inputs_stay_zero(self):
        rng = np.random.default_rng(2)
        _, cell = make_cell(4, 3, rng)
        h = gru_step(ad.leaf(np.zeros((4, 1))), ad.leaf(np.zeros((3, 1))), cell)
        np.testing.assert_array_equal(h.value, np.zeros((3, 1)))

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        _, cell = make_cell(4, 3, rng)
        with pytest.raises(ad.ShapeMismatchError):
            gru_step(ad.leaf(np.zeros((5, 1))), ad.leaf(np.zeros((3, 1))), cell)

    def test_matches_reference_recurrence(self):
        rng = np.random.default_rng(4)
        arrays, cell = make_cell(5, 4, rng)
        xs = [rng.standard_normal(5) for _ in range(7)]
        expected = reference_gru(xs, arrays)
        h = ad.leaf(np.zeros((4, 1)))
        for x, want in zip(xs, expected):
            h = gru_step(ad.leaf(x.reshape(-1, 1)), h, cell)
            np.testing.assert_allclose(h.value, want, rtol=1e-10)


class TestBigruEncode:
    def encode(self, x, fwd_arrays, bwd_arrays):
        fwd = GruCell(**{k: ad.leaf(v) for k, v in fwd_arrays.items()})
        bwd = GruCell(**{k: ad.leaf(v) for k, v in bwd_arrays.items()})
        return bigru_encode(ad.leaf(x), fwd, bwd).value

    def test_single_token_equals_one_step_each_direction(self):
        rng = np.random.default_rng(5)
        fa = init_gru_arrays(4, 3, rng, dtype=np.float64)
        ba = init_gru_arrays(4, 3, rng, dtype=np.float64)
        x = rng.standard_normal((1, 4))
        annot = self.encode(x, fa, ba)
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
        annot = self.encode(x, fa, ba)
        swapped = self.encode(x[::-1].copy(), ba, fa)
        # forward half of the swapped run equals the reversed backward half
        np.testing.assert_allclose(swapped[:, :3], annot[::-1, 3:], rtol=1e-10)
        np.testing.assert_allclose(swapped[:, 3:], annot[::-1, :3], rtol=1e-10)

    def test_matches_reference_recurrence_in_both_directions(self):
        rng = np.random.default_rng(7)
        fa = init_gru_arrays(4, 3, rng, dtype=np.float64)
        ba = init_gru_arrays(4, 3, rng, dtype=np.float64)
        x = rng.standard_normal((5, 4))
        annot = self.encode(x, fa, ba)
        assert annot.shape == (5, 6)
        fwd = np.hstack(reference_gru(list(x), fa)).T
        bwd = np.hstack(reference_gru(list(x[::-1]), ba)).T[::-1]
        np.testing.assert_allclose(annot, np.hstack([fwd, bwd]), rtol=1e-10)

    def test_padding_extension_leaves_valid_rows_bit_identical(self):
        # the encoder never sees padding: forward_doc trims it first, so the
        # annotations, pinned here through S = A H, do not depend on it
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

    def test_gradients_pass_finite_difference_check(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((5, 3)) * 0.5
        fa = init_gru_arrays(3, 2, rng, dtype=np.float64)
        ba = init_gru_arrays(3, 2, rng, dtype=np.float64)
        names_f = list(fa)
        names_b = list(ba)

        def builder(leaves):
            xs = leaves[0]
            k = 1
            fwd = GruCell(**{n: leaves[k + i] for i, n in enumerate(names_f)})
            bwd = GruCell(**{n: leaves[k + 9 + i] for i, n in enumerate(names_b)})
            return ad.frobenius_sq(ad.tanh(bigru_encode(xs, fwd, bwd)))

        params = [x] + [fa[n] for n in names_f] + [ba[n] for n in names_b]
        report = ad.grad_check(builder, params, step=1e-5, tolerance=1e-6)
        assert report.passed, report.max_rel_errors

    def test_long_sequence_stays_finite(self):
        rng = np.random.default_rng(11)
        arrays, cell = make_cell(4, 3, rng)
        h = ad.leaf(np.zeros((3, 1)))
        for _ in range(1000):
            h = gru_step(ad.leaf(rng.standard_normal((4, 1))), h, cell)
        assert np.isfinite(h.value).all()


def test_init_bounds_scale_with_hidden_dim():
    rng = np.random.default_rng(12)
    arrays = init_gru_arrays(d=6, h=16, rng=rng)
    bound = 1 / np.sqrt(16)
    for name in ("W_z", "U_z", "W_r", "U_r", "W_h", "U_h"):
        assert np.abs(arrays[name]).max() <= bound
    for name in ("b_z", "b_r", "b_h"):
        np.testing.assert_array_equal(arrays[name], 0.0)
