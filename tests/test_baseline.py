import numpy as np
import pytest

from lama import baseline as bl
from lama.baseline import (BaselineError, TeConfig, bench_runtime,
                           init_te_params, lama_param_count, sdpa_forward,
                           te_param_count)
from lama.model import init_model

TABLE_DELTAS_M = [0.002, 0.004, 0.009, 0.016, 0.034]  # published rounding


class TestLamaCount:
    def test_marginal_cost_is_two_d_ann_in_comparison_scope(self):
        for h in (8, 50, 256):
            for m in range(1, 12):
                a = lama_param_count(100, h, m, 1000, 64, 5, include_classifier=False)
                b = lama_param_count(100, h, m + 1, 1000, 64, 5, include_classifier=False)
                assert b.total - a.total == 2 * (2 * h)

    def test_published_deltas_match_up_to_rounding(self):
        # the published deltas are differences of totals rounded to 0.001M,
        # which alone admits +-0.001 of slack; the largest published delta
        # (0.034 vs exact 0.032768) additionally disagrees with every
        # constant-base linear model by ~0.0002, so the bound is 1.5 units
        totals = [lama_param_count(100, 256, m, 50000, 1024, 5,
                                   include_classifier=False).total
                  for m in (2, 4, 8, 16, 32, 64)]
        deltas = [(b - a) / 1e6 for a, b in zip(totals, totals[1:])]
        for ours, published in zip(deltas, TABLE_DELTAS_M):
            assert abs(ours - published) <= 0.0015 + 1e-12

    def test_total_equals_breakdown_sum(self):
        rep = lama_param_count(100, 50, 4, 1000, 512, 3)
        assert rep.total == sum(rep.breakdown.values())

    def test_full_count_matches_allocated_model(self):
        for m in (1, 4):
            for ctx in ("learned", "doc-mean"):
                rep = lama_param_count(20, 10, m, 77, 32, 4, ctx=ctx)
                params = init_model(77, 4, np.random.default_rng(0), d=20, h=10,
                                    m=m, ctx=ctx, mlp_hidden=32)
                assert rep.total == sum(p.value.size for p in params.store)

    def test_full_marginal_includes_classifier_growth(self):
        a = lama_param_count(20, 10, 3, 77, 32, 4)
        b = lama_param_count(20, 10, 4, 77, 32, 4)
        assert b.total - a.total == 2 * 20 + 32 * 20  # factors + classifier row

    def test_factor_layer_entry_matches_allocated_arrays(self):
        from lama.attention import init_attention_arrays
        d_ann, m = 14, 5
        arrays = init_attention_arrays(d_ann, m, np.random.default_rng(0))
        rep = lama_param_count(10, d_ann // 2, m, 50, 16, 2)
        assert arrays["P"].size + arrays["Q"].size == rep.breakdown["attention_factors"]
        assert rep.breakdown["attention_factors"] == 2 * d_ann * m


class TestTeCount:
    def test_constant_across_head_counts(self):
        totals = {h: te_param_count(TeConfig(d_model=512, heads=h), 30000, 5).total
                  for h in (2, 4, 8, 16, 32, 64)}
        assert len(set(totals.values())) == 1

    def test_attention_projection_subtotal(self):
        rep = te_param_count(TeConfig(d_model=512, heads=8), 30000, 5)
        assert rep.breakdown["attention_projections"] == 4 * (512 * 512 + 512)
        assert rep.breakdown["attention_projections"] == 1_050_624

    def test_indivisible_heads_rejected(self):
        with pytest.raises(BaselineError, match="divisible"):
            TeConfig(d_model=512, heads=3)

    def test_total_equals_breakdown_sum(self):
        rep = te_param_count(TeConfig(), 30000, 5)
        assert rep.total == sum(rep.breakdown.values())


class TestSdpaForward:
    def test_single_token_is_value_then_output_projection(self):
        rng = np.random.default_rng(0)
        params = init_te_params(16, rng, dtype=np.float64)
        x = rng.standard_normal((1, 16))
        out = sdpa_forward(x, params, heads=4)
        expected = (x @ params.W_v + params.b_v) @ params.W_o + params.b_o
        np.testing.assert_allclose(out, expected, rtol=1e-10)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        params = init_te_params(16, rng, dtype=np.float64)
        x = rng.standard_normal((9, 16))
        weights = bl.sdpa_attention_weights(x, params, heads=4)
        np.testing.assert_allclose(weights.sum(axis=2), 1.0, atol=1e-9)
        assert (weights >= 0).all()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        params = init_te_params(16, rng, dtype=np.float64)
        x = rng.standard_normal((7, 16))
        perm = rng.permutation(7)
        np.testing.assert_allclose(sdpa_forward(x, params, 4)[perm],
                                   sdpa_forward(x[perm], params, 4), atol=1e-10)

    def test_divisibility_enforced(self):
        rng = np.random.default_rng(3)
        params = init_te_params(15, rng)
        with pytest.raises(BaselineError):
            sdpa_forward(np.zeros((4, 15), dtype=np.float32), params, heads=4)


class TestBenchRuntime:
    def test_validates_lengths_and_trials(self):
        with pytest.raises(BaselineError):
            bench_runtime("le", [64, 128, 256])
        with pytest.raises(BaselineError):
            bench_runtime("le", [64, 63, 128, 512])
        with pytest.raises(BaselineError):
            bench_runtime("le", [64, 96, 128, 256])
        with pytest.raises(BaselineError):
            bench_runtime("le", [8, 16, 32, 64], trials=2)
        with pytest.raises(BaselineError):
            bench_runtime("gpu", [8, 16, 32, 64])

    def test_smoke_rows_and_csv(self, tmp_path):
        res = bench_runtime("le", [8, 16, 32, 64], trials=5, d=16, heads=2,
                            batch=1)
        assert [r[0] for r in res.rows] == [8, 16, 32, 64]
        assert all(r[1] > 0 for r in res.rows)
        path = tmp_path / "bench.csv"
        res.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "length,median_seconds,trials"
        assert len(lines) == 5
        assert "slope" in res.summary()

    def test_le_attention_time_subquadratic_in_heads(self):
        # doubling heads at fixed length must not double total time
        r1 = bench_runtime("le", [32, 64, 128, 256], trials=5, d=64, heads=4, batch=2)
        r2 = bench_runtime("le", [32, 64, 128, 256], trials=5, d=64, heads=8, batch=2)
        t1 = dict((lo, t) for lo, t, _ in r1.rows)
        t2 = dict((lo, t) for lo, t, _ in r2.rows)
        assert t2[256] <= 2.5 * t1[256]
