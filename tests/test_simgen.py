"""Data generation and study plan tests."""

import math

import numpy as np
import pytest

from evsynth import simgen
from evsynth.glm import DataError, Dataset, SeparationError, add_intercept, fit
from evsynth.simgen import (DEFAULT_RHO, DEFAULT_WEIGHTS, DataGenSpec,
                            PersistentSeparationError, StudyPlanEntry,
                            apply_transform,
                            compute_beta, gen_dataset, latent_variance,
                            predictor_cov, rng_stream, scale_score,
                            study_plan, tertile_categorize)

# Population coefficient triples (beta2, beta5, beta6) in the source design,
# by family and target effect size.  beta1 = 0 and beta2 = beta3 = beta4.
CALIBRATION_TABLE = {
    ("gaussian", 0.02): (0.026, 0.051, 0.077),
    ("gaussian", 0.09): (0.054, 0.109, 0.163),
    ("gaussian", 0.25): (0.091, 0.181, 0.272),
    ("logit", 0.02): (0.047, 0.094, 0.141),
    ("logit", 0.09): (0.103, 0.207, 0.310),
    ("logit", 0.25): (0.190, 0.380, 0.570),
    ("probit", 0.02): (0.026, 0.052, 0.078),
    ("probit", 0.09): (0.057, 0.114, 0.171),
    ("probit", 0.25): (0.105, 0.209, 0.314),
}


class TestQuadraticForm:
    def test_explicit_double_loop_equals_304(self):
        a = np.array(DEFAULT_WEIGHTS, dtype=float)
        cov = predictor_cov()
        total = 0.0
        for i in range(6):
            for j in range(6):
                total += a[i] * a[j] * cov[i, j]
        assert math.isclose(total, 30.4, rel_tol=1e-12)

    def test_closed_form_identity(self):
        # sum a_i^2 + rho * ((sum a_i)^2 - sum a_i^2) = 16 + 0.3 * 48
        a = np.array(DEFAULT_WEIGHTS, dtype=float)
        s2 = float(a @ a)
        s1 = float(a.sum())
        assert math.isclose(s2 + DEFAULT_RHO * (s1 ** 2 - s2), 30.4,
                            rel_tol=1e-15)

    def test_compute_beta_uses_same_denominator(self):
        spec = DataGenSpec(family="gaussian", n=100, r2=0.25)
        beta = compute_beta(spec)
        # invert the calibration: Var(y hat) = beta' Sigma beta must equal
        # the family's latent variance target
        cov = predictor_cov()
        assert math.isclose(float(beta @ cov @ beta), latent_variance(spec),
                            rel_tol=1e-12)


class TestComputeBeta:
    @pytest.mark.parametrize("family,r2", sorted(CALIBRATION_TABLE))
    def test_calibration_table(self, family, r2):
        beta = compute_beta(DataGenSpec(family=family, n=100, r2=r2))
        b2, b5, b6 = CALIBRATION_TABLE[(family, r2)]
        assert beta[0] == 0.0
        assert abs(beta[1] - b2) < 5e-4
        assert abs(beta[4] - b5) < 5e-4
        assert abs(beta[5] - b6) < 5e-4

    def test_exact_internal_ratios(self):
        beta = compute_beta(DataGenSpec(family="probit", n=50, r2=0.09))
        assert beta[0] == 0.0
        assert math.isclose(beta[1], beta[2], rel_tol=1e-15)
        assert math.isclose(beta[2], beta[3], rel_tol=1e-15)
        assert math.isclose(beta[4], 2.0 * beta[1], rel_tol=1e-12)
        assert math.isclose(beta[5], 3.0 * beta[1], rel_tol=1e-12)

    def test_latent_variance_by_family(self):
        assert math.isclose(latent_variance(
            DataGenSpec(family="gaussian", n=10, r2=0.25)), 0.25, rel_tol=1e-15)
        assert math.isclose(latent_variance(
            DataGenSpec(family="logit", n=10, r2=0.25)),
            0.25 * math.pi ** 2 / 3.0 / 0.75, rel_tol=1e-12)
        assert math.isclose(latent_variance(
            DataGenSpec(family="probit", n=10, r2=0.25)), 0.25 / 0.75,
            rel_tol=1e-12)


class TestSpecValidation:
    def test_r2_bounds(self):
        with pytest.raises(ValueError):
            DataGenSpec(family="gaussian", n=100, r2=0.0)
        with pytest.raises(ValueError):
            DataGenSpec(family="gaussian", n=100, r2=1.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            DataGenSpec(family="poisson", n=100, r2=0.1)

    def test_n_must_exceed_predictors(self):
        with pytest.raises(ValueError):
            DataGenSpec(family="gaussian", n=6, r2=0.1)


class TestGenDataset:
    def test_deterministic_for_fixed_stream(self):
        spec = DataGenSpec(family="gaussian", n=60, r2=0.09)
        a = gen_dataset(spec, rng_stream(5, 1, 2), lambda d: d)
        b = gen_dataset(spec, rng_stream(5, 1, 2), lambda d: d)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)

    def test_different_streams_differ(self):
        spec = DataGenSpec(family="gaussian", n=60, r2=0.09)
        a = gen_dataset(spec, rng_stream(5, 1, 2), lambda d: d)
        b = gen_dataset(spec, rng_stream(5, 1, 3), lambda d: d)
        assert not np.array_equal(a.y, b.y)

    def test_gaussian_residual_variance_large_n(self):
        spec = DataGenSpec(family="gaussian", n=100_000, r2=0.25)
        d = gen_dataset(spec, rng_stream(11), lambda d: d)
        beta = compute_beta(spec)
        residual = d.y - d.X @ beta
        assert abs(float(np.var(residual)) - 0.75) < 0.015

    def test_gaussian_sample_r2_large_n(self):
        spec = DataGenSpec(family="gaussian", n=100_000, r2=0.25)
        d = gen_dataset(spec, rng_stream(13), lambda d: d)
        result = fit(add_intercept(d))
        fitted = d.X @ result.beta[1:] + result.beta[0]
        r2 = float(np.var(fitted) / np.var(d.y))
        assert abs(r2 - 0.25) < 0.01

    def test_predictor_covariance_large_n(self):
        spec = DataGenSpec(family="probit", n=100_000, r2=0.09)
        d = gen_dataset(spec, rng_stream(17), lambda d: d)
        sample_cov = np.cov(d.X.T)
        assert np.allclose(sample_cov, predictor_cov(), atol=0.02)

    def test_binomial_outcomes_binary(self):
        spec = DataGenSpec(family="logit", n=200, r2=0.09)
        d = gen_dataset(spec, rng_stream(19), lambda d: d)
        assert set(np.unique(d.y)) <= {0.0, 1.0}
        assert d.family == "logit"

    def test_redraw_until_probe_accepts(self):
        spec = DataGenSpec(family="logit", n=40, r2=0.09)
        calls = []

        def fussy_probe(d):
            calls.append(1)
            if len(calls) < 4:
                raise SeparationError("synthetic rejection", trace=[])
            return fit(add_intercept(d))

        result = gen_dataset(spec, rng_stream(23), fussy_probe)
        assert len(calls) == 4
        assert (result.family, result.n) == ("logit", 40)

    def test_single_class_draw_is_redrawn_without_a_probe(self):
        # a draw whose outcomes are all 0 is redrawn before analyze sees it
        class FirstDrawAllZero:
            def __init__(self, rng):
                self.rng, self.uniform_calls = rng, 0

            def standard_normal(self, size):
                return self.rng.standard_normal(size)

            def random(self, size):
                self.uniform_calls += 1
                u = self.rng.random(size)
                return np.ones(size) if self.uniform_calls == 1 else u

        spec = DataGenSpec(family="logit", n=200, r2=0.09)
        rng, seen = FirstDrawAllZero(rng_stream(31)), []
        gen_dataset(spec, rng, seen.append)
        assert rng.uniform_calls == 2
        [d] = seen
        assert set(np.unique(d.y)) == {0.0, 1.0}

    def test_persistent_separation_raises(self, monkeypatch):
        spec = DataGenSpec(family="logit", n=40, r2=0.09)
        calls = []

        def always_reject(d):
            calls.append(1)
            raise SeparationError("synthetic rejection", trace=[])

        monkeypatch.setattr(simgen, "MAX_REDRAWS", 7)
        with pytest.raises(PersistentSeparationError, match="all 8 attempts"):
            gen_dataset(spec, rng_stream(29), always_reject)
        assert len(calls) == 8


class TestTertileCategorize:
    def _dataset(self, column_values):
        n = len(column_values)
        X = np.column_stack([np.ones(n), np.asarray(column_values, float)])
        return Dataset(y=np.arange(n, dtype=float), X=X,
                       names=("intercept", "x6"), family="gaussian")

    def test_equal_split_of_six(self):
        d = tertile_categorize(self._dataset([1, 2, 3, 4, 5, 6]), "x6")
        assert d.names == ("x6_low", "x6_medium", "x6_high")
        assert np.array_equal(d.X[:, 0], [1, 1, 0, 0, 0, 0])
        assert np.array_equal(d.X[:, 1], [0, 0, 1, 1, 0, 0])
        assert np.array_equal(d.X[:, 2], [0, 0, 0, 0, 1, 1])

    def test_remainder_rule_seven(self):
        d = tertile_categorize(self._dataset([7, 1, 3, 2, 6, 5, 4]), "x6")
        assert d.X[:, 0].sum() == 3.0
        assert d.X[:, 1].sum() == 2.0
        assert d.X[:, 2].sum() == 2.0

    def test_ranks_not_values_decide(self):
        d = tertile_categorize(self._dataset([10, -5, 0, 99, 7, -2]), "x6")
        # sorted order: -5, -2, 0, 7, 10, 99 -> low {-5,-2}, med {0,7}
        assert np.array_equal(d.X[:, 0], [0, 1, 0, 0, 0, 1])
        assert np.array_equal(d.X[:, 2], [1, 0, 0, 1, 0, 0])

    def test_intercept_dropped(self):
        d = tertile_categorize(self._dataset([1, 2, 3, 4, 5, 6]), "x6")
        assert "intercept" not in d.names

    def test_constant_column_rejected(self):
        with pytest.raises(DataError):
            tertile_categorize(self._dataset([2, 2, 2, 2, 2, 2]), "x6")

    def test_unknown_column(self):
        with pytest.raises(DataError):
            tertile_categorize(self._dataset([1, 2, 3, 4, 5, 6]), "nope")


class TestScaleScore:
    def test_row_mean_replaces_columns(self):
        X = np.array([[0.0, 0.0, 0.0, 4.0],
                      [1.0, 2.0, 3.0, 5.0],
                      [2.0, 4.0, 6.0, 6.0],
                      [3.0, 6.0, 9.0, 7.0],
                      [4.0, 8.0, 12.0, 8.0]])
        d = Dataset(y=np.zeros(5), X=X, names=("a", "b", "c", "keep"),
                    family="gaussian")
        out = scale_score(d, ["a", "b", "c"])
        assert out.names == ("scale", "keep")
        assert np.allclose(out.X[:, 0], [0.0, 2.0, 4.0, 6.0, 8.0])
        assert np.array_equal(out.X[:, 1], X[:, 3])

    def test_requires_two_columns(self):
        d = Dataset(y=np.zeros(3), X=np.ones((3, 2)), names=("a", "b"),
                    family="gaussian")
        with pytest.raises(DataError):
            scale_score(d, ["a"])

    def test_name_collision(self):
        d = Dataset(y=np.zeros(5),
                    X=np.column_stack([np.ones(5), np.zeros(5), np.arange(5.0)]),
                    names=("a", "b", "scale"), family="gaussian")
        with pytest.raises(DataError):
            scale_score(d, ["a", "b"])

    def test_apply_transform_dispatch(self):
        X = np.column_stack([np.arange(6.0), np.arange(6.0) * 2.0])
        d = Dataset(y=np.zeros(6), X=X, names=("x1", "x6"), family="gaussian")
        tert = apply_transform(d, "tertile:x6")
        assert tert.names == ("x1", "x6_low", "x6_medium", "x6_high")
        same = apply_transform(d, None)
        assert same is d
        with pytest.raises(ValueError):
            apply_transform(d, "mystery:x1")

    def test_width_rejects_an_unknown_transform(self):
        # width reads the same dispatcher as apply_transform
        entry = StudyPlanEntry(0, DataGenSpec("gaussian", 50, 0.25),
                               "mystery:x1", True, ("x1 > 0",))
        with pytest.raises(ValueError, match="unknown transform 'mystery:x1'"):
            entry.width


class TestStudyPlan:
    def test_part_one_family_triple(self):
        plan = study_plan(1, 100, 0.25)
        assert [e.spec.family for e in plan] == ["gaussian", "logit", "probit"]
        assert all(e.spec.n == 100 for e in plan)
        assert all(e.hypotheses == ("x4 < x5 < x6",) for e in plan)
        assert all(e.transform is None for e in plan)
        assert all(e.intercept for e in plan)

    def test_sim2_reassigns_one_study_to_n25(self):
        plan = study_plan(2, 400, 0.25, rng=rng_stream(3, 2))
        sizes = [e.spec.n for e in plan]
        assert sorted(sizes) == [25, 400, 400]

    def test_sim2_position_varies_with_stream(self):
        positions = set()
        for key in range(30):
            plan = study_plan(2, 400, 0.25, rng=rng_stream(key))
            positions.add([e.spec.n for e in plan].index(25))
        assert positions == {0, 1, 2}

    def test_sim2_requires_rng(self):
        with pytest.raises(ValueError):
            study_plan(2, 400, 0.25)

    @pytest.mark.parametrize("sim_id", range(1, 12))
    def test_width_is_the_fitted_design(self, sim_id):
        plan = study_plan(sim_id, 60, 0.25, rng=rng_stream(1), n_studies=1)
        for entry in plan:
            fitted = gen_dataset(entry.spec, rng_stream(2),
                                 lambda raw: fit(entry.design(raw)))
            assert fitted.p == entry.width

    @pytest.mark.parametrize("sim_id,lowest", [(1, 9), (3, 9), (4, 10), (5, 7),
                                               (6, 9), (9, 9), (11, 9)])
    def test_smallest_n_keeps_the_fraction_below_one(self, sim_id, lowest):
        # gaussian studies need n > p + 1, where b = (p + 1) / n reaches 1
        study_plan(sim_id, lowest, 0.25, n_studies=2)
        if lowest - 1 > len(DEFAULT_WEIGHTS):   # else DataGenSpec rejects it
            with pytest.raises(ValueError, match=rf"n = {lowest - 1} .* "
                                                 rf"{lowest - 2} design columns"):
                study_plan(sim_id, lowest - 1, 0.25, n_studies=2)

    def test_sim4_tertile_cell_means(self):
        plan = study_plan(4, 100, 0.09)
        assert all(e.transform == "tertile:x6" for e in plan)
        assert all(not e.intercept for e in plan)
        assert all(e.hypotheses == ("x6_low < x6_medium < x6_high",)
                   for e in plan)

    def test_sim5_scale_score(self):
        plan = study_plan(5, 100, 0.09)
        assert all(e.transform == "scale:x2,x3,x4" for e in plan)
        assert all(e.hypotheses == ("scale > 0",) for e in plan)

    def test_sim7_sign_flipped_set(self):
        plan = study_plan(7, 100, 0.25)
        assert all(e.hypotheses == ("{x2, x3, x4} < 0",) for e in plan)

    def test_sim8_wrong_member_set(self):
        plan = study_plan(8, 100, 0.25)
        assert all(e.hypotheses == ("{x1, x2, x3} > 0",) for e in plan)

    def test_sequential_sims_are_gaussian_series(self):
        plan = study_plan(9, 25, 0.09, n_studies=10)
        assert len(plan) == 10
        assert all(e.spec.family == "gaussian" for e in plan)
        assert [e.study_index for e in plan] == list(range(10))

    def test_sequential_default_count(self):
        plan = study_plan(10, 25, 0.09)
        assert len(plan) == 150

    def test_sim11_decomposed(self):
        joint = study_plan(11, 25, 0.09, n_studies=5)
        assert joint[0].hypotheses == ("{x2, x3, x4} > 0",)
        parts = study_plan(11, 25, 0.09, n_studies=5, decomposed=True)
        assert parts[0].hypotheses == ("x2 > 0", "x3 > 0", "x4 > 0")

    @pytest.mark.parametrize("sim_id", range(1, 11))
    def test_decomposed_is_refused_without_a_variant(self, sim_id):
        with pytest.raises(ValueError, match=f"simulation {sim_id} has no "
                                             "decomposed variant"):
            study_plan(sim_id, 100, 0.25, rng=rng_stream(1), n_studies=2,
                       decomposed=True)

    def test_unknown_sim(self):
        with pytest.raises(ValueError):
            study_plan(12, 100, 0.25)


class TestRngStream:
    def test_keyed_reproducibility(self):
        a = rng_stream(1, 2, 3).standard_normal(4)
        b = rng_stream(1, 2, 3).standard_normal(4)
        assert np.array_equal(a, b)

    def test_key_order_matters(self):
        a = rng_stream(1, 2).standard_normal(4)
        b = rng_stream(2, 1).standard_normal(4)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("keys", [(), (0,), (2**32 - 1,), (1, 2, 3),
                                      (0, 2**32 - 1, 7, 0), (2**32,),
                                      (5, 2**40 + 3, 1), (3, 2**64 + 1)])
    def test_stream_is_the_list_seeded_stream(self, keys):
        # keys below 2^32 seed from a uint32 array, larger ones from the
        # list; both give numpy's stream for the list of keys
        a = rng_stream(*keys).integers(0, 2**63, 8)
        b = np.random.default_rng(list(keys)).integers(0, 2**63, 8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("keys", [(-1,), (4, -3), (-(2**40),)])
    def test_negative_key_raises(self, keys):
        with pytest.raises(ValueError):
            rng_stream(*keys)


@pytest.fixture
def seeded(monkeypatch):
    """The keys of every stream seeded while the test runs."""
    keys, real = [], simgen.rng_stream

    def record(*k):
        keys.append(k)
        return real(*k)

    monkeypatch.setattr(simgen, "rng_stream", record)
    return keys


class TestLazyStream:
    def test_draws_are_the_streams(self):
        lazy, eager = simgen.LazyStream(1, 2, 3), rng_stream(1, 2, 3)
        assert lazy.integers(3) == eager.integers(3)
        assert np.array_equal(lazy.random((2, 3)), eager.random((2, 3)))

    def test_seeded_on_the_first_draw_only(self, seeded):
        lazy = simgen.LazyStream(4, 5)
        assert seeded == []
        lazy.random()
        lazy.standard_normal(2)
        assert seeded == [(4, 5)]

    @pytest.mark.parametrize("sim,plan", [(1, []), (6, []), (2, [(7, 2, 0, 1, 3)])])
    def test_an_iteration_seeds_only_what_it_draws_from(self, seeded, sim, plan):
        # every mass of these simulations is exact or quadrature: only the
        # data streams, and simulation 2's plan stream, are drawn from
        rows, aggs, skips = simgen.run_iteration(sim, 0, 60, 0.25, 1, 7, 1000,
                                                 ("unconstrained",), None, False)
        assert len(rows) == 3 and len(aggs) == 1 and skips == []
        assert seeded == plan + [(7, sim, 0, 1, k, 0) for k in range(3)]

    def test_a_config_plans_without_seeding(self, seeded):
        config = simgen.SimulationConfig(sim_id=1, iterations=2, ns=(25, 50),
                                         r2s=(0.09, 0.25), seed=3)
        assert config.conditions == ((0, 25, 0.09), (1, 25, 0.25),
                                     (2, 50, 0.09), (3, 50, 0.25))
        assert seeded == []
