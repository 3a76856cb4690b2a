"""Bayes factor engine tests: fractions, priors, masses, sentinels, records."""

import dataclasses
import functools
import itertools
import json
import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import multivariate_normal, multivariate_t, norm
from scipy.stats import t as student_t
from scipy.stats._qmvnt import _qmvn, _qmvt

from evsynth import bf, simgen
from evsynth import hypothesis as hyp
from evsynth.bf import (ALTERNATIVES, MASS_METHODS, CoefDistribution,
                        EvidenceRecord, FractionSpec, NumericError,
                        adjustment_center, bf_between, bf_cu, bf_ic, bf_iu,
                        build_posterior, build_prior, default_fraction,
                        evaluate)
from evsynth.glm import (FAMILIES, DataError, Dataset, FitResult,
                         add_intercept, fit_ols)
from evsynth.glm import fit as glm_fit
from evsynth.hypothesis import (ConstraintSystem,
                                EqualityComplementUnsupportedError,
                                NameMappingError, parse)
from oracles import (mc_orthant_prob, mc_prob_region, padded_transform,
                     prob_region, same_system)


def normal_dist(mean, cov, names=None):
    return t_dist(mean, cov, math.inf, names)


def t_dist(mean, cov, df, names=None):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    if names is None:
        names = tuple(f"b{j + 1}" for j in range(mean.shape[0]))
    return CoefDistribution(mean, np.atleast_2d(np.asarray(cov, dtype=float)),
                            tuple(names), df=float(df))


def law_df(df):
    """The degrees of freedom of a law whose parameter ids spell the normal
    law as df None."""
    return math.inf if df is None else df


def gaussian_fit(n=100, p=7, seed=0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    y = X @ rng.normal(size=p) + rng.normal(size=n)
    names = ("intercept",) + tuple(f"x{j + 2}" for j in range(p - 1))
    return fit_ols(Dataset(y=y, X=X, names=names, family="gaussian"))


def logit_fit(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X @ [0.2, 0.5, -0.3, 0.1])))
    return glm_fit(Dataset(y=y.astype(float), X=X,
                           names=("intercept", "x2", "x3", "x4"),
                           family="logit"))


class TestFractionSpec:
    def test_linear_model_rule(self):
        # b = (p + 1) / n, p counting the intercept
        spec = default_fraction(gaussian_fit(n=120, p=5), [parse("x2 > 0")])
        assert math.isclose(spec.b, 0.05, rel_tol=1e-15)

    def test_glm_rule(self):
        # b = J / n, J the number of independent constraints
        fit = logit_fit(n=200)
        assert math.isclose(default_fraction(fit, [parse("x2 > 0")]).b,
                            0.005, rel_tol=1e-15)
        assert math.isclose(default_fraction(fit, [parse("{x2, x3, x4} > 0")]).b,
                            0.015, rel_tol=1e-15)

    def test_explicit(self):
        assert FractionSpec(0.12).b == 0.12

    @pytest.mark.parametrize("b", [0.0, 1.0, -0.1, 1.5])
    def test_fraction_bounds(self, b):
        with pytest.raises(ValueError):
            FractionSpec(b)

    def test_default_fraction_by_family(self):
        result = gaussian_fit(n=100, p=7)
        spec = default_fraction(result, [parse("x2 > 0")])
        assert math.isclose(spec.b, 0.08, rel_tol=1e-15)

    def test_default_fraction_of_one_is_a_data_error(self):
        fit = gaussian_fit(n=8, p=7)
        with pytest.raises(DataError, match=r"n = 8 .* p = 7"):
            default_fraction(fit, [parse("x2 > 0")])
        assert default_fraction(gaussian_fit(n=9, p=7),
                                [parse("x2 > 0")]).b == 8.0 / 9.0


class TestConstraintCount:
    """J of the binomial rule b = J / n is the rank of the one hypothesis."""

    def test_single_inequality(self):
        fit = logit_fit(n=200)
        assert default_fraction(fit, [parse("b6 > 0")]).b == 1.0 / 200

    def test_chain_counts_rows(self):
        fit = logit_fit(n=200)
        assert default_fraction(fit, [parse("b4 < b5 < b6")]).b == 2.0 / 200

    def test_rank_not_row_count(self):
        fit = logit_fit(n=200)
        h = parse("x2 > 0 & x3 > 0 & x2 + x3 > 0.1")
        assert default_fraction(fit, [h]).b == 2.0 / 200

    def test_one_hypothesis_only(self):
        for fit in (logit_fit(n=200), gaussian_fit(n=120, p=5)):
            for systems in ([], [parse("x2 > 0"), parse("x3 > 0")]):
                with pytest.raises(ValueError, match="one hypothesis, got"):
                    default_fraction(fit, systems)


class TestAdjustmentCenter:
    def test_homogeneous_chain_center_zero(self):
        assert np.allclose(adjustment_center(parse("b4 < b5 < b6")), 0.0)

    def test_single_offset(self):
        assert np.allclose(adjustment_center(parse("b1 > 0.2")), [0.2])

    def test_two_offsets(self):
        center = adjustment_center(parse("b1 > 0 & b2 > 0.5"))
        assert np.allclose(center, [0.0, 0.5])

    def test_minimum_norm_solution(self):
        # boundary b1 + b2 = 1 has min-norm solution (0.5, 0.5)
        center = adjustment_center(parse("b1 + b2 > 1"))
        assert np.allclose(center, [0.5, 0.5])

    def test_inconsistent_boundary_warns(self):
        with pytest.warns(RuntimeWarning):
            adjustment_center(parse("b1 > 0 & b1 > 1"))

    def test_inconsistent_boundary_warns_on_every_call(self):
        # the center is computed once per parsed system; the warning is not
        h = parse("x2 > 0 & x2 > 1")
        fit = gaussian_fit(n=60, p=3, seed=2)
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match="inconsistent boundary"):
                adjustment_center(h, names=fit.names)
            with pytest.warns(RuntimeWarning, match="inconsistent boundary"):
                evaluate(fit, h, label="h")

    def test_embedding_into_fit_space(self):
        center = adjustment_center(parse("x3 > 0.2"),
                                   names=("intercept", "x2", "x3"))
        assert np.allclose(center, [0.0, 0.0, 0.2])


class TestDistributions:
    def test_posterior_gaussian_student_t(self):
        result = gaussian_fit(n=100, p=7)
        post = build_posterior(result)
        assert post.kind == "student-t"
        assert post.df == 93.0
        assert np.allclose(post.mean, result.beta)
        assert np.allclose(post.scale, result.cov)

    def test_prior_gaussian_cauchy_rescaled(self):
        result = gaussian_fit(n=100, p=7)
        frac = default_fraction(result, [parse("x2 > 0")])
        center = np.zeros(result.p)
        prior = build_prior(result, frac, center)
        assert prior.kind == "student-t"
        assert prior.df == 1.0
        assert np.allclose(prior.scale, result.cov / 0.08)
        assert np.allclose(prior.mean, 0.0)

    def test_center_shape_checked(self):
        result = gaussian_fit(n=50, p=3)
        with pytest.raises(ValueError):
            build_prior(result, FractionSpec(0.1), np.zeros(5))

    @pytest.mark.parametrize("df", [None, 0.0, -2.0, math.nan])
    def test_student_t_needs_positive_df(self, df):
        with pytest.raises(ValueError,
                           match="degrees of freedom must be positive"):
            CoefDistribution(np.zeros(1), np.eye(1), ("b1",), df=df)

    @pytest.mark.parametrize("df,whole", [
        (0.5, False), (1.5, False), (4793.5, False),
        (1, True), (3.0, True), (1e13, True), (math.inf, True)])
    def test_student_t_df_is_whole(self, df, whole):
        # above _CHI_DF_MAX the law is the normal one, whatever its df
        if whole:
            CoefDistribution(np.zeros(1), np.eye(1), ("b1",), df=df)
            return
        with pytest.raises(ValueError, match="must be a whole number"):
            CoefDistribution(np.zeros(1), np.eye(1), ("b1",), df=df)

    @pytest.mark.parametrize("mean,scale", [
        ([0.0, math.nan], np.eye(2)),
        ([math.inf, 0.0], np.eye(2)),
        ([0.0, 0.0], [[1.0, math.nan], [math.nan, 1.0]]),
    ])
    def test_non_finite_mean_or_scale_rejected(self, mean, scale):
        with pytest.raises(ValueError, match="must be finite"):
            CoefDistribution(mean, scale, ("b1", "b2"))

    def test_scale_symmetry_enforced(self):
        with pytest.raises(ValueError):
            CoefDistribution(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]),
                             ("a", "b"))

    @pytest.mark.parametrize("scale,names,words", [
        (np.eye(3), ("b1", "b2"), "scale shape does not match mean"),
        (np.ones(2), ("b1", "b2"), "scale shape does not match mean"),
        (np.eye(2), ("b1",), "names length does not match mean"),
    ], ids=["3x3-scale", "1-d-scale", "too-few-names"])
    def test_shape_errors_are_named(self, scale, names, words):
        with pytest.raises(ValueError, match=f"^{words}$"):
            CoefDistribution(np.zeros(2), scale, names)


class TestOneLawOneAnswer:
    """A law is its degrees of freedom: above bf._CHI_DF_MAX, infinity
    included, a Student-t law is the normal law, with the same masses,
    mass methods and records on every rung."""

    NAMES = ("b1", "b2", "b3")
    COV = np.array([[1.0, 0.3, -0.2], [0.3, 2.0, 0.4], [-0.2, 0.4, 1.5]])

    def records(self, df, text):
        post = CoefDistribution(np.array([0.4, -0.2, 0.3]), self.COV,
                                self.NAMES, df)
        prior = CoefDistribution(np.zeros(3), 4.0 * self.COV, self.NAMES, df)
        return [bf_iu(post, prior, parse(text), rng=np.random.default_rng(3),
                      draws=2_000, alternative=alternative)
                for alternative in ALTERNATIVES
                if alternative == "unconstrained" or "=" not in text]

    @pytest.mark.parametrize("df", [math.inf, 1e13])
    @pytest.mark.parametrize("text,method", [
        ("b2 > -0.5", "exact"),
        ("b1 > 0 & b2 > 0", "exact"),
        ("{b1, b2, b3} > 0", "quadrature"),
        ("b3 > 0 & b2 > 0 & b3 < 0.5", "exact"),
        ("b1 > 0 & b2 > 0 & b3 > 0 & b1 + b3 > 0.1", "qmc"),
        ("b1 = 0 & b2 > 0 & b3 > 0", "exact")])
    def test_huge_df_is_the_normal_law(self, df, text, method):
        normal = self.records(math.inf, text)
        assert CoefDistribution(np.zeros(1), np.eye(1), ("b1",), df).kind \
            == "normal"
        assert [r.mass_method for r in normal] == [method] * len(normal)
        assert self.records(df, text) == normal

    def test_the_normal_law_is_the_default(self):
        law = CoefDistribution(np.zeros(2), np.eye(2), ("b1", "b2"))
        assert (law.df, law.kind) == (math.inf, "normal")
        assert CoefDistribution(np.zeros(1), np.eye(1), ("b1",), 1e12).kind \
            == "student-t"


class TestProbRegion:
    @pytest.mark.parametrize("mass", ["auto", "mc"])
    def test_indefinite_scale_raises(self, mass, monkeypatch):
        # unit variances with covariance 2: eigenvalues 3 and -1; "auto" is
        # the ladder, "mc" the sampler, which bf_iu takes when it replaces
        # bf._orthant_prob
        dist = normal_dist([0.1, 0.2], [[1.0, 2.0], [2.0, 1.0]])
        h = parse("b1 > 0 & b2 > 0")
        rng = np.random.default_rng(0)
        region = prob_region
        if mass == "mc":
            region = mc_prob_region
            monkeypatch.setattr(bf, "_orthant_prob", mc_orthant_prob)
        with pytest.raises(NumericError, match="not positive semidefinite"):
            region(dist, h, rng=rng, draws=1_000)
        with pytest.raises(NumericError, match="not positive semidefinite"):
            bf_iu(dist, normal_dist([0.0, 0.0], np.eye(2)), h, rng=rng,
                  draws=1_000)

    def test_indefinite_three_row_scale_raises(self):
        # every |rho| < 1, yet an eigenvalue is -0.8
        cov = [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]
        with pytest.raises(NumericError, match="not positive semidefinite"):
            prob_region(normal_dist([0.1, 0.2, 0.3], cov),
                        parse("{b1, b2, b3} > 0"))

    @given(st.floats(-1.5, 1.5), st.floats(0.01, 100.0),
           st.floats(0.01, 100.0))
    @example(1.0 + 2e-8, 1.0, 1.0)
    @example(-1.0 - 5e-9, 2.0, 0.5)
    @settings(max_examples=200, deadline=None)
    def test_two_row_psd_check_is_the_eigenvalue_check(self, rho, s1, s2):
        scale = np.array([[s1 * s1, rho * s1 * s2], [rho * s1 * s2, s2 * s2]])
        s = np.sqrt(np.diag(scale))
        least = np.linalg.eigvalsh(scale / np.outer(s, s))[0]
        if abs(least + 1e-8) < 1e-12:   # on the threshold, either may round
            return
        if least < -1e-8:
            with pytest.raises(NumericError, match="not positive semidefinite"):
                bf._standard_box(np.array([0.3, -0.2]), scale)
        else:   # a box, or None for an empty one (opposed rows)
            bf._standard_box(np.array([0.3, -0.2]), scale)

    @pytest.mark.parametrize("kind,k", [
        pytest.param(kind, k, id=str(k) if kind == "normal" else f"t-{k}")
        for kind in ("normal", "student-t") for k in (1, 2, 3)])
    def test_rows_without_variance_are_decided_by_their_means(self, kind, k):
        names = ("b1", "b2", "b3")[:k]
        h = parse("{" + ", ".join(names) + "} > 0")
        for mean, p in ((np.linspace(0.2, 0.5, k), 1.0),
                        (np.linspace(-0.2, 0.5, k), 0.0)):
            dist = CoefDistribution(mean, np.zeros((k, k)), names,
                                    df=4.0 if kind == "student-t" else math.inf)
            assert prob_region(dist, h) == (p, 0.0)

    def test_standard_normal_half(self):
        p, se = prob_region(normal_dist([0.0], [[1.0]]), parse("b1 > 0"))
        assert p == 0.5
        assert se == 0.0

    def test_exact_normal_cdf(self):
        p, se = prob_region(normal_dist([1.645], [[1.0]]), parse("b1 > 0"))
        assert math.isclose(p, float(norm.cdf(1.645)), rel_tol=1e-12)
        assert se == 0.0

    def test_exact_student_t_cdf(self):
        p, _ = prob_region(t_dist([0.5], [[2.0]], df=5), parse("b1 > 0"))
        assert math.isclose(p, float(student_t.cdf(0.5 / math.sqrt(2.0), 5)),
                            rel_tol=1e-12)

    def test_ordering_symmetry_one_sixth(self):
        dist = normal_dist(np.zeros(3), np.eye(3))
        p, se = mc_prob_region(dist, parse("b1 < b2 < b3"),
                               rng=np.random.default_rng(19), draws=200_000)
        assert se > 0.0
        assert abs(p - 1.0 / 6.0) < 3.0 * se + 1e-9

    def test_ordering_symmetry_one_sixth_exact(self):
        dist = normal_dist(np.zeros(3), np.eye(3))
        p, se = prob_region(dist, parse("b1 < b2 < b3"))
        assert se == 0.0
        assert math.isclose(p, 1.0 / 6.0, rel_tol=1e-15)

    def test_mc_matches_mvn_orthant_oracle(self):
        cov = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.1], [0.2, 0.1, 1.0]])
        mean = np.array([0.3, -0.1, 0.5])
        dist = normal_dist(mean, cov)
        p, se = mc_prob_region(dist, parse("{b1, b2, b3} > 0"),
                               rng=np.random.default_rng(23), draws=200_000)
        oracle = float(multivariate_normal(mean=np.zeros(3), cov=cov).cdf(mean))
        assert abs(p - oracle) < 3.0 * se

    def test_equality_rows_rejected(self):
        with pytest.raises(ValueError):
            prob_region(normal_dist([0.0], [[1.0]]), parse("b1 = 0"))

    def test_forced_mc_on_one_row(self):
        dist = normal_dist([0.7], [[1.0]])
        p, se = mc_prob_region(dist, parse("b1 > 0"),
                               rng=np.random.default_rng(5), draws=100_000)
        assert se > 0.0
        assert abs(p - float(norm.cdf(0.7))) < 3.0 * se

    def test_contradiction_probability_zero(self):
        dist = normal_dist([0.0, 0.0], np.eye(2))
        p, _ = prob_region(dist, parse("b1 < b2 & b2 < b1"),
                           rng=np.random.default_rng(1), draws=20_000)
        assert p == 0.0

    @given(st.floats(-2.0, 2.0), st.floats(0.1, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_exact_path_matches_scipy(self, mean, var):
        p, _ = prob_region(normal_dist([mean], [[var]]), parse("b1 > 0"))
        assert math.isclose(p, float(norm.cdf(mean / math.sqrt(var))),
                            rel_tol=1e-12, abs_tol=1e-300)


def density_at_equality(dist, h):
    # the fit of an equality-only hypothesis is the boundary density
    return bf_iu(dist, dist, h).fit


class TestDensityAtEquality:
    def test_standard_normal(self):
        d = density_at_equality(normal_dist([0.0], [[1.0]]), parse("b1 = 0"))
        assert math.isclose(d, 1.0 / math.sqrt(2.0 * math.pi), rel_tol=1e-12)

    def test_normal_variance_two(self):
        d = density_at_equality(normal_dist([0.0], [[2.0]]), parse("b1 = 0"))
        assert math.isclose(d, 1.0 / math.sqrt(4.0 * math.pi), rel_tol=1e-12)

    def test_cauchy_at_center(self):
        d = density_at_equality(t_dist([0.0], [[1.0]], df=1), parse("b1 = 0"))
        assert math.isclose(d, 1.0 / math.pi, rel_tol=1e-12)

    def test_offset_mean(self):
        d = density_at_equality(normal_dist([0.3], [[1.0]]), parse("b1 = 0"))
        assert math.isclose(d, float(norm.pdf(-0.3)), rel_tol=1e-12)

    def test_inequality_rows_take_the_region_mass(self):
        d = density_at_equality(normal_dist([0.0], [[1.0]]), parse("b1 > 0"))
        assert d == 0.5

    def test_dependent_equality_rows_numeric_error(self):
        h = ConstraintSystem(param_names=("b1", "b2"),
                             R_e=np.array([[1.0, 0.0], [1.0, 1e-14]]),
                             r_e=np.zeros(2), R_i=np.zeros((0, 2)),
                             r_i=np.zeros(0))
        assert same_system(h, parse("b1 = 0 & b1 + 1e-14*b2 = 0"))
        # independent rows on which the law's scale is singular
        with pytest.raises(NumericError, match="scale is singular"):
            density_at_equality(normal_dist([0.0, 0.0], [[1.0, 1.0],
                                                         [1.0, 1.0]]),
                                parse("b1 = 0 & b2 = 0"))

    @pytest.mark.parametrize("text", ["b1 = 0", "b1 = 0 & b2 > 0"])
    @pytest.mark.parametrize("df", [1e13, 1e30, math.inf])
    def test_huge_df_takes_the_normal_law(self, text, df):
        mean, cov = [0.3, -0.2], [[1.0, 0.4], [0.4, 2.0]]
        d = density_at_equality(t_dist(mean, cov, df=df), parse(text))
        assert math.isclose(d, density_at_equality(normal_dist(mean, cov),
                                                   parse(text)),
                            rel_tol=1e-12)

    @pytest.mark.parametrize("df,text,want", [
        # log densities by mpmath at 50 digits
        (1e6, "b1 = 0", -0.96393882617967084),
        (1e6, "b1 = 0 & b2 = 0 & b3 = 0", -3.4127578787053436),
        (1e9, "b1 = 0", -0.96393853349764774),
        (1e9, "b1 = 0 & b2 = 0 & b3 = 0", -3.4127581629027699),
        (1e11, "b1 = 0", -0.96393853320760249),
        (1e11, "b1 = 0 & b2 = 0 & b3 = 0", -3.4127581631844074),
        (1e12, "b1 = 0", -0.96393853320496572),
        (1e12, "b1 = 0 & b2 = 0 & b3 = 0", -3.4127581631869677)])
    def test_large_df_matches_mpmath(self, df, text, want):
        # the normalizing constant's lgamma difference cancels at large df
        dist = t_dist([0.3, -0.2, 0.5], [[1.0, 0.4, 0.1], [0.4, 2.0, 0.3],
                                         [0.1, 0.3, 1.5]], df=df)
        assert abs(math.log(density_at_equality(dist, parse(text)))
                   - want) <= 1e-13

    @pytest.mark.parametrize("text,want", [
        # by mpmath at 50 digits: the density of b1 at 0, and times the
        # mass of b2 > 0 under the exact conditional law (df 4794)
        ("b1 = 0", 0.38136450364576087),
        ("b1 = 0 & b2 > 0", 0.15511952316183075)])
    def test_fit_size_df_matches_mpmath(self, text, want):
        dist = t_dist([0.3, -0.2], [[1.0, 0.4], [0.4, 2.0]], df=4793)
        assert abs(density_at_equality(dist, parse(text)) - want) <= 1e-15 * want

    def test_log_gamma_ratio_matches_mpmath(self):
        # log Gamma(a + b) - log Gamma(a) for every half-integer b of up to
        # ten rows, across the switch to Stirling's series and at df up to
        # _CHI_DF_MAX
        bad = []
        for a in [0.5, 1.0, 2.5, 7.5, 7.999999, 8.0, 8.000001, 19.0, 2396.5,
                  7.5e3, 5e4, 5e5, 1.4e6, 3e8, 5e11]:
            for b in [j / 2 for j in range(1, 11)]:
                with mpmath.workdps(50):
                    want = float(mpmath.loggamma(mpmath.mpf(a) + b)
                                 - mpmath.loggamma(a))
                got = bf._log_gamma_ratio(a, b)
                if abs(got - want) > 4e-15 * max(abs(want), 1.0):
                    bad.append((a, b, got, want))
        assert bad == []


class TestBfIu:
    def test_savage_dickey_sqrt_two(self):
        post = normal_dist([0.0], [[1.0]])
        prior = normal_dist([0.0], [[2.0]])
        record = bf_iu(post, prior, parse("b1 = 0"))
        assert abs(math.exp(record.log_bf_iu) - math.sqrt(2.0)) < 1e-9
        assert record.log_bf_ic is None

    def test_prior_names_in_another_order(self):
        # the rows embedded for the posterior are not reused for a prior
        # over the same coefficients in another order
        cov = np.array([[1.0, 0.3, 0.1], [0.3, 2.0, -0.2], [0.1, -0.2, 1.5]])
        post = normal_dist([0.4, -0.2, 0.3], cov)
        prior = normal_dist(np.zeros(3), 2.0 * cov)
        order = [2, 0, 1]
        shuffled = normal_dist(np.zeros(3), 2.0 * cov[np.ix_(order, order)],
                               names=[prior.names[j] for j in order])
        h = parse("b1 > b2 & b3 > 0")
        want = bf_iu(post, prior, h)
        got = bf_iu(post, shuffled, h)
        assert got.complexity == want.complexity
        assert got.log_bf_iu == want.log_bf_iu

    def test_fit_over_complexity(self):
        # posterior mass 0.9, prior mass 0.5 on the exact path
        mu = float(norm.ppf(0.9))
        record = bf_iu(normal_dist([mu], [[1.0]]), normal_dist([0.0], [[1.0]]),
                       parse("b1 > 0"))
        assert math.isclose(record.fit, 0.9, rel_tol=1e-12)
        assert math.isclose(record.complexity, 0.5, rel_tol=1e-15)
        assert math.isclose(math.exp(record.log_bf_iu), 1.8, rel_tol=1e-12)
        assert math.isclose(math.exp(record.log_bf_ic), 9.0, rel_tol=1e-10)

    def test_one_constraint_cap_is_inverse_complexity(self):
        record = bf_iu(normal_dist([40.0], [[1.0]]), normal_dist([0.0], [[1.0]]),
                       parse("b1 > 0"))
        assert record.fit == 1.0
        assert math.isclose(math.exp(record.log_bf_iu), 2.0, rel_tol=1e-12)
        assert record.log_bf_ic == math.inf

    def test_mixed_constraints_hand_oracle(self):
        cov = np.array([[1.0, 0.6], [0.6, 1.0]])
        post = normal_dist([0.3, 0.5], cov)
        prior = normal_dist([0.0, 0.0], 2.0 * cov)
        record = bf_iu(post, prior, parse("b1 = 0 & b2 > 0"))
        fit_oracle = float(norm.pdf(0.0, loc=0.3, scale=1.0)
                           * norm.cdf((0.5 - 0.6 * 0.3) / 0.8))
        cx_oracle = float(norm.pdf(0.0, loc=0.0, scale=math.sqrt(2.0)) * 0.5)
        assert math.isclose(record.fit, fit_oracle, rel_tol=1e-12)
        assert math.isclose(record.complexity, cx_oracle, rel_tol=1e-12)
        assert record.log_bf_ic is None

    def test_two_equality_rows_schur_oracle(self):
        cov = np.array([[1.0, 0.5, 0.3], [0.5, 2.0, -0.4], [0.3, -0.4, 1.5]])
        mean = np.array([0.2, -0.1, 0.4])
        h = parse("b1 = 0 & b2 = 0 & b3 > 0")
        record = bf_iu(normal_dist(mean, cov), normal_dist(np.zeros(3), 3.0 * cov),
                       h)
        for m, S, got in ((mean, cov, record.fit),
                          (np.zeros(3), 3.0 * cov, record.complexity)):
            dens = multivariate_normal.pdf(np.zeros(2), mean=m[:2], cov=S[:2, :2])
            gain = np.linalg.solve(S[:2, :2], S[:2, 2])
            cond_mean = m[2] - gain @ m[:2]
            cond_var = S[2, 2] - gain @ S[:2, 2]
            oracle = float(dens * norm.cdf(cond_mean / math.sqrt(cond_var)))
            assert math.isclose(got, oracle, rel_tol=1e-12)

    def test_one_equality_two_inequality_rows_mc_oracle(self, monkeypatch):
        # the conditional masses by the sampler, conditioned by _log_mass
        monkeypatch.setattr(bf, "_orthant_prob", mc_orthant_prob)
        cov = np.array([[1.0, 0.4, -0.3], [0.4, 1.0, 0.2], [-0.3, 0.2, 1.0]])
        mean = np.array([0.3, 0.2, 0.1])
        h = parse("b1 = 0 & b2 > 0 & b3 > 0")
        record = bf_iu(normal_dist(mean, cov), normal_dist(np.zeros(3), 2.0 * cov),
                       h, rng=np.random.default_rng(5), draws=100_000)
        gain = cov[1:, 0] / cov[0, 0]
        cond_mean = mean[1:] - gain * mean[0]
        cond_cov = cov[1:, 1:] - np.outer(gain, cov[0, 1:])
        oracle = float(norm.pdf(0.0, loc=mean[0], scale=1.0)
                       * multivariate_normal.cdf(cond_mean, mean=np.zeros(2),
                                                 cov=cond_cov))
        assert record.mc_draws == 100_000
        assert abs(record.fit - oracle) <= 4.0 * record.mc_se_fit

    def test_one_equality_two_inequality_rows_exact(self):
        cov = np.array([[1.0, 0.4, -0.3], [0.4, 1.0, 0.2], [-0.3, 0.2, 1.0]])
        mean = np.array([0.3, 0.2, 0.1])
        h = parse("b1 = 0 & b2 > 0 & b3 > 0")
        record = bf_iu(normal_dist(mean, cov), normal_dist(np.zeros(3), 2.0 * cov),
                       h)
        gain = cov[1:, 0] / cov[0, 0]
        cond_mean = mean[1:] - gain * mean[0]
        cond_cov = cov[1:, 1:] - np.outer(gain, cov[0, 1:])
        oracle = float(norm.pdf(0.0, loc=mean[0], scale=1.0)
                       * multivariate_normal.cdf(cond_mean, mean=np.zeros(2),
                                                 cov=cond_cov))
        assert record.mass_method == "exact"
        assert record.mc_draws == 0 and record.mc_se_fit == 0.0
        assert math.isclose(record.fit, oracle, rel_tol=1e-12)

    @pytest.mark.parametrize("df", [1.0, 4.0, 38.0])
    def test_mixed_student_t_one_row_matches_quad(self, df):
        # the mass of b1 = 0 & b2 > 0 is the joint t density along the
        # boundary b1 = 0, integrated over b2 > 0
        mean, cov = [0.4, -0.3], [[1.3, 0.6], [0.6, 0.9]]
        law = t_dist(mean, cov, df)
        joint = multivariate_t(mean, cov, df=df)
        want, _ = integrate.quad(lambda x2: joint.pdf([0.0, x2]), 0.0,
                                 math.inf, epsabs=0.0, epsrel=1e-12)
        record = bf_iu(law, law, parse("b1 = 0 & b2 > 0"))
        assert math.isclose(record.fit, want, rel_tol=1e-12)

    @pytest.mark.parametrize("df", [1.0, 4.0, 38.0])
    def test_mixed_student_t_two_rows_match_dblquad(self, df):
        mean = [0.3, 0.2, -0.1]
        cov = [[1.0, 0.4, -0.3], [0.4, 1.2, 0.2], [-0.3, 0.2, 0.8]]
        law = t_dist(mean, cov, df)
        joint = multivariate_t(mean, cov, df=df)
        want, _ = integrate.dblquad(
            lambda x3, x2: joint.pdf([0.0, x2, x3]), 0.0, math.inf, 0.0,
            math.inf, epsabs=0.0, epsrel=1e-10)
        record = bf_iu(law, law, parse("b1 = 0 & b2 > 0 & b3 > 0"))
        assert record.mass_method == "quadrature"
        assert math.isclose(record.fit, want, rel_tol=1e-10)

    def test_contradiction_raises(self):
        dist = normal_dist([0.0, 0.0], np.eye(2))
        prior = normal_dist([0.0, 0.0], 2.0 * np.eye(2))
        with pytest.raises(NumericError):
            bf_iu(dist, prior, parse("b1 < b2 & b2 < b1"),
                  rng=np.random.default_rng(0), draws=10_000)

    def test_zero_complexity_sentinel(self):
        post = normal_dist([5.0], [[1.0]])
        prior = normal_dist([-50.0], [[1e-6]])
        with pytest.warns(RuntimeWarning):
            record = bf_iu(post, prior, parse("b1 > 0"))
        assert record.log_bf_iu == math.inf

    def test_zero_fit_sentinel(self):
        post = normal_dist([-50.0], [[1e-6]])
        prior = normal_dist([0.0], [[1.0]])
        record = bf_iu(post, prior, parse("b1 > 0"))
        assert record.log_bf_iu == -math.inf
        assert record.log_bf_ic == -math.inf

    def test_posterior_consumes_rng_before_prior(self):
        # four rows take lattice QMC for both masses: the fit is the first
        # integration on the stream, the complexity the second
        cov = np.eye(4) + 0.2
        post = normal_dist([0.2, 0.1, 0.3, 0.4], cov)
        prior = normal_dist(np.zeros(4), 4.0 * cov)
        h = parse("{b1, b2, b3, b4} > 0")
        record = bf_iu(post, prior, h, rng=np.random.default_rng(77),
                       draws=5_000)
        rng = np.random.default_rng(77)
        fit, _ = prob_region(post, h, rng=rng, draws=5_000)
        complexity, _ = prob_region(prior, h, rng=rng, draws=5_000)
        assert record.mass_method == "qmc"
        assert (record.fit, record.complexity) == (fit, complexity)

    @pytest.mark.parametrize("text", ["b1 = 0", "b1 = 0 & b2 > 0"])
    def test_complement_of_equality_hypothesis_rejected(self, text):
        post = normal_dist([0.3, 0.5], np.eye(2))
        prior = normal_dist(np.zeros(2), 2.0 * np.eye(2))
        with pytest.raises(EqualityComplementUnsupportedError,
                           match="complement is undefined"):
            bf_iu(post, prior, parse(text), alternative="complement")
        assert bf_iu(post, prior, parse(text)).log_bf_ic is None

    def test_mc_consistency_of_complement_ratio(self):
        post = normal_dist([0.4, 0.2], np.eye(2))
        prior = normal_dist(np.zeros(2), 3.0 * np.eye(2))
        record = bf_iu(post, prior, parse("{b1, b2} > 0"),
                       rng=np.random.default_rng(3), draws=50_000)
        f, c = record.fit, record.complexity
        expected = math.log((f / c) / ((1.0 - f) / (1.0 - c)))
        assert math.isclose(record.log_bf_ic, expected, rel_tol=1e-12)

    def test_scale_invariance_exact_path(self):
        # homogeneous constraint, prior centered on the boundary: complexity
        # does not depend on the prior scale
        h = parse("b1 > 0")
        p1, _ = prob_region(normal_dist([0.0], [[1.0]]), h)
        p2, _ = prob_region(normal_dist([0.0], [[50.0]]), h)
        assert p1 == p2 == 0.5

    def test_scale_invariance_mc_path(self):
        h = parse("b1 < b2 < b3")
        base = normal_dist(np.zeros(3), np.eye(3))
        wide = normal_dist(np.zeros(3), 9.0 * np.eye(3))
        p1, _ = mc_prob_region(base, h, rng=np.random.default_rng(101),
                               draws=50_000)
        p2, _ = mc_prob_region(wide, h, rng=np.random.default_rng(101),
                               draws=50_000)
        assert p1 == p2

    def test_scale_invariance_exact_three_rows(self):
        h = parse("b1 < b2 < b3")
        cov = np.array([[1.0, 0.3, 0.1], [0.3, 2.0, -0.2], [0.1, -0.2, 1.5]])
        p1, se = prob_region(normal_dist(np.zeros(3), cov), h)
        p2, _ = prob_region(normal_dist(np.zeros(3), 9.0 * cov), h)
        assert se == 0.0
        assert math.isclose(p1, p2, rel_tol=1e-14)

    @given(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3)
                    .filter(any), min_size=1, max_size=3),
           st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
           st.integers(0, 2), st.floats(0.01, 100.0),
           st.sampled_from([math.inf, 12.0]))
    # a slab 0 < b3 < 2^-23 whose scaled row once standardized one ulp apart
    @example(rows=[[0, 0, 1], [0, 0, 1], [0, 0, -1]],
             offsets=[0.0, 0.0, -1.192092896e-07], which=0, factor=3.0,
             df=math.inf)
    @settings(max_examples=80, deadline=None)
    def test_row_scaling_leaves_log_bf_unchanged(self, rows, offsets, which,
                                                 factor, df):
        # c R_j beta > c r_j is the same region for any c > 0
        names = ("b1", "b2", "b3")
        R, r = np.array(rows, dtype=float), np.array(offsets[:len(rows)])
        R_c, r_c = R.copy(), r.copy()
        R_c[which % len(rows)] *= factor
        r_c[which % len(rows)] *= factor
        cov = np.array([[1.0, 0.3, -0.2], [0.3, 2.0, 0.4], [-0.2, 0.4, 1.5]])
        post = CoefDistribution(np.array([0.4, -0.2, 0.3]), cov, names, df=df)
        prior = CoefDistribution(np.array([0.1, 0.05, -0.1]), 4.0 * cov,
                                 names, df=1.0 if df < math.inf else df)
        records = []
        for R_i, r_i in ((R, r), (R_c, r_c)):
            h = ConstraintSystem(param_names=names, R_e=np.zeros((0, 3)),
                                 r_e=np.zeros(0), R_i=R_i, r_i=r_i)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                try:
                    records.append(bf_iu(post, prior, h,
                                         rng=np.random.default_rng(3),
                                         draws=20_000))
                except NumericError:
                    records.append(None)
        a, b = records
        if a is None or b is None:
            assert a is b is None
            return
        assert a.mass_method == b.mass_method
        tol = 4.0 * sum(0.0 if se == 0.0 else se / mass if mass else math.inf
                        for rec in (a, b)
                        for se, mass in ((rec.mc_se_fit, rec.fit),
                                         (rec.mc_se_complexity, rec.complexity)))
        assert a.log_bf_iu == b.log_bf_iu or \
            abs(a.log_bf_iu - b.log_bf_iu) <= tol + 1e-9


class TestOrthantLadder:
    """The deterministic ladder of the region masses against its oracles:
    scipy's CDFs and lattice rules, and the Monte Carlo sampler."""

    @pytest.mark.parametrize("y", [0.0, -0.0])
    @pytest.mark.parametrize("x", [0.0, -0.0, math.nan, 1.5, -2.0])
    def test_owen_argument_divides_as_numpy(self, x, y):
        # the float twin of _bvn_orthant's masked division: 0/0 and nan/0
        # are nan, a non-zero x over a signed zero a signed infinity
        with np.errstate(divide="ignore", invalid="ignore"):
            want = float(np.float64(x) / np.float64(y))
        assert np.array_equal([bf._ieee_div(x, y)], [want], equal_nan=True)

    @pytest.mark.parametrize("m1", [-1.3, 0.0, 0.7])
    @pytest.mark.parametrize("m2", [-0.4, 0.0, 2.1])
    @pytest.mark.parametrize("rho", [-0.8, 0.0, 0.55])
    def test_two_row_normal_matches_mvn_cdf(self, m1, m2, rho):
        cov = np.array([[2.0, rho * math.sqrt(2.0) * 0.5],
                        [rho * math.sqrt(2.0) * 0.5, 0.25]])
        mean = np.array([m1, m2])
        record = bf_iu(normal_dist(mean, cov), normal_dist(np.zeros(2), cov),
                       parse("{b1, b2} > 0"))
        oracle = float(multivariate_normal(mean=np.zeros(2), cov=cov).cdf(mean))
        assert abs(record.fit - oracle) <= 1e-12
        assert record.mc_se_fit == 0.0 and record.mc_draws == 0
        assert record.mass_method == "exact"

    @given(st.sampled_from(["normal", "student-t"]), st.floats(1.0, 400.0),
           st.floats(0.01, 100.0), st.floats(0.01, 100.0),
           st.floats(-0.99, 0.99),
           st.one_of(st.just((0.0, 0.0)),
                     st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))))
    @example("normal", 1.0, 1.0, 2.0, 0.3, (0.0, 0.0))
    @example("student-t", 1.0, 0.5, 3.0, -0.6, (0.4, -1.2))
    @example("student-t", 7.0, 1.0, 1.0, 0.0, (0.0, 0.9))
    @settings(max_examples=300, deadline=None)
    def test_two_row_float_route_is_the_reduced_route(self, kind, df, s0, s1,
                                                      rho, z):
        # a full-rank pair takes the float route directly; the same pair
        # with row 0 repeated reaches it through _standard_box's reduction
        # (P m and P S P' with P = [[1, 0], [0, 1], [1, 0]]), and the two
        # masses agree bit for bit
        cov = np.array([[s0 * s0, rho * s0 * s1], [rho * s0 * s1, s1 * s1]])
        mean = np.array([z[0] * s0, z[1] * s1])
        P = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        df = math.inf if kind == "normal" else df
        direct = bf._orthant_prob(mean, cov, df, None, 1)
        padded = bf._orthant_prob(P @ mean, P @ cov @ P.T, df, None, 1)
        assert direct[2:] == padded[2:]
        assert [v.hex() for v in direct[:2]] == [v.hex() for v in padded[:2]]

    @pytest.mark.parametrize("kind,df,a,b,r,m,w,want", [
        ("normal", None, 1.5, 0.4, -0.7, (0.7, 0.2), (1.3, 1.3),
         "0x1.051c5c7434ab9p-2"),
        ("student-t", 14.0, 2.0, 0.4, 0.8, (0.1, -0.8), (1.5, 1.0),
         "0x1.7a3d3e350a978p-10")])
    def test_two_sided_box_corner_order_is_pinned(self, kind, df, a, b, r, m,
                                                  w, want):
        # -m < b < w - m in both rows: four corners, whose float sum
        # depends on its order; summed the other way round, each of these
        # masses moves in its last bit
        cov = np.array([[a * a, r * a * b], [r * a * b, b * b]])
        P = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        mean = np.array([m[0], m[1], w[0] - m[0], w[1] - m[1]])
        p, _, used, _ = bf._orthant_prob(mean, P @ cov @ P.T, law_df(df), None, 1)
        assert used == 0 and p.hex() == want

    @pytest.mark.parametrize("nu", [2.0, 5.0, 30.0, 4795.0])
    def test_two_row_student_t_quadrature(self, nu):
        cov = np.array([[1.0, -0.35], [-0.35, 0.5]])
        mean = np.array([0.6, 0.4])
        p, err = prob_region(t_dist(mean, cov, nu), parse("{b1, b2} > 0"))
        ref, ref_err, _ = _qmvt(10**6, nu, cov, -mean, np.full(2, np.inf),
                                np.random.default_rng(2024))
        assert err > 0.0
        assert abs(p - ref) < 1e-5
        assert abs(p - ref) <= err + ref_err

    @pytest.mark.parametrize("kind,df", [("normal", None), ("student-t", 1.0),
                                         ("student-t", 5.0)])
    @pytest.mark.parametrize("text", ["b1 < b2 < b3", "{b1, b2, b3} > 0"])
    def test_zero_mean_closed_forms_agree_with_sampler(self, kind, df, text):
        cov = np.array([[1.0, 0.5, -0.2], [0.5, 2.0, 0.3], [-0.2, 0.3, 1.0]])
        dist = CoefDistribution(np.zeros(3), cov, ("b1", "b2", "b3"), law_df(df))
        p, se = prob_region(dist, parse(text))
        p_mc, se_mc = mc_prob_region(dist, parse(text),
                                     rng=np.random.default_rng(11),
                                     draws=200_000)
        assert se == 0.0
        assert abs(p - p_mc) <= 4.0 * se_mc

    @pytest.mark.parametrize("kind,df", [("normal", None), ("student-t", 4.0)])
    @pytest.mark.parametrize("k", [3, 4])
    def test_qmc_agrees_with_sampler(self, kind, df, k):
        cov = np.array([[1.0, 0.4, 0.2, 0.0], [0.4, 1.0, 0.1, -0.3],
                        [0.2, 0.1, 1.0, 0.2], [0.0, -0.3, 0.2, 1.0]])[:k, :k]
        names = ("b1", "b2", "b3", "b4")[:k]
        dist = CoefDistribution(np.array([0.3, -0.1, 0.5, 0.8])[:k], cov,
                                names, law_df(df))
        h = parse("{" + ", ".join(names) + "} > 0")
        p, se = prob_region(dist, h, rng=np.random.default_rng(5))
        p_mc, se_mc = mc_prob_region(dist, h, rng=np.random.default_rng(6),
                                     draws=200_000)
        assert 0.0 < se <= 1e-5
        assert abs(p - p_mc) <= 4.0 * math.hypot(se, se_mc)

    def test_qmc_matches_mvn_orthant_oracle(self):
        cov = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.1], [0.2, 0.1, 1.0]])
        mean = np.array([0.3, -0.1, 0.5])
        p, se = prob_region(normal_dist(mean, cov), parse("{b1, b2, b3} > 0"),
                            rng=np.random.default_rng(23))
        ref, ref_err, _ = _qmvn(10**6, cov, -mean, np.full(3, np.inf),
                                np.random.default_rng(24))
        assert abs(p - ref) <= 4.0 * math.hypot(se, ref_err / 3.0)

    def test_qmc_record_is_seed_deterministic(self):
        # four rows: no closed form for the zero-mean prior either
        cov = np.array([[1.0, 0.3, 0.1, 0.0], [0.3, 1.0, 0.2, -0.1],
                        [0.1, 0.2, 1.0, 0.2], [0.0, -0.1, 0.2, 1.0]])
        post = t_dist([0.4, 0.2, 0.3, 0.5], cov, df=40)
        prior = t_dist(np.zeros(4), 5.0 * cov, df=1)
        h = parse("{b1, b2, b3, b4} > 0")
        a = bf_iu(post, prior, h, rng=np.random.default_rng(77), draws=5_000)
        b = bf_iu(post, prior, h, rng=np.random.default_rng(77), draws=5_000)
        assert a == b
        assert a.mass_method == "qmc"
        assert 0 < a.mc_draws <= 5_000
        assert a.mc_se_fit > 0.0 and a.mc_se_complexity > 0.0

    def test_mass_method_is_least_exact(self):
        cov = np.array([[1.0, 0.3], [0.3, 1.0]])
        h = parse("{b1, b2} > 0")
        prior = t_dist(np.zeros(2), 4.0 * cov, df=1)
        quad = bf_iu(t_dist([0.5, 0.2], cov, df=20), prior, h)
        assert quad.mass_method == "quadrature"
        assert quad.mc_se_fit > 0.0 and quad.mc_draws == 0
        # four rows take lattice QMC; a prior whose four rows are one row
        # reduces to the exact CDF; the record names QMC in either order
        h4 = parse("{b1, b2, b3, b4} > 0")
        post4 = normal_dist([0.3, 0.2, 0.4, 0.1], np.eye(4) + 0.2)
        one = normal_dist(np.zeros(4), np.full((4, 4), 4.0))
        for post, prior4 in ((post4, one), (one, post4)):
            qmc = bf_iu(post, prior4, h4, rng=np.random.default_rng(1),
                        draws=1_000)
            assert qmc.mass_method == "qmc" and 0 < qmc.mc_draws <= 1_000
        one_row = bf_iu(t_dist([0.5], [[1.0]], df=20), t_dist([0.0], [[4.0]], df=1),
                        parse("b1 > 0"))
        assert one_row.mass_method == "exact"

    def test_duplicated_rows_reduce_to_one_row_cdf(self):
        dist = normal_dist([1.0, 0.0], [[2.0, 0.3], [0.3, 1.0]])
        p, se = prob_region(dist, parse("b1 > 0 & 2 * b1 > 1"))
        assert se == 0.0
        assert math.isclose(p, float(norm.cdf(0.5 / math.sqrt(2.0))),
                            rel_tol=1e-14)

    def test_opposed_rows_reduce_to_an_interval(self):
        dist = t_dist([0.4, 0.0], [[1.0, 0.3], [0.3, 1.0]], df=7)
        p, se = prob_region(dist, parse("b1 > 0.1 & b1 < 1"))
        assert se == 0.0
        expected = float(student_t.cdf(0.6, 7) - student_t.cdf(-0.3, 7))
        assert math.isclose(p, expected, rel_tol=1e-12)

    @pytest.mark.parametrize("x", [1e-200, -1e-200, 0.0])
    def test_bivariate_orthant_at_tiny_bounds(self, x):
        # h * k underflows to 0 here; the corner value is the limit
        corner = 0.25 + math.asin(0.5) / (2.0 * math.pi)
        assert math.isclose(float(bf._bvn_orthant(x, x, 0.5)), corner,
                            rel_tol=1e-12)

    @given(st.one_of(st.just(0.0), st.floats(-8.0, 8.0),
                     st.floats(allow_nan=False)),
           st.one_of(st.just(0.0), st.floats(-8.0, 8.0),
                     st.floats(allow_nan=False)),
           st.one_of(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
                     st.sampled_from([1.0 - 2e-12, -1.0 + 2e-12])),
           st.sampled_from([((), ()), ((1,), (1, 1)), ((1, 1), (1,))]))
    @example(0.0, 0.7, 0.3, ((), ()))
    @example(-0.4, 0.0, -0.6, ((), ()))
    @example(0.0, 0.0, 0.5, ((), ()))
    @example(1.3, -0.8, 0.2, ((), ()))
    @example(-2.0, 1.0, 1.0 - 2e-12, ((), ()))
    @example(5e-324, 0.0, 0.3, ((), ()))
    @settings(max_examples=300, deadline=None)
    def test_bivariate_orthant_scalar_path_is_the_array_path(self, h, k, rho,
                                                             shapes):
        # a corner on floats (_bvn_corner, the two-row masses of a normal
        # law) and the same (h, k) among other values on arrays agree bit
        # for bit; single values broadcast to the longer shape
        got = bf._bvn_corner(h, k, rho)
        want = bf._bvn_orthant(np.array([h, 0.5]), np.array([k, -0.3]),
                               rho)[0]
        one = bf._bvn_orthant(np.full(shapes[0], h), np.full(shapes[1], k),
                              rho)
        assert one.shape == np.broadcast_shapes(*shapes)
        for value in (got, one.item()):
            assert value == want or (math.isnan(value) and math.isnan(want))
            assert np.signbit(value) == np.signbit(want) or math.isnan(want)

    def test_bivariate_orthant_overflowing_slope_is_silent(self):
        # (k - rho h) / (h r) overflows for h near the smallest normal float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bf._bvn_orthant(np.array([2.3e-308, 1.0]), 5.0, 0.3)
            one = bf._bvn_orthant(2.3e-308, 5.0, 0.3)
        assert one.item() == got[0]
        # P(Z1 < 0) - P(Z1 < 0, Z2 < 5) = P(Z1 < 0, Z2 > 5) <= P(Z2 > 5)
        assert 0.0 <= 0.5 - got[0] <= float(norm.sf(5.0))

    @pytest.mark.parametrize("kind,df", [("normal", None), ("student-t", 12.0)])
    def test_interval_with_another_row_takes_corner_sum(self, kind, df):
        # the opposed pair on b3 reduces to an interval beside the b2 row: a
        # two-row box with one finite bound, summed over its corners
        cov = np.array([[1.0, 0.3, -0.2], [0.3, 2.0, 0.4], [-0.2, 0.4, 1.5]])
        dist = CoefDistribution(np.array([0.4, -0.2, 0.3]), cov,
                                ("b1", "b2", "b3"), law_df(df))
        h = parse("b3 > 0 & b2 > 0 & b3 < 0.5")
        p, se = prob_region(dist, h, rng=np.random.default_rng(1))
        p_mc, se_mc = mc_prob_region(dist, h, rng=np.random.default_rng(2),
                                     draws=200_000)
        record = bf_iu(dist, dist, h, rng=np.random.default_rng(1))
        if kind == "normal":
            assert se == 0.0 and record.mass_method == "exact"
        else:
            assert 0.0 < se <= 1e-5 and record.mass_method == "quadrature"
        assert record.mc_draws == 0
        assert abs(p - p_mc) <= 4.0 * math.hypot(se, se_mc)

    @pytest.mark.parametrize("kind,df", [("normal", None), ("student-t", 7.0)])
    def test_two_row_box_matches_lattice_reference(self, kind, df):
        # both rows bounded on both sides: four corners; oracle is a
        # 10^6-point lattice estimate on the same box
        cov = np.array([[1.0, 0.3, -0.2], [0.3, 2.0, 0.4], [-0.2, 0.4, 1.5]])
        dist = CoefDistribution(np.array([0.4, 0.2, 0.3]), cov,
                                ("b1", "b2", "b3"), law_df(df))
        h = parse("b3 > 0 & b3 < 0.8 & b2 > -0.5 & b2 < 1")
        p, se = prob_region(dist, h)
        s = np.sqrt(np.diag(cov)[1:])
        corr = cov[1:, 1:] / np.outer(s, s)
        lo = (np.array([-0.5, 0.0]) - dist.mean[1:]) / s
        hi = (np.array([1.0, 0.8]) - dist.mean[1:]) / s
        rng = np.random.default_rng(3)
        if kind == "normal":
            ref, err, _ = _qmvn(1_000_000, corr, lo, hi, rng)
        else:
            ref, err, _ = _qmvt(1_000_000, df, corr, lo, hi, rng)
        assert abs(p - ref) <= 4.0 * math.hypot(se, err / 3.0) + 1e-12

    @pytest.mark.parametrize("m1,expected", [(0.5, 0.5), (-0.5, 0.0)])
    def test_zero_variance_row_is_decided_by_its_mean(self, m1, expected):
        dist = normal_dist([m1, 0.0], [[0.0, 0.0], [0.0, 1.0]])
        p, se = prob_region(dist, parse("{b1, b2} > 0"))
        assert (p, se) == (expected, 0.0)

    def test_student_t_lattice_needs_df_one(self):
        # scipy's lattice rule for the t law is far off below df 1 while
        # reporting a tiny error; no law has such a df, as a df is whole,
        # and at df 1 the rule agrees with the sampler
        mean = [0.3, -0.2, 0.1, 0.4]
        cov = 0.6 * np.eye(4) + 0.4
        h = parse("{b1, b2, b3, b4} > 0")
        with pytest.raises(ValueError, match="must be a whole number"):
            t_dist(mean, cov, 0.5)
        p, se = prob_region(t_dist(mean, cov, 1.0), h,
                            rng=np.random.default_rng(0))
        p_mc, se_mc = mc_prob_region(t_dist(mean, cov, 1.0), h,
                                     rng=np.random.default_rng(1),
                                     draws=400_000)
        assert 0.0 < se <= 1e-4
        assert abs(p - p_mc) <= 4.0 * math.hypot(se, se_mc)

    @pytest.mark.parametrize("region", [prob_region, mc_prob_region],
                             ids=["auto", "mc"])
    def test_nonpositive_draws_rejected(self, region):
        # four rows: the first rung of the ladder that spends draws
        dist = normal_dist([0.3, 0.2, 0.1, 0.4], np.eye(4))
        with pytest.raises(ValueError):
            region(dist, parse("{b1, b2, b3, b4} > 0"),
                   rng=np.random.default_rng(0), draws=0)

    @given(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3)
                    .filter(any), min_size=1, max_size=3),
           st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_homogeneous_complexity_free_of_b_and_family(self, rows, b1, b2):
        # a boundary-centered prior gives eta mean 0, so the complexity of a
        # homogeneous hypothesis depends only on the eta correlations
        names = ("b1", "b2", "b3")
        h = ConstraintSystem(param_names=names, R_e=np.zeros((0, 3)),
                             r_e=np.zeros(0), R_i=np.array(rows, dtype=float),
                             r_i=np.zeros(len(rows)))
        cov = np.array([[1.0, 0.3, -0.2], [0.3, 2.0, 0.4], [-0.2, 0.4, 1.5]])
        normal = CoefDistribution(np.zeros(3), cov / b1, names)
        cauchy = CoefDistribution(np.zeros(3), cov / b2, names, df=1.0)
        p_normal, se_normal = prob_region(normal, h)
        p_cauchy, se_cauchy = prob_region(cauchy, h)
        assert se_normal == se_cauchy == 0.0
        assert abs(p_normal - p_cauchy) <= 1e-12


THREE_ROW_CASES = [
    ([0.3, -0.1, 0.5], [[1.0, 0.4, 0.2], [0.4, 1.0, 0.1], [0.2, 0.1, 1.0]]),
    ([1.2, 0.8, -0.4], [[2.0, -0.9, 0.5], [-0.9, 1.0, -0.3], [0.5, -0.3, 0.6]]),
    ([-1.5, 2.0, 0.7], [[1.0, 0.9, -0.5], [0.9, 1.0, -0.6], [-0.5, -0.6, 1.0]]),
    ([2.5, -0.2, 3.1], [[1.0, 0.0, 0.7], [0.0, 0.5, 0.1], [0.7, 0.1, 2.0]]),
]


class TestSlab:
    """One-row masses, orthants and slabs of every width, against mpmath."""

    @staticmethod
    def exact(lo, hi, df):
        """P(lo < Z < hi) at 50 digits, as a difference of upper tails on
        the side of zero the slab leans to."""
        with mpmath.workdps(50):
            lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
            if lo + hi < 0:
                lo, hi = -hi, -lo

            def upper(x):
                if df == math.inf:
                    return mpmath.ncdf(-x)
                nu = mpmath.mpf(df)
                tail = mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + x * x),
                                      regularized=True) / 2
                return tail if x >= 0 else 1 - tail
            return upper(lo) - upper(hi)

    @pytest.mark.parametrize("df", [math.inf, 1.0, 3.0, 38.0, 1e6])
    def test_relative_error_against_mpmath(self, df):
        widths = [10.0 ** e for e in range(-12, 1)] + [2.0, 4.0]
        # a slab 0 < b3 < 1.2e-7 under a N(0.3, 1.5) margin, and a narrow
        # slab far in the tail, where the density's normalizing constant
        # decides the mass
        cases = [(-0.3 / math.sqrt(1.5), 1.2e-7 / math.sqrt(1.5)),
                 (-11.0727, 1.39e-12)]
        cases += [(float(lo), width) for lo in np.linspace(-8.0, 8.0, 33)
                  for width in widths]
        bad = []
        for lo, width in cases:
            hi = lo + width
            got, want = bf._slab(lo, hi, df), self.exact(lo, hi, df)
            if abs(got - want) > 1e-13 * want:
                bad.append((lo, width, float((got - want) / want)))
        assert bad == []

    @pytest.mark.parametrize("df", [math.inf, 1e13, 1.0, 3.0, 38.0])
    def test_orthant_is_one_cdf(self, df):
        for lo in np.linspace(-8.0, 8.0, 33):
            assert bf._slab(float(lo), math.inf, df) == bf._cdf(-lo, df)


class TestTrivariateRule:
    """Nonzero-mean three-row orthants: Plackett's integral over the
    correlations by Gauss-Legendre rules, against scipy's CDF and lattice
    rules, nested adaptive quadrature and the Monte Carlo sampler."""

    H = parse("{b1, b2, b3} > 0")

    @pytest.mark.parametrize("mean,cov", THREE_ROW_CASES)
    def test_normal_matches_mvn_cdf(self, mean, cov):
        mean, cov = np.array(mean), np.array(cov)
        record = bf_iu(normal_dist(mean, cov), normal_dist(np.zeros(3), cov),
                       self.H)
        # the oracle's own error is about 4e-8 at two million points
        oracle = float(multivariate_normal(mean=np.zeros(3), cov=cov,
                                           abseps=1e-8, releps=0.0,
                                           maxpts=2 * 10**6).cdf(mean))
        assert record.mass_method == "quadrature" and record.mc_draws == 0
        assert 0.0 < record.mc_se_fit <= 1e-7
        assert abs(record.fit - oracle) <= 3e-7

    @pytest.mark.parametrize("case,nu", [(0, None), (1, None), (0, 1.0),
                                         (1, 4.0), (0, 30.0), (1, 4793.0)])
    def test_matches_lattice_reference(self, case, nu):
        mean, cov = (np.array(v) for v in THREE_ROW_CASES[case])
        lo, hi = -mean, np.full(3, np.inf)
        if nu is None:
            p, err = prob_region(normal_dist(mean, cov), self.H)
            ref, ref_err, _ = _qmvn(10**6, cov, lo, hi, np.random.default_rng(7))
        else:
            p, err = prob_region(t_dist(mean, cov, nu), self.H)
            ref, ref_err, _ = _qmvt(10**6, nu, cov, lo, hi,
                                    np.random.default_rng(7))
        assert 0.0 < err <= 1e-5
        assert abs(p - ref) <= 4.0 * math.hypot(err, ref_err / 3.0)

    @pytest.mark.parametrize("kind,df", [("normal", None), ("student-t", 5.0)])
    def test_agrees_with_sampler(self, kind, df):
        mean, cov = (np.array(v) for v in THREE_ROW_CASES[1])
        dist = CoefDistribution(mean, cov, ("b1", "b2", "b3"), law_df(df))
        p, err = prob_region(dist, self.H)
        p_mc, se_mc = mc_prob_region(dist, self.H,
                                     rng=np.random.default_rng(8),
                                     draws=200_000)
        assert abs(p - p_mc) <= 4.0 * math.hypot(err, se_mc)

    @pytest.mark.parametrize("case", range(len(THREE_ROW_CASES)))
    def test_cauchy_takes_the_rule(self, case):
        # df = 1, the adjusted prior's: the chi rule needs no fallback there
        mean, cov = (np.array(v) for v in THREE_ROW_CASES[case])
        record = bf_iu(t_dist(mean, cov, 1), t_dist(mean, 2.0 * cov, 1), self.H,
                       rng=np.random.default_rng(9), draws=5_000)
        assert record.mass_method == "quadrature" and record.mc_draws == 0

    def test_spends_no_draws(self):
        mean, cov = (np.array(v) for v in THREE_ROW_CASES[0])
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        record = bf_iu(t_dist(mean, cov, 40), t_dist(np.zeros(3), 5.0 * cov, 1),
                       self.H, rng=rng, draws=5_000)
        assert rng.bit_generator.state == before
        assert record.mass_method == "quadrature" and record.mc_draws == 0
        assert record.mc_se_fit > 0.0 and record.mc_se_complexity == 0.0

    def test_singular_rows_fall_back_to_qmc(self):
        # eta3 = eta1 + eta2 - 0.1: the correlation is singular, and the
        # third row's conditional variance vanishes at the end of the
        # path, where the rule's estimate exceeds QMC_SE
        cov = np.array([[1.0, 0.3], [0.3, 2.0]])
        dist = normal_dist([0.3, 0.2], cov)
        h = parse("b1 > 0 & b2 > 0 & b1 + b2 > 0.1")
        record = bf_iu(dist, normal_dist(np.zeros(2), 4.0 * cov), h,
                       rng=np.random.default_rng(1), draws=20_000)
        p_mc, se_mc = mc_prob_region(dist, h, rng=np.random.default_rng(2),
                                     draws=200_000)
        assert record.mass_method == "qmc" and record.mc_draws > 0
        assert abs(record.fit - p_mc) <= 4.0 * math.hypot(record.mc_se_fit,
                                                          se_mc)

    @given(st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9),
           st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
           st.sampled_from([math.inf, 1.0, 6.0, 300.0]))
    @settings(max_examples=60, deadline=None)
    def test_row_permutations_agree_within_estimates(self, entries, h, df):
        A = np.array(entries).reshape(3, 3)
        S = A @ A.T + 0.05 * np.eye(3)
        corr = S / np.sqrt(np.outer(np.diag(S), np.diag(S)))
        rules = [bf._tvn_orthant(np.array(h)[list(order)],
                                 corr[np.ix_(order, order)], df)
                 for order in itertools.permutations(range(3))]
        assert None not in rules
        for (p_a, err_a), (p_b, err_b) in itertools.combinations(rules, 2):
            assert abs(p_a - p_b) <= err_a + err_b

    def test_matches_nested_quadrature(self):
        # the sim 6 posterior of row 18 in tests/data/regression/sim6.csv;
        # the value is bench/build_reference.py's orthant_quad
        h = np.array([2.0598482996583014, 0.7083956942459673,
                      -0.7841130329474496])
        corr = np.array(
            [[1.0, -0.0066839984012262805, -0.14364776575584526],
             [-0.0066839984012262805, 1.0000000000000002, -0.28443809889574334],
             [-0.14364776575584526, -0.28443809889574334, 1.0]])
        p, err, used, how = bf._orthant_prob(h, corr, 18.0, None, 1)
        assert (used, how) == (0, "quadrature") and err <= 1e-8
        assert abs(p - 0.1316238813058983) <= 1e-10

    @pytest.mark.parametrize("h,corr,nu", [
        ([-2.871346115768351, -1.4273257809344013, 1.6419888736354409],
         [[1.0, -0.9908881516627166, -0.6539236468002433],
          [-0.9908881516627166, 1.0, 0.6415619337457923],
          [-0.6539236468002433, 0.6415619337457923, 1.0]], 1.0),
        ([1.690536478488693, 1.5698147893095253, 2.632216294043081],
         [[1.0, -0.87291388415629, 0.8790518231914227],
          [-0.87291388415629, 1.0, -0.9731691056632515],
          [0.8790518231914227, -0.9731691056632515, 1.0]], 1.0),
        ([2.8469773448192717, 2.9415950564516633, 2.9199576248797987],
         [[1.0, 0.5516460235308, 0.8485109698257735],
          [0.5516460235308, 1.0, 0.27233302158594186],
          [0.8485109698257735, 0.27233302158594186, 1.0]], 193.0)])
    def test_near_singular_laws_take_the_rule(self, h, corr, nu):
        # near-singular laws, A A^T + eps I with eps from 1e-6 to 1e-3, on
        # which the estimate stays within QMC_SE
        h, corr = np.array(h), np.array(corr)
        p, err, used, how = bf._orthant_prob(h, corr, nu, None, 1)
        ref, ref_err, _ = _qmvt(10**6, nu, corr, -np.full(3, np.inf), h,
                                np.random.default_rng(7))
        assert (used, how) == (0, "quadrature") and 0.0 < err <= 1e-5
        assert abs(p - ref) <= 4.0 * math.hypot(err, ref_err / 3.0)

    @pytest.mark.parametrize("case", range(len(THREE_ROW_CASES)))
    @pytest.mark.parametrize("nu", [1e15, math.inf])
    def test_huge_df_gives_the_normal_mass(self, case, nu):
        mean, cov = (np.array(v) for v in THREE_ROW_CASES[case])
        p, err = prob_region(t_dist(mean, cov, nu), self.H)
        normal, normal_err = prob_region(normal_dist(mean, cov), self.H)
        assert abs(p - normal) <= err + normal_err


def chi_moment(k, nu):
    """E[s^k] for s = sqrt(W / nu), W ~ chi2(nu)."""
    return math.exp(k / 2.0 * math.log(2.0 / nu) + math.lgamma((nu + k) / 2.0)
                    - math.lgamma(nu / 2.0))


def chi_square_quad(f, nu):
    """E[f(s)], s = sqrt(W / nu), by adaptive quadrature over the
    chi-square density of W, written in s (W = nu s^2) so that the density
    has no singularity at 0; pieces every 4 standard deviations of s."""
    log_norm = -nu / 2.0 * math.log(2.0) - math.lgamma(nu / 2.0)

    def integrand(s):
        w = nu * s * s
        if w == 0.0:
            return 0.0
        log_pdf = log_norm + (nu / 2.0 - 1.0) * math.log(w) - w / 2.0
        return f(s) * math.exp(log_pdf) * 2.0 * nu * s

    sd = 1.0 / math.sqrt(2.0 * nu)
    cuts = [0.0] + [1.0 + j * sd for j in range(-40, 41, 4) if 1.0 + j * sd > 0.0]
    return sum(integrate.quad(integrand, a, b, epsabs=1e-15, epsrel=1e-13,
                              limit=200)[0]
               for a, b in zip(cuts[:-1], cuts[1:]))


class TestChiRule:
    """The Gauss rule for the chi mixing scale of Student-t masses against
    closed-form moments and adaptive quadrature over the chi-square
    density."""

    @pytest.mark.parametrize("nu", [1.0, 2.0, 3.0, 5.0, 18.0, 93.0, 393.0,
                                    4793.0, 1e5, 1e6])
    def test_moments(self, nu):
        # an n-node Gauss rule integrates polynomials of degree 2n - 1
        s, w32, w16 = bf._chi_rule(nu)
        assert np.all(s > 0.0) and np.all(w32 > 0.0) and np.all(w16 > 0.0)
        for nodes, weights in ((s[:32], w32), (s[32:], w16)):
            for k in range(2 * len(weights)):
                want = chi_moment(k, nu)
                assert abs(weights @ nodes ** k - want) <= 1e-7 * want

    @pytest.mark.parametrize("nu", [1.0, 2.0, 3.0, 5.0, 18.0, 93.0, 393.0,
                                    4793.0])
    def test_two_row_masses_match_quad(self, nu):
        rng = np.random.default_rng(12)
        for _ in range(4):
            h, k = rng.uniform(-2.5, 2.5, size=2)
            rho = rng.uniform(-0.9, 0.9)
            cov = np.array([[1.0, rho], [rho, 1.0]])
            p, err, used, how = bf._orthant_prob(np.array([h, k]), cov, nu,
                                                 None, 1)
            ref = chi_square_quad(
                lambda s: float(bf._bvn_orthant(h * s, k * s, rho)), nu)
            assert (used, how) == (0, "quadrature")
            assert abs(p - ref) <= 1e-8
            assert abs(p - ref) <= err

    @pytest.mark.parametrize("nu", [1e30, 1e40, math.inf])
    def test_huge_df_gives_the_normal_mass(self, nu):
        # above _CHI_DF_MAX, where the grid over s would lose its
        # resolution, a law is the normal one
        mean, cov = np.array([0.4, -0.7]), np.array([[1.0, 0.3], [0.3, 1.0]])
        p, err, used, how = bf._orthant_prob(mean, cov, nu, None, 1)
        assert (err, used, how) == (0.0, 0, "exact")
        assert p == bf._orthant_prob(mean, cov, math.inf, None, 1)[0]

    def test_integer_df_grid_is_gauss_legendre(self):
        # numpy's rule; scipy's Gauss-Jacobi rule at alpha = beta = 0 is the
        # oracle
        from scipy.special import roots_jacobi
        x, w = bf._stieltjes_grid()
        x_ref, w_ref = roots_jacobi(200, 0.0, 0.0)
        assert np.abs(x - x_ref).max() <= 1e-14
        assert np.abs(w - w_ref).max() <= 1e-14

    def test_built_once_per_df(self):
        first = bf._chi_rule(7.0)
        assert bf._chi_rule(7.0) is first
        assert not any(array.flags.writeable for array in first)


class TestBfCu:
    def _record(self, fit, complexity, log_iu, log_ic):
        return EvidenceRecord(study_id="s", hypothesis="h", fit=fit,
                              complexity=complexity, log_bf_iu=log_iu,
                              log_bf_ic=log_ic, mc_se_fit=0.0,
                              mc_se_complexity=0.0, mc_draws=0,
                              alternative="complement")

    def test_iu_over_ic(self):
        # BF_cu = BF_iu / BF_ic = (1 - f) / (1 - c)
        rec = evaluate(gaussian_fit(n=80, p=2, seed=1), parse("x2 > 0"),
                       label="h", alternative="complement")
        assert bf_cu(rec) == rec.log_bf_iu - rec.log_bf_ic
        assert math.isclose(bf_cu(rec), math.log((1.0 - rec.fit)
                                                 / (1.0 - rec.complexity)),
                            rel_tol=1e-9)

    def test_sentinels_take_the_complement_masses(self):
        rec = self._record(0.5, 0.0, math.inf, math.inf)
        assert bf_cu(rec) == math.log(0.5)
        rec = self._record(0.0, 1.0, -math.inf, -math.inf)
        assert bf_cu(rec) == math.inf


class TestBfIcAndBetween:
    def _record(self, log_iu, log_ic=0.0, study="s1", label="h"):
        return EvidenceRecord(study_id=study, hypothesis=label, fit=0.5,
                              complexity=0.5, log_bf_iu=log_iu,
                              log_bf_ic=log_ic, mc_se_fit=0.0,
                              mc_se_complexity=0.0, mc_draws=0,
                              family="gaussian", n=10,
                              alternative="unconstrained")

    def test_bf_ic_reads_record(self):
        assert bf_ic(self._record(1.0, log_ic=2.5)) == 2.5

    def test_bf_ic_missing_raises(self):
        rec = EvidenceRecord(study_id="s", hypothesis="h", fit=0.1,
                             complexity=0.1, log_bf_iu=0.0, log_bf_ic=None,
                             mc_se_fit=0.0, mc_se_complexity=0.0, mc_draws=0,
                             family="gaussian", n=10,
                             alternative="unconstrained")
        with pytest.raises(NumericError,
                           match="study 's': hypothesis 'h' has no complement"):
            bf_ic(rec)

    def test_log_bf_reads_the_alternative(self):
        rec = self._record(1.0, log_ic=2.5)
        assert bf.log_bf(rec, "unconstrained") == 1.0
        assert bf.log_bf(rec, "complement") == 2.5
        undefined = dataclasses.replace(rec, log_bf_ic=None)
        assert bf.log_bf(undefined, "unconstrained") == 1.0
        with pytest.raises(NumericError, match="has no complement"):
            bf.log_bf(undefined, "complement")

    def test_transitivity(self):
        a = self._record(math.log(6.0))
        b = self._record(math.log(3.0))
        assert math.isclose(math.exp(bf_between(a, b)), 2.0, rel_tol=1e-12)

    def test_self_ratio_is_one(self):
        a = self._record(1.234)
        assert bf_between(a, a) == 0.0

    def test_infinite_denominator(self):
        a = self._record(1.0)
        b = self._record(math.inf)
        with pytest.warns(RuntimeWarning):
            assert bf_between(a, b) == -math.inf

    def test_both_infinite_raises(self):
        a = self._record(math.inf)
        b = self._record(math.inf)
        with pytest.raises(NumericError):
            bf_between(a, b)

    def test_transitivity_exact_in_log_space(self):
        rng = np.random.default_rng(8)
        logs = rng.normal(size=5)
        recs = [self._record(v) for v in logs]
        for i in range(5):
            for j in range(5):
                assert bf_between(recs[i], recs[j]) == logs[i] - logs[j]


class TestEvidenceRecord:
    def test_json_round_trip_with_sentinels(self):
        rec = EvidenceRecord(study_id="s7", hypothesis="b1>0", fit=1.0,
                             complexity=0.5, log_bf_iu=math.log(2.0),
                             log_bf_ic=math.inf, mc_se_fit=0.0,
                             mc_se_complexity=0.001, mc_draws=100_000,
                             family="probit", n=250,
                             alternative="complement")
        text = json.dumps(rec.to_dict())
        parsed = json.loads(text)
        assert parsed["log_bf_ic"] == "inf"
        back = EvidenceRecord.from_dict(json.loads(text))
        assert back == rec
        assert repr(back) == repr(rec)

    def test_negative_infinity_round_trip(self):
        rec = EvidenceRecord(study_id="s", hypothesis="h", fit=0.0,
                             complexity=0.5, log_bf_iu=-math.inf,
                             log_bf_ic=-math.inf, mc_se_fit=0.0,
                             mc_se_complexity=0.0, mc_draws=0,
                             family="gaussian", n=10,
                             alternative="unconstrained")
        back = EvidenceRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert back.log_bf_iu == -math.inf
        assert repr(back) == repr(rec)

    def test_mass_method_round_trip_and_default(self):
        rec = EvidenceRecord(study_id="s", hypothesis="h", fit=0.5,
                             complexity=0.25, log_bf_iu=math.log(2.0),
                             log_bf_ic=0.0, mc_se_fit=1e-6,
                             mc_se_complexity=0.0, mc_draws=2_960,
                             mass_method="qmc")
        back = EvidenceRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert back == rec
        assert repr(back) == repr(rec)
        older = {k: v for k, v in rec.to_dict().items() if k != "mass_method"}
        assert EvidenceRecord.from_dict(older).mass_method == ""

    @pytest.mark.parametrize("field,value", [
        ("mc_draws", 1.5), ("mc_draws", -1), ("n", -3.7), ("n", -3),
        ("mc_draws", "inf"), ("mass_method", "guess"), ("mass_method", 3),
        ("mc_draws", True), ("n", True)])
    def test_bad_counts_and_methods_rejected(self, field, value):
        data = dict(EvidenceRecord(study_id="s", hypothesis="h", fit=0.5,
                                   complexity=0.5, log_bf_iu=0.0, log_bf_ic=0.0,
                                   mc_se_fit=0.0, mc_se_complexity=0.0,
                                   mc_draws=0).to_dict(), **{field: value})
        with pytest.raises(DataError):
            EvidenceRecord.from_dict(data)

    @pytest.mark.parametrize("field,value", [
        ("alternative", "bogus"), ("mass_method", "guess"), ("mc_draws", -1),
        ("n", -3), ("mc_draws", 1.5), ("hypothesis", 7), ("study_id", None),
        ("fit", 1.7), ("complexity", -0.2), ("mc_se_fit", -1),
        ("mc_se_complexity", -1e-300), ("fit", -math.inf),
        ("complexity", math.inf), ("fit", True), ("log_bf_ic", False)])
    def test_invalid_record_rejected_at_construction(self, field, value):
        fields = dict(dict(study_id="s", hypothesis="h", fit=0.5,
                           complexity=0.5, log_bf_iu=0.0, log_bf_ic=0.0,
                           mc_se_fit=0.0, mc_se_complexity=0.0, mc_draws=0),
                      **{field: value})
        with pytest.raises(ValueError, match=field.replace("_", ".")):
            EvidenceRecord(**fields)

    def test_equality_densities_may_exceed_one(self):
        # with an equality constraint fit and complexity are densities
        rec = EvidenceRecord(study_id="s", hypothesis="h", fit=1.7,
                             complexity=3.5, log_bf_iu=math.log(1.7 / 3.5),
                             log_bf_ic=None, mc_se_fit=0.0,
                             mc_se_complexity=0.0, mc_draws=0)
        assert (rec.fit, rec.complexity) == (1.7, 3.5)

    def test_fields_cannot_be_assigned(self):
        rec = evaluate(gaussian_fit(n=80, p=2, seed=1), parse("x2 > 0"),
                       label="h")
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.alternative = "bogus"
        assert rec.alternative == "unconstrained"

    LOG_BFS = st.sampled_from([math.inf, -math.inf]) | st.floats(allow_nan=False)

    @given(st.builds(
        EvidenceRecord,
        study_id=st.text(max_size=8), hypothesis=st.text(max_size=12),
        fit=st.floats(0.0, 1.0), complexity=st.floats(0.0, 1.0),
        log_bf_iu=LOG_BFS, log_bf_ic=st.none() | LOG_BFS,
        mc_se_fit=st.floats(0.0, 1.0), mc_se_complexity=st.floats(0.0, 1.0),
        mc_draws=st.integers(0, 10 ** 7),
        family=st.sampled_from(("",) + FAMILIES), n=st.integers(0, 10 ** 6),
        alternative=st.sampled_from(ALTERNATIVES),
        mass_method=st.sampled_from(("",) + MASS_METHODS)))
    @settings(max_examples=200, deadline=None)
    def test_json_round_trip_property(self, rec):
        back = EvidenceRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert back == rec
        assert repr(back) == repr(rec)  # also tells -0.0 from 0.0

    VALID = dict(study_id="s", hypothesis="h", fit=0.5, complexity=0.25,
                 log_bf_iu=math.log(2.0), log_bf_ic=0.0, mc_se_fit=0.0,
                 mc_se_complexity=0.0, mc_draws=0, family="logit", n=10,
                 alternative="unconstrained", mass_method="exact")
    NUMBERS = ("fit", "complexity", "log_bf_iu", "log_bf_ic", "mc_se_fit",
               "mc_se_complexity")
    POOL = (st.floats() | st.integers(-10 ** 6, 10 ** 6)
            | st.integers(-10 ** 6, 10 ** 6).map(float)
            | st.floats().map(repr) | st.integers().map(str)
            | st.lists(st.integers(), max_size=2)
            | st.sampled_from([None, "inf", "-inf", "nan", "abc", "", " 3 ",
                               True, 2 ** 60, 10 ** 400, -0.0, {}, "exact"]))

    # the constructor once accepted the first three, which from_dict
    # rejected, and from_dict the fourth, which the constructor rejected
    @given(st.sampled_from(sorted(VALID)), POOL)
    @example("fit", "abc")
    @example("fit", None)
    @example("log_bf_iu", [1])
    @example("mc_draws", 1.0)
    @example("n", 2 ** 60)
    @example("fit", 1.7)
    @example("complexity", -0.2)
    @example("mc_se_fit", -1)
    @example("mc_se_complexity", "-inf")
    @example("log_bf_ic", None)
    @example("mass_method", "mc")   # records of the sampler, kept loadable
    @example("fit", True)   # float(True) is 1.0, yet JSON's true is no number
    @example("n", True)
    @settings(max_examples=300, deadline=None)
    def test_constructor_and_from_dict_agree(self, key, value):
        data = dict(self.VALID, **{key: value})
        try:
            rec = EvidenceRecord(**data)
        except ValueError as exc:
            with pytest.raises(DataError) as read:
                EvidenceRecord.from_dict(data)
            assert str(read.value) == str(exc)
            return
        assert EvidenceRecord.from_dict(data) == rec
        assert all(type(getattr(rec, k)) is float for k in self.NUMBERS
                   if getattr(rec, k) is not None)
        assert type(rec.mc_draws) is int and type(rec.n) is int
        assert min(rec.fit, rec.complexity, rec.mc_se_fit,
                   rec.mc_se_complexity) >= 0.0
        if rec.log_bf_ic is not None:
            assert max(rec.fit, rec.complexity) <= 1.0
        if key in ("mc_draws", "n") and type(value) is int:
            assert getattr(rec, key) == value   # kept whole, past 2**53 too
        back = EvidenceRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert back == rec


class TestParsedSystemMemo:
    """The per-system quantities kept on a parsed ConstraintSystem give the
    same records as a fresh parse, whatever the order of the fits."""

    TEXTS = ("x4 < x5 < x6", "{x2, x3, x4} > 0", "x2 + x3 > 0.2 & x4 < x5",
             "x2 = 0.1 & x5 > x6", "x3 > 0 & x2 > 0 & x3 < 0.5")

    @staticmethod
    def fit_of(family: str, order: list[int], extra: bool, intercept: bool):
        # x2..x6 in ``order``, then x1 when ``extra``: names differ in order
        # and width from fit to fit
        spec = simgen.DataGenSpec(family, 80, 0.25)
        cols = [j + 1 for j in order] + ([0] if extra else [])

        def analyze(d):
            d = Dataset(d.X[:, cols], d.y, d.family,
                        tuple(d.names[j] for j in cols))
            return glm_fit(add_intercept(d) if intercept else d)

        return simgen.gen_dataset(spec, simgen.rng_stream(9, *order), analyze)

    @given(st.sampled_from(TEXTS),
           st.lists(st.tuples(st.sampled_from(FAMILIES),
                              st.permutations(range(5)), st.booleans(),
                              st.booleans()),
                    min_size=2, max_size=5))
    @settings(max_examples=25, deadline=None)
    @pytest.mark.filterwarnings("ignore:inconsistent boundary system")
    def test_records_match_fresh_parse(self, text, fits):
        h = parse(text)
        for family, order, extra, intercept in fits:
            fit = self.fit_of(family, list(order), extra, intercept)
            kept = evaluate(fit, h, label="h", rng=np.random.default_rng(0))
            fresh = evaluate(fit, dataclasses.replace(parse(text)), label="h",
                             rng=np.random.default_rng(0))
            assert kept == fresh
            # a caller's changes to returned arrays reach no later record
            adjustment_center(h, names=fit.names)[:] = 7.0
            assert evaluate(fit, h, label="h",
                            rng=np.random.default_rng(0)) == fresh


class TestEvaluate:
    @pytest.mark.parametrize("text", ["x2 = 0", "x2 = 0 & x3 > 0"])
    def test_complement_of_equality_hypothesis_rejected(self, text,
                                                        monkeypatch):
        def no_mass(*args):
            raise AssertionError("a mass was taken")

        monkeypatch.setattr(bf, "_log_mass", no_mass)
        with pytest.raises(EqualityComplementUnsupportedError):
            evaluate(gaussian_fit(n=80, p=4, seed=1), parse(text), label="h",
                     alternative="complement")

    def test_unknown_alternative_rejected(self):
        with pytest.raises(ValueError, match="unknown alternative 'bogus'"):
            evaluate(gaussian_fit(n=80, p=4, seed=1), parse("x2 > 0"),
                     label="h", alternative="bogus")

    def test_full_pipeline_fields(self):
        result = gaussian_fit(n=120, p=4, seed=9)
        record = evaluate(result, parse("x2 > 0"), label="x2>0",
                          study_id="study-a", rng=np.random.default_rng(2))
        assert record.study_id == "study-a"
        assert record.hypothesis == "x2>0"
        assert record.family == "gaussian"
        assert record.n == 120
        assert 0.0 <= record.fit <= 1.0
        assert 0.0 < record.complexity < 1.0
        # single homogeneous constraint with a boundary-centered prior
        assert math.isclose(record.complexity, 0.5, rel_tol=1e-12)

    def test_explicit_fraction_changes_nothing_for_centered_prior(self):
        # complexity of a homogeneous one-row system is scale free, so the
        # fraction only matters through the prior scale; fit is untouched
        result = gaussian_fit(n=80, p=3, seed=4)
        a = evaluate(result, parse("x2 > 0"), label="h",
                     frac=FractionSpec(0.05))
        b = evaluate(result, parse("x2 > 0"), label="h",
                     frac=FractionSpec(0.5))
        assert a.fit == b.fit
        assert a.complexity == b.complexity == 0.5

    def test_savage_dickey_through_pipeline(self):
        result = gaussian_fit(n=200, p=3, seed=12)
        record = evaluate(result, parse("x2 = 0"), label="x2=0")
        post = build_posterior(result)
        prior = build_prior(result, default_fraction(result, [parse("x2 = 0")]),
                            adjustment_center(parse("x2 = 0"),
                                              names=result.names))
        expected = (density_at_equality(post, parse("x2 = 0"))
                    / density_at_equality(prior, parse("x2 = 0")))
        assert math.isclose(math.exp(record.log_bf_iu), expected,
                            rel_tol=1e-12)


class TestOnePass:
    """evaluate reads the fit's block on the constrained coefficients once:
    its eta images are those of the full-width laws, and its record is the
    one bf_iu gives for them."""

    TEXTS = ("x4 < x5 < x6", "x3 = 0", "x2 = x3 & x4 > 0", "-0.1 < x1 < 0.1",
             "2*x3 - x1 > 0.3 & x5 = x6")

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def fit_of(family: str, order: tuple[int, ...], intercept: bool):
        rng = np.random.default_rng(sum(order[:3]) + 17 * len(family))
        n = 120
        X = rng.normal(size=(n, 6))
        eta = X @ np.array([0.3, -0.2, 0.4, 0.1, 0.25, -0.15]) * 0.6
        if family == "gaussian":
            y = eta + rng.normal(size=n)
        else:
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        d = Dataset(X[:, list(order)], y, family,
                    tuple(f"x{j + 1}" for j in order))
        return glm_fit(add_intercept(d) if intercept else d)

    @staticmethod
    def evaluate_etas(fit, h, **kwargs):
        """evaluate's record and the eta images it took."""
        taken, original = [], hyp.transform_constraints

        def spy(*args):
            taken.append(original(*args))
            return taken[-1]

        with mock.patch.object(hyp, "transform_constraints", spy):
            record = evaluate(fit, h, label="h", **kwargs)
        return record, taken

    @given(st.sampled_from(FAMILIES), st.permutations(range(6)),
           st.booleans(), st.sampled_from(TEXTS),
           st.sampled_from([None, 0.05]))
    @settings(max_examples=60, deadline=None)
    @pytest.mark.filterwarnings("ignore:inconsistent boundary system")
    def test_etas_and_record_are_those_of_the_full_laws(self, family, order,
                                                        intercept, text, b):
        fit = self.fit_of(family, tuple(order), intercept)
        h = parse(text)
        frac = None if b is None else FractionSpec(b)
        record, etas = self.evaluate_etas(fit, h, frac=frac,
                                          rng=np.random.default_rng(3))
        post = build_posterior(fit)
        prior = build_prior(fit, frac or default_fraction(fit, [h]),
                            adjustment_center(h, names=fit.names))
        assert len(etas) == 2
        for got, law in zip(etas, (post, prior)):
            want = padded_transform(h, law.mean, law.scale, law.names, law.df)
            for g, w in ((got.eq, want.eq), (got.ineq, want.ineq)):
                assert (g is None) == (w is None)
                if g is not None:
                    assert g.mean.tobytes() == w.mean.tobytes()
                    assert g.scale.tobytes() == w.scale.tobytes()
                    assert g.df == w.df == law.df
            assert (got.cross is None) == (want.cross is None)
            if got.cross is not None:
                assert got.cross.tobytes() == want.cross.tobytes()
        assert record == bf_iu(post, prior, h, rng=np.random.default_rng(3),
                               label="h", family=fit.family, n=fit.n)

    @pytest.mark.filterwarnings("ignore:inconsistent boundary system")
    def test_builds_no_full_width_law(self, monkeypatch):
        built = []
        monkeypatch.setattr(CoefDistribution, "__post_init__",
                            lambda law: built.append(law))
        fit = gaussian_fit(n=80, p=7, seed=3)
        for text in self.TEXTS:
            evaluate(fit, parse(text.replace("x1", "x7")), label="h")
        assert built == []
        build_posterior(fit)
        assert len(built) == 1   # the spy sees a law that is built

    @pytest.mark.parametrize("where", ["beta", "cov", "free beta", "free cov"])
    def test_non_finite_fit_rejected(self, where):
        fit = gaussian_fit(n=80, p=4, seed=1)
        beta, cov = fit.beta.copy(), fit.cov.copy()
        j = 1 if where.startswith("free") else 2   # x3 is constrained
        if where.endswith("beta"):
            beta[j] = math.nan
        else:
            cov[j, j] = math.inf
        bad = dataclasses.replace(fit, beta=beta, cov=cov)
        with pytest.raises(ValueError, match="mean and scale must be finite"):
            evaluate(bad, parse("x3 > 0"), label="h")

    @pytest.mark.parametrize("change,words", [
        (dict(beta=np.zeros(3), cov=np.eye(2)), "do not match its 3 names"),
        (dict(beta=np.zeros(2)), "do not match its 3 names"),
        (dict(family="poisson"), "unknown family 'poisson'"),
        (dict(n=50.5), "must be a whole number, got 47.5")],
        ids=["beta-and-cov", "beta", "family", "n"])
    def test_malformed_fit_rejected(self, change, words):
        fit = dict(beta=np.zeros(3), cov=np.eye(3), n=50, family="gaussian",
                   names=("x0", "x1", "x2"))
        with pytest.raises(ValueError, match=words):
            evaluate(FitResult(**dict(fit, **change)), parse("x1 > 0"),
                     label="h")

    def test_missing_name_rejected(self):
        with pytest.raises(NameMappingError, match="x9"):
            evaluate(gaussian_fit(n=80, p=4, seed=1), parse("x9 > x2"),
                     label="h")

    # a normal law over x1 alone whose boundary points 0 and 1 (or 0 and 2)
    # disagree: the prior sits at their least-squares point, where it puts
    # no mass on x1 > 1 and all of it on 0 < x1 < 2
    FIT = FitResult(beta=np.array([2.0]), cov=np.array([[1e-6]]), n=100,
                    family="logit", names=("x1",))

    @pytest.mark.parametrize("text, beta, second", [
        ("x1 > 0 & x1 > 1", 2.0, "complexity underflowed"),
        ("0 < x1 < 2", 1.0, "indeterminate complement Bayes factor")])
    @pytest.mark.parametrize("entry", ["evaluate", "bf_iu"])
    def test_warnings_fire_once_at_the_caller(self, text, beta, second, entry):
        h, frac = parse(text), FractionSpec(0.5)
        fit = dataclasses.replace(self.FIT, beta=np.array([beta]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if entry == "evaluate":
                evaluate(fit, h, label="h", frac=frac)
            else:   # the inconsistent boundary warns in adjustment_center
                center = adjustment_center(h, names=fit.names)
                bf_iu(build_posterior(fit), build_prior(fit, frac, center), h)
        assert len(caught) == 2
        for start in ("inconsistent boundary system", second):
            assert any(str(w.message).startswith(start) for w in caught)
        assert {w.filename for w in caught} == {__file__}
