"""Model fitting tests: OLS, logistic, probit, separation, CSV loading."""

import csv
import math
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit, log_ndtr, ndtr
from scipy.stats import norm

from evsynth import cli, glm, simgen
from evsynth.glm import (DataError, Dataset, NotConvergedError,
                         SeparationError, SingularDesignError, add_intercept,
                         dataset_from_csv, detect_separation, fit,
                         fit_binomial, fit_ols)


def make_dataset(y, X, family="gaussian", names=None):
    X = np.asarray(X, dtype=float)
    if names is None:
        names = tuple(f"x{j + 1}" for j in range(X.shape[1]))
    return Dataset(y=np.asarray(y, dtype=float), X=X, names=tuple(names),
                   family=family)


class TestOls:
    def test_two_parameter_closed_form(self):
        # X columns (1, x) with x = (0, 1, 2), y = (0, 1, 1):
        # X'X = [[3, 3], [3, 5]], X'y = (2, 3), solution (1/6, 1/2),
        # RSS = 1/6, dispersion = RSS / (n - p) = 1/6.
        d = make_dataset([0.0, 1.0, 1.0], [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]],
                         names=("intercept", "x"))
        result = fit_ols(d)
        assert np.allclose(result.beta, [1.0 / 6.0, 0.5], atol=1e-12)
        # cov (X'X) is the dispersion times the identity
        assert np.allclose(result.cov @ d.X.T @ d.X, np.eye(2) / 6.0,
                           rtol=0.0, atol=1e-12 / 6.0)
        expected_cov = (1.0 / 36.0) * np.array([[5.0, -3.0], [-3.0, 3.0]])
        assert np.allclose(result.cov, expected_cov, atol=1e-12)
        assert result.family == "gaussian"

    def test_constant_response_flags_degenerate_dispersion(self):
        # zero residuals leave no posterior scale to take masses under
        d = make_dataset([3.0, 3.0, 3.0, 3.0], np.ones((4, 1)),
                         names=("intercept",))
        with pytest.raises(DataError, match="residual sum of squares is zero"):
            fit_ols(d)

    @pytest.mark.parametrize("offset,unit", [(1e6, 1.0), (0.0, 1e-7),
                                             (1e9, 1e3)])
    def test_noisy_outcome_of_any_scale_fits(self, offset, unit):
        # R^2 about 0.99: residuals tiny beside y'y, or in absolute terms,
        # are still residuals; only an exact fit is degenerate
        rng = np.random.default_rng(8)
        x = rng.normal(size=100)
        y = offset + unit * (x + 0.1 * rng.normal(size=100))
        d = make_dataset(y, np.column_stack([np.ones(100), x]),
                         names=("intercept", "x"))
        noise_var = (0.1 * unit) ** 2
        # cov (X'X) is the dispersion times the identity
        phi = np.diag(fit_ols(d).cov @ d.X.T @ d.X)
        assert np.all((0.5 * noise_var < phi) & (phi < 2.0 * noise_var))
        with pytest.raises(DataError, match="residual sum of squares is zero"):
            fit_ols(make_dataset(offset + unit * x, d.X, names=d.names))

    def test_duplicated_column_singular(self):
        x = np.arange(5.0)
        d = make_dataset(np.arange(5.0), np.column_stack([x, x]))
        with pytest.raises(SingularDesignError):
            fit_ols(d)

    def test_condition_guard_agrees_with_svd(self):
        # the eigenvalue ratio of X'X against np.linalg.cond's SVD, on
        # random designs with columns of very different scales and on
        # nearly or exactly collinear ones
        rng = np.random.default_rng(17)
        designs = []
        for _ in range(150):
            X = rng.normal(size=(40, 4)) * 10.0 ** rng.uniform(-3.5, 3.5, 4)
            designs.append(X)
            Y = X.copy()
            Y[:, 3] = Y[:, 0] - 2.0 * Y[:, 1] + 10.0 ** rng.uniform(-10, 0) \
                * rng.normal(size=40) * np.abs(Y[:, 0]).max()
            designs.append(Y)
        designs.append(np.column_stack([designs[0][:, :3], designs[0][:, 1]]))
        raised = 0
        for X in designs:
            want = np.linalg.cond(X.T @ X)
            if abs(want / glm.COND_LIMIT - 1.0) < 1e-6:
                continue
            if want < glm.COND_LIMIT:
                assert np.array_equal(glm._condition_guard(X), X.T @ X)
                continue
            raised += 1
            with pytest.raises(SingularDesignError,
                               match=r"^X'X condition number \S+ exceeds 1e\+12$"):
                glm._condition_guard(X)
        assert 50 < raised < len(designs) - 50

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 4))
        y = X @ rng.normal(size=4) + rng.normal(size=40)
        result = fit_ols(make_dataset(y, X))
        residual = y - X @ result.beta
        assert np.abs(X.T @ residual).max() < 1e-8

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_normal_equations_hold(self, seed):
        rng = np.random.default_rng(seed)
        n, p = 30, 3
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        result = fit_ols(make_dataset(y, X))
        assert np.allclose(X.T @ (y - X @ result.beta), 0.0, atol=1e-7)


class TestBinomial:
    def test_logit_intercept_only_mean_075(self):
        d = make_dataset([1.0, 1.0, 1.0, 0.0], np.ones((4, 1)),
                         family="logit", names=("intercept",))
        result = fit_binomial(d)
        assert abs(result.beta[0] - math.log(3.0)) < 1e-6
        # observed information: sum p(1-p) = 4 * 0.75 * 0.25 = 0.75
        assert abs(result.cov[0, 0] - 4.0 / 3.0) < 1e-5
        assert result.trace[-1].grad_inf < glm.GRAD_TOL

    def test_probit_intercept_only_mean_075(self):
        d = make_dataset([1.0, 1.0, 1.0, 0.0], np.ones((4, 1)),
                         family="probit", names=("intercept",))
        result = fit_binomial(d)
        assert abs(result.beta[0] - norm.ppf(0.75)) < 1e-6

    def test_symmetric_data_zero_coefficients(self):
        d = make_dataset([0.0, 1.0, 0.0, 1.0],
                         [[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]],
                         family="logit", names=("intercept", "x"))
        result = fit_binomial(d)
        assert np.allclose(result.beta, 0.0, atol=1e-8)

    @pytest.mark.parametrize("family", ["logit", "probit"])
    def test_score_vanishes_at_optimum(self, family):
        rng = np.random.default_rng(11)
        X = np.column_stack([np.ones(200), rng.normal(size=(200, 2))])
        eta = X @ np.array([0.2, 0.7, -0.4])
        mu = expit(eta) if family == "logit" else ndtr(eta)
        y = (rng.random(200) < mu).astype(float)
        d = make_dataset(y, X, family=family, names=("intercept", "x1", "x2"))
        result = fit_binomial(d)
        # independent score oracle: X' (y - mu) for logit,
        # X' diag(phi(eta)/(mu(1-mu))) (y - mu) for probit
        eta_hat = X @ result.beta
        if family == "logit":
            mu_hat = expit(eta_hat)
            score = X.T @ (y - mu_hat)
        else:
            mu_hat = ndtr(eta_hat)
            w = norm.pdf(eta_hat) / np.clip(mu_hat * (1.0 - mu_hat), 1e-300, None)
            score = X.T @ (w * (y - mu_hat))
        assert np.abs(score).max() < 1e-6

    @pytest.mark.parametrize("family", ["logit", "probit"])
    def test_cov_matches_finite_difference_hessian(self, family):
        rng = np.random.default_rng(7)
        X = np.column_stack([np.ones(300), rng.normal(size=(300, 2))])
        eta = X @ np.array([-0.1, 0.5, 0.3])
        mu = expit(eta) if family == "logit" else ndtr(eta)
        y = (rng.random(300) < mu).astype(float)
        d = make_dataset(y, X, family=family, names=("intercept", "x1", "x2"))
        result = fit_binomial(d)

        def loglik(beta):
            z = X @ beta
            if family == "logit":
                return float(y @ z - np.logaddexp(0.0, z).sum())
            return float(y @ log_ndtr(z) + (1.0 - y) @ log_ndtr(-z))

        h = 1e-5
        p = len(result.beta)
        H = np.zeros((p, p))
        for i in range(p):
            for j in range(p):
                ei = np.eye(p)[i] * h
                ej = np.eye(p)[j] * h
                H[i, j] = (loglik(result.beta + ei + ej)
                           - loglik(result.beta + ei - ej)
                           - loglik(result.beta - ei + ej)
                           + loglik(result.beta - ei - ej)) / (4.0 * h * h)
        fd_cov = np.linalg.inv(-H)
        assert np.allclose(result.cov, fd_cov, rtol=1e-4, atol=1e-8)

    @staticmethod
    def _random_iterate(n, p, z_max, seed):
        # a design with an intercept, a coefficient vector scaled so that
        # max |z| = z_max, and outcomes of both classes
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        beta = rng.normal(size=p)
        beta *= z_max / np.abs(X @ beta).max()
        y = (rng.random(n) < 0.5).astype(float)
        return X, y, X @ beta

    @given(st.sampled_from([25, 100, 400, 4800]), st.integers(1, 4),
           st.floats(0.5, 40.0), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_probit_parts_match_two_arm_formulas(self, n, p, z_max, seed):
        # oracle: a log_ndtr and a Mills ratio for each class, weighted by
        # y and 1 - y; the fit shares one arm, which must be bit for bit
        # the same
        X, y, z = self._random_iterate(n, p, z_max, seed)
        log_p1, log_p0 = log_ndtr(z), log_ndtr(-z)
        log_pdf = -0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
        r1, r0 = np.exp(log_pdf - log_p1), np.exp(log_pdf - log_p0)
        curvature = y * (z * r1 + r1 * r1) + (1.0 - y) * (r0 * r0 - z * r0)
        loglik, resid, curv = glm._probit_terms(y, 1.0 - y, 2.0 * y - 1.0, z)
        grad, neg_hess, margin = glm._newton_parts(X, z, resid, curv, ndtr)
        assert loglik == float(y @ log_p1 + (1.0 - y) @ log_p0)
        assert np.array_equal(grad, X.T @ (y * r1 - (1.0 - y) * r0))
        assert np.array_equal(neg_hess, X.T @ (curvature[:, None] * X))
        assert margin == float(ndtr(-np.abs(z).min()))

    @given(st.sampled_from([25, 100, 400, 4800]), st.integers(1, 4),
           st.floats(0.5, 40.0), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_logit_parts_match_two_arm_formulas(self, n, p, z_max, seed):
        # oracle: the score y (1 - mu) - (1 - y) mu and the information
        # mu (1 - mu) of the closed form, bit for bit; the log-likelihood
        # against np.logaddexp, which evaluates the same formula with
        # scalar libm calls
        X, y, z = self._random_iterate(n, p, z_max, seed)
        mu = expit(z)
        loglik, resid, curv = glm._logit_terms(y, z)
        grad, neg_hess, margin = glm._newton_parts(X, z, resid, curv, expit)
        assert math.isclose(loglik, float(y @ z - np.logaddexp(0.0, z).sum()),
                            rel_tol=1e-13, abs_tol=1e-13)
        assert np.array_equal(grad, X.T @ (y * (1.0 - mu) - (1.0 - y) * mu))
        assert np.array_equal(neg_hess, X.T @ ((mu * (1.0 - mu))[:, None] * X))
        assert margin == float(expit(-np.abs(z).min()))

    @given(st.sampled_from(["logit", "probit"]), st.integers(2, 400),
           st.floats(1e-3, 40.0), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_margin_matches_elementwise_formula(self, family, n, z_max, seed):
        # F(-min |z|) against max_i min(p_i, 1 - p_i): they differ by the
        # rounding of p and of 1 - p, within 2**-52
        rng = np.random.default_rng(seed)
        z = rng.uniform(-z_max, z_max, size=n)
        cdf = expit if family == "logit" else ndtr
        p_hat = cdf(z)
        old = float(np.minimum(p_hat, 1.0 - p_hat).max())
        resid = np.zeros(n)
        margin = glm._newton_parts(np.ones((n, 1)), z, resid, resid, cdf)[2]
        assert abs(margin - old) <= 2.0 ** -52

    @given(st.sampled_from(["logit", "probit"]), st.floats(-15.0, -9.0),
           st.sampled_from([-1.0, 1.0]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_separation_decided_alike_near_the_threshold(self, family, power,
                                                         side, seed):
        # a grid whose value nearest zero puts the margin on one side of
        # SEPARATION_EPS, more than 1e-15 from it: F(-min |z|) and the
        # elementwise margin take the same side
        eps = glm.SEPARATION_EPS
        q = eps + side * 10.0 ** power
        if family == "logit":
            cdf, m = expit, math.log((1.0 - q) / q)
        else:
            cdf, m = ndtr, -float(norm.ppf(q))
        rng = np.random.default_rng(seed)
        z = np.concatenate([[m], m + rng.uniform(0.0, 20.0, 30)])
        z *= rng.choice([-1.0, 1.0], size=z.size)
        p_hat = cdf(z)
        old = float(np.minimum(p_hat, 1.0 - p_hat).max())
        assume(abs(old - eps) > 1e-15)
        resid = np.zeros(z.size)
        new = glm._newton_parts(np.ones((z.size, 1)), z, resid, resid, cdf)[2]
        assert (detect_separation([glm.IrlsStep(0.0, 0.0, 0.0, new)])
                == detect_separation([glm.IrlsStep(0.0, 0.0, 0.0, old)])
                == (side < 0.0))

    def test_large_study_converges(self):
        # n = 60,000: one ulp of the log-likelihood (about -4.1e4) is
        # 7.3e-12, so a fixed 1e-12 slack rejected full Newton steps on
        # rounding, and the short steps taken then stalled the score above
        # GRAD_TOL or took extra iterations
        result = simgen.gen_dataset(
            simgen.DataGenSpec("logit", 60000, 0.02), simgen.rng_stream(1),
            lambda raw: fit(add_intercept(raw)))
        assert result.trace[-1].grad_inf < glm.GRAD_TOL
        assert len(result.trace) <= 6

    def test_separated_data_raises(self):
        d = make_dataset([0.0, 0.0, 1.0, 1.0],
                         np.column_stack([np.ones(4), [0.0, 1.0, 2.0, 3.0]]),
                         family="logit", names=("intercept", "x"))
        with pytest.raises(SeparationError):
            fit_binomial(d)

    def test_single_class_rejected_at_fit(self):
        d = make_dataset([1.0, 1.0, 1.0, 1.0], np.ones((4, 1)), family="logit",
                         names=("intercept",))
        with pytest.raises(DataError):
            fit_binomial(d)

    def test_loglik_matches_direct_formula(self):
        rng = np.random.default_rng(23)
        X = np.column_stack([np.ones(80), rng.normal(size=80)])
        y = (rng.random(80) < 0.5).astype(float)
        d = make_dataset(y, X, family="logit", names=("intercept", "x"))
        result = fit_binomial(d)
        mu = expit(X @ result.beta)
        direct = float(np.sum(y * np.log(mu) + (1.0 - y) * np.log1p(-mu)))
        assert math.isclose(result.trace[-1].loglik, direct, rel_tol=1e-10)

    @staticmethod
    def _effect_data(family):
        rng = np.random.default_rng(31)
        X = np.column_stack([np.ones(120), rng.normal(size=(120, 2))])
        eta = X @ np.array([0.3, 0.8, -0.5])
        mu = expit(eta) if family == "logit" else ndtr(eta)
        y = (rng.random(120) < mu).astype(float)
        return make_dataset(y, X, family=family, names=("intercept", "x1", "x2"))

    @pytest.mark.parametrize("family", ["logit", "probit"])
    def test_singular_information_takes_a_least_squares_step(self, monkeypatch,
                                                              family):
        # solve fails once, as on a singular observed information; on this
        # invertible one the least-squares step is the Newton step
        d = self._effect_data(family)
        want = fit_binomial(d).beta
        solve, failed = np.linalg.solve, []

        def singular_once(a, b):
            if not failed:
                failed.append(a)
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(glm.np.linalg, "solve", singular_once)
        result = fit_binomial(d)
        assert len(failed) == 1
        assert np.allclose(result.beta, want, rtol=0.0, atol=1e-8)
        assert result.trace[-1].grad_inf < glm.GRAD_TOL

    @pytest.mark.parametrize("family", ["logit", "probit"])
    def test_no_improving_step_length_stops_newton(self, monkeypatch, family):
        # a step against the Newton direction lowers the concave
        # log-likelihood at every length down to 2**-29
        d = self._effect_data(family)
        solve = np.linalg.solve
        monkeypatch.setattr(glm.np.linalg, "solve", lambda a, b: -solve(a, b))
        with pytest.raises(NotConvergedError,
                           match=r"^no step length improves the log-likelihood "
                                 r"in Newton iteration 1 \(\|score\| = "):
            fit_binomial(d)


class TestSeparationDetection:
    @staticmethod
    def _trace_for(y, x):
        d = make_dataset(y, np.column_stack([np.ones(len(x)), x]),
                         family="logit", names=("intercept", "x"))
        try:
            return fit_binomial(d).trace
        except SeparationError as err:
            return err.trace

    def test_perfect_split_detected(self):
        trace = self._trace_for([0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 2.0, 3.0])
        assert detect_separation(trace)

    def test_interleaved_classes_clean(self):
        trace = self._trace_for([0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 2.0, 3.0])
        assert not detect_separation(trace)

    def test_gaussian_family_rejected(self):
        # fit_binomial is where the family is checked, before any iterate
        d = make_dataset([0.0, 1.0], np.ones((2, 1)), names=("intercept",))
        with pytest.raises(DataError, match="binomial family"):
            fit_binomial(d)
        assert detect_separation([]) is False


class TestDatasetValidation:
    def test_outcome_length_mismatch(self):
        with pytest.raises(DataError):
            make_dataset([1.0, 2.0], np.ones((3, 1)), names=("intercept",))

    def test_more_parameters_than_rows(self):
        with pytest.raises(DataError):
            make_dataset([1.0, 2.0], np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            make_dataset([1.0, np.nan, 2.0], np.ones((3, 1)),
                         names=("intercept",))

    def test_binomial_outcome_must_be_binary(self):
        with pytest.raises(DataError):
            make_dataset([0.0, 1.0, 2.0], np.ones((3, 1)), family="logit",
                         names=("intercept",))

    def test_unknown_family(self):
        with pytest.raises(DataError):
            make_dataset([0.0, 1.0], np.ones((2, 1)), family="poisson",
                         names=("intercept",))

    def test_duplicate_names(self):
        with pytest.raises(DataError):
            make_dataset([0.0, 1.0, 2.0], np.ones((3, 2)), names=("a", "a"))

    def test_add_intercept(self):
        d = make_dataset([0.0, 1.0, 2.0], np.arange(3.0)[:, None], names=("x",))
        with_icpt = add_intercept(d)
        assert with_icpt.names == ("intercept", "x")
        assert np.array_equal(with_icpt.X[:, 0], np.ones(3))

    def test_add_intercept_name_collision(self):
        d = make_dataset([0.0, 1.0, 2.0], np.ones((3, 1)), names=("intercept",))
        with pytest.raises(DataError):
            add_intercept(d)

    @pytest.mark.parametrize("build,words", [
        (lambda: Dataset(X=np.ones(5), y=np.arange(5.0), family="gaussian",
                         names=("x1",)), "X must be a 2-d array"),
        (lambda: make_dataset(np.arange(5.0), np.ones((5, 2)), names=("x1",)),
         "names length does not match X"),
        (lambda: fit_ols(make_dataset([0.0, 1.0, 0.0, 1.0, 1.0],
                                      np.ones((5, 1)), family="logit",
                                      names=("intercept",))),
         "fit_ols requires the gaussian family, got 'logit'"),
    ], ids=["1-d-X", "names-length", "fit-ols-on-logit"])
    def test_invalid_input_is_named(self, build, words):
        with pytest.raises(DataError, match=f"^{re.escape(words)}$"):
            build()


class TestCsvLoading:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_loads_with_intercept_and_column_order(self, tmp_path):
        path = self._write(tmp_path, "y,a,b\n1,0.5,2\n0,1.5,3\n1,2.5,4\n0,0,5\n")
        d = dataset_from_csv(path, "y", family="logit")
        assert d.names == ("intercept", "a", "b")
        assert d.X.shape == (4, 3)
        assert np.array_equal(d.y, [1.0, 0.0, 1.0, 0.0])

    def test_predictor_selection(self, tmp_path):
        path = self._write(tmp_path, "y,a,b\n1,0.5,2\n2,1.5,3\n3,2.5,4\n")
        d = dataset_from_csv(path, "y", ["b"], family="gaussian",
                             intercept=False)
        assert d.names == ("b",)
        assert np.array_equal(d.X[:, 0], [2.0, 3.0, 4.0])

    def test_unknown_column(self, tmp_path):
        path = self._write(tmp_path, "y,a\n1,2\n3,4\n")
        with pytest.raises(DataError):
            dataset_from_csv(path, "z", family="gaussian")

    def test_non_numeric_cell_reports_row(self, tmp_path):
        path = self._write(tmp_path, "y,a\n1,2\n3,oops\n5,6\n")
        with pytest.raises(DataError) as err:
            dataset_from_csv(path, "y", family="gaussian")
        assert "data row 2" in str(err.value)

    def test_missing_cell_rejected(self, tmp_path):
        path = self._write(tmp_path, "y,a\n1,2\n3,\n")
        with pytest.raises(DataError):
            dataset_from_csv(path, "y", family="gaussian")


def reference_dataset(path, outcome, predictors=None, family="gaussian",
                      intercept=True):
    """The CSV contract as plain Python: ``csv.reader`` rows and one
    ``float()`` per used cell, every data error worded as the loader words
    it.  An outcome among the predictors is rejected before the file is
    read."""
    if predictors is not None and outcome in predictors:
        raise DataError(f"{path}: outcome column {outcome!r} is also listed "
                        f"as a predictor")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = list(reader)
    if not rows:
        raise DataError(f"{path}: no data rows")
    if outcome not in header:
        raise DataError(f"{path}: outcome column {outcome!r} not found")
    if predictors is None:
        predictors = [c for c in header if c != outcome]
    missing = [c for c in predictors if c not in header]
    if missing:
        raise DataError(f"{path}: predictor columns {missing} not found")
    columns = []
    for name in [outcome, *predictors]:
        j = header.index(name)
        values = []
        for i, row in enumerate(rows, start=1):
            if j >= len(row) or row[j].strip() == "":
                raise DataError(f"{path}: missing value in column {name!r}, "
                                f"data row {i}")
            try:
                values.append(float(row[j]))
            except ValueError:
                raise DataError(f"{path}: non-numeric value {row[j]!r} in "
                                f"column {name!r}, data row {i}") from None
        columns.append(values)
    X = np.array(columns[1:], dtype=float).T.reshape(len(rows), len(predictors))
    try:
        d = Dataset(np.ascontiguousarray(X), np.array(columns[0]), family,
                    tuple(predictors))
        return add_intercept(d) if intercept else d
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_outcome(load, *args):
    """What a loader gives: the dataset's exact bytes, or its error."""
    try:
        d = load(*args)
    except Exception as exc:  # noqa: BLE001 - any difference must show
        return type(exc).__name__, str(exc)
    return (d.names, d.family, d.X.shape, d.X.tobytes(), d.y.tobytes(),
            d.X.flags.c_contiguous, d.y.flags.c_contiguous)


def reference_fit(path, *args):
    """:func:`fit` of ``reference_dataset``, every fit error naming the
    file as ``fit_csv`` words it."""
    d = reference_dataset(path, *args)
    try:
        return fit(d)
    except glm.GlmError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def fit_outcome(load, *args):
    """What a fitting loader gives: the fit's exact bytes, or its error."""
    try:
        r = load(*args)
    except Exception as exc:  # noqa: BLE001 - any difference must show
        return type(exc).__name__, str(exc)
    return (r.names, r.family, r.n, r.beta.tobytes(), r.cov.tobytes(),
            r.trace)


def study_csv(tmp_path, family):
    """A 200-row study of outcome ``y`` on ``x1`` to ``x6`` for
    ``family``, written as ``analyze`` reads it."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 6))
    eta = X @ np.array([0.0, 0.2, 0.3, 0.4, 0.5, 0.6])
    y = (eta + rng.normal(size=200) if family == "gaussian"
         else (eta + rng.normal(size=200) > 0).astype(float))
    data = tmp_path / f"{family}.csv"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y"] + [f"x{j}" for j in range(1, 7)])
        w.writerows([[repr(v) for v in row]
                     for row in np.column_stack([y, X]).tolist()])
    return data


def assert_matches_reference(path, text, outcome="y", predictors=None,
                             family="gaussian", intercept=True):
    path.write_bytes(text.encode("utf-8"))
    args = (path, outcome, predictors, family, intercept)
    assert load_outcome(dataset_from_csv, *args) == \
        load_outcome(reference_dataset, *args)


PADS = st.sampled_from(["", " ", "\t", "  "])
NUMBERS = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
    st.integers(-99, 99).map(str),
    st.sampled_from(["0", "1"]))
PADDED = st.tuples(PADS, NUMBERS, PADS).map("".join)
ODD_CELLS = st.sampled_from([
    "", " ", "\t", "\xa0", "oops", "1_0", "1__0", "_1", "1_", "nan", "NaN",
    "inf", "-inf", "Infinity", "1e500", "-0", ".5", "1.", "+1e-3", "0x10",
    "1e", "--1", "1 2", "\u0661", "2\xa0", '"3"', '" 4 "', '"1,5"', '"x,y"',
    '"a""b"', '""', '"', "\x00", "2\x0b", "3\x1c"])
TEXT_CELLS = st.sampled_from(["abc", "x y", "", '"q,r"', '"1,2,3"', "7"])


@st.composite
def csv_cases(draw):
    """A CSV text near the contract's edges, and the loader arguments."""
    header = draw(st.permutations(["y", "a", "b", "t"]))
    text_cells = st.one_of(PADDED, TEXT_CELLS)
    rows = [[draw(text_cells if name == "t" else PADDED) for name in header]
            for _ in range(draw(st.sampled_from([6, 7, 8, 5, 1, 0])))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3])) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["cell", "quote", "short", "long", "blank"]))
        if kind in ("cell", "quote") and rows[i]:
            j = draw(st.integers(0, len(rows[i]) - 1))
            rows[i][j] = draw(ODD_CELLS) if kind == "cell" else f'"{rows[i][j]}"'
        elif kind == "short":
            del rows[i][draw(st.integers(0, len(header) - 1)):]
        elif kind == "long":
            rows[i] += draw(st.lists(st.sampled_from(["9", "", '"u,v"']),
                                     min_size=1, max_size=2))
        else:
            rows.insert(draw(st.integers(0, len(rows))), [draw(PADS)])
    lines = [",".join(header)] + [",".join(row) for row in rows]
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines[:-1]) + lines[-1]
    if draw(st.booleans()):
        text += draw(ends)
    outcome = draw(st.sampled_from(["y", "y", "a"]))
    predictors = draw(st.sampled_from(
        [["a"], None, ["b", "a"], ["a", "b"], ["t"], [], ["zz"]]))
    family = draw(st.sampled_from(["gaussian", "gaussian", "logit"]))
    return text, outcome, predictors, family, draw(st.booleans())


class TestCsvReaderDifferential:
    """The C-parsed reader against ``reference_dataset``: bit-identical
    data or the same error, on every text."""

    @given(csv_cases())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_reference(self, tmp_path, case):
        assert_matches_reference(tmp_path / "data.csv", *case)

    @pytest.mark.parametrize("text,predictors", [
        ("y,a,b\r\n1,2,3\r\n4,5,7\r\n6,8,9\r\n2,2,1\r\n", None),
        ("y,a,b\r1,2,3\r4,5,7\r6,8,9\r2,2,1", None),
        ("y,a\n1,2\n3,4\n5,7\n\n", None),
        ("y,a\n1,2\n\n3,4\n5,7\n", None),
        ("y,a\n1,2\n  \n3,4\n5,7\n", None),
        ("y,a\n1,2\r\r\n3,4\n5,7\n", None),
        ("y,a\n1,2\n3,4\n5,7\n\t\n", None),
        ('y,a\n"1",2\n3,"4"\n5,7\n', None),
        ('t,y,a\n"1,5",1,2\n"x,y,z",3,4\n"",5,7\n', ["a"]),
        ('t,y,a\n"1,9,1",1,2\n"x",3,4\n"q",5,7\n', ["a"]),
        ("t,y,a\nabc,1,2\nx y,3,4\n,5,7\n", ["a"]),
        ("y,a\n1_0,2\n3,4_5\n5,7\n", None),
        ("y,a\n 1 ,\t2\t\n3 , 4\n5,7\n", None),
        ("y,a\nnan,2\n3,4\n5,7\n", None),
        ("y,a\n1,inf\n3,4\n5,7\n", None),
        ("y,a,b\n1,2,3\n4,5\n6,7,8\n9,1,2\n", None),
        ("y,a\n1,2,3,4\n4,5\n6,7,\n9,1\n", None),
        ("y,a,b\n1,2,3\n", ["a"]),
        ("y,a\n1,2\n3,oops\n5,6\n", None),
        ("y,a\n3\x1c,2\n4,5\x1f\n5,7\n", None),
        ("y,a\n", None),
        ("", None),
        ("y,a\n1,2\n3,4\n5,7\n", ["a", "y"]),
        ("", ["y"]),
    ])
    def test_contract_cases(self, tmp_path, monkeypatch, text, predictors):
        monkeypatch.setattr(glm, "_last_fit", (None, None))
        path = tmp_path / "data.csv"
        assert_matches_reference(path, text, predictors=predictors)
        args = (path, "y", predictors, "gaussian", True)
        for _ in ("cold", "warm"):
            assert (fit_outcome(glm.fit_csv, *args)
                    == fit_outcome(reference_fit, *args))

    def test_plain_files_take_the_c_reader(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,a,t\r\n1, 2.5,x\r\n3,-4e-3,y z\r\n", encoding="utf-8")
        names, table = glm._c_parsed_table(path.read_bytes(), "y", ["a"])
        assert names == ["a"] and table.tolist() == [[1.0, 2.5], [3.0, -0.004]]
        for text in ("y,a\n1,2\n\n3,4\n", 'y,a\n1,"2"\n', "y,a\n1,2_0\n"):
            path.write_text(text, encoding="utf-8")
            assert glm._c_parsed_table(path.read_bytes(), "y", None) is None


class TestParsedTableMemo:
    """``fit_csv`` keeps the last study's fit: a call on the same bytes,
    columns, family and intercept gives what a cold call gives, without
    parsing the table or fitting it again."""

    GOOD = "y,a,b\n1,2,3\n4,5,7\n6,8,9\n2,2,1\n5,1,4\n3,7,2\n"
    OTHER = "y,a,b\n1,2,3\n4,5,7\n6,8,9\n2,2,1\n5,1,4\n3,7,6\n"

    @pytest.fixture(autouse=True)
    def cold(self, monkeypatch):
        monkeypatch.setattr(glm, "_last_fit", (None, None))

    @staticmethod
    def cold_outcome(monkeypatch, *args):
        monkeypatch.setattr(glm, "_last_fit", (None, None))
        return fit_outcome(glm.fit_csv, *args)

    @staticmethod
    def spy(monkeypatch, name):
        calls = []
        original = getattr(glm, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(glm, name, counted)
        return calls

    def test_same_size_rewrite_with_old_mtime_is_read(self, tmp_path):
        path = tmp_path / "data.csv"
        args = (path, "y", None, "gaussian", False)
        path.write_text(self.GOOD, encoding="utf-8")
        before = fit_outcome(glm.fit_csv, *args)
        assert before == fit_outcome(reference_fit, *args)
        stat = os.stat(path)
        path.write_text(self.OTHER, encoding="utf-8")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert os.stat(path).st_size == stat.st_size
        after = fit_outcome(glm.fit_csv, *args)
        assert after == fit_outcome(reference_fit, *args)
        assert after != before

    def test_bad_file_after_a_good_one_fails_as_cold(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "data.csv"
        args = (path, "y", None, "gaussian", True)
        path.write_text(self.GOOD, encoding="utf-8")
        good = fit_outcome(glm.fit_csv, *args)
        path.write_text("y,a,b\n1,2,3\n4,oops,7\n6,8,9\n", encoding="utf-8")
        bad = fit_outcome(glm.fit_csv, *args)
        assert bad[0] == "DataError" and "data row 2" in bad[1]
        assert fit_outcome(glm.fit_csv, *args) == bad
        assert bad == self.cold_outcome(monkeypatch, *args)
        path.write_text(self.GOOD, encoding="utf-8")
        assert fit_outcome(glm.fit_csv, *args) == good

    def test_lowered_field_size_limit_reads_as_cold(self, tmp_path,
                                                    monkeypatch):
        path = tmp_path / "data.csv"
        path.write_text("y,a\n1,2.000000000000000\n3,4\n5,7\n",
                        encoding="utf-8")
        args = (path, "y", None, "gaussian", True)
        assert fit_outcome(glm.fit_csv, *args)[0] == ("intercept", "a")
        limit = csv.field_size_limit(10)
        try:
            warm = fit_outcome(glm.fit_csv, *args)
            assert warm == self.cold_outcome(monkeypatch, *args)
        finally:
            csv.field_size_limit(limit)
        assert warm == ("DataError", f"{path}: data row 1: field larger than "
                                     f"field limit (10)")

    def test_one_parse_per_content(self, tmp_path, monkeypatch):
        parses = self.spy(monkeypatch, "_c_parsed_table")
        fits = self.spy(monkeypatch, "fit")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(self.GOOD, encoding="utf-8")
        b.write_text(self.OTHER, encoding="utf-8")
        for path in (a, a, a):
            glm.fit_csv(path, "y")
        assert len(parses) == len(fits) == 1
        parses.clear()
        fits.clear()
        monkeypatch.setattr(glm, "_last_fit", (None, None))
        for path in (a, b, a):
            glm.fit_csv(path, "y")
        assert len(parses) == len(fits) == 3
        # other columns or intercept on the same bytes parse and fit again
        parses.clear()
        fits.clear()
        glm.fit_csv(a, "y", ["b"])
        glm.fit_csv(a, "a")
        glm.fit_csv(a, "a", intercept=False)
        assert len(parses) == len(fits) == 3

    def test_changed_fit_setting_fits_again(self, tmp_path, monkeypatch):
        path = study_csv(tmp_path, "logit")
        glm.fit_csv(path, "y", family="logit")
        monkeypatch.setattr(glm, "MAX_ITER", 1)
        with pytest.raises(NotConvergedError,
                           match=f"^{re.escape(str(path))}: .*in 1 iterations"):
            glm.fit_csv(path, "y", family="logit")

    def test_caller_changing_its_predictor_list(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(self.GOOD, encoding="utf-8")
        predictors = ["a"]
        glm.fit_csv(path, "y", predictors)
        predictors.append("b")
        assert glm.fit_csv(path, "y", ["a"]).names == ("intercept", "a")
        assert glm.fit_csv(path, "y", predictors).names == \
            ("intercept", "a", "b")

    @pytest.mark.parametrize("predictors,intercept", [
        (None, True), (None, False), (["b"], False), (["a"], False)])
    def test_arrays_are_writable_and_not_kept(self, tmp_path, predictors,
                                              intercept):
        path = tmp_path / "data.csv"
        rows = [(i % 2, i * 0.37 % 1.3, (i * 0.71) % 2.1) for i in range(40)]
        path.write_text("y,a,b\n" + "".join(f"{y},{a!r},{b!r}\n"
                                            for y, a, b in rows),
                        encoding="utf-8")
        args = (path, "y", predictors, "logit", intercept)
        first, second = glm.fit_csv(*args), glm.fit_csv(*args)
        kept = glm._last_fit[1]
        for r in (first, second):
            assert r.beta.flags.writeable and r.cov.flags.writeable
            assert not np.shares_memory(r.beta, kept.beta)
            assert not np.shares_memory(r.cov, kept.cov)
            assert r.trace is not kept.trace
        assert not np.shares_memory(first.beta, second.beta)
        assert not np.shares_memory(first.cov, second.cov)
        assert first.trace is not second.trace
        assert first.trace == kept.trace and kept.trace
        expected = fit_outcome(reference_fit, *args)
        first.beta[0], first.cov[0, 0] = 99.0, 99.0
        first.trace.clear()
        assert fit_outcome(glm.fit_csv, *args) == expected
        assert fit_outcome(lambda: second) == expected

    @pytest.mark.parametrize("family", ["gaussian", "logit", "probit"])
    def test_analyze_records_equal_cold_calls(self, tmp_path, monkeypatch,
                                              family):
        data = study_csv(tmp_path, family)

        def records(cold):
            out = []
            for j, text in enumerate(("x4 < x5 < x6", "{x2, x3, x4} > 0",
                                      "x6 > 0")):
                if cold:
                    monkeypatch.setattr(glm, "_last_fit", (None, None))
                path = tmp_path / f"{cold}-{j}.json"
                assert cli.main(["analyze", "--data", str(data), "--family",
                                 family, "--outcome", "y", "--hypothesis",
                                 text, "--seed", str(11 + j), "--out",
                                 str(path)]) == 0
                out.append(path.read_bytes())
            return out

        assert records(cold=False) == records(cold=True)

    def test_analyze_fits_once_per_study(self, tmp_path, monkeypatch):
        fits = self.spy(monkeypatch, "fit")
        data = study_csv(tmp_path, "logit")

        def analyze(text, *options):
            return cli.main(["analyze", "--data", str(data), "--outcome", "y",
                             "--hypothesis", text, "--seed", "3", "--out",
                             str(tmp_path / "r.json"), *options])

        for text in ("x4 < x5 < x6", "{x2, x3, x4} > 0", "x6 > 0"):
            assert analyze(text, "--family", "logit") == 0
        assert len(fits) == 1
        # the same bytes under another family, or without the intercept,
        # are other fits
        assert analyze("x6 > 0", "--family", "probit") == 0
        assert analyze("x6 > 0", "--family", "probit", "--no-intercept") == 0
        assert analyze("x6 > 0", "--family", "probit", "--no-intercept") == 0
        assert len(fits) == 3

    def test_failed_fit_is_not_kept(self, tmp_path, monkeypatch, capsys):
        fits = self.spy(monkeypatch, "fit")
        single = tmp_path / "single.csv"
        single.write_text("y,x1\n" + "".join(f"1,{i}\n" for i in range(20)),
                          encoding="utf-8")
        good = study_csv(tmp_path, "logit")
        out = tmp_path / "r.json"

        def analyze(data):
            code = cli.main(["analyze", "--data", str(data), "--family",
                             "logit", "--outcome", "y", "--hypothesis",
                             "x1 > 0", "--seed", "3", "--out", str(out)])
            written = out.read_bytes() if code == 0 else None
            return code, capsys.readouterr().err, written

        first = analyze(good)
        assert first[0] == 0
        out.unlink()
        failed = analyze(single)
        assert failed == (3, f"error: {single}: binomial response contains "
                             f"a single class\n", None)
        assert analyze(single) == failed
        monkeypatch.setattr(glm, "_last_fit", (None, None))
        assert analyze(single) == failed
        assert analyze(good) == first
        assert len(fits) == 5


class TestDispatch:
    def test_fit_routes_by_family(self):
        rng = np.random.default_rng(1)
        X = np.column_stack([np.ones(60), rng.normal(size=60)])
        y_gauss = X @ np.array([0.5, 1.0]) + rng.normal(size=60)
        gaussian = fit(make_dataset(y_gauss, X, names=("intercept", "x")))
        assert gaussian.family == "gaussian"
        y_bin = (rng.random(60) < 0.5).astype(float)
        logit = fit(make_dataset(y_bin, X, family="logit",
                                 names=("intercept", "x")))
        assert logit.family == "logit"

    def test_not_converged_raises(self, monkeypatch):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(100), rng.normal(size=100)])
        y = (rng.random(100) < 0.5).astype(float)
        d = make_dataset(y, X, family="logit", names=("intercept", "x"))
        monkeypatch.setattr(glm, "MAX_ITER", 1)
        with pytest.raises(NotConvergedError, match="in 1 iterations"):
            fit_binomial(d)
