"""Maximum-likelihood fitting for the supported regression families.

Families: ``gaussian`` (ordinary least squares), ``logit`` and ``probit``
(Bernoulli outcomes fit by Newton iterations with step halving).  Fits
report the coefficient covariance used downstream: the unbiased-dispersion
normal-equations covariance for OLS and the inverse observed Fisher
information for the binomial links.

Newton fits stop once the max-abs score is below ``GRAD_TOL`` and give up
after ``MAX_ITER`` iterations.  A link supplies only its per-observation
log-likelihood, score residual and curvature; one Newton loop forms the
score, the observed information and the separation margin for both.  A
step is halved while it lowers the log-likelihood by more than
1e-12 * max(1, |log-likelihood|): the slack scales with the
log-likelihood, so rounding in a large study's sum does not reject a full
Newton step.

A fit is separated when every fitted probability came within
``SEPARATION_EPS`` of {0, 1} at some iterate, or when a coefficient ends
beyond ``SEPARATION_BETA_LIMIT`` in magnitude without score convergence.
An iterate's margin, max_i min(p_i, 1 - p_i), is taken as F(-min_i |z_i|)
with F the link's CDF and z the linear predictor: F is monotone and
F(-x) = 1 - F(x).  The fits read these constants when called.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.special import expit, log_ndtr, ndtr

FAMILIES = ("gaussian", "logit", "probit")
BINOMIAL_FAMILIES = ("logit", "probit")

COND_LIMIT = 1e12
MAX_ITER = 50
GRAD_TOL = 1e-8
SEPARATION_EPS = 1e-8
SEPARATION_BETA_LIMIT = 15.0


class GlmError(Exception):
    pass


class DataError(GlmError):
    """Malformed input data (CSV problems, bad outcome values, ...)."""


class SingularDesignError(GlmError):
    """X'X condition number at or above COND_LIMIT."""


class NotConvergedError(GlmError):
    """Newton iterations stopped without meeting the gradient tolerance:
    exhausted, or at a step no length of which improves the fit."""


class SeparationError(GlmError):
    """Fitted probabilities collapsed onto {0, 1} (complete separation)."""

    def __init__(self, message: str, trace: list | None = None):
        super().__init__(message)
        self.trace = trace or []


class IrlsStep(NamedTuple):
    loglik: float
    grad_inf: float
    max_abs_beta: float
    prob_margin: float  # max over observations of min(p, 1 - p)


@dataclass
class Dataset:
    """Design matrix, response and family, ready to fit.

    Invariants checked at construction: X is finite with more rows than
    columns, y is finite with matching length, and binomial responses take
    values in {0, 1} with both classes allowed to be checked at fit time.
    """

    X: np.ndarray
    y: np.ndarray
    family: str
    names: tuple[str, ...]

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2:
            raise DataError("X must be a 2-d array")
        n, p = self.X.shape
        if self.y.shape != (n,):
            raise DataError("y length does not match X")
        if n <= p:
            raise DataError(f"need more observations than coefficients (n={n}, p={p})")
        if not np.isfinite(self.X).all() or not np.isfinite(self.y).all():
            raise DataError("non-finite values in data")
        if self.family not in FAMILIES:
            raise DataError(f"unknown family {self.family!r}")
        if (self.family in BINOMIAL_FAMILIES
                and not ((self.y == 0.0) | (self.y == 1.0)).all()):
            raise DataError("binomial outcome must take values in {0, 1}")
        self.names = tuple(self.names)
        if len(self.names) != p:
            raise DataError("names length does not match X")
        if len(set(self.names)) != p:
            raise DataError("duplicate column names")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass
class FitResult:
    """Fitted coefficients and the quantities the evidence engine needs."""

    beta: np.ndarray
    cov: np.ndarray
    n: int
    family: str
    names: tuple[str, ...]
    trace: list[IrlsStep] = field(default_factory=list, repr=False)

    @property
    def p(self) -> int:
        """Number of coefficients, one per name."""
        return len(self.names)


def add_intercept(d: Dataset) -> Dataset:
    """Prepend a constant column named ``intercept``."""
    if "intercept" in d.names:
        raise DataError("column 'intercept' already present")
    X = np.column_stack([np.ones(d.n), d.X])
    return Dataset(X, d.y, d.family, ("intercept",) + d.names)


def dataset_from_csv(path, outcome: str, predictors: list[str] | None = None,
                     family: str = "gaussian", intercept: bool = True) -> Dataset:
    """Load a Dataset from a headed CSV file.

    The file is read once, as bytes, and parsed from that copy.  The header
    is read by ``csv.reader`` and the used columns of the body by numpy's C
    reader.  A file that reader cannot take exactly as ``csv.reader`` plus
    ``float()`` would is parsed again cell by cell, which is also where
    every data error is worded; both give the same doubles.  Nothing is
    kept between calls: every call reads, parses and checks its file.

    Parameters
    ----------
    path : str or Path
    outcome : str
        Column used as the response.
    predictors : list of str, optional
        Predictor columns, in order.  Defaults to every non-outcome column
        in file order.
    family : str
    intercept : bool
        Prepend a constant ``intercept`` column (default True).

    Raises
    ------
    DataError
        On missing columns, missing cells, non-numeric values, an outcome
        listed among the predictors, or columns a :class:`Dataset` rejects;
        every message names the file.
    """
    raw = _csv_bytes(path, outcome, predictors)
    return _dataset(path, raw, outcome, predictors, family, intercept)


def fit_csv(path, outcome: str, predictors: list[str] | None = None,
            family: str = "gaussian", intercept: bool = True) -> FitResult:
    """:func:`fit` of :func:`dataset_from_csv`'s Dataset, with every error
    message naming the file.

    The file is read once, as bytes.  The last fit is kept for the next
    call: a call on the same bytes with the same ``outcome``,
    ``predictors``, ``csv.field_size_limit()``, ``family`` and
    ``intercept``, under the same fit settings (``COND_LIMIT``,
    ``MAX_ITER``, ``GRAD_TOL``, ``SEPARATION_EPS`` and
    ``SEPARATION_BETA_LIMIT``), skips the parse, the Dataset checks and the
    fit, whatever the path.  One fit is kept per process; a call whose parse,
    checks or fit raises keeps nothing, so a repeat fails as a cold call
    does.  Every call returns its own :class:`FitResult`, with writable
    ``beta`` and ``cov`` and a ``trace`` list that no other call shares.

    Raises
    ------
    DataError
        As :func:`dataset_from_csv` does.
    GlmError
        Any error of :func:`fit`, its message prefixed with the path; the
        type, and a :class:`SeparationError`'s trace, are kept.
    """
    global _last_fit
    raw = _csv_bytes(path, outcome, predictors)
    key = (raw, outcome, None if predictors is None else tuple(predictors),
           csv.field_size_limit(), family, intercept, COND_LIMIT, MAX_ITER,
           GRAD_TOL, SEPARATION_EPS, SEPARATION_BETA_LIMIT)
    last_key, kept = _last_fit
    if last_key != key:
        d = _dataset(path, raw, outcome, predictors, family, intercept)
        try:
            kept = fit(d)
        except GlmError as exc:
            # reworded in place: the type and a SeparationError's trace stay
            exc.args = (f"{path}: {exc}",)
            raise
        _last_fit = key, kept
    # the kept fit never leaves the memo: a caller may change what it gets
    return replace(kept, beta=kept.beta.copy(), cov=kept.cov.copy(),
                   trace=list(kept.trace))


# (key, FitResult) of the last fit that succeeded; the key holds the file's
# bytes and every other input of the parse and the fit.  Kept as one tuple,
# replaced in one assignment, so a concurrent caller sees a key with its
# own fit.
_last_fit: tuple = (None, None)


def _csv_bytes(path, outcome: str, predictors: list[str] | None) -> bytes:
    """The bytes of the file at ``path``, once an outcome listed among the
    predictors has been refused without reading it."""
    if predictors is not None and outcome in predictors:
        raise DataError(f"{path}: outcome column {outcome!r} is also listed "
                        f"as a predictor")
    with open(path, "rb") as fh:
        return fh.read()


def _dataset(path, raw: bytes, outcome: str, predictors: list[str] | None,
             family: str, intercept: bool) -> Dataset:
    """The checked Dataset of ``raw``, the bytes of the file at ``path``."""
    parsed = _c_parsed_table(raw, outcome, predictors)
    if parsed is None:
        parsed = _cell_parsed_table(path, raw, outcome, predictors)
    names, table = parsed
    try:
        # contiguous copies, laid out as the per-cell reader's arrays always
        # were: BLAS results can depend on the layout
        d = Dataset(np.array(table[:, 1:], order="C"),
                    np.array(table[:, 0], order="C"), family, names)
        return add_intercept(d) if intercept else d
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _text(raw: bytes):
    """``raw`` as the text file ``open(path, newline="", encoding="utf-8")``
    gives."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")


def _c_parsed_table(raw: bytes, outcome: str, predictors: list[str] | None):
    """(predictor names, table with the outcome column first) parsed from a
    file's bytes by ``np.loadtxt``, or None when the file needs
    ``_cell_parsed_table``.

    None is returned for any header problem, any cell numpy rejects
    (blanks, text, ``1_0``) and any line the two readers could take
    differently: ``loadtxt`` skips an empty line where ``csv.reader``
    returns an empty row, splits inside quotes, strips the separators
    U+001C to U+001F that ``float()`` rejects, and does not share csv's
    NUL and field-size rules.  A cell numpy accepts is the double
    ``float()`` gives: both parse with ``PyOS_string_to_double``.
    """
    limit = csv.field_size_limit()

    def checked(lines):
        for line in lines:
            if (line[0] in "\r\n" or '"' in line or "\0" in line
                    or "\x1c" in line or "\x1d" in line or "\x1e" in line
                    or "\x1f" in line or len(line) > limit):
                raise ValueError("line needs the per-cell reader")
            yield line

    with _text(raw) as fh:
        try:
            header = next(csv.reader(fh))
            if predictors is None:
                predictors = [c for c in header if c != outcome]
            used = [outcome, *predictors]
            if not set(used) <= set(header):
                return None
            first = next(fh, None)  # loadtxt warns on an empty body
            if first is None:
                return None
            table = np.loadtxt(checked(itertools.chain((first,), fh)),
                               delimiter=",", comments=None,
                               usecols=[header.index(c) for c in used],
                               ndmin=2, dtype=float)
        except (StopIteration, ValueError, csv.Error):
            return None
    return predictors, table


def csv_read_error(path, exc: UnicodeDecodeError | csv.Error,
                   rows_read: int | None) -> DataError:
    """The DataError for a CSV file its reader gave up on: a file that is
    not UTF-8 text, or a ``csv.Error`` in the header (``rows_read`` None)
    or in the data row after the ``rows_read`` the reader returned."""
    if isinstance(exc, UnicodeDecodeError):
        return DataError(f"{path}: not UTF-8 text ({exc})")
    where = "header" if rows_read is None else f"data row {rows_read + 1}"
    return DataError(f"{path}: {where}: {exc}")


def _cell_parsed_table(path, raw: bytes, outcome: str,
                       predictors: list[str] | None):
    """``_c_parsed_table``'s result from ``csv.reader`` and one ``float()``
    per used cell of ``raw``, the bytes of the file at ``path``; raises the
    DataError that names ``path`` and the first bad cell, the row holding a
    cell longer than ``csv.field_size_limit()``, or a file that is not
    UTF-8 text."""
    header, rows = None, []
    with _text(raw) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            for row in reader:
                rows.append(row)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        except (UnicodeDecodeError, csv.Error) as exc:
            raise csv_read_error(path, exc, None if header is None else len(rows)) from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    if outcome not in header:
        raise DataError(f"{path}: outcome column {outcome!r} not found")
    if predictors is None:
        predictors = [c for c in header if c != outcome]
    missing = [c for c in predictors if c not in header]
    if missing:
        raise DataError(f"{path}: predictor columns {missing} not found")

    def column(name: str) -> np.ndarray:
        j = header.index(name)
        out = np.empty(len(rows))
        for i, row in enumerate(rows):
            if j >= len(row) or row[j].strip() == "":
                raise DataError(f"{path}: missing value in column {name!r}, data row {i + 1}")
            try:
                out[i] = float(row[j])
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric value {row[j]!r} in column {name!r}, "
                    f"data row {i + 1}") from None
        return out

    return predictors, np.column_stack([column(c) for c in [outcome, *predictors]])


def _condition_guard(X: np.ndarray):
    XtX = X.T @ X
    # X'X is symmetric positive semidefinite: its condition number is the
    # eigenvalue ratio, infinite when the least eigenvalue is not positive
    lam = np.linalg.eigvalsh(XtX)
    cond = lam[-1] / lam[0] if lam[0] > 0.0 else math.inf
    if not np.isfinite(cond) or cond >= COND_LIMIT:
        raise SingularDesignError(f"X'X condition number {cond:.3e} exceeds {COND_LIMIT:.0e}")
    return XtX


def fit_ols(d: Dataset) -> FitResult:
    """Ordinary least squares via the normal equations.

    Dispersion is the unbiased estimate RSS / (n - p) and the coefficient
    covariance is dispersion * (X'X)^-1.

    Raises
    ------
    DataError
        If the residual sum of squares is zero: at most 1e-12 of the
        outcome's sum of squares about its mean (R^2 >= 1 - 1e-12), or of
        eps * y'y, the rounding level of a constant outcome.  The posterior
        scale, hence every Bayes factor, is then degenerate.  Both bounds
        scale with y, so an outcome far from zero or in small units is
        judged by its own spread.
    """
    if d.family != "gaussian":
        raise DataError(f"fit_ols requires the gaussian family, got {d.family!r}")
    X, y = d.X, d.y
    XtX = _condition_guard(X)
    beta = np.linalg.solve(XtX, X.T @ y)
    resid = y - X @ beta
    rss = float(resid @ resid)
    spread = float(np.sum((y - y.mean()) ** 2))
    if rss <= 1e-12 * max(spread, np.finfo(float).eps * float(y @ y)):
        raise DataError("residual sum of squares is zero: the outcome is a "
                        "linear function of the predictors, so the posterior "
                        "scale is degenerate")
    phi = rss / (d.n - d.p)
    cov = phi * np.linalg.inv(XtX)
    cov = (cov + cov.T) / 2.0
    return FitResult(beta=beta, cov=cov, n=d.n, family=d.family,
                     names=d.names)


def _logit_terms(y, z):
    """The logit log-likelihood, score residual ``y - mu`` and curvature
    ``mu (1 - mu)`` at the linear predictor ``z``, with ``mu = expit(z)``.
    Each log(1 + e^z) is max(z, 0) + log1p(e^-|z|), the formula
    ``np.logaddexp(0, z)`` evaluates, taken here in whole-array passes."""
    mu = expit(z)
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    return float(y @ z - softplus.sum()), y - mu, mu * (1.0 - mu)


def _probit_terms(y, y0, sign, z):
    """The probit log-likelihood, score residual ``sign * r`` and curvature
    ``r^2 + sign * z * r`` at the linear predictor ``z``, with
    ``y0 = 1 - y`` and ``sign = 2y - 1`` given once per fit.  ``log_p`` is
    log P(Y = y), so one ``log_ndtr`` and one Mills ratio ``r`` serve both
    classes."""
    sz = sign * z
    log_p = log_ndtr(sz)
    # the two dots add the same terms as y @ log P(Y = 1) + y0 @ log P(Y = 0)
    loglik = float(y @ log_p + y0 @ log_p)
    log_pdf = -0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
    r = np.exp(log_pdf - log_p)
    return loglik, sign * r, r * r + sz * r


def _newton_parts(X, z, resid, curv, cdf):
    """The score, observed information and separation margin of the
    iterate with linear predictor ``z``, from its link's score residual
    ``resid`` and curvature ``curv`` and the link's CDF ``cdf``.

    The margin, max_i min(p_i, 1 - p_i), is F(-min_i |z_i|): F is
    monotone with F(-x) = 1 - F(x), so the observation nearest z = 0 sets
    it, and no 1 - p is rounded."""
    margin = float(cdf(-np.abs(z).min()))
    return X.T @ resid, X.T @ (curv[:, None] * X), margin


def fit_binomial(d: Dataset) -> FitResult:
    """Newton fit of a logit or probit regression.

    Each step solves the observed-information system and halves the step
    while it lowers the log-likelihood by more than
    1e-12 * max(1, |log-likelihood|).  Convergence requires the max-abs
    score to fall below ``GRAD_TOL`` within ``MAX_ITER`` iterations.  The
    coefficient covariance is the inverse observed Fisher information at
    the optimum.

    Raises
    ------
    DataError
        If the family is not binomial (the one place that rule is checked)
        or the response holds a single class.
    SeparationError
        If the iterate history satisfies :func:`detect_separation` (all
        fitted probabilities within ``SEPARATION_EPS`` of {0, 1} at some
        iterate, or coefficients beyond ``SEPARATION_BETA_LIMIT`` without
        score convergence).
    NotConvergedError
        If iterations are exhausted, or no step length improves the
        log-likelihood, without separation; the message names which, and
        the iteration a line search failed in.
    """
    if d.family not in BINOMIAL_FAMILIES:
        raise DataError(f"fit_binomial requires a binomial family, got {d.family!r}")
    if d.y.min() == d.y.max():
        raise DataError("binomial response contains a single class")
    X, y = d.X, d.y
    _condition_guard(X)
    if d.family == "logit":
        terms, cdf = functools.partial(_logit_terms, y), expit
    else:
        terms = functools.partial(_probit_terms, y, 1.0 - y, 2.0 * y - 1.0)
        cdf = ndtr

    beta = np.zeros(d.p)
    z = X @ beta
    loglik, resid, curv = terms(z)
    trace: list[IrlsStep] = []
    stop = f"no convergence in {MAX_ITER} iterations"
    while True:
        grad, neg_hess, margin = _newton_parts(X, z, resid, curv, cdf)
        grad_inf = max(map(abs, grad.tolist()))
        trace.append(IrlsStep(loglik, grad_inf, max(map(abs, beta.tolist())),
                              margin))
        if grad_inf < GRAD_TOL or len(trace) > MAX_ITER:
            break
        try:
            delta = np.linalg.solve(neg_hess, grad)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(neg_hess, grad, rcond=None)[0]
        floor = loglik - 1e-12 * max(1.0, abs(loglik))
        step = 1.0
        while step > 2.0 ** -30:
            cand = beta + step * delta
            cand_z = X @ cand
            cand_terms = terms(cand_z)
            if cand_terms[0] >= floor:
                break
            step /= 2.0
        else:
            stop = (f"no step length improves the log-likelihood in Newton "
                    f"iteration {len(trace)}")
            break
        beta, z = cand, cand_z
        loglik, resid, curv = cand_terms

    if detect_separation(trace):
        raise SeparationError("complete separation detected", trace=trace)
    if not grad_inf < GRAD_TOL:
        raise NotConvergedError(f"{stop} (|score| = {grad_inf:.3e})")

    cov = np.linalg.inv(neg_hess)
    cov = (cov + cov.T) / 2.0
    return FitResult(beta=beta, cov=cov, n=d.n, family=d.family,
                     names=d.names, trace=trace)


def fit(d: Dataset) -> FitResult:
    """Dispatch to :func:`fit_ols` or :func:`fit_binomial` by family."""
    if d.family == "gaussian":
        return fit_ols(d)
    return fit_binomial(d)


def detect_separation(trace: list[IrlsStep]) -> bool:
    """Separation predicate over a binomial fit's Newton iterate history.

    True when every fitted probability sat within ``SEPARATION_EPS`` of
    {0, 1} at any iterate, or when the final iterate has a coefficient
    beyond ``SEPARATION_BETA_LIMIT`` in magnitude while the score never met
    ``GRAD_TOL``; False for an empty history.  The family is checked where
    the history is made, in :func:`fit_binomial`.
    """
    if not trace:
        return False
    if any(step.prob_margin <= SEPARATION_EPS for step in trace):
        return True
    last = trace[-1]
    return last.max_abs_beta > SEPARATION_BETA_LIMIT and last.grad_inf >= GRAD_TOL
