"""Bayes factors for constrained hypotheses against the unconstrained model.

A fitted model yields a coefficient posterior; a small fraction of the
likelihood information yields an adjusted prior centered on the boundary of
the hypothesis.  The Bayes factor of hypothesis vs unconstrained model is
fit over complexity: the posterior and prior masses of the constrained
region for inequality constraints, and the posterior and prior densities at
the constraint point for equality constraints (the Savage-Dickey ratio).
Mixed systems multiply the equality density ratio by the ratio of
conditional inequality probabilities given the equalities.  A law enters
through its block on the coefficients that the hypothesis constrains, and
its densities, normal or Student-t of any positive whole df, are exact.

Region probabilities are deterministic where a closed form or a rule
exists: for one inequality row, the exact CDF of an orthant, and of a
slab with two bounds a difference of tail CDFs or, where that would
cancel, a Gauss-Legendre rule on the density; 1/4 + asin(rho) / 2pi and
1/8 + sum asin(rho_ij) / 4pi for zero-mean two- and three-row orthants of
any elliptical law (every boundary-centered prior of a homogeneous
hypothesis); Owen's T for nonzero-mean bivariate normal orthants, and for
two-row boxes with finite bounds by inclusion-exclusion over their corners,
and a 32-node Gauss rule whose weight is the chi density of the mixing
scale s = sqrt(W / nu), W ~ chi2(nu), for their Student-t counterparts;
for nonzero-mean trivariate orthants, Plackett's identity: one integral
over a straight path of correlation matrices by Gauss-Legendre rules, with
a closed-form Student-t integrand.
Only four or more rows, three-row boxes with a finite bound, or a
trivariate rule whose error estimate is too large, use Genz-Bretz
randomized lattice QMC seeded from the caller's generator; scipy.stats,
which holds it, is imported on that first use.
Rank-deficient constraint scales reduce to fewer rows first.  Every mass
of two rows, a full-rank pair or what a reduction leaves, is taken on
Python floats by one routine, as every one-row mass is by another, since
numpy's dispatch on two-element arrays costs several times the arithmetic.
Every mass reports an error estimate and the name of its method
(:data:`MASS_METHODS`; "mc", the Monte Carlo sampler, names only masses of
records written by earlier versions).  Zero-mass corner cases are reported
with +-inf sentinels; a 0/0 Bayes factor raises :class:`NumericError`.

Each study's evidence is a frozen :class:`EvidenceRecord`, made from a fit
by :func:`evaluate` or from two laws by :func:`bf_iu`; the Bayes
factors against and of the complement are read from it by :func:`bf_ic`
and :func:`bf_cu`, and the one against a named alternative by
:func:`log_bf`.  Priors and posterior model probabilities across
studies belong to :mod:`evsynth.synthesis`.
"""

from __future__ import annotations

import functools
import math
import warnings as _warnings
from dataclasses import MISSING, asdict, dataclass

import numpy as np
from scipy.special import ndtr, owens_t, stdtr

from . import hypothesis as hyp
from .glm import FAMILIES, DataError, FitResult

DEFAULT_DRAWS = 100_000
ALTERNATIVES = ("unconstrained", "complement")
MASS_METHODS = ("exact", "quadrature", "qmc", "mc")   # most exact first


class NumericError(ArithmeticError):
    """Degenerate Bayes factor arithmetic (0/0 masses, bad scale matrices)."""


@dataclass(frozen=True)
class CoefDistribution:
    """Student-t distribution over named coefficients with a whole ``df``
    of at least 1; above _CHI_DF_MAX, the default infinity included, it is
    the normal law, for densities and masses alike."""

    mean: np.ndarray
    scale: np.ndarray
    names: tuple[str, ...]
    df: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "scale", np.asarray(self.scale, dtype=float))
        object.__setattr__(self, "names", tuple(self.names))
        p = self.mean.shape[0]
        if self.scale.shape != (p, p):
            raise ValueError("scale shape does not match mean")
        if len(self.names) != p:
            raise ValueError("names length does not match mean")
        _check_law(self.df, self.mean, self.scale)
        if np.abs(self.scale - self.scale.T).max(initial=0.0) > 1e-10:
            raise ValueError("scale matrix is not symmetric")

    @property
    def kind(self) -> str:
        """The law's name, "normal" or "student-t", read from ``df``."""
        return "normal" if self.df > _CHI_DF_MAX else "student-t"


def _check_law(df: float, *arrays: np.ndarray):
    """ValueError unless a law's arrays are finite and its df a positive
    whole number, or above _CHI_DF_MAX (the normal law)."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("mean and scale must be finite")
    if df is None or not df > 0:
        raise ValueError(f"degrees of freedom must be positive, got {df!r}")
    if df <= _CHI_DF_MAX and df % 1:
        raise ValueError(f"a Student-t df must be a whole number, got {df!r}")


@dataclass(frozen=True)
class FractionSpec:
    """Fraction b of the likelihood information granted to the prior."""

    b: float

    def __post_init__(self):
        if not (0.0 < self.b < 1.0):
            raise ValueError(f"fraction b must lie in (0, 1), got {self.b!r}")


def json_safe(obj):
    """Copy of ``obj`` with infinite floats, at any depth of dicts, lists
    and tuples, replaced by the strings "inf" / "-inf"."""
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _record_float(key: str, value) -> float:
    """``float(value)``, or the ValueError of evidence record field ``key``
    when ``value`` is a bool or what ``float()`` does not take."""
    if isinstance(value, bool):   # float(True) is 1.0
        raise ValueError(f"evidence record field {key!r} must be a number, "
                         f"got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(
            f"evidence record has a non-numeric field: {exc}") from None


@dataclass(frozen=True)
class EvidenceRecord:
    """One hypothesis evaluated in one study, checked when made (by
    :func:`bf_iu`, :meth:`from_dict` or directly): ValueError unless text
    fields are strings, number fields (``log_bf_ic`` may be None) not bools,
    what ``float()`` takes and not NaN (±inf, or "inf" / "-inf", is the
    sentinel), ``fit``, ``complexity`` and their ``mc_se_*`` non-negative,
    ``fit`` and ``complexity`` at most 1 when ``log_bf_ic`` is not None (an
    inequality-only hypothesis, whose masses are probabilities), counts
    integral and non-negative, and the alternative and mass method known
    (:data:`ALTERNATIVES`, :data:`MASS_METHODS`).
    Numbers are stored as floats and counts as ints.
    Records are frozen, so a record stays as checked."""

    study_id: str
    hypothesis: str
    fit: float
    complexity: float
    log_bf_iu: float
    log_bf_ic: float | None
    mc_se_fit: float
    mc_se_complexity: float
    mc_draws: int
    family: str = ""
    n: int = 0
    alternative: str = "unconstrained"
    mass_method: str = ""      # least exact of MASS_METHODS used; "" = unknown

    def __post_init__(self):
        for key in ("study_id", "hypothesis", "family"):
            if not isinstance(getattr(self, key), str):
                raise ValueError(f"evidence record field {key!r} must be a string")
        for key in ("fit", "complexity", "log_bf_iu", "log_bf_ic",
                    "mc_se_fit", "mc_se_complexity"):
            value = getattr(self, key)
            if type(value) is not float and (value is not None
                                             or key != "log_bf_ic"):
                value = _record_float(key, value)
                object.__setattr__(self, key, value)
            if value != value:
                raise ValueError(f"evidence record field {key!r} is NaN")
        for key in ("fit", "complexity", "mc_se_fit", "mc_se_complexity"):
            if getattr(self, key) < 0.0:
                raise ValueError(f"evidence record field {key!r} must be "
                                 f"non-negative, got {getattr(self, key)!r}")
        if self.log_bf_ic is not None:
            for key in ("fit", "complexity"):
                if getattr(self, key) > 1.0:
                    raise ValueError(f"evidence record field {key!r} of an "
                                     f"inequality-only hypothesis is a "
                                     f"probability, got {getattr(self, key)!r}")
        for key in ("mc_draws", "n"):
            value = getattr(self, key)
            # an int is kept whole, past 2**53 too
            count = value if type(value) is int else _record_float(key, value)
            if not (count >= 0 and count % 1 == 0):   # inf % 1 is nan
                raise ValueError(f"evidence record field {key!r} must be a "
                                 f"non-negative integer, got {value!r}")
            if type(value) is not int:
                object.__setattr__(self, key, int(count))
        if self.alternative not in ALTERNATIVES:
            raise ValueError(f"evidence record has unknown alternative "
                             f"{self.alternative!r}; expected one of "
                             f"{list(ALTERNATIVES)}")
        if self.mass_method not in ("",) + MASS_METHODS:
            raise ValueError(f"evidence record has unknown mass method "
                             f"{self.mass_method!r}; expected one of "
                             f"{list(MASS_METHODS)}")

    def to_dict(self) -> dict:
        return json_safe(asdict(self))

    @classmethod
    def from_dict(cls, data) -> "EvidenceRecord":
        """Record from a decoded JSON object, unknown keys dropped; the
        constructor checks values.

        Raises
        ------
        DataError
            If ``data`` is not an object, lacks a required field, or the
            constructor rejects it (with the constructor's message).
        """
        if not isinstance(data, dict):
            raise DataError(f"evidence record must be an object, "
                            f"got {type(data).__name__}")
        fields = cls.__dataclass_fields__
        missing = [k for k, f in fields.items()
                   if f.default is MISSING and k not in data]
        if missing:
            raise DataError(f"evidence record lacks fields {missing}")
        try:
            return cls(**{k: v for k, v in data.items() if k in fields})
        except ValueError as exc:
            raise DataError(str(exc)) from None


def _law_dfs(fit: FitResult) -> tuple[float, float]:
    """The df of ``fit``'s posterior and adjusted prior: n - p and 1
    (Student-t, Cauchy) for a gaussian fit, normal laws for a binomial one;
    ValueError for arrays not of shapes (p,), (p, p) or an unknown family."""
    p = fit.p
    if fit.beta.shape != (p,) or fit.cov.shape != (p, p):
        raise ValueError(f"fit arrays of shapes {fit.beta.shape} and "
                         f"{fit.cov.shape} do not match its {p} names")
    if fit.family not in FAMILIES:
        raise ValueError(f"unknown family {fit.family!r}")
    return ((float(fit.n - p), 1.0) if fit.family == "gaussian"
            else (math.inf, math.inf))


def build_posterior(fit: FitResult) -> CoefDistribution:
    """Coefficient posterior: Student-t(beta, cov, n - p) for gaussian fits,
    Normal(beta, cov) for binomial fits."""
    return CoefDistribution(fit.beta, fit.cov, fit.names, _law_dfs(fit)[0])


def build_prior(fit: FitResult, frac: FractionSpec,
                center: np.ndarray) -> CoefDistribution:
    """Adjusted fractional prior: scale cov / b, centered at ``center``.

    Gaussian fits give a Cauchy (Student-t with df 1); binomial fits give a
    Normal.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != fit.beta.shape:
        raise ValueError("center length does not match the fitted coefficients")
    return CoefDistribution(center, fit.cov / frac.b, fit.names,
                            _law_dfs(fit)[1])


def default_fraction(fit: FitResult,
                     systems: list[hyp.ConstraintSystem]) -> FractionSpec:
    """Family rule for the one hypothesis in ``systems``: b = (p + 1) / n
    for gaussian, with p counting every design column, and b = J / n for
    binomial, with J the number of independent constraints of the
    hypothesis, its rank.

    Raises
    ------
    ValueError
        Unless ``systems`` holds exactly one hypothesis.
    DataError
        If a gaussian fit has n = p + 1 observations, where the rule
        reaches b = 1.  (A binomial J is at most p, below n.)
    """
    if len(systems) != 1:
        raise ValueError(f"the default fraction is for one hypothesis, "
                         f"got {len(systems)}")
    if fit.family == "gaussian":
        if fit.n <= fit.p + 1:
            raise DataError(
                f"n = {fit.n} observations with p = {fit.p} coefficients give "
                f"the default fraction b = (p + 1) / n = 1; a gaussian study "
                f"needs n > p + 1 = {fit.p + 1}")
        return FractionSpec((fit.p + 1) / fit.n)
    return FractionSpec(systems[0].rank / fit.n)


def adjustment_center(h: hyp.ConstraintSystem,
                      names: tuple[str, ...] | None = None) -> np.ndarray:
    """Boundary point the adjusted prior is centered on, as a fresh array.

    ``h.center``, the minimum-norm solution of the stacked boundary system
    ``[R_e; R_i] beta = [r_e; r_i]``, embedded into the coefficient space
    ``names`` (zeros elsewhere; ``h.param_names`` by default).  If the
    system is inconsistent it is the least-squares solution, and every
    call warns with a RuntimeWarning.
    """
    names = h.param_names if names is None else names
    out = np.zeros(len(names))
    out[hyp.columns(h, names)] = h.center
    _warn_inconsistent(h)
    return out


def _warn_inconsistent(h: hyp.ConstraintSystem):
    """Warn at the caller of the public function that calls this one."""
    if not h.consistent:
        _warnings.warn("inconsistent boundary system; least-squares center used",
                       RuntimeWarning, stacklevel=3)


# ---------------------------------------------------------------------------
# region probabilities and densities

@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes of the 64- and 32-point Gauss-Legendre rules on (0, 1), the
    path of :func:`_tvn_orthant` (and a narrow slab of :func:`_slab`, the
    32-point rule), stacked, and the weights of each; built on first use,
    not at import."""
    rules = [np.polynomial.legendre.leggauss(n) for n in (64, 32)]
    nodes = np.concatenate([(x + 1.0) / 2.0 for x, _ in rules])
    return nodes, rules[0][1] / 2.0, rules[1][1] / 2.0


@functools.cache
def _stieltjes_grid() -> tuple[np.ndarray, np.ndarray]:
    """The 200-point Gauss-Legendre rule on (-1, 1), which discretizes the
    weight of :func:`_chi_rule`; built on first use, not at import."""
    return np.polynomial.legendre.leggauss(200)


# a law with more degrees of freedom is the normal law: the spread of s
# would move a mass by about 1 / df, far below _QUAD_FLOOR, while the grid
# of _chi_rule would lose its resolution
_CHI_DF_MAX = 1e12


@functools.lru_cache(maxsize=64)
def _chi_rule(df: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes of the 32- and 16-point Gauss rules for s = sqrt(W / df),
    W ~ chi2(df), stacked, and the weights of each, read-only; built once
    per df (a fit size, or 1 for the Cauchy prior), not at import.

    Student-t masses average normal ones over s, whose density is
    proportional to s^(df - 1) exp(-df s^2 / 2) on (0, inf).  The masses
    are smooth in s at every df, so Gauss rules for that weight converge
    fast, the Cauchy prior (df = 1) included; |S32 - S16| is the error
    estimate.  The recurrence coefficients come from the discretized
    Stieltjes procedure (Gautschi 2004, Orthogonal Polynomials:
    Computation and Approximation) on a 200-point Gauss grid over the
    weight's bulk, the nodes and weights from the eigenvectors of the
    Jacobi matrix, the 16-point rule from its leading block (Golub &
    Welsch 1969, Math. Comp. 23:221).  As df is whole
    (:func:`_check_law`), the power s^(df - 1) is smooth where the bulk
    reaches s = 0 too, so a Gauss-Legendre grid discretizes the weight.
    """
    # s in [a, b] is W = df s^2 in df -+ 40 sqrt(2 df) + 800: the chi-square
    # mass above is below exp(-400) (Laurent & Massart 2000, Ann. Statist.
    # 28:1302), the mass below smaller still
    spread = 40.0 / math.sqrt(2.0 * df)
    a, b = max(1.0 - spread, 0.0), 1.0 + spread
    x, w = _stieltjes_grid()
    s = (b - a) / 2.0 * x + (b + a) / 2.0
    log_w = (df - 1.0) * np.log(s) - df * s * s / 2.0
    w = w * np.exp(log_w - log_w.max())
    w /= w.sum()
    # orthonormal recurrence s p_k = beta_k p_(k+1) + alpha_k p_k + beta_(k-1) p_(k-1)
    alpha, beta = np.empty(32), np.empty(32)
    p_prev, p, b_prev = np.zeros_like(s), np.ones_like(s), 0.0
    for k in range(32):
        alpha[k] = w @ (s * p * p)
        q = (s - alpha[k]) * p - b_prev * p_prev
        beta[k] = b_prev = math.sqrt(w @ (q * q))
        p_prev, p = p, q / b_prev
    jacobi = np.diag(alpha) + np.diag(beta[:31], 1) + np.diag(beta[:31], -1)
    rules = [np.linalg.eigh(jacobi[:n, :n]) for n in (32, 16)]
    out = (np.concatenate([nodes for nodes, _ in rules]),
           *(vecs[0] ** 2 for _, vecs in rules))
    for array in out:
        array.flags.writeable = False
    return out


# Lattice QMC grows until its error estimate is below QMC_SE or ``draws``
# points are spent; the first rule has _QMC_START points.
QMC_SE = 1e-5
_QMC_START = 1_000
_QMC_MIN = 20          # ten randomly shifted copies of the 2-point lattice
_RHO_TOL = 1e-12       # |correlation| above 1 - _RHO_TOL: the same row
_QUAD_FLOOR = 1e-8     # least error estimate of a quadrature rule


def _bvn_orthant(h, k, rho: float) -> np.ndarray:
    """P(Z1 < h, Z2 < k) for standard normals with correlation |rho| < 1,
    elementwise over ``h`` and ``k``, through Owen's T function
    (Owen 1956, Ann. Math. Stat. 27:1075).

    Single corners (two-row masses of a normal law) take
    :func:`_bvn_corner` on floats, whose operations are these in the same
    order, as numpy's dispatch costs several times the arithmetic there.
    """
    h, k = np.broadcast_arrays(np.asarray(h, dtype=float),
                               np.asarray(k, dtype=float))
    r = math.sqrt((1.0 - rho) * (1.0 + rho))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a_h = np.where(h == 0.0, np.copysign(np.inf, k), (k - rho * h) / (h * r))
        a_k = np.where(k == 0.0, np.copysign(np.inf, h), (h - rho * k) / (k * r))
    # one bound negative and the other not; a sign test, as h * k can
    # underflow to 0
    beta = np.where((h < 0.0) != (k < 0.0), 0.5, 0.0)
    p = 0.5 * (ndtr(h) + ndtr(k)) - owens_t(h, a_h) - owens_t(k, a_k) - beta
    corner = 0.25 + math.asin(rho) / (2.0 * math.pi)
    return np.clip(np.where((h == 0.0) & (k == 0.0), corner, p), 0.0, 1.0)


def _bvn_corner(h: float, k: float, rho: float) -> float:
    """:func:`_bvn_orthant` at one (h, k), on floats."""
    r = math.sqrt((1.0 - rho) * (1.0 + rho))   # first: |rho| > 1 raises here
    if h == 0.0 and k == 0.0:
        return _unit(0.25 + math.asin(rho) / (2.0 * math.pi))
    a_h = (math.copysign(math.inf, k) if h == 0.0
           else _ieee_div(k - rho * h, h * r))
    a_k = (math.copysign(math.inf, h) if k == 0.0
           else _ieee_div(h - rho * k, k * r))
    beta = 0.5 if (h < 0.0) != (k < 0.0) else 0.0
    p = (0.5 * (float(ndtr(h)) + float(ndtr(k))) - float(owens_t(h, a_h))
         - float(owens_t(k, a_k)) - beta)
    return _unit(p)


def _ieee_div(x: float, y: float) -> float:
    """x / y as numpy divides: +-inf or nan where y is zero (h * r can
    underflow)."""
    if y != 0.0:
        return x / y
    if x == 0.0 or x != x:
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


# index pairs (i, j), i < j, of three-row correlations; the third row of
# each pair is 3 - i - j
_UPPER_PAIRS_3 = (np.array([0, 0, 1]), np.array([1, 2, 2]))


def _tvn_orthant(h: np.ndarray, corr: np.ndarray,
                 df: float) -> tuple[float, float] | None:
    """P(Z < h) for a trivariate normal or Student-t Z with unit scales
    and correlation ``corr``, and its error estimate; None when the
    estimate exceeds QMC_SE.

    Plackett's identity (Plackett 1954, Biometrika 41:351; Genz 2004,
    Stat. Comput. 14:251) integrates along R(t) = I + t (corr - I), which
    is positive definite for t in (0, 1), from independent rows at t = 0:
    dP/dt sums corr_ij phi2(h_i, h_j; rho) Phi(c_k) over the pairs (i, j),
    with rho = t corr_ij and c_k the third row's bound standardized given
    Z_i = h_i and Z_j = h_j under R(t).  Over the chi scale of a Student-t
    law a term averages in closed form to (1 + q / nu)^(-nu / 2)
    / (2 pi sqrt(1 - rho^2)) T_nu(c_k sqrt(nu / (nu + q))), q the pair's
    quadratic form, and the start value prod Phi(s h_i) takes the rule of
    :func:`_chi_rule`.  All three pairs run at the nodes of
    :func:`_legendre_rule` at once; the error estimate is |G64 - G32|, plus
    |S32 - S16| of a Student-t start value, floored at _QUAD_FLOOR.
    """
    nodes, w64, w32 = _legendre_rule()
    i, j = _UPPER_PAIRS_3
    k = 3 - i - j
    t = nodes[:, None]
    rho, a, b = t * corr[i, j], t * corr[k, i], t * corr[k, j]
    one_m = (1.0 - rho) * (1.0 + rho)
    h_i, h_j, h_k = h[i], h[j], h[k]
    q = (h_i * h_i - 2.0 * rho * h_i * h_j + h_j * h_j) / one_m
    mu_k = ((a - b * rho) * h_i + (b - a * rho) * h_j) / one_m
    # det R(t) / (1 - rho^2): rounding can take it to or below 0 near t = 1
    # for a singular corr, and the nan that follows sends the mass to QMC
    var_k = (one_m - a * a - b * b + 2.0 * a * b * rho) / one_m
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (h_k - mu_k) / np.sqrt(var_k)
        if df > _CHI_DF_MAX:
            terms = np.exp(-q / 2.0) * ndtr(c)
            start, start_err = float(np.prod(ndtr(h))), 0.0
        else:
            terms = (np.exp(-df / 2.0 * np.log1p(q / df))
                     * stdtr(df, c * np.sqrt(df / (df + q))))
            s, v32, v16 = _chi_rule(df)
            starts = ndtr(np.outer(s, h)).prod(axis=1)
            start = float(v32 @ starts[:32])
            start_err = abs(start - float(v16 @ starts[32:]))
    g = (terms * (corr[i, j] / (2.0 * math.pi * np.sqrt(one_m)))).sum(axis=1)
    g64 = float(w64 @ g[:64])
    err = max(abs(g64 - float(w32 @ g[64:])) + start_err, _QUAD_FLOOR)
    if not err <= QMC_SE:   # nan too
        return None
    return _unit(start + g64), err


def _standard_box(mean: np.ndarray, scale: np.ndarray):
    """Bounds and correlation with P(eta > 0) = P(lo < Z < hi), Z having
    unit scales; None when that region is empty.

    Rank-deficient scales reduce to fewer rows: a zero-variance row is
    dropped when its mean is positive and empties the region otherwise,
    and a row perfectly correlated with an earlier one narrows that row's
    bounds instead of adding a dimension.  :func:`_orthant_prob` standardizes
    a single row with positive variance, and a full-rank pair, on floats
    itself; one row reaches this array form only without variance, and two
    only when one has none or |rho| >= 1 - _RHO_TOL.
    """
    var = np.diag(scale)
    sure = var <= 0.0
    if sure.any():
        if (mean[sure] <= 0.0).any():
            return None
        mean, scale, var = mean[~sure], scale[~sure][:, ~sure], var[~sure]
    s = np.sqrt(var)
    corr = scale / np.outer(s, s)
    # one row, or none left, is positive semidefinite
    if corr.shape[0] > 1 and not np.linalg.eigvalsh(corr)[0] >= -1e-8:
        raise NumericError("transformed scale matrix is not positive semidefinite")
    lo = -(mean / s)
    hi = np.full(lo.shape, np.inf)
    same = np.abs(corr) >= 1.0 - _RHO_TOL
    if same.sum() == lo.shape[0]:      # only the diagonal
        return lo, hi, corr
    alive = np.ones(lo.shape, dtype=bool)
    for i, j in zip(*np.nonzero(same)):
        if i >= j or not (alive[i] and alive[j]):
            continue
        if corr[i, j] > 0.0:
            lo[i], hi[i] = max(lo[i], lo[j]), min(hi[i], hi[j])
        else:
            lo[i], hi[i] = max(lo[i], -hi[j]), min(hi[i], -lo[j])
        alive[j] = False
    if (lo >= hi).any():
        return None
    return lo[alive], hi[alive], corr[alive][:, alive]


def _qmc_box(lo: np.ndarray, hi: np.ndarray, corr: np.ndarray,
             df: float, rng, draws: int) -> tuple[float, float, int]:
    """P(lo < Z < hi) by randomized lattice QMC (Genz & Bretz 2009).

    Rules of doubling size run until ``draws`` points are spent (at least
    _QMC_MIN) or, from the second rule on, the error estimate is below
    QMC_SE.  The last rule gives the estimate; its error estimate is the
    larger of its own standard error and half the previous rule's, as
    lattice errors fall about as 1/n.  Ten random shifts estimate a
    standard error too noisily to stop on alone: in 100-seed trials,
    stopping on the first low value missed by up to 15 reported standard
    errors.  Returns (probability, error estimate, points used over all
    rules).  ``draws`` below 1 raises ValueError, and ``rng`` None takes a
    fresh generator.
    """
    if draws < 1:
        raise ValueError(f"draws must be a positive integer, got {draws!r}")
    rng = np.random.default_rng() if rng is None else rng
    # scipy.stats takes about as long to import as the rest of evsynth
    # together, and only four or more rows (or a three-row fallback) need it
    from scipy.stats._qmvnt import _qmvn, _qmvt

    corr = np.ascontiguousarray(corr)   # _qmvt's Cython loop needs C order
    used, m, se_prev, rules = 0, max(min(_QMC_START, draws), _QMC_MIN), 0.0, 0
    while True:
        if df > _CHI_DF_MAX:
            p, err, n = _qmvn(m, corr, lo, hi, rng)
        else:
            p, err, n = _qmvt(m, df, corr, lo, hi, rng)
        se_own = float(err) / 3.0   # scipy reports three standard errors
        se, se_prev = max(se_own, se_prev / 2.0), se_own
        used, rules = used + int(n), rules + 1
        m = min(2 * m, draws - used)
        if (rules > 1 and se <= QMC_SE) or m < _QMC_MIN:
            return _unit(float(p)), se, used


def _unit(p: float) -> float:
    """``p`` clipped to [0, 1] against rounding."""
    return min(max(p, 0.0), 1.0)


def _side(terms: list):
    """The inclusion-exclusion sum over one side of a box: the term at its
    lower bound, less the term at its upper bound when that is finite."""
    return terms[0] - terms[1] if len(terms) == 2 else terms[0]


def _pair_prob(lo0: float, hi0: float, lo1: float, hi1: float,
               rho: float, df: float) -> tuple[float, float, int, str]:
    """P(lo < Z < hi) for two rows of unit scale and correlation
    |rho| < 1 - _RHO_TOL, on floats, as :func:`_orthant_prob` returns it.

    A zero-mean orthant takes 1/4 + asin(rho) / 2pi (``np.arcsin``, which
    the closed forms of three rows share; ``math.asin`` can differ in the
    last bit).  Otherwise P(Z > c) at each corner c of the box, signed by
    inclusion-exclusion over the finite bounds: :func:`_bvn_corner` for a
    normal law (exact), and :func:`_bvn_orthant` over the nodes of
    :func:`_chi_rule` for a Student-t law.  Float sums depend on their
    order: a normal law sums over row 0's bounds inside, a Student-t law
    over row 1's, and tests pin the masses of boxes bounded on both sides.
    """
    if hi0 == hi1 == math.inf and lo0 == lo1 == 0.0:
        p = 0.25 + float(np.arcsin(rho)) / (2.0 * math.pi)
        return _unit(p), 0.0, 0, "exact"
    xs = (lo0, hi0) if hi0 < math.inf else (lo0,)
    ys = (lo1, hi1) if hi1 < math.inf else (lo1,)
    if df > _CHI_DF_MAX:
        p = _side([_side([_bvn_corner(-x, -y, rho) for x in xs]) for y in ys])
        return _unit(p), 0.0, 0, "exact"
    s, v32, v16 = _chi_rule(df)
    vals = _side([_side([_bvn_orthant(-x * s, -y * s, rho) for y in ys])
                  for x in xs])
    p32, p16 = float(v32 @ vals[:32]), float(v16 @ vals[32:])
    return _unit(p32), max(abs(p32 - p16), _QUAD_FLOOR), 0, "quadrature"


def _cdf(x: float, df: float) -> float:
    return float(ndtr(x)) if df > _CHI_DF_MAX else float(stdtr(df, x))


# B_2j / (2j (2j - 1)), j = 1..7: Stirling's series for log Gamma, whose
# eighth term is below 1e-15 from a = 8 on
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156)


def _log_gamma_ratio(a: float, b: float) -> float:
    """log Gamma(a + b) - log Gamma(a) for a > 0, b >= 0: the lgamma
    difference below a = 8, above it the difference of two Stirling series,
    which does not cancel at large a as the lgamma difference does (1e-5
    relative at a = 5e11); scipy's betaln is up to 1.5e-9 off for a in
    5e4..1.4e6.  Within 3e-15 of mpmath (tests)."""
    if a < 8.0:
        return math.lgamma(a + b) - math.lgamma(a)
    c = a + b
    series = sum(coef * (c ** (1 - 2 * j) - a ** (1 - 2 * j))
                 for j, coef in enumerate(_STIRLING, 1))
    return b * math.log(a) + (c - 0.5) * math.log1p(b / a) - b + series


def _log_density(quad, k: int, log_det: float, df: float):
    """Log density of a k-row law, normal above _CHI_DF_MAX and Student-t
    at or below, whose scale has log determinant ``log_det``, at quadratic
    forms ``quad`` (a float or an array) in the inverse scale."""
    if df > _CHI_DF_MAX:
        return -0.5 * (k * math.log(2.0 * math.pi) + log_det + quad)
    return (_log_gamma_ratio(df / 2.0, k / 2.0)
            - 0.5 * (k * math.log(df * math.pi) + log_det)
            - (df + k) / 2.0 * np.log1p(quad / df))


def _slab(lo: float, hi: float, df: float) -> float:
    """P(lo < Z < hi) for Z of unit scale, normal above _CHI_DF_MAX and
    Student-t at or below; hi is inf for a one-row orthant, whose mass is
    one CDF.

    A slab on one side of zero is mirrored to the positive side, where the
    CDFs at -lo and -hi are tail masses that keep their relative digits.
    Their difference still cancels when the slab is narrow against the
    slope of the log density at its end nearer zero; such a slab, at most
    1 wide, takes the 32-point Gauss-Legendre rule of
    :func:`_legendre_rule` on the density instead.  Both keep a relative
    error near 1e-15 (mpmath oracle in the tests).
    """
    if hi == math.inf:
        return _cdf(-lo, df)
    if hi <= 0.0:
        lo, hi = -hi, -lo
    normal = df > _CHI_DF_MAX
    near = max(lo, 0.0)
    slope = near if normal else (df + 1.0) * near / (df + near * near)
    if (hi - lo) * max(slope, 1.0) > 1.0:
        return _cdf(-lo, df) - _cdf(-hi, df)
    nodes, _, w32 = _legendre_rule()
    x = lo + (hi - lo) * nodes[64:]
    return (hi - lo) * float(w32 @ np.exp(_log_density(x * x, 1, 0.0, df)))


def _orthant_prob(mean: np.ndarray, scale: np.ndarray, df: float, rng,
                  draws: int) -> tuple[float, float, int, str]:
    """P(eta > 0) with eta ~ t(mean, scale, df), the normal law above
    _CHI_DF_MAX.

    Returns (probability, error estimate, points used, method name).  A
    deterministic ladder runs on the rank-reduced problem, on Python floats
    for one row and for two.  A row with positive variance, and a pair
    with positive variances and |rho| < 1 - _RHO_TOL
    (:func:`_pair_prob`), skip the reduction; the rest go through
    :func:`_standard_box`, which decides rows without variance by their
    means.  Then one row takes :func:`_slab`; zero-mean two- and
    three-row orthants the closed forms 1/4 + asin(rho) / 2pi and
    1/8 + sum asin(rho_ij) / 4pi, valid for any elliptical law; other
    two-row orthants, and two-row boxes with finite bounds (an opposed
    pair beside another row), Owen's T summed over the box corners by
    inclusion-exclusion (normal, exact) or that sum under the 32-node Gauss
    rule of :func:`_chi_rule` over the mixing scale (Student-t, error
    |S32 - S16| floored at _QUAD_FLOOR);
    nonzero-mean three-row orthants Plackett's integral by the
    Gauss-Legendre rules of :func:`_tvn_orthant` while its error estimate
    is within QMC_SE.  The rest, four or more rows and three-row boxes
    among them, takes randomized lattice QMC seeded from ``rng``.
    Error estimates are 0 for closed forms and one-row masses.
    """
    # a row with variance skips the reduction: single rows stay as cheap
    if mean.shape[0] == 1 and scale[0, 0] > 0.0:
        s = math.sqrt(float(scale[0, 0]))
        return _slab(-(float(mean[0]) / s), math.inf, df), 0.0, 0, "exact"
    if mean.shape[0] == 2:   # a full-rank pair skips the reduction too
        v0, v1 = float(scale[0, 0]), float(scale[1, 1])
        if v0 > 0.0 and v1 > 0.0:
            s0, s1 = math.sqrt(v0), math.sqrt(v1)
            rho = float(scale[0, 1]) / (s0 * s1)
            if abs(rho) < 1.0 - _RHO_TOL:
                return _pair_prob(-(float(mean[0]) / s0), math.inf,
                                  -(float(mean[1]) / s1), math.inf, rho, df)
    box = _standard_box(mean, scale)
    if box is None:
        return 0.0, 0.0, 0, "exact"
    lo, hi, corr = box
    k = lo.shape[0]
    orthant = bool(np.isposinf(hi).all())
    if k == 0:
        return 1.0, 0.0, 0, "exact"
    if k == 1:
        return _slab(float(lo[0]), float(hi[0]), df), 0.0, 0, "exact"
    if k == 2:
        return _pair_prob(float(lo[0]), float(hi[0]), float(lo[1]),
                          float(hi[1]), float(corr[0, 1]), df)
    if orthant and k == 3:
        if not lo.any():
            asin_sum = float(np.arcsin(corr[_UPPER_PAIRS_3]).sum())
            return _unit(0.125 + asin_sum / (4.0 * math.pi)), 0.0, 0, "exact"
        rule = _tvn_orthant(-lo, corr, df)
        if rule is not None:
            return rule[0], rule[1], 0, "quadrature"
    p, se, used = _qmc_box(lo, hi, corr, df, rng, draws)
    return p, se, used, "qmc"


def _log(x: float) -> float:
    """log x, with log 0 = -inf."""
    return math.log(x) if x > 0.0 else -math.inf


def _log1m(x: float) -> float:
    """log(1 - x), with log(1 - 1) = -inf."""
    return math.log1p(-x) if x < 1.0 else -math.inf


def _log_mass(eta: hyp.TransformedConstraints,
              rng, draws: int) -> tuple[float, float, float, int, str]:
    """(log mass, mass, error estimate, points used, method name) of a law
    whose constraint-space images under a hypothesis are ``eta``.

    Mass means region probability for inequality-only systems, boundary
    density for equality-only systems, and density times conditional
    region probability for mixed systems.  One Cholesky factor of the
    equality block gives both the boundary density and the Schur-complement
    conditioning of the inequality block, which is exact for Student-t laws
    too: given k equality rows the conditional law has df + k degrees of
    freedom and a scale widened by the boundary's quadratic form.  The
    region probability comes from :func:`_orthant_prob`'s ladder (closed
    forms, CDFs, Gauss rules, Owen's T, quadrature, lattice QMC); densities
    are exact.
    """
    df = (eta.eq or eta.ineq).df
    dens = 1.0
    if eta.ineq is not None:
        mean, scale = eta.ineq.mean, eta.ineq.scale
    if eta.eq is not None:
        k = eta.eq.mean.shape[0]
        try:
            chol = np.linalg.cholesky(eta.eq.scale)
        except np.linalg.LinAlgError:
            raise NumericError(
                "the law's scale is singular, or nearly so, on the "
                "equality rows") from None
        log_det = 2.0 * np.log(np.diag(chol)).sum()
        q = np.linalg.solve(chol, -eta.eq.mean)
        quad = float(q @ q)
        dens = math.exp(_log_density(quad, k, log_det, df))
        if eta.ineq is not None:
            # the inequality block conditioned on the equality boundary; for
            # a Student-t law that is a Student-t with df + k degrees of
            # freedom whose Schur complement is widened by
            # (1 + quad / df) / (1 + k / df) (Ding 2016, Am. Stat. 70:293)
            c = np.linalg.solve(chol, eta.cross.T)
            mean = mean + q @ c
            scale = scale - c.T @ c
            scale = (scale + scale.T) / 2.0
            if df <= _CHI_DF_MAX:
                scale = scale * ((1.0 + quad / df) / (1.0 + k / df))
                df = df + k
    p, se, used, how = 1.0, 0.0, 0, "exact"
    if eta.ineq is not None:
        p, se, used, how = _orthant_prob(mean, scale, df, rng, draws)
    return _log(dens) + _log(p), dens * p, dens * se, used, how


# ---------------------------------------------------------------------------
# Bayes factors

def _evidence(h: hyp.ConstraintSystem, laws, rng, draws: int,
              **fields) -> EvidenceRecord:
    """The record of ``h``, labelled by ``fields``, from the (mean, scale,
    names, df) of the posterior and the adjusted prior, in that order; the
    warnings name the caller of :func:`bf_iu` or :func:`evaluate`."""
    if fields["alternative"] == "complement" and h.n_eq:
        raise hyp.EqualityComplementUnsupportedError(
            "complement is undefined for hypotheses with equality constraints")
    (log_f, f, f_se, used_f, how_f), (log_c, c, c_se, used_c, how_c) = (
        _log_mass(hyp.transform_constraints(h, *law), rng, draws)
        for law in laws)
    if log_f == log_c == -math.inf:
        raise NumericError("fit and complexity are both zero; "
                           "the Bayes factor is undefined")
    if log_c == -math.inf:
        _warnings.warn("complexity underflowed to zero; Bayes factor reported "
                       "as +inf", RuntimeWarning, stacklevel=3)
    log_ic = None   # log of (f / c) / ((1 - f) / (1 - c)), None for 0/0
    if h.n_eq == 0:
        log_num, log_den = _log(f) + _log1m(c), _log(c) + _log1m(f)
        if log_num == log_den == -math.inf:
            _warnings.warn("indeterminate complement Bayes factor (0/0)",
                           RuntimeWarning, stacklevel=3)
        else:
            log_ic = log_num - log_den
    return EvidenceRecord(fit=f, complexity=c, log_bf_iu=log_f - log_c,
                          log_bf_ic=log_ic, mc_se_fit=f_se,
                          mc_se_complexity=c_se, mc_draws=max(used_f, used_c),
                          mass_method=max(how_f, how_c, key=MASS_METHODS.index),
                          **fields)


def bf_iu(posterior: CoefDistribution, adjusted_prior: CoefDistribution,
          h: hyp.ConstraintSystem, rng=None, draws: int = DEFAULT_DRAWS,
          label: str = "H", study_id: str = "",
          family: str = "", n: int = 0,
          alternative: str = "unconstrained") -> EvidenceRecord:
    """Bayes factor of ``h`` against the unconstrained model, from two laws
    over named coefficients (:func:`evaluate` takes a fit).

    Fit is the posterior mass of the constrained region (or boundary
    density), complexity the same quantity under the adjusted prior, and
    the Bayes factor their ratio.  The record also carries the Bayes factor
    against the complement when ``h`` is inequality-only.

    The posterior mass is computed before the prior mass, consuming ``rng``
    in that order.

    Raises
    ------
    EqualityComplementUnsupportedError
        If ``alternative`` is "complement" and ``h`` has equality rows.
    ValueError
        If ``alternative`` is unknown (:class:`EvidenceRecord`).
    NumericError
        If both masses are zero (e.g. a contradictory system).
    """
    return _evidence(h, [(d.mean, d.scale, d.names, d.df)
                         for d in (posterior, adjusted_prior)], rng, draws,
                     study_id=study_id, hypothesis=label, family=family, n=n,
                     alternative=alternative)


def bf_ic(record: EvidenceRecord) -> float:
    """log Bayes factor against the complement, from a stored record;
    NumericError if it has none (its hypothesis has equality rows, or fit
    and complexity are both 1)."""
    if record.log_bf_ic is None:
        raise NumericError(f"study {record.study_id!r}: hypothesis "
                           f"{record.hypothesis!r} has no complement Bayes factor")
    return record.log_bf_ic


def log_bf(record: EvidenceRecord, alternative: str) -> float:
    """log Bayes factor of a stored record's hypothesis against
    ``alternative``: ``log_bf_iu`` against the unconstrained model,
    :func:`bf_ic` (which can raise) against the complement."""
    return record.log_bf_iu if alternative == "unconstrained" else bf_ic(record)


def bf_cu(record: EvidenceRecord) -> float:
    """log Bayes factor of the complement against the unconstrained model,
    from a stored record: log BF_iu - log BF_ic, or log((1 - fit) /
    (1 - complexity)) when both are sentinels.  NumericError where
    :func:`bf_ic` raises, or if fit and complexity are both 1."""
    log_ic = bf_ic(record)
    if math.isinf(record.log_bf_iu) and math.isinf(log_ic):
        num, den = _log1m(record.fit), _log1m(record.complexity)
        if num == den == -math.inf:
            raise NumericError("cannot recover the complement Bayes factor "
                               "when fit and complexity are both 1")
        return num - den
    return 0.0 + record.log_bf_iu - log_ic   # summed from 0.0: -0.0 - 0.0 is 0


def bf_between(rec_i: EvidenceRecord, rec_j: EvidenceRecord) -> float:
    """log BF of hypothesis i against hypothesis j via transitivity."""
    a, b = rec_i.log_bf_iu, rec_j.log_bf_iu
    if math.isinf(a) and a == b:
        raise NumericError("indeterminate between-hypothesis Bayes factor "
                           "(both sentinels)")
    if b == math.inf:
        _warnings.warn("denominator Bayes factor is +inf; ratio reported as 0",
                       RuntimeWarning, stacklevel=2)
    return a - b


def evaluate(fit: FitResult, h: hyp.ConstraintSystem, label: str,
             study_id: str = "", frac: FractionSpec | None = None,
             rng=None, draws: int = DEFAULT_DRAWS,
             alternative: str = "unconstrained") -> EvidenceRecord:
    """Full pipeline for one fitted study and one hypothesis: the record
    :func:`bf_iu` gives for :func:`build_posterior` and :func:`build_prior`
    at :func:`adjustment_center` (fraction from :func:`default_fraction`
    unless given), read from the estimates m and covariance S of the
    coefficients of ``h`` alone: the prior's block is ``h.center`` and
    S / b.  It builds neither law, and raises and warns as they do.
    """
    post_df, prior_df = _law_dfs(fit)
    if frac is None:
        frac = default_fraction(fit, [h])
    cols = hyp.columns(h, fit.names)
    _warn_inconsistent(h)
    scale = fit.cov.take(cols, 0).take(cols, 1)
    prior_scale = scale / frac.b
    _check_law(post_df, fit.beta, fit.cov, prior_scale)
    laws = [(fit.beta.take(cols), scale, h.param_names, post_df),
            (h.center, prior_scale, h.param_names, prior_df)]
    return _evidence(h, laws, rng, draws, study_id=study_id,
                     hypothesis=label, family=fit.family, n=fit.n,
                     alternative=alternative)
