"""Bayes factors for constrained hypotheses against the unconstrained model.

A fitted model yields a coefficient posterior; a small fraction of the
likelihood information yields an adjusted prior centered on the boundary of
the hypothesis.  The Bayes factor of hypothesis vs unconstrained model is
fit over complexity: the posterior and prior masses of the constrained
region for inequality constraints, and the posterior and prior densities at
the constraint point for equality constraints (the Savage-Dickey ratio).
Mixed systems multiply the equality density ratio by the ratio of
conditional inequality probabilities given the equalities.

Region probabilities are deterministic where a closed form or a rule
exists: the exact CDF for one inequality row; 1/4 + asin(rho) / 2pi and
1/8 + sum asin(rho_ij) / 4pi for zero-mean two- and three-row orthants of
any elliptical law (every boundary-centered prior of a homogeneous
hypothesis); Owen's T for nonzero-mean bivariate normal orthants, and for
two-row boxes with finite bounds by inclusion-exclusion over their corners,
and a 64-node Gauss-Legendre rule over the chi-square mixing variable for
their Student-t counterparts; for nonzero-mean trivariate orthants, Owen's
T conditioned on one row and integrated by Gauss-Legendre rules (inside
the chi-square rule for Student-t).  Only four or more rows, three-row
boxes with a finite bound, or a trivariate rule whose error estimate is
too large, use Genz-Bretz randomized lattice QMC seeded from the caller's
generator; scipy.stats, which holds it, is imported on that first use.
Rank-deficient constraint scales reduce to fewer rows first.  The Monte
Carlo sampler remains as ``method="mc"``, the test oracle.  Every mass
reports an error estimate and the name of its method
(:data:`MASS_METHODS`).  Zero-mass corner cases are reported with +-inf
sentinels; a 0/0 Bayes factor raises :class:`NumericError`.
"""

from __future__ import annotations

import functools
import json
import math
import warnings as _warnings
from dataclasses import MISSING, asdict, dataclass, replace

import numpy as np
from scipy import linalg as sla
from scipy.special import chdtri, ndtr, ndtri, owens_t, stdtr

from . import hypothesis as hyp
from .glm import DataError, FitResult

DEFAULT_DRAWS = 100_000
ALTERNATIVES = ("unconstrained", "complement")
MASS_METHODS = ("exact", "quadrature", "qmc", "mc")   # most exact first


class NumericError(ArithmeticError):
    """Degenerate Bayes factor arithmetic (0/0 masses, bad scale matrices)."""


@dataclass(frozen=True)
class CoefDistribution:
    """Normal or Student-t distribution over named coefficients."""

    kind: str                      # "normal" | "student-t"
    mean: np.ndarray
    scale: np.ndarray
    names: tuple[str, ...]
    df: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "scale", np.asarray(self.scale, dtype=float))
        object.__setattr__(self, "names", tuple(self.names))
        p = self.mean.shape[0]
        if self.kind not in ("normal", "student-t"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.scale.shape != (p, p):
            raise ValueError("scale shape does not match mean")
        if len(self.names) != p:
            raise ValueError("names length does not match mean")
        if np.abs(self.scale - self.scale.T).max(initial=0.0) > 1e-10:
            raise ValueError("scale matrix is not symmetric")
        if self.kind == "student-t" and (self.df is None or not self.df > 0):
            raise ValueError("student-t requires positive degrees of freedom")


@dataclass(frozen=True)
class FractionSpec:
    """Fraction b of the likelihood information granted to the prior."""

    b: float

    def __post_init__(self):
        if not (0.0 < self.b < 1.0):
            raise ValueError(f"fraction b must lie in (0, 1), got {self.b!r}")

    @classmethod
    def linear_model(cls, n: int, p: int) -> "FractionSpec":
        # b = (p + 1) / n, with p counting every design column
        return cls((p + 1) / n)

    @classmethod
    def glm(cls, n: int, J: int) -> "FractionSpec":
        # b = J / n, J = number of independent constraints in the study
        if J < 1:
            raise ValueError("J must be at least 1")
        return cls(J / n)

    @classmethod
    def explicit(cls, b: float) -> "FractionSpec":
        return cls(b)


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


@dataclass
class EvidenceRecord:
    """One hypothesis evaluated in one study."""

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

    def to_dict(self) -> dict:
        return json_safe(asdict(self))

    @classmethod
    def from_dict(cls, data) -> "EvidenceRecord":
        """Record from a decoded JSON object.

        Raises
        ------
        DataError
            If ``data`` is not an object, lacks a required field, has a
            non-numeric number field, a negative or non-integral count
            (``mc_draws``, ``n``), a non-string text field, an unknown
            alternative or an unknown mass method.
        """
        if not isinstance(data, dict):
            raise DataError(f"evidence record must be an object, "
                            f"got {type(data).__name__}")
        fields = cls.__dataclass_fields__
        missing = [k for k, f in fields.items()
                   if f.default is MISSING and k not in data]
        if missing:
            raise DataError(f"evidence record lacks fields {missing}")
        data = {k: v for k, v in data.items() if k in fields}
        try:
            for key in ("fit", "complexity", "log_bf_iu", "mc_se_fit",
                        "mc_se_complexity"):
                data[key] = float(data[key])
            if data["log_bf_ic"] is not None:
                data["log_bf_ic"] = float(data["log_bf_ic"])
            counts = {key: float(data.get(key, 0)) for key in ("mc_draws", "n")}
        except (TypeError, ValueError) as exc:
            raise DataError(
                f"evidence record has a non-numeric field: {exc}") from None
        for key, value in counts.items():
            if value < 0 or not value.is_integer():
                raise DataError(f"evidence record field {key!r} must be a "
                                f"non-negative integer, got {data[key]!r}")
            data[key] = int(value)
        for key in ("study_id", "hypothesis", "family", "alternative",
                    "mass_method"):
            if not isinstance(data.get(key, ""), str):
                raise DataError(f"evidence record field {key!r} must be a string")
        if data.get("alternative", "unconstrained") not in ALTERNATIVES:
            raise DataError(f"evidence record has unknown alternative "
                            f"{data['alternative']!r}; expected one of "
                            f"{list(ALTERNATIVES)}")
        if data.get("mass_method", "") not in ("",) + MASS_METHODS:
            raise DataError(f"evidence record has unknown mass method "
                            f"{data['mass_method']!r}; expected one of "
                            f"{list(MASS_METHODS)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EvidenceRecord":
        return cls.from_dict(json.loads(text))


def build_posterior(fit: FitResult) -> CoefDistribution:
    """Coefficient posterior: Student-t(beta, cov, n - p) for gaussian fits,
    Normal(beta, cov) for binomial fits."""
    if fit.family == "gaussian":
        return CoefDistribution("student-t", fit.beta, fit.cov, fit.names,
                                df=float(fit.n - fit.p))
    return CoefDistribution("normal", fit.beta, fit.cov, fit.names)


def build_prior(fit: FitResult, frac: FractionSpec,
                center: np.ndarray) -> CoefDistribution:
    """Adjusted fractional prior: scale cov / b, centered at ``center``.

    Gaussian fits give a Cauchy (Student-t with df 1); binomial fits give a
    Normal.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != fit.beta.shape:
        raise ValueError("center length does not match the fitted coefficients")
    scale = fit.cov / frac.b
    if fit.family == "gaussian":
        return CoefDistribution("student-t", center, scale, fit.names, df=1.0)
    return CoefDistribution("normal", center, scale, fit.names)


def default_fraction(fit: FitResult,
                     systems: list[hyp.ConstraintSystem]) -> FractionSpec:
    """Family rule: (p + 1) / n for gaussian, J / n for binomial.

    Raises
    ------
    DataError
        If a gaussian fit has n = p + 1 observations, where the rule
        reaches b = 1.  (A binomial J is at most p, below n.)
    """
    if fit.family == "gaussian":
        if fit.n <= fit.p + 1:
            raise DataError(
                f"n = {fit.n} observations with p = {fit.p} coefficients give "
                f"the default fraction b = (p + 1) / n = 1; a gaussian study "
                f"needs n > p + 1 = {fit.p + 1}")
        return FractionSpec.linear_model(fit.n, fit.p)
    return FractionSpec.glm(fit.n, constraint_count(systems))


def constraint_count(systems: list[hyp.ConstraintSystem]) -> int:
    """Number of independent constraint rows across ``systems`` (min 1);
    computed once per system when there is one."""
    if len(systems) == 1:
        h = systems[0]
        return h._memoized(("rank",), lambda: _constraint_count(systems))
    return _constraint_count(systems)


def _constraint_count(systems: list[hyp.ConstraintSystem]) -> int:
    names: list[str] = []
    for h in systems:
        for name in h.param_names:
            if name not in names:
                names.append(name)
    blocks = [hyp.embed_rows(h, names)[0] for h in systems]
    stacked = np.vstack(blocks) if blocks else np.zeros((0, 0))
    rank = int(np.linalg.matrix_rank(stacked)) if stacked.size else 0
    return max(rank, 1)


def adjustment_center(h: hyp.ConstraintSystem,
                      names: tuple[str, ...] | None = None) -> np.ndarray:
    """Boundary point the adjusted prior is centered on.

    The minimum-norm solution of the stacked boundary system
    ``[R_e; R_i] beta = [r_e; r_i]``.  If the system is inconsistent the
    least-squares solution is returned with a RuntimeWarning, on every
    call.  With ``names`` given, the solution is embedded into that
    coefficient space (zeros elsewhere).  The solution is computed once per
    name list and ``h``; each call returns a fresh copy.
    """
    key = ("center", None if names is None else tuple(names))
    center, consistent = h._memoized(key, lambda: _adjustment_center(h, names))
    if not consistent:
        _warnings.warn("inconsistent boundary system; least-squares center used",
                       RuntimeWarning, stacklevel=2)
    return center.copy()


def _adjustment_center(h: hyp.ConstraintSystem,
                       names: tuple[str, ...] | None) -> tuple[np.ndarray, bool]:
    """(center, whether the boundary system is consistent)."""
    A = np.vstack([h.R_e, h.R_i])
    b = np.concatenate([h.r_e, h.r_i])
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    consistent = not np.abs(A @ x - b).max(initial=0.0) > 1e-8
    if names is None:
        return x, consistent
    out = np.zeros(len(names))
    index = {name: j for j, name in enumerate(names)}
    missing = [n for n in h.param_names if n not in index]
    if missing:
        raise hyp.NameMappingError(
            f"hypothesis names {missing} not among coefficients {list(names)}")
    for name, value in zip(h.param_names, x):
        out[index[name]] = value
    return out, consistent


# ---------------------------------------------------------------------------
# region probabilities and densities

def _psd_sqrt(S: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(S)
    wmax = max(float(w.max(initial=0.0)), 0.0)
    if float(w.min(initial=0.0)) < -1e-8 * max(1.0, wmax):
        raise NumericError("transformed scale matrix is not positive semidefinite")
    return V * np.sqrt(np.clip(w, 0.0, None))


@functools.cache
def _chi_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes of the 64- and 32-point Gauss-Legendre rules on (0, 1),
    stacked, and the weights of each; built on first use, not at import.

    Student-t orthants average normal ones over s = sqrt(W / nu),
    W ~ chi2(nu), with the nodes as quantiles of W; |G64 - G32| is the
    error estimate.
    """
    rules = [np.polynomial.legendre.leggauss(n) for n in (64, 32)]
    nodes = np.concatenate([(x + 1.0) / 2.0 for x, _ in rules])
    return nodes, rules[0][1] / 2.0, rules[1][1] / 2.0


@functools.lru_cache(maxsize=64)
def _chi_scales(df: float) -> np.ndarray:
    """s = sqrt(W / nu) at the :func:`_chi_rule` nodes as quantiles of
    W ~ chi2(df), read-only; computed once per df (a fit size, or 1 for
    the Cauchy prior)."""
    s = np.sqrt(chdtri(df, _chi_rule()[0]) / df)
    s.flags.writeable = False
    return s


# Lattice QMC grows until its error estimate is below QMC_SE or ``draws``
# points are spent; the first rule has _QMC_START points.
QMC_SE = 1e-5
_QMC_START = 1_000
_QMC_MIN = 20          # ten randomly shifted copies of the 2-point lattice
_RHO_TOL = 1e-12       # |correlation| above 1 - _RHO_TOL: the same row
_QUAD_FLOOR = 1e-8     # least error estimate of the trivariate rule


def _bvn_orthant(h, k, rho: float) -> np.ndarray:
    """P(Z1 < h, Z2 < k) for standard normals with correlation |rho| < 1,
    elementwise over ``h`` and ``k``, through Owen's T function
    (Owen 1956, Ann. Math. Stat. 27:1075).

    One value each (a two-row orthant of a normal law) takes
    :func:`_bvn_corner` on floats, whose operations are these in the same
    order, as numpy's dispatch costs several times the arithmetic there.
    """
    h, k = np.asarray(h, dtype=float), np.asarray(k, dtype=float)
    if h.size == 1 and k.size == 1:   # broadcast shape: the longer one
        return np.full(max(h.shape, k.shape, key=len),
                       _bvn_corner(h.item(), k.item(), float(rho)))
    h, k = np.broadcast_arrays(h, k)
    r = math.sqrt((1.0 - rho) * (1.0 + rho))
    with np.errstate(divide="ignore", invalid="ignore"):
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


def _tvn_terms(h: np.ndarray, corr: np.ndarray, i: int, s, t):
    """Integrand of P(Z < h s) over t in (0, 1) for standard trivariate
    normals Z with correlation ``corr``, conditioned on row ``i``,
    elementwise over the broadcast of ``s`` and ``t``; None when the other
    two rows are perfectly correlated given row ``i``.

    With c = Phi(h_i s), u = Phi(z) = c t^3 runs over (0, c) and the
    integrand is 3 c t^2 times the bivariate orthant of the other two rows
    given Z_i = z.  That orthant tends to its limit at z = -inf like a
    power u^a, small a for weak correlations; the cubic grading makes the
    integrand smooth there, so the Gauss-Legendre rules converge fast."""
    j, m = [x for x in range(3) if x != i]
    r_j = math.sqrt((1.0 - corr[i, j]) * (1.0 + corr[i, j]))
    r_m = math.sqrt((1.0 - corr[i, m]) * (1.0 + corr[i, m]))
    rho = (corr[j, m] - corr[i, j] * corr[i, m]) / (r_j * r_m)
    if abs(rho) >= 1.0 - _RHO_TOL:
        return None
    with np.errstate(invalid="ignore"):
        c = ndtr(h[i] * s)
        u = c * t ** 3
        z = ndtri(u)
        f = _bvn_orthant((h[j] * s - corr[i, j] * z) / r_j,
                         (h[m] * s - corr[i, m] * z) / r_m, rho)
        return np.where(u > 0.0, 3.0 * c * t * t * f, 0.0)   # u = 0: no mass


def _tvn_rule(kind: str, h: np.ndarray, corr: np.ndarray, df: float | None,
              i: int) -> tuple[float, float] | None:
    """P(Z < h) for a trivariate normal or Student-t Z with unit scales
    and correlation ``corr``, conditioned on row ``i``, and its error
    estimate; None when the other two rows are perfectly correlated given
    row ``i``.

    The bivariate orthant left by the conditioning (Owen's T) is
    integrated over u = Phi(z) with the 64- and 32-point Gauss-Legendre
    rules of :func:`_chi_rule` (Genz 2004, Stat. Comput. 14:251); the
    error estimate is |G64 - G32|, floored at _QUAD_FLOOR.  Student-t
    orthants run that rule inside the chi-square rule, the 64 (32) inner
    nodes under each of the 64 (32) outer ones, in one call.
    """
    nodes, w64, w32 = _chi_rule()
    if kind == "normal":
        vals = _tvn_terms(h, corr, i, 1.0, nodes)
        if vals is None:
            return None
        p64, p32 = float(w64 @ vals[:64]), float(w32 @ vals[64:])
    else:
        s = _chi_scales(df)
        vals = _tvn_terms(h, corr, i,
                          np.concatenate([np.repeat(s[:64], 64),
                                          np.repeat(s[64:], 32)]),
                          np.concatenate([np.tile(nodes[:64], 64),
                                          np.tile(nodes[64:], 32)]))
        if vals is None:
            return None
        p64 = float(w64 @ vals[:4096].reshape(64, 64) @ w64)
        p32 = float(w32 @ vals[4096:].reshape(32, 32) @ w32)
    return p64, max(abs(p64 - p32), _QUAD_FLOOR)


def _tvn_orthant(kind: str, h: np.ndarray, corr: np.ndarray,
                 df: float | None) -> tuple[float, float] | None:
    """:func:`_tvn_rule` conditioned on the row with the smallest normal
    error estimate; None when no row gets the estimate within QMC_SE."""
    rules = [(rule, i) for i in range(3)
             if (rule := _tvn_rule("normal", h, corr, None, i)) is not None]
    if not rules:
        return None
    (p, err), i = min(rules, key=lambda r: r[0][1])
    if kind == "student-t":
        p, err = _tvn_rule(kind, h, corr, df, i)
    return (_unit(p), err) if err <= QMC_SE else None


def _standard_box(mean: np.ndarray, scale: np.ndarray):
    """Bounds and correlation with P(eta > 0) = P(lo < Z < hi), Z having
    unit scales; None when that region is empty.

    Rank-deficient scales reduce to fewer rows: a zero-variance row is
    dropped when its mean is positive and empties the region otherwise,
    and a row perfectly correlated with an earlier one narrows that row's
    bounds instead of adding a dimension.
    """
    var = np.diag(scale)
    sure = var <= 0.0
    if sure.any():
        if (mean[sure] <= 0.0).any():
            return None
        mean, scale, var = mean[~sure], scale[~sure][:, ~sure], var[~sure]
    s = np.sqrt(var)
    corr = scale / np.outer(s, s)
    if np.linalg.eigvalsh(corr)[0] < -1e-8:
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


def _qmc_box(kind: str, lo: np.ndarray, hi: np.ndarray, corr: np.ndarray,
             df: float | None, rng, draws: int) -> tuple[float, float, int]:
    """P(lo < Z < hi) by randomized lattice QMC (Genz & Bretz 2009).

    Rules of doubling size run until ``draws`` points are spent (at least
    _QMC_MIN) or, from the second rule on, the error estimate is below
    QMC_SE.  The last rule gives the estimate; its error estimate is the
    larger of its own standard error and half the previous rule's, as
    lattice errors fall about as 1/n.  Ten random shifts estimate a
    standard error too noisily to stop on alone: in 100-seed trials,
    stopping on the first low value missed by up to 15 reported standard
    errors.  Returns (probability, error estimate, points used over all
    rules).
    """
    # scipy.stats takes about as long to import as the rest of evsynth
    # together, and only four or more rows (or a three-row fallback) need it
    from scipy.stats._qmvnt import _qmvn, _qmvt

    corr = np.ascontiguousarray(corr)   # _qmvt's Cython loop needs C order
    used, m, se_prev, rules = 0, max(min(_QMC_START, draws), _QMC_MIN), 0.0, 0
    while True:
        if kind == "normal":
            p, err, n = _qmvn(m, corr, lo, hi, rng)
        else:
            p, err, n = _qmvt(m, df, corr, lo, hi, rng)
        se_own = err / 3.0   # scipy reports three standard errors
        se, se_prev = max(se_own, se_prev / 2.0), se_own
        used, rules = used + int(n), rules + 1
        m = min(2 * m, draws - used)
        if (rules > 1 and se <= QMC_SE) or m < _QMC_MIN:
            return _unit(p), se, used


def _unit(p: float) -> float:
    """``p`` clipped to [0, 1] against rounding."""
    return min(max(p, 0.0), 1.0)


def _sampler_rng(rng, draws: int):
    if draws < 1:
        raise ValueError(f"draws must be a positive integer, got {draws!r}")
    return np.random.default_rng() if rng is None else rng


# index pairs (i, j), i < j, of two- and three-row correlations
_UPPER_PAIRS = {2: (np.array([0]), np.array([1])),
                3: (np.array([0, 0, 1]), np.array([1, 2, 2]))}
_SIGNS = np.array([1.0, -1.0])


def _box_side(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Finite bounds of one side of a box and their signs: P(lo < Z < hi)
    is the sum over the box corners c of sign * P(Z > c), the product of
    the sides' signs (inclusion-exclusion)."""
    if hi < math.inf:
        return np.array([lo, hi]), _SIGNS
    return np.array([lo]), _SIGNS[:1]


def _cdf(kind: str, x: float, df: float | None) -> float:
    return float(ndtr(x)) if kind == "normal" else float(stdtr(df, x))


def _orthant_prob(kind: str, mean: np.ndarray, scale: np.ndarray,
                  df: float | None, rng, draws: int,
                  method: str) -> tuple[float, float, int, str]:
    """P(eta > 0) with eta ~ kind(mean, scale, df).

    Returns (probability, error estimate, points used, method name).
    ``method="mc"`` is the Monte Carlo sampler, kept as a test oracle.
    Otherwise a deterministic ladder runs on the rank-reduced problem:
    one row takes the exact CDF; zero-mean two- and three-row orthants the
    closed forms 1/4 + asin(rho) / 2pi and 1/8 + sum asin(rho_ij) / 4pi,
    valid for any elliptical law; other two-row orthants, and two-row
    boxes with finite bounds (an opposed pair beside another row), Owen's
    T summed over the box corners by inclusion-exclusion (normal, exact) or
    that sum under 64-node quadrature over the chi-square mixing variable
    (Student-t, error |G64 - G32|); nonzero-mean three-row orthants the
    conditioned Gauss-Legendre rule of :func:`_tvn_orthant` while its error
    estimate is within QMC_SE.  The rest, four or more rows and three-row
    boxes among them, takes randomized lattice QMC seeded from ``rng``.
    Error estimates are 0 for closed forms and CDFs.
    """
    if method not in ("auto", "mc"):
        raise ValueError(f"unknown method {method!r}")
    if method == "mc":
        rng = _sampler_rng(rng, draws)
        k = mean.shape[0]
        A = _psd_sqrt(scale)
        z = rng.standard_normal((draws, k))
        x = z @ A.T
        if kind == "student-t":
            x /= np.sqrt(rng.chisquare(df, draws) / df)[:, None]
        x += mean
        p = float(np.all(x > 0.0, axis=1).mean())
        se = math.sqrt(p * (1.0 - p) / draws)
        return p, se, draws, "mc"
    if mean.shape[0] == 1:   # skips the reduction: single rows stay as cheap
        s = math.sqrt(max(float(scale[0, 0]), 0.0))
        if s == 0.0:
            return (1.0 if mean[0] > 0 else 0.0), 0.0, 0, "exact"
        return _cdf(kind, float(mean[0]) / s, df), 0.0, 0, "exact"
    box = _standard_box(mean, scale)
    if box is None:
        return 0.0, 0.0, 0, "exact"
    lo, hi, corr = box
    k = lo.shape[0]
    orthant = bool(np.isposinf(hi).all())
    if k == 0:
        return 1.0, 0.0, 0, "exact"
    if k == 1:
        p = _cdf(kind, -lo[0], df)
        if not orthant:
            p -= _cdf(kind, -hi[0], df)
        return p, 0.0, 0, "exact"
    if orthant and k <= 3 and not lo.any():
        asin_sum = float(np.arcsin(corr[_UPPER_PAIRS[k]]).sum())
        p = 0.25 + asin_sum / (2.0 * math.pi) if k == 2 else \
            0.125 + asin_sum / (4.0 * math.pi)
        return _unit(p), 0.0, 0, "exact"
    if k == 2:
        (x, sx), (y, sy) = _box_side(lo[0], hi[0]), _box_side(lo[1], hi[1])
        if kind == "normal":
            p = float(sx @ _bvn_orthant(-x[:, None], -y, corr[0, 1]) @ sy)
            return _unit(p), 0.0, 0, "exact"
        _, w64, w32 = _chi_rule()
        s = _chi_scales(df)
        vals = sx @ (sy @ _bvn_orthant(-x[:, None, None] * s, -y[:, None] * s,
                                       corr[0, 1]))
        p64, p32 = float(w64 @ vals[:64]), float(w32 @ vals[64:])
        return _unit(p64), abs(p64 - p32), 0, "quadrature"
    if orthant and k == 3:
        rule = _tvn_orthant(kind, -lo, corr, df)
        if rule is not None:
            return rule[0], rule[1], 0, "quadrature"
    p, se, used = _qmc_box(kind, lo, hi, corr, df, _sampler_rng(rng, draws),
                           draws)
    return p, se, used, "qmc"


def _log(x: float) -> float:
    """log x, with log 0 = -inf."""
    return math.log(x) if x > 0.0 else -math.inf


def _log1m(x: float) -> float:
    """log(1 - x), with log(1 - 1) = -inf."""
    return math.log1p(-x) if x < 1.0 else -math.inf


def _log_mass(dist: CoefDistribution, h: hyp.ConstraintSystem,
              rng, draws: int,
              method: str) -> tuple[float, float, float, int, str]:
    """(log mass, mass, error estimate, points used, method name) of
    ``dist`` under ``h``.

    Mass means region probability for inequality-only systems, boundary
    density for equality-only systems, and density times conditional
    region probability for mixed systems.  One Cholesky factor of the
    equality block gives both the boundary density and the Schur-complement
    conditioning of the inequality block; for Student-t the degrees of
    freedom are kept unchanged (documented approximation).  The region
    probability comes from :func:`_orthant_prob`'s ladder (closed forms,
    CDFs, Owen's T, quadrature, lattice QMC) or from its Monte Carlo
    sampler with ``method="mc"``; densities are exact.
    """
    eta = hyp.transform_constraints(h, dist.mean, dist.scale, dist.names,
                                    dist.df)
    ineq, dens = eta.ineq, 1.0
    if eta.eq is not None:
        k = eta.eq.mean.shape[0]
        try:
            chol = np.linalg.cholesky(eta.eq.scale)
        except np.linalg.LinAlgError:
            raise NumericError(
                "equality rows give a rank-deficient transformed scale; "
                "remove redundant equality constraints") from None
        log_det = 2.0 * np.log(np.diag(chol)).sum()
        q = sla.solve_triangular(chol, -eta.eq.mean, lower=True)
        quad = float(q @ q)
        if dist.kind == "normal":
            log_pdf = -0.5 * (k * math.log(2.0 * math.pi) + log_det + quad)
        else:
            nu = dist.df
            log_pdf = (math.lgamma((nu + k) / 2.0) - math.lgamma(nu / 2.0)
                       - 0.5 * (k * math.log(nu * math.pi) + log_det)
                       - (nu + k) / 2.0 * math.log1p(quad / nu))
        dens = math.exp(log_pdf)
        if ineq is not None:
            cho = (chol, True)
            mean_c = ineq.mean - eta.cross @ sla.cho_solve(cho, eta.eq.mean)
            scale_c = ineq.scale - eta.cross @ sla.cho_solve(cho, eta.cross.T)
            ineq = hyp.EtaDistribution(mean_c, (scale_c + scale_c.T) / 2.0,
                                       dist.df)
    p, se, used, how = 1.0, 0.0, 0, "exact"
    if ineq is not None:
        p, se, used, how = _orthant_prob(dist.kind, ineq.mean, ineq.scale,
                                         dist.df, rng, draws, method)
    return _log(dens) + _log(p), dens * p, dens * se, used, how


def prob_region(dist: CoefDistribution, h: hyp.ConstraintSystem,
                rng=None, draws: int = DEFAULT_DRAWS,
                method: str = "auto") -> tuple[float, float]:
    """Probability that ``dist`` satisfies the inequality rows of ``h``.

    ``h`` must have inequality rows only; equality constraints take the
    density path.  Returns (probability, error estimate): 0 for closed
    forms and CDFs, |G64 - G32| for quadrature rules, one standard error
    for lattice QMC (``method="auto"``) and the Monte Carlo sampler
    (``method="mc"``).
    """
    if h.n_eq:
        raise ValueError("prob_region requires an inequality-only hypothesis")
    _, p, se, _, _ = _log_mass(dist, h, rng, draws, method)
    return p, se


def density_at_equality(dist: CoefDistribution, h: hyp.ConstraintSystem) -> float:
    """Density of the equality rows of ``h`` at their stated values."""
    if h.n_eq == 0:
        raise ValueError("hypothesis has no equality rows")
    eq_only = replace(h, R_i=np.zeros((0, len(h.param_names))), r_i=np.zeros(0))
    return _log_mass(dist, eq_only, None, 0, "auto")[1]


# ---------------------------------------------------------------------------
# Bayes factors

def _log_complement_ratio(f: float, c: float) -> float | None:
    """log of (f / c) / ((1 - f) / (1 - c)) with sentinel handling."""
    log_num = _log(f) + _log1m(c)
    log_den = _log(c) + _log1m(f)
    if log_num == log_den == -math.inf:
        _warnings.warn("indeterminate complement Bayes factor (0/0)",
                       RuntimeWarning, stacklevel=3)
        return None
    return log_num - log_den


def bf_iu(posterior: CoefDistribution, adjusted_prior: CoefDistribution,
          h: hyp.ConstraintSystem, rng=None, draws: int = DEFAULT_DRAWS,
          method: str = "auto", label: str = "H", study_id: str = "",
          family: str = "", n: int = 0,
          alternative: str = "unconstrained") -> EvidenceRecord:
    """Bayes factor of ``h`` against the unconstrained model.

    Fit is the posterior mass of the constrained region (or boundary
    density), complexity the same quantity under the adjusted prior, and
    the Bayes factor their ratio.  The record also carries the Bayes factor
    against the complement when ``h`` is inequality-only.

    The posterior mass is computed before the prior mass, consuming ``rng``
    in that order.

    Raises
    ------
    NumericError
        If both masses are zero (e.g. a contradictory system).
    """
    log_f, f, f_se, used_f, how_f = _log_mass(posterior, h, rng, draws, method)
    log_c, c, c_se, used_c, how_c = _log_mass(adjusted_prior, h, rng, draws,
                                              method)
    if log_f == log_c == -math.inf:
        raise NumericError("fit and complexity are both zero; "
                           "the Bayes factor is undefined")
    if log_c == -math.inf:
        _warnings.warn("complexity underflowed to zero; Bayes factor reported "
                       "as +inf", RuntimeWarning, stacklevel=2)
    log_ic = _log_complement_ratio(f, c) if h.n_eq == 0 else None
    return EvidenceRecord(study_id=study_id, hypothesis=label, fit=f,
                          complexity=c, log_bf_iu=log_f - log_c,
                          log_bf_ic=log_ic, mc_se_fit=f_se,
                          mc_se_complexity=c_se, mc_draws=max(used_f, used_c),
                          family=family, n=n, alternative=alternative,
                          mass_method=max(how_f, how_c,
                                          key=MASS_METHODS.index))


def bf_ic(record: EvidenceRecord) -> float:
    """log Bayes factor against the complement, from a stored record."""
    if record.log_bf_ic is None:
        raise NumericError("record has no complement Bayes factor "
                           "(equality constraints present)")
    return record.log_bf_ic


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


def _prior_probs(priors, m: int) -> np.ndarray:
    """Prior model probabilities over ``m`` models: uniform when ``priors``
    is None, otherwise checked to be ``m`` positive values summing to 1."""
    if priors is None:
        return np.full(m, 1.0 / m)
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (m,) or (priors <= 0).any() or abs(priors.sum() - 1.0) > 1e-9:
        raise ValueError("priors must be positive and sum to 1")
    return priors


def pmps(log_bfs, priors=None) -> np.ndarray:
    """Posterior model probabilities from log Bayes factors vs a common base.

    Computed in log space with max subtraction.  +inf sentinels receive an
    equal share of 1 among themselves; -inf yields probability 0.
    """
    lb = np.asarray(log_bfs, dtype=float)
    m = lb.shape[0]
    if m == 0:
        raise ValueError("no hypotheses")
    if np.isnan(lb).any():
        raise NumericError("NaN log Bayes factor")
    priors = _prior_probs(priors, m)
    if np.isposinf(lb).any():
        top = np.isposinf(lb)
        return top / top.sum()
    w = np.log(priors) + lb
    if np.isneginf(w).all():
        raise NumericError("all hypotheses have zero support")
    e = np.exp(w - w.max())
    return e / e.sum()


def evaluate(fit: FitResult, h: hyp.ConstraintSystem, label: str,
             study_id: str = "", frac: FractionSpec | None = None,
             rng=None, draws: int = DEFAULT_DRAWS, method: str = "auto",
             alternative: str = "unconstrained") -> EvidenceRecord:
    """Full pipeline for one fitted study and one hypothesis.

    Builds the posterior, the boundary-centered adjusted prior (fraction
    from :func:`default_fraction` unless given), and returns the evidence
    record.
    """
    if frac is None:
        frac = default_fraction(fit, [h])
    center = adjustment_center(h, names=fit.names)
    posterior = build_posterior(fit)
    prior = build_prior(fit, frac, center)
    return bf_iu(posterior, prior, h, rng=rng, draws=draws, method=method,
                 label=label, study_id=study_id, family=fit.family, n=fit.n,
                 alternative=alternative)
