"""Synthetic data and study plans for the simulation studies.

Six standard-normal predictors with pairwise correlation 0.3 feed a linear
predictor with effect pattern (0, 1, 1, 1, 2, 3), rescaled so the model
explains a target share of outcome variance on its own scale: the target
R^2 directly for gaussian outcomes, and the latent-variable (McKelvey-
Zavoina) R^2 for logit and probit outcomes.  Studies 1-8 compare one
gaussian, one logit and one probit study per iteration; studies 9-11 track
a growing sequence of gaussian studies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import glm

DEFAULT_WEIGHTS = (0.0, 1.0, 1.0, 1.0, 2.0, 3.0)
DEFAULT_RHO = 0.3
N_GRID = (25, 50, 100, 200, 400, 800)
R2_GRID = (0.02, 0.09, 0.25)
SEQUENTIAL_SIMS = (9, 10, 11)
SEQUENTIAL_N_GRID = (25, 200)
SEQUENTIAL_R2 = 0.09
SEQUENTIAL_STUDIES = 150
MAX_REDRAWS = 100


class PersistentSeparationError(Exception):
    """A binomial study stayed separated after the redraw budget."""


def rng_stream(*keys: int) -> np.random.Generator:
    """Independent generator keyed by a tuple of non-negative integers.

    Streams for distinct key tuples are independent and do not depend on
    the order in which they are created, so parallel work can draw from
    per-task streams reproducibly.
    """
    return np.random.default_rng(list(keys))


@dataclass(frozen=True)
class DataGenSpec:
    """One study's generative model."""

    family: str
    n: int
    r2: float

    def __post_init__(self):
        if self.family not in glm.FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not 0.0 < self.r2 < 1.0:
            raise ValueError("r2 must lie in (0, 1)")
        if self.n <= len(DEFAULT_WEIGHTS):
            raise ValueError("need more observations than predictors")


def predictor_cov(spec: DataGenSpec) -> np.ndarray:
    """Unit variances and pairwise correlation DEFAULT_RHO, for every spec."""
    k = len(DEFAULT_WEIGHTS)
    return np.full((k, k), DEFAULT_RHO) + (1.0 - DEFAULT_RHO) * np.eye(k)


def latent_variance(spec: DataGenSpec) -> float:
    """Target variance of the linear predictor on the outcome scale."""
    r2 = spec.r2
    if spec.family == "gaussian":
        return r2
    if spec.family == "logit":
        return r2 * (math.pi ** 2 / 3.0) / (1.0 - r2)
    return r2 / (1.0 - r2)


def compute_beta(spec: DataGenSpec) -> np.ndarray:
    """Effect pattern rescaled to hit the target explained variance.

    beta = a * sqrt(V / (a' Sigma a)) where a is the weight pattern, Sigma
    the predictor covariance and V the target linear-predictor variance, so
    Var(X beta) = V by construction.
    """
    a = np.asarray(DEFAULT_WEIGHTS, dtype=float)
    denom = float(a @ predictor_cov(spec) @ a)
    return a * math.sqrt(latent_variance(spec) / denom)


@functools.lru_cache(maxsize=256)
def _generator(spec: DataGenSpec) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """beta, the Cholesky factor of the predictor covariance and the
    predictor names of ``spec``, computed once per spec (read-only)."""
    beta = compute_beta(spec)
    chol = np.linalg.cholesky(predictor_cov(spec))
    beta.flags.writeable = chol.flags.writeable = False
    return beta, chol, tuple(f"x{j + 1}" for j in range(len(beta)))


def gen_dataset(spec: DataGenSpec, rng: np.random.Generator, analyze):
    """Draw one study dataset and return ``analyze(dataset)``.

    Binomial draws with a single outcome class, or whose ``analyze`` raises
    :class:`evsynth.glm.SeparationError`, are redrawn up to
    ``MAX_REDRAWS`` times.

    Raises
    ------
    PersistentSeparationError
        If every binomial attempt within the budget separated.
    """
    beta, chol, names = _generator(spec)
    attempts = MAX_REDRAWS + 1
    for _ in range(attempts):
        X = rng.standard_normal((spec.n, len(beta))) @ chol.T
        eta = X @ beta
        if spec.family == "gaussian":
            y = eta + rng.standard_normal(spec.n) * math.sqrt(1.0 - spec.r2)
            return analyze(glm.Dataset(X, y, spec.family, names))
        p = 1.0 / (1.0 + np.exp(-eta)) if spec.family == "logit" else ndtr(eta)
        y = (rng.random(spec.n) < p).astype(float)
        if y.min() == y.max():
            continue
        try:
            return analyze(glm.Dataset(X, y, spec.family, names))
        except glm.SeparationError:
            continue
    raise PersistentSeparationError(
        f"{spec.family} study (n={spec.n}, r2={spec.r2}) separated in all "
        f"{attempts} attempts")


def tertile_categorize(d: glm.Dataset, column: str) -> glm.Dataset:
    """Replace ``column`` with three rank-third indicator columns.

    Group sizes differ by at most one, with remainders assigned to the
    lower groups first; ties keep data order (stable sort).  Any column
    named ``intercept`` is dropped, since the three indicators span it.
    """
    if column not in d.names:
        raise glm.DataError(f"column {column!r} not found")
    j = d.names.index(column)
    values = d.X[:, j]
    if np.unique(values).size < 3:
        raise glm.DataError(f"column {column!r} has fewer than 3 distinct values")
    n = d.n
    base, rem = divmod(n, 3)
    sizes = (base + (rem > 0), base + (rem > 1), base)
    order = np.argsort(values, kind="stable")
    group = np.empty(n, dtype=int)
    start = 0
    for g, size in enumerate(sizes):
        group[order[start:start + size]] = g
        start += size
    indicators = np.stack([(group == g).astype(float) for g in range(3)], axis=1)
    new_names = tuple(f"{column}_{lab}" for lab in ("low", "medium", "high"))
    for name in new_names:
        if name in d.names:
            raise glm.DataError(f"column {name!r} already present")

    cols, names = [], []
    for k, name in enumerate(d.names):
        if name == column:
            cols.append(indicators)
            names.extend(new_names)
        elif name == "intercept":
            continue
        else:
            cols.append(d.X[:, k:k + 1])
            names.append(name)
    return glm.Dataset(np.hstack(cols), d.y, d.family, tuple(names))


def scale_score(d: glm.Dataset, columns: list[str]) -> glm.Dataset:
    """Replace ``columns`` with their row-wise mean as one new column named
    ``scale``."""
    if len(columns) < 2:
        raise glm.DataError("scale score needs at least two columns")
    missing = [c for c in columns if c not in d.names]
    if missing:
        raise glm.DataError(f"columns {missing} not found")
    if "scale" in d.names and "scale" not in columns:
        raise glm.DataError("column 'scale' already present")
    idx = [d.names.index(c) for c in columns]
    score = d.X[:, idx].mean(axis=1)

    cols, names = [], []
    inserted = False
    first = min(idx)
    for k, col_name in enumerate(d.names):
        if col_name in columns:
            if k == first and not inserted:
                cols.append(score[:, None])
                names.append("scale")
                inserted = True
            continue
        cols.append(d.X[:, k:k + 1])
        names.append(col_name)
    return glm.Dataset(np.hstack(cols), d.y, d.family, tuple(names))


def apply_transform(d: glm.Dataset, transform: str | None) -> glm.Dataset:
    """Apply a study-plan transform tag to a raw dataset."""
    if transform is None:
        return d
    kind, _, arg = transform.partition(":")
    if kind == "tertile":
        return tertile_categorize(d, arg)
    if kind == "scale":
        return scale_score(d, arg.split(","))
    raise ValueError(f"unknown transform {transform!r}")


@dataclass(frozen=True)
class StudyPlanEntry:
    """How to generate and analyze one study within an iteration."""

    study_index: int
    spec: DataGenSpec
    transform: str | None
    intercept: bool
    hypotheses: tuple[str, ...]

    @property
    def width(self) -> int:
        """Design columns of the fit: the predictors after ``transform``,
        plus the intercept."""
        kind, _, arg = (self.transform or "").partition(":")
        width = len(DEFAULT_WEIGHTS)
        if kind == "tertile":
            width += 2
        elif kind == "scale":
            width -= len(arg.split(",")) - 1
        return width + self.intercept


_PART1 = {
    1: dict(hyps=("x4 < x5 < x6",), transform=None, intercept=True),
    2: dict(hyps=("x4 < x5 < x6",), transform=None, intercept=True),
    3: dict(hyps=("x6 > 0",), transform=None, intercept=True),
    4: dict(hyps=("x6_low < x6_medium < x6_high",), transform="tertile:x6",
            intercept=False),
    5: dict(hyps=("scale > 0",), transform="scale:x2,x3,x4", intercept=True),
    6: dict(hyps=("{x2, x3, x4} > 0",), transform=None, intercept=True),
    7: dict(hyps=("{x2, x3, x4} < 0",), transform=None, intercept=True),
    8: dict(hyps=("{x1, x2, x3} > 0",), transform=None, intercept=True),
}

_SEQUENTIAL_HYPS = {
    9: ("x2 > 0",),
    10: ("x1 > 0",),
    11: ("{x2, x3, x4} > 0",),
}
DECOMPOSED_11 = ("x2 > 0", "x3 > 0", "x4 > 0")


def study_plan(sim_id: int, n: int, r2: float,
               rng: np.random.Generator | None = None,
               n_studies: int | None = None,
               decomposed: bool = False) -> list[StudyPlanEntry]:
    """Per-iteration plan of studies for one simulation condition.

    Simulations 1-8 yield one gaussian, one logit and one probit study of
    size ``n``; simulation 2 additionally forces one uniformly chosen study
    down to n = 25.  Simulations 9-11 yield ``n_studies`` gaussian studies
    (default 150).  ``decomposed`` replaces simulation 11's joint
    hypothesis with its three single-coefficient parts.

    Raises ValueError, before anything is drawn, unless every study has
    more observations than design columns p, and more than p + 1 for a
    gaussian study, whose default fraction (p + 1) / n must stay below 1.
    """
    if sim_id in _PART1:
        cfg = _PART1[sim_id]
        ns = [n, n, n]
        if sim_id == 2:
            if rng is None:
                raise ValueError("simulation 2 needs an rng to place its n=25 study")
            ns[int(rng.integers(3))] = 25
        plan = [StudyPlanEntry(i, DataGenSpec(fam, ns[i], r2),
                               cfg["transform"], cfg["intercept"], cfg["hyps"])
                for i, fam in enumerate(("gaussian", "logit", "probit"))]
    elif sim_id in _SEQUENTIAL_HYPS:
        if decomposed and sim_id != 11:
            raise ValueError("the decomposed variant applies to simulation 11 only")
        hyps = DECOMPOSED_11 if (sim_id == 11 and decomposed) else _SEQUENTIAL_HYPS[sim_id]
        count = SEQUENTIAL_STUDIES if n_studies is None else n_studies
        if count < 1:
            raise ValueError("need at least one study")
        plan = [StudyPlanEntry(i, DataGenSpec("gaussian", n, r2), None, True, hyps)
                for i in range(count)]
    else:
        raise ValueError(f"unknown simulation id {sim_id!r}")
    for entry in plan:
        lowest = entry.width + 1 + (entry.spec.family == "gaussian")
        if entry.spec.n < lowest:
            raise ValueError(
                f"n = {entry.spec.n} is too small for a {entry.spec.family} "
                f"study with {entry.width} design columns; need n >= {lowest}")
    return plan
