"""Synthetic data and study plans for the simulation studies.

Six standard-normal predictors with pairwise correlation 0.3 feed a linear
predictor with effect pattern (0, 1, 1, 1, 2, 3), rescaled so the model
explains a target share of outcome variance on its own scale: the target
R^2 directly for gaussian outcomes, and the latent-variable (McKelvey-
Zavoina) R^2 for logit and probit outcomes.  Studies 1-8 compare one
gaussian, one logit and one probit study per iteration; studies 9-11 track
a growing sequence of gaussian studies.

The simulation runner lives here too: :class:`SimulationConfig` plans a
run's (n, R^2) grid, :func:`run_iteration` draws, fits and scores one
iteration of one condition, and :func:`run_simulation` runs them all into
the rows of a :class:`SimulationResult`.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from . import bf, glm, synthesis
from . import hypothesis as hyp

DEFAULT_WEIGHTS = (0.0, 1.0, 1.0, 1.0, 2.0, 3.0)
DEFAULT_RHO = 0.3
N_GRID = (25, 50, 100, 200, 400, 800)
R2_GRID = (0.02, 0.09, 0.25)
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

    Keys below 2^32 are one 32-bit word of seed entropy each, so they seed
    from a uint32 array, the same stream as from the list, which numpy
    would convert key by key in Python.
    """
    if all(0 <= key < 1 << 32 for key in keys):
        return np.random.default_rng(np.array(keys, dtype=np.uint32))
    return np.random.default_rng(list(keys))


class LazyStream:
    """``rng_stream(*keys)``, seeded when something first draws from it.

    Many streams a run sets up are never drawn from: a study's lattice-QMC
    stream and ``analyze``'s (only masses of four or more rows, or a
    three-row fallback, draw), and an iteration's plan stream (only
    simulation 2 draws).  Those cost nothing undrawn; the draws of a
    stream that is used are its own.
    """

    def __init__(self, *keys: int):
        self.keys = keys

    @functools.cached_property
    def generator(self) -> np.random.Generator:
        return rng_stream(*self.keys)

    def __getattr__(self, name: str):
        # reached only for what the instance lacks: the generator's methods
        return getattr(self.generator, name)


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


def predictor_cov() -> np.ndarray:
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
    denom = float(a @ predictor_cov() @ a)
    return a * math.sqrt(latent_variance(spec) / denom)


@functools.lru_cache(maxsize=256)
def _generator(spec: DataGenSpec) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """beta, the Cholesky factor of the predictor covariance and the
    predictor names of ``spec``, computed once per spec (read-only)."""
    beta = compute_beta(spec)
    chol = np.linalg.cholesky(predictor_cov())
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
    return _splice(d, [column], indicators,
                   tuple(f"{column}_{lab}" for lab in ("low", "medium", "high")),
                   dropped=("intercept",))


def scale_score(d: glm.Dataset, columns: list[str]) -> glm.Dataset:
    """Replace ``columns`` with their row-wise mean as one new column named
    ``scale``."""
    if len(columns) < 2:
        raise glm.DataError("scale score needs at least two columns")
    missing = [c for c in columns if c not in d.names]
    if missing:
        raise glm.DataError(f"columns {missing} not found")
    score = d.X[:, [d.names.index(c) for c in columns]].mean(axis=1)
    return _splice(d, columns, score[:, None], ("scale",))


def _splice(d: glm.Dataset, replaced, block: np.ndarray, names: tuple[str, ...],
            dropped=()) -> glm.Dataset:
    """``d`` with its ``replaced`` columns swapped for ``block``, whose
    columns are ``names``, at the first one's position, and its ``dropped``
    columns removed; DataError if one of ``names`` is a column that stays."""
    for name in names:
        if name in d.names and name not in replaced:
            raise glm.DataError(f"column {name!r} already present")
    first = min(map(d.names.index, replaced))
    cols, kept = [], []
    for k, name in enumerate(d.names):
        if k == first:
            cols.append(block)
            kept.extend(names)
        elif name not in replaced and name not in dropped:
            cols.append(d.X[:, k:k + 1])
            kept.append(name)
    return glm.Dataset(np.hstack(cols), d.y, d.family, tuple(kept))


def _transform(tag: str):
    """The rewrite of a raw dataset that a transform tag names, and the
    predictor columns it adds; ValueError for an unknown kind."""
    kind, _, arg = tag.partition(":")
    if kind == "tertile":
        return (lambda d: tertile_categorize(d, arg)), 2
    if kind == "scale":
        columns = arg.split(",")
        return (lambda d: scale_score(d, columns)), 1 - len(columns)
    raise ValueError(f"unknown transform {tag!r}")


def apply_transform(d: glm.Dataset, transform: str | None) -> glm.Dataset:
    """Apply a study-plan transform tag to a raw dataset."""
    return d if transform is None else _transform(transform)[0](d)


@dataclass(frozen=True)
class StudyPlanEntry:
    """How to generate and analyze one study within an iteration: ``spec``
    draws it, then ``transform`` (or None) and ``intercept`` give its design."""

    study_index: int
    spec: DataGenSpec
    transform: str | None
    intercept: bool
    hypotheses: tuple[str, ...]

    def design(self, raw: glm.Dataset) -> glm.Dataset:
        """The fitted design of a raw draw: ``transform``, then the intercept."""
        d = apply_transform(raw, self.transform)
        return glm.add_intercept(d) if self.intercept else d

    @property
    def width(self) -> int:
        """Design columns of the fit: the predictors after ``transform``,
        plus the intercept."""
        added = 0 if self.transform is None else _transform(self.transform)[1]
        return len(DEFAULT_WEIGHTS) + added + self.intercept


# a bundled simulation: hypotheses, study design, whether the studies form a
# growing gaussian series, and the decomposed variant's hypotheses (or None)
_Simulation = namedtuple("_Simulation", "hypotheses transform intercept series decomposed",
                         defaults=(None, True, False, None))
_SIMULATIONS = {
    1: _Simulation(("x4 < x5 < x6",)),
    2: _Simulation(("x4 < x5 < x6",)),
    3: _Simulation(("x6 > 0",)),
    4: _Simulation(("x6_low < x6_medium < x6_high",), "tertile:x6", False),
    5: _Simulation(("scale > 0",), "scale:x2,x3,x4"),
    6: _Simulation(("{x2, x3, x4} > 0",)),
    7: _Simulation(("{x2, x3, x4} < 0",)),
    8: _Simulation(("{x1, x2, x3} > 0",)),
    9: _Simulation(("x2 > 0",), series=True),
    10: _Simulation(("x1 > 0",), series=True),
    11: _Simulation(("{x2, x3, x4} > 0",), series=True,
                    decomposed=("x2 > 0", "x3 > 0", "x4 > 0")),
}
SIMULATION_IDS = tuple(_SIMULATIONS)


def default_grid(sim_id: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The (n, R^2) grid a simulation runs when none is given: ``N_GRID`` by
    ``R2_GRID``, or ``SEQUENTIAL_N_GRID`` at ``SEQUENTIAL_R2`` for a series."""
    if _SIMULATIONS[sim_id].series:
        return SEQUENTIAL_N_GRID, (SEQUENTIAL_R2,)
    return N_GRID, R2_GRID


def study_plan(sim_id: int, n: int, r2: float,
               rng: np.random.Generator | None = None,
               n_studies: int | None = None,
               decomposed: bool = False) -> list[StudyPlanEntry]:
    """Per-iteration plan of studies for one simulation condition.

    Simulations 1-8 yield one gaussian, one logit and one probit study of
    size ``n``; simulation 2 additionally forces one uniformly chosen study
    down to n = 25.  Simulations 9-11 yield ``n_studies`` gaussian studies
    (default 150).  ``decomposed`` replaces simulation 11's joint hypothesis
    with its three single-coefficient parts, and is a ValueError elsewhere.

    Raises ValueError, before anything is drawn, unless ``n`` exceeds
    every study's design columns p, and p + 1 for a gaussian study, whose
    default fraction (p + 1) / n must stay below 1.  Simulation 2 is held
    to the same rule, so whether a condition is valid does not depend on
    which study ``rng`` forces to n = 25.
    """
    if sim_id not in _SIMULATIONS:
        raise ValueError(f"unknown simulation id {sim_id!r}")
    sim = _SIMULATIONS[sim_id]
    if decomposed and sim.decomposed is None:
        raise ValueError(f"simulation {sim_id} has no decomposed variant")
    if sim.series:
        count = SEQUENTIAL_STUDIES if n_studies is None else n_studies
        if count < 1:
            raise ValueError("need at least one study")
        specs = [DataGenSpec("gaussian", n, r2)] * count
    else:
        ns = [n, n, n]
        if sim_id == 2:
            if rng is None:
                raise ValueError("simulation 2 needs an rng to place its n=25 study")
            ns[int(rng.integers(3))] = 25
        specs = [DataGenSpec(fam, size, r2) for fam, size in zip(glm.FAMILIES, ns)]
    hyps = sim.decomposed if decomposed else sim.hypotheses
    plan = [StudyPlanEntry(i, spec, sim.transform, sim.intercept, hyps)
            for i, spec in enumerate(specs)]
    for entry in plan:
        lowest = entry.width + 1 + (entry.spec.family == "gaussian")
        if n < lowest:
            raise ValueError(
                f"n = {n} is too small for a {entry.spec.family} "
                f"study with {entry.width} design columns; need n >= {lowest}")
    return plan


# ---------------------------------------------------------------------------
# running a simulation

RESULT_COLUMNS = ("sim_id", "family", "n", "r2", "iteration", "study",
                  "hypothesis", "alternative", "fit", "complexity", "log_bf",
                  "agg_log_bf", "pmp")


@dataclass(frozen=True)
class SimulationConfig:
    """One run of a bundled simulation over the grid ``ns`` by ``r2s``.

    A config plans its grid when it is made (see :attr:`conditions`), so a
    condition that no study can take raises ValueError before anything is
    drawn: a run can take hours.  So does ``n_studies`` on a simulation
    that is not a series (1-8), whose plan it would not change.
    """

    sim_id: int
    iterations: int
    ns: tuple[int, ...]
    r2s: tuple[float, ...]
    seed: int
    draws: int = bf.DEFAULT_DRAWS
    alternatives: tuple[str, ...] = bf.ALTERNATIVES
    n_studies: int | None = None
    decomposed: bool = False
    threads: int = 1

    def __post_init__(self):
        self.conditions   # plans the grid now
        if self.n_studies is not None and not _SIMULATIONS[self.sim_id].series:
            series = [i for i, sim in _SIMULATIONS.items() if sim.series]
            raise ValueError(f"simulation {self.sim_id} has a fixed study "
                             f"plan; a study count is for simulations "
                             f"{series[0]}-{series[-1]}")

    @functools.cached_property
    def conditions(self) -> tuple[tuple[int, int, float], ...]:
        """Each condition as (index, n, R^2), n major, in run order, every
        one planned by :func:`study_plan`, the first bad one raising its
        ValueError.  Whether a plan is valid does not depend on the
        stream, which only places simulation 2's n = 25 study."""
        conditions = tuple((ci, n, r2) for ci, (n, r2)
                           in enumerate(itertools.product(self.ns, self.r2s)))
        for _, n, r2 in conditions:
            study_plan(self.sim_id, n, r2, rng=LazyStream(self.seed),
                       n_studies=self.n_studies, decomposed=self.decomposed)
        return conditions


@dataclass
class SimulationResult:
    """Rows, each a dict read by ``columns``, and the skipped iterations."""

    columns: tuple[str, ...]
    rows: list[dict]
    skips: list[dict] = field(default_factory=list)


def run_iteration(sim_id: int, cond_idx: int, n: int, r2: float, iteration: int,
                  seed: int, draws: int, alternatives: tuple[str, ...],
                  n_studies: int | None, decomposed: bool):
    """One simulation iteration; returns (study rows, aggregate rows, skips).

    Study ``k`` draws its data from the stream keyed (seed, sim_id,
    cond_idx, iteration, k, 0) and its lattice-QMC masses from (..., k, 1);
    the plan draws from (seed, sim_id, cond_idx, iteration, 3).
    """
    plan = study_plan(sim_id, n, r2,
                      rng=LazyStream(seed, sim_id, cond_idx, iteration, 3),
                      n_studies=n_studies, decomposed=decomposed)
    hyp_texts = plan[0].hypotheses
    parsed = {text: hyp.parse(text) for text in hyp_texts}
    labels = {text: hyp.label_of(text) for text in hyp_texts}

    base = dict(sim_id=sim_id, n=n, r2=r2, iteration=iteration, _cond=cond_idx)
    records: dict[str, list[bf.EvidenceRecord]] = {text: [] for text in hyp_texts}
    for entry in plan:
        keys = (seed, sim_id, cond_idx, iteration, entry.study_index)
        mc_rng = LazyStream(*keys, 1)
        try:
            fit = gen_dataset(entry.spec, rng_stream(*keys, 0),
                              lambda raw: glm.fit(entry.design(raw)))
        except (PersistentSeparationError, glm.NotConvergedError) as exc:
            skip = dict(base, study=entry.study_index + 1,
                        family=entry.spec.family, reason=str(exc))
            return [], [], [skip]
        for text in hyp_texts:
            rec = bf.evaluate(fit, parsed[text], label=labels[text],
                              study_id=f"s{entry.study_index + 1}",
                              rng=mc_rng, draws=draws)
            records[text].append(rec)

    # a skip returns early, so every study of the plan was analyzed
    family_set = "+".join(dict.fromkeys(entry.spec.family for entry in plan))
    study_rows: list[dict] = []
    agg_rows: list[dict] = []
    for text in hyp_texts:
        recs = records[text]
        for alt in alternatives:
            per_study = [bf.log_bf(rec, alt) for rec in recs]
            agg = synthesis.aggregate_log_bf(per_study)
            for entry, rec, v in zip(plan, recs, per_study):
                study_rows.append(dict(base, family=rec.family,
                                       study=entry.study_index + 1,
                                       n=rec.n, hypothesis=labels[text],
                                       alternative=alt, fit=rec.fit,
                                       complexity=rec.complexity, log_bf=v,
                                       agg_log_bf=None,
                                       pmp=synthesis.pairwise_pmp(v)))
            agg_rows.append(dict(base, family=family_set, study=None,
                                 hypothesis=labels[text], alternative=alt,
                                 fit=None, complexity=None, log_bf=None,
                                 agg_log_bf=agg,
                                 pmp=synthesis.pairwise_pmp(agg)))
    return study_rows, agg_rows, []


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Run every (condition, iteration) cell and collect ordered rows.

    Work is keyed by (seed, sim, condition, iteration, study) generator
    streams, so results do not depend on the execution schedule; rows are
    ordered by condition then iteration before returning.
    """
    tasks = [(config.sim_id, ci, n, r2, it, config.seed, config.draws,
              config.alternatives, config.n_studies, config.decomposed)
             for ci, n, r2 in config.conditions
             for it in range(config.iterations)]
    if config.threads > 1:
        # only here: multiprocessing costs every other command its import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            outputs = list(pool.map(run_iteration, *zip(*tasks), chunksize=1))
    else:
        outputs = [run_iteration(*task) for task in tasks]

    rows: list[dict] = []
    skips: list[dict] = []
    for study_rows, agg_rows, skipped in outputs:
        rows.extend(study_rows)
        rows.extend(agg_rows)
        skips.extend(skipped)
    _check_aggregates(rows)
    return SimulationResult(RESULT_COLUMNS, rows, skips)


def _check_aggregates(rows: list[dict]):
    # every aggregate row must equal the sum of its per-study rows
    sums: dict[tuple, list[float]] = {}
    for row in rows:
        if row.get("study") is not None:
            key = (row["_cond"], row["iteration"],
                   row["hypothesis"], row["alternative"])
            sums.setdefault(key, []).append(row["log_bf"])
    for row in rows:
        if row.get("study") is None:
            key = (row["_cond"], row["iteration"],
                   row["hypothesis"], row["alternative"])
            expected = synthesis.aggregate_log_bf(sums.get(key, ()))
            got = row["agg_log_bf"]
            if expected != got and abs(expected - got) > 1e-9:
                raise bf.NumericError(
                    f"aggregate cross-check failed for {key}: "
                    f"{got!r} vs sum {expected!r}")
