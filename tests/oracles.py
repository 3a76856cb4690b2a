"""Oracles that only tests use: region probabilities by name, the Monte
Carlo sampler of region masses, the constraint transform over the whole
law, row-by-row equality of constraint systems, and their rendering back
to hypothesis syntax.

The sampler draws ``standard_normal((draws, k))``, scales the draws by a
symmetric square root of the eta scale and, for a Student-t law, divides
them by sqrt(chi2(df) / df) from ``chisquare(df, draws)``; its error
estimate is one binomial standard error.  It shares no factorization with
the ladder of :func:`evsynth.bf._orthant_prob`, which it checks.  To take
every region mass of :func:`evsynth.bf.bf_iu` from it, replace
``bf._orthant_prob`` by :func:`mc_orthant_prob` (pytest's ``monkeypatch``).
"""

import math

import numpy as np

from evsynth import bf
from evsynth import hypothesis as hyp


def psd_sqrt(S: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(S)
    wmax = max(float(w.max(initial=0.0)), 0.0)
    if float(w.min(initial=0.0)) < -1e-8 * max(1.0, wmax):
        raise bf.NumericError("transformed scale matrix is not positive semidefinite")
    return V * np.sqrt(np.clip(w, 0.0, None))


def mc_orthant_prob(mean: np.ndarray, scale: np.ndarray, df: float, rng,
                    draws: int) -> tuple[float, float, int, str]:
    """P(eta > 0) with eta ~ t(mean, scale, df), the normal law above
    ``bf._CHI_DF_MAX``, by Monte Carlo, returned
    as :func:`evsynth.bf._orthant_prob` returns it: (probability, standard
    error, draws, "mc")."""
    if draws < 1:
        raise ValueError(f"draws must be a positive integer, got {draws!r}")
    rng = np.random.default_rng() if rng is None else rng
    k = mean.shape[0]
    A = psd_sqrt(scale)
    z = rng.standard_normal((draws, k))
    x = z @ A.T
    if df <= bf._CHI_DF_MAX:
        x /= np.sqrt(rng.chisquare(df, draws) / df)[:, None]
    x += mean
    p = float(np.all(x > 0.0, axis=1).mean())
    se = math.sqrt(p * (1.0 - p) / draws)
    return p, se, draws, "mc"


def _inequality_only(h: hyp.ConstraintSystem):
    if h.n_eq:
        raise ValueError("prob_region requires an inequality-only hypothesis")


def prob_region(dist: bf.CoefDistribution, h: hyp.ConstraintSystem,
                rng=None, draws: int = bf.DEFAULT_DRAWS) -> tuple[float, float]:
    """Probability that ``dist`` satisfies the inequality rows of ``h``, by
    the package's ladder.

    ``h`` must have inequality rows only; equality constraints take the
    density path.  Returns (probability, error estimate): 0 for closed
    forms and CDFs, the difference of two rules for quadrature (at least
    ``bf._QUAD_FLOOR``) and one standard error for lattice QMC.  A
    Student-t law with df below 1 whose mass needs lattice QMC (four or
    more rows, a three-row box, or a three-row orthant the quadrature rule
    cannot resolve) raises :class:`evsynth.bf.NumericError`.
    """
    _inequality_only(h)
    eta = hyp.transform_constraints(h, dist.mean, dist.scale, dist.names,
                                    dist.df)
    _, p, se, _, _ = bf._log_mass(eta, rng, draws)
    return p, se


def mc_prob_region(dist: bf.CoefDistribution, h: hyp.ConstraintSystem,
                   rng=None, draws: int = bf.DEFAULT_DRAWS) -> tuple[float, float]:
    """:func:`prob_region` by the Monte Carlo sampler: (probability, one
    standard error)."""
    _inequality_only(h)
    eta = hyp.transform_constraints(h, dist.mean, dist.scale, dist.names,
                                    dist.df).ineq
    p, se, _, _ = mc_orthant_prob(eta.mean, eta.scale, dist.df, rng, draws)
    return p, se


def padded_transform(h: hyp.ConstraintSystem, mean: np.ndarray,
                     scale: np.ndarray, names, df: float = math.inf
                     ) -> hyp.TransformedConstraints:
    """:func:`evsynth.hypothesis.transform_constraints` over every
    coefficient in ``names``: the rows of ``h`` zero-padded to the law's
    full width, whose eta moments do not depend on the coefficients that
    ``h`` leaves free."""
    R = np.zeros((h.R.shape[0], len(names)))
    R[:, hyp.columns(h, names)] = h.R
    eta_mean = R @ np.asarray(mean, dtype=float) - h.r
    eta_scale = R @ np.asarray(scale, dtype=float) @ R.T
    eta_scale = (eta_scale + eta_scale.T) / 2.0
    ke, k = h.n_eq, h.R.shape[0]
    eq, ineq = ((hyp.EtaDistribution(eta_mean[lo:hi], eta_scale[lo:hi, lo:hi],
                                     df) if hi > lo else None)
                for lo, hi in ((0, ke), (ke, k)))
    cross = eta_scale[ke:, :ke] if eq and ineq else None
    return hyp.TransformedConstraints(eq, ineq, cross)


def same_system(a: hyp.ConstraintSystem, b: hyp.ConstraintSystem) -> bool:
    """Whether ``b`` has the same names and exactly the same rows as ``a``."""
    pairs = ((a.R_e, b.R_e), (a.r_e, b.r_e), (a.R_i, b.R_i), (a.r_i, b.r_i))
    return (a.param_names == b.param_names
            and all(np.array_equal(x, y) for x, y in pairs))


def to_text(cs: hyp.ConstraintSystem) -> str:
    """Render ``cs`` back to hypothesis syntax, one relation per row, in
    the notation of the package's contradiction messages; reparsing the
    result reproduces ``cs`` exactly."""
    names = cs.param_names
    parts = [f"{hyp._format_row(row, names)} = {float(rhs)!r}"
             for row, rhs in zip(cs.R_e, cs.r_e)]
    parts += [f"{hyp._format_row(row, names)} > {float(rhs)!r}"
              for row, rhs in zip(cs.R_i, cs.r_i)]
    return " & ".join(parts)
