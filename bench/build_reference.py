"""Build ``reference.json``: high-precision log Bayes factors for the
benchmark's reference blocks.

For every study of every reference task the script captures the fit and
constraint system that ``bf.evaluate`` receives, rebuilds the posterior and
the adjusted prior with evsynth's own constructors, maps them into
constraint space with ``hypothesis.transform_constraints``, and computes the
region masses P(eta > 0) without Monte Carlo:

* oracle A (the stored value): nested adaptive quadrature.  A normal
  orthant is integrated one coordinate at a time, conditioning the rest;
  a Student-t orthant is the normal one integrated over its chi-square
  mixing variable.
* oracle B (the cross-check): ``scipy.stats`` CDFs (Genz-Bretz lattice
  integration for two and three rows).

The largest |log A - log B| over all masses is stored as the reference's
precision; differences below ``resolution`` are not resolved by the
benchmark.

Run from the repository root (a few minutes on two cores)::

    python3 bench/build_reference.py
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import chi2, multivariate_normal, multivariate_t, t as student_t

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from evsynth import bf, cli, hypothesis  # noqa: E402

import workloads  # noqa: E402

QUAD = dict(epsabs=0.0, epsrel=1e-11, limit=200)
MIN_RESOLUTION = 1e-6
MC_LIMIT_FACTOR = 4.0


def normal_orthant(a: np.ndarray, R: np.ndarray) -> float:
    """P(Z < a) for Z ~ N(0, R), R a correlation matrix."""
    if a.shape[0] == 1:
        return float(ndtr(a[0]))
    r = R[1:, 0]
    S = R[1:, 1:] - np.outer(r, r)
    sd = np.sqrt(np.diag(S))
    Rc = S / np.outer(sd, sd)

    def integrand(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * \
            normal_orthant((a[1:] - r * x) / sd, Rc)

    return integrate.quad(integrand, -np.inf, a[0], **QUAD)[0]


def _standardize(mean, scale):
    sd = np.sqrt(np.diag(scale))
    return mean / sd, scale / np.outer(sd, sd)


def orthant_quad(kind: str, mean, scale, df) -> float:
    """Oracle A: P(eta > 0) for eta ~ kind(mean, scale, df)."""
    a, R = _standardize(mean, scale)
    if kind == "normal":
        return normal_orthant(a, R)
    if not a.any():
        return normal_orthant(a, R)   # zero mean: the mixing variable cancels

    def integrand(w):
        return chi2.pdf(w, df) * normal_orthant(a * math.sqrt(w / df), R)

    lo, hi = chi2.ppf(1e-15, df), chi2.isf(1e-15, df)
    return integrate.quad(integrand, lo, hi, points=[df], **QUAD)[0]


def orthant_scipy(kind: str, mean, scale, df) -> float:
    """Oracle B: the same mass from scipy.stats CDFs."""
    a, R = _standardize(mean, scale)
    if a.shape[0] == 1:
        return float(student_t.cdf(a[0], df) if kind == "student-t" else ndtr(a[0]))
    rng = np.random.default_rng(0)
    if kind == "normal":
        return float(multivariate_normal.cdf(a, cov=R, maxpts=1_000_000,
                                              abseps=1e-12, releps=1e-10, rng=rng))
    return float(multivariate_t.cdf(a, shape=R, df=df, maxpts=1_000_000,
                                    random_state=rng))


def log_bfs(fit, h, frac) -> tuple[float, float | None, float, float, float]:
    """(log BF_iu, log BF_ic, fit, complexity, largest oracle disagreement)."""
    frac = frac or bf.default_fraction(fit, [h])
    center = bf.adjustment_center(h, names=fit.names)
    masses, worst = [], 0.0
    for dist in (bf.build_posterior(fit), bf.build_prior(fit, frac, center)):
        eta = hypothesis.transform_constraints(h, dist.mean, dist.scale, dist.names,
                                               dist.df).ineq
        p = orthant_quad(dist.kind, eta.mean, eta.scale, dist.df)
        q = orthant_scipy(dist.kind, eta.mean, eta.scale, dist.df)
        worst = max(worst, abs(math.log(p) - math.log(q)))
        # one row: the complement is the orthant of -eta, computed directly
        comp = (orthant_quad(dist.kind, -eta.mean, eta.scale, dist.df)
                if eta.mean.shape[0] == 1 else 1.0 - p)
        masses.append((p, comp))
    (f, nf), (c, nc) = masses
    iu = math.log(f) - math.log(c)
    ic = math.log(f) + math.log(nc) - math.log(c) - math.log(nf)
    return iu, ic, f, c, worst


def mc_variance(f: float, c: float, draws: int) -> float:
    """Delta-method variance of a Monte Carlo log BF_iu at ``draws``."""
    return ((1.0 - f) / f + (1.0 - c) / c) / draws


def capture(fn, *args) -> list[dict]:
    """Arguments of every ``bf.evaluate`` call made while running ``fn``."""
    calls, original = [], bf.evaluate
    signature = inspect.signature(original)

    def spy(*a, **kw):
        calls.append(signature.bind(*a, **kw).arguments)
        return original(*a, **kw)

    bf.evaluate = spy
    try:
        fn(*args)
    finally:
        bf.evaluate = original
    return calls


def build_sim(workload: str) -> tuple[dict, float]:
    spec = workloads.SIMS[workload]
    entries, variances, worst = {}, [], 0.0
    for is_ref, task in workloads.sim_ops(workload, 0):
        if not is_ref:
            break
        cheap = task[:6] + (200,) + task[7:]   # datasets do not depend on draws
        for call in capture(cli.run_iteration, *cheap):
            iu, ic, f, c, err = log_bfs(call["fit"], call["h"], call.get("frac"))
            worst = max(worst, err)
            key = f"c{task[1]}-i{task[4]}-s{call['study_id'][1:]}-{call['label']}"
            entries[key] = [iu, ic]
            if call["h"].n_ineq > 1:
                variances.append(mc_variance(f, c, spec.draws))
            else:
                variances.append(0.0)
    return {"draws": spec.draws, "entries": entries,
            "expected_mc_rmse": math.sqrt(sum(variances) / len(variances))}, worst


def build_cli() -> tuple[dict, float]:
    entries, variances, worst = {}, [], 0.0
    with tempfile.TemporaryDirectory(dir=ROOT / "bench") as tmp:
        tmp = Path(tmp)
        for study in workloads.cli_studies(0):
            if not study.is_ref:
                break
            data = tmp / f"{study.study_id}.csv"
            workloads.write_study_csv(data, study.family, study.n, study.r2,
                                      np.random.default_rng(list(study.data_seed)))
            for j in range(len(workloads.CLI_HYPOTHESES)):
                argv = workloads.analyze_argv(study, j, data, tmp / "rec.json")
                argv += ["--mc-draws", "200"]
                for call in capture(workloads.run_in_process, argv):
                    iu, ic, f, c, err = log_bfs(call["fit"], call["h"], call.get("frac"))
                    worst = max(worst, err)
                    entries[f"{study.study_id}-{call['label']}"] = [iu, ic]
                    variances.append(mc_variance(f, c, bf.DEFAULT_DRAWS)
                                     if call["h"].n_ineq > 1 else 0.0)
    return {"draws": bf.DEFAULT_DRAWS, "entries": entries,
            "expected_mc_rmse": math.sqrt(sum(variances) / len(variances))}, worst


def main() -> int:
    out = {"ref_seed": workloads.REF_SEED, "workloads": {}}
    precision = 0.0
    for name in workloads.WORKLOADS:
        block, worst = build_cli() if name == "cli-roundtrip" else build_sim(name)
        out["workloads"][name] = block
        precision = max(precision, worst)
        print(f"{name}: {len(block['entries'])} log BFs, oracle disagreement "
              f"{worst:.2e}, expected MC rmse {block['expected_mc_rmse']:.4g}")
    resolution = max(MIN_RESOLUTION, precision)
    for block in out["workloads"].values():
        block["rmse_limit"] = max(MC_LIMIT_FACTOR * block["expected_mc_rmse"], resolution)
    out["precision"] = precision
    out["resolution"] = resolution
    out["method"] = ("nested adaptive quadrature (scipy.integrate.quad, epsrel "
                     f"{QUAD['epsrel']:g}); cross-checked against scipy.stats CDFs")
    out["built_with"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                         "scipy": scipy.__version__}
    path = workloads.REFERENCE_PATH
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}: precision {precision:.2e}, "
          f"resolution {resolution:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
