"""End-to-end acceptance checks for the evidence-synthesis pipeline.

One test per criterion.  Each prints a single ``[criterion NN] PASS``/
``FAIL`` line with the measured numbers (run ``pytest -s`` to see the lines
for passing tests) and asserts the documented tolerance.  All stochastic
criteria run the simulation harness at desk scale with one frozen seed;
runs are deterministic, so the printed numbers are reproducible bit for
bit regardless of thread count or repetition.
"""

import math
import time
from typing import NamedTuple

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr
from scipy.stats import norm, t as student_t

from evsynth import bf, cli, glm, simgen, synthesis
from evsynth.hypothesis import parse
from oracles import mc_prob_region, prob_region

ACCEPT_SEED = 1
MC_DRAWS = 20_000
CHECKPOINTS = (1, 10, 25, 50)

# Reference coefficient triples (b, 2b, 3b) by family and target R²,
# rounded to three decimals.  compute_beta must land within 5e-4 of each
# value before rounding.
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


class AccRun(NamedTuple):
    result: cli.SimulationResult
    elapsed: float


def _run(sim_id, *, iterations, ns, r2s, alternatives,
         n_studies=None, decomposed=False) -> AccRun:
    cfg = cli.SimulationConfig(sim_id=sim_id, iterations=iterations, ns=ns,
                               r2s=r2s, seed=ACCEPT_SEED, draws=MC_DRAWS,
                               alternatives=alternatives, n_studies=n_studies,
                               decomposed=decomposed)
    start = time.perf_counter()
    result = cli.run_simulation(cfg)
    return AccRun(result, time.perf_counter() - start)


def _agg_medians(result, alternative="unconstrained"):
    cells = {}
    for row in result.rows:
        if row.get("study") is None and row["alternative"] == alternative:
            cells.setdefault((row["n"], row["r2"]), []).append(row["agg_log_bf"])
    return {cell: float(np.median(vals)) for cell, vals in cells.items()}


def _cum_matrix(result, alternative, hypothesis=None):
    """Cumulative per-iteration log BF trajectories, shape (iters, T)."""
    per_iter = {}
    for row in result.rows:
        if row.get("study") is None or row["alternative"] != alternative:
            continue
        if hypothesis is not None and row["hypothesis"] != hypothesis:
            continue
        per_iter.setdefault(row["iteration"], {})[row["study"]] = row["log_bf"]
    iterations = sorted(per_iter)
    horizon = max(per_iter[iterations[0]])
    mat = np.array([[per_iter[i][t] for t in range(1, horizon + 1)]
                    for i in iterations])
    return np.cumsum(mat, axis=1)


def _increasing(values):
    return all(a < b for a, b in zip(values, values[1:]))


def _conclude(criterion, conditions, detail):
    ok = all(conditions.values())
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    failed = [name for name, good in conditions.items() if not good]
    assert not failed, f"criterion {criterion} failed: {', '.join(failed)} ({detail})"


@pytest.fixture(scope="module")
def sim1_run():
    return _run(1, iterations=200, ns=(25, 100, 400), r2s=(0.02, 0.09, 0.25),
                alternatives=("unconstrained",))


@pytest.fixture(scope="module")
def sim2_run():
    return _run(2, iterations=200, ns=(100, 400), r2s=(0.02, 0.09, 0.25),
                alternatives=("unconstrained",))


@pytest.fixture(scope="module")
def sim3_run():
    return _run(3, iterations=100, ns=(800,), r2s=(0.25,),
                alternatives=("unconstrained",))


@pytest.fixture(scope="module")
def sim7_run():
    return _run(7, iterations=200, ns=(100, 800), r2s=(0.25,),
                alternatives=("unconstrained",))


@pytest.fixture(scope="module")
def sim8_run():
    return _run(8, iterations=200, ns=(100, 800), r2s=(0.25,),
                alternatives=("unconstrained",))


@pytest.fixture(scope="module")
def sim9_run():
    return _run(9, iterations=200, ns=(25,), r2s=(simgen.SEQUENTIAL_R2,),
                alternatives=("unconstrained", "complement"), n_studies=50)


@pytest.fixture(scope="module")
def sim10_run():
    return _run(10, iterations=200, ns=(25,), r2s=(simgen.SEQUENTIAL_R2,),
                alternatives=("complement",), n_studies=50)


@pytest.fixture(scope="module")
def sim11_run():
    return _run(11, iterations=200, ns=(25,), r2s=(simgen.SEQUENTIAL_R2,),
                alternatives=("complement",), n_studies=50, decomposed=True)


def test_criterion_01_coefficient_calibration():
    worst = 0.0
    for (family, r2), expected in CALIBRATION_TABLE.items():
        spec = simgen.DataGenSpec(family=family, n=100, r2=r2)
        beta = simgen.compute_beta(spec)
        got = (beta[1], beta[4], beta[5])
        worst = max(worst, max(abs(g - e) for g, e in zip(got, expected)))
    _conclude(1, {"all 9 triples within 5e-4": worst <= 5e-4},
              f"max |beta - reference| = {worst:.2e}")


def test_criterion_02_quadratic_form_oracle():
    spec = simgen.DataGenSpec(family="gaussian", n=100, r2=0.25)
    a = np.asarray(simgen.DEFAULT_WEIGHTS)
    sigma = simgen.predictor_cov()
    brute = 0.0
    for i in range(6):
        for j in range(6):
            brute += a[i] * a[j] * sigma[i, j]
    # Denominator actually used: beta = a * sqrt(V / denom), so invert from
    # the largest coefficient.
    beta = simgen.compute_beta(spec)
    denom = simgen.latent_variance(spec) / (beta[5] / a[5]) ** 2
    var_eta = float(beta @ sigma @ beta)
    _conclude(2, {
        "brute-force sum equals 30.4": abs(brute - 30.4) <= 1e-12,
        "compute_beta denominator matches": abs(denom - brute) <= 1e-9,
        "Var(X beta) equals target": abs(var_eta - simgen.latent_variance(spec)) <= 1e-12,
    }, f"sum = {float(brute)!r}, denominator = {float(denom)!r}")


def test_criterion_03_aggregated_bf_caps(sim3_run):
    result, elapsed = sim3_run
    rows = [r for r in result.rows
            if r.get("study") is None and r["alternative"] == "unconstrained"]
    values = [r["agg_log_bf"] for r in rows]
    median = float(np.median(values))
    cap = math.log(8.0)
    over = max(v - (cap + 3.0 * r.get("mc_se", 0.0)) for v, r in zip(values, rows))
    mean_pmp = float(np.mean([r["pmp"] for r in rows]))
    _conclude(3, {
        "median in [1.9, 2.08]": 1.9 <= median <= 2.08,
        "never exceeds ln 8 + 3 MC SE": over <= 1e-12,
        "mean PMP <= 8/9 + 0.005": mean_pmp <= 8.0 / 9.0 + 0.005,
        "runtime under 5 minutes": elapsed < 300.0,
    }, f"median = {median:.4f}, max excess over cap = {over:.2e}, "
       f"mean PMP = {mean_pmp:.4f}, {elapsed:.1f}s")


def test_criterion_04_sample_size_monotonicity(sim1_run, sim2_run):
    m1 = _agg_medians(sim1_run.result)
    m2 = _agg_medians(sim2_run.result)
    mono = {
        r2: _increasing([m1[(n, r2)] for n in (25, 100, 400)])
        for r2 in (0.09, 0.25)
    }
    gaps = {cell: m1[cell] - m2[cell] for cell in m2}
    min_gap = min(gaps.values())
    _conclude(4, {
        "median increases in n at R2=0.09": mono[0.09],
        "median increases in n at R2=0.25": mono[0.25],
        "underpowered-study medians never higher": min_gap >= 0.0,
    }, f"medians at R2=0.25: "
       f"{[round(m1[(n, 0.25)], 3) for n in (25, 100, 400)]}, "
       f"min cell gap = {min_gap:+.3f}")


def test_criterion_05_incorrect_hypothesis_decay(sim7_run):
    m = _agg_medians(sim7_run.result)
    m100, m800 = m[(100, 0.25)], m[(800, 0.25)]
    _conclude(5, {
        "medians negative": m100 < 0.0 and m800 < 0.0,
        "median decreases with n": m800 < m100,
    }, f"median log BF: n=100 {m100:.3f}, n=800 {m800:.3f}")


def test_criterion_06_partially_incorrect_growth(sim8_run):
    m = _agg_medians(sim8_run.result)
    m100, m800 = m[(100, 0.25)], m[(800, 0.25)]
    _conclude(6, {"median increases from n=100 to n=800": m100 < m800},
              f"median log BF: n=100 {m100:.3f}, n=800 {m800:.3f}")


def test_criterion_07_sequential_synthesis_shapes(sim9_run, sim10_run, sim11_run):
    elapsed = sim9_run.elapsed + sim10_run.elapsed + sim11_run.elapsed

    cum_u = _cum_matrix(sim9_run.result, "unconstrained").mean(axis=0)
    cum_c = _cum_matrix(sim9_run.result, "complement").mean(axis=0)
    against_u = [cum_u[t - 1] for t in CHECKPOINTS]
    against_c = [cum_c[t - 1] for t in CHECKPOINTS]

    cum10 = _cum_matrix(sim10_run.result, "complement")
    terminal = float(cum10.mean(axis=0)[-1])
    iqr = np.quantile(cum10, 0.75, axis=0) - np.quantile(cum10, 0.25, axis=0)
    iqr_points = [iqr[t - 1] for t in CHECKPOINTS]

    parts = {}
    for label in ("x2>0", "x3>0", "x4>0"):
        cum = _cum_matrix(sim11_run.result, "complement", label).mean(axis=0)
        parts[label] = _increasing([cum[t - 1] for t in CHECKPOINTS])

    _conclude(7, {
        "correct hypothesis loses vs unconstrained": _increasing(against_u[::-1]),
        "correct hypothesis gains vs complement": _increasing(against_c),
        "null-effect terminal mean within 0.3 of 0": abs(terminal) <= 0.3,
        "null-effect spread grows": _increasing(iqr_points),
        "decomposed parts each gain": all(parts.values()),
        "runtime under 10 minutes": elapsed < 600.0,
    }, f"mean cum vs u {[round(float(v), 2) for v in against_u]}, "
       f"vs c {[round(float(v), 2) for v in against_c]}, "
       f"terminal drift {terminal:+.3f}, IQR {[round(float(v), 1) for v in iqr_points]}, "
       f"{elapsed:.1f}s")


def _format_constraint(row, rhs):
    terms = []
    for j, coef in enumerate(row):
        mag = f"{abs(float(coef))!r}*b{j + 1}"
        if not terms:
            terms.append(f"-{mag}" if coef < 0 else mag)
        else:
            terms.append(f"{'-' if coef < 0 else '+'} {mag}")
    return " ".join(terms) + f" > {float(rhs)!r}"


def test_criterion_08_mc_matches_exact_cdf():
    rng = np.random.default_rng([ACCEPT_SEED, 8])
    worst_z = 0.0
    worst_ref = 0.0
    for k in range(50):
        kind = "normal" if k % 2 == 0 else "student-t"
        dim = k % 3 + 1
        df = (3.0, 5.0, 12.0, 30.0)[k % 4] if kind == "student-t" else math.inf
        mean = rng.uniform(-2.0, 2.0, size=dim)
        root = rng.normal(size=(dim, dim))
        scale = root @ root.T + 0.5 * np.eye(dim)
        names = tuple(f"b{j + 1}" for j in range(dim))
        dist = bf.CoefDistribution(mean, scale, names, df)
        row = rng.uniform(-1.0, 1.0, size=dim)
        while np.abs(row).max() < 0.2:
            row = rng.uniform(-1.0, 1.0, size=dim)
        center = float(row @ mean)
        spread = math.sqrt(float(row @ scale @ row))
        rhs = center + spread * rng.uniform(-2.0, 2.0)
        h = parse(_format_constraint(row, rhs))

        p_exact, se_exact = prob_region(dist, h)
        z = (center - rhs) / spread
        p_ref = float(student_t.cdf(z, df)) if kind == "student-t" else float(ndtr(z))
        p_mc, se_mc = mc_prob_region(
            dist, h, rng=np.random.default_rng([ACCEPT_SEED, 8, 100 + k]),
            draws=50_000)

        assert se_exact == 0.0 and se_mc > 0.0
        assert 0.02 < p_exact < 0.98
        worst_ref = max(worst_ref, abs(p_exact - p_ref))
        worst_z = max(worst_z, abs(p_mc - p_exact) / se_mc)
    _conclude(8, {
        "exact path matches scipy CDF": worst_ref <= 1e-12,
        "all 50 MC estimates within 3 SE": worst_z <= 3.0,
    }, f"worst |MC - exact| = {worst_z:.2f} SE, "
       f"worst CDF deviation = {worst_ref:.1e}")


def _record(log_bf):
    return bf.EvidenceRecord(study_id="s1", hypothesis="H", fit=0.5,
                             complexity=0.5, log_bf_iu=log_bf, log_bf_ic=None,
                             mc_se_fit=0.0, mc_se_complexity=0.0, mc_draws=0)


def test_criterion_09_engine_micro_oracles():
    posterior = bf.CoefDistribution([0.0], [[1.0]], ("b1",))
    prior = bf.CoefDistribution([0.0], [[2.0]], ("b1",))
    rec = bf.bf_iu(posterior, prior, parse("b1 = 0"))
    density_ratio_err = abs(math.exp(rec.log_bf_iu) - math.sqrt(2.0))

    dist = bf.CoefDistribution([0.5], [[0.25]], ("b1",))
    p_in, _ = prob_region(dist, parse("b1 > 0.3"))
    p_out, _ = prob_region(dist, parse("b1 < 0.3"))
    complement_err = abs(p_in + p_out - 1.0)

    centered = bf.CoefDistribution([0.3], [[1.0]], ("b1",))
    rec2 = bf.bf_iu(dist, centered, parse("b1 > 0.3"))
    rebuilt = ((math.log(rec2.fit) + math.log1p(-rec2.complexity))
               - (math.log(rec2.complexity) + math.log1p(-rec2.fit)))
    complement_exact = bf.bf_ic(rec2) == rebuilt

    rng = np.random.default_rng([ACCEPT_SEED, 9])
    logs = rng.normal(size=5)
    recs = [_record(v) for v in logs]
    transitive = all(bf.bf_between(recs[i], recs[j]) == logs[i] - logs[j]
                     for i in range(5) for j in range(5))

    worst_norm = 0.0
    for trial in range(20):
        log_bfs = rng.normal(scale=30.0, size=rng.integers(2, 9))
        total = float(synthesis.pmps(log_bfs).sum())
        worst_norm = max(worst_norm, abs(total - 1.0))
    _conclude(9, {
        "density-ratio BF = sqrt(2) within 1e-9": density_ratio_err <= 1e-9,
        "region + complement mass = 1": complement_err <= 1e-12,
        "complement BF rebuilt exactly from (f, c)": complement_exact,
        "between-hypothesis BF exact in log space": transitive,
        "PMPs normalize within 1e-12": worst_norm <= 1e-12,
    }, f"sqrt(2) error = {density_ratio_err:.1e}, mass error = {complement_err:.1e}, "
       f"worst PMP norm error = {worst_norm:.1e}")


def test_criterion_10_glm_fit_oracles():
    ones = np.ones((4, 1))
    y = np.array([1.0, 1.0, 1.0, 0.0])
    logit_beta = glm.fit_binomial(
        glm.Dataset(ones, y, "logit", ("intercept",))).beta[0]
    probit_beta = glm.fit_binomial(
        glm.Dataset(ones, y, "probit", ("intercept",))).beta[0]
    logit_err = abs(logit_beta - math.log(3.0))
    probit_err = abs(probit_beta - norm.ppf(0.75))

    worst_rel = 0.0
    rng = np.random.default_rng([ACCEPT_SEED, 10])
    design = np.column_stack([np.ones(400), rng.normal(size=(400, 2))])
    eta = design @ np.array([-0.2, 0.6, 0.3])
    for family in ("logit", "probit"):
        mu = 1.0 / (1.0 + np.exp(-eta)) if family == "logit" else ndtr(eta)
        resp = (rng.random(400) < mu).astype(float)
        d = glm.Dataset(design, resp, family, ("intercept", "x1", "x2"))
        fitted = glm.fit_binomial(d)

        def loglik(beta):
            z = design @ beta
            if family == "logit":
                return float(resp @ z - np.logaddexp(0.0, z).sum())
            return float(resp @ log_ndtr(z) + (1.0 - resp) @ log_ndtr(-z))

        step = 1e-5
        p = len(fitted.beta)
        hessian = np.zeros((p, p))
        for i in range(p):
            for j in range(p):
                ei = np.eye(p)[i] * step
                ej = np.eye(p)[j] * step
                hessian[i, j] = (loglik(fitted.beta + ei + ej)
                                 - loglik(fitted.beta + ei - ej)
                                 - loglik(fitted.beta - ei + ej)
                                 + loglik(fitted.beta - ei - ej)) / (4.0 * step ** 2)
        fd_cov = np.linalg.inv(-hessian)
        worst_rel = max(worst_rel,
                        float(np.max(np.abs(fitted.cov - fd_cov)
                                     / np.maximum(np.abs(fd_cov), 1e-12))))
    _conclude(10, {
        "intercept-only logit matches log 3": logit_err <= 1e-6,
        "intercept-only probit matches inverse-CDF": probit_err <= 1e-6,
        "covariance matches FD Hessian to 1e-4": worst_rel <= 1e-4,
    }, f"logit error = {logit_err:.1e}, probit error = {probit_err:.1e}, "
       f"worst cov relative error = {worst_rel:.1e}")
