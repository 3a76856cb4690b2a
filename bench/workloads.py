"""The benchmark's workloads, their output checks and their layer counters.

Every workload is a closed loop with one client: each operation starts
when the previous one has ended, in one process.  The benchmark seed picks
a fixed list of operations; evsynth sees only the generated inputs.  The list starts with
a reference block with the same inputs for every seed, whose per-study
log Bayes factors are compared with the high-precision values in
``reference.json`` (see ``build_reference.py``).

A run repeats the list in passes until its time is spent.  Other tenants of
a shared host slow every instruction for seconds at a time, so an
operation's latency is its best time over the passes.  Every repetition
must reproduce the first pass's output exactly.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from evsynth import bf, cli, glm, hypothesis, simgen, synthesis

MODULES = {"hypothesis": hypothesis, "glm": glm, "simgen": simgen, "bf": bf,
           "synthesis": synthesis, "cli": cli}
REF_SEED = 20231215
REFERENCE_PATH = Path(__file__).with_name("reference.json")
REL_TOL = 1e-9


@dataclass(frozen=True)
class SimSpec:
    sim_id: int
    ns: tuple[int, ...]
    r2s: tuple[float, ...]
    draws: int
    alternatives: tuple[str, ...]
    n_studies: int | None
    decomposed: bool
    ref_iterations: int
    seed_iterations: int

    def conditions(self):
        return list(enumerate(itertools.product(self.ns, self.r2s)))

    def task(self, cond_idx, iteration, seed):
        n, r2 = self.conditions()[cond_idx][1]
        return (self.sim_id, cond_idx, n, r2, iteration, seed, self.draws,
                self.alternatives, self.n_studies, self.decomposed)

    def hypotheses(self):
        n, r2 = self.conditions()[0][1]
        plan = simgen.study_plan(self.sim_id, n, r2, rng=np.random.default_rng(0),
                                 n_studies=1, decomposed=self.decomposed)
        return plan[0].hypotheses


SIMS = {
    # the sim1_run acceptance fixture: two-row Monte Carlo region masses;
    # 108 operations, so the tail is p90
    "sim1-mc": SimSpec(1, (25, 100, 400), (0.02, 0.09, 0.25), 20_000,
                       ("unconstrained",), None, False,
                       ref_iterations=4, seed_iterations=8),
    # the sim11_run acceptance fixture: 150 single-row exact-CDF records per
    # operation; 100 operations
    "sim11-decomposed": SimSpec(11, (25,), (simgen.SEQUENTIAL_R2,), 20_000,
                                ("complement",), 50, True,
                                ref_iterations=2, seed_iterations=98),
}

# two and three Monte Carlo rows, and one row on the exact-CDF path whose
# complexity must be exactly 0.5
CLI_HYPOTHESES = ("x4 < x5 < x6", "{x2, x3, x4} > 0", "x6 > 0")
CLI_FAMILIES = ("gaussian", "logit", "probit")
CLI_R2S = (0.02, 0.09, 0.25)
# one seed study per family and size: the seed picks R², data, analyze
# seeds and order, while the cost of a pass stays the same for every seed
CLI_SIZES = (300, 1200, 4800)
CLI_REF_STUDIES = (("gaussian", 300, 0.09), ("probit", 4000, 0.25))
WORKLOADS = tuple(SIMS) + ("cli-roundtrip",)


def label_of(text: str) -> str:
    """The record label evsynth gives a hypothesis string."""
    return text.replace(" ", "")


def single_row_labels(texts) -> set[str]:
    """Labels of hypotheses with one homogeneous inequality row, whose
    complexity is exactly 0.5 under the boundary-centered prior."""
    out = set()
    for text in texts:
        h = hypothesis.parse(text)
        if h.n_eq == 0 and h.n_ineq == 1 and not h.r_i.any():
            out.add(label_of(text))
    return out


CLI_SINGLE_ROWS = single_row_labels(CLI_HYPOTHESES)


def close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def untraced(recorder):
    """A context in which the benchmark's own calls into evsynth (its
    output checks) leave no spans, so span counts are evsynth's alone."""
    return recorder.paused() if recorder is not None else contextlib.nullcontext()


def rmse(errors) -> float:
    if not errors:
        return math.inf
    return math.sqrt(sum(e * e for e in errors) / len(errors))


# ---------------------------------------------------------------------------
# passes and their combination

@dataclass
class Pass:
    """One pass over a workload's operation list."""

    op_seconds: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)        # compared across passes
    problems: dict[int, list[str]] = field(default_factory=dict)
    synth_seconds: list[float] = field(default_factory=list)
    records: int = 0
    finalize_seconds: float = 0.0   # results CSV write, or the synthesize call
    finalize_problems: list[str] = field(default_factory=list)
    ref_errors: list[float] = field(default_factory=list)


@dataclass
class Result:
    """Best-of-passes figures for one run."""

    op_best: list[float]
    synth_best: list[float]
    finalize_best: float
    records: int
    attempted: int
    failed: int
    problems: list[str]
    ref_errors: list[float]
    passes: int

    @property
    def busy_seconds(self) -> float:
        return sum(self.op_best) + self.finalize_best


def combine(passes: list[Pass], n_ops: int) -> Result:
    """Per operation, the least time over the passes.

    An operation fails if any repetition raised, failed a check or gave
    output different from the first pass.  The final step (results CSV or
    ``synthesize``) counts as one more operation.
    """
    first = passes[0]
    failed_ops: set[int] = set()
    problems: list[str] = []
    for p in passes:
        for i, found in p.problems.items():
            failed_ops.add(i)
            problems.extend(found[:2])
        for i, out in enumerate(p.outputs):
            if i not in failed_ops and out != first.outputs[i]:
                failed_ops.add(i)
                problems.append(f"operation {i} gave different output on a repeat")
    final_problems = [msg for p in passes for msg in p.finalize_problems]
    problems.extend(final_problems[:3])
    op_best = [min(p.op_seconds[i] for p in passes) for i in range(n_ops)]
    synth_best = [min(p.synth_seconds[i] for p in passes)
                  for i in range(len(first.synth_seconds))]
    return Result(op_best=op_best, synth_best=synth_best,
                  finalize_best=min(p.finalize_seconds for p in passes),
                  records=first.records, attempted=n_ops + 1,
                  failed=len(failed_ops) + bool(final_problems), problems=problems,
                  ref_errors=first.ref_errors, passes=len(passes))


# ---------------------------------------------------------------------------
# simulation workloads

def sim_ops(workload: str, seed: int) -> list[tuple[bool, tuple]]:
    """Reference tasks (fixed seed), then seed-derived rounds over every
    condition, each in seed-shuffled order."""
    spec = SIMS[workload]
    rnd = _rng(workload, seed)
    conds = [ci for ci, _ in spec.conditions()]
    ref = [(True, spec.task(ci, it, REF_SEED))
           for it in range(spec.ref_iterations) for ci in conds]
    rnd.shuffle(ref)
    data_seed = rnd.randrange(2 ** 32)
    ops = []
    for it in range(spec.seed_iterations):
        order = conds[:]
        rnd.shuffle(order)
        ops.extend((False, spec.task(ci, it, data_seed)) for ci in order)
    return ref + ops


def check_sim_op(study_rows, agg_rows, single_rows) -> list[str]:
    problems = []
    sums: dict[tuple, list[float]] = {}
    for row in study_rows:
        f, c = row["fit"], row["complexity"]
        if not (0.0 <= f <= 1.0 and 0.0 <= c <= 1.0):
            problems.append(f"fit {f!r} or complexity {c!r} outside [0, 1]")
        if row["hypothesis"] in single_rows and c != 0.5:
            problems.append(f"{row['hypothesis']}: complexity {c!r} != 0.5")
        sums.setdefault((row["hypothesis"], row["alternative"]), []).append(row["log_bf"])
    for row in agg_rows:
        values = sums.get((row["hypothesis"], row["alternative"]), [])
        inf = [v for v in values if math.isinf(v)]
        expected = inf[0] if inf else math.fsum(values)
        if not values or not close(row["agg_log_bf"], expected):
            problems.append(f"aggregate {row['agg_log_bf']!r} != sum {expected!r}")
    return problems


def replay_synthesis(done) -> tuple[float, dict[int, list[str]]]:
    """For each completed operation ``(i, study_rows, agg_rows)`` of a pass,
    fold each (hypothesis, alternative)'s per-study log BFs through
    ``synthesis.update``.  Return the seconds the whole pass's replay took
    and, per operation, any mismatch with its aggregate rows."""
    start = time.perf_counter()
    replayed = []
    for _, study_rows, _ in done:
        states = {}
        for row in study_rows:
            key = (row["hypothesis"], row["alternative"])
            state = states.get(key)
            if state is None:
                state = synthesis.new_state([key[0], key[1]])
            states[key] = synthesis.update(state, f"s{row['study']}",
                                           {key[0]: row["log_bf"], key[1]: 0.0})
        replayed.append({key: (state, state.pmps()) for key, state in states.items()})
    elapsed = time.perf_counter() - start
    problems: dict[int, list[str]] = {}
    for (i, _, agg_rows), states in zip(done, replayed):
        for row in agg_rows:
            key = (row["hypothesis"], row["alternative"])
            state, p = states.get(key, (None, None))
            if state is None or not close(float(state.cum_log_bf[0]), row["agg_log_bf"]):
                problems.setdefault(i, []).append(f"replayed synthesis differs for {key}")
            elif abs(float(p.sum()) - 1.0) > REL_TOL or abs(float(p[0]) - row["pmp"]) > 1e-9:
                problems.setdefault(i, []).append(
                    f"replayed PMPs {p.tolist()} disagree with pmp {row['pmp']!r}")
    return elapsed, problems


def ref_errors_sim(workload, task, study_rows, reference) -> list[float]:
    entries = reference["workloads"][workload]["entries"]
    cond, iteration = task[1], task[4]
    errors = []
    for row in study_rows:
        key = f"c{cond}-i{iteration}-s{row['study']}-{row['hypothesis']}"
        iu, ic = entries[key]
        exact = iu if row["alternative"] == "unconstrained" else ic
        got = row["log_bf"]
        errors.append(0.0 if got == exact else got - exact)
    return errors


def sim_pass(workload: str, ops, single_rows: set[str], out_dir: Path,
             reference: dict, recorder=None) -> Pass:
    """Run every task with ``cli.run_iteration`` and write the pass's rows
    with ``cli.write_results_csv``, as ``evsynth simulate`` does."""
    p = Pass()
    rows: list[dict] = []
    done = []
    for i, (is_ref, task) in enumerate(ops):
        if recorder is not None:
            recorder.op = i
        t0 = time.perf_counter()
        try:
            study_rows, agg_rows, skips = cli.run_iteration(*task)
        except Exception as exc:  # an operation that raises counts as failed
            p.op_seconds.append(time.perf_counter() - t0)
            p.outputs.append(None)
            p.problems[i] = [f"task {task[:5]}: {type(exc).__name__}: {exc}"]
            continue
        p.op_seconds.append(time.perf_counter() - t0)
        p.outputs.append([(r["study"], r["hypothesis"], r["log_bf"]) for r in study_rows])
        problems = [f"task {task[:5]} skipped: {s['reason']}" for s in skips]
        problems += check_sim_op(study_rows, agg_rows, single_rows)
        if problems:
            p.problems[i] = problems
        done.append((i, study_rows, agg_rows))
        if is_ref:
            p.ref_errors.extend(ref_errors_sim(workload, task, study_rows, reference))
        p.records += len(study_rows)
        rows.extend(study_rows)
        rows.extend({k: v for k, v in row.items() if k != "mc_se"} for row in agg_rows)
    with untraced(recorder):
        synth_s, synth_problems = replay_synthesis(done)
    p.synth_seconds.append(synth_s)
    for i, found in synth_problems.items():
        p.problems.setdefault(i, []).extend(found)
    if recorder is not None:
        recorder.op = "write"
    t0 = time.perf_counter()
    cli.write_results_csv(cli.SimulationResult(cli.RESULT_COLUMNS, rows, []),
                          out_dir / "results.csv")
    p.finalize_seconds = time.perf_counter() - t0
    limit = reference["workloads"][workload]["rmse_limit"]
    if not rmse(p.ref_errors) <= limit:
        p.finalize_problems.append(f"log_bf_rmse {rmse(p.ref_errors)!r} exceeds {limit!r}")
    return p


# ---------------------------------------------------------------------------
# CLI workload

def write_study_csv(path: Path, family: str, n: int, r2: float,
                    rng: np.random.Generator) -> None:
    """A study with six predictors (pairwise correlation 0.3) whose effect
    pattern (0, 1, 1, 1, 2, 3) explains share ``r2`` of outcome variance on
    the latent scale."""
    weights = np.array([0.0, 1.0, 1.0, 1.0, 2.0, 3.0])
    cov = np.full((6, 6), 0.3) + 0.7 * np.eye(6)
    target = {"gaussian": r2, "logit": r2 * math.pi ** 2 / 3.0 / (1.0 - r2),
              "probit": r2 / (1.0 - r2)}[family]
    beta = weights * math.sqrt(target / float(weights @ cov @ weights))
    X = rng.standard_normal((n, 6)) @ np.linalg.cholesky(cov).T
    eta = X @ beta
    if family == "gaussian":
        y = eta + rng.standard_normal(n) * math.sqrt(1.0 - r2)
    else:
        p = 1.0 / (1.0 + np.exp(-eta)) if family == "logit" else ndtr(eta)
        y = (rng.random(n) < p).astype(float)
    np.savetxt(path, np.column_stack([y, X]), delimiter=",", fmt="%.17g",
               header="y,x1,x2,x3,x4,x5,x6", comments="")


@dataclass(frozen=True)
class CliStudy:
    study_id: str
    family: str
    n: int
    r2: float
    data_seed: tuple[int, ...]
    analyze_seeds: tuple[int, ...]
    is_ref: bool


def cli_studies(seed: int) -> list[CliStudy]:
    """The reference studies, then one seed-derived study for every family
    and size, in seed-shuffled order."""
    studies = [CliStudy(f"ref{k}", family, n, r2, (REF_SEED, k),
                        tuple(REF_SEED + 10 * k + j for j in range(len(CLI_HYPOTHESES))),
                        True)
               for k, (family, n, r2) in enumerate(CLI_REF_STUDIES)]
    rnd = _rng("cli-roundtrip", seed)
    data_seed = rnd.randrange(2 ** 32)
    design = list(itertools.product(CLI_FAMILIES, CLI_SIZES))
    rnd.shuffle(design)
    for k, (family, n) in enumerate(design):
        studies.append(CliStudy(f"st{k:04d}", family, n, rnd.choice(CLI_R2S),
                                (data_seed, k),
                                tuple(rnd.randrange(2 ** 31) for _ in CLI_HYPOTHESES),
                                False))
    return studies


def analyze_argv(study: CliStudy, j: int, data: Path, record: Path) -> list[str]:
    return ["analyze", "--data", str(data), "--family", study.family,
            "--outcome", "y", "--hypothesis", CLI_HYPOTHESES[j],
            "--seed", str(study.analyze_seeds[j]), "--out", str(record),
            "--study-id", study.study_id]


def run_in_process(argv: list[str]) -> int:
    """``evsynth <argv>`` as ``cli.main(argv)``, its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def check_record(path: Path, study: CliStudy, label: str,
                 single_rows: set[str]) -> tuple[dict | None, list[str]]:
    try:
        rec = json.loads(path.read_text(encoding="utf-8"))[0]
        f, c = float(rec["fit"]), float(rec["complexity"])
        log_bf = float(rec["log_bf_iu"])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return None, [f"{path.name}: unreadable record ({exc})"]
    problems = []
    if not (0.0 <= f <= 1.0 and 0.0 <= c <= 1.0):
        problems.append(f"{path.name}: fit {f!r} or complexity {c!r} outside [0, 1]")
    if label in single_rows and c != 0.5:
        problems.append(f"{path.name}: complexity {c!r} != 0.5")
    if rec.get("hypothesis") != label or rec.get("study_id") != study.study_id:
        problems.append(f"{path.name}: wrong hypothesis or study id")
    return {"fit": f, "complexity": c, "log_bf": log_bf}, problems


def check_summary(out_dir: Path, per_study: dict) -> list[str]:
    """The synthesize summary against per-study sums and a replay of
    ``synthesis.update`` over the same records."""
    problems = []
    try:
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        with open(out_dir / "trail.csv", newline="", encoding="utf-8") as fh:
            trail = list(csv.DictReader(fh))
    except (OSError, ValueError) as exc:
        return [f"unreadable synthesize output ({exc})"]
    labels = [label_of(t) for t in CLI_HYPOTHESES] + ["unconstrained"]
    state = synthesis.new_state(labels)
    for study_id, logs in per_study.items():
        state = synthesis.update(state, study_id, dict(logs, unconstrained=0.0))
    replay = dict(zip(labels, state.pmps()))
    pmps = {k: float(v) for k, v in summary["pmps"].items()}
    if abs(math.fsum(pmps.values()) - 1.0) > REL_TOL:
        problems.append(f"PMPs sum to {math.fsum(pmps.values())!r}")
    if set(pmps) != set(labels) or any(abs(pmps[k] - replay[k]) > 1e-9 for k in labels):
        problems.append(f"PMPs {pmps} differ from replayed {replay}")
    if summary.get("study_count") != len(per_study):
        problems.append("study count differs from the records given")
    for lab in labels:
        agg = float(summary["aggregated_log_bf"][lab])
        expected = math.fsum(logs.get(lab, 0.0) for logs in per_study.values())
        if not close(agg, expected):
            problems.append(f"aggregate {lab} {agg!r} != sum {expected!r}")
        last = [row for row in trail if row["label"] == lab]
        if not last or not close(float(last[-1]["cumulative_log_bf"]), agg):
            problems.append(f"trail for {lab} does not end at the aggregate")
    return problems


def study_data(out_dir: Path, study: CliStudy) -> Path:
    return out_dir / "studies" / f"{study.study_id}.csv"


def prepare_cli(seed: int, out_dir: Path) -> list[CliStudy]:
    """Write the study CSVs (input generation, not timed)."""
    studies = cli_studies(seed)
    (out_dir / "studies").mkdir(parents=True, exist_ok=True)
    (out_dir / "records").mkdir(parents=True, exist_ok=True)
    for study in studies:
        write_study_csv(study_data(out_dir, study), study.family, study.n, study.r2,
                        np.random.default_rng(list(study.data_seed)))
    return studies


def cli_pass(studies, out_dir: Path, reference: dict, recorder=None) -> Pass:
    """``evsynth analyze`` for every hypothesis on each study, then
    ``evsynth synthesize --trail`` over every complete study, each as
    ``cli.main(argv)``."""
    p = Pass()
    entries = reference["workloads"]["cli-roundtrip"]["entries"]
    rec_dir = out_dir / "records"

    def call(argv, op):
        if recorder is not None:
            recorder.op = op
        t0 = time.perf_counter()
        code = run_in_process(argv)
        return code, time.perf_counter() - t0

    per_study: dict[str, dict[str, float]] = {}
    for study in studies:
        logs = {}
        for j, text in enumerate(CLI_HYPOTHESES):
            op = len(p.op_seconds)
            record = rec_dir / f"{study.study_id}-h{j}.json"
            record.unlink(missing_ok=True)
            code, elapsed = call(analyze_argv(study, j, study_data(out_dir, study),
                                              record), op)
            p.op_seconds.append(elapsed)
            if code != 0:
                got, problems = None, [f"analyze {study.study_id} h{j} exited {code}"]
            else:
                got, problems = check_record(record, study, label_of(text),
                                             CLI_SINGLE_ROWS)
            p.outputs.append(got)
            if problems:
                p.problems[op] = problems
                continue
            p.records += 1
            logs[label_of(text)] = got["log_bf"]
            if study.is_ref:
                iu, _ = entries[f"{study.study_id}-{label_of(text)}"]
                p.ref_errors.append(0.0 if got["log_bf"] == iu else got["log_bf"] - iu)
        if len(logs) == len(CLI_HYPOTHESES):
            per_study[study.study_id] = logs
        else:
            for j in range(len(CLI_HYPOTHESES)):
                (rec_dir / f"{study.study_id}-h{j}.json").unlink(missing_ok=True)

    argv = ["synthesize", "--records", str(rec_dir), "--out",
            str(out_dir / "summary.json"), "--trail", str(out_dir / "trail.csv")]
    code, p.finalize_seconds = call(argv, "synthesize")
    p.synth_seconds.append(p.finalize_seconds)
    if code != 0:
        p.finalize_problems.append(f"synthesize exited {code}")
    else:
        with untraced(recorder):
            p.finalize_problems = check_summary(out_dir, per_study)
    limit = reference["workloads"]["cli-roundtrip"]["rmse_limit"]
    if not rmse(p.ref_errors) <= limit:
        p.finalize_problems.append(f"log_bf_rmse {rmse(p.ref_errors)!r} exceeds {limit!r}")
    return p



# ---------------------------------------------------------------------------
# layer counters for traced runs

def _observe_fit_binomial(rec, args, kwargs, result, exc):
    trace = result.trace if exc is None else getattr(exc, "trace", [])
    rec.counters["glm.newton_iters"] += len(trace)
    if isinstance(exc, glm.SeparationError):
        rec.counters["glm.separation_errors"] += 1
    if rec.active("simgen.gen_dataset"):
        rec.counters["simgen.probe_fits"] += 1


def _observe_gen_dataset(rec, args, kwargs, result, exc):
    spec = args[0] if args else kwargs["spec"]
    if exc is None and spec.family != "gaussian":
        rec.counters["simgen.accepted"] += 1


def _observe_bf_iu(rec, args, kwargs, result, exc):
    if exc is None:
        rec.counters["bf.records"] += 1
        rec.counters["bf.mc_draws"] += result.mc_draws
        rec.counters["bf.exact"] += result.mc_draws == 0


OBSERVERS = {"glm.fit_binomial": _observe_fit_binomial,
             "simgen.gen_dataset": _observe_gen_dataset,
             "bf.bf_iu": _observe_bf_iu}


def counter_metrics(counters, passes: int) -> dict[str, float]:
    """Layer counters per traced pass, and their ratios."""
    probes, records = counters["simgen.probe_fits"], counters["bf.records"]
    return {
        "glm.newton_iters": counters["glm.newton_iters"] / passes,
        "glm.separation_errors": counters["glm.separation_errors"] / passes,
        "simgen.accept_ratio": counters["simgen.accepted"] / probes if probes else 0.0,
        "bf.mc_draws": counters["bf.mc_draws"] / passes,
        "bf.exact_share": counters["bf.exact"] / records if records else 0.0,
    }
