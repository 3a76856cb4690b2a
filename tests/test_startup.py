"""Start-up guard: importing the CLI builds no Student-t chi rule and no
argument parser and loads neither scipy.linalg nor multiprocessing, and
evaluating every bundled kind of hypothesis leaves scipy.stats and
scipy.linalg unloaded.  scipy.stats takes about as long to import as the
rest of evsynth together, scipy.linalg adds tens of milliseconds and about
6 MB, and each ``evsynth analyze`` call is a fresh process.  Every check
runs in a fresh interpreter."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evsynth
from evsynth import simgen

SRC = str(Path(evsynth.__file__).resolve().parents[1])

# runs the argv lists given as JSON, then prints one JSON line: the exit
# codes, which of MODULES were loaded after the import and after each call,
# and how many Student-t chi rules and argument parsers the import built
MODULES = ("scipy.stats", "scipy.linalg", "multiprocessing")
PROGRAM = """
import json, sys
from evsynth import bf, cli
MODULES = %r
def loaded():
    return {name: name in sys.modules for name in MODULES}
report = {"after_import": loaded(),
          "chi_rules": bf._chi_rule.cache_info().currsize,
          "parsers": cli.build_parser.cache_info().currsize, "calls": []}
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    report["calls"].append([code, loaded()])
print(json.dumps(report))
""" % (MODULES,)
NONE_LOADED = dict.fromkeys(MODULES, False)


def fresh_run(argvs: list[list[str]]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable, "-c", PROGRAM, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def study_csvs(tmp_path_factory):
    """One gaussian and one probit study with predictors x1..x6."""
    root = tmp_path_factory.mktemp("studies")
    paths = {}
    for family, seed in (("gaussian", 1), ("probit", 2)):
        spec = simgen.DataGenSpec(family, 300, 0.25)
        d = simgen.gen_dataset(spec, simgen.rng_stream(seed), lambda d: d)
        paths[family] = root / f"{family}.csv"
        with open(paths[family], "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(("y",) + d.names)
            for y, row in zip(d.y, d.X):
                w.writerow([repr(float(y))] + [repr(float(v)) for v in row])
    return paths


def analyze_argv(data: Path, family: str, hypothesis: str, out: Path):
    return ["analyze", "--data", str(data), "--family", family,
            "--outcome", "y", "--hypothesis", hypothesis, "--seed", "5",
            "--out", str(out)]


def test_cli_import_leaves_scipy_stats_unloaded():
    report = fresh_run([])
    assert report["after_import"] == NONE_LOADED
    # each chi rule is built on the first Student-t mass of its df
    assert report["chi_rules"] == 0
    # the parser is built on the first cli.main call
    assert report["parsers"] == 0


def test_bundled_hypotheses_leave_scipy_stats_unloaded(study_csvs, tmp_path):
    argvs, outs = [], []
    for family, data in study_csvs.items():
        for j, text in enumerate(("{x2, x3, x4} > 0", "x4 < x5 < x6", "x6 > 0",
                                  "x3 > 0 & x2 > 0 & x3 < 0.5")):
            outs.append(tmp_path / f"{family}-{j}.json")
            argvs.append(analyze_argv(data, family, text, outs[-1]))
    # an equality row conditions the inequality row on it
    argvs.append(analyze_argv(study_csvs["gaussian"], "gaussian",
                              "x1 = 0 & x2 > 0", tmp_path / "mixed.json"))
    # simulation 8: three-row fits for every family, including Student-t
    argvs.append(["simulate", "--sim", "8", "--iters", "1", "--n", "60",
                  "--r2", "0.09", "--seed", "3", "--out",
                  str(tmp_path / "sim8.csv")])
    report = fresh_run(argvs)
    # simulate runs on one thread: no process pool, so no multiprocessing
    assert report["calls"] == [[0, NONE_LOADED]] * len(argvs)
    methods = {json.loads(out.read_text())[0]["mass_method"] for out in outs}
    assert methods == {"exact", "quadrature"}


def test_four_rows_load_lattice_qmc_on_first_use(study_csvs, tmp_path):
    out = tmp_path / "four.json"
    report = fresh_run([analyze_argv(study_csvs["probit"], "probit",
                                     "{x2, x3, x4, x5} > 0", out)])
    # scipy.stats loads scipy.linalg
    assert report == {"after_import": NONE_LOADED, "chi_rules": 0,
                      "parsers": 0,
                      "calls": [[0, dict(NONE_LOADED, **{"scipy.stats": True,
                                                         "scipy.linalg": True})]]}
    record = json.loads(out.read_text())[0]
    assert record["mass_method"] == "qmc" and record["mc_draws"] > 0

