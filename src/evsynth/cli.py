"""Command line interface.

Subcommands
-----------
analyze     evaluate one hypothesis on one CSV dataset, emit evidence JSON
synthesize  aggregate evidence records across studies
simulate    run one of the bundled simulation studies, emit a results CSV
report      summarize a simulation results CSV (quantiles per condition)

Exit codes: 0 success, 2 hypothesis/input parse errors, 3 data or fitting
errors, 4 numeric errors (degenerate Bayes factors, sentinel conflicts,
label mismatches), 1 anything unexpected.  Every command checks its
request, then all its outputs, and only then reads an input.

All randomness flows from --seed through per-task generator streams keyed
by (seed, simulation, condition, iteration, study), so outputs are
byte-identical across runs and thread counts.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
from csv import DictReader, Error as CsvError, writer as csv_writer
from pathlib import Path

import numpy as np

from . import bf, glm, simgen, synthesis
from . import hypothesis as hyp
from .simgen import (RESULT_COLUMNS, SimulationConfig, SimulationResult,
                     run_iteration, run_simulation)
from .synthesis import synthesize_records

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_PARSE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

TRAIL_COLUMNS = ("study_id", "label", "log_bf", "cumulative_log_bf")
REPORT_COLUMNS = ("sim_id", "family", "n", "r2", "hypothesis", "alternative",
                  "iterations", "min_log_bf", "q25_log_bf", "median_log_bf",
                  "q75_log_bf", "max_log_bf", "mean_pmp")


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _check_outputs(outputs, inputs=()):
    """Refuse a command's outputs before it reads an input, writing
    nothing.  Both are (option, path) pairs; an output path None is
    skipped.  An output gets the OSError that opening it for writing would
    raise for a missing or unwritable directory, or a directory given as
    the path, without creating or truncating the file; then a ValueError
    when it is one of the inputs or an earlier output, so that no command
    overwrites what it reads or has just written.  Files are told apart as
    :func:`os.path.samefile` does, by device and inode, so ``./x``,
    symlinks and hard links count; paths not yet written, by their real
    paths."""
    seen = {}
    for k, (option, path) in enumerate([*inputs, *outputs]):
        if path is None:
            continue
        p, output = Path(path), k >= len(inputs)
        if output:
            code = (errno.EISDIR if p.is_dir() else
                    errno.ENOENT if not p.parent.is_dir() else
                    None if os.access(p if p.exists() else p.parent, os.W_OK)
                    else errno.EACCES)
            if code:
                raise OSError(code, os.strerror(code), str(path))
        try:
            st = os.stat(path)
            key = (st.st_dev, st.st_ino)
        except OSError:
            key = os.path.realpath(path)
        if output and key in seen:
            first_option, first = seen[key]
            raise ValueError(f"{option} {str(path)!r} and {first_option} "
                             f"{str(first)!r} name the same file")
        seen.setdefault(key, (option, path))


# ---------------------------------------------------------------------------
# analyze

def cmd_analyze(args) -> int:
    # a malformed hypothesis exits 2 whatever the data file holds
    cs = hyp.parse(args.hypothesis)
    _check_outputs([("--out", args.out)], [("--data", args.data)])
    predictors = None if args.predictors is None else list(args.predictors)
    fit = glm.fit_csv(args.data, args.outcome, predictors, family=args.family,
                      intercept=not args.no_intercept)
    record = bf.evaluate(fit, cs, label=hyp.label_of(args.hypothesis),
                         study_id=args.study_id or Path(args.data).stem,
                         frac=args.fraction, rng=simgen.LazyStream(args.seed),
                         draws=args.mc_draws,
                         alternative=args.alternative)
    log_bf = bf.log_bf(record, args.alternative)   # raises before the write
    _write_json(args.out, [record.to_dict()])
    print(f"study {record.study_id}: {record.hypothesis} vs {args.alternative}: "
          f"fit={_fmt(record.fit)} complexity={_fmt(record.complexity)} "
          f"log_bf={_fmt(log_bf)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# synthesize

def _record_files(paths: list[str]) -> list[tuple[Path, bool]]:
    """The files ``--records`` names, each with whether a directory scan
    found it: each file, and each directory's ``*.json`` files in name
    order."""
    files: list[tuple[Path, bool]] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend((f, True) for f in sorted(p.glob("*.json")))
        else:
            files.append((p, False))
    return files


def load_records(files: list[tuple[Path, bool]]) -> list[bf.EvidenceRecord]:
    """The evidence records of :func:`_record_files`' files.  A summary
    that ``synthesize`` wrote (an object with ``pmps`` and ``trail`` and
    no ``records``) is skipped where a directory scan found it."""
    records: list[bf.EvidenceRecord] = []
    for f, scanned in files:
        try:
            data = json.loads(f.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise glm.DataError(f"{f}: not UTF-8 text ({exc})") from None
        except (ValueError, RecursionError) as exc:
            raise glm.DataError(f"{f}: not valid JSON ({exc})") from None
        if isinstance(data, dict) and "records" in data:
            data = data["records"]
        elif scanned and isinstance(data, dict) and {"pmps", "trail"} <= data.keys():
            continue
        if isinstance(data, dict):
            data = [data]
        if not isinstance(data, list):
            raise glm.DataError(f"{f}: expected a record, a list of records, "
                                "or an object with a 'records' key")
        for item in data:
            try:
                records.append(bf.EvidenceRecord.from_dict(item))
            except glm.DataError as exc:
                raise glm.DataError(f"{f}: {exc}") from None
    if not records:
        raise glm.DataError("no evidence records found")
    return records


def cmd_synthesize(args) -> int:
    files = _record_files(args.records)
    _check_outputs([("--out", args.out), ("--trail", args.trail)],
                   [("--records", f) for f, _ in files])
    records = load_records(files)
    state, alternative = synthesize_records(records, args.priors)
    summary = state.as_dict()
    summary["alternative"] = alternative
    _write_json(args.out, summary)
    if args.trail:
        write_results_csv(SimulationResult(TRAIL_COLUMNS, [
            dict(zip(TRAIL_COLUMNS, (study_id, lab, v, cum)))
            for study_id, logs, cums in state.running_totals()
            for lab, v, cum in zip(state.labels, logs, cums)]), args.trail)
    pmps = summary["pmps"]
    best = max(pmps, key=pmps.get)
    print(f"aggregated {len(state.trail)} studies; "
          f"highest posterior probability: {best} ({_fmt(pmps[best])})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

def write_results_csv(result: SimulationResult, path):
    """Write ``result.columns``, then each row's values in that order by
    :func:`_fmt`: the one CSV writer, of results, trail and report."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv_writer(fh)
        w.writerow(result.columns)
        w.writerows([_fmt(row.get(col)) for col in result.columns]
                    for row in result.rows)


def _write_json(path, payload):
    Path(path).write_text(json.dumps(bf.json_safe(payload), sort_keys=True, indent=2)
                          + "\n", encoding="utf-8")


def cmd_simulate(args) -> int:
    grid_ns, grid_r2s = simgen.default_grid(args.sim)
    ns, r2s = args.n or grid_ns, args.r2 or grid_r2s
    alternatives = (bf.ALTERNATIVES if args.alternative == "both"
                    else (args.alternative,))
    # a run can take hours: a bad (n, r2) condition fails before it (the
    # config plans them all), as does --out or its skips sidecar
    config = SimulationConfig(sim_id=args.sim, iterations=args.iters, ns=ns,
                              r2s=r2s, seed=args.seed, draws=args.mc_draws,
                              alternatives=alternatives,
                              n_studies=args.studies,
                              decomposed=args.decomposed,
                              threads=args.threads)
    sidecar = Path(str(args.out) + ".skips.json")
    _check_outputs([("--out", args.out), ("the skips sidecar", sidecar)])
    result = run_simulation(config)
    write_results_csv(result, args.out)
    if result.skips:
        _write_json(sidecar, result.skips)
        for skip in result.skips:
            print(f"skipped: sim {skip['sim_id']} n={skip['n']} r2={skip['r2']} "
                  f"iteration {skip['iteration']}: {skip['reason']}",
                  file=sys.stderr)
    elif sidecar.is_file():
        sidecar.unlink()
    n_agg = sum(1 for row in result.rows if row.get("study") is None)
    print(f"wrote {len(result.rows)} rows ({n_agg} aggregates) to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report

def _aggregate_rows(path) -> dict[tuple, dict]:
    """A results CSV's aggregate log BFs and PMPs by condition; raises the
    DataError that names the file and the header or data row at fault: a
    file that is not UTF-8 text, a cell that is not a number, a NaN, or a
    PMP outside [0, 1] (a log BF may be the +-inf sentinel)."""
    groups: dict[tuple, dict] = {}
    header, i = None, 0
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = DictReader(fh)
            header = reader.fieldnames or ()
            missing = [c for c in RESULT_COLUMNS if c not in header]
            if missing:
                raise glm.DataError(f"{path}: missing columns {missing}")
            for i, row in enumerate(reader, start=1):
                if row["study"] != "":
                    continue
                key = (row["sim_id"], row["family"], row["n"], row["r2"],
                       row["hypothesis"], row["alternative"])
                entry = groups.setdefault(key, {"log_bf": [], "pmp": []})
                for column, values in (("agg_log_bf", entry["log_bf"]),
                                       ("pmp", entry["pmp"])):
                    try:
                        value = float(row[column])
                    except (TypeError, ValueError):
                        raise glm.DataError(
                            f"{path}: non-numeric value {row[column]!r} in "
                            f"column {column!r}, data row {i}") from None
                    if value != value or (column == "pmp"
                                          and not 0.0 <= value <= 1.0):
                        raise glm.DataError(
                            f"{path}: value {row[column]!r} in column "
                            f"{column!r}, data row {i}, is "
                            f"{'NaN' if value != value else 'outside [0, 1]'}")
                    values.append(value)
    except (UnicodeDecodeError, CsvError) as exc:
        raise glm.csv_read_error(path, exc, None if header is None else i) from None
    return groups


def _quantiles(values: list[float], qs) -> list[float]:
    """np.quantile's (linear) quantiles ``qs`` of log BFs, with the +-inf
    sentinels as values: a quantile that falls on one value, or between
    equal ones, is that value; between a finite and an infinite value, the
    infinite one; between -inf and +inf, the nearer one (+inf half way).
    Finite values give np.quantile's bytes."""
    x = np.sort(values)
    with np.errstate(invalid="ignore"):   # inf - inf and inf * 0 are NaN
        out = np.quantile(x, qs).tolist()
    for k, q in enumerate(qs):
        h = (len(x) - 1) * q
        j = int(h)
        a, b = x[j], x[min(j + 1, len(x) - 1)]
        if math.isinf(a) or math.isinf(b):
            lower = h == j or (a == -math.inf and (b != math.inf or h - j < 0.5))
            out[k] = float(a if lower else b)
    return out


def cmd_report(args) -> int:
    _check_outputs([("--out", args.out)], [("--in", args.input)])
    groups = _aggregate_rows(args.input)
    if not groups:
        raise glm.DataError(f"{args.input}: no aggregate rows found")
    rows = []
    for key, g in sorted(groups.items()):
        q = _quantiles(g["log_bf"], (0.0, 0.25, 0.5, 0.75, 1.0))
        rows.append(dict(zip(REPORT_COLUMNS, (*key, len(g["log_bf"]), *q,
                                              float(np.mean(g["pmp"]))))))
    write_results_csv(SimulationResult(REPORT_COLUMNS, rows), args.out)
    print(f"wrote {len(groups)} condition summaries to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _fraction_arg(text: str) -> bf.FractionSpec | None:
    """argparse type for --fraction: None for 'auto' (the family rule),
    else the fraction, whose range :class:`evsynth.bf.FractionSpec`
    checks."""
    if text == "auto":
        return None
    try:
        return bf.FractionSpec(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or a number in (0, 1), got {text!r}") from None


def _list_of(convert, items: str, keyword: str | None = None):
    """argparse type for a comma-separated list of ``items`` read by
    ``convert``, as a tuple; ``keyword`` stands for None when given."""

    def parse(text: str):
        if text == keyword:
            return None
        try:
            return tuple(convert(x) for x in text.split(","))
        except ValueError:
            expected = f"'{keyword}' or " if keyword else ""
            raise argparse.ArgumentTypeError(
                f"expected {expected}comma-separated {items}, got {text!r}") from None

    return parse


def _column_name(text: str) -> str:
    """``text``, or ValueError for an empty column name."""
    if not text:
        raise ValueError("empty column name")
    return text


def _int_from(lowest: int):
    """argparse type for integers of at least ``lowest`` (0 or 1)."""
    kind = "non-negative" if lowest == 0 else "positive"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a {kind} integer, got {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(
                f"must be a {kind} integer, got {value}")
        return value

    return parse


_DRAWS_HELP = ("lattice QMC point budget per region mass; unused on exact "
               f"and quadrature paths (default {bf.DEFAULT_DRAWS})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one in the process: ``parse_args`` leaves the parser as it was, and
    argparse looks up ``sys.stdout``, ``sys.stderr`` and the terminal width
    only when it prints.  Callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="evsynth",
        description="Constrained-hypothesis evidence and cross-study synthesis")
    sub = parser.add_subparsers(dest="command", metavar="command")

    pa = sub.add_parser("analyze", help="evaluate a hypothesis on a CSV dataset")
    pa.add_argument("--data", required=True, help="input CSV with a header row")
    pa.add_argument("--family", required=True, choices=glm.FAMILIES)
    pa.add_argument("--outcome", required=True, help="outcome column name")
    pa.add_argument("--predictors", type=_list_of(_column_name, "column names"),
                    help="comma-separated predictor columns (default: all others)")
    pa.add_argument("--hypothesis", required=True,
                    help="constraint string, e.g. 'x4 < x5 < x6'")
    pa.add_argument("--alternative", default="unconstrained",
                    choices=bf.ALTERNATIVES)
    pa.add_argument("--mc-draws", type=_int_from(1), default=bf.DEFAULT_DRAWS,
                    help=_DRAWS_HELP)
    pa.add_argument("--fraction", type=_fraction_arg, default="auto",
                    help="'auto' (family rule) or an explicit fraction in (0, 1)")
    pa.add_argument("--seed", type=_int_from(0), required=True)
    pa.add_argument("--out", required=True, help="output JSON path")
    pa.add_argument("--no-intercept", action="store_true",
                    help="do not prepend an intercept column")
    pa.add_argument("--study-id", help="study label (default: data file stem)")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("synthesize", help="aggregate evidence records")
    ps.add_argument("--records", required=True, nargs="+",
                    help="record JSON files and/or directories of them")
    ps.add_argument("--priors", type=_list_of(float, "numbers", "uniform"),
                    default="uniform",
                    help="'uniform' or comma-separated prior probabilities "
                         "(hypotheses first, alternative last)")
    ps.add_argument("--out", required=True, help="output summary JSON path")
    ps.add_argument("--trail", help="optional per-study trail CSV path")
    ps.set_defaults(func=cmd_synthesize)

    pm = sub.add_parser("simulate", help="run a bundled simulation study")
    pm.add_argument("--sim", type=int, required=True, choices=simgen.SIMULATION_IDS,
                    metavar="1..11")
    pm.add_argument("--iters", type=_int_from(1), default=1000)
    pm.add_argument("--n", type=_list_of(int, "integers"),
                    help="comma-separated sample sizes (default: the "
                         "simulation's grid)")
    pm.add_argument("--r2", type=_list_of(float, "numbers"),
                    help="comma-separated target R^2 values")
    pm.add_argument("--alternative", default="both",
                    choices=bf.ALTERNATIVES + ("both",))
    pm.add_argument("--mc-draws", type=_int_from(1), default=bf.DEFAULT_DRAWS,
                    help=_DRAWS_HELP)
    pm.add_argument("--studies", type=_int_from(1),
                    help="study count per iteration (simulations 9-11)")
    pm.add_argument("--decomposed", action="store_true",
                    help="simulation 11 only: evaluate the three single-"
                         "coefficient parts instead of the joint hypothesis")
    pm.add_argument("--seed", type=_int_from(0), required=True)
    pm.add_argument("--threads", type=_int_from(1), default=1,
                    help="worker processes (results are identical for any value)")
    pm.add_argument("--out", required=True, help="output CSV path")
    pm.set_defaults(func=cmd_simulate)

    pr = sub.add_parser("report", help="summarize a simulation results CSV")
    pr.add_argument("--in", dest="input", required=True)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_PARSE
    try:
        return args.func(args)
    except hyp.NameMappingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (glm.GlmError, simgen.PersistentSeparationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (bf.NumericError, synthesis.LabelMismatchError,
            synthesis.DuplicateStudyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
