"""Simulation outputs and evidence records against checked-in files from
an earlier build.

``tests/data/regression/sim{1,2,6,9}.csv`` were written by::

    evsynth simulate --sim S --iters 2 --n 25,100 --seed 4 --studies 4 --out simS.csv

Labels and counts must match exactly and every number to 1e-9 relative, so
a refactor that is meant to keep results unchanged is checked here.

The simulations use inequality-only hypotheses whose coefficients appear in
fit order.  ``tests/data/regression/records.json`` holds the
:func:`evsynth.bf.evaluate` records of :data:`RECORD_TEXTS` (mixed,
equality-only, permuted-name, reduced-box, inconsistent and four-row
systems) in every family at two sample sizes, and was written by::

    PYTHONPATH=src python tests/test_regression.py > tests/data/regression/records.json

Every record field must match exactly.  The same records, and those of the
inequality-only texts against the complement, must survive a JSON round
trip unchanged, down to their ``repr``.

A change that moves results on purpose regenerates the files with the
commands above and says why in CHANGES.md.
"""

import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from evsynth import bf, cli, simgen
from evsynth.glm import FAMILIES, add_intercept, fit
from evsynth.hypothesis import parse

DATA = Path(__file__).with_name("data") / "regression"
NUMBERS = ("r2", "fit", "complexity", "log_bf", "agg_log_bf", "pmp")


def read(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def same_number(a: str, b: str) -> bool:
    if a == "" or b == "":
        return a == b
    x, y = float(a), float(b)
    return x == y or math.isclose(x, y, rel_tol=1e-9)


@pytest.mark.parametrize("sim", [1, 2, 6, 9])
def test_simulate_matches_checked_in_output(sim, tmp_path, capsys):
    out = tmp_path / f"sim{sim}.csv"
    assert cli.main(["simulate", "--sim", str(sim), "--iters", "2",
                     "--n", "25,100", "--seed", "4", "--studies", "4",
                     "--out", str(out)]) == 0
    header, rows = read(out)
    ref_header, ref_rows = read(DATA / f"sim{sim}.csv")
    assert header == ref_header
    assert len(rows) == len(ref_rows)
    numeric = [col in NUMBERS for col in header]
    for k, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, is_number, got, want in zip(header, numeric, row, ref):
            ok = same_number(got, want) if is_number else got == want
            assert ok, f"row {k + 2}, {col}: {got!r} != {want!r}"


RECORD_TEXTS = ("x6 > x4", "{x1 = x2} < x3", "x1 = 0 & x2 > 0",
                "2*x3 - x1 > 0.3 & x5 = x6", "x3 > 0 & x3 < 0.5 & x2 > 0",
                "x5 < x2 < x6", "{x4, x2, x3} > 0", "x6 = x5 = x4",
                "x2 - x1 > 0 & x1 > 0.1 & x3 > x2 & x6 > 0",
                "x1 > 0 & x1 > 1", "intercept > 0 & x2 = 0.1")
RECORD_SIZES = (60, 400)


def records(alternative: str = "unconstrained") -> list[bf.EvidenceRecord]:
    """Records of every RECORD_TEXTS hypothesis (against the complement,
    every inequality-only one) against one fit (with an intercept) per
    family and size, each seeded by the text's position."""
    out = []
    for i, family in enumerate(FAMILIES):
        for n in RECORD_SIZES:
            study = simgen.gen_dataset(simgen.DataGenSpec(family, n, 0.25),
                                       simgen.rng_stream(i, n),
                                       lambda d: fit(add_intercept(d)))
            for j, text in enumerate(RECORD_TEXTS):
                h = parse(text)
                if alternative == "complement" and h.n_eq:
                    continue
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    out.append(bf.evaluate(study, h, label=text,
                                           study_id=f"{family}-{n}",
                                           rng=np.random.default_rng(j),
                                           alternative=alternative))
    return out


def test_records_match_checked_in_file():
    with open(DATA / "records.json", encoding="utf-8") as fh:
        want = json.load(fh)
    got = [record.to_dict() for record in records()]
    assert len(got) == len(want) == (len(FAMILIES) * len(RECORD_SIZES)
                                     * len(RECORD_TEXTS))
    for g, w in zip(got, want):
        assert g == w, f"{w['study_id']}, {w['hypothesis']}"


@pytest.mark.parametrize("alternative", bf.ALTERNATIVES)
def test_records_round_trip_through_json(alternative):
    got = records(alternative)
    texts = [text for text in RECORD_TEXTS
             if alternative == "unconstrained" or parse(text).n_eq == 0]
    assert len(got) == len(FAMILIES) * len(RECORD_SIZES) * len(texts)
    for record in got:
        assert record.alternative == alternative
        text = json.dumps(record.to_dict())
        for back in (bf.EvidenceRecord.from_dict(record.to_dict()),
                     bf.EvidenceRecord.from_dict(json.loads(text))):
            assert back == record, f"{record.study_id}, {record.hypothesis}"
            # repr also tells -0.0 from 0.0 and numpy scalars from floats
            assert repr(back) == repr(record), (
                f"{record.study_id}, {record.hypothesis}")


if __name__ == "__main__":
    print(json.dumps([record.to_dict() for record in records()], indent=1))
