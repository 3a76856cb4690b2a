"""Simulation outputs against checked-in files from an earlier build.

``tests/data/regression/sim{1,2,6,9}.csv`` were written by::

    evsynth simulate --sim S --iters 2 --n 25,100 --seed 4 --studies 4 --out simS.csv

Labels and counts must match exactly and every number to 1e-9 relative, so
a refactor that is meant to keep results unchanged is checked here.  A change
that moves results on purpose regenerates the files with the command above
and says why in CHANGES.md.
"""

import csv
import math
from pathlib import Path

import pytest

from evsynth import cli

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
