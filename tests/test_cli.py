"""Command line interface tests."""

import argparse
import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from evsynth import cli, simgen


@pytest.fixture()
def strong_effect_csv(tmp_path):
    rng = np.random.default_rng(42)
    n = 150
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    y = 0.1 + 1.5 * x1 + 0.0 * x2 + rng.normal(size=n)
    path = tmp_path / "data.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("y", "x1", "x2"))
        for row in zip(y, x1, x2):
            w.writerow([f"{v:.8f}" for v in row])
    return path


class TestAnalyze:
    def test_strong_positive_effect_near_log2(self, strong_effect_csv, tmp_path,
                                              capsys):
        out = tmp_path / "rec.json"
        code = cli.main(["analyze", "--data", str(strong_effect_csv),
                         "--family", "gaussian", "--outcome", "y",
                         "--hypothesis", "x1 > 0", "--seed", "3",
                         "--out", str(out)])
        assert code == 0
        records = json.loads(out.read_text())
        assert len(records) == 1
        rec = records[0]
        assert rec["complexity"] == 0.5
        assert rec["fit"] > 0.999
        assert abs(rec["log_bf_iu"] - math.log(2.0)) < 0.01
        assert rec["family"] == "gaussian"
        assert rec["study_id"] == "data"
        assert list(rec) == sorted(rec)
        assert "log_bf=" in capsys.readouterr().out

    def test_predictor_subset_and_study_id(self, strong_effect_csv, tmp_path):
        out = tmp_path / "rec.json"
        code = cli.main(["analyze", "--data", str(strong_effect_csv),
                         "--family", "gaussian", "--outcome", "y",
                         "--predictors", "x1", "--hypothesis", "x1 > 0",
                         "--seed", "3", "--study-id", "trial-1",
                         "--out", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())[0]
        assert rec["study_id"] == "trial-1"

    def test_complement_alternative(self, strong_effect_csv, tmp_path):
        out = tmp_path / "rec.json"
        code = cli.main(["analyze", "--data", str(strong_effect_csv),
                         "--family", "gaussian", "--outcome", "y",
                         "--hypothesis", "x1 > 0", "--alternative",
                         "complement", "--seed", "3", "--out", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())[0]
        assert rec["alternative"] == "complement"
        # the effect is strong enough that fit saturates at 1.0 exactly,
        # which makes the complement Bayes factor the +inf sentinel
        assert rec["fit"] == 1.0
        assert rec["log_bf_ic"] == "inf"

    @pytest.mark.parametrize("text", ["x1 = 0", "x1 = 0 & x2 > 0"])
    def test_complement_of_equality_hypothesis_exit_2(self, strong_effect_csv,
                                                      tmp_path, capsys, text):
        out = tmp_path / "rec.json"
        code = cli.main(["analyze", "--data", str(strong_effect_csv),
                         "--family", "gaussian", "--outcome", "y",
                         "--hypothesis", text, "--alternative", "complement",
                         "--seed", "3", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: complement is undefined for hypotheses with equality "
            "constraints\n")
        assert not out.exists()

    def test_undefined_complement_bf_exit_4(self, tmp_path, capsys):
        # both bounds are far outside either law, so fit = complexity = 1
        # and the complement Bayes factor is 0/0: no record is written
        rng = np.random.default_rng(11)
        x1 = rng.normal(size=200)
        y = (rng.random(200) < 1.0 / (1.0 + np.exp(-0.5 * x1))).astype(float)
        path = tmp_path / "logit.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("y", "x1"))
            w.writerows(zip(y.tolist(), x1.tolist()))
        out = tmp_path / "rec.json"
        with pytest.warns(RuntimeWarning) as caught:
            code = cli.main(["analyze", "--data", str(path), "--family",
                             "logit", "--outcome", "y", "--hypothesis",
                             "x1 > -1e9 & x1 < 1e9", "--alternative",
                             "complement", "--seed", "3", "--out", str(out)])
        assert code == 4
        assert ("indeterminate complement Bayes factor (0/0)"
                in [str(w.message) for w in caught])
        assert capsys.readouterr().err == (
            "error: study 'logit': hypothesis 'x1>-1e9&x1<1e9' has no "
            "complement Bayes factor\n")
        assert not out.exists()

    def test_outcome_among_predictors_exit_3(self, strong_effect_csv, tmp_path,
                                             capsys):
        out = tmp_path / "rec.json"
        code = cli.main(["analyze", "--data", str(strong_effect_csv),
                         "--family", "gaussian", "--outcome", "y",
                         "--predictors", "y,x1", "--hypothesis", "x1 > 0",
                         "--seed", "3", "--out", str(out)])
        assert code == 3
        assert ("outcome column 'y' is also listed as a predictor"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_parse_error_exit_2(self, strong_effect_csv, tmp_path, capsys,
                                monkeypatch):
        # the hypothesis is parsed before the data file is read, so a good
        # file, a bad one and a missing one all give the syntax error
        bad = tmp_path / "bad.csv"
        bad.write_text(strong_effect_csv.read_text() + "1,oops,3\n",
                       encoding="utf-8")

        def unread(*args, **kwargs):
            raise AssertionError("the data file was read")

        monkeypatch.setattr(cli.glm, "dataset_from_csv", unread)
        for data in (strong_effect_csv, bad, tmp_path / "absent.csv"):
            code = cli.main(["analyze", "--data", str(data),
                             "--family", "gaussian", "--outcome", "y",
                             "--hypothesis", "x1 >", "--seed", "3",
                             "--out", str(tmp_path / "r.json")])
            assert code == 2
            assert capsys.readouterr().err == "error: expected an expression\n"
            assert not (tmp_path / "r.json").exists()

    def test_missing_file_exit_3(self, tmp_path, capsys):
        code = cli.main(["analyze", "--data", str(tmp_path / "absent.csv"),
                         "--family", "gaussian", "--outcome", "y",
                         "--hypothesis", "x1 > 0", "--seed", "3",
                         "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("body,words", [
        # the fixture holds 150 data rows
        ("1,2,3\n4,oops,6\n", "non-numeric value 'oops' in column 'x1', data row 152"),
        ("1,2,3\n\n4,5,6\n", "missing value in column 'y', data row 152")])
    def test_bad_data_rows_exit_3(self, strong_effect_csv, tmp_path, capsys,
                                  body, words):
        path = tmp_path / "bad.csv"
        path.write_text(strong_effect_csv.read_text() + body, encoding="utf-8")
        code = cli.main(["analyze", "--data", str(path),
                         "--family", "gaussian", "--outcome", "y",
                         "--hypothesis", "x1 > 0", "--seed", "3",
                         "--out", str(tmp_path / "r.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert words in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("body,words", [
        (b"4,\xff5,6\n", "not UTF-8 text"),
        (b"4," + b"5" * 140_000 + b",6\n",
         "data row 151: field larger than field limit"),
    ], ids=["not-utf8", "oversized-cell"])
    def test_unreadable_file_exit_3(self, strong_effect_csv, tmp_path, capsys,
                                    body, words):
        path = tmp_path / "bad.csv"
        path.write_bytes(strong_effect_csv.read_bytes() + body)
        code = cli.main(["analyze", "--data", str(path),
                         "--family", "gaussian", "--outcome", "y",
                         "--hypothesis", "x1 > 0", "--seed", "3",
                         "--out", str(tmp_path / "r.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{path}: " in err and words in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("family,body,words", [
        ("logit", "", "binomial outcome must take values in {0, 1}"),
        ("gaussian", "inf,1,2\n", "non-finite values in data"),
        ("logit", None, "binomial response contains a single class"),
        ("gaussian", "1,oops,2\n",
         "non-numeric value 'oops' in column 'x1', data row 151"),
    ], ids=["binomial-values", "non-finite", "single-class", "reader-error"])
    def test_data_errors_name_the_file_once(self, strong_effect_csv, tmp_path,
                                            capsys, family, body, words):
        path = tmp_path / "bad.csv"
        if body is None:
            # a binomial outcome of ones only
            path.write_text("y,x1\n" + "".join(f"1,{i}\n" for i in range(20)),
                            encoding="utf-8")
        else:
            path.write_text(strong_effect_csv.read_text() + body,
                            encoding="utf-8")
        out = tmp_path / "r.json"
        code = cli.main(["analyze", "--data", str(path), "--family", family,
                         "--outcome", "y", "--hypothesis", "x1 > 0",
                         "--seed", "3", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == f"error: {path}: {words}\n"
        assert not out.exists()

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_fails_before_the_data_is_read(
            self, strong_effect_csv, tmp_path, monkeypatch, capsys, where):
        def unreachable(*args, **kwargs):
            raise AssertionError("the data was read")

        monkeypatch.setattr(cli.glm, "dataset_from_csv", unreachable)
        out = tmp_path / "absent" / "r.json" if where == "missing-dir" else tmp_path
        code = cli.main(["analyze", "--data", str(strong_effect_csv),
                         "--family", "gaussian", "--outcome", "y",
                         "--hypothesis", "x1 > 0", "--seed", "3",
                         "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and str(out) in err

    def test_fraction_of_one_exit_3(self, tmp_path, capsys):
        # n = 3 rows, p = 2 coefficients: the default b = (p + 1) / n is 1
        path = tmp_path / "tiny.csv"
        path.write_text("y,x1\n1.0,0.5\n2.5,1.5\n0.2,3.0\n", encoding="utf-8")
        code = cli.main(["analyze", "--data", str(path),
                         "--family", "gaussian", "--outcome", "y",
                         "--hypothesis", "x1 > 0", "--seed", "3",
                         "--out", str(tmp_path / "r.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "n = 3" in err and "p = 2" in err

    def test_exactly_linear_outcome_exit_3(self, tmp_path, capsys):
        # y = 1 + 2 x1 - x2 exactly: no residual, so no posterior scale
        rng = np.random.default_rng(5)
        x1, x2 = rng.normal(size=50), rng.normal(size=50)
        path = tmp_path / "linear.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("y", "x1", "x2"))
            for a, b in zip(x1.tolist(), x2.tolist()):
                w.writerow([repr(1.0 + 2.0 * a - b), repr(a), repr(b)])
        out = tmp_path / "r.json"
        code = cli.main(["analyze", "--data", str(path),
                         "--family", "gaussian", "--outcome", "y",
                         "--hypothesis", "x1 > 0", "--seed", "3",
                         "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "residual sum of squares is zero" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_contradiction_exit_4(self, strong_effect_csv, tmp_path, capsys):
        code = cli.main(["analyze", "--data", str(strong_effect_csv),
                         "--family", "gaussian", "--outcome", "y",
                         "--hypothesis", "x1 > 0 & x1 < 0", "--seed", "3",
                         "--out", str(tmp_path / "r.json")])
        assert code == 4
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text,words", [
        ("x1 = 0 & x1 = 1", "x1 = 1.0 stated, x1 = 0.0 implied"),
        ("x1 = 0 & 2*x1 = 1", "x1 = 0.5 stated, x1 = 0.0 implied")],
        ids=["same-row", "scaled-row"])
    def test_contradictory_equalities_exit_2(self, strong_effect_csv, tmp_path,
                                             capsys, text, words):
        out = tmp_path / "r.json"
        code = cli.main(["analyze", "--data", str(strong_effect_csv),
                         "--family", "gaussian", "--outcome", "y",
                         "--hypothesis", text, "--seed", "3",
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "contradictory equality constraints" in err and words in err
        assert not out.exists()

    def test_unknown_name_exit_2(self, strong_effect_csv, tmp_path):
        code = cli.main(["analyze", "--data", str(strong_effect_csv),
                         "--family", "gaussian", "--outcome", "y",
                         "--hypothesis", "zz > 0", "--seed", "3",
                         "--out", str(tmp_path / "r.json")])
        assert code == 2


def record_dict(study_id="s1", log_bf=0.0, fit=0.5, complexity=0.5):
    return {
        "study_id": study_id, "hypothesis": "h1", "fit": fit,
        "complexity": complexity, "log_bf_iu": log_bf, "log_bf_ic": 0.0,
        "mc_se_fit": 0.0, "mc_se_complexity": 0.0, "mc_draws": 0,
        "family": "gaussian", "n": 100, "alternative": "unconstrained",
    }


def write_record(path, study_id, log_bf, fit, complexity):
    record = record_dict(study_id, log_bf, fit, complexity)
    path.write_text(json.dumps([record]), encoding="utf-8")


class TestSynthesize:
    def test_worked_example_aggregate_08(self, tmp_path, capsys):
        # BF 0.2 * 2 * 2 = 0.8
        write_record(tmp_path / "s1.json", "s1", math.log(0.2), 0.1, 0.5)
        write_record(tmp_path / "s2.json", "s2", math.log(2.0), 0.5, 0.25)
        write_record(tmp_path / "s3.json", "s3", math.log(2.0), 0.5, 0.25)
        out = tmp_path / "summary.json"
        code = cli.main(["synthesize", "--records", str(tmp_path),
                         "--out", str(out)])
        assert code == 0
        summary = json.loads(out.read_text())
        assert math.isclose(math.exp(summary["aggregated_log_bf"]["h1"]), 0.8,
                            rel_tol=1e-12)
        assert summary["study_count"] == 3
        pmp = summary["pmps"]["h1"]
        assert math.isclose(pmp, 0.8 / 1.8, rel_tol=1e-12)
        assert "aggregated 3 studies" in capsys.readouterr().out

    def test_single_object_and_records_key_forms(self, tmp_path):
        # the README's three record-file forms give one summary
        records = [record_dict("s1", math.log(2.0), 0.5, 0.25),
                   record_dict("s2", math.log(0.5), 0.25, 0.5)]
        forms = {"list": lambda rec: [rec], "object": lambda rec: rec,
                 "records-key": lambda rec: {"records": [rec]}}
        summaries = {}
        for form, wrap in forms.items():
            paths = []
            for rec in records:
                path = tmp_path / f"{form}-{rec['study_id']}.json"
                path.write_text(json.dumps(wrap(rec)), encoding="utf-8")
                paths.append(str(path))
            out = tmp_path / f"{form}-summary.json"
            code = cli.main(["synthesize", "--records", *paths,
                             "--out", str(out)])
            assert code == 0
            summaries[form] = out.read_text(encoding="utf-8")
        assert json.loads(summaries["list"])["study_count"] == 2
        assert summaries["object"] == summaries["list"]
        assert summaries["records-key"] == summaries["list"]

    def test_trail_csv(self, tmp_path):
        write_record(tmp_path / "s1.json", "s1", math.log(2.0), 0.5, 0.25)
        write_record(tmp_path / "s2.json", "s2", math.log(2.0), 0.5, 0.25)
        out = tmp_path / "summary.json"
        trail = tmp_path / "trail.csv"
        code = cli.main(["synthesize", "--records", str(tmp_path / "s1.json"),
                         str(tmp_path / "s2.json"), "--out", str(out),
                         "--trail", str(trail)])
        assert code == 0
        with open(trail, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["study_id"] == "s1"
        final = [r for r in rows if r["label"] == "h1"][-1]
        assert math.isclose(float(final["cumulative_log_bf"]),
                            math.log(4.0), rel_tol=1e-9)

    @pytest.mark.parametrize("trail", ["missing/trail.csv", "."],
                             ids=["missing-directory", "directory"])
    @pytest.mark.parametrize("old", [None, b"old summary\n"],
                             ids=["absent-out", "present-out"])
    def test_unwritable_trail_writes_nothing(self, tmp_path, capsys, trail,
                                             old):
        write_record(tmp_path / "s1.json", "s1", math.log(2.0), 0.5, 0.25)
        out = tmp_path / "summary.json"
        if old is not None:
            out.write_bytes(old)
        code = cli.main(["synthesize", "--records", str(tmp_path / "s1.json"),
                         "--out", str(out), "--trail", str(tmp_path / trail)])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: [Errno ")
        if old is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == old

    def test_custom_priors(self, tmp_path):
        write_record(tmp_path / "s1.json", "s1", 0.0, 0.5, 0.5)
        out = tmp_path / "summary.json"
        code = cli.main(["synthesize", "--records", str(tmp_path),
                         "--priors", "0.8,0.2", "--out", str(out)])
        assert code == 0
        summary = json.loads(out.read_text())
        assert math.isclose(summary["pmps"]["h1"], 0.8, rel_tol=1e-12)

    @pytest.mark.parametrize("priors", ["nan,0.5", "0.5,nan", "inf,0.5"])
    def test_non_finite_priors_exit_2(self, tmp_path, capsys, priors):
        write_record(tmp_path / "s1.json", "s1", 0.0, 0.5, 0.5)
        out = tmp_path / "summary.json"
        code = cli.main(["synthesize", "--records", str(tmp_path / "s1.json"),
                         "--priors", priors, "--out", str(out)])
        assert code == 2
        assert "priors must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_study_exit_4(self, tmp_path):
        write_record(tmp_path / "s1.json", "s1", 0.0, 0.5, 0.5)
        write_record(tmp_path / "s2.json", "s1", 0.0, 0.5, 0.5)
        code = cli.main(["synthesize", "--records", str(tmp_path),
                         "--out", str(tmp_path / "o.json")])
        assert code == 4

    def test_no_records_exit_3(self, tmp_path):
        (tmp_path / "empty").mkdir()
        code = cli.main(["synthesize", "--records", str(tmp_path / "empty"),
                         "--out", str(tmp_path / "o.json")])
        assert code == 3

    @pytest.mark.parametrize("text", [
        '[{"study_id": "s1",',
        json.dumps([{k: v for k, v in record_dict().items()
                     if k != "mc_draws"}]),
        json.dumps([dict(record_dict(), fit="abc")]),
        json.dumps([record_dict(), 7]),
        json.dumps([dict(record_dict(), alternative="bogus")]),
        json.dumps([dict(record_dict(), mc_draws=1.5)]),
        json.dumps([dict(record_dict(), n=-3.7)]),
        json.dumps([dict(record_dict(), n=-3)]),
        json.dumps([dict(record_dict(), mass_method="guess")]),
        json.dumps([dict(record_dict(), log_bf_iu=10 ** 400)]),
    ], ids=["invalid-json", "missing-mc-draws", "non-numeric-fit",
            "non-object-item", "unknown-alternative", "non-integral-mc-draws",
            "negative-non-integral-n", "negative-n", "unknown-mass-method",
            "integer-beyond-float"])
    def test_malformed_record_exit_3(self, tmp_path, capsys, text):
        (tmp_path / "s1.json").write_text(text, encoding="utf-8")
        code = cli.main(["synthesize", "--records", str(tmp_path),
                         "--out", str(tmp_path / "o.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "s1.json" in err

    def test_sentinel_serialized_as_string(self, tmp_path):
        record = {
            "study_id": "s1", "hypothesis": "h1", "fit": 1.0,
            "complexity": 0.5, "log_bf_iu": "inf", "log_bf_ic": "inf",
            "mc_se_fit": 0.0, "mc_se_complexity": 0.0, "mc_draws": 0,
            "family": "gaussian", "n": 100, "alternative": "unconstrained",
        }
        (tmp_path / "s1.json").write_text(json.dumps([record]))
        out = tmp_path / "summary.json"
        code = cli.main(["synthesize", "--records", str(tmp_path),
                         "--out", str(out)])
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["aggregated_log_bf"]["h1"] == "inf"
        assert summary["pmps"]["h1"] == 1.0

    def test_deeply_nested_json_exit_3(self, tmp_path, capsys):
        path = tmp_path / "s1.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code = cli.main(["synthesize", "--records", str(path),
                         "--out", str(tmp_path / "o.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not valid JSON (")
        assert "Traceback" not in err

    def test_not_utf8_record_exit_3(self, tmp_path, capsys):
        path = tmp_path / "s1.json"
        path.write_bytes(b'[{"study_id": "\xff"}]')
        code = cli.main(["synthesize", "--records", str(path),
                         "--out", str(tmp_path / "o.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text (")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["fit", "log_bf_iu"])
    def test_nan_field_exit_3(self, tmp_path, capsys, key):
        # the record is rejected when read, before any aggregation
        path = tmp_path / "s1.json"
        path.write_text(json.dumps([dict(record_dict(), **{key: "nan"})]),
                        encoding="utf-8")
        out = tmp_path / "o.json"
        code = cli.main(["synthesize", "--records", str(path),
                         "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"error: {path}: evidence record field {key!r} is NaN\n"
        assert not out.exists()


    def test_out_of_range_masses_exit_3(self, tmp_path, capsys):
        path = tmp_path / "s1.json"
        path.write_text(json.dumps([dict(record_dict(), fit=1.7,
                                         complexity=-0.2, mc_se_fit=-1)]),
                        encoding="utf-8")
        out = tmp_path / "o.json"
        code = cli.main(["synthesize", "--records", str(path),
                         "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {path}: evidence record field 'complexity' must be "
            f"non-negative, got -0.2\n")
        assert not out.exists()

    def test_records_of_the_sampler_still_load(self, tmp_path, capsys):
        # evsynth no longer writes mass_method "mc"; records of earlier
        # versions holding it still synthesize
        path = tmp_path / "s1.json"
        path.write_text(json.dumps([dict(record_dict(log_bf=0.4),
                                         mass_method="mc", mc_draws=20_000,
                                         mc_se_fit=3e-3,
                                         mc_se_complexity=3e-3)]),
                        encoding="utf-8")
        out = tmp_path / "o.json"
        code = cli.main(["synthesize", "--records", str(path),
                         "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert capsys.readouterr().err == ""


class TestSimulate:
    def _run(self, tmp_path, name, extra=()):
        out = tmp_path / name
        code = cli.main(["simulate", "--sim", "3", "--iters", "2",
                         "--n", "50", "--r2", "0.25", "--seed", "9",
                         "--mc-draws", "2000", "--out", str(out), *extra])
        assert code == 0
        return out.read_bytes()

    def test_byte_identical_rerun(self, tmp_path):
        a = self._run(tmp_path, "a.csv")
        b = self._run(tmp_path, "b.csv")
        assert a == b

    @pytest.mark.parametrize("sim,n,width", [("3", "8", 7), ("4", "9", 8),
                                             ("9", "8", 7)])
    def test_fraction_of_one_rejected_before_drawing(self, tmp_path, capsys,
                                                     sim, n, width):
        out = tmp_path / "sim.csv"
        code = cli.main(["simulate", "--sim", sim, "--iters", "1", "--n", n,
                         "--seed", "1", "--studies", "2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"n = {n}" in err and f"{width} design columns" in err
        assert not out.exists()

    def test_threads_do_not_change_output(self, tmp_path):
        a = self._run(tmp_path, "a.csv")
        c = self._run(tmp_path, "c.csv", extra=("--threads", "2"))
        assert a == c

    def test_threads_do_not_change_three_row_output(self, tmp_path):
        # simulation 6 has three inequality rows: trivariate quadrature for
        # the fits and the closed form for the complexities
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"sim6-{threads}.csv"
            code = cli.main(["simulate", "--sim", "6", "--iters", "2",
                             "--n", "100", "--r2", "0.09", "--seed", "5",
                             "--mc-draws", "5000", "--threads", threads,
                             "--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_csv_shape_and_aggregates(self, tmp_path):
        raw = self._run(tmp_path, "a.csv").decode()
        rows = list(csv.DictReader(raw.splitlines()))
        assert set(r["alternative"] for r in rows) == {"unconstrained",
                                                       "complement"}
        agg = [r for r in rows if r["study"] == ""]
        per_study = [r for r in rows if r["study"] != ""]
        # 2 iterations x 2 alternatives: 4 aggregates, 12 study rows
        assert len(agg) == 4
        assert len(per_study) == 12
        assert all(r["family"] == "gaussian+logit+probit" for r in agg)
        for row in agg:
            matching = [float(r["log_bf"]) for r in per_study
                        if r["iteration"] == row["iteration"]
                        and r["alternative"] == row["alternative"]]
            assert math.isclose(sum(matching), float(row["agg_log_bf"]),
                                rel_tol=1e-9, abs_tol=1e-9)

    def test_sequential_sim_row_count(self, tmp_path):
        out = tmp_path / "seq.csv"
        code = cli.main(["simulate", "--sim", "9", "--iters", "1",
                         "--n", "25", "--studies", "4", "--alternative",
                         "complement", "--seed", "2", "--mc-draws", "2000",
                         "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len([r for r in rows if r["study"] != ""]) == 4
        assert len([r for r in rows if r["study"] == ""]) == 1

    def test_decomposed_sim11_labels(self, tmp_path):
        out = tmp_path / "dec.csv"
        code = cli.main(["simulate", "--sim", "11", "--iters", "1",
                         "--n", "25", "--studies", "3", "--decomposed",
                         "--alternative", "complement", "--seed", "2",
                         "--mc-draws", "2000", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        labels = set(r["hypothesis"] for r in rows)
        assert labels == {"x2>0", "x3>0", "x4>0"}

    def test_skip_sidecar_written(self, tmp_path, monkeypatch, capsys):
        def explode(spec, rng, analyze):
            raise simgen.PersistentSeparationError("separation persisted")

        monkeypatch.setattr(cli.simgen, "gen_dataset", explode)
        out = tmp_path / "skipped.csv"
        code = cli.main(["simulate", "--sim", "3", "--iters", "1",
                         "--n", "50", "--r2", "0.25", "--seed", "9",
                         "--out", str(out)])
        assert code == 0
        sidecar = tmp_path / "skipped.csv.skips.json"
        assert sidecar.exists()
        skips = json.loads(sidecar.read_text())
        assert skips[0]["iteration"] == 0
        assert "separation" in skips[0]["reason"]
        assert "skipped" in capsys.readouterr().err

    def test_clean_rerun_removes_the_skips_sidecar(self, tmp_path,
                                                    monkeypatch, capsys):
        def explode(spec, rng, analyze):
            raise simgen.PersistentSeparationError("separation persisted")

        out = tmp_path / "rerun.csv"
        argv = ["simulate", "--sim", "3", "--iters", "1", "--n", "50",
                "--r2", "0.25", "--seed", "9", "--mc-draws", "2000",
                "--out", str(out)]
        with monkeypatch.context() as patched:
            patched.setattr(cli.simgen, "gen_dataset", explode)
            assert cli.main(argv) == 0
        sidecar = tmp_path / "rerun.csv.skips.json"
        assert sidecar.exists() and "skipped" in capsys.readouterr().err
        assert cli.main(argv) == 0
        assert not sidecar.exists()
        assert "skipped" not in capsys.readouterr().err

    @pytest.mark.parametrize("sim,n,r2,words", [
        ("1", "25,5", "0.09", "need more observations than predictors"),
        ("1", "25,200", "0.09,1.5", "r2 must lie in (0, 1)"),
        ("2", "25,8", "0.09", "n = 8 is too small for a gaussian study"),
        ("9", "25", "0.09,1.5", "r2 must lie in (0, 1)"),
        ("9", "25,200,8", "0.09", "n = 8 is too small")])
    def test_bad_grid_value_fails_before_any_draw(self, tmp_path, monkeypatch,
                                                  capsys, sim, n, r2, words):
        # the first conditions are valid: the whole grid is planned before
        # the first study is drawn and before --out is touched
        drawn = []

        def record(spec, rng, analyze):
            drawn.append(spec)
            return real(spec, rng, analyze)

        real = cli.simgen.gen_dataset
        monkeypatch.setattr(cli.simgen, "gen_dataset", record)
        out = tmp_path / "old.csv"
        out.write_text("old results\n", encoding="utf-8")
        code = cli.main(["simulate", "--sim", sim, "--iters", "3", "--n", n,
                         "--r2", r2, "--studies", "2", "--seed", "1",
                         "--mc-draws", "2000", "--out", str(out)])
        assert code == 2
        assert words in capsys.readouterr().err
        assert drawn == []
        assert out.read_text(encoding="utf-8") == "old results\n"

    @pytest.mark.parametrize("sim", ["1", "3", "9", "10"])
    def test_decomposed_refused_before_any_draw(self, tmp_path, monkeypatch,
                                                capsys, sim):
        # only simulation 11 has a decomposed variant; no other run ignores
        # the flag
        drawn = []
        monkeypatch.setattr(cli.simgen, "gen_dataset",
                            lambda spec, rng, analyze: drawn.append(spec))
        out = tmp_path / "old.csv"
        out.write_text("old results\n", encoding="utf-8")
        code = cli.main(["simulate", "--sim", sim, "--iters", "1", "--n", "25",
                         "--r2", "0.25", "--studies", "2", "--decomposed",
                         "--seed", "1", "--out", str(out)])
        assert code == 2
        assert f"simulation {sim} has no decomposed variant" in capsys.readouterr().err
        assert drawn == []
        assert out.read_text(encoding="utf-8") == "old results\n"

    def test_directory_at_the_sidecar_fails_before_any_draw(self, tmp_path,
                                                           monkeypatch, capsys):
        # a run with skips would write the CSV and then fail on the sidecar
        drawn = []
        monkeypatch.setattr(cli.simgen, "gen_dataset",
                            lambda spec, rng, analyze: drawn.append(spec))
        out = tmp_path / "old.csv"
        out.write_text("old results\n", encoding="utf-8")
        sidecar = tmp_path / "old.csv.skips.json"
        sidecar.mkdir()
        code = cli.main(["simulate", "--sim", "3", "--iters", "1", "--n", "50",
                         "--r2", "0.25", "--seed", "9", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(sidecar) in err
        assert drawn == []
        assert out.read_text(encoding="utf-8") == "old results\n"
        assert sidecar.is_dir()

    def test_bad_grid_beats_a_bad_out(self, tmp_path, capsys):
        out = tmp_path / "absent" / "x.csv"
        code = cli.main(["simulate", "--sim", "3", "--iters", "1",
                         "--n", "50,5", "--seed", "9", "--out", str(out)])
        assert code == 2
        assert "need more observations" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_fails_before_the_run(self, tmp_path, monkeypatch,
                                                 capsys, where):
        calls = []
        monkeypatch.setattr(cli, "run_simulation", calls.append)
        out = tmp_path / "absent" / "x.csv" if where == "missing-dir" else tmp_path
        code = cli.main(["simulate", "--sim", "3", "--iters", "1", "--n", "50",
                         "--r2", "0.25", "--seed", "9", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert calls == []

    @pytest.mark.parametrize("sim", [3, 9])
    def test_default_grid_is_simgens(self, tmp_path, monkeypatch, sim):
        configs = []

        def capture(config):
            configs.append(config)
            return cli.SimulationResult(cli.RESULT_COLUMNS, [])

        monkeypatch.setattr(cli, "run_simulation", capture)
        code = cli.main(["simulate", "--sim", str(sim), "--iters", "1",
                         "--seed", "9", "--out", str(tmp_path / "x.csv")])
        assert code == 0
        [config] = configs
        assert (config.ns, config.r2s) == simgen.default_grid(sim)

    def test_failed_run_keeps_old_results(self, tmp_path, monkeypatch):
        def fail(config):
            raise cli.bf.NumericError("degenerate")

        monkeypatch.setattr(cli, "run_simulation", fail)
        out = tmp_path / "old.csv"
        out.write_text("old results\n", encoding="utf-8")
        code = cli.main(["simulate", "--sim", "3", "--iters", "1", "--n", "50",
                         "--r2", "0.25", "--seed", "9", "--out", str(out)])
        assert code == 4
        assert out.read_text(encoding="utf-8") == "old results\n"

    def test_float_format_ten_digits(self, tmp_path):
        raw = self._run(tmp_path, "fmt.csv").decode()
        for row in csv.DictReader(raw.splitlines()):
            for key in ("fit", "complexity", "log_bf", "agg_log_bf", "pmp"):
                value = row[key]
                if value and "." in value:
                    mantissa = value.lstrip("-").replace(".", "")
                    mantissa = mantissa.split("e")[0].lstrip("0")
                    assert len(mantissa) <= 10


class TestReport:
    def _simulate(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = cli.main(["simulate", "--sim", "3", "--iters", "3",
                         "--n", "50", "--r2", "0.25", "--seed", "4",
                         "--mc-draws", "2000", "--out", str(out)])
        assert code == 0
        return out

    def test_quantile_summary(self, tmp_path):
        sim_csv = self._simulate(tmp_path)
        out = tmp_path / "report.csv"
        code = cli.main(["report", "--in", str(sim_csv), "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2  # two alternatives, one condition
        for row in rows:
            assert row["iterations"] == "3"
            values = [float(row[k]) for k in ("min_log_bf", "q25_log_bf",
                                              "median_log_bf", "q75_log_bf",
                                              "max_log_bf")]
            assert values == sorted(values)

    def test_identical_rows_collapse_quantiles(self, tmp_path):
        path = tmp_path / "flat.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cli.RESULT_COLUMNS)
            for it in range(4):
                w.writerow(("3", "gaussian", "100", "0.25", str(it), "",
                            "h", "unconstrained", "", "", "", "1.5", "0.8"))
        out = tmp_path / "report.csv"
        assert cli.main(["report", "--in", str(path), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        for key in ("min_log_bf", "q25_log_bf", "median_log_bf",
                    "q75_log_bf", "max_log_bf"):
            assert row[key] == "1.5"
        assert row["mean_pmp"] == "0.8"

    @pytest.mark.parametrize("column", ["agg_log_bf", "pmp"])
    def test_non_numeric_cell_exit_3(self, tmp_path, capsys, column):
        path = tmp_path / "bad.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cli.RESULT_COLUMNS)
            for it in range(3):
                row = dict(zip(cli.RESULT_COLUMNS,
                               ("3", "gaussian", "100", "0.25", str(it), "",
                                "h", "unconstrained", "", "", "", "1.5", "0.8")))
                if it == 1:
                    row[column] = "oops"
                w.writerow(row.values())
        code = cli.main(["report", "--in", str(path),
                         "--out", str(tmp_path / "r.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert (f"{path}: non-numeric value 'oops' in column {column!r}, "
                "data row 2") in err

    def test_no_aggregate_rows_exit_3(self, tmp_path, capsys):
        path = tmp_path / "studies.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cli.RESULT_COLUMNS)
            w.writerow(("3", "gaussian", "100", "0.25", "0", "1", "h",
                        "unconstrained", "0.6", "0.5", "0.18", "", "0.55"))
        out = tmp_path / "r.csv"
        code = cli.main(["report", "--in", str(path), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {path}: no aggregate rows found\n")
        assert not out.exists()

    def test_missing_columns_exit_3(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        code = cli.main(["report", "--in", str(path),
                         "--out", str(tmp_path / "r.csv")])
        assert code == 3

    @pytest.mark.parametrize("cell,words", [
        (b"\xffh", "not UTF-8 text"),
        (b"h" * 200_000, "data row 2: field larger than field limit"),
    ], ids=["not-utf8", "oversized-cell"])
    def test_unreadable_file_exit_3(self, tmp_path, capsys, cell, words):
        path = tmp_path / "bad.csv"
        row = b"3,gaussian,100,0.25,%d,,%s,unconstrained,,,,1.5,0.8\r\n"
        path.write_bytes(",".join(cli.RESULT_COLUMNS).encode() + b"\r\n"
                         + row % (0, b"h") + row % (1, cell))
        out = tmp_path / "r.csv"
        code = cli.main(["report", "--in", str(path), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and words in err
        assert "Traceback" not in err
        assert not out.exists()


class TestParserPlumbing:
    def test_no_command_prints_help(self, capsys):
        assert cli.main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    @staticmethod
    def _session(root, fresh, data, capsys, monkeypatch):
        """Exit code, stdout and stderr of five calls made from ``root``
        with relative paths, and the bytes of every file they wrote; with
        ``fresh``, each call parses with a newly built parser."""
        monkeypatch.chdir(root)
        report_in = Path("results.csv")
        with open(report_in, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cli.RESULT_COLUMNS)
            for it in range(3):
                w.writerow(("3", "gaussian", "100", "0.25", str(it), "", "h",
                            "unconstrained", "", "", "", f"{it}.5", "0.8"))
        analyze = ["analyze", "--data", str(data), "--family", "gaussian",
                   "--outcome", "y", "--hypothesis", "x1 > 0 & x2 > 0",
                   "--seed", "3", "--out", "rec.json"]
        argvs = [analyze, analyze[:-2] + ["--fraction", "1.5", "--out", "r.json"],
                 ["synthesize", "--records", "rec.json", "--out", "summary.json",
                  "--trail", "trail.csv"],
                 [],
                 ["report", "--in", str(report_in), "--out", "report.csv"]]
        cli.build_parser.cache_clear()
        calls = []
        for argv in argvs:
            if fresh:
                cli.build_parser.cache_clear()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            calls.append((code, captured.out, captured.err))
        files = {p.name: p.read_bytes() for p in sorted(Path().iterdir())}
        return calls, files

    def test_shared_parser_matches_fresh_parsers(self, strong_effect_csv,
                                                 tmp_path, capsys, monkeypatch):
        runs = {}
        for name, fresh in (("shared", False), ("fresh", True)):
            (tmp_path / name).mkdir()
            runs[name] = self._session(tmp_path / name, fresh,
                                       strong_effect_csv, capsys, monkeypatch)
        calls, files = runs["shared"]
        assert [code for code, _, _ in calls] == [0, ("exit", 2), 0, 2, 0]
        assert calls[1][2].startswith("usage: evsynth analyze")
        assert "argument --fraction" in calls[1][2]
        assert calls[3][1].startswith("usage: evsynth")
        assert set(files) == {"rec.json", "summary.json", "trail.csv",
                              "results.csv", "report.csv"}
        assert runs["shared"] == runs["fresh"]

    def test_parser_is_built_once_per_process(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        assert cli.main([]) == 2
        first = list(built)
        assert cli.main([]) == 2
        # the top-level parser and one per subcommand, all from the first call
        assert first.count("evsynth") == 1 and len(first) > 1
        assert built == first
        assert capsys.readouterr().out.count("usage: evsynth") == 2

    def test_bad_fraction_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["analyze", "--data", "x.csv", "--family", "gaussian",
                      "--outcome", "y", "--hypothesis", "a > 0",
                      "--fraction", "1.5", "--seed", "1",
                      "--out", str(tmp_path / "r.json")])

    @pytest.mark.parametrize("argv,flag", [
        (["simulate", "--sim", "1", "--seed", "1", "--n", "25,2.5"], "--n"),
        (["simulate", "--sim", "1", "--seed", "1", "--r2", "0.3,abc"], "--r2"),
        (["synthesize", "--records", "r.json", "--priors", "0.5,abc"],
         "--priors")], ids=["n", "r2", "priors"])
    def test_malformed_list_names_its_option(self, tmp_path, capsys, argv,
                                             flag):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected " in err
        assert "Traceback" not in err and not out.exists()

    def test_list_options_parse_to_tuples(self):
        parse = cli.build_parser().parse_args
        sim = parse(["simulate", "--sim", "1", "--n", "25,200",
                     "--r2", "0.09,0.25", "--seed", "1", "--out", "o.csv"])
        assert (sim.n, sim.r2) == ((25, 200), (0.09, 0.25))
        priors = ["synthesize", "--records", "r.json", "--out", "o.json"]
        assert parse(priors).priors is None
        assert parse(priors + ["--priors", "0.8,0.2"]).priors == (0.8, 0.2)

    def test_fraction_parses_to_a_spec(self):
        argv = ["analyze", "--data", "x.csv", "--family", "gaussian",
                "--outcome", "y", "--hypothesis", "x1 > 0", "--seed", "1",
                "--out", "r.json"]
        parse = cli.build_parser().parse_args
        assert parse(argv).fraction is None
        assert parse(argv + ["--fraction", "0.25"]).fraction == \
            cli.bf.FractionSpec(0.25)

    @pytest.mark.parametrize("value", ["0", "-5", "many"])
    def test_mc_draws_must_be_positive(self, tmp_path, capsys, value):
        commands = (
            ["analyze", "--data", "x.csv", "--family", "gaussian",
             "--outcome", "y", "--hypothesis", "x1 < x2 < x3", "--seed", "1"],
            ["simulate", "--sim", "1", "--iters", "1", "--seed", "1"],
        )
        for argv in commands:
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + ["--mc-draws", value,
                                 "--out", str(tmp_path / "o")])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "argument --mc-draws" in err and "positive integer" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("flag,value", [
        ("--iters", "0"), ("--iters", "-1"), ("--studies", "0"),
        ("--threads", "-3"), ("--threads", "0"), ("--threads", "two")])
    def test_simulate_counts_must_be_positive(self, tmp_path, capsys, flag,
                                              value):
        argv = ["simulate", "--sim", "9", "--n", "25", "--seed", "1",
                "--out", str(tmp_path / "o.csv")]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "positive integer" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("value,words", [
        ("x", "expected a non-negative integer, got 'x'"),
        ("-1", "must be a non-negative integer, got -1")], ids=["text", "negative"])
    def test_seed_errors_are_worded(self, tmp_path, capsys, value, words):
        commands = (
            ["analyze", "--data", "x.csv", "--family", "gaussian",
             "--outcome", "y", "--hypothesis", "x1 > 0"],
            ["simulate", "--sim", "1", "--iters", "1"],
        )
        for argv in commands:
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + ["--seed", value, "--out", str(tmp_path / "o")])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"argument --seed: {words}" in err
            assert "invalid" not in err

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["analyze", "--data", "x.csv", "--family", "gaussian",
                      "--outcome", "y", "--hypothesis", "a > 0",
                      "--seed", "-1", "--out", str(tmp_path / "r.json")])
