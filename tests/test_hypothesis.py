"""Parser and constraint-system tests."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsynth.hypothesis import (ConstraintSystem, NameMappingError,
                                ParseError, columns, parse,
                                transform_constraints)
from oracles import padded_transform, same_system, to_text


def inequalities(names, rows):
    """A ConstraintSystem built directly from inequality ``rows > 0``."""
    rows = np.array(rows, dtype=float)
    return ConstraintSystem(names, np.zeros((0, len(names))), np.zeros(0),
                            rows, np.zeros(len(rows)))


class TestWorkedExamples:
    def test_ordering_chain(self):
        cs = parse("b4 < b5 < b6")
        assert cs.param_names == ("b4", "b5", "b6")
        assert cs.n_eq == 0
        assert np.array_equal(cs.R_i, [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
        assert np.array_equal(cs.r_i, [0.0, 0.0])

    def test_brace_set_distributes(self):
        cs = parse("{b2, b3, b4} > 0")
        assert cs.param_names == ("b2", "b3", "b4")
        assert np.array_equal(cs.R_i, np.eye(3))
        assert np.array_equal(cs.r_i, np.zeros(3))

    def test_equality_brace_in_chain(self):
        cs = parse("0 < {b1 = b2} < b3")
        assert cs.param_names == ("b1", "b2", "b3")
        assert np.array_equal(cs.R_e, [[1.0, -1.0, 0.0]])
        assert np.array_equal(cs.r_e, [0.0])
        assert np.array_equal(cs.R_i, [[1.0, 0.0, 0.0], [-1.0, 0.0, 1.0]])
        assert np.array_equal(cs.r_i, [0.0, 0.0])


class TestGrammar:
    def test_conjunction(self):
        cs = parse("b1 = b2 & b3 > b4")
        assert cs.n_eq == 1
        assert cs.n_ineq == 1
        assert cs.param_names == ("b1", "b2", "b3", "b4")

    def test_less_than_flips_row(self):
        left = parse("b1 < b2")
        right = parse("-b1 + b2 > 0")
        assert same_system(left, right)

    def test_linear_expression_with_constants(self):
        cs = parse("b1 + 1 > 2")
        assert np.array_equal(cs.R_i, [[1.0]])
        assert np.array_equal(cs.r_i, [1.0])

    def test_coefficient_syntax(self):
        cs = parse("2*b1 - b2 > 0")
        assert np.allclose(cs.R_i, [[1.0, -0.5]])

    def test_brace_set_less_than(self):
        cs = parse("{x2, x3, x4} < 0")
        assert np.array_equal(cs.R_i, -np.eye(3))

    def test_chain_emits_adjacent_pairs_only(self):
        cs = parse("b1 < b2 < b3 < b4")
        assert cs.R_i.shape == (3, 4)

    def test_names_in_first_appearance_order(self):
        cs = parse("b9 > b2 & b2 > b5")
        assert cs.param_names == ("b9", "b2", "b5")


class TestNormalization:
    def test_equality_pivot_scaled_to_one(self):
        cs = parse("-2*b1 + 4*b2 = 1")
        assert np.allclose(cs.R_e, [[1.0, -2.0]])
        assert np.allclose(cs.r_e, [-0.5])

    def test_inequality_max_abs_scaled_to_one(self):
        cs = parse("3*b1 > 1.5")
        assert np.allclose(cs.R_i, [[1.0]])
        assert np.allclose(cs.r_i, [0.5])

    def test_duplicate_inequality_rows_merge(self):
        cs = parse("b1 > 0 & b1 > 0")
        assert cs.n_ineq == 1

    def test_scaled_duplicate_inequality_rows_merge(self):
        cs = parse("b1 - b2 > 0 & 2*b1 - 2*b2 > 0")
        assert cs.n_ineq == 1

    def test_dependent_consistent_equality_dropped_silently(self):
        cs = parse("b1 = 0 & 2*b1 = 0")
        assert cs.n_eq == 1
        assert np.array_equal(cs.r_e, [0.0])

    @pytest.mark.parametrize("text,words", [
        ("b1 = 0 & b1 = 1", "b1 = 1.0 stated, b1 = 0.0 implied"),
        ("b1 = 0 & 2*b1 = 1", "b1 = 0.5 stated, b1 = 0.0 implied"),
        ("b1 + b2 = 1 & b1 = 0 & b2 = 0", "b2 = 0.0 stated, b2 = 1.0 implied")],
        ids=["same-row", "scaled-row", "sum-of-rows"])
    def test_inconsistent_equality_raises(self, text, words):
        with pytest.raises(ParseError, match="contradictory equality") as info:
            parse(text)
        assert words in str(info.value)

    def test_contradictory_inequalities_kept(self):
        cs = parse("b1 < b2 & b2 < b1")
        assert cs.n_ineq == 2

    def test_unused_name_pruned(self):
        cs = parse("b1 + b2 - b2 > 0")
        assert cs.param_names == ("b1",)


# inequality rows that the equality rows fix: the region is empty, or the
# row holds on the whole boundary and goes
EMPTY_FIXED = (("x1 = 0 & x1 > 0", "x1 > 0.0 stated, x1 = 0.0 implied"),
               ("x1 + x2 = 0 & x1 > -x2",
                "x1 + x2 > 0.0 stated, x1 + x2 = 0.0 implied"),
               ("x1 = 0.3 & x1 > 0.3", "x1 > 0.3 stated, x1 = 0.3 implied"))
REDUNDANT_FIXED = (("x1 = 0 & x1 > -1", "x1 = 0"),
                   ("x1 = x2 & x1 - x2 > -0.5", "x1 = x2"),
                   ("x1 = 0.3 & 2*x1 < 1", "x1 = 0.3"))


class TestEqualityFixedRows:
    @pytest.mark.parametrize("text, words", EMPTY_FIXED)
    def test_empty_region_raises(self, text, words):
        with pytest.raises(ParseError, match="empty region") as info:
            parse(text)
        assert words in str(info.value)

    @pytest.mark.parametrize("text, plain", REDUNDANT_FIXED)
    def test_redundant_row_dropped(self, text, plain):
        cs = parse(text)
        assert cs.n_ineq == 0 and cs.consistent
        assert same_system(cs, parse(plain))
        assert np.array_equal(cs.center, parse(plain).center)

    def test_free_rows_kept(self):
        cs = parse("x1 = 0 & x1 + x2 > 0 & x3 > x1")
        assert cs.n_eq == 1 and cs.n_ineq == 2

    def test_directly_built_system(self):
        names = ("x1", "x2")
        R_e, r_e = np.array([[1.0, 1.0]]), np.array([0.5])
        with pytest.raises(ParseError, match="x1 \\+ x2 > 0.5 stated"):
            ConstraintSystem(names, R_e, r_e, np.array([[2.0, 2.0]]),
                             np.array([1.0]))
        cs = ConstraintSystem(names, R_e, r_e,
                              np.array([[2.0, 2.0], [1.0, 0.0]]),
                              np.array([0.0, 0.2]))
        assert np.array_equal(cs.R_i, [[1.0, 0.0]])
        assert np.array_equal(cs.r_i, [0.2])


class TestErrors:
    @pytest.mark.parametrize("text", ["b1 > b1", "1 > 0", "b1 + 1 > b1"])
    def test_zero_coefficient_constraint(self, text):
        with pytest.raises(ParseError):
            parse(text)

    @pytest.mark.parametrize("text", ["", "   ", "b1", "b1 >", "> b1",
                                      "b1 & b2", "b1 >> b2", "{b1, b2 = b3} > 0",
                                      "{} > 0", "b1 > 1e999", "b1 = = b2",
                                      "2 * > b1"])
    def test_malformed_input(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_unterminated_brace_set_names_its_opening(self):
        with pytest.raises(ParseError, match=r"^unterminated brace set "
                                             r"\(at position 0\)$") as err:
            parse("{x1, x2")
        assert err.value.position == 0

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("b1 > b1")
        assert err.value.position is not None

    @pytest.mark.parametrize("build,error,words", [
        (lambda: parse("x1 > 0 }"), ParseError,
         "unexpected token '}' (at position 7)"),
        (lambda: parse("{x1 x2} > 0"), ParseError,
         "unexpected token 'x2' in brace set (at position 4)"),
        (lambda: inequalities(("b1", "b1"), [[1.0, 0.0]]), ValueError,
         "duplicate coefficient names"),
        (lambda: inequalities(("b1", "b2"), [[1.0, 0.0, 0.0]]), ValueError,
         "inequality rows have inconsistent shape"),
        (lambda: inequalities(("b1", "b2"), [[1.0, math.inf]]), ValueError,
         "inequality rows contain non-finite values"),
        (lambda: ConstraintSystem(("b1", "b2"), np.array([[1.0, 0.0]]),
                                  np.array([math.nan]), np.zeros((0, 2)),
                                  np.zeros(0)), ValueError,
         "equality rows contain non-finite values"),
    ], ids=["stray-token", "brace-set-token", "duplicate-names",
            "inconsistent-shape", "non-finite-inequality",
            "non-finite-equality"])
    def test_invalid_input_is_named(self, build, error, words):
        with pytest.raises(error, match=f"^{re.escape(words)}$"):
            build()


class TestParseMemo:
    """``parse`` keeps parsed systems per text; the memo must not change
    what it accepts, and a kept system must not be changeable."""

    @pytest.mark.parametrize("value", [["x1 > 0"], None, 3, b"x1 > 0"])
    def test_non_string_rejected(self, value):
        with pytest.raises(ParseError, match="hypothesis must be a string"):
            parse(value)

    def test_same_text_gives_same_system(self):
        assert parse("q1 < q2 & q3 = 0.5") is parse("q1 < q2 & q3 = 0.5")

    def test_errors_raise_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ParseError, match="at position 4"):
                parse("b1 >> b2")

    def test_rows_are_read_only(self):
        cs = parse("b1 < b2 & b3 = 0.5")
        for rows in (cs.R_e, cs.r_e, cs.R_i, cs.r_i):
            with pytest.raises(ValueError):
                rows[0] = 9.0
        assert np.array_equal(parse("b1 < b2 & b3 = 0.5").R_i,
                              [[-1.0, 1.0, 0.0]])

    def test_constructed_rows_are_copied(self):
        R_i = np.array([[1.0, -1.0]])
        cs = ConstraintSystem(("b1", "b2"), np.zeros((0, 2)), np.zeros(0),
                              R_i, np.zeros(1))
        R_i[0, 0] = 5.0
        assert R_i.flags.writeable
        assert np.array_equal(cs.R_i, [[1.0, -1.0]])
        assert not cs.R_i.flags.writeable


class TestRoundTrip:
    @pytest.mark.parametrize("text", [
        "b4 < b5 < b6",
        "{b2, b3, b4} > 0",
        "0 < {b1 = b2} < b3",
        "b1 = b2 & b3 > b4",
        "2*b1 + 0.5*b2 > 1.5",
        "x1 - x2 > -1.5",
        "b1 < b2 & b2 < b1",
    ])
    def test_reparse_gives_identical_system(self, text):
        cs = parse(text)
        again = parse(to_text(cs))
        assert same_system(cs, again)

    @given(st.text(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_parse_never_crashes(self, text):
        try:
            cs = parse(text)
        except ParseError:
            return
        assert isinstance(cs, ConstraintSystem)
        assert same_system(cs, parse(to_text(cs)))

    @given(st.integers(1, 4), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_chain_row_count(self, links, seed):
        rng = np.random.default_rng(seed)
        names = [f"p{j}" for j in rng.permutation(links + 1)]
        text = " < ".join(names)
        cs = parse(text)
        assert cs.n_ineq == links
        assert cs.n_eq == 0
        # each row has one +1 and one -1
        assert np.allclose(np.abs(cs.R_i).sum(axis=1), 2.0)
        assert np.allclose(cs.R_i.sum(axis=1), 0.0)


class TestEmbedAndTransform:
    def test_embed_into_wider_space(self):
        # the law's block on b1 and b2 is read; b0 is left free
        cs = parse("b2 > b1 + 0.5")
        mean = np.array([9.0, 1.0, 2.0])
        scale = np.array([[5.0, 1.0, 1.0], [1.0, 2.0, 0.5], [1.0, 0.5, 3.0]])
        out = transform_constraints(cs, mean, scale, ("b0", "b1", "b2"))
        assert np.array_equal(out.ineq.mean, [0.5])
        assert np.array_equal(out.ineq.scale, [[4.0]])

    def test_embed_unknown_name(self):
        with pytest.raises(NameMappingError, match=r"\['q'\]"):
            transform_constraints(parse("q > 0"), np.zeros(2), np.eye(2),
                                  ("b1", "b2"))

    def test_columns_follow_the_names(self):
        cs = parse("b3 > b1 & b2 = 0")
        assert cs.param_names == ("b3", "b1", "b2")
        assert columns(cs, ("b1", "b2", "b0", "b3")) == [3, 0, 1]
        with pytest.raises(NameMappingError, match=r"\['b2'\]"):
            columns(cs, ["b1", "b3"])

    def test_names_in_any_order(self):
        cs = parse("b2 > b1 + 0.5")
        mean, scale = np.array([3.0, 2.0]), np.array([[2.0, 0.5], [0.5, 1.0]])
        for names in (("b2", "b1"), ["b2", "b1"]):
            out = transform_constraints(cs, mean, scale, names)
            assert np.array_equal(out.ineq.mean, [0.5])
            assert np.array_equal(out.ineq.scale, [[2.0]])

    TEXTS = ("x6 > x1", "2*x3 - x1 > 0.3 & x5 = x6", "{x1 = x2} < x3",
             "x1 = 0 & x2 > 0", "x5 < x2 < x6", "x6 = x5 = x4",
             "x3 > 0 & x3 < 0.5 & x2 > 0", "-x4 + 0.5*x2 > 1e-3 & x3 = 2",
             "x2 - x1 > 0 & x1 > 0.1 & x3 > x2 & x6 > 0")

    @given(st.sampled_from(TEXTS), st.permutations(
        ("x1", "x2", "x3", "x4", "x5", "x6", "intercept")),
           st.booleans(), st.sampled_from([math.inf, 1.0, 4.5, 4793.0]),
           st.integers(0, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_constrained_block_matches_the_padded_rows(self, text, names,
                                                       as_list, df, seed):
        # the eta moments of the constrained block are those of the whole
        # law under zero-padded rows, bit for bit
        rng = np.random.default_rng(seed)
        p = len(names)
        A = rng.normal(size=(p, p)) * rng.uniform(0.01, 10.0, size=p)
        mean = rng.normal(size=p) * rng.uniform(0.01, 10.0)
        scale = A @ A.T
        names = list(names) if as_list else tuple(names)
        h = parse(text)
        got = transform_constraints(h, mean, scale, names, df)
        want = padded_transform(h, mean, scale, names, df)
        for g, w in ((got.eq, want.eq), (got.ineq, want.ineq)):
            assert (g is None) == (w is None)
            if g is not None:
                assert g.mean.tobytes() == w.mean.tobytes()
                assert g.scale.tobytes() == w.scale.tobytes()
                assert g.df == w.df == df
        assert (got.cross is None) == (want.cross is None)
        if got.cross is not None:
            assert got.cross.tobytes() == want.cross.tobytes()

    def test_identity_rows_unchanged(self):
        cs = parse("{b1, b2} > 0")
        out = transform_constraints(cs, np.array([0.3, -0.2]), np.eye(2),
                                    ("b1", "b2"))
        assert out.eq is None
        assert np.allclose(out.ineq.mean, [0.3, -0.2])
        assert np.allclose(out.ineq.scale, np.eye(2))

    def test_difference_row(self):
        cs = parse("b2 > b1")
        out = transform_constraints(cs, np.array([0.0, 1.0]), np.eye(2),
                                    ("b1", "b2"))
        assert np.allclose(out.ineq.mean, [1.0])
        assert np.allclose(out.ineq.scale, [[2.0]])

    def test_rhs_shifts_mean(self):
        base = transform_constraints(parse("b1 > 0"), np.array([0.5]),
                                     np.eye(1), ("b1",))
        shifted = transform_constraints(parse("b1 > 0.1"), np.array([0.5]),
                                        np.eye(1), ("b1",))
        assert np.allclose(shifted.ineq.mean, base.ineq.mean - 0.1)

    def test_df_passes_through(self):
        out = transform_constraints(parse("b1 > 0"), np.array([0.0]),
                                    np.eye(1), ("b1",), df=7.0)
        assert out.ineq.df == 7.0

    @given(st.floats(0.1, 10.0), st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_scale_factor_propagates_quadratically(self, s, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(3, 3))
        S = A @ A.T + np.eye(3)
        cs = parse("b1 < b2 < b3")
        base = transform_constraints(cs, np.zeros(3), S, ("b1", "b2", "b3"))
        scaled = transform_constraints(cs, np.zeros(3), s * S,
                                       ("b1", "b2", "b3"))
        assert np.allclose(scaled.ineq.scale, s * base.ineq.scale)


class TestConstraintSystemValidation:
    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSystem(param_names=("b1",), R_e=np.zeros((1, 1)),
                             r_e=np.zeros(1), R_i=np.zeros((0, 1)),
                             r_i=np.zeros(0))

    def test_at_least_one_row_required(self):
        with pytest.raises(ValueError):
            ConstraintSystem(param_names=("b1",), R_e=np.zeros((0, 1)),
                             r_e=np.zeros(0), R_i=np.zeros((0, 1)),
                             r_i=np.zeros(0))


class TestDerivedGeometry:
    """Stacked rows, rank and boundary center, derived at construction."""

    def test_consistent_boundary(self):
        cs = parse("b1 + b2 > 1 & b3 = 0.5")
        assert np.array_equal(cs.R, [[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        assert np.array_equal(cs.r, [0.5, 1.0])
        assert cs.rank == 2
        assert np.allclose(cs.center, [0.5, 0.5, 0.5], rtol=0.0, atol=1e-15)
        assert cs.consistent

    def test_inconsistent_boundary(self):
        cs = parse("b1 > 0 & b1 > 1")
        assert cs.rank == 1
        assert np.allclose(cs.center, [0.5], rtol=0.0, atol=1e-15)
        assert not cs.consistent

    def test_arrays_are_read_only(self):
        cs = parse("b1 + b2 > 1 & b3 = 0.5")
        for array in (cs.R, cs.r, cs.center):
            with pytest.raises(ValueError):
                array[0] = 9.0

    def test_replace_recomputes(self):
        cs = parse("b1 + b2 > 1 & b3 = 0.5")
        eq_only = dataclasses.replace(cs, R_i=np.zeros((0, 3)), r_i=np.zeros(0))
        assert eq_only.rank == 1
        assert np.allclose(eq_only.center, [0.0, 0.0, 0.5], rtol=0.0,
                           atol=1e-15)
        assert np.array_equal(eq_only.R, [[0.0, 0.0, 1.0]])
        bad = parse("b1 > 0 & b1 > 1")
        mended = dataclasses.replace(bad, r_i=np.array([1.0, 1.0]))
        assert mended.consistent and not bad.consistent
        assert np.allclose(mended.center, [1.0], rtol=0.0, atol=1e-15)
        stacked = dataclasses.replace(cs, R_i=np.array([[1.0, 0.0, 1.0],
                                                        [1.0, 0.0, 0.0]]),
                                      r_i=np.array([1.0, 0.7]))
        assert stacked.rank == 2 and not stacked.consistent
        # a row the equality rows fix is decided again too
        with pytest.raises(ParseError, match="b3 = 0.5 implied"):
            dataclasses.replace(cs, R_i=np.array([[0.0, 0.0, 1.0]]),
                                r_i=np.array([0.7]))
        freed = dataclasses.replace(cs, R_i=np.array([[0.0, 0.0, 1.0]]),
                                    r_i=np.array([0.2]))
        assert freed.n_ineq == 0 and freed.consistent

    def test_identity_comparison_and_hash(self):
        cs = parse("b1 > 0 & b2 > 0")
        copy = dataclasses.replace(cs)
        assert (cs == copy) is False
        assert cs == cs and cs is parse("b1 > 0 & b2 > 0")
        assert {cs: 1, copy: 2}[cs] == 1
        assert len({cs, copy, parse("b1 > 0 & b2 > 0")}) == 2
        assert same_system(cs, copy)


class TestRowScaling:
    """Every system, parsed or built directly, divides each inequality row
    and its offset by the row's largest absolute entry: c R_j beta > c r_j
    is one region for every c > 0, and so gives one set of rows."""

    NAMES = ("b1", "b2", "b3")

    def system(self, R_i, r_i):
        return ConstraintSystem(self.NAMES, np.array([[1.0, 0.0, -1.0]]),
                                np.array([0.2]), R_i, r_i)

    def test_built_rows_are_scaled(self):
        cs = ConstraintSystem(("b1", "b2"), np.zeros((0, 2)), np.zeros(0),
                              np.array([[2.0, -2.0]]), np.array([1.0]))
        assert np.array_equal(cs.R_i, [[1.0, -1.0]])
        assert np.array_equal(cs.r_i, [0.5])

    @pytest.mark.parametrize("factor", [3.0, 0.1])
    def test_transform_is_free_of_a_row_scale(self, factor):
        R_i = np.array([[1.0, -2.0, 0.0], [0.0, 1.0, 1.0]])
        r_i = np.array([0.5, -1.0])
        R_c, r_c = R_i.copy(), r_i.copy()
        R_c[0] *= factor
        r_c[0] *= factor
        mean = np.array([0.3, -0.2, 0.5])
        scale = np.array([[1.0, 0.3, -0.2], [0.3, 2.0, 0.4], [-0.2, 0.4, 1.5]])
        base, scaled = (transform_constraints(self.system(R, r), mean, scale,
                                              self.NAMES)
                        for R, r in ((R_i, r_i), (R_c, r_c)))
        for a, b in ((base.eq.mean, scaled.eq.mean),
                     (base.eq.scale, scaled.eq.scale),
                     (base.ineq.mean, scaled.ineq.mean),
                     (base.ineq.scale, scaled.ineq.scale),
                     (base.cross, scaled.cross)):
            assert np.array_equal(a, b)

    def test_inconsistent_center_is_free_of_a_row_scale(self):
        parsed = parse("x1 > 0 & x1 > 1")
        built = ConstraintSystem(("x1",), np.zeros((0, 1)), np.zeros(0),
                                 np.array([[1.0], [4.0]]), np.array([0.0, 4.0]))
        assert not built.consistent
        assert np.array_equal(built.center, parsed.center)
