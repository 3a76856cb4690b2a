"""Parser and constraint-system tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsynth.hypothesis import (ConstraintSystem, NameMappingError,
                                ParseError, columns, embed_rows, parse,
                                transform_constraints)
from oracles import same_system, to_text


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
        cs = parse("b2 > b1")
        R, r = embed_rows(cs, ("b0", "b1", "b2"))
        assert np.array_equal(R, [[0.0, -1.0, 1.0]])
        assert np.array_equal(r, [0.0])

    def test_embed_unknown_name(self):
        with pytest.raises(NameMappingError):
            embed_rows(parse("q > 0"), ("b1", "b2"))

    def test_columns_follow_the_names(self):
        cs = parse("b3 > b1 & b2 = 0")
        assert cs.param_names == ("b3", "b1", "b2")
        assert columns(cs, ("b1", "b2", "b0", "b3")) == [3, 0, 1]
        with pytest.raises(NameMappingError, match=r"\['b2'\]"):
            columns(cs, ["b1", "b3"])

    def test_embedded_rows_are_fresh(self):
        cs = parse("b2 > b1 + 0.5")
        names = ("b0", "b1", "b2")
        want = transform_constraints(cs, np.ones(3), np.eye(3), names)
        R, r = embed_rows(cs, names)
        R[0, 0], r[0] = 9.0, 9.0
        again, r_again = embed_rows(cs, list(names))
        assert again is not R and r_again is not r
        assert np.array_equal(again, [[0.0, -1.0, 1.0]])
        assert np.array_equal(r_again, [0.5])
        got = transform_constraints(cs, np.ones(3), np.eye(3), names)
        assert np.array_equal(got.ineq.mean, want.ineq.mean)
        assert np.array_equal(got.ineq.scale, want.ineq.scale)
        assert np.array_equal(embed_rows(cs, ("b2", "b1"))[0], [[1.0, -1.0]])

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
        stacked = dataclasses.replace(cs, R_i=np.array([[0.0, 0.0, 1.0]]),
                                      r_i=np.array([0.7]))
        assert stacked.rank == 1 and not stacked.consistent

    def test_identity_comparison_and_hash(self):
        cs = parse("b1 > 0 & b2 > 0")
        copy = dataclasses.replace(cs)
        assert (cs == copy) is False
        assert cs == cs and cs is parse("b1 > 0 & b2 > 0")
        assert {cs: 1, copy: 2}[cs] == 1
        assert len({cs, copy, parse("b1 > 0 & b2 > 0")}) == 2
        assert same_system(cs, copy)
