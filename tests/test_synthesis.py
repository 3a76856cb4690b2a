"""Cross-study aggregation tests: sums, states, priors, PMPs, records."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (Bundle, RuleBasedStateMachine, invariant,
                                 multiple, rule)

from evsynth.bf import EvidenceRecord, NumericError
from evsynth.synthesis import (DuplicateStudyError, LabelMismatchError,
                               aggregate_log_bf, new_state, pmps,
                               synthesize_records, update)


class TestAggregateLogBf:
    def test_plain_sum(self):
        assert aggregate_log_bf((0.5, 0.5, 0.5)) == 1.5

    def test_worked_example_product_08(self):
        # three studies with BF 0.2, 2, 2 aggregate to 0.8
        agg = aggregate_log_bf((math.log(0.2), math.log(2.0), math.log(2.0)))
        assert math.isclose(math.exp(agg), 0.8, rel_tol=1e-12)

    def test_per_study_cap_ln8(self):
        agg = aggregate_log_bf([math.log(2.0)] * 3)
        assert math.isclose(agg, math.log(8.0), rel_tol=1e-15)

    def test_negative_infinity_dominates(self):
        assert aggregate_log_bf((1.0, -math.inf, 2.0)) == -math.inf

    def test_positive_infinity_dominates(self):
        assert aggregate_log_bf((1.0, math.inf)) == math.inf

    def test_conflicting_sentinels_raise(self):
        with pytest.raises(NumericError):
            aggregate_log_bf((math.inf, -math.inf))

    def test_nan_raises(self):
        with pytest.raises(NumericError):
            aggregate_log_bf((0.0, math.nan))

    def test_empty_sum_is_zero(self):
        assert aggregate_log_bf(()) == 0.0


def three_study_state(values=(0.2, 2.0, 2.0)):
    state = new_state(("h", "unconstrained"))
    for t, v in enumerate(values):
        state = update(state, f"s{t + 1}",
                       {"h": math.log(v), "unconstrained": 0.0})
    return state


class TestUpdate:
    def test_worked_example(self):
        state = three_study_state()
        assert math.isclose(math.exp(state.cum_log_bf[0]), 0.8, rel_tol=1e-12)
        assert len(state.trail) == 3
        assert [sid for sid, _ in state.trail] == ["s1", "s2", "s3"]

    def test_pmp_cap_8_9(self):
        state = three_study_state((2.0, 2.0, 2.0))
        probs = state.pmps()
        assert math.isclose(probs[0], 8.0 / 9.0, rel_tol=1e-12)

    def test_zero_studies_pmps_equal_priors(self):
        state = new_state(("a", "b", "unconstrained"), (0.5, 0.25, 0.25))
        assert np.allclose(state.pmps(), [0.5, 0.25, 0.25], atol=1e-15)

    def test_missing_label(self):
        state = new_state(("h", "unconstrained"))
        with pytest.raises(LabelMismatchError):
            update(state, "s1", {"h": 0.0})

    def test_extra_label(self):
        state = new_state(("h", "unconstrained"))
        with pytest.raises(LabelMismatchError):
            update(state, "s1", {"h": 0.0, "unconstrained": 0.0, "x": 1.0})

    def test_duplicate_study(self):
        state = three_study_state()
        with pytest.raises(DuplicateStudyError):
            update(state, "s2", {"h": 0.0, "unconstrained": 0.0})

    def test_trail_records_contributions(self):
        state = three_study_state()
        assert len(state.trail) == 3
        study, logs = state.trail[0]
        assert study == "s1"
        # in label order: h, then unconstrained
        assert logs == (math.log(0.2), 0.0)

    def test_sentinel_conflict_through_updates(self):
        state = new_state(("h", "unconstrained"))
        state = update(state, "s1", {"h": math.inf, "unconstrained": 0.0})
        with pytest.raises(NumericError):
            update(state, "s2", {"h": -math.inf, "unconstrained": 0.0})

    @given(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=8),
           st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_order_invariance(self, logs, seed):
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(logs))
        forward = new_state(("h", "unconstrained"))
        shuffled = new_state(("h", "unconstrained"))
        for t, v in enumerate(logs):
            forward = update(forward, f"s{t}", {"h": v, "unconstrained": 0.0})
        for t in order:
            shuffled = update(shuffled, f"s{t}",
                              {"h": logs[t], "unconstrained": 0.0})
        assert abs(forward.cum_log_bf[0] - shuffled.cum_log_bf[0]) < 1e-12
        assert np.allclose(forward.pmps(), shuffled.pmps(), atol=1e-12)

    def test_consistency_with_product(self):
        values = (1.7, 0.3, 2.6, 0.9)
        state = three_study_state(values)
        assert math.isclose(math.exp(state.cum_log_bf[0]),
                            float(np.prod(values)), rel_tol=1e-12)


def chain(ids, values, labels=("h", "unconstrained")):
    state = new_state(labels)
    for sid, v in zip(ids, values):
        state = update(state, sid, {"h": v, "unconstrained": 0.0})
    return state


def snapshot(state):
    return (state.trail,
            state.cum_log_bf.tolist(), state.pmps().tolist(),
            state.running_totals(), state.as_dict())


class TestBranches:
    """States are values: extending an older state again leaves every other
    state as it was and equals a chain built afresh."""

    def test_branches_equal_fresh_chains(self):
        s1 = chain(["a"], [0.5])
        s2 = update(s1, "b", {"h": -0.25, "unconstrained": 0.0})
        s3 = update(s2, "c", {"h": 1.5, "unconstrained": 0.0})
        before = [snapshot(s) for s in (s1, s2, s3)]
        x = update(s2, "x", {"h": 2.0, "unconstrained": 0.0})
        y = update(s2, "y", {"h": -3.0, "unconstrained": 0.0})
        # "c" is held by s3 only, so s1 may take it
        c1 = update(s1, "c", {"h": 0.75, "unconstrained": 0.0})
        assert snapshot(x) == snapshot(chain("abx", [0.5, -0.25, 2.0]))
        assert snapshot(y) == snapshot(chain("aby", [0.5, -0.25, -3.0]))
        assert snapshot(c1) == snapshot(chain("ac", [0.5, 0.75]))
        assert [snapshot(s) for s in (s1, s2, s3)] == before
        assert snapshot(update(s3, "d", {"h": 0.0, "unconstrained": 0.0})) \
            == snapshot(chain("abcd", [0.5, -0.25, 1.5, 0.0]))

    def test_duplicate_caught_after_branch(self):
        s2 = chain("ab", [0.5, -0.25])
        update(s2, "c", {"h": 1.0, "unconstrained": 0.0})
        branch = update(s2, "x", {"h": 2.0, "unconstrained": 0.0})
        for sid in ("a", "b", "x"):
            with pytest.raises(DuplicateStudyError):
                update(branch, sid, {"h": 0.0, "unconstrained": 0.0})
        twice = update(branch, "c", {"h": 0.0, "unconstrained": 0.0})
        with pytest.raises(DuplicateStudyError):
            update(twice, "c", {"h": 0.0, "unconstrained": 0.0})

    def test_failed_update_leaves_state(self):
        state = chain("ab", [0.5, -0.25])
        before = snapshot(state)
        with pytest.raises(LabelMismatchError):
            update(state, "c", {"h": 0.0})
        with pytest.raises(NumericError):
            update(state, "c", {"h": math.nan, "unconstrained": 0.0})
        assert snapshot(state) == before
        assert snapshot(update(state, "c", {"h": 1.0, "unconstrained": 0.0})) \
            == snapshot(chain("abc", [0.5, -0.25, 1.0]))

    def test_running_totals_are_the_prefix_sums(self):
        state = chain("abc", [0.5, -math.inf, 2.0])
        assert state.running_totals() == [
            ("a", (0.5, 0.0), (0.5, 0.0)),
            ("b", (-math.inf, 0.0), (-math.inf, 0.0)),
            ("c", (2.0, 0.0), (-math.inf, 0.0))]


class TestNewState:
    def test_uniform_default(self):
        state = new_state(("a", "b", "unconstrained"))
        assert np.allclose(state.prior_probs, 1.0 / 3.0)

    def test_priors_are_copied(self):
        # a state holds its priors once; the caller's array is not them
        priors = np.array([0.5, 0.5])
        state = update(new_state(("a", "b"), priors), "s1", {"a": 1.0, "b": 0.0})
        before = state.pmps()
        priors[:] = (0.9, 0.1)
        assert state.prior_probs.tolist() == [0.5, 0.5]
        assert np.array_equal(state.pmps(), before)

    def test_bad_priors(self):
        with pytest.raises(ValueError):
            new_state(("a", "b"), (0.9, 0.2))
        with pytest.raises(ValueError):
            new_state(("a", "b"), (1.0, 0.0))

    def test_prior_count_is_named(self):
        # positive and summing to 1, but one value too many
        words = (r"expected 2 prior probabilities \(hypotheses first, "
                 r"alternative last\), got 3")
        with pytest.raises(ValueError, match=words):
            new_state(("a", "b"), (0.5, 0.3, 0.2))
        with pytest.raises(ValueError, match=words):
            pmps([0.0, 0.0], priors=(0.5, 0.3, 0.2))

    @pytest.mark.parametrize("priors", [(math.nan, 0.5), (math.nan, math.nan),
                                        (math.inf, 0.5), (0.5, 0.5, math.nan)])
    def test_non_finite_priors(self, priors):
        with pytest.raises(ValueError, match="priors must be positive"):
            new_state(("a", "b", "c")[:len(priors)], priors)
        with pytest.raises(ValueError, match="priors must be positive"):
            pmps([0.0] * len(priors), priors=priors)

    def test_duplicate_labels(self):
        with pytest.raises(ValueError):
            new_state(("a", "a"))

    def test_empty_labels(self):
        with pytest.raises(ValueError):
            new_state(())


def pmps_numpy(log_bfs, priors=None):
    """Posterior model probabilities by whole-array numpy operations: the
    oracle that :func:`pmps` and ``SynthesisState.pmps`` match bit for
    bit."""
    lb = np.asarray(log_bfs, dtype=float)
    m = lb.shape[0]
    if np.isnan(lb).any():
        raise NumericError("NaN log Bayes factor")
    priors = np.full(m, 1.0 / m) if priors is None else np.asarray(priors)
    if np.isposinf(lb).any():
        top = np.isposinf(lb)
        return top / top.sum()
    w = np.log(priors) + lb
    if np.isneginf(w).all():
        raise NumericError("all hypotheses have zero support")
    e = np.exp(w - w.max())
    return e / e.sum()


# a log Bayes factor over a wide range, with values beyond +-45 standing
# for the sentinels
LOG_BF_WIDE = st.floats(-50.0, 50.0).map(
    lambda v: math.copysign(math.inf, v) if abs(v) > 45.0 else v)


class TestPmps:
    def test_seven_to_one(self):
        out = pmps([math.log(7.0), 0.0])
        assert np.allclose(out, [7.0 / 8.0, 1.0 / 8.0], atol=1e-12)

    def test_single_hypothesis(self):
        assert np.allclose(pmps([2.3]), [1.0])

    def test_infinite_support_wins(self):
        out = pmps([math.inf, 0.0])
        assert np.array_equal(out, [1.0, 0.0])

    def test_two_infinities_share(self):
        out = pmps([math.inf, math.inf, 0.0])
        assert np.array_equal(out, [0.5, 0.5, 0.0])

    def test_priors_reweight(self):
        out = pmps([0.0, 0.0], priors=[0.8, 0.2])
        assert np.allclose(out, [0.8, 0.2], atol=1e-15)

    def test_all_zero_support_raises(self):
        with pytest.raises(NumericError):
            pmps([-math.inf, -math.inf])

    def test_nan_raises(self):
        with pytest.raises(NumericError):
            pmps([math.nan, 0.0])

    def test_bad_priors(self):
        with pytest.raises(ValueError):
            pmps([0.0, 0.0], priors=[0.5, 0.4])

    @given(st.lists(LOG_BF_WIDE, min_size=1, max_size=12), st.data())
    @settings(max_examples=300, deadline=None)
    def test_bitwise_numpy_formula(self, logs, data):
        priors = None
        if data.draw(st.booleans()):
            raw = np.array(data.draw(st.lists(st.floats(0.01, 1.0),
                                              min_size=len(logs),
                                              max_size=len(logs))))
            priors = raw / raw.sum()
            if abs(priors.sum() - 1.0) > 1e-9:
                priors = None
        want = outcome(pmps_numpy, logs, priors)
        got = outcome(pmps, logs, priors)
        state = new_state([f"l{j}" for j in range(len(logs))], priors)
        for t, v in enumerate(logs):
            state = update(state, f"s{t}",
                           {f"l{j}": v if j == t else 0.0
                            for j in range(len(logs))})
        from_state = outcome(state.pmps)
        for result in (got, from_state):
            if isinstance(want, type):
                assert result is want
            else:
                assert result.dtype == want.dtype
                assert result.tobytes() == want.tobytes()

    @given(st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=6),
           st.floats(-5.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_normalized_and_shift_invariant(self, logs, shift):
        out = pmps(logs)
        assert math.isclose(float(out.sum()), 1.0, abs_tol=1e-12)
        shifted = pmps([v + shift for v in logs])
        assert np.allclose(out, shifted, atol=1e-9)


class TestAsDict:
    def test_summary_fields(self):
        state = three_study_state()
        summary = state.as_dict()
        assert summary["labels"] == ["h", "unconstrained"]
        assert summary["study_count"] == 3
        assert math.isclose(summary["aggregated_log_bf"]["h"],
                            math.log(0.8), rel_tol=1e-12)
        assert math.isclose(sum(summary["pmps"].values()), 1.0, abs_tol=1e-12)
        assert len(summary["trail"]) == 3


def record(study_id="s1", label="h", fit=0.5, complexity=0.5, log_bf_iu=0.0,
           log_bf_ic=0.0, alternative="unconstrained"):
    return EvidenceRecord(study_id=study_id, hypothesis=label, fit=fit,
                          complexity=complexity, log_bf_iu=log_bf_iu,
                          log_bf_ic=log_bf_ic, mc_se_fit=0.0,
                          mc_se_complexity=0.0, mc_draws=0,
                          alternative=alternative)


class TestSynthesizeRecords:
    def test_unconstrained_adds_zero_alternative(self):
        recs = [record("s1", "a", log_bf_iu=0.5), record("s1", "b", log_bf_iu=-0.25),
                record("s2", "a", log_bf_iu=0.25), record("s2", "b", log_bf_iu=1.0)]
        state, alternative = synthesize_records(recs)
        assert alternative == "unconstrained"
        assert state.labels == ("a", "b", "unconstrained")
        assert state.cum_log_bf.tolist() == [0.75, 0.75, 0.0]
        assert [sid for sid, _ in state.trail] == ["s1", "s2"]

    def test_complement_from_iu_and_ic(self):
        # log BF_cu = log BF_iu - log BF_ic
        state, alternative = synthesize_records(
            [record(log_bf_iu=0.5, log_bf_ic=2.0, alternative="complement")])
        assert alternative == "complement"
        assert state.labels == ("h", "complement(h)")
        assert state.cum_log_bf.tolist() == [0.5, -1.5]

    def test_complement_sentinels_fit_one_complexity_zero(self):
        rec = record(fit=1.0, complexity=0.0, log_bf_iu=math.inf,
                     log_bf_ic=math.inf, alternative="complement")
        state, _ = synthesize_records([rec])
        assert state.cum_log_bf.tolist() == [math.inf, -math.inf]
        assert state.pmps().tolist() == [1.0, 0.0]

    def test_complement_sentinels_fit_and_complexity_one_raise(self):
        rec = record(fit=1.0, complexity=1.0, log_bf_iu=math.inf,
                     log_bf_ic=math.inf, alternative="complement")
        with pytest.raises(NumericError):
            synthesize_records([rec])

    def test_complement_without_ic_raises(self):
        with pytest.raises(NumericError):
            synthesize_records([record(log_bf_ic=None, alternative="complement")])

    def test_no_records_rejected(self):
        with pytest.raises(ValueError):
            synthesize_records([])

    def test_mixed_alternatives_rejected(self):
        with pytest.raises(LabelMismatchError):
            synthesize_records([record("s1"),
                                record("s2", alternative="complement")])

    def test_complement_with_two_labels_rejected(self):
        with pytest.raises(LabelMismatchError):
            synthesize_records([record(label="a", alternative="complement"),
                                record(label="b", alternative="complement")])

    def test_study_missing_a_label_rejected(self):
        recs = [record("s1", "a"), record("s1", "b"), record("s2", "a")]
        with pytest.raises(LabelMismatchError, match="s2"):
            synthesize_records(recs)

    def test_duplicate_record_in_study_rejected(self):
        with pytest.raises(LabelMismatchError):
            synthesize_records([record("s1"), record("s1")])


# a log Bayes factor, with values beyond +-5 standing for the sentinels
LOG_BF = st.floats(-6.0, 6.0).map(
    lambda v: math.copysign(math.inf, v) if abs(v) > 5.0 else v)


def outcome(fn, *args):
    """``fn(*args)``, or the type of the exception it raised."""
    try:
        return fn(*args)
    except (NumericError, LabelMismatchError) as exc:
        return type(exc)


def assert_same_totals(a, b):
    # a float sum taken in another order can round differently; sentinels
    # must match exactly
    assert a.keys() == b.keys()
    for label in a:
        if math.isfinite(a[label]):
            assert abs(a[label] - b[label]) <= 1e-12
        else:
            assert a[label] == b[label]


def summary(records):
    state, alternative = synthesize_records(records)
    d = state.as_dict()
    return (alternative, sorted(d["labels"]), d["study_count"],
            d["aggregated_log_bf"], d["pmps"])


@st.composite
def record_sets(draw):
    """Records of up to five studies: several labels against the
    unconstrained model, or one label against its complement."""
    complement = draw(st.booleans())
    labels = ["h"] if complement else draw(
        st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3,
                 unique=True))
    records = []
    for k in range(draw(st.integers(1, 5))):
        for label in labels:
            records.append(record(f"s{k}", label, log_bf_iu=draw(LOG_BF),
                                  log_bf_ic=draw(LOG_BF),
                                  alternative="complement" if complement
                                  else "unconstrained"))
    return records


class TestSynthesisInvariance:
    @given(record_sets(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_record_order_does_not_matter(self, records, rnd):
        shuffled = list(records)
        rnd.shuffle(shuffled)
        a, b = outcome(summary, records), outcome(summary, shuffled)
        if isinstance(a, type):
            assert a is b
            return
        assert a[:3] == b[:3]
        assert_same_totals(a[3], b[3])
        assert_same_totals(a[4], b[4])


class TestStatesAreValues:
    def test_no_part_is_shared(self):
        s0 = new_state(["a", "b"])
        s1 = update(s0, "s1", {"a": 1.0, "b": 0.0})
        s2 = update(s1, "s2", {"a": 0.5, "b": 0.0})
        s1.prior_probs[0] = 0.9
        assert s0.prior_probs.tolist() == [0.5, 0.5]
        assert s1.prior_probs.tolist() == [0.5, 0.5]
        with pytest.raises(TypeError):
            s2.trail[0][1][0] = 99.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            s1.trail = ()
        assert s1.running_totals() == [("s1", (1.0, 0.0), (1.0, 0.0))]
        assert s1.cum_log_bf.tolist() == [1.0, 0.0]


def oracle_total(values):
    """The aggregate of plain-list log Bayes factors: an infinity dominates,
    both infinities conflict (None), else the sum in order."""
    if math.inf in values and -math.inf in values:
        return None
    for sentinel in (math.inf, -math.inf):
        if sentinel in values:
            return sentinel
    total = 0.0
    for v in values:
        total += v
    return total


def dump(state) -> str:
    """Everything a state reports, as text."""
    try:
        view = state.as_dict()
    except NumericError as exc:   # no label has support
        view = {"error": str(exc), "trail": repr(state.trail)}
    return json.dumps([view, state.running_totals(), state.cum_log_bf.tolist(),
                       state.prior_probs.tolist()])


LOG_BF_OR_SENTINEL = st.one_of(st.floats(-5.0, 5.0),
                               st.sampled_from((math.inf, -math.inf)))


class StateMachine(RuleBasedStateMachine):
    """``new_state`` and ``update`` against plain lists: each model is
    (labels, priors, [(study id, [log BF per label])]).  Every state made
    keeps reporting what it reported when it was made."""

    states = Bundle("states")

    def __init__(self):
        super().__init__()
        self.made = []

    def keep(self, state, model):
        self.made.append((state, dump(state)))
        return state, model

    @rule(target=states, labels=st.lists(st.sampled_from("abc"), min_size=1,
                                         max_size=3),
          weights=st.none() | st.lists(st.integers(1, 9), min_size=3,
                                       max_size=3),
          as_array=st.booleans())
    def new(self, labels, weights, as_array):
        if len(set(labels)) < len(labels):
            with pytest.raises(ValueError, match="duplicate labels"):
                new_state(labels)
            return multiple()
        m = len(labels)
        if weights is None:
            priors, expected = None, [1.0 / m] * m
        else:
            total = sum(weights[:m])
            expected = [w / total for w in weights[:m]]
            priors = np.array(expected) if as_array else list(expected)
        state = new_state(labels, priors)
        if priors is not None:
            priors[0] = 0.5   # the caller's copy is not the state's
        return self.keep(state, (tuple(labels), expected, []))

    @rule(target=states, pair=states, study_id=st.sampled_from("wxyz"),
          values=st.lists(LOG_BF_OR_SENTINEL, min_size=3, max_size=3),
          labels=st.sampled_from(("same", "missing", "extra")))
    def fold(self, pair, study_id, values, labels):
        state, (names, priors, trail) = pair
        log_bfs = dict(zip(names, values))
        if labels == "missing":
            del log_bfs[names[0]]
        elif labels == "extra":
            log_bfs["other"] = 0.0
        if study_id in [sid for sid, _ in trail]:
            with pytest.raises(DuplicateStudyError):
                update(state, study_id, log_bfs)
            return multiple()
        if labels != "same":
            with pytest.raises(LabelMismatchError):
                update(state, study_id, log_bfs)
            return multiple()
        own = values[:len(names)]
        longer = trail + [(study_id, own)]
        if any(oracle_total([logs[k] for _, logs in longer]) is None
               for k in range(len(names))):
            with pytest.raises(NumericError, match="conflicting"):
                update(state, study_id, log_bfs)
            return multiple()
        return self.keep(update(state, study_id, log_bfs),
                         (names, priors, longer))

    @rule(pair=states)
    def read(self, pair):
        state, (names, priors, trail) = pair
        assert state.labels == names
        assert state.prior_probs.tolist() == priors
        totals = [oracle_total([logs[k] for _, logs in trail])
                  for k in range(len(names))]
        assert state.cum_log_bf.tolist() == totals
        assert state.running_totals() == [
            (sid, tuple(logs), tuple(oracle_total([l[k] for _, l in trail[:t + 1]])
                                     for k in range(len(names))))
            for t, (sid, logs) in enumerate(trail)]
        try:
            expected = pmps_numpy(totals, priors).tolist()
        except NumericError:
            with pytest.raises(NumericError):
                state.pmps()
            return
        assert state.pmps().tolist() == expected
        assert state.as_dict() == {
            "labels": list(names), "prior_probs": priors,
            "aggregated_log_bf": dict(zip(names, totals)),
            "pmps": dict(zip(names, expected)), "study_count": len(trail),
            "trail": [{"study_id": sid, "log_bf": dict(zip(names, logs))}
                      for sid, logs in trail]}

    @rule(pair=states)
    def tamper(self, pair):
        state = pair[0]
        state.prior_probs[0] = 0.25
        state.cum_log_bf[0] = 7.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.labels = ("z",)
        if state.trail:
            with pytest.raises(TypeError):
                state.trail[0][1][0] = 99.0

    @invariant()
    def made_states_unchanged(self):
        for state, text in self.made:
            assert dump(state) == text


TestStateMachine = StateMachine.TestCase
TestStateMachine.settings = settings(max_examples=60, stateful_step_count=25,
                                     deadline=None)
