"""Sequential aggregation of evidence across studies.

Each study contributes one log Bayes factor per hypothesis label (the
alternative occupies a label of its own, with log BF 0 per study when it is
the unconstrained model, and :func:`evsynth.bf.bf_cu` when it is the
complement).  Aggregation multiplies Bayes factors, i.e. sums logs, so the
result is independent of study order, and posterior model probabilities
renormalize the prior odds by the accumulated evidence.  This module owns
those across-study decisions: the checked prior probabilities, the
sentinel-aware sum and the PMPs.

States are values: :func:`update` returns a new state and leaves its
argument as it was, so an older state can be extended again, and no part
of a state can be changed through another.  The running sums are Python
floats, added by one sentinel-aware helper, and the PMPs take the logs of
the state's prior probabilities, which it holds once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .bf import EvidenceRecord, NumericError, bf_cu


class LabelMismatchError(ValueError):
    """A study update does not cover exactly the tracked labels."""


class DuplicateStudyError(ValueError):
    """A study id was aggregated twice."""


def _add(total: float, v: float) -> float:
    """``total + v`` for log Bayes factors: +inf and -inf dominate a finite
    sum; NaN, and mixing the two, raise :class:`NumericError`."""
    if math.isnan(v):
        raise NumericError("NaN log Bayes factor in aggregation")
    total += v
    if math.isnan(total):
        raise NumericError("conflicting +inf and -inf sentinels in aggregation")
    return total


def aggregate_log_bf(values: Iterable[float]) -> float:
    """Sum per-study log Bayes factors with sentinel awareness.

    +inf and -inf dominate a finite sum; mixing the two raises
    :class:`NumericError`.
    """
    total = 0.0
    for v in values:
        total = _add(total, float(v))
    return total


def _prior_probs(priors, m: int) -> tuple[float, ...]:
    """Prior model probabilities over ``m`` models: uniform when ``priors``
    is None, otherwise checked to be ``m`` positive values summing to 1
    (NaN is not positive)."""
    if priors is None:
        return (1.0 / m,) * m
    priors = np.array(priors, dtype=float)
    if priors.shape != (m,):
        raise ValueError(f"expected {m} prior probabilities (hypotheses "
                         f"first, alternative last), got {priors.size}")
    if not (priors > 0).all() or abs(priors.sum() - 1.0) > 1e-9:
        raise ValueError("priors must be positive and sum to 1")
    return tuple(priors.tolist())


def pmps(log_bfs, priors=None) -> np.ndarray:
    """Posterior model probabilities from log Bayes factors vs a common base.

    Computed in log space with max subtraction.  +inf sentinels receive an
    equal share of 1 among themselves; -inf yields probability 0.
    """
    lb = [float(v) for v in log_bfs]
    if not lb:
        raise ValueError("no hypotheses")
    if any(map(math.isnan, lb)):
        raise NumericError("NaN log Bayes factor")
    return _pmps(lb, np.log(_prior_probs(priors, len(lb))).tolist())


def _pmps(lb, log_priors) -> np.ndarray:
    """:func:`pmps` from NaN-free log Bayes factors and the log prior
    probabilities, both sequences of floats.  The exponential stays numpy's,
    which can differ from ``math.exp`` in the last bit."""
    if math.inf in lb:
        share = 1.0 / lb.count(math.inf)
        return np.array([share if v == math.inf else 0.0 for v in lb])
    w = [p + v for p, v in zip(log_priors, lb)]
    top = max(w)
    if top == -math.inf:
        raise NumericError("all hypotheses have zero support")
    e = np.exp(np.array(w) - top)
    return e / e.sum()


@dataclass(frozen=True, slots=True)
class SynthesisState:
    """Running evidence totals over a fixed label set.

    ``trail`` holds the folded studies in order, each as its id and its log
    Bayes factors in label order; the study ids and their count are read
    from it.  Every part is immutable: the priors, the running sums and
    each trail entry are tuples of floats.
    """

    labels: tuple[str, ...]
    _priors: tuple[float, ...] = field(repr=False)   # checked, summing to 1
    _cum: tuple[float, ...] = field(repr=False)      # the running sums
    trail: tuple[tuple[str, tuple[float, ...]], ...] = ()

    @property
    def prior_probs(self) -> np.ndarray:
        """The prior probability of each label, as a fresh array."""
        return np.array(self._priors)

    @property
    def cum_log_bf(self) -> np.ndarray:
        """The aggregated log Bayes factor of each label."""
        return np.array(self._cum)

    def running_totals(self) -> list[tuple[str, tuple[float, ...],
                                           tuple[float, ...]]]:
        """Each folded study as (id, its log Bayes factors, the aggregated
        log Bayes factors after it), both in label order."""
        out, cum = [], (0.0,) * len(self.labels)
        for study_id, logs in self.trail:
            cum = tuple(map(_add, cum, logs))
            out.append((study_id, logs, cum))
        return out

    def pmps(self) -> np.ndarray:
        """Posterior model probabilities of the labels so far."""
        return _pmps(self._cum, np.log(self.prior_probs).tolist())

    def as_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "prior_probs": list(self._priors),
            "aggregated_log_bf": dict(zip(self.labels, self._cum)),
            "pmps": {lab: float(v) for lab, v in zip(self.labels, self.pmps())},
            "study_count": len(self.trail),
            "trail": [{"study_id": sid, "log_bf": dict(zip(self.labels, logs))}
                      for sid, logs in self.trail],
        }


def new_state(labels: Iterable[str], priors=None) -> SynthesisState:
    """Fresh state over ``labels`` with uniform priors by default."""
    labels = tuple(labels)
    if not labels:
        raise ValueError("no labels")
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate labels")
    return SynthesisState(labels, _prior_probs(priors, len(labels)),
                          (0.0,) * len(labels))


def update(state: SynthesisState, study_id: str,
           log_bfs: Mapping[str, float]) -> SynthesisState:
    """Fold one study's log Bayes factors into the running totals.

    ``log_bfs`` must provide exactly the tracked labels; each study id may
    be aggregated once.  ``state`` itself does not change.
    """
    for folded, _ in state.trail:
        if folded == study_id:
            raise DuplicateStudyError(f"study {study_id!r} already aggregated")
    if log_bfs.keys() != set(state.labels):
        raise LabelMismatchError(
            f"update labels {sorted(log_bfs)} do not match state labels "
            f"{sorted(state.labels)}")
    logs = tuple([float(log_bfs[lab]) for lab in state.labels])
    cum = tuple(map(_add, state._cum, logs))
    return SynthesisState(state.labels, state._priors, cum,
                          state.trail + ((study_id, logs),))


def pairwise_pmp(log_bf: float) -> float:
    """Posterior probability of a hypothesis against one alternative at
    equal prior odds: the logistic function of its log Bayes factor, with
    the sentinels -inf and +inf giving 0 and 1."""
    if log_bf >= 0:
        return 1.0 / (1.0 + math.exp(-log_bf))
    e = math.exp(log_bf)
    return e / (1.0 + e)


def synthesize_records(records: list[EvidenceRecord],
                       priors=None) -> tuple[SynthesisState, str]:
    """Aggregate evidence records across studies.

    The records must share one alternative and, per study, cover every
    hypothesis label exactly once.  Against the unconstrained alternative
    each label is tracked next to an ``unconstrained`` label with log BF 0
    per study; against the complement there is a single label and its
    ``complement(<label>)`` counterpart.  ``priors`` covers the hypotheses
    followed by the alternative.  Returns the final state and the
    alternative.

    Raises
    ------
    ValueError
        If ``records`` is empty.
    LabelMismatchError
        On mixed alternatives, several labels against the complement, a
        duplicate or missing record within a study.
    NumericError
        If a complement Bayes factor is unavailable or undefined.
    """
    if not records:
        raise ValueError("no evidence records")
    alternatives = {rec.alternative for rec in records}
    if len(alternatives) > 1:
        raise LabelMismatchError(
            f"records mix alternatives {sorted(alternatives)}")
    alternative = alternatives.pop()
    labels = list(dict.fromkeys(rec.hypothesis for rec in records))
    if alternative == "complement" and len(labels) != 1:
        raise LabelMismatchError(
            "the complement alternative supports a single hypothesis label")

    by_study: dict[str, dict[str, EvidenceRecord]] = {}
    for rec in records:
        per = by_study.setdefault(rec.study_id, {})
        if rec.hypothesis in per:
            raise LabelMismatchError(
                f"study {rec.study_id!r} has duplicate records for "
                f"{rec.hypothesis!r}")
        per[rec.hypothesis] = rec

    if alternative == "unconstrained":
        full_labels = labels + ["unconstrained"]
    else:
        full_labels = labels + [f"complement({labels[0]})"]
    state = new_state(full_labels, priors)
    for study_id, per in by_study.items():
        missing = [lab for lab in labels if lab not in per]
        if missing:
            raise LabelMismatchError(
                f"study {study_id!r} lacks records for {missing}")
        logs = {lab: per[lab].log_bf_iu for lab in labels}
        if alternative == "unconstrained":
            logs["unconstrained"] = 0.0
        else:
            logs[full_labels[-1]] = bf_cu(per[labels[0]])
        state = update(state, study_id, logs)
    return state, alternative
