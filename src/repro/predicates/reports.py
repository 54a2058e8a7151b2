"""The compact outcome of monitoring one predicate over one run.

A :class:`PredicateReport` is what a streaming monitor leaves behind once a
run is over: when the predicate first held, how long its per-round good
condition held and was violated for, and the final verdict.  It is the
trace-free currency of predicate measurement -- small, picklable and
JSON-round-trippable, so it rides inside the sweep harness's slim wire
records (``repro-sweep/4``) where a full heard-of collection never could.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional


@dataclass(frozen=True)
class PredicateReport:
    """What one predicate monitor (:mod:`repro.predicates.batch`) observed.

    Two signals are summarised.  The *cumulative verdict* is the predicate
    itself, evaluated on the prefix of rounds seen so far (it equals the
    whole-collection checker on the recorded collection): ``holds`` is its
    final value and ``first_hold_round`` the first prefix on which it was
    true.  The *per-round good condition* is the predicate's notion of a
    good round (a space-uniform round, a kernel round, a uniform quorum
    round -- see each monitor's docstring): ``good_rounds``, the run
    lengths and ``satisfaction`` summarise how often and for how long the
    environment was good.
    """

    name: str
    rounds_observed: int
    good_rounds: int
    first_good_round: Optional[int]
    longest_good_run: int
    longest_bad_run: int
    first_hold_round: Optional[int]
    holds: bool

    @property
    def satisfaction(self) -> Optional[float]:
        """Fraction of observed rounds whose good condition held (None if no rounds)."""
        if self.rounds_observed == 0:
            return None
        return self.good_rounds / self.rounds_observed

    def to_json_dict(self) -> Dict[str, Any]:
        """The JSON form carried by sweep wire records and JSONL sinks."""
        return {
            "name": self.name,
            "rounds_observed": self.rounds_observed,
            "good_rounds": self.good_rounds,
            "first_good_round": self.first_good_round,
            "longest_good_run": self.longest_good_run,
            "longest_bad_run": self.longest_bad_run,
            "first_hold_round": self.first_hold_round,
            "holds": self.holds,
            "satisfaction": self.satisfaction,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "PredicateReport":
        """Rebuild a report from its JSON form (``satisfaction`` is derived)."""
        return cls(
            name=payload["name"],
            rounds_observed=payload["rounds_observed"],
            good_rounds=payload["good_rounds"],
            first_good_round=payload.get("first_good_round"),
            longest_good_run=payload["longest_good_run"],
            longest_bad_run=payload["longest_bad_run"],
            first_hold_round=payload.get("first_hold_round"),
            holds=payload["holds"],
        )


__all__ = ["PredicateReport"]
