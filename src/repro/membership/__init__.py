"""Primary-component trackers: static, dynamic and naive dynamic voting.

The paper's motivation (Section 1) is that *static* definitions of primary
(a majority of a fixed universe, or a fixed quorum system) "work less well
in settings where the configuration evolves over time, with processes
joining and leaving", and that dynamic voting schemes adapt -- provided
they handle the subtleties that Lotem-Keidar-Dolev [18] identified
(different opinions about what the previous primary is).

This package models the membership-level decision rules directly over
connectivity histories, without the message machinery, for quantitative
comparison (experiment E6):

- :class:`StaticMajorityTracker` -- the baseline: primary iff the
  component is a majority of the fixed universe;
- :class:`DynamicVotingTracker` -- the DVS/LKD rule: members pool their
  ``(act, amb)`` knowledge and the component is primary iff it
  majority-intersects every possibly-previous-primary view;
- :class:`NaiveDynamicTracker` -- the *flawed* folklore rule (each member
  checks a majority of the last primary *it* remembers), which admits
  disjoint concurrent primaries -- exactly the failure mode [18] and this
  paper guard against.
"""

from repro.membership.trackers import (
    DynamicVotingTracker,
    NaiveDynamicTracker,
    PrimaryTracker,
    StaticMajorityTracker,
)

__all__ = [
    "DynamicVotingTracker",
    "NaiveDynamicTracker",
    "PrimaryTracker",
    "StaticMajorityTracker",
]
