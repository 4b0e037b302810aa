"""One-sided weak-star neighborhoods of a reference measure.

A neighborhood is determined by a center, finitely many open sets and a
positive tolerance.  A candidate belongs to it when on every listed set its
mass falls short of the center's by strictly less than the tolerance.  Only
shortfalls count: exceeding the center on a set never hurts membership.

The gap evaluates all sets at once on each measure with
:meth:`Measure.eval_many`, so a neighborhood of k sets costs one pass over
the candidate's support, not k of them.  The center's masses are taken on
the first gap from the center's own cache, keyed by the sets, so every
neighborhood of one center over the same sets evaluates them once.  It
never uses the grid binning behind ``construct_preimage``'s cell drops, so
membership stays an independent check of those drops.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from ._record import record
from .errors import ParameterError
from .measure import Measure, _check_geometry
from .space import as_positive


@record
class Neighborhood:
    center: Measure
    sets: tuple
    epsilon: Fraction

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        object.__setattr__(self, "epsilon", as_positive(self.epsilon, "neighborhood tolerance"))
        if not self.sets:
            raise ParameterError("neighborhood needs at least one set")
        for s in self.sets:
            _check_geometry(self.center.space, s)

    @cached_property
    def _center_masses(self) -> tuple[Fraction, ...]:
        center = self.center
        return center._cached(self.sets, lambda: tuple(center.eval_many(self.sets)))

    def gap(self, candidate: Measure) -> Fraction:
        """Worst shortfall of the candidate against the center over the sets."""
        return min(g - r for g, r in zip(candidate.eval_many(self.sets), self._center_masses))

    def is_member(self, candidate: Measure) -> bool:
        return self.gap(candidate) > -self.epsilon
