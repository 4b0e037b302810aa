"""One-sided weak-star neighborhoods of a reference measure.

A neighborhood is determined by a center, finitely many open sets and a
positive tolerance.  A candidate belongs to it when on every listed set its
mass falls short of the center's by strictly less than the tolerance.  Only
shortfalls count: exceeding the center on a set never hurts membership.

The sets are compiled once into a private ``measure._Family``, kept with
the center's masses on them in the center's own cache, keyed by the sets:
every neighborhood of one center over the same sets compiles and
evaluates them once.  Each candidate then costs one pass over its
support, not one per set, and the gap is the minimum shortfall over the
sets.  A ``certify`` run keeps one neighborhood of its targets only.  Its
cells need none: the cell drops of a ``preimage_report`` and the trial's
cell gap share the grid's one bin of the coupling,
:meth:`..refine.Grid.cell_masses`, read off the grid's piece tables.
The target family and the grid's bin share only ``_Axis.slot`` and
``_patterns``' grouping, and tests pin both routes against pointwise
``eval``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from ._record import record, setfield
from .errors import ParameterError
from .measure import Measure, _check_geometry, _Family
from .space import as_positive


@record
class Neighborhood:
    def __init__(self, center: Measure, sets: tuple, epsilon: Fraction):
        sets = tuple(sets)
        epsilon = as_positive(epsilon, "neighborhood tolerance")
        if not sets:
            raise ParameterError("neighborhood needs at least one set")
        for s in sets:
            _check_geometry(center.space, s)
        setfield(self, "center", center)
        setfield(self, "sets", sets)
        setfield(self, "epsilon", epsilon)

    @cached_property
    def _compiled(self) -> tuple[_Family, tuple[Fraction, ...]]:
        """The sets compiled, and the center's masses on them, kept on the center."""

        def build():
            family = _Family(self.sets)
            return family, tuple(family.masses(self.center))

        return self.center._cached(self.sets, build)

    def gap(self, candidate: Measure) -> Fraction:
        """Worst shortfall of the candidate against the center over the sets."""
        # the sets share one geometry, checked against the center's
        _check_geometry(candidate.space, self.sets[0])
        family, center_masses = self._compiled
        return min(g - r for g, r in zip(family.masses(candidate), center_masses))

    def is_member(self, candidate: Measure) -> bool:
        return self.gap(candidate) > -self.epsilon
