"""Exception types shared across the library."""


class Error(Exception):
    """Base class for every error raised by this package."""


class InvalidIntervalError(Error):
    """An interval was given with lo >= hi."""


class ParameterError(Error):
    """An argument is outside its documented domain."""


class MassMismatchError(Error):
    """Two measures were required to carry the same total mass and do not."""


class NegativeWeightError(Error):
    """A measure or a difference of measures has a negative weight; names the atom."""

    def __init__(self, atom, weight):
        self.atom = atom
        self.weight = weight
        super().__init__(f"negative weight {weight} at atom {atom!r}")


class HypothesisError(Error):
    """A stated hypothesis of an operation does not hold for the inputs."""


class InternalConsistencyError(Error):
    """An internal invariant failed; indicates a bug or corrupted input."""


class SchemaError(Error):
    """A serialized document is malformed; message names the offending field."""
