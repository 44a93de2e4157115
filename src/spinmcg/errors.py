"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all engine-specific failures."""


class SpaceMismatch(EngineError):
    """Binary operation on elements of different algebras."""


class ParityMismatch(EngineError):
    """Degree-halving operation applied to input of the wrong parity."""


class NonDoubledWord(EngineError):
    """The squaring composite is only defined on doubled words."""


class NotClosedUnderSquaring(EngineError):
    """A generating subspace is not stable under the model squaring."""


class NotPolynomial(EngineError):
    """Looping requires a polynomial cohomology model and the check failed."""


class NoSolution(EngineError):
    """A defining linear system for a canonical class is inconsistent."""


class NonUnique(EngineError):
    """A class asserted to be unique admits several solutions."""


class BasisMismatch(EngineError):
    """A claimed basis fails to be one numerically."""


class DegreeOverflow(EngineError, OverflowError):
    """A monomial would leave the degree range its packed fields hold."""
