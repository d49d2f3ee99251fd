"""Exception types raised across the toolkit, and the check of the integer
arguments (block sizes and counts) that two of them report."""

from numbers import Integral


class PosmapError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatchError(PosmapError, ValueError):
    """Operands have incompatible shapes or declared dimensions."""


class NotSquareError(DimensionMismatchError):
    """A square matrix was required."""


class NotHermitianError(PosmapError, ValueError):
    """Hermitian symmetry tolerance exceeded."""


class KOutOfRangeError(PosmapError, ValueError):
    """Positivity order k outside its admissible range."""


class CountOutOfRangeError(PosmapError, ValueError):
    """A sample, restart or projection count below one."""


class ComponentNotKPositiveError(PosmapError, ValueError):
    """First summand of a claimed decomposition violates k-positivity."""


class ComponentNotKCopositiveError(PosmapError, ValueError):
    """Second summand of a claimed decomposition violates k-copositivity."""


class BetaOutOfRangeError(PosmapError, ValueError):
    """Cone exponent outside [0, 1/2]."""


class NotFaithfulError(PosmapError, ValueError):
    """State is too close to singular to define the modular data."""


class NotAStateError(PosmapError, ValueError):
    """Matrix is not a density matrix (Hermitian, PSD, unit trace)."""


class InconsistentSystemError(PosmapError, ValueError):
    """Linear system for the balance-adjoint map has no solution in tolerance."""


class NotInNaturalConeError(PosmapError, ValueError):
    """Vector fails natural-cone membership required by the operation."""


class NotInIntersectionError(PosmapError, ValueError):
    """Vector is not in the intersection of the cone and its transposed cone."""


class NotInPError(PosmapError, ValueError):
    """Vector is not in the bipartite positive cone."""


class ParseError(PosmapError, ValueError):
    """Malformed input document; message carries the offending key path."""


class StaleWitnessError(PosmapError):
    """A stored witness no longer re-evaluates to its recorded value."""


def require_integer(name: str, value, low: int, error: type[PosmapError]) -> None:
    """Raise `error` unless `value` is an integer (a Python or numpy one, not a
    bool) of at least `low`: a float or bool block size or count is refused,
    never rounded or read as 0/1."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise error(f"{name}={value!r} must be an integer >= {low}")
