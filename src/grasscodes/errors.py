"""Exception types shared across the package.

Every deliberate failure mode of the library raises one of these, so
callers (and the CLI's exit-code mapping) can distinguish bad input from
exceeded resource caps and from search failures that are only possible
below the field-size bounds.
"""


class GrassCodesError(Exception):
    """Base class for all errors raised by this package."""


# -- field construction -------------------------------------------------

class NotPrimeError(GrassCodesError):
    """Characteristic is not a prime number."""


class ReducibleModulusError(GrassCodesError):
    """No irreducible modulus polynomial of the requested degree exists."""


class FieldTooLargeError(GrassCodesError):
    """Requested field order exceeds the supported cap."""


# -- linear algebra ------------------------------------------------------

class AmbientMismatchError(GrassCodesError):
    """Operands live in different fields or ambient dimensions."""


class NotSubspaceError(GrassCodesError):
    """A containment precondition (u subseteq x, ...) does not hold."""


class DimensionMismatchError(GrassCodesError):
    """Dimensions of the operands are incompatible."""


# -- codes ---------------------------------------------------------------

class BadTError(GrassCodesError):
    """Strength parameter t outside [1, n]."""


class BadIndicesError(GrassCodesError):
    """Indices not strictly increasing inside their range: coordinate
    indices inside [1, n], or a graph's vertex ids inside [0, V)."""


class TooLargeExactError(GrassCodesError):
    """Exact exhaustive computation would exceed its enumeration cap."""


# -- graph engine --------------------------------------------------------

class EnumerationTooLargeError(GrassCodesError):
    """Subspace count exceeds the enumeration cap."""


class AllPairsTooLargeError(GrassCodesError):
    """A distance block exceeds the pairs cap: representatives x V for the
    per-orbit verification, V(V-1)/2 pairs for the all-pairs oracles."""


class InternalInvariantError(GrassCodesError):
    """An internally re-checked identity failed; indicates a bug."""


# -- constructive algorithms ---------------------------------------------

class NotEnoughPointsError(GrassCodesError):
    """Vandermonde construction needs n distinct evaluation points."""


class DuplicatePointsError(GrassCodesError):
    """Evaluation points are not pairwise distinct."""


class StepDepthError(GrassCodesError):
    """Pair distance d exceeds the strength t; one step cannot help."""


class NoStepFoundError(GrassCodesError):
    """Step scan exhausted (possible only below the field bound)."""


class NoShrinkFoundError(GrassCodesError):
    """No admissible hyperplane found (possible only below the bound)."""


class BadInnerSubspaceError(GrassCodesError):
    """Protected subspace too large (dim u >= k - t) or not inside x."""


class PathFailedError(GrassCodesError):
    """Geodesic construction failed; carries the partial path built."""

    def __init__(self, message, partial_path=None):
        super().__init__(message)
        self.partial_path = list(partial_path or [])


class NoLambdaError(GrassCodesError):
    """Scalar scan for the opposite-code construction exhausted."""


class NotInCtError(GrassCodesError):
    """Input code does not have the required strength t."""


# -- I/O -----------------------------------------------------------------

class ParseError(GrassCodesError):
    """Malformed generator-matrix file."""


class FieldMismatchError(GrassCodesError):
    """Two inputs declare different fields."""
