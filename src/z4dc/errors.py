"""Exception types shared across the package.

Every error raised on bad user input derives from Z4DCError; internal
consistency failures (post-condition checks that can only trip on a bug)
derive from InternalCheckFailed so callers can tell the two apart: the
CLI exits 4 on InternalCheckFailed and 2 (or 3 for a cap) on the rest.
"""


class Z4DCError(Exception):
    """Base class for all errors raised by this package."""

    #: short name of the violated invariant, for machine-readable reports
    invariant: str | None = None


class InternalCheckFailed(Z4DCError):
    """A mandatory post-condition failed; signals a bug, not a user error."""


class ZeroPolynomial(Z4DCError):
    invariant = "polynomial must be nonzero"


class NonUnitLeadingCoefficient(Z4DCError):
    invariant = "divisor leading coefficient must be a unit of Z4"


class BothZero(Z4DCError):
    invariant = "gcd arguments must not both be zero"


class NotADivisor(Z4DCError):
    invariant = "polynomial must divide x^n-1 over F2"


class NotInvertible(Z4DCError):
    invariant = "residue must be invertible modulo the residue of the modulus"


class EvenLength(Z4DCError):
    invariant = "block lengths must be odd"


class DimensionMismatch(Z4DCError):
    invariant = "operand dimensions must agree"


class DegreeOverflow(Z4DCError):
    invariant = "polynomial degree must fit the block length"


class BrokenDivisibilityChain(Z4DCError):
    invariant = "generator divisibility chain g | f | x^n-1 must hold"


class MixingConstraintViolation(Z4DCError):
    """The mixing polynomial is incompatible with the block generators.

    The left ideal generated by f1+2g1 must contain ((x^s-1)/g2)*l.
    """

    invariant = "(f1+2g1)-ideal must contain ((x^s-1)/g2)*l"

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DegenerateGenerators(Z4DCError):
    invariant = "generator quintuple parts must be supplied consistently"


class EnumerationCapExceeded(Z4DCError):
    invariant = "code size must not exceed the enumeration cap"


class DimensionCapExceeded(Z4DCError):
    invariant = "r+s must not exceed the kernel dimension cap"


class ZeroCode(Z4DCError):
    invariant = "code must contain a nonzero codeword"


class LatticeTooLarge(Z4DCError):
    invariant = "divisor lattice size must stay within the configured bound"


class NotFree(Z4DCError):
    invariant = "code must be a free module (f1 = g1 and f2 = g2)"


class NotMonic(Z4DCError):
    invariant = "combined generators must have unit leading coefficients"


class InvalidInput(Z4DCError):
    invariant = "spec and options must have their documented form"


class PolyParseError(Z4DCError):
    """Raised on malformed polynomial text; names the violated grammar rule."""

    invariant = "polynomial text grammar"

    def __init__(self, message, rule):
        super().__init__(message)
        self.rule = rule
