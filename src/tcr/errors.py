"""Exception hierarchy.

Every domain error subclasses TcrError so callers (and the CLI) can map
failure classes to exit codes without matching on message text.  A failed
self-check is an InternalError instead: a bug in this package, never a
property of the input.
"""


class TcrError(Exception):
    """Base class for all domain errors raised by this package."""


class MalformedEdge(TcrError):
    """An edge has the wrong arity, repeated vertices, or out-of-range vertices."""


class ConflictingColour(TcrError):
    """The same edge was supplied with two different colours."""


class SearchCapExceeded(TcrError):
    """An exhaustive search was requested on an instance above its cap.

    Raised instead of returning a silent negative: absence verdicts must
    mean proven absence.
    """


class SizeCapExceeded(TcrError):
    """A construction would materialize more objects than the configured cap."""


class NonEmptyIntersection(TcrError):
    """The edge family handed to the empty-intersection construction has a common vertex."""


class Unsupported(TcrError):
    """Parameters outside what the operation supports (e.g. more components than exist)."""


class ContractUnmet(TcrError):
    """A constructive operation could not meet its advertised output contract."""


class HypothesisViolated(TcrError):
    """A verified precondition of a structural lemma-style operation fails."""


class InconsistentWitness(TcrError):
    """Structure that should determine a unique component does not; names the conflict."""


class UsageError(TcrError):
    """The command line does not match the tcr interface."""


class ParseError(TcrError):
    """Input text does not conform to the tcg format."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InternalError(Exception):
    """A self-check of this package failed.  Not a TcrError, so that it is
    never reported as a domain error or a contract violation."""


class CertificateFailed(InternalError):
    """An exact LP optimum failed its independent primal-dual check."""
