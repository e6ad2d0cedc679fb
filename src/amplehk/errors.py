"""Exception types shared across the package.

Everything raised here is a ValueError or RuntimeError subclass so callers
that do not care about the fine distinctions can catch the usual built-ins.
The CLI maps these onto exit codes: input problems (ParseError, SchemaError,
ModelInvalid, ShapeMismatch), SizeBoundExceeded and the built-in MemoryError
exit 3, precondition failures (NotPrincipal, SimplicityNotCertified,
TruncationUnsound) exit 2.  NotAComplex guards the one chain-complex path.
ModelInvalid comes only from building a model whose tables break its axioms,
so a document is rejected as malformed when it is read; the precondition
failures concern well-formed models outside a theorem's hypotheses.  A group
without a finite presentation is no error: products fall back to ranks.
"""

from __future__ import annotations

__all__ = [
    "CommutationFailure",
    "ModelInvalid",
    "NotAComplex",
    "NotPrincipal",
    "ParseError",
    "SchemaError",
    "ShapeMismatch",
    "SimplicityNotCertified",
    "SizeBoundExceeded",
    "TruncationUnsound",
]


class ShapeMismatch(ValueError):
    """Matrix operands have incompatible shapes."""


class NotAComplex(ValueError):
    """The composite of consecutive boundary maps is nonzero."""


class CommutationFailure(ValueError):
    """An endomorphism does not commute with the connecting data it was paired with."""


class SizeBoundExceeded(RuntimeError):
    """A nerve level grew past the configured size bound."""


class SimplicityNotCertified(ValueError):
    """A Bratteli diagram's tail is not primitive, or its path space is a single point."""


class NotPrincipal(ValueError):
    """A finite groupoid has nontrivial isotropy where a principal one was required."""


class TruncationUnsound(ValueError):
    """A computation needs degrees or exactness that a truncated graded group lacks."""


class ModelInvalid(ValueError):
    """A groupoid model was built from tables that break its axioms.

    ``violations`` lists every violation found, in the checker's order.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


class ParseError(ValueError):
    """Input text is not well-formed JSON."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class SchemaError(ValueError):
    """Well-formed JSON that does not match the model schema.

    ``pointer`` locates the offending value as a JSON pointer ("/factors/1/matrix/0").
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer or "/"
        super().__init__(f"{self.pointer}: {message}")
