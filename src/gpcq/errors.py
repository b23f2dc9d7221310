"""Domain error hierarchy.

Every error carries a stable machine-readable ``code`` so the command line
layer can report failures uniformly (exit status 1) without string matching.
"""


class GpcqError(Exception):
    code = "error"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details


class NonFinite(GpcqError):
    code = "non-finite"


class NotHermitian(GpcqError):
    code = "not-hermitian"


class NotPSD(GpcqError):
    code = "not-psd"


class TraceNotOne(GpcqError):
    code = "trace-not-one"


class DimensionMismatch(GpcqError):
    code = "dimension-mismatch"


class BasisNotOrthonormal(GpcqError):
    code = "basis-not-orthonormal"


class ParseError(GpcqError):
    code = "parse-error"


class AlphabetMismatch(GpcqError):
    code = "alphabet-mismatch"


class LengthMismatch(GpcqError):
    code = "length-mismatch"


class ShapeMismatch(GpcqError):
    code = "shape-mismatch"


class BudgetExceeded(GpcqError):
    code = "budget-exceeded"


class CapExceeded(GpcqError):
    code = "cap-exceeded"


class PreconditionViolated(GpcqError):
    code = "precondition-violated"

    def __init__(self, hypothesis: str, actual, required, **details):
        super().__init__(
            f"{hypothesis}: have {actual!r}, need {required!r}",
            hypothesis=hypothesis,
            actual=actual,
            required=required,
            **details,
        )


class NotProjection(GpcqError):
    code = "not-projection"


class InvalidPOVM(GpcqError):
    code = "invalid-povm"


class NumericalRankFailure(GpcqError):
    code = "numerical-rank-failure"


class CommutatorNonzero(GpcqError):
    code = "commutator-nonzero"
