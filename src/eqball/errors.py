"""Exception hierarchy for eqball: one class per stage of the construction.

Every error derives from EqBallError, which the CLI maps to exit code 2.

InputError: an argument failed a check made before anything is built.
ConstructionError: a re-check of a just-built object failed, or a search ran out.
GenerationFailure: certificate generation failed; `stage` names the generator stage.
MalformedCertificate: a certificate document is structurally invalid.
ExpressionError: a weight-function expression failed to parse or evaluate.
"""


class EqBallError(Exception):
    """Base class for all eqball errors."""


class InputError(EqBallError):
    """An argument failed a check made before anything is built."""


class ConstructionError(EqBallError):
    """A re-check of a just-built object failed, or a search ran out."""


class GenerationFailure(EqBallError):
    """Certificate generation failed; carries the stage where it happened."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.message = message


class MalformedCertificate(EqBallError):
    """Certificate document is structurally invalid."""


class ExpressionError(EqBallError):
    """Weight-function expression failed to parse or evaluate."""
