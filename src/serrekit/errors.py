"""Error taxonomy shared by all modules.

Every failure the library can diagnose maps to one of these exception types so
the CLI can translate them into stable exit codes and stage-tagged messages.
"""

from __future__ import annotations


class SerreError(Exception):
    """Base class; `stage` names the pipeline operation that failed, as the
    CLI prints it: `error[<stage>]`."""

    stage = "general"

    def __init__(self, message: str, *, stage: str | None = None):
        super().__init__(message)
        if stage is not None:
            self.stage = stage


class ShapeViolation(SerreError):
    """Input document or intermediate object has the wrong shape/schema."""

    stage = "parse"


class PreconditionViolated(SerreError):
    """An operation's stated precondition does not hold for the given data."""


class NotCoprime(SerreError):
    """Two elements requested to be comaximal generate a proper ideal."""


class NotInIdeal(SerreError):
    """Membership certificate requested for a non-member."""


class NotRegularPair(SerreError):
    """(f, g) fails the regular-pair test (Koszul relations are not exact)."""


class NotCodimTwo(SerreError):
    """Chart pair does not cut out a codimension-two subscheme."""

    stage = "load_subscheme"


class GluingFailure(SerreError):
    """Transition data cannot be built/adjusted on some overlap."""

    stage = "build_Z"


class CompatibilityFailure(SerreError):
    """Section tuples violate the overlap compatibility identity."""

    stage = "load_sections"


class NotGenerating(SerreError):
    """Sections together with (f, g) fail to generate the unit ideal."""

    stage = "load_sections"


class NotACocycle(SerreError):
    """A cochain expected to be a cocycle is not."""

    stage = "cech"


class Obstructed(SerreError):
    """The coboundary equation is exactly unsolvable; carries a witness."""

    stage = "correct"

    def __init__(self, message: str, *, component: int, multidegree: tuple[int, ...],
                 witness: dict | None = None):
        super().__init__(message)
        self.component = component
        self.multidegree = multidegree
        self.witness = witness or {}


class Inconclusive(SerreError):
    """Solver could not decide within its search bounds (never a proof)."""

    stage = "correct"


class FormMismatch(SerreError):
    """Two transition sets are not comparable (different frames/blocks)."""

    stage = "compare"

