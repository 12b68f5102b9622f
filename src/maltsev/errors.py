"""Exception types shared across the workbench."""


class MaltsevError(Exception):
    """Base class for all workbench errors."""


class TermSyntaxError(MaltsevError):
    """Malformed term text. Carries the 0-based offset of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArityMismatchError(MaltsevError):
    """An operation symbol was applied to the wrong number of arguments."""


class NameCollisionError(MaltsevError):
    """An identifier was used both as a variable and as an operation symbol."""


class BudgetExceededError(MaltsevError):
    """An enumeration or search would exceed its configured budget."""


class SchemaError(MaltsevError):
    """An algebra document violates the expected schema. Carries a location."""

    def __init__(self, message: str, location: str):
        super().__init__(f"{location}: {message}")
        self.location = location


class AxiomError(MaltsevError):
    """A structural precondition (group/loop/quasigroup axiom) failed."""


class NotAHomomorphismError(MaltsevError):
    """A map between algebras is not compatible with some operation."""


class NotACongruenceError(MaltsevError, ValueError):
    """A partition is not compatible with some operation. Carries the first
    violation, as (symbol, args, position, replacement)."""

    def __init__(self, violation: tuple):
        super().__init__(f"not a congruence: violation {violation}")
        self.violation = violation


class UnknownSymbolError(MaltsevError):
    """An operation symbol is not one of the algebra's operations."""


class EvaluationError(MaltsevError):
    """Term evaluation failed (unassigned variable, foreign symbol, depth)."""
