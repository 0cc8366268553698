"""Exception types shared across the package."""


class MatrixParseError(ValueError):
    """Malformed matrix text; carries the 1-based line and column of the offending token."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ConvergenceError(RuntimeError):
    """An iteration missed its target: the eigensolver's off-diagonal mass or
    the Schur fixed point's update, carried with the failing stack member."""

    def __init__(self, message: str, off_mass: float, member: int):
        super().__init__(message)
        self.off_mass = off_mass
        self.member = member


class PreconditionError(ValueError):
    """A numerical precondition of a predictor is violated."""


class GapTooSmallError(PreconditionError):
    """Perturbation too large relative to the eigenvalue gaps it must not bridge."""


class DegenerateDirectionError(PreconditionError):
    """Tied in-block diagonal entries where strict decrease is required."""


class ModeError(ValueError):
    """An aligned perturbation was passed in the wrong mode."""


class StudyError(RuntimeError):
    """A convergence study could not produce a meaningful result."""
