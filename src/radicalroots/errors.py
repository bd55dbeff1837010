"""Error types shared across the package.

Every error the CLI can surface carries an ``exit_code`` so the command-line
front end maps failures to stable process statuses.
"""

from __future__ import annotations

EXIT_PARSE = 2
EXIT_NOT_SOLVABLE = 3
EXIT_RESIDUAL = 4
EXIT_PHASE = 5
EXIT_LABELING = 6
EXIT_PRECISION = 7
EXIT_NONCONVERGENCE = 8


class SolverError(Exception):
    """Base class for all structured solver failures."""

    exit_code = 1


class InputSyntaxError(SolverError):
    """Malformed polynomial text, cycle notation, or input file."""

    exit_code = EXIT_PARSE


class UnsupportedInput(SolverError):
    """Input exceeds a configured cap (group order, degree, ...)."""

    exit_code = EXIT_PARSE


class NotSolvable(SolverError):
    """The derived series of the group does not reach the trivial group."""

    exit_code = EXIT_NOT_SOLVABLE


class ResidualTooLarge(SolverError):
    """A value that must round to an integer is too far from one.

    Signals insufficient precision, a wrong group, a wrong root labeling,
    or a non-irreducible input polynomial.  ``residual`` is None when the
    value is too large for the digit budget to resolve its units.
    """

    exit_code = EXIT_RESIDUAL

    def __init__(self, message, *, position=None, residual=None):
        super().__init__(message)
        self.position = position
        self.residual = residual


class PhaseAmbiguous(SolverError):
    """Two branches of a p-th root are both close to the stored resolvent."""

    exit_code = EXIT_PHASE


class LabelingFailed(SolverError):
    """No coset representative makes every test invariant an integer."""

    exit_code = EXIT_LABELING


# nothing raises this; the name stays because perfbench/tracing.py imports it
LabelingAmbiguous = LabelingFailed


class PrecisionInfeasible(SolverError):
    """A digit budget exceeds the hard cap, DIGITS_HARD_CAP."""

    exit_code = EXIT_PRECISION


class NonConvergence(SolverError):
    """Root finding did not converge, or its roots are not certified or
    not separated at the digit budget."""

    exit_code = EXIT_NONCONVERGENCE

    def __init__(self, message, *, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class VerificationFailed(SolverError):
    """A reconstructed radical expression does not re-evaluate to its root."""
