"""Exception hierarchy.

Every guard in the library raises a subclass of ``PelError`` with a message
naming the failing quantity, so callers (and the CLI exit-code mapping) can
distinguish user mistakes from numerical guard trips.
"""


class PelError(Exception):
    """Base class for all library errors."""


class ValidationError(PelError):
    """Malformed input document or argument (CLI exit code 2)."""


class ArityError(PelError):
    """A parameter vector has the wrong length."""


class CapacityError(PelError):
    """A requested object exceeds the dimension limit or photon budget."""


class PositivityError(PelError):
    """State parameters violate positivity of the density matrix."""


class TruncationError(PelError):
    """Truncation would silently discard more weight than the tail tolerance."""


class ConditioningError(PelError):
    """Loss-inversion amplification p^(-support) exceeds the trusted range."""


class HeraldImpossibleError(PelError):
    """Conditioning on an outcome whose probability is below the herald floor."""


class ContractViolation(PelError):
    """An input breaks a documented precondition (e.g. non-Hermitian matrix)."""


class MonotonicityError(PelError):
    """Feasibility verdicts contradict the solved efficiency (CLI exit code 3).

    Either the bisection saw an infeasible p above a feasible one, or the
    feasibility probe at an exactly solved efficiency says infeasible; the
    exact path has no fallback, so a wrong root cannot pass as a value.
    """
