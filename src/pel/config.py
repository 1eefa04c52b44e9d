"""Numerical tolerances shared across the library.

All tolerance constants live in one record so that code and tests agree on
a single source of truth.  Operations accept an optional ``Tolerances``
instance; the module-level ``DEFAULT`` is used when none is given.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    #: absolute entrywise Hermiticity slack (scaled by the matrix magnitude)
    hermiticity: float = 1e-12
    #: truncation tail weight above which state construction refuses
    tail: float = 1e-10
    #: heralding outcomes rarer than this are treated as impossible
    herald_floor: float = 1e-12
    #: allowed deviation of the trace from one for normalized states
    unit_trace: float = 1e-10
    #: occupation weight below which a photon-number level counts as empty
    support: float = 1e-13
    #: maximum amplification p^(-support) allowed when inverting loss
    conditioning: float = 1e12
    #: minimum-eigenvalue slack used by the loss-feasibility test, as a
    #: fraction of trace
    feasibility: float = 1e-9


DEFAULT = Tolerances()
