"""Photon-number-resolving detection and heralded conditional states.

Detection is modeled by ideal number projectors on a subset of modes; a mode
may instead be marked traced-out (count ``None``), which discards it without
reading a result, the standard stand-in for unmonitored loss or imperfect
mode matching.  Detector imperfections are not modeled here: compose a loss
channel in front of an ideal detector instead, which is equivalent.
"""

import math

import numpy as np

from .config import HERALD_FLOOR
from .errors import ContractViolation, HeraldImpossibleError
from .fock import DensityMatrix, FockBasis, _trace_out


class MeasurementPattern:
    """Outcome specification: photon count per detected mode.

    ``outcomes`` maps mode index -> photon count, or ``None`` for a mode that
    is discarded unmeasured.  At least one mode must be left untouched.
    """

    def __init__(self, outcomes: dict):
        items = []
        for mode, count in outcomes.items():
            mode = int(mode)
            if count is not None:
                count = int(count)
                if count < 0:
                    raise ContractViolation(f"negative photon count {count} on mode {mode}")
            items.append((mode, count))
        items.sort()
        modes = [m for m, _ in items]
        if len(set(modes)) != len(modes):
            raise ContractViolation(f"duplicate modes in pattern {outcomes!r}")
        self.outcomes = tuple(items)

    @property
    def modes(self) -> tuple:
        return tuple(m for m, _ in self.outcomes)

    @property
    def counted(self) -> tuple:
        return tuple((m, c) for m, c in self.outcomes if c is not None)

    def validate(self, basis: FockBasis) -> None:
        if any(m < 0 or m >= basis.modes for m in self.modes):
            raise ContractViolation(
                f"pattern modes {self.modes} outside range 0..{basis.modes - 1}"
            )
        if len(self.modes) >= basis.modes:
            raise ContractViolation(
                "pattern must leave at least one surviving mode"
            )

    def __repr__(self):
        return f"MeasurementPattern({dict(self.outcomes)!r})"


def _selection(rho: DensityMatrix, pattern: MeasurementPattern) -> np.ndarray:
    occ = rho.basis.occupations
    mask = np.ones(rho.basis.dimension, dtype=bool)
    for mode, count in pattern.counted:
        mask &= occ[:, mode] == count
    return mask


def outcome_probability(rho: DensityMatrix, pattern: MeasurementPattern) -> float:
    """Probability of reading the pattern's counts (wildcards unrestricted)."""
    pattern.validate(rho.basis)
    return float(rho.diagonal()[_selection(rho, pattern)].sum())


def condition(
    rho: DensityMatrix,
    pattern: MeasurementPattern,
    *,
    herald_floor: float = HERALD_FLOOR,
):
    """Normalized state of the surviving modes given the outcome, plus its
    heralding probability.

    Projects the counted modes onto their photon numbers, traces out counted
    and wildcard modes, renormalizes by the outcome probability.  Outcomes
    below ``herald_floor`` (default: ``config.HERALD_FLOOR``) raise rather
    than divide by almost-zero.
    """
    # written so that NaN fails it too
    if not 0.0 < herald_floor < math.inf:
        raise ContractViolation(
            f"herald_floor must be finite and positive, got {herald_floor!r}"
        )
    pattern.validate(rho.basis)
    prob = outcome_probability(rho, pattern)
    if prob < herald_floor:
        raise HeraldImpossibleError(
            f"outcome probability {prob:.3e} is below the herald floor "
            f"{herald_floor:.1e}"
        )
    sel = np.flatnonzero(_selection(rho, pattern))
    survivors = tuple(m for m in range(rho.basis.modes) if m not in pattern.modes)
    reduced = FockBasis(len(survivors), rho.basis.cutoff)
    elements = _trace_out(rho, sel, survivors, reduced)
    elements /= prob
    out = DensityMatrix(reduced, elements, tail=rho.tail / prob if rho.tail else 0.0)
    return out, prob


def single_photon_probability(rho: DensityMatrix) -> float:
    """Diagonal weight of the one-photon level of a single-mode state."""
    if rho.basis.modes != 1:
        raise ContractViolation("single_photon_probability requires a single-mode state")
    if rho.basis.cutoff < 1:
        return 0.0
    return float(rho.elements[1, 1].real)


def multiphoton_weight(rho: DensityMatrix) -> float:
    """Total diagonal weight on photon numbers >= 2 of a single-mode state."""
    if rho.basis.modes != 1:
        raise ContractViolation("multiphoton_weight requires a single-mode state")
    return float(rho.diagonal()[2:].sum())
