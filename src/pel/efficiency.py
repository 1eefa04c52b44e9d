"""Generalized quantum-optical efficiency.

The efficiency of a single-mode state is the least loss-channel
transmissivity p such that the state is the image of some valid (positive
semidefinite) state under that channel.  Feasibility at a given p is decided
by constructing the unique Hermitian preimage (the loss channel at 1/p,
exact for states inside the cutoff, see ``channels.invert_loss``) and
checking its smallest eigenvalue; feasibility is monotone in p, so the
minimum is found by bisection.

Two practical refinements:

* The PSD threshold is -1e-9 * trace, deliberately looser than eigensolver
  accuracy so verdicts at the boundary do not flap.
* States that carry a recorded truncation tail (coherent-state inputs and
  their descendants) get an extra allowance ``tail * ((2-p)/p)^support``: a
  tail-sized perturbation of the input can move preimage eigenvalues by that
  much, so a smaller violation cannot certify infeasibility of the
  untruncated state.  Without this, the truncated image of a coherent state
  (for which every p > 0 is feasible in the untruncated space) would read
  as infeasible at small p purely through its truncation artifacts.  For
  tail-free states the allowance is exactly zero and the test is sharp.

The reported value is the upper (guaranteed-feasible) end of the final
bisection bracket, so it never understates the true minimum.
"""

from dataclasses import dataclass

from .channels import LossChannel, invert_loss
from .config import DEFAULT, Tolerances
from .errors import ConditioningError, ContractViolation, MonotonicityError, PositivityError
from .fock import DensityMatrix, min_eigenvalue


@dataclass(frozen=True)
class EfficiencyResult:
    #: reported efficiency (upper end of the final bracket)
    value: float
    #: final bisection interval (lo infeasible unless attained-at-floor, hi feasible)
    bracket: tuple
    #: False when feasibility already held at the smallest probed p, i.e. the
    #: minimum is an unattained infimum (coherent states)
    attained: bool
    cutoff_used: int
    #: smallest preimage eigenvalue at the reported value (None if the probe
    #: was decided by the truncation allowance short-circuit)
    witness_eigenvalue: float | None


def truncation_allowance(tail: float, p: float, support: int) -> float:
    """Bound on preimage-eigenvalue motion caused by a tail-sized input change.

    The inverse Bernoulli coefficients C(m', m) (1-p)^(m'-m) p^(-m') sum to
    ((2-p)/p)^m' along a row, so a perturbation of trace weight ``tail``
    moves preimage entries by at most tail * ((2-p)/p)^support.
    """
    if tail <= 0.0:
        return 0.0
    return tail * ((2.0 - p) / p) ** support


def _probe(rho: DensityMatrix, p: float, support: int, tol: Tolerances):
    """Feasibility verdict and witness eigenvalue at transmissivity p."""
    try:
        preimage = invert_loss(rho, LossChannel(p), tol=tol)
    except ConditioningError:
        if rho.tail > 0.0:
            # amplification beyond the trusted range: infeasibility of a
            # truncation-carrying state cannot be certified here
            return True, None
        raise
    witness = min_eigenvalue(preimage, tol=tol)
    threshold = tol.feasibility * max(abs(rho.trace), 1e-300)
    threshold += truncation_allowance(rho.tail, p, support)
    return witness >= -threshold, witness


def is_feasible(rho: DensityMatrix, p: float, *, tol: Tolerances = DEFAULT) -> bool:
    """True iff some PSD state maps onto ``rho`` under loss of transmissivity p
    (within tolerance and, for truncated inputs, the truncation allowance)."""
    if rho.basis.modes != 1:
        raise ContractViolation("is_feasible expects a single-mode state")
    return _probe(rho, p, rho.numerical_support(tol), tol)[0]


def conditioning_floor(rho: DensityMatrix, *, tol: Tolerances = DEFAULT) -> float:
    """Smallest transmissivity the bisection may probe for this state."""
    if rho.tail > 0.0:
        return 1e-3
    support = rho.numerical_support(tol)
    if support < 1:
        return 1e-3
    return max(1e-3, tol.conditioning ** (-1.0 / support))


def generalized_efficiency(
    rho: DensityMatrix,
    tol_bisect: float = 1e-6,
    *,
    tol: Tolerances = DEFAULT,
) -> EfficiencyResult:
    """Bisection for the minimal feasible transmissivity of a single-mode state.

    When feasibility already holds at the probe floor the result carries
    ``attained=False`` ("infimum not attained"): coherent states are feasible
    at every probed p and their true efficiency is the unattained infimum 0.
    """
    if rho.basis.modes != 1:
        raise ContractViolation("generalized_efficiency expects a single-mode state")
    if not rho.normalized:
        raise ContractViolation("generalized_efficiency expects a normalized state")
    if tol_bisect < 1e-8:
        raise ContractViolation(f"bisection tolerance {tol_bisect} below 1e-8")
    support = rho.numerical_support(tol)
    floor = conditioning_floor(rho, tol=tol)
    probes = []

    def probe(p):
        ok, witness = _probe(rho, p, support, tol)
        probes.append((p, ok))
        return ok, witness

    ok_floor, witness_floor = probe(floor)
    if ok_floor:
        return EfficiencyResult(
            value=floor,
            bracket=(floor, floor),
            attained=False,
            cutoff_used=rho.basis.cutoff,
            witness_eigenvalue=witness_floor,
        )
    ok_top, witness = probe(1.0)
    if not ok_top:
        raise PositivityError(
            "state is not feasible even at p = 1; it is not a valid density "
            f"matrix within tolerance (min preimage eigenvalue {witness:.3e})"
        )
    lo, hi = floor, 1.0
    witness_hi = witness
    while hi - lo > tol_bisect:
        mid = 0.5 * (lo + hi)
        ok, witness = probe(mid)
        if ok:
            hi, witness_hi = mid, witness
        else:
            lo = mid
    infeasible = [p for p, ok in probes if not ok]
    feasible = [p for p, ok in probes if ok]
    if infeasible and feasible and max(infeasible) > min(feasible):
        raise MonotonicityError(
            f"feasibility verdicts are not monotone in p: infeasible at "
            f"{max(infeasible):.6g} but feasible at {min(feasible):.6g}"
        )
    return EfficiencyResult(
        value=hi,
        bracket=(lo, hi),
        attained=True,
        cutoff_used=rho.basis.cutoff,
        witness_eigenvalue=witness_hi,
    )


def multimode_efficiency(
    states,
    tol_bisect: float = 1e-6,
    *,
    tol: Tolerances = DEFAULT,
) -> float:
    """Efficiency of a product of single-mode states: the per-mode maximum."""
    states = list(states)
    if not states:
        raise ContractViolation("multimode_efficiency needs at least one state")
    return max(
        generalized_efficiency(s, tol_bisect, tol=tol).value for s in states
    )


def qubit_efficiency_formula(p: float, q: complex) -> float:
    """Closed form p / (1 - |q|^2 / p) for a zero/one-photon state with
    photon weight p and coherence q; requires |q|^2 <= p(1-p)."""
    if p < 0.0 or p > 1.0:
        raise PositivityError(f"photon weight p={p} outside [0, 1]")
    if p == 0.0:
        if q != 0:
            raise PositivityError("p = 0 requires q = 0")
        return 0.0
    if abs(q) ** 2 > p * (1.0 - p) + 1e-12:
        raise PositivityError(
            f"coherence |q|^2={abs(q)**2:.6g} exceeds p(1-p)={p*(1-p):.6g}"
        )
    return p / (1.0 - abs(q) ** 2 / p)
