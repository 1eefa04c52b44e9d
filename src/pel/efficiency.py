"""Generalized quantum-optical efficiency.

The efficiency E(rho) of a single-mode state is the least loss-channel
transmissivity p such that the state is the image of some valid (positive
semidefinite) state under that channel.  Feasibility at a given p is decided
by constructing the unique Hermitian preimage (the loss channel at 1/p,
exact for states inside the cutoff, see ``channels.invert_loss``) and
checking its smallest eigenvalue against -1e-9 * trace, a slack deliberately
looser than eigensolver accuracy so verdicts at the boundary do not flap.
Feasibility is monotone in p, since E_p o E_q = E_pq.

Tail-free states (``rho.tail == 0``) get E from one polynomial eigenproblem
(Tisseur & Meerbergen, SIAM Rev. 43, 235 (2001)).  On the support block
sigma (photon numbers 0..S), congruence by diag(p^(m/2)) turns the preimage
into A(y) = sum_l y^l S_l, with y = 1 - 1/p and
S_l[m, m'] = sqrt(C(m+l, l) C(m'+l, l)) sigma[m+l, m'+l].  Row m of A has
degree S - m, and diag((1 - y)^m) A(y) is similar to the preimage, so

    P(y) = diag((1 - y)^m) A(y) + s I

has degree S and is singular exactly where the preimage has the eigenvalue
-s.  E is the largest p < 1 where that happens: the most negative real
eigenvalue z = 1/y of the block companion of z^S P(1/z), made monic by
whitening with sigma + s I.

The shift s is half the feasibility slack.  It keeps the roots simple: at
s = 0 a state whose preimage at E is singular in several directions (a
lossy Fock state |n>, n >= 2) has a root of det A whose partial
multiplicities reach n, and rounding spreads it by about eps^(1/n); the
root moved by up to 6e-5 at n = 4.  The shifted root lies below the
slack-free E by about s over the slope of the crossing eigenvalue
(p * 5e-10 for an ISPS of weight p).  One feasibility probe at it, which
allows the whole slack, confirms it.  If that probe says infeasible the
solve is wrong: MonotonicityError, with no fallback.

Three branches close the exact path.  An eigenvalue of sigma below the
slack is a PositivityError, and one down to -s or below (still within the
slack) reads E = 1.  A root below the conditioning floor, or none (the
vacuum), reports the floor as an unattained infimum.  A singular sigma (a
pure state) has E = 1, since E_p(tau) has full rank on its support for any
p < 1, and the solve gives it 1 - s/slope.  It gets no branch of its own: a
smallest eigenvalue near rounding level does not mark one, since a lossy
pure state E_0.95(|psi><psi|) of support 8 can have 6e-15 there and
E = 0.95.

States that carry a recorded truncation tail (coherent-state inputs and
their descendants) are bisected over p instead, with an extra allowance
``tail * ((2-p)/p)^support`` on the threshold: a tail-sized perturbation of
the input can move preimage eigenvalues by that much, so a smaller violation
cannot certify infeasibility of the untruncated state.  Without this, the
truncated image of a coherent state (for which every p > 0 is feasible in
the untruncated space) would read as infeasible at small p purely through
its truncation artifacts.  The reported value is the upper
(guaranteed-feasible) end of the final bisection bracket.  The bisection
also serves the tests as the oracle for the exact path.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import LossChannel, invert_loss
from .config import CONDITIONING, FEASIBILITY
from .errors import ConditioningError, ContractViolation, MonotonicityError, PositivityError
from .fock import DensityMatrix, min_eigenvalue


@dataclass(frozen=True)
class EfficiencyResult:
    #: reported efficiency (upper end of the final bracket)
    value: float
    #: final bisection interval (lo infeasible unless attained-at-floor, hi
    #: feasible); a point bracket (v, v) marks an exact value, or with
    #: ``attained`` False the probe floor
    bracket: tuple
    #: False when feasibility already held at the smallest probed p, i.e. the
    #: minimum is an unattained infimum (coherent states)
    attained: bool
    cutoff_used: int
    #: smallest preimage eigenvalue at the reported value, from the probe that
    #: confirmed it (None if that probe was decided by the truncation
    #: allowance short-circuit)
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


def _probe(rho: DensityMatrix, p: float, support: int, feasibility: float):
    """Feasibility verdict and witness eigenvalue at transmissivity p, with
    the slack ``feasibility`` times the trace."""
    try:
        preimage = invert_loss(rho, LossChannel(p))
    except ConditioningError:
        if rho.tail > 0.0:
            # amplification beyond the trusted range: infeasibility of a
            # truncation-carrying state cannot be certified here
            return True, None
        raise
    witness = min_eigenvalue(preimage)
    threshold = feasibility * max(abs(rho.trace), 1e-300)
    threshold += truncation_allowance(rho.tail, p, support)
    return witness >= -threshold, witness


def is_feasible(rho: DensityMatrix, p: float) -> bool:
    """True iff some PSD state maps onto ``rho`` under loss of transmissivity p
    (within tolerance and, for truncated inputs, the truncation allowance)."""
    if rho.basis.modes != 1:
        raise ContractViolation("is_feasible expects a single-mode state")
    return _probe(rho, p, rho.numerical_support(), FEASIBILITY)[0]


def conditioning_floor(rho: DensityMatrix) -> float:
    """Smallest transmissivity a feasibility probe may test for this state;
    a smaller efficiency is reported as this floor, not attained."""
    if rho.tail > 0.0:
        return 1e-3
    support = rho.numerical_support()
    if support < 1:
        return 1e-3
    return max(1e-3, CONDITIONING ** (-1.0 / support))


def generalized_efficiency(
    rho: DensityMatrix,
    tol_bisect: float = 1e-6,
    *,
    feasibility: float = FEASIBILITY,
) -> EfficiencyResult:
    """Minimal feasible transmissivity of a single-mode state.

    Exact for tail-free states; bisected to a bracket of width ``tol_bisect``
    for states that carry a truncation tail.  When feasibility already holds
    at the probe floor the result carries ``attained=False`` ("infimum not
    attained"): coherent states are feasible at every probed p and their
    true efficiency is the unattained infimum 0.  A probe calls p feasible
    when the preimage's smallest eigenvalue is at least -``feasibility``
    times the trace (default: ``config.FEASIBILITY``).
    """
    if rho.basis.modes != 1:
        raise ContractViolation("generalized_efficiency expects a single-mode state")
    # written so that NaN fails them too
    if not 1e-8 <= tol_bisect < math.inf:
        raise ContractViolation(
            f"bisection tolerance {tol_bisect} must be finite and at least 1e-8"
        )
    if not 0.0 < feasibility < math.inf:
        raise ContractViolation(
            f"feasibility must be finite and positive, got {feasibility!r}"
        )
    if rho.tail > 0.0:
        return _bisect(rho, tol_bisect, feasibility)
    return _exact(rho, feasibility)


#: an eigenvalue of the companion counts as real when its imaginary part is
#: below this fraction of its modulus: rounding leaves a simple real root
#: about eps off the axis, and the shift keeps complex pairs at least about
#: sqrt(shift) away from it
_REAL = math.sqrt(np.finfo(float).eps)


def _exact(rho: DensityMatrix, feasibility: float) -> EfficiencyResult:
    """Efficiency of a tail-free state from one polynomial eigenproblem."""
    support = rho.numerical_support()
    floor = conditioning_floor(rho)
    slack = feasibility * max(abs(rho.trace), 1e-300)
    sigma = rho.elements[: support + 1, : support + 1]
    lam, vectors = np.linalg.eigh(sigma)
    if lam[0] < -slack:
        raise PositivityError(
            "state is not feasible even at p = 1; it is not a valid density "
            f"matrix within tolerance (min eigenvalue {lam[0]:.3e})"
        )
    shift = 0.5 * slack
    if lam[0] <= -shift:
        value = 1.0
    else:
        value = _largest_root(sigma, lam, vectors, shift)
    attained = value > floor
    if not attained:
        value = floor
    ok, witness = _probe(rho, value, support, feasibility)
    if not ok:
        raise MonotonicityError(
            f"the exact efficiency {value:.9g} is infeasible under the "
            f"feasibility probe (min preimage eigenvalue {witness:.3e})"
        )
    return EfficiencyResult(
        value=value,
        bracket=(value, value),
        attained=attained,
        cutoff_used=rho.basis.cutoff,
        witness_eigenvalue=witness,
    )


@lru_cache(maxsize=32)
def _polynomial_tables(support: int) -> tuple:
    """Index and coefficient tables of P(y) on a support-S block.

    ``rows[l, m]`` is m + l (clipped to S) and ``root[l, m]`` is
    sqrt(C(m+l, l)), zero past the block, so that S_l is
    sigma[rows[l]][:, rows[l]] weighted by the outer product of ``root[l]``.
    ``expand[k, l, m]`` is C(m, k - l) (-1)^(k - l), the y^k coefficient of
    (1 - y)^m y^l.
    """
    n = support + 1
    levels = np.arange(n)
    rows = np.minimum(levels[:, None] + levels[None, :], support)
    root = np.array([
        [math.sqrt(math.comb(m + l, l)) if m + l <= support else 0.0 for m in levels]
        for l in levels
    ])
    expand = np.zeros((n, n, n))
    for k in range(n):
        for l in range(k + 1):
            expand[k, l] = [math.comb(m, k - l) * (-1) ** (k - l) for m in levels]
    for table in (rows, root, expand):
        table.setflags(write=False)
    return rows, root, expand


def _largest_root(sigma, lam, vectors, shift: float) -> float:
    """Largest p < 1 at which the preimage of the support block ``sigma`` has
    the eigenvalue -shift, or 0.0 if there is none; ``lam`` and ``vectors``
    are the eigendecomposition of ``sigma``."""
    support = sigma.shape[0] - 1
    if support == 0:
        return 0.0
    n = support + 1
    rows, root, expand = _polynomial_tables(support)
    weights = root[:, :, None] * root[:, None, :]
    terms = sigma[rows[:, :, None], rows[:, None, :]] * weights
    coeffs = np.einsum("klm,lmj->kmj", expand, terms)
    # the leading coefficient of z^S P(1/z) is coeffs[0] + shift * I, that
    # is sigma + shift * I; whitening by it makes the polynomial monic
    white = vectors / np.sqrt(lam + shift)
    monic = white.conj().T @ coeffs[1:] @ white
    companion = np.zeros((support * n, support * n), dtype=complex)
    companion[:n] = -monic.transpose(1, 0, 2).reshape(n, support * n)
    companion[n:, :-n] = np.eye((support - 1) * n)
    z = np.linalg.eigvals(companion)
    real = z.real[(np.abs(z.imag) <= _REAL * np.abs(z)) & (z.real < 0.0)]
    if real.size == 0:
        return 0.0
    # the most negative z is the y = 1/z closest to 0, and p = 1/(1 - y)
    z_star = float(real.min())
    return z_star / (z_star - 1.0)


def _bisect(
    rho: DensityMatrix, tol_bisect: float, feasibility: float
) -> EfficiencyResult:
    """Bisection for the minimal feasible transmissivity: the path for states
    with a truncation tail, and the tests' oracle for the exact path."""
    support = rho.numerical_support()
    floor = conditioning_floor(rho)
    probes = []

    def probe(p):
        ok, witness = _probe(rho, p, support, feasibility)
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


def multimode_efficiency(states, tol_bisect: float = 1e-6) -> float:
    """Efficiency of a product of single-mode states: the per-mode maximum."""
    states = list(states)
    if not states:
        raise ContractViolation("multimode_efficiency needs at least one state")
    return max(generalized_efficiency(s, tol_bisect).value for s in states)


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
