"""Photon-loss channels in four interchangeable representations.

The transmissivity-p loss channel acts independently per mode.  It is
available as

* a Kraus map (``apply_loss``), the workhorse;
* a Bernoulli redistribution of the photon-number diagonal
  (``bernoulli_diagonal``), a direct-summation cross-check;
* a fixed-step RK4 integration of the damping master equation
  (``apply_loss_lindblad``), kept permanently as an independent oracle for
  the Kraus implementation.  The equation is linear and time-independent,
  so every step applies one d^2 x d^2 matrix, which is built once and raised
  to the step count;
* a restricted inverse (``invert_loss``), the same Kraus kernel run at
  transmissivity 1/p.

``apply_loss`` and ``invert_loss`` run one table-driven kernel: per mode
and loss count l it moves each matrix element whose row and column hold
n, n' >= l photons in that mode down by l photons on both sides, weighted
by (1-p)^l sqrt(C(n, l) C(n', l)) p^((n+n')/2 - l).  The Lindblad
generator takes its jump terms from the kernel's l = 1 index table.  The
weights are polynomials in p and satisfy E_p o E_q = E_pq as a polynomial
identity, so E_(1/p), whose (1-1/p)^l factors alternate in sign, inverts
E_p.  The truncated inverse is
exact for states supported inside the cutoff: a loss channel with p > 0
cannot map weight from above photon number n to below it without leaving a
trace in between (each Kraus term lowers the photon number by exactly its
loss count, and the zero-loss term keeps the top grade with positive weight
p^n), so the truncated preimage coincides with the infinite-dimensional one.
The preimage is generally *not* positive semidefinite; that indefiniteness
is precisely the infeasibility signal used by the efficiency module.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import CONDITIONING
from .errors import ConditioningError, ContractViolation
from .fock import DensityMatrix, FockBasis


@dataclass(frozen=True)
class LossChannel:
    """Equal transmissivity ``p`` applied to ``modes`` (None = every mode)."""

    p: float
    modes: tuple | None = None

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ContractViolation(f"transmissivity p={self.p} outside (0, 1]")
        if self.modes is not None:
            object.__setattr__(self, "modes", _acted_modes(self.modes))

    def acted_modes(self, total_modes: int) -> tuple:
        return _acted_modes(self.modes, total_modes)


def _acted_modes(modes, total_modes: int | None = None) -> tuple:
    """The modes a loss acts on: every one of ``total_modes`` for None, else
    ``modes`` as integers, each named once and, when ``total_modes`` is
    given, within range."""
    if modes is None:
        return tuple(range(total_modes))
    if not all(float(m).is_integer() for m in modes):
        raise ContractViolation(f"channel modes {modes} must be integers")
    modes = tuple(int(m) for m in modes)
    if len(set(modes)) < len(modes):
        raise ContractViolation(f"channel modes {modes} name a mode twice")
    if total_modes is not None and any(m < 0 or m >= total_modes for m in modes):
        raise ContractViolation(
            f"channel modes {modes} outside range 0..{total_modes - 1}"
        )
    return modes


@dataclass(frozen=True)
class LindbladParams:
    """Damping-evolution parameters: rate ``kappa`` over duration ``t0``.

    The reached transmissivity is exp(-kappa * t0).  ``steps`` counts the
    fixed integrator steps.
    """

    kappa: float
    t0: float
    steps: int

    @classmethod
    def for_transmissivity(cls, p: float, cutoff: int, steps: int | None = None):
        """Choose kappa*t0 = -ln(p) and a step count meeting the error target.

        The step rule keeps (kappa*t0*(cutoff+1)/steps)^4 * kappa*t0 below
        1e-9; the cutoff factor accounts for the fastest decaying level.
        """
        if not 0.0 < p <= 1.0:
            raise ContractViolation(f"transmissivity p={p} outside (0, 1]")
        kt = -math.log(p)
        if steps is None:
            base = ((kt * (cutoff + 1)) ** 5 / 1e-9) ** 0.25 if kt > 0 else 0.0
            steps = max(64, int(math.ceil(1.3 * base)))
        return cls(kappa=1.0, t0=kt, steps=steps)


@lru_cache(maxsize=256)
def _loss_ladder(basis: FockBasis, mode: int) -> tuple:
    """Index and coefficient tables of the single-mode loss kernel.

    Entry l (loss count 0..cutoff) is (src, tgt, root, kept) over the indices
    holding n >= l photons in ``mode``: ``root`` is sqrt(C(n, l)), ``kept`` is
    n - l, and ``src`` / ``tgt`` are the flat (row, column) positions, in a
    dimension x dimension matrix, of every pair of those indices before and
    after l of the photons are removed.
    """
    occ = basis.occupations
    dim = basis.dimension
    ladder = []
    for l in range(basis.cutoff + 1):
        rows = np.flatnonzero(occ[:, mode] >= l)
        lowered = occ[rows].copy()
        lowered[:, mode] -= l
        moved = np.array([basis.index_of(row) for row in lowered], dtype=np.int64)
        n = occ[rows, mode]
        ladder.append((
            (rows[:, None] * dim + rows[None, :]).ravel(),
            (moved[:, None] * dim + moved[None, :]).ravel(),
            np.sqrt([float(math.comb(int(v), l)) for v in n]),
            n - l,
        ))
    return tuple(ladder)


def kraus_operators(p: float, levels: int) -> list:
    """Single-mode Kraus family {K_l} for transmissivity p on ``levels`` levels.

    <n-l| K_l |n> = sqrt(C(n, l)) * p^((n-l)/2) * (1-p)^(l/2).
    """
    if not 0.0 < p <= 1.0:
        raise ContractViolation(f"transmissivity p={p} outside (0, 1]")
    ops = []
    for l in range(levels):
        K = np.zeros((levels, levels), dtype=complex)
        for n in range(l, levels):
            K[n - l, n] = math.sqrt(math.comb(n, l)) * p ** ((n - l) / 2.0) * (
                (1.0 - p) ** (l / 2.0)
            )
        ops.append(K)
    return ops


def _loss_mode(elements: np.ndarray, basis: FockBasis, mode: int, p: float) -> np.ndarray:
    """The loss channel of transmissivity p on one mode.  Any p > 0 is
    accepted: p > 1 runs the inverse of loss at 1/p."""
    source = elements.reshape(-1)
    out = np.zeros_like(source)
    for l, (src, tgt, root, kept) in enumerate(_loss_ladder(basis, mode)):
        a = root * p ** (kept / 2.0)
        # (1 - p)^l stays a real factor with an integer power, so that its
        # sign survives at p > 1
        out[tgt] += (1.0 - p) ** l * np.outer(a, a).ravel() * source.take(src)
    return out.reshape(elements.shape)


def apply_loss(rho: DensityMatrix, ch: LossChannel) -> DensityMatrix:
    """Apply the loss channel mode by mode (single-mode channels on distinct
    modes commute, so the order is irrelevant)."""
    elements = rho.elements
    for mode in ch.acted_modes(rho.basis.modes):
        elements = _loss_mode(elements, rho.basis, mode, ch.p)
    return DensityMatrix(rho.basis, elements, normalized=rho.normalized, tail=rho.tail)


def bernoulli_diagonal(diag: np.ndarray, p: float) -> np.ndarray:
    """Single-mode diagonal action: out[n] = sum_m p^n (1-p)^(m-n) C(m,n) diag[m]."""
    diag = np.asarray(diag, dtype=float)
    levels = diag.shape[0]
    out = np.zeros(levels)
    for n in range(levels):
        for m in range(n, levels):
            out[n] += p**n * (1.0 - p) ** (m - n) * math.comb(m, n) * diag[m]
    return out


def apply_loss_lindblad(
    rho: DensityMatrix,
    params: LindbladParams,
    modes: tuple | None = None,
) -> DensityMatrix:
    """Integrate the damping master equation with classical fixed-step RK4.

    Exists as the independent oracle for ``apply_loss``; at
    p = exp(-kappa*t0) the two must agree to 1e-7 entrywise.  A step count too
    small for the 1e-8 error target triggers a warning rather than an error.

    The generator L acts on the row-major vec(rho) as a d^2 x d^2 matrix, d
    the basis dimension, so one RK4 step of size h is the fixed matrix
    T = I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, and the whole integration
    is T^steps by repeated squaring.  Its cost grows as d^6 and only as the
    log of the step count.  Up to d = 10, the largest basis the package's
    tests, demos and benchmark pass, that is 20 to 300 times faster than
    taking the steps one by one; at d = 20 and p = 0.9, with few steps, it
    is slower.
    """
    basis = rho.basis
    acted = _acted_modes(modes, basis.modes)
    kt = params.kappa * params.t0
    if kt == 0.0:
        return rho
    est = (kt * (basis.cutoff + 1) / params.steps) ** 4 * kt
    if est > 1e-8:
        warnings.warn(
            f"Lindblad step count {params.steps} gives error estimate {est:.2e} "
            f"above 1e-8; increase steps",
            stacklevel=2,
        )
    size = basis.dimension**2
    generator = np.zeros((size, size))
    # a rho a^dag per acted mode, from the l = 1 rung of its loss ladder; at
    # cutoff 0 there is no such rung and nothing decays, so T = I exactly
    if basis.cutoff > 0:
        for mode in acted:
            src, tgt, root, _ = _loss_ladder(basis, mode)[1]
            generator[tgt, src] += np.outer(root, root).ravel()
    # -(N rho + rho N)/2 with N the summed number operator over acted modes
    nvec = basis.occupations[:, list(acted)].sum(axis=1)
    generator[np.diag_indices(size)] -= 0.5 * (nvec[:, None] + nvec[None, :]).ravel()
    step = (kt / params.steps) * generator
    identity = np.eye(size)
    # the RK4 step matrix in Horner form
    propagator = identity + step / 4.0
    for order in (3.0, 2.0, 1.0):
        propagator = identity + (step / order) @ propagator
    state = np.linalg.matrix_power(propagator, params.steps) @ rho.elements.reshape(-1)
    state = state.reshape(rho.elements.shape)
    state = (state + state.conj().T) / 2.0
    return DensityMatrix(basis, state, normalized=rho.normalized, tail=rho.tail)


def invert_loss(rho: DensityMatrix, ch: LossChannel) -> np.ndarray:
    """Unique trace-preserving Hermitian preimage of ``rho`` under the channel.

    Computed by the loss kernel itself at transmissivity 1/p on each acted
    mode, since E_(1/p) o E_p is the identity; the result is exact for
    states supported inside the cutoff but NOT guaranteed positive
    semidefinite.  Elements above the state's numerical support are treated
    as exact zeros so float dust is not amplified.

    Raises ConditioningError when p^(-support) exceeds the amplification
    bound ``config.CONDITIONING``: beyond it the inverted values carry no
    trustworthy sign information.
    """
    p = ch.p
    support = rho.numerical_support()
    if support > 0 and p ** (-support) > CONDITIONING * (1.0 + 1e-9):
        raise ConditioningError(
            f"inverting loss p={p:.6g} on a support-{support} state amplifies by "
            f"p^-{support} = {p**-support:.3e}, beyond the trusted bound "
            f"{CONDITIONING:.1e}"
        )
    elements = rho.elements.copy()
    junk = rho.basis.totals > support
    elements[junk, :] = 0.0
    elements[:, junk] = 0.0
    for mode in ch.acted_modes(rho.basis.modes):
        elements = _loss_mode(elements, rho.basis, mode, 1.0 / p)
    return (elements + elements.conj().T) / 2.0
