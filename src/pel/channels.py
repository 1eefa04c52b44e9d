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

``apply_loss`` and ``invert_loss`` run one table-driven kernel over every
acted mode at once.  A loss vector l moves each matrix element whose row
and column hold n, n' >= l photons in the acted modes down by l photons on
both sides, weighted by (1-p)^|l| sqrt(C(n, l) C(n', l)) p^((g+g')/2), with
C(n, l) the product of the per-mode binomials and g, g' the acted photons
left in the row and column.  One cached plan per basis and acted modes
lists every such entry whose target lies on or above the diagonal; p enters
only through the (1-p)^|l| power table and the target scale, and the lower
triangle mirrors the upper one, so the output is exactly Hermitian.  The
Lindblad generator takes its jump terms from the plan's |l| = 1 entries and
their transposes.

The weights are polynomials in p and satisfy E_p o E_q = E_pq as a
polynomial identity, so E_(1/p), whose (1-1/p)^|l| factors alternate in
sign, inverts E_p.  The truncated inverse is exact for states supported
inside the cutoff: a loss channel with p > 0 cannot map weight from above
photon number n to below it without leaving a trace in between (each Kraus
term lowers the photon number by exactly its loss count, and the zero-loss
term keeps the top grade with positive weight p^n), so the truncated
preimage coincides with the infinite-dimensional one.
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


@lru_cache(maxsize=64)
def _loss_plan(basis: FockBasis, acted: tuple) -> tuple:
    """Index and coefficient tables of the loss channel on the ``acted`` modes.

    A loss vector l removes l_a photons from each acted mode a.  It takes
    element (i, j) of a matrix to (r, c), the indices i and j lowered by l,
    weighted by (1-p)^|l| sqrt(C(n_i, l) C(n_j, l)) p^((g_r + g_c)/2), where
    C(n, l) is the product of the binomials over the acted modes and g counts
    an index's photons in them.  Lowering by one l keeps the graded order, so
    i <= j gives r <= c and only these pairs are listed.  Returns

    * ``src``: flat position i * dimension + j of each entry's source;
    * ``coef``: sqrt(C(n_i, l) C(n_j, l));
    * ``losses``: |l|;
    * ``starts``: where each target's run begins, the entries being sorted
      by target (stably, so in graded order of l inside a run);
    * ``upper``: the dimension x dimension mask of r <= c, whose row-major
      order is the targets' order, since l = 0 reaches each of them;
    * ``grades``: g_r + g_c of each target.
    """
    occ = basis.occupations
    dim = basis.dimension
    cutoff = basis.cutoff
    kept = occ[:, list(acted)]
    if acted:
        vectors = FockBasis(len(acted), cutoff).occupations
    else:
        vectors = np.zeros((1, 0), dtype=np.int64)
    # every (loss vector, row) with enough photons, grouped by loss vector
    which, rows = np.nonzero((kept[None, :, :] >= vectors[:, None, :]).all(axis=-1))
    lowered = occ[rows]
    lowered[:, list(acted)] -= vectors[which]
    moved = basis.rank(lowered)
    levels = np.arange(cutoff + 1)
    roots = np.sqrt([[float(math.comb(n, l)) for l in levels] for n in levels])
    root = roots[kept[rows], vectors[which]].prod(axis=-1)
    # pair each row with itself and every later row of its group
    sizes = np.bincount(which, minlength=vectors.shape[0])
    local = np.arange(rows.size) - (np.cumsum(sizes) - sizes)[which]
    reps = sizes[which] - local
    first = np.repeat(np.arange(rows.size), reps)
    second = first + np.arange(first.size) - np.repeat(np.cumsum(reps) - reps, reps)
    tgt = moved[first] * dim + moved[second]
    order = np.argsort(tgt, kind="stable")
    first, second, tgt = first[order], second[order], tgt[order]
    starts = np.flatnonzero(np.diff(tgt, prepend=-1))
    row, col = np.divmod(tgt[starts], dim)
    grade = kept.sum(axis=1)
    plan = (
        rows[first] * dim + rows[second],
        root[first] * root[second],
        vectors.sum(axis=1)[which[first]],
        starts,
        np.triu(np.ones((dim, dim), dtype=bool)),
        grade[row] + grade[col],
    )
    for table in plan:
        table.setflags(write=False)
    return plan


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


def _loss(elements: np.ndarray, basis: FockBasis, acted: tuple, p: float) -> np.ndarray:
    """The loss channel of transmissivity p on the ``acted`` modes of a
    Hermitian matrix, exactly Hermitian.  Any p > 0 is accepted: p > 1 runs
    the inverse of loss at 1/p."""
    src, coef, losses, starts, upper, grades = _loss_plan(basis, acted)
    # (1 - p)^|l| keeps an integer power, so that its sign survives at p > 1
    weights = (1.0 - p) ** np.arange(basis.cutoff + 1)
    values = elements.reshape(-1).take(src)
    values *= weights.take(losses) * coef
    sums = np.add.reduceat(values, starts)
    sums *= (p ** (np.arange(2 * basis.cutoff + 1) / 2.0)).take(grades)
    out = np.empty(elements.shape, dtype=complex)
    out.T[upper] = sums.conj()
    out[upper] = sums
    return out


def apply_loss(rho: DensityMatrix, ch: LossChannel) -> DensityMatrix:
    """Apply the loss channel on every acted mode at once."""
    elements = _loss(rho.elements, rho.basis, ch.acted_modes(rho.basis.modes), ch.p)
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
    # a rho a^dag per acted mode: the |l| = 1 entries of the loss plan and
    # their transposes; at cutoff 0 there are none and nothing decays, so
    # T = I exactly
    src, coef, losses, starts, upper, _ = _loss_plan(basis, acted)
    dim = basis.dimension
    tgt = np.repeat(np.flatnonzero(upper), np.diff(starts, append=src.size))
    jump = losses == 1
    tgt, src, coef = tgt[jump], src[jump], coef[jump]
    generator[tgt, src] = coef
    generator[tgt % dim * dim + tgt // dim, src % dim * dim + src // dim] = coef
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

    Computed by the loss kernel itself at transmissivity 1/p on the acted
    modes, since E_(1/p) o E_p is the identity; the result is exact for
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
    return _loss(elements, rho.basis, ch.acted_modes(rho.basis.modes), 1.0 / p)
