"""Truncated multimode Fock-space state algebra.

The basis enumerates photon-number occupation vectors ``(n_1, ..., n_M)``
with total ``sum(n) <= cutoff``, graded by total photon number and ordered
lexicographically inside each grade.  Grading matters: lossless
interferometers conserve total photon number, so on this ordering their
matrix representation is block diagonal and truncation introduces no error
for them at all.

States are dense Hermitian matrices over such a basis.  Every value here is
immutable after construction and every operation is a pure function, so the
whole module is safe for concurrent use.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import HERMITICITY, SUPPORT, TAIL, UNIT_TRACE
from .errors import (
    CapacityError,
    ContractViolation,
    PositivityError,
    TruncationError,
)

#: refuse to build bases larger than this
MAX_DIMENSION = 20_000

#: largest |alpha|^2 whose vacuum amplitude exp(-|alpha|^2 / 2) is a normal
#: float (about 1417): past it a displacement table would underflow to zero
MAX_DISPLACEMENT_MEAN = -2.0 * math.log(np.finfo(float).tiny)


def _compositions(total, modes):
    """Occupation vectors of `modes` nonnegative ints summing to `total`.

    Yields tuples in ascending lexicographic order.
    """
    if modes == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, modes - 1):
            yield (head,) + rest


@lru_cache(maxsize=64)
def _basis_tables(modes: int, cutoff: int) -> tuple:
    """Read-only occupations, totals, block slices and rank table of
    ``FockBasis(modes, cutoff)``, built once per shape.

    Row i of the rank table is indexed by the suffix sum R_i = n_i + ... +
    n_(M-1) of an occupation vector (see ``FockBasis.rank``): row 0 holds
    C(R + M, M) - 1, row i >= 1 holds -C(R + M - 1 - i, M - i).
    """
    occs, block_slices = [], []
    for n in range(cutoff + 1):
        block = list(_compositions(n, modes))
        block_slices.append(slice(len(occs), len(occs) + len(block)))
        occs.extend(block)
    occupations = np.array(occs, dtype=np.int64).reshape(len(occs), modes)
    totals = occupations.sum(axis=1)
    grades = range(cutoff + 1)
    rank_table = np.array(
        [[math.comb(r + modes, modes) - 1 for r in grades]]
        + [[-math.comb(r + modes - 1 - i, modes - i) for r in grades]
           for i in range(1, modes)],
        dtype=np.int64,
    )
    for table in (occupations, totals, rank_table):
        table.setflags(write=False)
    return occupations, totals, tuple(block_slices), rank_table


class FockBasis:
    """Graded occupation-number basis for ``modes`` modes, total photons <= ``cutoff``.

    The tables are shared, read-only, by every basis of the same shape.

    Attributes:
        modes: number of optical modes M (>= 1)
        cutoff: maximum total photon number N (>= 0)
        occupations: int array of shape (dimension, modes); row i is the
            occupation vector of basis index i
        totals: int array, total photon number of each basis index
        block_slices: tuple of slices, one per total photon number; indices
            inside a block are contiguous
    """

    def __init__(self, modes: int, cutoff: int):
        if modes < 1:
            raise ContractViolation(f"modes must be >= 1, got {modes}")
        if cutoff < 0:
            raise ContractViolation(f"cutoff must be >= 0, got {cutoff}")
        dim = math.comb(cutoff + modes, modes)
        if dim > MAX_DIMENSION:
            raise CapacityError(
                f"basis dimension {dim} for {modes} modes at cutoff {cutoff} "
                f"exceeds the maximum {MAX_DIMENSION}"
            )
        self.modes = modes
        self.cutoff = cutoff
        (self.occupations, self.totals, self.block_slices,
         self._rank_table) = _basis_tables(modes, cutoff)

    @property
    def dimension(self) -> int:
        return self.occupations.shape[0]

    def rank(self, occupations) -> np.ndarray:
        """Dense indices of an array of occupation vectors, shape (..., modes)
        to shape (...); raises CapacityError if any row is out of range.

        The index of (n_0, ..., n_(M-1)) with total N is the graded offset
        C(N + M - 1, M), the count of vectors of smaller total, plus its
        lexicographic rank inside grade N.  That rank is the grade's size
        C(N + M - 1, M - 1) less one, less the count of grade-N vectors that
        follow it, sum_(i >= 1) C(R_i + M - 1 - i, M - i) over the suffix sums
        R_i = n_i + ... + n_(M-1): one gather from the rank table per entry.
        """
        occ = np.asarray(occupations, dtype=np.int64)
        if occ.shape[-1:] != (self.modes,):
            raise CapacityError(
                f"occupations of shape {occ.shape} do not have "
                f"{self.modes} modes"
            )
        suffix = np.cumsum(occ[..., ::-1], axis=-1)[..., ::-1]
        bad = (occ < 0).any(axis=-1) | (suffix[..., 0] > self.cutoff)
        if bad.any():
            raise CapacityError(
                f"occupation {tuple(int(n) for n in occ[bad][0])} not "
                f"representable in basis (modes={self.modes}, cutoff={self.cutoff})"
            )
        return self._rank_table[np.arange(self.modes), suffix].sum(axis=-1)

    def index_of(self, occupation) -> int:
        """Dense index of one occupation vector; raises if out of range."""
        return int(self.rank(occupation))

    def occupation_of(self, index: int) -> tuple:
        return tuple(int(n) for n in self.occupations[index])

    def block(self, total: int) -> slice:
        """Contiguous index range of the given total photon number."""
        return self.block_slices[total]

    def __eq__(self, other):
        return (
            isinstance(other, FockBasis)
            and self.modes == other.modes
            and self.cutoff == other.cutoff
        )

    def __hash__(self):
        return hash((self.modes, self.cutoff))

    def __repr__(self):
        return f"FockBasis(modes={self.modes}, cutoff={self.cutoff}, dim={self.dimension})"


def make_basis(modes: int, cutoff: int) -> FockBasis:
    """Construct a graded FockBasis (see class docstring)."""
    return FockBasis(modes, cutoff)


class DensityMatrix:
    """Unit-trace Hermitian operator over a FockBasis.

    ``tail`` records the probability weight discarded by truncation while the
    state was built (coherent-state tails, tensor-product truncation, and the
    amplification of those by heralding).  It rides along through channels and
    measurements so that downstream feasibility checks can budget for it; a
    state assembled purely from finite-photon ingredients carries ``tail = 0``
    and is exact.  The trace may differ from one by at most
    ``config.UNIT_TRACE`` plus the tail.
    """

    def __init__(self, basis: FockBasis, elements, *, tail: float = 0.0):
        elements = np.asarray(elements, dtype=complex)
        dim = basis.dimension
        if elements.shape != (dim, dim):
            raise ContractViolation(
                f"elements shape {elements.shape} does not match basis dimension {dim}"
            )
        # NaN fails every comparison below, so it has to be refused
        # explicitly; the largest modulus is NaN or inf exactly when some
        # element is
        largest = float(np.abs(elements).max())
        if not math.isfinite(largest):
            raise ContractViolation("matrix has non-finite elements")
        adjoint = elements.conj().T
        herm_defect = float(np.abs(elements - adjoint).max())
        if herm_defect > HERMITICITY * max(1.0, largest):
            raise ContractViolation(
                f"matrix is not Hermitian: max |E - E^dag| = {herm_defect:.3e}"
            )
        elements = (elements + adjoint) / 2.0
        trace = float(elements.trace().real)
        # recorded truncation weight is exactly the trace that may be missing
        if abs(trace - 1.0) > UNIT_TRACE + tail:
            raise ContractViolation(f"state must have unit trace, got {trace!r}")
        elements.setflags(write=False)
        self.basis = basis
        self.elements = elements
        self.tail = float(tail)

    @property
    def trace(self) -> float:
        return float(self.elements.trace().real)

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    def diagonal(self) -> np.ndarray:
        """Real diagonal (photon-number probabilities for a single mode)."""
        return self.elements.diagonal().real.copy()

    def total_photon_distribution(self) -> np.ndarray:
        """Probability of each total photon number 0..cutoff."""
        diag = self.diagonal()
        return np.array(
            [diag[sl].sum() for sl in self.basis.block_slices]
        )

    def numerical_support(self) -> int:
        """Largest total photon number carrying non-negligible weight.

        An index counts as occupied when any element in its row exceeds
        ``config.SUPPORT`` relative to the largest element of the matrix.
        """
        absval = np.abs(self.elements)
        if absval.size == 0:
            return 0
        thresh = SUPPORT * max(1.0, float(absval.max()))
        row_max = absval.max(axis=1)
        occupied = self.basis.totals[row_max > thresh]
        return int(occupied.max()) if occupied.size else 0

    def __repr__(self):
        return (
            f"DensityMatrix({self.basis!r}, trace={self.trace:.6g}, "
            f"tail={self.tail:.3g})"
        )


# --- source specifications -------------------------------------------------

@dataclass(frozen=True)
class Isps:
    """Single-photon source with vacuum admixture: (1-p)|0><0| + p|1><1|."""
    p: float


@dataclass(frozen=True)
class Coherent:
    """Coherent state of complex amplitude alpha."""
    alpha: complex


@dataclass(frozen=True)
class Fock:
    """Photon-number eigenstate |n><n|."""
    n: int


@dataclass(frozen=True)
class PartialQubit:
    """Zero/one-photon state with vacuum weight 1-p, photon weight p, coherence q."""
    p: float
    q: complex


SourceSpec = Isps | Coherent | Fock | PartialQubit


def poisson_tails(mean: float, length: int) -> np.ndarray:
    """P(X >= n) for X ~ Poisson(mean) and n = 0..length - 1.

    Each is the sum of the terms exp(n ln mean - mean - ln n!) at n and
    above, added smallest first: 1 to rounding at n = 0.  A term below
    e^-V, V = 1075 ln 2, rounds to zero, and by the Chernoff bound
    exp(-mean h(n / mean)), h(u) = u ln u - u + 1, so does every term past
    mean + s, where s is the root of mean h(n / mean) = V or just past it:
    two Newton steps on that convex function from Bernstein's bound
    V / 3 + sqrt(V^2 / 9 + 2 V mean).  The terms are summed from there
    down, so a longer array only appends values.  Below the mean
    h(u) >= (1 - u)^2 / 2, so a mean of at least length + sqrt(2 V mean),
    NaN and infinity included, has no term that does not round to zero
    below ``length``, and reads 1 throughout, with no term computed.
    """
    if mean == 0.0:
        return (np.arange(length) == 0).astype(float)
    # e^-vanish = 2^-1075, half the smallest subnormal, rounds to zero
    vanish = 1075.0 * math.log(2.0)
    if not mean - math.sqrt(2.0 * vanish) * math.sqrt(mean) < length:
        return np.ones(length)
    log_mean = math.log(mean)
    stop = mean + vanish / 3.0 + math.sqrt(vanish**2 / 9.0 + 2.0 * vanish * mean)
    for _ in range(2):
        # ln(stop / mean) without the quotient, which overflows for a
        # subnormal mean
        ratio = math.log(stop) - log_mean
        stop -= (stop * ratio - stop + mean - vanish) / ratio
    stop = 1 + math.ceil(stop)
    log_factorials = _log_factorials((stop - 1).bit_length())[:stop]
    terms = np.zeros(max(stop, length))
    np.exp(np.arange(stop) * log_mean - mean - log_factorials, out=terms[:stop])
    return np.cumsum(terms[::-1])[::-1][:length]


def coherent_tail_weight(alpha: complex, cutoff: int) -> float:
    """Probability weight of a coherent state beyond the cutoff: P(X > cutoff)
    for X ~ Poisson(|alpha|^2), read off ``poisson_tails``.  It lies in
    [0, 1] and does not increase with the cutoff."""
    try:
        mean = abs(alpha) ** 2
    except OverflowError:
        # |alpha|^2 past the float range: no cutoff keeps any of the mass
        return 1.0
    return min(float(poisson_tails(mean, cutoff + 2)[cutoff + 1]), 1.0)


def _check_tail_tol(tail_tol) -> None:
    # written so that NaN fails it too
    if not 0.0 <= tail_tol < math.inf:
        raise ContractViolation(f"tail_tol must be finite and >= 0, got {tail_tol!r}")


def make_state(
    spec: SourceSpec,
    basis: FockBasis,
    *,
    tail_tol: float = TAIL,
) -> DensityMatrix:
    """Build a normalized single-mode state from a source specification.

    Coherent states are truncated at the basis cutoff, renormalized, and the
    discarded tail weight is recorded on the result; construction refuses when
    that tail exceeds ``tail_tol`` (default: ``config.TAIL``).
    """
    _check_tail_tol(tail_tol)
    if basis.modes != 1:
        raise ContractViolation(
            f"make_state requires a single-mode basis, got {basis.modes} modes"
        )
    dim = basis.dimension
    elements = np.zeros((dim, dim), dtype=complex)

    if isinstance(spec, Isps):
        spec = PartialQubit(spec.p, 0)

    if isinstance(spec, Fock):
        if spec.n < 0:
            raise PositivityError(f"photon number n={spec.n} negative")
        if spec.n > basis.cutoff:
            raise CapacityError(
                f"Fock state n={spec.n} exceeds basis cutoff {basis.cutoff}"
            )
        elements[spec.n, spec.n] = 1.0
        return DensityMatrix(basis, elements)

    if isinstance(spec, PartialQubit):
        if not 0.0 <= spec.p <= 1.0:
            raise PositivityError(f"photon weight p={spec.p} outside [0, 1]")
        try:
            coherence = abs(spec.q) ** 2
        except OverflowError:
            coherence = math.inf
        if coherence > spec.p * (1.0 - spec.p) + 1e-12:
            raise PositivityError(
                f"coherence |q|^2={coherence:.6g} exceeds p(1-p)="
                f"{spec.p * (1 - spec.p):.6g}"
            )
        if spec.p > 0 and basis.cutoff < 1:
            raise CapacityError("cutoff 0 cannot hold a one-photon component")
        elements[0, 0] = 1.0 - spec.p
        if basis.cutoff >= 1:
            elements[1, 1] = spec.p
            elements[0, 1] = spec.q
            elements[1, 0] = np.conj(spec.q)
        return DensityMatrix(basis, elements)

    if isinstance(spec, Coherent):
        alpha = complex(spec.alpha)
        tail = coherent_tail_weight(alpha, basis.cutoff)
        if tail > tail_tol:
            raise TruncationError(
                f"coherent amplitude |alpha|={abs(alpha):.4g} leaves tail weight "
                f"{tail:.3e} beyond cutoff {basis.cutoff} (tolerance {tail_tol:.1e}); "
                f"raise the cutoff or loosen tail_tol"
            )
        amps = coherent_amplitudes(alpha, basis.cutoff)
        kept = float(np.vdot(amps, amps).real)
        elements = np.outer(amps, amps.conj()) / kept
        return DensityMatrix(basis, elements, tail=tail)

    raise ContractViolation(f"unknown source specification {spec!r}")


@lru_cache(maxsize=None)
def _log_factorials(bits: int) -> np.ndarray:
    """ln(n!) for n < 2**bits, read-only: every length reads a prefix of one
    of a few tables, grown in powers of two."""
    table = np.array([math.lgamma(k + 1) for k in range(1 << bits)])
    table.setflags(write=False)
    return table


def coherent_amplitudes(alpha, cutoff: int) -> np.ndarray:
    """Fock amplitudes exp(-|a|^2/2) a^n / sqrt(n!) for n = 0..cutoff, for one
    amplitude or an array of them: shape ``np.shape(alpha) + (cutoff + 1,)``.
    alpha = 0 gives the vacuum exactly."""
    alpha = np.asarray(alpha, dtype=complex)[..., None]
    n = np.arange(cutoff + 1)
    mean = alpha.real**2 + alpha.imag**2
    # magnitudes in log space, so that large amplitudes cannot overflow;
    # real exp, cos and sin run as vector loops where complex exp may not
    # halving is exact, so this rounds as mean / 2 + ln(n!) / 2 would
    log_factorials = _log_factorials(cutoff.bit_length())[: cutoff + 1]
    half_log_weights = (mean + log_factorials) / 2.0
    magnitude = np.exp(n * np.log(np.sqrt(mean) + 1e-300) - half_log_weights)
    angle = n * np.arctan2(alpha.imag, alpha.real)
    amps = np.empty(magnitude.shape, dtype=complex)
    np.multiply(magnitude, np.cos(angle), out=amps.real)
    np.multiply(magnitude, np.sin(angle), out=amps.imag)
    return np.where(mean == 0.0, n == 0, amps)


@lru_cache(maxsize=64)
def _displacement_plan(cutoff: int, photons: int):
    """Static data of ``displaced_number_elements``, O(cutoff * photons).

    ``steps``, (2, max(cutoff, photons) + 1), scales (alpha, alpha^*) into
    the factors of the two cumulative products, q over a = 1..cutoff and r
    over b = 1..photons, with a zero factor past each run.  ``index`` and
    ``weight``, stacked (cutoff + photons + 2, photons + 1), gather the
    banded factors A[m, i] and B[i, k] from the flattened (q, r) rows and
    scale them by sqrt(C(m, i)) and sqrt(C(k, i)); the slots off the band
    read the zero after q."""
    binomial = np.vectorize(math.comb, otypes=[float])
    length = max(cutoff, photons) + 1
    root = np.sqrt(np.arange(1, length))
    steps = np.zeros((2, length))
    steps[0, :cutoff] = 1.0 / root[:cutoff]
    steps[1, :photons] = -1.0 / root[:photons]
    m = np.arange(cutoff + 1)[:, None]
    k = np.arange(photons + 1)
    i = k[:, None]
    # A over rows m and columns i = k, then B over rows i and columns k;
    # C(n, j) = 0 for j > n marks the slots off the band
    weight = np.sqrt(np.vstack([binomial(m, k), binomial(k, i)]))
    index = np.vstack([m - k, length + 1 + k - i])
    index = np.where(weight > 0.0, index, cutoff + 1)
    for table in (steps, index, weight):
        table.setflags(write=False)
    return steps, index, weight


def displaced_number_elements(alphas, cutoff: int, photons: int) -> np.ndarray:
    """Displaced-number matrix elements <m|D(alpha)|k> for m = 0..cutoff and
    k = 0..photons, for every amplitude of the array ``alphas``: shape
    ``np.shape(alphas) + (cutoff + 1, photons + 1)``.

    D(alpha) = e^{-|alpha|^2/2} e^{alpha a^dag} e^{-alpha^* a}: the right
    factor lowers |k> to |i>, the left raises |i> to |m>, so

        <m|D(alpha)|k> = sum_{i <= min(m, k)} sqrt(C(m, i) C(k, i)) q_{m-i} r_{k-i},
        q_a = e^{-|alpha|^2/2} alpha^a / sqrt(a!),  r_b = (-alpha^*)^b / sqrt(b!).

    The table is thus one batched matmul of two banded factors,
    A[m, i] = sqrt(C(m, i)) q_{m-i} and B[i, k] = sqrt(C(k, i)) r_{k-i} with
    i <= photons, gathered from q and r, each of which is one cumulative
    product.  Every element is a finite sum of at most photons + 1 terms, so
    truncating the rows at the cutoff is exact, and alpha = 0 gives
    q = r = (1, 0, ...) and the identity exactly.  q starts at
    e^{-|alpha|^2/2}, a normal float only up to |alpha|^2 =
    ``MAX_DISPLACEMENT_MEAN``; a larger amplitude raises CapacityError
    rather than return an underflowed table.

    The table has the dtype of the amplitudes: real amplitudes give a real
    table, complex ones a complex table.  With alpha = |alpha| e^{i phi},
    D(alpha) = e^{i phi n} D(|alpha|) e^{-i phi n}, so a caller may take the
    table at |alpha| and carry the phases e^{i(m - k) phi} itself.
    """
    alphas = np.asarray(alphas)
    alphas = alphas.astype(np.result_type(alphas, float), copy=False)
    steps, index, weight = _displacement_plan(cutoff, photons)
    pair = np.empty(alphas.shape + (2, 1), dtype=alphas.dtype)
    pair[..., 0, 0] = alphas
    np.conjugate(alphas, out=pair[..., 1, 0])
    mean = np.multiply(pair[..., 0, 0], pair[..., 1, 0]).real
    # written so that a NaN amplitude fails it too
    largest = mean.max(initial=0.0)
    if not largest <= MAX_DISPLACEMENT_MEAN:
        raise CapacityError(
            f"|alpha|^2 = {largest:.6g} leaves the float range of the "
            f"displacement tables (at most {MAX_DISPLACEMENT_MEAN:.6g})"
        )
    # rows (q, r), each a cumulative product of its first value and its steps
    runs = np.empty(alphas.shape + (2, steps.shape[1] + 1), dtype=alphas.dtype)
    np.multiply(pair, steps, out=runs[..., 1:])
    runs[..., 0, 0] = np.exp(mean * -0.5)
    runs[..., 1, 0] = 1.0
    np.cumprod(runs, axis=-1, out=runs)
    factors = runs.reshape(alphas.shape + (2 * runs.shape[-1],)).take(index, axis=-1)
    factors *= weight
    return np.matmul(factors[..., : cutoff + 1, :], factors[..., cutoff + 1 :, :])


# --- composite-state operations --------------------------------------------

def tensor(
    a: DensityMatrix,
    b: DensityMatrix,
    joint: FockBasis,
    *,
    tail_tol: float = TAIL,
) -> DensityMatrix:
    """Tensor product embedded into a graded joint basis.

    Occupation pairs whose combined total exceeds the joint cutoff are
    truncated away.  The discarded weight is recorded on the result; if it
    exceeds ``tail_tol`` (default: ``config.TAIL``) the operation refuses
    rather than silently renormalizing, because conditional-probability
    accounting downstream would be corrupted.

    The kept pairs (i, j) are ranked in the joint basis in one call, and the
    element products a[i, k] b[j, l] of those pairs alone are written into
    the joint matrix: the full da*db Kronecker product is never formed.
    """
    _check_tail_tol(tail_tol)
    if joint.modes != a.basis.modes + b.basis.modes:
        raise ContractViolation(
            f"joint basis has {joint.modes} modes, factors have "
            f"{a.basis.modes}+{b.basis.modes}"
        )
    if joint.cutoff < max(a.basis.cutoff, b.basis.cutoff):
        raise ContractViolation(
            f"joint cutoff {joint.cutoff} below factor cutoffs "
            f"({a.basis.cutoff}, {b.basis.cutoff})"
        )
    da, db = a.basis.dimension, b.basis.dimension
    ia = np.repeat(np.arange(da), db)
    ib = np.tile(np.arange(db), da)
    totals = a.basis.totals[ia] + b.basis.totals[ib]
    kept = totals <= joint.cutoff
    discarded = float(
        (a.diagonal()[ia] * b.diagonal()[ib])[~kept].sum()
    )
    if discarded > tail_tol:
        raise TruncationError(
            f"tensor product would truncate weight {discarded:.6g} above joint "
            f"cutoff {joint.cutoff} (tolerance {tail_tol:.1e}); raise the cutoff"
        )
    ia, ib = ia[kept], ib[kept]
    jidx = joint.rank(np.hstack([a.basis.occupations[ia], b.basis.occupations[ib]]))
    elements = np.zeros((joint.dimension, joint.dimension), dtype=complex)
    elements[np.ix_(jidx, jidx)] = a.elements[np.ix_(ia, ia)] * b.elements[np.ix_(ib, ib)]
    return DensityMatrix(joint, elements, tail=a.tail + b.tail + discarded)


def tensor_all(
    states,
    joint: FockBasis,
    *,
    tail_tol: float = TAIL,
) -> DensityMatrix:
    """Left-fold of ``tensor`` over a sequence of states."""
    _check_tail_tol(tail_tol)
    states = list(states)
    if not states:
        raise ContractViolation("tensor_all needs at least one state")
    acc = states[0]
    modes = acc.basis.modes
    for nxt in states[1:]:
        modes += nxt.basis.modes
        target = joint if modes == joint.modes else FockBasis(modes, joint.cutoff)
        acc = tensor(acc, nxt, target, tail_tol=tail_tol)
    if acc.basis.modes != joint.modes:
        raise ContractViolation(
            f"states supply {acc.basis.modes} modes, joint basis expects {joint.modes}"
        )
    return acc


def _trace_out(rho: DensityMatrix, rows: np.ndarray, keep: tuple,
               reduced: FockBasis) -> np.ndarray:
    """Elements on ``reduced`` of the block of ``rho`` on ``rows``, summed over
    the occupations of every mode not in ``keep``.

    The rows fall into groups of equal traced occupations, in lexicographic
    order, and inside a group each row has its own index in ``reduced``.  A
    (groups, reduced dimension) plan holds the position in ``rows`` of every
    (group, reduced index) slot, or a zero pad row past them where a group
    has no row, so one gather of the padded block and one sum over its
    group axis give the result, adding the groups in order onto zero.
    """
    occ = rho.basis.occupations[rows]
    traced = [m for m in range(rho.basis.modes) if m not in keep]
    if traced:
        _, group = np.unique(occ[:, traced], axis=0, return_inverse=True)
    else:
        group = np.zeros(rows.size, dtype=np.int64)
    size = rows.size
    padded = np.zeros((size + 1, size + 1), dtype=complex)
    padded[:size, :size] = rho.elements[np.ix_(rows, rows)]
    plan = np.full((int(group.max()) + 1, reduced.dimension), size)
    plan[group.reshape(-1), reduced.rank(occ[:, list(keep)])] = np.arange(size)
    return padded[plan[:, :, None], plan[:, None, :]].sum(axis=0, initial=0)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the ``keep`` modes (0-based indices); trace preserved.

    Keeping every mode returns the input unchanged.
    """
    modes = rho.basis.modes
    keep = tuple(sorted(set(int(k) for k in keep)))
    if not keep:
        raise ContractViolation("keep must name at least one mode")
    if any(k < 0 or k >= modes for k in keep):
        raise ContractViolation(f"keep={keep} outside mode range 0..{modes - 1}")
    if len(keep) == modes:
        return rho
    reduced = FockBasis(len(keep), rho.basis.cutoff)
    elements = _trace_out(rho, np.arange(rho.basis.dimension), keep, reduced)
    return DensityMatrix(reduced, elements, tail=rho.tail)


def min_eigenvalue(h) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    Accuracy follows the LAPACK Hermitian eigensolver: better than 1e-10
    relative to the largest absolute eigenvalue at the dimensions used here.
    """
    if isinstance(h, DensityMatrix):
        h = h.elements
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ContractViolation(f"expected a square matrix, got shape {h.shape}")
    scale = max(1.0, float(np.abs(h).max())) if h.size else 1.0
    defect = float(np.abs(h - h.conj().T).max())
    if defect > HERMITICITY * scale:
        raise ContractViolation(
            f"matrix is not Hermitian: max |H - H^dag| = {defect:.3e}"
        )
    return float(np.linalg.eigvalsh(h)[0])


def trace_distance(a, b) -> float:
    """Trace distance (1/2)*||a - b||_1 between Hermitian matrices or states."""
    if isinstance(a, DensityMatrix):
        a = a.elements
    if isinstance(b, DensityMatrix):
        b = b.elements
    delta = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return float(0.5 * np.abs(np.linalg.eigvalsh(delta)).sum())
