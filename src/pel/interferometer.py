"""M-mode interferometers and their photon-number-conserving Fock representation.

Conventions (fixed once, everything else follows from them):

* A mode unitary U transforms creation operators as
  ``a_k^dag -> sum_j U[j, k] a_j^dag``; equivalently, coherent amplitude
  vectors transform as ``alpha -> U @ alpha``.  The one-photon sector of the
  Fock representation therefore equals U itself.
* The elementary two-mode rotation on adjacent modes (m, m+1) is
  ``R(theta, phi) = [[cos t, -e^{i phi} sin t], [e^{-i phi} sin t, cos t]]``.
* A rectangular mesh is the rotation sequence returned by ``mesh_layout``;
  ``from_mesh`` consumes parameters as (theta, phi) per rotation in that
  order followed by one output phase per mode, ``decompose`` produces them.

The Fock lift has one construction, the creation-operator ladder, which
builds each photon block from the one before (``_ladder_blocks``).  It runs
V rho V^dag in ``apply_interferometer`` (on one block triangle; the other is
its conjugate transpose), the diagonal of V rho V^dag alone in
``output_diagonal`` (every photon-number statistic of the output, which is
all that ``pel simulate`` reads) and the search's mesh action in
``apply_mesh_to_vectors``, there for a whole stack of mesh unitaries at
once.  Its library oracle is the permanent-based matrix-element formula,
which evaluates Ryser's formula for every element of a photon block at once
and shares no code with the ladder; its cost grows as 2^n per element of
the n-photon block, and its rounding limits it to about 8 photons (``lift``).
"""

import math
from functools import lru_cache

import numpy as np

from .config import UNIT_TRACE
from .errors import ArityError, ContractViolation
from .fock import DensityMatrix, FockBasis


class ModeUnitary:
    """An M x M unitary over mode operators, optionally with mesh parameters."""

    def __init__(self, matrix, params=None):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ContractViolation(f"unitary must be square, got shape {matrix.shape}")
        defect = float(
            np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0])).max()
        )
        if defect > 1e-12 * max(1.0, matrix.shape[0]):
            raise ContractViolation(
                f"matrix is not unitary: max |U^dag U - I| = {defect:.3e}"
            )
        matrix.setflags(write=False)
        self.matrix = matrix
        self.params = None if params is None else tuple(float(x) for x in params)

    @property
    def modes(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):
        return f"ModeUnitary(modes={self.modes}, parametrized={self.params is not None})"


def haar_random(modes: int, seed) -> ModeUnitary:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    diagonal of R normalized to positive reals."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    z = (rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes)))
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return ModeUnitary(q)


def rotation_matrix(theta: float, phi: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [[c, -np.exp(1j * phi) * s], [np.exp(-1j * phi) * s, c]], dtype=complex
    )


@lru_cache(maxsize=128)
def mesh_layout(modes: int) -> tuple:
    """Pair indices (m meaning modes (m, m+1)) of the rectangular mesh, in
    application order.  Length is modes*(modes-1)/2."""
    right, left = [], []
    for i in range(1, modes):
        if i % 2 == 1:
            for j in range(i):
                right.append(i - 1 - j)
        else:
            for j in range(1, i + 1):
                left.append(modes + j - i - 2)
    return tuple(right + left[::-1])


def mesh_param_count(modes: int) -> int:
    return modes * (modes - 1) + modes


def _unit_phases(angles: np.ndarray) -> np.ndarray:
    """exp(i angles) from the real sine and cosine, which run as vector
    loops; complex exp is several times slower after a complex GEMM on
    some BLAS builds."""
    out = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    return out


def _mesh_unitaries(params: np.ndarray, modes: int) -> np.ndarray:
    """Unitaries of the rows of an (R, parameters) array of mesh parameters,
    shape (R, modes, modes).  From the identity, each rotation of
    ``mesh_layout`` replaces rows (pair, pair + 1) of every matrix by the
    rotation applied to them, and the output phases then scale the rows.
    Row r of the result depends on row r of ``params`` alone."""
    rows = params.shape[0]
    layout = mesh_layout(modes)
    # e^{i theta} and e^{i phi} per rotation, then the output phases
    phases = _unit_phases(params)
    turns = phases[:, : 2 * len(layout)].reshape(rows, len(layout), 2)
    coupling = turns[..., 1] * turns[..., 0].imag
    rotations = np.empty((rows, len(layout), 2, 2, 1), dtype=complex)
    rotations[..., 0, 0, 0] = rotations[..., 1, 1, 0] = turns[..., 0].real
    np.negative(coupling, out=rotations[..., 0, 1, 0])
    np.conjugate(coupling, out=rotations[..., 1, 0, 0])
    u = np.zeros((rows, modes, modes), dtype=complex)
    u.reshape(rows, -1)[:, :: modes + 1] = 1.0
    for slot, pair in enumerate(layout):
        # the two terms of each new row, summed into the rows they replace
        terms = rotations[:, slot] * u[:, None, pair : pair + 2]
        np.add(terms[:, :, 0], terms[:, :, 1], out=u[:, pair : pair + 2])
    u *= phases[:, 2 * len(layout) :, None]
    return u


def from_mesh(params, modes: int) -> ModeUnitary:
    """Unitary from rectangular-mesh parameters.

    ``params`` holds (theta, phi) for each rotation in ``mesh_layout`` order,
    followed by one output phase per mode; all zeros gives the identity.
    """
    params = [float(x) for x in params]
    expected = mesh_param_count(modes)
    if len(params) != expected:
        raise ArityError(
            f"mesh for {modes} modes needs {expected} parameters "
            f"({modes * (modes - 1) // 2} rotations + {modes} phases), got {len(params)}"
        )
    return ModeUnitary(_mesh_unitaries(np.array([params]), modes)[0], params=params)


def _factor_two_by_two(a: np.ndarray):
    """Write a 2x2 unitary as diag(e^{i d1}, e^{i d2}) @ R(theta, phi)."""
    theta = math.atan2(abs(a[1, 0]), abs(a[0, 0]))
    c, s = math.cos(theta), math.sin(theta)
    if s < 1e-14:
        return float(np.angle(a[0, 0])), float(np.angle(a[1, 1])), theta, 0.0
    if c < 1e-14:
        return float(np.angle(-a[0, 1])), float(np.angle(a[1, 0])), theta, 0.0
    d1 = float(np.angle(a[0, 0]))
    d2 = float(np.angle(a[1, 1]))
    phi = float(np.angle(-a[0, 1]) - d1)
    return d1, d2, theta, phi


def decompose(u) -> list:
    """Rectangular-mesh parameters reproducing the given unitary.

    Standard nulling: anti-diagonals of the lower triangle are zeroed
    alternately by column rotations (multiplied from the right) and row
    rotations (from the left); the residual diagonal is then commuted through
    the row rotations, which turns them into mesh rotations in place.
    """
    if isinstance(u, ModeUnitary):
        u = u.matrix
    u = np.asarray(u, dtype=complex)
    modes = u.shape[0]
    if modes == 1:
        return [float(np.angle(u[0, 0]))]
    work = u.copy()
    right_ops, left_ops = [], []
    for i in range(1, modes):
        if i % 2 == 1:
            for j in range(i):
                row, pair = modes - 1 - j, i - 1 - j
                if abs(work[row, pair + 1]) < 1e-300:
                    theta, phi = math.pi / 2.0, 0.0
                else:
                    z = work[row, pair] / work[row, pair + 1]
                    theta, phi = math.atan(abs(z)), -float(np.angle(z))
                block = rotation_matrix(theta, phi).conj().T
                work[:, pair : pair + 2] = work[:, pair : pair + 2] @ block
                work[row, pair] = 0.0
                right_ops.append((pair, theta, phi))
        else:
            for j in range(1, i + 1):
                row, pair = modes + j - i - 1, modes + j - i - 2
                if abs(work[pair, j - 1]) < 1e-300:
                    theta, phi = math.pi / 2.0, 0.0
                else:
                    z = -work[row, j - 1] / work[pair, j - 1]
                    theta, phi = math.atan(abs(z)), -float(np.angle(z))
                block = rotation_matrix(theta, phi)
                work[pair : pair + 2, :] = block @ work[pair : pair + 2, :]
                work[row, j - 1] = 0.0
                left_ops.append((pair, theta, phi))
    diag = np.diagonal(work).copy()
    off = float(np.abs(work - np.diag(diag)).max())
    if off > 1e-9:
        raise ContractViolation(f"nulling left residual off-diagonal {off:.3e}")
    # U = L^dag D R'; commuting each left rotation through D keeps theta and
    # shifts phases, filling the remaining mesh slots from the inside out.
    commuted = []
    for pair, theta, phi in reversed(left_ops):
        block = rotation_matrix(theta, phi).conj().T @ np.diag(diag[pair : pair + 2])
        d1, d2, theta2, phi2 = _factor_two_by_two(block)
        diag[pair] = np.exp(1j * d1)
        diag[pair + 1] = np.exp(1j * d2)
        commuted.append((pair, theta2, phi2))
    sequence = right_ops + commuted
    layout = mesh_layout(modes)
    if tuple(op[0] for op in sequence) != layout:
        raise ContractViolation("nulling order does not match the mesh layout")
    params = []
    for _, theta, phi in sequence:
        params.extend([theta, phi])
    params.extend(float(a) for a in np.angle(diag))
    return params


# --- Fock-space representation ----------------------------------------------

def apply_mesh_to_vectors(vectors: np.ndarray, params, modes: int,
                          basis: FockBasis) -> None:
    """In-place mesh action on an (R, dimension, columns) array of state
    vectors: row r of the (R, parameters) array ``params`` acts on
    ``vectors[r]``.  Each row's mesh unitary is lifted by the
    creation-operator ladder, and each photon block of the vectors is
    multiplied by its block of the lift.  Each row's result is the same
    whatever R is."""
    params = np.asarray(params, dtype=float)
    expected = mesh_param_count(modes)
    if params.ndim != 2 or params.shape[1] != expected:
        raise ArityError(
            f"mesh for {modes} modes needs rows of {expected} parameters, "
            f"got shape {params.shape}"
        )
    if basis.modes != modes:
        raise ContractViolation(f"mesh has {modes} modes, basis has {basis.modes}")
    rows, dimension, _ = vectors.shape
    if params.shape[0] != rows:
        raise ContractViolation(
            f"{params.shape[0]} parameter rows for {rows} rows of vectors"
        )
    if dimension != basis.dimension:
        raise ContractViolation(
            f"vectors have {dimension} basis rows, basis has {basis.dimension}"
        )
    blocks = _ladder_blocks(_mesh_unitaries(params, modes), basis)
    # V_0 is 1
    for sl, block in zip(basis.block_slices[1:], blocks[1:]):
        vectors[:, sl] = np.matmul(block, vectors[:, sl])


class FockLift:
    """Block-diagonal Fock representation of a mode unitary: one unitary per
    total photon number."""

    def __init__(self, basis: FockBasis, blocks):
        self.basis = basis
        self.blocks = tuple(blocks)

    def matrix(self) -> np.ndarray:
        full = np.zeros((self.basis.dimension,) * 2, dtype=complex)
        for n, block in enumerate(self.blocks):
            sl = self.basis.block(n)
            full[sl, sl] = block
        return full


#: complex entries a permanent chunk's row sums may hold at once
_PERMANENT_CHUNK = 1 << 20

#: largest |B^dag B - I| the permanent lift accepts in a block B: the
#: accuracy at which it checks the ladder
_PERMANENT_UNITARITY = 1e-12


@lru_cache(maxsize=16)
def _ryser_tables(n: int) -> tuple:
    """Column-subset masks, shape (n, 2^n), and Ryser signs (-1)^(n - |S|)
    of every subset S of n columns."""
    subsets = np.arange(1 << n)
    masks = (subsets[None, :] >> np.arange(n)[:, None] & 1).astype(complex)
    signs = (-1.0) ** (n - masks.real.sum(axis=0))
    for table in (masks, signs):
        table.setflags(write=False)
    return masks, signs


def _permanents(subs: np.ndarray) -> np.ndarray:
    """Permanents of a stack of n x n matrices, shape (..., n, n) to (...),
    by Ryser's formula over every column subset at once:
    perm(A) = sum_S (-1)^(n - |S|) prod_i sum_(j in S) A[i, j]."""
    masks, signs = _ryser_tables(subs.shape[-1])
    return (subs @ masks).prod(axis=-2) @ signs


@lru_cache(maxsize=64)
def _ladder_plan(basis: FockBasis) -> tuple:
    """Index and square-root tables of the creation-operator ladder on
    ``basis``, one step per photon block n = 1..cutoff (see
    ``_ladder_blocks``).  Over the occupations r of block n and the modes
    i, a step holds ``lowered[r, i]``, the index of r - e_i in block n - 1
    (0 where r_i = 0, whose weight is 0), and ``weights[r, 0, i]`` =
    sqrt(r_i); over the occupations m, the first occupied mode j of m, the
    index of m - e_j in block n - 1 and 1 / sqrt(m_j)."""
    eye = np.eye(basis.modes, dtype=np.int64)
    steps = []
    for n in range(1, basis.cutoff + 1):
        block = basis.occupations[basis.block(n)]
        rows = np.arange(block.shape[0])
        occupied = block > 0
        lowered = np.zeros(block.shape, dtype=np.int64)
        lowered[occupied] = (
            basis.rank((block[:, None] - eye)[occupied]) - basis.block(n - 1).start
        )
        firsts = np.argmax(occupied, axis=1)
        step = (lowered, np.sqrt(block[:, None]), firsts, lowered[rows, firsts],
                1.0 / np.sqrt(block[rows, firsts]))
        for table in step:
            table.setflags(write=False)
        steps.append(step)
    return tuple(steps)


def _ladder_blocks(matrices: np.ndarray, basis: FockBasis) -> list:
    """The photon blocks V_0..V_cutoff of the Fock lift of each matrix of a
    (..., modes, modes) stack, V_n of shape (..., d_n, d_n), each built from
    the one before by the creation-operator ladder: with j the first
    occupied mode of m,
    V|m> = m_j^(-1/2) (sum_i U[i, j] a_i^dag) V|m - e_j>.
    A step gathers the columns m - e_j of V_(n-1), raises them along every
    mode at once and sums over the modes."""
    blocks = [np.ones(matrices.shape[:-2] + (1, 1), dtype=complex)]
    for lowered, weights, firsts, parents, scales in _ladder_plan(basis):
        coefficients = matrices.take(firsts, axis=-1)
        coefficients *= scales
        raised = blocks[-1].take(parents, axis=-1).take(lowered, axis=-2)
        raised *= coefficients[..., None, :, :]
        blocks.append(np.matmul(weights, raised)[..., 0, :])
    return blocks


def lift(u: ModeUnitary, basis: FockBasis, method: str = "ladder") -> FockLift:
    """Fock representation of ``u`` on the given basis.

    method="ladder" (the default, and the one construction that
    ``apply_interferometer`` and ``apply_mesh_to_vectors`` run) builds each
    photon block from the one before by the creation-operator ladder
    (``_ladder_blocks``).  method="permanent" is its oracle: it evaluates
    matrix elements <m|V|n> = perm(U[m, n]) / sqrt(prod m! prod n!)
    directly, every element of a photon block in one batched Ryser sum,
    chunked over its rows.  Its rounding grows with the photon number n
    (block unitarity defects of 5.9e-13 at (4, 8), 9.2e-12 at (4, 10) and
    1.0e-10 at (3, 12)), so it checks the ladder at 1e-12 only up to about
    8 photons: it raises ``ContractViolation`` on a block that is not
    unitary within 1e-12.  Beyond that the test suite's oracle is the
    one-body generator, ``generator_lift`` in ``tests/conftest.py``.
    method="mesh" runs ``apply_mesh_to_vectors`` on the identity with the
    mesh parameters of ``u`` (``decompose`` when it has none): the ladder
    of the mesh's unitary, a ``decompose`` / ``from_mesh`` round trip.
    """
    if u.modes != basis.modes:
        raise ContractViolation(
            f"unitary has {u.modes} modes, basis has {basis.modes}"
        )
    if method == "ladder":
        return FockLift(basis, _ladder_blocks(u.matrix, basis))
    if method == "mesh":
        params = u.params if u.params is not None else decompose(u.matrix)
        full = np.eye(basis.dimension, dtype=complex)[None]
        apply_mesh_to_vectors(full, [params], basis.modes, basis)
        return FockLift(basis, [full[0, sl, sl] for sl in basis.block_slices])
    if method == "permanent":
        blocks = []
        for n in range(basis.cutoff + 1):
            occs = basis.occupations[basis.block(n)]
            size = occs.shape[0]
            # the modes of each occupation's photons, one row per occupation
            reps = np.repeat(np.tile(np.arange(basis.modes), size), occs.ravel())
            reps = reps.reshape(size, n)
            norms = np.array(
                [math.exp(-0.5 * sum(math.lgamma(int(k) + 1) for k in o)) for o in occs]
            )
            block = np.empty((size, size), dtype=complex)
            # rows of the block per chunk, so the row sums stay bounded
            step = max(1, _PERMANENT_CHUNK // (size * max(n, 1) * (1 << n)))
            for a in range(0, size, step):
                rows = reps[a : a + step, None, :, None]
                block[a : a + step] = _permanents(u.matrix[rows, reps[None, :, None, :]])
            block = block * norms[:, None] * norms[None, :]
            # the Ryser sum adds 2^n signed products, uncompensated
            defect = float(np.abs(block.conj().T @ block - np.eye(size)).max())
            if defect > _PERMANENT_UNITARITY:
                raise ContractViolation(
                    f"permanent lift block {n} is unitary only within "
                    f"{defect:.1e}: the formula is an oracle at "
                    f"{_PERMANENT_UNITARITY:.0e} only up to about 8 photons"
                )
            blocks.append(block)
        return FockLift(basis, blocks)
    raise ContractViolation(f"unknown lift method {method!r}")


def apply_interferometer(rho: DensityMatrix, u: ModeUnitary) -> DensityMatrix:
    """V rho V^dag with V the Fock lift of ``u``, one photon block at a
    time.  V conserves total photon number, so it is block diagonal with
    one block V_n per total n, from the creation-operator ladder on
    ``u.matrix``, and block (n, m) of the result is V_n rho[n, m] V_m^dag.
    Only the blocks n <= m are computed: V_n on the rows of block n from
    column block n on, then V_m^dag on the columns of block m over the rows
    up to block m.  The blocks below are their conjugate transposes, as the
    result is Hermitian.  The trace and the total-photon-number
    distribution are preserved up to rounding."""
    if u.modes != rho.basis.modes:
        raise ContractViolation(
            f"unitary has {u.modes} modes, state has {rho.basis.modes}"
        )
    basis = rho.basis
    blocks = _ladder_blocks(u.matrix, basis)
    work = np.empty_like(rho.elements)
    for sl, block in zip(basis.block_slices, blocks):
        upper = slice(sl.start, None)
        np.matmul(block, rho.elements[sl, upper], out=work[sl, upper])
    for sl, block in zip(basis.block_slices, blocks):
        above = slice(None, sl.stop)
        work[above, sl] = work[above, sl] @ block.conj().T
    for sl in basis.block_slices[1:]:
        np.conjugate(work[: sl.start, sl].T, out=work[sl, : sl.start])
    return DensityMatrix(basis, work, tail=rho.tail)


def output_diagonal(rho: DensityMatrix, u: ModeUnitary) -> np.ndarray:
    """The real diagonal <i|V rho V^dag|i> of ``apply_interferometer(rho,
    u)`` without the rest of the matrix: every photon-number statistic of
    the output state.  V conserves photon number, so block n of the
    diagonal needs only the diagonal block rho[n, n] and the ladder block
    V_n: it is the row sums of (V_n rho[n, n]) * conj(V_n).  At 4 modes and
    cutoff 6 that is sum_n d_n^3, about 0.82M complex multiply-adds, where
    the whole matrix takes 3.3M.  A non-finite diagonal, or a sum off one
    by more than ``config.UNIT_TRACE`` plus ``rho.tail`` (the trace check
    of ``DensityMatrix``), raises ``ContractViolation``."""
    if u.modes != rho.basis.modes:
        raise ContractViolation(
            f"unitary has {u.modes} modes, state has {rho.basis.modes}"
        )
    basis = rho.basis
    diagonal = np.empty(basis.dimension)
    for sl, block in zip(basis.block_slices, _ladder_blocks(u.matrix, basis)):
        products = block @ rho.elements[sl, sl]
        products *= block.conj()
        products.real.sum(axis=1, out=diagonal[sl])
    trace = float(diagonal.sum())
    # a NaN or inf anywhere makes the sum non-finite
    if not math.isfinite(trace):
        raise ContractViolation("output diagonal has non-finite elements")
    if abs(trace - 1.0) > UNIT_TRACE + rho.tail:
        raise ContractViolation(f"state must have unit trace, got {trace!r}")
    return diagonal
