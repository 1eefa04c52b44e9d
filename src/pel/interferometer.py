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

Two independent Fock-lift constructions are kept permanently: composition of
two-mode rotation blocks along the mesh (the default) and the
permanent-based matrix-element formula (the oracle), which evaluates Ryser's
formula for every element of a photon block at once; its cost grows as
2^n per element of the n-photon block.  The two share no code, and tests
hold them to 1e-9 agreement.
"""

import math
from functools import lru_cache

import numpy as np

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


def _embed(modes: int, pair: int, block: np.ndarray) -> np.ndarray:
    t = np.eye(modes, dtype=complex)
    t[pair : pair + 2, pair : pair + 2] = block
    return t


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
    layout = mesh_layout(modes)
    u = np.eye(modes, dtype=complex)
    for slot, pair in enumerate(layout):
        theta, phi = params[2 * slot], params[2 * slot + 1]
        u = _embed(modes, pair, rotation_matrix(theta, phi)) @ u
    phases = np.exp(1j * np.array(params[2 * len(layout) :]))
    u = phases[:, None] * u
    return ModeUnitary(u, params=params)


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

@lru_cache(maxsize=512)
def _pair_block_tensors(s: int):
    """Combinatorial tensors for the total-photon-number-s block of a two-mode
    rotation: coefficient J and the sin exponent table (the cos exponent is
    s minus it), indexed [k_out, k_in, j]."""
    size = s + 1
    J = np.zeros((size, size, size))
    QE = np.zeros((size, size, size), dtype=np.int64)
    for ko in range(size):
        norm_o = math.lgamma(ko + 1) + math.lgamma(s - ko + 1)
        for ki in range(size):
            norm_i = math.lgamma(ki + 1) + math.lgamma(s - ki + 1)
            scale = math.exp((norm_o - norm_i) / 2.0)
            for j in range(max(0, ko + ki - s), min(ko, ki) + 1):
                J[ko, ki, j] = (
                    (-1) ** (ko - j)
                    * math.comb(ki, j)
                    * math.comb(s - ki, ko - j)
                    * scale
                )
                QE[ko, ki, j] = ki + ko - 2 * j
    return J, QE


@lru_cache(maxsize=64)
def _pair_block_tables(cutoff: int):
    """Tables for the s = 0..cutoff blocks of a two-mode rotation, their
    entries concatenated row-major.

    With z = e^{i theta}, cos^a sin^b = ((z + 1/z) / 2)^a ((z - 1/z) / 2i)^b,
    so entry (k_out, k_in) of block s is e^{i t phi} times a sum of terms
    coefficient * e^{i k theta}, k = -s..s, with t = k_out - k_in.  Returns
    the (2, 2 (2 cutoff + 1)) matrix taking (theta, phi) to the angles
    k theta and then t phi, k and t in -cutoff..cutoff; the (2 cutoff + 1,
    entries) coefficient matrix; the index of each entry's phase among the
    angles; and the offset of each block."""
    size = 2 * cutoff + 1
    offsets = np.cumsum([0] + [(s + 1) ** 2 for s in range(cutoff + 1)])
    coefficients = np.zeros((size, offsets[-1]), dtype=complex)
    turns = np.empty(offsets[-1], dtype=np.int64)
    cos_factor = np.array([0.5, 0.0, 0.5])
    sin_factor = np.array([0.5j, 0.0, -0.5j])
    for s in range(cutoff + 1):
        J, QE = _pair_block_tensors(s)
        for ko in range(s + 1):
            for ki in range(s + 1):
                entry = offsets[s] + ko * (s + 1) + ki
                turns[entry] = size + ko - ki + cutoff
                for j in range(s + 1):
                    if not J[ko, ki, j]:
                        continue
                    # z-polynomial of cos^(s - b) sin^b, exponents -s..s
                    poly = np.ones(1, dtype=complex)
                    for _ in range(s - QE[ko, ki, j]):
                        poly = np.convolve(poly, cos_factor)
                    for _ in range(QE[ko, ki, j]):
                        poly = np.convolve(poly, sin_factor)
                    coefficients[cutoff - s : cutoff + s + 1, entry] += J[ko, ki, j] * poly
    steps = np.arange(-cutoff, cutoff + 1, dtype=float)
    terms = np.zeros((2, 2 * size))
    terms[0, :size] = steps
    terms[1, size:] = steps
    for table in (terms, coefficients, turns):
        table.setflags(write=False)
    return terms, coefficients, turns, tuple(int(v) for v in offsets)


def _unit_phases(angles: np.ndarray) -> np.ndarray:
    """exp(i angles) from the real sine and cosine, which run as vector
    loops; complex exp is several times slower after a complex GEMM on
    some BLAS builds."""
    out = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    return out


def _pair_rotation_blocks(angles, cutoff: int) -> list:
    """Matrices of R(theta, phi) on the (k, s-k) occupation ladder, s = 0..cutoff,
    for an (R, L, 2) array of (theta, phi) pairs: entry s has shape
    (R, L, s+1, s+1).  Row r of each entry depends on row r of the angles
    alone."""
    angles = np.asarray(angles, dtype=float)
    terms, coefficients, turns, offsets = _pair_block_tables(cutoff)
    phases = _unit_phases(np.matmul(angles, terms))
    entries = np.matmul(phases[..., : 2 * cutoff + 1], coefficients)
    entries *= phases.take(turns, axis=-1)
    rows, slots = angles.shape[:2]
    return [
        entries[..., offsets[s] : offsets[s + 1]].reshape(rows, slots, s + 1, s + 1)
        for s in range(cutoff + 1)
    ]


@lru_cache(maxsize=256)
def _pair_perm(basis: FockBasis, pair: int):
    """Permutation bringing basis indices into (s, k, orbit) order for modes
    (pair, pair+1), where s = combined pair occupation and k = occupation of
    mode ``pair``.  In that layout the s-segment is a contiguous
    (s+1, n_orbits) block, so the rotation becomes one GEMM per s.

    Returns (perm, inverse_perm, segments) with segments a tuple of
    (s, start_row, n_orbits)."""
    occ = basis.occupations
    x, y = pair, pair + 1
    s_val = occ[:, x] + occ[:, y]
    k_val = occ[:, x]
    rest = occ.copy()
    rest[:, x] = 0
    rest[:, y] = 0
    _, orbit_id = np.unique(
        np.column_stack([s_val, rest]), axis=0, return_inverse=True
    )
    order = np.lexsort((orbit_id, k_val, s_val))
    perm = order.astype(np.int64)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(basis.dimension)
    segments = []
    start = 0
    for s in range(basis.cutoff + 1):
        count = int((s_val == s).sum())
        n_orbits = count // (s + 1)
        if s >= 1 and n_orbits:
            segments.append((s, start, n_orbits))
        start += count
    return perm, inverse, tuple(segments)


@lru_cache(maxsize=64)
def _mesh_chain(basis: FockBasis, modes: int):
    """Permutation chain for the whole mesh: the inverse permutation of each
    rotation composed with the next rotation's permutation, so the batch is
    re-sorted once per rotation instead of twice."""
    layout = mesh_layout(modes)
    perms = [_pair_perm(basis, pair) for pair in layout]
    hops = [perms[i][1].take(perms[i + 1][0]) for i in range(len(layout) - 1)]
    segments = tuple(p[2] for p in perms)
    return perms[0][0], tuple(hops), perms[-1][1], segments


def apply_mesh_to_vectors(vectors: np.ndarray, params, modes: int,
                          basis: FockBasis) -> None:
    """In-place mesh action (rotations in layout order, then output phases)
    on an (R, dimension, columns) array of state vectors: row r of the
    (R, parameters) array ``params`` acts on ``vectors[r]``.  Each row's
    result is the same whatever R is."""
    params = np.asarray(params, dtype=float)
    expected = mesh_param_count(modes)
    if params.ndim != 2 or params.shape[1] != expected:
        raise ArityError(
            f"mesh for {modes} modes needs rows of {expected} parameters, "
            f"got shape {params.shape}"
        )
    rows, _, columns = vectors.shape
    if params.shape[0] != rows:
        raise ContractViolation(
            f"{params.shape[0]} parameter rows for {rows} rows of vectors"
        )
    layout = mesh_layout(modes)
    rotations = 2 * len(layout)
    if layout:
        first, hops, last_inverse, segments = _mesh_chain(basis, modes)
        blocks = _pair_rotation_blocks(
            params[:, :rotations].reshape(rows, len(layout), 2), basis.cutoff
        )
        work = vectors.take(first, axis=1)
        for slot in range(len(layout)):
            for s, start, n_orbits in segments[slot]:
                stop = start + (s + 1) * n_orbits
                segment = work[:, start:stop].reshape(rows, s + 1, n_orbits * columns)
                work[:, start:stop] = np.matmul(blocks[s][:, slot], segment).reshape(
                    rows, (s + 1) * n_orbits, columns
                )
            if slot + 1 < len(layout):
                work = work.take(hops[slot], axis=1)
        vectors[:] = work.take(last_inverse, axis=1)
    phases = params[:, rotations:]
    if np.any(phases):
        vectors *= _unit_phases(np.matmul(basis.occupations, phases[:, :, None]))


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


def lift(u: ModeUnitary, basis: FockBasis, method: str = "mesh") -> FockLift:
    """Fock representation of ``u`` on the given basis.

    method="mesh" composes two-mode rotation blocks along the mesh
    decomposition; method="permanent" evaluates matrix elements
    <m|V|n> = perm(U[m, n]) / sqrt(prod m! prod n!) directly, every element
    of a photon block in one batched Ryser sum, chunked over its rows.  The
    two must agree to 1e-9 and serve as each other's oracle.
    """
    if u.modes != basis.modes:
        raise ContractViolation(
            f"unitary has {u.modes} modes, basis has {basis.modes}"
        )
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
            blocks.append(block * norms[:, None] * norms[None, :])
        return FockLift(basis, blocks)
    raise ContractViolation(f"unknown lift method {method!r}")


def apply_interferometer(rho: DensityMatrix, u: ModeUnitary) -> DensityMatrix:
    """V rho V^dag with V the Fock lift of ``u``, by the mesh kernel: V acts
    on the columns of rho, then on the columns of (V rho)^dag = rho V^dag.
    V conserves total photon number, so the trace and the
    total-photon-number distribution are preserved up to rounding."""
    if u.modes != rho.basis.modes:
        raise ContractViolation(
            f"unitary has {u.modes} modes, state has {rho.basis.modes}"
        )
    basis = rho.basis
    params = [u.params if u.params is not None else decompose(u.matrix)]
    work = rho.elements[None].copy()
    apply_mesh_to_vectors(work, params, basis.modes, basis)
    work = work.conj().transpose(0, 2, 1)
    apply_mesh_to_vectors(work, params, basis.modes, basis)
    return DensityMatrix(basis, work[0], tail=rho.tail)
