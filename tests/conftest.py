import numpy as np
import pytest

import pel


def random_density(rng, basis, support=None):
    """Random PSD trace-1 state with total photon number <= support."""
    if support is None:
        support = basis.cutoff
    sel = np.flatnonzero(basis.totals <= support)
    k = sel.size
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    block = a @ a.conj().T
    block /= block.trace().real
    elements = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    elements[np.ix_(sel, sel)] = block
    return pel.DensityMatrix(basis, elements)


def loop_trace_out(rho, rows, keep, reduced):
    """Reference trace-out: elements on ``reduced`` of the block of ``rho`` on
    ``rows``, summed over the occupations of the modes not in ``keep``, one
    ``np.ix_`` block per group of equal traced occupations, added in
    lexicographic group order onto zero, with the indices of ``reduced`` read
    from a dict of its occupation rows."""
    index = {row: i for i, row in enumerate(map(tuple, reduced.occupations.tolist()))}
    occ = rho.basis.occupations[rows]
    traced = [m for m in range(rho.basis.modes) if m not in keep]
    keep_idx = np.array([index[tuple(row)] for row in occ[:, list(keep)].tolist()])
    if traced:
        _, group = np.unique(occ[:, traced], axis=0, return_inverse=True)
        group = group.reshape(-1)
    else:
        group = np.zeros(rows.size, dtype=np.int64)
    elements = np.zeros((reduced.dimension, reduced.dimension), dtype=complex)
    for g in range(int(group.max()) + 1):
        part = group == g
        elements[np.ix_(keep_idx[part], keep_idx[part])] += (
            rho.elements[np.ix_(rows[part], rows[part])]
        )
    return elements


def rows_at_the_cap(rng, space, rows):
    """Random search parameter rows with every coherent amplitude at the
    space's amplitude cap."""
    mesh_len = pel.mesh_param_count(space.modes)
    phases = rng.uniform(-np.pi, np.pi, (rows, space.num_coherent))
    amps = np.empty((rows, 2 * space.num_coherent))
    amps[:, 0::2] = space.amplitude_cap * np.cos(phases)
    amps[:, 1::2] = space.amplitude_cap * np.sin(phases)
    return np.hstack([rng.uniform(-np.pi, np.pi, (rows, mesh_len)), amps])


def inertia_min_eigenvalue(h, tol=1e-9):
    """Independent smallest-eigenvalue oracle: bisection on Sylvester inertia
    computed from an LDL^H factorization (no eigensolver involved)."""
    from scipy.linalg import ldl

    h = np.asarray(h, dtype=complex)
    n = h.shape[0]

    def count_below(x):
        _, d, _ = ldl(h - x * np.eye(n))
        count = 0
        i = 0
        while i < n:
            if i + 1 < n and abs(d[i + 1, i]) > 1e-300:
                a, b, c = d[i, i].real, d[i + 1, i], d[i + 1, i + 1].real
                mid = 0.5 * (a + c)
                rad = np.sqrt((0.5 * (a - c)) ** 2 + abs(b) ** 2)
                count += int(mid - rad < 0) + int(mid + rad < 0)
                i += 2
            else:
                count += int(d[i, i].real < 0)
                i += 1
        return count

    bound = float(np.abs(h).sum(axis=1).max()) + 1.0
    lo, hi = -bound, bound
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if count_below(mid) >= 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
