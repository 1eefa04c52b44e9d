import math

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


def vectorised_golden_max(fun, lo, hi, evals, ahead=False):
    """Reference golden-section maximization: the schedule of
    ``pel.nogo._golden_max``, with ``ahead`` too, stepped on (R,) arrays,
    one numpy expression per step for every row.  It calls ``fun`` with the
    same abscissae in the same shapes, and returns the best sampled x and
    its value per row."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - ratio * (hi - lo)
    x2 = lo + ratio * (hi - lo)
    if ahead:
        f1, f2 = fun(np.stack([x1, x2], axis=1)).T
    else:
        f1, f2 = fun(x1), fun(x2)
    first = f1 >= f2
    best_x, best_f = np.where(first, x1, x2), np.where(first, f1, f2)
    successors = None
    for left in range(evals - 2, 0, -1):
        # rows with f1 < f2 keep [x1, hi] and probe a new x2; the others keep
        # [lo, x2] and probe a new x1
        up = f1 < f2
        lo = np.where(up, x1, lo)
        hi = np.where(up, hi, x2)
        step = ratio * (hi - lo)
        x = np.where(up, lo + step, hi - step)
        x1, x2 = np.where(up, x2, x), np.where(up, x, x1)
        if successors is not None:
            f, successors = np.where(up, *successors), None
        elif ahead and left > 1:
            # the next step's probe, written as that step writes it, on the
            # rows whose comparison keeps [x1, hi] and on the others
            choices = x1 + ratio * (hi - x1), x2 - ratio * (x2 - lo)
            f, *successors = fun(np.stack([x, *choices], axis=1)).T
        else:
            f = fun(x)
        f1, f2 = np.where(up, f2, f), np.where(up, f, f1)
        better = f > best_f
        best_x, best_f = np.where(better, x, best_x), np.where(better, f, best_f)
    return best_x, best_f


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
