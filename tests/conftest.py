import itertools
import math

import numpy as np
import pytest

import pel
from pel.config import TAIL
from pel.errors import TruncationError


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


def fold_tensor_all(states, joint, tail_tol=TAIL):
    """Reference product: the left fold of the two-state tensor product over
    ``states``, each step in a basis of its modes at the joint cutoff and
    built as a validated state.  A step ranks its kept pairs (i, j) in the
    step's basis and writes the element products a[i, k] b[j, l] of those
    pairs there with ``np.ix_``; the weight of the other pairs, summed in
    row-major pair order, is checked against ``tail_tol`` and added to the
    tail."""
    states = list(states)
    acc = states[0]
    modes = acc.basis.modes
    for nxt in states[1:]:
        modes += nxt.basis.modes
        step = joint if modes == joint.modes else pel.make_basis(modes, joint.cutoff)
        a, b = acc, nxt
        da, db = a.basis.dimension, b.basis.dimension
        ia = np.repeat(np.arange(da), db)
        ib = np.tile(np.arange(db), da)
        kept = a.basis.totals[ia] + b.basis.totals[ib] <= step.cutoff
        discarded = float((a.diagonal()[ia] * b.diagonal()[ib])[~kept].sum())
        if discarded > tail_tol:
            raise TruncationError(
                f"tensor product would truncate weight {discarded:.6g} above joint "
                f"cutoff {step.cutoff} (tolerance {tail_tol:.1e}); raise the cutoff"
            )
        ia, ib = ia[kept], ib[kept]
        jidx = step.rank(np.hstack([a.basis.occupations[ia], b.basis.occupations[ib]]))
        elements = np.zeros((step.dimension, step.dimension), dtype=complex)
        elements[np.ix_(jidx, jidx)] = (
            a.elements[np.ix_(ia, ia)] * b.elements[np.ix_(ib, ib)]
        )
        acc = pel.DensityMatrix(step, elements, tail=a.tail + b.tail + discarded)
    return acc


def pair_displaced_number_elements(alphas, cutoff, photons):
    """Reference ``fock.displaced_number_elements``: the (alpha, alpha^*)
    pair array, scaled by the plan's steps into the (q, r) rows in one
    multiply, and |alpha|^2 as the real part of alpha alpha^*; the rest of
    the construction as in the library.  Refuses nothing."""
    alphas = np.asarray(alphas)
    alphas = alphas.astype(np.result_type(alphas, float), copy=False)
    steps, index, weight = pel.fock._displacement_plan(cutoff, photons)
    pair = np.empty(alphas.shape + (2, 1), dtype=alphas.dtype)
    pair[..., 0, 0] = alphas
    np.conjugate(alphas, out=pair[..., 1, 0])
    mean = np.multiply(pair[..., 0, 0], pair[..., 1, 0]).real
    runs = np.empty(alphas.shape + (2, steps.shape[1] + 1), dtype=alphas.dtype)
    np.multiply(pair, steps, out=runs[..., 1:])
    runs[..., 0, 0] = np.exp(mean * -0.5)
    runs[..., 1, 0] = 1.0
    np.cumprod(runs, axis=-1, out=runs)
    factors = runs.reshape(alphas.shape + (2 * runs.shape[-1],)).take(index, axis=-1)
    factors *= weight
    return np.matmul(factors[..., : cutoff + 1, :], factors[..., cutoff + 1 :, :])


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


def generator_lift(u, basis):
    """Independent Fock-lift oracle, one photon block at a time: the
    exponential of the one-body generator, V = expm(sum_jk h_jk a_j^dag a_k)
    with h = logm(U).  Since [a_j^dag a_k, a_l^dag] = delta_kl a_j^dag, this
    V maps a_k^dag to sum_j (e^h)[j, k] a_j^dag, as the lift of U must; it
    builds no ladder and no permanent."""
    from scipy.linalg import expm, logm

    h = logm(u.matrix)
    eye = np.eye(basis.modes, dtype=np.int64)
    blocks = []
    for sl in basis.block_slices:
        occupations = basis.occupations[sl]
        generator = np.zeros((occupations.shape[0],) * 2, dtype=complex)
        for j, k in itertools.product(range(basis.modes), repeat=2):
            # a_j^dag a_k |m> = sqrt(m_k (m_j + 1 - delta_jk)) |m - e_k + e_j>
            columns = np.flatnonzero(occupations[:, k] > 0)
            moved = occupations[columns] - eye[k] + eye[j]
            rows = basis.rank(moved) - sl.start
            generator[rows, columns] += h[j, k] * np.sqrt(
                occupations[columns, k] * moved[:, j]
            )
        blocks.append(expm(generator))
    return blocks


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
