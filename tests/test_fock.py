import itertools
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

import pel
from pel import (
    Coherent,
    DensityMatrix,
    Fock,
    Isps,
    PartialQubit,
    make_basis,
    make_state,
    min_eigenvalue,
    partial_trace,
    tensor,
    trace_distance,
)
from pel.errors import (
    CapacityError,
    ContractViolation,
    PositivityError,
    TruncationError,
)
from pel.fock import poisson_tails

from conftest import (
    fold_tensor_all,
    inertia_min_eigenvalue,
    loop_trace_out,
    pair_displaced_number_elements,
    random_density,
)


# --- basis -------------------------------------------------------------------

@pytest.mark.parametrize("modes,cutoff", [(0, 3), (-1, 2), (1, -1)])
def test_basis_guards_raise_a_contract_violation(modes, cutoff):
    with pytest.raises(ContractViolation, match="modes" if modes < 1 else "cutoff"):
        pel.FockBasis(modes, cutoff)


def test_single_mode_basis_order():
    b = make_basis(1, 3)
    assert b.dimension == 4
    assert [b.occupation_of(i) for i in range(4)] == [(0,), (1,), (2,), (3,)]


def test_two_mode_basis_order():
    b = make_basis(2, 2)
    assert b.dimension == 6
    assert [b.occupation_of(i) for i in range(6)] == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
    ]


def test_dimension_matches_brute_force_enumeration():
    # independent oracle: count all occupation vectors with total <= cutoff
    modes, cutoff = 3, 4
    count = sum(
        1
        for occ in itertools.product(range(cutoff + 1), repeat=modes)
        if sum(occ) <= cutoff
    )
    assert count == 35
    assert make_basis(modes, cutoff).dimension == count


@pytest.mark.parametrize("modes,cutoff", [(1, 5), (2, 4), (3, 3), (4, 2)])
def test_index_round_trip_and_dimension(modes, cutoff):
    b = make_basis(modes, cutoff)
    assert b.dimension == math.comb(cutoff + modes, modes)
    for i in range(b.dimension):
        assert b.index_of(b.occupation_of(i)) == i


@pytest.mark.parametrize("modes,cutoff", [(2, 5), (3, 4)])
def test_graded_blocks(modes, cutoff):
    b = make_basis(modes, cutoff)
    total = 0
    for n in range(cutoff + 1):
        sl = b.block(n)
        width = sl.stop - sl.start
        assert width == math.comb(n + modes - 1, modes - 1)
        assert (b.totals[sl] == n).all()
        total += width
    assert total == b.dimension


def test_dimension_guard_reports_size():
    with pytest.raises(CapacityError, match="230230"):
        make_basis(6, 20)


def test_index_of_out_of_range():
    b = make_basis(2, 2)
    with pytest.raises(CapacityError):
        b.index_of((2, 1))


@pytest.mark.parametrize("modes", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("cutoff", range(8))
def test_rank_inverts_occupations(modes, cutoff):
    b = make_basis(modes, cutoff)
    assert np.array_equal(b.rank(b.occupations), np.arange(b.dimension))
    # any leading shape ranks to the same shape
    grid = b.occupations[::-1].reshape(-1, 1, modes)
    assert np.array_equal(b.rank(grid), np.arange(b.dimension)[::-1, None])


@pytest.mark.parametrize("bad", [(2, 1), (-1, 1), (3, -1)])
def test_rank_refuses_a_batch_with_one_out_of_range_row(bad):
    b = make_basis(2, 2)
    batch = np.vstack([b.occupations, [bad], b.occupations])
    with pytest.raises(CapacityError, match=r"occupation \(" + f"{bad[0]}, {bad[1]}"):
        b.rank(batch)
    with pytest.raises(CapacityError):
        b.index_of(bad)


@pytest.mark.parametrize("occupation", [(1,), (0, 0, 1), ()])
def test_index_of_refuses_a_wrong_length(occupation):
    with pytest.raises(CapacityError):
        make_basis(2, 2).index_of(occupation)


def test_equal_bases_share_their_tables():
    a, b = make_basis(3, 4), make_basis(3, 4)
    assert a.occupations is b.occupations and a.totals is b.totals
    assert not a.occupations.flags.writeable


# --- states ------------------------------------------------------------------

def test_isps_state():
    rho = make_state(Isps(0.7), make_basis(1, 3))
    assert np.allclose(rho.diagonal(), [0.3, 0.7, 0.0, 0.0])


def test_vacuum_coherent_state():
    rho = make_state(Coherent(0.0), make_basis(1, 3))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(rho.elements, expected)


def test_coherent_state_matches_poisson_series():
    rho = make_state(Coherent(1.0), make_basis(1, 10), tail_tol=1e-6)
    # independent evaluation of the Poisson weights
    weights = np.array([math.exp(-1.0) / math.factorial(n) for n in range(11)])
    weights /= weights.sum()
    assert abs(rho.elements[0, 0].real - math.exp(-1.0)) < 1e-6
    assert np.allclose(rho.diagonal(), weights, atol=1e-12)
    assert rho.tail > 0.0


def test_coherent_tail_refusal():
    with pytest.raises(TruncationError, match="tail"):
        make_state(Coherent(1.0), make_basis(1, 4))


_OFF_TAIL_TOLERANCES = pytest.mark.parametrize("tail_tol", [math.nan, math.inf, -1e-3])


@_OFF_TAIL_TOLERANCES
def test_make_state_refuses_a_tail_tolerance_that_checks_nothing(tail_tol):
    # Coherent(3.0) leaves 0.79 of its weight above cutoff 6
    for spec in (Coherent(3.0), Isps(0.5)):
        with pytest.raises(ContractViolation, match="tail_tol"):
            make_state(spec, make_basis(1, 6), tail_tol=tail_tol)


@_OFF_TAIL_TOLERANCES
def test_tensor_refuses_a_tail_tolerance_that_checks_nothing(tail_tol):
    one = make_state(Isps(0.5), make_basis(1, 2))
    with pytest.raises(ContractViolation, match="tail_tol"):
        tensor(one, one, make_basis(2, 2), tail_tol=tail_tol)


@_OFF_TAIL_TOLERANCES
def test_tensor_all_refuses_a_tail_tolerance_that_checks_nothing(tail_tol):
    one = make_state(Isps(0.5), make_basis(1, 2))
    for states in ([one], [one, one]):
        with pytest.raises(ContractViolation, match="tail_tol"):
            pel.tensor_all(states, make_basis(len(states), 2), tail_tol=tail_tol)


def test_coherent_tail_survives_underflow():
    # |alpha|^2 ~ 1000 far above the cutoff: the first omitted Poisson term
    # underflows, yet nearly all of the weight lies beyond the cutoff
    assert pel.coherent_tail_weight(31.6, 10) == pytest.approx(1.0)
    with pytest.raises(TruncationError, match="tail"):
        make_state(Coherent(31.6), make_basis(1, 10))


def test_coherent_tail_keeps_relative_precision():
    exact = math.fsum(math.exp(-1.0) / math.factorial(n) for n in range(15, 60))
    assert pel.coherent_tail_weight(1.0, 14) == pytest.approx(exact, rel=1e-12)


def _decimal_poisson_tails(mean):
    """P(X > c) for X ~ Poisson(mean) and c = 0, 1, ..., in 50-digit decimal,
    each the sum of its terms, out to terms below 1e-320."""
    getcontext().prec = 50
    lam = Decimal(mean)
    terms = [(-lam).exp()]
    while len(terms) <= mean or terms[-1] >= Decimal("1e-320"):
        terms.append(terms[-1] * lam / len(terms))
    tails, total = [], Decimal(0)
    for term in reversed(terms[1:]):
        total += term
        tails.append(total)
    return tails[::-1]


@pytest.mark.parametrize(
    "mean", [1e-6, 1e-3, 0.09, 0.25, 1.0, 3.7, 12.0, 40.0, 100.0, 150.0, 250.0, 400.0]
)
def test_coherent_tail_matches_a_decimal_poisson_tail(mean):
    # every cutoff whose tail is at least 1e-300.  Up to a mean of 150 the
    # relative error stays below 1e-12; past it the terms that matter have
    # ln(n!) above 4096, where its double rounding alone reaches 4.5e-13,
    # and the product n ln(mean) adds as much again
    alpha = math.sqrt(mean)
    tolerance = 1e-12 if mean <= 150.0 else 2e-12
    exact = _decimal_poisson_tails(abs(alpha) ** 2)
    checked = 0
    for cutoff, tail in enumerate(exact):
        if tail < Decimal("1e-300"):
            break
        got = Decimal(pel.coherent_tail_weight(alpha, cutoff))
        assert abs(got - tail) <= Decimal(tolerance) * tail, (cutoff, got, tail)
        checked += 1
    assert checked > mean


def test_poisson_tails_only_append_with_the_length():
    # 3.2e-317 and 5e-324 are subnormal: mean**2 of an amplitude of 5.6e-159
    for mean in (0.0, 5e-324, 3.2e-317, 1e-9, 0.5, 30.0, 900.0):
        long = poisson_tails(mean, 3000)
        assert long[0] == pytest.approx(1.0, abs=1e-12) and long[-1] == 0.0
        assert np.all(np.diff(long) <= 0.0)
        for length in (0, 1, 7, 40, 1200):
            assert np.array_equal(poisson_tails(mean, length), long[:length])
    # no term below the length survives rounding: all read 1, without a term
    # computed, as do NaN and infinity
    for mean in (1e6, 1e300, math.inf, math.nan):
        assert np.array_equal(poisson_tails(mean, 5), np.ones(5))


def test_displaced_number_elements_against_matrix_exponential():
    from scipy.linalg import expm

    size = 90
    annihilate = np.diag(np.sqrt(np.arange(1, size)), 1)
    alphas = [0.3 + 0.2j, -1.1 + 0.7j, 3.0 * np.exp(0.7j), -3.0, 2.2j]
    for cutoff, photons in [(12, 3), (30, 5), (1, 3), (0, 0)]:
        tables = pel.displaced_number_elements(alphas + [0.0], cutoff, photons)
        assert tables.shape == (len(alphas) + 1, cutoff + 1, photons + 1)
        for alpha, table in zip(alphas, tables):
            generator = alpha * annihilate.conj().T - np.conj(alpha) * annihilate
            exact = expm(generator)[: cutoff + 1, : photons + 1]
            assert np.abs(table - exact).max() < 1e-12
        # alpha = 0 gives the identity exactly
        assert (tables[-1] == np.eye(cutoff + 1, photons + 1)).all()
        # real amplitudes give a real table
        reals = [0.3, -1.1, 3.0, -3.0, 0.0]
        tables = pel.displaced_number_elements(np.array(reals), cutoff, photons)
        assert tables.dtype == np.float64
        for alpha, table in zip(reals, tables):
            exact = expm(alpha * (annihilate.T - annihilate))[: cutoff + 1, : photons + 1]
            assert np.abs(table - exact).max() < 1e-12
        assert (tables[-1] == np.eye(cutoff + 1, photons + 1)).all()


def test_displaced_number_elements_at_large_amplitude():
    # |beta| = 30 is the largest a 1 + 1 scheme reaches at amplitude_cap 30;
    # cutoff 1300 holds all but ~1e-30 of every column
    beta = 30.0 * np.exp(0.4j)
    table = pel.displaced_number_elements(beta, 1300, 2)
    coherent = pel.coherent_amplitudes(beta, 1300)
    assert np.abs(table[:, 0] - coherent).max() < 1e-12
    gram = table.conj().T @ table
    assert np.abs(gram - np.eye(3)).max() < 1e-12


@pytest.mark.parametrize("alpha", [38.0, 40.0j, complex(math.nan, 0.0)])
def test_displaced_number_elements_refuse_an_underflowing_table(alpha):
    # exp(-|alpha|^2 / 2) leaves the normal floats past |alpha|^2 ~ 1417
    with pytest.raises(CapacityError, match="float range"):
        pel.displaced_number_elements([0.5, alpha], 1600, 1)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", [(), (7,), (4, 3)], ids=["scalar", "n", "RxM"])
def test_displaced_number_elements_keep_the_pair_construction_bits(rng, dtype, shape):
    # the search's every report depends on these tables, so the library's
    # construction must give the reference's bits, not merely its values
    for cutoff, photons, scale in [(16, 2, 1.0), (17, 3, 0.3), (5, 0, 2.5), (0, 4, 4.0)]:
        alphas = rng.standard_normal(shape) * scale
        if dtype is complex:
            alphas = alphas + 1j * scale * rng.standard_normal(shape)
        table = pel.displaced_number_elements(alphas, cutoff, photons)
        reference = pair_displaced_number_elements(alphas, cutoff, photons)
        assert table.dtype == reference.dtype == np.dtype(dtype)
        assert table.shape == np.shape(alphas) + (cutoff + 1, photons + 1)
        assert np.array_equal(table.view(np.uint64), reference.view(np.uint64))
        # alpha = 0 gives the identity exactly
        zero = pel.displaced_number_elements(np.zeros(shape, dtype=dtype), cutoff, photons)
        assert (zero == np.eye(cutoff + 1, photons + 1)).all()


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("bad", [math.nan, 1.01 * math.sqrt(pel.fock.MAX_DISPLACEMENT_MEAN)])
def test_displaced_number_elements_refuse_nan_and_past_the_mean(dtype, bad):
    alphas = np.array([[0.5, bad], [0.0, 0.25]], dtype=dtype)
    with pytest.raises(CapacityError, match="float range"):
        pel.displaced_number_elements(alphas, 16, 2)
    with pytest.raises(CapacityError, match="float range"):
        pel.displaced_number_elements(np.array(bad, dtype=dtype), 16, 2)


def test_partial_qubit_state_and_positivity_guard():
    rho = make_state(PartialQubit(0.5, 0.3j), make_basis(1, 2))
    assert rho.elements[0, 1] == 0.3j
    assert rho.elements[1, 0] == -0.3j
    with pytest.raises(PositivityError, match="q"):
        make_state(PartialQubit(0.5, 0.6), make_basis(1, 2))


def test_fock_state_capacity():
    with pytest.raises(CapacityError):
        make_state(Fock(4), make_basis(1, 3))


@pytest.mark.parametrize(
    "spec",
    [Isps(0.4), Coherent(0.6), Fock(2), PartialQubit(0.6, 0.4)],
)
def test_states_are_normalized_and_positive(spec):
    rho = make_state(spec, make_basis(1, 10))
    assert abs(rho.trace - 1.0) < 1e-12
    assert min_eigenvalue(rho.elements) >= -1e-12


def test_density_matrix_rejects_non_hermitian():
    b = make_basis(1, 1)
    with pytest.raises(ContractViolation, match="Hermitian"):
        DensityMatrix(b, np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_density_matrix_rejects_bad_trace():
    b = make_basis(1, 1)
    with pytest.raises(ContractViolation, match="trace"):
        DensityMatrix(b, np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_matrix_rejects_non_finite(bad):
    # NaN passes every comparison-based guard, so it needs its own
    b = make_basis(1, 1)
    with pytest.raises(ContractViolation, match="non-finite"):
        DensityMatrix(b, np.diag([1.0, bad]))


@pytest.mark.parametrize("modes,cutoff", [(1, 3), (2, 6), (4, 6), (5, 6)])
def test_density_matrix_keeps_the_bits_of_the_halved_sum(rng, modes, cutoff):
    # the stored elements are (E + E^dag) / 2.0 element for element, signed
    # zeros included, on bases whose E - E^dag takes one or many row chunks
    basis = make_basis(modes, cutoff)
    base = random_density(rng, basis, support=min(cutoff, 3)).elements
    noise = rng.standard_normal(base.shape) + 1j * rng.standard_normal(base.shape)
    signed = [np.where(base == 0, zero, base) for zero in (complex(-0.0, 0.0), -0.0j)]
    for elements in (base, base + 1e-17 * noise, base.T.copy(), *signed):
        before = elements.copy()
        expected = (elements + elements.conj().T) / 2.0
        got = DensityMatrix(basis, elements).elements
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(elements.view(np.uint64), before.view(np.uint64))


@pytest.mark.parametrize("modes,cutoff", [(1, 3), (4, 6), (5, 6)])
def test_density_matrix_checks_every_row(rng, modes, cutoff):
    # an asymmetric or non-finite element in the last row is refused too
    basis = make_basis(modes, cutoff)
    elements = random_density(rng, basis).elements.copy()
    elements[-1, 0] += 1e-6
    with pytest.raises(ContractViolation, match="Hermitian"):
        DensityMatrix(basis, elements)
    elements[-1, 0] = np.nan
    with pytest.raises(ContractViolation, match="non-finite"):
        DensityMatrix(basis, elements)


# --- tensor and partial trace --------------------------------------------------

def test_tensor_vacuum():
    single = make_basis(1, 2)
    joint = make_basis(2, 2)
    vac = make_state(Coherent(0.0), single)
    rho = tensor(vac, vac, joint)
    expected = np.zeros((joint.dimension,) * 2)
    expected[0, 0] = 1.0
    assert np.allclose(rho.elements, expected)


def test_tensor_product_of_isps():
    single = make_basis(1, 1)
    joint = make_basis(2, 2)
    rho = tensor(
        make_state(Isps(0.5), single), make_state(Isps(0.5), single), joint
    )
    for occ, weight in [((0, 0), 0.25), ((0, 1), 0.25), ((1, 0), 0.25), ((1, 1), 0.25)]:
        i = joint.index_of(occ)
        assert abs(rho.elements[i, i].real - weight) < 1e-14


def test_tensor_truncation_refusal_reports_weight():
    single = make_basis(1, 1)
    joint = make_basis(2, 1)
    half = make_state(Isps(0.5), single)
    with pytest.raises(TruncationError, match="0.25"):
        tensor(half, half, joint)
    one = make_state(Isps(1.0), single)
    with pytest.raises(TruncationError, match="weight 1"):
        tensor(one, one, joint)


@pytest.mark.parametrize("p", [0.5, 1.0])
def test_tensor_truncation_against_wider_embedding(p):
    # the weight a cutoff-1 joint basis would discard equals the (1,1)
    # population of the cutoff-2 embedding, which is p^2
    single = make_basis(1, 1)
    full = tensor(
        make_state(Isps(p), single), make_state(Isps(p), single), make_basis(2, 2)
    )
    i11 = full.basis.index_of((1, 1))
    assert abs(full.elements[i11, i11].real - p * p) < 1e-14


def test_tensor_then_partial_trace_round_trip(rng):
    single = make_basis(1, 3)
    joint = make_basis(2, 6)
    a = random_density(rng, single)
    b = random_density(rng, single)
    ab = tensor(a, b, joint)
    assert abs(ab.trace - 1.0) < 1e-12
    back_a = partial_trace(ab, [0])
    back_b = partial_trace(ab, [1])
    assert np.abs(back_a.elements[:4, :4] - a.elements).max() < 1e-12
    assert np.abs(back_b.elements[:4, :4] - b.elements).max() < 1e-12


def test_partial_trace_of_product_state():
    single = make_basis(1, 2)
    joint = make_basis(2, 4)
    rho = tensor(
        make_state(Isps(0.3), single), make_state(Isps(0.8), single), joint
    )
    reduced = partial_trace(rho, [0])
    assert np.allclose(reduced.diagonal()[:2], [0.7, 0.3], atol=1e-12)


def test_partial_trace_entangled_example():
    # (|0,1> + |1,0>)(<0,1| + <1,0|)/2 reduced on either mode is diag(1/2, 1/2)
    joint = make_basis(2, 1)
    vec = np.zeros(joint.dimension, dtype=complex)
    vec[joint.index_of((0, 1))] = 1.0 / math.sqrt(2.0)
    vec[joint.index_of((1, 0))] = 1.0 / math.sqrt(2.0)
    rho = DensityMatrix(joint, np.outer(vec, vec.conj()))
    reduced = partial_trace(rho, [1])
    assert np.allclose(reduced.diagonal(), [0.5, 0.5], atol=1e-14)


def test_partial_trace_keep_all_is_identity(rng):
    joint = make_basis(2, 3)
    rho = random_density(rng, joint)
    assert partial_trace(rho, [0, 1]) is rho


def test_partial_trace_preserves_trace(rng):
    joint = make_basis(3, 3)
    rho = random_density(rng, joint)
    assert abs(partial_trace(rho, [2]).trace - rho.trace) < 1e-12


def kron_tensor(a, b, joint):
    """Reference tensor: the full Kronecker product, its kept rows and columns
    copied to joint indices read from a dict of the joint occupation rows."""
    index = {row: i for i, row in enumerate(map(tuple, joint.occupations.tolist()))}
    da, db = a.basis.dimension, b.basis.dimension
    ia = np.repeat(np.arange(da), db)
    ib = np.tile(np.arange(db), da)
    kept = a.basis.totals[ia] + b.basis.totals[ib] <= joint.cutoff
    discarded = float((a.diagonal()[ia] * b.diagonal()[ib])[~kept].sum())
    occ = np.hstack([a.basis.occupations[ia][kept], b.basis.occupations[ib][kept]])
    jidx = np.array([index[tuple(row)] for row in occ.tolist()])
    kron = np.kron(a.elements, b.elements)
    flat_kept = np.flatnonzero(kept)
    elements = np.zeros((joint.dimension, joint.dimension), dtype=complex)
    elements[np.ix_(jidx, jidx)] = kron[np.ix_(flat_kept, flat_kept)]
    return DensityMatrix(joint, elements, tail=a.tail + b.tail + discarded)


@pytest.mark.parametrize("split", [(1, 2), (2, 1), (2, 2), (3, 1), (1, 3)])
@pytest.mark.parametrize("support", [3, 6])
def test_tensor_matches_the_kronecker_reference_bit_for_bit(rng, split, support):
    # at support 6 the joint cutoff 6 truncates the product
    cutoff = 6
    a = random_density(rng, make_basis(split[0], cutoff), support)
    b = random_density(rng, make_basis(split[1], cutoff), support)
    joint = make_basis(sum(split), cutoff)
    got = tensor(a, b, joint, tail_tol=1.0)
    expected = kron_tensor(a, b, joint)
    assert np.array_equal(got.elements, expected.elements)
    assert got.tail == expected.tail
    assert (got.tail > 0.0) == (support == cutoff)


@pytest.mark.parametrize("modes", [3, 4])
def test_partial_trace_matches_the_loop_reference_bit_for_bit(rng, modes):
    basis = make_basis(modes, 6)
    rho = random_density(rng, basis)
    rows = np.arange(basis.dimension)
    for size in range(1, modes):
        for keep in itertools.combinations(range(modes), size):
            got = partial_trace(rho, keep)
            expected = DensityMatrix(
                got.basis, loop_trace_out(rho, rows, keep, got.basis)
            )
            assert np.array_equal(got.elements, expected.elements), keep


@pytest.mark.parametrize("modes,support", [(3, 2), (4, 2), (3, 3)])
def test_partial_trace_against_einsum_on_the_product_space(rng, modes, support):
    # a state of support s lives in the untruncated product of s + 1 levels
    # per mode, where the partial trace is an einsum over the traced axes
    basis = make_basis(modes, 6)
    rho = random_density(rng, basis, support)
    levels = (support + 1,) * modes
    sel = np.flatnonzero(basis.totals <= support)
    flat = np.ravel_multi_index(basis.occupations[sel].T, levels)
    product = np.zeros((math.prod(levels),) * 2, dtype=complex)
    product[np.ix_(flat, flat)] = rho.elements[np.ix_(sel, sel)]
    product = product.reshape(levels + levels)
    for size in range(1, modes):
        for keep in itertools.combinations(range(modes), size):
            columns = [modes + m if m in keep else m for m in range(modes)]
            out = list(keep) + [modes + m for m in keep]
            traced = np.einsum(product, list(range(modes)) + columns, out)
            traced = traced.reshape((support + 1) ** size, -1)
            reduced = partial_trace(rho, keep)
            rsel = np.flatnonzero(reduced.basis.totals <= support)
            rflat = np.ravel_multi_index(
                reduced.basis.occupations[rsel].T, levels[:size]
            )
            expected = np.zeros_like(reduced.elements)
            expected[np.ix_(rsel, rsel)] = traced[np.ix_(rflat, rflat)]
            assert np.abs(reduced.elements - expected).max() < 1e-12, keep
            # nothing of the product-space trace falls outside the support
            outside = np.ones(traced.shape[0], dtype=bool)
            outside[rflat] = False
            assert np.abs(traced[outside]).max(initial=0.0) < 1e-12


def _bits(elements):
    """The elements as integers, so that equality compares every bit, the
    signs of zeros included."""
    return np.ascontiguousarray(elements).view(np.uint64)


def _product_case(rng, case):
    """Factors and joint basis of each product case; every factor's
    diagonal is nonzero up to its support, so a changed summation order
    shows in the discarded weight."""
    if case == "coherent":
        # ISPS, coherent, partial qubit, coherent: each of the three steps
        # truncates, and the coherent tails ride along
        single = make_basis(1, 6)
        specs = [Isps(0.7), Coherent(0.6 + 0.5j), PartialQubit(0.4, 0.3j),
                 Coherent(-0.45 + 0.55j)]
        return [make_state(s, single, tail_tol=1e-2) for s in specs], make_basis(4, 6)
    if case == "multimode":
        shapes = [(2, 4), (1, 6), (2, 3)]
        return [random_density(rng, make_basis(*shape)) for shape in shapes], make_basis(5, 6)
    if case == "second-step":
        # the first step keeps every pair; the second truncates
        single = make_basis(1, 1)
        states = [make_state(Isps(0.6), single), make_state(Isps(0.5), single),
                  random_density(rng, make_basis(1, 3))]
        return states, make_basis(3, 3)
    # factor cutoffs below the joint one: joint rows whose parts do not fit
    # stay zero
    shapes = [(1, 2), (2, 1), (1, 3), (1, 2)]
    return [random_density(rng, make_basis(*shape)) for shape in shapes], make_basis(5, 4)


_PRODUCT_CASES = ["coherent", "multimode", "second-step", "short-factors"]


@pytest.mark.parametrize("case", _PRODUCT_CASES)
def test_tensor_all_matches_the_fold_bit_for_bit_cold_and_cached(rng, case):
    states, joint = _product_case(rng, case)
    expected = fold_tensor_all(states, joint, tail_tol=1.0)
    assert expected.tail > 0.0
    before = [_bits(s.elements).copy() for s in states]
    pel.fock._product_plan.cache_clear()
    for _ in range(2):
        got = pel.tensor_all(states, joint, tail_tol=1.0)
        assert got.basis == joint
        assert np.array_equal(_bits(got.elements), _bits(expected.elements))
        assert got.tail.hex() == expected.tail.hex()
    assert pel.fock._product_plan.cache_info()[:2] == (1, 1)
    assert all(np.array_equal(_bits(s.elements), b) for s, b in zip(states, before))


@pytest.mark.parametrize("case", _PRODUCT_CASES)
def test_tensor_matches_the_fold_bit_for_bit_cold_and_cached(rng, case):
    states, _ = _product_case(rng, case)
    for a, b in zip(states, states[1:]):
        joint = make_basis(a.basis.modes + b.basis.modes, max(s.basis.cutoff for s in states))
        expected = fold_tensor_all([a, b], joint, tail_tol=1.0)
        pel.fock._product_plan.cache_clear()
        for _ in range(2):
            got = tensor(a, b, joint, tail_tol=1.0)
            assert np.array_equal(_bits(got.elements), _bits(expected.elements))
            assert got.tail.hex() == expected.tail.hex()


@pytest.mark.parametrize("case,truncating", [
    ("coherent", 3), ("multimode", 2), ("second-step", 1), ("short-factors", 2),
])
def test_tensor_all_refuses_at_the_fold_step_with_its_message(rng, case, truncating):
    # from a zero tolerance up, each just above the weight refused last,
    # the fold and tensor_all refuse together with the same message until
    # both return the same state: each step that truncates refuses once
    states, joint = _product_case(rng, case)
    if case == "second-step":
        first = make_basis(2, joint.cutoff)
        assert fold_tensor_all(states[:2], first, tail_tol=0.0).tail == 0.0
    messages, tail_tol = [], 0.0
    while len(messages) <= truncating:
        pel.fock._product_plan.cache_clear()
        try:
            expected = fold_tensor_all(states, joint, tail_tol=tail_tol)
        except TruncationError as reference:
            for _ in range(2):
                with pytest.raises(TruncationError) as raised:
                    pel.tensor_all(states, joint, tail_tol=tail_tol)
                assert str(raised.value) == str(reference)
            messages.append(str(reference))
            tail_tol = float(str(reference).split()[5]) * (1.0 + 1e-5)
            continue
        for _ in range(2):
            got = pel.tensor_all(states, joint, tail_tol=tail_tol)
            assert np.array_equal(_bits(got.elements), _bits(expected.elements))
            assert got.tail.hex() == expected.tail.hex()
        break
    assert len(messages) == truncating, messages


@pytest.mark.parametrize("modes", [2, 3, 4])
def test_partial_trace_cold_and_cached_match_the_loop_reference(rng, modes):
    basis = make_basis(modes, 6)
    rho = random_density(rng, basis)
    before = _bits(rho.elements).copy()
    rows = np.arange(basis.dimension)
    for size in range(1, modes):
        for keep in itertools.combinations(range(modes), size):
            pel.fock._trace_plan.cache_clear()
            for _ in range(2):
                got = partial_trace(rho, keep)
                expected = DensityMatrix(
                    got.basis, loop_trace_out(rho, rows, keep, got.basis)
                )
                assert np.array_equal(_bits(got.elements), _bits(expected.elements)), keep
            assert pel.fock._trace_plan.cache_info()[:2] == (1, 1)
    assert np.array_equal(_bits(rho.elements), before)


# --- eigenvalues ---------------------------------------------------------------

def test_min_eigenvalue_diagonal():
    assert min_eigenvalue(np.diag([0.3, 0.7])) == pytest.approx(0.3, abs=1e-14)


def test_min_eigenvalue_pauli_x():
    assert min_eigenvalue(np.array([[0, 1], [1, 0]], dtype=float)) == pytest.approx(
        -1.0, abs=1e-12
    )


def test_min_eigenvalue_against_inertia_oracle(rng):
    for _ in range(5):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = (a + a.conj().T) / 2.0
        assert min_eigenvalue(h) == pytest.approx(
            inertia_min_eigenvalue(h), abs=1e-8
        )


def test_min_eigenvalue_rejects_non_hermitian(rng):
    with pytest.raises(ContractViolation):
        min_eigenvalue(rng.standard_normal((3, 3)) + np.triu(np.ones((3, 3)), 1))


def test_trace_distance():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-14)
    assert trace_distance(a, a) == 0.0


def test_numerical_support(rng):
    b = make_basis(1, 6)
    rho = random_density(rng, b, support=3)
    assert rho.numerical_support() == 3
