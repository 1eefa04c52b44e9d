import itertools
import math

import numpy as np
import pytest

import pel
from pel import (
    Coherent,
    ModeUnitary,
    apply_interferometer,
    decompose,
    from_mesh,
    haar_random,
    lift,
    make_basis,
    make_state,
    mesh_layout,
    mesh_param_count,
    tensor_all,
    trace_distance,
)
from pel.errors import ArityError, ContractViolation

from conftest import generator_lift, random_density


# --- sampling and parametrization ---------------------------------------------

def test_haar_is_deterministic_given_seed():
    a = haar_random(3, seed=5)
    b = haar_random(3, seed=5)
    assert np.array_equal(a.matrix, b.matrix)


def test_haar_single_mode_is_phase():
    u = haar_random(1, seed=9)
    assert abs(abs(u.matrix[0, 0]) - 1.0) < 1e-12


def test_haar_unitary(rng):
    for m in (2, 3, 5):
        u = haar_random(m, rng)
        assert np.abs(u.matrix.conj().T @ u.matrix - np.eye(m)).max() < 1e-12


def test_haar_first_moment():
    # Monte-Carlo check of E|U_00|^2 = 1/M; Var=(M-1)/(M^2(M+1)) gives sigma
    modes, samples = 3, 10_000
    rng = np.random.default_rng(123)
    values = [abs(haar_random(modes, rng).matrix[0, 0]) ** 2 for _ in range(samples)]
    sigma = math.sqrt((modes - 1) / (modes**2 * (modes + 1)) / samples)
    assert abs(np.mean(values) - 1.0 / modes) < 3.0 * sigma


def test_mesh_layout_counts():
    for m in range(1, 7):
        layout = mesh_layout(m)
        assert len(layout) == m * (m - 1) // 2
        assert mesh_param_count(m) == m * (m - 1) + m


def test_from_mesh_identity():
    u = from_mesh([0.0] * mesh_param_count(4), 4)
    assert np.abs(u.matrix - np.eye(4)).max() == 0.0


def test_from_mesh_balanced_coupler():
    u = from_mesh([math.pi / 4, 0.0, 0.0, 0.0], 2)
    assert np.abs(np.abs(u.matrix) - 1.0 / math.sqrt(2.0)).max() < 1e-12


def test_from_mesh_arity():
    with pytest.raises(ArityError, match="parameters"):
        from_mesh([0.0] * 5, 2)


@pytest.mark.parametrize("modes", [1, 2, 3, 4, 5, 6])
def test_decompose_round_trip(modes):
    for seed in range(3):
        u = haar_random(modes, seed=seed)
        rebuilt = from_mesh(decompose(u), modes)
        assert np.abs(rebuilt.matrix - u.matrix).max() < 1e-10


def test_parametrization_reconstructs_matrix(rng):
    params = rng.uniform(-math.pi, math.pi, size=mesh_param_count(3))
    u = from_mesh(params, 3)
    again = from_mesh(u.params, 3)
    assert np.abs(again.matrix - u.matrix).max() < 1e-10


def test_mode_unitary_rejects_non_unitary():
    with pytest.raises(ContractViolation, match="unitary"):
        ModeUnitary(np.ones((2, 2)))


# --- Fock lift -----------------------------------------------------------------

def test_lift_identity():
    basis = make_basis(2, 3)
    lifted = lift(from_mesh([0.0] * mesh_param_count(2), 2), basis)
    assert np.abs(lifted.matrix() - np.eye(basis.dimension)).max() < 1e-12


def test_lift_trivial_blocks(rng):
    basis = make_basis(3, 3)
    u = haar_random(3, rng)
    lifted = lift(u, basis)
    assert lifted.blocks[0].shape == (1, 1)
    assert abs(lifted.blocks[0][0, 0] - 1.0) < 1e-12
    # one-photon block is U itself once indices are mapped to modes
    sl = basis.block(1)
    modes_of = [basis.occupation_of(i).index(1) for i in range(sl.start, sl.stop)]
    block = lifted.blocks[1]
    for a in range(3):
        for b in range(3):
            assert abs(block[a, b] - u.matrix[modes_of[a], modes_of[b]]) < 1e-10


def test_lift_hong_ou_mandel():
    basis = make_basis(2, 2)
    u = from_mesh([math.pi / 4, 0.0, 0.0, 0.0], 2)
    vec = np.zeros(basis.dimension, dtype=complex)
    vec[basis.index_of((1, 1))] = 1.0
    out = lift(u, basis).matrix() @ vec
    amp02 = out[basis.index_of((0, 2))]
    amp20 = out[basis.index_of((2, 0))]
    amp11 = out[basis.index_of((1, 1))]
    # signs fixed by the documented rotation convention
    assert abs(amp02 - 1.0 / math.sqrt(2.0)) < 1e-12
    assert abs(amp20 + 1.0 / math.sqrt(2.0)) < 1e-12
    assert abs(amp11) < 1e-12


@pytest.mark.parametrize("modes,cutoff", [(2, 5), (3, 4), (4, 3)])
def test_lift_methods_agree(modes, cutoff):
    basis = make_basis(modes, cutoff)
    u = haar_random(modes, seed=modes + cutoff)
    mesh_blocks = lift(u, basis, "mesh").blocks
    perm_blocks = lift(u, basis, "permanent").blocks
    worst = max(np.abs(a - b).max() for a, b in zip(mesh_blocks, perm_blocks))
    assert worst < 1e-9


@pytest.mark.parametrize("modes,cutoff", [(2, 5), (3, 4), (4, 3), (4, 6), (5, 4)])
def test_ladder_lift_matches_the_permanent_and_mesh_lifts(rng, modes, cutoff):
    basis = make_basis(modes, cutoff)
    params = rng.uniform(-math.pi, math.pi, mesh_param_count(modes))
    for u in (haar_random(modes, rng), from_mesh(params, modes)):
        ladder = lift(u, basis).blocks
        assert len(ladder) == cutoff + 1
        for method in ("permanent", "mesh"):
            other = lift(u, basis, method).blocks
            assert max(np.abs(a - b).max() for a, b in zip(ladder, other)) < 1e-12


@pytest.mark.parametrize("modes,cutoff", [(3, 4), (4, 6), (4, 10), (3, 12)])
def test_ladder_lift_matches_the_one_body_generator(rng, modes, cutoff):
    # at (4, 10) and (3, 12) the permanent lift is itself off by 1e-11 to
    # 1e-10, so only an oracle without Ryser sums can hold the ladder there
    basis = make_basis(modes, cutoff)
    params = rng.uniform(-math.pi, math.pi, mesh_param_count(modes))
    for u in (haar_random(modes, rng), from_mesh(params, modes)):
        ladder = lift(u, basis).blocks
        oracle = generator_lift(u, basis)
        assert max(np.abs(a - b).max() for a, b in zip(ladder, oracle)) < 1e-12


def test_apply_interferometer_runs_neither_the_mesh_kernel_nor_decompose(
        monkeypatch, rng):
    calls = dict.fromkeys(("apply_mesh_to_vectors", "decompose"), 0)
    for name in calls:
        def counted(*args, _name=name, _original=getattr(pel.interferometer, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(pel.interferometer, name, counted)
    basis = make_basis(3, 3)
    rho = random_density(rng, basis)
    params = rng.uniform(-math.pi, math.pi, mesh_param_count(3))
    for u in (haar_random(3, rng), from_mesh(params, 3)):
        apply_interferometer(rho, u)
    assert calls == {"apply_mesh_to_vectors": 0, "decompose": 0}
    # the counters do see the mesh lift of a Haar U, which runs both
    lift(haar_random(3, rng), basis, "mesh")
    assert calls == {"apply_mesh_to_vectors": 1, "decompose": 1}


def brute_force_permanent(mat):
    """sum over permutations s of prod_i mat[i, s(i)]."""
    n = mat.shape[0]
    return sum(
        math.prod(mat[i, s[i]] for i in range(n))
        for s in itertools.permutations(range(n))
    )


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_ryser_matches_the_permutation_sum(rng, n):
    mats = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
    if n >= 2:
        # a repeated row and a repeated column, as in multi-photon occupations
        mats[1, 1] = mats[1, 0]
        mats[2, :, 1] = mats[2, :, 0]
        mats[3] = np.repeat(mats[3, :1], n, axis=0)[:, [0] * n]
    got = pel.interferometer._permanents(mats)
    assert got.shape == (6,)
    for mat, value in zip(mats, got):
        assert abs(value - brute_force_permanent(mat)) < 1e-12 * max(1.0, abs(value))


def test_ryser_of_a_constant_matrix():
    # every term of the permutation sum is c^n, so perm = n! c^n
    mat = np.full((5, 5), 0.5 - 0.25j)
    expected = math.factorial(5) * (0.5 - 0.25j) ** 5
    assert abs(pel.interferometer._permanents(mat) - expected) < 1e-13


def test_permanent_lift_in_one_row_chunks(monkeypatch):
    basis = make_basis(3, 4)
    u = haar_random(3, seed=11)
    whole = lift(u, basis, "permanent").matrix()
    monkeypatch.setattr(pel.interferometer, "_PERMANENT_CHUNK", 1)
    chunked = lift(u, basis, "permanent").matrix()
    assert np.abs(chunked - whole).max() < 1e-14


def test_batched_mesh_matches_single_calls(rng):
    basis = make_basis(3, 3)
    params = rng.uniform(-math.pi, math.pi, (4, mesh_param_count(3)))
    vectors = (rng.standard_normal((4, basis.dimension, 2))
               + 1j * rng.standard_normal((4, basis.dimension, 2)))
    batched = vectors.copy()
    pel.interferometer.apply_mesh_to_vectors(batched, params, 3, basis)
    for row in range(params.shape[0]):
        single = vectors[row : row + 1].copy()
        pel.interferometer.apply_mesh_to_vectors(single, params[row : row + 1], 3, basis)
        assert np.array_equal(batched[row], single[0])
    with pytest.raises(ArityError):
        pel.interferometer.apply_mesh_to_vectors(vectors, params[0], 3, basis)


def test_mesh_action_refuses_a_basis_it_does_not_fit(rng):
    params = rng.uniform(-math.pi, math.pi, (1, mesh_param_count(2)))
    basis = make_basis(3, 2)
    vectors = np.zeros((1, basis.dimension, 1), dtype=complex)
    # a 2-mode mesh, even the identity, on a 3-mode basis
    for mesh in (params, np.zeros_like(params)):
        with pytest.raises(ContractViolation):
            pel.interferometer.apply_mesh_to_vectors(vectors, mesh, 2, basis)
    # one vector row more than the basis has
    mesh = rng.uniform(-math.pi, math.pi, (1, mesh_param_count(3)))
    longer = np.zeros((1, basis.dimension + 1, 1), dtype=complex)
    with pytest.raises(ContractViolation):
        pel.interferometer.apply_mesh_to_vectors(longer, mesh, 3, basis)


def test_lift_blocks_unitary(rng):
    basis = make_basis(3, 5)
    lifted = lift(haar_random(3, rng), basis)
    for block in lifted.blocks:
        assert np.abs(block.conj().T @ block - np.eye(block.shape[0])).max() < 1e-10


def test_lift_composition_homomorphism(rng):
    basis = make_basis(3, 4)
    u1 = haar_random(3, rng)
    u2 = haar_random(3, rng)
    combined = lift(ModeUnitary(u1.matrix @ u2.matrix), basis).matrix()
    composed = lift(u1, basis).matrix() @ lift(u2, basis).matrix()
    assert np.abs(combined - composed).max() < 1e-9


# --- state evolution -------------------------------------------------------------

def test_vacuum_is_fixed(rng):
    basis = make_basis(3, 3)
    single = make_basis(1, 3)
    vac = tensor_all([make_state(Coherent(0.0), single)] * 3, basis)
    out = apply_interferometer(vac, haar_random(3, rng))
    assert np.abs(out.elements - vac.elements).max() < 1e-12


def test_coherent_amplitudes_transform_linearly(rng):
    basis = make_basis(2, 14)
    single = make_basis(1, 14)
    alphas = np.array([0.4 + 0.1j, -0.3 + 0.2j])
    states = [make_state(Coherent(a), single) for a in alphas]
    rho = tensor_all(states, basis, tail_tol=1e-9)
    u = haar_random(2, rng)
    out = apply_interferometer(rho, u)
    target_amps = u.matrix @ alphas
    target = tensor_all(
        [make_state(Coherent(a), single) for a in target_amps], basis, tail_tol=1e-9
    )
    assert trace_distance(out, target) < 1e-8


@pytest.mark.parametrize("modes,cutoff", [(2, 4), (3, 4), (4, 3)])
def test_apply_interferometer_matches_the_permanent_lift(rng, modes, cutoff):
    # V rho V^dag with V from the permanent formula, which shares no code
    # with the creation-operator ladder that apply_interferometer runs
    basis = make_basis(modes, cutoff)
    params = rng.uniform(-math.pi, math.pi, mesh_param_count(modes))
    for u in (haar_random(modes, rng), haar_random(modes, rng), from_mesh(params, modes)):
        rho = random_density(rng, basis)
        v = lift(u, basis, "permanent").matrix()
        out = apply_interferometer(rho, u)
        assert np.abs(out.elements - v @ rho.elements @ v.conj().T).max() < 1e-12


def test_total_photon_distribution_preserved(rng):
    basis = make_basis(3, 4)
    rho = random_density(rng, basis)
    out = apply_interferometer(rho, haar_random(3, rng))
    assert np.abs(
        out.total_photon_distribution() - rho.total_photon_distribution()
    ).max() < 1e-12
    assert abs(out.trace - rho.trace) < 1e-12


def test_commutation_with_equal_loss(rng):
    # the enabling lemma on a couple of random instances
    from pel import LossChannel, apply_loss

    basis = make_basis(2, 5)
    rho = random_density(rng, basis)
    u = haar_random(2, rng)
    ch = LossChannel(0.55)
    a = apply_loss(apply_interferometer(rho, u), ch)
    b = apply_interferometer(apply_loss(rho, ch), u)
    assert trace_distance(a, b) < 1e-10


# --- the output diagonal and the block triangle ----------------------------------

def _product_with_a_coherent_factor():
    # |alpha|^2 = 0.29 leaves a tail of about 2e-7 above cutoff 6
    single = make_basis(1, 6)
    states = [make_state(pel.Isps(0.6), single),
              make_state(Coherent(0.5 + 0.2j), single, tail_tol=1e-5),
              make_state(pel.Fock(1), single)]
    return tensor_all(states, make_basis(3, 6), tail_tol=1e-5)


@pytest.mark.parametrize("modes,cutoff", [(2, 5), (3, 4), (4, 6), (5, 4), (None, None)])
def test_output_diagonal_is_the_diagonal_of_the_full_output(rng, modes, cutoff):
    if modes is None:
        rho = _product_with_a_coherent_factor()
        assert rho.tail > 1e-8
    else:
        rho = random_density(rng, make_basis(modes, cutoff))
    m = rho.basis.modes
    params = rng.uniform(-math.pi, math.pi, mesh_param_count(m))
    for u in (haar_random(m, rng), from_mesh(params, m)):
        full = apply_interferometer(rho, u).elements.diagonal().real
        diagonal = pel.output_diagonal(rho, u)
        assert diagonal.shape == full.shape
        assert np.abs(diagonal - full).max() < 1e-14


def test_output_diagonal_refuses_what_the_density_matrix_refuses(monkeypatch, rng):
    basis = make_basis(3, 3)
    rho = random_density(rng, basis)
    u = haar_random(3, rng)
    with pytest.raises(ContractViolation, match="unitary has 2 modes"):
        pel.output_diagonal(rho, haar_random(2, rng))
    original = pel.interferometer._ladder_blocks
    # a lift that is not unitary moves the trace, and a NaN reaches the
    # sum; the full output's DensityMatrix refuses both alike
    for scale, message in ((1.001, "unit trace"), (math.nan, "non-finite")):
        def scaled(*args, _scale=scale):
            blocks = original(*args)
            blocks[-1] = blocks[-1] * _scale
            return blocks
        monkeypatch.setattr(pel.interferometer, "_ladder_blocks", scaled)
        with pytest.raises(ContractViolation, match=message):
            pel.output_diagonal(rho, u)
        with pytest.raises(ContractViolation, match=message):
            apply_interferometer(rho, u)


@pytest.mark.parametrize("modes,cutoff", [(2, 5), (3, 6), (4, 6), (5, 4)])
def test_apply_interferometer_fills_the_lower_blocks_by_the_conjugate_transpose(
        rng, modes, cutoff):
    # blocks below the diagonal are copies, so the result is Hermitian bit
    # for bit, and it stays the two-sided product of the whole lift
    basis = make_basis(modes, cutoff)
    rho = random_density(rng, basis)
    u = haar_random(modes, rng)
    out = apply_interferometer(rho, u).elements
    assert np.array_equal(out, out.conj().T)
    v = generator_lift(u, basis)
    full = np.zeros((basis.dimension,) * 2, dtype=complex)
    for sl, block in zip(basis.block_slices, v):
        full[sl, sl] = block
    assert np.abs(out - full @ rho.elements @ full.conj().T).max() < 1e-12


#: every shape at which a test of this suite, demos/02_interferometers.py or
#: the benchmark's lift job compares against the permanent lift
_PERMANENT_ORACLE_SHAPES = [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3), (4, 6), (5, 4)]


@pytest.mark.parametrize("modes,cutoff", _PERMANENT_ORACLE_SHAPES)
def test_permanent_lift_is_unitary_where_it_serves_as_the_oracle(rng, modes, cutoff):
    basis = make_basis(modes, cutoff)
    params = rng.uniform(-math.pi, math.pi, mesh_param_count(modes))
    for u in (haar_random(modes, rng), from_mesh(params, modes)):
        for block in lift(u, basis, "permanent").blocks:
            assert np.abs(block.conj().T @ block - np.eye(block.shape[0])).max() < 1e-12


def test_permanent_lift_refuses_a_photon_number_beyond_its_range():
    # two modes at cutoff 12: the Ryser sums of the top blocks are off by
    # about 1e-10, so the oracle says so instead of checking at 1e-12
    with pytest.raises(ContractViolation, match="only up to about 8 photons"):
        lift(haar_random(2, seed=1), make_basis(2, 12), "permanent")
