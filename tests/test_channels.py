import functools
import itertools
import math

import numpy as np
import pytest

import pel
from pel import (
    Coherent,
    DensityMatrix,
    Isps,
    Fock,
    LindbladParams,
    LossChannel,
    apply_loss,
    apply_loss_lindblad,
    bernoulli_diagonal,
    invert_loss,
    kraus_operators,
    make_basis,
    make_state,
    min_eigenvalue,
    trace_distance,
)
from pel.errors import ConditioningError, ContractViolation

from conftest import random_density


def test_channel_validates_transmissivity():
    with pytest.raises(ContractViolation):
        LossChannel(0.0)
    with pytest.raises(ContractViolation):
        LossChannel(1.5)


@pytest.mark.parametrize(
    "modes,message",
    [((0, 0), "twice"), ((1.5,), "integers"), ((-1,), "outside"), ((5,), "outside")],
)
def test_loss_and_lindblad_share_the_mode_check(rng, modes, message):
    # a repeated mode would apply p twice; the channel refuses it when built
    rho = random_density(rng, make_basis(2, 2))
    with pytest.raises(ContractViolation, match=message):
        apply_loss(rho, LossChannel(0.5, modes=modes))
    with pytest.raises(ContractViolation, match=message):
        apply_loss_lindblad(
            rho, LindbladParams.for_transmissivity(0.5, cutoff=2), modes=modes
        )


def test_lindblad_on_one_mode_matches_kraus(rng):
    rho = random_density(rng, make_basis(2, 3))
    kraus = apply_loss(rho, LossChannel(0.7, modes=(1,)))
    lind = apply_loss_lindblad(
        rho, LindbladParams.for_transmissivity(0.7, cutoff=3), modes=(1,)
    )
    assert np.abs(kraus.elements - lind.elements).max() < 1e-7


def test_single_photon_through_loss():
    rho = apply_loss(make_state(Isps(1.0), make_basis(1, 3)), LossChannel(0.6))
    assert np.allclose(rho.diagonal(), [0.4, 0.6, 0.0, 0.0], atol=1e-14)


def test_two_photon_binomial():
    rho = apply_loss(make_state(Fock(2), make_basis(1, 4)), LossChannel(0.5))
    assert np.allclose(rho.diagonal()[:3], [0.25, 0.5, 0.25], atol=1e-14)


def test_coherent_states_stay_coherent_under_loss():
    # amplitudes small enough that the truncation amplitude sits below 1e-9
    basis = make_basis(1, 16)
    before = make_state(Coherent(0.5), basis)
    after = apply_loss(before, LossChannel(0.5))
    target = make_state(Coherent(0.5 * math.sqrt(0.5)), basis)
    assert trace_distance(after, target) < 1e-9


@pytest.mark.parametrize("p", [0.3, 0.55, 0.9, 1.0])
def test_kraus_completeness(p):
    ops = kraus_operators(p, 9)
    total = sum(k.conj().T @ k for k in ops)
    assert np.abs(total - np.eye(9)).max() < 1e-12


def test_trace_preservation(rng):
    basis = make_basis(2, 4)
    rho = random_density(rng, basis)
    out = apply_loss(rho, LossChannel(0.37))
    assert abs(out.trace - rho.trace) < 1e-12


def test_diagonal_action_is_bernoulli(rng):
    basis = make_basis(1, 7)
    rho = random_density(rng, basis)
    p = 0.42
    out = apply_loss(rho, LossChannel(p))
    assert np.abs(out.diagonal() - bernoulli_diagonal(rho.diagonal(), p)).max() < 1e-13


def test_semigroup(rng):
    basis = make_basis(1, 6)
    for _ in range(5):
        rho = random_density(rng, basis)
        p, q = rng.uniform(0.3, 1.0, size=2)
        a = apply_loss(apply_loss(rho, LossChannel(q)), LossChannel(p))
        b = apply_loss(rho, LossChannel(p * q))
        assert np.abs(a.elements - b.elements).max() < 1e-10


def test_modewise_application_commutes(rng):
    basis = make_basis(2, 4)
    rho = random_density(rng, basis)
    one_then_two = apply_loss(
        apply_loss(rho, LossChannel(0.5, modes=(0,))), LossChannel(0.5, modes=(1,))
    )
    two_then_one = apply_loss(
        apply_loss(rho, LossChannel(0.5, modes=(1,))), LossChannel(0.5, modes=(0,))
    )
    both = apply_loss(rho, LossChannel(0.5))
    assert np.abs(one_then_two.elements - two_then_one.elements).max() < 1e-13
    assert np.abs(one_then_two.elements - both.elements).max() < 1e-13


# --- Lindblad oracle -----------------------------------------------------------

def test_lindblad_zero_time_is_identity(rng):
    basis = make_basis(1, 5)
    rho = random_density(rng, basis)
    out = apply_loss_lindblad(rho, LindbladParams(kappa=1.0, t0=0.0, steps=10))
    assert np.abs(out.elements - rho.elements).max() == 0.0


def test_lindblad_at_cutoff_zero_keeps_vacuum():
    # no basis state can lose a photon, so the integrator has no jump term
    rho = DensityMatrix(make_basis(2, 0), np.ones((1, 1)))
    out = apply_loss_lindblad(rho, LindbladParams.for_transmissivity(0.5, cutoff=0))
    assert np.abs(out.elements - rho.elements).max() == 0.0


def test_lindblad_single_photon():
    rho = make_state(Isps(1.0), make_basis(1, 3))
    params = LindbladParams.for_transmissivity(0.6, cutoff=3)
    out = apply_loss_lindblad(rho, params)
    assert np.abs(out.diagonal()[:2] - np.array([0.4, 0.6])).max() < 1e-7


def test_lindblad_two_photon():
    rho = make_state(Fock(2), make_basis(1, 4))
    params = LindbladParams.for_transmissivity(0.5, cutoff=4)
    out = apply_loss_lindblad(rho, params)
    assert np.abs(out.diagonal()[:3] - np.array([0.25, 0.5, 0.25])).max() < 1e-7


@pytest.mark.parametrize("p", [0.3, 0.6, 0.9])
def test_kraus_matches_lindblad(rng, p):
    basis = make_basis(1, 6)
    rho = random_density(rng, basis)
    kraus = apply_loss(rho, LossChannel(p))
    lind = apply_loss_lindblad(rho, LindbladParams.for_transmissivity(p, basis.cutoff))
    assert np.abs(kraus.elements - lind.elements).max() < 1e-7


def test_lindblad_warns_on_coarse_steps(rng):
    basis = make_basis(1, 4)
    rho = random_density(rng, basis)
    with pytest.warns(UserWarning, match="steps"):
        apply_loss_lindblad(rho, LindbladParams(kappa=1.0, t0=1.0, steps=8))


def test_lindblad_multimode_matches_kraus(rng):
    basis = make_basis(2, 3)
    rho = random_density(rng, basis)
    p = 0.55
    kraus = apply_loss(rho, LossChannel(p))
    lind = apply_loss_lindblad(rho, LindbladParams.for_transmissivity(p, basis.cutoff))
    assert np.abs(kraus.elements - lind.elements).max() < 1e-7


# --- inverse -------------------------------------------------------------------

def test_invert_forward_example():
    rho = make_state(Isps(0.6), make_basis(1, 3))
    pre = invert_loss(rho, LossChannel(0.6))
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert np.abs(pre - expected).max() < 1e-12


def test_invert_infeasible_example():
    rho = make_state(Isps(0.7), make_basis(1, 3))
    pre = invert_loss(rho, LossChannel(0.5))
    assert np.allclose(np.diag(pre).real[:2], [-0.4, 1.4], atol=1e-12)
    assert abs(np.trace(pre).real - 1.0) < 1e-12
    assert min_eigenvalue(pre) == pytest.approx(-0.4, abs=1e-12)
    # the preimage is not PSD, yet loss maps it back onto the state exactly
    forward = apply_loss(DensityMatrix(rho.basis, pre), LossChannel(0.5))
    assert np.abs(forward.elements - rho.elements).max() < 1e-12


def test_invert_round_trip(rng):
    basis = make_basis(1, 8)
    for _ in range(5):
        rho = random_density(rng, basis, support=6)
        q = float(rng.uniform(0.35, 0.95))
        lossy = apply_loss(rho, LossChannel(q))
        back = invert_loss(lossy, LossChannel(q))
        assert np.abs(back - rho.elements).max() < 1e-9


@pytest.mark.parametrize(
    "channel",
    [LossChannel(0.6), LossChannel(0.6, modes=(1,))],
    ids=["all-modes", "mode-1"],
)
def test_invert_round_trip_two_modes(rng, channel):
    basis = make_basis(2, 4)
    rho = random_density(rng, basis)
    lossy = apply_loss(rho, channel)
    back = invert_loss(lossy, channel)
    assert np.abs(back - rho.elements).max() < 1e-9


def test_invert_conditioning_guard(rng):
    basis = make_basis(1, 8)
    rho = random_density(rng, basis, support=8)
    with pytest.raises(ConditioningError, match="amplifies"):
        invert_loss(rho, LossChannel(0.01))


def test_invert_preserves_trace(rng):
    basis = make_basis(1, 6)
    rho = random_density(rng, basis, support=4)
    pre = invert_loss(rho, LossChannel(0.5))
    assert abs(np.trace(pre).real - 1.0) < 1e-10


def test_loss_never_raises_support(rng):
    basis = make_basis(1, 6)
    rho = random_density(rng, basis, support=3)
    out = apply_loss(rho, LossChannel(0.4))
    assert out.numerical_support() <= 3


# --- the one-pass kernel against an independent Kraus sum ---------------------

def kraus_product_loss(rho, p, acted):
    """Loss on the ``acted`` modes as the sum over products of single-mode
    Kraus operators, each product built with ``np.kron`` on the untruncated
    space of cutoff + 1 levels per mode, then restricted to the graded basis."""
    basis = rho.basis
    levels = basis.cutoff + 1
    identity = np.eye(levels)
    families = [
        kraus_operators(p, levels) if mode in acted else [identity]
        for mode in range(basis.modes)
    ]
    # position of each graded basis index in the product space, mode 0 slowest
    place = basis.occupations @ levels ** np.arange(basis.modes)[::-1]
    full = np.zeros((levels**basis.modes,) * 2, dtype=complex)
    full[np.ix_(place, place)] = rho.elements
    out = np.zeros_like(full)
    for ops in itertools.product(*families):
        k = functools.reduce(np.kron, ops)
        out += k @ full @ k.conj().T
    return out[np.ix_(place, place)]


LOSS_CASES = [
    (modes, cutoff, acted)
    for modes, cutoff in [(2, 4), (3, 3)]
    for acted in [(0,), (1,), (0, 2), None]
    if acted is None or max(acted) < modes
]


@pytest.mark.parametrize("p", [0.3, 0.8])
@pytest.mark.parametrize("modes,cutoff,acted", LOSS_CASES)
def test_loss_matches_the_kraus_product(rng, modes, cutoff, acted, p):
    rho = random_density(rng, make_basis(modes, cutoff))
    channel = LossChannel(p, modes=acted)
    out = apply_loss(rho, channel).elements
    expected = kraus_product_loss(rho, p, channel.acted_modes(modes))
    assert np.abs(out - expected).max() < 1e-13
    # the lower triangle mirrors the upper one, so no symmetrising is needed
    assert np.array_equal(out, out.conj().T)


@pytest.mark.parametrize("modes,cutoff,acted", LOSS_CASES)
def test_invert_round_trips_each_subset_channel(rng, modes, cutoff, acted):
    rho = random_density(rng, make_basis(modes, cutoff))
    channel = LossChannel(0.8, modes=acted)
    back = invert_loss(apply_loss(rho, channel), channel)
    assert np.abs(back - rho.elements).max() < 1e-10
    assert np.array_equal(back, back.conj().T)


def test_loss_on_no_mode_is_the_identity(rng):
    rho = random_density(rng, make_basis(3, 3))
    out = apply_loss(rho, LossChannel(0.4, modes=()))
    assert np.array_equal(out.elements, rho.elements)


def test_lindblad_on_two_of_three_modes_matches_kraus(rng):
    # the jump terms of two acted modes, each from the plan and its transposes
    rho = random_density(rng, make_basis(3, 2))
    p = 0.65
    kraus = apply_loss(rho, LossChannel(p, modes=(0, 2)))
    lind = apply_loss_lindblad(
        rho, LindbladParams.for_transmissivity(p, cutoff=2), modes=(0, 2)
    )
    assert np.abs(kraus.elements - lind.elements).max() < 1e-7
