import math

import numpy as np
import pytest

import pel
from pel import (
    Coherent,
    DensityMatrix,
    Fock,
    Isps,
    LossChannel,
    MeasurementPattern,
    apply_interferometer,
    apply_loss,
    condition,
    from_mesh,
    make_basis,
    make_state,
    min_eigenvalue,
    multiphoton_weight,
    outcome_probability,
    partial_trace,
    single_photon_probability,
    tensor_all,
)
from pel.errors import ContractViolation, HeraldImpossibleError

from conftest import loop_trace_out, random_density


def two_mode(specs, cutoff=3):
    single = make_basis(1, cutoff)
    return tensor_all(
        [make_state(s, single) for s in specs], make_basis(2, cutoff)
    )


def test_pattern_validation():
    with pytest.raises(ContractViolation, match="surviving"):
        MeasurementPattern({0: 0, 1: 0}).validate(make_basis(2, 2))
    with pytest.raises(ContractViolation, match="range"):
        MeasurementPattern({5: 0}).validate(make_basis(2, 2))
    with pytest.raises(ContractViolation, match="negative"):
        MeasurementPattern({1: -1})


def test_vacuum_detection_certain():
    rho = two_mode([Coherent(0.0), Coherent(0.0)])
    assert outcome_probability(rho, MeasurementPattern({1: 0})) == pytest.approx(1.0)


def test_isps_identity_detection():
    rho = two_mode([Isps(0.7), Coherent(0.0)])
    assert outcome_probability(rho, MeasurementPattern({0: 1})) == pytest.approx(
        0.7, abs=1e-12
    )


def hom_state():
    rho = two_mode([Fock(1), Fock(1)], cutoff=2)
    u = from_mesh([math.pi / 4, 0.0, 0.0, 0.0], 2)
    return apply_interferometer(rho, u)


def test_hom_bunching_probability():
    assert outcome_probability(hom_state(), MeasurementPattern({1: 0})) == pytest.approx(
        0.5, abs=1e-12
    )


def test_hom_heralds_two_photon_state():
    survivor, prob = condition(hom_state(), MeasurementPattern({1: 0}))
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert survivor.basis.modes == 1
    assert survivor.diagonal()[2] == pytest.approx(1.0, abs=1e-12)
    assert single_photon_probability(survivor) == pytest.approx(0.0, abs=1e-12)
    assert multiphoton_weight(survivor) == pytest.approx(1.0, abs=1e-12)


def test_condition_identity_vacuum_herald():
    rho = two_mode([Isps(0.4), Coherent(0.0)])
    survivor, prob = condition(rho, MeasurementPattern({1: 0}))
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(survivor.diagonal()[:2], [0.6, 0.4], atol=1e-12)


def test_wildcard_equals_partial_trace(rng):
    joint = make_basis(2, 3)
    rho = random_density(rng, joint)
    survivor, prob = condition(rho, MeasurementPattern({1: None}))
    assert prob == pytest.approx(1.0, abs=1e-12)
    reduced = partial_trace(rho, [0])
    assert np.abs(survivor.elements - reduced.elements).max() < 1e-12


def test_wildcard_with_counted_mode(rng):
    # wildcard discards a mode while another is counted: probabilities add up
    joint = make_basis(3, 3)
    rho = random_density(rng, joint)
    total = 0.0
    for count in range(4):
        total += outcome_probability(
            rho, MeasurementPattern({1: count, 2: None})
        )
    assert total == pytest.approx(1.0, abs=1e-10)


def test_outcomes_sum_to_one(rng):
    joint = make_basis(2, 4)
    rho = random_density(rng, joint)
    total = sum(
        outcome_probability(rho, MeasurementPattern({1: c})) for c in range(5)
    )
    assert total == pytest.approx(1.0, abs=1e-10)


def test_condition_probability_matches_outcome_probability(rng):
    joint = make_basis(2, 4)
    rho = random_density(rng, joint)
    pattern = MeasurementPattern({1: 1})
    _, prob = condition(rho, pattern)
    assert prob == outcome_probability(rho, pattern)


def test_conditional_states_are_valid(rng):
    joint = make_basis(3, 3)
    for _ in range(4):
        rho = random_density(rng, joint)
        for counts in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            pattern = MeasurementPattern({1: counts[0], 2: counts[1]})
            try:
                survivor, prob = condition(rho, pattern)
            except HeraldImpossibleError:
                continue
            assert abs(survivor.trace - 1.0) < 1e-10
            assert min_eigenvalue(survivor) >= -1e-10


@pytest.mark.parametrize("modes,outcomes", [
    (3, {1: 1, 2: None}),
    (3, {0: None, 2: 0}),
    (3, {1: 2}),
    (4, {1: 1, 2: None, 3: 0}),
    (4, {0: 0, 3: None}),
    (4, {2: None}),
    (4, {1: 0, 2: 1, 3: 1}),
])
def test_condition_matches_the_loop_reference_bit_for_bit(rng, modes, outcomes):
    basis = make_basis(modes, 6)
    rho = random_density(rng, basis)
    pattern = MeasurementPattern(outcomes)
    survivor, prob = condition(rho, pattern)
    selected = np.ones(basis.dimension, dtype=bool)
    for mode, count in pattern.counted:
        selected &= basis.occupations[:, mode] == count
    rows = np.flatnonzero(selected)
    keep = tuple(m for m in range(modes) if m not in outcomes)
    elements = loop_trace_out(rho, rows, keep, survivor.basis)
    elements /= prob
    expected = DensityMatrix(survivor.basis, elements)
    assert np.array_equal(survivor.elements, expected.elements)


def test_herald_floor():
    rho = two_mode([Coherent(0.0), Coherent(0.0)])
    with pytest.raises(HeraldImpossibleError, match="floor"):
        condition(rho, MeasurementPattern({1: 3}))


@pytest.mark.parametrize("herald_floor", [math.nan, math.inf, 0.0, -1e-12])
def test_condition_refuses_a_herald_floor_that_checks_nothing(herald_floor):
    # the outcome is impossible: a floor that switched the check off would
    # divide by its zero probability
    rho = two_mode([Coherent(0.0), Coherent(0.0)])
    with pytest.raises(ContractViolation, match="herald_floor"):
        condition(rho, MeasurementPattern({1: 3}), herald_floor=herald_floor)


def test_single_photon_probability_examples():
    b = make_basis(1, 10)
    assert single_photon_probability(make_state(Isps(0.7), b)) == pytest.approx(0.7)
    assert single_photon_probability(make_state(Fock(2), b)) == 0.0
    coherent = make_state(Coherent(1.0), b, tail_tol=1e-6)
    assert single_photon_probability(coherent) == pytest.approx(
        math.exp(-1.0), abs=1e-6
    )
    assert multiphoton_weight(coherent) == pytest.approx(
        1.0 - 2.0 * math.exp(-1.0), abs=1e-6
    )
    assert multiphoton_weight(make_state(Isps(0.3), b)) == 0.0
    assert multiphoton_weight(make_state(Fock(2), b)) == pytest.approx(1.0)


def test_loss_keeps_multiphoton_free_states_clean(rng):
    # one direction of the no-multiphoton implication: a clean heralded state
    # stays clean under loss, a dirty one stays visibly dirty
    basis = make_basis(1, 4)
    for _ in range(5):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        qubit = a @ a.conj().T
        qubit /= qubit.trace().real
        elements = np.zeros((basis.dimension,) * 2, dtype=complex)
        elements[:2, :2] = qubit
        clean = DensityMatrix(basis, elements)
        p = float(rng.uniform(0.1, 0.9))
        assert multiphoton_weight(apply_loss(clean, LossChannel(p))) < 1e-14

        dirty = random_density(rng, basis)
        if multiphoton_weight(dirty) < 1e-3:
            continue
        after = multiphoton_weight(apply_loss(dirty, LossChannel(p)))
        # the two-photon term alone survives with weight >= p^2 * w_2
        assert after > 1e-12
