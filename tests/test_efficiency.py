import math

import numpy as np
import pytest

import pel
from pel import (
    Coherent,
    Fock,
    Isps,
    LossChannel,
    MeasurementPattern,
    ModeUnitary,
    PartialQubit,
    DensityMatrix,
    apply_interferometer,
    apply_loss,
    condition,
    generalized_efficiency,
    haar_random,
    is_feasible,
    make_basis,
    make_state,
    multimode_efficiency,
    partial_trace,
    qubit_efficiency_formula,
    tensor_all,
)
from pel import efficiency
from pel.config import FEASIBILITY
from pel.efficiency import conditioning_floor
from pel.errors import (
    ConditioningError,
    ContractViolation,
    MonotonicityError,
    PositivityError,
)

from conftest import random_density


def test_is_feasible_refuses_an_untrusted_inversion_of_an_exact_state():
    # with no tail to blame, an amplification past the trusted bound is not
    # read as feasible: the probe re-raises it
    rho = make_state(Fock(6), make_basis(1, 8))
    with pytest.raises(ConditioningError) as raised:
        is_feasible(rho, 1e-3)
    assert str(raised.value) == (
        "inverting loss p=0.001 on a support-6 state amplifies by p^-6 = 1.000e+18, "
        "beyond the trusted bound 1.0e+12"
    )


def test_is_feasible_examples():
    b = make_basis(1, 4)
    rho = make_state(Isps(0.7), b)
    assert is_feasible(rho, 0.7)
    assert not is_feasible(rho, 0.5)
    assert is_feasible(rho, 1.0)


def test_feasibility_monotone_in_p(rng):
    b = make_basis(1, 6)
    grid = np.linspace(0.25, 1.0, 14)
    for _ in range(4):
        rho = random_density(rng, b, support=4)
        verdicts = [is_feasible(rho, float(p)) for p in grid]
        # once feasible, stays feasible
        assert verdicts == sorted(verdicts)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_isps_efficiency(p):
    rho = make_state(Isps(p), make_basis(1, 6))
    result = generalized_efficiency(rho)
    assert result.value == pytest.approx(p, abs=1e-6)
    assert result.attained
    lo, hi = result.bracket
    assert hi - lo <= 1e-6
    assert is_feasible(rho, hi)


def test_two_photon_efficiency_is_one():
    rho = make_state(Fock(2), make_basis(1, 5))
    result = generalized_efficiency(rho)
    assert result.value == pytest.approx(1.0, abs=1e-6)
    # independent scan: infeasible strictly below one
    for p in (0.9, 0.99, 0.999):
        assert not is_feasible(rho, p)


def test_pure_states_have_unit_efficiency():
    b = make_basis(1, 5)
    for spec in [Fock(1), Fock(2), PartialQubit(0.5, 0.5)]:
        assert generalized_efficiency(make_state(spec, b)).value == pytest.approx(
            1.0, abs=1e-6
        )


def test_coherent_efficiency_reports_floor():
    rho = make_state(Coherent(0.8), make_basis(1, 12))
    result = generalized_efficiency(rho)
    assert not result.attained
    assert result.value <= 1e-3 + 1e-6
    assert result.bracket[0] == result.bracket[1] == result.value


def test_vacuum_efficiency_is_unattained_floor():
    result = generalized_efficiency(make_state(Coherent(0.0), make_basis(1, 4)))
    assert not result.attained
    assert result.value <= 1e-3 + 1e-6


def test_coherent_cutoff_stability():
    values = []
    for cutoff in (8, 12):
        rho = make_state(Coherent(0.8), make_basis(1, cutoff), tail_tol=1e-6)
        values.append(generalized_efficiency(rho).value)
    assert abs(values[0] - values[1]) < 1e-4


def test_bounded_support_cutoff_independence():
    for cutoff in (4, 6, 9):
        rho = make_state(Isps(0.63), make_basis(1, cutoff))
        assert generalized_efficiency(rho).value == pytest.approx(0.63, abs=1e-6)


def test_multimode_examples():
    b = make_basis(1, 10)
    assert multimode_efficiency(
        [make_state(Isps(0.3), b), make_state(Isps(0.8), b)]
    ) == pytest.approx(0.8, abs=1e-6)
    assert multimode_efficiency(
        [make_state(Coherent(1.0), b, tail_tol=1e-6), make_state(Isps(0.4), b)]
    ) == pytest.approx(0.4, abs=1e-6)
    assert multimode_efficiency([make_state(Isps(0.5), b)]) == pytest.approx(
        0.5, abs=1e-6
    )


@pytest.mark.parametrize(
    "keywords,name",
    [
        ({"feasibility": math.inf}, "feasibility"),
        ({"feasibility": math.nan}, "feasibility"),
        ({"feasibility": 0.0}, "feasibility"),
        ({"feasibility": -1e-9}, "feasibility"),
        ({"tol_bisect": math.nan}, "bisection tolerance"),
        ({"tol_bisect": math.inf}, "bisection tolerance"),
    ],
)
def test_generalized_efficiency_refuses_a_tolerance_that_checks_nothing(keywords, name):
    # an infinite slack called every probe feasible (0.001, unattained, for
    # an ISPS of E = 0.4), a NaN one ended in LinAlgError, and a NaN or
    # infinite bracket width returned 1.0, attained, for a coherent state
    b = make_basis(1, 4)
    for rho in (make_state(Isps(0.4), b), make_state(Coherent(0.1), b, tail_tol=1e-3)):
        with pytest.raises(ContractViolation, match=name):
            generalized_efficiency(rho, **keywords)


@pytest.mark.parametrize("tol_bisect", [math.nan, math.inf, 1e-9])
def test_multimode_efficiency_refuses_a_bracket_width_that_checks_nothing(tol_bisect):
    b = make_basis(1, 4)
    states = [make_state(Isps(0.4), b), make_state(Coherent(0.1), b, tail_tol=1e-3)]
    with pytest.raises(ContractViolation, match="bisection tolerance"):
        multimode_efficiency(states, tol_bisect)


def test_qubit_formula_examples():
    assert qubit_efficiency_formula(0.7, 0.0) == pytest.approx(0.7)
    assert qubit_efficiency_formula(0.5, 0.35) == pytest.approx(
        0.5 / (1.0 - 0.245), abs=1e-12
    )
    assert qubit_efficiency_formula(0.5, 0.5) == pytest.approx(1.0)
    assert qubit_efficiency_formula(0.0, 0.0) == 0.0
    with pytest.raises(PositivityError):
        qubit_efficiency_formula(0.5, 0.6)


def test_qubit_formula_matches_solver():
    basis = make_basis(1, 5)
    for p in (0.3, 0.6, 0.9):
        for frac in (0.0, 0.5, 1.0):
            q = frac * math.sqrt(p * (1.0 - p)) * np.exp(0.7j)
            formula = qubit_efficiency_formula(p, q)
            state = make_state(PartialQubit(p, q), basis)
            solved = generalized_efficiency(state, 1e-7).value
            assert abs(formula - solved) < 1e-5


def test_loss_covariance(rng):
    basis = make_basis(1, 8)
    for _ in range(3):
        rho = random_density(rng, basis, support=3)
        base = generalized_efficiency(rho, 1e-7).value
        for q in (0.5, 0.8):
            lossy = apply_loss(rho, LossChannel(q))
            scaled = generalized_efficiency(lossy, 1e-7).value
            assert abs(scaled - q * base) < 2e-7


def test_result_reports_feasible_witness(rng):
    rho = random_density(rng, make_basis(1, 6), support=3)
    result = generalized_efficiency(rho)
    assert result.witness_eigenvalue is not None
    assert result.witness_eigenvalue >= -1e-9
    assert result.cutoff_used == 6


def test_requires_single_mode_normalized_state(rng):
    joint = random_density(rng, make_basis(2, 2))
    oracle = efficiency._bisect(joint, 1e-9, FEASIBILITY)
    assert abs(generalized_efficiency(joint).value - oracle.value) <= 1e-8
    rho = make_state(Isps(0.5), make_basis(1, 3))
    with pytest.raises(ContractViolation, match="tolerance"):
        generalized_efficiency(rho, 1e-9)


def _bisection(rho):
    """The kept bisection at its finest bracket: the oracle for the exact path."""
    return efficiency._bisect(rho, 1e-8, FEASIBILITY)


def test_exact_efficiency_matches_bisection(rng):
    basis = make_basis(1, 8)
    states = []
    for support in (1, 2, 3, 4):
        for _ in range(3):
            rho = random_density(rng, basis, support=support)
            states += [rho] + [apply_loss(rho, LossChannel(q)) for q in (0.5, 0.8)]
    for support in (1, 2, 3, 4):
        weights = np.zeros(basis.dimension)
        weights[: support + 1] = rng.dirichlet(np.ones(support + 1))
        states.append(DensityMatrix(basis, np.diag(weights)))
    # E_q(|n><n|): at p = q, n eigenvalues of A vanish together, and without
    # the shift rounding spreads that root by about eps^(1/n)
    bernoulli = {
        (n, q): apply_loss(make_state(Fock(n), basis), LossChannel(q))
        for n in (1, 2, 3, 4, 5, 6)
        for q in (0.22, 0.3, 0.46, 0.77)
    }
    qubits = {}
    for p in (0.2, 0.5, 0.8):
        for frac in (0.0, 0.5, 0.9):
            q = frac * math.sqrt(p * (1.0 - p)) * np.exp(0.4j)
            qubits[(p, q)] = make_state(PartialQubit(p, q), basis)
    for rho in states + list(bernoulli.values()) + list(qubits.values()):
        exact = generalized_efficiency(rho)
        oracle = _bisection(rho)
        assert exact.attained and oracle.attained
        assert exact.bracket == (exact.value, exact.value)
        assert abs(exact.value - oracle.value) <= 1e-7
        assert is_feasible(rho, exact.value)
    for (n, q), rho in bernoulli.items():
        assert abs(generalized_efficiency(rho).value - q) <= 1e-8
    for (p, q), rho in qubits.items():
        formula = qubit_efficiency_formula(p, q)
        assert abs(generalized_efficiency(rho).value - formula) <= 1e-7


def test_exact_efficiency_probes_once(monkeypatch, rng):
    calls = []
    probe = efficiency._probe

    def counting(*args):
        calls.append(args[1])
        return probe(*args)

    monkeypatch.setattr(efficiency, "_probe", counting)
    rho = apply_loss(random_density(rng, make_basis(1, 8), support=4), LossChannel(0.6))
    result = generalized_efficiency(rho)
    assert calls == [result.value]


def test_singular_support_block_has_unit_efficiency():
    basis = make_basis(1, 6)
    phi = np.zeros(basis.dimension, dtype=complex)
    phi[1] = phi[2] = 1.0 / math.sqrt(2.0)
    mixture = 0.5 * np.outer(phi, phi.conj())
    mixture[0, 0] += 0.5
    for rho in (
        make_state(Fock(1), basis),
        make_state(Fock(2), basis),
        make_state(PartialQubit(0.5, 0.5), basis),
        DensityMatrix(basis, mixture),
    ):
        result = generalized_efficiency(rho)
        assert result.attained
        assert 1.0 - 1e-8 <= result.value <= 1.0
        assert result.bracket == (result.value, result.value)
        assert not is_feasible(rho, 1.0 - 1e-6)


def test_lossy_pure_state_is_not_read_as_singular():
    basis = make_basis(1, 8)
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    psi /= np.linalg.norm(psi)
    pure = DensityMatrix(basis, np.outer(psi, psi.conj()))
    lossy = apply_loss(pure, LossChannel(0.95))
    assert np.linalg.eigvalsh(lossy.elements)[0] < 1e-13
    assert abs(generalized_efficiency(lossy).value - 0.95) <= 1e-8


def test_eigenvalue_inside_the_slack_reads_unit_efficiency():
    basis = make_basis(1, 3)
    elements = np.diag([-7e-10, 1.0 + 7e-10, 0.0, 0.0])
    result = generalized_efficiency(DensityMatrix(basis, elements))
    assert result.value == 1.0
    assert result.bracket == (1.0, 1.0)
    assert result.witness_eigenvalue == pytest.approx(-7e-10, rel=1e-6)
    outside = DensityMatrix(basis, np.diag([-2e-9, 1.0 + 2e-9, 0.0, 0.0]))
    with pytest.raises(PositivityError):
        generalized_efficiency(outside)


def test_efficiency_below_the_floor_stays_unattained():
    basis = make_basis(1, 6)
    # vacuum has no root at all; 1e-10 has its smallest eigenvalue inside
    # the feasibility slack
    for spec in (Isps(5e-4), Isps(1e-10), Coherent(0.0)):
        rho = make_state(spec, basis)
        assert rho.tail == 0.0
        floor = conditioning_floor(rho)
        result = generalized_efficiency(rho)
        assert not result.attained
        assert result.value == floor
        assert result.bracket == (floor, floor)
        assert result == _bisection(rho)


def test_indefinite_tail_free_matrix_is_not_a_state():
    basis = make_basis(1, 3)
    elements = np.diag([0.6, 0.3, 0.1, 0.0]).astype(complex)
    elements[0, 1] = elements[1, 0] = 0.45
    rho = DensityMatrix(basis, elements)
    assert np.linalg.eigvalsh(elements)[0] < -1e-3
    with pytest.raises(PositivityError, match="p = 1"):
        generalized_efficiency(rho)


def test_infeasible_exact_value_raises(monkeypatch):
    rho = make_state(Isps(0.6), make_basis(1, 4))
    monkeypatch.setattr(
        efficiency, "_largest_root", lambda *args: 0.5
    )
    with pytest.raises(MonotonicityError, match="0.5"):
        generalized_efficiency(rho)


def _pinned_states():
    b = make_basis(1, 8)
    states = {
        "isps": make_state(Isps(0.37), b),
        "partial_qubit": make_state(PartialQubit(0.6, 0.3 * np.exp(0.5j)), b),
        "fock2": make_state(Fock(2), b),
        "lossy_fock3": apply_loss(make_state(Fock(3), b), LossChannel(0.45)),
    }
    rng = np.random.default_rng(2024)
    for support in (2, 3, 4, 8):
        rho = random_density(rng, b, support=support)
        states[f"random{support}"] = rho
        states[f"lossy_random{support}"] = apply_loss(rho, LossChannel(0.7))
    return states


#: ``float.hex`` of the value (both bracket ends) and the witness of each
#: pinned state, from the solve built on the single-mode index tables
_PINS = {
    "isps": ("0x1.7ae147aae6d77p-2", "-0x1.12e0b80000000p-31"),
    "partial_qubit": ("0x1.6969696537308p-1", "-0x1.12e0b60000000p-31"),
    "fock2": ("0x1.fffffffdda3e8p-1", "-0x1.12e0c0012725fp-31"),
    "lossy_fock3": ("0x1.cccccccb82f25p-2", "-0x1.12e0c0018987ep-31"),
    "random2": ("0x1.ccf60a8307c7fp-1", "-0x1.12e0bc91d6e62p-31"),
    "lossy_random2": ("0x1.42ac3a8eebd8fp-1", "-0x1.12e0bb1fd6e62p-31"),
    "random3": ("0x1.fae70fb37d713p-1", "-0x1.12e0b9ca00000p-31"),
    "lossy_random3": ("0x1.62d4f1640b026p-1", "-0x1.12e0bc2700000p-31"),
    "random4": ("0x1.fef99033e2170p-1", "-0x1.12e0bcd5f8204p-31"),
    "lossy_random4": ("0x1.65aeb1bdeb107p-1", "-0x1.12e0ad8d5bb84p-31"),
    "random8": ("0x1.ffd145494528ap-1", "-0x1.12e0bdd4ec7a6p-31"),
    "lossy_random8": ("0x1.6645b08016d01p-1", "-0x1.12e09b94ea6f0p-31"),
}


def test_single_mode_efficiency_keeps_its_bits():
    # the multimode solve reads S_l off the loss plan; on one mode it must
    # give the single-mode solve's bits
    for name, rho in _pinned_states().items():
        result = generalized_efficiency(rho)
        value, witness = _PINS[name]
        assert result.value.hex() == value, name
        assert [end.hex() for end in result.bracket] == [value, value], name
        assert result.witness_eigenvalue.hex() == witness, name


@pytest.mark.parametrize("modes,support", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])
def test_joint_efficiency_matches_bisection(rng, modes, support):
    basis = make_basis(modes, support)
    for _ in range(2):
        rho = random_density(rng, basis)
        for state in (rho, apply_loss(rho, LossChannel(0.6))):
            exact = generalized_efficiency(state)
            oracle = efficiency._bisect(state, 1e-9, FEASIBILITY)
            assert exact.attained and exact.bracket == (exact.value, exact.value)
            assert abs(exact.value - oracle.value) <= 1e-8


@pytest.mark.parametrize("modes,support", [(2, 2), (2, 3), (3, 2)])
def test_joint_efficiency_is_invariant_under_interferometers_and_covariant_under_loss(
    rng, modes, support
):
    # equal loss on every mode commutes with every interferometer, and
    # E_q o E_p = E_qp
    basis = make_basis(modes, support)
    for seed in range(2):
        rho = random_density(rng, basis)
        base = generalized_efficiency(rho).value
        turned = apply_interferometer(rho, haar_random(modes, seed))
        assert abs(generalized_efficiency(turned).value - base) <= 1e-9
        for q in (0.5, 0.8):
            lossy = apply_loss(rho, LossChannel(q))
            assert abs(generalized_efficiency(lossy).value - q * base) <= 1e-9


@pytest.mark.parametrize("weights,marginal", [
    ((0.7, 0.7), 0.7), ((0.7, 0.5), 7.0 / 12.0), ((0.4, 0.3), 12.0 / 35.0),
])
def test_isps_pairs_read_the_larger_weight_before_and_after_a_splitter(weights, marginal):
    single, joint = make_basis(1, 2), make_basis(2, 2)
    rho = tensor_all([make_state(Isps(p), single) for p in weights], joint)
    splitter = ModeUnitary(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
    out = apply_interferometer(rho, splitter)
    for state in (rho, out):
        assert abs(generalized_efficiency(state).value - max(weights)) <= 1e-9
    for mode in (0, 1):
        reduced = partial_trace(out, [mode])
        assert abs(generalized_efficiency(reduced).value - marginal) <= 1e-9


def test_is_feasible_on_a_two_mode_state():
    single, joint = make_basis(1, 2), make_basis(2, 2)
    rho = tensor_all([make_state(Isps(0.7), single), make_state(Isps(0.5), single)], joint)
    out = apply_interferometer(rho, haar_random(2, 5))
    for state in (rho, out):
        assert is_feasible(state, 1.0)
        assert is_feasible(state, 0.7)
        assert not is_feasible(state, 0.69)
        assert not is_feasible(state, 0.5)


@pytest.mark.parametrize("seed", range(6))
def test_heralded_two_mode_outputs_stay_below_the_best_source(seed):
    # ISPS (0.6, 0.5, 0.4) and a vacuum ancilla through a Haar mesh, modes 2
    # and 3 detected: the joint E of the two kept modes is at most 0.6, and
    # at least the E of either marginal
    single, joint = make_basis(1, 3), make_basis(4, 3)
    states = [make_state(Isps(p), single) for p in (0.6, 0.5, 0.4)]
    rho = tensor_all(states + [make_state(Fock(0), single)], joint)
    rho = apply_interferometer(rho, haar_random(4, seed))
    for counts in ((1, 0), (1, 1), (0, 1)):
        out, _ = condition(rho, MeasurementPattern({2: counts[0], 3: counts[1]}))
        value = generalized_efficiency(out).value
        assert value <= 0.6 + 1e-9
        for mode in (0, 1):
            assert value >= generalized_efficiency(partial_trace(out, [mode])).value
        assert abs(value - efficiency._bisect(out, 1e-9, FEASIBILITY).value) <= 1e-8
