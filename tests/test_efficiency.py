import math

import numpy as np
import pytest

import pel
from pel import (
    Coherent,
    Fock,
    Isps,
    LossChannel,
    PartialQubit,
    DensityMatrix,
    apply_loss,
    generalized_efficiency,
    is_feasible,
    make_basis,
    make_state,
    multimode_efficiency,
    qubit_efficiency_formula,
)
from pel import efficiency
from pel.config import FEASIBILITY
from pel.efficiency import conditioning_floor
from pel.errors import ContractViolation, MonotonicityError, PositivityError

from conftest import random_density


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
    with pytest.raises(ContractViolation):
        generalized_efficiency(joint)
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
