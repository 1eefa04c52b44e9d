"""Acceptance suite: one test per criterion, one PASS line printed per
criterion (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is pinned here, not configured elsewhere.  The nine no-go
cells of criteria 4, 5 and 6 are the slow part (about 1.5 s each at the
mandated budgets); everything else runs in seconds.
"""

import math

import numpy as np
import pytest

import pel
from pel import (
    Coherent,
    Fock,
    Isps,
    LindbladParams,
    LossChannel,
    PartialQubit,
    SearchSpace,
    apply_loss,
    apply_loss_lindblad,
    generalized_efficiency,
    invert_loss,
    kraus_operators,
    make_basis,
    make_state,
    maximize_X,
    qubit_efficiency_formula,
    unequal_loss_counterexample,
    verify_commutation,
)
from pel.cli import emit, run_spec

from conftest import random_density

THREADS = 4


def report(name, detail):
    print(f"\n[acceptance] {name}: PASS ({detail})")


def test_criterion_1_commutation_theorem():
    worst = verify_commutation(seed=101, trials=100, cutoff=6)
    assert worst < 1e-9
    counter = unequal_loss_counterexample()
    assert counter > 1e-3
    report(
        "1 commutation theorem",
        f"max deviation {worst:.2e} over 100 trials, unequal-loss probe {counter:.3f}",
    )


def test_criterion_2_channel_oracles():
    rng = np.random.default_rng(2)
    basis = make_basis(1, 8)
    worst_pair = 0.0
    for _ in range(30):
        rho = random_density(rng, basis)
        for p in (0.3, 0.6, 0.9):
            kraus = apply_loss(rho, LossChannel(p))
            lind = apply_loss_lindblad(
                rho, LindbladParams.for_transmissivity(p, basis.cutoff)
            )
            worst_pair = max(
                worst_pair, float(np.abs(kraus.elements - lind.elements).max())
            )
    assert worst_pair < 1e-7

    worst_complete = 0.0
    for p in (0.3, 0.6, 0.9):
        total = sum(k.conj().T @ k for k in kraus_operators(p, 9))
        worst_complete = max(worst_complete, float(np.abs(total - np.eye(9)).max()))
    assert worst_complete < 1e-12

    worst_semigroup = 0.0
    for _ in range(10):
        rho = random_density(rng, basis)
        p, q = rng.uniform(0.3, 1.0, size=2)
        a = apply_loss(apply_loss(rho, LossChannel(q)), LossChannel(p))
        b = apply_loss(rho, LossChannel(p * q))
        worst_semigroup = max(
            worst_semigroup, float(np.abs(a.elements - b.elements).max())
        )
    assert worst_semigroup < 1e-10

    worst_invert = 0.0
    for _ in range(10):
        rho = random_density(rng, basis, support=6)
        q = float(rng.uniform(0.35, 0.95))
        lossy = apply_loss(rho, LossChannel(q))
        back = invert_loss(lossy, LossChannel(q))
        worst_invert = max(worst_invert, float(np.abs(back - rho.elements).max()))
    assert worst_invert < 1e-9
    report(
        "2 channel oracles",
        f"kraus-vs-lindblad {worst_pair:.2e}, completeness {worst_complete:.2e}, "
        f"semigroup {worst_semigroup:.2e}, invert round-trip {worst_invert:.2e}",
    )


def test_criterion_3_efficiency_correctness():
    basis = make_basis(1, 8)
    worst_isps = 0.0
    for p in np.arange(0.1, 0.95, 0.1):
        value = generalized_efficiency(make_state(Isps(float(p)), basis)).value
        worst_isps = max(worst_isps, abs(value - float(p)))
    assert worst_isps <= 1e-6

    two = generalized_efficiency(make_state(Fock(2), basis))
    assert abs(two.value - 1.0) <= 1e-6

    for alpha, cutoff in ((0.8, 8), (1.2, 10)):
        rho = make_state(Coherent(alpha), make_basis(1, cutoff), tail_tol=1e-5)
        result = generalized_efficiency(rho)
        assert not result.attained
        assert result.value <= 1e-3 + 1e-6

    worst_formula = 0.0
    basis_q = make_basis(1, 6)
    grid = [
        (p, frac)
        for p in (0.2, 0.4, 0.6, 0.8, 0.95)
        for frac in (0.0, 0.45, 0.8, 1.0)
    ]
    assert len(grid) == 20
    for p, frac in grid:
        q = frac * math.sqrt(p * (1.0 - p)) * np.exp(1.3j)
        formula = qubit_efficiency_formula(p, q)
        solved = generalized_efficiency(
            make_state(PartialQubit(p, q), basis_q), 1e-7
        ).value
        worst_formula = max(worst_formula, abs(formula - solved))
    assert worst_formula < 1e-5
    report(
        "3 efficiency correctness",
        f"ISPS grid {worst_isps:.2e}, E(|2><2|)={two.value:.8f}, coherent at floor, "
        f"closed form vs solver {worst_formula:.2e} over 20 grid points",
    )


def _nogo_grid(constraint):
    # 2 sources for p_max 0.2/0.6, 3 sources for 0.4/0.8, plus 1 coherent ancilla
    cells = []
    for p_max, extra in [(0.2, ()), (0.4, (0.32,)), (0.6, ()), (0.8, (0.64,))]:
        eff = (p_max, p_max) + extra
        cells.append(SearchSpace(eff, num_coherent=1, constraint=constraint))
    return cells


@pytest.mark.slow
def test_criterion_4_nogo_bound_no_multiphoton():
    lines = []
    for cell in _nogo_grid(constraint=1e-9):
        result = maximize_X(cell, 20000, seed=404, threads=THREADS)
        assert result.best_X <= cell.p_max + 1e-6, (cell.p_max, result.best_X)
        assert not result.violated
        assert result.multiphoton_weight <= 1e-9
        lines.append(f"p_max={cell.p_max}: best_X={result.best_X:.8f}")
    report("4 no-go bound, no-multiphoton regime", "; ".join(lines))


@pytest.mark.slow
def test_criterion_5_nogo_bound_unconstrained():
    lines = []
    for cell in _nogo_grid(constraint=None):
        result = maximize_X(cell, 20000, seed=505, threads=THREADS)
        bound = max(cell.p_max, 0.5)
        assert result.best_X <= bound + 1e-6, (cell.p_max, result.best_X)
        assert not result.violated
        lines.append(f"p_max={cell.p_max}: best_X={result.best_X:.8f}")
    report("5 no-go bound, unconstrained regime", "; ".join(lines))


@pytest.mark.slow
def test_criterion_6_tightness_below_half():
    space = SearchSpace((0.3, 0.3), num_coherent=1)
    result = maximize_X(space, 50000, seed=20260809, threads=THREADS)
    assert result.best_X > 0.3
    assert result.best_X <= 0.5 + 1e-6
    # seed-fixed regression, pinned from the first measurement of this search
    pinned = 0.380866917
    assert result.best_X == pytest.approx(pinned, abs=1e-6)
    report(
        "6 tightness below 1/2",
        f"best_X={result.best_X:.9f} > 0.3 via pattern {result.best_pattern} "
        f"(multiphoton {result.multiphoton_weight:.4f})",
    )


def test_criterion_7_bernoulli_consequences():
    rng = np.random.default_rng(7)
    basis = make_basis(1, 4)
    worst = 0.0
    for _ in range(50):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        qubit = a @ a.conj().T
        qubit /= qubit.trace().real
        elements = np.zeros((basis.dimension,) * 2, dtype=complex)
        elements[:2, :2] = qubit
        rho = pel.DensityMatrix(basis, elements)
        p = float(rng.uniform(0.05, 0.95))
        out = apply_loss(rho, LossChannel(p))
        worst = max(worst, abs(out.elements[1, 1].real - p * qubit[1, 1].real))
    assert worst <= 1e-10

    margin = 0.0
    for _ in range(50):
        rho = random_density(rng, basis)
        p = float(rng.uniform(0.5, 1.0))
        out = apply_loss(rho, LossChannel(p))
        margin = max(margin, out.elements[1, 1].real - p)
    assert margin <= 1e-12
    report(
        "7 Bernoulli consequences",
        f"proportionality deviation {worst:.2e}, bound margin {margin:.2e} "
        f"(50 trials each)",
    )


def test_criterion_8_loss_covariance_of_efficiency():
    rng = np.random.default_rng(8)
    basis = make_basis(1, 8)
    tol_bisect = 1e-7
    worst = 0.0
    for _ in range(10):
        rho = random_density(rng, basis, support=int(rng.integers(2, 5)))
        base = generalized_efficiency(rho, tol_bisect).value
        for q in (0.5, 0.8):
            lossy = apply_loss(rho, LossChannel(q))
            scaled = generalized_efficiency(lossy, tol_bisect).value
            worst = max(worst, abs(scaled - q * base))
    assert worst <= 2 * tol_bisect
    report(
        "8 loss covariance of efficiency",
        f"max |E(E_q(rho)) - q E(rho)| = {worst:.2e} over 10 states x q in {{0.5, 0.8}}",
    )


def test_criterion_9_determinism():
    spec = {
        "command": "nogo-search",
        "search": {
            "source_efficiencies": [0.6, 0.4],
            "num_coherent": 1,
            "budget": 400,
            "cutoff": 9,
            "min_herald": 1e-3,
        },
    }
    payloads = set()
    for threads in (1, 1, 4, 4):
        document, code = run_spec(spec, seed=99, threads=threads)
        assert code == 0
        payloads.add(emit(document, "json").encode("utf-8"))
    assert len(payloads) == 1
    report(
        "9 determinism",
        f"byte-identical JSON across 2 runs x thread counts {{1, 4}} "
        f"({len(next(iter(payloads)))} bytes)",
    )
