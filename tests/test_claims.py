"""The paper's efficiency claim on states that linear optics has processed.

Random schemes run through the dense pipeline: two or three sources, each an
ISPS or a partial qubit of photon weight p in [0.05, 0.95], one vacuum
ancilla and a mesh, Haar or from uniform ``from_mesh`` angles.  One or two
modes are kept; every other mode is detected as 0 or 1 photon or, with
chance 0.3, discarded unread.  All inputs
are tail-free, so every E comes from the exact solve.  On each heralded
output sigma:

* E(sigma) <= max_i E(rho_i): linear optics, heralding and discarding
  cannot raise the efficiency;
* with one kept mode, X <= max(E(sigma), 1/2), the per-state lemma behind
  both X bounds: for sigma = E_eta(tau), X = sum_n tau_nn n eta (1 - eta)^(n-1)
  <= max(eta, 1/2);
* with one kept mode and no multiphoton weight, X <= max_i E(rho_i);
* a herald below the floor raises, and is never a number.

Before heralding, equal loss on every mode commutes with the drawn mesh.

A suite that never fails proves little, so each claim has a negative
control: stating every source's efficiency 10% below its true value must
make the E claim fail on some drawn scheme, and unequal loss must break the
commutation, on some drawn scheme and macroscopically on
``unequal_loss_counterexample``.
"""

import cmath
import math

import numpy as np
import pytest

from pel import (
    Fock,
    Isps,
    LossChannel,
    MeasurementPattern,
    PartialQubit,
    apply_interferometer,
    apply_loss,
    condition,
    from_mesh,
    generalized_efficiency,
    haar_random,
    make_basis,
    make_state,
    mesh_param_count,
    multiphoton_weight,
    outcome_probability,
    qubit_efficiency_formula,
    single_photon_probability,
    tensor_all,
    trace_distance,
    unequal_loss_counterexample,
)
from pel.config import HERALD_FLOOR
from pel.errors import HeraldImpossibleError

#: schemes drawn per number of kept modes
_SCHEMES = 120


def _circuit(rng):
    """Random sources and a vacuum ancilla, and a mesh: their product
    state, the mesh's unitary and the sources' efficiencies."""
    sources = int(rng.integers(2, 4))
    modes = sources + 1
    specs, efficiencies = [], []
    for _ in range(sources):
        p = float(rng.uniform(0.05, 0.95))
        if rng.random() < 0.5:
            specs.append(Isps(p))
            efficiencies.append(p)
        else:
            q = rng.uniform(0.0, 1.0) * math.sqrt(p * (1.0 - p)) * cmath.exp(
                2j * math.pi * rng.random())
            specs.append(PartialQubit(p, q))
            efficiencies.append(qubit_efficiency_formula(p, q))
    single = make_basis(1, sources)
    states = [make_state(spec, single) for spec in specs + [Fock(0)]]
    rho = tensor_all(states, make_basis(modes, sources))
    if rng.random() < 0.5:
        u = haar_random(modes, rng)
    else:
        u = from_mesh(rng.uniform(-math.pi, math.pi, mesh_param_count(modes)), modes)
    return rho, u, efficiencies


def _scheme(rng, kept: int):
    """One random scheme: its state after the mesh, a heralding pattern
    that keeps ``kept`` modes, and its sources' efficiencies."""
    rho, u, efficiencies = _circuit(rng)
    rho = apply_interferometer(rho, u)
    modes = rho.basis.modes
    keep = set(rng.choice(modes, size=kept, replace=False).tolist())
    outcomes = {
        m: None if rng.random() < 0.3 else int(rng.integers(0, 2))
        for m in range(modes) if m not in keep
    }
    return rho, MeasurementPattern(outcomes), efficiencies


@pytest.fixture(scope="module")
def outputs():
    """(kept modes, heralded output, its E, the sources' efficiencies) of
    every drawn scheme whose herald reaches the floor."""
    rng = np.random.default_rng(20261020)
    drawn = []
    for kept in (1, 2):
        for _ in range(_SCHEMES):
            rho, pattern, efficiencies = _scheme(rng, kept)
            if outcome_probability(rho, pattern) < HERALD_FLOOR:
                with pytest.raises(HeraldImpossibleError):
                    condition(rho, pattern)
                continue
            out, _ = condition(rho, pattern)
            value = generalized_efficiency(out).value
            drawn.append((kept, out, value, efficiencies))
    return drawn


def _efficiency_claim(outputs, scale=1.0):
    for _, _, value, efficiencies in outputs:
        assert value <= scale * max(efficiencies) + 1e-7


@pytest.mark.parametrize("kept", [1, 2])
def test_heralded_efficiency_stays_below_the_best_source(outputs, kept):
    drawn = [entry for entry in outputs if entry[0] == kept]
    assert len(drawn) > _SCHEMES // 2
    _efficiency_claim(drawn)


def test_single_photon_probability_obeys_the_per_state_bounds(outputs):
    drawn = [entry for entry in outputs if entry[0] == 1]
    multiphoton_free = 0
    for _, out, value, efficiencies in drawn:
        x = single_photon_probability(out)
        assert x <= max(value, 0.5) + 1e-9
        if multiphoton_weight(out) < 1e-12:
            multiphoton_free += 1
            assert x <= max(efficiencies) + 1e-9
    assert multiphoton_free > 0


def test_a_herald_below_the_floor_raises():
    # one photon more than the sources hold, on the first detected mode
    rng = np.random.default_rng(7)
    for kept in (1, 2):
        for _ in range(5):
            rho, pattern, efficiencies = _scheme(rng, kept)
            outcomes = dict(pattern.outcomes)
            outcomes[min(outcomes)] = len(efficiencies) + 1
            impossible = MeasurementPattern(outcomes)
            assert outcome_probability(rho, impossible) == 0.0
            with pytest.raises(HeraldImpossibleError, match="herald floor"):
                condition(rho, impossible)


def test_mislabeled_sources_break_the_efficiency_claim(outputs):
    # stated efficiencies 10% below the true ones: some output must exceed
    # them, or the claim's test has no power
    with pytest.raises(AssertionError):
        _efficiency_claim(outputs, scale=0.9)


def _commutation_gaps(rng, schemes: int, spread: float):
    """Trace distance between loss before and after the mesh on drawn
    circuits: loss q on mode 0 and q * (1 - spread) on every other mode."""
    for _ in range(schemes):
        rho, u, _ = _circuit(rng)
        q = float(rng.uniform(0.05, 0.95))
        rest = tuple(range(1, rho.basis.modes))

        def lossy(state):
            state = apply_loss(state, LossChannel(q, modes=(0,)))
            return apply_loss(state, LossChannel(q * (1.0 - spread), modes=rest))

        yield trace_distance(lossy(apply_interferometer(rho, u)),
                             apply_interferometer(lossy(rho), u))


def test_equal_loss_commutes_with_every_drawn_mesh():
    assert max(_commutation_gaps(np.random.default_rng(20261021), 40, 0.0)) < 1e-10


def test_unequal_loss_breaks_the_commutation():
    # the same check with mode 0 attenuated less than the others must fail
    # on some drawn circuit, and the two-mode counterexample is macroscopic
    gaps = _commutation_gaps(np.random.default_rng(20261021), 40, 0.5)
    with pytest.raises(AssertionError):
        assert max(gaps) < 1e-10
    assert unequal_loss_counterexample() > 0.1
