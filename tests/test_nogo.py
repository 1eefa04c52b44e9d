import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from decimal import Decimal, getcontext

import numpy as np
import pytest

import pel
from pel import (
    Coherent,
    Fock,
    Isps,
    LossChannel,
    MeasurementPattern,
    SearchSpace,
    apply_interferometer,
    apply_loss,
    condition,
    evaluate_scheme,
    from_mesh,
    make_basis,
    make_state,
    maximize_X,
    mesh_param_count,
    multiphoton_weight,
    single_photon_probability,
    tensor_all,
    unequal_loss_counterexample,
    verify_bernoulli_consequence,
    verify_commutation,
)
from pel.config import HERALD_FLOOR
from pel.errors import (
    ArityError,
    CapacityError,
    ContractViolation,
    HeraldImpossibleError,
)
from pel.fock import displaced_number_elements

from conftest import rows_at_the_cap, vectorised_golden_max


def small_space(**kw):
    kw.setdefault("num_coherent", 1)
    kw.setdefault("cutoff", 8)
    return SearchSpace(kw.pop("eff", (0.6, 0.3)), **kw)


def test_search_space_validation():
    with pytest.raises(ContractViolation):
        SearchSpace(())
    with pytest.raises(ContractViolation):
        SearchSpace((1.2,))
    with pytest.raises(ContractViolation):
        SearchSpace((math.nan, 0.5))
    with pytest.raises(ContractViolation, match="two modes"):
        SearchSpace((0.5,), num_coherent=0)
    assert SearchSpace((0.3, 0.8)).p_max == 0.8
    assert SearchSpace((0.3,), constraint=1e-9).bound == 0.3
    assert SearchSpace((0.3,)).bound == 0.5
    assert SearchSpace((0.8,)).bound == 0.8


@pytest.mark.parametrize(
    "field,value",
    [
        ("amplitude_cap", math.inf),
        ("amplitude_cap", math.nan),
        ("amplitude_cap", 0.0),
        ("min_herald", math.nan),
        ("min_herald", -1e-3),
        ("min_herald", 1.5),
        ("constraint", math.nan),
        ("constraint", math.inf),
        ("constraint", -0.5),
        ("cutoff", -1),
        ("cutoff", 2.5),
        ("num_coherent", 1.5),
        ("patterns", ((1.7, 0),)),
    ],
)
def test_search_space_rejects_bad_values(field, value):
    with pytest.raises(ContractViolation, match=field):
        SearchSpace((0.5, 0.5), **{"cutoff": 6, field: value})


def test_default_cutoff_policy():
    # at min_herald 0 the 1e-12 herald floor sets the bound
    assert SearchSpace((0.5, 0.5), num_coherent=0, min_herald=0.0).cutoff_used == 2
    for min_herald in (0.0, 1e-13):
        assert SearchSpace((0.6, 0.6), min_herald=min_herald).cutoff_used == 16
    smaller_cap = SearchSpace((0.6, 0.6), min_herald=0.0, amplitude_cap=0.5)
    assert smaller_cap.cutoff_used < 16
    # min_herald lowers the bound, and an explicit cutoff only caps it
    default = SearchSpace((0.6, 0.6)).cutoff_used
    assert default < 16
    assert SearchSpace((0.6, 0.6), cutoff=5).cutoff_used == 5
    assert SearchSpace((0.6, 0.6), cutoff=40).cutoff_used == default


def test_pass_through_single_source():
    space = SearchSpace((0.7,), num_coherent=1, cutoff=6)
    x, prob, multi = evaluate_scheme(
        space, np.zeros(space.parameter_count()), (0,)
    )
    assert x == pytest.approx(0.7, abs=1e-12)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert multi == pytest.approx(0.0, abs=1e-12)


def test_hom_scheme():
    space = SearchSpace((1.0, 1.0), num_coherent=0)
    params = np.zeros(space.parameter_count())
    params[0] = math.pi / 4
    x, prob, multi = evaluate_scheme(space, params, (0,))
    assert x == pytest.approx(0.0, abs=1e-12)
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert multi == pytest.approx(1.0, abs=1e-12)


def test_vacuum_ancilla_identity():
    space = SearchSpace((0.5,), num_coherent=1, cutoff=6)
    x, prob, _ = evaluate_scheme(space, np.zeros(space.parameter_count()), (0,))
    assert x == pytest.approx(0.5, abs=1e-12)
    assert prob == pytest.approx(1.0, abs=1e-12)


def _dense_pipeline(space, params, cutoff):
    """The heralding outcome oracle: sources and ancilla as density matrices
    on FockBasis(modes, cutoff), the Fock lift of the mesh, then condition."""
    mesh_len = mesh_param_count(space.modes)
    single = make_basis(1, cutoff)
    states = [make_state(Isps(p), single) for p in space.source_efficiencies]
    alpha = complex(params[mesh_len], params[mesh_len + 1])
    states.append(make_state(Coherent(alpha), single, tail_tol=1.0))
    rho = tensor_all(states, make_basis(space.modes, cutoff), tail_tol=1.0)
    rho = apply_interferometer(rho, from_mesh(params[:mesh_len], space.modes))

    def outcome(pattern):
        survivor, prob = condition(
            rho, MeasurementPattern({j + 1: n for j, n in enumerate(pattern)})
        )
        return (
            single_photon_probability(survivor),
            prob,
            multiphoton_weight(survivor),
        )

    return outcome


@pytest.mark.parametrize(
    "eff,cutoff,dense_cutoff,amp",
    [((0.6, 0.3), 7, 7, 0.5), ((0.6, 0.3, 0.5), 5, 9, 0.2)],
    ids=["two-sources", "three-sources"],
)
def test_evaluate_scheme_matches_density_matrix_pipeline(
    rng, eff, cutoff, dense_cutoff, amp
):
    # the dense cutoff leaves room for the coherent photons the dense
    # truncation would otherwise drop (|alpha|^2 <= 2 amp^2)
    space = small_space(eff=eff, cutoff=cutoff)
    mesh_len = mesh_param_count(space.modes)
    detected = space.modes - 1
    patterns = [tuple(row) for row in np.vstack([np.zeros(detected, int),
                                                 np.eye(detected, dtype=int)])]
    for _ in range(3):
        params = np.concatenate(
            [
                rng.uniform(-math.pi, math.pi, size=mesh_len),
                rng.uniform(-amp, amp, size=2),
            ]
        )
        slow = _dense_pipeline(space, params, dense_cutoff)
        for pattern in patterns:
            fast = evaluate_scheme(space, params, pattern)
            assert max(abs(a - b) for a, b in zip(fast, slow(pattern))) < 1e-8


def test_heralds_exact_near_the_cutoff(rng):
    # detected totals within 2 of the cutoff leave no room for the surviving
    # mode in a cutoff-6 joint basis; against the dense pipeline at cutoff 18
    # the engine's heralds must hold to 1e-8 relative (they are tiny).  At
    # min_herald 1e-2 the totals of 6 lie above the enumerated ones and are
    # computed as columns of their own
    mesh_len = mesh_param_count(3)
    params = np.concatenate(
        [rng.uniform(-math.pi, math.pi, size=mesh_len), [0.6, -0.5]]
    )
    own_column = small_space(cutoff=6, min_herald=1e-2)
    assert own_column.cutoff_used < 6
    slow = _dense_pipeline(own_column, params, 18)
    for space in (small_space(cutoff=6), own_column):
        for pattern in [(3, 2), (2, 2), (4, 0), (1, 5), (0, 6)]:
            _, prob, multi = evaluate_scheme(space, params, pattern)
            _, prob_ref, multi_ref = slow(pattern)
            assert prob == pytest.approx(prob_ref, rel=1e-8)
            assert multi == pytest.approx(multi_ref, rel=1e-8)
    assert (0, 6) not in pel.nogo._engine(own_column).pattern_index


def test_output_phases_do_not_change_observables(rng):
    space = small_space()
    mesh_len = mesh_param_count(space.modes)
    params = np.concatenate(
        [rng.uniform(-math.pi, math.pi, size=mesh_len), [0.4, -0.2]]
    )
    with_phases = params.copy()
    with_phases[mesh_len - space.modes : mesh_len] = rng.uniform(
        -math.pi, math.pi, size=space.modes
    )
    a = evaluate_scheme(space, params, (1, 0))
    b = evaluate_scheme(space, with_phases, (1, 0))
    assert max(abs(x - y) for x, y in zip(a, b)) < 1e-12


def test_evaluate_scheme_guards():
    space = small_space()
    with pytest.raises(ArityError):
        evaluate_scheme(space, np.zeros(3), (0, 0))
    with pytest.raises(ContractViolation, match="detected"):
        evaluate_scheme(space, np.zeros(space.parameter_count()), (0,))
    # a fractional count is refused, not truncated to (1, 0)
    with pytest.raises(ContractViolation, match="integer"):
        evaluate_scheme(space, np.zeros(space.parameter_count()), (1.7, 0))
    with pytest.raises(HeraldImpossibleError):
        evaluate_scheme(space, np.zeros(space.parameter_count()), (8, 0))


def test_amplitude_cap_enforced():
    space = small_space(amplitude_cap=0.5)
    params = np.zeros(space.parameter_count())
    params[-2] = 0.9
    with pytest.raises(ContractViolation, match="amplitude"):
        evaluate_scheme(space, params, (0, 0))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_scheme_parameters_are_rejected(value):
    space = SearchSpace((0.5, 0.5))
    with pytest.raises(ContractViolation, match="finite"):
        evaluate_scheme(space, [value] * space.parameter_count(), (0, 0))


def test_nan_amplitude_fails_the_cap_check():
    # no comparison with the cap finds a NaN amplitude too large
    space = SearchSpace((0.5, 0.5))
    params = np.zeros((1, space.parameter_count()))
    params[0, -1] = math.nan
    with pytest.raises(ContractViolation, match="amplitude cap"):
        pel.nogo._objective(space, params)


def _amplitude_line_probed_at(space, params, value):
    # set up at amplitude 0, within the cap, and probed at the value: only
    # the call can find the probe past the cap
    coord = mesh_param_count(space.modes)
    start = params.copy()
    start[:, coord] = 0.0
    line = pel.nogo._line_scores(space, start, coord)
    line(np.full(params.shape[0], value))


#: every entry of the search's evaluations, called on parameter rows whose
#: first ancilla's real part is the value; a mesh line fixes its amplitudes,
#: so it checks them when it is set up, and an amplitude line checks its
#: probes on every call
CAP_ENTRIES = {
    "evaluate_scheme": lambda space, params, value: evaluate_scheme(
        space, params[0], (0,) * (space.modes - 1)
    ),
    "outcome_table": lambda space, params, value: pel.nogo._engine(
        space
    ).outcome_table(params),
    "_objective": lambda space, params, value: pel.nogo._objective(space, params),
    "mesh line": lambda space, params, value: pel.nogo._line_scores(space, params, 0),
    "amplitude line": _amplitude_line_probed_at,
}


@pytest.mark.parametrize("past", ["nextafter", "nan"])
@pytest.mark.parametrize("entry", CAP_ENTRIES.values(), ids=CAP_ENTRIES.keys())
@pytest.mark.parametrize("space", [SearchSpace((0.5, 0.5)),
                                   SearchSpace((0.5, 0.6), num_coherent=2)],
                         ids=["2+1", "2+2"])
def test_every_entry_refuses_an_amplitude_past_the_cap(rng, space, entry, past):
    # tabulate checks nothing, so each entry checks the amplitudes it
    # evaluates: one float past the admitted cap is refused, and so is a
    # NaN, which evaluate_scheme refuses as a non-finite parameter first
    cap = pel.nogo._admitted_cap(space)
    value = np.nextafter(cap, math.inf) if past == "nextafter" else math.nan
    params = rows_at_the_cap(rng, space, 2)
    params[:, mesh_param_count(space.modes):] = 0.0
    params[:, mesh_param_count(space.modes)] = value
    at_the_cap = params.copy()
    at_the_cap[:, mesh_param_count(space.modes)] = cap
    entry(space, at_the_cap, cap)
    finite_first = past == "nan" and entry is CAP_ENTRIES["evaluate_scheme"]
    match = "finite" if finite_first else "amplitude cap"
    with pytest.raises(ContractViolation, match=match):
        entry(space, params, value)


def test_an_amplitude_line_checks_its_fixed_ancillas_when_it_is_set_up(rng):
    space = SearchSpace((0.5, 0.6), num_coherent=2)
    params = rows_at_the_cap(rng, space, 2)
    mesh_len = mesh_param_count(space.modes)
    params[:, mesh_len:] = 0.0
    # the second ancilla, which the first one's line keeps fixed
    params[:, mesh_len + 2] = math.nan
    with pytest.raises(ContractViolation, match="amplitude cap"):
        pel.nogo._line_scores(space, params, mesh_len)


def test_maximize_is_deterministic_and_thread_independent():
    space = small_space(eff=(0.6, 0.4))
    a = maximize_X(space, 1200, seed=7)
    b = maximize_X(space, 1200, seed=7)
    c = maximize_X(space, 1200, seed=7, threads=4)
    assert a == b == c
    d = maximize_X(space, 1200, seed=8)
    assert d != a  # different stream explores differently


def test_maximize_respects_bound_and_finds_pass_through():
    space = small_space(eff=(0.7, 0.5))
    report = maximize_X(space, 2500, seed=3)
    assert report.best_X <= report.bound + 1e-6
    assert report.best_X >= 0.69  # pass-through configuration is locatable
    assert not report.violated
    assert report.evaluations <= 2500
    assert report.herald_probability >= space.min_herald


def test_constrained_search_filters_multiphoton():
    space = small_space(eff=(0.5, 0.5), constraint=1e-9)
    report = maximize_X(space, 2500, seed=5)
    assert report.multiphoton_weight <= 1e-9
    assert report.best_X <= 0.5 + 1e-6
    assert report.bound == 0.5


def test_attenuating_sources_never_helps():
    strong = small_space(eff=(0.5, 0.5), constraint=1e-9)
    weak = small_space(eff=(0.35, 0.35), constraint=1e-9)  # 0.7-attenuated
    best_strong = maximize_X(strong, 2000, seed=9).best_X
    best_weak = maximize_X(weak, 2000, seed=9).best_X
    assert best_weak <= best_strong + 1e-6


def test_commutation_verification():
    assert verify_commutation(seed=11, trials=20) < 1e-9


def test_unequal_loss_has_power():
    assert unequal_loss_counterexample() > 1e-3


def test_unequal_loss_disappears_when_equal():
    assert unequal_loss_counterexample(0.7, 0.7) < 1e-12


def test_bernoulli_consequences(rng):
    assert verify_bernoulli_consequence(seed=21, trials=30)
    # worked examples of the diagonal relation
    b = make_basis(1, 4)
    one = make_state(Fock(1), b)
    assert apply_loss(one, LossChannel(0.6)).diagonal()[1] == pytest.approx(0.6)
    two = make_state(Fock(2), b)
    assert apply_loss(two, LossChannel(0.5)).diagonal()[1] == pytest.approx(0.5)
    # below 1/2 the single-photon weight may exceed p: 2 p (1-p) = 0.48 > 0.4
    assert apply_loss(two, LossChannel(0.4)).diagonal()[1] == pytest.approx(
        0.48, abs=1e-12
    )


def test_large_amplitude_cap_fails_loudly():
    # the Poisson(1600) tail beyond a few photons underflows termwise; the
    # cutoff must still cover it, and the pattern basis then exceeds capacity
    space = SearchSpace((0.5, 0.5), amplitude_cap=40.0)
    assert space.cutoff_used > 1600
    with pytest.raises(CapacityError):
        maximize_X(space, 200, seed=1)


def test_amplitude_cap_within_the_float_range_builds(rng):
    # a 1 + 1 scheme at cap 30 reaches |beta| = 30; its tables must keep the
    # whole herald mass, not underflow to zero
    space = SearchSpace((0.5,), amplitude_cap=30.0)
    herald = pel.nogo._SchemeEngine(space).outcome_table(
        rows_at_the_cap(rng, space, 3)
    )[0]
    assert np.all(herald >= 0.0)
    assert np.all(np.abs(herald.sum(axis=1) - 1.0) < space.min_herald)


@pytest.mark.parametrize(
    "space",
    [SearchSpace((0.5,), amplitude_cap=38.0),
     SearchSpace((0.5,), num_coherent=2, amplitude_cap=27.0)],
    ids=["1+1", "1+2"],
)
def test_amplitude_cap_past_the_float_range_fails_loudly(space):
    # num_coherent * cap^2 past ~1417 lets exp(-|beta|^2 / 2) underflow
    with pytest.raises(CapacityError, match="amplitude_cap"):
        pel.nogo._SchemeEngine(space)
    with pytest.raises(CapacityError, match="amplitude_cap"):
        maximize_X(space, 10, seed=1)


def test_report_carries_truncation_weight():
    space = small_space(cutoff=12)
    report = maximize_X(space, 600, seed=2)
    assert 0.0 <= report.truncation_weight < 1e-6
    # the rank bound lies below the cap of 12
    assert report.cutoff_used == 9


def test_report_without_ranked_pattern_carries_truncation():
    # no pattern reaches a 0.99 herald, so nothing is ranked; the report must
    # still carry the herald mass the cutoff leaves out at its parameters
    space = SearchSpace((0.5, 0.5), cutoff=6, min_herald=0.99)
    report = maximize_X(space, 200, seed=1)
    assert report.best_pattern == ()
    assert report.best_X == 0.0
    tail = pel.nogo._engine(space).outcome_table([report.best_params])[3]
    assert report.truncation_weight == tail[0]
    assert report.truncation_weight > 0.0


def test_lockstep_block_matches_restarts_run_alone(monkeypatch):
    # the reports count _restart_cost evaluations per restart: the start
    # point and the probes every line keeps, one row each.  A call keeps one
    # probe per row, or two when it looks ahead: the initial pair, or a probe
    # and the one of its two successors that the next comparison picks
    kept, rows = [], []
    line_scores = pel.nogo._line_scores

    def counting(space, params, coord):
        line = line_scores(space, params, coord)

        def scores(x):
            rows.append(len(x))
            kept.append(1 if np.ndim(x) == 1 else min(np.shape(x)[1], 2))
            return line(x)

        return scores

    monkeypatch.setattr(pel.nogo, "_line_scores", counting)
    spaces = [
        small_space(eff=(0.6, 0.4), constraint=1e-3),
        SearchSpace((0.5, 0.6), num_coherent=2, cutoff=6),
    ]
    for space in spaces:
        block = pel.nogo._run_restarts(space, 5, range(pel.nogo._LOCKSTEP))
        for restart, in_block in enumerate(block):
            kept.clear()
            rows.clear()
            (alone,) = pel.nogo._run_restarts(space, 5, [restart])
            assert 1 + sum(kept) == pel.nogo._restart_cost(space)
            assert set(rows) == {1}
            assert alone[0] == in_block[0]
            assert alone[1] == in_block[1]
            assert np.array_equal(alone[2], in_block[2])


LINE_SPACES = [
    SearchSpace((0.3, 0.3)),
    SearchSpace((0.8, 0.8, 0.64)),
    SearchSpace((0.5, 0.6), num_coherent=2),
]


@pytest.mark.parametrize("space", LINE_SPACES, ids=["2+1", "3+1", "2+2"])
def test_line_scores_match_the_objective(rng, monkeypatch, space):
    # a theta and a phi line, and the real and imaginary part of an ancilla
    mesh_len = mesh_param_count(space.modes)
    coords = [0, 1, mesh_len, mesh_len + 1]
    box = space.amplitude_cap / math.sqrt(2.0)
    params = rng.uniform(-box, box, (4, space.parameter_count()))
    params[:, :mesh_len] = rng.uniform(-math.pi, math.pi, (4, mesh_len))
    engine = pel.nogo._engine(space)
    counts = []
    tabulate = engine.tabulate

    def counted(vectors, betas, count):
        counts.append(count)
        return tabulate(vectors, betas, count)

    monkeypatch.setattr(engine, "tabulate", counted)
    for coord in coords:
        line = pel.nogo._line_scores(space, params, coord)
        center = params[:, coord]
        # the centre node, and points off the nodes on either side of it
        offsets = (0.0, 0.37, -1.2, 1.5)
        if coord >= mesh_len:
            probes = [np.clip(center + offset / 4.0, -box, box) for offset in offsets]
            # and the moved ancilla at the cap, the largest |alpha| of the line
            other = params[:, mesh_len + 1 if coord == mesh_len else mesh_len]
            probes.append(np.copysign(np.sqrt(space.amplitude_cap ** 2 - other ** 2), center))
        else:
            probes = [center + offset for offset in offsets]
        for x in probes:
            trial = params.copy()
            trial[:, coord] = x
            counts.clear()
            scores = line(x)
            expected = pel.nogo._objective(space, trial)[0]
            np.testing.assert_allclose(scores, expected, rtol=0.0, atol=1e-12)
            # a line's fixed count never leaves out a pattern that the probe
            # alone can herald
            line_count, probe_count = counts
            assert line_count >= probe_count
        if coord >= mesh_len:
            # at the cap, the probe alone reaches the line's count
            assert line_count == probe_count


@pytest.mark.parametrize("space,calls", [(LINE_SPACES[0], 18), (LINE_SPACES[1], 30)],
                         ids=["3 modes", "4 modes"])
def test_search_applies_the_mesh_once_per_line(monkeypatch, space, calls):
    applied = []

    def counted(vectors, *args, **kwargs):
        applied.append(vectors.shape[0])
        return pel.interferometer.apply_mesh_to_vectors(vectors, *args, **kwargs)

    monkeypatch.setattr(pel.nogo, "apply_mesh_to_vectors", counted)
    rows = 2
    pel.nogo._run_restarts(space, 3, range(rows))
    # the start point, one call per golden-section line and the final scoring
    assert len(applied) == calls
    nodes = 2 * space.num_sources + 1
    assert set(applied) == {rows, rows * nodes}


def _plateaus(x):
    return np.round(np.cos(3.0 * x), 3)


def _steps(x):
    return np.floor(4.0 * x) / 4.0


def _flat(x):
    return np.zeros(np.shape(x))


def _holes(x):
    return np.where(np.floor(4.0 * x) % 3.0 == 0.0, np.nan, _plateaus(x))


@pytest.mark.parametrize("fun", [_plateaus, _steps, _flat, _holes],
                         ids=["plateaus", "steps", "flat", "nan"])
@pytest.mark.parametrize("evals", [2, 3, 11, 12])
@pytest.mark.parametrize("rows", [1, 2, 3, 8])
def test_golden_lookahead_matches_the_sequential_schedule(rng, fun, evals, rows):
    # plateaus, ties and NaN make every comparison matter: a lookahead that
    # kept the wrong successor, or computed it by another expression, moves
    # x, and so does a float step that rounds otherwise than the array one
    lo = rng.uniform(-2.0, 0.0, rows)
    for hi in (lo + rng.uniform(0.5, 3.0, rows), lo.copy()):
        results, probes = {}, {}
        for golden in (pel.nogo._golden_max, vectorised_golden_max):
            for ahead in (False, True):
                calls = probes[golden, ahead] = []

                def recorded(x):
                    calls.append(np.array(x))
                    return fun(x)

                results[golden, ahead] = golden(recorded, lo, hi, evals, ahead)
        shapes = {ahead: [x.shape for x in probes[pel.nogo._golden_max, ahead]]
                  for ahead in (False, True)}
        assert shapes[False] == [(rows,)] * evals
        # the initial pair, then two steps per call, and one last step alone
        assert shapes[True][0] == (rows, 2)
        assert shapes[True][1:] == (
            [(rows, 3)] * ((evals - 2) // 2) + [(rows,)] * (evals % 2)
        )
        for ahead in (False, True):
            # the float rows call fun with the reference's probes, call by call
            pairs = zip(probes[pel.nogo._golden_max, ahead],
                        probes[vectorised_golden_max, ahead], strict=True)
            for x, reference in pairs:
                assert x.shape == reference.shape
                assert np.array_equal(x, reference)
            for got, want in zip(results[pel.nogo._golden_max, ahead],
                                 results[vectorised_golden_max, False]):
                assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("rows", [1, 2, 8])
@pytest.mark.parametrize("space", LINE_SPACES, ids=["2+1", "3+1", "2+2"])
def test_restarts_on_float_brackets_match_the_array_reference(monkeypatch, space, rows):
    floats = pel.nogo._run_restarts(space, 7, range(rows))
    monkeypatch.setattr(pel.nogo, "_golden_max", vectorised_golden_max)
    arrays = pel.nogo._run_restarts(space, 7, range(rows))
    for (score, pattern, params), (score_ref, pattern_ref, params_ref) in zip(
        floats, arrays, strict=True
    ):
        assert score == score_ref
        assert pattern == pattern_ref
        assert np.array_equal(params, params_ref)


def _assert_lookahead_keeps_the_bits(space, params, coord, lo, hi):
    line = pel.nogo._line_scores(space, params, coord)
    sequential = pel.nogo._golden_max(line, lo, hi, pel.nogo._GOLDEN_EVALS)
    ahead = pel.nogo._golden_max(line, lo, hi, pel.nogo._GOLDEN_EVALS, ahead=True)
    assert np.array_equal(ahead[0], sequential[0])
    assert np.array_equal(ahead[1], sequential[1])


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("space", LINE_SPACES, ids=["2+1", "3+1", "2+2"])
def test_golden_lookahead_on_mesh_lines_keeps_the_bits(rng, space, rows):
    # each (row, probe) of a call is rebuilt and tabulated as it is alone
    params = rows_at_the_cap(rng, space, rows)
    for coord, span in ((0, math.pi / 2.0), (1, math.pi / 8.0)):
        center = params[:, coord]
        _assert_lookahead_keeps_the_bits(space, params, coord, center - span, center + span)


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("space", LINE_SPACES, ids=["2+1", "3+1", "2+2"])
def test_golden_lookahead_on_amplitude_lines_keeps_the_bits(rng, space, rows):
    # each (row, probe) of a call is tabulated at its line's pattern count,
    # as it is alone, on the brackets of both passes of _run_restarts.  Away
    # from the cap, the patterns each probe reaches alone follow the probe
    params = rows_at_the_cap(rng, space, rows)
    mesh_len = mesh_param_count(space.modes)
    params[:, mesh_len:] *= 0.7
    box = space.amplitude_cap / math.sqrt(2.0)
    for coord in range(mesh_len, space.parameter_count()):
        center = params[:, coord]
        for span in (0.6 * box, 0.15 * box):
            lo, hi = np.maximum(-box, center - span), np.minimum(box, center + span)
            _assert_lookahead_keeps_the_bits(space, params, coord, lo, hi)


@pytest.mark.parametrize("space,rows,calls", [
    (LINE_SPACES[0], 2, 98),
    (SearchSpace((0.6, 0.4), cutoff=9, min_herald=1e-3), 1, 98),
    (LINE_SPACES[0], 8, 194),
], ids=["2 restarts", "criterion 9", "block of 8"])
def test_search_looks_ahead_on_every_line_of_small_blocks(monkeypatch, space, rows, calls):
    # the start point and the final scoring, and per pass 6 mesh lines and 2
    # amplitude lines of 12 probes: a line takes 6 calls when three probes
    # per row fit in a block, else 12
    engine = pel.nogo._engine(space)
    tabulated = []
    tabulate = engine.tabulate

    def counted(vectors, betas, count):
        tabulated.append(vectors.shape[0])
        return tabulate(vectors, betas, count)

    monkeypatch.setattr(engine, "tabulate", counted)
    pel.nogo._run_restarts(space, 3, range(rows))
    assert len(tabulated) == calls
    assert max(tabulated) <= pel.nogo._LOCKSTEP


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("space", LINE_SPACES, ids=["2+1", "3+1", "2+2"])
def test_search_tabulates_one_pattern_count_per_line(monkeypatch, space, rows):
    # every tabulate call of a line carries the count the line fixed when it
    # was set up: the rows' own amplitudes on a mesh line, the moved ancilla
    # at the admitted cap on an amplitude line.  A count per call would let
    # a looked-ahead probe tabulate other patterns than it does alone
    engine = pel.nogo._engine(space)
    lines, current = [], []
    line_scores, tabulate = pel.nogo._line_scores, engine.tabulate

    def traced_line_scores(space, params, coord):
        alphas = engine.split_params(np.array(params, dtype=float))[1].copy()
        if coord >= engine.mesh_len:
            alphas[:, (coord - engine.mesh_len) // 2] = pel.nogo._admitted_cap(space)
        calls = []
        lines.append((coord, engine.reachable(alphas), calls))
        scores = line_scores(space, params, coord)

        def traced(x):
            current.append(calls)
            try:
                return scores(x)
            finally:
                current.pop()

        return traced

    def counted(vectors, betas, count):
        if current:
            current[-1].append(count)
        return tabulate(vectors, betas, count)

    monkeypatch.setattr(pel.nogo, "_line_scores", traced_line_scores)
    monkeypatch.setattr(engine, "tabulate", counted)
    pel.nogo._run_restarts(space, 3, range(rows))
    coords = space.modes * (space.modes - 1) + 2 * space.num_coherent
    assert len(lines) == pel.nogo._REFINE_PASSES * coords
    for coord, count, calls in lines:
        # three probes per row fit in a block of one or two rows: 6 calls
        assert calls == [count] * 6, coord


@pytest.mark.parametrize("space", LINE_SPACES, ids=["2+1", "3+1", "2+2"])
def test_index_tables_are_in_range(space):
    # tabulate gathers with take(mode="clip"), which would clamp an index
    # out of range instead of raising: every table is in range once built
    engine = pel.nogo._SchemeEngine(space)
    S, M = space.num_sources, space.modes
    tables = displaced_number_elements(np.zeros((1, M)), engine.max_count, S)
    for index, size in [
        (engine.row_gather, tables.size),
        (engine.column_index, engine.row_gather.shape[0]),
        (engine.psi_index, 2 * engine.inputs.size),
    ]:
        assert index.min() >= 0
        assert index.max() < size


@pytest.mark.parametrize("space", LINE_SPACES, ids=["2+1", "3+1", "2+2"])
def test_row_gather_prefixes_are_contiguous_read_only_copies(space):
    # a search call gathers through the prefix of its count without
    # copying the index: one per count that reachable returns
    engine = pel.nogo._SchemeEngine(space)
    counts = engine.reach_table[1]
    assert sorted(engine.row_gathers) == sorted(set(counts))
    assert engine.scanned in engine.row_gathers
    for count, prefix in engine.row_gathers.items():
        assert np.array_equal(prefix, engine.row_gather[:, :count])
        assert prefix.flags.c_contiguous and not prefix.flags.writeable
    # the survivor's mode 0 is never gathered: every entry lies past its table
    width = (engine.max_count + 1) * (space.num_sources + 1)
    assert engine.row_gather.min() >= width


@pytest.mark.parametrize("budget", [0, 400.5, math.nan, math.inf, -3.0])
def test_maximize_refuses_a_budget_that_is_no_whole_number(budget):
    with pytest.raises(ContractViolation, match="budget"):
        maximize_X(small_space(), budget, seed=1)


def test_maximize_takes_an_integral_float_budget_as_its_integer():
    space = small_space()
    budget = pel.nogo._restart_cost(space)
    assert maximize_X(space, float(budget), seed=1) == maximize_X(space, budget, seed=1)


def test_maximize_across_blocks_is_thread_independent():
    space = small_space(eff=(0.5, 0.3))
    budget = (2 * pel.nogo._LOCKSTEP + 3) * pel.nogo._restart_cost(space)
    reports = [maximize_X(space, budget, seed=12, threads=t) for t in (1, 2, 4)]
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].evaluations == budget


def test_maximize_starts_no_thread(monkeypatch):
    # three lockstep blocks run in the calling thread; the threads keyword
    # is accepted and changes nothing
    def refuse(thread):
        raise AssertionError(f"maximize_X started the thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    space = small_space(eff=(0.5, 0.3))
    three_blocks = (2 * pel.nogo._LOCKSTEP + 1) * pel.nogo._restart_cost(space)
    serial = maximize_X(space, three_blocks, seed=12, threads=1)
    assert maximize_X(space, three_blocks, seed=12, threads=4) == serial
    assert serial.evaluations == three_blocks


def test_importing_pel_loads_no_thread_pool():
    src = os.path.dirname(os.path.dirname(os.path.abspath(pel.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pel; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.stdout == "False\n", proc.stderr


@pytest.mark.parametrize("space", LINE_SPACES, ids=["2+1", "3+1", "2+2"])
def test_psi_padding_reads_exact_zeros(rng, monkeypatch, space):
    # one GEMM contracts every k_0, so the slots past each prefix must read
    # exactly 0, from the mesh output and from every line rebuild
    engine = pel.nogo._engine(space)
    # on the (k_0, real or imaginary part, branch) rows, detected state k'
    # fits beside k_0 only while |k'| <= S - k_0
    S = space.num_sources
    detected = make_basis(space.modes - 1, S)
    past = detected.totals[None, :] > S - np.arange(S + 1)[:, None]
    past = np.repeat(past, 2 * engine.num_branches, axis=0)
    assert past.any() and not past.all()
    params = rows_at_the_cap(rng, space, 3)
    seen = [engine.propagate(engine.split_params(params)[0])]
    tabulate = engine.tabulate

    def recording(vectors, betas, columns):
        seen.append(vectors.copy())
        return tabulate(vectors, betas, columns)

    monkeypatch.setattr(engine, "tabulate", recording)
    for coord in (0, 1, engine.mesh_len - 1, engine.mesh_len):
        line = pel.nogo._line_scores(space, params, coord)
        line(params[:, coord] * 0.9)
    assert len(seen) == 5
    for vectors in seen:
        psi = vectors.view(np.float64).reshape(vectors.shape[0], -1).take(
            engine.psi_index, axis=1
        )
        assert (psi[:, past] == 0.0).all()
        assert (psi[:, ~past] != 0.0).any()


def _per_k0_outcome_table(space, params):
    """The outcome table contracted one k_0 and one S-photon basis state at
    a time, from displacement tables of the matrix exponential: the oracle of
    the engine's gathers and its single k_0 GEMM."""
    from scipy.linalg import expm

    engine = pel.nogo._engine(space)
    S, M, B = space.num_sources, space.modes, engine.num_branches
    mesh, alphas = engine.split_params(params)
    vectors = engine.propagate(mesh)
    size = engine.max_count + S + 40
    lower = np.diag(np.sqrt(np.arange(1, size)), 1)
    rows, columns = slice(engine.max_count + 1), slice(S + 1)
    one_photon = [engine.basis.index_of(row) for row in np.eye(M, dtype=int)]
    detected = engine.patterns
    tables = np.empty((params.shape[0], 3, detected.shape[0]))
    for r, vector in enumerate(vectors):
        # beta = U[:, S:] alpha, read off the one-photon images of the ancillas
        betas = vector[one_photon, B : B + space.num_coherent] @ alphas[r]
        displaced = [
            expm(beta * lower.conj().T - np.conj(beta) * lower)[rows, columns]
            for beta in betas
        ]
        c = np.zeros((B, S + 1, detected.shape[0]), dtype=complex)
        for state, (k0, *rest) in enumerate(engine.basis.occupations):
            column = np.ones(detected.shape[0], dtype=complex)
            for j, k in enumerate(rest):
                column *= displaced[j + 1][detected[:, j], k]
            c[:, k0] += vector[state, :B, None] * column
        survivor = np.einsum("mk,bkd->mbd", displaced[0][:2], c)
        weights = engine.branch_weights
        herald = weights @ (np.abs(c) ** 2).sum(axis=1)
        vacuum, one = weights @ (np.abs(survivor) ** 2)
        tables[r] = herald, one, np.maximum(herald - vacuum - one, 0.0)
    return tables


@pytest.mark.parametrize("space", LINE_SPACES, ids=["2+1", "3+1", "2+2"])
def test_outcome_table_matches_a_per_k0_contraction(rng, space):
    # the engine takes the tables at |beta| and moves the phases arg beta
    # onto the mesh output; the oracle uses the tables at beta itself.  Of
    # the last two rows, one has beta = 0 in every mode, and one a real mesh
    # and real negative ancillas, so that some beta lies on the negative
    # real axis, where the angle is +-pi
    engine = pel.nogo._engine(space)
    n_rot = space.modes * (space.modes - 1) // 2
    vacuum, real = rows_at_the_cap(rng, space, 2)
    vacuum[engine.mesh_len:] = 0.0
    # every rotation phase and output phase 0 makes the mesh real
    real[1 : 2 * n_rot : 2] = 0.0
    real[2 * n_rot :] = 0.0
    real[engine.mesh_len :: 2] = -space.amplitude_cap
    params = np.vstack([
        rows_at_the_cap(rng, space, 3),
        rng.uniform(-0.5, 0.5, (1, space.parameter_count())),
        vacuum,
        real,
    ])
    mesh, alphas = engine.split_params(params[-2:])
    vectors = engine.propagate(mesh)
    betas = np.einsum("rjk,rk->rj",
                      vectors[:, engine.one_photon_rows, engine.ancilla_columns], alphas)
    assert (betas[0] == 0.0).all()
    assert (betas[1].imag == 0.0).all() and (betas[1].real < 0.0).any()
    herald, one, multi, _ = engine.outcome_table(params)
    reference = _per_k0_outcome_table(space, params)
    for computed, expected in zip((herald, one, multi), reference.swapaxes(0, 1)):
        assert np.abs(computed - expected).max() < 1e-13


def test_outcome_table_rows_match_single_rows(rng):
    space = small_space(eff=(0.6, 0.3, 0.5), cutoff=5)
    engine = pel.nogo._engine(space)
    params = rng.uniform(-0.5, 0.5, (5, space.parameter_count()))
    batched = engine.outcome_table(params)
    for row in range(params.shape[0]):
        single = engine.outcome_table(params[row : row + 1])
        for together, alone in zip(batched, single):
            assert np.array_equal(together[row], alone[0])


def test_explicit_pattern_restriction():
    space = small_space(eff=(0.8, 0.6), patterns=((1, 0),), min_herald=1e-6)
    report = maximize_X(space, 800, seed=4)
    assert report.best_pattern == (1, 0)
    free = maximize_X(small_space(eff=(0.8, 0.6), min_herald=1e-6), 800, seed=4)
    assert free.best_X >= report.best_X - 1e-12
    with pytest.raises(ContractViolation, match="pattern"):
        SearchSpace((0.5, 0.5), num_coherent=1, patterns=((1,),))


#: the 3- and 4-mode acceptance shapes at their highest efficiencies, and the
#: criterion-9 cell, each with the cutoff that enumerated their patterns
#: before the rank bound did
RANKED_SHAPES = {
    "3-modes": (SearchSpace((0.6, 0.6)), 16),
    "4-modes": (SearchSpace((0.8, 0.8, 0.64)), 17),
    "criterion-9": (SearchSpace((0.6, 0.4), cutoff=9, min_herald=1e-3), 9),
}


def _scanning_every_pattern(space, cutoff):
    """``space`` with every pattern up to ``cutoff`` requested: its engine
    computes each of them, above the rank bound too."""
    detected = make_basis(space.modes - 1, cutoff).occupations
    return replace(space, patterns=tuple(tuple(row) for row in detected))


@pytest.mark.parametrize("space,cutoff", RANKED_SHAPES.values(), ids=RANKED_SHAPES.keys())
def test_unranked_patterns_never_reach_min_herald(rng, space, cutoff):
    full = pel.nogo._engine(_scanning_every_pattern(space, cutoff))
    unranked = full.patterns.sum(axis=1) > space.cutoff_used
    assert unranked.any()
    assert full.patterns[unranked].sum(axis=1).min() == space.cutoff_used + 1
    assert np.array_equal(pel.nogo._engine(space).patterns, full.patterns[~unranked])
    herald = full.outcome_table(rows_at_the_cap(rng, space, 64))[0]
    assert herald[:, unranked].max() < space.min_herald


def _full_set_objective(space, params, cutoff):
    """Reference for ``_objective``: the ranking rules applied to every
    pattern up to ``cutoff``, one row at a time.  Returns the scores and the
    best patterns."""
    full = pel.nogo._engine(_scanning_every_pattern(space, cutoff))
    herald, one, multi, _ = full.outcome_table(params)
    scores, best = [], []
    for h, o, m in zip(herald, one, multi):
        eligible = [
            i for i, pattern in enumerate(full.patterns)
            if h[i] >= space.min_herald
            and (space.patterns is None or tuple(pattern) in space.patterns)
        ]
        valid = [i for i in eligible
                 if space.constraint is None or m[i] / h[i] <= space.constraint]
        if valid:
            top = max(valid, key=lambda i: o[i] / h[i])
            scores.append(o[top] / h[top])
            best.append(tuple(full.patterns[top]))
        else:
            least = min((m[i] / h[i] for i in eligible), default=None)
            scores.append(-2.0 if least is None or space.constraint is None
                          else -1.0 - least)
            best.append(None)
    return np.array(scores), best


@pytest.mark.parametrize(
    "options",
    [
        {},
        {"constraint": 1e-3},
        {"patterns": ((0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (9, 0), (5, 5))},
    ],
    ids=["free", "constrained", "patterns"],
)
def test_ranked_objective_matches_the_full_set(rng, options):
    space = SearchSpace((0.6, 0.6), **options)
    engine = pel.nogo._engine(space)
    assert space.cutoff_used < 16
    params = rows_at_the_cap(rng, space, 32)
    params[16:, engine.mesh_len:] *= rng.uniform(0.0, 1.0, (16, 1))
    scores, best = pel.nogo._objective(space, params)
    expected_scores, expected_best = _full_set_objective(space, params, 16)
    assert [tuple(engine.patterns[i]) if i >= 0 else None for i in best] == expected_best
    assert np.allclose(scores, expected_scores, rtol=1e-15, atol=0.0)


def test_ranked_subset_is_everything_when_nothing_can_be_ruled_out():
    for space, cutoff in ((SearchSpace((0.6, 0.6), min_herald=1e-13), 16),
                          (SearchSpace((0.6, 0.6), cutoff=5), 5)):
        engine = pel.nogo._engine(space)
        assert space.cutoff_used == cutoff
        # in graded order: by photon total, then lexicographic
        assert np.array_equal(engine.patterns, make_basis(2, cutoff).occupations)
        assert engine.scanned == engine.patterns.shape[0]


def test_patterns_above_the_bound_are_computed_but_never_scanned():
    space = SearchSpace((0.5, 0.5), cutoff=3, patterns=((4, 0), (0, 1)))
    engine = pel.nogo._engine(space)
    # the one scanned pattern comes first, the one above the bound last
    assert engine.scanned == 1
    assert engine.pattern_index[(0, 1)] == 0
    assert engine.pattern_index[(4, 0)] == engine.patterns.shape[0] - 1
    params = np.random.default_rng(5).uniform(-0.5, 0.5, space.parameter_count())
    _, prob, _ = evaluate_scheme(space, params, (4, 0))
    listed = evaluate_scheme(replace(space, cutoff=4), params, (4, 0))[1]
    assert prob == pytest.approx(listed, rel=1e-12)
    with pytest.raises(ContractViolation, match="fits under"):
        maximize_X(replace(space, patterns=((4, 0),)), 200, seed=1)


@pytest.mark.parametrize(
    "space",
    [SearchSpace((0.8,) * 4, num_coherent=2), SearchSpace((0.8,) * 5)],
    ids=["4+2", "5+1"],
)
def test_larger_shapes_build_under_the_rank_bound(rng, space):
    # up to the cutoffs that a coherent tail of 1e-12 alone would set (22 and
    # 19) their pattern lists exceed the basis capacity; under the rank bound
    # they do not
    engine = pel.nogo._engine(space)
    assert engine.patterns.shape[0] == math.comb(
        space.cutoff_used + space.modes - 1, space.modes - 1
    )
    scores, best = pel.nogo._objective(space, rows_at_the_cap(rng, space, 1))
    assert np.isfinite(scores).all()


@pytest.mark.parametrize(
    "space",
    [SearchSpace((0.8,) * 4, num_coherent=2), SearchSpace((0.8,) * 5)],
    ids=["4+2", "5+1"],
)
def test_every_eligible_pattern_is_ranked_on_crowded_rows(rng, space):
    # at the amplitude cap these shapes herald hundreds of patterns above
    # min_herald per row; the best X among all of them is the score
    engine = pel.nogo._engine(space)
    params = rows_at_the_cap(rng, space, 8)
    herald, one, _, _ = engine.outcome_table(params)
    eligible = herald >= space.min_herald
    assert (eligible.sum(axis=1) > 200).all()
    x_ratio = np.where(eligible, one / herald, -1.0)
    scores, best = pel.nogo._objective(space, params)
    assert np.array_equal(best, x_ratio.argmax(axis=1))
    assert np.allclose(scores, x_ratio.max(axis=1), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("constraint", [None, 1e-3], ids=["free", "constrained"])
def test_scores_keep_a_nan_x_as_a_nan_score(constraint):
    # argmax takes a NaN X as the best column, and the score must say NaN,
    # not the no-pattern fallback or a plausible X of another column
    space = SearchSpace((0.5, 0.5), constraint=constraint)
    herald = np.full((2, 4), 0.5)
    one = np.array([[0.125, 0.25, math.nan, 0.0], [0.125, 0.25, 0.0, 0.0]])
    vacuum = herald - one
    scores, best = pel.nogo._scores(space, (herald, vacuum, one))
    assert math.isnan(scores[0]) and best[0] == 2
    assert scores[1] == 0.5 and best[1] == 1


@pytest.mark.parametrize("constraint", [None, 1e-3], ids=["free", "constrained"])
def test_probe_scores_are_the_scores_values_bit_for_bit(rng, constraint):
    # a line probe takes the score through max, the objective through
    # argmax: the two must agree in every bit, NaN and the fallbacks included
    space = SearchSpace((0.5, 0.5), constraint=constraint, min_herald=1e-2)
    herald = rng.uniform(0.0, 0.05, (64, 9))
    one = herald * rng.uniform(0.0, 1.0, herald.shape)
    vacuum = (herald - one) * rng.choice([1.0, 0.9999, 0.5], herald.shape)
    one[rng.random(herald.shape) < 0.03] = math.nan
    herald[rng.random(herald.shape) < 0.03] = math.nan
    herald[:4] = 0.0
    # a row whose valid patterns all give X = 0 scores 0, not the fallback
    herald[4], one[4], vacuum[4] = 0.03, 0.0, 0.03
    seen = []
    for table in [(herald, vacuum, one), (herald[:, :1], vacuum[:, :1], one[:, :1])]:
        scores = pel.nogo._scores(space, tuple(a.copy() for a in table))[0]
        line = pel.nogo._probe_scores(space, tuple(a.copy() for a in table))
        assert np.array_equal(scores.view(np.uint64), line.view(np.uint64))
        seen.append(scores)
    assert np.isnan(seen[0]).any() and (seen[0] == -2.0).any() and seen[0][4] == 0.0


def _every_column_objective(space, params):
    """``_objective`` through every scanned pattern of the engine, whatever
    the amplitudes: the reference for the pattern count of each call."""
    engine = pel.nogo._engine(space)
    mesh, alphas = engine.split_params(params)
    vectors = engine.propagate(mesh)
    betas = engine.displacements(engine.ancilla_images(vectors), alphas)
    table = engine.tabulate(vectors, betas, engine.scanned)
    return pel.nogo._scores(space, table)


@pytest.mark.parametrize(
    "options",
    [
        {},
        {"constraint": 1e-3},
        {"patterns": ((0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (9, 0), (5, 5))},
    ],
    ids=["free", "constrained", "patterns"],
)
def test_per_probe_columns_match_the_full_set(rng, options):
    space = SearchSpace((0.6, 0.6), **options)
    engine = pel.nogo._engine(space)
    at_cap = rows_at_the_cap(rng, space, 16)
    toward_zero = rows_at_the_cap(rng, space, 16)
    toward_zero[:, engine.mesh_len:] *= np.linspace(0.0, 0.6, 16)[:, None]
    sizes = []
    for params in (at_cap, toward_zero, *toward_zero[:, None]):
        sizes.append(engine.reachable(engine.split_params(params)[1]))
        scores, best = pel.nogo._objective(space, params)
        every_scores, every_best = _every_column_objective(space, params)
        assert np.array_equal(scores, every_scores)
        assert np.array_equal(best, every_best)
        expected_scores, expected_best = _full_set_objective(space, params, 16)
        assert [tuple(engine.patterns[i]) if i >= 0 else None for i in best] == expected_best
        assert np.allclose(scores, expected_scores, rtol=1e-15, atol=0.0)
    # the rows at the cap take every scanned pattern, the others fewer
    assert sizes[0] == engine.scanned
    assert min(sizes) < sizes[0]


def test_identity_mesh_ties_go_to_the_full_set_pattern(rng):
    # with no mesh the survivor is source 0 whatever is detected, so every
    # eligible pattern gives X = p_0 up to rounding; among those ties the
    # fewer columns must report the pattern that every column reports
    space = SearchSpace((0.6, 0.4))
    engine = pel.nogo._engine(space)
    params = rows_at_the_cap(rng, space, 8)
    params[:, : engine.mesh_len] = 0.0
    params[:, engine.mesh_len:] *= np.linspace(0.1, 0.8, 8)[:, None]
    herald, one, _, _ = engine.outcome_table(params)
    eligible = herald >= space.min_herald
    assert (eligible.sum(axis=1) > 1).all()
    assert np.abs(one[eligible] / herald[eligible] - 0.6).max() < 1e-15
    for row in params[:, None]:
        assert engine.reachable(engine.split_params(row)[1]) < engine.patterns.shape[0]
        scores, best = pel.nogo._objective(space, row)
        every_scores, every_best = _every_column_objective(space, row)
        assert best == every_best and scores == every_scores


def test_report_reads_cutoff_used_from_the_engine(monkeypatch):
    space = small_space(cutoff=12)
    engine = pel.nogo._engine(space)

    def refused(space):
        raise AssertionError("the rank total was computed again")

    monkeypatch.setattr(pel.nogo, "_rank_total", refused)
    assert maximize_X(space, 200, seed=2).cutoff_used == engine.cutoff_used == 9


def test_coarse_reach_table_stays_conservative():
    # at cap 10 the rank bound reaches 146 photons; the table keeps 16
    # totals, so a mean between two of them is credited with every total
    # below the next, never fewer than it reaches
    space = SearchSpace((0.5,), amplitude_cap=10.0)
    engine = pel.nogo._engine(space)
    means, counts = engine.reach_table
    assert len(means) == pel.nogo._REACH_TOTALS and len(counts) == len(means) + 1
    # the last mean is that of the largest total, and above it every
    # scanned pattern is tabulated
    assert engine.patterns[counts[-2]].sum() == engine.cutoff_used
    assert counts[-1] == engine.scanned == engine.patterns.shape[0]
    reaches = pel.nogo._rank_bound(space)
    for mean in (0.0, 0.3, 7.0, 40.0, 99.0, 100.0):
        alphas = np.array([[math.sqrt(mean)]], dtype=complex)
        tabulated = engine.patterns[engine.reachable(alphas) - 1].sum()
        reached = max(n for n in range(engine.cutoff_used + 1) if reaches(n, mean))
        assert reached <= tabulated
        assert tabulated < engine.cutoff_used or mean >= means[-1]


#: cutoff_used, the reach_table counts and its means (``float.hex``) of the
#: search cells of perfbench and criteria 4-6, and of the criterion-9 cell,
#: as the termwise tail sums of coherent_tail_weight gave them
_REACH_PINS = {
    ((0.2, 0.2), ()): (
        8, [6, 10, 15, 21, 28, 36, 45],
        ["0x0.0p+0", "0x1.6000000bcfa84p-6", "0x1.c018000f0918ap-4",
         "0x1.1138f0892af68p-2", "0x1.ed2d421b0c5b4p-2", "0x1.7d1bc8f5a0828p-1"],
    ),
    ((0.6, 0.6), ()): (
        9, [6, 10, 15, 21, 28, 36, 45, 55],
        ["0x0.0p+0", "0x1.c000000f084a8p-8", "0x1.c544000f3585cp-5",
         "0x1.50422a8b48704p-3", "0x1.544e6d850b35bp-2", "0x1.1ba83199a3887p-1",
         "0x1.a420abff15512p-1"],
    ),
    ((0.3, 0.3), ()): (
        9, [6, 10, 15, 21, 28, 36, 45, 55],
        ["0x0.0p+0", "0x1.e00000101b2b4p-7", "0x1.5faa000bccc58p-4",
         "0x1.cedf97cf880d8p-3", "0x1.b3c4f95edf3b4p-2", "0x1.59fc5768820eap-1",
         "0x1.efc9a498b5404p-1"],
    ),
    ((0.4, 0.4, 0.32), ()): (
        9, [20, 35, 56, 84, 120, 165, 220],
        ["0x0.0p+0", "0x1.4000000abcc78p-6", "0x1.a534000e221b9p-4",
         "0x1.08ff1d88e44dap-2", "0x1.e5231f41e74c1p-2", "0x1.7a56364981136p-1"],
    ),
    ((0.8, 0.8, 0.64), ()): (
        10, [20, 35, 56, 84, 120, 165, 220, 286],
        ["0x0.0p+0", "0x1.c000000f084a8p-8", "0x1.ad6e000e68c5fp-5",
         "0x1.454cf96aea4fep-3", "0x1.4c90a52270b66p-2", "0x1.160871e655062p-1",
         "0x1.9d4b90171a7d8p-1"],
    ),
    ((0.6, 0.4), (("cutoff", 9), ("min_herald", 1e-3))): (
        7, [6, 10, 15, 21, 28, 36],
        ["0x1.0000000897060p-8", "0x1.729c000c6f82ap-4", "0x1.3263acca47dd5p-2",
         "0x1.3144370e8e381p-1", "0x1.eacd3eb4a9288p-1"],
    ),
}


@pytest.mark.parametrize("constraint", [None, 1e-9], ids=["free", "constrained"])
@pytest.mark.parametrize("cell", list(_REACH_PINS), ids=str)
def test_rank_totals_and_reach_tables_keep_their_bits(cell, constraint):
    # the one Poisson tail table moves no pattern count of these cells, so
    # every search call tabulates what it did before
    efficiencies, options = cell
    space = SearchSpace(efficiencies, constraint=constraint, **dict(options))
    cutoff_used, counts, means = _REACH_PINS[cell]
    assert space.cutoff_used == cutoff_used
    assert pel.nogo._SchemeEngine(space).reach_table == (
        [float.fromhex(mean) for mean in means], counts
    )


def _decimal_rank_bound(space, total):
    """P(N >= total) at the cap mean in 50-digit decimal: the sources' count
    law against Poisson tails summed term by term."""
    getcontext().prec = 50
    mean = Decimal(pel.nogo._cap_mean(space))
    counts = [Decimal(1)]
    for p in map(Decimal, space.source_efficiencies):
        counts = [a * (1 - p) + b * p for a, b in zip(counts + [0], [0] + counts)]
    bound = Decimal(0)
    for k, weight in enumerate(counts):
        if total <= k:
            bound += weight
            continue
        # P(X >= total - k): its first term, then the terms after it
        term = (-mean).exp()
        for n in range(1, total - k + 1):
            term = term * mean / n
        n, tail = total - k, Decimal(0)
        while term > tail * Decimal("1e-40"):
            tail += term
            n += 1
            term = term * mean / n
        bound += weight * tail
    return bound


@pytest.mark.parametrize("efficiencies,cutoff_used", [((0.0,), 307), ((0.6, 0.4), 308)])
def test_rank_total_is_the_last_total_whose_exact_bound_reaches(efficiencies, cutoff_used):
    # at cap 10 with two ancillas the rank total sits where the bound crosses
    # the 1e-12 herald floor: on (0.0,) P(N >= 307) = 1.39e-12 and
    # P(N >= 308) = 8.95e-13, which termwise tail sums counted as reaching it
    space = SearchSpace(efficiencies, num_coherent=2, amplitude_cap=10.0, min_herald=0.0)
    assert space.cutoff_used == cutoff_used
    floor = Decimal(HERALD_FLOOR)
    assert _decimal_rank_bound(space, cutoff_used) >= floor
    assert _decimal_rank_bound(space, cutoff_used + 1) < floor


def test_cap_past_every_pattern_basis_is_refused():
    # a mean of 1e12 photons reaches 20000 photons, more than any pattern
    # basis holds; the bound is refused without a term computed
    for cap in (1e6, 1e150):
        with pytest.raises(CapacityError, match="20000 photons"):
            SearchSpace((0.5,), amplitude_cap=cap).cutoff_used


def test_scanned_patterns_within_each_total_are_a_prefix(rng):
    # graded order: by photon total, then lexicographic
    space = SearchSpace((0.6, 0.4))
    cutoff = space.cutoff_used
    assert np.array_equal(pel.nogo._engine(space).patterns,
                          make_basis(2, cutoff).occupations)
    # with requested patterns: the scanned ones, then the other enumerated
    # ones, then those above the bound, each group graded
    requested = ((2, 1), (0, cutoff + 2), (1, 5), (cutoff + 1, 0), (0, 0), (1, 0))
    listed = replace(space, patterns=requested)
    engine = pel.nogo._engine(listed)
    order = [tuple(row) for row in engine.patterns.tolist()]
    assert engine.scanned == 4
    assert order[:4] == [(0, 0), (1, 0), (2, 1), (1, 5)]
    assert order[4:-2] == [tuple(row) for row in make_basis(2, cutoff).occupations.tolist()
                           if tuple(row) not in requested]
    assert order[-2:] == [(cutoff + 1, 0), (0, cutoff + 2)]
    # each call's count holds every scanned pattern within the total that
    # its largest ||alpha||^2 reaches, and nothing past the scanned ones
    reaches = pel.nogo._rank_bound(listed)
    params = rows_at_the_cap(rng, listed, 12)
    params[:, engine.mesh_len:] *= np.linspace(0.0, 1.0, 12)[:, None]
    counts = set()
    for row in params[:, None]:
        alphas = engine.split_params(row)[1]
        count = engine.reachable(alphas)
        mean = float(np.square(np.abs(alphas)).sum())
        reached = max(n for n in range(cutoff + 1) if reaches(n, mean))
        assert all(sum(order[i]) > reached for i in range(count, engine.scanned))
        assert 1 <= count <= engine.scanned
        counts.add(count)
    assert len(counts) > 1


def test_calls_below_every_scanned_total_rank_no_pattern(rng):
    # the one requested pattern needs 8 photons, which small amplitudes
    # cannot herald: such a call tabulates it alone, and never ranks it
    space = SearchSpace((0.6, 0.6), patterns=((4, 4),))
    engine = pel.nogo._engine(space)
    params = rows_at_the_cap(rng, space, 4)
    params[:, engine.mesh_len:] *= 0.01
    assert engine.reachable(engine.split_params(params)[1]) == 1
    scores, best = pel.nogo._objective(space, params)
    assert (scores == -2.0).all() and (best == -1).all()
    budget = 3 * pel.nogo._restart_cost(space)
    assert maximize_X(space, budget, seed=1).evaluations == budget
