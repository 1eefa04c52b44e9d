import math
from dataclasses import replace

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
from pel.errors import (
    ArityError,
    CapacityError,
    ContractViolation,
    HeraldImpossibleError,
)

from conftest import rows_at_the_cap


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
        ("max_patterns", 0),
        ("max_patterns", 2.5),
        ("constraint", math.nan),
        ("constraint", math.inf),
        ("constraint", -0.5),
    ],
)
def test_search_space_rejects_bad_values(field, value):
    with pytest.raises(ContractViolation, match=field):
        SearchSpace((0.5, 0.5), cutoff=6, **{field: value})


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
    with pytest.raises(HeraldImpossibleError):
        evaluate_scheme(space, np.zeros(space.parameter_count()), (8, 0))


def test_amplitude_cap_enforced():
    space = small_space(amplitude_cap=0.5)
    params = np.zeros(space.parameter_count())
    params[-2] = 0.9
    with pytest.raises(ContractViolation, match="amplitude"):
        evaluate_scheme(space, params, (0, 0))


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


def test_pattern_cap_ranks_only_eligible_patterns():
    # the cap keeps the heaviest heralds among the scanned patterns; ranking
    # among all patterns would keep (0, 0), (1, 0) and (0, 1) and rank none
    scanned = ((0, 3), (3, 0), (2, 2), (1, 3), (3, 1))
    space = SearchSpace((0.5, 0.5), cutoff=6, max_patterns=3, patterns=scanned)
    assert maximize_X(space, 1, seed=4).best_pattern in scanned
    params = np.random.default_rng(3).uniform(-0.5, 0.5, space.parameter_count())
    outcomes = {p: evaluate_scheme(space, params, p) for p in scanned}
    heaviest = sorted(scanned, key=lambda p: outcomes[p][1])[-3:]
    expected = max(heaviest, key=lambda p: outcomes[p][0])
    scores, best = pel.nogo._objective(space, params[None])
    assert tuple(pel.nogo._engine(space).patterns[best[0]]) == expected
    assert scores[0] == pytest.approx(outcomes[expected][0], rel=1e-12)


def test_lockstep_block_matches_restarts_run_alone():
    space = small_space(eff=(0.6, 0.4), constraint=1e-3)
    block = pel.nogo._run_restarts(space, 5, range(pel.nogo._LOCKSTEP))
    for restart, in_block in enumerate(block):
        (alone,) = pel.nogo._run_restarts(space, 5, [restart])
        assert alone[0] == in_block[0]
        assert alone[1] == in_block[1]
        assert np.array_equal(alone[2], in_block[2])
        assert alone[3] == in_block[3] == pel.nogo._restart_cost(space)


def test_maximize_across_blocks_is_thread_independent():
    space = small_space(eff=(0.5, 0.3))
    budget = (2 * pel.nogo._LOCKSTEP + 3) * pel.nogo._restart_cost(space)
    reports = [maximize_X(space, budget, seed=12, threads=t) for t in (1, 2, 4)]
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].evaluations == budget


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
        # sorted is stable: equal heralds keep the list order
        eligible = sorted(sorted(eligible, key=lambda i: -h[i])[: space.max_patterns])
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
        {"max_patterns": 3},
    ],
    ids=["free", "constrained", "patterns", "crowded"],
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
        every = np.unique(make_basis(2, cutoff).occupations, axis=0)
        assert np.array_equal(engine.patterns, every)


def test_patterns_above_the_bound_are_computed_but_never_scanned():
    space = SearchSpace((0.5, 0.5), cutoff=3, patterns=((4, 0), (0, 1)))
    engine = pel.nogo._engine(space)
    assert engine.scan_mask.sum() == 1
    assert engine.scan_mask[engine.pattern_index[(0, 1)]]
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
