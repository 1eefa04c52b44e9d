"""Property tests over extreme amplitudes, cutoffs and search spaces."""

import math
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import pel  # noqa: E402
from conftest import rows_at_the_cap  # noqa: E402
from pel import SearchSpace, coherent_tail_weight  # noqa: E402


@settings(max_examples=200, deadline=None)
@given(
    size=st.floats(0.0, 60.0),
    phase=st.floats(-math.pi, math.pi),
    cutoff=st.integers(0, 400),
)
def test_coherent_tail_is_a_probability_falling_with_the_cutoff(size, phase, cutoff):
    alpha = size * complex(math.cos(phase), math.sin(phase))
    tail = coherent_tail_weight(alpha, cutoff)
    assert 0.0 <= tail <= 1.0
    assert coherent_tail_weight(alpha, cutoff + 1) <= tail


@settings(max_examples=40, deadline=None)
@given(
    efficiencies=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    num_coherent=st.integers(0, 1),
    amplitude_cap=st.floats(0.05, 2.0),
    min_herald=st.floats(1e-10, 0.5),
    cutoff=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_bound_never_prunes_a_reachable_pattern(
    efficiencies, num_coherent, amplitude_cap, min_herald, cutoff, seed
):
    num_coherent = max(num_coherent, 2 - len(efficiencies))
    space = SearchSpace(
        tuple(efficiencies), num_coherent=num_coherent, cutoff=cutoff,
        amplitude_cap=amplitude_cap, min_herald=min_herald,
    )
    # an engine that computes every pattern up to the cutoff
    detected = pel.make_basis(space.modes - 1, cutoff).occupations
    engine = pel.nogo._SchemeEngine(
        replace(space, patterns=tuple(tuple(row) for row in detected))
    )
    params = rows_at_the_cap(np.random.default_rng(seed), space, 16)
    # the first row's mesh is the identity
    params[0, : engine.mesh_len] = 0.0
    herald = engine.outcome_table(params)[0]
    unranked = engine.patterns.sum(axis=1) > space.cutoff_used
    assert np.all(herald[:, unranked] < min_herald)


@settings(max_examples=150, deadline=None)
@given(
    size=st.floats(0.0, 4.0),
    phase=st.floats(-math.pi, math.pi),
    photons=st.integers(0, 5),
    room=st.integers(0, 100),
)
def test_displacement_table_columns_are_orthonormal(size, phase, photons, room):
    # column k of the table is D(alpha)|k> cut at the cutoff; once the
    # coherent tail beyond cutoff - photons is negligible, so is what the
    # cutoff drops of every column
    alpha = size * complex(math.cos(phase), math.sin(phase))
    assume(coherent_tail_weight(alpha, room) < 1e-24)
    table = pel.displaced_number_elements(alpha, room + photons, photons)
    gram = table.conj().T @ table
    assert np.abs(gram - np.eye(photons + 1)).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    efficiencies=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    num_coherent=st.integers(1, 2),
    amplitude_cap=st.floats(0.05, 2.0),
    min_herald=st.floats(1e-10, 0.5),
    cutoff=st.integers(1, 8),
    share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_probe_columns_never_prune_a_reachable_pattern(
    efficiencies, num_coherent, amplitude_cap, min_herald, cutoff, share, seed
):
    space = SearchSpace(
        tuple(efficiencies), num_coherent=num_coherent, cutoff=cutoff,
        amplitude_cap=amplitude_cap, min_herald=min_herald,
    )
    engine = pel.nogo._SchemeEngine(space)
    # every ancilla of row r at |alpha_j|^2 = share * u_r * cap^2, u_0 = 1:
    # the largest Poisson mean is share * K * cap^2, in [0, K cap^2]
    rng = np.random.default_rng(seed)
    params = rows_at_the_cap(rng, space, 8)
    scale = np.sqrt(share * rng.uniform(0.0, 1.0, 8))
    scale[0] = math.sqrt(share)
    params[:, engine.mesh_len:] *= scale[:, None]
    # the second row's mesh is the identity
    params[1, : engine.mesh_len] = 0.0
    alphas = engine.split_params(params)[1]
    mean = float(np.square(np.abs(alphas)).sum(axis=1).max())
    assert mean == pytest.approx(share * num_coherent * amplitude_cap**2, rel=1e-12)
    count = engine.reachable(alphas)
    total = engine.patterns[count - 1].sum()
    # the stored means never exceed the least mean that reaches the total
    # of the first pattern left out below them, and every total reached at
    # the largest mean is tabulated
    reaches = pel.nogo._rank_bound(space)
    means, counts = engine.reach_table
    assert all(not reaches(engine.patterns[c].sum(), m) for c, m in zip(counts, means))
    assert all(n <= total for n in range(engine.cutoff_used + 1) if reaches(n, mean))
    # an engine that computes every pattern up to the cutoff
    detected = pel.make_basis(space.modes - 1, cutoff).occupations
    full = pel.nogo._SchemeEngine(
        replace(space, patterns=tuple(tuple(row) for row in detected))
    )
    herald = full.outcome_table(params)[0]
    kept = {tuple(row) for row in engine.patterns[:count]}
    left_out = [i for i, row in enumerate(full.patterns) if tuple(row) not in kept]
    assert np.all(herald[:, left_out] < min_herald)
