"""Property tests over extreme amplitudes, cutoffs and search spaces."""

import math
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
