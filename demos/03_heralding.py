"""Photon-number heralding: condition on a detection outcome and inspect the
surviving mode."""

import numpy as np

import pel

cutoff = 4
single = pel.make_basis(1, cutoff)
joint = pel.make_basis(2, cutoff)

# two imperfect sources into a slightly unbalanced coupler
source = pel.tensor_all(
    [pel.make_state(pel.Isps(0.6), single), pel.make_state(pel.Isps(0.6), single)],
    joint,
)
u = pel.from_mesh([0.5, 0.0, 0.0, 0.0], 2)
rho = pel.apply_interferometer(source, u)

print("outcome probabilities for detecting n photons on mode 1:")
for n in range(4):
    prob = pel.outcome_probability(rho, pel.MeasurementPattern({1: n}))
    print(f"  n={n}: {prob:.6f}")

survivor, prob = pel.condition(rho, pel.MeasurementPattern({1: 1}))
print()
print(f"conditioned on one click (probability {prob:.4f}), the survivor holds:")
print("  photon-number weights:", np.round(survivor.diagonal(), 6))
print("  single-photon probability:", round(pel.single_photon_probability(survivor), 6))
print("  multiphoton weight:", round(pel.multiphoton_weight(survivor), 6))

# photon statistics need only the output's diagonal, which V's photon blocks
# give without forming V rho V^dag (this is what `pel simulate` reads)
diagonal = pel.output_diagonal(source, u)
prob_d, weights = pel.heralded_distribution(
    joint, diagonal, pel.MeasurementPattern({1: 1}), pel.config.HERALD_FLOOR
)
print("  weights from the output diagonal alone:", np.round(weights, 6),
      f"(probability {prob_d:.4f})")
print("  largest difference from condition's:",
      np.abs(weights - survivor.diagonal()).max())

# a mode can also be discarded unread; that is exactly a partial trace
wild, p_wild = pel.condition(rho, pel.MeasurementPattern({1: None}))
reduced = pel.partial_trace(rho, [0])
print()
print("discarding mode 1 unread equals tracing it out:",
      np.abs(wild.elements - reduced.elements).max())
