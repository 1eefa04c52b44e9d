"""Interferometers: rectangular meshes, Haar sampling, and the Fock lift.

Shows the two-photon interference dip (two photons entering a balanced
coupler never exit one per port) and the Fock lift, built by the
creation-operator ladder, against its oracle, the permanent formula.  The
"mesh" lift is the same ladder on the unitary of a decompose / from_mesh
round trip.
"""

import numpy as np

import pel

print("== mesh parametrization ==")
u = pel.haar_random(3, seed=11)
params = pel.decompose(u)
rebuilt = pel.from_mesh(params, 3)
print("Haar-random 3-mode unitary decomposed into",
      len(pel.mesh_layout(3)), "rotations + 3 phases")
print("rebuild error:", np.abs(rebuilt.matrix - u.matrix).max())

print()
print("== two-photon interference ==")
basis = pel.make_basis(2, 2)
coupler = pel.from_mesh([np.pi / 4, 0, 0, 0], 2)
state = np.zeros(basis.dimension, complex)
state[basis.index_of((1, 1))] = 1.0
out = pel.lift(coupler, basis).matrix() @ state
for i, amp in enumerate(out):
    if abs(amp) > 1e-12:
        print(f"  amplitude on {basis.occupation_of(i)}: {amp:+.4f}")
print("the (1,1) output amplitude vanishes: photons bunch")

print()
print("== the lift and its oracle ==")
basis = pel.make_basis(3, 4)
ladder_blocks = pel.lift(u, basis).blocks
for method, name in (("permanent", "permanent formula"),
                     ("mesh", "ladder of the mesh round trip")):
    other = pel.lift(u, basis, method).blocks
    worst = max(np.abs(a - b).max() for a, b in zip(ladder_blocks, other))
    print(f"creation-operator ladder vs {name}, max difference:", worst)
print("block sizes per total photon number:",
      [b.shape[0] for b in ladder_blocks])
