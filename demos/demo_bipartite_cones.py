"""Bipartite natural cones and the partial-swap symmetry.

On a two-qubit system the positive cone of the product representation
consists of sandwiched PSD matrices; the partial swap of the second factor
carries it onto the transposed cone.  Vectors in both cones are exactly the
ones whose block matrices are PSD in both orderings, which is the cone-level
shadow of the doubly-PSD block condition for maps.
"""

import numpy as np

from posmap.cones import (
    bipartite_context,
    cone_member,
    odd_part_flags,
    odd_part_polar,
    sample_intersection_element,
    split_bounds_check,
    transposed_cone_consistency,
    weak_kdec_cone_check,
)
from posmap.linalg import rng_stream
from posmap.maps import identity_map, max_entangled_projector, transposition_map
from posmap.modular import gns_context

np.set_printoptions(precision=4, suppress=True)

ctx = bipartite_context(np.diag([1 / 3, 2 / 3]), np.diag([1 / 4, 3 / 4]))
rng = rng_stream(5150)

print("=== membership of three landmark vectors ===")
landmarks = {
    "cyclic vector": ctx.omega,
    "doubly-PSD block vector": sample_intersection_element(ctx, rng),
    "maximally entangled block vector": ctx.cone_vector(max_entangled_projector(2)),
}
for name, xi in landmarks.items():
    mem = cone_member(ctx, xi)
    print(
        f"  {name:32s} in P: {str(mem.in_p):5s} in P^tau: {str(mem.in_ptau):5s} "
        f"(min eigs {mem.p_min_eig:+.3f} / {mem.ptau_min_eig:+.3f})"
    )

print("\n=== partial swap sends block matrices to their block transposes ===")
report = transposed_cone_consistency(ctx, samples=80, seed=1)
print(f"  identity defect:   {report['identity_defect']:.2e}")
print(f"  commutant pairing: {report['commutant_pairing_min']:+.3e} (>= 0)")
print(f"  hull duality:      {report['duality_pairing_min']:+.3e} (>= 0)")

print("\n=== even/odd split under the symmetry ===")
xi = sample_intersection_element(ctx, rng)
even, odd = ctx.p_project(xi), ctx.q_project(xi)
print(f"  ||even part|| = {np.linalg.norm(even):.4f} >= ||odd part|| = {np.linalg.norm(odd):.4f}")
margins = split_bounds_check(ctx, xi, eta_samples=200, seed=2)
print(f"  inequality violations over 200 dual samples: {int(margins['violations'])}")

flags = odd_part_flags(ctx, xi)
print(f"  odd part in cone / zero / fixed point: {flags.q_in_p} / {flags.q_zero} / {flags.fixed}")
polar = odd_part_polar(ctx, xi)
print(f"  odd-part polar reconstruction defect: {polar.reconstruction_defect:.2e}")

print("\n=== weak decomposability through cone duality ===")
ctx_a = gns_context(np.eye(2, dtype=complex) / 2)
for name, phi in {"identity": identity_map(2), "transposition": transposition_map(2)}.items():
    verdict = weak_kdec_cone_check(ctx_a, phi, 2, samples=40, seed=3)
    print(f"  {name:13s}: {verdict.kind} (min pairing {verdict.value:+.3e})")
neg = weak_kdec_cone_check(ctx_a, -1.0 * identity_map(2), 2, samples=20, seed=4)
print(f"  negated identity: {neg.kind} (pairing {neg.value:+.3e})")
