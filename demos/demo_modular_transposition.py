"""Transposition through the modular looking glass.

For a faithful state the representation space is the matrix algebra itself
with the Hilbert-Schmidt inner product.  The script builds the modular data,
verifies that the swap unitary and the conjugations interlock exactly as the
theory says, factors the transposition carrier as tau = U Delta^(1/2), and
shows the interpolating cone family with its duality.
"""

import numpy as np

from posmap.modular import (
    check_polar_factorization,
    check_unitary_relations,
    cone_state,
    cone_vector,
    frame_transposition_map,
    gns_context,
    schwarz_defect,
    t_phi,
    transpose_via_conjugations,
    v_beta_duality_check,
    v_beta_member,
)
from posmap.linalg import random_complex, random_faithful_state, random_psd, rng_stream
from posmap.maps import transposition_map

np.set_printoptions(precision=4, suppress=True)

rng = rng_stream(2024)
rho = random_faithful_state(rng, 3)
ctx = gns_context(rho)
print("state spectrum:", ctx.eigenvalues)

print("\n=== conjugation identities ===")
for name, defect in check_unitary_relations(ctx).items():
    print(f"  {name:>18s}: {defect:.2e}")

print("\n=== polar factorization of the transposition carrier ===")
print(f"  ||tau - U Delta^(1/2)|| = {check_polar_factorization(ctx):.2e}")

print("\n=== pointwise transposition through the conjugations ===")
a = random_complex(rng, (3, 3))
xi = random_complex(rng, (3, 3))
lhs, rhs, gap = transpose_via_conjugations(a, xi)
print(f"  ||a^t xi - J a* J xi|| = {gap:.2e}")

print("\n=== the induced operator of the eigenbasis transposition IS the carrier ===")
induced = t_phi(ctx, frame_transposition_map(ctx))
print(f"  operator defect vs tau: {induced.operator.defect(ctx.tau):.2e}")
print(f"  state invariance defect: {induced.invariance_defect:.2e}")

print("\n=== transposition is not a Schwarz map, but satisfies the reversed order ===")
t = transposition_map(3)
print(f"  direct order defect:   {schwarz_defect(t, samples=40, seed=1):.3f}  (positive: fails)")
print(f"  reversed order defect: {schwarz_defect(t, samples=40, seed=1, reversed_product=True):.1e}")

print("\n=== the interpolating cone family and its duality ===")
for beta in (0.0, 0.1, 0.25, 0.5):
    report = v_beta_duality_check(ctx, beta, samples=60, seed=3)
    print(
        f"  beta={beta:.2f}: min pairing {report['min_real_pairing']:+.2e}, "
        f"swap flips failed: {int(report['flip_failures'])}"
    )

print("\n=== vector states of swapped cone elements are transposed states ===")
xi = cone_vector(ctx, 0.25, random_psd(rng, 3))
gap = np.linalg.norm(cone_state(ctx, ctx.U.apply(xi)) - cone_state(ctx, xi).T)
print(f"  ||state(U xi) - state(xi)^T|| = {gap:.2e}")
print("\nmembership of the cyclic vector at beta=1/4:", v_beta_member(ctx, 0.25, ctx.Omega).member)
