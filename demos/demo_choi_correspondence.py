"""Walk through the map/operator correspondence on small examples.

Every linear map phi: B(C^m) -> B(C^n) is encoded by the bipartite operator
h = sum_ij E_ij (x) phi(E_ij); positivity properties of phi become spectral
and product-vector properties of h.  This script builds the three classic
maps, reads their operators, and runs the base positivity tests.
"""

import numpy as np

from posmap.choi import MatrixMap, block_positivity_forms, cp_verdict, kernel_transpose_gap
from posmap.kpositivity import is_k_positive
from posmap.linalg import hermitian_part, random_unit_vector, rng_stream
from posmap.maps import identity_map, swap_operator, trace_times_identity, transposition_map

np.set_printoptions(precision=4, suppress=True, linewidth=110)

print("=== the three classic maps on a qubit algebra ===\n")
catalog = {
    "identity": identity_map(2),
    "transposition": transposition_map(2),
    "trace * identity": trace_times_identity(2),
}
for name, phi in catalog.items():
    h = phi.choi()
    print(f"{name}: operator =")
    print(h.real)
    verdict = cp_verdict(phi)
    print(f"  complete positivity: {verdict.kind} (min eigenvalue {verdict.value:+.4f})")
    bp = is_k_positive(phi, 1, restarts=16, seed=11)
    print(f"  block positivity (1-positivity) search: {bp.kind}, min product value {bp.value:+.3e}\n")

print("=== transposition's operator is the flip ===")
print("||choi(t) - swap|| =", np.linalg.norm(transposition_map(2).choi() - swap_operator(2)))

print("\n=== the dual trace-kernel encoding agrees after full transposition ===")
for name, phi in catalog.items():
    print(f"  {name}: ||h - g^T|| = {kernel_transpose_gap(phi):.2e}")

print("\n=== the two encodings invert each other ===")
phi = MatrixMap.from_choi(np.eye(4, dtype=complex), 2, 2)
a = np.array([[1, 2], [3, 4]], dtype=complex)
print("map of the identity operator applied to [[1,2],[3,4]]:")
print(phi(a).real, " (= Tr(a) * I)")

print("\n=== the three equivalent quadratic forms ===")
rng = rng_stream(3)
h = hermitian_part(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
x, y = random_unit_vector(rng, 2), random_unit_vector(rng, 3)
f1, f2, f3 = block_positivity_forms(h, 2, 3, x, y)
print(f"product form {f1:+.6f}, second-factor blocks {f2:+.6f}, first-factor blocks {f3:+.6f}")
