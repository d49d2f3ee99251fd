"""Certify where maps sit in the k-positivity hierarchy.

Transposition on a qubit algebra is positive but not 2-positive, while its
composition with itself is completely positive; the reduction-type family
lam * Tr(a) I - a on a qutrit algebra crosses k-positivity exactly at
lam = k.  Violations come with exact re-checkable witnesses; a search that
finds none is sampling evidence with its budget attached, while the spectral
bound of the Choi matrix proves k-positivity outright where it is nonnegative.
"""

import numpy as np

from posmap.kpositivity import (
    bisect_threshold,
    decomposability_witness,
    decomposition_certificate,
    dk_compose,
    is_k_copositive,
    is_k_positive,
    pk_check,
    sk_check,
    spectral_bound,
)
from posmap.linalg import hermitian_part, psd_tol, rng_stream
from posmap.maps import choi_qutrit_map, random_decomposable_map, reduction_family, transposition_map

np.set_printoptions(precision=4, suppress=True)

print("=== transposition on a qubit algebra ===")
t = transposition_map(2)
for k in (1, 2):
    v = is_k_positive(t, k, restarts=32, seed=5)
    print(f"  {k}-positive: {v.kind} (value {v.value:+.3e})")
v = is_k_copositive(t, 2, seed=5)
print(f"  2-copositive: {v.kind} (value {v.value:+.3e})")

print("\n=== reduction family thresholds by bisection ===")
for k in (1, 2):
    th = bisect_threshold(lambda lam: reduction_family(lam, 3), k, 0.2, 3.0, steps=30, restarts=32, seed=7)
    print(f"  k={k}: threshold located at lam = {th:.6f} (exact value {k})")
    h = hermitian_part(reduction_family(k, 3).choi())
    bound, tol = spectral_bound(h, 3, 3, k), psd_tol(h)
    proof = "proves" if bound >= -tol else "does not prove"
    print(f"    spectral bound at lam = {k}: {bound:+.1e} against -psd_tol {-tol:.1e}, "
          f"which {proof} {k}-positivity")

print("\n=== a decomposable map passes the block-matrix and corner conditions ===")
rng = rng_stream(9)
total, part_pos, part_copos = random_decomposable_map(rng, 3, 3)
cert = dk_compose(total, part_pos, part_copos, 2, restarts=8, seed=1)
print(f"  decomposition certificate residual: {cert.residual:.1e}")
print(f"  doubly-PSD image condition: {sk_check(total, 2, samples=200, seed=2).kind}")
print(f"  corner condition: {pk_check(total, 2, projections=40, seed=3).kind}")
primal = decomposition_certificate(hermitian_part(total.choi()), 3, 3)
print(f"  primal search: {primal.kind} after {primal.stats['iterations']} iterations "
      f"(bound {primal.value:+.1e}, a proof: no witness exists)")

print("\n=== the qutrit fixture is positive but NOT decomposable ===")
cm = choi_qutrit_map()
h = hermitian_part(cm.choi())
primal = decomposition_certificate(h, 3, 3)
print(f"  primal search: {primal.kind}, {primal.stats['termination']} at bound {primal.value:+.4f}")
verdict = decomposability_witness(h, 3, 3)
print(f"  witness search: {verdict.kind}, pairing {verdict.value:+.4f}")
w = verdict.witness["state"]
print(f"  witness state min eigenvalue: {np.linalg.eigvalsh(w)[0]:+.2e} (a genuine PPT state)")
