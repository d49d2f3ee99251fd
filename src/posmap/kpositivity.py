"""Certification of k-positivity, k-copositivity, and decomposability conditions.

A map is k-positive exactly when every compression of its Choi matrix by
I (x) p, p a rank-<=k projection on the output side, is PSD.  The searches
below follow the asymmetric doctrine: a negative compressed eigenvalue is an
exact, re-checkable violation; exhausting a sampling budget only yields
evidence.

Four related conditions are certified separately and none is ever inferred
from the others:

- `k_block_min` / `is_k_positive` / `is_k_copositive`: compression tests;
- `sk_check`: images of doubly-PSD block matrices stay PSD;
- `pk_check`: compressed corners admit no witness against decomposability;
- `decomposability_witness`: search for a PPT state pairing negatively with
  the Choi matrix (an exact certificate of non-decomposability when found).
"""

from __future__ import annotations

import numpy as np

from .choi import MatrixMap
from .errors import (
    ComponentNotKCopositiveError,
    ComponentNotKPositiveError,
    KOutOfRangeError,
    NotHermitianError,
)
from .linalg import (
    HERMITIAN_RTOL,
    alternate_ppt_projections,
    check_hermitian,
    frobenius,
    haar_isometry,
    herm_eig,
    hermitian_part,
    partial_transpose,
    ppt_min_eigs,
    psd_min_eig,
    psd_tol,
    random_complex,
    random_psd,
    rng_stream,
)
from .verdicts import EVIDENCE, VIOLATION, DecompCertificate, Verdict


def _compressed_choi(h4: np.ndarray, iso: np.ndarray) -> np.ndarray:
    """(I (x) V)* h (I (x) V) for an output-side isometry V of shape (n, k)."""
    m = h4.shape[0]
    k = iso.shape[1]
    c = np.einsum("ak,iajb,bl->ikjl", iso.conj(), h4, iso)
    return c.reshape(m * k, m * k)


def _isometry_step(
    h4: np.ndarray, z: np.ndarray, k: int, rng: np.random.Generator, jitter: float
) -> np.ndarray:
    """Minimize the witness form over the output-side isometry for fixed
    compressed coefficients.

    The form is quadratic in the isometry entries, so its unconstrained
    minimizer is a bottom eigenvector of the coefficient matrix; for k = 1
    that is already a unit vector (the step is exact), for k > 1 the
    minimizer is projected back to an isometry through its polar factor.
    """
    m, n = h4.shape[0], h4.shape[1]
    coeff = np.einsum("ik,iajb,jl->akbl", z.reshape(m, k).conj(), h4, z.reshape(m, k))
    coeff = coeff.reshape(n * k, n * k)
    eig = herm_eig(hermitian_part(coeff))
    raw = eig.eigenvectors[:, 0].reshape(n, k)
    if jitter > 0:
        raw = raw + jitter * random_complex(rng, (n, k))
    u, s, vh = np.linalg.svd(raw, full_matrices=False)
    if s[-1] < 1e-12 * max(s[0], 1.0):
        raw = raw + 1e-6 * random_complex(rng, (n, k))
        u, _, vh = np.linalg.svd(raw, full_matrices=False)
    return u @ vh


def k_block_min(
    phi: MatrixMap,
    k: int,
    *,
    restarts: int = 32,
    max_alternations: int = 200,
    improve_tol: float = 1e-12,
    seed: int = 0,
    tol: float | None = None,
) -> Verdict:
    """Minimize the smallest eigenvalue of (I (x) p) h (I (x) p) over rank-k
    projections p on the output space.

    The see-saw alternates two steps: for a fixed projection take the bottom
    eigenvector of the compressed Choi matrix; for fixed compressed
    coefficients re-fit the isometry by minimizing the same quadratic form
    (exactly at rank one, via a polar projection otherwise), with a decaying
    local perturbation.  Restarts draw Haar-random projections (the first
    restart uses the coordinate projection).  With k equal to the output
    dimension the compression is the identity and the test is exact.

    A violation carries the witness {"projection", "vector"}: the rank-<=k
    output-side projection and the lifted eigenvector of the compressed Choi
    matrix, whose Rayleigh quotient is the negative `value`.
    """
    m, n = phi.m, phi.n
    if not 1 <= k <= n:
        raise KOutOfRangeError(f"k={k} outside 1..{n}")
    if not phi.is_hermiticity_preserving(HERMITIAN_RTOL):
        raise NotHermitianError("map is not Hermiticity-preserving")
    h = hermitian_part(phi.choi())
    if tol is None:
        tol = psd_tol(h)
    h4 = h.reshape(m, n, m, n)

    if k == n:
        eig = herm_eig(h)
        val = float(eig.eigenvalues[0])
        stats = {"restarts": 1, "alternations": 0, "seed": seed, "min_value": val, "exact": True}
        if val < -tol:
            witness = {"projection": np.eye(n, dtype=complex), "vector": eig.eigenvectors[:, 0]}
            return Verdict(VIOLATION, val, witness=witness, stats=stats)
        return Verdict(EVIDENCE, val, stats=stats)

    best_val = np.inf
    best: tuple[np.ndarray, np.ndarray] | None = None
    total_alternations = 0
    for r in range(restarts):
        rng = rng_stream(seed, r)
        if r == 0:
            iso = np.eye(n, k, dtype=complex)
        else:
            iso = haar_isometry(rng, n, k)
        prev = np.inf
        jitter = 0.05
        for _ in range(max_alternations):
            total_alternations += 1
            comp = hermitian_part(_compressed_choi(h4, iso))
            eig = herm_eig(comp)
            val = float(eig.eigenvalues[0])
            z = eig.eigenvectors[:, 0]
            if val < best_val:
                best_val = val
                best = (iso.copy(), z.copy())
            if prev - val < improve_tol:
                break
            prev = val
            iso = _isometry_step(h4, z, k, rng, jitter)
            jitter *= 0.5

    assert best is not None
    iso, z = best
    projection = iso @ iso.conj().T
    lifted_vec = np.einsum("ak,ik->ia", iso, z.reshape(m, k)).reshape(-1)
    exact = float(np.vdot(lifted_vec, h @ lifted_vec).real)
    stats = {
        "restarts": restarts,
        "alternations": total_alternations,
        "seed": seed,
        "min_value": exact,
        "exact": False,
    }
    if exact < -tol:
        witness = {"projection": projection, "vector": lifted_vec}
        return Verdict(VIOLATION, exact, witness=witness, stats=stats)
    return Verdict(EVIDENCE, exact, stats=stats)


def is_k_positive(phi: MatrixMap, k: int, **search) -> Verdict:
    """k-positivity via compressions; k equal to the output dimension is the
    exact complete-positivity test."""
    return k_block_min(phi, k, **search)


def is_k_copositive(phi: MatrixMap, k: int, **search) -> Verdict:
    """k-copositivity: run the k-positivity search on the map precomposed with
    transposition (its Choi blocks are the originals swapped)."""
    return k_block_min(phi.compose_transposition(), k, **search)


# ---------------------------------------------------------------------------
# block-matrix condition: images of doubly PSD blocks stay PSD
# ---------------------------------------------------------------------------


def sample_doubly_psd_block(
    rng: np.random.Generator, k: int, m: int, *, max_tries: int = 40
) -> np.ndarray:
    """Random block matrix on C^k (x) C^m that is PSD in both block orderings.

    With probability 1/2 draws a separable form sum_r p_r (x) q_r (PSD in both
    orderings by construction); otherwise rejection-samples a PSD matrix until
    its first-factor partial transpose is PSD too.  Rejection acceptance decays
    quickly with dimension, so an exhausted budget falls through to alternating
    PSD projections, which still lands on a generic doubly-PSD point.
    """
    if rng.random() < 0.5:
        terms = int(rng.integers(1, 5))
        a = np.zeros((k * m, k * m), dtype=complex)
        for _ in range(terms):
            p = random_psd(rng, k)
            q = random_psd(rng, m)
            a += np.kron(p, q)
        return a / max(np.trace(a).real, 1e-300)
    for _ in range(max_tries):
        a = random_psd(rng, k * m)
        a = a / np.trace(a).real
        pt = partial_transpose(a, k, m, side="first")
        if np.linalg.eigvalsh(hermitian_part(pt))[0] >= -1e-14:
            return a

    a = alternate_ppt_projections(random_psd(rng, k * m), k, m, "first", 25)
    pt = partial_transpose(a, k, m, "first")
    if (
        np.trace(a).real < 1e-12
        or np.linalg.eigvalsh(hermitian_part(pt))[0] < -1e-11 * max(1.0, frobenius(a))
    ):
        p = random_psd(rng, k)
        q = random_psd(rng, m)
        a = np.kron(p, q)
    return a / np.trace(a).real


def sk_check(
    phi: MatrixMap,
    k: int,
    *,
    samples: int = 500,
    seed: int = 0,
    tol: float | None = None,
) -> Verdict:
    """Sample block matrices PSD in both orderings and test that their images
    under id_k (x) phi are PSD.  A negative image eigenvalue is an exact
    violation; surviving the budget is evidence."""
    if k < 1:
        raise KOutOfRangeError(f"k={k} must be >= 1")
    m = phi.m
    worst = np.inf
    for s in range(samples):
        rng = rng_stream(seed, s)
        a = sample_doubly_psd_block(rng, k, m)
        image = hermitian_part(phi.apply_blockwise(a, k))
        bound = psd_tol(image) if tol is None else tol
        min_eig = psd_min_eig(image)
        worst = min(worst, min_eig)
        if min_eig < -bound:
            return Verdict(
                VIOLATION,
                min_eig,
                witness={"block": a, "sample": s},
                stats={"samples": s + 1, "seed": seed, "min_value": min_eig},
            )
    return Verdict(EVIDENCE, worst, stats={"samples": samples, "seed": seed, "min_value": worst})


def dk_compose(
    target: MatrixMap,
    phi1: MatrixMap,
    phi2: MatrixMap,
    k: int,
    **search,
) -> DecompCertificate:
    """Certify target = phi1 + phi2 as a sum of a k-positive and a
    k-copositive map.

    The component checks are evidence-level searches; a violation verdict on
    either component aborts with the corresponding error.  `residual` is the
    Frobenius distance between the target and the sum of the parts.
    """
    if not (target.m, target.n) == (phi1.m, phi1.n) == (phi2.m, phi2.n):
        raise ComponentNotKPositiveError("target and component dimensions differ")
    v1 = is_k_positive(phi1, k, **search)
    if v1.is_violation:
        raise ComponentNotKPositiveError(f"first part violates {k}-positivity: {v1.value:.3e}")
    v2 = is_k_copositive(phi2, k, **search)
    if v2.is_violation:
        raise ComponentNotKCopositiveError(
            f"second part violates {k}-copositivity: {v2.value:.3e}"
        )
    residual = target.norm_distance(phi1 + phi2)
    return DecompCertificate(phi1, phi2, k, residual, v1, v2)


# ---------------------------------------------------------------------------
# witness search against decomposability
# ---------------------------------------------------------------------------


def decomposability_witness(
    h,
    m: int,
    n: int,
    *,
    step: float = 1e-2,
    max_iter: int = 2000,
    seed: int = 0,
    tol: float | None = None,
    stall_break: int | None = None,
) -> Verdict:
    """Minimize Tr(w h) over PPT states w by projected gradient descent.

    A feasible w with Tr(w h) below tolerance is an exact certificate that the
    associated map is not decomposable (states that remain states under
    partial transposition are exactly the functionals that must be
    nonnegative on the Choi matrices of decomposable maps).  The step is
    fixed with halving on non-descent; the search is deterministic.
    `stall_break` stops a run early once the objective is nonnegative-bound
    and has not improved for that many iterations (used by corner sweeps).
    """
    hm = check_hermitian(h)
    d = m * n
    if hm.shape != (d, d):
        raise ValueError(f"shape {hm.shape} does not match m={m}, n={n}")
    if tol is None:
        tol = psd_tol(hm)

    def project_feasible(c: np.ndarray) -> np.ndarray:
        c = alternate_ppt_projections(c, m, n, "first", 1)
        tr = np.trace(c).real
        return np.eye(d, dtype=complex) / d if tr <= 1e-14 else c / tr

    w = np.eye(d, dtype=complex) / d
    eta = step
    obj = float(np.trace(w @ hm).real)
    iters = 0
    stalled = 0
    for iters in range(1, max_iter + 1):
        cand = project_feasible(w - eta * hm)
        new_obj = float(np.trace(cand @ hm).real)
        if new_obj < obj - 1e-15:
            w, obj = cand, new_obj
            stalled = 0
        else:
            eta *= 0.5
            stalled += 1
            if eta < 1e-12:
                break
            if stall_break is not None and stalled >= stall_break and obj > -tol:
                break

    # strict-feasibility polish: mix toward the maximally mixed state just
    # enough to lift residual negative eigenvalues on both sides
    worst = min(ppt_min_eigs(w, m, n, "first"))
    mix = min(0.5, 2.0 * d * max(0.0, -worst) + 1e-6)
    w_cert = (1 - mix) * hermitian_part(w) + mix * np.eye(d, dtype=complex) / d
    value = float(np.trace(w_cert @ hm).real)
    feasible = min(ppt_min_eigs(w_cert, m, n, "first")) >= -1e-12
    stats = {"iterations": iters, "seed": seed, "min_value": value, "feasible": bool(feasible)}
    if feasible and value < -tol:
        return Verdict(VIOLATION, value, witness={"state": w_cert}, stats=stats)
    return Verdict(EVIDENCE, value, stats=stats)


def pk_check(
    phi: MatrixMap,
    k: int,
    *,
    projections: int = 100,
    seed: int = 0,
    witness_iters: int = 200,
    tol: float | None = None,
) -> Verdict:
    """Sample rank-<=k output-side projections and search each compressed
    corner map for a witness against decomposability."""
    if k < 1:
        raise KOutOfRangeError(f"k={k} must be >= 1")
    m, n = phi.m, phi.n
    worst = np.inf
    for t in range(projections):
        rng = rng_stream(seed, t)
        rank = int(rng.integers(1, min(k, n) + 1))
        iso = haar_isometry(rng, n, rank)
        corner = MatrixMap.from_function(lambda a: iso.conj().T @ phi(a) @ iso, m, rank)
        hc = hermitian_part(corner.choi())
        if rank == 1:
            # scalar-valued corner: decomposability reduces to positivity of
            # the corner Choi matrix, tested exactly
            value = float(np.linalg.eigvalsh(hc)[0])
            violated = value < -(psd_tol(hc) if tol is None else tol)
            if violated:
                bottom = herm_eig(hc).eigenvectors[:, 0]
                state = np.outer(bottom, bottom.conj())
        else:
            sub = decomposability_witness(
                hc,
                m,
                rank,
                max_iter=witness_iters,
                seed=seed,
                tol=tol,
                stall_break=15,
            )
            value, violated = sub.value, sub.is_violation
            state = sub.witness["state"] if violated else None
        worst = min(worst, value)
        if violated:
            return Verdict(
                VIOLATION,
                value,
                witness={"isometry": iso, "state": state, "rank": rank},
                stats={"projections": t + 1, "seed": seed, "min_value": value},
            )
    return Verdict(
        EVIDENCE, worst, stats={"projections": projections, "seed": seed, "min_value": worst}
    )


def bisect_threshold(
    family,
    k: int,
    lo: float,
    hi: float,
    *,
    steps: int = 40,
    restarts: int = 64,
    seed: int = 0,
) -> float:
    """Locate the k-positivity threshold of a one-parameter map family.

    `family(lam)` must violate k-positivity at `lo` and pass at `hi`; each
    bisection step is decided by `k_block_min` with the given restart budget.
    """
    v_lo = k_block_min(family(lo), k, restarts=restarts, seed=seed)
    v_hi = k_block_min(family(hi), k, restarts=restarts, seed=seed)
    if not v_lo.is_violation or v_hi.is_violation:
        raise ValueError("bisection bracket does not straddle the threshold")
    for step_idx in range(steps):
        mid = (lo + hi) / 2
        verdict = k_block_min(family(mid), k, restarts=restarts, seed=seed + step_idx + 1)
        if verdict.is_violation:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
