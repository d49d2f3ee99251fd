"""Certification of k-positivity, k-copositivity, and decomposability conditions.

A map is k-positive exactly when every compression of its Choi matrix by
I (x) p, p a rank-<=k projection on the output side, is PSD.  The searches
below follow the asymmetric doctrine: a negative compressed eigenvalue is an
exact, re-checkable violation; exhausting a sampling budget only yields
evidence.

At k = 1 the compressions are the product-vector forms <x (x) y, h (x (x) y)>,
so `is_k_positive(phi, 1)` is the block-positivity test of h: a map is
positive exactly when it is 1-positive.  The see-saw behind it draws only
the Haar start of each restart; its alternations draw nothing.

Four related conditions are certified separately here:

- `k_block_min` / `is_k_positive` / `is_k_copositive`: compression tests;
- `sk_check`: images of doubly-PSD block matrices stay PSD;
- `pk_check`: compressed corners admit no witness against decomposability;
- `decomposability_witness`: search for a PPT state pairing negatively with
  the Choi matrix (an exact certificate of non-decomposability when found).

Decomposability itself is searched from both sides.  The dual side is
`decomposability_witness`; the primal side is `decomposition_certificate`,
a search for P, Q >= 0 with h = P + Q^G.  A certificate it finds is a proof
(a "pass" with a witness that `verify` re-checks through
`decomposition_bound`), and then no witness can exist: a decomposable map's
compressed corners are decomposable too, so a `pk_` violation on a certified
map would be a bug.  A certificate also bounds `sk_check` for every k: the
image of a trace-one doubly-PSD block has no eigenvalue below its value, so
`classify` derives the `sk_` and `decomposability` records of a certified map
from it, with no sample drawn and no witness iteration run.
"""

from __future__ import annotations

import numpy as np

from .choi import MatrixMap
from .errors import (
    ComponentNotKCopositiveError,
    ComponentNotKPositiveError,
    CountOutOfRangeError,
    KOutOfRangeError,
    NotHermitianError,
)
from .linalg import (
    PPT_TOL,
    _eigh_bottom,
    _haar_from_gaussian,
    _partial_transpose,
    _psd_from_normals,
    _stream_normals,
    _stream_seeker,
    alternate_ppt_projections,
    check_hermitian,
    frobenius,
    haar_isometry,
    herm_eig,
    hermitian_part,
    ppt_min_eigs,
    project_psd,
    psd_tol,
    rng_stream,
)
from .verdicts import EVIDENCE, PASS, VIOLATION, DecompCertificate, Verdict


def _compressed_choi(h4: np.ndarray, iso: np.ndarray) -> np.ndarray:
    """(I (x) V)* h (I (x) V) for each isometry V of a (R, n, k) stack, by two batched
    matrix products; returns the (R, mk, mk) stack, each member as it is alone."""
    m, n = h4.shape[:2]
    r, _, k = iso.shape
    hv = (h4.reshape(m * n * m, n) @ iso).reshape(r, m, n, m * k)
    return (iso.conj().swapaxes(-1, -2)[:, None] @ hv).reshape(r, m * k, m * k)


def _coefficients(h4: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The (R, nk, nk) stack of forms sum_ij conj(z_ik) h[ia, jb] z_jl in the isometry
    entries V_ak for a (R, m, k) stack of z: h with its factors swapped, compressed by z."""
    return _compressed_choi(h4.transpose(1, 0, 3, 2), z)


_IMPROVE_TOL = 1e-12  # a restart leaves the see-saw once its value gains less than this


def k_block_min(
    phi: MatrixMap,
    k: int,
    *,
    restarts: int = 32,
    max_alternations: int = 200,
    seed: int = 0,
) -> Verdict:
    """Minimize the smallest eigenvalue of (I (x) p) h (I (x) p) over rank-k
    projections p on the output space.

    The see-saw alternates two steps: for a fixed projection take the bottom
    eigenvector of the compressed Choi matrix; for fixed compressed
    coefficients re-fit the isometry by minimizing the same quadratic form,
    which is quadratic in the isometry entries, so its minimizer is a bottom
    eigenvector of the coefficient matrix (exact at rank one, projected back
    to an isometry through its polar factor otherwise).  A rank-deficient
    refit is completed by the restart's current isometry V, as the polar
    factor of refit + 1e-6 V.  With k equal to the output dimension the
    compression is the identity and the test is exact.

    All restarts run as one stack, which a restart leaves once its value
    improves by less than 1e-12.  Restart 0 starts at the coordinate isometry,
    restart r >= 1 at `haar_isometry(rng_stream(seed, r), n, k)`: the first
    2nk normals of its stream, read on one bit generator (`_stream_seeker`).
    Nothing else is drawn, and the kernels of both steps give a restart what
    it gets alone, so the verdict is that of running the restarts one after
    another through them: the best value of the first restart that reaches
    the overall minimum.

    A violation carries the witness {"projection", "vector"}: the rank-<=k
    output-side projection and the lifted eigenvector of the compressed Choi
    matrix, whose Rayleigh quotient is the negative `value`.
    """
    m, n = phi.m, phi.n
    if not 1 <= k <= n:
        raise KOutOfRangeError(f"k={k} outside 1..{n}")
    if restarts < 1:
        raise CountOutOfRangeError(f"restarts={restarts} must be >= 1")
    if max_alternations < 1:
        raise CountOutOfRangeError(f"max_alternations={max_alternations} must be >= 1")
    if not phi.is_hermiticity_preserving():
        raise NotHermitianError("map is not Hermiticity-preserving")
    h = hermitian_part(phi.choi())
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

    iso = np.empty((restarts, n, k), dtype=complex)
    iso[0] = np.eye(n, k)
    if restarts > 1:
        z = _stream_normals(_stream_seeker(seed), range(1, restarts), 2 * n * k).reshape(-1, 2, n, k)
        iso[1:] = _haar_from_gaussian((z[:, 0] + 1j * z[:, 1]) / np.sqrt(2))
    best_val = np.full(restarts, np.inf)
    best_iso = np.empty_like(iso)
    best_z = np.zeros((restarts, m * k), dtype=complex)
    prev = np.full(restarts, np.inf)
    active = np.arange(restarts)
    total_alternations = 0
    for _ in range(max_alternations):
        total_alternations += active.size
        cur = iso[active]
        val, z = _eigh_bottom(hermitian_part(_compressed_choi(h4, cur)))
        better = val < best_val[active]
        best_val[active[better]] = val[better]
        best_iso[active[better]] = cur[better]
        best_z[active[better]] = z[better]
        going = prev[active] - val >= _IMPROVE_TOL
        prev[active] = val
        active, z = active[going], z[going].reshape(-1, m, k)
        if active.size == 0:
            break
        # isometry step: the coefficient matrix of the form in V for fixed z
        raw = _eigh_bottom(hermitian_part(_coefficients(h4, z)))[1].reshape(-1, n, k)
        u, s, vh = np.linalg.svd(raw, full_matrices=False)
        tiny = np.flatnonzero(s[:, -1] < 1e-12 * np.maximum(s[:, 0], 1.0))
        if tiny.size:
            raw[tiny] += 1e-6 * iso[active[tiny]]
            u[tiny], _, vh[tiny] = np.linalg.svd(raw[tiny], full_matrices=False)
        iso[active] = u @ vh

    r = int(np.argmin(best_val))
    iso, z = best_iso[r], best_z[r]
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
    """k-positivity via compressions: k = 1 is block positivity of the Choi
    matrix, k equal to the output dimension the exact complete-positivity test."""
    return k_block_min(phi, k, **search)


def is_k_copositive(phi: MatrixMap, k: int, **search) -> Verdict:
    """k-copositivity: run the k-positivity search on the map precomposed with
    transposition (its Choi blocks are the originals swapped)."""
    return k_block_min(phi.compose_transposition(), k, **search)


# ---------------------------------------------------------------------------
# block-matrix condition: images of doubly PSD blocks stay PSD
# ---------------------------------------------------------------------------


_FIRST_CHUNK = 4
_MAX_CHUNK = 32
_STACK_ENTRIES = 2**14  # matrix entries a stack of sampled blocks may hold, k m permitting


def _chunks(total: int, first: int = _FIRST_CHUNK, most: int = _MAX_CHUNK):
    """(start, stop) of the chunks [0, first), [first, 2 first), ... of range(total), at
    most `most` long: each as long as the walk before it, so members run past a first
    violation cost no more than the members before it."""
    start = 0
    while start < total:
        stop = min(max(2 * start, first), start + most, total)
        yield start, stop
        start = stop


def _separable(rng: np.random.Generator, k: int, m: int, terms: int) -> np.ndarray:
    """sum_r p_r (x) q_r over `terms` pairs of `random_psd` draws p_r (k x k)
    and q_r (m x m), drawn in the order p_1, q_1, p_2, q_2, ... in one call."""
    z = rng.standard_normal((terms, 2 * (k * k + m * m)))
    p = _psd_from_normals(z[:, : 2 * k * k].reshape(terms, 2, k, k))
    q = _psd_from_normals(z[:, 2 * k * k :].reshape(terms, 2, m, m))
    return sum(np.kron(pr, qr) for pr, qr in zip(p, q))


def _doubly_psd_blocks(rngs: list, k: int, m: int, *, max_tries: int = 40) -> np.ndarray:
    """(S, km, km) stack of block matrices on C^k (x) C^m, PSD in both block
    orderings, one per stream: a separable form with probability 1/2, else
    the first of `max_tries` PSD draws with a PSD first-factor partial
    transpose, else 25 rounds of alternating PSD projections, else a product.
    Tries run in lockstep rounds [0, 1), [1, 2), [2, 4), [4, 8), [8, 12), ...
    drawn in one call per stream; a stream accepted early in a round is
    rewound and redrawn up to that try, so it ends where a one-at-a-time
    sampler ends, with the same block."""
    d = k * m
    out = np.empty((len(rngs), d, d), dtype=complex)
    pending = []
    for i, rng in enumerate(rngs):
        if rng.random() < 0.5:
            a = _separable(rng, k, m, int(rng.integers(1, 5)))
            out[i] = a / max(np.trace(a).real, 1e-300)
        else:
            pending.append(i)
    for start, stop in _chunks(max_tries, 1, 4):
        if not pending:
            break
        states = [rngs[i].bit_generator.state for i in pending]
        z = np.array([rngs[i].standard_normal((stop - start, 2, d, d)) for i in pending])
        a = _psd_from_normals(z)
        a /= a.trace(axis1=-2, axis2=-1).real[..., None, None]
        pt = _partial_transpose(a, k, m, "first")
        accepted = np.linalg.eigvalsh(hermitian_part(pt))[..., 0] >= -1e-14
        for j in np.flatnonzero(accepted.any(axis=1)):
            rng, t = rngs[pending[j]], int(accepted[j].argmax())
            out[pending[j]] = a[j, t]
            if t < stop - start - 1:
                rng.bit_generator.state = states[j]
                rng.standard_normal((t + 1, 2, d, d))
        pending = [i for j, i in enumerate(pending) if not accepted[j].any()]
    if pending:
        seeds = _psd_from_normals(np.array([rngs[i].standard_normal((2, d, d)) for i in pending]))
        a = alternate_ppt_projections(seeds, k, m, "first", 25)
        pt_min = np.linalg.eigvalsh(hermitian_part(_partial_transpose(a, k, m, "first")))[:, 0]
        for j, i in enumerate(pending):
            if np.trace(a[j]).real < 1e-12 or pt_min[j] < -1e-11 * max(1.0, frobenius(a[j])):
                a[j] = _separable(rngs[i], k, m, 1)
            out[i] = a[j] / np.trace(a[j]).real
    return out


def sk_check(
    phi: MatrixMap,
    k: int,
    *,
    samples: int = 500,
    seed: int = 0,
) -> Verdict:
    """Sample block matrices PSD in both orderings and test that their images
    under id_k (x) phi are PSD.  A negative image eigenvalue is an exact
    violation; surviving the budget is evidence.

    Sample s draws from `rng_stream(seed, s)`; samples run as stacks over the chunks of
    `pk_check`, and a violation is the first violating sample, with `samples` = s + 1.
    """
    if k < 1:
        raise KOutOfRangeError(f"k={k} must be >= 1")
    if samples < 1:
        raise CountOutOfRangeError(f"samples={samples} must be >= 1")
    m, n = phi.m, phi.n
    worst = np.inf
    most = max(1, min(_MAX_CHUNK, _STACK_ENTRIES // (2 * k * m) ** 2))  # 4 tries a sample
    for start, stop in _chunks(samples, most=most):
        blocks = _doubly_psd_blocks([rng_stream(seed, s) for s in range(start, stop)], k, m)
        images = np.einsum("sipjq,pqab->siajb", blocks.reshape(-1, k, m, k, m), phi.unit_images)
        images = hermitian_part(images.reshape(-1, k * n, k * n))
        mins = np.linalg.eigvalsh(images)[:, 0].tolist()
        for i, min_eig in enumerate(mins):
            if min_eig < -psd_tol(images[i]):
                witness = {"block": blocks[i], "sample": start + i}
                stats = {"samples": start + i + 1, "seed": seed, "min_value": min_eig}
                return Verdict(VIOLATION, min_eig, witness=witness, stats=stats)
        worst = min(worst, *mins)
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


def _polish(w: np.ndarray, h: np.ndarray, m: int, n: int) -> tuple[float, bool, np.ndarray]:
    """Strict-feasibility polish of a search iterate: mix toward the maximally
    mixed state just enough to lift residual negative eigenvalues on both
    sides.  Returns the value Tr(w_cert h), whether w_cert is PPT, and w_cert."""
    d = m * n
    worst = min(ppt_min_eigs(w, m, n, "first"))
    mix = min(0.5, 2.0 * d * max(0.0, -worst) + 1e-6)
    w_cert = (1 - mix) * hermitian_part(w) + mix * np.eye(d, dtype=complex) / d
    value = float(np.trace(w_cert @ h).real)
    feasible = min(ppt_min_eigs(w_cert, m, n, "first")) >= -PPT_TOL
    return value, feasible, w_cert


def _witness_stack(
    h: np.ndarray,
    m: int,
    n: int,
    *,
    max_iter: int,
    stall_break: int | None,
) -> list:
    """Projected-gradient witness searches on a (R, mn, mn) stack of Hermitian
    matrices, run in lockstep on raw arrays.

    Each member keeps its own step size (from 1e-2), objective, stall counter
    and iteration count, and stops exactly where a lone search would: when its
    step falls below 1e-12, or, with `stall_break`, after that many
    non-improving iterations at an objective above its -psd_tol.  A stopped
    member is polished and leaves the stack.  Once a member's polished value
    is a violation, the members after it in the stack leave too.

    Returns, per member, (value, feasible, state, iterations), or None for a
    member dropped after an earlier violation.
    """
    size, d, _ = h.shape
    eye = np.eye(d, dtype=complex) / d
    tols = np.array([psd_tol(x) for x in h])
    w = np.repeat(eye[None], size, axis=0)
    obj = (w @ h).trace(axis1=1, axis2=2).real
    eta = np.full((size, 1, 1), 1e-2)
    descent = eta * h  # recomputed only when a step size changes
    stalled = np.zeros(size, dtype=int)
    active = np.arange(size)
    results: list = [None] * size
    cut = size
    it = 0
    for it in range(1, max_iter + 1):
        cand = alternate_ppt_projections(w - descent, m, n, "first", 1)
        tr = cand.trace(axis1=1, axis2=2).real[:, None, None]
        if tr.min() <= 1e-14:
            empty = tr[:, 0, 0] <= 1e-14
            cand[empty], tr[empty] = eye, 1.0
        cand /= tr
        new_obj = (cand @ h).trace(axis1=1, axis2=2).real
        improved = new_obj < obj - 1e-15
        if np.count_nonzero(improved) == improved.size:
            w, obj = cand, new_obj
            stalled[:] = 0
            continue
        w[improved], obj[improved] = cand[improved], new_obj[improved]
        stalled = np.where(improved, 0, stalled + 1)
        eta = np.where(improved[:, None, None], eta, eta * 0.5)
        stop = eta[:, 0, 0] < 1e-12
        if stall_break is not None:
            stop |= (stalled >= stall_break) & (obj > -tols)
        stop &= ~improved
        if stop.any():
            for i in np.flatnonzero(stop):
                if active[i] > cut:
                    break
                value, feasible, state = _polish(w[i], h[i], m, n)
                results[active[i]] = (value, feasible, state, it)
                if feasible and value < -tols[i]:
                    cut = active[i]
            keep = ~stop & (active < cut)
            w, h, eta, obj, stalled, tols, active = (
                x[keep] for x in (w, h, eta, obj, stalled, tols, active)
            )
            if active.size == 0:
                break
        descent = eta * h
    for i, member in enumerate(active):
        value, feasible, state = _polish(w[i], h[i], m, n)
        results[member] = (value, feasible, state, it)
    return results


_WITNESS_MAX_ITER = 2000


def decomposability_witness(h, m: int, n: int, *, seed: int = 0) -> Verdict:
    """Minimize Tr(w h) over PPT states w by projected gradient descent.

    A feasible w with Tr(w h) below tolerance is an exact certificate that the
    associated map is not decomposable (states that remain states under
    partial transposition are exactly the functionals that must be
    nonnegative on the Choi matrices of decomposable maps).  The step starts
    at 1e-2 and halves on non-descent; the search stops when the step falls
    below 1e-12 or after 2,000 iterations, and is deterministic.

    The input is validated once; the search runs as a stack of one through
    the same lockstep loop that `pk_check` runs its corners in.
    """
    hm = check_hermitian(h)
    d = m * n
    if hm.shape != (d, d):
        raise ValueError(f"shape {hm.shape} does not match m={m}, n={n}")
    tol = psd_tol(hm)
    ((value, feasible, state, iters),) = _witness_stack(
        hm[None], m, n, max_iter=_WITNESS_MAX_ITER, stall_break=None
    )
    stats = {"iterations": iters, "seed": seed, "min_value": value, "feasible": bool(feasible)}
    if feasible and value < -tol:
        return Verdict(VIOLATION, value, witness={"state": state}, stats=stats)
    return Verdict(EVIDENCE, value, stats=stats)


# ---------------------------------------------------------------------------
# primal certificate of decomposability
# ---------------------------------------------------------------------------

_CERT_MAX_ITER = 500
_CERT_STALL = 50  # the bound must gain 1% over this many iterations


def decomposition_bound(h: np.ndarray, q: np.ndarray, m: int, n: int) -> float:
    """min(lambda_min(P), 0) + min(lambda_min(Q), 0) for P = h - Q^G, G the
    partial transpose on the first factor.  Tr(w h) = Tr(w P) + Tr(w^G Q) is at
    least this bound for every PPT state w, since w and w^G are states."""
    p = h - _partial_transpose(q, m, n, "first")
    low = np.linalg.eigvalsh(hermitian_part(np.stack([p, q])))[:, 0]
    return float(np.minimum(low, 0.0).sum())


def decomposition_certificate(h, m: int, n: int) -> Verdict:
    """Search for P, Q >= 0 with h = P + Q^G (G the partial transpose on the
    first factor): a proof that the map with Choi matrix h is decomposable,
    the sum of a CP map and a co-CP map.

    Douglas-Rachford splitting between the pair of PSD cones, projected as one
    stack, and the affine set {P + Q^G = h}, projected in closed form: G is an
    isometric involution, so the residual R = h - P - Q^G splits as
    P += R / 2, Q += R^G / 2.  The start is P = h / 2, Q = h^G / 2.  Each
    iteration's candidate is the PSD-projected Q, with P = h - Q^G.  When
    `decomposition_bound` scores it at or above -psd_tol(h), it is a pass with
    the witness {"q": Q}: no PPT state pairs with h below -psd_tol(h), so no
    witness against decomposability exists.  Otherwise the search stops with
    evidence at the best min(lambda_min(P), 0) it saw once that gains less
    than 1% over 50 iterations, or after 500.  It draws nothing and is
    deterministic.
    """
    hm = check_hermitian(h)
    if hm.shape != (m * n, m * n):
        raise ValueError(f"shape {hm.shape} does not match m={m}, n={n}")
    tol = psd_tol(hm)
    z = np.stack([hm, _partial_transpose(hm, m, n, "first")]) / 2
    bounds: list[float] = []
    termination = "max_iter"
    for it in range(_CERT_MAX_ITER + 1):
        x = project_psd(z)
        # Q = x[1] is PSD up to rounding, so P decides; the full bound scores a pass
        low = min(float(np.linalg.eigvalsh(hm - _partial_transpose(x[1], m, n, "first"))[0]), 0.0)
        if low >= -tol and (bound := decomposition_bound(hm, x[1], m, n)) >= -tol:
            stats = {"iterations": it, "termination": "converged"}
            return Verdict(PASS, bound, witness={"q": x[1]}, stats=stats)
        bounds.append(low)
        if it >= _CERT_STALL and low - bounds[-1 - _CERT_STALL] < -0.01 * bounds[-1 - _CERT_STALL]:
            termination = "stalled"
            break
        # z + P_A(2x - z) - x: x plus the affine correction of the reflection 2x - z
        y = 2 * x - z
        r = hm - y[0] - _partial_transpose(y[1], m, n, "first")
        z = x + np.stack([r, _partial_transpose(r, m, n, "first")]) / 2
    return Verdict(EVIDENCE, max(bounds), stats={"iterations": it, "termination": termination})


def pk_check(
    phi: MatrixMap,
    k: int,
    *,
    projections: int = 100,
    seed: int = 0,
) -> Verdict:
    """Sample rank-<=k output-side projections and search each compressed
    corner map for a witness against decomposability.

    Corner t draws its rank and Haar isometry from `rng_stream(seed, t)`, in
    that order; every corner's stream is reached on one bit generator
    (`_stream_seeker`).  A rank-1 corner is scalar-valued, so it is decided
    on the spot by the exact positivity of its Choi matrix, and a rank-1
    violation ends the walk.
    Corners are walked in t-ordered chunks [0, 4), [4, 8), [8, 16), ...,
    each as long as the walk before it (at most 32); the rank >= 2 corners of
    a chunk met before that point run as one stack per rank of 200-iteration
    witness searches (`_witness_stack`, `stall_break=15`), and the walk stops
    after the first chunk holding a violation.  The verdict is the first
    violating corner, with `projections` = t + 1, as when deciding corners
    one at a time; otherwise it is evidence at the minimum corner value.
    """
    if k < 1:
        raise KOutOfRangeError(f"k={k} must be >= 1")
    if projections < 1:
        raise CountOutOfRangeError(f"projections={projections} must be >= 1")
    m, n = phi.m, phi.n
    values: list = []
    first = None  # (t, value, witness) of the first violating corner
    seek = _stream_seeker(seed)
    for start, stop in _chunks(projections):
        queued: dict[int, list] = {}
        for t in range(start, stop):
            rng = seek(t)
            rank = int(rng.integers(1, min(k, n) + 1))
            iso = haar_isometry(rng, n, rank)
            hc = hermitian_part(MatrixMap(iso.conj().T @ phi.unit_images @ iso).choi())
            if rank > 1:
                queued.setdefault(rank, []).append((t, iso, hc))
                values.append(None)
                continue
            # scalar-valued corner: decomposability reduces to positivity of
            # the corner Choi matrix, tested exactly
            value = float(np.linalg.eigvalsh(hc)[0])
            values.append(value)
            if value < -psd_tol(hc):
                bottom = _eigh_bottom(hc)[1]
                state = np.outer(bottom, bottom.conj())
                first = (t, value, {"isometry": iso, "state": state, "rank": 1})
                break
        for rank, corners in sorted(queued.items()):
            if first is not None:
                corners = [c for c in corners if c[0] < first[0]]
            if not corners:
                continue
            hs = np.array([hc for _, _, hc in corners])
            results = _witness_stack(hs, m, rank, max_iter=200, stall_break=15)
            for (t, iso, hc), result in zip(corners, results):
                value, feasible, state, _ = result
                values[t] = value
                if feasible and value < -psd_tol(hc):
                    first = (t, value, {"isometry": iso, "state": state, "rank": rank})
                    break
        if first is not None:
            break
    if first is not None:
        t, value, witness = first
        return Verdict(
            VIOLATION,
            value,
            witness=witness,
            stats={"projections": t + 1, "seed": seed, "min_value": value},
        )
    worst = min(values)
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
