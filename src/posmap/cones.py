"""Bipartite natural cones, the transposed cone, and the partial-swap symmetry.

The representation space for (B(K_A) (x) B(K_B), omega_A (x) omega_B) is the
space of (dim_A * dim_B)-square matrices over the product of the two frames,
with the Hilbert-Schmidt inner product.  In that frame:

- the product state is diagonal with eigenvalues kron(lam_A, lam_B);
- the positive cone P consists exactly of the matrices rho^(1/4) x rho^(1/4)
  with x PSD (closures are exact in finite dimension);
- the partial swap Utilde = I (x) U_B acts as a partial transpose on the
  second tensor factor, and carries P onto the transposed cone;
- block matrices [a_ij] place their operator entries a_ij in B(K_A) with the
  block indices (i, j) on the *second* factor, i.e. x = sum_ij a_ij (x) F_ij.

All vectors are passed and returned as frame matrices of the product system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choi import MatrixMap
from .errors import (
    CountOutOfRangeError,
    DimensionMismatchError,
    KOutOfRangeError,
    NotInIntersectionError,
    NotInPError,
    require_integer,
)
from .linalg import (
    DESK_SCALE_DIM,
    _partial_transpose,
    _psd_from_normals,
    _stream_normals,
    _stream_seeker,
    alternate_ppt_projections,
    as_matrix,
    frobenius,
    hermitian_part,
    ppt_min_eigs,
    psd_tol,
    random_complex,
    random_psd,
    rng_stream,
)
from .modular import GnsContext, Superoperator, gns_context, t_phi
from .verdicts import EVIDENCE, VIOLATION, Verdict


# matrix entries a stack of sampled intersection elements may hold
_SLICE_ENTRIES = 2**14
# a split-inequality margin below -SPLIT_TOL is a violation
SPLIT_TOL = 1e-9


@dataclass(frozen=True)
class BipartiteConeContext:
    """Tensor GNS data for two faithful states."""

    ctx_a: GnsContext
    ctx_b: GnsContext
    dim_a: int
    dim_b: int
    eigenvalues: np.ndarray  # kron(lam_A, lam_B), product-frame order

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @property
    def omega(self) -> np.ndarray:
        """Omega_n = Omega_A (x) Omega_B as a diagonal frame matrix."""
        return np.diag(np.sqrt(self.eigenvalues)).astype(complex)

    def _require(self, xi) -> np.ndarray:
        m = as_matrix(xi)
        if m.shape != (self.dim, self.dim):
            raise DimensionMismatchError(f"expected ({self.dim}, {self.dim}), got {m.shape}")
        return m

    def delta_apply(self, beta: float, xi) -> np.ndarray:
        """(Delta_A (x) Delta_B)^beta on a frame matrix."""
        m = self._require(xi)
        lam = self.eigenvalues
        return (lam**beta)[:, None] * m * (lam ** (-beta))[None, :]

    def utilde(self, xi) -> np.ndarray:
        """I (x) U_B: partial transpose on the second factor."""
        return self._pt(self._require(xi), "second")

    def p_project(self, xi) -> np.ndarray:
        """P = (I + Utilde) / 2."""
        m = self._require(xi)
        return (m + self._pt(m, "second")) / 2

    def q_project(self, xi) -> np.ndarray:
        """Q = (I - Utilde) / 2."""
        m = self._require(xi)
        return (m - self._pt(m, "second")) / 2

    def cone_vector(self, x) -> np.ndarray:
        """Delta^(1/4) (x Omega) = rho^(1/4) x rho^(1/4) for a frame operator x."""
        return self._sandwich(self._require(x), 0.25)

    def _pt(self, m: np.ndarray, side: str) -> np.ndarray:
        """U_A (x) I (side "first") or Utilde ("second"), without validation."""
        return _partial_transpose(m, self.dim_a, self.dim_b, side)

    def _sandwich(self, m: np.ndarray, power: float) -> np.ndarray:
        """rho^power m rho^power in the frame, for one matrix or a (..., d, d)
        stack of them, without validation."""
        scale = self.eigenvalues**power
        return scale[:, None] * m * scale[None, :]

    def blocks(self, x) -> np.ndarray:
        """Second-factor blocks: result[i, j] = a_ij for x = sum a_ij (x) F_ij."""
        m = self._require(x)
        t = m.reshape(self.dim_a, self.dim_b, self.dim_a, self.dim_b)
        return np.ascontiguousarray(t.transpose(1, 3, 0, 2))

    def from_blocks(self, blocks) -> np.ndarray:
        """Assemble sum_ij a_ij (x) F_ij from blocks[i, j] = a_ij."""
        b = np.asarray(blocks, dtype=complex)
        n, a = self.dim_b, self.dim_a
        if b.shape != (n, n, a, a):
            raise DimensionMismatchError(f"blocks shape {b.shape}, expected {(n, n, a, a)}")
        return np.ascontiguousarray(b.transpose(2, 0, 3, 1).reshape(a * n, a * n))

    def apply_first_factor(self, superop_matrix: np.ndarray, xi) -> np.ndarray:
        """(S (x) I) on a frame matrix, S a superoperator of the first system."""
        m = self._require(xi)
        a, n = self.dim_a, self.dim_b
        s4 = as_matrix(superop_matrix).reshape(a, a, a, a)
        m4 = m.reshape(a, n, a, n)
        return np.einsum("PQpq,piqj->PiQj", s4, m4).reshape(a * n, a * n)


def bipartite_context(rho_a, rho_b) -> BipartiteConeContext:
    """Build the tensor context; both states must be faithful."""
    return _product_context(gns_context(rho_a), gns_context(rho_b))


def _product_context(ctx_a: GnsContext, ctx_b: GnsContext) -> BipartiteConeContext:
    lam = np.kron(ctx_a.eigenvalues, ctx_b.eigenvalues)
    return BipartiteConeContext(ctx_a, ctx_b, ctx_a.dim, ctx_b.dim, lam)


@dataclass(frozen=True)
class ConeMembership:
    """Membership of a vector in the cone, its transposed cone, and diagnostics."""

    in_p: bool
    p_min_eig: float
    in_ptau: bool
    ptau_min_eig: float
    in_intersection: bool
    hermitian_defect: float
    cross_route_defect: float
    blocks: np.ndarray
    hull_pairing_min: float | None = None
    in_hull_evidence: bool | None = None


def cone_member(
    ctx: BipartiteConeContext,
    xi,
    *,
    hull_samples: int = 0,
    seed: int = 0,
) -> ConeMembership:
    """Decide membership in P and in the transposed cone by exact reconstruction.

    The candidate block matrix is recovered as rho^(-1/4) xi rho^(-1/4);
    membership in P is its positivity, membership in the transposed cone is
    positivity of the block transpose.  The second route through the partial
    swap of xi is computed as a cross-check.  `hull_samples` > 0 attaches
    sampled dual-pairing evidence of hull membership; it must be an integer
    >= 0 (`CountOutOfRangeError`).
    """
    require_integer("hull_samples", hull_samples, 0, CountOutOfRangeError)
    m = ctx._require(xi)
    x = ctx._sandwich(m, -0.25)
    bound = psd_tol(x)
    herm_defect = frobenius(x - x.conj().T)
    p_min, ptau_min = ppt_min_eigs(x, ctx.dim_a, ctx.dim_b, "second")
    cross = frobenius(ctx._sandwich(ctx._pt(m, "second"), -0.25) - ctx._pt(x, "second"))
    in_p = herm_defect <= bound and p_min >= -bound
    in_ptau = herm_defect <= bound and ptau_min >= -bound

    hull_min: float | None = None
    hull_flag: bool | None = None
    if hull_samples > 0:
        etas = (sample_intersection_element(ctx, rng_stream(seed, s)) for s in range(hull_samples))
        hull_min = min(float(np.vdot(eta, m).real) for eta in etas)  # hs_inner's arithmetic
        hull_flag = hull_min >= -max(bound, psd_tol(m))
    return ConeMembership(
        in_p=in_p,
        p_min_eig=p_min,
        in_ptau=in_ptau,
        ptau_min_eig=ptau_min,
        in_intersection=in_p and in_ptau,
        hermitian_defect=herm_defect,
        cross_route_defect=cross,
        blocks=ctx.blocks(hermitian_part(x)),
        hull_pairing_min=hull_min,
        in_hull_evidence=hull_flag,
    )


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def sample_ppt_operator(rng: np.random.Generator, dim_a: int, dim_b: int) -> np.ndarray:
    """Random PSD operator whose second-factor partial transpose is PSD.

    20 rounds of alternating PSD projections on the operator and its partial
    transpose; a candidate whose partial transpose still has an eigenvalue
    below -1e-9 is replaced by a separable draw (`_ppt_from_normals`).
    """
    d = dim_a * dim_b
    x, failed = _ppt_from_normals(rng.standard_normal((1, 2, d, d)), dim_a, dim_b)
    return _separable_ppt(rng, dim_a, dim_b) if failed[0] else x[0]


def _ppt_streams(seed: int, streams, dim_a: int, dim_b: int) -> np.ndarray:
    """The stack of `sample_ppt_operator(rng_stream(seed, s), dim_a, dim_b)`
    for s in `streams`, bit for bit: the candidates run as one stack from the
    first 2 d^2 normals of each stream, and a member whose candidate fails
    re-seeks its stream past those normals for its separable draw."""
    d = dim_a * dim_b
    seek = _stream_seeker(seed)
    x, failed = _ppt_from_normals(_stream_normals(seek, streams, 2 * d * d), dim_a, dim_b)
    for i in np.flatnonzero(failed):
        rng = seek(streams[i])
        rng.standard_normal(2 * d * d)
        x[i] = _separable_ppt(rng, dim_a, dim_b)
    return x


def _ppt_from_normals(z: np.ndarray, dim_a: int, dim_b: int) -> tuple[np.ndarray, np.ndarray]:
    """PPT candidates from N rows of 2 d^2 normals, each read as `random_psd`
    reads them: the PSD draw at unit trace, 20 rounds of
    `alternate_ppt_projections` and unit trace again.  Also returns the mask
    of the members to replace: those whose trace fell below 1e-12 or whose
    partial transpose keeps an eigenvalue below -1e-9."""
    d = dim_a * dim_b
    x = _psd_from_normals(z.reshape(-1, 2, d, d))
    x /= x.trace(axis1=-2, axis2=-1).real[:, None, None]
    x = alternate_ppt_projections(x, dim_a, dim_b, "second", 20)
    tr = x.trace(axis1=-2, axis2=-1).real
    x /= np.where(tr > 1e-12, tr, 1.0)[:, None, None]
    pt_min = np.linalg.eigvalsh(hermitian_part(_partial_transpose(x, dim_a, dim_b, "second")))[:, 0]
    return x, (tr < 1e-12) | (pt_min < -1e-9)


def _separable_ppt(rng: np.random.Generator, dim_a: int, dim_b: int) -> np.ndarray:
    """The separable fallback draw p (x) q at unit trace."""
    x = np.kron(random_psd(rng, dim_a), random_psd(rng, dim_b))
    return x / np.trace(x).real


def sample_cone_element(
    ctx: BipartiteConeContext, rng: np.random.Generator, *, rank: int | None = None
) -> np.ndarray:
    """Random element of P from a PSD draw."""
    x = random_psd(rng, ctx.dim, rank)
    return ctx.cone_vector(x / np.trace(x).real)


def sample_intersection_element(ctx: BipartiteConeContext, rng: np.random.Generator) -> np.ndarray:
    """Random element of the intersection of P with its transposed cone."""
    return ctx.cone_vector(sample_ppt_operator(rng, ctx.dim_a, ctx.dim_b))


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def transposed_cone_consistency(
    ctx: BipartiteConeContext, *, samples: int = 100, seed: int = 0
) -> dict[str, float]:
    """Sampled consistency of the three descriptions of the transposed cone.

    Checks (i) the identity Utilde Delta^(1/4) [a_ij] Omega =
    Delta^(1/4) [a_ji] Omega on PSD block draws; (ii) nonnegative pairing of
    partially swapped cone elements against generators of the natural cone of
    the first-factor algebra tensored with the second-factor commutant; and
    (iii) the duality between the intersection cone and the hull generators.
    """
    require_integer("samples", samples, 1, CountOutOfRangeError)
    identity_defect = 0.0
    commutant_min = np.inf
    duality_min = np.inf
    imag_max = 0.0
    half_a = ctx.ctx_a.rho_power(0.5)
    half_b = ctx.ctx_b.rho_power(0.5)
    for s in range(samples):
        rng = rng_stream(seed, s)
        x = random_psd(rng, ctx.dim)
        x = x / np.trace(x).real
        lhs = ctx._pt(ctx._sandwich(x, 0.25), "second")
        rhs = ctx._sandwich(ctx._pt(x, "second"), 0.25)
        identity_defect = max(identity_defect, frobenius(lhs - rhs))

        # generator of the mixed-commutant natural cone: for n = sum_r L_{a_r} (x) R_{c_r},
        # n j(n) Omega = sum_{r,s} (a_r rhoA^(1/2) a_s*) (x) (c_s* rhoB^(1/2) c_r)
        terms = 2
        ops_a = [random_complex(rng, (ctx.dim_a, ctx.dim_a)) for _ in range(terms)]
        ops_c = [random_complex(rng, (ctx.dim_b, ctx.dim_b)) for _ in range(terms)]
        gen = np.zeros((ctx.dim, ctx.dim), dtype=complex)
        for r in range(terms):
            for t in range(terms):
                gen += np.kron(
                    ops_a[r] @ half_a @ ops_a[t].conj().T,
                    ops_c[t].conj().T @ half_b @ ops_c[r],
                )
        pairing = complex(np.vdot(gen, lhs))
        commutant_min = min(commutant_min, pairing.real)
        imag_max = max(imag_max, abs(pairing.imag))

        # duality of the intersection against hull generators
        zeta = sample_intersection_element(ctx, rng)
        hull_gen = sample_cone_element(ctx, rng)
        if rng.random() < 0.5:
            hull_gen = ctx._pt(hull_gen, "second")
        dual_pairing = complex(np.vdot(zeta, hull_gen))
        duality_min = min(duality_min, dual_pairing.real)
        imag_max = max(imag_max, abs(dual_pairing.imag))
    return {
        "identity_defect": identity_defect,
        "commutant_pairing_min": float(commutant_min),
        "duality_pairing_min": float(duality_min),
        "imag_max": imag_max,
    }


def split_bound_margins(ctx: BipartiteConeContext, xi, etas) -> dict[str, float]:
    """Minimum margins of the symmetry-split inequalities over the given cone
    elements; every margin is nonnegative (within tolerance) exactly when xi
    lies in the intersection cone.

    Margins: 'abs_q_vs_p'   : (eta, P xi) - |(eta, Q xi)|
             'pairing'      : (eta, xi)
             'q_vs_total'   : (eta, xi) - 2 (eta, Q xi)
             'factor_sum'   : mixed-factor inequality, summed form
             'factor_diff'  : mixed-factor inequality, alternating form
             'qq_vs_ptot'   : (eta, P_tot xi) - 2 (eta, (Q_A x Q_B) xi)
             'norm'         : ||P xi|| - ||Q xi||            (eta-independent)
    """
    m = ctx._require(xi)
    u_a, u_b = ctx._pt(m, "first"), ctx._pt(m, "second")
    p_xi, q_xi = (m + u_b) / 2, (m - u_b) / 2
    # P, Q, I, P_tot = (I + U_A (x) U_B) / 2 and (P_A or Q_A) (x) (P_B or Q_B) on xi
    targets = [p_xi, q_xi, m, (m + m.T) / 2]
    targets += [(m + a * u_a + b * u_b + a * b * m.T) / 4 for a, b in ((1, 1), (-1, 1), (1, -1), (-1, -1))]
    # xi and each eta are validated once; np.vdot is hs_inner's arithmetic
    pairings = [[np.vdot(eta, t).real for t in targets] for eta in map(ctx._require, etas)]
    e_p, e_q, e_xi, e_ptot, e_pp, e_qp, e_pq, e_qq = np.reshape(pairings, (-1, 8)).T
    margins = {
        "abs_q_vs_p": e_p - abs(e_q),
        "pairing": e_xi,
        "q_vs_total": e_xi - 2 * e_q,
        "factor_sum": (e_pp + e_qp) - (e_pq + e_qq),
        "factor_diff": (e_pp - e_qp) - (-e_pq + e_qq),
        "qq_vs_ptot": e_ptot - 2 * e_qq,
    }
    # the first smallest value in eta order, as a running min() keeps it
    margins = {key: min(v.tolist(), default=np.inf) for key, v in margins.items()}
    margins["norm"] = frobenius(p_xi) - frobenius(q_xi)
    return margins


def _require_intersection(ctx: BipartiteConeContext, xi) -> None:
    """Raise NotInIntersectionError unless xi lies in P and in the transposed cone."""
    membership = cone_member(ctx, xi)
    if not membership.in_intersection:
        raise NotInIntersectionError(
            f"vector not in the intersection (min eigs {membership.p_min_eig:.3e}, "
            f"{membership.ptau_min_eig:.3e})"
        )


def split_bound_floors(ctx: BipartiteConeContext, xi) -> tuple[dict[str, float], dict[str, np.ndarray]]:
    """Exact floors of the margins of `split_bound_margins` for an intersection
    vector xi over every eta = rho^(1/4) x rho^(1/4) with x PSD of unit trace,
    the elements `split_bounds_check` samples, and for each margin but 'norm'
    an eta that attains its floor; raises when xi is not in the intersection.

    Re (eta, t) = Tr(x Y_t) with Y_t = herm(rho^(1/4) t rho^(1/4)), so a margin
    linear in eta has the floor lambda_min(Y_t), attained at x = v v* for a
    bottom eigenvector v.  The margins reduce to four targets: 'pairing' reads
    xi, 'q_vs_total' and 'factor_sum' U_B xi, 'factor_diff' U_A xi and
    'qq_vs_ptot' (U_A xi + U_B xi) / 2; 'abs_q_vs_p' is the smaller of the
    pairings with xi and U_B xi, so its floor is the smaller of theirs.  One
    stacked `eigh` decides all four; 'norm' is ||P xi|| - ||Q xi|| as there."""
    _require_intersection(ctx, xi)
    m = ctx._require(xi)
    u_a, u_b = ctx._pt(m, "first"), ctx._pt(m, "second")
    w, v = np.linalg.eigh(hermitian_part(ctx._sandwich(np.stack([m, u_b, u_a, (u_a + u_b) / 2]), 0.25)))
    bottom = v[:, :, :1]
    etas = ctx._sandwich(bottom @ bottom.conj().swapaxes(-1, -2), 0.25)
    lows = w[:, 0].tolist()
    target = {"abs_q_vs_p": int(lows[1] < lows[0]), "pairing": 0, "q_vs_total": 1,
              "factor_sum": 1, "factor_diff": 2, "qq_vs_ptot": 3}
    floors = {key: lows[t] for key, t in target.items()}
    floors["norm"] = frobenius((m + u_b) / 2) - frobenius((m - u_b) / 2)
    return floors, {key: etas[t] for key, t in target.items()}


def split_bounds_check(
    ctx: BipartiteConeContext,
    xi,
    *,
    eta_samples: int = 500,
    seed: int = 0,
) -> dict[str, float]:
    """Evaluate the symmetry-split inequalities for an intersection vector
    against sampled cone elements; raises when xi is not in the intersection.

    The eta sample mixes rank-1 extreme-ray surrogates with interior points.
    Returns the margins of `split_bound_margins` and a violation count
    (margins below -SPLIT_TOL), not the caller's `eta_samples`, which must be an
    integer >= 1 (`CountOutOfRangeError`), since a pass needs samples."""
    require_integer("eta_samples", eta_samples, 1, CountOutOfRangeError)
    _require_intersection(ctx, xi)
    etas = [sample_cone_element(ctx, rng_stream(seed, s), rank=1 if s % 2 == 0 else None)
            for s in range(eta_samples)]
    margins = split_bound_margins(ctx, xi, etas)
    margins["violations"] = float(sum(1 for v in margins.values() if v < -SPLIT_TOL))
    return margins


@dataclass(frozen=True)
class OddPartFlags:
    """The three equivalent descriptions of a fixed point of the partial swap."""

    q_in_p: bool
    q_zero: bool
    fixed: bool

    def agree(self) -> bool:
        return self.q_in_p == self.q_zero == self.fixed


def odd_part_flags(ctx: BipartiteConeContext, xi) -> OddPartFlags:
    """For xi in P over a qubit second factor: the odd component lies in P iff
    it vanishes iff xi is fixed by the partial swap."""
    if ctx.dim_b != 2:
        raise DimensionMismatchError("flags are defined for a two-dimensional second factor")
    m = ctx._require(xi)
    membership = cone_member(ctx, m)
    if not membership.in_p:
        raise NotInPError(f"vector not in P (min eig {membership.p_min_eig:.3e})")
    swapped = ctx._pt(m, "second")
    q_xi = (m - swapped) / 2
    bound = psd_tol(m)
    q_zero = frobenius(q_xi) <= bound
    fixed = frobenius(swapped - m) <= bound
    q_in_p = q_zero or cone_member(ctx, q_xi).in_p  # zero vector sits on the cone boundary
    return OddPartFlags(q_in_p=q_in_p, q_zero=q_zero, fixed=fixed)


@dataclass(frozen=True)
class OddPartPolar:
    """Polar presentation Q xi = V xi_b with xi_b back in the cone."""

    partial_isometry: np.ndarray  # v with i h = v |h| on the first factor
    carrier: Superoperator  # Delta^(1/4) [[0, v], [-v, 0]] Delta^(-1/4)
    xi_b: np.ndarray
    reconstruction_defect: float
    degenerate: bool


def odd_part_polar(ctx: BipartiteConeContext, xi) -> OddPartPolar:
    """Factor the odd component of a cone vector through a partial isometry.

    Writing the reconstructed blocks as [a_ij] (second factor of dimension 2),
    the odd component is generated by h = (a_12 - a_21) / 2i; the polar
    decomposition i h = v |h| yields the carrier operator and the cone element
    xi_b built from |h|.  A vanishing h returns zeros by convention.
    """
    if ctx.dim_b != 2:
        raise DimensionMismatchError("polar split is defined for a qubit second factor")
    m = ctx._require(xi)
    membership = cone_member(ctx, m)
    if not membership.in_p:
        raise NotInPError(f"vector not in P (min eig {membership.p_min_eig:.3e})")
    blocks = membership.blocks
    h = hermitian_part((blocks[0, 1] - blocks[1, 0]) / 2j)
    a = ctx.dim_a
    q_xi = (m - ctx._pt(m, "second")) / 2
    if frobenius(h) <= 1e-12 * max(1.0, frobenius(blocks)):
        zero_carrier = Superoperator(np.zeros((ctx.dim**2, ctx.dim**2), dtype=complex), False)
        return OddPartPolar(
            partial_isometry=np.zeros((a, a), dtype=complex),
            carrier=zero_carrier,
            xi_b=np.zeros((ctx.dim, ctx.dim), dtype=complex),
            reconstruction_defect=frobenius(q_xi),
            degenerate=True,
        )
    w, s, vh = np.linalg.svd(1j * h)
    cutoff = max(s[0], 1.0) * 1e-12
    rank = int(np.sum(s > cutoff))
    v = w[:, :rank] @ vh[:rank, :]
    abs_h = (vh[:rank, :].conj().T * s[:rank]) @ vh[:rank, :]

    zero = np.zeros((a, a), dtype=complex)
    v_block = ctx.from_blocks(np.array([[zero, v], [-v, zero]]))
    abs_block = ctx.from_blocks(np.array([[abs_h, zero], [zero, abs_h]]))
    xi_b = ctx.cone_vector(abs_block)

    lam = ctx.eigenvalues
    left = np.kron(v_block, np.eye(ctx.dim, dtype=complex))
    quarter = np.outer(lam**0.25, lam**-0.25).reshape(-1)
    carrier_matrix = (quarter[:, None] * left) * (1.0 / quarter)[None, :]
    carrier = Superoperator(carrier_matrix, False)
    defect = frobenius(q_xi - carrier.apply(xi_b))
    return OddPartPolar(
        partial_isometry=v,
        carrier=carrier,
        xi_b=xi_b,
        reconstruction_defect=defect,
        degenerate=False,
    )


# ---------------------------------------------------------------------------
# weak k-decomposability by cone duality
# ---------------------------------------------------------------------------


def weak_kdec_cone_check(
    ctx_a: GnsContext,
    phi: MatrixMap,
    k: int,
    *,
    samples: int = 100,
    seed: int = 0,
) -> Verdict:
    """Dual-cone test of weak k-decomposability at the Hilbert-space level.

    For each block size up to k, the adjoint of the induced operator tensored
    with the identity must carry the positive cone into the closed hull of the
    cone and its transposed cone; by duality this fails exactly when some
    intersection element pairs negatively with an image vector.  Any negative
    pairing is an exact refutation; surviving the sampling budget is evidence.
    Each block size draws `samples` intersection elements and pairs them with
    `samples` image vectors.  The first factor is `ctx_a` itself; the second
    carries the tracial state.  The intersection elements are drawn as stacks
    of at most `_SLICE_ENTRIES` matrix entries (`_ppt_streams`); the image
    vectors one at a time, since the walk stops at the first violation.
    """
    require_integer("k", k, 1, KOutOfRangeError)
    require_integer("samples", samples, 1, CountOutOfRangeError)
    if ctx_a.dim * k > DESK_SCALE_DIM:
        raise DimensionMismatchError(
            f"product dimension {ctx_a.dim}*{k} exceeds the desk-scale guard"
        )
    induced = t_phi(ctx_a, phi)
    t_star = induced.operator.matrix.conj().T
    worst = np.inf
    for n in range(1, k + 1):
        ctx = _product_context(ctx_a, gns_context(np.eye(n, dtype=complex) / n))
        step = max(1, _SLICE_ENTRIES // ctx.dim**2)
        slices = [range(t, min(t + step, samples)) for t in range(0, samples, step)]
        etas = np.concatenate([
            ctx._sandwich(_ppt_streams(seed + 7919 * n + 104729, streams, ctx_a.dim, n), 0.25)
            for streams in slices
        ])
        eta_stack = etas.reshape(samples, -1)
        eta_norms = np.maximum(np.linalg.norm(eta_stack, axis=1), 1.0)
        seek = _stream_seeker(seed + 7919 * n)
        for s in range(samples):
            xi = sample_cone_element(ctx, seek(s))
            zeta = ctx.apply_first_factor(t_star, xi)
            bound = psd_tol(zeta)
            pairings = (eta_stack.conj() @ zeta.reshape(-1)).real
            idx = int(np.argmin(pairings / eta_norms))
            worst = min(worst, float(pairings[idx]))
            if pairings[idx] < -bound * eta_norms[idx]:
                return Verdict(
                    VIOLATION,
                    float(pairings[idx]),
                    witness={"n": n, "xi": xi, "eta": etas[idx].copy(), "zeta": zeta},
                    stats={"samples": s + 1, "seed": seed},
                )
    return Verdict(EVIDENCE, float(worst), stats={"samples": samples, "seed": seed})
