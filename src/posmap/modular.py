"""GNS representation of a matrix algebra with a faithful state, and the
modular description of transposition.

For an invertible density matrix rho on C^d the representation space is
B(C^d) itself with the Hilbert-Schmidt inner product; the cyclic vector is
Omega = rho^(1/2).  All operators on that space ("superoperators") are built
in the eigenbasis of rho (the *frame*), where rho is diagonal and everything
has a closed form:

- Delta(xi)      = rho xi rho^(-1)       (modular operator),
- Jm(xi)         = xi*                   (modular conjugation, antilinear),
- J(xi)          = conj(xi)              (basis conjugation, antilinear),
- U(xi)          = xi^T                  (swap unitary, U E_ij = E_ji),
- tau(xi)        = rho^(-1/2) xi^T rho^(1/2)   (transposition carrier).

Vectors of the representation space are passed and returned as d x d frame
matrices; `GnsContext.to_frame` / `from_frame` convert operators expressed in
the original basis.  Superoperator matrices act on the row-major
vectorization of frame matrices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .choi import MatrixMap
from .errors import (
    BetaOutOfRangeError,
    CountOutOfRangeError,
    DimensionMismatchError,
    InconsistentSystemError,
    NotAStateError,
    NotFaithfulError,
    NotInNaturalConeError,
    require_integer,
)
from .kpositivity import is_k_positive
from .linalg import (
    _stream_seeker,
    as_matrix,
    bounded_norm,
    frobenius,
    herm_eig,
    hermitian_part,
    matrix_units,
    psd_min_eig,
    psd_tol,
    random_complex,
    random_psd,
    rng_stream,
)
from .verdicts import Verdict

FAITHFUL_FLOOR = 1e-8
CONDITION_GUARD = 1e6
# absolute bound on |Tr(rho) - 1|: a state is used as given, never renormalised,
# because rescaling it would move every modular and cone report built on it
TRACE_TOL = 1e-12


@dataclass(frozen=True)
class Superoperator:
    """Operator on the representation space, stored as a matrix acting on
    row-major vectorized frame matrices plus an antilinearity tag.

    An antilinear operator is its linear matrix composed with entrywise
    conjugation of the input; composition combines tags accordingly.
    """

    matrix: np.ndarray
    antilinear: bool = False

    @property
    def dim(self) -> int:
        return int(round(np.sqrt(self.matrix.shape[0])))

    def apply(self, xi) -> np.ndarray:
        m = as_matrix(xi)
        d = self.dim
        if m.shape != (d, d):
            raise DimensionMismatchError(f"expected ({d}, {d}) frame matrix, got {m.shape}")
        v = m.reshape(-1)
        return (self.matrix @ (np.conj(v) if self.antilinear else v)).reshape(d, d)

    def compose(self, other: "Superoperator") -> "Superoperator":
        """self after other."""
        mat = self.matrix @ (other.matrix.conj() if self.antilinear else other.matrix)
        return Superoperator(mat, self.antilinear ^ other.antilinear)

    def defect(self, other: "Superoperator") -> float:
        """Frobenius distance between two operators with the same antilinearity tag."""
        if self.antilinear != other.antilinear:
            raise ValueError("defect compares operators with the same antilinearity tag only")
        return frobenius(self.matrix - other.matrix)

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))


@dataclass(frozen=True)
class GnsContext:
    """GNS and modular data of (B(C^d), omega_rho) with faithful rho."""

    rho: np.ndarray
    eigenvalues: np.ndarray
    basis: np.ndarray
    dim: int
    Omega: np.ndarray
    U: Superoperator
    Jm: Superoperator
    J: Superoperator
    tau: Superoperator

    def to_frame(self, a) -> np.ndarray:
        return self.basis.conj().T @ as_matrix(a) @ self.basis

    def from_frame(self, a) -> np.ndarray:
        return self.basis @ as_matrix(a) @ self.basis.conj().T

    def rho_power(self, beta: float) -> np.ndarray:
        """rho^beta as a diagonal frame matrix."""
        return np.diag(self.eigenvalues**beta).astype(complex)

    def delta_apply(self, beta: float, xi) -> np.ndarray:
        """Delta^beta applied to a frame matrix: entrywise (lam_i / lam_j)^beta."""
        m = as_matrix(xi)
        lam = self.eigenvalues
        return (lam**beta)[:, None] * m * (lam ** (-beta))[None, :]

    def delta_power(self, beta: float) -> Superoperator:
        lam = self.eigenvalues
        scale = np.outer(lam**beta, lam ** (-beta)).reshape(-1)
        return Superoperator(np.diag(scale).astype(complex), False)

    def left_mult(self, a_frame) -> Superoperator:
        """Superoperator of xi -> a xi for a frame operator a."""
        a = as_matrix(a_frame)
        return Superoperator(np.kron(a, np.eye(self.dim, dtype=complex)), False)


def gns_context(rho) -> GnsContext:
    """Build the GNS/modular bundle for the state with density matrix rho.

    The eigenbasis of rho fixes the frame (ascending eigenvalues, phases made
    deterministic by the kernel's eigendecomposition rule).  A trace more than
    TRACE_TOL (absolute) away from 1 is an error, not renormalised away: a
    state rounded at 1e-10 elsewhere must be renormalised by its producer.
    """
    r = as_matrix(rho)
    if r.shape[0] != r.shape[1]:
        raise NotAStateError(f"state matrix must be square, got {r.shape}")
    if frobenius(r - r.conj().T) > 1e-10 * max(1.0, bounded_norm(r)):
        raise NotAStateError("state matrix is not Hermitian")
    if abs(np.trace(r).real - 1.0) > TRACE_TOL or abs(np.trace(r).imag) > TRACE_TOL:
        raise NotAStateError(
            f"trace {np.trace(r):.17g} differs from 1 by more than {TRACE_TOL:g} "
            "(states are not renormalised)"
        )
    eig = herm_eig(r)
    lam = eig.eigenvalues
    if lam[0] < -psd_tol(r):
        raise NotAStateError(f"negative eigenvalue {lam[0]:.3e}")
    if lam[0] < FAITHFUL_FLOOR:
        raise NotFaithfulError(f"min eigenvalue {lam[0]:.3e} below {FAITHFUL_FLOOR:.1e}")
    if lam[-1] / lam[0] > CONDITION_GUARD:
        warnings.warn(
            f"state condition number {lam[-1] / lam[0]:.2e} exceeds the guard "
            f"{CONDITION_GUARD:.0e}; modular powers lose accuracy",
            stacklevel=2,
        )
    d = r.shape[0]
    sqrt_lam = np.sqrt(lam)

    # U E_ij = E_ji, a permutation; tau E_ij = rho^(-1/2) E_ji rho^(1/2) scales
    # its row (p, q) by lam_q^(1/2) / lam_p^(1/2)
    swap = matrix_units(d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    u_op = Superoperator(swap)
    jm_op = Superoperator(swap.copy(), antilinear=True)  # xi -> xi* = conj(xi^T)
    j_op = Superoperator(np.eye(d * d, dtype=complex), antilinear=True)  # xi -> conj(xi)
    tau_op = Superoperator(swap * np.outer(1 / sqrt_lam, sqrt_lam).reshape(-1, 1))
    return GnsContext(
        rho=r,
        eigenvalues=lam,
        basis=eig.eigenvectors,
        dim=d,
        Omega=np.diag(sqrt_lam).astype(complex),
        U=u_op,
        Jm=jm_op,
        J=j_op,
        tau=tau_op,
    )


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def transpose_via_conjugations(a, xi) -> tuple[np.ndarray, np.ndarray, float]:
    """Both sides of the identity a^t xi = J a* J xi on the representation space.

    `a` is an operator and `xi` a vector of the representation space, both as
    frame matrices; the left side multiplies by the transposed operator, the
    right side conjugates, multiplies by a*, and conjugates back.
    """
    am = as_matrix(a)
    xm = as_matrix(xi)
    lhs = am.T @ xm
    rhs = np.conj(am.conj().T @ np.conj(xm))
    return lhs, rhs, frobenius(lhs - rhs)


def check_unitary_relations(ctx: GnsContext) -> dict[str, float]:
    """Defects of the structural identities among U, J, Jm, and Delta.

    Covers: U is a self-adjoint involution; J = U Jm; J, Jm, U mutually
    commute; J commutes with Delta; U Delta = Delta^(-1) U.  The returned
    dict carries one Frobenius defect per identity plus their maximum.
    """
    d2 = ctx.dim**2
    eye = np.eye(d2, dtype=complex)
    delta = ctx.delta_power(1.0)
    delta_inv = ctx.delta_power(-1.0)
    defects = {
        "u_involution": frobenius(ctx.U.matrix @ ctx.U.matrix - eye),
        "u_selfadjoint": frobenius(ctx.U.matrix - ctx.U.matrix.conj().T),
        "j_equals_u_jm": ctx.J.defect(ctx.U.compose(ctx.Jm)),
        "j_jm_commute": ctx.J.compose(ctx.Jm).defect(ctx.Jm.compose(ctx.J)),
        "u_j_commute": ctx.U.compose(ctx.J).defect(ctx.J.compose(ctx.U)),
        "u_jm_commute": ctx.U.compose(ctx.Jm).defect(ctx.Jm.compose(ctx.U)),
        "j_delta_commute": ctx.J.compose(delta).defect(delta.compose(ctx.J)),
        "u_delta_flip": ctx.U.compose(delta).defect(delta_inv.compose(ctx.U)),
    }
    defects["max"] = max(defects.values())
    return defects


def check_polar_factorization(ctx: GnsContext) -> float:
    """Defect of the polar identity tau = U Delta^(1/2)."""
    return ctx.tau.defect(ctx.U.compose(ctx.delta_power(0.5)))


def swap_conjugate(ctx: GnsContext, op) -> np.ndarray:
    """U A U* for an operator A on the representation space (d^2 x d^2)."""
    a = as_matrix(op)
    d2 = ctx.dim**2
    if a.shape != (d2, d2):
        raise DimensionMismatchError(f"expected ({d2}, {d2}) superoperator, got {a.shape}")
    return ctx.U.matrix @ a @ ctx.U.matrix.conj().T


def commutant_defect(ctx: GnsContext, op) -> float:
    """Largest commutator norm of `op` against all left multiplications."""
    a = as_matrix(op)
    worst = 0.0
    for e in matrix_units(ctx.dim).reshape(-1, ctx.dim, ctx.dim):
        lm = ctx.left_mult(e).matrix
        worst = max(worst, frobenius(a @ lm - lm @ a))
    return worst


# ---------------------------------------------------------------------------
# the interpolating cone family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeMembershipResult:
    member: bool
    witness: np.ndarray
    hermitian_defect: float
    min_eig: float


def v_beta_member(ctx: GnsContext, beta: float, xi) -> ConeMembershipResult:
    """Membership in the cone {Delta^beta a Omega : a >= 0} for beta in [0, 1/2].

    The candidate a is reconstructed exactly (the cone is closed in finite
    dimension), so membership reduces to a being Hermitian PSD within
    tolerance.  beta = 1/4 is the natural cone.
    """
    if not 0.0 <= beta <= 0.5:
        raise BetaOutOfRangeError(f"beta={beta} outside [0, 1/2]")
    xm = as_matrix(xi)
    if xm.shape != (ctx.dim, ctx.dim):
        raise DimensionMismatchError(f"expected ({ctx.dim}, {ctx.dim}), got {xm.shape}")
    lam = ctx.eigenvalues
    a = xm * (lam ** (-beta))[:, None] * (lam ** (beta - 0.5))[None, :]
    bound = psd_tol(a)
    herm_defect = frobenius(a - a.conj().T)
    if herm_defect > bound:
        return ConeMembershipResult(False, a, herm_defect, float("nan"))
    min_eig = float(np.linalg.eigvalsh(hermitian_part(a))[0])
    return ConeMembershipResult(min_eig >= -bound, a, herm_defect, min_eig)


def cone_vector(ctx: GnsContext, beta: float, a) -> np.ndarray:
    """Delta^beta (a Omega) as a frame matrix."""
    return ctx.delta_apply(beta, a @ ctx.Omega)


def v_beta_duality_check(
    ctx: GnsContext, beta: float, *, samples: int = 100, seed: int = 0
) -> dict[str, float]:
    """Sampled duality between the cones at beta and 1/2 - beta.

    Pairs sampled members of the two cones (real part must be nonnegative,
    imaginary part zero) and checks that U carries members at beta to members
    at 1/2 - beta.
    """
    if not 0.0 <= beta <= 0.5:
        raise BetaOutOfRangeError(f"beta={beta} outside [0, 1/2]")
    require_integer("samples", samples, 1, CountOutOfRangeError)
    min_real = np.inf
    max_imag = 0.0
    flips_failed = 0
    seek = _stream_seeker(seed)
    for s in range(samples):
        rng = seek(s)
        xi = cone_vector(ctx, beta, random_psd(rng, ctx.dim))
        eta = cone_vector(ctx, 0.5 - beta, random_psd(rng, ctx.dim))
        pairing = complex(np.vdot(eta, xi))
        min_real = min(min_real, pairing.real)
        max_imag = max(max_imag, abs(pairing.imag))
        if not v_beta_member(ctx, 0.5 - beta, xi.T).member:  # U xi, exactly
            flips_failed += 1
    return {
        "min_real_pairing": float(min_real),
        "max_imag_pairing": float(max_imag),
        "flip_failures": float(flips_failed),
    }


# ---------------------------------------------------------------------------
# maps carried to the representation space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InducedOperator:
    """Hilbert-space operator implementing a map against the cyclic vector."""

    operator: Superoperator
    invariance_defect: float
    extension_defect: float
    delta_commutation_defect: float
    contraction_defect: float


def t_phi(ctx: GnsContext, phi: MatrixMap) -> InducedOperator:
    """The operator T with T(a Omega) = phi(a) Omega, built by linear
    extension from the frame units.

    The state is assumed invariant under phi for the cone-mapping theory; a
    defect above 1e-8 warns, not raises, because T is well defined
    regardless.  Reported defects: the unit-extension residual, commutation
    with Delta, and the excess of the operator norm over 1.
    """
    if phi.m != ctx.dim or phi.n != ctx.dim:
        raise DimensionMismatchError(
            f"map acts on B(C^{phi.m}) -> B(C^{phi.n}), context dimension {ctx.dim}"
        )
    # inv[p, q] = Tr(rho phi(E_pq)) - Tr(rho E_pq), and Tr(rho E_pq) = rho[q, p]
    inv = np.einsum("ab,pqba->pq", ctx.rho, phi.unit_images) - ctx.rho.T
    invariance_defect = frobenius(inv)
    if invariance_defect > 1e-8:
        warnings.warn(
            f"state is not invariant under the map (defect {invariance_defect:.3e}); "
            "cone-mapping statements need invariance",
            stacklevel=2,
        )

    x, d = ctx.basis, ctx.dim
    phi_frame = MatrixMap.from_function(lambda e: x.conj().T @ phi(x @ e @ x.conj().T) @ x, d, d)
    # T E_ij = phi_frame(E_ij Omega^(-1)) Omega: column (i, j) of T is vec of
    # phi_frame(E_ij) with its column b scaled by lam_b^(1/2) / lam_j^(1/2)
    sqrt_lam = np.sqrt(ctx.eigenvalues)
    images = phi_frame.unit_images * (1 / sqrt_lam)[None, :, None, None] * sqrt_lam
    t_op = Superoperator(np.ascontiguousarray(images.reshape(d * d, d * d).T))

    ext = 0.0
    for e in matrix_units(d).reshape(-1, d, d):
        ext = max(ext, frobenius(t_op.apply(e @ ctx.Omega) - phi_frame(e) @ ctx.Omega))

    delta = ctx.delta_power(1.0)
    comm = frobenius(t_op.matrix @ delta.matrix - delta.matrix @ t_op.matrix)
    contraction = max(0.0, t_op.norm() - 1.0)
    return InducedOperator(t_op, invariance_defect, ext, comm, contraction)


def frame_transposition_map(ctx: GnsContext) -> MatrixMap:
    """Transposition with respect to the eigenbasis of the state.

    This is the transposition the modular theory describes: it leaves the
    state invariant, and its induced operator coincides with the polar
    carrier tau.  At a diagonal state (ascending spectrum) it reduces to the
    plain standard-basis transposition.
    """
    x = ctx.basis
    return MatrixMap.from_function(
        lambda a: x @ (x.conj().T @ a @ x).T @ x.conj().T, ctx.dim, ctx.dim
    )


def schwarz_defect(
    phi: MatrixMap, *, samples: int = 50, seed: int = 0, reversed_product: bool = False
) -> float:
    """Largest sampled violation of phi(a* a) >= phi(a)* phi(a); zero means the
    sampled operators found no counterexample.

    `reversed_product` tests phi(a* a) >= phi(a) phi(a)* instead, the order
    that anti-multiplicative maps satisfy (transposition fulfils it with
    equality, while it fails the direct order).
    """
    require_integer("samples", samples, 1, CountOutOfRangeError)
    worst = 0.0
    for s in range(samples):
        rng = rng_stream(seed, s)
        a = random_complex(rng, (phi.m, phi.m))
        image = phi(a)
        square = image @ image.conj().T if reversed_product else image.conj().T @ image
        gap = hermitian_part(phi(a.conj().T @ a) - square)
        worst = max(worst, max(0.0, -psd_min_eig(gap)))
    return worst


@dataclass(frozen=True)
class BalanceAdjoint:
    """Adjoint map with respect to the state pairing, with diagnostics."""

    adjoint_map: MatrixMap
    identity_defect: float
    positivity: Verdict


def db_adjoint(
    ctx: GnsContext,
    phi: MatrixMap,
    *,
    seed: int = 0,
    restarts: int = 16,
) -> BalanceAdjoint:
    """Solve omega(a* phi(b)) = omega(psi(a*) b) for the adjoint map psi.

    With a faithful state the linear system over all unit pairs has a unique
    solution; the residual of the defining identity over every unit pair is
    reported, and block positivity of the solution's Hermitian part (the
    solution need not preserve Hermiticity) attaches the 1-positivity search.
    """
    if phi.m != ctx.dim or phi.n != ctx.dim:
        raise DimensionMismatchError("map and context dimensions differ")
    d = ctx.dim
    rho = ctx.rho
    image_rho = np.einsum("klab,bc->klac", phi.unit_images, rho)  # phi(E_kl) rho
    try:
        rho_inv = np.linalg.inv(rho)
    except np.linalg.LinAlgError as exc:
        raise InconsistentSystemError("state is numerically singular") from exc
    # psi(E_pq) from (rho psi(E_pq))[l, k] = (phi(E_kl) rho)[q, p]
    psi = MatrixMap(rho_inv @ image_rho.transpose(3, 2, 1, 0))

    # over every unit pair (a, b) = (E_ij, E_kl): Tr(rho E_ji phi(E_kl)) is
    # image_rho[k, l, i, j] and Tr(rho psi(E_ji) E_kl) is (rho psi(E_ji))[l, k]
    rho_psi = rho @ psi.unit_images
    defect = float(np.max(np.abs(image_rho - rho_psi.transpose(3, 2, 1, 0))))
    if defect > 1e-10:
        raise InconsistentSystemError(f"identity defect {defect:.3e} exceeds 1.0e-10")
    hermitian = MatrixMap.from_choi(hermitian_part(psi.choi()), d, d)
    pos = is_k_positive(hermitian, 1, restarts=restarts, seed=seed)
    return BalanceAdjoint(psi, defect, pos)


def cone_state(ctx: GnsContext, xi) -> np.ndarray:
    """Density matrix of the vector state of a natural-cone element.

    Tr(result @ a) = <xi, a xi> for every frame operator a acting by left
    multiplication; requires xi in the natural cone (beta = 1/4).
    """
    membership = v_beta_member(ctx, 0.25, xi)
    if not membership.member:
        raise NotInNaturalConeError(
            f"vector fails natural-cone membership (min eig {membership.min_eig:.3e})"
        )
    xm = as_matrix(xi)
    return xm @ xm.conj().T
