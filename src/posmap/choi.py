"""Correspondence between linear maps on matrix algebras and bipartite operators.

A map phi: B(C^m) -> B(C^n) is stored by its images on the matrix units
E_ij.  Its Choi matrix is

    h = sum_ij E_ij (x) phi(E_ij),

an mn x mn operator whose (i, j) block of size n x n is phi(E_ij); the map is
recovered from h by reading those blocks back, so the two encodings are exact
inverses.  The dual encoding `trace_kernel` returns the operator
g = sum_kl g_kl (x) F_kl whose coefficient matrices reproduce phi through
trace pairings, phi(a)[k, l] = Tr(a g_lk); the two encodings are related by a
full transposition in the product basis, h = g^T.

phi is completely positive exactly when h is PSD (`cp_verdict`), and
positive exactly when h is block positive, which is 1-positivity: its
search is `kpositivity.is_k_positive(phi, 1)`.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError
from .linalg import HERMITIAN_RTOL, _eigh_phased, as_matrix, bounded_norm, frobenius, matrix_units, psd_tol
from .verdicts import PASS, VIOLATION, Verdict


class MatrixMap:
    """Linear map B(C^m) -> B(C^n) stored by its action on matrix units.

    `unit_images[i, j]` is the n x n image of E_ij.  Linearity is structural:
    the action on units determines the map.
    """

    __slots__ = ("unit_images",)

    def __init__(self, unit_images) -> None:
        arr = np.asarray(unit_images, dtype=complex)
        if arr.ndim != 4 or arr.shape[0] != arr.shape[1] or arr.shape[2] != arr.shape[3]:
            raise DimensionMismatchError(
                f"unit images must have shape (m, m, n, n), got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("unit images contain non-finite entries")
        self.unit_images = arr

    @property
    def m(self) -> int:
        return self.unit_images.shape[0]

    @property
    def n(self) -> int:
        return self.unit_images.shape[2]

    @classmethod
    def from_choi(cls, h, m: int, n: int) -> "MatrixMap":
        """Rebuild the map from its Choi matrix: phi(E_ij) is the (i, j) block."""
        hm = as_matrix(h)
        if hm.shape != (m * n, m * n):
            raise DimensionMismatchError(
                f"Choi matrix shape {hm.shape} does not match m={m}, n={n}"
            )
        return cls(hm.reshape(m, n, m, n).transpose(0, 2, 1, 3))

    @classmethod
    def from_function(cls, f, m: int, n: int) -> "MatrixMap":
        units = matrix_units(m)
        images = np.zeros((m, m, n, n), dtype=complex)
        for i in range(m):
            for j in range(m):
                images[i, j] = f(units[i, j])
        return cls(images)

    @classmethod
    def from_kraus(cls, operators, m: int, n: int) -> "MatrixMap":
        """Sum-of-conjugations map a -> sum_r K_r a K_r* with n x m operators K_r."""
        ops = [as_matrix(k) for k in operators]
        for k in ops:
            if k.shape != (n, m):
                raise DimensionMismatchError(
                    f"Kraus-style operator shape {k.shape}, expected ({n}, {m})"
                )
        return cls.from_function(lambda a: sum(k @ a @ k.conj().T for k in ops), m, n)

    def __call__(self, a) -> np.ndarray:
        am = as_matrix(a)
        if am.shape != (self.m, self.m):
            raise DimensionMismatchError(f"argument shape {am.shape}, expected ({self.m}, {self.m})")
        return np.einsum("ij,ijab->ab", am, self.unit_images)

    def choi(self) -> np.ndarray:
        """h = sum_ij E_ij (x) phi(E_ij)."""
        m, n = self.m, self.n
        return np.ascontiguousarray(
            self.unit_images.transpose(0, 2, 1, 3).reshape(m * n, m * n)
        )

    def apply_blockwise(self, a, k: int) -> np.ndarray:
        """(id_k (x) phi) on a block matrix over C^k (x) C^m, blocks on the first factor."""
        am = as_matrix(a)
        m, n = self.m, self.n
        if am.shape != (k * m, k * m):
            raise DimensionMismatchError(f"block matrix shape {am.shape}, expected {(k*m, k*m)}")
        a4 = am.reshape(k, m, k, m)
        out = np.einsum("ipjq,pqab->iajb", a4, self.unit_images)
        return out.reshape(k * n, k * n)

    def compose_transposition(self) -> "MatrixMap":
        """The map a -> phi(a^t); its Choi blocks are the originals swapped."""
        return MatrixMap(self.unit_images.transpose(1, 0, 2, 3))

    def adjoint(self) -> "MatrixMap":
        """Hilbert-Schmidt adjoint phi*: Tr(phi(a)* b) = Tr(a* phi*(b))."""
        return MatrixMap(self.unit_images.transpose(2, 3, 0, 1).conj())

    def is_hermiticity_preserving(self) -> bool:
        """phi(a*) = phi(a)* for all a: the Choi matrix is Hermitian within
        HERMITIAN_RTOL * max(1, ||h||_F) in Frobenius norm (`bounded_norm`)."""
        h = self.choi()
        return _is_hermitian_choi(h, h.conj().T)

    def norm_distance(self, other: "MatrixMap") -> float:
        return frobenius(self.unit_images - other.unit_images)

    def __add__(self, other: "MatrixMap") -> "MatrixMap":
        if (self.m, self.n) != (other.m, other.n):
            raise DimensionMismatchError("map dimensions differ")
        return MatrixMap(self.unit_images + other.unit_images)

    def __sub__(self, other: "MatrixMap") -> "MatrixMap":
        if (self.m, self.n) != (other.m, other.n):
            raise DimensionMismatchError("map dimensions differ")
        return MatrixMap(self.unit_images - other.unit_images)

    def __neg__(self) -> "MatrixMap":
        return MatrixMap(-self.unit_images)

    def __rmul__(self, scalar) -> "MatrixMap":
        return MatrixMap(complex(scalar) * self.unit_images)


def trace_kernel(phi: MatrixMap) -> np.ndarray:
    """The dual kernel g = sum_kl g_kl (x) F_kl with phi(a)[k, l] = Tr(a g_lk).

    The coefficient matrices are obtained by solving the trace-pairing system
    Tr(E_ij g_lk) = phi(E_ij)[k, l] against the matrix units, which is dense
    but trivially small at this scale.
    """
    m, n = phi.m, phi.n
    # pairing[(i, j), (p, q)] = Tr(E_ij E_pq) = 1 exactly when (p, q) = (j, i)
    pairing = matrix_units(m).transpose(1, 0, 2, 3).reshape(m * m, m * m)
    rhs = phi.unit_images.reshape(m * m, n * n)
    sol = np.linalg.solve(pairing, rhs)  # column (l, k) holds vec(g_kl)
    # g = sum_kl g_kl (x) F_kl: g[(p, k), (q, l)] = g_kl[p, q]
    return sol.reshape(m, m, n, n).transpose(0, 3, 1, 2).reshape(m * n, m * n)


def kernel_transpose_gap(phi: MatrixMap) -> float:
    """|| choi(phi) - trace_kernel(phi)^T ||_F; the two encodings agree under
    full transposition in the product basis, so this is numerically zero."""
    return frobenius(phi.choi() - trace_kernel(phi).T)


def _is_hermitian_choi(h: np.ndarray, hh: np.ndarray) -> bool:
    """The test of `MatrixMap.is_hermiticity_preserving` on a Choi matrix h
    already built, given hh = h*."""
    return frobenius(h - hh) <= HERMITIAN_RTOL * max(1.0, bounded_norm(h))


def _hermitian_choi(h: np.ndarray) -> np.ndarray:
    """The Hermitian part (h + h*) / 2 of a Choi matrix already built, bit for
    bit `hermitian_part(h)`, once h passes `_is_hermitian_choi`
    (`NotHermitianError` otherwise); one conjugate transpose serves both."""
    hh = h.conj().T
    if not _is_hermitian_choi(h, hh):
        raise NotHermitianError("map is not Hermiticity-preserving")
    return (h + hh) / 2


def cp_verdict(phi: MatrixMap) -> Verdict:
    """Exact complete-positivity test: phi is CP iff its Choi matrix is PSD.

    The verdict is "pass" or a "violation" whose witness {"vector"} is the
    bottom eigenvector; `value` is the smallest Choi eigenvalue.
    """
    h = phi.choi()
    w, v = _eigh_phased(_hermitian_choi(h))
    min_eig = float(w[0])
    if min_eig >= -psd_tol(h):
        return Verdict(PASS, min_eig)
    return Verdict(VIOLATION, min_eig, witness={"vector": v[:, 0]})


def block_positivity_forms(h, m: int, n: int, x, y) -> tuple[float, float, float]:
    """The three equivalent quadratic forms behind block positivity.

    Returns the product form <x (x) y, h(x (x) y)>, its expansion over the
    second-factor coefficient blocks with weights from y, and its expansion
    over the first-factor coefficient blocks with weights from x.  All three
    are the same sum regrouped, which property tests assert.
    """
    hm = as_matrix(h)
    if hm.shape != (m * n, m * n):
        raise DimensionMismatchError(f"shape {hm.shape} does not match m={m}, n={n}")
    xv = np.asarray(x, dtype=complex)
    yv = np.asarray(y, dtype=complex)
    if xv.shape != (m,) or yv.shape != (n,):
        raise DimensionMismatchError("vector lengths must match the declared factors")
    h4 = hm.reshape(m, n, m, n)
    xy = np.kron(xv, yv)
    f1 = np.vdot(xy, hm @ xy)
    # second-factor blocks A_kl[p, q] = h[(p, k), (q, l)], weights lambda = y
    f2 = np.einsum("k,l,p,pkql,q->", yv.conj(), yv, xv.conj(), h4, xv)
    # first-factor blocks A'_ij[k, l] = h[(i, k), (j, l)], weights mu = x
    f3 = np.einsum("i,j,k,ikjl,l->", xv.conj(), xv, yv.conj(), h4, yv)
    return float(f1.real), float(f2.real), float(f3.real)
