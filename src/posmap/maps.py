"""Catalog of named maps and random map generators."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .choi import MatrixMap
from .linalg import matrix_units, random_psd


def identity_map(n: int) -> MatrixMap:
    return MatrixMap(matrix_units(n))


def transposition_map(n: int) -> MatrixMap:
    return MatrixMap(matrix_units(n).transpose(1, 0, 2, 3).copy())


def trace_times_identity(n: int) -> MatrixMap:
    """a -> Tr(a) * I_n; completely positive."""
    return MatrixMap(np.eye(n)[:, :, None, None] * np.eye(n))


@lru_cache(maxsize=None)
def _reduction_terms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit images T of a -> Tr(a) I and U of the identity on B(C^n), built
    once per n.  Both are read-only: a map holds the new array lam * T - U."""
    t = np.eye(n)[:, :, None, None] * np.eye(n)
    u = matrix_units(n)
    t.flags.writeable = u.flags.writeable = False
    return t, u


def reduction_family(lam: float, n: int = 3) -> MatrixMap:
    """The one-parameter family a -> lam * Tr(a) I - a on B(C^n).

    Its k-positivity threshold sits exactly at lam = k, which makes the family
    the standard calibration target for the bisection experiments.
    """
    t, u = _reduction_terms(n)
    return MatrixMap(lam * t - u)


def choi_qutrit_map() -> MatrixMap:
    """The classical positive but non-decomposable map on B(C^3).

    Diagonal entries are reinforced cyclically, off-diagonal entries negated:
    out[0,0] = a[0,0] + a[2,2], out[1,1] = a[1,1] + a[0,0],
    out[2,2] = a[2,2] + a[1,1], and out[i,j] = -a[i,j] for i != j.
    """

    def f(a: np.ndarray) -> np.ndarray:
        out = -a.astype(complex)
        out[0, 0] = a[0, 0] + a[2, 2]
        out[1, 1] = a[1, 1] + a[0, 0]
        out[2, 2] = a[2, 2] + a[1, 1]
        return out

    return MatrixMap.from_function(f, 3, 3)


def random_hermiticity_preserving(rng: np.random.Generator, m: int, n: int) -> MatrixMap:
    """Random map with a Hermitian Choi matrix (normalized to unit norm)."""
    g = rng.standard_normal((m * n, m * n)) + 1j * rng.standard_normal((m * n, m * n))
    h = (g + g.conj().T) / 2
    h = h / np.linalg.norm(h)
    return MatrixMap.from_choi(h, m, n)


def random_cp_map(rng: np.random.Generator, m: int, n: int) -> MatrixMap:
    """Random completely positive map (PSD Choi matrix, unit trace)."""
    h = random_psd(rng, m * n)
    h = h / np.trace(h).real
    return MatrixMap.from_choi(h, m, n)


def random_ccp_map(rng: np.random.Generator, m: int, n: int) -> MatrixMap:
    """Random completely copositive map: a CP map composed with transposition."""
    return random_cp_map(rng, m, n).compose_transposition()


def random_map_near_cp(
    rng: np.random.Generator, m: int, n: int, mix: float = 0.2
) -> MatrixMap:
    """CP Choi matrix mixed with a Hermitian perturbation; mostly block positive."""
    h = random_psd(rng, m * n)
    h = h / np.trace(h).real
    g = rng.standard_normal((m * n, m * n)) + 1j * rng.standard_normal((m * n, m * n))
    p = (g + g.conj().T) / 2
    p = p / np.linalg.norm(p)
    return MatrixMap.from_choi(h + mix * p, m, n)


def random_decomposable_map(
    rng: np.random.Generator, m: int, n: int
) -> tuple[MatrixMap, MatrixMap, MatrixMap]:
    """Random CP + co-CP sum; returns (total, cp_part, ccp_part)."""
    phi1 = random_cp_map(rng, m, n)
    phi2 = random_ccp_map(rng, m, n)
    return phi1 + phi2, phi1, phi2


def swap_operator(n: int) -> np.ndarray:
    """The flip on C^n (x) C^n; Choi matrix of transposition."""
    return matrix_units(n).transpose(1, 0, 2, 3).reshape(n * n, n * n)


def max_entangled_projector(n: int) -> np.ndarray:
    """Rank-1 projector onto sum_i e_i (x) e_i / sqrt(n)."""
    v = np.eye(n, dtype=complex).reshape(-1) / np.sqrt(n)
    return np.outer(v, v.conj())


def ppt_state_family(b: float, c: float) -> np.ndarray:
    """Two-parameter circulant family on C^3 (x) C^3 used as the witness oracle.

    w(b, c) ~ P+ + b * sigma_plus + c * sigma_minus, normalized to unit trace;
    positive under partial transposition exactly when b * c >= 1.
    """
    ket = matrix_units(3).reshape(3, 3, 9)  # ket[i, j] = e_i (x) e_j
    sig_p = sum(np.outer(ket[i, (i + 1) % 3], ket[i, (i + 1) % 3].conj()) for i in range(3)) / 3
    sig_m = sum(np.outer(ket[(i + 1) % 3, i], ket[(i + 1) % 3, i].conj()) for i in range(3)) / 3
    w = max_entangled_projector(3) + b * sig_p + c * sig_m
    return w / np.trace(w).real

