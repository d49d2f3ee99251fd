"""Matrix helpers that only the tests use: an eigendecomposition power to
cross-check the modular operator's own powers, Haar-random projections,
random Hermitian matrices, and complex entries with one non-finite part.
The package reaches none of them: `modular`
raises the modular operator to a power entrywise from the state's spectrum,
and the searches draw isometries, not projections."""

import numpy as np
import pytest

from posmap.linalg import (
    haar_isometry,
    herm_eig,
    hermitian_part,
    psd_tol,
    random_complex,
    rng_stream,
)


def frac_power(a, beta: float) -> np.ndarray:
    """``a**beta`` for a PSD matrix via its eigendecomposition.

    Eigenvalues in ``[-tol, 0]`` are clamped to zero.  A negative power
    requires the matrix to be invertible well beyond the clamping tolerance.
    """
    eig = herm_eig(a)
    w = eig.eigenvalues.copy()
    tol = psd_tol(a)
    if w[0] < -tol:
        raise ValueError(f"not PSD: min eigenvalue {w[0]:.3e} below -{tol:.3e}")
    w = np.clip(w, 0.0, None)
    if beta < 0 and w[0] <= 1e-12 * max(w[-1], 1.0):
        raise ValueError(f"singular: min eigenvalue {w[0]:.3e} too small for power {beta}")
    v = eig.eigenvectors
    return (v * w**beta) @ v.conj().T


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return hermitian_part(random_complex(rng, (dim, dim)))


def haar_projection(dim: int, rank: int, seed: int) -> np.ndarray:
    """Haar-random rank-`rank` orthogonal projection on C^dim; an integer
    seed always yields the same projection."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank {rank} outside 1..{dim}")
    v = haar_isometry(rng_stream(seed), dim, rank)
    return v @ v.conj().T


# (real, imaginary) parts of one complex entry, exactly one of them NaN or +-inf:
# a one-pass finiteness check on the complex array must refuse each
NON_FINITE_PARTS = [
    *[pytest.param(bad, 0.5, id=f"real-{bad}") for bad in (np.nan, np.inf, -np.inf)],
    *[pytest.param(0.5, bad, id=f"imag-{bad}") for bad in (np.nan, np.inf, -np.inf)],
]
