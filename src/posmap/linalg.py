"""Dense complex linear-algebra kernel shared by every other module.

Conventions, used bit-exactly everywhere:

- Matrices are dense complex numpy arrays in row-major order.
- Vectorization stacks rows: ``vec(a)[i * cols + j] = a[i, j]``.
- ``np.kron`` keeps the first factor slowest, so
  ``np.kron(A, B)[i*p + k, j*q + l] = A[i, j] * B[k, l]``.
- Randomness comes from the counter-based Philox generator; every search
  takes an explicit integer seed and independent streams are obtained with
  :func:`rng_stream` (or reached in turn on one bit generator through
  `_stream_seeker`), so any sampled verdict is replayable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, NotSquareError, PosmapError

HERMITIAN_RTOL = 1e-8
PSD_RTOL = 1e-9
PPT_TOL = 1e-12  # PPT-state bound of the witness search and of its re-check in `verify`
# largest product dimension (m * n for a map, dim * k for a block size) the
# toolkit accepts: its dense searches are sized for matrices up to 36 x 36
DESK_SCALE_DIM = 36


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def _finite_norm(a) -> float:
    """frobenius(a), refused when it overflows: a tolerance it scales would pass anything.
    It warns as numpy does; a caller that silences overflow does so once for all its norms."""
    if (norm := frobenius(a)) == np.inf:
        raise PosmapError("matrix norm overflows float range; rescale the input")
    return norm


@np.errstate(over="ignore")  # refused, so numpy's overflow warning would only precede the error
def bounded_norm(a) -> float:
    """`_finite_norm` with numpy's overflow warning silenced."""
    return _finite_norm(a)


def psd_tol(a) -> float:
    """Scale-aware PSD tolerance: a Hermitian matrix counts as PSD when its
    smallest eigenvalue is >= -psd_tol(a)."""
    return PSD_RTOL * max(1.0, bounded_norm(a))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a*) / 2, for one matrix or a (..., d, d) stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2


def check_hermitian(a) -> np.ndarray:
    """Validate Hermitian symmetry and return the symmetrized matrix."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected square matrix, got shape {m.shape}")
    defect = frobenius(m - m.conj().T)
    if defect > HERMITIAN_RTOL * max(bounded_norm(m), 1e-300):
        raise NotHermitianError(f"Hermitian defect {defect:.3e} exceeds tolerance")
    return hermitian_part(m)


@dataclass(frozen=True)
class HermEig:
    """Eigendecomposition of a Hermitian matrix.

    Eigenvalues ascend; eigenvector columns are orthonormal with the phase
    fixed so the largest-magnitude component of each column is real positive,
    which makes the output deterministic for identical input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(a) -> HermEig:
    """Eigendecomposition of a Hermitian matrix with a deterministic phase rule."""
    return HermEig(*_eigh_phased(check_hermitian(a)))


def _eigh_phased(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`herm_eig` without validation, on one Hermitian matrix or a (..., d, d)
    stack of them: ascending eigenvalues and eigenvector columns phased so
    that each column's largest-magnitude component is real positive."""
    w, v = np.linalg.eigh(a)
    return w, _phased(v)


def _eigh_bottom(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bottom eigenpair of `_eigh_phased`, phased as its column 0."""
    w, v = np.linalg.eigh(a)
    return w[..., 0], _phased(v[..., :1])[..., 0]


def _phased(v: np.ndarray) -> np.ndarray:
    """Columns of v phased so that each one's largest-magnitude component is real positive."""
    idx = np.argmax(np.abs(v), axis=-2)
    lead = np.take_along_axis(v, idx[..., None, :], axis=-2)
    phases = np.where(np.abs(lead) > 0, lead / np.maximum(np.abs(lead), 1e-300), 1.0)
    return v * phases.conj()


def psd_min_eig(a) -> float:
    """Smallest eigenvalue of a Hermitian matrix; caller compares to a tolerance."""
    m = check_hermitian(a)
    return float(np.linalg.eigvalsh(m)[0])


def matrix_units(d: int) -> np.ndarray:
    """The matrix units of B(C^d): ``units[i, j]`` is E_ij, the d x d matrix
    with a one at (i, j) and zeros elsewhere."""
    return np.eye(d * d, dtype=complex).reshape(d, d, d, d)


def partial_transpose(h, dim_first: int, dim_second: int, side: str = "first") -> np.ndarray:
    """Transpose one tensor factor of an operator on C^dim_first (x) C^dim_second."""
    m = as_matrix(h)
    d = dim_first * dim_second
    if m.shape != (d, d):
        raise DimensionMismatchError(
            f"matrix shape {m.shape} does not match {dim_first}x{dim_second} product"
        )
    return _partial_transpose(m, dim_first, dim_second, side)


def _partial_transpose(m: np.ndarray, dim_first: int, dim_second: int, side: str) -> np.ndarray:
    """`partial_transpose` without input validation, for arrays built inside a
    search; takes one matrix or a (..., d, d) stack of them."""
    t = m.reshape(m.shape[:-2] + (dim_first, dim_second, dim_first, dim_second))
    if side == "first":
        t = t.swapaxes(-4, -2)
    elif side == "second":
        t = t.swapaxes(-3, -1)
    else:
        raise ValueError(f"side must be 'first' or 'second', got {side!r}")
    return np.ascontiguousarray(t).reshape(m.shape)


def ppt_min_eigs(
    a: np.ndarray, dim_first: int, dim_second: int, side: str
) -> tuple[float, float]:
    """Smallest eigenvalues of the Hermitian part of `a` and of its partial
    transpose on `side`; both are >= 0 exactly when `a` is a PPT operator.
    Like `alternate_ppt_projections`, it does no validation."""
    h = hermitian_part(a)
    pt = _partial_transpose(h, dim_first, dim_second, side)
    return float(np.linalg.eigvalsh(h)[0]), float(np.linalg.eigvalsh(pt)[0])


def project_psd(a: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm: the Hermitian part with its
    negative eigenvalues clipped to zero; one matrix or a (..., d, d) stack."""
    w, v = np.linalg.eigh(hermitian_part(a))
    return (v * np.maximum(w, 0.0)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def alternate_ppt_projections(
    a: np.ndarray, dim_first: int, dim_second: int, side: str, rounds: int
) -> np.ndarray:
    """Alternate PSD projections of `a` (one matrix or a (..., d, d) stack)
    and of its partial transpose on `side`.

    Each of the `rounds` sweeps projects `a`, then its partial transpose, onto
    the PSD cone; a last projection leaves the result PSD.  The result is
    only approximately PPT, so callers test the partial transpose themselves.
    """
    for _ in range(rounds):
        a = project_psd(a)
        pt = _partial_transpose(a, dim_first, dim_second, side)
        a = _partial_transpose(project_psd(pt), dim_first, dim_second, side)
    return project_psd(a)


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr(a* b), conjugate-linear in the first slot."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"shape mismatch {ma.shape} vs {mb.shape}")
    return complex(np.vdot(ma, mb))


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator stream `stream`, 0 <= stream < 2**128, of the Philox
    counter keyed by `seed`: its counter starts where `jumped(stream)` puts it."""
    key, counter = int(seed), _stream_index(stream) << 128
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _stream_index(stream) -> int:
    """`stream` as an int, checked to lie in 0..2**128 - 1."""
    s = int(stream)
    if not 0 <= s < 2**128:
        raise ValueError(f"stream must be in 0..2**128 - 1, got {s}")
    return s


def _stream_seeker(seed: int):
    """One Philox bit generator keyed by `seed`, and a function `seek(s)` that
    positions its one Generator at the start of `rng_stream(seed, s)` and
    returns it: the counter is set to [0, 0, s mod 2**64, s >> 64] and the
    buffer emptied, a state assignment instead of a new bit generator.
    `seed` and each s are checked as `rng_stream` checks them; a Generator
    that `seek` returned is only valid until its next call."""
    bits = np.random.Philox(key=int(seed))
    gen = np.random.Generator(bits)
    state = bits.state  # counter zero, buffer empty
    counter = state["state"]["counter"]

    def seek(stream) -> np.random.Generator:
        s = _stream_index(stream)
        counter[2], counter[3] = s & (2**64 - 1), s >> 64
        bits.state = state
        return gen

    return seek


def _stream_normals(seek, streams, width: int) -> np.ndarray:
    """(len(streams), width) array whose row i holds the first `width` standard
    normals of stream streams[i] of the seeker `seek`, drawn in one call."""
    out = np.empty((len(streams), width))
    for row, s in zip(out, streams):
        seek(s).standard_normal(out=row)
    return out


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = random_complex(rng, dim)
    return v / np.linalg.norm(v)


def random_psd(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    return _psd_from_normals(rng.standard_normal((2, dim, dim if rank is None else rank)))


def _psd_from_normals(z: np.ndarray) -> np.ndarray:
    """g g* for the complex Gaussian g = (z[..., 0, :, :] + i z[..., 1, :, :])
    / sqrt(2) that `random_complex` makes of the same normals; a stack too."""
    g = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    g /= np.sqrt(2)
    return g @ g.conj().swapaxes(-1, -2)


def random_faithful_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density matrix with spectrum bounded away from zero."""
    w = 0.05 + 0.95 * rng.random(dim)
    w = w / w.sum()
    u = haar_isometry(rng, dim, dim)
    return (u * w) @ u.conj().T


def haar_isometry(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """dim x rank isometry distributed per the Haar measure."""
    return _haar_from_gaussian(random_complex(rng, (dim, rank)))


def _haar_from_gaussian(g: np.ndarray) -> np.ndarray:
    """Haar isometries from a (..., dim, rank) stack of complex Gaussian
    matrices: the Q factor of each, its columns rephased by diag(R)."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    d = np.where(np.abs(d) > 0, d / np.maximum(np.abs(d), 1e-300), 1.0)
    return q * d.conj()[..., None, :]
