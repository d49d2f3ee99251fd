"""Kernel tests: eigendecomposition, powers, tensor ops, seeded sampling."""

import numpy as np
import pytest

from linalg_helpers import NON_FINITE_PARTS, frac_power, haar_projection, random_hermitian
from posmap.errors import DimensionMismatchError, NotHermitianError, NotSquareError
from posmap.linalg import (
    _eigh_bottom,
    _eigh_phased,
    _haar_from_gaussian,
    as_matrix,
    frobenius,
    haar_isometry,
    herm_eig,
    hs_inner,
    matrix_units,
    partial_transpose,
    ppt_min_eigs,
    psd_min_eig,
    random_complex,
    random_psd,
    rng_stream,
)
from posmap.maps import max_entangled_projector, swap_operator


def unit(i, j, d):
    return matrix_units(d)[i, j]


class TestAsMatrix:
    @pytest.mark.parametrize("re_part, im_part", NON_FINITE_PARTS)
    def test_one_non_finite_part_is_refused(self, re_part, im_part):
        a = np.eye(3, dtype=complex)
        a[1, 2] = complex(re_part, im_part)
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            as_matrix(a)


class TestHermEig:
    def test_identity(self):
        eig = herm_eig(np.eye(2))
        assert np.allclose(eig.eigenvalues, [1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        eig = herm_eig(np.diag([3.0, -1.0]))
        assert np.allclose(eig.eigenvalues, [-1.0, 3.0])

    def test_pauli_x(self):
        # characteristic polynomial of [[0,1],[1,0]] is t^2 - 1, roots -1 and 1
        eig = herm_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 5, 9, 16])
    def test_reconstruction_and_orthonormality(self, dim):
        rng = rng_stream(101, dim)
        for trial in range(10):
            a = random_hermitian(rng, dim)
            eig = herm_eig(a)
            v, w = eig.eigenvectors, eig.eigenvalues
            scale = max(1.0, frobenius(a))
            assert frobenius(a - (v * w) @ v.conj().T) <= 1e-10 * scale
            assert frobenius(v.conj().T @ v - np.eye(dim)) <= 1e-10

    def test_deterministic_for_identical_input(self):
        rng = rng_stream(7)
        a = random_hermitian(rng, 6)
        e1 = herm_eig(a.copy())
        e2 = herm_eig(a.copy())
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)

    def test_phase_rule_positive_leading_component(self):
        rng = rng_stream(8)
        a = random_hermitian(rng, 5)
        v = herm_eig(a).eigenvectors
        for col in range(5):
            lead = v[np.argmax(np.abs(v[:, col])), col]
            assert abs(lead.imag) <= 1e-12
            assert lead.real > 0

    @pytest.mark.parametrize("dim", [3, 6, 12])
    def test_stack_matches_one_matrix_at_a_time(self, dim):
        rng = rng_stream(9, dim)
        stack = np.array([random_hermitian(rng, dim) for _ in range(7)])
        w, v = _eigh_phased(stack)
        for a, wa, va in zip(stack, w, v):
            eig = herm_eig(a)
            assert np.array_equal(eig.eigenvalues, wa)
            assert np.array_equal(eig.eigenvectors, va)

    @pytest.mark.parametrize("shape", [(), (1,), (7,), (2, 3)])
    def test_bottom_pair_is_column_0_of_the_phased_decomposition(self, shape):
        rng = rng_stream(10, len(shape))
        stack = np.array([random_hermitian(rng, 6) for _ in range(int(np.prod(shape)))])
        stack = stack.reshape(*shape, 6, 6)
        w, v = _eigh_phased(stack)
        w0, v0 = _eigh_bottom(stack)
        assert np.array_equal(w0, w[..., 0])
        assert np.array_equal(v0, v[..., 0])

    def test_not_hermitian(self):
        with pytest.raises(NotHermitianError):
            herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            herm_eig(np.zeros((2, 3)))


class TestPsdMinEig:
    def test_identity(self):
        assert psd_min_eig(np.eye(3)) == pytest.approx(1.0, abs=1e-14)

    def test_zero(self):
        assert psd_min_eig(np.zeros((3, 3))) == pytest.approx(0.0, abs=1e-14)

    def test_swap_operator(self):
        # the flip splits into symmetric (+1) and antisymmetric (-1) subspaces
        assert psd_min_eig(swap_operator(2)) == pytest.approx(-1.0, abs=1e-12)


class TestFracPower:
    def test_identity_sqrt(self):
        assert np.allclose(frac_power(np.eye(2), 0.5), np.eye(2))

    def test_diagonal_sqrt(self):
        assert np.allclose(frac_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]))

    def test_diagonal_inverse(self):
        out = frac_power(np.diag([2 / 3, 1 / 3]), -1.0)
        assert np.allclose(out, np.diag([1.5, 3.0]), atol=1e-12)

    def test_power_semigroup(self):
        rng = rng_stream(21)
        for trial in range(20):
            a = random_psd(rng, 4) + 1e-3 * np.eye(4)
            for b1, b2 in [(0.5, 0.5), (0.25, -0.25), (1.5, -0.5)]:
                lhs = frac_power(a, b1) @ frac_power(a, b2)
                rhs = frac_power(a, b1 + b2)
                assert frobenius(lhs - rhs) <= 1e-9 * max(1.0, frobenius(rhs))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not PSD"):
            frac_power(np.diag([1.0, -1.0]), 0.5)

    def test_rejects_singular_negative_power(self):
        with pytest.raises(ValueError, match="singular"):
            frac_power(np.diag([1.0, 0.0]), -1.0)


class TestKron:
    def test_identity(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_unit_placement(self):
        out = np.kron(unit(0, 0, 2), unit(1, 1, 2))
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 1.0
        assert np.array_equal(out, expected)

    def test_diagonal(self):
        out = np.kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.array_equal(out, np.diag([3.0, 4.0, 6.0, 8.0]))


class TestMatrixUnits:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_each_unit_has_a_single_one_at_its_index(self, d):
        units = matrix_units(d)
        assert units.shape == (d, d, d, d) and units.dtype == complex
        for i in range(d):
            for j in range(d):
                expected = np.zeros((d, d))
                expected[i, j] = 1
                assert np.array_equal(units[i, j], expected)


class TestPptMinEigs:
    def test_entangled_projector_is_not_ppt(self):
        p_min, pt_min = ppt_min_eigs(max_entangled_projector(2), 2, 2, "first")
        assert abs(p_min) <= 1e-15
        assert abs(pt_min + 0.5) <= 1e-15

    def test_spectra_of_the_hermitian_part_and_its_partial_transpose(self):
        a = random_complex(rng_stream(33), (6, 6))
        h = (a + a.conj().T) / 2
        for side in ("first", "second"):
            expected = (
                np.linalg.eigvalsh(h)[0],
                np.linalg.eigvalsh(partial_transpose(h, 2, 3, side))[0],
            )
            assert ppt_min_eigs(a, 2, 3, side) == expected


class TestPartialTranspose:
    def test_unit_action_first_factor(self):
        h = np.kron(unit(0, 1, 2), unit(2, 3, 4))
        out = partial_transpose(h, 2, 4, side="first")
        assert np.array_equal(out, np.kron(unit(1, 0, 2), unit(2, 3, 4)))

    def test_involution(self):
        rng = rng_stream(31)
        h = random_psd(rng, 6)
        again = partial_transpose(partial_transpose(h, 2, 3, "first"), 2, 3, "first")
        assert np.array_equal(again, h)
        again2 = partial_transpose(partial_transpose(h, 2, 3, "second"), 2, 3, "second")
        assert np.array_equal(again2, h)

    def test_swap_becomes_entangled_projector(self):
        # expand the flip in matrix units and transpose the first factor:
        # the result is twice the projector onto (e1 x e1 + e2 x e2)/sqrt(2)
        out = partial_transpose(swap_operator(2), 2, 2, "first")
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert np.allclose(out, 2 * np.outer(v, v.conj()), atol=1e-14)

    def test_preserves_hermiticity_and_trace_exactly(self):
        rng = rng_stream(32)
        h = random_hermitian(rng, 6)
        for side in ("first", "second"):
            pt = partial_transpose(h, 2, 3, side)
            assert np.array_equal(pt, pt.conj().T)
            assert np.trace(pt) == np.trace(h)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_transpose(np.eye(5), 2, 2)


class TestHsInner:
    def test_identity(self):
        assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_orthogonal_units(self):
        assert hs_inner(unit(0, 0, 2), unit(1, 1, 2)) == 0

    def test_normalized_unit(self):
        assert hs_inner(unit(0, 1, 2), unit(0, 1, 2)) == pytest.approx(1.0)

    def test_conjugate_symmetry(self):
        rng = rng_stream(33)
        for trial in range(20):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert hs_inner(a, b) == np.conj(hs_inner(b, a))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hs_inner(np.eye(2), np.eye(3))


class TestHaarProjection:
    def test_full_rank_is_identity(self):
        assert np.allclose(haar_projection(3, 3, seed=5), np.eye(3), atol=1e-12)

    def test_rank_one_spectrum(self):
        p = haar_projection(2, 1, seed=6)
        w = np.linalg.eigvalsh(p)
        assert np.allclose(w, [0.0, 1.0], atol=1e-12)
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_per_seed(self):
        assert np.array_equal(haar_projection(4, 2, seed=17), haar_projection(4, 2, seed=17))

    @pytest.mark.parametrize("dim,rank", [(2, 1), (4, 2), (5, 3)])
    def test_projection_invariants(self, dim, rank):
        p = haar_projection(dim, rank, seed=dim * 10 + rank)
        assert frobenius(p @ p - p) <= 1e-10
        assert frobenius(p - p.conj().T) <= 1e-10
        assert abs(np.trace(p).real - rank) <= 1e-10

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match="rank"):
            haar_projection(3, 0, seed=0)
        with pytest.raises(ValueError, match="rank"):
            haar_projection(3, 4, seed=0)

    @pytest.mark.parametrize("dim,rank", [(3, 1), (4, 2), (4, 3)])
    def test_stacked_isometries_match_one_draw_at_a_time(self, dim, rank):
        draws = np.array([random_complex(rng_stream(3, r), (dim, rank)) for r in range(6)])
        one_by_one = [haar_isometry(rng_stream(3, r), dim, rank) for r in range(6)]
        assert np.array_equal(_haar_from_gaussian(draws), one_by_one)
