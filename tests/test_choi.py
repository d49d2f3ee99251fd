"""Map/operator correspondence and the base positivity tests."""

import numpy as np
import pytest

import posmap.maps
from linalg_helpers import NON_FINITE_PARTS
from posmap.choi import (
    MatrixMap,
    block_positivity_forms,
    cp_verdict,
    kernel_transpose_gap,
    trace_kernel,
)
from posmap.errors import NotHermitianError
from posmap.kpositivity import is_k_positive
from posmap.linalg import (
    frobenius,
    hermitian_part,
    random_psd,
    random_unit_vector,
    rng_stream,
)
from posmap.maps import (
    identity_map,
    max_entangled_projector,
    random_hermiticity_preserving,
    reduction_family,
    swap_operator,
    trace_times_identity,
    transposition_map,
)
from posmap.report import recheck_witness
from posmap.verdicts import EVIDENCE, PASS, VIOLATION


class TestChoiMatrix:
    def test_identity_map(self):
        h = identity_map(2).choi()
        assert np.allclose(h, 2 * max_entangled_projector(2))
        assert np.trace(h).real == pytest.approx(2.0)
        assert np.linalg.eigvalsh(hermitian_part(h))[0] >= -1e-12

    def test_transposition_is_swap(self):
        # sum_ij E_ij (x) E_ij^t = sum_ij E_ij (x) E_ji, the flip operator
        assert np.array_equal(transposition_map(2).choi(), swap_operator(2))

    def test_trace_map(self):
        assert np.allclose(trace_times_identity(2).choi(), np.eye(4))

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 4), (4, 4)])
    def test_round_trip(self, m, n):
        rng = rng_stream(55, m * 10 + n)
        for trial in range(20):
            phi = random_hermiticity_preserving(rng, m, n)
            back = MatrixMap.from_choi(phi.choi(), m, n)
            assert phi.norm_distance(back) <= 1e-12

    def test_choi_inverse_examples(self):
        phi = MatrixMap.from_choi(np.eye(4, dtype=complex), 2, 2)
        expected = trace_times_identity(2)
        assert phi.norm_distance(expected) <= 1e-12
        phi_t = MatrixMap.from_choi(swap_operator(2), 2, 2)
        assert phi_t.norm_distance(transposition_map(2)) <= 1e-12


# the named maps as functions applied to each matrix unit: the reference for
# the unit images that `maps` writes down directly
REFERENCE_MAPS = {
    identity_map: lambda n: MatrixMap.from_function(lambda a: a, n, n),
    transposition_map: lambda n: MatrixMap.from_function(lambda a: a.T, n, n),
    trace_times_identity: lambda n: MatrixMap.from_function(lambda a: np.trace(a) * np.eye(n), n, n),
}

# signed zeros, the smallest normals' neighbours, and a spread of both signs
LAMBDAS = [-0.0, 0.0, -1e-300, 1e-300, -7.25, 1 + 2**-52, *np.linspace(-5.0, 5.0, 96)]


class TestNamedMaps:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("named", list(REFERENCE_MAPS), ids=lambda f: f.__name__)
    def test_unit_images_are_the_reference_bits(self, named, n):
        assert named(n).unit_images.tobytes() == REFERENCE_MAPS[named](n).unit_images.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reduction_family_has_the_reference_bits(self, n):
        for lam in LAMBDAS:
            want = MatrixMap.from_function(lambda a: lam * np.trace(a) * np.eye(n) - a, n, n)
            assert reduction_family(lam, n).unit_images.tobytes() == want.unit_images.tobytes(), lam

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_writing_into_a_reduction_map_changes_no_later_one(self, n):
        want = reduction_family(2.5, n).unit_images.tobytes()
        written = reduction_family(2.5, n)
        written.unit_images[...] = 7.0
        written.unit_images[0, 0] = np.nan
        assert reduction_family(2.5, n).unit_images.tobytes() == want

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_the_cached_reduction_terms_are_read_only(self, n):
        t, u = posmap.maps._reduction_terms(n)
        again = posmap.maps._reduction_terms(n)
        assert again[0] is t and again[1] is u
        for term in (t, u):
            assert not term.flags.writeable
            with pytest.raises(ValueError):
                term[0, 0, 0, 0] = 5.0
            assert not np.shares_memory(term, reduction_family(1.5, n).unit_images)


class TestFiniteness:
    @pytest.mark.parametrize("re_part, im_part", NON_FINITE_PARTS)
    def test_a_map_with_one_non_finite_part_is_refused(self, re_part, im_part):
        images = identity_map(2).unit_images.copy()
        images[0, 1, 1, 0] = complex(re_part, im_part)
        with pytest.raises(ValueError, match="^unit images contain non-finite entries$"):
            MatrixMap(images)


class TestTraceKernel:
    def test_identity_map_matches_transposed_choi(self):
        phi = identity_map(2)
        assert np.allclose(trace_kernel(phi).T, phi.choi(), atol=1e-12)

    def test_trace_map_kernel_is_identity(self):
        # g_kl = delta_kl * I so g is the identity on the product space
        assert np.allclose(trace_kernel(trace_times_identity(2)), np.eye(4), atol=1e-12)

    @pytest.mark.parametrize(
        "builder",
        [lambda: identity_map(2), lambda: transposition_map(2), lambda: trace_times_identity(3)],
    )
    def test_gap_on_named_maps(self, builder):
        assert kernel_transpose_gap(builder()) <= 1e-12

    def test_gap_on_random_corpus(self):
        rng = rng_stream(56)
        for m, n in [(2, 2), (3, 2), (2, 3), (4, 3)]:
            for trial in range(10):
                phi = random_hermiticity_preserving(rng, m, n)
                assert kernel_transpose_gap(phi) <= 1e-10

    def test_kernel_reconstructs_the_map_through_trace_pairings(self):
        # the defining property: phi(a)[k, l] = Tr(a g_lk)
        rng = rng_stream(62)
        for m, n in [(2, 3), (3, 2)]:
            phi = random_hermiticity_preserving(rng, m, n)
            g = trace_kernel(phi)
            g4 = g.reshape(m, n, m, n)
            a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            rebuilt = np.zeros((n, n), dtype=complex)
            for k in range(n):
                for lidx in range(n):
                    g_lk = g4[:, lidx, :, k]
                    rebuilt[k, lidx] = np.trace(a @ g_lk)
            assert frobenius(rebuilt - phi(a)) <= 1e-10


class TestCpVerdict:
    def test_identity_cp(self):
        v = cp_verdict(identity_map(2))
        assert v.kind == PASS
        assert v.value == pytest.approx(0.0, abs=1e-12)

    def test_transposition_not_cp(self):
        v = cp_verdict(transposition_map(2))
        assert v.kind == VIOLATION
        assert v.value == pytest.approx(-1.0, abs=1e-12)
        # witness is the antisymmetric unit vector, up to phase
        z = v.witness["vector"]
        anti = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        assert abs(abs(np.vdot(anti, z)) - 1.0) <= 1e-10

    def test_trace_map_cp(self):
        v = cp_verdict(trace_times_identity(2))
        assert v.kind == PASS
        assert v.value == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_hermiticity_preserving(self):
        units = np.zeros((2, 2, 2, 2), dtype=complex)
        units[0, 1, 0, 0] = 1.0  # phi(E_01) not the adjoint of phi(E_10)
        with pytest.raises(NotHermitianError):
            cp_verdict(MatrixMap(units))


class TestBlockPositivity:
    # block positivity of h is 1-positivity of the map whose Choi matrix is h
    def test_psd_is_block_positive(self):
        rng = rng_stream(57)
        for trial in range(5):
            phi = MatrixMap.from_choi(random_psd(rng, 6), 2, 3)
            v = is_k_positive(phi, 1, restarts=8, seed=trial)
            assert v.kind == EVIDENCE
            assert v.value >= -1e-9

    def test_swap_attains_zero(self):
        v = is_k_positive(MatrixMap.from_choi(swap_operator(2), 2, 2), 1, restarts=16, seed=1)
        assert v.kind == EVIDENCE
        assert abs(v.value) <= 1e-9

    def test_negative_identity_violation(self):
        phi = MatrixMap.from_choi(-np.eye(4, dtype=complex), 2, 2)
        v = is_k_positive(phi, 1, restarts=4, seed=2)
        assert v.kind == VIOLATION
        assert v.value == pytest.approx(-1.0, abs=1e-10)
        # witness re-evaluates to its stated value
        assert recheck_witness("block_positivity", phi, v.witness) == pytest.approx(v.value, abs=1e-10)

    def test_violation_witness_is_a_product_vector(self):
        # a -> lam Tr(a) I - a is positive only from lam = 1 on
        phi = reduction_family(0.5, 3)
        v = is_k_positive(phi, 1, restarts=8, seed=3)
        assert v.kind == VIOLATION
        assert np.linalg.matrix_rank(v.witness["projection"], tol=1e-10) == 1
        # at k = 1 the vector is x (x) y: its m x n reshape has rank one
        assert np.linalg.matrix_rank(v.witness["vector"].reshape(3, 3), tol=1e-10) == 1
        assert recheck_witness("block_positivity", phi, v.witness) == pytest.approx(v.value, abs=1e-10)

    def test_psd_never_violates(self):
        rng = rng_stream(58)
        for trial in range(20):
            phi = MatrixMap.from_choi(random_psd(rng, 4), 2, 2)
            assert is_k_positive(phi, 1, restarts=4, seed=trial).kind == EVIDENCE


class TestQuadraticForms:
    def test_identity_on_unit_data(self):
        x = np.array([1.0, 0.0], dtype=complex)
        y = np.array([0.0, 1.0], dtype=complex)
        f1, f2, f3 = block_positivity_forms(np.eye(4), 2, 2, x, y)
        assert f1 == pytest.approx(1.0)
        assert f2 == pytest.approx(1.0)
        assert f3 == pytest.approx(1.0)

    def test_equality_on_random_tuples(self):
        rng = rng_stream(59)
        for trial in range(500):
            m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            g = rng.standard_normal((m * n, m * n)) + 1j * rng.standard_normal((m * n, m * n))
            h = hermitian_part(g)
            x = random_unit_vector(rng, m)
            y = random_unit_vector(rng, n)
            f1, f2, f3 = block_positivity_forms(h, m, n, x, y)
            assert abs(f1 - f2) <= 1e-10 * max(1.0, abs(f1))
            assert abs(f1 - f3) <= 1e-10 * max(1.0, abs(f1))


class TestHermiticityPreservation:
    def test_flag_matches_choi_hermiticity(self):
        rng = rng_stream(60)
        phi = random_hermiticity_preserving(rng, 3, 2)
        assert phi.is_hermiticity_preserving()
        h = phi.choi()
        assert frobenius(h - h.conj().T) <= 1e-10
        # breaking one unit image breaks the flag
        units = phi.unit_images.copy()
        units[0, 1] += 0.1
        assert not MatrixMap(units).is_hermiticity_preserving()

    def test_transposition_precompose_swaps_blocks(self):
        rng = rng_stream(61)
        phi = random_hermiticity_preserving(rng, 3, 2)
        swapped = phi.compose_transposition()
        for i in range(3):
            for j in range(3):
                assert frobenius(swapped.unit_images[i, j] - phi.unit_images[j, i]) <= 1e-12
