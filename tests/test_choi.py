"""Map/operator correspondence and the base positivity tests."""

import numpy as np
import pytest

from posmap.choi import (
    MatrixMap,
    block_positivity,
    block_positivity_forms,
    cp_verdict,
    kernel_transpose_gap,
    product_form,
    trace_kernel,
)
from posmap.errors import NotHermitianError
from posmap.linalg import (
    frobenius,
    herm_eig,
    hermitian_part,
    psd_tol,
    random_psd,
    random_unit_vector,
    rng_stream,
)
from posmap.maps import (
    identity_map,
    max_entangled_projector,
    random_hermiticity_preserving,
    random_map_near_cp,
    reduction_family,
    swap_operator,
    trace_times_identity,
    transposition_map,
)
from posmap.verdicts import EVIDENCE, PASS, VIOLATION, Verdict
from test_kpositivity import assert_same_verdict, count_validations


def loop_block_positivity(h, m, n, *, restarts=32, max_alternations=200, improve_tol=1e-12, seed=0):
    """Reference for `block_positivity`: its restarts run one after another,
    one matrix at a time, through the validating `herm_eig`."""
    h = hermitian_part(h)
    h4 = h.reshape(m, n, m, n)
    best_val, best, total = np.inf, None, 0
    for r in range(restarts):
        rng = rng_stream(seed, r)
        y = random_unit_vector(rng, n)
        x = random_unit_vector(rng, m)
        prev = np.inf
        for _ in range(max_alternations):
            total += 1
            row = np.einsum("a,iajb,b->ij", y.conj(), h4, y)
            x = herm_eig(hermitian_part(row)).eigenvectors[:, 0]
            eig_y = herm_eig(hermitian_part(np.einsum("i,iajb,j->ab", x.conj(), h4, x)))
            y = eig_y.eigenvectors[:, 0]
            val = float(eig_y.eigenvalues[0])
            if prev - val < improve_tol:
                prev = val
                break
            prev = val
        if prev < best_val:
            best_val, best = prev, (x.copy(), y.copy())
    x, y = best
    value = product_form(h, m, n, x, y)
    stats = {"restarts": restarts, "alternations": total, "seed": seed, "min_value": value}
    if value < -psd_tol(h):
        return Verdict(VIOLATION, value, witness={"x": x, "y": y}, stats=stats)
    return Verdict(EVIDENCE, value, stats=stats)


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
    def test_psd_is_block_positive(self):
        rng = rng_stream(57)
        for trial in range(5):
            h = random_psd(rng, 6)
            v = block_positivity(h, 2, 3, restarts=8, seed=trial)
            assert v.kind == EVIDENCE
            assert v.value >= -1e-9

    def test_swap_attains_zero(self):
        v = block_positivity(swap_operator(2), 2, 2, restarts=16, seed=1)
        assert v.kind == EVIDENCE
        assert abs(v.value) <= 1e-9

    def test_negative_identity_violation(self):
        v = block_positivity(-np.eye(4, dtype=complex), 2, 2, restarts=4, seed=2)
        assert v.kind == VIOLATION
        assert v.value == pytest.approx(-1.0, abs=1e-10)
        # witness re-evaluates to its stated value
        assert product_form(-np.eye(4), 2, 2, v.witness["x"], v.witness["y"]) == pytest.approx(v.value, abs=1e-10)

    def test_psd_never_violates(self):
        rng = rng_stream(58)
        for trial in range(20):
            h = random_psd(rng, 4)
            assert block_positivity(h, 2, 2, restarts=4, seed=trial).kind == EVIDENCE


class TestStackedRestarts:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_the_restart_loop_on_the_reduction_family(self, n, seed):
        # a -> lam Tr(a) I - a is positive (block positive Choi matrix) from lam = 1 on
        for lam in (0.75, 1.0, 1.25):
            h = reduction_family(lam, n).choi()
            got = block_positivity(h, n, n, seed=seed)
            assert_same_verdict(got, loop_block_positivity(h, n, n, seed=seed))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_the_restart_loop_on_a_random_map(self, seed):
        h = random_map_near_cp(rng_stream(41, seed), 2, 3).choi()
        for restarts in (1, 32):
            got = block_positivity(h, 2, 3, restarts=restarts, seed=seed)
            assert_same_verdict(got, loop_block_positivity(h, 2, 3, restarts=restarts, seed=seed))

    def test_matches_the_restart_loop_when_alternations_run_out(self):
        h = random_map_near_cp(rng_stream(42), 3, 3, mix=0.6).choi()
        search = {"restarts": 9, "seed": 5, "max_alternations": 2}
        assert_same_verdict(block_positivity(h, 3, 3, **search), loop_block_positivity(h, 3, 3, **search))

    def test_validation_does_not_grow_with_restarts(self, monkeypatch):
        counter = count_validations(monkeypatch)
        counts = []
        for restarts in (2, 32):
            counter["calls"] = 0
            block_positivity(reduction_family(0.75, 3).choi(), 3, 3, restarts=restarts, seed=3)
            counts.append(counter["calls"])
        assert counts[0] == counts[1]


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
