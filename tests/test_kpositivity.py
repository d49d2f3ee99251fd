"""k-positivity searches, block-matrix conditions, decomposability witnesses."""

import numpy as np
import pytest

import posmap.choi
import posmap.kpositivity
import posmap.linalg
from posmap.choi import MatrixMap, block_positivity, cp_verdict
from posmap.errors import (
    ComponentNotKCopositiveError,
    ComponentNotKPositiveError,
    KOutOfRangeError,
)
from posmap.kpositivity import (
    bisect_threshold,
    decomposability_witness,
    dk_compose,
    is_k_copositive,
    is_k_positive,
    k_block_min,
    pk_check,
    sample_doubly_psd_block,
    sk_check,
)
from posmap.linalg import (
    haar_isometry,
    herm_eig,
    hermitian_part,
    partial_transpose,
    psd_min_eig,
    psd_tol,
    random_complex,
    random_psd,
    rng_stream,
)
from posmap.maps import (
    choi_qutrit_map,
    identity_map,
    ppt_state_family,
    random_cp_map,
    random_decomposable_map,
    random_hermiticity_preserving,
    random_map_near_cp,
    reduction_family,
    swap_operator,
    transposition_map,
)
from posmap.report import recheck_witness
from posmap.verdicts import EVIDENCE, VIOLATION, Verdict


def loop_k_block_min(phi, k, *, restarts=32, max_alternations=200, improve_tol=1e-12, seed=0):
    """Reference for `k_block_min` (k < n): its restarts run one after another,
    one matrix at a time, through the validating `herm_eig`."""
    m, n = phi.m, phi.n
    h = hermitian_part(phi.choi())
    h4 = h.reshape(m, n, m, n)
    best_val, best, total = np.inf, None, 0
    for r in range(restarts):
        rng = rng_stream(seed, r)
        iso = np.eye(n, k, dtype=complex) if r == 0 else haar_isometry(rng, n, k)
        prev, jitter = np.inf, 0.05
        for _ in range(max_alternations):
            total += 1
            comp = np.einsum("ak,iajb,bl->ikjl", iso.conj(), h4, iso).reshape(m * k, m * k)
            eig = herm_eig(hermitian_part(comp))
            val, z = float(eig.eigenvalues[0]), eig.eigenvectors[:, 0]
            if val < best_val:
                best_val, best = val, (iso.copy(), z.copy())
            if prev - val < improve_tol:
                break
            prev = val
            zk = z.reshape(m, k)
            coeff = np.einsum("ik,iajb,jl->akbl", zk.conj(), h4, zk).reshape(n * k, n * k)
            raw = herm_eig(hermitian_part(coeff)).eigenvectors[:, 0].reshape(n, k)
            if jitter > 0:
                raw = raw + jitter * random_complex(rng, (n, k))
            u, s, vh = np.linalg.svd(raw, full_matrices=False)
            if s[-1] < 1e-12 * max(s[0], 1.0):
                raw = raw + 1e-6 * random_complex(rng, (n, k))
                u, _, vh = np.linalg.svd(raw, full_matrices=False)
            iso = u @ vh
            jitter *= 0.5
    iso, z = best
    vector = np.einsum("ak,ik->ia", iso, z.reshape(m, k)).reshape(-1)
    value = float(np.vdot(vector, h @ vector).real)
    stats = {"restarts": restarts, "alternations": total, "seed": seed,
             "min_value": value, "exact": False}
    if value < -psd_tol(h):
        witness = {"projection": iso @ iso.conj().T, "vector": vector}
        return Verdict(VIOLATION, value, witness=witness, stats=stats)
    return Verdict(EVIDENCE, value, stats=stats)


def assert_same_verdict(got, want):
    """Equal kind, value and stats, and bitwise equal witness arrays."""
    assert (got.kind, got.value, got.stats) == (want.kind, want.value, want.stats)
    assert (got.witness is None) == (want.witness is None)
    for key, arr in (want.witness or {}).items():
        assert np.array_equal(got.witness[key], arr), key


def count_validations(monkeypatch, modules=(posmap.linalg, posmap.choi, posmap.kpositivity)):
    """Count calls to `as_matrix` and `check_hermitian` through every module
    that calls them; returns the live counter."""
    counter = {"calls": 0}
    for name in ("as_matrix", "check_hermitian"):
        original = getattr(posmap.linalg, name)

        def counted(*args, _original=original, **kwargs):
            counter["calls"] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counter


class TestKBlockMin:
    def test_identity_map_every_k(self):
        phi = identity_map(3)
        for k in (1, 2, 3):
            v = k_block_min(phi, k, restarts=8, seed=k)
            assert v.kind == EVIDENCE
            assert v.value >= -1e-9

    def test_transposition_k1_evidence(self):
        v = k_block_min(transposition_map(2), 1, restarts=16, seed=1)
        assert v.kind == EVIDENCE
        assert v.value >= -1e-9

    def test_transposition_k2_violation(self):
        v = k_block_min(transposition_map(2), 2, seed=1)
        assert v.kind == VIOLATION
        assert v.value == pytest.approx(-1.0, abs=1e-10)
        assert np.trace(v.witness["projection"]).real <= 2 + 1e-9
        recomputed = recheck_witness("k_positive_2", transposition_map(2), v.witness)
        assert abs(recomputed - v.value) <= 1e-10

    def test_rank_two_projection_found_in_larger_space(self):
        v = k_block_min(transposition_map(3), 2, restarts=16, seed=4)
        assert v.kind == VIOLATION
        assert v.value == pytest.approx(-1.0, abs=1e-8)

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRangeError):
            k_block_min(identity_map(2), 0)
        with pytest.raises(KOutOfRangeError):
            k_block_min(identity_map(2), 3)


class TestStackedRestarts:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
    def test_matches_the_restart_loop_on_the_reduction_family(self, n, k, seed):
        # the family a -> lam Tr(a) I - a is k-positive exactly from lam = k on
        for lam in (k - 0.25, k, k + 0.25):
            phi = reduction_family(lam, n)
            assert_same_verdict(k_block_min(phi, k, seed=seed), loop_k_block_min(phi, k, seed=seed))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_the_restart_loop_on_a_random_map(self, seed):
        phi = random_map_near_cp(rng_stream(41, seed), 2, 3)
        for k in (1, 2):
            for restarts in (1, 32):
                got = k_block_min(phi, k, restarts=restarts, seed=seed)
                assert_same_verdict(got, loop_k_block_min(phi, k, restarts=restarts, seed=seed))

    def test_matches_the_restart_loop_through_the_svd_rescue(self):
        # a product-vector Choi matrix makes the rank-2 refit rank-deficient, and
        # a negative improve_tol keeps every restart running until the jitter is
        # too small to lift it, so the rescue draw is taken
        h = np.zeros((9, 9), dtype=complex)
        h[0, 0], h[4, 4] = -1.0, 0.5
        phi = MatrixMap.from_choi(h, 3, 3)
        search = {"restarts": 4, "seed": 1, "improve_tol": -1.0, "max_alternations": 60}
        assert_same_verdict(k_block_min(phi, 2, **search), loop_k_block_min(phi, 2, **search))

    @pytest.mark.parametrize("k", [1, 2])
    def test_validation_does_not_grow_with_restarts(self, monkeypatch, k):
        counter = count_validations(monkeypatch)
        counts = []
        for restarts in (2, 32):
            counter["calls"] = 0
            k_block_min(reduction_family(1.5, 3), k, restarts=restarts, seed=3)
            counts.append(counter["calls"])
        assert counts[0] == counts[1]


class TestIsKPositive:
    def test_reduction_family_at_threshold(self):
        v = is_k_positive(reduction_family(1.0), 1, restarts=16, seed=2)
        assert v.kind == EVIDENCE
        assert v.value >= -1e-9

    def test_reduction_family_below_k2(self):
        v = is_k_positive(reduction_family(1.5), 2, restarts=16, seed=2)
        assert v.kind == VIOLATION
        assert v.value == pytest.approx(-0.5, abs=1e-8)

    def test_reduction_family_above_k2(self):
        v = is_k_positive(reduction_family(2.05), 2, restarts=16, seed=2)
        assert v.kind == EVIDENCE

    def test_agrees_with_cp_at_full_k(self):
        rng = rng_stream(500)
        for t in range(200):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(2, 4))
            phi = random_hermiticity_preserving(rng, m, n)
            kv = is_k_positive(phi, n, seed=t)
            cv = cp_verdict(phi)
            assert kv.is_violation == cv.is_violation
            assert kv.value == pytest.approx(cv.value, abs=1e-10)

    def test_agrees_with_block_positivity_at_k1(self):
        agree = 0
        for t in range(100):
            rng = rng_stream(501, t)
            phi = random_map_near_cp(rng, 2, 2, mix=0.6)
            h = hermitian_part(phi.choi())
            kv = is_k_positive(phi, 1, restarts=16, seed=t)
            bv = block_positivity(h, 2, 2, restarts=16, seed=t)
            agree += kv.is_violation == bv.is_violation
        assert agree == 100

    def test_violation_witness_padded_to_larger_k(self):
        v = is_k_positive(transposition_map(3), 2, restarts=16, seed=4)
        assert v.kind == VIOLATION
        recomputed = recheck_witness("k_positive_3", transposition_map(3), v.witness)
        assert abs(recomputed - v.value) <= 1e-10


class TestIsKCopositive:
    def test_transposition_completely_copositive(self):
        v = is_k_copositive(transposition_map(2), 2, seed=1)
        assert v.kind == EVIDENCE
        assert v.value >= -1e-12

    def test_identity_not_2_copositive(self):
        v = is_k_copositive(identity_map(2), 2, seed=1)
        assert v.kind == VIOLATION
        assert v.value == pytest.approx(-1.0, abs=1e-10)

    def test_cp_maps_are_1_copositive(self):
        # 1-copositive == 1-positive == positive; CP maps qualify
        rng = rng_stream(502)
        for t in range(5):
            phi = random_cp_map(rng, 2, 2)
            v = is_k_copositive(phi, 1, restarts=8, seed=t)
            assert v.kind == EVIDENCE


class TestBlockMatrixCondition:
    def test_sampler_produces_doubly_psd_blocks(self):
        for s in range(40):
            rng = rng_stream(503, s)
            a = sample_doubly_psd_block(rng, 2, 3)
            assert psd_min_eig(hermitian_part(a)) >= -1e-9
            pt = partial_transpose(a, 2, 3, side="first")
            assert psd_min_eig(hermitian_part(pt)) >= -1e-9

    def test_decomposable_map_passes(self):
        rng = rng_stream(504)
        total, phi1, phi2 = random_decomposable_map(rng, 2, 2)
        v = sk_check(total, 2, samples=100, seed=5)
        assert v.kind == EVIDENCE
        assert v.value >= -1e-9

    def test_negative_identity_violates_immediately(self):
        v = sk_check(-1.0 * identity_map(2), 2, samples=10, seed=0)
        assert v.kind == VIOLATION
        assert v.stats["samples"] == 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_transposition_passes_every_k(self, k):
        v = sk_check(transposition_map(3), k, samples=60, seed=k)
        assert v.kind == EVIDENCE


class TestDkCompose:
    def test_identity_plus_transposition(self):
        target = MatrixMap.from_function(lambda a: a + a.T, 2, 2)
        cert = dk_compose(target, identity_map(2), transposition_map(2), 2, restarts=8, seed=1)
        assert cert.residual <= 1e-10
        # the residual measures the target, not the sum against itself
        wrong = dk_compose(identity_map(2), identity_map(2), transposition_map(2), 2, restarts=8, seed=1)
        assert wrong.residual == pytest.approx(2.0, abs=1e-12)
        assert cert.part1_verdict.kind == EVIDENCE
        assert cert.part2_verdict.kind == EVIDENCE

    def test_cp_plus_zero(self):
        rng = rng_stream(505)
        phi1 = random_cp_map(rng, 2, 2)
        zero = 0.0 * identity_map(2)
        cert = dk_compose(phi1, phi1, zero, 2, restarts=8, seed=2)
        assert cert.residual <= 1e-10

    def test_transposition_rejected_as_positive_part(self):
        zero = 0.0 * identity_map(2)
        with pytest.raises(ComponentNotKPositiveError):
            dk_compose(transposition_map(2), transposition_map(2), zero, 2, restarts=8, seed=3)

    def test_identity_rejected_as_copositive_part(self):
        zero = 0.0 * identity_map(2)
        with pytest.raises(ComponentNotKCopositiveError):
            dk_compose(identity_map(2), zero, identity_map(2), 2, restarts=8, seed=4)


class TestDecomposabilityWitness:
    def test_psd_choi_gives_evidence(self):
        rng = rng_stream(506)
        h = random_psd(rng, 4)
        v = decomposability_witness(h, 2, 2, seed=1)
        assert v.kind == EVIDENCE
        assert v.value >= -1e-9

    def test_swap_gives_evidence(self):
        v = decomposability_witness(swap_operator(2), 2, 2, seed=1)
        assert v.kind == EVIDENCE
        assert v.value >= -1e-9

    def test_choi_qutrit_map_refuted(self):
        h = hermitian_part(choi_qutrit_map().choi())
        v = decomposability_witness(h, 3, 3, seed=1)
        assert v.kind == VIOLATION
        assert v.value <= -1e-4
        w = v.witness["state"]
        assert psd_min_eig(hermitian_part(w)) >= -1e-12
        pt = partial_transpose(w, 3, 3, "first")
        assert psd_min_eig(hermitian_part(pt)) >= -1e-12
        assert np.trace(w @ h).real == pytest.approx(v.value, abs=1e-12)

    def test_oracle_family_pins_the_fixture(self):
        # independent grid-search oracle over the two-parameter PPT family
        h = hermitian_part(choi_qutrit_map().choi())
        best = np.inf
        for b in np.linspace(0.2, 0.9, 15):
            for c in np.linspace(1.0 / b, 4.0, 15):
                w = ppt_state_family(b, c)
                pt = partial_transpose(w, 3, 3, "first")
                if np.linalg.eigvalsh(hermitian_part(pt))[0] >= -1e-12:
                    best = min(best, np.trace(w @ h).real)
        assert best <= -1e-4


class TestPkCheck:
    def test_rank_one_corners_reduce_to_positivity(self):
        # scalar corners of a positive map are nonnegative numbers
        v = pk_check(transposition_map(2), 1, projections=20, seed=1)
        assert v.kind == EVIDENCE
        rng = rng_stream(507)
        v2 = pk_check(random_cp_map(rng, 2, 2), 1, projections=20, seed=2)
        assert v2.kind == EVIDENCE

    def test_decomposable_map_passes(self):
        rng = rng_stream(508)
        total, _, _ = random_decomposable_map(rng, 3, 3)
        v = pk_check(total, 2, projections=20, seed=3)
        assert v.kind == EVIDENCE

    def test_negative_identity_violates(self):
        v = pk_check(-1.0 * identity_map(2), 1, projections=10, seed=4)
        assert v.kind == VIOLATION


class TestConditionChain:
    def test_composed_certificates_pass_block_and_corner_checks(self):
        # k-decomposable constructions satisfy the block-matrix and corner
        # conditions with zero violations
        for t in range(10):
            rng = rng_stream(509, t)
            m = int(rng.integers(2, 4))
            k = int(rng.integers(1, m + 1))
            total, phi1, phi2 = random_decomposable_map(rng, m, m)
            cert = dk_compose(total, phi1, phi2, k, restarts=8, seed=t)
            assert cert.residual <= 1e-10
            assert sk_check(total, k, samples=60, seed=t).kind == EVIDENCE
            assert pk_check(total, k, projections=15, seed=t).kind == EVIDENCE

    def test_every_positive_2x2_map_admits_no_witness(self):
        # maps on a qubit algebra that pass block positivity never produce a
        # decomposability witness at this dimension
        passed = 0
        t = 0
        while passed < 100 and t < 500:
            rng = rng_stream(510, t)
            phi = random_map_near_cp(rng, 2, 2, mix=0.3)
            h = hermitian_part(phi.choi())
            t += 1
            if block_positivity(h, 2, 2, restarts=16, seed=t).kind == EVIDENCE:
                passed += 1
                assert decomposability_witness(h, 2, 2, seed=t, stall_break=20).kind == EVIDENCE
        assert passed == 100


class TestThresholdBisection:
    def test_reduction_family_thresholds(self):
        th1 = bisect_threshold(lambda lam: reduction_family(lam, 3), 1, 0.2, 2.0, steps=14, restarts=8, seed=9)
        assert th1 == pytest.approx(1.0, abs=1e-3)
        th2 = bisect_threshold(lambda lam: reduction_family(lam, 3), 2, 0.2, 3.0, steps=14, restarts=8, seed=9)
        assert th2 == pytest.approx(2.0, abs=1e-3)

    def test_bracket_must_straddle(self):
        with pytest.raises(ValueError):
            bisect_threshold(lambda lam: reduction_family(lam, 3), 1, 1.5, 2.0, steps=4, restarts=4, seed=1)
