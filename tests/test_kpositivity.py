"""k-positivity searches, block-matrix conditions, decomposability witnesses."""

import numpy as np
import pytest

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
    hermitian_part,
    partial_transpose,
    psd_min_eig,
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
from posmap.verdicts import EVIDENCE, VIOLATION


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
