"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values marked as derived were pinned by independent oracles
before the build: dense projection sampling fixes the reduction-family
thresholds at exactly k, and the circulant two-parameter PPT family (positive
under partial transposition iff b*c >= 1, pairing (b-1)/(1+b+c)) fixes the
non-decomposability fixture value.
"""

import json
import time
import warnings

import numpy as np
import pytest

from posmap.choi import MatrixMap, cp_verdict, kernel_transpose_gap
from posmap.cli import main
from posmap.cones import (
    bipartite_context,
    cone_member,
    odd_part_flags,
    odd_part_polar,
    sample_cone_element,
    sample_intersection_element,
    sample_ppt_operator,
    split_bounds_check,
    weak_kdec_cone_check,
)
from posmap.docio import dump_document, map_to_document
from posmap.kpositivity import (
    bisect_threshold,
    decomposability_witness,
    dk_compose,
    is_k_copositive,
    is_k_positive,
    k_block_min,
    pk_check,
    sk_check,
)
from posmap.linalg import (
    frobenius,
    haar_isometry,
    hermitian_part,
    hs_inner,
    partial_transpose,
    psd_min_eig,
    random_complex,
    random_faithful_state,
    random_psd,
    rng_stream,
)
from posmap.maps import (
    choi_qutrit_map,
    identity_map,
    ppt_state_family,
    random_decomposable_map,
    random_hermiticity_preserving,
    random_map_near_cp,
    reduction_family,
    transposition_map,
)
from posmap.modular import (
    check_polar_factorization,
    check_unitary_relations,
    commutant_defect,
    cone_state,
    cone_vector,
    frame_transposition_map,
    gns_context,
    swap_conjugate,
    t_phi,
    transpose_via_conjugations,
    v_beta_duality_check,
    v_beta_member,
)
from posmap.report import report_body
from posmap.verdicts import EVIDENCE, VIOLATION

TRACIAL_2 = np.eye(2, dtype=complex) / 2
SKEW_A = np.diag([1 / 3, 2 / 3]).astype(complex)
SKEW_B = np.diag([1 / 4, 3 / 4]).astype(complex)


def report_line(number, name, elapsed, budget):
    print(f"ACCEPTANCE {number} [{name}]: PASS ({elapsed:.1f}s < {budget:.0f}s)")


def test_criterion_1_choi_round_trip_and_kernel_gap():
    budget = 5.0
    start = time.monotonic()
    rng = rng_stream(1001)
    count = 0
    pairs = [(m, n) for m in range(1, 5) for n in range(1, 5)]
    while count < 200:
        m, n = pairs[count % len(pairs)]
        phi = random_hermiticity_preserving(rng, m, n)
        back = MatrixMap.from_choi(phi.choi(), m, n)
        assert phi.norm_distance(back) <= 1e-12
        assert kernel_transpose_gap(phi) <= 1e-10
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed < budget
    report_line(1, "choi round trip + kernel transposition", elapsed, budget)


def test_criterion_2_transposition_hierarchy():
    budget = 10.0
    start = time.monotonic()
    phi = transposition_map(2)
    cp = cp_verdict(phi)
    assert cp.is_violation
    assert cp.value == pytest.approx(-1.0, abs=1e-10)
    k1 = is_k_positive(phi, 1, restarts=64, seed=2001)
    assert k1.kind == EVIDENCE
    assert k1.value >= -1e-9
    assert k1.stats["restarts"] >= 64
    k2 = is_k_positive(phi, 2, restarts=64, seed=2001)
    assert k2.kind == VIOLATION
    assert k2.value <= -1 + 1e-6
    k2c = is_k_copositive(phi, 2, restarts=64, seed=2001)
    assert k2c.kind == EVIDENCE
    elapsed = time.monotonic() - start
    assert elapsed < budget
    report_line(2, "transposition hierarchy", elapsed, budget)


def test_criterion_3_threshold_experiment():
    budget = 120.0
    start = time.monotonic()

    # scaled-down projection-sampling oracle confirming the frozen thresholds:
    # the compressed bottom eigenvalue equals lam - k for every projection
    rng = rng_stream(3001)
    for k in (1, 2):
        for lam_probe, expected in ((k - 0.01, -0.01), (k + 0.01, 0.01)):
            h4 = hermitian_part(reduction_family(lam_probe).choi()).reshape(3, 3, 3, 3)
            sampled = min(
                float(
                    np.linalg.eigvalsh(
                        np.einsum(
                            "ak,iajb,bl->ikjl", v.conj(), h4, v
                        ).reshape(3 * k, 3 * k)
                    )[0]
                )
                for v in (haar_isometry(rng, 3, k) for _ in range(200))
            )
            assert sampled == pytest.approx(expected, abs=1e-9)

    th1 = bisect_threshold(
        lambda lam: reduction_family(lam, 3), 1, 0.2, 2.0, steps=40, restarts=64, seed=3002
    )
    assert th1 == pytest.approx(1.0, abs=1e-3)
    th2 = bisect_threshold(
        lambda lam: reduction_family(lam, 3), 2, 0.2, 3.0, steps=40, restarts=64, seed=3003
    )
    assert th2 == pytest.approx(2.0, abs=1e-3)
    elapsed = time.monotonic() - start
    assert elapsed < budget
    report_line(3, f"thresholds {th1:.6f}, {th2:.6f}", elapsed, budget)


def test_criterion_4_modular_identity_suite():
    budget = 30.0
    start = time.monotonic()
    max_defect = 0.0
    rng = rng_stream(4001)
    for trial in range(50):
        dim = 2 + trial % 5
        ctx = gns_context(random_faithful_state(rng, dim))

        # conjugation/swap identities and the polar factorization
        max_defect = max(max_defect, check_unitary_relations(ctx)["max"])
        max_defect = max(max_defect, check_polar_factorization(ctx))

        # transposition through the conjugations, pointwise
        for _ in range(10):
            a = random_complex(rng, (dim, dim))
            xi = random_complex(rng, (dim, dim))
            max_defect = max(max_defect, transpose_via_conjugations(a, xi)[2])

        # swap conjugation lands in the commutant
        e01 = np.zeros((dim, dim), dtype=complex)
        e01[0, 1] = 1.0
        max_defect = max(
            max_defect, commutant_defect(ctx, swap_conjugate(ctx, ctx.left_mult(e01).matrix))
        )

        # cone duality and the swap between dual cones, 100 samples per state
        dual = v_beta_duality_check(ctx, 0.25, samples=50, seed=4002 + trial)
        max_defect = max(max_defect, max(0.0, -dual["min_real_pairing"]))
        max_defect = max(max_defect, dual["max_imag_pairing"])
        assert dual["flip_failures"] == 0
        dual_skew = v_beta_duality_check(ctx, 0.1, samples=50, seed=4003 + trial)
        max_defect = max(max_defect, max(0.0, -dual_skew["min_real_pairing"]))
        assert dual_skew["flip_failures"] == 0

        # the polar carrier and induced operators keep the base cone invariant;
        # the eigenbasis transposition induces exactly the carrier
        induced_t = t_phi(ctx, frame_transposition_map(ctx))
        assert induced_t.invariance_defect <= 1e-10
        max_defect = max(max_defect, induced_t.operator.defect(ctx.tau))
        ops = [t_phi(ctx, identity_map(dim)).operator, induced_t.operator]
        for _ in range(5):
            xi0 = random_psd(rng, dim) @ ctx.Omega
            tau_xi = ctx.tau.apply(xi0)
            assert v_beta_member(ctx, 0.0, tau_xi).member
            for op in ops:
                assert v_beta_member(ctx, 0.0, op.apply(tau_xi)).member

        # vector states of swapped cone vectors are the transposed states
        xi_cone = cone_vector(ctx, 0.25, random_psd(rng, dim))
        max_defect = max(
            max_defect,
            frobenius(cone_state(ctx, ctx.U.apply(xi_cone)) - cone_state(ctx, xi_cone).T),
        )

    assert max_defect <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < budget
    report_line(4, f"modular identities, max defect {max_defect:.2e}", elapsed, budget)


def test_criterion_5_cone_suite():
    budget = 120.0
    start = time.monotonic()
    contexts = {
        "tracial": bipartite_context(TRACIAL_2, TRACIAL_2),
        "non-tracial": bipartite_context(SKEW_A, SKEW_B),
    }
    for name, ctx in contexts.items():
        identity_defect = 0.0
        # both inclusions of the doubly-PSD description, 200 samples
        for s in range(200):
            rng = rng_stream(5001, s)
            x = sample_ppt_operator(rng, 2, 2)
            xi = ctx.cone_vector(x)
            mem = cone_member(ctx, xi)
            assert mem.in_intersection
            assert mem.p_min_eig >= -1e-9
            assert mem.ptau_min_eig >= -1e-9
            # intersection members reconstruct with both orderings PSD
            swapped = partial_transpose(hermitian_part(mem.blocks.transpose(2, 0, 3, 1).reshape(4, 4)), 2, 2, "second")
            assert np.linalg.eigvalsh(hermitian_part(swapped))[0] >= -1e-9
            # partial swap carries the vector to the block-transposed vector
            lhs = ctx.utilde(xi)
            rhs = ctx.cone_vector(partial_transpose(x, 2, 2, "second"))
            identity_defect = max(identity_defect, frobenius(lhs - rhs))
        assert identity_defect <= 1e-10

        # symmetry-split inequalities: 200 intersection vectors x 500 samples
        for s in range(200):
            rng = rng_stream(5002, s)
            xi = sample_intersection_element(ctx, rng)
            margins = split_bounds_check(ctx, xi, eta_samples=500, seed=5003 + s)
            assert margins["violations"] == 0

        # three-flag agreement on 100 samples
        for s in range(100):
            rng = rng_stream(5004, s)
            assert odd_part_flags(ctx, sample_cone_element(ctx, rng)).agree()

        # odd-part polar reconstruction on 100 samples
        for s in range(100):
            rng = rng_stream(5005, s)
            xi = sample_cone_element(ctx, rng)
            polar = odd_part_polar(ctx, xi)
            assert polar.reconstruction_defect <= 1e-9
            if not polar.degenerate:
                assert cone_member(ctx, polar.xi_b).in_p
    elapsed = time.monotonic() - start
    assert elapsed < budget
    report_line(5, "bipartite cone suite (tracial + non-tracial)", elapsed, budget)


def test_criterion_6_block_condition_chain():
    budget = 180.0
    start = time.monotonic()
    for t in range(100):
        rng = rng_stream(6001, t)
        m = int(rng.integers(2, 4))
        k = int(rng.integers(1, m + 1))
        total, phi1, phi2 = random_decomposable_map(rng, m, m)
        cert = dk_compose(total, phi1, phi2, k, restarts=8, seed=6002 + t)
        assert cert.residual <= 1e-10
        sv = sk_check(total, k, samples=500, seed=6003 + t)
        assert sv.kind == EVIDENCE, f"map {t}: block condition violated at {sv.value}"
        pv = pk_check(total, k, projections=100, seed=6004 + t)
        assert pv.kind == EVIDENCE, f"map {t}: corner condition violated at {pv.value}"
    elapsed = time.monotonic() - start
    assert elapsed < budget
    report_line(6, "decomposable corpus passes block + corner checks", elapsed, budget)


def test_criterion_7_cone_vs_block_condition_consistency():
    budget = 120.0
    start = time.monotonic()
    ctx_a = gns_context(TRACIAL_2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t in range(30):
            rng = rng_stream(7001, t)
            phi = random_map_near_cp(rng, 2, 2, mix=0.8)
            wv = weak_kdec_cone_check(ctx_a, phi, 2, samples=60, seed=7002 + t)
            if wv.kind == VIOLATION:
                # the cone-route refutation witnesses a genuine violation of
                # the doubly-PSD image condition at the same block size
                n = int(wv.witness["n"])
                pairing = hs_inner(wv.witness["eta"], wv.witness["zeta"]).real
                assert pairing == pytest.approx(wv.value, abs=1e-10)
                sv = sk_check(phi, n, samples=400, seed=7003 + t)
                assert sv.kind == VIOLATION, f"map {t}: cone refuted, block check did not"

        for t in range(30):
            rng = rng_stream(7004, t)
            total, _, _ = random_decomposable_map(rng, 2, 2)
            wv = weak_kdec_cone_check(ctx_a, total, 2, samples=40, seed=7005 + t)
            assert wv.kind == EVIDENCE, f"decomposable map {t} wrongly refuted"
    elapsed = time.monotonic() - start
    assert elapsed < budget
    report_line(7, "cone route consistent with block condition", elapsed, budget)


def test_criterion_8_nondecomposable_detection():
    budget = 60.0
    start = time.monotonic()
    h = hermitian_part(choi_qutrit_map().choi())

    # independent oracle: grid search over the two-parameter PPT family
    oracle_best = np.inf
    for b in np.linspace(0.2, 0.9, 15):
        for c in np.linspace(1.0 / b, 4.0, 12):
            w = ppt_state_family(b, c)
            pt = partial_transpose(w, 3, 3, "first")
            if np.linalg.eigvalsh(hermitian_part(pt))[0] >= -1e-12:
                oracle_best = min(oracle_best, float(np.trace(w @ h).real))
    assert oracle_best <= -1e-4

    verdict = decomposability_witness(h, 3, 3)
    assert verdict.kind == VIOLATION
    assert verdict.value <= -1e-4
    w = verdict.witness["state"]
    assert psd_min_eig(hermitian_part(w)) >= -1e-12
    assert psd_min_eig(hermitian_part(partial_transpose(w, 3, 3, "first"))) >= -1e-12
    assert float(np.trace(w @ h).real) == pytest.approx(verdict.value, abs=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < budget
    report_line(8, f"non-decomposability witness {verdict.value:.4f} (oracle {oracle_best:.4f})", elapsed, budget)


def test_criterion_9_determinism(tmp_path):
    budget = 60.0
    start = time.monotonic()

    # searches replay exactly from their seeds
    phi = transposition_map(2)
    v1 = k_block_min(phi, 1, restarts=16, seed=9001)
    v2 = k_block_min(phi, 1, restarts=16, seed=9001)
    assert v1.value == v2.value
    b1 = is_k_positive(phi, 1, restarts=16, seed=9002)
    b2 = is_k_positive(phi, 1, restarts=16, seed=9002)
    assert b1.value == b2.value

    # classification reports are byte-identical for identical input and seed
    doc_path = tmp_path / "map.json"
    dump_document(map_to_document(transposition_map(2), "choi"), str(doc_path))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["classify", str(doc_path), "--k-max", "2", "--seed", "9003"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    # so are modular-suite reports, and timing stays out of the payload
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    margs = ["modular-verify", "--dim", "3", "--trials", "3", "--seed", "9004"]
    assert main(margs + ["--out", str(m1)]) == 0
    assert main(margs + ["--out", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()
    with open(out1, encoding="utf-8") as fh:
        assert "timing" not in report_body(json.load(fh))
    elapsed = time.monotonic() - start
    assert elapsed < budget
    report_line(9, "byte-identical reports and replayable searches", elapsed, budget)
