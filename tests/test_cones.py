"""Bipartite cones: membership, the partial-swap symmetry, odd-part structure,
and the weak-decomposability cone test."""

import numpy as np
import pytest

import posmap.cones
import posmap.linalg
from posmap.cones import (
    bipartite_context,
    cone_member,
    modular_factorization_defect,
    odd_part_flags,
    odd_part_polar,
    sample_cone_element,
    sample_intersection_element,
    sample_ppt_operator,
    split_bound_margins,
    split_bounds_check,
    transposed_cone_consistency,
    weak_kdec_cone_check,
)
from posmap.errors import NotInIntersectionError, NotInPError
from posmap.kpositivity import sk_check
from posmap.linalg import (
    frobenius,
    hermitian_part,
    hs_inner,
    partial_transpose,
    random_psd,
    rng_stream,
)
from posmap.maps import identity_map, max_entangled_projector, transposition_map
from posmap.modular import gns_context
from posmap.verdicts import EVIDENCE, VIOLATION
from test_kpositivity import count_validations

TRACIAL = np.eye(2, dtype=complex) / 2
RHO_A = np.diag([1 / 3, 2 / 3]).astype(complex)
RHO_B = np.diag([1 / 4, 3 / 4]).astype(complex)


def tracial_ctx():
    return bipartite_context(TRACIAL, TRACIAL)


def skew_ctx():
    return bipartite_context(RHO_A, RHO_B)


def blocks_psd(b11, b12, b22):
    """Assemble a PSD-style 2x2 block array [a_ij] over the second factor."""
    return np.array([[b11, b12], [np.asarray(b12).conj().T, b22]])


class TestBipartiteContext:
    def test_tracial_product(self):
        ctx = tracial_ctx()
        assert np.allclose(ctx.eigenvalues, 0.25)
        assert np.allclose(ctx.omega, np.eye(4) / 2)
        xi = ctx.delta_apply(1.0, np.arange(16, dtype=complex).reshape(4, 4))
        assert np.allclose(xi, np.arange(16, dtype=complex).reshape(4, 4))

    def test_modular_spectrum_is_product(self):
        ctx = skew_ctx()
        lam = np.kron(np.sort(np.linalg.eigvalsh(RHO_A)), np.sort(np.linalg.eigvalsh(RHO_B)))
        assert np.allclose(ctx.eigenvalues, lam)

    def test_projection_calculus(self):
        ctx = skew_ctx()
        rng = rng_stream(70)
        xi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p, q = ctx.p_project(xi), ctx.q_project(xi)
        assert frobenius(ctx.p_project(p) - p) <= 1e-12
        assert frobenius(ctx.q_project(q) - q) <= 1e-12
        assert frobenius(ctx.p_project(q)) <= 1e-12
        assert frobenius(p + q - xi) <= 1e-12
        assert frobenius(ctx.utilde(ctx.utilde(xi)) - xi) == 0.0

    def test_modular_conjugation_factorizes(self):
        assert modular_factorization_defect(skew_ctx(), samples=10, seed=1) <= 1e-12

    def test_block_round_trip(self):
        ctx = skew_ctx()
        rng = rng_stream(71)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(ctx.from_blocks(ctx.blocks(x)), x)


class TestConeMember:
    def test_cyclic_vector_in_both_cones(self):
        for ctx in (tracial_ctx(), skew_ctx()):
            mem = cone_member(ctx, ctx.omega)
            assert mem.in_p and mem.in_ptau and mem.in_intersection

    def test_ppt_block_lands_in_intersection(self):
        ctx = skew_ctx()
        for s in range(25):
            rng = rng_stream(72, s)
            xi = sample_intersection_element(ctx, rng)
            mem = cone_member(ctx, xi)
            assert mem.in_intersection
            assert mem.p_min_eig >= -1e-9
            assert mem.ptau_min_eig >= -1e-9

    def test_entangled_block_breaks_the_transposed_cone(self):
        for ctx in (tracial_ctx(), skew_ctx()):
            xi = ctx.cone_vector(max_entangled_projector(2))
            mem = cone_member(ctx, xi)
            assert mem.in_p
            assert not mem.in_ptau
            assert mem.ptau_min_eig == pytest.approx(-0.5, abs=1e-10)

    def test_cross_route_agrees(self):
        ctx = skew_ctx()
        rng = rng_stream(73)
        xi = sample_cone_element(ctx, rng)
        assert cone_member(ctx, xi).cross_route_defect <= 1e-12

    def test_hull_evidence_for_cone_elements(self):
        ctx = skew_ctx()
        rng = rng_stream(74)
        xi = sample_cone_element(ctx, rng)
        mem = cone_member(ctx, xi, hull_samples=50, seed=4)
        assert mem.in_hull_evidence
        assert mem.hull_pairing_min >= -1e-10

    def test_product_vectors_lie_in_the_intersection(self):
        # tensor products of single-system cone elements stay fixed under the
        # partial swap up to a block transpose, hence sit in both cones
        ctx = skew_ctx()
        for s in range(10):
            rng = rng_stream(84, s)
            xi = np.kron(
                ctx.ctx_a.delta_apply(0.25, random_psd(rng, 2) @ ctx.ctx_a.Omega),
                ctx.ctx_b.delta_apply(0.25, random_psd(rng, 2) @ ctx.ctx_b.Omega),
            )
            assert cone_member(ctx, xi).in_intersection

    def test_rectangular_system(self):
        ctx = bipartite_context(
            np.diag([0.2, 0.3, 0.5]).astype(complex), np.diag([0.4, 0.6]).astype(complex)
        )
        assert cone_member(ctx, ctx.omega).in_intersection
        rng = rng_stream(85)
        xi = sample_intersection_element(ctx, rng)
        assert cone_member(ctx, xi).in_intersection
        report = transposed_cone_consistency(ctx, samples=30, seed=1)
        assert report["identity_defect"] <= 1e-10
        assert report["duality_pairing_min"] >= -1e-10

    def test_double_positivity_of_reconstructed_blocks(self):
        # intersection membership forces both block orderings PSD
        ctx = tracial_ctx()
        for s in range(25):
            rng = rng_stream(75, s)
            x = sample_ppt_operator(rng, 2, 2)
            mem = cone_member(ctx, ctx.cone_vector(x))
            assert mem.in_intersection
            swapped = partial_transpose(hermitian_part(x), 2, 2, "second")
            assert np.linalg.eigvalsh(hermitian_part(swapped))[0] >= -1e-9


class TestTransposedCone:
    @pytest.mark.parametrize("make_ctx,bound", [(tracial_ctx, 1e-11), (skew_ctx, 1e-10)])
    def test_consistency_report(self, make_ctx, bound):
        report = transposed_cone_consistency(make_ctx(), samples=100, seed=5)
        assert report["identity_defect"] <= bound
        assert report["commutant_pairing_min"] >= -1e-10
        assert report["duality_pairing_min"] >= -1e-10
        assert report["imag_max"] <= 1e-10

    def test_intersection_is_swap_invariant(self):
        ctx = skew_ctx()
        for s in range(20):
            rng = rng_stream(76, s)
            xi = sample_intersection_element(ctx, rng)
            assert cone_member(ctx, ctx.utilde(xi)).in_intersection


class TestPqSplit:
    def test_fixed_point_has_no_odd_part(self):
        ctx = tracial_ctx()
        b12 = np.array([[0.2, 0.1], [0.1, 0.3]], dtype=complex)  # real symmetric
        x = ctx.from_blocks(blocks_psd(np.eye(2, dtype=complex), b12, np.eye(2, dtype=complex)))
        xi = ctx.cone_vector(x)
        q = ctx.q_project(xi)
        assert frobenius(q) <= 1e-12

    def test_closed_form_odd_component(self):
        ctx = skew_ctx()
        rng = rng_stream(77)
        x = random_psd(rng, 4)
        xi = ctx.cone_vector(x)
        q = ctx.q_project(xi)
        blocks = ctx.blocks(x)
        odd = np.zeros_like(blocks)
        odd[0, 1] = (blocks[0, 1] - blocks[1, 0]) / 2
        odd[1, 0] = (blocks[1, 0] - blocks[0, 1]) / 2
        assert frobenius(q - ctx.cone_vector(ctx.from_blocks(odd))) <= 1e-12

    def test_pythagoras(self):
        ctx = skew_ctx()
        rng = rng_stream(78)
        xi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p, q = ctx.p_project(xi), ctx.q_project(xi)
        total = np.vdot(xi, xi).real
        assert abs(total - np.vdot(p, p).real - np.vdot(q, q).real) <= 1e-12 * max(1.0, total)


class TestSplitBounds:
    def test_cyclic_vector_has_slack(self):
        ctx = skew_ctx()
        margins = split_bounds_check(ctx, ctx.omega, eta_samples=100, seed=6)
        assert margins["violations"] == 0
        q = ctx.q_project(ctx.omega)
        assert frobenius(q) <= 1e-12

    @pytest.mark.parametrize("make_ctx", [tracial_ctx, skew_ctx])
    def test_zero_violations_on_intersection_vectors(self, make_ctx):
        ctx = make_ctx()
        for s in range(20):
            rng = rng_stream(79, s)
            xi = sample_intersection_element(ctx, rng)
            margins = split_bounds_check(ctx, xi, eta_samples=100, seed=s)
            assert margins["violations"] == 0

    def test_rejects_non_intersection_vectors(self):
        ctx = skew_ctx()
        xi = ctx.cone_vector(max_entangled_projector(2))
        with pytest.raises(NotInIntersectionError):
            split_bounds_check(ctx, xi, eta_samples=10, seed=7)

    def test_power_against_entangled_vector(self):
        # a vector in P but not in the transposed cone must violate the
        # absolute-value inequality for some sampled cone element
        ctx = tracial_ctx()
        xi = ctx.cone_vector(max_entangled_projector(2))
        etas = [
            sample_cone_element(ctx, rng_stream(80, t), rank=1 if t % 2 == 0 else None)
            for t in range(200)
        ]
        margins = split_bound_margins(ctx, xi, etas)
        assert margins["abs_q_vs_p"] < -1e-6

    def test_margins_validate_each_eta_once(self, monkeypatch):
        ctx = tracial_ctx()
        xi = ctx.cone_vector(max_entangled_projector(2))
        etas = [sample_cone_element(ctx, rng_stream(80, t)) for t in range(30)]
        margins = split_bound_margins(ctx, xi, etas)
        assert margins["pairing"] == min(hs_inner(eta, xi).real for eta in etas)
        counter = count_validations(monkeypatch, modules=(posmap.linalg, posmap.cones),
                                    names=("as_matrix",))
        counts = []
        for size in (3, 30):
            counter["calls"] = 0
            split_bound_margins(ctx, xi, etas[:size])
            counts.append(counter["calls"])
        assert counts[1] - counts[0] == 27


class TestOddPartFlags:
    def test_symmetric_blocks_all_true(self):
        ctx = tracial_ctx()
        b12 = np.array([[0.2, 0.1], [0.1, 0.3]], dtype=complex)
        x = ctx.from_blocks(blocks_psd(np.eye(2, dtype=complex), b12, np.eye(2, dtype=complex)))
        flags = odd_part_flags(ctx, ctx.cone_vector(x))
        assert flags.q_in_p and flags.q_zero and flags.fixed
        assert flags.agree()

    def test_skew_blocks_all_false(self):
        ctx = tracial_ctx()
        pauli_z = np.diag([1.0, -1.0]).astype(complex)
        b12 = 0.3 * np.eye(2) + 0.5j * pauli_z  # a_12 - a_21 = i pauli_z
        x = ctx.from_blocks(blocks_psd(3 * np.eye(2, dtype=complex), b12, 3 * np.eye(2, dtype=complex)))
        assert np.linalg.eigvalsh(hermitian_part(x))[0] > 0
        flags = odd_part_flags(ctx, ctx.cone_vector(x))
        assert not (flags.q_in_p or flags.q_zero or flags.fixed)
        assert flags.agree()

    def test_flags_agree_on_random_cone_vectors(self):
        for make_ctx in (tracial_ctx, skew_ctx):
            ctx = make_ctx()
            for s in range(30):
                rng = rng_stream(81, s)
                xi = sample_cone_element(ctx, rng)
                assert odd_part_flags(ctx, xi).agree()

    def test_rejects_vectors_outside_p(self):
        ctx = tracial_ctx()
        xi = ctx.cone_vector(-np.eye(4, dtype=complex))
        with pytest.raises(NotInPError):
            odd_part_flags(ctx, xi)


class TestOddPartPolar:
    def test_degenerate_case_returns_zeros(self):
        ctx = tracial_ctx()
        result = odd_part_polar(ctx, ctx.omega)
        assert result.degenerate
        assert frobenius(result.xi_b) == 0.0
        assert result.reconstruction_defect <= 1e-12

    def test_pauli_z_generator_exact(self):
        ctx = tracial_ctx()
        pauli_z = np.diag([1.0, -1.0]).astype(complex)
        b12 = 0.25j * pauli_z + 0.2 * np.eye(2)  # generator h = pauli_z / 4
        x = ctx.from_blocks(blocks_psd(2 * np.eye(2, dtype=complex), b12, 2 * np.eye(2, dtype=complex)))
        xi = ctx.cone_vector(x)
        result = odd_part_polar(ctx, xi)
        assert not result.degenerate
        assert result.reconstruction_defect <= 1e-12
        assert cone_member(ctx, result.xi_b).in_p
        v = result.partial_isometry
        assert frobenius(v @ v.conj().T @ v - v) <= 1e-12  # partial isometry

    def test_random_cone_vectors(self):
        for make_ctx in (tracial_ctx, skew_ctx):
            ctx = make_ctx()
            for s in range(30):
                rng = rng_stream(82, s)
                xi = sample_cone_element(ctx, rng)
                result = odd_part_polar(ctx, xi)
                assert result.reconstruction_defect <= 1e-9
                if not result.degenerate:
                    assert cone_member(ctx, result.xi_b).in_p


class TestConeRouteCharacterization:
    def test_cp_adjoint_stays_in_the_cone(self):
        # a completely positive map that commutes with the state satisfies
        # detailed balance, and its adjoint preserves the positive cone at
        # any faithful state
        from posmap.choi import MatrixMap
        from posmap.linalg import random_faithful_state
        from posmap.modular import t_phi

        rng = rng_stream(888)
        for trial in range(3):
            rho_a = random_faithful_state(rng, 2)
            ctx_a = gns_context(rho_a)
            bctx = bipartite_context(rho_a, TRACIAL)
            u = ctx_a.basis @ np.diag(np.exp(1j * rng.random(2))) @ ctx_a.basis.conj().T
            phi = MatrixMap.from_function(lambda a: u @ a @ u.conj().T, 2, 2)
            op = t_phi(ctx_a, phi).operator
            for s in range(30):
                xi = sample_cone_element(bctx, rng_stream(889, trial * 100 + s))
                zeta = bctx.apply_first_factor(op.matrix.conj().T, xi)
                assert cone_member(bctx, zeta).in_p

    def test_transposition_adjoint_lands_in_transposed_cone_at_tracial_state(self):
        # the transposition carrier anticommutes with the modular powers, so
        # the copositive branch of the cone characterization needs the
        # tracial state, where detailed balance is trivial
        from posmap.modular import frame_transposition_map, t_phi

        ctx_a = gns_context(TRACIAL)
        for n in (1, 2, 3):
            bctx = bipartite_context(TRACIAL, np.eye(n, dtype=complex) / n)
            op = t_phi(ctx_a, frame_transposition_map(ctx_a)).operator
            for s in range(30):
                xi = sample_cone_element(bctx, rng_stream(890, n * 100 + s))
                zeta = bctx.apply_first_factor(op.matrix.conj().T, xi)
                assert cone_member(bctx, zeta).in_ptau


class TestWeakDecomposability:
    def test_identity_map_preserves_the_cone(self):
        ctx_a = gns_context(TRACIAL)
        v = weak_kdec_cone_check(ctx_a, identity_map(2), 2, samples=30, seed=1)
        assert v.kind == EVIDENCE
        assert v.value >= -1e-10

    def test_transposition_lands_in_the_hull(self):
        ctx_a = gns_context(TRACIAL)
        v = weak_kdec_cone_check(ctx_a, transposition_map(2), 2, samples=30, seed=2)
        assert v.kind == EVIDENCE

    def test_negated_identity_refuted(self):
        ctx_a = gns_context(TRACIAL)
        with pytest.warns(UserWarning, match="not invariant"):
            v = weak_kdec_cone_check(ctx_a, -1.0 * identity_map(2), 2, samples=20, seed=3)
        assert v.kind == VIOLATION
        assert v.value < 0

    def test_first_factor_state_is_built_once(self, monkeypatch):
        # only the tracial second factor is built per block size; the state
        # handed in is not rebuilt
        dims = []
        original = posmap.cones.gns_context

        def counted(rho):
            dims.append(np.shape(rho)[0])
            return original(rho)

        monkeypatch.setattr(posmap.cones, "gns_context", counted)
        ctx_a = original(np.diag([0.2, 0.3, 0.5]).astype(complex))
        weak_kdec_cone_check(ctx_a, identity_map(3), 3, samples=2, seed=0)
        assert dims == [1, 2, 3]

    def test_desk_scale_guard(self):
        from posmap.errors import DimensionMismatchError

        ctx_a = gns_context(TRACIAL)
        with pytest.raises(DimensionMismatchError):
            weak_kdec_cone_check(ctx_a, identity_map(2), 30, samples=1, seed=0)

    def test_agreement_with_block_condition(self):
        # refutations from the cone route and the block-matrix route never
        # conflict: when the cone route refutes at size n, the doubly-PSD
        # image condition at k = n is violated too
        import warnings

        ctx_a = gns_context(TRACIAL)
        for t in range(8):
            rng = rng_stream(83, t)
            from posmap.maps import random_map_near_cp

            phi = random_map_near_cp(rng, 2, 2, mix=0.8)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                wv = weak_kdec_cone_check(ctx_a, phi, 2, samples=40, seed=t)
            if wv.kind == VIOLATION:
                n = int(wv.witness["n"])
                sv = sk_check(phi, n, samples=400, seed=t)
                assert sv.kind == VIOLATION
