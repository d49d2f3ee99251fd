"""Bipartite cones: membership, the partial-swap symmetry, odd-part structure,
and the weak-decomposability cone test."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import posmap.cones
import posmap.linalg
from posmap.cones import (
    BipartiteConeContext,
    bipartite_context,
    cone_member,
    odd_part_flags,
    odd_part_polar,
    sample_cone_element,
    sample_intersection_element,
    sample_ppt_operator,
    split_bound_floors,
    split_bound_margins,
    split_bounds_check,
    transposed_cone_consistency,
    weak_kdec_cone_check,
)
from posmap.errors import CountOutOfRangeError, KOutOfRangeError, NotInIntersectionError, NotInPError
from posmap.kpositivity import sk_check
from posmap.linalg import (
    alternate_ppt_projections,
    frobenius,
    hermitian_part,
    hs_inner,
    partial_transpose,
    psd_tol,
    random_psd,
    rng_stream,
)
from posmap.maps import identity_map, max_entangled_projector, random_map_near_cp, transposition_map
from posmap.modular import gns_context, t_phi
from posmap.verdicts import EVIDENCE, VIOLATION, Verdict
from test_kpositivity import assert_same_verdict, count_calls, count_validations, stream_position

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

    @pytest.mark.parametrize("hull_samples", [-1, -5])
    def test_a_negative_hull_count_is_refused(self, hull_samples):
        # zero is "no hull sampling"; below zero there is nothing to read
        ctx = skew_ctx()
        with pytest.raises(CountOutOfRangeError):
            cone_member(ctx, ctx.omega, hull_samples=hull_samples, seed=0)

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

    @pytest.mark.parametrize("eta_samples", [0, -1])
    def test_a_count_below_one_is_refused(self, eta_samples):
        # a pass must rest on at least one sample
        ctx = skew_ctx()
        with pytest.raises(CountOutOfRangeError):
            split_bounds_check(ctx, ctx.omega, eta_samples=eta_samples, seed=0)

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


class TestSplitBoundFloors:
    """The exact floors against the sampled check, on the contexts of
    acceptance criterion 5 and its intersection vectors."""

    @pytest.mark.parametrize("make_ctx", [tracial_ctx, skew_ctx])
    def test_each_floor_is_attained_and_below_the_sampled_margin(self, make_ctx):
        ctx = make_ctx()
        for s in range(12):
            xi = sample_intersection_element(ctx, rng_stream(5002, s))
            floors, etas = split_bound_floors(ctx, xi)
            sampled = split_bounds_check(ctx, xi, eta_samples=500, seed=5003 + s)
            assert set(floors) == set(sampled) - {"violations"}
            assert all(floors[key] <= sampled[key] for key in floors), s
            assert floors["norm"] == sampled["norm"]
            assert set(etas) == set(floors) - {"norm"}
            for key, eta in etas.items():
                assert cone_member(ctx, eta).in_p
                assert abs(split_bound_margins(ctx, xi, [eta])[key] - floors[key]) <= 1e-12, (s, key)

    def test_the_floors_reduce_to_four_partial_transposes(self):
        # pairing reads xi, q_vs_total and factor_sum U_B xi, factor_diff U_A xi
        ctx = skew_ctx()
        xi = sample_intersection_element(ctx, rng_stream(5002, 3))
        floors, _ = split_bound_floors(ctx, xi)
        quarter = ctx.eigenvalues**0.25

        def floor(t):
            return np.linalg.eigvalsh(hermitian_part(quarter[:, None] * t * quarter[None, :]))[0]

        u_a, u_b = partial_transpose(xi, 2, 2, "first"), partial_transpose(xi, 2, 2, "second")
        assert floors["pairing"] == pytest.approx(floor(xi), abs=1e-15)
        assert floors["q_vs_total"] == floors["factor_sum"] == pytest.approx(floor(u_b), abs=1e-15)
        assert floors["factor_diff"] == pytest.approx(floor(u_a), abs=1e-15)
        assert floors["qq_vs_ptot"] == pytest.approx(floor((u_a + u_b) / 2), abs=1e-15)
        assert floors["abs_q_vs_p"] == min(floors["pairing"], floors["q_vs_total"])

    def test_rejects_non_intersection_vectors(self):
        ctx = skew_ctx()
        with pytest.raises(NotInIntersectionError):
            split_bound_floors(ctx, ctx.cone_vector(max_entangled_projector(2)))


def loop_split_bound_margins(ctx, xi, etas):
    """`split_bound_margins` with each target built by the validating
    kernels, as the removed context helpers built them: P, Q, the identity,
    P_tot = (I + U_A (x) U_B) / 2 and the four (P_A or Q_A) (x) (P_B or Q_B)."""
    a, b = ctx.dim_a, ctx.dim_b

    def factor(m, sign_a, sign_b):
        return (m + sign_a * partial_transpose(m, a, b, "first") + sign_b * ctx.utilde(m)
                + sign_a * sign_b * m.T) / 4

    m = np.asarray(xi, dtype=complex)
    targets = [ctx.p_project(m), ctx.q_project(m), m, (m + m.T) / 2]
    targets += [factor(m, sa, sb) for sa, sb in ((1, 1), (-1, 1), (1, -1), (-1, -1))]
    rows = [[hs_inner(eta, t).real for t in targets] for eta in etas]
    margins = {key: np.inf for key in ("abs_q_vs_p", "pairing", "q_vs_total", "factor_sum",
                                       "factor_diff", "qq_vs_ptot")}
    for e_p, e_q, e_xi, e_ptot, e_pp, e_qp, e_pq, e_qq in rows:
        for key, value in (("abs_q_vs_p", e_p - abs(e_q)), ("pairing", e_xi),
                           ("q_vs_total", e_xi - 2 * e_q),
                           ("factor_sum", (e_pp + e_qp) - (e_pq + e_qq)),
                           ("factor_diff", (e_pp - e_qp) - (-e_pq + e_qq)),
                           ("qq_vs_ptot", e_ptot - 2 * e_qq)):
            margins[key] = min(margins[key], value)
    margins["norm"] = frobenius(targets[0]) - frobenius(targets[1])
    return margins


def loop_cone_member(ctx, xi, hull_samples, seed):
    """The fields of `cone_member` on the validating kernels: the
    reconstruction rho^(-1/4) xi rho^(-1/4), the cross-check through the
    partial swap, and `hs_inner` hull pairings."""
    scale = ctx.eigenvalues ** -0.25
    m = np.asarray(xi, dtype=complex)
    x = scale[:, None] * m * scale[None, :]
    swapped = ctx.utilde(m)
    cross = frobenius(scale[:, None] * swapped * scale[None, :]
                      - partial_transpose(x, ctx.dim_a, ctx.dim_b, "second"))
    hull = [hs_inner(sample_intersection_element(ctx, rng_stream(seed, s)), m).real
            for s in range(hull_samples)]
    return x, cross, min(hull)


class TestValidateOnce:
    CONTEXTS = [tracial_ctx, skew_ctx,
                lambda: bipartite_context(np.diag([0.2, 0.3, 0.5]).astype(complex), RHO_B)]

    @pytest.mark.parametrize("make_ctx", CONTEXTS)
    def test_margins_equal_the_validating_reference(self, make_ctx):
        ctx = make_ctx()
        for t in range(4):
            xi = sample_intersection_element(ctx, rng_stream(92, t))
            etas = [sample_cone_element(ctx, rng_stream(93 + t, s), rank=1 + s % 2) for s in range(12)]
            assert split_bound_margins(ctx, xi, etas) == loop_split_bound_margins(ctx, xi, etas)

    @pytest.mark.parametrize("make_ctx", CONTEXTS)
    def test_membership_equals_the_validating_reference(self, make_ctx):
        ctx = make_ctx()
        for t in range(4):
            xi = sample_cone_element(ctx, rng_stream(94, t))
            got = cone_member(ctx, xi, hull_samples=6, seed=t)
            x, cross, hull = loop_cone_member(ctx, xi, 6, t)
            assert got.cross_route_defect == cross
            assert got.hull_pairing_min == hull and type(got.hull_pairing_min) is float
            assert type(got.in_hull_evidence) is bool
            assert got.hermitian_defect == frobenius(x - x.conj().T)
            assert np.array_equal(got.blocks, ctx.blocks(hermitian_part(x)))

    def test_each_check_validates_its_vector_once(self, monkeypatch):
        ctx = skew_ctx()
        xi = sample_cone_element(ctx, rng_stream(95))
        etas = [sample_cone_element(ctx, rng_stream(96, s)) for s in range(5)]
        counter = count_calls(monkeypatch, "_require", module=BipartiteConeContext)
        for check, calls in [
            (lambda: ctx.utilde(xi), 1),
            (lambda: ctx.p_project(xi), 1),
            (lambda: ctx.q_project(xi), 1),
            (lambda: cone_member(ctx, xi), 2),  # xi, and the blocks it returns
            (lambda: split_bound_margins(ctx, xi, etas), 1 + len(etas)),
            # its own, then cone_member on xi and on its nonzero odd part
            (lambda: odd_part_flags(ctx, xi), 5),
            # only the two samplers of each round validate their draws
            (lambda: transposed_cone_consistency(ctx, samples=3, seed=1), 2 * 3),
        ]:
            counter["calls"] = 0
            check()
            assert counter["calls"] == calls


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

    @pytest.mark.parametrize("samples", [0, -1])
    def test_a_count_below_one_is_refused(self, samples):
        with pytest.raises(CountOutOfRangeError):
            weak_kdec_cone_check(gns_context(TRACIAL), identity_map(2), 1, samples=samples, seed=0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_a_block_size_below_one_is_a_k_out_of_range(self, k):
        # as every other k < 1; the desk-scale guard stays a dimension error
        with pytest.raises(KOutOfRangeError):
            weak_kdec_cone_check(gns_context(TRACIAL), identity_map(2), k, samples=1, seed=0)

    def test_the_xi_walk_reads_its_streams_from_one_seeker(self, monkeypatch):
        # the reference loop draws xi through rng_stream; the walk seeks one
        # bit generator per block size to the same streams
        streams = count_calls(monkeypatch, "rng_stream", module=posmap.cones)
        philox = count_calls(monkeypatch, "Philox", module=np.random)
        verdict = weak_kdec_cone_check(gns_context(TRACIAL), identity_map(2), 2, samples=30, seed=1)
        assert verdict.kind == EVIDENCE
        assert streams["calls"] == 0
        assert philox["calls"] == 4  # per block size, one for the etas and one for the walk


def loop_sample_ppt_operator(rng, dim_a, dim_b):
    """`sample_ppt_operator` as one matrix at a time on the validating kernels:
    the reference for the stacked sampler."""
    d = dim_a * dim_b
    x = random_psd(rng, d)
    x = x / np.trace(x).real
    x = alternate_ppt_projections(x, dim_a, dim_b, "second", 20)
    tr = np.trace(x).real
    x = x / tr if tr > 1e-12 else x
    pt_min = np.linalg.eigvalsh(hermitian_part(partial_transpose(x, dim_a, dim_b, "second")))[0]
    if pt_min < -1e-9 or np.trace(x).real < 1e-12:
        p = random_psd(rng, dim_a)
        q = random_psd(rng, dim_b)
        x = np.kron(p, q)
        x = x / np.trace(x).real
    return x


def loop_weak_kdec_cone_check(ctx_a, phi, k, *, samples, seed):
    """`weak_kdec_cone_check` drawing each intersection element through its own
    `loop_sample_ppt_operator` call: the reference for the stacked draws."""
    t_star = t_phi(ctx_a, phi).operator.matrix.conj().T
    worst = np.inf
    for n in range(1, k + 1):
        ctx = bipartite_context(ctx_a.rho, np.eye(n, dtype=complex) / n)
        streams = [rng_stream(seed + 7919 * n + 104729, t) for t in range(samples)]
        etas = [ctx.cone_vector(loop_sample_ppt_operator(rng, ctx_a.dim, n)) for rng in streams]
        eta_stack = np.stack([e.reshape(-1) for e in etas])
        eta_norms = np.maximum(np.linalg.norm(eta_stack, axis=1), 1.0)
        for s in range(samples):
            xi = sample_cone_element(ctx, rng_stream(seed + 7919 * n, s))
            zeta = ctx.apply_first_factor(t_star, xi)
            pairings = (eta_stack.conj() @ zeta.reshape(-1)).real
            idx = int(np.argmin(pairings / eta_norms))
            worst = min(worst, float(pairings[idx]))
            if pairings[idx] < -psd_tol(zeta) * eta_norms[idx]:
                return Verdict(VIOLATION, float(pairings[idx]),
                               witness={"n": n, "xi": xi, "eta": etas[idx], "zeta": zeta},
                               stats={"samples": s + 1, "seed": seed})
    return Verdict(EVIDENCE, float(worst), stats={"samples": samples, "seed": seed})


def failing_projections(a, *args):
    """A stand-in for `alternate_ppt_projections` that keeps the PSD draw of
    the members whose first diagonal entry exceeds their last, where the
    partial-transpose test mostly fails, and maps the others to the identity,
    which passes it: which members fail depends on each member alone."""
    keep = a[:, 0, 0].real > a[:, -1, -1].real
    return np.where(keep[:, None, None], a, np.eye(a.shape[-1]))


class TestStackedPptSampler:
    @given(dims=st.sampled_from([(a, b) for a in range(1, 7) for b in range(1, 7) if a * b <= 6]),
           streams=st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_the_stack_equals_the_one_at_a_time_sampler(self, dims, streams, seed):
        got = posmap.cones._ppt_streams(seed, streams, *dims)
        for s, x in zip(streams, got):
            assert np.array_equal(x, sample_ppt_operator(rng_stream(seed, s), *dims))
            assert np.array_equal(x, loop_sample_ppt_operator(rng_stream(seed, s), *dims))

    @pytest.mark.parametrize("dims", [(2, 4), (3, 3), (4, 3), (6, 6), (3, 12)])
    def test_large_stacks_equal_the_one_at_a_time_sampler(self, dims):
        got = posmap.cones._ppt_streams(29, range(6), *dims)
        for s, x in enumerate(got):
            assert np.array_equal(x, loop_sample_ppt_operator(rng_stream(29, s), *dims))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_the_separable_fallback_leaves_each_stream_where_the_loop_does(self, monkeypatch, dims):
        monkeypatch.setattr(posmap.cones, "alternate_ppt_projections", failing_projections)
        positions, separable = [], posmap.cones._separable_ppt

        def recorded(rng, dim_a, dim_b):
            before = stream_position(rng)
            x = separable(rng, dim_a, dim_b)
            positions.append((before, stream_position(rng)))
            return x

        monkeypatch.setattr(posmap.cones, "_separable_ppt", recorded)
        got = posmap.cones._ppt_streams(17, range(40), *dims)
        stacked, positions[:] = positions[:], []
        want = [sample_ppt_operator(rng_stream(17, s), *dims) for s in range(40)]
        assert np.array_equal(got, np.array(want))
        assert 5 <= len(stacked) <= 35  # both paths run
        assert stacked == positions

    @pytest.mark.parametrize("phi, kind", [
        (-1.0 * identity_map(3), VIOLATION),
        (identity_map(3), EVIDENCE),
        (random_map_near_cp(rng_stream(91), 3, 3, mix=0.8), VIOLATION),
    ])
    @pytest.mark.parametrize("slice_entries", [posmap.cones._SLICE_ENTRIES, 100])
    def test_verdict_equals_the_one_at_a_time_loop(self, monkeypatch, phi, kind, slice_entries):
        # 100 entries make slices of 11 elements at n = 1 and of 2 at n = 2
        monkeypatch.setattr(posmap.cones, "_SLICE_ENTRIES", slice_entries)
        ctx_a = gns_context(np.diag([0.2, 0.3, 0.5]).astype(complex))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = weak_kdec_cone_check(ctx_a, phi, 2, samples=60, seed=4)
            want = loop_weak_kdec_cone_check(ctx_a, phi, 2, samples=60, seed=4)
        assert got.kind == kind
        assert_same_verdict(got, want)

    def test_eigh_calls_per_block_size_do_not_grow_with_samples(self, monkeypatch):
        calls, eigh = {"eigh": 0}, np.linalg.eigh

        def counted(a):
            calls["eigh"] += 1
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        ctx_a = gns_context(np.diag([0.2, 0.3, 0.5]).astype(complex))
        for k in (1, 2):
            counts = []
            for samples in (3, 40, 100):
                calls["eigh"] = 0
                verdict = weak_kdec_cone_check(ctx_a, identity_map(3), k, samples=samples, seed=0)
                assert verdict.kind == EVIDENCE
                counts.append(calls["eigh"])
            assert counts[0] == counts[1] == counts[2]
