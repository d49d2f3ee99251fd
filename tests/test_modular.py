"""GNS/modular data: conjugation identities, polar factorization, cones,
induced operators, and the balance adjoint."""

import numpy as np
import pytest

import posmap.modular
from linalg_helpers import frac_power
from posmap.choi import MatrixMap
from posmap.cones import bipartite_context, transposed_cone_consistency
from posmap.errors import (
    BetaOutOfRangeError,
    CountOutOfRangeError,
    NotAStateError,
    NotFaithfulError,
    NotInNaturalConeError,
)
from posmap.linalg import (
    frobenius,
    hs_inner,
    random_complex,
    random_faithful_state,
    random_psd,
    rng_stream,
)
from posmap.maps import (
    identity_map,
    random_hermiticity_preserving,
    trace_times_identity,
    transposition_map,
)
from posmap.modular import (
    check_polar_factorization,
    check_unitary_relations,
    commutant_defect,
    cone_state,
    cone_vector,
    db_adjoint,
    frame_transposition_map,
    gns_context,
    schwarz_defect,
    swap_conjugate,
    t_phi,
    transpose_via_conjugations,
    v_beta_duality_check,
    v_beta_member,
)
from test_kpositivity import count_calls, count_stream_work

TRACIAL_2 = np.eye(2, dtype=complex) / 2
# ascending spectrum keeps the frame equal to the standard basis
DIAG_2 = np.diag([1 / 3, 2 / 3]).astype(complex)


def unit(i, j, d):
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


class TestGnsContext:
    def test_tracial_modular_operator_is_identity(self):
        ctx = gns_context(TRACIAL_2)
        assert np.allclose(ctx.delta_power(1.0).matrix, np.eye(4))

    def test_diagonal_state_modular_spectrum(self):
        ctx = gns_context(DIAG_2)
        diag = np.diag(ctx.delta_power(1.0).matrix).real
        assert sorted(np.round(diag, 12)) == sorted([1.0, 0.5, 2.0, 1.0])

    def test_swap_unitary_acts_on_units_exactly(self):
        ctx = gns_context(DIAG_2)
        for i in range(2):
            for j in range(2):
                assert np.array_equal(ctx.U.apply(unit(i, j, 2)), unit(j, i, 2))

    def test_cyclic_vector_is_unit(self):
        ctx = gns_context(DIAG_2)
        assert hs_inner(ctx.Omega, ctx.Omega).real == pytest.approx(1.0, abs=1e-12)

    def test_rejects_singular_state(self):
        with pytest.raises(NotFaithfulError):
            gns_context(np.diag([0.0, 1.0]).astype(complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(NotAStateError):
            gns_context(np.eye(2, dtype=complex))


def loop_superoperator(f, d):
    """The matrix of the linear superoperator f assembled one frame unit at a
    time, column (i, j) being vec(f(E_ij)): the reference for the closed forms
    of U, Jm, tau and T_phi."""
    images = MatrixMap.from_function(f, d, d).unit_images.reshape(d * d, d * d)
    return np.ascontiguousarray(images.T)


def random_states(d, count=3):
    rng = rng_stream(900 + d)
    return [random_faithful_state(rng, d) for _ in range(count)]


class TestClosedForms:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_swap_conjugation_and_carrier_match_the_unit_loop(self, d):
        for rho in random_states(d):
            ctx = gns_context(rho)
            s = np.sqrt(ctx.eigenvalues)
            swap = loop_superoperator(lambda e: e.T, d)
            assert np.array_equal(ctx.U.matrix, swap) and not ctx.U.antilinear
            assert np.array_equal(ctx.Jm.matrix, swap) and ctx.Jm.antilinear
            carrier = loop_superoperator(lambda e: (1 / s)[:, None] * e.T * s[None, :], d)
            assert np.array_equal(ctx.tau.matrix, carrier) and not ctx.tau.antilinear

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.filterwarnings("ignore:state is not invariant")
    def test_induced_operators_match_the_unit_loop(self, d):
        for t, rho in enumerate(random_states(d)):
            ctx = gns_context(rho)
            x = ctx.basis
            omega_inv = np.diag(1.0 / np.sqrt(ctx.eigenvalues)).astype(complex)
            maps = [identity_map(d), transposition_map(d), frame_transposition_map(ctx),
                    random_hermiticity_preserving(rng_stream(910 + d, t), d, d)]
            for phi in maps:
                phi_frame = MatrixMap.from_function(
                    lambda e: x.conj().T @ phi(x @ e @ x.conj().T) @ x, d, d)
                expected = loop_superoperator(lambda e: phi_frame(e @ omega_inv) @ ctx.Omega, d)
                assert np.array_equal(t_phi(ctx, phi).operator.matrix, expected)


class TestTransposeViaConjugations:
    def test_unit_at_tracial_state(self):
        ctx = gns_context(TRACIAL_2)
        lhs, rhs, gap = transpose_via_conjugations(unit(0, 1, 2), ctx.Omega)
        assert gap <= 1e-12
        assert np.allclose(lhs, unit(1, 0, 2) / np.sqrt(2))

    def test_identity_operator_acts_trivially(self):
        xi = random_complex(rng_stream(1), (2, 2))
        lhs, rhs, gap = transpose_via_conjugations(np.eye(2), xi)
        assert gap <= 1e-12
        assert np.allclose(lhs, xi)

    def test_random_triples(self):
        rng = rng_stream(2)
        for trial in range(50):
            d = int(rng.integers(2, 6))
            a = random_complex(rng, (d, d))
            xi = random_complex(rng, (d, d))
            assert transpose_via_conjugations(a, xi)[2] <= 1e-10


class TestStructuralIdentities:
    def test_tracial_state(self):
        defects = check_unitary_relations(gns_context(TRACIAL_2))
        assert defects["max"] <= 1e-12

    def test_three_level_diagonal(self):
        rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
        defects = check_unitary_relations(gns_context(rho))
        assert defects["max"] <= 1e-10

    def test_random_states(self):
        rng = rng_stream(3)
        for trial in range(10):
            d = int(rng.integers(2, 7))
            ctx = gns_context(random_faithful_state(rng, d))
            assert check_unitary_relations(ctx)["max"] <= 1e-10

    def test_a_defect_between_linear_and_antilinear_operators_is_refused(self):
        # Jm is U's matrix read as antilinear: the tag alone tells them apart
        ctx = gns_context(DIAG_2)
        assert np.array_equal(ctx.Jm.matrix, ctx.U.matrix)
        with pytest.raises(ValueError, match="same antilinearity tag"):
            ctx.Jm.defect(ctx.U)
        with pytest.raises(ValueError, match="same antilinearity tag"):
            ctx.U.defect(ctx.Jm)


class TestPolarFactorization:
    def test_tracial_carrier_equals_swap(self):
        ctx = gns_context(TRACIAL_2)
        assert frobenius(ctx.tau.matrix - ctx.U.matrix) <= 1e-14
        assert check_polar_factorization(ctx) <= 1e-14

    def test_diagonal_state(self):
        assert check_polar_factorization(gns_context(DIAG_2)) <= 1e-12

    def test_random_dimension_five(self):
        ctx = gns_context(random_faithful_state(rng_stream(4), 5))
        assert check_polar_factorization(ctx) <= 1e-10


class TestSwapConjugation:
    def test_identity_fixed(self):
        ctx = gns_context(DIAG_2)
        assert np.allclose(swap_conjugate(ctx, np.eye(4)), np.eye(4))

    def test_left_multiplications_map_into_commutant(self):
        ctx = gns_context(DIAG_2)
        conj = swap_conjugate(ctx, ctx.left_mult(unit(0, 1, 2)).matrix)
        assert commutant_defect(ctx, conj) <= 1e-12

    def test_involutive(self):
        ctx = gns_context(DIAG_2)
        rng = rng_stream(5)
        a = random_complex(rng, (4, 4))
        assert np.allclose(swap_conjugate(ctx, swap_conjugate(ctx, a)), a)


class TestConeFamily:
    def test_cyclic_vector_in_every_cone(self):
        ctx = gns_context(DIAG_2)
        for beta in (0.0, 0.1, 0.25, 0.5):
            result = v_beta_member(ctx, beta, ctx.Omega)
            assert result.member
            assert np.allclose(result.witness, np.eye(2), atol=1e-10)

    def test_constructed_natural_cone_element(self):
        ctx = gns_context(DIAG_2)
        xi = cone_vector(ctx, 0.25, unit(0, 0, 2))
        assert v_beta_member(ctx, 0.25, xi).member

    def test_antisymmetric_vector_not_member(self):
        ctx = gns_context(DIAG_2)
        a = unit(0, 1, 2) - unit(1, 0, 2)
        xi = ctx.delta_apply(0.3, a @ ctx.Omega)
        assert not v_beta_member(ctx, 0.3, xi).member

    def test_beta_out_of_range(self):
        ctx = gns_context(DIAG_2)
        with pytest.raises(BetaOutOfRangeError):
            v_beta_member(ctx, 0.6, ctx.Omega)

    def test_duality_at_self_dual_point(self):
        ctx = gns_context(DIAG_2)
        report = v_beta_duality_check(ctx, 0.25, samples=50, seed=6)
        assert report["min_real_pairing"] >= -1e-10
        assert report["max_imag_pairing"] <= 1e-10
        assert report["flip_failures"] == 0

    def test_duality_tracial_endpoints(self):
        ctx = gns_context(TRACIAL_2)
        report = v_beta_duality_check(ctx, 0.0, samples=50, seed=7)
        assert report["min_real_pairing"] >= -1e-10
        assert report["flip_failures"] == 0

    def test_duality_check_reads_its_streams_from_one_seeker(self, monkeypatch):
        streams = count_calls(monkeypatch, "rng_stream", module=posmap.modular)
        philox = count_calls(monkeypatch, "Philox", module=np.random)
        report = v_beta_duality_check(gns_context(DIAG_2), 0.25, samples=30, seed=6)
        assert report["flip_failures"] == 0
        assert streams["calls"] == 0
        assert philox["calls"] == 1

    def test_flip_maps_between_dual_cones(self):
        ctx = gns_context(DIAG_2)
        report = v_beta_duality_check(ctx, 0.1, samples=100, seed=8)
        assert report["flip_failures"] == 0

    def test_carrier_maps_base_cone_into_itself(self):
        # the polar carrier and its composition with induced operators of the
        # identity and transposition keep the base cone invariant
        for rho in (TRACIAL_2, DIAG_2):
            ctx = gns_context(rho)
            ops = {
                "id": t_phi(ctx, identity_map(2)).operator,
                "t": t_phi(ctx, transposition_map(2)).operator,
            }
            rng = rng_stream(9)
            for trial in range(25):
                xi = random_psd(rng, 2) @ ctx.Omega
                assert v_beta_member(ctx, 0.0, ctx.tau.apply(xi)).member
                for op in ops.values():
                    assert v_beta_member(ctx, 0.0, op.apply(ctx.tau.apply(xi))).member


class TestDeltaPowerConsistency:
    def test_matrix_power_matches_entrywise_scaling(self):
        rng = rng_stream(10)
        for trial in range(10):
            d = int(rng.integers(2, 6))
            ctx = gns_context(random_faithful_state(rng, d))
            delta = ctx.delta_power(1.0).matrix
            for beta in (0.5, 0.25, -0.5):
                via_eig = frac_power(delta, beta)
                assert frobenius(via_eig - ctx.delta_power(beta).matrix) <= 1e-11


class TestInducedOperator:
    def test_identity_map(self):
        ctx = gns_context(DIAG_2)
        ind = t_phi(ctx, identity_map(2))
        assert np.allclose(ind.operator.matrix, np.eye(4))
        assert ind.invariance_defect <= 1e-12
        assert ind.extension_defect <= 1e-12
        assert ind.delta_commutation_defect <= 1e-12
        assert ind.contraction_defect <= 1e-12

    def test_transposition_at_tracial_state_is_swap(self):
        ctx = gns_context(TRACIAL_2)
        ind = t_phi(ctx, transposition_map(2))
        assert frobenius(ind.operator.matrix - ctx.U.matrix) <= 1e-12

    def test_state_preparation_is_rank_one(self):
        ctx = gns_context(DIAG_2)
        rho = ctx.rho
        phi = MatrixMap.from_function(lambda a: np.trace(rho @ a) * np.eye(2), 2, 2)
        ind = t_phi(ctx, phi)
        assert ind.invariance_defect <= 1e-12
        omega_vec = ctx.Omega.reshape(-1)
        expected = np.outer(omega_vec, omega_vec.conj())
        assert frobenius(ind.operator.matrix - expected) <= 1e-12
        assert ind.contraction_defect <= 1e-12

    def test_warns_without_invariance(self):
        ctx = gns_context(DIAG_2)
        with pytest.warns(UserWarning, match="not invariant"):
            t_phi(ctx, trace_times_identity(2))

    def test_invariance_defect_matches_the_unit_loop(self):
        rng = rng_stream(12)
        ctx = gns_context(random_faithful_state(rng, 3))
        phi = random_hermiticity_preserving(rng, 3, 3)
        inv = np.array([
            [np.trace(ctx.rho @ phi(unit(p, q, 3))) - np.trace(ctx.rho @ unit(p, q, 3))
             for q in range(3)]
            for p in range(3)
        ])
        with pytest.warns(UserWarning, match="not invariant"):
            ind = t_phi(ctx, phi)
        assert abs(ind.invariance_defect - frobenius(inv)) <= 1e-12


class TestSchwarzDefect:
    def test_identity_is_schwarz(self):
        assert schwarz_defect(identity_map(2), samples=30, seed=1) <= 1e-12

    def test_transposition_fails_direct_order(self):
        # t(a* a) - t(a)* t(a) = (a* a - a a*)^t, indefinite for a = E_01
        assert schwarz_defect(transposition_map(2), samples=30, seed=2) > 0.1

    def test_transposition_satisfies_reversed_order_exactly(self):
        # t(a* a) = a^t (a*)^t by anti-multiplicativity, so the reversed-order
        # gap vanishes identically
        defect = schwarz_defect(transposition_map(2), samples=30, seed=2, reversed_product=True)
        assert defect <= 1e-12

    def test_scaled_identity_fails(self):
        assert schwarz_defect(2.0 * identity_map(2), samples=30, seed=3) > 0.1


class TestSampleCounts:
    """A sampled check over no samples would state a vacuous result (an infinite
    pairing minimum, a Schwarz defect of 0), so a count below 1 is refused before
    any draw.  A count that is not an integer is refused by
    `test_kpositivity.TestIntegerArguments`."""

    @pytest.mark.parametrize("samples", [0, -1])
    @pytest.mark.parametrize("check", [
        pytest.param(lambda s: v_beta_duality_check(gns_context(DIAG_2), 0.25, samples=s),
                     id="v_beta_duality_check"),
        pytest.param(lambda s: schwarz_defect(identity_map(2), samples=s), id="schwarz_defect"),
        pytest.param(lambda s: transposed_cone_consistency(bipartite_context(DIAG_2, DIAG_2), samples=s),
                     id="transposed_cone_consistency"),
    ])
    def test_a_count_below_one_is_refused(self, monkeypatch, check, samples):
        streams = count_stream_work(monkeypatch)
        with pytest.raises(CountOutOfRangeError, match="^samples="):
            check(samples)
        assert streams == {"philox": 0, "rng_stream": 0}


class TestBalanceAdjoint:
    def test_identity_self_adjoint(self):
        ctx = gns_context(DIAG_2)
        result = db_adjoint(ctx, identity_map(2), seed=1)
        assert result.identity_defect <= 1e-10
        assert result.adjoint_map.norm_distance(identity_map(2)) <= 1e-10

    def test_tracial_state_gives_trace_adjoint(self):
        ctx = gns_context(TRACIAL_2)
        rng = rng_stream(11)
        from posmap.maps import random_hermiticity_preserving

        phi = random_hermiticity_preserving(rng, 2, 2)
        result = db_adjoint(ctx, phi, seed=2)
        assert result.adjoint_map.norm_distance(phi.adjoint()) <= 1e-10

    def test_diagonal_unitary_conjugation(self):
        ctx = gns_context(DIAG_2)
        u = np.diag([1.0, np.exp(1j * 0.7)]).astype(complex)
        phi = MatrixMap.from_function(lambda a: u @ a @ u.conj().T, 2, 2)
        psi = MatrixMap.from_function(lambda a: u.conj().T @ a @ u, 2, 2)
        result = db_adjoint(ctx, phi, seed=3)
        assert result.adjoint_map.norm_distance(psi) <= 1e-10
        assert result.positivity.kind == "evidence"

    def test_balance_compatible_map_commutes_with_modular_operator(self):
        # conjugation by a unitary that commutes with the state satisfies the
        # balance identity, and its induced operator commutes with the
        # modular operator
        rng = rng_stream(13)
        ctx = gns_context(random_faithful_state(rng, 3))
        u = ctx.from_frame(np.diag(np.exp(1j * rng.random(3))))
        phi = MatrixMap.from_function(lambda a: u @ a @ u.conj().T, 3, 3)
        induced = t_phi(ctx, phi)
        assert induced.invariance_defect <= 1e-12
        assert induced.delta_commutation_defect <= 1e-12
        assert induced.contraction_defect <= 1e-10
        result = db_adjoint(ctx, phi, seed=4)
        assert result.identity_defect <= 1e-10

    def test_matches_the_unit_pair_loop(self):
        # reference: solve for psi one unit at a time, then take the identity
        # defect over every unit pair (a, b) = (E_ij, E_kl) with traces
        d = 3
        rng = rng_stream(14)
        ctx = gns_context(random_faithful_state(rng, d))
        phi = random_hermiticity_preserving(rng, d, d)
        rho, rho_inv = ctx.rho, np.linalg.inv(ctx.rho)
        units = np.zeros((d, d, d, d), dtype=complex)
        for p in range(d):
            for q in range(d):
                rhs = np.array([[(phi(unit(k, l, d)) @ rho)[q, p] for k in range(d)]
                                for l in range(d)])
                units[p, q] = rho_inv @ rhs
        psi = MatrixMap(units)
        defect = max(
            abs(np.trace(rho @ unit(j, i, d) @ phi(unit(k, l, d)))
                - np.trace(rho @ psi(unit(j, i, d)) @ unit(k, l, d)))
            for i in range(d) for j in range(d) for k in range(d) for l in range(d)
        )
        result = db_adjoint(ctx, phi, seed=5, restarts=2)
        assert result.adjoint_map.norm_distance(psi) <= 1e-12
        assert abs(result.identity_defect - defect) <= 1e-12


class TestConeState:
    def test_cyclic_vector_recovers_the_state(self):
        ctx = gns_context(DIAG_2)
        out = cone_state(ctx, ctx.Omega)
        assert frobenius(out - np.diag(ctx.eigenvalues)) <= 1e-12

    def test_swap_gives_transposed_state(self):
        rng = rng_stream(12)
        ctx = gns_context(random_faithful_state(rng, 3))
        xi = ctx.delta_apply(0.25, random_psd(rng, 3) @ ctx.Omega)
        direct = cone_state(ctx, ctx.U.apply(xi))
        transposed = cone_state(ctx, xi).T
        assert frobenius(direct - transposed) <= 1e-10

    def test_fixed_point_state_is_transposition_invariant(self):
        ctx = gns_context(TRACIAL_2)
        a = np.array([[1.0, 0.2], [0.2, 0.5]], dtype=complex)  # real symmetric
        xi = ctx.delta_apply(0.25, a @ ctx.Omega)
        assert frobenius(ctx.U.apply(xi) - xi) <= 1e-12
        state = cone_state(ctx, xi)
        assert frobenius(state - state.T) <= 1e-12

    def test_rejects_vectors_outside_the_cone(self):
        ctx = gns_context(DIAG_2)
        bad = unit(0, 1, 2) - unit(1, 0, 2)
        with pytest.raises(NotInNaturalConeError):
            cone_state(ctx, bad)
