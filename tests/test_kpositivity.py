"""k-positivity searches, block-matrix conditions, decomposability witnesses."""

import dataclasses

import numpy as np
import pytest

import posmap.choi
import posmap.kpositivity
import posmap.linalg
from posmap.choi import MatrixMap, cp_verdict
from posmap.cones import (
    ConeMembership,
    bipartite_context,
    cone_member,
    split_bounds_check,
    transposed_cone_consistency,
    weak_kdec_cone_check,
)
from posmap.errors import (
    ComponentNotKCopositiveError,
    ComponentNotKPositiveError,
    CountOutOfRangeError,
    DimensionMismatchError,
    KOutOfRangeError,
    NotHermitianError,
)
from posmap.kpositivity import (
    _coefficients,
    _compressed_choi,
    _witness_stack,
    bisect_threshold,
    decomposability_witness,
    decomposition_bound,
    decomposition_certificate,
    dk_compose,
    is_k_copositive,
    is_k_positive,
    k_block_min,
    pk_check,
    sk_check,
    spectral_bound,
    spectral_certificate,
)
from posmap.linalg import (
    PPT_TOL,
    _eigh_bottom,
    alternate_ppt_projections,
    frobenius,
    haar_isometry,
    herm_eig,
    hermitian_part,
    partial_transpose,
    ppt_min_eigs,
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
from posmap.modular import gns_context, schwarz_defect, v_beta_duality_check
from posmap.report import recheck_witness
from posmap.verdicts import EVIDENCE, PASS, VIOLATION, Verdict


def loop_k_block_min(phi, k, *, restarts=32, max_alternations=200, seed=0):
    """Reference for `k_block_min` (k < n): its restarts run one after another,
    one matrix at a time, through the same compression kernels on a stack of
    one and the validating `herm_eig`."""
    m, n = phi.m, phi.n
    h = hermitian_part(phi.choi())
    h4 = h.reshape(m, n, m, n)
    best_val, best, total = np.inf, None, 0
    for r in range(restarts):
        iso = np.eye(n, k, dtype=complex) if r == 0 else haar_isometry(rng_stream(seed, r), n, k)
        prev = np.inf
        for _ in range(max_alternations):
            total += 1
            comp = _compressed_choi(h4, iso[None])[0]
            eig = herm_eig(hermitian_part(comp))
            val, z = float(eig.eigenvalues[0]), eig.eigenvectors[:, 0]
            if val < best_val:
                best_val, best = val, (iso.copy(), z.copy())
            if prev - val < 1e-12:
                break
            prev = val
            zk = z.reshape(m, k)
            coeff = _coefficients(h4, zk[None])[0]
            raw = herm_eig(hermitian_part(coeff)).eigenvectors[:, 0].reshape(n, k)
            u, s, vh = np.linalg.svd(raw, full_matrices=False)
            if s[-1] < 1e-12 * max(s[0], 1.0):
                u, _, vh = np.linalg.svd(raw + 1e-6 * iso, full_matrices=False)
            iso = u @ vh
    iso, z = best
    vector = np.einsum("ak,ik->ia", iso, z.reshape(m, k)).reshape(-1)
    value = float(np.vdot(vector, h @ vector).real)
    stats = {"restarts": restarts, "alternations": total, "seed": seed, "exact": False}
    if value < -psd_tol(h):
        witness = {"projection": iso @ iso.conj().T, "vector": vector}
        return Verdict(VIOLATION, value, witness=witness, stats=stats)
    return Verdict(EVIDENCE, value, stats=stats)


def loop_bisect_threshold(family, k, lo, hi, *, steps=40, restarts=64, seed=0):
    """Reference for `bisect_threshold`: every end and step decided by the full
    `k_block_min` search alone."""
    v_lo = k_block_min(family(lo), k, restarts=restarts, seed=seed)
    v_hi = k_block_min(family(hi), k, restarts=restarts, seed=seed)
    if not v_lo.is_violation or v_hi.is_violation:
        raise ValueError("bisection bracket does not straddle the threshold")
    for step_idx in range(steps):
        mid = (lo + hi) / 2
        if k_block_min(family(mid), k, restarts=restarts, seed=seed + step_idx + 1).is_violation:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def loop_violates(phi, k, restarts, seed):
    """Reference for `_violates` in its former order: the certificate first, then the
    probe through the compression kernel and `_eigh_bottom`, then the full search."""
    h, tol = posmap.kpositivity._search_choi(phi, k)
    margin = posmap.kpositivity._ROUNDING_SHARE * tol
    if spectral_bound(h, phi.m, phi.n, k) >= -tol + margin:
        return False
    h4 = h.reshape(phi.m, phi.n, phi.m, phi.n)
    probe = _eigh_bottom(hermitian_part(_compressed_choi(h4, np.eye(phi.n, k)[None])))[0]
    if probe[0] < -tol - margin:
        return True
    return k_block_min(phi, k, restarts=restarts, seed=seed).is_violation


def loop_decomposability_witness(h, m, n, *, step=1e-2, max_iter=2000, tol=None, stall_break=None):
    """Reference for `decomposability_witness`: one projected-gradient search,
    one matrix at a time."""
    hm = hermitian_part(np.asarray(h, dtype=complex))
    d = m * n
    if tol is None:
        tol = psd_tol(hm)
    w = np.eye(d, dtype=complex) / d
    eta, obj, iters, stalled = step, float(np.trace(w @ hm).real), 0, 0
    for iters in range(1, max_iter + 1):
        cand = alternate_ppt_projections(w - eta * hm, m, n, "first", 1)
        tr = np.trace(cand).real
        cand = np.eye(d, dtype=complex) / d if tr <= 1e-14 else cand / tr
        new_obj = float(np.trace(cand @ hm).real)
        if new_obj < obj - 1e-15:
            w, obj, stalled = cand, new_obj, 0
        else:
            eta *= 0.5
            stalled += 1
            if eta < 1e-12:
                break
            if stall_break is not None and stalled >= stall_break and obj > -tol:
                break
    worst = min(ppt_min_eigs(w, m, n, "first"))
    mix = min(0.5, 2.0 * d * max(0.0, -worst) + 1e-6)
    w_cert = (1 - mix) * hermitian_part(w) + mix * np.eye(d, dtype=complex) / d
    value = float(np.trace(w_cert @ hm).real)
    feasible = min(ppt_min_eigs(w_cert, m, n, "first")) >= -1e-12
    stats = {"iterations": iters, "feasible": bool(feasible)}
    if feasible and value < -tol:
        return Verdict(VIOLATION, value, witness={"state": w_cert}, stats=stats)
    return Verdict(EVIDENCE, value, stats=stats)


def loop_pk_check(phi, k, *, projections=100, seed=0, witness_iters=200, tol=None):
    """Reference for `pk_check`: its corners are decided one after another,
    each rank >= 2 corner by its own witness search."""
    m, n = phi.m, phi.n
    worst = np.inf
    for t in range(projections):
        rng = rng_stream(seed, t)
        rank = int(rng.integers(1, min(k, n) + 1))
        iso = haar_isometry(rng, n, rank)
        corner = MatrixMap.from_function(lambda a: iso.conj().T @ phi(a) @ iso, m, rank)
        hc = hermitian_part(corner.choi())
        if rank == 1:
            value = float(np.linalg.eigvalsh(hc)[0])
            violated = value < -(psd_tol(hc) if tol is None else tol)
            if violated:
                bottom = herm_eig(hc).eigenvectors[:, 0]
                state = np.outer(bottom, bottom.conj())
        else:
            sub = loop_decomposability_witness(hc, m, rank, max_iter=witness_iters, tol=tol,
                                               stall_break=15)
            value, violated = sub.value, sub.is_violation
            state = sub.witness["state"] if violated else None
        worst = min(worst, value)
        if violated:
            return Verdict(VIOLATION, value, witness={"isometry": iso, "state": state},
                           stats={"projections": t + 1, "seed": seed})
    return Verdict(EVIDENCE, worst, stats={"projections": projections, "seed": seed})


def loop_sample_doubly_psd_block(rng, k, m, *, max_tries=40):
    """A block on C^k (x) C^m, PSD in both orderings, drawn from one stream: a
    separable form with probability 1/2, else the first of `max_tries` PSD draws
    with a PSD first-factor partial transpose, else 25 rounds of alternating PSD
    projections, else a product."""
    if rng.random() < 0.5:
        terms = int(rng.integers(1, 5))
        a = np.zeros((k * m, k * m), dtype=complex)
        for _ in range(terms):
            p = random_psd(rng, k)
            q = random_psd(rng, m)
            a += np.kron(p, q)
        return a / max(np.trace(a).real, 1e-300)
    for _ in range(max_tries):
        a = random_psd(rng, k * m)
        a = a / np.trace(a).real
        pt = partial_transpose(a, k, m, "first")
        if np.linalg.eigvalsh(hermitian_part(pt))[0] >= -1e-14:
            return a
    a = alternate_ppt_projections(random_psd(rng, k * m), k, m, "first", 25)
    pt = partial_transpose(a, k, m, "first")
    if (
        np.trace(a).real < 1e-12
        or np.linalg.eigvalsh(hermitian_part(pt))[0] < -1e-11 * max(1.0, frobenius(a))
    ):
        p = random_psd(rng, k)
        q = random_psd(rng, m)
        a = np.kron(p, q)
    return a / np.trace(a).real


def loop_sk_check(phi, k, *, samples=500, seed=0, tol=None):
    """An oracle for `sk_check` independent of its corner search: sample s draws
    its block from `rng_stream(seed, s)` (`loop_sample_doubly_psd_block`), and
    the first block whose image under id_k (x) phi has a negative eigenvalue is
    the violation."""
    worst = np.inf
    for s in range(samples):
        a = loop_sample_doubly_psd_block(rng_stream(seed, s), k, phi.m)
        image = hermitian_part(phi.apply_blockwise(a, k))
        bound = psd_tol(image) if tol is None else tol
        min_eig = float(np.linalg.eigvalsh(image)[0])
        worst = min(worst, min_eig)
        if min_eig < -bound:
            return Verdict(VIOLATION, min_eig, witness={"block": a},
                           stats={"samples": s + 1, "seed": seed})
    return Verdict(EVIDENCE, worst, stats={"samples": samples, "seed": seed})


def assert_same_verdict(got, want):
    """Equal kind, value and stats, and bitwise equal witness arrays."""
    assert (got.kind, got.value, got.stats) == (want.kind, want.value, want.stats)
    assert (got.witness is None) == (want.witness is None)
    for key, arr in (want.witness or {}).items():
        assert np.array_equal(got.witness[key], arr), key


def count_validations(monkeypatch, modules=(posmap.linalg, posmap.choi, posmap.kpositivity),
                      names=("as_matrix", "check_hermitian")):
    """Count calls to the validators `names` through every module that calls
    them; returns the live counter."""
    counter = {"calls": 0}
    for name in names:
        original = getattr(posmap.linalg, name)

        def counted(*args, _original=original, **kwargs):
            counter["calls"] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counter


def count_calls(monkeypatch, name, module=posmap.kpositivity):
    """Count the calls of `module.name`; returns the live counter."""
    counter, original = {"calls": 0}, getattr(module, name)

    def counted(*args, **kwargs):
        counter["calls"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return counter


def count_stream_work(monkeypatch):
    """Count Philox constructions and `rng_stream` calls through every module
    that makes them; returns the live counter."""
    counter = {"philox": 0, "rng_stream": 0}

    def counting(key, original):
        def counted(*args, **kwargs):
            counter[key] += 1
            return original(*args, **kwargs)

        return counted

    monkeypatch.setattr(np.random, "Philox", counting("philox", np.random.Philox))
    original = posmap.linalg.rng_stream
    for module in (posmap.linalg, posmap.kpositivity):
        if getattr(module, "rng_stream", None) is original:
            monkeypatch.setattr(module, "rng_stream", counting("rng_stream", original))
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


class TestCompressionKernels:
    """The see-saw's batched matrix products against the contractions they compute."""

    @pytest.mark.parametrize("m,n", [(1, 3), (2, 3), (3, 2), (2, 4), (3, 4)])
    @pytest.mark.parametrize("size", [1, 64])
    def test_kernels_equal_their_definitions(self, m, n, size):
        rng = rng_stream(61, 10 * m + n)
        h4 = hermitian_part(random_complex(rng, (m * n, m * n))).reshape(m, n, m, n)
        for k in range(1, n):
            iso = np.array([haar_isometry(rng, n, k) for _ in range(size)])
            z = random_complex(rng, (size, m, k))
            want = np.einsum("rak,iajb,rbl->rikjl", iso.conj(), h4, iso).reshape(size, m * k, m * k)
            got = _compressed_choi(h4, iso)
            assert got.shape == want.shape
            assert frobenius(got - want) <= 1e-12 * frobenius(want)
            want = np.einsum("rik,iajb,rjl->rakbl", z.conj(), h4, z).reshape(size, n * k, n * k)
            got = _coefficients(h4, z)
            assert got.shape == want.shape
            assert frobenius(got - want) <= 1e-12 * frobenius(want)

    @pytest.mark.parametrize("m,n,k", [(2, 3, 1), (3, 3, 2), (2, 4, 3)])
    def test_a_stack_member_gets_what_it_gets_alone(self, m, n, k):
        rng = rng_stream(62, m + n + k)
        h4 = hermitian_part(random_complex(rng, (m * n, m * n))).reshape(m, n, m, n)
        iso = np.array([haar_isometry(rng, n, k) for _ in range(16)])
        z = random_complex(rng, (16, m, k))
        stacked, coeffs = _compressed_choi(h4, iso), _coefficients(h4, z)
        for r in range(16):
            assert np.array_equal(_compressed_choi(h4, iso[r : r + 1])[0], stacked[r])
            assert np.array_equal(_coefficients(h4, z[r : r + 1])[0], coeffs[r])


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

    def test_matches_the_restart_loop_through_the_svd_rescue(self, monkeypatch):
        # a product-vector Choi matrix makes every rank-2 refit rank one, the
        # first one included, so each restart takes the rescue at once
        h = np.zeros((9, 9), dtype=complex)
        h[0, 0], h[4, 4] = -1.0, 0.5
        phi = MatrixMap.from_choi(h, 3, 3)
        svd, inputs = np.linalg.svd, []

        def recorded_svd(a, **kwargs):
            inputs.append(np.array(a))
            return svd(a, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded_svd)
        search = {"restarts": 4, "seed": 1}
        v = k_block_min(phi, 2, **search)
        first_refit, rescue = inputs[:2]
        s = svd(first_refit, compute_uv=False)
        assert first_refit.shape == rescue.shape == (4, 3, 2)
        assert np.all(s[:, -1] < 1e-12 * s[:, 0])
        assert np.all(svd(rescue, compute_uv=False)[:, -1] > 1e-7)
        p = v.witness["projection"]
        assert frobenius(p @ p - p) <= 1e-12 and frobenius(p - p.conj().T) <= 1e-12
        assert np.trace(p).real == pytest.approx(2.0, abs=1e-12)
        assert_same_verdict(v, loop_k_block_min(phi, 2, **search))

    def test_draws_only_the_haar_starts(self, monkeypatch):
        # one block of 2nk normals from each of streams 1..R-1 and none from
        # stream 0, whatever the alternations do
        normals, starts = [], []
        stream_normals = posmap.kpositivity._stream_normals
        compressed_choi = posmap.kpositivity._compressed_choi

        def recorded_normals(seek, streams, width):
            normals.append((list(streams), width))
            return stream_normals(seek, streams, width)

        def recorded_compression(h4, iso):
            starts.append(iso.copy())
            return compressed_choi(h4, iso)

        monkeypatch.setattr(posmap.kpositivity, "_stream_normals", recorded_normals)
        monkeypatch.setattr(posmap.kpositivity, "_compressed_choi", recorded_compression)
        phi = random_map_near_cp(rng_stream(43), 2, 4, mix=0.6)
        v = k_block_min(phi, 2, restarts=6, seed=9)
        assert v.stats["alternations"] > 6
        assert normals == [([1, 2, 3, 4, 5], 2 * 4 * 2)]
        assert np.array_equal(starts[0][0], np.eye(4, 2))
        for r in range(1, 6):
            assert np.array_equal(starts[0][r], haar_isometry(rng_stream(9, r), 4, 2))

    def test_matches_the_restart_loop_when_alternations_run_out(self, monkeypatch):
        monkeypatch.setattr(posmap.kpositivity, "_MAX_ALTERNATIONS", 2)
        phi = random_map_near_cp(rng_stream(42), 3, 3, mix=0.6)
        search = {"restarts": 9, "seed": 5}
        assert_same_verdict(k_block_min(phi, 1, **search),
                            loop_k_block_min(phi, 1, max_alternations=2, **search))

    def test_an_empty_search_is_refused(self):
        # without a restart there is no eigenvector to value
        with pytest.raises(CountOutOfRangeError):
            k_block_min(reduction_family(0.5, 3), 1, restarts=0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_validation_does_not_grow_with_restarts(self, monkeypatch, k):
        counter = count_validations(monkeypatch)
        counts = []
        for restarts in (2, 32):
            counter["calls"] = 0
            k_block_min(reduction_family(1.5, 3), k, restarts=restarts, seed=3)
            counts.append(counter["calls"])
        assert counts[0] == counts[1]


# the reduction map's restarts converge in two alternations; on the other two
# some of 64 restarts run long
STREAM_MAPS = {
    "reduction_1.5": lambda: reduction_family(1.5, 3),
    "near_cp": lambda: random_map_near_cp(rng_stream(41, 2), 3, 3, mix=0.3),
    "decomposable": lambda: random_decomposable_map(rng_stream(514), 3, 3)[0],
}
SEARCHES = {
    "k_block_min": lambda phi, size: k_block_min(phi, 2, restarts=size, seed=3),
    "k_positive_1": lambda phi, size: is_k_positive(phi, 1, restarts=size, seed=3),
    "pk_check": lambda phi, size: pk_check(phi, 3, projections=size, seed=3),
}


class TestStreamWork:
    @pytest.mark.parametrize("case", sorted(STREAM_MAPS))
    @pytest.mark.parametrize("search", sorted(SEARCHES))
    def test_one_bit_generator_a_search_at_any_size(self, monkeypatch, search, case):
        phi = STREAM_MAPS[case]()
        counter = count_stream_work(monkeypatch)
        counts = []
        for size in (2, 64):
            counter.update(philox=0, rng_stream=0)
            SEARCHES[search](phi, size)
            counts.append(dict(counter))
        assert counts == [{"philox": 1, "rng_stream": 0}] * 2


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

    def test_agrees_with_the_adjoint_at_k1(self):
        # phi is positive exactly when its adjoint is, and both searches minimise
        # the same form over product vectors with the tensor factors swapped
        for t in range(100):
            phi = random_map_near_cp(rng_stream(501, t), 2, 3, mix=0.6)
            v = is_k_positive(phi, 1, restarts=16, seed=t)
            va = is_k_positive(phi.adjoint(), 1, restarts=16, seed=t)
            assert v.is_violation == va.is_violation
            # two see-saws stopped on a small improvement, not an exact minimum
            assert v.value == pytest.approx(va.value, abs=1e-6)

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
    def test_decomposable_map_passes(self):
        rng = rng_stream(504)
        total, phi1, phi2 = random_decomposable_map(rng, 2, 2)
        v = sk_check(total, 2, samples=100, seed=5)
        assert v.kind == EVIDENCE
        assert v.value >= -1e-9

    def test_negative_identity_violates_immediately(self):
        v = sk_check(-1.0 * identity_map(2), 2, samples=10, seed=0)
        assert v.kind == VIOLATION
        assert v.stats["projections"] == 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_transposition_passes_every_k(self, k):
        v = sk_check(transposition_map(3), k, samples=60, seed=k)
        assert v.kind == EVIDENCE


def stream_position(rng):
    """Everything that decides a Philox stream's next draws."""
    state = rng.bit_generator.state
    return (tuple(state["state"]["counter"]), tuple(state["buffer"]), state["buffer_pos"],
            state["has_uint32"], state["uinteger"])


# maps whose first sampled block violation (loop_sk_check, samples=200, seed=1)
# falls at various samples s, and maps that survive the budget
SK_MAPS = {
    **{f"near_cp_{t}": (lambda t=t: random_map_near_cp(rng_stream(41, t), 2 + t % 2, 3, mix=0.3))
       for t in range(8)},
    "decomposable_2x2": lambda: random_decomposable_map(rng_stream(515), 2, 2)[0],
    "decomposable_3x3": lambda: random_decomposable_map(rng_stream(516), 3, 3)[0],
    "reduction_1.5": lambda: reduction_family(1.5, 3),
    "negated_identity": lambda: -1.0 * identity_map(2),
}


class TestCornerRoute:
    """`sk_check` decides the block condition through the corner search; the
    sampled blocks of `loop_sk_check` are its independent oracle."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(SK_MAPS))
    def test_every_sampled_violation_is_found_and_every_block_rechecks(self, case, k):
        phi = SK_MAPS[case]()
        for seed in range(3):
            got = sk_check(phi, k, samples=200, seed=seed)
            if loop_sk_check(phi, k, samples=200, seed=seed).is_violation:
                assert got.is_violation, (case, k, seed, got.value)
            if got.is_violation:
                block = got.witness["block"]
                assert min(ppt_min_eigs(block, k, phi.m, "first")) >= -PPT_TOL
                assert recheck_witness(f"sk_{k}", phi, got.witness) == pytest.approx(got.value, abs=1e-10)

    def test_validation_does_not_grow_with_samples(self, monkeypatch):
        counter = count_validations(monkeypatch)
        phi = SK_MAPS["decomposable_3x3"]()
        counts = []
        for samples in (5, 60):
            counter["calls"] = 0
            assert sk_check(phi, 2, samples=samples, seed=1).kind == EVIDENCE
            counts.append(counter["calls"])
        assert counts[0] == counts[1]


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

    def test_parts_of_other_dimensions_are_a_dimension_mismatch(self):
        # a shape error, not a k-positivity verdict on the first part
        with pytest.raises(DimensionMismatchError):
            dk_compose(identity_map(2), identity_map(3), transposition_map(2), 2, restarts=8, seed=5)


class TestDecomposabilityWitness:
    def test_psd_choi_gives_evidence(self):
        rng = rng_stream(506)
        h = random_psd(rng, 4)
        v = decomposability_witness(h, 2, 2)
        assert v.kind == EVIDENCE
        assert v.value >= -1e-9

    def test_swap_gives_evidence(self):
        v = decomposability_witness(swap_operator(2), 2, 2)
        assert v.kind == EVIDENCE
        assert v.value >= -1e-9

    def test_choi_qutrit_map_refuted(self):
        h = hermitian_part(choi_qutrit_map().choi())
        v = decomposability_witness(h, 3, 3)
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


def decomposable_maps():
    """(name, map) for the decomposable families the primal search certifies:
    CP, co-CP and CP + co-CP maps at 2x2, 2x3 and 3x3, transposition, and the
    reduction family at lam >= 1 (co-CP there: its partial transpose is
    lam I - flip >= 0)."""
    for t, (m, n) in enumerate([(2, 2), (2, 3), (3, 3)]):
        rng = rng_stream(940, t)
        total, cp_part, ccp_part = random_decomposable_map(rng, m, n)
        yield f"cp-{m}x{n}", cp_part
        yield f"ccp-{m}x{n}", ccp_part
        yield f"dec-{m}x{n}", total
    yield "transposition-2", transposition_map(2)
    yield "transposition-3", transposition_map(3)
    for lam in (1.0, 1.5, 2.5):
        yield f"reduction-{lam}", reduction_family(lam, 3)


class TestDecompositionCertificate:
    @pytest.mark.parametrize("name,phi", list(decomposable_maps()))
    def test_decomposable_maps_are_certified_and_never_refuted(self, name, phi):
        h = hermitian_part(phi.choi())
        cert = decomposition_certificate(h, phi.m, phi.n)
        assert cert.kind == PASS, (name, cert.value, cert.stats)
        assert cert.stats["termination"] == "converged"
        assert cert.value >= -psd_tol(h)
        # the re-check of the certificate is its stated value
        assert recheck_witness("decomposable", phi, cert.witness) == cert.value
        # cross-check: with a certificate, the full-budget dual search and the
        # corner search can find no violation
        assert decomposability_witness(h, phi.m, phi.n).kind == EVIDENCE
        for k in range(1, phi.n + 1):
            assert pk_check(phi, k, projections=12, seed=k).kind == EVIDENCE

    @pytest.mark.parametrize("name,phi", list(decomposable_maps()))
    def test_certificate_bounds_every_sampled_block_image(self, name, phi):
        # with h = P + Q^G, the image of a trace-one block PSD in both orderings
        # has no eigenvalue below min(lambda_min(P), 0) + min(lambda_min(Q), 0),
        # the certificate's value, whatever k: classify's sk_ records rest on this
        cert = decomposition_certificate(hermitian_part(phi.choi()), phi.m, phi.n)
        assert cert.kind == PASS
        for k in range(1, phi.n + 1):
            sampled = loop_sk_check(phi, k, samples=200, seed=k)
            assert sampled.kind == EVIDENCE, (name, k, sampled.value)
            assert sampled.value >= cert.value - 1e-12, (name, k, sampled.value, cert.value)

    @pytest.mark.parametrize("name,phi", [
        ("choi-qutrit", choi_qutrit_map()),
        ("reduction-0.5", reduction_family(0.5, 3)),
        ("reduction-0.99", reduction_family(0.99, 3)),
        ("reduction-2x2-0.9", reduction_family(0.9, 2)),
        ("negated-identity", -1.0 * identity_map(2)),
        ("negated-identity-3", -1.0 * identity_map(3)),
    ])
    def test_maps_that_are_not_decomposable_are_never_certified(self, name, phi):
        h = hermitian_part(phi.choi())
        cert = decomposition_certificate(h, phi.m, phi.n)
        assert cert.kind == EVIDENCE and cert.witness is None
        assert cert.value < -psd_tol(h)
        assert cert.stats["termination"] in ("stalled", "max_iter")
        assert cert.stats["iterations"] <= 500
        # weak duality: the best bound is below every PPT pairing, the witness's too
        witness = decomposability_witness(h, phi.m, phi.n)
        assert witness.is_violation and witness.value >= cert.value

    def test_positive_maps_on_a_qubit_input_are_certified(self):
        # every positive map M_2 -> M_2 and M_2 -> M_3 is decomposable
        # (Stormer 1963, Woronowicz 1976): each near-CP map that passes block
        # positivity gets a certificate
        for m, n in [(2, 2), (2, 3)]:
            certified = t = 0
            while certified < 12 and t < 400:
                phi = random_map_near_cp(rng_stream(950 + n, t), m, n, mix=0.3)
                h = hermitian_part(phi.choi())
                t += 1
                if is_k_positive(phi, 1, restarts=16, seed=t).kind == EVIDENCE:
                    cert = decomposition_certificate(h, m, n)
                    assert cert.kind == PASS, (m, n, t, cert.value, cert.stats)
                    certified += 1
            assert certified == 12

    def test_certificate_is_deterministic_and_stores_only_q(self):
        phi = random_decomposable_map(rng_stream(941), 2, 3)[0]
        h = hermitian_part(phi.choi())
        first, second = decomposition_certificate(h, 2, 3), decomposition_certificate(h, 2, 3)
        assert first.kind == PASS and set(first.witness) == {"q"}
        assert np.array_equal(first.witness["q"], second.witness["q"])
        assert first.value == second.value and first.stats == second.stats

    def test_bound_is_a_lower_bound_on_every_ppt_pairing(self):
        # Tr(w h) >= bound for PPT states w, whatever Q is
        phi = random_hermiticity_preserving(rng_stream(942), 2, 2)
        h = hermitian_part(phi.choi())
        for t in range(20):
            q = random_complex(rng_stream(943, t), (4, 4))
            bound = decomposition_bound(h, q @ q.conj().T, 2, 2)
            w = alternate_ppt_projections(random_psd(rng_stream(944, t), 4), 2, 2, "first", 30)
            w /= np.trace(w).real
            if min(ppt_min_eigs(w, 2, 2, "first")) >= -1e-12:
                assert np.trace(w @ h).real >= bound - 1e-9

    def test_input_is_validated(self):
        with pytest.raises(ValueError):
            decomposition_certificate(np.eye(4), 2, 3)
        with pytest.raises(NotHermitianError):
            decomposition_certificate(np.triu(np.ones((4, 4))), 2, 2)


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


class TestStackedCorners:
    @pytest.mark.parametrize("projections", [1, 40])
    @pytest.mark.parametrize("m,k", [(2, 2), (3, 2), (3, 3)])
    def test_matches_the_corner_loop_on_decomposable_maps(self, m, k, projections):
        for t in range(2):
            total, _, _ = random_decomposable_map(rng_stream(511, 10 * m + t), m, m)
            got = pk_check(total, k, projections=projections, seed=t)
            assert got.kind == EVIDENCE
            assert_same_verdict(got, loop_pk_check(total, k, projections=projections, seed=t))

    @pytest.mark.parametrize("phi", [-1.0 * identity_map(2), reduction_family(0.5, 3)],
                             ids=["negated_identity", "reduction_half"])
    def test_matches_the_corner_loop_on_an_early_rank_one_violation(self, phi):
        got = pk_check(phi, 2, projections=40, seed=1)
        assert got.kind == VIOLATION
        assert_same_verdict(got, loop_pk_check(phi, 2, projections=40, seed=1))

    # on the 2x3 map the rank-2 corner t = 1 violates, and so does the
    # rank-3 corner t = 2, whose stack runs after the rank-2 one
    @pytest.mark.parametrize("m,k,first", [(3, 2, 15), (3, 3, 3), (2, 3, 2)])
    def test_matches_the_corner_loop_when_a_stacked_corner_violates_first(self, m, k, first):
        phi = random_map_near_cp(rng_stream(41, 2), m, 3, mix=0.3)
        got = pk_check(phi, k, projections=40, seed=2)
        rank = got.witness["isometry"].shape[1]
        assert (got.kind, got.stats["projections"], rank >= 2) == (VIOLATION, first, True)
        assert_same_verdict(got, loop_pk_check(phi, k, projections=40, seed=2))
        assert recheck_witness(f"pk_{k}", phi, got.witness) == pytest.approx(got.value, abs=1e-10)

    # corners are built in chunks [0, 4), [4, 8), [8, 16), ...; the walk ends
    # with the chunk that holds the first violation
    @pytest.mark.parametrize("m,k,first,built", [(2, 3, 2, 4), (3, 2, 15, 16)])
    def test_walk_stops_after_the_chunk_holding_the_first_violation(self, monkeypatch, m, k,
                                                                    first, built):
        ranks = []
        original = posmap.kpositivity.haar_isometry

        def counted(rng, n, rank):
            ranks.append(rank)
            return original(rng, n, rank)

        monkeypatch.setattr(posmap.kpositivity, "haar_isometry", counted)
        phi = random_map_near_cp(rng_stream(41, 2), m, 3, mix=0.3)
        got = pk_check(phi, k, projections=40, seed=2)
        assert (got.stats["projections"], len(ranks)) == (first, built)

    @pytest.mark.parametrize("stall_break", [None, 20])
    def test_witness_matches_its_loop(self, stall_break):
        maps = [choi_qutrit_map(), random_map_near_cp(rng_stream(512), 2, 3, mix=0.3),
                random_decomposable_map(rng_stream(513), 2, 2)[0]]
        for phi in maps:
            h = hermitian_part(phi.choi())
            ((value, feasible, state, iters),) = _witness_stack(
                h[None], phi.m, phi.n, max_iter=400, stall_break=stall_break
            )
            want = loop_decomposability_witness(h, phi.m, phi.n, max_iter=400,
                                                stall_break=stall_break)
            assert (value, feasible, iters) == (want.value, want.stats["feasible"],
                                                want.stats["iterations"])
            assert want.witness is None or np.array_equal(state, want.witness["state"])

    def test_witness_at_its_full_budget_matches_its_loop(self):
        phi = random_map_near_cp(rng_stream(512), 2, 3, mix=0.3)
        h = hermitian_part(phi.choi())
        assert_same_verdict(decomposability_witness(h, 2, 3), loop_decomposability_witness(h, 2, 3))

    def test_validation_does_not_grow_with_projections(self, monkeypatch):
        counter = count_validations(monkeypatch)
        total, _, _ = random_decomposable_map(rng_stream(514), 3, 3)
        counts = []
        for projections in (5, 40):
            counter["calls"] = 0
            assert pk_check(total, 3, projections=projections, seed=1).kind == EVIDENCE
            counts.append(counter["calls"])
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("call", [
        lambda: pk_check(identity_map(2), 1, projections=0),
        lambda: sk_check(identity_map(2), 1, samples=0),
        lambda: k_block_min(identity_map(2), 1, restarts=0),
        lambda: is_k_positive(identity_map(2), 1, restarts=-3),
        lambda: bisect_threshold(lambda lam: reduction_family(lam, 3), 1, 0.2, 2.0, restarts=0),
    ], ids=["pk_check", "sk_check", "k_block_min", "is_k_positive", "bisect_threshold"])
    def test_counts_below_one_are_rejected(self, call):
        with pytest.raises(CountOutOfRangeError):
            call()


def integer_arguments():
    """One param (call of one argument value, error) for every block size and count of
    the k-positivity searches, the weak-decomposability cone check and the sampled
    modular and cone checks, cone membership's hull sampling among them."""
    phi, family = identity_map(2), lambda lam: reduction_family(lam, 3)
    ctx = gns_context(np.eye(2) / 2)
    pair = bipartite_context(np.eye(2) / 2, np.diag([0.7, 0.3]))
    calls = {
        "k_block_min-k": lambda v: k_block_min(phi, v, restarts=2),
        "is_k_positive-k": lambda v: is_k_positive(phi, v, restarts=2),
        "is_k_copositive-k": lambda v: is_k_copositive(phi, v, restarts=2),
        "sk_check-k": lambda v: sk_check(phi, v, samples=2),
        "pk_check-k": lambda v: pk_check(phi, v, projections=2),
        "spectral_bound-k": lambda v: spectral_bound(np.eye(4), 2, 2, v),
        "bisect_threshold-k": lambda v: bisect_threshold(family, v, 0.2, 2.0, steps=2),
        "weak_kdec_cone_check-k": lambda v: weak_kdec_cone_check(ctx, phi, v, samples=2),
        "k_block_min-restarts": lambda v: k_block_min(phi, 1, restarts=v),
        "sk_check-samples": lambda v: sk_check(phi, 1, samples=v),
        "pk_check-projections": lambda v: pk_check(phi, 1, projections=v),
        "bisect_threshold-restarts": lambda v: bisect_threshold(family, 1, 0.2, 2.0, steps=2,
                                                                restarts=v),
        "bisect_threshold-steps": lambda v: bisect_threshold(family, 1, 0.2, 2.0, steps=v),
        "weak_kdec_cone_check-samples": lambda v: weak_kdec_cone_check(ctx, phi, 1, samples=v),
        "v_beta_duality_check-samples": lambda v: v_beta_duality_check(ctx, 0.25, samples=v),
        "schwarz_defect-samples": lambda v: schwarz_defect(phi, samples=v),
        "transposed_cone_consistency-samples": lambda v: transposed_cone_consistency(pair, samples=v),
        "cone_member-hull_samples": lambda v: cone_member(pair, pair.omega, hull_samples=v),
        "split_bounds_check-eta_samples": lambda v: split_bounds_check(pair, pair.omega, eta_samples=v),
    }
    return [
        pytest.param(call, KOutOfRangeError if name.endswith("-k") else CountOutOfRangeError, id=name)
        for name, call in calls.items()
    ]


class TestIntegerArguments:
    """A block size or count that is a float or a bool is an input error, never a
    silent answer; numpy integers are integers."""

    @pytest.mark.parametrize("value", [1.5, 2.0, np.float64(2.0), True, False, "2"])
    @pytest.mark.parametrize("call, error", integer_arguments())
    def test_a_non_integer_is_refused_before_any_work(self, monkeypatch, call, error, value):
        choi = count_calls(monkeypatch, "choi", module=MatrixMap)
        streams = count_stream_work(monkeypatch)
        with pytest.raises(error):
            call(value)
        assert choi["calls"] == 0 and streams == {"philox": 0, "rng_stream": 0}

    @pytest.mark.parametrize("call, error", integer_arguments())
    def test_a_numpy_integer_is_accepted(self, call, error):
        got, want = call(np.int64(2)), call(2)
        if isinstance(want, Verdict):
            assert_same_verdict(got, want)
        elif isinstance(want, ConeMembership):  # holds arrays, so compared field by field
            for field in dataclasses.fields(ConeMembership):
                assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name
        else:
            assert got == want


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
            if is_k_positive(phi, 1, restarts=16, seed=t).kind == EVIDENCE:
                passed += 1
                ((value, feasible, _, _),) = _witness_stack(h[None], 2, 2, max_iter=2000,
                                                            stall_break=20)
                assert not (feasible and value < -psd_tol(h))
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

    # float.hex of each bench setting's bisection value at seed 301 (steps=40,
    # restarts=64): any change that moves one decision moves these bits
    PINNED = {
        (3, 1): "0x1.ffffffe23fccdp-1",
        (3, 2): "0x1.ffffffe753cccp+0",
        (4, 1): "0x1.ffffffd5ea99ap-1",
        (4, 2): "0x1.ffffffdda3000p+0",
        (4, 3): "0x1.7fffffe6f4d9cp+1",
    }

    @pytest.mark.parametrize("n, k", list(PINNED))
    def test_the_bench_settings_keep_their_bisection_bits(self, n, k):
        value = bisect_threshold(lambda lam: reduction_family(lam, n), k, 0.2, k + 1, steps=40,
                                 restarts=64, seed=301)
        assert float(value).hex() == self.PINNED[n, k]

    def test_a_negative_step_count_is_refused(self):
        family = lambda lam: reduction_family(lam, 3)  # noqa: E731
        with pytest.raises(CountOutOfRangeError):
            bisect_threshold(family, 1, 0.2, 2.0, steps=-3)
        assert bisect_threshold(family, 1, 0.2, 2.0, steps=0) == 1.1

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_out_of_range_is_refused_before_any_step(self, k):
        # the spectral bound proves 3-positivity at lam = 3.5, so the certificate
        # would settle the bracket's lower end if it came before the check
        with pytest.raises(KOutOfRangeError):
            bisect_threshold(lambda lam: reduction_family(lam, 3), k, 3.5, 5.0, steps=2)

    @pytest.mark.parametrize("at", [0.2, 1.1, 2.0])
    def test_a_map_not_preserving_hermiticity_is_refused(self, at):
        # at 1.1 and 2.0 the spectral bound of the Hermitian part would prove
        # 1-positivity; the map is refused before that
        skew = np.zeros((9, 9), dtype=complex)
        skew[0, 1] = 1e-3

        def family(lam):
            h = hermitian_part(reduction_family(lam, 3).choi())
            return MatrixMap.from_choi(h + skew if lam == at else h, 3, 3)

        with pytest.raises(NotHermitianError):
            bisect_threshold(family, 1, 0.2, 2.0, steps=1)


def shifted_family(h0, m, n):
    """t -> the map with Choi matrix h0 + t I: h0's map plus t Tr(a) I."""
    return lambda t: MatrixMap.from_choi(h0 + t * np.eye(m * n), m, n)


def random_hermitian_choi(seed):
    h = hermitian_part(random_complex(rng_stream(71, seed), (9, 9)))
    return h / frobenius(h)


class TestThresholdShortcuts:
    """`bisect_threshold`'s certificate and probe against the see-saw-only bisection."""

    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (4, 4)])
    def test_equals_the_see_saw_bisection_on_the_reduction_family(self, n, k):
        family = lambda lam: reduction_family(lam, n)  # noqa: E731
        want = loop_bisect_threshold(family, k, 0.2, k + 1, seed=5)
        assert bisect_threshold(family, k, 0.2, k + 1, seed=5) == want

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("case", ["choi_qutrit", "random_0", "random_1"])
    def test_equals_the_see_saw_bisection_where_the_certificate_is_loose(self, monkeypatch,
                                                                         case, k):
        if case == "choi_qutrit":
            h0 = hermitian_part(choi_qutrit_map().choi())
        else:
            h0 = random_hermitian_choi(int(case[-1]))
        w = np.linalg.eigvalsh(h0)
        # everything below -lambda_max(h0) violates, everything above -lambda_min(h0) is CP
        lo, hi = -w[-1] - 0.5, -w[0] + 0.5
        family = shifted_family(h0, 3, 3)
        want = loop_bisect_threshold(family, k, lo, hi, steps=25, restarts=16, seed=3)
        full = count_calls(monkeypatch, "k_block_min")
        assert bisect_threshold(family, k, lo, hi, steps=25, restarts=16, seed=3) == want
        assert 0 < full["calls"] < 27

    def test_a_probe_violation_is_a_violation_of_the_full_search(self, monkeypatch):
        # every decision of _violates is the full search's; a violation that no
        # full search decided is the probe's (at least 10 occur); where the full
        # search runs, its first bottom eigenvalue of restart 0 is the probe's bits.
        # A searched decision calls eigh on the probe's corner, then on h (the
        # certificate), then on the search's first stack, whose member 0 is restart 0
        full, probed, searched, firsts = count_calls(monkeypatch, "k_block_min"), 0, 0, []
        eigh = np.linalg.eigh

        def recorded(a):
            result = eigh(a)
            firsts.append(result[0].reshape(-1, a.shape[-1])[0, 0])
            return result

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        for t in range(40):
            rng = rng_stream(72, t)
            m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            phi = random_map_near_cp(rng, m, n, mix=float(rng.choice([0.3, 0.6, 1.0])))
            for k in range(1, n):
                full["calls"], firsts[:] = 0, []
                decided = posmap.kpositivity._violates(phi, k, 32, t)
                probed += decided and full["calls"] == 0
                if full["calls"]:
                    searched += 1
                    assert firsts[2] == firsts[0]
                assert decided == k_block_min(phi, k, restarts=32, seed=t).is_violation
        assert probed >= 10 and searched >= 10

    @pytest.mark.parametrize("family", ["reduction", "near_cp", "loose_certificate"])
    def test_decides_as_the_certificate_first_order(self, family):
        # the probe runs before the certificate; the order decides nothing, since
        # the probe's value is never below the certificate's bound
        cases = []
        if family == "reduction":
            for n in (3, 4):
                for k in range(1, n + 1):
                    for d in (-0.5, -1e-3, -1e-8, -1e-9, -1e-10, 0.0, 1e-10, 1e-9, 1e-3, 0.5):
                        cases.append((reduction_family(k + d, n), k))
        elif family == "near_cp":
            for t in range(40):
                rng = rng_stream(74, t)
                m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
                phi = random_map_near_cp(rng, m, n, mix=float(rng.choice([0.3, 0.6, 1.0])))
                cases += [(phi, k) for k in range(1, n + 1)]
        else:
            for h0 in [hermitian_part(choi_qutrit_map().choi()), *map(random_hermitian_choi, (0, 1))]:
                w = np.linalg.eigvalsh(h0)
                for t in np.linspace(-w[-1] - 0.5, -w[0] + 0.5, 25):
                    cases += [(shifted_family(h0, 3, 3)(t), k) for k in (1, 2)]
        decided = [posmap.kpositivity._violates(phi, k, 16, 3) for phi, k in cases]
        assert decided == [loop_violates(phi, k, 16, 3) for phi, k in cases]
        assert any(decided) and not all(decided)

    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
    def test_the_certificate_runs_only_on_the_steps_the_probe_leaves_open(self, monkeypatch,
                                                                           n, k):
        # the benchmark's threshold settings: the probe decides every violating
        # step alone, the certificate every other, and nothing is compressed
        bound = count_calls(monkeypatch, "spectral_certificate")
        full = count_calls(monkeypatch, "k_block_min")
        compressed = count_calls(monkeypatch, "_compressed_choi")
        violates, decisions = posmap.kpositivity._violates, []

        def recorded(*args):
            before = bound["calls"]
            decided = violates(*args)
            decisions.append((decided, bound["calls"] - before))
            return decided

        monkeypatch.setattr(posmap.kpositivity, "_violates", recorded)
        bisect_threshold(lambda lam: reduction_family(lam, n), k, 0.2, k + 1, restarts=64, seed=11)
        assert len(decisions) == 42
        assert [calls for _, calls in decisions] == [int(not decided) for decided, _ in decisions]
        assert (full["calls"], compressed["calls"]) == (0, 0)

    def test_a_shortcut_decision_builds_one_choi_matrix(self, monkeypatch):
        # on the reduction family the certificate or the probe decides both ends
        # and all 12 steps, each from the one h that _search_choi builds
        built = count_calls(monkeypatch, "_search_choi")
        full = count_calls(monkeypatch, "k_block_min")
        for n, k in [(3, 1), (3, 2), (4, 3)]:
            built["calls"] = 0
            bisect_threshold(lambda lam: reduction_family(lam, n), k, 0.2, k + 1, steps=12, seed=4)
            assert built["calls"] == 14
        assert full["calls"] == 0

    @pytest.mark.parametrize("lam, decided", [(0.5, True), (2.5, False)])
    def test_a_shortcut_decision_calls_choi_once(self, monkeypatch, lam, decided):
        # the Hermiticity test reads the h that _search_choi builds; the probe
        # decides lam = 0.5 and the certificate lam = 2.5 (k = 2, n = 3)
        choi = count_calls(monkeypatch, "choi", module=MatrixMap)
        full = count_calls(monkeypatch, "k_block_min")
        assert posmap.kpositivity._violates(reduction_family(lam, 3), 2, 32, 0) == decided
        assert (choi["calls"], full["calls"]) == (1, 0)

    @pytest.mark.parametrize("skew", [0.0, 1e-12])
    def test_a_decision_takes_one_choi_norm_and_keeps_the_tolerance_bits(self, monkeypatch, skew):
        # an exactly Hermitian Choi matrix hands the Hermiticity test's norm to the
        # tolerance; a slightly skew one keeps its Hermitian part's norm; both read
        # psd_tol(hermitian_part(h)) bit for bit
        raw = random_hermitian_choi(2) + skew * 1j * np.eye(9)
        phi = MatrixMap.from_choi(raw, 3, 3)
        h, tol = posmap.kpositivity._search_choi(phi, 2)
        assert np.array_equal(h, hermitian_part(phi.choi())) and tol.hex() == psd_tol(h).hex()
        norms = count_calls(monkeypatch, "_finite_norm", module=posmap.choi)
        frob = count_calls(monkeypatch, "frobenius", module=posmap.choi)
        posmap.kpositivity._violates(phi, 2, 4, 0)
        assert (norms["calls"], frob["calls"]) == (1, 1 if skew == 0.0 else 2)


class TestSpectralBound:
    @pytest.mark.parametrize("n", [3, 4])
    def test_is_lam_minus_k_on_the_reduction_family(self, n):
        for k in range(1, n):
            for lam in (k - 0.5, k - 1e-3, k + 1e-3, k + 0.5):
                h = hermitian_part(reduction_family(lam, n).choi())
                assert abs(spectral_bound(h, n, n, k) - (lam - k)) <= 1e-12

    def test_a_negative_definite_matrix_decides_nothing(self):
        assert spectral_bound(-np.eye(4), 2, 2, 1) == -np.inf

    def test_a_psd_matrix_gives_its_smallest_eigenvalue(self):
        h = random_psd(rng_stream(73), 6)
        assert spectral_bound(h, 2, 3, 1) == np.linalg.eigh(h)[0][0]

    def test_k_below_one_is_refused(self):
        with pytest.raises(KOutOfRangeError):
            spectral_bound(np.eye(4), 2, 2, 0)

    def test_the_certificate_proves_nothing_outside_1_to_n_minus_1(self):
        # a PSD Choi matrix clears the bound at every k, but k >= n is the exact
        # test's, and a map with n = 1 has no k the rule may decide
        h = random_psd(rng_stream(75), 6)
        proof = spectral_certificate(h, 2, 3, 2)
        assert (proof.kind, proof.value, proof.stats) == ("pass", spectral_bound(h, 2, 3, 2),
                                                           {"certificate": "spectral"})
        assert [spectral_certificate(h, 2, 3, k) for k in (0, 3, 4)] == [None] * 3
        assert spectral_certificate(h, 6, 1, 1) is None
