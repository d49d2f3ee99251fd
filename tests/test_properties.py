"""Property tests: stacked kernels equal their one-matrix calls bitwise, the
partial transpose is an involution, the Choi encoding round-trips, a
counter-built stream equals the jumped one, a stream reached by the shared
seeker equals its `rng_stream`, no hostile field in a document makes the
CLI raise, the spectral bound is below every value of Schmidt rank <= k,
and every violation and certificate `posmap classify` writes
re-verifies, while a derived record whose value is edited does not."""

import copy
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from posmap.choi import MatrixMap
from posmap.cli import main
from posmap.docio import map_to_document, matrix_to_doc
from posmap.kpositivity import k_block_min, spectral_bound
from posmap.linalg import (
    _partial_transpose,
    _stream_seeker,
    alternate_ppt_projections,
    hermitian_part,
    partial_transpose,
    project_psd,
    psd_tol,
    random_complex,
    random_psd,
    rng_stream,
)
from posmap.maps import (
    identity_map,
    random_hermiticity_preserving,
    random_map_near_cp,
    transposition_map,
)

dims = st.integers(1, 3)
seeds = st.integers(0, 2**32 - 1)


def random_stack(seed, size, d):
    return random_complex(rng_stream(seed), (size, d, d))


def assert_slicewise(kernel, stack):
    out = kernel(stack)
    assert out.shape == stack.shape
    for r in range(stack.shape[0]):
        assert np.array_equal(out[r], kernel(stack[r]))


@given(d1=dims, d2=dims, size=st.integers(1, 5), seed=seeds)
def test_stacked_kernels_equal_their_one_matrix_calls(d1, d2, size, seed):
    stack = random_stack(seed, size, d1 * d2)
    assert_slicewise(hermitian_part, stack)
    assert_slicewise(project_psd, stack)
    for side in ("first", "second"):
        assert_slicewise(lambda a, side=side: _partial_transpose(a, d1, d2, side), stack)
        assert_slicewise(lambda a, side=side: alternate_ppt_projections(a, d1, d2, side, 2), stack)


@given(d1=dims, d2=dims, seed=seeds, side=st.sampled_from(["first", "second"]))
def test_partial_transpose_is_an_involution(d1, d2, seed, side):
    a = random_stack(seed, 1, d1 * d2)[0]
    once = partial_transpose(a, d1, d2, side)
    assert np.array_equal(partial_transpose(once, d1, d2, side), a)
    # transposing both factors is the full transpose
    other = "second" if side == "first" else "first"
    assert np.array_equal(partial_transpose(once, d1, d2, other), a.T)


@given(m=dims, n=dims, seed=seeds)
def test_choi_round_trip(m, n, seed):
    h = random_stack(seed, 1, m * n)[0]
    phi = MatrixMap.from_choi(h, m, n)
    assert np.array_equal(phi.choi(), h)
    assert np.array_equal(MatrixMap.from_choi(phi.choi(), m, n).unit_images, phi.unit_images)


@given(seed=st.integers(0, 2**63 - 1), stream=st.integers(0, 2**63 - 1))
def test_rng_stream_equals_the_jumped_stream(seed, stream):
    counted = rng_stream(seed, stream)
    jumped = np.random.Generator(np.random.Philox(key=seed).jumped(stream))
    assert np.array_equal(counted.standard_normal(9), jumped.standard_normal(9))
    assert np.array_equal(counted.random(5), jumped.random(5))
    assert np.array_equal(counted.integers(0, 7, 6), jumped.integers(0, 7, 6))
    assert np.array_equal(counted.integers(0, 2**62, 3), jumped.integers(0, 2**62, 3))


def test_rng_stream_carries_past_two_to_the_64_and_rejects_out_of_range_streams():
    for stream in (2**64 - 1, 2**64, 2**64 + 3, 2**127):
        counter = rng_stream(5, stream).bit_generator.state["state"]["counter"]
        assert [int(c) for c in counter] == [0, 0, stream % 2**64, stream >> 64]
        jumped = np.random.Generator(np.random.Philox(key=5).jumped(stream))
        assert np.array_equal(rng_stream(5, stream).standard_normal(4), jumped.standard_normal(4))
    for stream in (-1, 2**128):
        with pytest.raises(ValueError):
            rng_stream(5, stream)


wide = st.integers(0, 2**128 - 1)


@given(seed=wide, streams=st.lists(wide, min_size=1, max_size=4))
@example(seed=5, streams=[2**64 - 1, 2**64, 0, 2**127 + 3])
def test_a_sought_stream_equals_its_rng_stream(seed, streams):
    # integers() leaves half a 64-bit word buffered; the next stream must not see it
    seek = _stream_seeker(seed)
    for stream in streams:
        rng, ref = seek(stream), rng_stream(seed, stream)
        assert np.array_equal(rng.integers(0, 7, 3), ref.integers(0, 7, 3))
        assert np.array_equal(rng.standard_normal(9), ref.standard_normal(9))
        assert np.array_equal(rng.random(5), ref.random(5))
        assert np.array_equal(rng.integers(0, 2**62, 3), ref.integers(0, 2**62, 3))


@given(seed=seeds, stream=wide, first=st.integers(0, 40), then=st.integers(0, 40))
def test_normals_do_not_depend_on_how_a_stream_is_split(seed, stream, first, then):
    whole = rng_stream(seed, stream).standard_normal(first + then)
    rng = rng_stream(seed, stream)
    split = np.concatenate([rng.standard_normal(first), rng.standard_normal(then)])
    assert np.array_equal(whole, split)


@pytest.mark.parametrize("seed,stream", [
    (-1, 0), (2**128, 0), ("x", 0), (None, 0), (0, -1), (0, 2**128), (0, "x"), (0, None),
])
def test_the_seeker_rejects_what_rng_stream_rejects(seed, stream):
    with pytest.raises(Exception) as want:
        rng_stream(seed, stream)
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        _stream_seeker(seed)(stream)


@given(dim=st.integers(1, 6), rank=st.integers(1, 6), seed=seeds)
def test_random_psd_is_the_gram_matrix_of_random_complex(dim, rank, seed):
    g = random_complex(rng_stream(seed), (dim, rank))
    assert np.array_equal(random_psd(rng_stream(seed), dim, rank), g @ g.conj().T)


# ---------------------------------------------------------------------------
# hostile documents
# ---------------------------------------------------------------------------

BEYOND_FLOAT = ("1e400", "-1e999")  # written as bare float literals, which json reads as inf
HOSTILE = ["x", True, 1.5, 0, -1, 10**6, [0], {"a": 1}, float("nan"), *BEYOND_FLOAT]
TINY = ["--seed", "1", "--samples", "2"]
CONE_SUBCOMMANDS = ["member", "pq", "bounds", "flags", "polar", "weakdec"]


def field_paths(doc, prefix=()):
    """Paths to every field of `doc`: all items of a list of objects, and
    only the first item of any other list (an [re, im] pair, a data list)."""
    items = []
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list) and doc:
        items = list(enumerate(doc if all(isinstance(x, dict) for x in doc) else doc[:1]))
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


def replaced(doc, path, value):
    out = copy.deepcopy(doc)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


def classify_argv(path, sub):
    return ["classify", path, "--k-max", "1", "--restarts", "2", "--samples", "2",
            "--projections", "2", "--seed", "1"]


def cone_argv(path, sub):
    return ["cone", sub, path, *TINY]


def state_argv(path, sub):
    return ["modular-verify", "--dim", "2", "--trials", "1", "--seed", "1", "--rho-file", path]


def verify_argv(path, sub):
    return ["verify", path]


@pytest.fixture(scope="module")
def hostile_cases(tmp_path_factory):
    """kind -> (valid document, argv for a document path and a cone subcommand)."""
    tmp = tmp_path_factory.mktemp("hostile")
    eye, sym = np.eye(2), np.array([[0.2, 0.1], [0.1, 0.3]])
    cone_doc = {
        "kind": "cone-input",
        "rho_a": matrix_to_doc(np.diag([0.3, 0.7])),
        "rho_b": matrix_to_doc(eye / 2),
        "blocks": [[matrix_to_doc(b) for b in row] for row in ([eye, sym], [sym, eye])],
        "map": map_to_document(-1.0 * identity_map(2), "choi"),
        "k": 1,
    }
    cases = {
        "map": (map_to_document(transposition_map(2), "choi", metadata={"name": "t"}), classify_argv),
        "cone": (cone_doc, cone_argv),
        "state": ({"kind": "state", "matrix": matrix_to_doc(np.diag([0.3, 0.7]))}, state_argv),
    }
    # reports whose records hold witnesses: a violation of every map test, a
    # decomposition certificate (transposition is co-CP), and weakdec; and a
    # member report, which verify re-derives from its input
    for name, doc, argv, sub in [
        ("classify", map_to_document(-1.0 * identity_map(2), "choi"), classify_argv, None),
        ("certified", cases["map"][0], classify_argv, None),
        ("weakdec", cone_doc, cone_argv, "weakdec"),
        ("member", cone_doc, cone_argv, "member"),
    ]:
        source, out = tmp / f"{name}.json", tmp / f"{name}-report.json"
        source.write_text(json.dumps(doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main([*argv(str(source), sub), "--out", str(out)]) == 0
        cases[f"{name} report"] = (json.loads(out.read_text(encoding="utf-8")), verify_argv)
    return tmp, cases


@pytest.mark.parametrize(
    "kind", ["map", "cone", "state", "classify report", "certified report", "weakdec report",
             "member report"]
)
@settings(max_examples=150)
@given(data=st.data())
def test_a_hostile_field_is_an_exit_code_never_a_traceback(hostile_cases, kind, data):
    tmp, cases = hostile_cases
    doc, argv = cases[kind]
    path = data.draw(st.sampled_from(sorted(field_paths(doc), key=repr)), label="path")
    value = data.draw(st.sampled_from(HOSTILE), label="value")
    sub = data.draw(st.sampled_from(CONE_SUBCOMMANDS), label="subcommand")
    source = tmp / "hostile.json"
    # json.dumps writes NaN as the non-JSON constant that documents must reject
    text = json.dumps(replaced(doc, path, value))
    if value in BEYOND_FLOAT:
        text = text.replace(json.dumps(value), value)
    source.write_text(text, encoding="utf-8")
    out = tmp / "hostile-report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main([*argv(str(source), sub), *(["--out", str(out)] if "report" not in kind else [])])
    assert code in ((0, 2) if kind == "map" else (0, 1, 2))


# ---------------------------------------------------------------------------
# the spectral certificate of k-positivity
# ---------------------------------------------------------------------------


@settings(max_examples=100)
@given(m=st.integers(2, 3), n=st.integers(2, 3), mix=st.sampled_from([0.3, 1.0, 3.0]),
       seed=seeds)
def test_the_spectral_bound_is_below_every_schmidt_rank_k_value(m, n, mix, seed):
    # two maps and every k in 1..n: at least 400 (map, k) pairs over the 100 examples,
    # each met by 50 random unit vectors of Schmidt rank <= k, the see-saw and the
    # bottom eigenvalue of h's principal (m k)-corner (`bisect_threshold`'s probe, so
    # its probe and certificate never both fire); the allowance is the rounding
    # margin `bisect_threshold` grants the bound
    rng = rng_stream(seed)
    for phi in (random_map_near_cp(rng, m, n, mix=mix), random_hermiticity_preserving(rng, m, n)):
        h = hermitian_part(phi.choi())
        allowance = 1e-5 * psd_tol(h)
        for k in range(1, n + 1):
            bound = spectral_bound(h, m, n, k)
            psi = (random_complex(rng, (50, m, k)) @ random_complex(rng, (50, k, n))).reshape(50, -1)
            psi /= np.linalg.norm(psi, axis=1, keepdims=True)
            values = np.einsum("si,ij,sj->s", psi.conj(), h, psi).real
            assert bound <= values.min() + allowance
            assert bound <= k_block_min(phi, k, restarts=8, seed=seed % 1000).value + allowance
            corner = h.reshape(m, n, m, n)[:, :k, :, :k].reshape(m * k, m * k)
            assert np.linalg.eigh(corner)[0][0] >= bound - allowance


# ---------------------------------------------------------------------------
# end-to-end replay
# ---------------------------------------------------------------------------


@settings(max_examples=25)
@given(m=st.integers(1, 3), n=st.integers(1, 3), mix=st.sampled_from([0.0, 0.3, 1.0, 3.0]),
       map_seed=seeds, seed=st.integers(0, 10**6), k_max=st.integers(1, 3))
@example(m=2, n=3, mix=0.0, map_seed=1, seed=1, k_max=1)  # CP, so certified decomposable
def test_every_violation_classify_writes_verifies(tmp_path_factory, m, n, mix, map_seed, seed,
                                                  k_max):
    phi = random_map_near_cp(rng_stream(map_seed), m, n, mix=mix)
    tmp = tmp_path_factory.mktemp("replay")
    source, out = tmp / "map.json", tmp / "report.json"
    source.write_text(json.dumps(map_to_document(phi, "choi")), encoding="utf-8")
    argv = ["classify", str(source), "--k-max", str(k_max), "--restarts", "4", "--samples", "8",
            "--projections", "6", "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    kinds = {record["id"]: record["kind"] for record in report["records"]}
    for rid, kind in kinds.items():
        if kind == "violation":
            event(f"violation {rid.rstrip('0123456789')}")
    # the records no search of their own produced restate a record of the report
    derived = {r["id"]: r["stats"]["derived_from"] for r in report["records"]
               if "derived_from" in r.get("stats", {})}
    expected = {"block_positivity": "k_positive_1"}
    for k in range(n + 1, k_max + 1):
        expected.update({f"k_positive_{k}": f"k_positive_{n}", f"k_copositive_{k}": f"k_copositive_{n}"})
    if kinds["decomposable"] == "pass":
        event("certified decomposable")
        # a decomposable map has decomposable corners: nothing can refute it
        assert all(kinds[rid] != "violation" for rid in kinds
                   if rid == "decomposability" or rid.startswith("pk_"))
        expected.update({rid: "decomposable" for rid in kinds
                         if rid == "decomposability" or rid.startswith(("sk_", "pk_"))})
    assert derived == expected and set(derived.values()) <= set(kinds)
    assert main(["verify", str(out)]) == 0
    # a derived record whose value no longer restates its source fails verify
    for index, record in enumerate(report["records"]):
        if record["id"] in derived:
            edited = copy.deepcopy(report)
            edited["records"][index]["value"] += 1e-3
            out.write_text(json.dumps(edited), encoding="utf-8")
            assert main(["verify", str(out)]) == 1
