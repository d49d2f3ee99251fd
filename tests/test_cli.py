"""CLI behavior: classification pipeline, modular suite, cone diagnostics,
report determinism, and independent witness verification."""

import ast
import inspect
import json

import numpy as np
import pytest

from posmap import cli
from posmap.cli import main
from posmap.docio import dump_document, map_to_document, matrix_from_doc, matrix_to_doc
from posmap.maps import identity_map, transposition_map
from posmap.report import RECHECKS, report_body
from test_golden_corpus import GOLDEN, run_corpus

CORPUS_VIOLATIONS = [
    (name, record["id"])
    for name, run in sorted(GOLDEN.items())
    for record in run["records"]
    if record["kind"] == "violation"
]


def write_map_doc(path, phi, **meta):
    dump_document(map_to_document(phi, "choi", metadata=meta or None), str(path))
    return str(path)


def load_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def record_by_id(report, record_id):
    matches = [r for r in report["records"] if r["id"] == record_id]
    assert matches, f"no record {record_id}"
    return matches[0]


class TestClassify:
    def test_transposition_classification(self, tmp_path):
        doc = write_map_doc(tmp_path / "t.json", transposition_map(2), name="transposition")
        out = tmp_path / "report.json"
        code = main(["classify", doc, "--k-max", "2", "--seed", "7", "--out", str(out)])
        assert code == 0
        report = load_report(out)
        assert record_by_id(report, "cp")["kind"] == "violation"
        assert record_by_id(report, "cp")["value"] == pytest.approx(-1.0, abs=1e-10)
        assert record_by_id(report, "block_positivity")["kind"] == "evidence"
        assert record_by_id(report, "k_positive_1")["kind"] == "evidence"
        k2 = record_by_id(report, "k_positive_2")
        assert k2["kind"] == "violation"
        assert k2["value"] == pytest.approx(-1.0, abs=1e-6)
        assert record_by_id(report, "k_copositive_2")["kind"] == "evidence"
        assert record_by_id(report, "decomposability")["kind"] == "evidence"
        assert report["summary"]["highest_k_positive_evidence"] == 1
        assert report["summary"]["highest_k_copositive_evidence"] == 2

    def test_identity_classification(self, tmp_path):
        doc = write_map_doc(tmp_path / "id.json", identity_map(2))
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "2", "--seed", "3", "--out", str(out)]) == 0
        report = load_report(out)
        assert report["summary"]["completely_positive"] is True
        for rid in ("k_positive_1", "k_positive_2", "sk_1", "sk_2", "pk_1", "pk_2"):
            assert record_by_id(report, rid)["kind"] == "evidence"

    def test_negated_identity_violates_everything(self, tmp_path):
        doc = write_map_doc(tmp_path / "neg.json", -1.0 * identity_map(2))
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "2", "--seed", "5", "--out", str(out)]) == 0
        report = load_report(out)
        for rid in ("cp", "block_positivity", "k_positive_1", "k_positive_2",
                    "k_copositive_1", "k_copositive_2", "sk_1", "sk_2",
                    "pk_1", "pk_2", "decomposability"):
            assert record_by_id(report, rid)["kind"] == "violation", rid

    def test_k_max_beyond_output_dimension_is_clamped(self, tmp_path):
        # compressions cap at the output dimension; larger k reuses the exact
        # test and says so in the record stats
        doc = write_map_doc(tmp_path / "t.json", transposition_map(2))
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "3", "--seed", "3", "--restarts", "8",
                     "--samples", "20", "--projections", "5", "--out", str(out)]) == 0
        report = load_report(out)
        k3 = record_by_id(report, "k_positive_3")
        assert k3["kind"] == "violation"
        assert k3["stats"]["clamped_to"] == 2
        assert main(["verify", str(out)]) == 0

    def test_boolean_stats_are_json_booleans(self, tmp_path):
        doc = write_map_doc(tmp_path / "t.json", transposition_map(2))
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "1", "--seed", "3", "--restarts", "4",
                     "--samples", "20", "--projections", "5", "--out", str(out)]) == 0
        report = load_report(out)
        assert record_by_id(report, "k_positive_1")["stats"]["exact"] is False
        assert record_by_id(report, "decomposability")["stats"]["feasible"] is True

    def test_rejects_malformed_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json", encoding="utf-8")
        assert main(["classify", str(bad), "--seed", "1"]) == 2

    def test_rejects_non_hermitian_map(self, tmp_path):
        doc = map_to_document(identity_map(2), "choi")
        doc["matrices"][0]["data"][1] = [5.0, 1.0]  # break Hermitian symmetry
        path = tmp_path / "nh.json"
        dump_document(doc, str(path))
        assert main(["classify", str(path), "--seed", "1"]) == 2


class TestDeterminism:
    def test_classify_reports_byte_identical(self, tmp_path):
        doc = write_map_doc(tmp_path / "t.json", transposition_map(2))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["classify", doc, "--k-max", "2", "--seed", "11", "--restarts", "8",
                "--samples", "40", "--projections", "10"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_modular_reports_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        args = ["modular-verify", "--dim", "2", "--trials", "1", "--seed", "9"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_timing_lives_in_excluded_field(self, tmp_path):
        doc = write_map_doc(tmp_path / "t.json", transposition_map(2))
        out = tmp_path / "rt.json"
        args = ["classify", doc, "--k-max", "1", "--seed", "2", "--restarts", "4",
                "--samples", "10", "--projections", "4", "--timings", "--out", str(out)]
        assert main(args) == 0
        report = load_report(out)
        assert "timing" in report
        assert "timing" not in report_body(report)
        assert 0 <= report["timing"]["elapsed_s"] < 60


class TestModularVerify:
    def test_random_states_pass(self, tmp_path):
        out = tmp_path / "mod.json"
        code = main(["modular-verify", "--dim", "4", "--trials", "5", "--seed", "13",
                     "--out", str(out)])
        assert code == 0
        report = load_report(out)
        assert report["summary"]["passed"] is True
        assert report["summary"]["max_defect"] <= 1e-9

    def test_singular_state_rejected(self, tmp_path):
        rho = np.diag([1.0, 0.0]).astype(complex)
        path = tmp_path / "rho.json"
        dump_document({"kind": "state", "matrix": matrix_to_doc(rho)}, str(path))
        code = main(["modular-verify", "--dim", "2", "--trials", "1", "--seed", "1",
                     "--rho-file", str(path)])
        assert code == 2


def cone_doc(tmp_path, blocks, name="cone.json", extra=None):
    doc = {
        "kind": "cone-input",
        "rho_a": matrix_to_doc(np.eye(2) / 2),
        "rho_b": matrix_to_doc(np.eye(2) / 2),
    }
    if blocks is not None:
        doc["blocks"] = [[matrix_to_doc(b) for b in row] for row in blocks]
    if extra:
        doc.update(extra)
    path = tmp_path / name
    dump_document(doc, str(path))
    return str(path)


class TestCone:
    def test_member_on_cyclic_vector(self, tmp_path):
        eye, zero = np.eye(2), np.zeros((2, 2))
        doc = cone_doc(tmp_path, [[eye, zero], [zero, eye]])
        out = tmp_path / "r.json"
        assert main(["cone", "member", doc, "--out", str(out)]) == 2  # seed mandatory
        assert main(["cone", "member", doc, "--seed", "4", "--out", str(out)]) == 0
        summary = load_report(out)["summary"]
        assert summary["in_p"] and summary["in_ptau"] and summary["in_intersection"]

    def test_member_outside_p_writes_a_defect_record(self, tmp_path):
        # [[I, 2X], [2X, I]] has eigenvalues 3 and -1: outside P, and the
        # answer is not a verification failure
        eye, x = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
        doc = cone_doc(tmp_path, [[eye, 2 * x], [2 * x, eye]])
        out = tmp_path / "r.json"
        assert main(["cone", "member", doc, "--seed", "4", "--out", str(out)]) == 0
        report = load_report(out)
        assert report["summary"]["in_p"] is False
        record = record_by_id(report, "member")
        assert record["kind"] == "defect"
        assert record["value"] == pytest.approx(-1.0, abs=1e-12)

    def test_flags_on_symmetric_blocks(self, tmp_path):
        eye = np.eye(2)
        sym = np.array([[0.2, 0.1], [0.1, 0.3]])
        doc = cone_doc(tmp_path, [[eye, sym], [sym, eye]])
        out = tmp_path / "r.json"
        assert main(["cone", "flags", doc, "--out", str(out)]) == 0
        summary = load_report(out)["summary"]
        assert summary["q_in_p"] and summary["q_zero"] and summary["fixed"] and summary["agree"]

    def test_pq_bounds_polar_subcommands(self, tmp_path):
        eye = np.eye(2)
        sym = np.array([[0.2, 0.1], [0.1, 0.3]])
        doc = cone_doc(tmp_path, [[eye, sym], [sym, eye]])
        for sub in ("pq", "polar"):
            out = tmp_path / f"{sub}.json"
            assert main(["cone", sub, doc, "--samples", "50", "--out", str(out)]) == 0
        out = tmp_path / "bounds.json"
        assert main(["cone", "bounds", doc, "--samples", "50", "--out", str(out)]) == 2
        assert main(["cone", "bounds", doc, "--seed", "6", "--samples", "50", "--out", str(out)]) == 0
        assert load_report(tmp_path / "bounds.json")["summary"]["violations"] == 0
        assert load_report(tmp_path / "polar.json")["summary"]["degenerate"] is True

    def test_weakdec_on_transposition(self, tmp_path):
        doc = cone_doc(
            tmp_path,
            None,
            extra={"map": map_to_document(transposition_map(2), "choi"), "k": 2},
        )
        out = tmp_path / "r.json"
        assert main(["cone", "weakdec", doc, "--seed", "5", "--samples", "30",
                     "--out", str(out)]) == 0
        summary = load_report(out)["summary"]
        assert summary["weakdec"] == "evidence"
        assert summary["transposed_cone_identity_defect"] <= 1e-10

    def test_weakdec_violation_witness_verifies(self, tmp_path):
        import warnings

        doc = cone_doc(
            tmp_path,
            None,
            extra={"map": map_to_document(-1.0 * identity_map(2), "choi"), "k": 2},
        )
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["cone", "weakdec", doc, "--seed", "5", "--samples", "20",
                         "--out", str(out)]) == 0
            report = load_report(out)
            assert report["summary"]["weakdec"] == "violation"
            assert main(["verify", str(out)]) == 0
            record = next(r for r in report["records"] if r["id"].startswith("weakdec"))
            record["value"] -= 0.5
            dump_document(report, str(out))
            assert main(["verify", str(out)]) == 1


class TestVerify:
    def test_fresh_report_verifies(self, tmp_path):
        doc = write_map_doc(tmp_path / "t.json", transposition_map(2))
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "2", "--seed", "7", "--out", str(out)]) == 0
        assert main(["verify", str(out)]) == 0

    def test_corrupted_witness_detected(self, tmp_path):
        doc = write_map_doc(tmp_path / "t.json", transposition_map(2))
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "2", "--seed", "7", "--out", str(out)]) == 0
        report = load_report(out)
        for record in report["records"]:
            if record["kind"] == "violation":
                record["value"] = record["value"] + 0.1
                break
        dump_document(report, str(out))
        assert main(["verify", str(out)]) == 1

    def test_rerun_same_seed_verifies_cross_report(self, tmp_path):
        doc = write_map_doc(tmp_path / "t.json", transposition_map(2))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["classify", doc, "--k-max", "2", "--seed", "21"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert main(["verify", str(out2)]) == 0
        assert report_body(load_report(out1)) == report_body(load_report(out2))

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        return run_corpus(str(tmp_path_factory.mktemp("corpus")))

    def test_corpus_reports_verify(self, corpus):
        for name, (_, path) in corpus.items():
            assert main(["verify", path]) == 0, name

    @pytest.mark.parametrize("name,record_id", CORPUS_VIOLATIONS)
    def test_shifted_value_detected(self, corpus, tmp_path, name, record_id):
        report = load_report(corpus[name][1])
        record_by_id(report, record_id)["value"] += 0.1
        out = tmp_path / "tampered.json"
        dump_document(report, str(out))
        assert main(["verify", str(out)]) == 1

    def test_non_hermitian_projection_detected(self, corpus, tmp_path):
        # an oblique rank-one idempotent v w* with w* v = 1 keeps the trace,
        # idempotency, support and value of the witness; only Hermiticity fails
        report = load_report(corpus["classify_neg_identity"][1])
        record = record_by_id(report, "k_positive_1")
        p = matrix_from_doc(record["witness"]["projection"])
        v = np.linalg.eigh(p)[1][:, -1]
        u = np.array([-v[1].conj(), v[0].conj()])
        record["witness"]["projection"] = matrix_to_doc(np.outer(v, (v + u).conj()))
        out = tmp_path / "oblique.json"
        dump_document(report, str(out))
        assert main(["verify", str(out)]) == 1

    def test_wrong_shape_state_detected(self, corpus, tmp_path, capsys):
        report = load_report(corpus["classify_choi_qutrit"][1])
        record_by_id(report, "decomposability")["witness"]["state"] = matrix_to_doc(np.eye(3) / 3)
        out = tmp_path / "reshaped.json"
        dump_document(report, str(out))
        assert main(["verify", str(out)]) == 1
        err = capsys.readouterr().err
        assert "stale witness: decomposability: stored state has shape (3, 3)" in err

    @pytest.mark.parametrize(
        "document", [[], {"records": [1]}, {"records": [{"kind": "violation", "witness": {}}]}]
    )
    def test_malformed_report_is_an_input_error(self, tmp_path, document):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert main(["verify", str(path)]) == 2

    @pytest.mark.parametrize("value", ["-1.0", None, True, float("nan")])
    def test_non_numeric_value_is_an_input_error(self, corpus, tmp_path, value):
        # the witness itself re-checks; only the stated value is malformed
        report = load_report(corpus["classify_neg_identity"][1])
        record_by_id(report, "k_positive_1")["value"] = value
        out = tmp_path / "valueless.json"
        dump_document(report, str(out))
        assert main(["verify", str(out)]) == 2

    def test_every_witness_record_id_has_a_recheck(self):
        # every record cli can emit with a witness goes through _verdict_record
        # and has an entry in the re-check table
        tree = ast.parse(inspect.getsource(cli))
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        witness_writes = [
            c for c in calls
            if getattr(c.func, "id", None) == "add_record"
            and any(kw.arg == "witness" for kw in c.keywords)
        ]
        assert len(witness_writes) == 1  # the one inside _verdict_record
        record_ids = []
        for c in calls:
            if getattr(c.func, "id", None) == "_verdict_record":
                arg = c.args[1]
                # an f-string id "k_positive_{k}" contributes its prefix
                record_ids.append(arg.values[0].value if isinstance(arg, ast.JoinedStr) else arg.value)
        assert len(record_ids) >= 8
        for record_id in record_ids:
            assert record_id in RECHECKS, record_id
