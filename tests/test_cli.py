"""CLI behavior: classification pipeline, modular suite, cone diagnostics,
report determinism, and independent witness verification."""

import json
import os
import pathlib
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest

from posmap import cli, cones, kpositivity
from posmap.cli import main
from posmap.docio import dump_document, map_to_document, matrix_from_doc, matrix_to_doc
from posmap.maps import (
    choi_qutrit_map,
    identity_map,
    random_map_near_cp,
    reduction_family,
    transposition_map,
)
from posmap.choi import MatrixMap
from posmap.linalg import random_psd, rng_stream
from posmap.report import classify_summary, input_digest, report_body
from test_golden_corpus import GOLDEN, run_corpus
from test_kpositivity import count_calls, count_stream_work

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
        # compressions cap at the output dimension; larger k restates the
        # exact test and says so in the record stats
        doc = write_map_doc(tmp_path / "t.json", transposition_map(2))
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "3", "--seed", "3", "--restarts", "8",
                     "--samples", "20", "--projections", "5", "--out", str(out)]) == 0
        report = load_report(out)
        k3 = record_by_id(report, "k_positive_3")
        assert k3["kind"] == "violation"
        assert k3["stats"]["derived_from"] == "k_positive_2"
        assert main(["verify", str(out)]) == 0

    def test_an_edited_record_beyond_the_output_dimension_detected(self, tmp_path, capsys):
        # k_positive_3 of a map with n = 2 restates the exact evidence at k = 2
        doc = write_map_doc(tmp_path / "id.json", identity_map(2))
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "3", "--seed", "3", "--restarts", "4",
                     "--samples", "10", "--projections", "4", "--out", str(out)]) == 0
        report = load_report(out)
        k3 = record_by_id(report, "k_positive_3")
        assert (k3["kind"], k3["value"]) == ("evidence", record_by_id(report, "k_positive_2")["value"])
        k3["value"] = 0.75
        dump_document(report, str(out))
        assert main(["verify", str(out)]) == 1
        assert ("k_positive_3: kind or value differs from the record 'k_positive_2'"
                in capsys.readouterr().err)

    def test_k_max_beyond_output_dimension_runs_the_exact_test_once(self, tmp_path, monkeypatch):
        # k = 1 searches once (every k = 1 record restates k_positive_1), k = 2
        # twice; k = 3 reuses the k = 2 verdicts
        calls = []
        search = kpositivity.k_block_min
        monkeypatch.setattr(kpositivity, "k_block_min",
                            lambda phi, k, **kw: calls.append(k) or search(phi, k, **kw))
        doc = write_map_doc(tmp_path / "t.json", transposition_map(2))
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "3", "--seed", "3", "--restarts", "8",
                     "--samples", "20", "--projections", "5", "--out", str(out)]) == 0
        assert calls == [1, 2, 2]
        report = load_report(out)
        # a derived record restates its source's kind and value, and no witness
        for name in ("k_positive", "k_copositive"):
            k2, k3 = record_by_id(report, f"{name}_2"), record_by_id(report, f"{name}_3")
            assert k3["stats"] == {"derived_from": f"{name}_2"}
            assert {**k3, "id": k2["id"], "stats": k2["stats"]} == {
                key: value for key, value in k2.items() if key != "witness"}

    # pk_check draws its corner ranks from 1..min(k, n), so every pk_<k> with
    # k >= n is the pk_<n> verdict; a 2 x 2 map with --k-max 4 runs it at k = 2
    # alone, as pk_1 restates k_positive_1.  A map the certificate proves
    # decomposable runs it at no k: every compressed corner of it is
    # decomposable, and each pk_<k> with k >= 2 restates the pass
    @pytest.mark.parametrize("phi, certified",
                             [(transposition_map(2), True),
                              (random_map_near_cp(rng_stream(41, 0), 2, 2, mix=0.3), False)],
                             ids=["transposition", "near_cp"])
    def test_pk_beyond_output_dimension_is_the_pk_n_verdict(self, tmp_path, monkeypatch, phi, certified):
        counter = count_calls(monkeypatch, "pk_check", cli)
        doc = write_map_doc(tmp_path / "phi.json", phi)
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "4", "--seed", "3", "--restarts", "4",
                     "--samples", "10", "--projections", "6", "--out", str(out)]) == 0
        report = load_report(out)
        decomposable = record_by_id(report, "decomposable")
        assert (decomposable["kind"] == "pass") is certified
        assert counter["calls"] == (0 if certified else 1)
        k1 = record_by_id(report, "k_positive_1")
        assert record_by_id(report, "pk_1") == {"id": "pk_1", "kind": k1["kind"], "value": k1["value"],
                                                "stats": {"derived_from": "k_positive_1"}}
        for k in range(2, 5):
            record = record_by_id(report, f"pk_{k}")
            if certified:
                assert record == {"id": f"pk_{k}", "kind": "evidence", "value": decomposable["value"],
                                  "stats": {"derived_from": "decomposable"}}
                continue
            want = kpositivity.pk_check(phi, k, projections=6, seed=3)
            assert (record["kind"], record["value"], record["stats"]) == (want.kind, want.value, want.stats)
            assert sorted(record.get("witness", {})) == sorted(want.witness or {})
            for key, arr in (want.witness or {}).items():
                assert np.array_equal(matrix_from_doc(record["witness"][key]), arr), key
        assert main(["verify", str(out)]) == 0

    @pytest.mark.parametrize("phi, kind", [(reduction_family(0.5, 3), "violation"),
                                           (transposition_map(3), "evidence")],
                             ids=["reduction", "certified-transposition"])
    def test_block_positivity_is_the_k1_search(self, tmp_path, monkeypatch, phi, kind):
        # positivity is 1-positivity, 1-copositivity and the block conditions at
        # k = 1: the k = 1 search runs once and writes all five records, certified
        # or not, and no sk_ or pk_ search runs at k = 1; a map with n = 3 and
        # --k-max 4 searches k = 2, 3 twice each
        calls = []
        search = kpositivity.k_block_min
        monkeypatch.setattr(kpositivity, "k_block_min",
                            lambda phi, k, **kw: calls.append(k) or search(phi, k, **kw))
        blocks = []
        for name in ("sk_check", "pk_check"):
            check = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda phi, k, check=check, **kw: blocks.append(k) or check(phi, k, **kw))
        doc = write_map_doc(tmp_path / "r.json", phi)
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "4", "--seed", "3", "--restarts", "4",
                     "--samples", "10", "--projections", "4", "--out", str(out)]) == 0
        assert sorted(calls) == [1, 2, 2, 3, 3] and 1 not in blocks
        report = load_report(out)
        k1 = record_by_id(report, "k_positive_1")
        assert k1["kind"] == kind and ("witness" in k1) == (kind == "violation")
        if kind == "violation":
            assert k1["value"] == pytest.approx(-0.5, abs=1e-8)
        else:
            assert record_by_id(report, "decomposable")["kind"] == "pass"
        for record_id in ("block_positivity", "k_copositive_1", "sk_1", "pk_1"):
            assert record_by_id(report, record_id) == {
                "id": record_id, "kind": k1["kind"], "value": k1["value"],
                "stats": {"derived_from": "k_positive_1"}}
        assert main(["verify", str(out)]) == 0

    def test_certified_map_runs_no_witness_iteration(self, tmp_path):
        doc = write_map_doc(tmp_path / "t.json", transposition_map(2))
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "2", "--seed", "3", "--restarts", "4",
                     "--samples", "20", "--projections", "5", "--out", str(out)]) == 0
        report = load_report(out)
        ids = [r["id"] for r in report["records"]]
        assert ids[-2:] == ["decomposable", "decomposability"]
        cert = record_by_id(report, "decomposable")
        assert cert["kind"] == "pass" and set(cert["witness"]) == {"q"}
        assert cert["stats"]["termination"] == "converged"
        # the certificate decides the witness search and the block-matrix
        # condition above k = 1: both restate it as evidence, and no sample is drawn
        for record_id in ("decomposability", "sk_2"):
            record = record_by_id(report, record_id)
            assert record["kind"] == "evidence" and "witness" not in record
            assert record["stats"] == {"derived_from": "decomposable"}
            assert record["value"] == cert["value"] >= -1e-9
        assert report["summary"]["decomposable"] == "pass"
        assert report["summary"]["decomposability"] == "evidence"
        assert main(["verify", str(out)]) == 0

    def test_uncertified_map_runs_the_full_witness_search(self, tmp_path):
        doc = write_map_doc(tmp_path / "c.json", choi_qutrit_map())
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "2", "--seed", "2", "--restarts", "4",
                     "--samples", "20", "--projections", "5", "--out", str(out)]) == 0
        report = load_report(out)
        cert = record_by_id(report, "decomposable")
        assert cert["kind"] == "evidence" and "witness" not in cert
        dec = record_by_id(report, "decomposability")
        assert dec["kind"] == "violation" and "derived_from" not in dec["stats"]
        sk = record_by_id(report, "sk_2")
        assert sk["stats"]["samples"] == 20 and "derived_from" not in sk["stats"]
        assert report["summary"]["decomposable"] == "evidence"

    def test_boolean_stats_are_json_booleans(self, tmp_path):
        doc = write_map_doc(tmp_path / "neg.json", -1.0 * identity_map(2))
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

    def test_a_map_its_hermiticity_check_accepts_is_classified(self, tmp_path):
        # ||h - h*||_F = 4.2e-9 passes the map's rule, 1e-8 max(1, ||h||_F),
        # but not check_hermitian's 1e-8 ||h||_F = 1e-11, which cp_verdict
        # applied a second time: classify exited 2 on a map it had accepted
        g = random_psd(rng_stream(11), 4)
        h = 1e-3 * g / np.linalg.norm(g)
        h[0, 1] += 3e-9
        phi = MatrixMap.from_choi(h, 2, 2)
        assert phi.is_hermiticity_preserving()
        doc = write_map_doc(tmp_path / "near.json", phi)
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "2", "--seed", "1", "--out", str(out)]) == 0
        assert record_by_id(load_report(out), "cp")["kind"] == "pass"
        assert main(["verify", str(out)]) == 0


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

    def test_timings_time_every_classify_stage_and_leave_the_body_alone(self, tmp_path,
                                                                          monkeypatch):
        # the certificate runs before the k loop; a slowed one shows in its own
        # stage, not in the sk_ stages it decides (sk_1 restates k_positive_1)
        certificate = cli.decomposition_certificate

        def slow_certificate(*args):
            time.sleep(0.2)
            return certificate(*args)

        monkeypatch.setattr(cli, "decomposition_certificate", slow_certificate)
        doc = write_map_doc(tmp_path / "t.json", transposition_map(2))
        plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
        args = ["classify", doc, "--k-max", "3", "--seed", "2", "--restarts", "4",
                "--samples", "10", "--projections", "4"]
        assert main([*args, "--out", str(plain)]) == 0
        assert main([*args, "--timings", "--out", str(timed)]) == 0
        report = load_report(timed)
        assert report_body(report) == load_report(plain)
        stages = report["timing"]["stages"]
        assert sorted(stages) == sorted(r["id"] for r in report["records"])
        assert all(0 <= stage["elapsed_s"] <= report["timing"]["elapsed_s"]
                   for stage in stages.values())
        assert sum(stage["elapsed_s"] for stage in stages.values()) <= report["timing"]["elapsed_s"]
        assert stages["decomposable"]["elapsed_s"] >= 0.2
        for k in (1, 2, 3):
            source = "k_positive_1" if k == 1 else "decomposable"
            assert record_by_id(report, f"sk_{k}")["stats"]["derived_from"] == source
            assert stages[f"sk_{k}"]["elapsed_s"] < 0.2


class TestModularVerify:
    def test_random_states_pass(self, tmp_path):
        out = tmp_path / "mod.json"
        code = main(["modular-verify", "--dim", "4", "--trials", "5", "--seed", "13",
                     "--out", str(out)])
        assert code == 0
        report = load_report(out)
        assert report["summary"]["passed"] is True
        assert report["summary"]["max_defect"] <= 1e-9

    def test_each_state_is_drawn_just_before_its_own_trial(self, tmp_path, monkeypatch):
        # the suite holds one state at a time: when a state is drawn, every
        # earlier state is gone, and each context is built from the state
        # drawn just before it
        draw, context = cli.random_faithful_state, cli.gns_context
        events, drawn = [], []

        def counted_draw(rng, dim):
            assert all(ref() is None for ref in drawn)
            rho = draw(rng, dim)
            drawn.append(weakref.ref(rho))
            events.append(("draw", id(rho)))
            return rho

        def counted_context(rho):
            assert events[-1] == ("draw", id(rho))
            events.append(("context", None))
            return context(rho)

        monkeypatch.setattr(cli, "random_faithful_state", counted_draw)
        monkeypatch.setattr(cli, "gns_context", counted_context)
        out = tmp_path / "mod.json"
        assert main(["modular-verify", "--dim", "3", "--trials", "4", "--seed", "13",
                     "--out", str(out)]) == 0
        assert [kind for kind, _ in events] == ["draw", "context"] * 4
        assert load_report(out)["params"]["trials"] == 4

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
        assert main(["verify", str(out)]) == 0

    def test_an_edited_member_record_fails_verify(self, tmp_path, capsys):
        # verify re-derives the member record from the embedded input: the
        # [[I, 2X], [2X, I]] vector lies outside P, so "pass" 0.5 is stale
        eye, x = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
        doc = cone_doc(tmp_path, [[eye, 2 * x], [2 * x, eye]])
        out = tmp_path / "r.json"
        assert main(["cone", "member", doc, "--seed", "4", "--out", str(out)]) == 0
        report = load_report(out)
        record_by_id(report, "member").update(kind="pass", value=0.5)
        dump_document(report, str(out))
        assert main(["verify", str(out)]) == 1
        assert "member: stated pass 0.5" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("in_p", True), ("in_ptau", True), ("in_intersection", True),
        ("p_min_eig", 0.5), ("ptau_min_eig", -0.5),
    ])
    def test_an_edited_member_summary_fails_verify(self, tmp_path, capsys, field, value):
        eye, x = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
        doc = cone_doc(tmp_path, [[eye, 2 * x], [2 * x, eye]])
        out = tmp_path / "r.json"
        assert main(["cone", "member", doc, "--seed", "4", "--out", str(out)]) == 0
        report = load_report(out)
        report["summary"][field] = value
        dump_document(report, str(out))
        assert main(["verify", str(out)]) == 1
        assert f"summary: {field} does not restate" in capsys.readouterr().err

    def test_flags_on_symmetric_blocks(self, tmp_path):
        eye = np.eye(2)
        sym = np.array([[0.2, 0.1], [0.1, 0.3]])
        doc = cone_doc(tmp_path, [[eye, sym], [sym, eye]])
        out = tmp_path / "r.json"
        assert main(["cone", "flags", doc, "--out", str(out)]) == 0
        summary = load_report(out)["summary"]
        assert summary["q_in_p"] and summary["q_zero"] and summary["fixed"] and summary["agree"]

    def test_pq_bounds_polar_subcommands(self, tmp_path):
        # bounds draws nothing, so it needs no --seed
        eye = np.eye(2)
        sym = np.array([[0.2, 0.1], [0.1, 0.3]])
        doc = cone_doc(tmp_path, [[eye, sym], [sym, eye]])
        for sub in ("pq", "bounds", "polar"):
            out = tmp_path / f"{sub}.json"
            assert main(["cone", sub, doc, "--samples", "50", "--out", str(out)]) == 0
        bounds = load_report(tmp_path / "bounds.json")
        assert set(bounds["summary"]) == {"abs_q_vs_p", "pairing", "q_vs_total", "factor_sum",
                                          "factor_diff", "qq_vs_ptot", "norm"}
        assert record_by_id(bounds, "bounds")["kind"] == "pass"
        assert record_by_id(bounds, "bounds")["value"] == min(bounds["summary"].values())
        assert load_report(tmp_path / "polar.json")["summary"]["degenerate"] is True

    def test_bounds_draws_nothing(self, tmp_path, monkeypatch):
        eye, sym = np.eye(2), np.array([[0.2, 0.1], [0.1, 0.3]])
        doc = cone_doc(tmp_path, [[eye, sym], [sym, eye]])
        streams = count_calls(monkeypatch, "rng_stream", module=cones)
        work = count_stream_work(monkeypatch)
        out = tmp_path / "r.json"
        assert main(["cone", "bounds", doc, "--seed", "6", "--out", str(out)]) == 0
        assert main(["verify", str(out)]) == 0
        assert (streams["calls"], work["philox"], work["rng_stream"]) == (0, 0, 0)

    def test_bounds_outside_the_intersection_is_an_input_error(self, tmp_path, capsys):
        # [[I, 2X], [2X, I]] has the eigenvalue -1, so it lies outside P
        eye, x = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
        doc = cone_doc(tmp_path, [[eye, 2 * x], [2 * x, eye]])
        out = tmp_path / "r.json"
        assert main(["cone", "bounds", doc, "--out", str(out)]) == 2
        assert not out.exists()
        assert "not in the intersection" in capsys.readouterr().err

    def test_a_boundary_vector_gives_a_bounds_violation_that_verifies(self, tmp_path, capsys):
        # x = diag(1000, 1000, 1000, -1e-7) passes as PSD in both orderings
        # (psd_tol(x) is about 1.7e-6), but in the tracial frame xi = x / 2
        # pairs with eta = E_33 / 2 at -2.5e-8, below the -1e-9 tolerance
        xi = np.diag([1000.0, 1000.0, 1000.0, -1e-7]) / 2
        doc = cone_doc(tmp_path, None, extra={"vector": matrix_to_doc(xi)})
        out = tmp_path / "r.json"
        assert main(["cone", "bounds", doc, "--out", str(out)]) == 1
        report = load_report(out)
        record = record_by_id(report, "bounds")
        assert record["kind"] == "violation"
        assert record["value"] == pytest.approx(-2.5e-8, rel=1e-9)
        eta = matrix_from_doc(record["witness"]["eta"])
        assert np.allclose(eta, np.diag([0.0, 0.0, 0.0, 0.5]))
        assert main(["verify", str(out)]) == 0
        # an eta that pairs nonnegatively proves nothing
        record["witness"]["eta"] = matrix_to_doc(np.diag([0.5, 0.0, 0.0, 0.0]))
        dump_document(report, str(out))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        assert "bounds: the witness re-evaluates to" in capsys.readouterr().err

    def test_main_builds_one_parser_and_calls_the_current_handler(self, tmp_path, monkeypatch):
        # the parser is built on the first call, and each call looks its
        # handler up anew, so a wrapped or patched cmd_* takes effect
        cli._parser.cache_clear()
        builds = count_calls(monkeypatch, "build_parser", module=cli)
        handled = []
        monkeypatch.setattr(cli, "cmd_cone", lambda args: handled.append(args.subcommand) or 0)
        assert main(["cone", "pq", "a.json"]) == 0
        assert main(["cone", "flags", "b.json"]) == 0
        assert (builds["calls"], handled) == (1, ["pq", "flags"])
        assert cli.build_parser() is not cli._parser()

    def test_weakdec_on_transposition(self, tmp_path):
        doc = cone_doc(
            tmp_path,
            None,
            extra={"map": map_to_document(transposition_map(2), "choi"), "k": 2},
        )
        out = tmp_path / "r.json"
        assert main(["cone", "weakdec", doc, "--seed", "5", "--samples", "30",
                     "--out", str(out)]) == 0
        assert load_report(out)["summary"]["weakdec"] == "evidence"

    def test_each_cone_report_states_only_what_its_subcommand_computed(self, tmp_path, monkeypatch):
        # pq, bounds, flags and polar draw nothing, so even under --seed they
        # state no seed or samples; weakdec runs no transposed-cone consistency
        # sampler, the one rng_stream caller on its path
        eye, sym = np.eye(2), np.array([[0.2, 0.1], [0.1, 0.3]])
        blocks = cone_doc(tmp_path, [[eye, sym], [sym, eye]])
        weak = cone_doc(tmp_path, None, name="weak.json",
                        extra={"map": map_to_document(transposition_map(2), "choi"), "k": 2})
        streams = count_calls(monkeypatch, "rng_stream", module=cones)
        reports = {}
        for sub in ("member", "pq", "bounds", "flags", "polar", "weakdec"):
            out, older = tmp_path / f"{sub}.json", tmp_path / f"{sub}.older.json"
            streams["calls"] = 0
            assert main(["cone", sub, weak if sub == "weakdec" else blocks, "--seed", "6",
                         "--samples", "20", "--out", str(out)]) == 0
            reports[sub] = load_report(out)
            assert main(["verify", str(out)]) == 0, sub
            dump_document(with_parent_keys(reports[sub]), str(older))
            assert main(["verify", str(older)]) == 0, sub
        assert streams["calls"] == 0
        assert set(reports["weakdec"]["summary"]) == {"weakdec", "k", "min_pairing"}
        assert "samples" not in reports["bounds"]["summary"]
        for sub in ("pq", "bounds", "flags", "polar"):
            assert "seed" not in reports[sub] and reports[sub]["params"] == {"subcommand": sub}
        for sub in ("member", "weakdec"):
            assert (reports[sub]["seed"], reports[sub]["params"]) == (6, {"subcommand": sub, "samples": 20})

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


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:state condition number")
class TestNormOverflow:
    """Finite input whose tolerance would overflow to inf is refused with exit
    2 and no report, instead of passing every test that tolerance scales."""

    @pytest.mark.parametrize("h", [-1e160 * np.eye(4), np.pad([[0.0, 1e160]], ((0, 3), (0, 2)))],
                             ids=["negative-multiple-of-identity", "one-off-diagonal-entry"])
    def test_a_choi_matrix_whose_norm_overflows_is_refused(self, tmp_path, capsys, h):
        doc = write_map_doc(tmp_path / "huge.json", MatrixMap.from_choi(h, 2, 2))
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "2", "--seed", "1", "--out", str(out)]) == 2
        assert not out.exists()
        assert "input error: matrix norm overflows float range" in capsys.readouterr().err

    def test_the_refusal_prints_only_the_input_error(self, tmp_path):
        # numpy's overflow warning used to come first, two lines naming its own source
        doc = write_map_doc(tmp_path / "huge.json", MatrixMap.from_choi(-1e160 * np.eye(4), 2, 2))
        out = tmp_path / "report.json"
        src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "posmap.cli", "classify", doc, "--seed", "1",
                               "--out", str(out)], capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 2
        assert proc.stderr == "input error: matrix norm overflows float range; rescale the input\n"
        assert not out.exists()

    @pytest.mark.parametrize("scale, code", [(1e146, 0), (1e150, 2)])
    def test_a_cone_vector_whose_reconstruction_overflows_is_refused(self, tmp_path, scale, code):
        # the product of the states has the eigenvalue 1e-16, so xi = -scale E_00
        # has a finite norm and its reconstruction the norm 1e8 scale: its squared
        # norm overflows at 1e150, and at 1e146 the vector is rightly outside P
        thin = np.diag([1 - 1e-8, 1e-8])
        xi = np.zeros((4, 4))
        xi[0, 0] = -scale
        doc = cone_doc(tmp_path, None, extra={"rho_a": matrix_to_doc(thin), "rho_b": matrix_to_doc(thin),
                                              "vector": matrix_to_doc(xi)})
        out = tmp_path / "report.json"
        assert main(["cone", "member", doc, "--seed", "1", "--samples", "0", "--out", str(out)]) == code
        if code == 0:
            assert load_report(out)["summary"]["in_p"] is False
        else:
            assert not out.exists()


class TestCountOptions:
    @pytest.mark.parametrize("option,value", [
        ("--restarts", "0"), ("--samples", "0"), ("--samples", "-3"),
        ("--projections", "0"), ("--k-max", "0"),
    ])
    def test_classify_rejects_counts_below_one(self, tmp_path, capsys, option, value):
        doc = write_map_doc(tmp_path / "t.json", transposition_map(2))
        out = tmp_path / "r.json"
        assert main(["classify", doc, "--seed", "1", option, value, "--out", str(out)]) == 2
        assert not out.exists()
        assert f"{option} must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["weakdec"])
    def test_cone_rejects_zero_samples(self, tmp_path, sub):
        eye, zero = np.eye(2), np.zeros((2, 2))
        doc = cone_doc(tmp_path, [[eye, zero], [zero, eye]],
                       extra={"map": map_to_document(transposition_map(2), "choi"), "k": 1})
        assert main(["cone", sub, doc, "--seed", "1", "--samples", "0"]) == 2

    def test_cone_member_rejects_negative_samples(self, tmp_path, capsys):
        # zero means no hull sampling; a negative count used to be written as is
        eye, zero = np.eye(2), np.zeros((2, 2))
        doc = cone_doc(tmp_path, [[eye, zero], [zero, eye]])
        out = tmp_path / "r.json"
        assert main(["cone", "member", doc, "--seed", "1", "--samples", "-5", "--out", str(out)]) == 2
        assert not out.exists()
        assert "hull_samples=-5 must be an integer >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["member", "pq", "bounds", "flags", "polar"])
    def test_cone_accepts_zero_samples_where_nothing_is_sampled(self, tmp_path, sub):
        # member reads zero as exact membership with no hull sampling
        eye, zero = np.eye(2), np.zeros((2, 2))
        doc = cone_doc(tmp_path, [[eye, zero], [zero, eye]])
        out = tmp_path / "r.json"
        assert main(["cone", sub, doc, "--seed", "1", "--samples", "0", "--out", str(out)]) == 0
        if sub == "member":
            assert load_report(out)["summary"]["in_hull_evidence"] is None

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_modular_verify_rejects_trials_below_one(self, trials):
        assert main(["modular-verify", "--dim", "2", "--trials", trials, "--seed", "1"]) == 2

    def test_k_max_beyond_the_desk_scale_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        # sk_<k> samples blocks of size k * m: 13 * 3 = 39 > 36 is refused
        # before any search runs, and 12 * 3 = 36 still runs
        doc = write_map_doc(tmp_path / "id3.json", identity_map(3))
        out = tmp_path / "r.json"
        budget = ["--seed", "1", "--restarts", "2", "--samples", "2", "--projections", "2"]
        certificates = count_calls(monkeypatch, "decomposition_certificate", module=cli)
        assert main(["classify", doc, "--k-max", "13", *budget, "--out", str(out)]) == 2
        assert not out.exists()
        assert certificates["calls"] == 0
        assert "--k-max 13 gives blocks of size 39 > 36" in capsys.readouterr().err
        assert main(["classify", doc, "--k-max", "12", *budget, "--out", str(out)]) == 0
        assert record_by_id(load_report(out), "pk_12")["kind"] == "evidence"

    def test_oversized_map_is_rejected_before_parsing(self, tmp_path):
        # m = n = 300 would make from_kraus allocate m^2 n^2 unit images (about
        # 130 GB); the guard fires on the declared dimensions alone
        doc = {"kind": "map", "m": 300, "n": 300, "encoding": "kraus",
               "matrices": [matrix_to_doc(np.ones((1, 1)))]}
        path = tmp_path / "big.json"
        dump_document(doc, str(path))
        assert main(["classify", str(path), "--seed", "1"]) == 2


class TestHostileDocuments:
    def test_infinite_metadata_is_an_input_error(self, tmp_path):
        doc = map_to_document(transposition_map(2), "choi", metadata={"x": "INF"})
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc).replace('"INF"', "Infinity"), encoding="utf-8")
        assert main(["classify", str(path), "--seed", "1", "--restarts", "2", "--samples", "2",
                     "--projections", "2"]) == 2

    @pytest.mark.parametrize("literal", ["1e400", "-1e999"])
    def test_a_float_beyond_float_range_is_an_input_error(self, tmp_path, capsys, literal):
        # json reads such a literal as an infinity, which the canonical JSON of
        # verify's input digest cannot write
        doc = map_to_document(transposition_map(2), "choi", metadata={"x": "HUGE"})
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc).replace('"HUGE"', literal), encoding="utf-8")
        assert main(["classify", str(path), "--seed", "1", "--restarts", "2", "--samples", "2",
                     "--projections", "2"]) == 2
        out = tmp_path / "report.json"
        source = write_map_doc(tmp_path / "t.json", transposition_map(2))
        assert main(["classify", source, "--k-max", "2", "--seed", "3", "--out", str(out)]) == 0
        report = load_report(out)
        report["input"]["x"] = "HUGE"
        out.write_text(json.dumps(report).replace('"HUGE"', literal), encoding="utf-8")
        assert main(["verify", str(out)]) == 2
        assert "beyond float range" in capsys.readouterr().err

    def test_nan_report_input_is_an_input_error(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"input": NaN, "records": []}', encoding="utf-8")
        assert main(["verify", str(path)]) == 2

    def test_string_and_bool_map_dimensions_are_input_errors(self, tmp_path, capsys):
        # {"m": "2", "n": true} with a 2 x 2 Choi matrix used to classify as a 2x1 map
        doc = {"kind": "map", "m": "2", "n": True, "encoding": "choi",
               "matrices": [matrix_to_doc(np.eye(2))]}
        path = tmp_path / "coerced.json"
        dump_document(doc, str(path))
        out = tmp_path / "r.json"
        assert main(["classify", str(path), "--seed", "1", "--out", str(out)]) == 2
        assert not out.exists()
        assert "must be a JSON integer" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["two", 0])
    def test_cone_k_that_is_not_a_positive_integer_is_an_input_error(self, tmp_path, k):
        doc = cone_doc(tmp_path, None,
                       extra={"map": map_to_document(transposition_map(2), "choi"), "k": k})
        out = tmp_path / "r.json"
        assert main(["cone", "weakdec", doc, "--seed", "1", "--samples", "2",
                     "--out", str(out)]) == 2
        assert not out.exists()


class TestNonFiniteReports:
    """A report is valid JSON or an input error: a cone vector with every
    entry 1e200 overflows `cone pq` (p_norm is inf, the Pythagoras defect
    NaN)."""

    def overflowing_doc(self, tmp_path):
        return cone_doc(tmp_path, None, extra={"vector": matrix_to_doc(np.full((4, 4), 1e200))})

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_an_overflowing_report_file_is_never_written(self, tmp_path, capsys):
        doc = self.overflowing_doc(tmp_path)
        out = tmp_path / "r.json"
        assert main(["cone", "pq", doc, "--out", str(out)]) == 2
        assert not out.exists()
        out.write_text("earlier report\n")
        assert main(["cone", "pq", doc, "--out", str(out)]) == 2
        assert out.read_text() == "earlier report\n"
        assert "out of float range" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_an_overflowing_report_is_not_printed(self, tmp_path, capsys):
        assert main(["cone", "pq", self.overflowing_doc(tmp_path)]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""  # no Infinity or NaN token, and no partial report
        assert "out of float range" in printed.err

    def test_stdout_and_out_carry_the_same_bytes(self, tmp_path, capsys):
        out = tmp_path / "mod.json"
        argv = ["modular-verify", "--dim", "3", "--trials", "2", "--seed", "9"]
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")


class TestUnwritableOut:
    """An --out path that cannot be opened for writing is an input error:
    exit 2, and nothing is written."""

    def test_an_out_in_a_missing_directory(self, tmp_path, capsys):
        eye = np.eye(2)
        doc = cone_doc(tmp_path, [[eye, np.zeros((2, 2))], [np.zeros((2, 2)), eye]])
        out = tmp_path / "missing" / "r.json"
        assert main(["cone", "pq", doc, "--out", str(out)]) == 2
        assert not out.parent.exists()
        assert f"input error: cannot write {out}" in capsys.readouterr().err

    def test_an_out_that_is_a_directory(self, tmp_path, capsys):
        doc = write_map_doc(tmp_path / "t.json", transposition_map(2))
        out = tmp_path / "reports"
        out.mkdir()
        assert main(["classify", doc, "--k-max", "1", "--seed", "1", "--restarts", "4", "--samples", "20",
                     "--projections", "5", "--out", str(out)]) == 2
        assert list(out.iterdir()) == []
        assert f"input error: cannot write {out}" in capsys.readouterr().err


class TestStateGuards:
    @pytest.mark.parametrize("state_dim,dim", [(3, 2), (12, 8)])
    def test_rho_file_must_match_dim(self, tmp_path, capsys, state_dim, dim):
        path = tmp_path / "rho.json"
        rho = np.eye(state_dim) / state_dim
        dump_document({"kind": "state", "matrix": matrix_to_doc(rho)}, str(path))
        out = tmp_path / "r.json"
        assert main(["modular-verify", "--dim", str(dim), "--seed", "1", "--rho-file", str(path),
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert f"does not match --dim {dim}" in capsys.readouterr().err

    def test_cone_states_beyond_the_desk_scale_are_input_errors(self, tmp_path):
        doc = {
            "kind": "cone-input",
            "rho_a": matrix_to_doc(np.eye(7) / 7),
            "rho_b": matrix_to_doc(np.eye(7) / 7),
            "vector": matrix_to_doc(np.eye(49) / 7),
        }
        path = tmp_path / "big.json"
        dump_document(doc, str(path))
        assert main(["cone", "pq", str(path), "--out", str(tmp_path / "r.json")]) == 2


def with_parent_keys(report):
    """A copy of `report` that carries again every key an earlier report
    format wrote and that repeats another field of the report: each record's
    `seed`, a modular record's `defects`, each search's `min_value`, weakdec's
    `dual_samples`, a derived record's copy of its source's stats and a
    derived violation's copy of its source's witness, the seed of
    the draw-free decomposability and exact k = n searches, and the witness
    keys `rank` (pk_) and `sample` (sk_); and the keys a cone report stated
    without computing them: the seed 0 and default samples of the draw-free
    pq, bounds, flags and polar and weakdec's
    `transposed_cone_identity_defect`."""
    report = json.loads(json.dumps(report))
    params, summary = report["params"], report["summary"]
    if params.get("subcommand") in ("pq", "bounds", "flags", "polar"):
        report["seed"], params["samples"] = 0, 100
    elif params.get("subcommand") == "weakdec":
        summary["transposed_cone_identity_defect"] = 0.0
    by_id = {r["id"]: r for r in report["records"]}
    for record in report["records"]:
        rid, stats = record["id"], record.get("stats")
        record["seed"] = report["seed"]
        if rid.startswith("identity:"):
            record["defects"] = {"max": record["value"]}
        if stats is None or rid in ("cp", "decomposable"):
            continue
        if "derived_from" in stats:
            source = by_id[stats["derived_from"]]
            stats.update(source["stats"], derived_from=stats["derived_from"])
            if record["kind"] == "violation" and "witness" in source:
                record["witness"] = source["witness"]
            continue
        stats["min_value"] = record["value"]
        if rid == "decomposability" or stats.get("exact") is True:
            stats["seed"] = report["seed"]
        if rid.startswith("weakdec_") and record["kind"] == "evidence":
            stats["dual_samples"] = stats["samples"]
        witness = record.get("witness", {})
        if rid.startswith("pk_") and witness:
            witness["rank"] = witness["isometry"]["cols"]
        if rid.startswith("sk_") and witness:
            witness["sample"] = stats["samples"] - 1
    return report


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

    def test_an_edited_summary_detected(self, tmp_path, capsys):
        # the cp record stays a violation, so the summary no longer restates it
        doc = write_map_doc(tmp_path / "t.json", transposition_map(2))
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "2", "--seed", "3", "--out", str(out)]) == 0
        report = load_report(out)
        assert record_by_id(report, "cp")["kind"] == "violation"
        assert report["summary"]["completely_positive"] is False
        report["summary"]["completely_positive"] = True
        dump_document(report, str(out))
        assert main(["verify", str(out)]) == 1
        assert "summary: does not restate the kinds of the records" in capsys.readouterr().err

    @pytest.mark.parametrize("params", [{}, {"k_max": "2"}, {"k_max": 3}])
    def test_a_summary_its_params_do_not_determine_detected(self, tmp_path, capsys, params):
        doc = write_map_doc(tmp_path / "t.json", transposition_map(2))
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "2", "--seed", "3", "--out", str(out)]) == 0
        report = load_report(out)
        report["params"] = params
        dump_document(report, str(out))
        assert main(["verify", str(out)]) == 1
        assert "summary: the records and k_max do not determine" in capsys.readouterr().err

    def test_a_forged_cp_pass_fails_verify(self, tmp_path, capsys):
        # cp and k_positive_2 relabelled pass without their witnesses, with
        # the summary re-derived to claim complete positivity
        doc = write_map_doc(tmp_path / "t.json", transposition_map(2))
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "2", "--seed", "3", "--out", str(out)]) == 0
        report = load_report(out)
        for record_id in ("cp", "k_positive_2"):
            record = record_by_id(report, record_id)
            assert record["kind"] == "violation"
            record["kind"] = "pass"
            del record["witness"]
        report["summary"] = classify_summary(report["records"], 2)
        assert report["summary"]["completely_positive"] is True
        dump_document(report, str(out))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        err = capsys.readouterr().err
        assert "cp: stated pass" in err and "the input gives violation" in err
        assert "k_positive_2: a pass that verify cannot re-derive" in err

    def test_a_witnessed_violation_relabelled_pass_fails_verify(self, tmp_path, capsys):
        # the witness still re-checks to the stated -1.0, but it proves a violation
        doc = write_map_doc(tmp_path / "t.json", transposition_map(2))
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "2", "--seed", "3", "--out", str(out)]) == 0
        report = load_report(out)
        record = record_by_id(report, "k_positive_2")
        assert record["value"] == pytest.approx(-1.0, abs=1e-6) and "witness" in record
        record["kind"] = "pass"
        report["summary"] = classify_summary(report["records"], 2)
        dump_document(report, str(out))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        assert "k_positive_2: a pass that verify cannot re-derive" in capsys.readouterr().err

    def test_a_violation_at_a_positive_value_fails_verify(self, tmp_path, capsys):
        # the transposition is 2-copositive, and on e0 (x) e0 the Choi matrix of
        # T o T = id has value +1: the witness re-checks to its stated value but
        # violates nothing
        doc = write_map_doc(tmp_path / "t.json", transposition_map(2))
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "2", "--seed", "3", "--out", str(out)]) == 0
        report = load_report(out)
        record = record_by_id(report, "k_copositive_2")
        assert record["kind"] == "evidence" and "derived_from" not in record["stats"]
        vector = np.zeros((4, 1))
        vector[0, 0] = 1.0
        record.update(kind="violation", value=1.0, witness={
            "projection": matrix_to_doc(np.diag([1.0, 0.0])), "vector": matrix_to_doc(vector)})
        report["summary"] = classify_summary(report["records"], 2)
        dump_document(report, str(out))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        assert "k_copositive_2: the witness re-evaluates to 1.0" in capsys.readouterr().err

    def test_a_non_hermitian_embedded_map_is_an_input_error(self, tmp_path, capsys):
        # verify re-derives cp from the map, and cp_verdict refuses it as classify does
        doc = write_map_doc(tmp_path / "t.json", transposition_map(2))
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "2", "--seed", "3", "--out", str(out)]) == 0
        report = load_report(out)
        report["input"]["matrices"][0]["data"][1] = [5.0, 1.0]
        report["input_digest"] = input_digest(report["input"])
        dump_document(report, str(out))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 2
        assert "input error: map is not Hermiticity-preserving" in capsys.readouterr().err

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

    def test_corpus_reports_verify(self, corpus, tmp_path):
        # and so do they with every key an earlier format repeated
        for name, (_, path) in corpus.items():
            assert main(["verify", path]) == 0, name
            older = tmp_path / f"{name}.json"
            dump_document(with_parent_keys(load_report(path)), str(older))
            assert main(["verify", str(older)]) == 0, name

    def test_corpus_covers_every_record_writer(self, corpus):
        # classify of a certified map with k > n, of violating maps and of the
        # Choi qutrit map; every cone subcommand; modular-verify
        reports = {name: load_report(path) for name, (_, path) in corpus.items()}
        clamp = reports["classify_transposition_clamp"]
        assert (clamp["params"]["k_max"], clamp["input"]["n"]) == (3, 2)
        assert record_by_id(clamp, "decomposable")["kind"] == "pass"
        assert {r["id"] for r in reports["classify_neg_identity"]["records"]
                if r["kind"] == "violation"} >= {"sk_1", "pk_1", "decomposability"}
        assert {r["id"] for report in reports.values() for r in report["records"]} >= {
            "member", "pq", "bounds", "flags", "polar", "weakdec_2", "identity:polar"}

    def test_no_record_repeats_another_field(self, corpus):
        # a report states each fact once, and no search that draws nothing states a seed
        for name, (_, path) in corpus.items():
            for record in load_report(path)["records"]:
                where = f"{name} {record['id']}"
                assert not {"seed", "defects"} & set(record), where
                stats, witness = record.get("stats", {}), record.get("witness", {})
                assert not {"min_value", "dual_samples"} & set(stats), where
                if "derived_from" in stats:
                    assert set(stats) == {"derived_from"} and "witness" not in record, where
                if record["id"] == "decomposability" or stats.get("exact") is True:
                    assert "seed" not in stats, where
                assert not {"rank", "sample"} & set(witness), where

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

    def test_malformed_cone_input_of_a_weakdec_report_is_an_input_error(self, corpus, tmp_path,
                                                                        capsys):
        # like a map report's input, the embedded cone input is parsed before
        # any witness is re-checked
        report = load_report(corpus["cone_weakdec_neg_identity"][1])
        report["input"]["rho_a"]["rows"] = 0
        out = tmp_path / "bad_input.json"
        dump_document(report, str(out))
        assert main(["verify", str(out)]) == 2
        err = capsys.readouterr().err
        assert "rho_a: non-positive dimensions" in err and "stale witness" not in err

    def test_an_unused_map_in_a_cone_input_is_not_parsed(self, tmp_path):
        # only a weakdec violation is re-checked against the cone input's map
        eye, zero = np.eye(2), np.zeros((2, 2))
        doc = cone_doc(tmp_path, [[eye, zero], [zero, eye]], extra={"map": {"kind": "map", "m": 0}})
        out = tmp_path / "r.json"
        assert main(["cone", "member", doc, "--seed", "4", "--out", str(out)]) == 0
        assert main(["verify", str(out)]) == 0

    @pytest.mark.parametrize("tamper,message", [
        (lambda q: np.eye(3), "stored q has shape (3, 3)"),
        (lambda q: q - 5 * np.eye(4), "stored q leaves Q or h - Q^G non-PSD"),
        (lambda q: np.zeros((4, 4)), "stored q leaves Q or h - Q^G non-PSD"),
    ], ids=["wrong-shape", "q-not-psd", "p-not-psd"])
    def test_tampered_certificate_detected(self, corpus, tmp_path, capsys, tamper, message):
        report = load_report(corpus["classify_transposition_clamp"][1])
        record = record_by_id(report, "decomposable")
        assert record["kind"] == "pass"
        q = matrix_from_doc(record["witness"]["q"])
        record["witness"]["q"] = matrix_to_doc(tamper(q))
        out = tmp_path / "tampered.json"
        dump_document(report, str(out))
        assert main(["verify", str(out)]) == 1
        assert f"stale witness: decomposable: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("name,record_id", [
        ("classify_transposition_clamp", "decomposable"),
        ("classify_neg_identity", "k_positive_1"),
    ])
    def test_a_proof_without_its_witness_detected(self, corpus, tmp_path, capsys, name,
                                                  record_id):
        report = load_report(corpus[name][1])
        del record_by_id(report, record_id)["witness"]
        out = tmp_path / "unwitnessed.json"
        dump_document(report, str(out))
        assert main(["verify", str(out)]) == 1
        assert f"stale witness: {record_id}: no witness to re-check" in capsys.readouterr().err

    @pytest.mark.parametrize("tamper,message", [
        ("deleted", "derived from 'decomposable', which is not a record of this report"),
        ("edited-value", "kind or value differs from the record 'decomposable'"),
    ], ids=["deleted", "edited-value"])
    def test_a_derived_record_without_its_certificate_detected(self, corpus, tmp_path, capsys,
                                                               tamper, message):
        # the sk_ records above k = 1 and the decomposability record of a
        # certified map restate the certificate
        report = load_report(corpus["classify_transposition_clamp"][1])
        cert = record_by_id(report, "decomposable")
        if tamper == "edited-value":
            cert["value"] = 0.25
        else:
            report["records"].remove(cert)
        out = tmp_path / "uncertified.json"
        dump_document(report, str(out))
        assert main(["verify", str(out)]) == 1
        err = capsys.readouterr().err
        for record_id in ("sk_2", "sk_3", "pk_2", "pk_3", "decomposability"):
            assert record_by_id(report, record_id)["stats"]["derived_from"] == "decomposable"
            assert f"stale witness: {record_id}: {message}" in err

    @pytest.mark.parametrize("name,record_id,source,field,value", [
        ("classify_neg_identity", "block_positivity", "k_positive_1", "kind", "evidence"),
        ("classify_transposition_clamp", "block_positivity", "k_positive_1", "value", 0.5),
        ("classify_transposition_clamp", "k_copositive_3", "k_copositive_2", "value", 0.75),
        ("classify_transposition_clamp", "sk_2", "decomposable", "value", 0.75),
        ("classify_transposition_clamp", "decomposability", "decomposable", "value", 1e-6),
    ])
    def test_an_edited_derived_record_detected(self, corpus, tmp_path, capsys, name, record_id,
                                               source, field, value):
        report = load_report(corpus[name][1])
        record = record_by_id(report, record_id)
        assert record["stats"]["derived_from"] == source
        record[field] = value
        out = tmp_path / "derived.json"
        dump_document(report, str(out))
        assert main(["verify", str(out)]) == 1
        assert (f"{record_id}: kind or value differs from the record {source!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("record_id,source", [("decomposability", "k_positive_1"),
                                                  ("sk_2", "k_positive_2")])
    def test_a_derived_violation_outside_the_table_detected(self, corpus, tmp_path, capsys,
                                                            record_id, source):
        # each restates its source's kind and value, but no row of the table of
        # implications leads from the source to it
        report = load_report(corpus["classify_neg_identity"][1])
        record, origin = record_by_id(report, record_id), record_by_id(report, source)
        assert origin["kind"] == "violation" and "derived_from" not in origin["stats"]
        record.pop("witness")
        record.update(kind=origin["kind"], value=origin["value"], stats={"derived_from": source})
        out = tmp_path / "derived.json"
        dump_document(report, str(out))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        assert (f"stale witness: {record_id}: a violation of {source!r} does not imply one of it"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("stats", ["derived_from", ["derived_from"], None])
    def test_an_unwitnessed_violation_without_a_stats_object_detected(self, corpus, tmp_path,
                                                                      capsys, stats):
        # only a stats object naming a source makes a record derived
        report = load_report(corpus["classify_neg_identity"][1])
        record = record_by_id(report, "k_positive_1")
        del record["witness"]
        record["stats"] = stats
        out = tmp_path / "unwitnessed.json"
        dump_document(report, str(out))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        assert "stale witness: k_positive_1: no witness to re-check" in capsys.readouterr().err

    def test_an_edited_source_witness_fails_through_the_source(self, corpus, tmp_path, capsys):
        # block_positivity, k_copositive_1, sk_1 and pk_1 hold no witness: the
        # k_positive_1 witness they restate is re-checked once, as its own record's
        report = load_report(corpus["classify_neg_identity"][1])
        derived = [r["id"] for r in report["records"]
                   if r.get("stats", {}).get("derived_from") == "k_positive_1"]
        assert derived == ["block_positivity", "k_copositive_1", "sk_1", "pk_1"]
        assert not any("witness" in record_by_id(report, rid) for rid in derived)
        source = record_by_id(report, "k_positive_1")
        vector = matrix_from_doc(source["witness"]["vector"])
        source["witness"]["vector"] = matrix_to_doc(np.roll(vector, 1))
        out = tmp_path / "edited.json"
        dump_document(report, str(out))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        err = capsys.readouterr().err
        assert "stale witness: k_positive_1:" in err
        assert not any(f"stale witness: {rid}:" in err for rid in derived)

    def test_an_earlier_derived_violation_with_a_witness_copy_verifies(self, corpus, tmp_path):
        # an earlier format copied the source's witness into each derived
        # violation; verify reads only the source's
        report = load_report(corpus["classify_transposition_clamp"][1])
        copies = 0
        for record in report["records"]:
            source = record.get("stats", {}).get("derived_from")
            if record["kind"] == "violation" and source:
                record["witness"] = record_by_id(report, source)["witness"]
                copies += 1
        assert copies == 1  # k_positive_3, from k_positive_2
        out = tmp_path / "earlier.json"
        dump_document(report, str(out))
        assert main(["verify", str(out)]) == 0

    def test_a_map_to_scalars_restates_every_pk_from_k_positive_1(self, tmp_path):
        # at n = 1 every pk_<k> is the pk_1 verdict, and a product vector is a
        # rank-1 corner's violation at every k
        doc = write_map_doc(tmp_path / "neg.json", MatrixMap.from_choi(-np.eye(2), 2, 1))
        out = tmp_path / "report.json"
        assert main(["classify", doc, "--k-max", "3", "--seed", "4", "--restarts", "4",
                     "--samples", "10", "--projections", "4", "--out", str(out)]) == 0
        report = load_report(out)
        assert record_by_id(report, "k_positive_1")["kind"] == "violation"
        for k in (1, 2, 3):
            record = record_by_id(report, f"pk_{k}")
            assert record["kind"] == "violation" and record["stats"] == {"derived_from": "k_positive_1"}
        assert record_by_id(report, "k_copositive_3")["stats"] == {"derived_from": "k_copositive_1"}
        assert main(["verify", str(out)]) == 0

    @pytest.mark.parametrize("name,record_id", [
        ("classify_neg_identity", "k_positive_1"),
        ("classify_transposition_clamp", "decomposability"),
    ])
    def test_an_integer_beyond_float_range_is_an_input_error(self, corpus, tmp_path, name,
                                                             record_id):
        # a witnessed value and a certificate-decided one: both raised OverflowError
        report = load_report(corpus[name][1])
        record_by_id(report, record_id)["value"] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        assert main(["verify", str(path)]) == 2

    def test_edited_certificate_value_detected(self, corpus, tmp_path):
        report = load_report(corpus["classify_transposition_clamp"][1])
        record_by_id(report, "decomposable")["value"] = 0.25
        out = tmp_path / "edited.json"
        dump_document(report, str(out))
        assert main(["verify", str(out)]) == 1

    def test_a_corner_of_rank_above_k_is_refused(self, tmp_path, capsys):
        # the Choi map's pk_3 violation comes from a rank-3 corner, which must
        # not pass as a violation of the searched pk_2
        doc = write_map_doc(tmp_path / "choi.json", choi_qutrit_map())
        out = tmp_path / "report.json"
        argv = ["classify", doc, "--k-max", "3", "--seed", "5", "--projections", "40", "--out"]
        assert main([*argv, str(out)]) == 0
        assert main(["verify", str(out)]) == 0
        report = load_report(out)
        source, forged = record_by_id(report, "pk_3"), record_by_id(report, "pk_2")
        assert source["kind"] == "violation" and source["witness"]["isometry"]["cols"] == 3
        assert "derived_from" not in forged["stats"]
        forged.update(kind="violation", value=source["value"], witness=source["witness"])
        report["summary"] = classify_summary(report["records"], 3)
        dump_document(report, str(out))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        assert "pk_2: stored isometry has rank 3, above the record's k" in capsys.readouterr().err

    @pytest.mark.parametrize("tamper", [
        lambda w: w["q"].update(rows="4"),
        lambda w: w["q"]["data"].pop(),
        lambda w: w["q"]["data"][0].append(0.0),
        lambda w: w["q"].update(data=[["1", 0]] * 16),
    ], ids=["string-rows", "short-data", "triple-entry", "string-entry"])
    def test_malformed_certificate_matrix_is_an_input_error(self, corpus, tmp_path, tamper):
        report = load_report(corpus["classify_transposition_clamp"][1])
        tamper(record_by_id(report, "decomposable")["witness"])
        out = tmp_path / "malformed.json"
        dump_document(report, str(out))
        assert main(["verify", str(out)]) == 2

    def test_a_witness_that_is_not_an_object_is_an_input_error(self, corpus, tmp_path):
        report = load_report(corpus["classify_transposition_clamp"][1])
        record_by_id(report, "decomposable")["witness"] = [1, 2]
        out = tmp_path / "listed.json"
        dump_document(report, str(out))
        assert main(["verify", str(out)]) == 2

    # n = 19 asks for a 2 * 19 = 38-dimensional product context; 1.5 and "1"
    # used to be read as n = 1 and verify
    @pytest.mark.parametrize("n", [19, 1.5, "1"])
    def test_weakdec_witness_block_size_is_guarded_in_verify(self, corpus, tmp_path, capsys, n):
        report = load_report(corpus["cone_weakdec_neg_identity"][1])
        record = next(r for r in report["records"] if r["id"].startswith("weakdec"))
        record["witness"]["n"] = n
        out = tmp_path / "bad_n.json"
        dump_document(report, str(out))
        assert main(["verify", str(out)]) == 1
        assert "not an integer within the desk-scale guard" in capsys.readouterr().err

