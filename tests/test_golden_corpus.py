"""Replay guard: fixed CLI runs must reproduce the frozen records.

Every run below writes a report; its records' (id, kind, value, stats) and
its summary are compared with ``golden_corpus.json``.  Kinds, ids, stats and
summaries must match exactly and values to 1e-12, so a refactor that changes
a verdict, a search budget or a random draw shows up here.  The runs cover
the k > n clamp, a violation of every map test, a decomposability
violation, a decomposition certificate (transposition), a weak-decomposability
violation, each cone subcommand and the
modular suite, all with small search budgets.

Regenerate the fixture (only when a change of verdicts is intended) with
``PYTHONPATH=src python tests/test_golden_corpus.py``.  Before it rewrites
the fixture it prints each record whose kind, value or stats moved against
the committed one, as run, record id, and old -> new, and each summary key
that moved.
"""

import json
import os
import tempfile
import warnings

import numpy as np
import pytest

from posmap.cli import main
from posmap.docio import dump_document, map_to_document, matrix_to_doc
from posmap.maps import choi_qutrit_map, identity_map, transposition_map

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_corpus.json")
SMALL = ["--restarts", "4", "--samples", "20", "--projections", "5"]


def _map_doc(tmp, name, phi):
    path = os.path.join(tmp, name)
    dump_document(map_to_document(phi, "choi"), path)
    return path


def _cone_doc(tmp, name, blocks=None, extra=None):
    doc = {
        "kind": "cone-input",
        "rho_a": matrix_to_doc(np.diag([0.3, 0.7])),
        "rho_b": matrix_to_doc(np.eye(2) / 2),
    }
    if blocks is not None:
        doc["blocks"] = [[matrix_to_doc(b) for b in row] for row in blocks]
    if extra:
        doc.update(extra)
    path = os.path.join(tmp, name)
    dump_document(doc, path)
    return path


def corpus_runs(tmp):
    """(name, argv) for every corpus run; inputs are written into `tmp`."""
    transposition = _map_doc(tmp, "transposition.json", transposition_map(2))
    neg_identity = _map_doc(tmp, "neg_identity.json", -1.0 * identity_map(2))
    qutrit = _map_doc(tmp, "choi_qutrit.json", choi_qutrit_map())
    eye, sym = np.eye(2), np.array([[0.2, 0.1], [0.1, 0.3]])
    skew = np.array([[0.1, 0.2j], [-0.1j, 0.2]])
    symmetric = _cone_doc(tmp, "symmetric.json", [[eye, sym], [sym, eye]])
    mixed = _cone_doc(tmp, "mixed.json", [[eye, skew], [skew.conj().T, eye]])
    weakdec = _cone_doc(
        tmp, "weakdec.json",
        extra={"map": map_to_document(-1.0 * identity_map(2), "choi"), "k": 2},
    )
    return [
        ("classify_transposition_clamp",
         ["classify", transposition, "--k-max", "3", "--seed", "3", *SMALL]),
        ("classify_neg_identity",
         ["classify", neg_identity, "--k-max", "2", "--seed", "5", *SMALL]),
        ("classify_choi_qutrit",
         ["classify", qutrit, "--k-max", "1", "--seed", "2", *SMALL]),
        ("cone_weakdec_neg_identity",
         ["cone", "weakdec", weakdec, "--seed", "5", "--samples", "20"]),
        ("cone_member", ["cone", "member", mixed, "--seed", "4", "--samples", "20"]),
        ("cone_pq", ["cone", "pq", mixed]),
        ("cone_bounds", ["cone", "bounds", symmetric, "--seed", "6", "--samples", "30"]),
        ("cone_flags", ["cone", "flags", symmetric]),
        ("cone_polar", ["cone", "polar", mixed]),
        ("modular_verify_dim3",
         ["modular-verify", "--dim", "3", "--trials", "2", "--seed", "9"]),
    ]


def run_corpus(tmp):
    """Run every corpus entry; returns {name: (exit code, report path)}."""
    results = {}
    for name, argv in corpus_runs(tmp):
        out = os.path.join(tmp, f"{name}.report.json")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([*argv, "--out", out])
        results[name] = (code, out)
    return results


def digest(path):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    return {
        "records": [
            {"id": r["id"], "kind": r["kind"], "value": r["value"], "stats": r.get("stats")}
            for r in report["records"]
        ],
        "summary": report["summary"],
    }


@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    return run_corpus(str(tmp_path_factory.mktemp("corpus")))


with open(FIXTURE, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_replay_matches_golden(replay, name):
    code, path = replay[name]
    expected = GOLDEN[name]
    assert code == expected["exit_code"]
    got = digest(path)
    assert got["summary"] == expected["summary"]
    assert [r["id"] for r in got["records"]] == [r["id"] for r in expected["records"]]
    for rec, want in zip(got["records"], expected["records"]):
        assert rec["kind"] == want["kind"], rec["id"]
        assert rec["stats"] == want["stats"], rec["id"]
        assert abs(rec["value"] - want["value"]) <= 1e-12, rec["id"]


def test_corpus_covers_every_run(replay):
    assert sorted(replay) == sorted(GOLDEN)


def test_a_violation_beside_the_decomposable_pass_fails_verify(replay, tmp_path, capsys):
    # every compressed corner of a decomposable map is decomposable, so a pk_
    # violation beside the certificate contradicts it along the lattice
    with open(replay["classify_transposition_clamp"][1], encoding="utf-8") as fh:
        report = json.load(fh)
    next(r for r in report["records"] if r["id"] == "pk_2")["kind"] = "violation"
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(report), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(edited)]) == 1
    assert "pk_2: a violation beside the decomposable pass" in capsys.readouterr().err


def _edits(report: dict):
    """(what, edited copy) for every edit of a draw-free cone report's record
    (its id, its kind swapped between pass and defect, its value set to 123)
    and of each summary field (a bool negated, a number set to 7)."""
    def edited(change):
        copy = json.loads(json.dumps(report))
        change(copy)
        return copy

    record = report["records"][0]
    swapped = "defect" if record["kind"] == "pass" else "pass"
    yield "id", edited(lambda r: r["records"][0].update(id="renamed"))
    yield "kind", edited(lambda r: r["records"][0].update(kind=swapped))
    yield "value", edited(lambda r: r["records"][0].update(value=123.0))
    for field, value in report["summary"].items():
        new = (not value) if isinstance(value, bool) else 7.0
        yield f"summary.{field}", edited(lambda r, f=field, v=new: r["summary"].update({f: v}))


@pytest.mark.parametrize("name", ["cone_pq", "cone_bounds", "cone_flags", "cone_polar"])
def test_every_edit_of_a_draw_free_cone_report_fails_verify(replay, tmp_path, name):
    # verify re-derives the record and the summary from the embedded cone input
    with open(replay[name][1], encoding="utf-8") as fh:
        report = json.load(fh)
    assert main(["verify", replay[name][1]]) == 0
    for what, copy in _edits(report):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(copy), encoding="utf-8")
        assert main(["verify", str(path)]) == 1, what


def moved_records(old: dict, new: dict) -> list[str]:
    """One line per record whose kind, value or stats differ between two
    frozen corpora, as run, record id, and old -> new, and one per summary
    key that differs, as run, summary.<key>, and old -> new; a run, record or
    key that only one side holds is listed against None."""
    lines = []
    for name in sorted(set(old) | set(new)):
        was, now = old.get(name, {}).get("summary", {}), new.get(name, {}).get("summary", {})
        for key in sorted(set(was) | set(now)):
            if was.get(key) != now.get(key):
                lines.append(f"{name} summary.{key}: {was.get(key)!r} -> {now.get(key)!r}")
        before = {r["id"]: r for r in old.get(name, {}).get("records", [])}
        after = {r["id"]: r for r in new.get(name, {}).get("records", [])}
        for rid in list(before) + [rid for rid in after if rid not in before]:
            was, now = before.get(rid), after.get(rid)
            for key in ("kind", "value", "stats"):
                a, b = was and was[key], now and now[key]
                if a != b:
                    lines.append(f"{name} {rid} {key}: {a!r} -> {b!r}")
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        frozen = {
            name: dict(digest(path), exit_code=code)
            for name, (code, path) in run_corpus(tmp).items()
        }
    moved = moved_records(GOLDEN, frozen)
    print("\n".join(moved) if moved else "nothing moved")
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
