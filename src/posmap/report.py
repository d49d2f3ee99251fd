"""Machine-readable certification reports and independent witness re-checks.

A report embeds its input document, a digest of the canonical input bytes,
every tolerance and search parameter used, and one record per test.  Records
for violations carry complete witnesses.  `recheck_witness` re-evaluates a
witness through plain quadratic forms and eigenvalue checks, never re-running
any search, from one table of re-checks keyed by record id; `verify_report`
runs it on every violation record of a report and reports the records whose
stored values have gone stale.

Timing is never part of the canonical payload; when requested it is written
into the separate top-level "timing" field, which comparisons exclude.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings

import numpy as np

from .choi import MatrixMap, product_form
from .cones import bipartite_context, cone_member
from .docio import map_from_document, matrix_from_doc, matrix_to_doc
from .errors import ParseError, StaleWitnessError
from .linalg import frobenius, hermitian_part, ppt_min_eigs
from .modular import gns_context, t_phi

TOOL_NAME = "posmap"
TOOL_VERSION = "0.1.0"
VALUE_TOL = 1e-10


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def input_digest(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def new_report(input_doc, seed: int, params: dict) -> dict:
    return {
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "input": input_doc,
        "input_digest": input_digest(input_doc),
        "seed": seed,
        "params": params,
        "records": [],
        "summary": {},
    }


def add_record(
    report: dict,
    record_id: str,
    kind: str,
    value: float,
    *,
    witness: dict | None = None,
    stats: dict | None = None,
    defects: dict | None = None,
    seed: int | None = None,
) -> None:
    record = {"id": record_id, "kind": kind, "value": float(value)}
    if witness is not None:
        record["witness"] = {
            key: matrix_to_doc(val) if isinstance(val, np.ndarray) else val
            for key, val in witness.items()
        }
    if stats:
        record["stats"] = {k: _plain(v) for k, v in stats.items()}
    if defects:
        record["defects"] = {k: float(v) for k, v in defects.items()}
    if seed is not None:
        record["seed"] = int(seed)
    report["records"].append(record)


def _plain(v):
    # bool first: bool is a subclass of int
    if isinstance(v, (np.bool_, bool)):
        return bool(v)
    if isinstance(v, (np.floating, float)):
        return float(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    return v


def write_report(report: dict, path: str, *, timing: dict | None = None) -> None:
    payload = dict(report)
    if timing is not None:
        payload["timing"] = timing
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def report_body(report: dict) -> dict:
    """The deterministic payload: everything except the timing field."""
    return {k: v for k, v in report.items() if k != "timing"}


# ---------------------------------------------------------------------------
# witness re-verification
# ---------------------------------------------------------------------------


def _rayleigh(h: np.ndarray, z: np.ndarray) -> float:
    return float(np.vdot(z, h @ z).real / max(np.vdot(z, z).real, 1e-300))


def _require_shape(name: str, a: np.ndarray, d: int) -> None:
    if a.shape != (d, d):
        raise StaleWitnessError(f"stored {name} has shape {a.shape}, expected {(d, d)}")


def _ppt_pairing(w: np.ndarray, h: np.ndarray, m: int, n: int) -> float:
    _require_shape("state", w, m * n)
    if min(ppt_min_eigs(w, m, n, "first")) < -1e-12:
        raise StaleWitnessError("stored witness state is not a PPT state")
    return float(np.trace(w @ h).real)


def _recheck_cp(record_id: str, phi: MatrixMap, witness: dict) -> float:
    val = _rayleigh(hermitian_part(phi.choi()), witness["vector"].reshape(-1))
    if val >= 0:
        raise StaleWitnessError("witness no longer certifies a negative eigenvalue")
    return val


def _recheck_block_positivity(record_id: str, phi: MatrixMap, witness: dict) -> float:
    x = witness["x"].reshape(-1)
    y = witness["y"].reshape(-1)
    return product_form(hermitian_part(phi.choi()), phi.m, phi.n, x, y)


def _recheck_k_witness(record_id: str, phi: MatrixMap, witness: dict) -> float:
    k = int(record_id.rsplit("_", 1)[1])
    target = phi.compose_transposition() if record_id.startswith("k_copositive_") else phi
    p = witness["projection"]
    z = witness["vector"].reshape(-1)
    _require_shape("projection", p, target.n)
    if (
        np.trace(p).real > k + 1e-9
        or frobenius(p @ p - p) > 1e-9
        or frobenius(p - p.conj().T) > 1e-9
    ):
        raise StaleWitnessError("stored projection is not a rank-<=k orthogonal projection")
    if np.linalg.norm(np.kron(np.eye(target.m), p) @ z - z) > 1e-8:
        raise StaleWitnessError("witness vector escapes the projection range")
    return _rayleigh(hermitian_part(target.choi()), z)


def _recheck_sk(record_id: str, phi: MatrixMap, witness: dict) -> float:
    k = int(record_id.rsplit("_", 1)[1])
    a = witness["block"]
    _require_shape("block", a, k * phi.m)
    if min(ppt_min_eigs(a, k, phi.m, "first")) < -1e-9:
        raise StaleWitnessError("stored block is not PSD in both orderings")
    image = hermitian_part(phi.apply_blockwise(a, k))
    return float(np.linalg.eigvalsh(image)[0])


def _recheck_pk(record_id: str, phi: MatrixMap, witness: dict) -> float:
    iso = witness["isometry"]
    rank = iso.shape[1]
    corner = MatrixMap.from_function(lambda x: iso.conj().T @ phi(x) @ iso, phi.m, rank)
    return _ppt_pairing(witness["state"], hermitian_part(corner.choi()), phi.m, rank)


def _recheck_decomposability(record_id: str, phi: MatrixMap, witness: dict) -> float:
    return _ppt_pairing(witness["state"], hermitian_part(phi.choi()), phi.m, phi.n)


def _recheck_weakdec(record_id: str, phi: MatrixMap, witness: dict) -> float:
    n = int(witness["n"])
    ctx_a = gns_context(witness["rho_a"])
    bctx = bipartite_context(witness["rho_a"], np.eye(n, dtype=complex) / n)
    if not cone_member(bctx, witness["eta"]).in_intersection:
        raise StaleWitnessError("stored eta left the intersection cone")
    if not cone_member(bctx, witness["xi"]).in_p:
        raise StaleWitnessError("stored xi left the positive cone")
    with warnings.catch_warnings():
        # rebuilding the induced operator re-raises the invariance warning
        # that already fired when the report was produced
        warnings.simplefilter("ignore")
        t_star = t_phi(ctx_a, phi).operator.matrix.conj().T
    zeta = bctx.apply_first_factor(t_star, witness["xi"])
    return float(np.vdot(witness["eta"], zeta).real)


# One re-check per record kind, keyed by the record id with its trailing
# order k stripped ("k_positive_2" -> "k_positive_").
RECHECKS = {
    "cp": _recheck_cp,
    "block_positivity": _recheck_block_positivity,
    "k_positive_": _recheck_k_witness,
    "k_copositive_": _recheck_k_witness,
    "sk_": _recheck_sk,
    "pk_": _recheck_pk,
    "decomposability": _recheck_decomposability,
    "weakdec_": _recheck_weakdec,
}


def recheck_witness(record_id: str, phi: MatrixMap, witness: dict) -> float:
    """Re-evaluate the violation witness of record `record_id` against `phi`.

    `witness` holds arrays under the record's witness keys, as the verdicts
    return them; a weakdec witness also needs the first-factor state under
    "rho_a".  Returns the recomputed value for the caller to compare with the
    stated one.  Raises StaleWitnessError for an unknown record id or a
    structurally invalid witness (say, a projection that is not a rank-<=k
    orthogonal projection, or a state that is not PPT).
    """
    recheck = RECHECKS.get(record_id.rstrip("0123456789"))
    if recheck is None:
        raise StaleWitnessError("unknown record type")
    return recheck(record_id, phi, witness)


def verify_report(report: dict) -> list[str]:
    """Re-evaluate every stored witness; returns a list of failure messages.

    Raises ParseError when the report or one of its records is not a JSON
    object, or a violation record lacks a string id or a finite value.
    """
    if not isinstance(report, dict):
        raise ParseError("a report must be a JSON object")
    records = report.get("records", [])
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise ParseError("report records must be a list of JSON objects")
    failures: list[str] = []
    if report.get("input_digest") != input_digest(report.get("input")):
        failures.append("input_digest: embedded input does not match its digest")
    input_doc = report.get("input")
    phi = None
    if isinstance(input_doc, dict) and input_doc.get("kind") == "map":
        phi = map_from_document(input_doc)
    for record in records:
        if record.get("kind") != "violation" or "witness" not in record:
            continue
        rid, stated = record.get("id"), record.get("value")
        if not isinstance(rid, str):
            raise ParseError("a violation record needs a string id")
        numeric = isinstance(stated, (int, float)) and not isinstance(stated, bool)
        if not numeric or not math.isfinite(stated):
            raise ParseError(f"{rid}: a violation record needs a finite numeric value")
        try:
            witness = {
                key: matrix_from_doc(val, f"witness[{key}]") if isinstance(val, dict) else val
                for key, val in record["witness"].items()
            }
            subject = phi
            if rid.startswith("weakdec"):
                # a cone input carries the map and the first-factor state
                subject = map_from_document(input_doc["map"])
                witness["rho_a"] = matrix_from_doc(input_doc["rho_a"], "rho_a")
            if subject is None:
                raise StaleWitnessError("no input map available to re-check the witness")
            value = recheck_witness(rid, subject, witness)
        except StaleWitnessError as exc:
            failures.append(f"{rid}: {exc}")
        except Exception as exc:  # malformed witness payloads are stale too
            failures.append(f"{rid}: witness re-evaluation failed ({exc})")
        else:
            if abs(stated - value) > VALUE_TOL * max(1.0, abs(stated)):
                failures.append(f"{rid}: stated value {stated:.12e} re-evaluates to {value:.12e}")
    return failures
