"""Machine-readable certification reports and independent witness re-checks.

A report embeds its input document, a digest of the canonical input bytes, its
seed when its command draws, every tolerance and search parameter used, and one
record per test.  It states each fact once, and only what its command computed:
a record holds its id, kind and value, a witness, and the stats of its search,
none repeating another field of the report (the report's seed, the record's
value, another record's stats).  A searched violation carries a complete
witness, a "decomposable" pass its certificate, and a record that another
record's verdict decided only that verdict's kind and value and the stats
{"derived_from": <its id>}.  `recheck_witness` re-evaluates a witness through
plain quadratic forms and eigenvalue checks, never re-running any search, from
one table of re-checks keyed by record id; `verify_report` runs it on every
searched violation and pass with a witness, checks a derived record through its
source and one table of implications, and accepts no classify pass but `cp`
and the spectral `k_positive_<k>` and `k_copositive_<k>` passes, which it
re-derives from the embedded map, and `decomposable`.  It reads no other stats key, so
reports that still carry keys of an earlier format verify too.  The summary of
a classify report is read from its records' kinds (`classify_summary`), and
`verify_report` re-derives it, as it re-derives the record and the exact
summary fields of a `cone member`, `pq`, `bounds`, `flags` or `polar` report
from its embedded input (`cone_outcome`).

Timing is never part of the canonical payload; when requested it is written
into the separate top-level "timing" field, which comparisons exclude.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import warnings

import numpy as np

from .choi import MatrixMap, cp_verdict
from .cones import (
    SPLIT_TOL,
    BipartiteConeContext,
    ConeMembership,
    bipartite_context,
    cone_member,
    odd_part_flags,
    odd_part_polar,
    split_bound_floors,
    split_bound_margins,
)
from .docio import cone_input_from_document, map_from_document, matrix_from_doc, matrix_to_doc
from .errors import ParseError, StaleWitnessError
from .kpositivity import decomposition_bound, spectral_certificate
from .linalg import DESK_SCALE_DIM, PPT_TOL, _partial_transpose, frobenius, hermitian_part, ppt_min_eigs, psd_tol
from .modular import t_phi
from .verdicts import EVIDENCE, PASS, VIOLATION, Verdict

TOOL_NAME = "posmap"
TOOL_VERSION = "0.1.0"
VALUE_TOL = 1e-10
DEFECT_LIMIT = 1e-9
# source -> the records (by id or k-stripped id) its violation violates; theorems: positivity is
# 1-copositivity (T: x (x) y -> conj(x) (x) y), and a product vector x (x) y, a PPT state,
# violates every sk_<k> (through a block E_11 (x) a, a of rank 1) and every pk_<k> (a rank-1 corner's)
_IMPLIED_VIOLATIONS = {"k_positive_1": ("block_positivity", "k_copositive_1", "sk_", "pk_")}
# the records whose condition every decomposable map meets, by id or k-stripped id
_IMPLIED_BY_DECOMPOSABLE = ("block_positivity", "k_positive_1", "k_copositive_1", "sk_", "pk_", "decomposability")
# the summary fields of a `cone member` report that one exact membership test decides
MEMBER_FIELDS = ("in_p", "in_ptau", "in_intersection", "p_min_eig", "ptau_min_eig")
# the cone subcommands whose record `verify_report` re-derives from the embedded input
CONE_REDERIVED = ("member", "pq", "bounds", "flags", "polar")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def input_digest(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def new_report(input_doc, params: dict, seed: int | None = None) -> dict:
    """An empty report; it states `seed` when given, as its command draws."""
    return {
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "input": input_doc,
        "input_digest": input_digest(input_doc),
        **({} if seed is None else {"seed": seed}),
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
) -> None:
    record = {"id": record_id, "kind": kind, "value": float(value)}
    if witness is not None:
        record["witness"] = {
            key: matrix_to_doc(val) if isinstance(val, np.ndarray) else val
            for key, val in witness.items()
        }
    if stats:
        record["stats"] = {k: _plain(v) for k, v in stats.items()}
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


def write_report(report: dict, path: str | None, *, timing: dict | None = None) -> None:
    """Write the report as sorted, indented JSON to `path`, or to stdout when
    no path is given.  The whole text is built before anything is written: a
    non-finite value, which only an input beyond float range produces, is a
    ParseError, and no file is created or truncated; so is a path that
    cannot be opened for writing."""
    payload = dict(report)
    if timing is not None:
        payload["timing"] = timing
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ParseError(f"the input drives a report value out of float range ({exc})") from exc
    if not path:
        sys.stdout.write(text)
        return
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {path} ({exc.strerror})") from exc
    with fh:
        fh.write(text)


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
    if min(ppt_min_eigs(w, m, n, "first")) < -PPT_TOL:
        raise StaleWitnessError("stored witness state is not a PPT state")
    return float(np.trace(w @ h).real)


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
    if rank > int(record_id.rsplit("_", 1)[1]):
        raise StaleWitnessError(f"stored isometry has rank {rank}, above the record's k")
    corner = MatrixMap.from_function(lambda x: iso.conj().T @ phi(x) @ iso, phi.m, rank)
    return _ppt_pairing(witness["state"], hermitian_part(corner.choi()), phi.m, rank)


def _recheck_decomposability(record_id: str, phi: MatrixMap, witness: dict) -> float:
    return _ppt_pairing(witness["state"], hermitian_part(phi.choi()), phi.m, phi.n)


def _recheck_decomposable(record_id: str, phi: MatrixMap, witness: dict) -> float:
    h = hermitian_part(phi.choi())
    _require_shape("q", witness["q"], phi.m * phi.n)
    bound = decomposition_bound(h, witness["q"], phi.m, phi.n)
    if bound < -psd_tol(h):
        raise StaleWitnessError(f"stored q leaves Q or h - Q^G non-PSD: bound {bound:.3e}")
    return bound


def _recheck_bounds(record_id: str, ctx: BipartiteConeContext, witness: dict) -> float:
    eta = witness["eta"]
    if not cone_member(ctx, eta).in_p:
        raise StaleWitnessError("stored eta left the positive cone")
    return min(split_bound_margins(ctx, witness["xi"], [eta]).values())


def _recheck_weakdec(record_id: str, phi: MatrixMap, witness: dict) -> float:
    n = witness["n"]
    if type(n) is not int or not 1 <= n * witness["rho_a"].shape[0] <= DESK_SCALE_DIM:
        raise StaleWitnessError("stored block size n is not an integer within the desk-scale guard")
    bctx = bipartite_context(witness["rho_a"], np.eye(n, dtype=complex) / n)
    if not cone_member(bctx, witness["eta"]).in_intersection:
        raise StaleWitnessError("stored eta left the intersection cone")
    if not cone_member(bctx, witness["xi"]).in_p:
        raise StaleWitnessError("stored xi left the positive cone")
    with warnings.catch_warnings():
        # rebuilding the induced operator re-raises the invariance warning
        # that already fired when the report was produced
        warnings.simplefilter("ignore")
        t_star = t_phi(bctx.ctx_a, phi).operator.matrix.conj().T
    zeta = bctx.apply_first_factor(t_star, witness["xi"])
    return float(np.vdot(witness["eta"], zeta).real)


# One re-check per record kind, keyed by the record id with its trailing
# order k stripped ("k_positive_2" -> "k_positive_").  Block positivity is
# 1-positivity, so its witness is re-checked as a k_positive_1 witness.
RECHECKS = {
    "cp": lambda _, phi, witness: _rayleigh(hermitian_part(phi.choi()), witness["vector"].reshape(-1)),
    "block_positivity": lambda _, phi, witness: _recheck_k_witness("k_positive_1", phi, witness),
    "k_positive_": _recheck_k_witness,
    "k_copositive_": _recheck_k_witness,
    "sk_": _recheck_sk,
    "pk_": _recheck_pk,
    "decomposability": _recheck_decomposability,
    "decomposable": _recheck_decomposable,
    "weakdec_": _recheck_weakdec,
    "bounds": _recheck_bounds,
}


def recheck_witness(record_id: str, phi: MatrixMap | BipartiteConeContext, witness: dict) -> float:
    """Re-evaluate the witness of record `record_id` against `phi`, the
    report's map (for `bounds`, the cone context of its input): a
    violation's, or the certificate of a "decomposable" pass.

    `witness` holds arrays under the record's witness keys, as the verdicts
    return them; a weakdec witness also needs the first-factor state under
    "rho_a", and a bounds witness the input vector under "xi".  A bounds
    witness eta must lie in P, and re-evaluates to the smallest margin of
    `split_bound_margins` at eta.  Returns the recomputed value for the
    caller to compare with the stated one.  Raises StaleWitnessError for an
    unknown record id or a structurally invalid witness (say, a projection
    that is not a rank-<=k orthogonal projection, a state that is not PPT, or
    a certificate whose bound falls below -psd_tol(h)).
    """
    recheck = RECHECKS.get(record_id.rstrip("0123456789"))
    if recheck is None:
        raise StaleWitnessError("unknown record type")
    return recheck(record_id, phi, witness)


def verify_report(report: dict) -> list[str]:
    """Re-evaluate every stored witness; returns a list of failure messages.

    The witnesses of searched violation and pass records are re-checked;
    evidence claims no proof.  Failures: a searched violation or a
    "decomposable" pass without a witness, a violation whose witness
    re-evaluates to >= 0, a derived record (stats "derived_from") that does not
    restate its source or is a violation its source's does not imply
    (`_derived_failures`), in a map report a pass `verify` cannot re-derive or a
    violation that a `decomposable` or spectral k-(co)positivity pass refutes
    (`_proof_failures`) and a
    summary its records do not give (`classify_summary`), and in a report of
    `cone member`, `pq`, `bounds`, `flags` or `polar` (by its params or a
    record id) a missing record, or a record or summary field that one
    `cone_outcome` of the embedded cone input does not give (`_cone_failures`).
    Raises ParseError when the report or one of its records is not a JSON
    object, a witnessed record lacks a string id or a finite value, its witness
    is not a JSON object or holds a matrix document that does not parse, or the
    embedded input does not parse: a map, for a report with a weakdec violation
    the cone input's map and first-factor state, and for a report of those five
    cone subcommands the cone input; NotInIntersectionError when a `bounds`
    report's vector is not in the intersection, which the command refuses too;
    NotHermitianError when a map report's map is not Hermiticity-preserving,
    which classify refuses too; PosmapError when a norm that sets a tolerance
    overflows.
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
    phi = weak = cone = None
    if isinstance(input_doc, dict) and input_doc.get("kind") == "map":
        phi = map_from_document(input_doc)
    subcommands = _cone_subcommands(report, records)
    if subcommands:  # a draw-free cone answer, re-derived from the embedded cone input
        cone_input = cone_input_from_document(input_doc)
        ctx = bipartite_context(cone_input.rho_a, cone_input.rho_b)
        cone = ctx, cone_input.frame_vector(ctx)
    # a searched violation or pass claims a proof, so its witness is re-checked, and without one
    # it proves nothing; a derived record is checked through its source (`_derived_failures`)
    searched = [r for r in records if not _is_derived(r)]
    witnessed = [r for r in searched if r.get("kind") in (VIOLATION, PASS) and "witness" in r]
    failures += [
        f"{r.get('id')}: no witness to re-check" for r in searched if "witness" not in r
        and (r.get("kind") == VIOLATION or (r.get("kind"), r.get("id")) == (PASS, "decomposable"))
    ]
    if any(isinstance(r.get("id"), str) and r["id"].startswith("weakdec") for r in witnessed):
        # a weakdec record is re-checked against the cone input's map and first-factor state
        if not isinstance(input_doc, dict):
            raise ParseError("a weakdec report needs its embedded cone input")
        weak = map_from_document(input_doc.get("map")), matrix_from_doc(input_doc.get("rho_a"), "rho_a")
    for record in witnessed:
        rid, stated, payload = record.get("id"), record.get("value"), record["witness"]
        if not isinstance(rid, str):
            raise ParseError("a witnessed record needs a string id")
        numeric = isinstance(stated, (int, float)) and not isinstance(stated, bool)
        if not numeric or not math.isfinite(stated):
            raise ParseError(f"{rid}: a witnessed record needs a finite numeric value")
        if not isinstance(payload, dict):
            raise ParseError(f"{rid}: a witness must be a JSON object")
        # a matrix that does not parse is an input error; one that parses and
        # does not re-check is a stale witness
        witness = {
            key: matrix_from_doc(val, f"{rid}: witness[{key}]") if isinstance(val, dict) else val
            for key, val in payload.items()
        }
        try:
            subject = phi
            if rid.startswith("weakdec"):
                subject, witness["rho_a"] = weak
            elif rid == "bounds":
                subject, witness["xi"] = cone
            if subject is None:
                raise StaleWitnessError("no input map available to re-check the witness")
            value = recheck_witness(rid, subject, witness)
        except StaleWitnessError as exc:
            failures.append(f"{rid}: {exc}")
        except Exception as exc:  # malformed witness payloads are stale too
            failures.append(f"{rid}: witness re-evaluation failed ({exc})")
        else:
            if record.get("kind") == VIOLATION and value >= 0:
                failures.append(f"{rid}: the witness re-evaluates to {value:.12e}, which violates nothing")
            if not _agrees(stated, value):
                failures.append(f"{rid}: stated value {stated:.12e} re-evaluates to {value:.12e}")
    if phi is not None:  # a classify report, whose summary restates its records' kinds
        failures += _proof_failures(phi, records)
        try:
            summary = classify_summary(records, report["params"]["k_max"])
        except (KeyError, TypeError):
            failures.append("summary: the records and k_max do not determine a classify summary")
        else:
            if json.dumps(report.get("summary"), sort_keys=True) != json.dumps(summary, sort_keys=True):
                failures.append("summary: does not restate the kinds of the records")
    for subcommand in subcommands:
        failures += _cone_failures(report, records, subcommand, *cone)
    return failures + _derived_failures(records)


def _proof_failures(phi: MatrixMap, records: list) -> list[str]:
    """Failures of a map report's passes: a `cp` record that one `cp_verdict`
    of the embedded map does not give; a k_positive_<k> or k_copositive_<k> pass
    that the `spectral_certificate` of the embedded map's h (of h^G for
    k_copositive_<k>) does not give, at its kind and, within VALUE_TOL, its value;
    a pass on any other record but `decomposable`, the proofs `verify` can
    re-derive; and the violations such a pass refutes: beside a `decomposable`
    pass a violation of a condition every decomposable map meets (positivity,
    copositivity, every sk_<k> and pk_<k>, and decomposability), and beside a
    k_positive_<k> (k_copositive_<k>) pass a violation of k_positive_<j>
    (k_copositive_<j>) at some j < k, which implies one at k (`_implies`)."""
    m, n = phi.m, phi.n
    h = hermitian_part(phi.choi())
    chois = {"k_positive_": h, "k_copositive_": _partial_transpose(h, m, n, "first")}
    failures, passes = [], []
    for r in records:
        rid = r.get("id")
        if r.get("kind") != PASS or rid in ("cp", "decomposable"):
            continue
        name, k = _family_order(rid)
        proof = spectral_certificate(chois[name], m, n, k) if name in chois else None
        if proof is None:
            failures.append(f"{rid}: a pass that verify cannot re-derive")
        else:
            failures += _restated([r], rid, proof.kind, proof.value)
        if name in chois:
            passes.append(rid)
    violations = [r["id"] for r in records if r.get("kind") == VIOLATION and isinstance(r.get("id"), str)]
    if any((r.get("id"), r.get("kind")) == ("decomposable", PASS) for r in records):
        failures += [
            f"{v}: a violation beside the decomposable pass, which implies it holds" for v in violations
            if v in _IMPLIED_BY_DECOMPOSABLE or v.rstrip("0123456789") in _IMPLIED_BY_DECOMPOSABLE
        ]
    failures += [f"{v}: a violation beside the {p} pass, which implies it holds"
                 for p in passes for v in violations if _implies(v, p)]
    cp = cp_verdict(phi)
    return failures + _restated(records, "cp", cp.kind, cp.value)


def _family_order(record_id) -> tuple[str | None, int]:
    """(name, k) of a record id `<name><k>` with k a positive integer written without
    leading zeros, as "k_positive_2" -> ("k_positive_", 2); (None, 0) for any other id."""
    if not isinstance(record_id, str):
        return None, 0
    name = record_id.rstrip("0123456789")
    digits = record_id[len(name):]
    if not digits or digits[0] == "0":
        return None, 0
    return name, int(digits)


def _restated(records: list, record_id: str, kind: str, value: float) -> list[str]:
    """A failure for each record `record_id` whose kind is not `kind` or
    whose value is not `value` within VALUE_TOL."""
    return [
        f"{record_id}: stated {r.get('kind')} {r.get('value')!r}, the input gives {kind} {value:.12e}"
        for r in records
        if r.get("id") == record_id and (r.get("kind") != kind or not _agrees(r.get("value"), value))
    ]


def member_kind(membership: ConeMembership) -> str:
    """The kind of a `cone member` record: pass inside P, defect outside."""
    return PASS if membership.in_p else "defect"


def cone_outcome(subcommand: str, ctx: BipartiteConeContext, xi) -> tuple[Verdict, dict, bool]:
    """The record verdict, the summary and whether the answer holds (exit 0)
    of `cone <subcommand>` on xi, from one exact call; `cli.cmd_cone` writes
    it and `verify_report` re-derives it from the embedded input.

    - member: `member_kind` at p_min_eig and the MEMBER_FIELDS of one
      `cone_member` test with no hull sampling, which the command extends by
      its sampled hull evidence;
    - pq: a `defect` record at the larger of the P/Q split's orthogonality
      and Pythagoras defects, which holds up to DEFECT_LIMIT;
    - bounds: the seven `split_bound_floors`, a `pass` at the smallest, or
      below -SPLIT_TOL a `violation` whose witness is the eta attaining
      the smallest floor that depends on eta;
    - flags: `odd_part_flags`, a `pass` at 0 when its three flags agree and
      a `defect` at 1 when not;
    - polar: `odd_part_polar`, a `defect` record at its reconstruction
      defect, which holds up to DEFECT_LIMIT when xi_b lies in P."""
    if subcommand == "member":
        membership = cone_member(ctx, xi)
        summary = {field: getattr(membership, field) for field in MEMBER_FIELDS}
        return Verdict(member_kind(membership), membership.p_min_eig), summary, True
    if subcommand == "pq":
        p_xi, q_xi = ctx.p_project(xi), ctx.q_project(xi)
        cross = abs(np.vdot(p_xi, q_xi))
        pythagoras = abs(np.vdot(xi, xi).real - np.vdot(p_xi, p_xi).real - np.vdot(q_xi, q_xi).real)
        summary = {
            "p_norm": float(np.linalg.norm(p_xi)),
            "q_norm": float(np.linalg.norm(q_xi)),
            "orthogonality_defect": float(cross),
            "pythagoras_defect": float(pythagoras),
        }
        defect = float(max(cross, pythagoras))
        return Verdict("defect", defect), summary, defect <= DEFECT_LIMIT
    if subcommand == "bounds":
        floors, etas = split_bound_floors(ctx, xi)
        low = min(floors.values())
        if low >= -SPLIT_TOL:
            return Verdict(PASS, low), floors, True
        eta = etas[min(etas, key=floors.__getitem__)]
        return Verdict(VIOLATION, low, witness={"eta": eta}), floors, False
    if subcommand == "flags":
        flags = odd_part_flags(ctx, xi)
        agree = flags.agree()
        summary = {"q_in_p": flags.q_in_p, "q_zero": flags.q_zero, "fixed": flags.fixed, "agree": agree}
        return Verdict(PASS if agree else "defect", 0.0 if agree else 1.0), summary, agree
    if subcommand == "polar":
        polar = odd_part_polar(ctx, xi)
        xi_b_in_p = polar.degenerate or cone_member(ctx, polar.xi_b).in_p
        summary = {
            "reconstruction_defect": polar.reconstruction_defect,
            "degenerate": polar.degenerate,
            "xi_b_in_p": xi_b_in_p,
        }
        defect = polar.reconstruction_defect
        return Verdict("defect", defect), summary, defect <= DEFECT_LIMIT and xi_b_in_p
    raise ParseError(f"unknown cone subcommand {subcommand!r}")


def _cone_subcommands(report: dict, records: list) -> list[str]:
    """The CONE_REDERIVED subcommands a report names, by its params or a record id."""
    params = report.get("params")
    named = [r.get("id") for r in records] + [params.get("subcommand") if isinstance(params, dict) else None]
    return [subcommand for subcommand in CONE_REDERIVED if subcommand in named]


def _cone_failures(report: dict, records: list, subcommand: str, ctx: BipartiteConeContext, xi) -> list[str]:
    """Failures of a `cone <subcommand>` report against one `cone_outcome`
    of its embedded input: no record named after the subcommand, a record
    whose kind or value differs, and a summary field of the outcome that
    differs; a summary key the outcome does not give is not read."""
    verdict, derived, _ = cone_outcome(subcommand, ctx, xi)
    failures = [] if any(r.get("id") == subcommand for r in records) else [f"{subcommand}: no record"]
    failures += _restated(records, subcommand, verdict.kind, verdict.value)
    summary = report.get("summary")
    summary = summary if isinstance(summary, dict) else {}
    for field, value in derived.items():
        stated = summary.get(field)
        if not (stated is value if isinstance(value, bool) else _agrees(stated, value)):
            failures.append(f"summary: {field} does not restate the input's {subcommand}")
    return failures


def classify_summary(records: list, k_max: int) -> dict:
    """The summary of a classify report, read from its records' kinds: a table
    k -> kind per k-indexed test for k = 1..k_max, the largest k at whose every
    order 1..k the k-positivity (k-copositivity) record holds, as evidence or a
    pass, and the kinds of the other tests (KeyError if absent)."""
    kinds = {record["id"]: record["kind"] for record in records}
    tables = {
        name: {str(k): kinds[f"{name}_{k}"] for k in range(1, k_max + 1)}
        for name in ("k_positive", "k_copositive", "sk", "pk")
    }

    def highest_evidence(table: dict[str, str]) -> int:
        return next((k for k, kind in enumerate(table.values()) if kind not in (EVIDENCE, PASS)), len(table))

    return {
        "completely_positive": kinds["cp"] == PASS,
        "block_positive": kinds["block_positivity"],
        "highest_k_positive_evidence": highest_evidence(tables["k_positive"]),
        "highest_k_copositive_evidence": highest_evidence(tables["k_copositive"]),
        **tables,
        "decomposable": kinds["decomposable"],
        "decomposability": kinds["decomposability"],
    }


def _agrees(stated, value: float) -> bool:
    """Whether `stated` is a finite number within VALUE_TOL of `value`."""
    numeric = isinstance(stated, (int, float)) and not isinstance(stated, bool)
    return numeric and abs(stated - value) <= VALUE_TOL * max(1.0, abs(stated))


def _is_derived(record: dict) -> bool:
    """Whether another verdict decided `record`, as its stats name; no witness it holds is read."""
    return isinstance(record.get("stats"), dict) and "derived_from" in record["stats"]


def _implies(source: str, target: str) -> bool:
    """Whether a violation of record `source` is one of record `target`: by
    _IMPLIED_VIOLATIONS, as a j-(co)positive violation is one at every k > j, or as
    a pk_<j> violation, a rank-<=j corner's PPT state, is one of every pk_<k> and,
    carried to a block zero-padded to size k (`sk_check`), of every sk_<k>, k >= j."""
    (name, j), (other, k) = _family_order(source), _family_order(target)
    return bool({target, target.rstrip("0123456789")} & set(_IMPLIED_VIOLATIONS.get(source, ()))
                or name == other in ("k_positive_", "k_copositive_") and k > j
                or name == "pk_" and other in ("sk_", "pk_") and k >= j)


def _derived_failures(records: list) -> list[str]:
    """Failures of the records another verdict decided.  A record with stats["derived_from"] = X
    restates record X of the same report: X's value exactly and X's kind, a pass read as
    evidence, and a violation only where X's implies it (`_implies`)."""
    by_id = {r["id"]: r for r in records if isinstance(r.get("id"), str)}
    failures = []
    for record in filter(_is_derived, records):
        rid, source = record.get("id"), record["stats"]["derived_from"]
        origin = by_id.get(source) if isinstance(source, str) else None
        if origin is None:
            failures.append(f"{rid}: derived from {source!r}, which is not a record of this report")
            continue
        kind = EVIDENCE if origin.get("kind") == PASS else origin.get("kind")
        if (kind, origin.get("value")) != (record.get("kind"), record.get("value")):
            failures.append(f"{rid}: kind or value differs from the record {source!r} it is derived from")
        elif kind == VIOLATION and not (isinstance(rid, str) and _implies(source, rid)):
            failures.append(f"{rid}: a violation of {source!r} does not imply one of it")
    return failures
