"""Seeded corpora, operations and analytic output checks for the benchmark.

Three closed-loop workloads, one client each.  Every workload is a list of
*passes*; a pass is a fixed sequence of operations (an *op* is one
user-level request) whose kinds and order do not depend on the seed, so a
run that stops after a given time has done nearly the same mix of work on
every seed.  The seed only changes the random content of the documents and
the ``--seed`` handed to the program.

- ``classify``: ``posmap classify`` on a map document followed by
  ``posmap verify`` on its report.  Mostly decomposable maps, which make every
  search run its full budget, plus the Choi qutrit map, the reduction family
  below its first threshold and random near-CP maps that violate early.
- ``threshold``: one ``bisect_threshold`` on the reduction family per op, at
  the (n, k) settings of the threshold experiment.  Every restart of the
  see-saw converges in two alternations, so the time goes to restart set-up.
- ``cone-modular``: ``posmap cone <sub>`` on cone inputs and
  ``posmap modular-verify``, each followed by ``posmap verify``.  The only
  workload that reaches the ``cones`` and ``modular`` modules; its short ops
  expose the document, report and CLI overhead.

Documents are built here with plain numpy, never with posmap, and every
check compares an output with a fact of the mathematics, never with an
earlier output of the program.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def matrix_doc(a) -> dict:
    arr = np.asarray(a, dtype=complex)
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in arr.reshape(-1)],
    }


def map_doc(h: np.ndarray, m: int, n: int, name: str) -> dict:
    return {
        "kind": "map",
        "m": m,
        "n": n,
        "encoding": "choi",
        "matrices": [matrix_doc(h)],
        "metadata": {"name": name},
    }


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _psd(rng: np.random.Generator, d: int) -> np.ndarray:
    g = _complex_gaussian(rng, (d, d))
    return g @ g.conj().T


def _swap_first_blocks(h: np.ndarray, m: int, n: int) -> np.ndarray:
    """Choi matrix of a -> phi(a^t): the (i, j) blocks become the (j, i) blocks."""
    return h.reshape(m, n, m, n).transpose(2, 1, 0, 3).reshape(m * n, m * n)


def cp_choi(rng, m, n):
    h = _psd(rng, m * n)
    return h / np.trace(h).real


def ccp_choi(rng, m, n):
    return _swap_first_blocks(cp_choi(rng, m, n), m, n)


def dec_choi(rng, m, n):
    return cp_choi(rng, m, n) + ccp_choi(rng, m, n)


def reduction_choi(lam: float, n: int) -> np.ndarray:
    """a -> lam Tr(a) I - a: lam I minus the unnormalized maximally entangled projector."""
    omega = np.eye(n).reshape(-1)
    return lam * np.eye(n * n) - np.outer(omega, omega)


def transposition_choi(n: int) -> np.ndarray:
    """a -> a^t: the flip operator."""
    return np.eye(n * n).reshape(n, n, n, n).transpose(0, 1, 3, 2).reshape(n * n, n * n)


def choi_qutrit_choi() -> np.ndarray:
    """Choi's positive, non-decomposable map on M_3: off-diagonal entries are
    negated, out[a, a] = x[a, a] + x[a - 1, a - 1]."""
    h = np.zeros((3, 3, 3, 3))
    for i in range(3):
        h[i, i, i, i] = 1.0
        h[i, (i + 1) % 3, i, (i + 1) % 3] = 1.0
        for j in range(3):
            if i != j:
                h[i, i, j, j] = -1.0
    return h.reshape(9, 9)


def near_cp_choi(rng, m, n, mix=0.2):
    g = _complex_gaussian(rng, (m * n, m * n))
    p = (g + g.conj().T) / 2
    return cp_choi(rng, m, n) + mix * p / np.linalg.norm(p)


def faithful_state(rng: np.random.Generator, d: int, tracial: bool) -> np.ndarray:
    if tracial:
        return np.eye(d) / d
    w = 0.05 + 0.95 * rng.random(d)
    q, r = np.linalg.qr(_complex_gaussian(rng, (d, d)))
    u = q * (np.diag(r) / np.abs(np.diag(r))).conj()
    rho = (u * (w / w.sum())) @ u.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def separable_blocks(rng: np.random.Generator, a: int, b: int, terms: int = 3) -> list:
    """Blocks [a_ij] of a separable operator sum_r p_r (x) q_r (PSD factors),
    which lies in the positive cone and in its transposed cone."""
    x = sum(np.kron(_psd(rng, a), _psd(rng, b)) for _ in range(terms))
    x = x / np.trace(x).real
    t = x.reshape(a, b, a, b).transpose(1, 3, 0, 2)
    return [[matrix_doc(t[i, j]) for j in range(b)] for i in range(b)]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One user-level request.

    ``argv`` is the CLI argument list with ``{out}`` standing for the report
    path; threshold ops carry ``(n, k)`` in ``params`` instead.  ``label``
    holds the analytic facts the output is checked against.
    """

    kind: str
    seed: int
    argv: list = field(default_factory=list)
    params: dict = field(default_factory=dict)
    label: dict = field(default_factory=dict)

    def cli_args(self, out: str, wrap: int) -> list:
        seed = str(self.seed + 100_000 * wrap)
        return [seed if a == "{seed}" else out if a == "{out}" else a for a in self.argv]


# (family, m, n, k_max, lam): one pass of the classify corpus.  About 20%
# near-CP maps; k_max 3 on the reduction family reaches rank-3 corners.
CLASSIFY_PASS = [
    ("cp", 2, 2, 2, None),
    ("ccp", 2, 3, 1, None),
    ("dec", 3, 3, 1, None),
    ("reduction", 3, 3, 2, 1.5),
    ("near", 2, 3, 2, None),
    ("reduction", 3, 3, 3, 2.5),
    ("transposition", 2, 2, 2, None),
    ("choi", 3, 3, 1, None),
    ("reduction", 3, 3, 3, 0.5),
    ("near", 3, 3, 1, None),
]

THRESHOLD_PASS = [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]

# cone geometries (dim_a, dim_b) and whether the two states are tracial
CONE_GEOMETRIES = [(2, 2, True), (3, 2, False), (2, 3, True), (2, 2, False), (3, 2, True), (2, 3, False)]
# weak-decomposability documents: (family, dim, k)
WEAKDEC_DOCS = [("cp", 2, 2), ("dec", 3, 1), ("ccp", 2, 2), ("dec", 2, 2)]

PASSES = {"classify": 6, "threshold": 40, "cone-modular": 12}
WORKLOADS = tuple(PASSES)


def _op_seed(seed: int, index: int) -> int:
    return (seed * 7919 + index) % 1_000_000


def write_doc(doc: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _classify_pass(seed: int, p: int, corpus_dir: str, base: int) -> list:
    ops = []
    for slot, (family, m, n, k_max, lam) in enumerate(CLASSIFY_PASS):
        rng = np.random.default_rng([seed, p, slot])
        if family == "reduction":
            h = reduction_choi(lam, n)
        elif family == "transposition":
            h = transposition_choi(n)
        elif family == "choi":
            h = choi_qutrit_choi()
        else:
            h = {"cp": cp_choi, "ccp": ccp_choi, "dec": dec_choi, "near": near_cp_choi}[family](rng, m, n)
        name = f"{family}-{m}x{n}" + (f"-lam{lam}" if lam is not None else "")
        path = write_doc(map_doc(h, m, n, name), os.path.join(corpus_dir, f"map-{p}-{slot}.json"))
        ops.append(Op(
            kind="classify",
            seed=_op_seed(seed, base + slot),
            argv=["classify", path, "--k-max", str(k_max), "--seed", "{seed}", "--out", "{out}"],
            label={"family": family, "k_max": k_max, "lam": lam},
        ))
    return ops


def _threshold_pass(seed: int, p: int, corpus_dir: str, base: int) -> list:
    return [
        Op(kind="threshold", seed=_op_seed(seed, base + slot), params={"n": n, "k": k}, label={"k": k})
        for slot, (n, k) in enumerate(THRESHOLD_PASS)
    ]


def _cone_pass(seed: int, p: int, corpus_dir: str, base: int) -> list:
    cone_ops, weak_ops, modular_ops = [], [], []
    index = base
    for g, (a, b, tracial) in enumerate(CONE_GEOMETRIES):
        rng = np.random.default_rng([seed, p, g])
        doc = {
            "kind": "cone-input",
            "rho_a": matrix_doc(faithful_state(rng, a, tracial)),
            "rho_b": matrix_doc(faithful_state(rng, b, tracial)),
            "blocks": separable_blocks(rng, a, b),
        }
        path = write_doc(doc, os.path.join(corpus_dir, f"cone-{p}-{g}.json"))
        subs = ["member", "pq", "bounds"] + (["flags", "polar"] if b == 2 else [])
        for sub in subs:
            cone_ops.append(Op(
                kind=f"cone-{sub}",
                seed=_op_seed(seed, index),
                argv=["cone", sub, path, "--seed", "{seed}", "--out", "{out}"],
            ))
            index += 1
    for w, (family, d, k) in enumerate(WEAKDEC_DOCS):
        rng = np.random.default_rng([seed, p, 100 + w])
        h = {"cp": cp_choi, "ccp": ccp_choi, "dec": dec_choi}[family](rng, d, d)
        doc = {
            "kind": "cone-input",
            "rho_a": matrix_doc(np.eye(d) / d),
            "rho_b": matrix_doc(np.eye(2) / 2),
            "map": map_doc(h, d, d, f"{family}-{d}x{d}"),
            "k": k,
        }
        path = write_doc(doc, os.path.join(corpus_dir, f"weakdec-{p}-{w}.json"))
        weak_ops.append(Op(
            kind="cone-weakdec",
            seed=_op_seed(seed, index),
            argv=["cone", "weakdec", path, "--seed", "{seed}", "--out", "{out}"],
        ))
        index += 1
    for d in range(2, 7):
        modular_ops.append(Op(
            kind="modular-verify",
            seed=_op_seed(seed, index),
            argv=["modular-verify", "--dim", str(d), "--seed", "{seed}", "--out", "{out}"],
        ))
        index += 1
    # interleave long and short requests so that any prefix has the same mix
    ops = []
    for i in range(len(cone_ops)):
        ops.append(cone_ops[i])
        if i % 6 == 5 and weak_ops:
            ops.append(weak_ops.pop(0))
        if i % 5 == 4 and modular_ops:
            ops.append(modular_ops.pop(0))
    return ops + weak_ops + modular_ops


_BUILDERS = {"classify": _classify_pass, "threshold": _threshold_pass, "cone-modular": _cone_pass}


def build_corpus(workload: str, seed: int, corpus_dir: str) -> list:
    """All passes of a workload; pass 0 comes first.  Writes the documents."""
    os.makedirs(corpus_dir, exist_ok=True)
    passes = []
    base = 0
    for p in range(PASSES[workload]):
        ops = _BUILDERS[workload](seed, p, corpus_dir, base)
        base += len(ops)
        passes.append(ops)
    return passes


# ---------------------------------------------------------------------------
# analytic checks
# ---------------------------------------------------------------------------

VALUE_TOL = 1e-6
THRESHOLD_TOL = 1e-3
CHOI_WITNESS_BOUND = -1e-4

# records a decomposable map can never violate
DECOMPOSABLE_CLEAN = ("block_positivity", "k_positive_1", "k_copositive_1", "sk_", "pk_", "decomposability")


def _records(report: dict) -> dict:
    return {r["id"]: r for r in report.get("records", [])}


def _no_violation(records: dict, prefixes, why: str) -> list:
    out = []
    for rid, rec in records.items():
        if rec["kind"] == "violation" and any(rid == p or (p.endswith("_") and rid.startswith(p)) for p in prefixes):
            out.append(f"{rid} is a violation ({rec['value']:.3e}) on a {why} map")
    return out


def classify_findings(label: dict, report: dict) -> list:
    """Contradictions between a classify report and the map's analytic label."""
    recs = _records(report)
    family = label["family"]
    out = []
    k_ids = [f"k_positive_{k}" for k in range(1, label["k_max"] + 1)]
    if family == "cp":
        # CP implies k-positive for every k and decomposable; it does not
        # imply k-copositive for k >= 2 (the identity map is a counterexample)
        out += _no_violation(recs, ("cp",) + tuple(k_ids) + DECOMPOSABLE_CLEAN, "CP")
    elif family == "ccp":
        k_co = tuple(f"k_copositive_{k}" for k in range(1, label["k_max"] + 1))
        out += _no_violation(recs, k_co + DECOMPOSABLE_CLEAN, "co-CP")
    elif family == "dec":
        out += _no_violation(recs, DECOMPOSABLE_CLEAN, "decomposable")
    elif family == "reduction":
        lam = label["lam"]
        if lam >= 1:
            out += _no_violation(recs, DECOMPOSABLE_CLEAN, "decomposable")
        for k in range(1, label["k_max"] + 1):
            rec = recs.get(f"k_positive_{k}")
            if rec is None:
                out.append(f"k_positive_{k} missing")
                continue
            if abs(rec["value"] - (lam - k)) > VALUE_TOL:
                out.append(f"k_positive_{k} value {rec['value']:.9f} != lam - k = {lam - k}")
            if (rec["kind"] == "violation") != (lam < k):
                out.append(f"k_positive_{k} is {rec['kind']} at lam={lam}")
    elif family == "transposition":
        out += _no_violation(recs, DECOMPOSABLE_CLEAN, "decomposable")
        for rid in ("cp", "k_positive_2"):
            rec = recs.get(rid)
            if rec is None or rec["kind"] != "violation" or abs(rec["value"] + 1.0) > VALUE_TOL:
                out.append(f"{rid} is {rec and (rec['kind'], rec['value'])}, expected a violation at -1")
    elif family == "choi":
        dec = recs.get("decomposability")
        if dec is None or dec["kind"] != "violation" or dec["value"] > CHOI_WITNESS_BOUND:
            out.append(f"decomposability is {dec and (dec['kind'], dec['value'])}, expected a violation <= -1e-4")
        if recs.get("block_positivity", {}).get("kind") != "evidence":
            out.append("block_positivity is not evidence on the positive Choi map")
    return out


def cone_findings(op: Op, report: dict) -> list:
    summary = report.get("summary", {})
    if op.kind == "cone-member" and not summary.get("in_intersection"):
        return ["separable input not in the intersection cone"]
    if op.kind == "cone-weakdec" and summary.get("weakdec") != "evidence":
        return [f"decomposable map got a {summary.get('weakdec')} weakdec verdict"]
    return []


def findings(op: Op, result) -> list:
    """Every reason the op failed; an empty list means the op is correct.

    ``result`` is an :class:`OpResult`.  Any exception, nonzero exit code or
    failed ``verify`` is a failure, as is a record that contradicts a label.
    """
    if result.error:
        return [f"exception: {result.error}"]
    if op.kind == "threshold":
        k = op.label["k"]
        if abs(result.value - k) > THRESHOLD_TOL:
            return [f"threshold {result.value!r} not within {THRESHOLD_TOL} of k={k}"]
        return []
    out = []
    if result.code != 0:
        out.append(f"exit code {result.code}")
    if result.verify_code != 0:
        out.append(f"verify exit code {result.verify_code}")
    if result.report is None:
        return out + ["no report written"]
    if op.kind == "classify":
        out += classify_findings(op.label, result.report)
    else:
        out += cone_findings(op, result.report)
    return out


@dataclass
class OpResult:
    wall_s: float
    cpu_s: float = 0.0
    code: int | None = None
    verify_code: int | None = None
    value: float | None = None
    report: dict | None = None
    error: str | None = None
