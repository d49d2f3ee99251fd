"""Command-line front end.

Subcommands:

- ``posmap classify INPUT --k-max K --seed S``: run the positivity hierarchy
  on a map document and emit a certification report.
- ``posmap modular-verify --dim D --trials T --seed S``: verify the modular
  identities on random (or supplied) faithful states.
- ``posmap cone {member,pq,bounds,flags,polar,weakdec} INPUT``: bipartite
  cone diagnostics on a cone-input document.
- ``posmap verify REPORT``: independently re-check every witness embedded in
  a report.

Exit codes: 0 success, 1 verification/defect failure, 2 input error (a
malformed document, a map or a `--k-max` beyond the desk-scale size, a count
option below 1, an input that drives a report value or a tolerance out of float
range, or an `--out` path that cannot be written).  Reports are byte-identical
for identical input and seed, and state a seed and sample count only when their
command draws; timing is only written on request, in its own excluded field.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .choi import cp_verdict
from .cones import (
    bipartite_context,
    cone_member,
    odd_part_flags,
    odd_part_polar,
    split_bounds_check,
    weak_kdec_cone_check,
)
from .docio import (
    cone_input_from_document,
    load_document,
    map_from_document,
    state_from_document,
)
from .errors import ParseError, PosmapError
from .kpositivity import (
    decomposability_witness,
    decomposition_certificate,
    is_k_copositive,
    is_k_positive,
    pk_check,
    sk_check,
)
from .linalg import (
    DESK_SCALE_DIM,
    HERMITIAN_RTOL,
    PSD_RTOL,
    hermitian_part,
    random_faithful_state,
    rng_stream,
)
from .modular import (
    check_polar_factorization,
    check_unitary_relations,
    gns_context,
    transpose_via_conjugations,
    v_beta_duality_check,
)
from .report import (
    MEMBER_FIELDS,
    add_record,
    classify_summary,
    member_kind,
    new_report,
    verify_report,
    write_report,
)
from .verdicts import EVIDENCE, PASS, Verdict

DEFECT_LIMIT = 1e-9


def _require_counts(args, *names: str) -> None:
    """Reject a count option below 1 as an input error."""
    for name in names:
        value = getattr(args, name)
        if value < 1:
            raise ParseError(f"--{name.replace('_', '-')} must be >= 1, got {value}")


def _verdict_record(report: dict, record_id: str, verdict: Verdict) -> None:
    add_record(report, record_id, verdict.kind, verdict.value, witness=verdict.witness, stats=verdict.stats)


def _derived(source_id: str, verdict: Verdict) -> Verdict:
    """The verdict of record `source_id` restated, by its kind and value alone, for a record
    it decides, with the stats {"derived_from": `source_id`}; a pass reads as evidence."""
    kind = EVIDENCE if verdict.kind == PASS else verdict.kind
    return Verdict(kind, verdict.value, stats={"derived_from": source_id})


def _classify_stages(phi, h: np.ndarray, certificate: Verdict, args):
    """(record id, verdict) for each classify record, in report order; each
    search runs when its pair is asked for, so the caller can time it.

    A record that another verdict decides restates that verdict (`_derived`):
    - block_positivity, k_copositive_1, sk_1 and pk_1, from k_positive_1: each
      is positivity of phi (so is phi o T), so the k = 1 search runs once;
    - for k > n, k_positive_<k> and k_copositive_<k>, from the exact tests at n;
    - when `certificate`, the `decomposition_certificate` of h, is a pass,
      every other sk_<k>, pk_<k> and decomposability, from decomposable.
      With h = P + Q^G, no PPT state pairs with h below the certificate's
      value, min(lambda_min(P), 0) + min(lambda_min(Q), 0), and neither does
      a trace-one block that is PSD in both orderings, whatever k.  Nor does
      one pair with a corner's Choi matrix h_V: compressing by I (x) V
      commutes with the input-side partial transpose, so h_V = P_V + Q_V^G.
    On a map the certificate leaves open, pk_<k> for k > n is the pk_<n>
    verdict itself (at n = 1, pk_1's): `pk_check` draws its corner ranks from
    1..min(k, n), so at every k >= n it returns the same verdict bit for bit."""
    m, n = phi.m, phi.n
    certified = certificate.kind == PASS
    yield "cp", cp_verdict(phi)
    positive = is_k_positive(phi, 1, restarts=args.restarts, seed=args.seed)
    yield "block_positivity", (positivity := _derived("k_positive_1", positive))
    for k in range(1, args.k_max + 1):
        if k <= n:
            kv = positive if k == 1 else is_k_positive(phi, k, restarts=args.restarts, seed=args.seed)
            yield f"k_positive_{k}", kv
            kc = positivity if k == 1 else is_k_copositive(phi, k, restarts=args.restarts, seed=args.seed)
            yield f"k_copositive_{k}", kc
        else:
            yield f"k_positive_{k}", _derived(f"k_positive_{n}", kv)
            yield f"k_copositive_{k}", _derived(f"k_copositive_{n}", kc)
        if k == 1 or certified:
            yield f"sk_{k}", (pv := positivity if k == 1 else _derived("decomposable", certificate))
        else:
            yield f"sk_{k}", sk_check(phi, k, samples=args.samples, seed=args.seed)
            if k <= n:
                pv = pk_check(phi, k, projections=args.projections, seed=args.seed)
        yield f"pk_{k}", pv
    yield "decomposable", certificate
    if certified:
        yield "decomposability", _derived("decomposable", certificate)
    else:
        yield "decomposability", decomposability_witness(h, m, n)


def cmd_classify(args) -> int:
    _require_counts(args, "k_max", "restarts", "samples", "projections")
    doc = load_document(args.input)
    phi = map_from_document(doc)
    if not phi.is_hermiticity_preserving():
        raise ParseError("map is not Hermiticity-preserving; positivity tests need a Hermitian Choi matrix")
    if args.k_max * phi.m > DESK_SCALE_DIM:
        # sk_<k> samples blocks of size k * m; every k <= n stays legal, as m * n <= 36
        raise ParseError(f"--k-max {args.k_max} gives blocks of size {args.k_max * phi.m} > {DESK_SCALE_DIM}")
    params = {
        "k_max": args.k_max,
        "restarts": args.restarts,
        "samples": args.samples,
        "projections": args.projections,
        "defect_limit": DEFECT_LIMIT,
        "psd_rtol": PSD_RTOL,
        "hermitian_rtol": HERMITIAN_RTOL,
    }
    report = new_report(doc, params, args.seed)
    h = hermitian_part(phi.choi())
    # record id -> {"elapsed_s": seconds its search took}, for --timings; the
    # certificate may decide sk_ records, so it runs first and keeps its own time
    clock = time.perf_counter()
    certificate = decomposition_certificate(h, phi.m, phi.n)
    stages = {"decomposable": {"elapsed_s": time.perf_counter() - clock}}
    clock = time.perf_counter()
    for record_id, verdict in _classify_stages(phi, h, certificate, args):
        stages.setdefault(record_id, {"elapsed_s": time.perf_counter() - clock})
        _verdict_record(report, record_id, verdict)
        clock = time.perf_counter()

    report["summary"] = classify_summary(report["records"], args.k_max)
    write_report(report, args.out, timing=_timing(args, stages))
    return 0


def _modular_defects(rho, seed: int, t: int) -> dict[str, float]:
    """Trial t's defect of each identity of the modular suite at the state rho."""
    ctx = gns_context(rho)
    defects = check_unitary_relations(ctx)
    del defects["max"]
    defects["polar"] = check_polar_factorization(ctx)
    # ten (a, xi) pairs, each from four consecutive (d, d) normal draws
    z = rng_stream(seed, 1000 + t).standard_normal((10, 4, ctx.dim, ctx.dim))
    defects["transpose_identity"] = max(
        transpose_via_conjugations(r[0] + 1j * r[1], r[2] + 1j * r[3])[2] for r in z
    )
    dual = v_beta_duality_check(ctx, 0.25, samples=20, seed=seed + t)
    defects["cone_duality_imag"] = dual["max_imag_pairing"]
    defects["cone_duality_negative"] = max(0.0, -dual["min_real_pairing"])
    defects["cone_flip_failures"] = dual["flip_failures"]
    return defects


def cmd_modular_verify(args) -> int:
    _require_counts(args, "trials")
    if not 2 <= args.dim <= 8:
        raise ParseError(f"--dim must be in 2..8, got {args.dim}")
    if args.rho_file:
        rho = state_from_document(load_document(args.rho_file))
        if rho.shape != (args.dim, args.dim):
            raise ParseError(f"state shape {rho.shape} does not match --dim {args.dim}")
        trials, draw = 1, lambda t: rho
    else:
        trials, draw = args.trials, lambda t: random_faithful_state(rng_stream(args.seed, t), args.dim)
    params = {
        "dim": args.dim,
        "trials": trials,
        "defect_limit": DEFECT_LIMIT,
        "rho_file": args.rho_file or "",
    }
    input_doc = {"kind": "modular-suite", "dim": args.dim, "trials": trials}
    report = new_report(input_doc, params, args.seed)

    # each state is drawn just before its own trial and dropped after it
    worst: dict[str, float] = {}
    for t in range(trials):
        for name, value in _modular_defects(draw(t), args.seed, t).items():
            worst[name] = max(worst.get(name, 0.0), value)

    for name in sorted(worst):
        add_record(report, f"identity:{name}", "defect", worst[name])
    passed = max(worst.values()) <= DEFECT_LIMIT
    report["summary"] = {"max_defect": max(worst.values()), "passed": passed}
    write_report(report, args.out, timing=_timing(args))
    return 0 if passed else 1


def cmd_cone(args) -> int:
    doc = load_document(args.input)
    # pq, flags and polar draw nothing, so their reports state no seed or samples
    draws = args.subcommand in ("member", "bounds", "weakdec")
    if draws and args.seed is None:
        raise ParseError(f"cone {args.subcommand} samples; --seed is mandatory")
    if args.subcommand in ("bounds", "weakdec"):
        # member reads --samples 0 as "no hull sampling"
        _require_counts(args, "samples")
    cone_input = cone_input_from_document(doc)
    ctx = bipartite_context(cone_input.rho_a, cone_input.rho_b)
    params = {"subcommand": args.subcommand} | ({"samples": args.samples} if draws else {})
    report = new_report(doc, params, args.seed if draws else None)
    exit_code = 0
    xi = None if args.subcommand == "weakdec" else cone_input.frame_vector(ctx)

    if args.subcommand == "member":
        membership = cone_member(ctx, xi, hull_samples=args.samples, seed=args.seed)
        report["summary"] = {
            **{field: getattr(membership, field) for field in MEMBER_FIELDS},
            "cross_route_defect": membership.cross_route_defect,
            "in_hull_evidence": membership.in_hull_evidence,
        }
        # a vector outside P is an answer, not a verification failure: exit 0
        add_record(report, "member", member_kind(membership), membership.p_min_eig)
    elif args.subcommand == "pq":
        p_xi, q_xi = ctx.p_project(xi), ctx.q_project(xi)
        cross = abs(np.vdot(p_xi, q_xi))
        pythagoras = abs(
            np.vdot(xi, xi).real - np.vdot(p_xi, p_xi).real - np.vdot(q_xi, q_xi).real
        )
        report["summary"] = {
            "p_norm": float(np.linalg.norm(p_xi)),
            "q_norm": float(np.linalg.norm(q_xi)),
            "orthogonality_defect": float(cross),
            "pythagoras_defect": float(pythagoras),
        }
        add_record(report, "pq", "defect", float(max(cross, pythagoras)))
        exit_code = 0 if max(cross, pythagoras) <= DEFECT_LIMIT else 1
    elif args.subcommand == "bounds":
        margins = split_bounds_check(ctx, xi, eta_samples=args.samples, seed=args.seed)
        report["summary"] = {k: float(v) for k, v in margins.items()}
        add_record(report, "bounds", "pass" if margins["violations"] == 0 else "defect",
                   margins["violations"])
        exit_code = 0 if margins["violations"] == 0 else 1
    elif args.subcommand == "flags":
        flags = odd_part_flags(ctx, xi)
        report["summary"] = {
            "q_in_p": flags.q_in_p,
            "q_zero": flags.q_zero,
            "fixed": flags.fixed,
            "agree": flags.agree(),
        }
        add_record(report, "flags", "pass" if flags.agree() else "defect",
                   0.0 if flags.agree() else 1.0)
        exit_code = 0 if flags.agree() else 1
    elif args.subcommand == "polar":
        polar = odd_part_polar(ctx, xi)
        xi_b_ok = polar.degenerate or cone_member(ctx, polar.xi_b).in_p
        report["summary"] = {
            "reconstruction_defect": polar.reconstruction_defect,
            "degenerate": polar.degenerate,
            "xi_b_in_p": bool(xi_b_ok),
        }
        add_record(report, "polar", "defect", polar.reconstruction_defect)
        exit_code = 0 if polar.reconstruction_defect <= DEFECT_LIMIT and xi_b_ok else 1
    elif args.subcommand == "weakdec":
        if cone_input.map_doc is None:
            raise ParseError("cone weakdec needs a 'map' entry in the input document")
        phi = map_from_document(cone_input.map_doc)
        k = cone_input.k
        verdict = weak_kdec_cone_check(ctx.ctx_a, phi, k, samples=args.samples, seed=args.seed)
        _verdict_record(report, f"weakdec_{k}", verdict)
        report["summary"] = {"weakdec": verdict.kind, "k": k, "min_pairing": verdict.value}
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown cone subcommand {args.subcommand}")
    write_report(report, args.out, timing=_timing(args))
    return exit_code


def cmd_verify(args) -> int:
    report = load_document(args.report)
    failures = verify_report(report)
    if failures:
        for failure in failures:
            print(f"stale witness: {failure}", file=sys.stderr)
        return 1
    print("all witnesses re-verified")
    return 0


def _timing(args, stages: dict | None = None) -> dict | None:
    """Seconds from the start of the command to the report write, and per
    search stage when the command has stages, under --timings."""
    if not getattr(args, "timings", False):
        return None
    timing = {"elapsed_s": time.perf_counter() - args.started}
    if stages is not None:
        timing["stages"] = stages
    return timing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posmap",
        description="Positivity classification of maps between matrix algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out")
    output.add_argument("--timings", action="store_true")

    p_classify = sub.add_parser(
        "classify", parents=[output], help="run the positivity hierarchy on a map document"
    )
    p_classify.add_argument("input")
    p_classify.add_argument("--k-max", type=int, default=2, dest="k_max")
    p_classify.add_argument("--seed", type=int, required=True)
    p_classify.add_argument("--restarts", type=int, default=32)
    p_classify.add_argument("--samples", type=int, default=200)
    p_classify.add_argument("--projections", type=int, default=40)
    p_classify.set_defaults(func=cmd_classify)

    p_mod = sub.add_parser(
        "modular-verify", parents=[output], help="verify the modular identity suite"
    )
    p_mod.add_argument("--dim", type=int, required=True)
    p_mod.add_argument("--trials", type=int, default=10)
    p_mod.add_argument("--seed", type=int, required=True)
    p_mod.add_argument("--rho-file", dest="rho_file")
    p_mod.set_defaults(func=cmd_modular_verify)

    p_cone = sub.add_parser("cone", parents=[output], help="bipartite cone diagnostics")
    p_cone.add_argument("subcommand", choices=["member", "pq", "bounds", "flags", "polar", "weakdec"])
    p_cone.add_argument("input")
    p_cone.add_argument("--seed", type=int, default=None,
                        help="mandatory for the sampling subcommands member/bounds/weakdec")
    p_cone.add_argument("--samples", type=int, default=100)
    p_cone.set_defaults(func=cmd_cone)

    p_verify = sub.add_parser("verify", help="re-check every witness stored in a report")
    p_verify.add_argument("report")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = time.perf_counter()
    try:
        return args.func(args)
    except PosmapError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
