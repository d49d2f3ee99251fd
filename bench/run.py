"""posmap benchmark: closed-loop workloads measured end to end, or layer by
layer from outside.

    python3 bench/run.py --workload classify --seed 1 --seconds 35 --trace 0

Workloads (see ``workloads.py``): ``classify``, ``threshold``,
``cone-modular``, or ``all`` to run the three in turn, each in its own
process.  One process, one client, BLAS pinned to one thread.

``--trace 0`` runs the workload's ops in a closed loop for ``--seconds`` and
prints every end-to-end metric: ``setup_s`` (median of several fresh
interpreters importing posmap and writing the corpus), ``ops_per_s``,
``op_s.p50``, ``op_s.tail``, ``cpu_s_per_op``, ``failed_share`` and
``peak_rss_mb``.  Times are reported at the nominal speed of a gauge sampled
during the run (see ``speed.py``), with the raw wall and CPU figures printed
beside them; ``failed_share`` is printed with both counts but is not a gated
metric, since it is zero when the program is correct.

``--trace 1`` runs the workload's first pass (a fixed op set, the same for a
given seed) alternately untraced and traced while time remains, and prints
per-layer metrics from the traced repetitions: ``<name>.calls``,
``<name>.self_s`` and ``<name>.us_per_call`` (inclusive wall per call) for
every traced function, ``<module>.self_s`` rollups, matrices decomposed by
``numpy.eigh``/``eigvalsh``, and exact work counts from verdict stats.
Per-layer times are raw.  Counts are compared across traced repetitions and
report bodies across all repetitions; any difference is flagged as
nondeterminism.  Only the per-layer metrics named in BENCHMARK.json go into
the last line; the full table is printed and written to ``result.json``.

Every op is checked against analytic truth; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
metrics named in BENCHMARK.json).  Outputs go to ``.bench_out/`` in the
checkout.  Exits 2 without a result when posmap cannot be imported from the
checkout's ``src/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5

sys.path.insert(0, BENCH_DIR)
import workloads as wl  # noqa: E402
import speed  # noqa: E402

# ROADMAP baseline, inclusive µs per call of four kernels
BASELINE_US = {"linalg.hs_inner": 35, "linalg.herm_eig": 93, "linalg.partial_transpose": 21, "linalg.rng_stream": 71}
# per workload: the layer group predicted to dominate, then every compared
# group as (metric keys summed, share a cProfile probe measured in %)
PREDICTIONS = {
    "classify": ("PG witness", {
        "PG witness": (("kpositivity.decomposability_witness.incl_s",), 49),
        "doubly-PSD sampler": (("kpositivity.sample_doubly_psd_block.incl_s",), 14),
        "block-positivity see-saw": (("choi.block_positivity.incl_s",), None),
        "k-positivity see-saw": (("kpositivity.k_block_min.incl_s",), None),
    }),
    "threshold": ("see-saw restart set-up", {
        "see-saw restart set-up": (("linalg.rng_stream.incl_s", "linalg.haar_isometry.incl_s"), 26),
        "see-saw alternations (herm_eig chain)": (("linalg.herm_eig.incl_s",), 46),
    }),
    "cone-modular": ("cone samplers", {
        "cone samplers": (("cones.sample_ppt_operator.incl_s", "cones.sample_cone_element.incl_s"), 58),
        "split bounds": (("cones.split_bound_margins.incl_s",), 16),
        "as_matrix self time": (("linalg.as_matrix.self_s",), 30),
        "docio + report + cli self time": (("docio.self_s", "report.self_s", "cli.self_s"), None),
    }),
}


def import_posmap():
    """Import posmap from this checkout only; None when it is not there."""
    sys.path.insert(0, SRC)
    try:
        import posmap
        import posmap.cli
        import posmap.maps
    except ImportError as exc:
        print(f"cannot import posmap from {SRC}: {exc}", file=sys.stderr)
        return None
    if not os.path.abspath(posmap.__file__).startswith(SRC + os.sep):
        print(f"posmap imported from {posmap.__file__}, not from {SRC}", file=sys.stderr)
        return None
    return posmap


class _Sink:
    def write(self, s):
        return len(s)

    def flush(self):
        pass


SINK = _Sink()


def run_op(posmap, op: wl.Op, out: str, wrap: int) -> wl.OpResult:
    cpu0 = time.process_time()
    result = _run_op(posmap, op, out, wrap)
    result.cpu_s = time.process_time() - cpu0
    return result


def _run_op(posmap, op: wl.Op, out: str, wrap: int) -> wl.OpResult:
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(SINK), contextlib.redirect_stderr(SINK):
            if op.kind == "threshold":
                n, k = op.params["n"], op.params["k"]
                value = posmap.bisect_threshold(
                    lambda lam: posmap.maps.reduction_family(lam, n), k, 0.2, k + 1,
                    steps=40, restarts=64, seed=op.seed + 100_000 * wrap,
                )
                return wl.OpResult(time.perf_counter() - t0, value=float(value))
            code = posmap.cli.main(op.cli_args(out, wrap))
            vcode = posmap.cli.main(["verify", out]) if code == 0 else None
    except SystemExit as exc:
        return wl.OpResult(time.perf_counter() - t0, code=exc.code)
    except Exception as exc:  # any exception is a failed op, and the loop goes on
        return wl.OpResult(time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    return wl.OpResult(time.perf_counter() - t0, code=code, verify_code=vcode)


def load_report(result: wl.OpResult, path: str) -> None:
    if result.code is not None and os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            result.report = json.load(fh)


def body_digest(results: list) -> str:
    """sha256 over the canonical report bodies (or threshold values) in op order."""
    from posmap.report import report_body

    h = hashlib.sha256()
    for r in results:
        payload = report_body(r.report) if r.report is not None else {"value": r.value, "code": r.code}
        h.update(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def steal_ticks() -> int:
    with open("/proc/stat", encoding="ascii") as fh:
        return int(fh.readline().split()[8])


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int, corpus_dir: str) -> int:
    if import_posmap() is None:
        return 2
    wl.build_corpus(workload, seed, corpus_dir)
    return 0


def measure_setup(workload: str, seed: int, corpus_dir: str) -> tuple:
    """Wall seconds of fresh interpreters that import posmap and write the
    corpus, and the gauge's speed factor over them."""
    walls, samples = [], []
    for _ in range(SETUP_PROBES):
        # gauge samples between probes, not during them: a sampling parent
        # competes with its child for the machine
        samples += [speed.sample() for _ in range(10)]
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--corpus", corpus_dir],
            cwd=ROOT, env=os.environ.copy(), capture_output=True, text=True, timeout=120,
        )
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    samples += [speed.sample() for _ in range(10)]
    # the median resists the slow samples taken just after a probe exits
    return walls, speed.NOMINAL_S / statistics.median(samples)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def tail(times: list) -> tuple:
    """(value, percentile, ops beyond): the highest percentile with at least
    ten ops beyond it, never below the median."""
    s = sorted(times)
    n = len(s)
    rank = max(n - 10, n // 2 + 1)  # 1-based nearest rank
    return s[rank - 1], 100.0 * rank / n, n - rank


def untraced(posmap, ops: list, seconds: float, reports: str) -> dict:
    """Closed loop over ops for `seconds`, with the speed gauge active.

    Each op's wall and CPU time exclude the gauge's own samples; its speed
    factor comes from the samples around it.
    """
    results = []
    intervals = []
    steal0 = steal_ticks()
    with speed.Gauge() as gauge:
        t0 = time.perf_counter()
        i = 0
        while True:
            busy, start = gauge.busy, time.perf_counter()
            r = run_op(posmap, ops[i % len(ops)], os.path.join(reports, f"{i}.json"), i // len(ops))
            end, sampled = time.perf_counter(), gauge.busy - busy
            r.wall_s -= sampled
            r.cpu_s -= sampled
            results.append(r)
            intervals.append((start, end))
            i += 1
            if end - t0 >= seconds:
                break
        wall = time.perf_counter() - t0 - gauge.busy
    steal = steal_ticks() - steal0
    for j, r in enumerate(results):
        load_report(r, os.path.join(reports, f"{j}.json"))
    return {"results": results, "wall": wall, "steal": steal,
            "factors": [gauge.factor(a, b) for a, b in intervals], "gauges": gauge.durations}


def traced(posmap, pass0: list, seconds: float, reports: str, spans_path: str) -> dict:
    """Alternate untraced and traced repetitions of pass 0 while time remains."""
    from spans import Tracer

    tracer = Tracer()
    reps = []  # (traced, wall, results, table, counts)
    steal0 = steal_ticks()
    t0 = time.perf_counter()
    last = {}
    while True:
        is_traced = len(reps) % 2 == 1
        if len(reps) >= 2:
            estimate = last[is_traced]
            if time.perf_counter() - t0 + estimate > seconds:
                break
        tracer.reset()
        if is_traced:
            tracer.install()
        results = []
        try:
            for i, op in enumerate(pass0):
                tracer.op_id = i
                results.append(run_op(posmap, op, os.path.join(reports, f"{i}.json"), 0))
        finally:
            if is_traced:
                tracer.uninstall()
        wall = sum(r.wall_s for r in results)
        last[is_traced] = wall
        for i, r in enumerate(results):
            load_report(r, os.path.join(reports, f"{i}.json"))
        table = tracer.layer_table() if is_traced else None
        if is_traced and len(reps) == 1:
            tracer.save(spans_path)
        reps.append((is_traced, wall, results, table, dict(tracer.counts)))
    return {"reps": reps, "steal": steal_ticks() - steal0}


def layer_metrics(reps: list) -> tuple:
    """Per-layer metrics from the traced repetitions, and nondeterminism notes."""
    traced_reps = [r for r in reps if r[0]]
    first_table, first_counts = traced_reps[0][3], traced_reps[0][4]
    notes = []
    for _, _, _, table, counts in traced_reps[1:]:
        for name, row in table.items():
            if row["calls"] != first_table[name]["calls"]:
                notes.append(f"{name}.calls {first_table[name]['calls']} then {row['calls']}")
        if counts != first_counts:
            notes.append(f"work counts {first_counts} then {counts}")
    metrics = {}
    modules = {}
    for name, row in first_table.items():
        if row["calls"] == 0:
            continue
        self_s = statistics.median(r[3][name]["self_s"] for r in traced_reps)
        incl_s = statistics.median(r[3][name]["incl_s"] for r in traced_reps)
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.us_per_call"] = (1e6 * incl_s / row["calls"], "us")
        metrics[f"{name}.incl_s"] = (incl_s, "s")
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + self_s
    for module, self_s in modules.items():
        metrics[f"{module}.self_s"] = (self_s, "s")
    for key, value in first_counts.items():
        metrics[key] = (value, "count")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corpus", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.corpus)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w, *rest]).returncode
                 for w in wl.WORKLOADS]
        return max(codes)
    posmap = import_posmap()
    if posmap is None:
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    work = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    corpus_dir = os.path.join(work, "corpus")
    reports = os.path.join(work, "reports")
    os.makedirs(reports)
    if args.trace == 0:
        setup_walls, setup_factor = measure_setup(args.workload, args.seed, corpus_dir)
    passes = wl.build_corpus(args.workload, args.seed, corpus_dir)
    env = environment(args.seed)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    notes = []
    if args.trace == 0:
        ops = [op for p in passes for op in p]
        run = untraced(posmap, ops, args.seconds, reports)
        checked = list(zip((ops[i % len(ops)] for i in range(len(run["results"]))), run["results"]))
        pass0 = run["results"][: len(passes[0])]
        raw = [r.wall_s for r in run["results"]]
        times = [w * f for w, f in zip(raw, run["factors"])]
        cpu = sum(r.cpu_s * f for r, f in zip(run["results"], run["factors"]))
        n = len(times)
        tail_value, tail_pct, beyond = tail(times)
        metrics = {
            "setup_s": (statistics.median(setup_walls) * setup_factor, "s"),
            "ops_per_s": (n / sum(times), "1/s"),
            "op_s.p50": (statistics.median(times), "s"),
            "op_s.tail": (tail_value, "s"),
            "cpu_s_per_op": (cpu / n, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        wanted = spec["end_to_end"]
        raw_tail, raw_pct, _ = tail(raw)
        extra = {
            "setup_s": f"raw {statistics.median(setup_walls):.4f} s, median of "
                       + ", ".join(f"{w:.4f}" for w in setup_walls),
            "ops_per_s": f"raw {n / run['wall']:.4f}: {n} ops in {run['wall']:.3f} s",
            "op_s.p50": f"raw {statistics.median(raw):.4f} s",
            "op_s.tail": f"p{tail_pct:.1f}, {n} ops, {beyond} beyond; raw {raw_tail:.4f} s at p{raw_pct:.1f}",
            "cpu_s_per_op": f"raw {sum(r.cpu_s for r in run['results']) / n:.4f} s",
        }
    else:
        run = traced(posmap, passes[0], args.seconds, reports, os.path.join(work, "spans.npz"))
        reps = run["reps"]
        checked = [(op, r) for rep in reps for op, r in zip(passes[0], rep[2])]
        pass0 = reps[0][2]
        digests = {body_digest(rep[2]) for rep in reps}
        if len(digests) > 1:
            notes.append(f"report bodies differ between repetitions of pass 0: {sorted(digests)}")
        metrics, count_notes = layer_metrics(reps)
        notes += count_notes
        wanted = spec["per_layer"]
        extra = {}
        untraced_wall = statistics.median(r[1] for r in reps if not r[0])
        traced_wall = statistics.median(r[1] for r in reps if r[0])
        print(f"repetitions of pass 0 ({len(passes[0])} ops): "
              + ", ".join(f"{'traced' if r[0] else 'untraced'} {r[1]:.3f} s" for r in reps))
        print(f"tracing_overhead {traced_wall / untraced_wall:.4f} (traced wall {traced_wall:.3f} s "
              f"over untraced wall {untraced_wall:.3f} s)")

    failures = []
    for idx, (op, result) in enumerate(checked):
        for reason in wl.findings(op, result):
            failures.append(idx)
            print(f"FAILED op {idx} {op.kind} {' '.join(op.argv) or op.params}: {reason}")
    failed = len(set(failures))
    attempted = len(checked)
    for note in notes:
        print(f"NONDETERMINISM {note}")

    if args.trace == 0:
        for name, (value, unit) in metrics.items():
            print(f"{name:<14} {value:.6g} {unit}" + (f"  ({extra[name]})" if name in extra else ""))
        print(f"{'failed_share':<14} {failed / attempted:.6g}  ({failed} failed / {attempted} attempted)")
        print(f"{'steal_ticks':<14} {run['steal']}  (/proc/stat steal over the timed phase)")
        g = sorted(run["gauges"])
        print(f"{'gauge_ms':<14} p10 {1e3 * g[len(g) // 10]:.4f} p50 {1e3 * g[len(g) // 2]:.4f} "
              f"p90 {1e3 * g[9 * len(g) // 10]:.4f}  ({len(g)} samples, nominal {1e3 * speed.NOMINAL_S:.4f})")
    else:
        print_layers(args.workload, metrics, run["steal"])
    print(f"report_sha256  {body_digest(pass0)}  (pass 0, {len(pass0)} ops)")

    out_metrics = {}
    for m in wanted:
        value, unit = metrics.get(m["name"], (0, m["unit"]))
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {unit} but BENCHMARK.json says {m['unit']}")
        out_metrics[m["name"]] = {"value": value, "unit": unit}
    result = {"correct": failed == 0 and not notes, "attempted": attempted, "failed": failed,
              "metrics": out_metrics}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "all_metrics": {k: v[0] for k, v in metrics.items()},
                   "ops": [[op.kind, op.label.get("family"), r.wall_s, r.cpu_s] for op, r in checked],
                   "gauges": run.get("gauges"), "factors": run.get("factors"),
                   "failures": failures, "notes": notes, **result}, fh, indent=1, sort_keys=True)
    # reports and documents are re-made by every run; keep the results and spans
    shutil.rmtree(reports)
    shutil.rmtree(corpus_dir)
    print(json.dumps(result))
    return 0


def print_layers(workload: str, metrics: dict, steal: int) -> None:
    names = sorted({k.rsplit(".", 1)[0] for k in metrics if k.endswith(".calls")},
                   key=lambda nm: -metrics[f"{nm}.self_s"][0])
    wall = sum(metrics[k][0] for k in metrics if k.count(".") == 1 and k.endswith(".self_s"))
    print(f"{'layer':<44} {'calls':>9} {'self_s':>10} {'self%':>6} {'incl_s':>10} {'us/call':>10}")
    for nm in names:
        self_s = metrics[f"{nm}.self_s"][0]
        print(f"{nm:<44} {metrics[f'{nm}.calls'][0]:>9} {self_s:>10.4f} {100 * self_s / wall:>6.1f} "
              f"{metrics[f'{nm}.incl_s'][0]:>10.4f} {metrics[f'{nm}.us_per_call'][0]:>10.2f}")
    for k in sorted(k for k in metrics if k.count(".") == 1 and k.endswith(".self_s")):
        print(f"module {k:<30} {metrics[k][0]:>10.4f} s  {100 * metrics[k][0] / wall:5.1f}%")
    for k in sorted(k for k, v in metrics.items() if v[1] == "count" and not k.endswith(".calls")):
        print(f"count  {k:<50} {metrics[k][0]}")
    for nm, base in BASELINE_US.items():
        got = metrics.get(f"{nm}.us_per_call", (float("nan"),))[0]
        print(f"kernel {nm:<28} {got:10.2f} us/call traced  (ROADMAP baseline {base} us)")
    predicted, groups = PREDICTIONS[workload]
    share = {g: 100 * sum(metrics.get(k, (0.0,))[0] for k in keys) / wall for g, (keys, _) in groups.items()}
    for g, (keys, probe) in groups.items():
        print(f"share  {g:<40} {share[g]:5.1f}%  (probe {probe if probe is not None else '-'}%)")
    top = max(share, key=share.get)
    verdict = "confirmed" if top == predicted else f"not confirmed: {top} is larger"
    print(f"prediction {workload}: {predicted} dominates -> {verdict}  (steal ticks {steal})")


if __name__ == "__main__":
    sys.exit(main())
