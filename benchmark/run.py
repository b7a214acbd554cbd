"""Benchmark of clustercones: one workload per run, one client, closed loop.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from anywhere inside a checkout; the package is imported from the
checkout's own `src/`, never from an installed copy, and the run fails with
exit code 2 when that source is missing. The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones (`END_TO_END`); with
`--trace 1` they are the per-layer ones (`per_layer_metrics`), taken by
wrapping the package's public callables (see tracer.py), and the spans are
written to `.bench_out/`. A line starting with `meta ` before the result
records the interpreter, revision, CPU count, seed and load sizes.

`--smoke` runs one set-up and one small round, for the benchmark's own
tests (selftest.py). See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402
from tracer import LAYERS, Summary, Tracer  # noqa: E402
from workloads import WORKLOADS, CatalogSymbolic  # noqa: E402

SETUP_BATCHES = 3
SETUP_BATCH_S = 0.5
END_TO_END = {
    "setup_s": "s",
    "a_mean_ms": "ms",
    "b_mean_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
VERDICTS = ("bounded", "unbounded", "not-weight-zero")
SUBSETS = ("pluecker", "deg2")


class SourceMissing(RuntimeError):
    pass


def load_package(root: Path):
    """Import clustercones afresh from root/src; return its modules.

    Earlier imports are dropped first, so each set-up pays for its own
    import and gets its own module objects.
    """
    src = root / "src"
    if not (src / "clustercones" / "__init__.py").is_file():
        raise SourceMissing(f"no clustercones source under {src}")
    for name in list(sys.modules):
        if name == "clustercones" or name.startswith("clustercones."):
            del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    modules = {layer: importlib.import_module(f"clustercones.{layer}")
               for layer in LAYERS}
    where = Path(modules["cli"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise SourceMissing(f"clustercones was imported from {where}")
    return type("Modules", (), modules)


def git_revision(root: Path) -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _children_cpu() -> float:
    """CPU time of ended child processes; it grows if the load forks."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_round(ops, round_index, tracer, records, probe: SpeedProbe):
    for i, (kind, work, fn) in enumerate(ops):
        op = round_index * len(ops) + i
        scope = tracer.op_scope(op, kind) if tracer else nullcontext()
        mark = probe.start(kind)
        try:
            with scope:
                error = fn()
        except Exception:
            error = traceback.format_exc(limit=4)
        records.append((kind, work, probe.stop(mark), error))


def mean_s(records, kind) -> float:
    """Mean latency of the correct ops of one class (of all its ops if
    none was correct)."""
    good = [dt for k, _, dt, err in records if k == kind and err is None]
    times = good or [dt for k, _, dt, _ in records if k == kind]
    return statistics.fmean(times) if times else 0.0


def per_layer_metrics(s: Summary, overhead_s: float, overhead_share: float,
                      spans_per_round: float) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    selfs = s.self_seconds()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (selfs[layer], "s")
    m["linalg.solver_setup_s"] = (s.seconds("linalg", "ExactSolver.__init__"), "s")
    m["linalg.kernel_basis_s"] = (s.seconds("linalg", "right_kernel_basis"), "s")
    m["linalg.solve_ms"] = (s.median_ms("linalg", "ExactSolver.solve"), "ms")
    m["linalg.solve_calls"] = (s.calls("linalg", "ExactSolver.solve"), "count")
    m["uvars.kernel_functionals_s"] = (s.seconds("uvars", "kernel_functionals"), "s")
    m["uvars.degeneration_ray_ms"] = (s.median_ms("uvars", "degeneration_ray"), "ms")
    m["uvars.degeneration_ray_calls"] = (s.calls("uvars", "degeneration_ray"), "count")
    for t in CatalogSymbolic.ueq_types:
        m[f"uvars.verify_u_equations_s.{t}"] = (
            s.seconds("uvars", "verify_u_equations", tag=t), "s")
    m["finite_type.belt_build_s"] = (
        s.seconds("finite_type", "BipartiteBelt.__init__"), "s")
    m["finite_type.value_walk_ms"] = (
        s.median_ms("finite_type", "BipartiteBelt.value_walk"), "ms")
    m["finite_type.value_walk_calls"] = (
        s.calls("finite_type", "BipartiteBelt.value_walk"), "count")
    m["finite_type.frame_s"] = (s.seconds("finite_type", "BipartiteBelt.frame"), "s")
    mul, div = "LaurentPolynomial.__mul__", "LaurentPolynomial.divide_exact"
    m["laurent.mul_calls"] = (s.leaf_calls("laurent", mul), "count")
    m["laurent.mul_s"] = (s.leaf_seconds("laurent", mul), "s")
    m["laurent.max_terms"] = (s.leaf_max("laurent", mul), "count")
    m["laurent.divide_exact_calls"] = (s.leaf_calls("laurent", div), "count")
    m["laurent.divide_exact_s"] = (s.leaf_seconds("laurent", div), "s")
    m["cones.build_u_matrix_s"] = (s.seconds("cones", "build_u_matrix"), "s")
    for v in VERDICTS:
        m[f"cones.membership_ms.{v}"] = (
            s.median_ms("cones", "membership", tag=v), "ms")
        m[f"cones.verify_certificate_ms.{v}"] = (
            s.median_ms("cones", "verify_certificate", tag=v), "ms")
    m["cones.subtraction_free_ms.bounded"] = (
        s.median_ms("cones", "subtraction_free_check", tag="bounded"), "ms")
    for subset in SUBSETS:
        dd = s.last_tag("cones", "double_description", kind=subset) or (0, 0)
        m[f"cones.dd_s.{subset}"] = (
            s.median_ms("cones", "double_description", kind=subset) / 1000, "s")
        m[f"cones.dd_rows.{subset}"] = (dd[0], "count")
        m[f"cones.dd_rays.{subset}"] = (dd[1], "count")
    m["grassmannian.build_s"] = (
        s.seconds("grassmannian", "GrassmannianCluster.__init__"), "s")
    m["grassmannian.ray_orbits_ms"] = (
        s.median_ms("grassmannian", "GrassmannianCluster.ray_orbits"), "ms")
    m["grassmannian.check_ray_table_ms"] = (
        s.median_ms("grassmannian", "check_ray_table"), "ms")
    m["grassmannian.gr48_evals"] = (
        s.tag_total("grassmannian", "verify_gr48_table"), "count")
    m["expressions.parse_ms"] = (s.median_ms("expressions", "parse_ratio"), "ms")
    m["cli.render_ms"] = (s.self_per_op_ms("cli"), "ms")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.overhead_share"] = (overhead_share, "share")
    m["trace.spans"] = (spans_per_round, "count")
    return m


def set_up(workload, tracer, probe: SpeedProbe, smoke: bool):
    """Set the workload up repeatedly; return the last modules and state,
    the mean set-up time of each batch, and the number of set-ups.

    Set-ups run in batches lasting at least SETUP_BATCH_S (a single set-up
    when one takes that long), so that each batch mean covers the machine's
    fast and slow moments alike.
    """
    batch_means = []
    count = 0
    for _ in range(1 if smoke else SETUP_BATCHES):
        batch_s = 0.0
        batch_n = 0
        while not batch_n or (batch_s < SETUP_BATCH_S and not (smoke or tracer)):
            if tracer:
                tracer.uninstall()
            mark = probe.start("setup")
            cc = load_package(ROOT)
            if tracer:
                tracer.install()
            with tracer.op_scope(f"setup{count}", "setup") if tracer else nullcontext():
                state = workload.setup(cc)
            batch_s += probe.stop(mark)
            batch_n += 1
            count += 1
        batch_means.append(batch_s / batch_n)
    return cc, state, batch_means, count


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False, golden: dict | None = None):
    """One benchmark run. Returns (result dict, meta dict)."""
    workload = WORKLOADS[workload_name]
    children_before = _children_cpu()
    if golden is None:
        golden = json.loads((HERE / "golden.json").read_text())
    tracer = Tracer() if trace else None
    with SpeedProbe(enabled=not trace) as probe:
        cc, state, batch_means, setups = set_up(
            workload, tracer, probe, smoke)

        rng = random.Random(seed)
        span = tracer.span if tracer else (lambda layer, name: nullcontext())
        ops = workload.ops(cc, state, rng, smoke, span=span, golden=golden)

        overhead_s = overhead_share = 0.0
        if tracer:
            # the same round untraced, then traced, gives the tracing overhead
            tracer.uninstall()
            t0 = perf_counter()
            run_round(ops, -1, None, [], probe)
            untraced_s = perf_counter() - t0
            tracer.install()

        records: list = []
        rounds = 0
        start = perf_counter()
        while True:
            t0 = perf_counter()
            run_round(ops, rounds, tracer, records, probe)
            if tracer and rounds == 0:
                overhead_s = perf_counter() - t0 - untraced_s
                overhead_share = overhead_s / untraced_s
            rounds += 1
            if smoke or perf_counter() - start >= seconds:
                break
        if tracer:
            tracer.uninstall()

    mp = sys.modules.get("multiprocessing")
    if _children_cpu() > children_before or (mp and mp.active_children()):
        raise RuntimeError("the load left the benchmark process (jobs must be 1)")

    failed = [r for r in records if r[3] is not None]
    for kind, _, _, error in failed[:5]:
        print(f"op {kind} failed: {error}", file=sys.stderr)

    meta = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "python": sys.version.split()[0],
        "git_revision": git_revision(ROOT),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "processes": 1,
        "clients": 1,
        "setups": setups,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "classes": {"a": workload.classes[0], "b": workload.classes[1]},
        "work_unit": workload.unit,
        "load": workload.load(state),
    }

    if tracer:
        summary = Summary(tracer, setups, rounds)
        spans = sum(1 for sp in tracer.spans if isinstance(sp[2], int))
        metrics = per_layer_metrics(summary, overhead_s, overhead_share,
                                    spans / rounds)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{workload_name}-seed{seed}.json.gz", meta)
    else:
        # times are scaled to the reference machine speed: while the
        # machine runs at half speed, probes take twice as long
        a, b = workload.classes
        kinds = {kind for kind, _, _, _ in records}
        scale = {"setup": probe.scale("setup"), a: probe.scale(a),
                 b: probe.scale(b), "ops": probe.scale(*kinds)}
        work = sum(w for _, w, _, err in records if err is None)
        busy = sum(dt for _, _, dt, _ in records)
        raw = {
            "setup_s": statistics.median(batch_means),
            "a_mean_ms": 1000 * mean_s(records, a),
            "b_mean_ms": 1000 * mean_s(records, b),
            "work_per_s": work / busy,
        }
        meta["raw"] = raw
        meta["slowdown"] = {k: 1 / v for k, v in scale.items()}
        values = {
            "setup_s": raw["setup_s"] * scale["setup"],
            "a_mean_ms": raw["a_mean_ms"] * scale[a],
            "b_mean_ms": raw["b_mean_ms"] * scale[b],
            "work_per_s": raw["work_per_s"] / scale["ops"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up and one small round")
    args = parser.parse_args(argv)
    try:
        result, meta = run(args.workload, args.seed, args.seconds,
                           bool(args.trace), smoke=args.smoke)
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
