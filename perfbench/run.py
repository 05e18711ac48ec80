"""Benchmark of the nonscatter package: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 45 --trace 0

Runs from the root of a source checkout and imports the package from src/.
One process, one caller, ops in a closed loop, NONSCATTER_THREADS unset.
The run repeats whole rounds of ops until the ops have taken --seconds and at
least MIN_OPS have completed, then checks every output against independent
references.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
for --trace 0 and the per-layer metrics for --trace 1.  Details of the run
(latencies, failures, set-up times) go to perfbench/out/.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MIN_OPS = 40  # the tail percentile needs ten ops beyond it and forty in all
SETUP_REPEATS = 3
MAX_WALL_S = 150.0

# per-layer metric: per-op self time of these spans, in ms
_LAYER_MS = (
    ("curves.trigcurve_ms", ("curves.trigcurve",)),
    ("curves.eval_jets_ms", ("curves.eval_jets", "curves.eval_jet", "curves.g_jet")),
    ("saddle.find_saddles_ms", ("saddle.find_saddles",)),
    ("saddle.level_region_ms", ("saddle.level_region",)),
    ("saddle.build_contour_ms", ("saddle.build_contour",)),
    ("saddle.validate_contour_ms", ("saddle.validate_contour",)),
    ("asymptotics.asym_report_ms", ("asymptotics.asym_report",)),
    ("quad.lambda_sweep_ms", ("quad.lambda_sweep",)),
    ("quad.fit_decay_ms", ("quad.fit_decay",)),
    ("waves.ms", ("waves.sample", "waves.value", "waves.gradient")),
    ("czmath.bessel_ms", ("czmath.bessel_g", "czmath.bessel_j", "czmath.bessel_jp")),
    ("cli.self_ms", ("cli.main",)),
)


@dataclass
class Record:
    op: object
    seconds: float
    out: object
    exc: BaseException | None
    traced: bool
    problems: list | None = None


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("certify", "sweep"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _tail(lat: list) -> tuple:
    """Latency at the highest percentile with at least ten ops beyond it."""
    s = sorted(lat)
    i = max(len(s) - 11, 0)
    return s[i], 100.0 * (i + 1) / len(s)


def _rate(records) -> tuple:
    done = sum(1 for r in records if r.exc is None and not r.problems)
    busy = sum(r.seconds for r in records)
    return done / busy, done, busy


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ.pop("NONSCATTER_THREADS", None)
    # one BLAS thread: the package's arrays are small, and a second BLAS thread
    # only spins against the caller on a two-core host
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "nonscatter", "__init__.py")):
        print(f"no package source at {src}/nonscatter: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(OUT, exist_ok=True)

    import workloads  # imports nonscatter

    import_s = time.perf_counter() - _T0
    import references  # noqa: F401  imported here so that set-up time leaves out the checks' imports

    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    setup_reps = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl.setup()
        setup_reps.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setup_reps)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    records: list = []
    busy = 0.0
    completed = 0
    rnd = 0
    wall0 = time.perf_counter()
    try:
        while busy < args.seconds or completed < MIN_OPS:
            # traced runs alternate traced and untraced rounds: the untraced
            # ones are the base of trace.overhead
            traced = tracer is not None and rnd % 2 == 0
            if traced:
                tracer.install()
            for op in wl.round(rnd):
                if op.prepare is not None:
                    op.prepare()
                if traced:
                    tracer.op = len(records)
                t = time.perf_counter()
                try:
                    out, exc = op.run(), None
                except Exception as e:  # an op that raises counts as failed; the run goes on
                    out, exc = None, e
                dt = time.perf_counter() - t
                records.append(Record(op, dt, out, exc, traced))
                busy += dt
                completed += exc is None
            if traced:
                tracer.uninstall()
            rnd += 1
            if time.perf_counter() - wall0 > MAX_WALL_S:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.cleanup()

    correct = True
    failures = []
    for i, rec in enumerate(records):
        if rec.exc is not None:
            expected = rec.op.expect_fail is not None and isinstance(rec.exc, rec.op.expect_fail)
            correct &= expected
            failures.append({"op": i, "kind": rec.op.kind, "expected": expected,
                             "error": f"{type(rec.exc).__name__}: {rec.exc}"})
            continue
        rec.problems = rec.op.check(rec.out)
        if rec.problems:
            correct = False
            failures.append({"op": i, "kind": rec.op.kind, "expected": False, "error": rec.problems})
    once = wl.check_once(records)
    if once:
        correct = False
        failures.append({"op": None, "kind": "per-run check", "expected": False, "error": once})

    failed = sum(1 for r in records if r.exc is not None or r.problems)
    plain = [r for r in records if not r.traced]
    lat = [r.seconds for r in plain if r.exc is None and not r.problems]
    detail: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rnd,
        "import_s": import_s,
        "setup_reps_s": setup_reps,
        "env": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": __import__("numpy").__version__,
            "NONSCATTER_THREADS": os.environ.get("NONSCATTER_THREADS"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "failures": failures,
        "ops": [{"kind": r.op.kind, "s": r.seconds, "traced": r.traced,
                 "ok": r.exc is None and not r.problems} for r in records],
    }

    if tracer is None:
        rate, done, busy_s = _rate(plain)
        tail, pct = _tail(lat)
        metrics = {
            "ops_per_s": (rate, "1/s"),
            "op_p50_ms": (1000.0 * statistics.median(lat), "ms"),
            "op_tail_ms": (1000.0 * tail, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        detail["tail"] = {"percentile": pct, "samples": len(lat)}
        detail["ops_per_s_base"] = {"completed": done, "busy_s": busy_s}
    else:
        traced = [r for r in records if r.traced]
        n = len(traced)
        metrics = {name: (tracer.self_ms(*spans) / n, "ms") for name, spans in _LAYER_MS}
        counts = tracer.counts
        metrics["curves.eval_jets_points"] = (counts["curves.eval_jets_points"] / n, "count")
        metrics["saddle.waypoints"] = (counts["saddle.waypoints"] / n, "count")
        metrics["quad.nodes_per_lam"] = (counts["quad.nodes"] / max(counts["quad.lams"], 1), "count")
        metrics["waves.calls"] = (tracer.n_calls("waves.sample", "waves.value", "waves.gradient") / n, "count")
        metrics["czmath.bessel_calls"] = (
            tracer.n_calls("czmath.bessel_g", "czmath.bessel_j", "czmath.bessel_jp") / n, "count")
        on, off = _rate(traced), _rate(plain)
        metrics["trace.overhead"] = (off[0] / on[0], "ratio")
        detail["trace_overhead_base"] = {
            "traced": {"ops_per_s": on[0], "completed": on[1], "busy_s": on[2]},
            "untraced": {"ops_per_s": off[0], "completed": off[1], "busy_s": off[2]},
        }
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))

    detail["metrics"] = {k: v for k, (v, _) in metrics.items()}
    with open(os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(
        f"{args.workload} seed {args.seed}: {len(records)} ops, {failed} failed, {rnd} rounds, correct={correct}",
        file=sys.stderr,
    )
    for f in failures:
        if not f["expected"]:
            print(f"  problem in op {f['op']} ({f['kind']}): {f['error']}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
