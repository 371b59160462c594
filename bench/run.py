"""Benchmark of the ptdimer package: one command, three workloads, a traced mode.

    python3 bench/run.py --workload {figures,verify,long-reach} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout and imports ``ptdimer`` from its
``src`` directory; it fails (exit 1, no result) when that is missing.  The
run repeats whole passes of the workload until ``--seconds`` would be
exceeded (figures at least twice, for the byte-identity check).  With
``--trace 1`` every pass runs twice, untraced then traced, on the same
inputs, so the difference of their CPU times is the tracing overhead.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json
with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``).  The line
before it is a report with provenance, sample counts and gate problems.
See bench/README.md for what each metric means and what should move it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_REPEATS = 3
# One client and 2x2 matrices: extra BLAS/OpenMP threads only add scheduler noise.
THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}


def load_ptdimer() -> None:
    """Import ptdimer from this checkout's ``src``, never from anywhere else."""
    os.environ.update(THREADS)
    sys.path.insert(0, str(SRC))
    import ptdimer

    if not Path(ptdimer.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ptdimer imported from {ptdimer.__file__}, not from {SRC}")


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup() -> list[float]:
    """CPU seconds a fresh interpreter takes to ``import ptdimer``, several times."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREADS)
    times = []
    for _ in range(SETUP_REPEATS):
        start = _children_cpu()
        subprocess.run([sys.executable, "-c", "import ptdimer"], env=env, cwd=ROOT, check=True)
        times.append(_children_cpu() - start)
    return times


def provenance() -> dict[str, object]:
    import numpy
    import scipy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        rev = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ptdimer").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": THREADS,
    }


def run_passes(workload, seconds: float, trace: bool, work: Path):
    """Untraced (and, with ``trace``, traced) passes until the time budget is spent."""
    from tracing import Tracer, install_hooks

    tracer = Tracer() if trace else None
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        index = len(untraced)
        untraced.append(workload.run_pass(index, work / f"pass{index}", None))
        if tracer is not None:
            install_hooks(tracer)
            try:
                traced.append(workload.run_pass(index, work / f"pass{index}-traced", tracer))
            finally:
                tracer.restore()
        elapsed = time.perf_counter() - start
        done = len(untraced) + len(traced)
        if done >= workload.min_passes and elapsed * (len(untraced) + 1) / len(untraced) > seconds:
            return untraced, traced, tracer


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the order statistics.

    The calls of one run are few and unlike each other, so a single order
    statistic jumps between neighbouring calls from run to run; the weighted
    mean does not.
    """
    import numpy as np
    from scipy.special import betainc

    n = len(values)
    edges = betainc((n + 1) * q, (n + 1) * (1.0 - q), np.arange(n + 1) / n)
    return float(np.diff(edges) @ np.sort(values))


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it (the maximum below 11 samples)."""
    n = len(values)
    if n <= 10:
        return max(values), 1.0
    return quantile(values, (n - 10) / n), (n - 10) / n


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end_metrics(untraced, setup: list[float]) -> tuple[dict[str, float], dict[str, object]]:
    outcomes = [o for p in untraced for o in p.outcomes]
    # Every call counts, a failed one with the time it took to fail.
    latencies = [o.cpu for o in outcomes]
    passes = [p.cpu for p in untraced]
    tail_value, tail_rank = tail(latencies)
    values = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(passes),
        "points_per_s": sum(o.points for o in outcomes if o.ok) / sum(passes),
        "call_p50_s": quantile(latencies, 0.5),
        "call_tail_s": tail_value,
        "ok_share": sum(o.ok for o in outcomes) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_s": len(setup),
        "pass_s": len(passes),
        "points_per_s": len(passes),
        "call_p50_s": len(latencies),
        "call_tail_s": len(latencies),
        "call_tail_percentile": 100.0 * tail_rank,
        "ok_share": len(outcomes),
        "peak_rss_mb": 1,
    }
    return values, samples


def layer_metrics(tracer, untraced, traced) -> dict[str, float]:
    spans = tracer.spans
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    children: dict[int, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    for span in spans:
        total[span.name] += span.seconds
        calls[span.name] += 1
        if span.parent is not None:
            children[span.parent] += span.seconds
    for index, span in enumerate(spans):
        own[span.name] += span.seconds - children[index]
    curves = {
        i for i, s in enumerate(spans) if s.name == "observables.sample_curve" and s.ok
    }
    points = sum(spans[i].data["points"] for i in curves)
    moment_calls = sum(
        1 for s in spans if s.name == "observables.vacuum_moments" and s.parent in curves
    )
    entries = sum(spans[i].data["entries"] for i in curves)
    outcomes = [o for p in traced for o in p.outcomes]
    margins = [o.margin for o in outcomes if o.margin == o.margin]
    n = len(traced)
    cpu = sum(p.cpu for p in traced)
    untraced_cpu = statistics.median(p.cpu for p in untraced)
    overhead = statistics.median(p.cpu for p in traced) - untraced_cpu
    counts = tracer.counts
    errors = {
        key.rsplit(".", 1)[1]: value
        for key, value in counts.items()
        if key.startswith("observables.sample_curve.errors.")
    }
    known = ("QuadratureError", "OverflowError")
    return {
        "observables.vacuum_moments.calls_per_point": _ratio(moment_calls, points),
        "observables.vacuum_moments.time_s": total["observables.vacuum_moments"] / n,
        "observables.vacuum_moments.ms_per_call": 1e3
        * _ratio(total["observables.vacuum_moments"], calls["observables.vacuum_moments"]),
        "observables.vacuum_moments.share": total["observables.vacuum_moments"] / cpu,
        "core.propagator_entries.calls_per_point": _ratio(entries, points),
        "observables.sample_curve.self_s": own["observables.sample_curve"] / n,
        "observables.defined_share": _ratio(
            sum(o.defined for o in outcomes), sum(o.cells for o in outcomes)
        ),
        "observables.errors.QuadratureError": errors.get("QuadratureError", 0) / n,
        "observables.errors.OverflowError": errors.get("OverflowError", 0) / n,
        "observables.errors.other": sum(v for k, v in errors.items() if k not in known) / n,
        "moments.integrate_moments_path.calls": calls["moments.integrate_moments_path"] / n,
        "moments.integrate_moments_path.time_s": total["moments.integrate_moments_path"] / n,
        "moments.integrate_moments_path.share": total["moments.integrate_moments_path"] / cpu,
        "moments.rk4_steps": counts["moments.rk4_steps"] / n,
        "moments.us_per_step": 1e6
        * _ratio(total["moments.integrate_moments_path"], counts["moments.rk4_steps"]),
        "verification.run_verification.self_s": own["verification.run_verification"] / n,
        "verification.worst_margin": max(margins, default=0.0),
        "cli.write_curve_csv.time_s": total["cli.write_curve_csv"] / n,
        "cli.bytes_written": counts["cli.bytes_written"] / n,
        "cli.main.self_s": own["cli.main"] / n,
        "configurations.effective_params.time_s": total["configurations.effective_params"] / n,
        "cli.exit_1": counts["cli.exit_1"] / n,
        "cli.exit_2": counts["cli.exit_2"] / n,
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / untraced_cpu,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ptdimer benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--tiny", action="store_true", help="small inputs, for the benchmark's self-tests"
    )
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    try:
        load_ptdimer()
    except ImportError as exc:
        print(f"error: cannot import ptdimer from {SRC}: {exc}", file=sys.stderr)
        return 1
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    setup = [] if args.trace else measure_setup()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as tmp:
        untraced, traced, tracer = run_passes(workload, args.seconds, bool(args.trace), Path(tmp))

    outcomes = [o for p in untraced + traced for o in p.outcomes]
    problems = [text for o in outcomes for text in o.problems]
    report: dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_wall_s": [p.wall for p in untraced + traced],
        "pass_cpu_s": [p.cpu for p in untraced + traced],
        "failed_share": sum(not o.ok for o in outcomes) / len(outcomes),
        "runtime_errors": Counter(o.runtime_error for o in outcomes if o.runtime_error),
        "problems": problems[:20],
        "provenance": provenance(),
    }
    if args.trace:
        values = layer_metrics(tracer, untraced, traced)
        report["absent_hooks"] = sorted(tracer.absent)
    else:
        values, report["samples"] = end_to_end_metrics(untraced, setup)
        margins = [o.margin for o in outcomes if o.margin == o.margin]
        if margins:
            report["verify_worst_margin"] = max(margins)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(outcomes),
                "failed": sum(bool(o.problems) for o in outcomes),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
