"""sspforge benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload blowup-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The workload's case list is drawn from the seed.  A pass runs every case
once, one at a time (closed loop, one client), against cold caches; the
run repeats whole passes while the next one is expected to end within
``--seconds``, and always runs at least one.  Throughput and latency
percentiles are taken per pass and reported as their median over the
passes.  Every verdict is checked against its known answer and every pass
must give the same verdict digest.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, writes the
spans and a self-time table under perfbench/out/, and checks that the
traced digest equals the untraced one.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Pass size per workload, in the workload's own unit (sources per edge, or
# multiples of the RR instance quotas).  Each pass holds at least 200
# cases, so at least ten lie beyond p95.
SIZES = {"blowup-corpus": 10, "artifact-roundtrip": 60, "rr-pipeline": 4}
SETUPS = 5  # fresh-process set-ups per run; setup_s is their median
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(SIZES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", type=int, help="pass size (default: the workload's)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.size is None:
        args.size = SIZES[args.workload]
    return args


def setup(args):
    """Import the package and its CLI, then draw the inputs.

    Returns (seconds, generation seconds, cases, skipped draws).  The first
    call in a process pays the imports."""
    t0 = time.perf_counter()
    import sspforge.cli  # noqa: F401  (part of what a user's process loads)
    import workloads

    t1 = time.perf_counter()
    cases, skipped = workloads.make_cases(args.workload, args.seed, args.size)
    # generation itself enumerates solutions; start the passes cold
    workloads.problems.clear_caches()
    t2 = time.perf_counter()
    return t2 - t0, t2 - t1, cases, skipped


def probe_setups(args, n):
    """Set-up times of ``n`` fresh processes."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--size", str(args.size),
    ]
    return [
        float(subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=SETUP_TIMEOUT_S).stdout)
        for _ in range(n)
    ]


def one_pass(workloads, api, run_case, cases):
    t0 = time.perf_counter()
    latencies, failed, digest = workloads.run_pass(api, run_case, cases, time.perf_counter)
    return time.perf_counter() - t0, latencies, failed, digest


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, -(-len(s) * q // 100) - 1)]


def untraced_run(args, workloads, cases):
    api = workloads.make_api()
    run_case = workloads.case_runner(args.workload)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(workloads, api, run_case, cases))
        if time.perf_counter() - start + passes[-1][0] > args.seconds:
            return passes


def traced_run(args, workloads, cases):
    """Alternate untraced and traced passes; returns both lists and the
    tracer holding the traced passes' spans."""
    import tracing

    api = workloads.make_api()
    run_case = workloads.case_runner(args.workload)
    tracer = tracing.Tracer()
    traced_case = tracer.wrap_case(run_case)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(one_pass(workloads, api, run_case, cases))
        traced_api = tracer.install(api)
        try:
            traced.append(one_pass(workloads, traced_api, traced_case, cases))
        finally:
            tracer.uninstall()
        tracer.end_pass()
        if time.perf_counter() - start + plain[-1][0] + traced[-1][0] > args.seconds:
            return plain, traced, tracer


def write_trace(args, tracer, plain_wall):
    """Write the first traced pass's spans and the self-time table under
    OUT; return the table's lines."""
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}"
    tracer.write(f"{stem}-spans.json")
    rows = tracer.table()
    case_s = next(total for name, _, total, _ in rows if name == "case")
    lines = [f"{'span':<22}{'calls/pass':>12}{'total s/pass':>14}{'self s/pass':>13}{'self share':>12}"]
    for name, calls, total, self_s in rows:
        lines.append(f"{name:<22}{calls:>12.1f}{total:>14.6f}{self_s:>13.6f}{self_s / case_s:>12.1%}")
    lines.append(f"untraced pass wall {plain_wall:.6f} s; traced case time {case_s:.6f} s per pass")
    Path(f"{stem}-layers.txt").write_text("\n".join(lines) + "\n")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sspforge" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/sspforge", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_s, gen_s, cases, skipped = setup(args)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    import workloads

    if args.trace:
        plain, traced, tracer = traced_run(args, workloads, cases)
        passes = plain + traced
    else:
        passes = untraced_run(args, workloads, cases)
    digests = {p[3] for p in passes}
    attempted = sum(len(p[1]) for p in passes)
    failed = sum(p[2] for p in passes)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "cases_per_pass": len(cases),
        "passes": len(passes),
        "samples": attempted,
        "skipped_draws": skipped,
        "fail_share": failed / attempted,
        "verdict_digest": " ".join(sorted(digests)),
    }
    if args.trace:
        plain_wall = statistics.median(p[0] for p in plain)
        overhead = statistics.median(p[0] for p in traced) - plain_wall
        info["traced_digest_equals_untraced"] = {p[3] for p in plain} == {p[3] for p in traced}
        for line in write_trace(args, tracer, plain_wall):
            print(line)
        metrics = tracer.layer_metrics(gen_s, overhead)
    else:
        setups = [setup_s] + probe_setups(args, SETUPS - 1)
        info["setup_samples_s"] = setups
        # printed but not gated: on a shared host both percentiles swing by
        # more than the largest bound allowed (they sit where the case-time
        # distribution is steep, so host load reorders the cases around them)
        for q in (50, 95):
            value = statistics.median(percentile(p[1], q) for p in passes) * 1e3
            info[f"verdict_p{q}_ms"] = f"{value!r} ms"
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cases_per_s": {
                "value": statistics.median(len(p[1]) / p[0] for p in passes),
                "unit": "1/s",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    for key, value in info.items():
        print(f"{key}: {value}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']!r} {m['unit']}")
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
