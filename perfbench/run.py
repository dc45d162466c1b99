"""condgof benchmark: one workload, timed from outside the package.

Run from the repository root:

    python3 perfbench/run.py --workload mc_wald_large --seed 1 --seconds 20 --trace 0

The workload runs in this process, on one thread. It makes its inputs from
--seed, then repeats whole calls into condgof until the calls have taken
--seconds in total, and checks every output. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the calls run
under span tracing (spans.py) and the metrics are per layer.
"""

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SETUP_SAMPLES = 7
WORKLOADS = ("mc_wald_large", "mc_min_chisq", "cli_test_csv")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_seconds(module: str, env: dict, count: int) -> list[float]:
    """Time `import <module>` in `count` fresh interpreters."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        samples.append(float(proc.stdout))
    return samples


def tail_line(durations: list[float]) -> str:
    """Median, plus the highest percentile with at least ten calls beyond it."""
    n = len(durations)
    line = f"{n} timed calls, median {statistics.median(durations) * 1e3:.1f} ms"
    if n < 11:
        return line
    q = 100 * (n - 10) // n
    return line + f", p{q} {sorted(durations)[n - 11] * 1e3:.1f} ms (10 calls beyond it)"


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path("src").resolve()
    if not (src / "condgof" / "__init__.py").is_file():
        print(f"perfbench: no condgof sources in {src}; run from the repository root",
              file=sys.stderr)
        return 2
    bench = json.loads(Path("BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    env = dict(os.environ, PYTHONPATH=str(src))

    start = perf_counter()
    import condgof
    own_import_s = perf_counter() - start
    if Path(condgof.__file__).resolve().parent != src / "condgof":
        print(f"perfbench: imported condgof from {condgof.__file__}, not {src}", file=sys.stderr)
        return 2

    import spans
    import workloads

    workdir = Path("perfbench", "out", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.make(args.workload, args.seed, workdir, env, traced=bool(args.trace))

    setup = []
    if not args.trace:
        if wl.setup_module == "condgof":
            setup.append(own_import_s)
        setup += import_seconds(wl.setup_module, env, SETUP_SAMPLES - len(setup))

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()

    durations, problems = [], []
    attempted = failed = 0
    first = None
    i = 0
    while sum(durations) < args.seconds or i < wl.min_calls:
        inp = wl.prepare(i)
        if tracer:
            tracer.call = i
        t0 = perf_counter()
        try:
            out = wl.call(inp)
        except Exception as exc:  # a call that raises is a failed operation
            out = None
            print(f"call {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        durations.append(perf_counter() - t0)
        if tracer:
            tracer.call = None
        attempted += wl.ops_per_call
        if out is None:
            failed += wl.ops_per_call
        else:
            try:
                wl.check(i, inp, out)
                failed += wl.failed_ops(out)
                if i == 0:
                    first = (inp, out)
            except Exception as exc:  # a missing field or a raise is a failed check too
                failed += wl.ops_per_call
                problems.append(f"call {i}: {type(exc).__name__}: {exc}")
        i += 1
    # read before the checks below load scipy into this process
    rss_kb = wl.peak_rss_kb()

    if first is None:
        problems.append("call 0 failed, so it could not be re-run")
    else:
        try:
            wl.finish(*first)
        except Exception as exc:
            failed += wl.ops_per_call - wl.failed_ops(first[1])
            problems.append(f"re-run of call 0: {type(exc).__name__}: {exc}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    timed = sum(durations)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.trace:
        count_calls = wl.min_calls
        layer_metrics = [m["name"] for m in bench["per_layer"] if not m["name"].startswith("trace.")]
        metrics = tracer.summarize(layer_metrics, attempted, count_calls,
                                   count_calls * wl.ops_per_call)
        metrics["trace.wall_ms_per_op"] = timed * 1e3 / attempted
        tracer.write(Path("perfbench", "out", f"spans-{args.workload}.tsv"))
    else:
        metrics = {
            "ops_per_s": (attempted - failed) / timed,
            "call_p50_ms": statistics.median(durations) * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_kb / 1024,
        }
        print(tail_line(durations), file=sys.stderr)
        print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}", file=sys.stderr)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
