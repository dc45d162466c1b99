"""Check that the benchmark repeats: two sets of runs must agree within its bounds.

Run from the repository root:

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json it makes two sets of 10 untraced runs,
each run with its own seed (seeds 1..10, then 11..20), all of run_seconds.
For each end-to-end metric it reports each set's median and spread (distance
between the first and third quartile over the median) and how far the second
median is worse than the first. A metric passes when its spread is within its
bound (setup_s is exempt) and the second median is not worse by more than the
bound; the share of failed operations must be the same in both sets. Then two
traced runs per workload, both with seed 1, must give identical calls_per_op
counts; their wall time per operation against the untraced one is the
tracing overhead.

Exit status 0 when everything passes. Results also go to
perfbench/out/selfcheck.json.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = json.loads(Path("BENCHMARK.json").read_text())
SETS, RUNS, TRACED = 2, 10, 2


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)} reported incorrect output:\n{proc.stderr}")
    result["wall_s"] = wall
    return result


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    names = [w["name"] for w in BENCH["workloads"]]
    results = {w: [[] for _ in range(SETS)] for w in names}
    for s in range(SETS):
        for r in range(RUNS):
            for w in names:
                res = run(w, s * RUNS + r + 1, 0)
                results[w][s].append(res)
                print(f"set {s + 1} run {r + 1} {w} ({res['wall_s']:.0f} s): "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                      flush=True)

    ok = True
    report = {}
    print(f"\n{'workload':15} {'metric':12} {'median1':>10} {'spread1':>8} "
          f"{'median2':>10} {'spread2':>8} {'worse':>7} {'bound':>6}  verdict")
    for w in names:
        report[w] = {}
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in results[w]}
        if len(shares) > 1:
            ok = False
            print(f"{w}: failed share differs between sets: {sorted(shares)}")
        for m in BENCH["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in results[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (medians[1] - medians[0]) / medians[0]
            passed = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok &= passed
            report[w][name] = {"medians": medians, "spreads": spreads, "worse": worse,
                               "bound": bound, "passed": passed}
            print(f"{w:15} {name:12} {medians[0]:10.4g} {spreads[0]:8.3f} "
                  f"{medians[1]:10.4g} {spreads[1]:8.3f} {worse:7.3f} {bound:6.2f}  "
                  f"{'ok' if passed else 'FAIL'}")

    for w in names:
        traced = [run(w, 1, 1)["metrics"] for _ in range(TRACED)]
        counts = [{k: v["value"] for k, v in t.items() if k.endswith("calls_per_op")} for t in traced]
        repeat = all(c == counts[0] for c in counts)
        ok &= repeat
        untraced_ms = 1e3 / statistics.median(r["metrics"]["ops_per_s"]["value"] for r in results[w][0])
        traced_ms = statistics.median(t["trace.wall_ms_per_op"]["value"] for t in traced)
        report[w]["trace"] = {"counts_repeat": repeat, "metrics": traced[0],
                              "traced_ms_per_op": traced_ms, "untraced_ms_per_op": untraced_ms}
        print(f"{w}: calls_per_op {'repeat' if repeat else 'DIFFER'} over {TRACED} traced runs; "
              f"traced {traced_ms:.1f} ms/op vs untraced {untraced_ms:.1f} ms/op "
              f"({traced_ms / untraced_ms - 1:+.1%})")

    out = Path("perfbench", "out")
    out.mkdir(parents=True, exist_ok=True)
    (out / "selfcheck.json").write_text(json.dumps(report, indent=2) + "\n")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
