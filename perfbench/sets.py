"""Sets of benchmark runs over seeds, summarised by quartiles.

    python3 perfbench/sets.py --out perfbench/baseline.json

Runs run.py with --trace 0 once per seed and workload, the workloads taking
turns within each seed, for --sets sets; then one --trace 1 run per workload
on the first seed.  Each metric of a set is reported with its values, its
quartiles as statistics.quantiles(n=4) gives them, and its spread,
(q3 - q1) / median.  --seconds defaults to BENCHMARK.json's run_seconds.
Run it from the repository root on an otherwise idle machine.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.splitlines()
    details = json.loads(lines[-2])["perfbench_details"]
    return json.loads(lines[-1]), details


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    runs = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    environment = None
    for k in range(args.sets):
        for seed in args.seeds:
            for w in args.workloads:
                result, details = run_once(w, seed, args.seconds, 0)
                environment = details["environment"]
                runs[w][k].append((result, details))
                print(f"set {k + 1} seed {seed} {w}: " + ", ".join(
                    f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)

    out = {"about": f"Figures at the commit that introduced the benchmark: {args.sets} sets of "
                    f"{len(args.seeds)} --trace 0 runs (seeds {args.seeds[0]}-{args.seeds[-1]}) "
                    "per workload, workloads taking turns within each seed; quartiles as "
                    "statistics.quantiles(n=4), spread = (q3 - q1) / median; one --trace 1 "
                    f"run (seed {args.seeds[0]}) per workload.  Made by perfbench/sets.py.",
           "run_seconds": args.seconds, "workloads": {}, "environment": environment}
    for w in args.workloads:
        sets = []
        failures = set()
        for k in range(args.sets):
            names = runs[w][k][0][0]["metrics"]
            sets.append({"seeds": args.seeds, "correct": all(r["correct"] for r, _ in runs[w][k]),
                         "metrics": {n: summarise([r["metrics"][n]["value"] for r, _ in runs[w][k]])
                                     for n in names}})
            failures.update(label for _, d in runs[w][k] for label in d["failures"])
        traced, _ = run_once(w, args.seeds[0], args.seconds, 1)
        out["workloads"][w] = {
            "sets": sets, "failures": sorted(failures),
            f"traced_seed_{args.seeds[0]}": {
                "correct": traced["correct"], "attempted": traced["attempted"],
                "failed": traced["failed"],
                "metrics": {n: m["value"] for n, m in traced["metrics"].items()}}}
        for k, s in enumerate(sets):
            print(f"{w} set {k + 1}: " + ", ".join(
                f"{n} {m['median']:.4g} ({m['spread']:.3f})" for n, m in s["metrics"].items()))
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
