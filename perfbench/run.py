"""freelab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload entropy --seed 1 --seconds 30 --trace 0

Run from the repository root.  freelab is imported from src/ in fresh
interpreters with the BLAS and OpenMP pools pinned to one thread.

--trace 0 prints the end-to-end metrics.  It starts the main process,
which times `import freelab` and the workload's first op cold, then runs
the closed loop; two more processes repeat the cold start, and set-up
time is the median of the three.  --trace 1 prints the per-layer metrics of a
run with spans installed.  The last line of standard output is the result;
the line before it holds the details (environment, tail percentile,
failures).  See perfbench/README.md.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("entropy", "duality", "conjugate", "cli")
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# cold starts per run, the main process's included; each costs an import
# and the workload's quadrature-grid builds, 3-6 s
SETUP_PROCESSES = 3
RUN_BUDGET_S = 170.0
# the tail is the latency with this many samples above it
TAIL_BEYOND = 10


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class WorkerError(RuntimeError):
    pass


def _run_worker(mode, args, workdir, deadline, index=0):
    result = workdir / f"result-{mode}-{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--root", str(ROOT),
           "--workdir", str(workdir / f"{mode}-{index}"), "--result", str(result)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_PINS)
    env.pop("FREELAB_THREADS", None)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} process passed the {RUN_BUDGET_S:g} s run budget") from None
    if proc.returncode != 0 or not result.is_file():
        raise WorkerError(f"{mode} process exited {proc.returncode}:\n{proc.stdout[-4000:]}")
    with open(result) as fh:
        return json.load(fh)


def _tail(latencies):
    """The highest percentile with TAIL_BEYOND samples above it.  With too
    few samples for that to lie above the median, the interpolated p90.
    Returns the value, its percentile, and how many samples lie above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n > 2 * TAIL_BEYOND + 1:
        value, pct = xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        pos = 0.9 * (n - 1)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        value, pct = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), 90.0
    return value, pct, sum(1 for x in xs if x > value)


def _environment():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "threads": dict(THREAD_PINS), "platform": platform.platform()}


def _summarize_records(records):
    failures = {}
    wrong = []
    for rec in records:
        if rec["failure"] is not None:
            failures.setdefault(rec["label"], rec["failure"])
        if rec["wrong"] is not None:
            wrong.append(f"{rec['label']}: {rec['wrong']}")
    return failures, wrong


def _end_to_end(main, setups):
    records = main["records"]
    latencies = [r["latency"] for r in records]
    ok = sum(1 for r in records if r["failure"] is None)
    warm = records[0]["latency"]  # the loop opens with the first op, warm
    samples = [p["t_import"] + p["cold"]["latency"] - warm for p in [main] + setups]
    errors = [e for r in [main["cold"]] + records for e in r["errors"]]
    tail, pct, beyond = _tail(latencies)
    metrics = {
        "setup_s": statistics.median(samples),
        "ops_per_s": ok / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "peak_rss_mb": main["peak_rss_mb"],
        "pass_frac": ok / len(records),
        "accuracy_digits": min((oracles.digits(e) for e in errors), default=oracles.MAX_DIGITS),
    }
    strata = {}
    for r in records:
        strata.setdefault(r["label"], []).append(r["latency"])
    details = {"setup_samples_s": samples, "tail_percentile": pct, "tail_beyond": beyond,
               "samples": len(latencies), "fail_frac": 1.0 - ok / len(records),
               "stratum_p50_s": {k: statistics.median(v) for k, v in strata.items()}}
    return metrics, details


def _units():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "freelab" / "__init__.py").is_file():
        print(f"perfbench: no freelab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    # a terminated benchmark kills and reaps its worker on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    e2e_units, layer_units = _units()
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            main_run = _run_worker("traced", args, workdir, deadline)
            setups = []
        else:
            main_run = _run_worker("main", args, workdir, deadline)
            setups = [_run_worker("setup", args, workdir, deadline, i)
                      for i in range(1, SETUP_PROCESSES)]
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (HERE / "_work").rmdir()
        except OSError:
            pass

    records = main_run["records"]
    failures, wrong = _summarize_records([main_run["cold"]] + records
                                         + [s["cold"] for s in setups])
    checks = main_run["checks"]
    if args.trace:
        values, details = main_run["layers"], {}
        units = layer_units
    else:
        values, details = _end_to_end(main_run, setups)
        units = e2e_units
    details.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "environment": _environment(),
                    "failures": failures, "wrong": wrong, "self_checks": checks})
    print(json.dumps({"perfbench_details": details}))
    result = {
        "correct": not wrong and not checks,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failure"] is not None),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
