"""One workload process; run.py starts it in a fresh interpreter.

Modes:
  setup   import freelab and run the workload's first op cold.
  main    the same, then the timed closed loop for --seconds, round by
          round; the loop opens with the first op again, now warm.
  traced  the first op cold and the loop with spans installed, each loop
          op followed by the same op without them.

The result is written as JSON to --result.  Only the standard library is
imported before `import freelab` is timed.
"""

import argparse
import json
import os
import resource
import sys
import time

# Stop the loop mid-round once it runs this far past --seconds.
HARD_EXTRA_S = 60.0


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "main", "traced"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    return p.parse_args(argv)


def execute(op, workdir, tracer=None):
    """Run one op, timing only op.run; returns a JSON-ready record."""
    from workloads import Checker

    if op.prepare is not None:
        op.prepare(workdir)
    start = time.perf_counter()
    error = None
    try:
        if tracer is None:
            result = op.run(workdir)
        else:
            result = tracer.span("bench.op", op.run, workdir)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = exc
    latency = time.perf_counter() - start
    chk = Checker()
    if error is not None:
        chk.fail(f"raised {type(error).__name__}: {error}")
    else:
        try:
            op.check(result, chk, workdir)
        except Exception as exc:  # unreadable output: wrong, not a crash
            chk.wrong_output(f"output check raised {type(exc).__name__}: {exc}")
    return {"label": op.label, "latency": latency, "failure": chk.failure,
            "wrong": chk.wrong, "errors": chk.errors, "fingerprint": chk.fingerprint}


def run_loop(workload, seconds, step):
    """Whole rounds, as many as end the loop nearest to `seconds` (at least
    one); `step(op)` runs one op."""
    start = time.perf_counter()
    i = 0
    while True:
        for op in workload.round(i):
            step(op)
            if time.perf_counter() - start > seconds + HARD_EXTRA_S:
                return
        i += 1
        elapsed = time.perf_counter() - start
        # another round of the mean length would end farther from `seconds`
        if elapsed + 0.5 * elapsed / i >= seconds:
            return


def main(argv=None):
    args = _parse(argv)
    started = time.perf_counter()
    import freelab  # noqa: F401  (timed: this is the user's cold start)
    import freelab.cli  # noqa: F401
    t_import = time.perf_counter() - started

    import tracing
    from workloads import SUITE_THREADS, Workload

    if args.workload == "cli":
        os.environ["FREELAB_THREADS"] = SUITE_THREADS
    workload = Workload(args.workload, args.seed, args.root)
    first = workload.round(0)[0]
    os.makedirs(args.workdir, exist_ok=True)
    if args.mode != "traced":
        out = {"t_import": t_import, "cold": execute(first, args.workdir)}
        if args.mode == "main":
            records = []
            run_loop(workload, args.seconds,
                     lambda op: records.append(execute(op, args.workdir)))
            out["records"] = records
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            out["checks"] = (["the untraced run found span wrappers installed"]
                             if tracing.installed_wrappers() else [])
    else:
        out = _traced(workload, first, args)
    for rec in [out["cold"]] + out.get("records", []):
        rec.pop("fingerprint")
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


def _traced(workload, first, args):
    """The first op cold with spans, then each loop op twice in a row, with
    spans and without them (in a second work directory).  The pairs give
    the tracing overhead and the same-outputs check; the spans give the
    layer metrics."""
    import freelab._grids as grids
    import tracing
    from workloads import SUITE_THREADS

    tracer = tracing.Tracer()
    plain_dir = os.path.join(args.workdir, "untraced")
    os.makedirs(plain_dir)
    ops, records, plain = [], [], []

    def traced(op, workdir):
        tracer.install()
        try:
            return execute(op, workdir, tracer)
        finally:
            tracer.uninstall()

    def pair(op):
        # alternate which run goes first, so neither gains from the other
        # having warmed memory and caches
        ops.append(op)
        if len(ops) % 2:
            records.append(traced(op, args.workdir))
            plain.append(execute(op, plain_dir))
        else:
            plain.append(execute(op, plain_dir))
            records.append(traced(op, args.workdir))

    cold = traced(first, args.workdir)
    run_loop(workload, args.seconds, pair)
    checks = ["span wrappers survived uninstall"] if tracing.installed_wrappers() else []
    for a, b in zip(records, plain):
        if a["fingerprint"] != b["fingerprint"]:
            checks.append(f"{a['label']}: traced and untraced outputs differ")
    if workload.name == "cli":
        # the suite's bytes must not depend on the worker count
        op, rec = next((o, r) for o, r in zip(ops, records) if o.label == "cli/verify-suite")
        single_dir = os.path.join(args.workdir, "threads1")
        os.makedirs(single_dir)
        os.environ["FREELAB_THREADS"] = "1"
        single = execute(op, single_dir)
        os.environ["FREELAB_THREADS"] = SUITE_THREADS
        if single["fingerprint"] != rec["fingerprint"]:
            checks.append("verify-suite bytes differ between FREELAB_THREADS=1 and 2")
    metrics = tracing.layer_metrics(tracer.spans, grids.gauss_legendre_01.cache_info().misses,
                                    int(os.environ.get("FREELAB_THREADS", "1")))
    # ops_per_s untraced / ops_per_s traced - 1, over the same ops
    metrics["bench.trace_overhead_frac"] = (sum(r["latency"] for r in records)
                                            / sum(r["latency"] for r in plain) - 1.0)
    return {"cold": cold, "records": records, "layers": metrics, "checks": checks}


if __name__ == "__main__":
    sys.exit(main())
