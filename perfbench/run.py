"""adaptnet benchmark: three workloads, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py --workload compare_bench20 --seed 20 --seconds 45 --trace 0

Run from the root of a source checkout; adaptnet is imported from ``src/``.
Every process this script starts has the BLAS thread count pinned to 1, so
``workers = 2`` uses the two threads it asks for and no more.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of several
fresh processes that import adaptnet and build the inputs), ``run_s`` (median
wall time of one timed call, tracing off), ``peak_rss_mb`` (peak resident
memory of the process that ran the calls) and ``check_pass_ratio`` (checks
passed / attempted).  ``--trace 1`` prints the per-layer metrics instead,
plus ``trace.overhead_s``, the traced minus the untraced median call time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the environment record.  Both, with the raw samples, also go to
``.perfbench_out/result_<workload>_seed<seed>_trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# workload -> (default seed, held-out seed).  The held-out seed is for
# re-checking a claim on a seed that was not used while making it.
WORKLOADS = {"compare_bench20": (20, 21), "diverge_2node": (1, 2),
             "theory_smallstep": (20, 21)}
SETUP_SAMPLES = 7
# every run must end within this many seconds
RUN_LIMIT_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _child(args, extra, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--workdir", str(OUT), *extra]
    env = {**os.environ, **BLAS_ENV}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the closed loop of calls runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = WORKLOADS[args.workload][0]

    if not (ROOT / "src" / "adaptnet" / "__init__.py").is_file():
        print(f"perfbench: no adaptnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)

    setup = []
    if not args.trace:
        # the first process compiles the bytecode caches; it is not a sample
        _child(args, ["--setup-only"], deadline)
        setup = [_child(args, ["--setup-only"], deadline)["setup_s"]
                 for _ in range(SETUP_SAMPLES)]
    run = _child(args, [], deadline)

    attempted, failed = run["attempted"], len(run["failed"])
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, unit, value in _layer_rows(run)}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": statistics.median(run["calls"]), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            "check_pass_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    env = {**run["env"], "git_commit": _git_commit(), "workload": args.workload,
           "seed": args.seed, "trials": run["trials"], "size": args.size,
           "seconds": args.seconds, "trace": args.trace}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"environment": env, "result": result, "setup_samples": setup,
              "calls": run["calls"], "traced_calls": run.get("traced_calls", []),
              "failed_checks": run["failed"], "outputs": run["outputs"],
              "check_fail_ratio": failed / attempted,
              "spans_file": run.get("spans_file")}
    path = OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name in run["failed"]:
        print(f"perfbench: check failed: {name}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


def _layer_rows(run):
    for name, unit in LAYER_METRICS.items():
        yield name, unit, run["layers"][name]
    overhead = statistics.median(run["traced_calls"]) - statistics.median(run["calls"])
    yield "trace.overhead_s", "s", overhead


if __name__ == "__main__":
    sys.exit(main())
