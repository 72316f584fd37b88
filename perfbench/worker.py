"""Runs one workload in this process and prints its figures as one JSON line.

Started by ``run.py`` with the BLAS thread count pinned in the environment.
``--setup-only`` times the set-up (import adaptnet from ``src/`` and build
the inputs) and exits.  Otherwise the workload's call repeats in a closed
loop for ``--seconds``: a call starts only if a call of the median length so
far would end in time, and the first call always runs.  With ``--trace 1``
untraced calls alternate with traced units (inputs rebuilt, then the call),
and the per-layer figures are the medians over the traced units.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _blas_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _timed_call(workload, inputs):
    start = time.perf_counter()
    try:
        answer = workload.call(inputs)
    except Exception as exc:  # checked below: a failed call fails all its checks
        answer = exc
    return time.perf_counter() - start, answer


def _fits(samples, deadline):
    """Whether one more call, as long as the median so far, ends by the deadline."""
    return time.perf_counter() + statistics.median(samples) <= deadline


def _check(workload, inputs, answer, checks):
    if isinstance(answer, Exception):
        checks.fail_all(workload.check_names, f"{type(answer).__name__}: {answer}")
    else:
        workload.check(inputs, answer, checks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import adaptnet
    if not Path(adaptnet.__file__).resolve().is_relative_to(SRC):
        print(f"worker: adaptnet imported from {adaptnet.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, args.size, args.workdir)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy as np
    import tracing

    checks = workloads.Checks()
    calls, traced_calls, layers = [], [], []
    last = None
    tracer = tracing.Tracer() if args.trace else None
    spans_path = os.path.join(args.workdir, f"spans_{args.workload}_seed{args.seed}.tsv")
    deadline = time.perf_counter() + args.seconds
    with open(spans_path, "w", encoding="utf-8") if tracer else nullcontext() as spans_out:
        if tracer:
            spans_out.write("name\tstart\tend\tid\tparent\tthread\tunit\tattrs\n")
        while True:
            elapsed, answer = _timed_call(workload, inputs)
            calls.append(elapsed)
            _check(workload, inputs, answer, checks)
            if not isinstance(answer, Exception):
                last = (inputs, answer)
            if tracer and (not traced_calls or _fits(traced_calls, deadline)):
                tracer.unit = len(traced_calls)
                with tracer:
                    unit_inputs = workload.setup(args.seed, args.size, args.workdir)
                    elapsed, answer = _timed_call(workload, unit_inputs)
                traced_calls.append(elapsed)
                _check(workload, unit_inputs, answer, checks)
                layers.append(tracing.layer_metrics(tracer.spans))
                tracer.flush(spans_out)
            if not _fits(calls, deadline):
                break

    result = {
        "setup_s": setup_s,
        "calls": calls,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trials": inputs["trials"],
        "outputs": workload.outputs(*last) if last is not None else {},
        "env": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas_info(np),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if tracer:
        result["traced_calls"] = traced_calls
        result["layers"] = {name: statistics.median(unit[name] for unit in layers)
                            for name in tracing.LAYER_METRICS}
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
