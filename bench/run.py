"""Run one benchmark workload and print its result.

    python3 bench/run.py --workload deit-block-b8 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the benchmark imports potvit from
./src and exits with status 2 when it is missing. With --trace 0 the last
stdout line holds the end-to-end metrics of an untraced run. With --trace 1
the workload runs twice, untraced and then traced, and the last line holds
the per-layer metrics, including the tracing overhead between the two. The
line before it, and bench/results/, hold the full record: environment, code
and cycle digest, sample counts and any failed checks.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"


def _limit_threads() -> None:
    """At most one BLAS thread per usable core, and mpsearch's scoring pool
    off (its default); must run before numpy loads. The tracer keeps one span
    stack, so a pool would misattribute spans, and a setting inherited from
    the caller's environment would make runs incomparable."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    os.environ["POTVIT_THREADS"] = "1"


def _blas_threads(np) -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "potvit_threads": os.environ.get("POTVIT_THREADS"),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a name from workloads.WORKLOADS")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "potvit" / "__init__.py").is_file():
        print(f"bench: potvit sources not found under {SRC}", file=sys.stderr)
        return 2
    _limit_threads()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import potvit

    if not Path(potvit.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported potvit from {potvit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    from tracing import Tracer
    from workloads import END_TO_END, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        base = workload(args.seed, args.seconds, None, work)
        runs = [base]
        if args.trace:
            tracer = Tracer()
            tracer.install(layers.targets())
            try:
                traced = workload(args.seed, args.seconds, tracer, work)
            finally:
                tracer.uninstall()
            runs.append(traced)
            overhead = 100.0 * (traced.metrics[base.primary] / base.metrics[base.primary] - 1.0)
            values = layers.per_layer_values(tracer, base, overhead)
            units = layers.PER_LAYER
            tracer.write(RESULTS / f"{args.workload}-seed{args.seed}.spans.npz")
        else:
            values, units = base.metrics, END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "digest": base.digest.hexdigest(),
        "cycles": base.cycles,
        "ratios": base.ratios,
        "paper_ratios": layers.PAPER_RATIOS,
        "int_calls_timed": len(base.latencies_ms),
        "end_to_end": base.metrics,
        "failures": [f for r in runs for f in r.failures],
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
