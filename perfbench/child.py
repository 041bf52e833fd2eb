"""One cold run of one workload, in a fresh interpreter.

run.py starts this script once per repetition, so lru_caches start empty
and the peak RSS belongs to this workload alone.  It imports revext from
the ``src/`` directory next to this benchmark, builds the workload's
inputs, times each operation, then runs the oracle checks outside the
timed region and writes one JSON result to ``--result``.

Each stretch of timed calls is measured in CPU seconds of this process
and rescaled to the reference host speed with the probe in speed.py
(``ref_s``).  The raw CPU and wall seconds go into the run header only.
The timed calls run on one thread (BLAS is pinned to one), so raw CPU and
wall time agree on an idle machine.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import PROBE_EVERY_S, REF_PROBE_S, speed_probe

ROOT = Path(__file__).resolve().parent.parent


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        # numpy's bundled OpenBLAS, or a system one
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() just before this process started")
    p.add_argument("--traced", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import revext
    if not Path(revext.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"revext imported from {revext.__file__}, "
                         f"not from {ROOT / 'src'}")
    import workloads

    out = Path(args.out)
    size = workloads.SIZES[args.size]
    ops = workloads.WORKLOADS[args.workload](args.seed, size, out)
    setup_cpu_s = time.process_time()   # since this process started
    setup_wall_s = time.monotonic() - args.t0
    probes = [speed_probe()]

    tracer = None
    if args.traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    ref_s = cpu_s = wall_s = stretch_s = 0.0
    outcomes = []
    for i, op in enumerate(ops):
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            result, error = op.call(), None
        except Exception:  # an operation failure is counted, not fatal
            result, error = None, traceback.format_exc()
        stretch_s += time.process_time() - cpu_start
        wall_s += time.perf_counter() - start
        outcomes.append((op, result, error))
        if stretch_s >= PROBE_EVERY_S or i == len(ops) - 1:
            probes.append(speed_probe())
            ref_s += stretch_s * REF_PROBE_S / ((probes[-2] + probes[-1]) / 2)
            cpu_s += stretch_s
            stretch_s = 0.0
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    artifacts = workloads.output_bytes(out)

    failures = []
    accuracy = []
    for op, result, error in outcomes:
        if error is not None:
            failures.append(f"{op.name}: raised\n{error}")
            continue
        try:
            checks = op.check(result)
        except Exception:
            failures.append(f"{op.name}: check raised\n"
                            f"{traceback.format_exc()}")
            continue
        bad = [label for label, ok, _ in checks if not ok]
        if bad:
            failures.append(f"{op.name}: " + "; ".join(bad))
        accuracy += [d for _, _, d in checks if d is not None]

    doc = {
        "ref_s": ref_s,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "setup_cpu_s": setup_cpu_s,
        "setup_wall_s": setup_wall_s,
        "probe_s": probes,
        "peak_rss_mb": peak_rss_mb,
        "output_mb": sum(artifacts.values()) / 1e6,
        # nothing checked against an exact reference: no digits verified
        "accuracy_digits": min(accuracy, default=0.0),
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
    }
    if tracer is not None:
        doc["layers"] = tracer.layer_metrics(artifacts)
    Path(args.result).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
