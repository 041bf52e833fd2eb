"""revext benchmark.

    python3 perfbench/run.py --workload chains|cascade|operator --seed N \
        --seconds S --trace 0|1 [--smoke]

Runs the workload repeatedly, each time in a fresh child interpreter
(child.py), until ``--seconds`` have passed, and reports the median over the
repetitions.  Times are CPU seconds rescaled to a reference host speed by
the probe in speed.py.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the repetitions alternate between untraced and traced, and the
metrics are the per-layer ones from the traced repetitions plus the tracing
overhead.  ``--smoke`` runs every workload at minimal size.

The line before the last is a run header (git sha, versions, nproc, BLAS
threads, seed, argv and per-repetition figures).  The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}.
The exit code is nonzero, with no result line, when a repetition cannot run
at all (for example when ``src/revext`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from metrics import END_TO_END, LAYER_METRICS
from speed import REF_PROBE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chains", "cascade", "operator")
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0       # the whole run must end within 180 s
BLAS_THREADS = "1"        # numpy's BLAS pool in the children (<= 2 CPUs)


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _run_child(args, traced: bool, work: Path) -> dict:
    run_dir = Path(tempfile.mkdtemp(dir=work))
    out = run_dir / "out"
    out.mkdir()
    result = run_dir / "result.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", "smoke" if args.smoke else "full",
           "--traced", str(int(traced)),
           "--out", str(out), "--result", str(result)]
    try:
        cmd += ["--t0", repr(time.monotonic())]
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"repetition exceeded {CHILD_TIMEOUT_S} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if rc != 0 or not result.exists():
            raise RuntimeError(f"repetition exited with code {rc}")
        doc = json.loads(result.read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    doc["traced"] = traced
    return doc


def measure(args) -> list[dict]:
    """Repetitions for ``args.seconds``: a repetition starts only if one
    more of the typical length still fits.  There is at least one, and in a
    traced run at least one untraced and one traced."""
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    runs: list[dict] = []
    lengths: list[float] = []
    start = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - start
            enough = len(runs) >= (2 if args.trace else 1)
            if enough and (
                    elapsed + statistics.median(lengths) > args.seconds
                    or elapsed + 1.5 * max(lengths) > RUN_LIMIT_S):
                break
            t = time.monotonic()
            runs.append(_run_child(args, args.trace and len(runs) % 2 == 1,
                                   work))
            lengths.append(time.monotonic() - t)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return runs


def summarize(args, runs: list[dict]) -> tuple[dict, dict]:
    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = (
            statistics.median(r["ref_s"] for r in traced)
            - statistics.median(r["ref_s"] for r in plain))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
    else:
        probes = [p for r in plain for p in r["probe_s"]]
        values = {
            "ref_s": statistics.median(r["ref_s"] for r in plain),
            "setup_s": (statistics.median(r["setup_cpu_s"] for r in plain)
                        * REF_PROBE_S / statistics.fmean(probes)),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "output_mb": statistics.median(r["output_mb"] for r in plain),
            # the weakest check of any repetition, not a typical one
            "accuracy_digits": min(r["accuracy_digits"] for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    header = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": runs[0]["numpy"],
        "nproc": os.cpu_count(),
        "blas_threads": runs[0]["blas_threads"],
        "seed": args.seed,
        "argv": sys.argv,
        "repetitions": len(runs),
        "traced_repetitions": len(traced),
        "fail_frac": failed / attempted,
        "ref_s": [r["ref_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "wall_s": [r["wall_s"] for r in runs],
        "setup_cpu_s": [r["setup_cpu_s"] for r in runs],
        "setup_wall_s": [r["setup_wall_s"] for r in runs],
        "probe_s_mean": [statistics.fmean(r["probe_s"]) for r in runs],
        "failures": sorted({f for r in runs for f in r["failures"]})[:20],
    }
    return header, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimal sizes, for a quick end-to-end check")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "revext" / "__init__.py").is_file():
        print(f"error: no revext sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        runs = measure(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    header, result = summarize(args, runs)
    for failure in header["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"header": header}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
