"""Tests of the benchmark itself: every workload end to end at smoke size,
untraced and traced, the agreement of BENCHMARK.json with the metrics the
benchmark prints, and the refusal to run without the revext sources.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from metrics import END_TO_END, LAYER_METRICS  # noqa: E402

WORKLOADS = ("chains", "cascade", "operator")
# per-layer metrics that must be nonzero on the workload that exercises them
EXERCISED = {
    "chains": ("core.preimages.calls", "extension.sample_stratum.chains",
               "extension.sample_stratum.preimages_per_chain",
               "extension.hausdorff.pairs", "cli.extend.self_s",
               "cli.json_bytes", "cli.svg_bytes"),
    "cascade": ("logistic.find_periodic_point.calls",
                "logistic.attracting_period.calls",
                "logistic.CascadeTable.build.s",
                "logistic.window_boundaries.s", "cli.bifurcate.self_s",
                "cli.svg_bytes"),
    "operator": ("circle.rotation_number.calls", "circle.lift_iters_per_s",
                 "operator_model.build_B.s", "operator_model.full_report.s",
                 "operator_model.dim_total",
                 "logistic.attracting_period.calls",
                 "cli.operator_check.self_s", "cli.rotation.self_s"),
}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    header = json.loads(lines[-2])["header"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, header["failures"]
    assert result["attempted"] >= 1
    expected = LAYER_METRICS if trace else END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        [(name, unit) for name, unit, _ in expected]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert header["traced_repetitions"] >= 1
        assert all(values[name] > 0 for name in EXERCISED[workload])
    else:
        assert all(v > 0 for v in values.values())
    for key in ("git_sha", "python", "numpy", "nproc", "blas_threads",
                "seed", "argv"):
        assert key in header
    assert header["blas_threads"] is None or header["blas_threads"] <= 2


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, metrics in (("end_to_end", END_TO_END),
                         ("per_layer", LAYER_METRICS)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == \
            list(metrics)


def test_refuses_to_run_without_sources():
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-test-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench("--workload", "chains", "--seed", "1", "--seconds",
                         "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_self_time_excludes_child_spans():
    import time
    from tracing import Tracer

    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def body():
        inner()
        inner()
        time.sleep(0.01)

    tracer.wrap("outer", body)()
    outer, first, second = tracer.spans
    assert (outer.parent, first.parent, second.parent) == (-1, 0, 0)
    own = tracer.self_times()
    assert own[1:] == [first.end - first.start, second.end - second.start]
    assert own[0] == pytest.approx(
        (outer.end - outer.start) - own[1] - own[2], abs=1e-12)
    assert 0.01 <= own[0] <= (outer.end - outer.start) - 0.04
