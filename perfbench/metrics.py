"""Names, units and directions of the benchmark's metrics.

BENCHMARK.json at the repository root lists the same metrics; the
benchmark's test checks that the two agree.
"""

# (name, unit, better): one value per run, measured with tracing off.
END_TO_END = [
    ("ref_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("output_mb", "MB", "lower"),
    ("accuracy_digits", "digits", "higher"),
]

MODULES = ("core", "extension", "logistic", "circle", "operator_model", "cli")

# (name, unit, better): from the traced run only.
LAYER_METRICS = [
    ("core.preimages.calls", "count", "lower"),
    ("core.preimages.s", "s", "lower"),
    ("extension.sample_stratum.s", "s", "lower"),
    ("extension.sample_stratum.chains", "count", "higher"),
    ("extension.sample_stratum.preimages_per_chain", "calls/chain", "lower"),
    ("extension.hausdorff.s", "s", "lower"),
    ("extension.hausdorff.pairs", "count", "higher"),
    ("extension.hausdorff.ns_per_pair", "ns", "lower"),
    ("extension.hausdorff.rss_mb", "MB", "lower"),
    ("logistic.find_periodic_point.calls", "count", "lower"),
    ("logistic.find_periodic_point.s", "s", "lower"),
    ("logistic.attracting_period.calls", "count", "lower"),
    ("logistic.attracting_period.s", "s", "lower"),
    ("logistic.CascadeTable.build.s", "s", "lower"),
    ("logistic.window_boundaries.s", "s", "lower"),
    ("circle.rotation_number.calls", "count", "lower"),
    ("circle.rotation_number.s", "s", "lower"),
    ("circle.lift_iters_per_s", "1/s", "higher"),
    ("operator_model.build_model.s", "s", "lower"),
    ("operator_model.build_B.s", "s", "lower"),
    ("operator_model.verify_reversibility.s", "s", "lower"),
    ("operator_model.verify_coefficient_relations.s", "s", "lower"),
    ("operator_model.full_report.s", "s", "lower"),
    ("operator_model.dim_total", "count", "higher"),
    ("cli.extend.self_s", "s", "lower"),
    ("cli.bifurcate.self_s", "s", "lower"),
    ("cli.operator_check.self_s", "s", "lower"),
    ("cli.rotation.self_s", "s", "lower"),
    ("cli.json_bytes", "bytes", "lower"),
    ("cli.svg_bytes", "bytes", "lower"),
] + [(f"{m}.errors", "count", "lower") for m in MODULES] + [
    ("trace.overhead_s", "s", "lower"),
]
