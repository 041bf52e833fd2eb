"""CLI tests: every subcommand produces its artifacts, config files merge
with flag overrides, outputs are deterministic, and failures exit nonzero."""

import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from revext import circle as ci
from revext import cli
from revext.cli import (_BLOCK, RunConfig, SvgCanvas, _byte_rows, _centi,
                        _centi_digits, _centi_labels, _column_groups,
                        _extension_spec_for, _ladder_svg, _sweep_chunk,
                        _write_strata_json, main, make_parser,
                        read_config_file)
from revext.extension import (INF, ChainRows, EmptyStratum, StratumSample,
                              sample_stratum, stratum_from_json,
                              stratum_to_json)


def run(args):
    return main(args)


def test_extend_logistic_json_and_svg(tmp_path):
    out = str(tmp_path / "ext")
    code = run(["extend", "--system", "logistic", "--lambda", "0.6",
                "--N", "4", "--depth", "10", "--density", "15",
                "--format", "svg", "-o", out])
    assert code == 0
    doc = json.loads((tmp_path / "ext.json").read_text())
    assert set(doc) == {"0", "1", "2", "3", "4", "inf"}
    assert doc["0"]["chains"]
    svg = (tmp_path / "ext.svg").read_text()
    assert svg.startswith("<svg") and "circle" in svg


def test_extend_constant_has_singleton_infinity(tmp_path):
    out = str(tmp_path / "const")
    assert run(["extend", "--system", "constant", "--N", "3",
                "--density", "10", "-o", out]) == 0
    doc = json.loads((tmp_path / "const.json").read_text())
    assert len(doc["inf"]["chains"]) == 1


def test_extend_rotation_ladder(tmp_path):
    out = str(tmp_path / "rot")
    assert run(["extend", "--system", "rotation", "--tau", "0.25",
                "--gamma0", "0.25", "--N", "6", "--format", "svg",
                "-o", out]) == 0
    doc = json.loads((tmp_path / "rot.json").read_text())
    assert doc["kind"] == "ArcLadder" and doc["space"] == "circle"
    assert (tmp_path / "rot.svg").exists()


@pytest.mark.parametrize("tau", ["1.3", "-0.7", "0.3"])
def test_extend_rotation_lift_takes_gamma0(tmp_path, tau):
    # tau = 1.3 and -0.7 name the rotation by 0.3 too; gamma(0) = 0.3
    # picks the lift with the same ladder
    out = str(tmp_path / "rot")
    assert run(["extend", "--system", "rotation", "--tau", tau,
                "--gamma0", "0.3", "--N", "4", "-o", out]) == 0
    doc = json.loads((tmp_path / "rot.json").read_text())
    assert doc["kind"] == "ArcLadder"
    for arc in doc["arcs"]:
        assert arc["origin"] == pytest.approx(arc["N"] * 0.3 % 1.0)
        assert arc["end"] == pytest.approx((arc["N"] + 1) * 0.3 % 1.0)


def test_extend_rotation_rejects_gamma0_of_another_rotation(tmp_path,
                                                             capsys):
    assert run(["extend", "--system", "rotation", "--tau", "0.25",
                "--gamma0", "0.6", "-o", str(tmp_path / "rot")]) == 1
    assert "not congruent" in capsys.readouterr().err


@pytest.mark.parametrize("a", ["nan", "1.0", "-2"])
def test_rotation_rejects_perturbation_outside_the_unit_disc(tmp_path, capsys,
                                                             a):
    assert run(["rotation", "--tau", "0.3", "--perturbation", a,
                "-o", str(tmp_path / "rot")]) == 1
    assert f"got a={float(a)!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["extend", "--system", "rotation", "--gamma0", "inf"],
    ["extend", "--system", "rotation", "--tau=-inf"],
    ["rotation", "--tau", "inf"],
    ["rotation", "--tau", "nan"],
])
def test_rotation_rejects_non_finite_tau_and_gamma0(tmp_path, capsys, argv):
    assert run(argv + ["-o", str(tmp_path / "rot")]) == 1
    assert "must be finite" in capsys.readouterr().err


def _strata(N=4, depth=8, density=12, **system):
    """The strata `extend` samples, keyed as in its JSON (None if empty)."""
    spec = _extension_spec_for(RunConfig("extend", **system))
    strata = {}
    for n in list(range(N + 1)) + ["inf"]:
        try:
            strata[str(n)] = sample_stratum(spec, INF if n == "inf" else n,
                                            density, depth=depth)
        except EmptyStratum:
            strata[str(n)] = None
    return strata


def _check_strata_json(strata):
    doc = {k: {"empty": True} if s is None else stratum_to_json(s)
           for k, s in strata.items()}
    fh = io.StringIO()
    _write_strata_json(fh, strata)
    assert fh.getvalue() == json.dumps(doc, indent=1)
    return fh.getvalue()


@pytest.mark.parametrize("system", [
    {"lam": 0.95}, {"lam": 0.6}, {"system": "constant", "p": 0.5},
], ids=["lambda=0.95", "lambda=0.6", "constant-p=0.5"])
def test_strata_json_is_json_dump(system):
    _check_strata_json(_strata(**system))


def test_strata_json_at_lambda_one_has_empty_finite_strata():
    strata = _strata(lam=1.0)
    assert [k for k, s in strata.items() if s is not None] == ["inf"]
    _check_strata_json(strata)


def test_strata_json_at_lambda_one_reads_back(tmp_path):
    # every finite entry is {"empty": true}; reading one back names it
    out = str(tmp_path / "ext")
    assert run(["extend", "--lambda", "1.0", "--N", "4", "--depth", "8",
                "--density", "12", "-o", out]) == 0
    doc = json.loads((tmp_path / "ext.json").read_text())
    strata = _strata(lam=1.0)
    assert list(doc) == list(strata)
    for key, entry in doc.items():
        if strata[key] is None:
            with pytest.raises(EmptyStratum, match='"empty": true'):
                stratum_from_json(entry)
        else:
            back = stratum_from_json(entry)
            assert (back.N, back.depth) == (INF, 8)
            assert back.chains == strata[key].chains


def test_strata_json_keeps_signed_zero():
    text = _check_strata_json(_strata(system="constant", p=-0.0))
    lines = text.splitlines()
    assert "     -0.0," in lines and "     0.0," in lines


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(0.5, 1.0))
def test_strata_json_is_json_dump_across_lambda(lam):
    _check_strata_json(_strata(N=3, depth=6, density=8, lam=lam))


def _old_ladder_svg(samples, path):
    """The per-chain emitter the ladder SVG used before its labels were
    memoized: every point of every chain formatted with `:.2f`."""
    canvas = SvgCanvas()
    margin, row_h = 50.0, 36.0
    rows = list(samples.items())
    canvas.height = max(140.0, margin + row_h * (len(rows) + 1))
    for r, (label, sample) in enumerate(rows):
        y0 = margin + r * row_h
        canvas.text(8.0, y0 + 4.0, f"N={label}")
        for chain in sample.chains:
            xs = [margin + c * (canvas.width - 2 * margin)
                  for c in chain.coords]
            pts = [(x, y0 + 10.0 * k / (len(xs) or 1))
                   for k, x in enumerate(xs[:6])]
            canvas.elements.append(f'<circle cx="{pts[0][0]:.2f}" '
                                   f'cy="{pts[0][1]:.2f}" r="1.2" '
                                   f'fill="black"/>')
            if len(pts) > 1:
                coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
                canvas.elements.append(
                    f'<polyline points="{coords}" fill="none" '
                    f'stroke="#888" stroke-width="0.5"/>')
    canvas.write(path)


def _check_ladder_svg(tmp_path, samples):
    _ladder_svg(samples, str(tmp_path / "new.svg"))
    _old_ladder_svg(samples, str(tmp_path / "old.svg"))
    assert (tmp_path / "new.svg").read_text() == \
        (tmp_path / "old.svg").read_text()


@pytest.mark.parametrize("system", [
    {"lam": 0.95}, {"lam": 0.6}, {"lam": 1.0},
    {"system": "constant", "p": -0.0},
], ids=["lambda=0.95", "lambda=0.6", "lambda=1.0", "constant-p=-0.0"])
def test_ladder_svg_matches_per_chain_emitter(tmp_path, system):
    samples = {k: s for k, s in _strata(N=6, depth=10, density=20,
                                        **system).items() if s is not None}
    _check_ladder_svg(tmp_path, samples)


@settings(max_examples=20, deadline=None)
@given(lam=st.floats(0.5, 1.0))
def test_ladder_svg_matches_per_chain_emitter_across_lambda(tmp_path_factory,
                                                            lam):
    samples = {k: s for k, s in _strata(N=3, depth=6, density=8,
                                        lam=lam).items() if s is not None}
    _check_ladder_svg(tmp_path_factory.mktemp("ladder"), samples)


def test_ladder_svg_of_single_coordinate_chains_draws_circles_only(tmp_path):
    samples = {k: s for k, s in _strata(N=0, depth=6, density=12,
                                        lam=0.9).items() if s is not None}
    assert samples["0"].chains.coords.shape[1] == 1
    _check_ladder_svg(tmp_path, {"0": samples["0"]})
    assert "<polyline" not in (tmp_path / "new.svg").read_text()


def _hand_stratum(rows, N=2, seed=0):
    """A terminal sample of M_N with ``rows`` chains of N + 1 coordinates
    in [0, 1], the edge values of the float formatter among them: both
    zeros, adjacent doubles, a subnormal and 1.0."""
    coords = np.random.default_rng(seed).random((rows, N + 1))
    edge = [0.0, -0.0, 0.3, np.nextafter(0.3, 1.0), np.nextafter(0.3, 0.0),
            5e-324, np.nextafter(0.0, 1.0) * 3, 1.0, np.nextafter(1.0, 0.0)]
    k = min(len(edge), coords.size)
    coords.flat[:k] = edge[:k]
    coords.flat[-k:] = edge[::-1][:k]
    return StratumSample(N, ChainRows(coords, True), 2 * N)


def test_strata_json_of_edge_floats_is_json_dump():
    strata = {"2": _hand_stratum(40), "3": None, "5": _hand_stratum(7, N=5)}
    text = _check_strata_json(strata)
    assert "     -0.0," in text.splitlines() and "5e-324" in text


@pytest.mark.parametrize("rows", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                  2 * _BLOCK, 2 * _BLOCK + 1])
def test_writers_across_block_boundaries(tmp_path, rows):
    strata = {"0": _hand_stratum(rows, N=0, seed=rows),
              "2": _hand_stratum(rows, seed=rows),
              "7": _hand_stratum(rows, N=7, seed=rows + 1)}
    _check_strata_json(strata)
    _check_ladder_svg(tmp_path, strata)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_strata_json_rejects_non_finite_coordinates(bad):
    good = _hand_stratum(3)
    coords = good.chains.coords.copy()
    coords[1, 2] = bad
    strata = {"2": good,
              "inf": StratumSample(INF, ChainRows(coords, False), 2)}
    fh = io.StringIO()
    with pytest.raises(ValueError, match=f"stratum 'inf'.*{bad!r}"):
        _write_strata_json(fh, strata)
    assert fh.getvalue() == ""


@pytest.mark.parametrize("argv, shown", [
    (["extend", "--system", "constant", "--p", "1.5"], "p=1.5"),
    (["operator-check", "--system", "constant", "--p", "2"], "p=2.0"),
], ids=["extend", "operator-check"])
def test_constant_target_outside_unit_interval_fails(tmp_path, capsys,
                                                     argv, shown):
    assert run(argv + ["-o", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and shown in err
    assert not list(tmp_path.iterdir())


def test_bifurcate_csv(tmp_path):
    out = str(tmp_path / "bif")
    assert run(["bifurcate", "--n-max", "2", "-o", out]) == 0
    rows = (tmp_path / "bif.csv").read_text().splitlines()
    assert rows[0] == "name,n,value,residual"
    assert any(r.startswith("lambda_n,2,0.862372435") for r in rows)


def test_bifurcate_svg_sweep(tmp_path):
    out = str(tmp_path / "bif")
    assert run(["bifurcate", "--n-max", "2", "--steps", "60",
                "--format", "svg", "-o", out]) == 0
    assert (tmp_path / "bif.svg").stat().st_size > 1000


def _old_bifurcation_dots(lambda_min=0.74, lambda_max=1.0, steps=2000):
    """The per-dot emitter the bifurcation SVG used before deduplication:
    one `<circle>` per swept point, each coordinate formatted with `:.2f`."""
    lams = np.linspace(lambda_min, lambda_max, steps)
    pts = _sweep_chunk(lams, burn_in=600, keep=120)
    width, height, margin = 800.0, 520.0, 40.0
    span = lambda_max - lambda_min
    out = []
    for j, lam in enumerate(lams):
        px = margin + (lam - lambda_min) / span * (width - 2 * margin)
        for x in pts[:, j]:
            py = height - margin - x * (height - 2 * margin)
            out.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="0.4" '
                       f'fill="black"/>')
    return out


@pytest.mark.parametrize("steps", [60, 2000])
def test_bifurcate_svg_draws_each_old_dot_once(tmp_path, steps):
    out = str(tmp_path / "bif")
    args = ["bifurcate", "--n-max", "2", "--format", "svg", "-o", out]
    if steps != 2000:  # 2000 is the default sweep
        args += ["--steps", str(steps)]
    assert run(args) == 0
    svg = (tmp_path / "bif.svg").read_text()
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")
    assert '<text x="40.00" y="512.00" font-size="11" ' \
        'font-family="monospace">0.740</text>' in svg
    assert '<text x="720.00" y="512.00" font-size="11" ' \
        'font-family="monospace">1.000</text>' in svg
    dots = [line for line in svg.splitlines() if line.startswith("<circle")]
    assert len(dots) == len(set(dots))
    assert set(dots) == set(_old_bifurcation_dots(steps=steps))
    # column by column, and within a column in ascending cy
    coords = [tuple(float(line.split('"')[k]) for k in (1, 3))
              for line in dots]
    assert coords == sorted(coords)


def _global_sort_svg(path, lambda_min, lambda_max, steps):
    """The bifurcation SVG as `bifurcate` wrote it before its dots were
    grouped by column: one sort and one byte matrix of every dot key of
    the diagram."""
    lams = np.linspace(lambda_min, lambda_max, steps)
    pts = _sweep_chunk(lams, burn_in=600, keep=120)
    canvas = SvgCanvas(width=800.0, height=520.0)
    margin = 40.0
    span = lambda_max - lambda_min
    cx = _centi(margin + (lams - lambda_min) / span *
                (canvas.width - 2 * margin))
    cy = _centi(canvas.height - margin - pts * (canvas.height - 2 * margin))
    base = int(cy.max()) + 1
    key = np.sort((cx * base + cy).ravel())
    key = key[np.r_[True, key[1:] != key[:-1]]]
    dots = _byte_rows([b'<circle cx="', b'" cy="',
                       b'" r="0.4" fill="black"/>\n'],
                      [_centi_digits(key // base),
                       _centi_digits(key % base)])
    canvas.text(margin, canvas.height - 8.0, f"{lambda_min:.3f}")
    canvas.text(canvas.width - margin - 40.0, canvas.height - 8.0,
                f"{lambda_max:.3f}")
    canvas.write(path, [dots, "\n".join(canvas.elements).encode()])


# A range two ulp wide: linspace repeats each of its three lambdas over a
# run of columns, so the columns at a nominal cut print equal cx and the
# cut moves to the next run.
_ULP_RANGE = (0.9, float(np.nextafter(np.nextafter(0.9, 1.0), 1.0)))


@settings(max_examples=40, deadline=None)
@given(bounds=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=2,
                       max_size=2, unique=True).map(sorted),
       steps=st.integers(1, 3 * cli._COLUMN_GROUP + 1))
@example(bounds=[0.74, 1.0], steps=60)  # fewer columns than one group
@example(bounds=[0.74, 1.0], steps=cli._COLUMN_GROUP)  # exactly one group
@example(bounds=[0.74, 1.0], steps=cli._COLUMN_GROUP + 1)
@example(bounds=list(_ULP_RANGE), steps=3 * cli._COLUMN_GROUP)
def test_grouped_dots_match_global_sort(tmp_path_factory, bounds, steps):
    lo, hi = bounds
    d = tmp_path_factory.mktemp("bif")
    assert run(["bifurcate", "--n-max", "1", "--lambda-min", repr(lo),
                "--lambda-max", repr(hi), "--steps", str(steps),
                "--format", "svg", "-o", str(d / "new")]) == 0
    _global_sort_svg(str(d / "old.svg"), lo, hi, steps)
    assert (d / "new.svg").read_bytes() == (d / "old.svg").read_bytes()


def test_ulp_range_cuts_a_group_inside_a_run():
    lams = np.linspace(*_ULP_RANGE, 3 * cli._COLUMN_GROUP)
    cx = _centi(40.0 + (lams - _ULP_RANGE[0])
                / (_ULP_RANGE[1] - _ULP_RANGE[0]) * 720.0)
    groups = _column_groups(cx)
    assert len(groups) > 1
    # the nominal first cut lies inside a run of equal cx, so it moved
    assert cx[cli._COLUMN_GROUP - 1] == cx[cli._COLUMN_GROUP]
    assert groups[0][1] > cli._COLUMN_GROUP


def _column_groups_loop(cx):
    """Column groups one column at a time: a group closes at the first
    column, _COLUMN_GROUP or more past its start, whose cx differs from
    the one before."""
    cuts = [0]
    for j in range(1, len(cx)):
        if j - cuts[-1] >= cli._COLUMN_GROUP and cx[j] != cx[j - 1]:
            cuts.append(j)
    return list(zip(cuts, cuts[1:] + [len(cx)]))


@settings(max_examples=200, deadline=None)
@given(runs=st.lists(st.integers(1, 300), min_size=1, max_size=40))
@example(runs=[cli._COLUMN_GROUP])
@example(runs=[cli._COLUMN_GROUP - 1, 2, cli._COLUMN_GROUP])
def test_column_groups_cut_between_runs(runs):
    # cx with the given lengths of runs of equal values
    cx = np.repeat(np.arange(len(runs), dtype=np.int64) * 7, runs)
    assert _column_groups(cx) == _column_groups_loop(cx)


def test_centi_rounds_as_format_does():
    # Values at and next to half a hundredth, where rounding v * 100 and
    # formatting v with `:.2f` can disagree.
    v = (np.arange(48_000) + 0.5) / 100.0
    v = np.concatenate([v, np.nextafter(v, 0.0), np.nextafter(v, 1e9)])
    assert _centi_labels(_centi(v)) == [f"{x:.2f}" for x in v.tolist()]


_EDGE_HUNDREDTHS = sorted({0, 9, 99, 100, 999, 1000, 2**53, 2**63 - 1}
                          | {10**k + d for k in range(1, 16)
                             for d in (-1, 0, 1)})


@settings(max_examples=200, deadline=None)
@given(c=st.lists(st.integers(0, 2**63 - 1)
                  | st.sampled_from(_EDGE_HUNDREDTHS), max_size=40))
@example(c=[])
@example(c=_EDGE_HUNDREDTHS)
def test_centi_digits_print_hundredths(c):
    digits = _centi_digits(np.array(c, dtype=np.int64))
    assert digits.shape[0] == len(c)
    assert digits.tobytes().replace(b"\0", b"").decode() == \
        "".join(f"{v // 100}.{v % 100:02d}" for v in c)


@pytest.mark.parametrize("c", [[-5], [3, -1, 7], [-(2**63)]],
                         ids=["-5", "among-others", "int64-min"])
def test_centi_digits_reject_negative_hundredths(c):
    # `f"{v // 100}.{v % 100:02d}"` would print -5 as "-1.95"
    with pytest.raises(ValueError, match="non-negative"):
        _centi_digits(np.array(c, dtype=np.int64))


@pytest.mark.parametrize("bounds", [
    ["--lambda-min", "0.9", "--lambda-max", "0.9"],
    ["--lambda-min", "0.9", "--lambda-max", "0.8"],
    ["--lambda-max", "1.2"],
], ids=["empty", "reversed", "above-1"])
def test_bifurcate_rejects_bad_range(tmp_path, capsys, bounds):
    out = str(tmp_path / "bif")
    assert run(["bifurcate", "--n-max", "2", "--steps", "50",
                "--format", "svg", "-o", out] + bounds) == 1
    err = capsys.readouterr().err
    assert "lambda_min" in err and "lambda_max" in err
    assert not list(tmp_path.iterdir())  # no .svg, and no .csv either


def test_classify(tmp_path):
    out = str(tmp_path / "cls")
    assert run(["classify", "--lambda", "0.8", "-o", out]) == 0
    doc = json.loads((tmp_path / "cls.json").read_text())
    assert doc["tag"] == "CascadeStage" and doc["n"] == 1


@pytest.mark.parametrize("lam, tag, n, m", [
    ("0.958", "Window", 1, None),
    ("0.9615", "WindowCascadeStage", 1, 1),
    ("0.935", "Window", 2, None),
    ("0.95", "ChaoticUnclassified", None, None),
])
def test_classify_reports_windows(tmp_path, lam, tag, n, m):
    out = str(tmp_path / "cls")
    assert run(["classify", "--lambda", lam, "-o", out]) == 0
    doc = json.loads((tmp_path / "cls.json").read_text())
    assert (doc["tag"], doc["n"], doc["m"]) == (tag, n, m)


def test_continuum_graph_dot_and_json(tmp_path):
    out = str(tmp_path / "mu")
    assert run(["continuum-graph", "--regime", "mu", "--n", "1",
                "--format", "dot", "-o", out]) == 0
    dot = (tmp_path / "mu.dot").read_text()
    assert dot.count("BJK") == 2 and '"R"' in dot
    assert run(["continuum-graph", "--regime", "cascade", "--n", "2",
                "-o", out]) == 0
    doc = json.loads((tmp_path / "mu.json").read_text())
    assert len(doc["nodes"]) == 5


def test_continuum_graph_rejects_negative_m(tmp_path):
    out = tmp_path / "wc"
    assert run(["continuum-graph", "--regime", "window-cascade", "--n", "1",
                "--m", "-1", "-o", str(out)]) == 1
    assert not out.with_suffix(".json").exists()


def test_rotation_command(tmp_path):
    out = str(tmp_path / "rot")
    assert run(["rotation", "--tau", "0.4", "-o", out]) == 0
    doc = json.loads((tmp_path / "rot.json").read_text())
    assert doc["kind"] == "RationalPeriodic"
    assert abs(doc["rotation_number"] - 0.4) < 1e-4
    evidence = doc["evidence"]
    assert evidence["weighted"] is True and evidence["steps"] == 2000
    lo, hi = evidence["interval"]
    assert lo < doc["rotation_number"] < hi
    assert hi - lo == pytest.approx(2.0 / 2000, rel=1e-12)


@pytest.mark.parametrize("flags,h", [
    (["--tau", "0.4"], ci.rigid_rotation(0.4)),
    (["--tau", "0.381966", "--perturbation", "0.05"],
     ci.perturbed_rotation(0.381966, 0.05))])
def test_rotation_command_runs_one_orbit(tmp_path, monkeypatch, flags, h):
    calls = []
    rotation_number = ci.rotation_number

    def counting(*args, **kwargs):
        calls.append(args)
        return rotation_number(*args, **kwargs)

    monkeypatch.setattr(ci, "rotation_number", counting)
    out = str(tmp_path / "rot")
    assert run(["rotation", *flags, "--n-iter", "20000", "-o", out]) == 0
    assert len(calls) == 1
    doc = json.loads((tmp_path / "rot.json").read_text())
    assert doc["rotation_number"] == rotation_number(h, 20000)


def test_operator_check_all_models(tmp_path):
    for system in ("constant", "rotation", "period3"):
        out = str(tmp_path / system)
        assert run(["operator-check", "--system", system, "-o", out]) == 0
        doc = json.loads((tmp_path / f"{system}.json").read_text())
        assert all(entry["pass"] for entry in doc.values())


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lam = 0.8\nN = 2\ndensity = 8  # sparse\n\n")
    parsed = read_config_file(str(cfg))
    assert parsed == {"lam": "0.8", "N": "2", "density": "8"}
    out = str(tmp_path / "over")
    assert run(["extend", "--config", str(cfg), "--N", "1", "-o", out]) == 0
    doc = json.loads((tmp_path / "over.json").read_text())
    assert set(doc) == {"0", "1", "inf"}  # CLI --N beat the config N=2


def test_bad_config_line_fails(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not a key value pair\n")
    assert run(["extend", "--config", str(cfg),
                "-o", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("line, key", [
    ("lambda = 0.7", "lambda"),  # the flag's spelling, not the field's
    ("command = classify", "command"),
])
def test_unknown_config_key_fails(tmp_path, capsys, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert run(["extend", "--config", str(cfg),
                "-o", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err and "lam" in err
    assert not (tmp_path / "x.json").exists()


def test_config_value_error_names_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("N = 2.5\n")
    assert run(["extend", "--config", str(cfg),
                "-o", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == \
        "error: config key 'N': expected int, got '2.5'\n"
    assert not (tmp_path / "x.json").exists()


def test_main_calls_share_no_values(monkeypatch):
    seen = []
    for command in ("extend", "bifurcate"):
        monkeypatch.setitem(cli._DISPATCH, command,
                            lambda cfg: seen.append(cfg) or 0)
    assert make_parser() is make_parser()  # built once
    assert main(["extend", "--lambda", "0.9", "--N", "3", "--format", "svg",
                 "-o", "first"]) == 0
    assert main(["bifurcate", "--n-max", "4", "--steps", "50"]) == 0
    assert main(["extend"]) == 0
    first, bif, plain = seen
    assert (first.lam, first.N, first.format, first.output) == \
        (0.9, 3, "svg", "first")
    assert (bif.N_max, bif.steps, bif.lam, bif.N) == (4, 50, 0.6, 10)
    assert plain == RunConfig(command="extend")


@pytest.mark.parametrize("bad", [
    ["extend", "--lambda", "x"],
    ["extend", "--n-max", "3"],  # another subcommand's flag
    ["no-such-command"],
    [],
], ids=["not-a-float", "other-command-flag", "unknown-command", "none"])
def test_bad_arguments_between_good_calls_exit_2(monkeypatch, capsys, bad):
    seen = []
    monkeypatch.setitem(cli._DISPATCH, "extend",
                        lambda cfg: seen.append(cfg) or 0)
    assert main(["extend", "--lambda", "0.9", "--density", "8"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    assert "usage: revext" in capsys.readouterr().err
    assert main(["extend", "--depth", "5"]) == 0
    assert seen[1] == RunConfig(command="extend", depth=5)


def test_invalid_lambda_fails():
    assert run(["classify", "--lambda", "1.5", "-o", "/tmp/nope"]) == 1


def test_deterministic_output(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        assert run(["extend", "--system", "logistic", "--lambda", "0.6",
                    "--N", "3", "--density", "12", "-o", out]) == 0
    assert (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "b.json").read_bytes()


# sha256 of each output, pinned so that any change to stratum sampling, the
# operator models, the cascade table or the bifurcation sweep is deliberate.
# The outputs use only +, -, *, / and sqrt, and every operator-model
# residual is 0.0, so the digests are platform-stable.
_SMALL = ["--N", "4", "--depth", "8", "--density", "12", "--format", "svg"]
_PINNED = [
    (["extend", "--lambda", "0.95"] + _SMALL, {
        ".json": "193c9840de1f00a7b9c82af1c9579fb8"
                 "f850e1af77038de7122b0de096075a01",
        ".svg": "2a0d46c3c0105e525b7c776ab6b044ae"
                "d9b5213895afc17eea5b1f50f70be7fb"}),
    (["extend", "--lambda", "0.6"] + _SMALL, {
        ".json": "4853a701b93d104e9c5b39ab3a26d070"
                 "7f406ae48b616d6546b2e2ad7a38c043",
        ".svg": "cce41ae2ec84c9da8281500bc191c2ae"
                "83a1c67e3115014f68f0599218ed4a03"}),
    (["extend", "--system", "constant", "--N", "3", "--depth", "8",
      "--density", "12", "--format", "svg"], {
        ".json": "b57318afc46172d733ee5db162240501"
                 "0a6983840744fb9a50a82d7bda762ea7",
        ".svg": "27f1cb812daa61271750bc3480ecd94e"
                "6a0571b28b964d740ac1c9314ec7ca54"}),
    # every finite stratum empty
    (["extend", "--lambda", "1.0"] + _SMALL, {
        ".json": "80f7b8632385bd273f8b366fdfbb99b1"
                 "e0463061ac9ef4f59bf574d0137c232c",
        ".svg": "84861ce20656b363e71c7d771206802f"
                "5b63c8e3441a29b79e3ce073967675ac"}),
    # a signed zero in every chain
    (["extend", "--p", "-0.0", "--system", "constant", "--N", "3",
      "--depth", "8", "--density", "12", "--format", "svg"], {
        ".json": "32584dcec7f2d65745aaf89733c8089a"
                 "a1a5005255be12a63fc98d0630b26f00",
        ".svg": "2caf525aff21a205fb2c79b43d0c7057"
                "b9dfae10ee73b902e8c2c33d290cf0fc"}),
    (["extend", "--system", "rotation", "--tau", "0.25", "--gamma0", "0.25",
      "--N", "6", "--format", "svg"], {
        ".json": "03b19c90a2006d9a8bc19eaa4fa20129"
                 "d42c66188c798ea4ad0cedcc677a5ed3",
        ".svg": "8337ce732e9227b205504ae72c77f055"
                "29c810317b2bbb71984df4b21a960394"}),
    (["bifurcate", "--n-max", "2", "--steps", "60", "--format", "svg"], {
        ".csv": "0f80fa091d2ae5e06ea2b51ac01c5502"
                "c40ad526177e1190ab997c5ccd50a808",
        ".svg": "8db3475b50eb734ce2c5cd78d6b00208"
                "12c643f34a7130507825192c87998fb7"}),
] + [
    (["operator-check", "--system", system, "--depth", "6"], {
        ".json": "9d6bd9a45ee4a4276106de0c77c67057"
                 "8f1ca417231573ababcb78d1714f93f6"})
    for system in ("constant", "rotation", "period3")
]


# `extend` and `bifurcate` at the sizes the benchmark times them
_BENCH = ["--N", "10", "--depth", "20", "--density", "60", "--format", "svg"]
_PINNED_BENCH = [
    (["extend", "--lambda", "0.95"] + _BENCH, {
        ".json": "2563d4bfa25b9b7732c830363f41fab8"
                 "63a62ecb6691acc99247eddcb36c5153",
        ".svg": "2acaec0fcaca5422d55be9265213819e"
                "85a31b8a492943f1960d3e9df136729e"}),
    (["extend", "--lambda", "0.6"] + _BENCH, {
        ".json": "0931135d1a20f02d8971e918d07fedb6"
                 "1b152c58951d4dfd0f79f60aeca8ff0b",
        ".svg": "fe5aa97ef67d4074bec99d51a3a60b93"
                "b17c2cce9f54c40f237a68f1fe501715"}),
    (["bifurcate", "--n-max", "12", "--steps", "2000", "--format", "svg"], {
        ".csv": "8bd4472c12f28c884c2a9a445c01640d"
                "10d289f772f1d0b532f73504ad71e1d4",
        ".svg": "da5ef671d722175a1908a1acfa47b85d"
                "f1760ae2e6538b0c88ee1b6f35737e4f"}),
]


def _check_digests(tmp_path, args, digests):
    out = tmp_path / "out"
    assert run(args + ["-o", str(out)]) == 0
    for suffix, digest in digests.items():
        data = out.with_suffix(suffix).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, suffix


@pytest.mark.parametrize("args, digests", _PINNED,
                         ids=[" ".join(a[:3]) for a, _ in _PINNED])
def test_outputs_match_pinned_digests(tmp_path, args, digests):
    _check_digests(tmp_path, args, digests)


@pytest.mark.parametrize("args, digests", _PINNED_BENCH,
                         ids=[" ".join(a[:3]) for a, _ in _PINNED_BENCH])
def test_benchmark_size_extend_matches_pinned_digests(tmp_path, args,
                                                      digests):
    _check_digests(tmp_path, args, digests)
