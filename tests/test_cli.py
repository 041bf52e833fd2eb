"""CLI tests: every subcommand produces its artifacts, config files merge
with flag overrides, outputs are deterministic, and failures exit nonzero."""

import hashlib
import io
import json
import os
import re
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from revext import circle as ci
from revext import cli
from revext import logistic as lg
from revext.cli import (_BLOCK, _ROUND_MARKS, ArgumentTooLarge, RunConfig,
                        _byte_rows, _centi_digits, _centi_labels,
                        _column_groups, _extension_spec_for, _indexed,
                        _ladder_svg, _sweep_chunk, _write_strata_json, main,
                        make_parser, read_config_file)
from revext.core import decimal_rint
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
    assert svg.startswith("<svg") and "<path" in svg


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


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _strata_layout(doc: dict) -> str:
    """The strata JSON layout, built entry by entry: a stratum header per
    line, then one compact chain per line, lines joined by ",\n"."""
    entries = []
    for key, entry in doc.items():
        if "chains" not in entry:
            entries.append(f"{_compact(key)}:{_compact(entry)}")
            continue
        chains = ",\n".join(map(_compact, entry["chains"]))
        entries.append(f'{_compact(key)}:{{"N":{_compact(entry["N"])},'
                       f'"depth":{entry["depth"]},"chains":[\n{chains}]}}')
    return "{" + ",\n".join(entries) + "}\n"


def _coord_tokens(text: str) -> list:
    """The coordinate tokens of every chain line, as written."""
    return [t for line in text.splitlines() if line.startswith('{"coords"')
            for t in line[len('{"coords":['):line.index("]")].split(",")]


def _first_difference(got: str, want: str) -> str:
    """Where two texts first differ: the offset and that line of each.
    pytest's own diff of two texts of 150 kB takes minutes."""
    at = len(os.path.commonprefix([got, want]))
    n = got.count("\n", 0, at)
    return (f"texts differ at offset {at}, line {n + 1}: "
            f"{got.splitlines()[n:n + 1]} != {want.splitlines()[n:n + 1]}")


def _check_strata_json(strata):
    doc = {k: {"empty": True} if s is None else stratum_to_json(s)
           for k, s in strata.items()}
    fh = io.StringIO()
    _write_strata_json(fh, strata)
    text, want = fh.getvalue(), _strata_layout(doc)
    if text != want:
        pytest.fail(_first_difference(text, want), pytrace=False)
    if json.loads(text) != json.loads(json.dumps(doc, indent=1)):
        pytest.fail("json.loads reads another document", pytrace=False)
    return text


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
    assert {"-0.0", "0.0"} <= set(_coord_tokens(text))


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(0.5, 1.0))
def test_strata_json_is_json_dump_across_lambda(lam):
    _check_strata_json(_strata(N=3, depth=6, density=8, lam=lam))


def _old_svg(path, width, height, body: bytes) -> None:
    """An SVG file as the canvas with an element list wrote it: the
    header, ``body`` (the elements joined by newlines) and the end tag."""
    with open(path, "wb") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'width="{width:.0f}" height="{height:.0f}" '
                 f'viewBox="0 0 {width:.0f} {height:.0f}">\n'.encode()
                 + body + b"\n</svg>\n")


def _old_text(x, y, s):
    return (f'<text x="{x:.2f}" y="{y:.2f}" font-size="11" '
            f'font-family="monospace">{s}</text>')


def _old_ladder_svg(samples, path):
    """The per-chain emitter the ladder SVG used before its labels were
    memoized: every point of every chain formatted with `:.2f`."""
    width, margin, row_h = 640.0, 50.0, 36.0
    rows = list(samples.items())
    elements = []
    for r, (label, sample) in enumerate(rows):
        y0 = margin + r * row_h
        elements.append(_old_text(8.0, y0 + 4.0, f"N={label}"))
        for chain in sample.chains:
            xs = [margin + c * (width - 2 * margin) for c in chain.coords]
            pts = [(x, y0 + 10.0 * k / (len(xs) or 1))
                   for k, x in enumerate(xs[:6])]
            elements.append(f'<circle cx="{pts[0][0]:.2f}" '
                            f'cy="{pts[0][1]:.2f}" r="1.2" '
                            f'fill="black"/>')
            if len(pts) > 1:
                coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
                elements.append(
                    f'<polyline points="{coords}" fill="none" '
                    f'stroke="#888" stroke-width="0.5"/>')
    _old_svg(path, width, max(140.0, margin + row_h * (len(rows) + 1)),
             "\n".join(elements).encode())


_SVG = "{http://www.w3.org/2000/svg}"
_NUM = r"\d+\.\d\d"
# the grammar of each kind of path the writers emit: dots and heads, each a
# zero-length subpath, and springs
_DOTS = re.compile(rf"(M{_NUM} {_NUM}h0)+")
_SPRINGS = re.compile(rf"(M{_NUM},{_NUM}( {_NUM},{_NUM})+)+")
_POINTS = re.compile(rf"{_NUM},{_NUM}( {_NUM},{_NUM})+")
_SPRING_STYLE = {"fill": "none", "stroke": "#888", "stroke-width": "0.5"}


def _svg_elements(path, width, height) -> list:
    """The elements of the SVG file at ``path``, parsed, once its root is
    checked: SVG's svg element, with the given size and viewBox."""
    root = ET.parse(path).getroot()
    w, h = f"{width:.0f}", f"{height:.0f}"
    assert root.tag == _SVG + "svg"
    assert root.attrib == {"width": w, "height": h, "viewBox": f"0 0 {w} {h}"}
    return list(root)


def _subpaths(el, grammar, width=None) -> list:
    """The subpaths of the path element ``el``, whose d must match
    ``grammar`` whole: (x, y) text pairs for dots, tuples of them for
    springs.  Checks the style too: a round-capped black dot of diameter
    ``width`` (the old circles' 2r), or a grey spring."""
    style = dict(el.attrib)
    d = style.pop("d")
    assert el.tag == _SVG + "path" and grammar.fullmatch(d), d[:80]
    if grammar is _SPRINGS:
        assert style == _SPRING_STYLE
        return [tuple(tuple(xy.split(",")) for xy in sub.split(" "))
                for sub in d.split("M")[1:]]
    assert float(style.pop("stroke-width")) == width
    assert style == {"fill": "none", "stroke": "black",
                     "stroke-linecap": "round"}
    return [tuple(sub[:-2].split(" ")) for sub in d.split("M")[1:]]


def _numeric(marks) -> list:
    """Each decoded mark's coordinates as one tuple of floats."""
    return [tuple(map(float, re.findall(_NUM, repr(m)))) for m in marks]


def _check_ladder_svg(tmp_path, samples) -> list:
    """Row by row, the ladder SVG draws the per-chain emitter's distinct
    marks once each: the row's label, a grey path of its springs (none for
    chains of one coordinate), then a path of its heads, disks of the old
    circles' diameter, each path in ascending order of x.  Returns the
    decoded (heads, springs) of each row."""
    _ladder_svg(samples, str(tmp_path / "new.svg"))
    _old_ladder_svg(samples, str(tmp_path / "old.svg"))
    height = max(140.0, 50.0 + 36.0 * (len(samples) + 1))
    old = _svg_elements(tmp_path / "old.svg", 640.0, height)
    new = iter(_svg_elements(tmp_path / "new.svg", 640.0, height))
    rows = []
    for el in old:
        if el.tag == _SVG + "text":
            rows.append((el, set(), set(), set()))
        elif el.tag == _SVG + "circle":
            rows[-1][1].add((el.get("cx"), el.get("cy")))
            rows[-1][3].add(2 * float(el.get("r")))
        else:
            rows[-1][2].add(tuple(tuple(xy.split(","))
                                  for xy in el.get("points").split(" ")))
    drawn = []
    for text, heads, springs, (diameter,) in rows:
        got = next(new)
        assert (got.tag, got.attrib, got.text) == \
            (text.tag, text.attrib, text.text)
        got_springs = _subpaths(next(new), _SPRINGS) if springs else []
        got_heads = _subpaths(next(new), _DOTS, diameter)
        for got, want in ((got_heads, heads), (got_springs, springs)):
            assert len(got) == len(set(got)) and set(got) == want
            assert _numeric(got) == sorted(_numeric(got))
        drawn.append((got_heads, got_springs))
    assert next(new, None) is None
    return drawn


@pytest.mark.parametrize("system", [
    {"lam": 0.95}, {"lam": 0.6}, {"lam": 1.0},
    {"system": "constant", "p": -0.0},
], ids=["lambda=0.95", "lambda=0.6", "lambda=1.0", "constant-p=-0.0"])
def test_ladder_svg_matches_per_chain_emitter(tmp_path, system):
    samples = {k: s for k, s in _strata(N=6, depth=10, density=20,
                                        **system).items() if s is not None}
    _check_ladder_svg(tmp_path, samples)


@settings(max_examples=20, deadline=None)
@given(lam=st.floats(0.5, 1.0, exclude_min=True), N=st.integers(0, 4),
       depth=st.integers(1, 8), density=st.integers(1, 16))
def test_ladder_svg_matches_per_chain_emitter_across_lambda(tmp_path_factory,
                                                            lam, N, depth,
                                                            density):
    samples = {k: s for k, s in _strata(N=N, depth=depth, density=density,
                                        lam=lam).items() if s is not None}
    _check_ladder_svg(tmp_path_factory.mktemp("ladder"), samples)


@pytest.mark.parametrize("lam, drawn", [(0.95, 8778), (0.6, 2575)])
def test_ladder_svg_at_benchmark_size_draws_each_element_once(tmp_path, lam,
                                                              drawn):
    samples = {k: s for k, s in _strata(N=10, depth=20, density=60,
                                        lam=lam).items() if s is not None}
    rows = _check_ladder_svg(tmp_path, samples)
    assert sum(len(h) + len(s) for h, s in rows) == drawn
    old = (tmp_path / "old.svg").read_text().splitlines()
    assert drawn < sum(line.startswith(("<circle", "<polyline"))
                       for line in old)


def test_ladder_svg_keeps_distinct_marks_across_blocks(tmp_path):
    # 2 * _BLOCK + 3 chains drawn from five rows: copies fall in one block
    # and across blocks, and two rows share a head but not a spring
    pool = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.4], [0.5, 0.6, 0.7],
                     [0.9, 0.0, 0.1], [0.25, 0.5, 0.75]])
    pick = np.random.default_rng(7).integers(0, len(pool), 2 * _BLOCK + 3)
    strata = {"2": StratumSample(2, ChainRows(pool[pick], True), 4)}
    [(heads, springs)] = _check_ladder_svg(tmp_path, strata)
    assert len(heads) == 4 and len(springs) == 5


def test_ladder_svg_of_single_coordinate_chains_draws_circles_only(tmp_path):
    samples = {k: s for k, s in _strata(N=0, depth=6, density=12,
                                        lam=0.9).items() if s is not None}
    assert samples["0"].chains.coords.shape[1] == 1
    [(heads, springs)] = _check_ladder_svg(tmp_path, {"0": samples["0"]})
    assert heads and not springs
    assert "#888" not in (tmp_path / "new.svg").read_text()


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.integers(-2**63, 2**63 - 1)
                       | st.integers(0, 2**20 + 1), max_size=60),
       cut=st.integers(0, 60))
def test_indexed_numbers_values_as_unique_does(values, cut):
    # values in [0, 2**20) go through a table, the others through a sort
    flat = np.array(values, dtype=np.int64)
    parts = [flat[:cut], flat[cut:].reshape(-1, 1)]
    labels, idx = _indexed(parts, lambda v: [str(x) for x in v.tolist()])
    distinct = np.unique(flat)
    assert labels.tolist() == [str(x) for x in distinct.tolist()]
    for part, ix in zip(parts, idx):
        assert ix.dtype == np.int32 and ix.shape == part.shape
        assert (distinct[ix] == part).all()


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
    assert {"-0.0", "0.0", "5e-324"} <= set(_coord_tokens(text))


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
    with pytest.raises(ValueError, match=f"stratum 'inf' has the "
                                         f"coordinate {bad!r}, "):
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


def _check_bifurcation_svg(path, lambda_min=0.74, lambda_max=1.0,
                           steps=2000) -> None:
    """The bifurcation SVG at ``path`` draws each dot of the per-dot
    emitter once: its paths' subpaths are the old circles' (cx, cy), none
    twice, in ascending (cx, cy) order, each a disk of the old diameter
    2r; then come the two axis labels."""
    *paths, left, right = _svg_elements(path, 800.0, 520.0)
    old = [dot.split('"') for dot in _old_bifurcation_dots(
        lambda_min, lambda_max, steps)]
    (diameter,) = {2 * float(dot[5]) for dot in old}
    dots = [d for el in paths for d in _subpaths(el, _DOTS, diameter)]
    assert len(dots) == len(set(dots))
    assert set(dots) == {(dot[1], dot[3]) for dot in old}
    assert _numeric(dots) == sorted(_numeric(dots))
    for el, x, s in ((left, "40.00", lambda_min), (right, "720.00",
                                                   lambda_max)):
        assert (el.tag, el.text) == (_SVG + "text", f"{s:.3f}")
        assert (el.get("x"), el.get("y")) == (x, "512.00")


@pytest.mark.parametrize("steps", [60, 2000])
def test_bifurcate_svg_draws_each_old_dot_once(tmp_path, steps):
    out = str(tmp_path / "bif")
    args = ["bifurcate", "--n-max", "2", "--format", "svg", "-o", out]
    if steps != 2000:  # 2000 is the default sweep
        args += ["--steps", str(steps)]
    assert run(args) == 0
    svg = (tmp_path / "bif.svg").read_text()
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")
    _check_bifurcation_svg(tmp_path / "bif.svg", steps=steps)


@settings(max_examples=30, deadline=None)
@given(bounds=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=2,
                       max_size=2, unique=True).map(sorted),
       steps=st.integers(1, 200))
@example(bounds=[0.74, 1.0], steps=1)
def test_bifurcate_svg_draws_each_old_dot_once_across_ranges(
        tmp_path_factory, bounds, steps):
    lo, hi = bounds
    out = tmp_path_factory.mktemp("bif") / "bif"
    assert run(["bifurcate", "--n-max", "1", "--lambda-min", repr(lo),
                "--lambda-max", repr(hi), "--steps", str(steps),
                "--format", "svg", "-o", str(out)]) == 0
    _check_bifurcation_svg(out.with_suffix(".svg"), lo, hi, steps)


def _global_sort_svg(path, lambda_min, lambda_max, steps):
    """The bifurcation SVG as `bifurcate` would write it with its dots not
    grouped by column: one sort and one byte matrix of every dot key of
    the diagram, written as one path."""
    lams = np.linspace(lambda_min, lambda_max, steps)
    pts = _sweep_chunk(lams, burn_in=600, keep=120)
    width, height, margin = 800.0, 520.0, 40.0
    span = lambda_max - lambda_min
    cx = decimal_rint(margin + (lams - lambda_min) / span *
                      (width - 2 * margin), 2)
    cy = decimal_rint(height - margin - pts * (height - 2 * margin), 2)
    base = int(cy.max()) + 1
    key = np.sort((cx * base + cy).ravel())
    key = key[np.r_[True, key[1:] != key[:-1]]]
    dots = _byte_rows([b"M", b" ", b"h0"], [_centi_digits(key // base),
                                            _centi_digits(key % base)])
    labels = [_old_text(margin, height - 8.0, f"{lambda_min:.3f}"),
              _old_text(width - margin - 40.0, height - 8.0,
                        f"{lambda_max:.3f}")]
    _old_svg(path, width, height, b'<path d="' + dots + b'" '
             + _ROUND_MARKS.format(0.8).encode() + b"/>\n"
             + "\n".join(labels).encode())


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
    # a path per group, which joined make the one path of a global sort
    lo, hi = bounds
    d = tmp_path_factory.mktemp("bif")
    assert run(["bifurcate", "--n-max", "1", "--lambda-min", repr(lo),
                "--lambda-max", repr(hi), "--steps", str(steps),
                "--format", "svg", "-o", str(d / "new")]) == 0
    _global_sort_svg(str(d / "old.svg"), lo, hi, steps)
    cut = f'" {_ROUND_MARKS.format(0.8)}/>\n<path d="'.encode()
    new = (d / "new.svg").read_bytes()
    assert new.replace(cut, b"") == (d / "old.svg").read_bytes()
    cx = decimal_rint(40.0 + (np.linspace(lo, hi, steps) - lo) / (hi - lo)
                      * 720.0, 2)
    assert new.count(b"<path ") == len(_column_groups(cx))


def _count_sweeps(monkeypatch) -> list:
    """The column counts of the `_sweep_chunk` calls made from now on."""
    calls, sweep = [], cli._sweep_chunk
    monkeypatch.setattr(cli, "_sweep_chunk", lambda lams, *args: (
        calls.append(lams.size), sweep(lams, *args))[1])
    return calls


@pytest.mark.parametrize("steps", [60, 2000])
def test_pinned_and_benchmark_sweeps_are_one_block(tmp_path, monkeypatch,
                                                   steps):
    calls = _count_sweeps(monkeypatch)
    assert run(["bifurcate", "--n-max", "1", "--steps", str(steps),
                "--format", "svg", "-o", str(tmp_path / "bif")]) == 0
    assert calls == [steps]


def test_bifurcate_sweeps_blocks_within_sweep_bytes(tmp_path, monkeypatch):
    # 10,000 columns hold 9.6 MB of kept orbit points at once by default;
    # a 256 kB cap sweeps them in blocks of two groups and gives the same
    # bytes, holding the block and a few copies of one group's text (its
    # digit matrix, its joined rows and those without NUL bytes)
    args = ["bifurcate", "--n-max", "1", "--steps", "10000", "--format",
            "svg", "-o"]
    peaks, calls = [], _count_sweeps(monkeypatch)
    for cap, out in ((cli.SWEEP_BYTES, "one"), (1 << 18, "blocks")):
        monkeypatch.setattr(cli, "SWEEP_BYTES", cap)
        tracemalloc.start()
        try:
            assert run(args + [str(tmp_path / out)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    svg = (tmp_path / "blocks.svg").read_bytes()
    assert svg == (tmp_path / "one.svg").read_bytes()
    assert calls[0] == 10000 and sum(calls[1:]) == 10000
    assert len(calls) > 10 and max(calls[1:]) * 8 * (120 + 4) <= 1 << 18
    group = max(len(line) for line in svg.splitlines())
    assert peaks[0] > 120 * 10000 * 8
    assert peaks[1] < (1 << 18) + 5 * group


def test_bifurcate_sweeps_each_distinct_lambda_once(tmp_path, monkeypatch):
    # 30,000 columns on a range two ulp wide share three lambdas and three
    # groups; a group of 10,000 columns held 94 MB of orbit points.  Swept
    # once per lambda, the peak is what the columns' cx take to compute
    # (lambda, cx and decimal_rint's temporaries), the cap and one group's
    # text
    steps, (lo, hi) = 30000, _ULP_RANGE
    calls = _count_sweeps(monkeypatch)
    monkeypatch.setattr(cli, "SWEEP_BYTES", 1 << 18)
    run(["bifurcate", "--n-max", "1", "--steps", "10", "--format", "svg",
         "-o", str(tmp_path / "warm")])  # first calls import lazily
    calls.clear()
    tracemalloc.start()
    try:
        lams = np.linspace(lo, hi, steps)
        decimal_rint(40.0 + (lams - lo) / (hi - lo) * 720.0, 2)
        columns = tracemalloc.get_traced_memory()[1]
        del lams
        tracemalloc.reset_peak()
        assert run(["bifurcate", "--n-max", "1", "--lambda-min", repr(lo),
                    "--lambda-max", repr(hi), "--steps", str(steps),
                    "--format", "svg", "-o", str(tmp_path / "bif")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [3]
    svg = (tmp_path / "bif.svg").read_bytes()
    assert svg.count(b"<path ") == 3
    group = max(len(line) for line in svg.splitlines())
    assert peak < columns + (1 << 18) + group
    _global_sort_svg(str(tmp_path / "old.svg"), lo, hi, steps)
    cut = f'" {_ROUND_MARKS.format(0.8)}/>\n<path d="'.encode()
    assert svg.replace(cut, b"") == (tmp_path / "old.svg").read_bytes()


@pytest.mark.parametrize("argv, height", [
    (["extend", "--lambda", "0.9", "--N", "4", "--format", "svg"], 302.0),
    (["extend", "--system", "constant", "--N", "4", "--format", "svg"],
     302.0),
    (["extend", "--system", "rotation", "--tau", "0.3", "--N", "6",
      "--format", "svg"], 242.0),
    (["bifurcate", "--n-max", "1", "--steps", "300", "--format", "svg"],
     520.0),
    (["continuum-graph", "--regime", "cascade", "--n", "3", "--format",
      "svg"], 480.0),
    (["continuum-graph", "--regime", "mu", "--n", "2", "--format", "svg"],
     480.0),
], ids=["extend-logistic", "extend-constant", "extend-rotation", "bifurcate",
        "continuum-graph-cascade", "continuum-graph-mu"])
def test_svg_outputs_are_well_formed(tmp_path, argv, height):
    # each writer's file parses as XML, with the root it wrote and every
    # path and polyline in the exact grammar it emits
    assert run(argv + ["-o", str(tmp_path / "fig")]) == 0
    width = 800.0 if argv[0] == "bifurcate" else 640.0
    for el in _svg_elements(tmp_path / "fig.svg", width, height):
        if el.tag == _SVG + "path":
            assert (_SPRINGS if el.get("stroke") == "#888"
                    else _DOTS).fullmatch(el.get("d"))
        elif el.tag == _SVG + "polyline":
            assert _POINTS.fullmatch(el.get("points"))
        else:
            assert el.tag == _SVG + "text"


def test_ulp_range_cuts_a_group_inside_a_run():
    lams = np.linspace(*_ULP_RANGE, 3 * cli._COLUMN_GROUP)
    cx = decimal_rint(40.0 + (lams - _ULP_RANGE[0])
                      / (_ULP_RANGE[1] - _ULP_RANGE[0]) * 720.0, 2)
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
    u, inv = np.unique(decimal_rint(v, 2), return_inverse=True)
    labels = np.array(_centi_labels(u), dtype=object)
    assert labels[inv].tolist() == [f"{x:.2f}" for x in v.tolist()]


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


def test_bifurcate_n_max_above_the_last_resolvable_stage_fails_at_once(
        tmp_path, capsys, monkeypatch):
    # --n-max 30 would run Newton solves over orbits of 2**29 points
    monkeypatch.setattr(cli.lg.CascadeTable, "build", None)  # never reached
    out = str(tmp_path / "bif")
    assert run(["bifurcate", "--n-max", "30", "--format", "svg",
                "-o", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --n-max 30 is above its cap 13")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("N_max", [14, 15, 30, 10**9])
def test_n_max_cap_is_a_named_value_error(N_max):
    assert cli.lg.N_RESOLVABLE == 13
    RunConfig("bifurcate", N_max=13).validate()
    with pytest.raises(ArgumentTooLarge, match=f"--n-max {N_max} .* 13"):
        RunConfig("bifurcate", N_max=N_max).validate()
    assert issubclass(ArgumentTooLarge, ValueError)


def test_bifurcate_steps_above_the_cap_fail_before_any_allocation(
        tmp_path, capsys, monkeypatch):
    # --steps 10**8 would hold about 4.8 GB of columns before any sweep
    monkeypatch.setattr(cli.lg.CascadeTable, "build", None)  # never reached
    tracemalloc.start()
    try:
        code = run(["bifurcate", "--steps", str(10**8), "--format", "svg",
                    "-o", str(tmp_path / "bif")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and peak < 1 << 18
    assert capsys.readouterr().err.startswith(
        f"error: --steps 100000000 is above its cap {cli.STEPS_CAP}")
    assert not list(tmp_path.iterdir())
    RunConfig("bifurcate", steps=cli.STEPS_CAP).validate()
    with pytest.raises(ArgumentTooLarge, match="--steps 349526 .* 349525"):
        RunConfig("bifurcate", steps=cli.STEPS_CAP + 1).validate()


def test_steps_cap_keeps_the_columns_within_sweep_bytes(tmp_path,
                                                        monkeypatch):
    # at the cap, what bifurcate holds before its first sweep is the
    # columns' SWEEP_BYTES (within 1%: the 48 bytes a column were measured
    # with one numpy) and what it holds at 10 steps
    class Swept(Exception):
        pass

    def first_sweep(*args):
        peaks.append(tracemalloc.get_traced_memory()[1])
        raise Swept

    peaks = []
    monkeypatch.setattr(cli, "_sweep_chunk", first_sweep)
    tracemalloc.start()
    try:
        for steps in (10, cli.STEPS_CAP):
            with pytest.raises(Swept):
                cli.cmd_bifurcate(RunConfig(
                    "bifurcate", N_max=1, steps=steps, format="svg",
                    output=str(tmp_path / "bif")))
    finally:
        tracemalloc.stop()
    assert cli.STEPS_CAP * 48 <= cli.SWEEP_BYTES < (cli.STEPS_CAP + 1) * 48
    assert peaks[1] - peaks[0] <= 1.01 * cli.SWEEP_BYTES


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


def _classify_doc(lam, d) -> dict:
    out = d / "cls"
    assert run(["classify", "--lambda", repr(lam), "-o", str(out)]) == 0
    return json.loads(out.with_suffix(".json").read_text())


def test_classify_regime_and_command_share_lambda_inf(tmp_path):
    # 1e-10 past the command's lambda_inf band, and 1.9e-10 inside the one
    # a lambda_1..7 estimate would give
    lam = 0.8934864180801935
    doc = _classify_doc(lam, tmp_path)
    assert lg.classify_regime(lam).tag == doc["tag"] == "ChaoticUnclassified"
    assert doc["params"]["lambda_inf"] == \
        lg.classify_regime(lam).params["lambda_inf"]


def _in_a_command_window(lam) -> bool:
    """Whether lam lies in a window `classify` checks, or in one of the
    doublings it checks inside it."""
    table = lg.CascadeTable.build(n_windows=cli.CLASSIFY_WINDOWS,
                                  cascade_m=cli.CLASSIFY_WINDOW_CASCADE)
    return any(c[0] < lam <= c[-1] for c in table.window_cascades.values())


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0.25, 1.0, exclude_min=True))
@example(lam=0.8934864180801935)
@example(lam=0.8924864179801935 - 1e-3)
@example(lam=1.0)
def test_classify_regime_agrees_with_the_command(tmp_path_factory, lam):
    assume(not _in_a_command_window(lam))
    doc = _classify_doc(lam, tmp_path_factory.mktemp("cls"))
    regime = lg.classify_regime(lam)
    assert (regime.tag, regime.n) == (doc["tag"], doc["n"])


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


@pytest.mark.parametrize("n", [1, 2, 3, 6, 7])
@pytest.mark.parametrize("regime", ["cascade", "mu"])
def test_bucket_handle_svg_is_the_polyline_canvas(tmp_path, regime, n):
    # the figure as the canvas's polyline method drew it, one element per
    # arc of the embedding (sin and cos make a pinned digest
    # platform-dependent)
    out = tmp_path / "g"
    assert run(["continuum-graph", "--regime", regime, "--n", str(n),
                "--format", "svg", "-o", str(out)]) == 0
    lines = []
    for poly in lg.bjk_embedding(resolution=max(2, min(n, 6))):
        pts = [(40.0 + x * 560.0, 440.0 - y * 400.0) for x, y in poly]
        if len(pts) >= 2:
            coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
            lines.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="black" stroke-width="0.8"/>')
    _old_svg(tmp_path / "old.svg", 640.0, 480.0, "\n".join(lines).encode())
    assert out.with_suffix(".svg").read_bytes() == \
        (tmp_path / "old.svg").read_bytes()


def test_graph_node_counts_match_the_graphs():
    for n in range(1, 9):
        for regime, m, r in [("cascade", 0, lg.Regime.cascade_stage(n)),
                             ("mu", 0, lg.Regime.mu_point(n)),
                             ("window", 0, lg.Regime.window(n))] + [
                ("window-cascade", m, lg.Regime.window_cascade_stage(n, m))
                for m in range(6)]:
            assert cli._graph_nodes(regime, n, m) == \
                len(lg.continuum_graph(r).nodes), (regime, n, m)


@pytest.mark.parametrize("args, flag, value, cap", [
    (["cascade", "--n", "40"], "--n", 40, 16),
    (["mu", "--n", "40"], "--n", 40, 16),
    (["cascade", "--n", "17"], "--n", 17, 16),
    (["window-cascade", "--n", "1", "--m", "40"], "--m", 40, 14),
    (["window-cascade", "--n", "1000000000", "--m", "1"], "--n",
     1000000000, 32767),
])
def test_continuum_graph_refuses_graphs_past_the_cap(tmp_path, capsys, args,
                                                     flag, value, cap):
    out = tmp_path / "g"
    tracemalloc.start()
    try:
        code = run(["continuum-graph", "--regime"] + args
                   + ["--format", "dot", "-o", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and not out.with_suffix(".dot").exists()
    assert f"error: {flag} {value} is above its cap {cap}: " \
        f"the {args[0]} graph would have more than {cli.GRAPH_NODE_CAP} " \
        f"nodes" in capsys.readouterr().err
    assert peak < 1 << 20


def test_graph_cap_admits_a_graph_of_exactly_the_cap(tmp_path):
    assert cli._graph_nodes("window-cascade", 32767, 1) == cli.GRAPH_NODE_CAP
    cli._check_graph_size(RunConfig("continuum-graph",
                                    regime="window-cascade", n=32767, m=1))
    with pytest.raises(ArgumentTooLarge, match="--n 32768 .* cap 32767"):
        cli._check_graph_size(RunConfig(
            "continuum-graph", regime="window-cascade", n=32768, m=1))
    # a window's graph has two nodes whatever --n is
    assert run(["continuum-graph", "--regime", "window", "--n", str(10**30),
                "--format", "dot", "-o", str(tmp_path / "w")]) == 0


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


@pytest.mark.parametrize("command, line, message", [
    ("extend", "N = 0", "N must be >= 1"),
    ("extend", "format = pdf", "extend does not write the format 'pdf'"),
    ("extend", "system = period3", "unknown interval system 'period3'"),
    ("continuum-graph", "regime = nope", "unknown regime 'nope'; choose "
     "from ['cascade', 'mu', 'window', 'window-cascade']"),
    ("operator-check", "system = nope", "unknown model system 'nope'; "
     "choose from ['constant', 'period3', 'rotation']"),
])
def test_config_file_errors_name_themselves_and_write_nothing(
        tmp_path, capsys, command, line, message):
    # the string keys pass _coerce as they are and fail where they are used
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert run([command, "--config", str(cfg),
                "-o", str(tmp_path / "x")]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == [cfg]


def test_each_command_takes_its_formats():
    for command, formats in cli.FORMATS.items():
        for fmt in formats:
            args = make_parser().parse_args([command, "--format", fmt])
            assert args.format == fmt
            RunConfig(command, format=fmt).validate()


@pytest.mark.parametrize("command, fmt", [
    (command, fmt) for command in ("classify", "rotation", "operator-check")
    for fmt in ("json", "csv", "svg", "dot")] + [
    ("extend", "csv"), ("extend", "dot"), ("bifurcate", "json"),
    ("bifurcate", "dot"), ("continuum-graph", "csv")])
def test_a_format_the_command_ignores_is_refused(tmp_path, capsys, command,
                                                 fmt):
    out = str(tmp_path / "x")
    with pytest.raises(SystemExit) as exc:
        run([command, "--format", fmt, "-o", out])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"format = {fmt}\n")
    assert run([command, "--config", str(cfg), "-o", out]) == 1
    assert capsys.readouterr().err.endswith(
        f"error: {command} does not write the format {fmt!r}\n")
    assert list(tmp_path.iterdir()) == [cfg]


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
        ".json": "e912b46f3dede2e78b3703f487440372"
                 "8a1798742f2ceb2d62f004f2bf17a6fc",
        ".svg": "de8abdddea5cdfea36a35f636d749861"
                "9804892e4c992a47f1ffa149c09faddc"}),
    (["extend", "--lambda", "0.6"] + _SMALL, {
        ".json": "629ddd8b54cadcdc8ca7897fe94fdf35"
                 "b2fe5aa01da03236ec997e773c5332b1",
        ".svg": "359c338834490d9713d0e25b621cc302"
                "80482c339a20c2591037e98eac201751"}),
    (["extend", "--system", "constant", "--N", "3", "--depth", "8",
      "--density", "12", "--format", "svg"], {
        ".json": "1f80398e2ab2dabc7c8be1b162c3dcab"
                 "e2233a20475faab19ff939e8af26f928",
        ".svg": "15978f7b055c9e94a0aea5c9904697f7"
                "03e30d0ac99d7badec00d124cbd6c7b1"}),
    # every finite stratum empty
    (["extend", "--lambda", "1.0"] + _SMALL, {
        ".json": "dcbef43c1ae3b6de742a9c1a7eae9386"
                 "2b9ed15961970efa8af0f8f04f2a70d5",
        ".svg": "6c26a549dc62c17e8d42331a09e98b85"
                "1e7f03561a105733d76050e4af2b4ab4"}),
    # a signed zero in every chain
    (["extend", "--p", "-0.0", "--system", "constant", "--N", "3",
      "--depth", "8", "--density", "12", "--format", "svg"], {
        ".json": "ca8c5e52f03065f51b0faaa3dda09272"
                 "d2b0661ce032ce572895da0b0830be2e",
        ".svg": "465e77df6643e94e65dd585794f7c6f1"
                "073a0caa13c872616d692cd574b4fb4c"}),
    (["extend", "--system", "rotation", "--tau", "0.25", "--gamma0", "0.25",
      "--N", "6", "--format", "svg"], {
        ".json": "03b19c90a2006d9a8bc19eaa4fa20129"
                 "d42c66188c798ea4ad0cedcc677a5ed3",
        ".svg": "8337ce732e9227b205504ae72c77f055"
                "29c810317b2bbb71984df4b21a960394"}),
    (["bifurcate", "--n-max", "2", "--steps", "60", "--format", "svg"], {
        ".csv": "0f80fa091d2ae5e06ea2b51ac01c5502"
                "c40ad526177e1190ab997c5ccd50a808",
        ".svg": "7ab4e4638c06f3d716155538cac4b0d4"
                "79227207647d8640c206652f612edacb"}),
] + [
    (["operator-check", "--system", system, "--depth", "6"], {
        ".json": "0bd41421638eab5899969ac1109c9f90"
                 "dd55f558718152ab35235ec782312714"})
    for system in ("constant", "rotation", "period3")
] + [
    # a cascade stage, a window, the lambda_inf band and a chaotic lambda
    (["classify", "--lambda", lam], {".json": digest})
    for lam, digest in (
        ("0.8", "3ff841d5e7c14b1d1a3460a1bdec3e02"
                "18dc1cae07dba8bed6c5c83c15688593"),
        ("0.958", "915922a29e2e43305367759bbd6d2282"
                  "44105e39fbc6aceb8a7091f19f1c0a52"),
        ("0.8925", "2fe9e562c87b1cafc5b04a61d25aff9e"
                   "ffbff4e4c74502382b2abd7f1a8b168e"),
        ("0.97", "2ff72ec8e3fcd853a27819887d9d1805"
                 "994d746d91cc091b9589e4041e29f71a"))
] + [
    (["continuum-graph", "--regime"] + args + ["--format", fmt],
     {"." + fmt: digest})
    for args, fmt, digest in (
        (["cascade", "--n", "3"], "dot",
         "122907936d811b41b244684d3583115518d3160022ab2d03f45bd6c598e3fc34"),
        (["cascade", "--n", "3"], "json",
         "bd4fdef6f7afe1529a52e8cf8ad5b5bac9e75a738af1203eea65ad5d9fc6f864"),
        (["mu", "--n", "2"], "dot",
         "6a2c3294a2a0f8dd257b3d292d9f384bca766085660f7a170db8c0eb6a634ccb"),
        (["mu", "--n", "2"], "json",
         "5acce8620f239e0928a6c0b305778553fb635c66c61828960f69a85d42286df1"),
        (["window", "--n", "1"], "dot",
         "ff72b3febd1a8670e2c29c0785092d602880ad50f3bf77cf2d812669e3a4b810"),
        (["window", "--n", "1"], "json",
         "ee783744a58fcb094bdc789616df25adaceae3d509cc322b438ab1684a4b1756"),
        (["window-cascade", "--n", "1", "--m", "2"], "dot",
         "4c65a6be4521fbde4964b36779754cc1e65deaba410d59594f360482377943de"),
        (["window-cascade", "--n", "1", "--m", "2"], "json",
         "672ac399f08bb2807584478b4864b5aac75f8291da099fe58c7ef5c04c593761"))
]


# `extend` and `bifurcate` at the sizes the benchmark times them
_BENCH = ["--N", "10", "--depth", "20", "--density", "60", "--format", "svg"]
_PINNED_BENCH = [
    (["extend", "--lambda", "0.95"] + _BENCH, {
        ".json": "b956d3bc4d9aab541e0d5bbc3f6eb507"
                 "26167ee2575fa7af525eaab5eccf2854",
        ".svg": "45fdb37879c567c77a0b5e8237135440"
                "7d7ee38a6f2cf4e09196e1cb0b8d91f6"}),
    (["extend", "--lambda", "0.6"] + _BENCH, {
        ".json": "c8d0ed54733241247ae44fb35f090591"
                 "f648a778b5afeb12b067a74235fb90ec",
        ".svg": "dc0d6ebeca7efcd4109fe20db342de2e"
                "d32c073951dbae9d6eeecdd51c4a9d0c"}),
    (["bifurcate", "--n-max", "12", "--steps", "2000", "--format", "svg"], {
        ".csv": "8bd4472c12f28c884c2a9a445c01640d"
                "10d289f772f1d0b532f73504ad71e1d4",
        ".svg": "4f8f9f7a21964ce34b52caa2d24fbb40"
                "28e1f32c1ee6aecee231685fe9186dbf"}),
]


def _check_digests(tmp_path, args, digests):
    out = tmp_path / "out"
    assert run(args + ["-o", str(out)]) == 0
    for suffix, digest in digests.items():
        data = out.with_suffix(suffix).read_bytes()
        got = hashlib.sha256(data).hexdigest()
        assert got == digest, f"{suffix}: sha256 {got}"


@pytest.mark.parametrize("args, digests", _PINNED,
                         ids=[" ".join(a[:3]) for a, _ in _PINNED])
def test_outputs_match_pinned_digests(tmp_path, args, digests):
    _check_digests(tmp_path, args, digests)


@pytest.mark.parametrize("args, digests", _PINNED_BENCH,
                         ids=[" ".join(a[:3]) for a, _ in _PINNED_BENCH])
def test_benchmark_size_extend_matches_pinned_digests(tmp_path, args,
                                                      digests):
    _check_digests(tmp_path, args, digests)
