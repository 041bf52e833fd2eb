"""Command-line front end: stratum sampling, bifurcation tables and
diagrams, regime classification, continuum graphs, rotation numbers, and
operator-model verification, with JSON/CSV/DOT/SVG output.

Config files are flat ``key=value`` text; command-line flags override
config values.  All commands are deterministic (fixed grids, no random
seeds), so re-running reproduces outputs bit-identically.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import circle as ci
from . import logistic as lg
from . import operator_model as om
from .core import decimal_rint, make_constant_system
from .extension import (INF, EmptyStratum, ExtensionSpec, backward_search,
                        sample_stratum)


# ---------------------------------------------------------------------------
# Config


class ArgumentTooLarge(ValueError):
    """An argument above the cap past which its command cannot finish or
    its output means nothing."""

    def __init__(self, flag: str, value, cap, why: str):
        super().__init__(f"{flag} {value} is above its cap {cap}: {why}")


@dataclass
class RunConfig:
    command: str
    system: str = "logistic"
    lam: float = 0.6
    tau: float = 0.25
    gamma0: Optional[float] = None
    perturbation: float = 0.0
    p: float = 1.0 / 3.0
    N: int = 10
    N_max: int = 8
    depth: int = 20
    density: int = 60
    n_iter: int = 100_000
    n: int = 1
    m: int = 0
    regime: str = "cascade"
    lambda_min: float = 0.74
    lambda_max: float = 1.0
    steps: int = 2000
    output: str = "out"
    format: Optional[str] = None

    def validate(self) -> None:
        for name in ("N", "N_max", "depth", "density", "n_iter", "steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (0.0 < self.lam <= 1.0):
            raise ValueError("lambda must be in (0, 1]")
        if not all(map(math.isfinite, (self.tau, self.gamma0 or 0.0))):
            raise ValueError("tau and gamma0 must be finite")
        if not (0.0 < self.lambda_min < self.lambda_max <= 1.0):
            raise ValueError("need 0 < lambda_min < lambda_max <= 1, got "
                             f"lambda_min={self.lambda_min}, "
                             f"lambda_max={self.lambda_max}")
        if self.N_max > lg.N_RESOLVABLE:
            raise ArgumentTooLarge(
                "--n-max", self.N_max, lg.N_RESOLVABLE,
                f"lambda_n past n = {lg.N_RESOLVABLE} is not resolvable "
                "in float64")
        if self.steps > STEPS_CAP:
            raise ArgumentTooLarge(
                "--steps", self.steps, STEPS_CAP,
                f"the columns would take more than {SWEEP_BYTES} bytes "
                "before the sweep")
        if self.format not in (None, *FORMATS.get(self.command, ())):
            raise ValueError(f"{self.command} does not write the format "
                             f"{self.format!r}")


def read_config_file(path: str) -> dict:
    """Flat key=value lines; '#' starts a comment; blank lines ignored."""
    out: dict = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key] = val
    return out


_FIELD_TYPES = {f: t for f, t in RunConfig.__annotations__.items()}
_PARSERS = {"int": int, "float": float, "Optional[float]": float}
# --format values per command (the others write JSON only): the first is
# always written, but dot writes the DOT graph in place of the JSON.
FORMATS = {"extend": ("json", "svg"), "bifurcate": ("csv", "svg"),
           "continuum-graph": ("json", "dot", "svg")}


def _coerce(name: str, value: str):
    parse = _PARSERS.get(_FIELD_TYPES[name])
    if parse is None:
        return value
    try:
        return parse(value)
    except ValueError:
        raise ValueError(f"config key {name!r}: expected "
                         f"{parse.__name__}, got {value!r}") from None


def build_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = read_config_file(args.config) if args.config else {}
    settable = [name for name in _FIELD_TYPES if name != "command"]
    for key in file_cfg:
        if key not in settable:
            raise ValueError(f"unknown config key {key!r}; valid keys: "
                             f"{', '.join(settable)}")
    cfg = RunConfig(command=args.command)
    for name in settable:
        if name in file_cfg:
            setattr(cfg, name, _coerce(name, file_cfg[name]))
        cli_val = getattr(args, name, None)
        if cli_val is not None:
            setattr(cfg, name, cli_val)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Minimal SVG emitter


def _write_svg(path: str, width: float, height: float, body) -> None:
    """Write an SVG file, its elements the iterable ``body`` of ASCII
    ``bytes`` chunks, one element per line."""
    with open(path, "wb") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'width="{width:.0f}" height="{height:.0f}" '
                 f'viewBox="0 0 {width:.0f} {height:.0f}">\n'.encode())
        fh.writelines(body)
        fh.write(b"\n</svg>\n")


# The style of a path of zero-length subpaths, each painted as a black disk
# whose diameter is the stroke width.
_ROUND_MARKS = ('fill="none" stroke="black" stroke-width="{}" '
                'stroke-linecap="round"')


def _polyline(pts, width: float) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
    return (f'<polyline points="{coords}" fill="none" stroke="black" '
            f'stroke-width="{width}"/>')


def _text(x: float, y: float, s: str) -> str:
    return (f'<text x="{x:.2f}" y="{y:.2f}" font-size="11" '
            f'font-family="monospace">{s}</text>')


# Chains (marks, in the ladder) per block of the `extend` writers: each
# block's text is one join, written at once, so neither holds a stratum,
# let alone a file, as one string.
_BLOCK = 512


def _indexed(parts: list, fmt):
    """Each distinct value of the int64 arrays ``parts`` formatted once:
    ``fmt`` maps the sorted distinct values to their labels.  Returns the
    labels as an object array and, per part, the int32 indices of its
    entries among them, in its shape.  Values all in [0, 2**20), such as
    pixel hundredths, are numbered through a table of the values seen;
    others by a sort, whose temporaries are freed before ``fmt`` runs
    (``np.unique`` with ``return_inverse`` takes about twice the temporary
    arrays)."""
    flat = np.concatenate([np.empty(0, np.int64)]
                          + [p.ravel() for p in parts])
    if flat.size and flat.min() >= 0 and flat.max() < 1 << 20:
        seen = np.zeros(flat.max() + 1, dtype=bool)
        seen[flat] = True
        distinct = np.flatnonzero(seen)
        rank = np.zeros(len(seen), dtype=np.int32)
        rank[distinct] = np.arange(len(distinct), dtype=np.int32)
        inv = rank[flat]
    else:
        perm = np.argsort(flat)
        flat = flat[perm]
        new = np.empty(len(flat), dtype=bool)
        new[:1] = True
        np.not_equal(flat[1:], flat[:-1], out=new[1:])
        inv = np.empty(len(flat), dtype=np.int32)
        inv[perm] = np.cumsum(new, dtype=np.int32) - 1
        distinct = flat[new]
        del perm, flat, new
    ends = np.cumsum([p.size for p in parts])
    return (np.array(fmt(distinct), dtype=object),
            [inv[e - p.size:e].reshape(p.shape) for p, e in zip(parts, ends)])


def _sorted_distinct_rows(a: np.ndarray) -> np.ndarray:
    """The distinct rows of the 2-D int array ``a``, in ascending
    lexicographic order (``np.unique``'s first call in a process imports
    ``numpy.ma``: 12 ms with numpy 2.4)."""
    a = a[np.lexsort(a.T[::-1])]
    return a[np.r_[True, (a[1:] != a[:-1]).any(axis=1)]]


# ---------------------------------------------------------------------------
# Commands


def _extension_spec_for(cfg: RunConfig) -> ExtensionSpec:
    if cfg.system == "logistic":
        return lg.extension_spec(cfg.lam)
    if cfg.system == "constant":
        return ExtensionSpec(make_constant_system(cfg.p), ((0.0, 1.0),))
    raise ValueError(f"unknown interval system {cfg.system!r}")


def _ladder_svg(samples: dict, path: str) -> None:
    """Rows of strata (finite N top to bottom, infinite part last), each
    chain drawn as its head coordinate; successive coordinates of the same
    chain are offset into a short spring to hint at the backward orbit.
    The x labels are the first six columns in hundredths of a pixel
    (``decimal_rint`` to 2 digits), each distinct one formatted once by
    ``_centi_labels``, and the y labels are formatted once per row (a
    sampled stratum's chains share one length).

    A row is one grey path of springs, then one black path of heads above
    them; a head is a zero-length subpath ``Mx yh0``, which a round cap
    paints as a disk of diameter stroke-width 2.4.  Two marks of one row
    coincide exactly when their label indices do (column 0 for a head,
    every plotted column for a spring), and the order of the subpaths of a
    one-colour path does not change its picture, so each path holds its
    distinct marks once, in ascending order of their label indices.  A
    path's text goes to the file a block of marks at a time."""
    margin, row_h = 50.0, 36.0
    scale = 640.0 - 2 * margin
    xl, cx = _indexed([decimal_rint(margin + s.chains.coords[:, :6] * scale,
                                    2) for s in samples.values()],
                      _centi_labels)

    def one_path(marks, seps, style):
        # one subpath per row of marks: "M", then each label and its sep
        yield b'\n<path d="'
        for b in range(0, len(marks), _BLOCK):
            blk = marks[b:b + _BLOCK]
            tok = np.empty((len(blk), 1 + 2 * blk.shape[1]), dtype=object)
            tok[:, 0] = "M"
            tok[:, 1::2] = xl[blk]
            tok[:, 2::2] = seps
            yield "".join(tok.ravel().tolist()).encode()
        yield f'" {style}/>'.encode()

    def body():
        for r, (label, c) in enumerate(zip(samples, cx)):
            y0 = margin + r * row_h
            yield (("\n" if r else "")
                   + _text(8.0, y0 + 4.0, f"N={label}")).encode()
            n = samples[label].chains.coords.shape[1]
            ys = [f"{y0 + 10.0 * k / n:.2f}" for k in range(c.shape[1])]
            if n > 1:
                yield from one_path(
                    _sorted_distinct_rows(c),
                    [f",{y} " for y in ys[:-1]] + [f",{ys[-1]}"],
                    'fill="none" stroke="#888" stroke-width="0.5"')
            yield from one_path(_sorted_distinct_rows(c[:, :1]),
                                [f" {ys[0]}h0"], _ROUND_MARKS.format(2.4))

    _write_svg(path, 640.0, max(140.0, margin + row_h * (len(samples) + 1)),
               body())


def _write_strata_json(fh, strata: dict) -> None:
    """Write ``{key: stratum_to_json(sample)}``, with ``{"empty": true}``
    where the sample is None, in compact separators (``,`` and ``:``) with
    one line per stratum header and per chain, stratum by stratum and a
    block of chains at a time:

        {"0":{"N":0,"depth":20,"chains":[
        {"coords":[0.6],"terminal":true},
        ...]},
        "7":{"empty":true},
        "inf":{...}}

    Lines are joined by ``,\\n`` (a header ends in ``[`` and its first
    chain follows on the next line), and the file ends with ``}}\\n``.
    ``json.loads`` reads the document ``json.dump`` would write.  Each
    distinct coordinate bit pattern of the strata (so 0.0 and -0.0 apart)
    is formatted once, behind the comma that precedes every coordinate but
    a chain's first, which a chain's first token slices off, so a block
    joins one token per coordinate.  Raises ValueError, before writing, for
    a coordinate that is not finite: JSON has no NaN or infinity."""
    coords = {k: s.chains.coords for k, s in strata.items() if s is not None}
    for key, c in coords.items():
        bad = ~np.isfinite(c)
        if bad.any():
            raise ValueError(f"stratum {key!r} has the coordinate "
                             f"{float(c[bad][0])!r}, which JSON cannot hold")
    after, rows = _indexed(
        [c.view(np.int64) for c in coords.values()],
        lambda bits: ["," + repr(x) for x in bits.view(float).tolist()])
    rows = dict(zip(coords, rows))
    fh.write("{")
    sep = ""
    for key, sample in strata.items():
        fh.write(f"{sep}{json.dumps(key)}:")
        sep = ",\n"
        if sample is None:
            fh.write('{"empty":true}')
            continue
        N = '"inf"' if sample.N == INF else int(sample.N)
        fh.write(f'{{"N":{N},"depth":{sample.depth},"chains":[')
        c = rows[key]
        close = ('],"terminal":true}' if sample.chains.terminal else
                 '],"terminal":false}')
        for b in range(0, len(c), _BLOCK):
            blk = c[b:b + _BLOCK]
            tok = np.empty((len(blk), blk.shape[1] + 2), dtype=object)
            tok[:, 0] = ',\n{"coords":['
            tok[:, 1] = [t[1:] for t in after[blk[:, 0]].tolist()]
            tok[:, 2:-1] = after[blk[:, 1:]]
            tok[:, -1] = close
            if b == 0:
                tok[0, 0] = tok[0, 0][1:]
            fh.write("".join(tok.ravel().tolist()))
        fh.write("]}")
    fh.write("}\n")


def cmd_extend(cfg: RunConfig) -> int:
    if cfg.system == "rotation":
        # the lift t -> t + tau + offset has gamma(0) = tau + offset
        g0 = cfg.tau if cfg.gamma0 is None else cfg.gamma0
        offset = round(g0 - cfg.tau)
        if abs(g0 - cfg.tau - offset) > 1e-9:
            raise ValueError(f"gamma0 {g0!r} is not congruent to tau "
                             f"{cfg.tau!r} mod 1")
        h = ci.rigid_rotation(cfg.tau, offset=offset)
        shape = ci.extension_shape(h, N_max=cfg.N)
        with open(cfg.output + ".json", "w") as fh:
            json.dump(shape.to_json(), fh, indent=1)
        if cfg.format == "svg":
            margin, row_h = 50.0, 24.0
            scale = 640.0 - 2 * margin
            elements = []
            for N, o, e in shape.arcs:
                y = margin + N * row_h
                x0, x1 = (margin + o * scale,
                          margin + (e if e > o else e + 1.0) * scale)
                elements += [_polyline([(x0, y), (x1, y)], 2.0),
                             _text(8.0, y + 4.0, f"N={N}")]
            _write_svg(cfg.output + ".svg", 640.0,
                       max(140.0, margin + row_h * (cfg.N + 2)),
                       ["\n".join(elements).encode()])
        print(f"extension shape: {shape.kind}, {len(shape.arcs)} arcs")
        return 0

    spec = _extension_spec_for(cfg)
    Ns = list(range(cfg.N + 1)) + [INF]
    search = backward_search(spec, Ns, cfg.density, cfg.depth)
    strata = {}
    for N in Ns:
        try:
            strata[str(N)] = sample_stratum(spec, N, cfg.density,
                                            depth=cfg.depth, search=search)
        except EmptyStratum:
            strata[str(N)] = None
        del search.rows[N]  # frees them before the next stratum is sampled
    with open(cfg.output + ".json", "w") as fh:
        _write_strata_json(fh, strata)
    samples = {N: s for N, s in strata.items() if s is not None}
    if cfg.format == "svg":
        _ladder_svg(samples, cfg.output + ".svg")
    print(f"sampled {len(samples)} nonempty strata "
          f"({len(strata) - len(samples)} empty)")
    return 0


def _sweep_chunk(lams: np.ndarray, burn_in: int, keep: int) -> np.ndarray:
    x, l4 = np.full(lams.shape, 0.5), 4.0 * lams
    for _ in range(burn_in):
        x = l4 * x * (1.0 - x)
    out = np.empty((keep, lams.size))
    for k in range(keep):
        x = l4 * x * (1.0 - x)
        out[k] = x
    return out


def _centi_digits(c: np.ndarray) -> np.ndarray:
    """Non-negative integer hundredths as their ``:.2f`` text, right-aligned
    in one ``(len(c), w)`` uint8 block of ASCII bytes, with NUL bytes for
    the leading zeros of the integer part (whose units digit is always
    printed)."""
    c = np.asarray(c, dtype=np.int64)
    if c.size and c.min() < 0:
        raise ValueError("hundredths must be non-negative")
    w = len(str(int(c.max()) // 100 if c.size else 0)) + 3
    digits = np.empty((len(c), w), dtype=np.uint8)
    digits[:, -3] = ord(".")
    for j in (w - 1, w - 2, *range(w - 4, -1, -1)):  # right to left
        rest = c // 10
        digits[:, j] = c - 10 * rest + ord("0")
        if j < w - 4:  # above the units digit, c == 0 is a leading zero
            digits[:, j] *= c > 0
        c = rest
    return digits


def _byte_rows(consts: list, blocks: list) -> bytes:
    """Per row i: consts[0], row i of blocks[0], consts[1], ...,
    consts[-1], without the NUL bytes of the blocks; all rows as one bytes
    string."""
    n = len(blocks[0])
    cols = [None] * (2 * len(blocks) + 1)
    cols[0::2] = [np.broadcast_to(np.frombuffer(k, dtype=np.uint8),
                                  (n, len(k))) for k in consts]
    cols[1::2] = blocks
    return np.hstack(cols).tobytes().replace(b"\0", b"")


def _centi_labels(c: np.ndarray) -> list:
    """Non-negative integer hundredths as their ``:.2f`` text."""
    return _byte_rows([b"", b"\n"], [_centi_digits(c)]).decode().split(
        "\n")[:-1]


# Sweep columns per group of `bifurcate` dots, cut only where the printed
# cx changes: each group's dots are sorted, formatted and written on their
# own, so no array of the whole diagram's dots is held.
_COLUMN_GROUP = 128
# Bytes of orbit state `bifurcate` holds at once: it sweeps a block of
# consecutive column groups at a time, at 8 * (keep + 4) bytes a column
# (the kept rows, the state and the update's temporaries).
SWEEP_BYTES = 1 << 24
# `bifurcate` holds every column's lambda and cx, and decimal_rint's
# temporaries, at once before it sweeps: 48 bytes a column (tracemalloc,
# numpy 2.4), so --steps is capped where they would pass SWEEP_BYTES.
STEPS_CAP = SWEEP_BYTES // 48


def _column_groups(cx: np.ndarray) -> list:
    """Bounds [a, b) of consecutive column groups over the non-decreasing
    ``cx``, about _COLUMN_GROUP columns each, every cut at a column whose
    cx differs from the one before, so that the groups' cx ranges are
    disjoint and ascending."""
    runs = np.flatnonzero(cx[1:] != cx[:-1]) + 1  # first column of each run
    cuts = [0]
    while (k := np.searchsorted(runs, cuts[-1] + _COLUMN_GROUP)) < len(runs):
        cuts.append(int(runs[k]))
    return list(zip(cuts, cuts[1:] + [len(cx)]))


def cmd_bifurcate(cfg: RunConfig) -> int:
    table = lg.CascadeTable.build(n_max=cfg.N_max)
    table.to_csv(cfg.output + ".csv")
    print(f"cascade table written to {cfg.output}.csv")
    if cfg.format != "svg":
        return 0
    lams = np.linspace(cfg.lambda_min, cfg.lambda_max, cfg.steps)
    burn_in, keep = 600, 120
    width, height, margin = 800.0, 520.0, 40.0
    span = cfg.lambda_max - cfg.lambda_min
    # non-decreasing, as lams is
    cx = decimal_rint(margin + (lams - cfg.lambda_min) / span
                      * (width - 2 * margin), 2)
    # equal λ give equal orbits and cx: sweep and key each distinct λ once
    new = np.r_[True, lams[1:] != lams[:-1]]
    groups = np.cumsum(np.r_[0, new])[np.array(_column_groups(cx))]
    lams, cx = lams[new], cx[new]
    # consecutive groups, as many to a block as fit SWEEP_BYTES (at least
    # one); each column's orbit is its own, so blocks change no value
    blocks = [[]]
    for a, b in groups:
        if blocks[-1] and (b - blocks[-1][0][0]) * 8 * (keep + 4) \
                > SWEEP_BYTES:
            blocks.append([])
        blocks[-1].append((a, b))

    def dots():
        # Each distinct printed dot once: sort a group's (cx, cy) keys and
        # keep the first of each run (np.unique took about ten times as
        # long on these keys), so the dots come column by column in
        # ascending cy; the groups' cx ranges ascend, so group by group is
        # the order of one sort of all keys.  A group is one path of
        # zero-length subpaths, disks of diameter 0.8, its text one byte
        # matrix with a row per dot, written as one buffer.
        for block in blocks:
            s = block[0][0]
            pts = _sweep_chunk(lams[s:block[-1][1]], burn_in, keep)
            for a, b in block:
                cy = decimal_rint(height - margin - pts[:, a - s:b - s]
                                  * (height - 2 * margin), 2)
                base = int(cy.max()) + 1
                key = np.sort((cx[a:b] * base + cy).ravel())
                key = key[np.r_[True, key[1:] != key[:-1]]]
                yield b'<path d="'
                yield _byte_rows([b"M", b" ", b"h0"],
                                 [_centi_digits(key // base),
                                  _centi_digits(key % base)])
                yield f'" {_ROUND_MARKS.format(0.8)}/>\n'.encode()
            del pts  # before the next block is swept
        yield (_text(margin, height - 8.0, f"{cfg.lambda_min:.3f}") + "\n"
               + _text(width - margin - 40.0, height - 8.0,
                       f"{cfg.lambda_max:.3f}")).encode()

    _write_svg(cfg.output + ".svg", width, height, dots())
    print(f"bifurcation diagram written to {cfg.output}.svg")
    return 0


# Stability windows (and the doublings inside them) that `classify` checks.
CLASSIFY_WINDOWS = 3
CLASSIFY_WINDOW_CASCADE = 3


def cmd_classify(cfg: RunConfig) -> int:
    table = lg.CascadeTable.build(n_windows=CLASSIFY_WINDOWS,
                                  cascade_m=CLASSIFY_WINDOW_CASCADE)
    regime = lg.classify_regime(cfg.lam, table)
    doc = {"lambda": cfg.lam, "tag": regime.tag, "n": regime.n,
           "m": regime.m, "params": regime.params,
           "irreducible_continuum": regime.irreducible_continuum}
    with open(cfg.output + ".json", "w") as fh:
        json.dump(doc, fh, indent=1)
    print(f"lambda={cfg.lam}: {regime.tag}"
          + (f"(n={regime.n})" if regime.n is not None else ""))
    return 0


# Nodes a continuum graph may have.  The count doubles with each step of
# --n (of --m in a window), and so do time and memory: the cascade graph
# of 98,303 nodes (--n 16) takes 1.2 s and 200 MB of RSS.
GRAPH_NODE_CAP = 1 << 17


def _graph_nodes(regime: str, n: int, m: int) -> int:
    """The node count of the regime's continuum graph: 3 * 2**(k-1) - 1
    for the cascade stage k = n, 2 + (2n + 1) times that for the doubling
    stage k = m >= 1 of a window, 2 for a window and 2**(n+1) - 1 for a mu
    point.  Exponents are clamped at 64, where every count is far above
    the cap."""
    if regime == "mu":
        return 2 ** (min(n, 64) + 1) - 1
    if regime == "cascade":
        return 3 * 2 ** min(n, 64) // 2 - 1
    if regime == "window" or m == 0:
        return 2
    return 2 + (3 * 2 ** min(m, 64) // 2 - 1) * (2 * n + 1)


def _check_graph_size(cfg: RunConfig) -> None:
    """Raise ArgumentTooLarge when the graph would have more than
    GRAPH_NODE_CAP nodes: for --m if it would at --n 1, else for --n, with
    the largest value that fits as the cap."""
    for flag, value, nodes in (
            ("--m", cfg.m, lambda k: _graph_nodes(cfg.regime, 1, k)),
            ("--n", cfg.n, lambda k: _graph_nodes(cfg.regime, k, cfg.m))):
        if nodes(value) > GRAPH_NODE_CAP:
            # the counts grow with k
            cap = next(k for k in range(value)
                       if nodes(k + 1) > GRAPH_NODE_CAP)
            raise ArgumentTooLarge(
                flag, value, cap, f"the {cfg.regime} graph would have more "
                f"than {GRAPH_NODE_CAP} nodes")


def cmd_continuum_graph(cfg: RunConfig) -> int:
    builders = {
        "cascade": lambda: lg.Regime.cascade_stage(cfg.n),
        "mu": lambda: lg.Regime.mu_point(cfg.n),
        "window": lambda: lg.Regime.window(cfg.n),
        "window-cascade": lambda: lg.Regime.window_cascade_stage(cfg.n, cfg.m),
    }
    if cfg.regime not in builders:
        raise ValueError(f"unknown regime {cfg.regime!r}; choose from "
                         f"{sorted(builders)}")
    _check_graph_size(cfg)
    graph = lg.continuum_graph(builders[cfg.regime]())
    if cfg.format == "dot":
        with open(cfg.output + ".dot", "w") as fh:
            fh.write(graph.to_dot())
    else:
        with open(cfg.output + ".json", "w") as fh:
            json.dump(graph.to_json(), fh, indent=1)
    if cfg.format == "svg":
        arcs = lg.bjk_embedding(resolution=max(2, min(cfg.n, 6)))
        _write_svg(cfg.output + ".svg", 640.0, 480.0, ["\n".join(
            _polyline([(40.0 + x * 560.0, 440.0 - y * 400.0)
                       for x, y in poly], 0.8) for poly in arcs).encode()])
    print(f"{cfg.regime} graph: {len(graph.nodes)} nodes, "
          f"{len(graph.intersections)} intersections")
    return 0


def cmd_rotation(cfg: RunConfig) -> int:
    if cfg.perturbation:
        h = ci.perturbed_rotation(cfg.tau, cfg.perturbation)
    else:
        h = ci.rigid_rotation(cfg.tau)
    cls = ci.classify(h, n_iter=cfg.n_iter)
    case = ci.compression_case(h)
    doc = {"space": "circle", "rotation_number": cls.tau, "kind": cls.kind,
           "m": cls.m, "n": cls.n, "compression_case": case.case,
           "evidence": cls.evidence}
    with open(cfg.output + ".json", "w") as fh:
        json.dump(doc, fh, indent=1)
    print(f"rotation number {cls.tau:.8f} ({cls.kind})")
    return 0


def cmd_operator_check(cfg: RunConfig) -> int:
    builders = {
        "constant": lambda: om.constant_model(p=cfg.p, depth=cfg.depth),
        "rotation": lambda: om.rotation_model(tau=cfg.tau, depth=cfg.depth),
        "period3": lambda: om.logistic_period3_model(depth=cfg.depth),
    }
    if cfg.system not in builders:
        raise ValueError(f"unknown model system {cfg.system!r}; choose from "
                         f"{sorted(builders)}")
    model = builders[cfg.system]()
    report = om.full_report(model)
    report.dump(cfg.output + ".json")
    status = "all pass" if report.all_pass() else "FAILURES"
    print(f"{cfg.system} model (dim {model.dim}): {status}")
    return 0 if report.all_pass() else 1


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--output", "-o", dest="output",
                   help="output path stem (extension added per format)")


@functools.lru_cache(maxsize=None)
def make_parser() -> argparse.ArgumentParser:
    """The ``revext`` parser, built on first use and shared after."""
    parser = argparse.ArgumentParser(
        prog="revext",
        description="Reversible extensions of partial dynamical systems: "
                    "sampling, bifurcation analysis, and operator checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extend", help="sample extension strata")
    p.add_argument("--system", choices=["logistic", "constant", "rotation"])
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--p", type=float, help="constant-map target point")
    p.add_argument("--tau", type=float)
    p.add_argument("--gamma0", type=float)
    p.add_argument("--N", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--density", type=int)
    _add_common(p)

    p = sub.add_parser("bifurcate", help="cascade table and diagram")
    p.add_argument("--n-max", dest="N_max", type=int)
    p.add_argument("--lambda-min", dest="lambda_min", type=float)
    p.add_argument("--lambda-max", dest="lambda_max", type=float)
    p.add_argument("--steps", type=int)
    _add_common(p)

    p = sub.add_parser("classify", help="classify a logistic parameter")
    p.add_argument("--lambda", dest="lam", type=float)
    _add_common(p)

    p = sub.add_parser("continuum-graph",
                       help="symbolic continuum decomposition graph")
    p.add_argument("--regime",
                   choices=["cascade", "mu", "window", "window-cascade"])
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    _add_common(p)

    p = sub.add_parser("rotation", help="circle rotation number analysis")
    p.add_argument("--tau", type=float)
    p.add_argument("--perturbation", type=float)
    p.add_argument("--n-iter", dest="n_iter", type=int)
    _add_common(p)

    p = sub.add_parser("operator-check",
                       help="finite operator-model verification")
    p.add_argument("--system", choices=["constant", "rotation", "period3"])
    p.add_argument("--depth", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--p", type=float)
    _add_common(p)

    for command, formats in FORMATS.items():
        sub.choices[command].add_argument("--format", choices=formats)
    return parser


_DISPATCH = {
    "extend": cmd_extend,
    "bifurcate": cmd_bifurcate,
    "classify": cmd_classify,
    "continuum-graph": cmd_continuum_graph,
    "rotation": cmd_rotation,
    "operator-check": cmd_operator_check,
}


def main(argv: Optional[list] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return _DISPATCH[cfg.command](cfg)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
