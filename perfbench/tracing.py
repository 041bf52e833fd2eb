"""Spans around the calls into each revext layer, for the traced run.

The tracer wraps public functions from outside the package, by replacing
module attributes for the duration of a run; no file under ``src/`` knows
about it.  A span records its name, start, end and the span that was open
when it started (its parent).  Spans stay in memory and become per-layer
metrics when the run ends.  A layer's self time is its span's duration
minus the time its child spans cover.

Single-threaded use only: the stack of open spans is shared, and the only
threads revext starts (the bifurcation sweep) call no traced function.
"""

from __future__ import annotations

import inspect
import os
import resource
import time
from collections import Counter, defaultdict

from revext import circle as ci
from revext import cli
from revext import core
from revext import extension as ex
from revext import logistic as lg
from revext import operator_model as om

from metrics import MODULES

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def _rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    __slots__ = ("name", "start", "end", "parent", "nested", "error", "attrs")

    def __init__(self, name: str, parent: int, nested: bool):
        self.name = name
        self.parent = parent
        self.nested = nested     # an enclosing span has the same name
        self.error = False
        self.attrs = None
        self.start = self.end = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._open = Counter()
        self._undo: list = []

    def wrap(self, name, fn, on_enter=None, on_exit=None):
        """``fn`` recording one span per call; ``on_enter(span, args,
        kwargs)`` runs before the clock starts, ``on_exit(span, result)``
        after it stops."""

        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1,
                        self._open[name] > 0)
            if on_enter is not None:
                on_enter(span, args, kwargs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._open[name] += 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._open[name] -= 1
                self._stack.pop()
            if on_exit is not None:
                on_exit(span, result)
            return result

        return traced

    def patch(self, targets, name, on_enter=None, on_exit=None) -> None:
        """Replace the function held at every (owner, key) in ``targets``
        (a module or class attribute, or a dict entry) by one traced
        wrapper.  All targets must hold the same function."""
        raw = [owner[key] if isinstance(owner, dict) else owner.__dict__[key]
               for owner, key in targets]
        fn = raw[0].__func__ if isinstance(raw[0], staticmethod) else raw[0]
        traced = self.wrap(name, fn, on_enter, on_exit)
        for (owner, key), old in zip(targets, raw):
            if old is not raw[0]:
                raise TypeError(f"{name}: targets hold different functions")
            new = staticmethod(traced) if isinstance(old, staticmethod) \
                else traced
            if isinstance(owner, dict):
                owner[key] = new
            else:
                setattr(owner, key, new)
            self._undo.append((owner, key, old))

    def install(self) -> None:
        # preimages as the extension module sees it (imported by name), and
        # as operator_model reaches it through revext.core
        self.patch([(core, "preimages"), (ex, "preimages")], "core.preimages")
        self.patch([(ex, "sample_stratum"), (cli, "sample_stratum")],
                   "extension.sample_stratum",
                   on_exit=lambda s, r: setattr(s, "attrs", len(r.chains)))
        self.patch([(ex, "hausdorff")], "extension.hausdorff",
                   on_enter=_hausdorff_enter, on_exit=_hausdorff_exit)
        for fn in ("find_periodic_point", "attracting_period",
                   "window_boundaries"):
            self.patch([(lg, fn)], f"logistic.{fn}")
        self.patch([(lg.CascadeTable, "build")], "logistic.CascadeTable.build")
        n_iter = inspect.signature(ci.rotation_number).parameters["n_iter"]
        self.patch([(ci, "rotation_number")], "circle.rotation_number",
                   on_enter=lambda s, a, k: setattr(
                       s, "attrs", k.get("n_iter", a[1] if len(a) > 1
                                         else n_iter.default)))
        self.patch([(om, "build_model")], "operator_model.build_model",
                   on_exit=lambda s, r: setattr(s, "attrs", r.dim))
        for fn in ("build_B", "verify_reversibility",
                   "verify_coefficient_relations", "full_report"):
            self.patch([(om, fn)], f"operator_model.{fn}")
        for command in list(cli._DISPATCH):
            self.patch([(cli._DISPATCH, command)],
                       "cli." + command.replace("-", "_"),
                       on_exit=_cli_exit)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def layer_metrics(self, artifact_bytes: dict) -> dict:
        """Per-layer metrics of the recorded spans (trace.overhead_s is
        filled in by the caller, which also has the untraced runs)."""
        spans = self.spans
        own = self.self_times()
        by_name = defaultdict(list)
        for i, s in enumerate(spans):
            by_name[s.name].append(i)

        def calls(name):
            return len(by_name[name])

        def seconds(name):
            # nested same-name spans (recursion) are inside the outer one
            return sum(spans[i].end - spans[i].start for i in by_name[name]
                       if not spans[i].nested)

        def self_s(name):
            return sum(own[i] for i in by_name[name])

        def attrs(name):
            return [spans[i].attrs for i in by_name[name]
                    if not spans[i].error]

        sampled = sum(attrs("extension.sample_stratum"))
        preimages_in_sampling = sum(
            1 for i in by_name["core.preimages"] if spans[i].parent >= 0
            and spans[spans[i].parent].name == "extension.sample_stratum")
        pairs = sum(a["pairs"] for a in attrs("extension.hausdorff"))
        h_s = seconds("extension.hausdorff")
        rot_s = seconds("circle.rotation_number")
        errors = Counter(s.name.split(".")[0] for s in spans if s.error)
        m = {
            "core.preimages.calls": calls("core.preimages"),
            "core.preimages.s": seconds("core.preimages"),
            "extension.sample_stratum.s": seconds("extension.sample_stratum"),
            "extension.sample_stratum.chains": sampled,
            "extension.sample_stratum.preimages_per_chain":
                preimages_in_sampling / sampled if sampled else 0.0,
            "extension.hausdorff.s": h_s,
            "extension.hausdorff.pairs": pairs,
            "extension.hausdorff.ns_per_pair": h_s * 1e9 / pairs
            if pairs else 0.0,
            "extension.hausdorff.rss_mb": max(
                (a["rss_rise"] for a in attrs("extension.hausdorff")),
                default=0.0),
            "circle.rotation_number.calls": calls("circle.rotation_number"),
            "circle.rotation_number.s": rot_s,
            "circle.lift_iters_per_s":
                sum(attrs("circle.rotation_number")) / rot_s if rot_s else 0.0,
            "operator_model.dim_total":
                sum(attrs("operator_model.build_model")),
            "cli.json_bytes": artifact_bytes[".json"],
            "cli.svg_bytes": artifact_bytes[".svg"],
        }
        for fn in ("find_periodic_point", "attracting_period"):
            m[f"logistic.{fn}.calls"] = calls(f"logistic.{fn}")
            m[f"logistic.{fn}.s"] = seconds(f"logistic.{fn}")
        for fn in ("CascadeTable.build", "window_boundaries"):
            m[f"logistic.{fn}.s"] = seconds(f"logistic.{fn}")
        for fn in ("build_model", "build_B", "verify_reversibility",
                   "verify_coefficient_relations", "full_report"):
            m[f"operator_model.{fn}.s"] = seconds(f"operator_model.{fn}")
        for command in ("extend", "bifurcate", "operator_check", "rotation"):
            m[f"cli.{command}.self_s"] = self_s(f"cli.{command}")
        for module in MODULES:
            m[f"{module}.errors"] = errors[module]
        return m


def _hausdorff_enter(span, args, kwargs) -> None:
    a, b = args[0], args[1]
    span.attrs = {"pairs": len(a.chains) * len(b.chains), "rss0": _rss_mb()}


def _hausdorff_exit(span, result) -> None:
    # the peak reached during the call, above the resident size at entry
    # (an upper bound when an earlier call already set a higher peak)
    span.attrs["rss_rise"] = max(0.0, _peak_rss_mb() - span.attrs["rss0"])


def _cli_exit(span, rc) -> None:
    span.error = rc != 0
