"""Timing wrappers for the traced run, installed from outside the package.

Each wrapper replaces one public name in the namespace of the module that
looks it up (for example `nonscatter.saddle.eval_jets`), so the package
itself is unchanged and the untraced runs pay nothing.  A span is
(name, start, end, parent); a layer's self time is its span minus the part
its child spans cover.  A call made from inside the same layer (waves.sample
calling waves.value) passes through without a span, so each layer is
charged once per call from another layer.

Spans of the per-point layers (waves, czmath, curve jets) run to millions
per run, so only their self time and call counts are kept; every other
span is kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from nonscatter import asymptotics, cli, curves, quad, saddle, waves

_perf = time.perf_counter


def _points(counts, args, out):
    ts = args[1] if len(args) > 1 else None
    counts["curves.eval_jets_points"] += len(ts) if hasattr(ts, "__len__") else 1


def _one_point(counts, args, out):
    counts["curves.eval_jets_points"] += 1


def _waypoints(counts, args, out):
    counts["saddle.waypoints"] += len(out.waypoints)


def _sweep_nodes(counts, args, out):
    counts["quad.nodes"] += sum(r.nodes_used for r in out)
    counts["quad.lams"] += len(out)


# (module whose namespace is patched, attribute, span name, counter, keep spans)
_TARGETS = [
    (cli, "main", "cli.main", None, True),
    (cli, "find_saddles", "saddle.find_saddles", None, True),
    (cli, "level_region", "saddle.level_region", None, True),
    (cli, "build_contour", "saddle.build_contour", _waypoints, True),
    (cli, "validate_contour", "saddle.validate_contour", None, True),
    (cli, "asym_report", "asymptotics.asym_report", None, True),
    (cli, "lambda_sweep", "quad.lambda_sweep", _sweep_nodes, True),
    (cli, "fit_decay", "quad.fit_decay", None, True),
    (cli, "bessel_j", "czmath.bessel_j", None, False),
    (cli, "bessel_jp", "czmath.bessel_jp", None, False),
    (quad, "lambda_sweep", "quad.lambda_sweep", _sweep_nodes, True),
    (quad, "fit_decay", "quad.fit_decay", None, True),
    (quad, "eval_jets", "curves.eval_jets", _points, False),
    (saddle, "eval_jets", "curves.eval_jets", _points, False),
    (saddle, "g_jet", "curves.g_jet", _one_point, False),
    (asymptotics, "eval_jets", "curves.eval_jets", _points, False),
    (asymptotics, "eval_jet", "curves.eval_jet", _one_point, False),
    (asymptotics, "bessel_g", "czmath.bessel_g", None, False),
    (asymptotics, "bessel_j", "czmath.bessel_j", None, False),
    (asymptotics, "bessel_jp", "czmath.bessel_jp", None, False),
    # quad and asymptotics reach waves through the module (`_waves.sample`)
    (waves, "sample", "waves.sample", None, False),
    (waves, "value", "waves.value", None, False),
    (waves, "gradient", "waves.gradient", None, False),
    (waves, "bessel_g", "czmath.bessel_g", None, False),
    # construction checks, wherever a TrigCurve is built
    (curves.TrigCurve, "__post_init__", "curves.trigcurve", None, True),
]


class Tracer:
    """Span stack, per-name self time and call counts, and the kept spans."""

    def __init__(self):
        self.stack: list = []  # frames [name, layer, start, covered, span_id]
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(float)
        self.spans: list = []
        self.op = -1
        self._next_id = 0
        self._saved: list = []

    def _wrap(self, name, fn, counter, keep):
        layer = name.split(".", 1)[0]
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            tracer._next_id += 1
            frame = [name, layer, _perf(), 0.0, tracer._next_id]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                dur = end - frame[2]
                tracer.self_s[name] += dur - frame[3]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][3] += dur
                if keep:
                    parent = stack[-1][4] if stack else None
                    tracer.spans.append((frame[4], tracer.op, name, frame[2], end, parent))
            if counter is not None:
                counter(tracer.counts, args, out)
            return out

        return traced

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, counter, keep in _TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, counter, keep))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def self_ms(self, *names: str) -> float:
        return 1000.0 * sum(self.self_s.get(n, 0.0) for n in names)

    def n_calls(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def write(self, path: str) -> None:
        doc = {
            "spans": [
                {"id": i, "op": op, "name": name, "start": s, "end": e, "parent": p}
                for i, op, name, s, e, p in self.spans
            ],
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
