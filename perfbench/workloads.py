"""The benchmark's two workloads: seeded inputs, one op, and its checks.

Every workload runs in rounds.  A round is a fixed list of op kinds whose
parameters are drawn from the seed, so each run attempts whole rounds of
the same operations.  Inputs of round i come from their own generator,
seeded with (seed, workload, i), so the same seed gives the same inputs
however long a run lasts; a round is generated when the run reaches it,
outside the timed ops.  k = 1 and q = 2 throughout (the acceptance
gate's regime).

Checks run after the timed loop and compare with the independent
references in references.py, or with properties the method must have.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from nonscatter import cli, quad, saddle
from nonscatter.curves import CornerDomain, builtin
from nonscatter.errors import QuadratureNotConverged

K, Q = 1.0, 2.0
SWEEP_GRID = (10.0, 20.0, 40.0, 80.0, 160.0, 320.0)
CERTIFYING = ("ScattersByC1", "ScattersByC2")


@dataclass
class Op:
    """One timed call; `check` maps its output to a list of problems."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    prepare: Callable[[], None] | None = None
    expect_fail: type | None = None
    spec: dict | None = None


def _rel(got: complex, want: complex) -> float:
    return abs(got - want) / abs(want)


def _close(what: str, got: complex, ref: complex, mass: float, rel: float = 1e-8) -> list:
    # the reference is good to ~1e-14 of the integrand mass; beyond that, `rel` of |I|
    if abs(got - ref) <= rel * abs(ref) + 1e-12 * mass:
        return []
    return [f"{what}: {got!r} vs reference {ref!r} (mass {mass:.3g})"]


def _polar(rng: random.Random, r_lo: float, r_hi: float) -> list:
    r, p = rng.uniform(r_lo, r_hi), rng.uniform(-math.pi, math.pi)
    return [r * math.cos(p), r * math.sin(p)]


def _terms(wave) -> list:
    if wave["kind"] == "plane_combo":
        return [{"kind": "plane", "alpha": a, "_c": complex(*c)} for c, a in wave["terms"]]
    if wave["kind"] == "herglotz":
        return [{"kind": "harmonic", "n": int(n), "_c": complex(*c)} for n, c in wave["psi"].items()]
    return [dict(wave, _c=1.0)]


def _conditioning(wave, value_at) -> float:
    """sum |term| / |sum| of a linear functional over the wave's terms."""
    vals = [t["_c"] * value_at(t) for t in _terms(wave)]
    return sum(abs(v) for v in vals) / max(abs(sum(vals)), 1e-300)


class _Workload:
    """Rounds of ops, generated from the seed when a run first reaches them."""

    name = ""

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.rounds: dict = {}

    def _rng(self, tag) -> random.Random:
        return random.Random(f"{self.seed}/{self.name}/{tag}")

    def _warm_up_rng(self) -> random.Random:
        # the same warm-up inputs on every seed, so that setup_s times the same work
        return random.Random(f"{self.name}/warm-up")

    def round(self, i: int) -> list:
        if i not in self.rounds:
            self.rounds[i] = self._make_round(self._rng(i))
        return self.rounds[i]

    def check_once(self, records) -> list:
        return []

    def cleanup(self) -> None:
        pass


def _shape(kind: str, p: float, b: float = 1.0) -> dict:
    if kind == "ellipse":
        return {"a1": [0.0, p * b], "b1": [0.0], "a2": [0.0], "b2": [0.0, b]}
    if kind == "quartic":  # (c + cos 2t)(cos t, sin t)
        return {"a1": [0.0, p + 0.5, 0.0, 0.5], "b1": [0.0], "a2": [0.0], "b2": [0.0, p - 0.5, 0.0, 0.5]}
    if kind == "cardioid":  # s (1 - cos t)(cos t, sin t)
        return {"a1": [-0.5 * p, p, -0.5 * p], "b1": [0.0], "a2": [0.0], "b2": [0.0, p, -0.5 * p]}
    if kind == "deltoid":  # s (2 cos t + cos 2t, 2 sin t - sin 2t)
        return {"a1": [0.0, 2.0 * p, p], "b1": [0.0], "a2": [0.0], "b2": [0.0, 2.0 * p, -p]}
    raise ValueError(kind)


class Certify(_Workload):
    """`nonscatter analyze` in-process on a fresh shape per op: ellipse, quartic, cardioid, deltoid."""

    name = "certify"

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        self.scenario = os.path.join(out_dir, f"scenario-{os.getpid()}.json")

    def _specs(self, rng: random.Random) -> list:
        specs = []
        b = rng.uniform(0.7, 1.3)
        for kind, p in (
            ("ellipse", rng.uniform(1.5, 3.0)),
            ("quartic", rng.uniform(1.6, 3.0)),
            ("cardioid", rng.uniform(0.6, 1.6)),
            ("deltoid", rng.uniform(0.6, 1.6)),
        ):
            wave = {"kind": "plane", "alpha": rng.uniform(-math.pi, math.pi)}
            shape = _shape(kind, p, b)
            specs.append({"kind": kind, "p": p, "b": b, "wave": wave, "cfg": {"domain": shape, "wave": wave}})
        return specs

    def _make_round(self, rng: random.Random) -> list:
        return [self._op(spec) for spec in self._specs(rng)]

    def _op(self, spec) -> Op:
        cfg = dict(spec["cfg"], version=1, k=K, q=Q)
        argv = ["analyze", "--config", self.scenario]

        def prepare():
            with open(self.scenario, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            return rc, buf.getvalue()

        return Op(spec["kind"], run, lambda out: self._check(spec, out), prepare, spec=spec)

    def setup(self) -> None:
        warm = self._op(self._specs(self._warm_up_rng())[0])
        warm.prepare()
        problems = warm.check(warm.run())
        if problems:
            raise RuntimeError(f"certify warm-up op failed: {problems}")

    def cleanup(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.scenario)

    def _check(self, spec, out) -> list:
        import references as ref

        rc, text = out
        if rc != 0:
            return [f"exit code {rc}"]
        rep = json.loads(text.split("\n", 1)[1])
        problems = []
        if rep["verdict"] not in CERTIFYING:
            problems.append(f"verdict {rep['verdict']} does not certify scattering")
        kind, p, b = spec["kind"], spec["p"], spec["b"]
        c1 = None
        if kind == "ellipse":
            _, g0 = ref.ellipse_saddle(p * b, b)
            c1 = ref.ellipse_c1(p * b, b, spec["wave"], K, Q)
        elif kind == "quartic":
            _, g0 = ref.quartic_saddle(p)
            c1 = ref.quartic_c1(p, spec["wave"], K, Q)
        elif kind == "cardioid":
            g0 = 0.0
        else:
            g0 = ref.deltoid_g0(p)
        got_g0 = complex(*rep["g0"])
        if abs(got_g0 - g0) > 1e-9 * max(1.0, abs(g0)):
            problems.append(f"g0 {got_g0!r} vs closed form {g0!r}")
        if c1 is not None:
            got = complex(*rep["C1"])
            if rep["verdict"] != "ScattersByC1" or _rel(got, c1) > 1e-8:
                problems.append(f"{rep['verdict']} C1 {got!r} vs closed form {c1!r}")
        return problems


@dataclass
class _Path:
    domain: object
    contour: object
    p: float
    g0: complex


class Sweep(_Workload):
    """lambda_sweep over 10 ... 320, then fit_decay, for one (path, wave) pair."""

    name = "sweep"
    CONTOURS = (("ellipse", ("ellipse", 2.0, 1.0), 1.5), ("cardioid", ("cardioid",), 2.5), ("quartic", ("nonconvex",), 1.5))
    WAVES = ("plane", "combo", "harmonic", "herglotz")
    FAIL_TOL = 1e-13  # inside QuadOptions' documented [1e-14, 1e-4]

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        self.paths: dict = {}

    def setup(self) -> None:
        paths = {}
        for key, (name, *params), p in self.CONTOURS:
            curve = builtin(name, *params)
            sp = saddle.find_saddles(curve)[0]
            contour = saddle.build_contour(curve, sp, saddle.level_region(curve, sp))
            saddle.validate_contour(curve, contour)
            paths[key] = _Path(curve, contour, p, sp.g0)
        deltoid = builtin("deltoid")
        paths["deltoid"] = _Path(deltoid, None, 2.5, saddle.find_saddles(deltoid)[0].g0)
        self.paths = paths
        self.rounds = {}
        rng = self._warm_up_rng()
        for kind in self.WAVES:
            path = "deltoid" if kind == "harmonic" else "wedge"
            op = self._op(path, self._wave(rng, kind, path), rng)
            problems = op.check(op.run())
            if problems:
                raise RuntimeError(f"sweep warm-up op failed: {problems}")

    def _make_round(self, rng: random.Random) -> list:
        # 16 completed ops a round.  The wedge takes no n = 2 harmonic: u(0) = 0
        # leaves its corner law nothing to check.  The quartic contour takes only
        # the n = 2 harmonic, whose input does not depend on the seed: its plane
        # waves and combinations raise QuadratureNotConverged at default tol for
        # directions near -pi/2 (see the FOUND line on the quartic in CHANGES.md),
        # so on some seeds only, and cannot be kept as failing members
        ops = [
            self._op(path, self._wave(rng, kind, path), rng)
            for path in ("ellipse", "cardioid", "quartic", "deltoid", "wedge")
            for kind in self.WAVES
            if not (path == "wedge" and kind == "harmonic")
            and not (path == "quartic" and kind != "harmonic")
        ]
        # the failing members, on inputs that do not depend on the seed:
        # QuadratureNotConverged on every contour today
        for path, _, _ in self.CONTOURS:
            ops.append(self._op(path, {"kind": "plane", "alpha": 0.0}, rng, tol=self.FAIL_TOL))
        return ops

    def _wave(self, rng: random.Random, kind: str, path: str) -> dict:
        if kind == "plane":
            return {"kind": "plane", "alpha": rng.uniform(-math.pi, math.pi)}
        if kind == "harmonic":
            return {"kind": "harmonic", "n": 2}
        # redraw a superposition whose checked constant nearly cancels between its
        # terms: a relative check of a cancelled constant measures nothing
        while True:
            if kind == "combo":
                wave = {
                    "kind": "plane_combo",
                    "terms": [[[rng.uniform(0.2, 1.0), 0.0], rng.uniform(-math.pi, math.pi)] for _ in range(3)],
                }
            else:
                wave = {
                    "kind": "herglotz",
                    "psi": {str(n): [1.0, 0.0] if n == 0 else _polar(rng, 0.0, 0.4) for n in range(-2, 3)},
                }
            if self._conditioning(wave, path) <= 3.0:
                return wave

    @staticmethod
    def _conditioning(wave, path: str) -> float:
        import references as ref

        if path == "ellipse":
            return _conditioning(wave, lambda t: ref.ellipse_c1(2.0, 1.0, t, K, Q))
        if path == "deltoid":
            return _conditioning(wave, lambda t: ref.deltoid_c2(t, K, Q))
        if path == "wedge":
            return _conditioning(wave, lambda t: ref.wave_value(t, K, 0.0, 0.0))
        return 1.0

    def _op(self, path: str, wave: dict, rng: random.Random, tol: float | None = None) -> Op:
        obj = cli.build_wave(cli.parse_scenario({"version": 1, "k": K, "q": Q, "wave": wave}))
        opts = quad.QuadOptions() if tol is None else quad.QuadOptions(tol=tol)
        if path == "wedge":
            theta, a1, a2 = rng.uniform(math.pi / 8, 3 * math.pi / 8), -rng.uniform(0.8, 1.5), -rng.uniform(0.8, 1.5)
            pth = _Path(CornerDomain(theta=theta, a1=a1, a2=a2), None, 2.0, 0j)
        else:
            theta = a1 = a2 = None
            pth = self.paths[path]

        def run():
            recs = quad.lambda_sweep(pth.domain, obj, Q, SWEEP_GRID, pth.p, pth.g0, pth.contour, opts)
            return recs, quad.fit_decay(recs)

        spec = {"path": path, "wave": wave, "theta": theta, "a1": a1, "a2": a2, "p": pth.p}
        kind = f"{path}/{wave['kind']}" + ("/tol1e-13" if tol is not None else "")
        fails = QuadratureNotConverged if tol is not None else None
        return Op(kind, run, lambda out: self._check(spec, out), None, fails, spec)

    def _check(self, spec, out) -> list:
        import references as ref

        recs, fit = out
        path, wave, p = spec["path"], spec["wave"], spec["p"]
        first = recs[0]
        got = first.resid / first.lam**p
        if path == "wedge":
            want, mass = ref.wedge_I(spec["theta"], spec["a1"], spec["a2"], wave, K, Q, first.lam)
        else:
            curve = self.paths[path].domain
            g0 = {
                "ellipse": ref.ellipse_saddle(2.0, 1.0)[1],
                "quartic": ref.quartic_saddle(2.0)[1],
                "cardioid": 0.0,
                "deltoid": ref.deltoid_g0(1.0),
            }[path]
            want, mass = ref.curve_I((curve.a1, curve.b1, curve.a2, curve.b2), wave, K, Q, first.lam, g0)
        problems = _close(f"Cauchy invariance at lam {first.lam:g}", got, want, mass)

        limit = None
        if path == "ellipse":
            limit = ref.ellipse_c1(2.0, 1.0, wave, K, Q)
        elif path == "deltoid":
            limit = ref.deltoid_c2(wave, K, Q)
        if limit is not None:
            if _rel(fit.limit, limit) > 0.05:
                problems.append(f"fit_decay limit {fit.limit!r} vs {limit!r}")
            # one-term waves only: across terms the 1/lam coefficient can cancel,
            # and the order estimate then drifts toward 2 with nothing wrong
            if wave["kind"] in ("plane", "harmonic") and abs(fit.order - 1.0) > 0.1:
                problems.append(f"fit_decay order {fit.order:.4f}, not 1 +- 0.1")
        if path == "wedge":
            c = ref.corner_c(spec["theta"], wave, K, Q)
            for r in recs:
                if r.lam >= 60 and _rel(r.resid, c) > 0.025:
                    problems.append(f"corner law at lam {r.lam:g}: lam^2 I = {r.resid!r} vs C = {c!r}")
        return problems

    def check_once(self, records) -> list:
        """The cardioid's contour value against a 60-digit mpmath trapezoid at lam = 40."""
        import references as ref

        rec = next((r for r in records if r.op.kind == "cardioid/plane" and r.exc is None), None)
        if rec is None:
            return ["no completed cardioid plane-wave op to compare with mpmath"]
        recs, _ = rec.out
        alpha = rec.op.spec["wave"]["alpha"]
        r40 = next(r for r in recs if r.lam == 40.0)
        want = ref.cardioid_I_mpmath(alpha, K, Q, 40.0)
        if _rel(r40.I_raw, want) > 1e-8:
            return [f"cardioid I(40) {r40.I_raw!r} vs mpmath {want!r}"]
        return []


WORKLOADS = {"certify": Certify, "sweep": Sweep}
