"""Config-driven command line: analyze | sweep | levelset | disk | corner | oracle.

Scenarios are JSON with a version field; angles are radians, complex numbers
are [re, im] pairs.  Output artifacts (CSV, JSON, SVG) are deterministic:
same scenario file, same bytes.  Exit codes: 0 verdict reached, 2 bad config,
3 inconclusive, 4 no admissible contour or saddle, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, replace

from .asymptotics import (
    _pair,
    asym_report,
    corner_constants,
    disk_herglotz_closed_form,
    disk_plane_closed_form,
    nonscattering_wavenumbers,
    radial_wronskian,
    report_to_dict,
    tol_scale,
)
from .curves import CornerDomain, TrigCurve, builtin
from .czmath import bessel_j, bessel_jp  # noqa: F401  (perfbench/tracing.py wraps them here)
from .errors import (
    ConfigError,
    EndpointAboveLevel,
    InsufficientData,
    InvalidShapeParams,
    NoAdmissiblePath,
    NonscatterError,
    NoSaddle,
)
from .quad import (
    QuadOptions,
    area_integral_oracle,
    boundary_integral_I,
    fit_decay,
    lambda_sweep,
    sweep_to_csv,
)
from .saddle import build_contour, find_saddles, grid_to_csv, grid_to_svg, level_region, validate_contour
from .waves import CircularHarmonic, HerglotzTrunc, PlaneCombo, PlaneWave, value as wave_value

__all__ = ["Scenario", "parse_scenario", "serialize_scenario", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3
EXIT_NO_PATH = 4
EXIT_NUMERICAL = 5

_DEFAULT_LEVELSET = (None, 481, 361)


@dataclass(frozen=True)
class Scenario:
    version: int
    domain: tuple | None
    wave: tuple | None
    k: float
    q: float
    lambda_grid: tuple
    p_power: float | None
    g0: object  # "zero" | "saddle" | complex
    quad: QuadOptions
    contour: bool
    levelset: tuple
    disk: tuple | None
    out: str | None


def _need(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r}")
    return cfg[key]


def _floats(xs, what: str) -> tuple:
    try:
        return tuple(float(x) for x in xs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad {what}: {e}")


def _parse_domain(d) -> tuple | None:
    if d is None:
        return None
    if not isinstance(d, dict):
        raise ConfigError("domain must be an object")
    if "builtin" in d:
        return ("builtin", str(d["builtin"]), _floats(d.get("params", ()), "domain params"))
    if "corner" in d:
        c = d["corner"]
        try:
            return ("corner", float(c["theta"]), float(c["a1"]), float(c["a2"]))
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad corner domain: {e}")
    if "a1" in d:
        try:
            return (
                "fourier",
                _floats(d["a1"], "a1"),
                _floats(d.get("b1", ()), "b1"),
                _floats(d["a2"], "a2"),
                _floats(d.get("b2", ()), "b2"),
            )
        except KeyError as e:
            raise ConfigError(f"fourier domain missing {e}")
    raise ConfigError("domain must give builtin, corner, or Fourier coefficients")


def _parse_wave(w) -> tuple | None:
    if w is None:
        return None
    if not isinstance(w, dict) or "kind" not in w:
        raise ConfigError("wave must be an object with a kind")
    kind = w["kind"]
    if kind == "plane":
        return ("plane", float(w.get("alpha", 0.0)))
    if kind == "plane_combo":
        terms = []
        for item in _need(w, "terms"):
            (re, im), alpha = item
            terms.append((float(re), float(im), float(alpha)))
        if not terms:
            raise ConfigError("plane_combo needs at least one term")
        return ("plane_combo", tuple(terms))
    if kind == "harmonic":
        return ("harmonic", int(_need(w, "n")))
    if kind == "herglotz":
        psi = _need(w, "psi")
        terms = []
        for key, val in psi.items():
            re, im = val
            terms.append((int(key), float(re), float(im)))
        terms.sort()
        if not terms:
            raise ConfigError("herglotz needs a nonempty psi table")
        return ("herglotz", tuple(terms))
    raise ConfigError(f"unknown wave kind {kind!r}")


def _parse_disk(d) -> tuple | None:
    if d is None:
        return None
    if not isinstance(d, dict) or "mode" not in d:
        raise ConfigError("disk block needs a mode")
    mode = d["mode"]
    if mode == "roots":
        return ("roots", int(_need(d, "n")), float(_need(d, "k_max")))
    if mode == "compare":
        if "alpha" in d:
            return ("compare_plane", float(d["alpha"]))
        return ("compare_harmonic", int(_need(d, "n")))
    if mode == "wronskian":
        return ("wronskian", int(_need(d, "n")))
    raise ConfigError(f"unknown disk mode {mode!r}")


def parse_scenario(cfg: dict) -> Scenario:
    if not isinstance(cfg, dict):
        raise ConfigError("scenario must be a JSON object")
    if cfg.get("version") != 1:
        raise ConfigError("config version must be 1")
    try:
        k = float(_need(cfg, "k"))
        q = float(_need(cfg, "q"))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad k/q: {e}")
    if k <= 0:
        raise ConfigError("k must be positive")
    if q <= 0 or q == 1.0:
        raise ConfigError("q must be positive and different from 1")

    grid = _floats(cfg.get("lambda_grid", ()), "lambda_grid")
    p_power = cfg.get("p")
    if p_power is not None:
        p_power = float(p_power)
    g0_raw = cfg.get("g0")
    if g0_raw is None:
        g0 = "zero"
    elif g0_raw == "saddle":
        g0 = "saddle"
    else:
        try:
            g0 = complex(float(g0_raw[0]), float(g0_raw[1]))
        except (TypeError, ValueError, IndexError):
            raise ConfigError('g0 must be "saddle" or [re, im]')
    qd = cfg.get("quad", {})
    if not isinstance(qd, dict):
        raise ConfigError("quad must be an object")
    try:
        quad = QuadOptions(
            mode=qd.get("mode", "periodic_trapezoid"),
            nodes=int(qd.get("nodes", 32)),
            tol=float(qd.get("tol", 1e-10)),
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad quad options: {e}")
    ls = cfg.get("levelset", {})
    if not isinstance(ls, dict):
        raise ConfigError("levelset must be an object")
    rect = ls.get("rect")
    if rect is not None:
        try:
            rect = ((float(rect[0][0]), float(rect[0][1])), (float(rect[1][0]), float(rect[1][1])))
        except (TypeError, ValueError, IndexError):
            raise ConfigError("levelset rect must be [[r_lo, r_hi], [s_lo, s_hi]]")
    levelset = (rect, int(ls.get("nr", 481)), int(ls.get("ns", 361)))

    out = cfg.get("out")
    return Scenario(
        version=1,
        domain=_parse_domain(cfg.get("domain")),
        wave=_parse_wave(cfg.get("wave")),
        k=k,
        q=q,
        lambda_grid=grid,
        p_power=p_power,
        g0=g0,
        quad=quad,
        contour=bool(cfg.get("contour", False)),
        levelset=levelset,
        disk=_parse_disk(cfg.get("disk")),
        out=str(out) if out is not None else None,
    )


def serialize_scenario(s: Scenario) -> dict:
    cfg: dict = {"version": 1, "k": s.k, "q": s.q}
    if s.domain is not None:
        tag = s.domain[0]
        if tag == "builtin":
            cfg["domain"] = {"builtin": s.domain[1], "params": list(s.domain[2])}
        elif tag == "corner":
            cfg["domain"] = {"corner": {"theta": s.domain[1], "a1": s.domain[2], "a2": s.domain[3]}}
        else:
            cfg["domain"] = {
                "a1": list(s.domain[1]),
                "b1": list(s.domain[2]),
                "a2": list(s.domain[3]),
                "b2": list(s.domain[4]),
            }
    if s.wave is not None:
        kind = s.wave[0]
        if kind == "plane":
            cfg["wave"] = {"kind": "plane", "alpha": s.wave[1]}
        elif kind == "plane_combo":
            cfg["wave"] = {
                "kind": "plane_combo",
                "terms": [[[re, im], alpha] for re, im, alpha in s.wave[1]],
            }
        elif kind == "harmonic":
            cfg["wave"] = {"kind": "harmonic", "n": s.wave[1]}
        else:
            cfg["wave"] = {
                "kind": "herglotz",
                "psi": {str(n): [re, im] for n, re, im in s.wave[1]},
            }
    if s.lambda_grid:
        cfg["lambda_grid"] = list(s.lambda_grid)
    if s.p_power is not None:
        cfg["p"] = s.p_power
    if s.g0 == "saddle":
        cfg["g0"] = "saddle"
    elif s.g0 != "zero":
        cfg["g0"] = [s.g0.real, s.g0.imag]
    cfg["quad"] = {"mode": s.quad.mode, "nodes": s.quad.nodes, "tol": s.quad.tol}
    if s.contour:
        cfg["contour"] = True
    if s.levelset != _DEFAULT_LEVELSET:
        rect, nr, ns = s.levelset
        block: dict = {"nr": nr, "ns": ns}
        if rect is not None:
            block["rect"] = [list(rect[0]), list(rect[1])]
        cfg["levelset"] = block
    if s.disk is not None:
        tag = s.disk[0]
        if tag == "roots":
            cfg["disk"] = {"mode": "roots", "n": s.disk[1], "k_max": s.disk[2]}
        elif tag == "compare_plane":
            cfg["disk"] = {"mode": "compare", "alpha": s.disk[1]}
        elif tag == "compare_harmonic":
            cfg["disk"] = {"mode": "compare", "n": s.disk[1]}
        else:
            cfg["disk"] = {"mode": "wronskian", "n": s.disk[1]}
    if s.out is not None:
        cfg["out"] = s.out
    return cfg


def build_domain(s: Scenario):
    if s.domain is None:
        raise ConfigError("scenario has no domain")
    tag = s.domain[0]
    try:
        if tag == "builtin":
            return builtin(s.domain[1], *s.domain[2])
        if tag == "corner":
            return CornerDomain(theta=s.domain[1], a1=s.domain[2], a2=s.domain[3])
        return TrigCurve(a1=s.domain[1], b1=s.domain[2], a2=s.domain[3], b2=s.domain[4])
    except (InvalidShapeParams, ValueError) as e:
        raise ConfigError(f"bad domain: {e}")


def build_wave(s: Scenario):
    if s.wave is None:
        raise ConfigError("scenario has no wave")
    kind = s.wave[0]
    if kind == "plane":
        return PlaneWave(k=s.k, alpha=s.wave[1])
    if kind == "plane_combo":
        return PlaneCombo(k=s.k, terms=tuple((complex(re, im), alpha) for re, im, alpha in s.wave[1]))
    if kind == "harmonic":
        return CircularHarmonic(k=s.k, n=s.wave[1])
    return HerglotzTrunc(k=s.k, psi=tuple((n, complex(re, im)) for n, re, im in s.wave[1]))


def _emit(out_dir: str | None, name: str, text: str) -> None:
    if out_dir is None:
        sys.stdout.write(f"# {name}\n{text}")
        return
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _require_curve(s: Scenario) -> TrigCurve:
    dom = build_domain(s)
    if not isinstance(dom, TrigCurve):
        raise ConfigError("this command needs a closed curve domain")
    return dom


def _dominant_saddle(curve: TrigCurve):
    saddles = [sp for sp in find_saddles(curve) if sp.simple]
    if not saddles:
        raise NoSaddle("no simple saddle in the search window")
    return saddles[0]


def _grid_and_path(s: Scenario, curve: TrigCurve, sp):
    rect, nr, ns = s.levelset
    grid = level_region(curve, sp, rect=rect, nr=nr, ns=ns)
    path = build_contour(curve, sp, grid)
    validate_contour(curve, path)
    return grid, path


def cmd_analyze(s: Scenario, out: str | None) -> int:
    curve = _require_curve(s)
    wave = build_wave(s)
    sp = _dominant_saddle(curve)
    _, path = _grid_and_path(s, curve, sp)
    rep = asym_report(curve, wave, s.q, sp, path)
    _emit(out, "report.json", _json_text(report_to_dict(rep)))
    return EXIT_OK if rep.verdict != "Inconclusive" else EXIT_INCONCLUSIVE


def cmd_sweep(s: Scenario, out: str | None) -> int:
    dom = build_domain(s)
    wave = build_wave(s)
    if not s.lambda_grid:
        raise ConfigError("sweep needs a lambda_grid")
    if s.p_power is None:
        raise ConfigError("sweep needs the normalization power p")
    path = None
    if s.g0 == "saddle" or s.contour:
        if not isinstance(dom, TrigCurve):
            raise ConfigError("saddle normalization needs a closed curve")
        sp = _dominant_saddle(dom)
        g0 = sp.g0 if s.g0 == "saddle" else (0j if s.g0 == "zero" else s.g0)
        if s.contour:
            _, path = _grid_and_path(s, dom, sp)
    else:
        g0 = 0j if s.g0 == "zero" else s.g0
    records = lambda_sweep(dom, wave, s.q, s.lambda_grid, s.p_power, g0, path, s.quad)
    _emit(out, "sweep.csv", sweep_to_csv(records))
    summary: dict = {"n_records": len(records), "p": s.p_power, "g0": _pair(complex(g0))}
    try:
        fit = fit_decay(records)
        summary["fit"] = {"limit": _pair(fit.limit), "order": fit.order}
    except InsufficientData:
        summary["fit"] = None
    _emit(out, "sweep_fit.json", _json_text(summary))
    return EXIT_OK


def cmd_levelset(s: Scenario, out: str | None) -> int:
    curve = _require_curve(s)
    sp = _dominant_saddle(curve)
    rect, nr, ns = s.levelset
    grid = level_region(curve, sp, rect=rect, nr=nr, ns=ns)
    try:
        path = build_contour(curve, sp, grid)
        validate_contour(curve, path)
    except (NoAdmissiblePath, EndpointAboveLevel):
        path = None
    _emit(out, "grid.csv", grid_to_csv(grid))
    _emit(out, "level.svg", grid_to_svg(grid, path))
    return EXIT_OK


def cmd_disk(s: Scenario, out: str | None) -> int:
    if s.disk is None:
        raise ConfigError("disk command needs a disk block")
    tag = s.disk[0]
    circle = builtin("circle", 1.0)
    if tag == "roots":
        _, n, k_max = s.disk
        lines = ["k,abs_C"]
        for kj in nonscattering_wavenumbers(n, s.q, k_max):
            lines.append(f"{kj!r},{abs(radial_wronskian(n, s.q, kj))!r}")
        _emit(out, "disk.csv", "\n".join(lines) + "\n")
        return EXIT_OK
    if tag == "wronskian":
        n = s.disk[1]
        cval = complex(radial_wronskian(n, s.q, s.k))
        _emit(out, "disk.csv", "n,k,re_C,im_C\n" + f"{n},{s.k!r},{cval.real!r},{cval.imag!r}\n")
        return EXIT_OK
    if not s.lambda_grid:
        raise ConfigError("disk compare needs a lambda_grid")
    lines = ["lambda,re_closed,im_closed,re_quad,im_quad,rel_gap"]
    for lam in s.lambda_grid:
        if tag == "compare_plane":
            alpha = s.disk[1]
            closed = disk_plane_closed_form(lam, alpha, s.k, s.q)
            quad_val = area_integral_oracle(circle, PlaneWave(k=s.k, alpha=alpha), s.q, lam, s.quad)
        else:
            n = s.disk[1]
            closed = disk_herglotz_closed_form(lam, n, s.k, s.q)
            quad_val = boundary_integral_I(circle, CircularHarmonic(k=s.k, n=n), s.q, lam, None, s.quad)
        rel = abs(quad_val - closed) / max(abs(closed), 1e-300)
        lines.append(
            f"{float(lam)!r},{closed.real!r},{closed.imag!r},{quad_val.real!r},{quad_val.imag!r},{rel!r}"
        )
    _emit(out, "disk.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_corner(s: Scenario, out: str | None) -> int:
    dom = build_domain(s)
    if not isinstance(dom, CornerDomain):
        raise ConfigError("corner command needs a corner domain")
    wave = build_wave(s)
    cc = corner_constants(dom, wave, s.k, s.q)
    if s.lambda_grid:
        records = lambda_sweep(dom, wave, s.q, s.lambda_grid, 2.0, 0j, None, s.quad)
        _emit(out, "corner.csv", sweep_to_csv(records))
    u0 = wave_value(wave, (0.0, 0.0))
    tol = 1e-8 * tol_scale(wave, s.q, u0)
    verdict = "ScattersAtCorner" if abs(cc.C) > tol else "Inconclusive"
    _emit(
        out,
        "corner.json",
        _json_text(
            {
                "C": _pair(cc.C),
                "c1_seg": _pair(cc.c1_seg),
                "c2_seg": _pair(cc.c2_seg),
                "theta": dom.theta,
                "verdict": verdict,
            }
        ),
    )
    return EXIT_OK if verdict != "Inconclusive" else EXIT_INCONCLUSIVE


def cmd_oracle(s: Scenario, out: str | None) -> int:
    curve = _require_curve(s)
    wave = build_wave(s)
    if not s.lambda_grid:
        raise ConfigError("oracle needs a lambda_grid")
    scale = (s.q - 1.0) * s.k * s.k
    lines = ["lambda,re_I_scaled,im_I_scaled,re_area,im_area,rel_gap"]
    for lam in s.lambda_grid:
        ival = boundary_integral_I(curve, wave, s.q, lam, None, s.quad) / scale
        aval = area_integral_oracle(curve, wave, s.q, lam, s.quad)
        rel = abs(ival - aval) / max(abs(aval), 1e-300)
        lines.append(f"{float(lam)!r},{ival.real!r},{ival.imag!r},{aval.real!r},{aval.imag!r},{rel!r}")
    _emit(out, "oracle.csv", "\n".join(lines) + "\n")
    return EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
    "levelset": cmd_levelset,
    "disk": cmd_disk,
    "corner": cmd_corner,
    "oracle": cmd_oracle,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nonscatter", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--nodes", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config: {e}")
        scenario = parse_scenario(cfg)
        if args.nodes is not None or args.tol is not None:
            try:
                scenario = replace(
                    scenario,
                    quad=QuadOptions(
                        mode=scenario.quad.mode,
                        nodes=args.nodes if args.nodes is not None else scenario.quad.nodes,
                        tol=args.tol if args.tol is not None else scenario.quad.tol,
                    ),
                )
            except ValueError as e:
                raise ConfigError(f"bad quad override: {e}")
        out = args.out if args.out is not None else scenario.out
        if out is not None:
            os.makedirs(out, exist_ok=True)
        return _COMMANDS[args.command](scenario, out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoSaddle, NoAdmissiblePath, EndpointAboveLevel) as e:
        print(f"no admissible contour: {e}", file=sys.stderr)
        return EXIT_NO_PATH
    except NonscatterError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
