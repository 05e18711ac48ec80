"""Config-driven command line: analyze | sweep | levelset | disk | corner | oracle.

Scenarios are JSON with a version field; angles are radians, complex numbers
are [re, im] pairs, and every number must be finite.  Each block decodes to
the object it names (curve or wedge, wave, disk mode), and a malformed block
is a config error that names it.  Scenarios are only read: the config file a
run read is its record.  Output artifacts (CSV, JSON, SVG) are
deterministic: same scenario file, same bytes.  Exit codes: 0 verdict
reached, 2 bad config, 3 inconclusive, 4 no admissible contour or saddle,
5 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

from .asymptotics import (
    _pair,
    asym_report,
    corner_constants,
    disk_herglotz_closed_form,
    disk_plane_closed_form,
    nonscattering_wavenumbers,
    radial_wronskian,
    report_to_dict,
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
from .waves import CircularHarmonic, HerglotzTrunc, PlaneCombo, PlaneWave, WaveModel

__all__ = ["Scenario", "parse_scenario", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3
EXIT_NO_PATH = 4
EXIT_NUMERICAL = 5

# what a malformed block raises while it is decoded; the guard in _block
# turns each into a ConfigError that names the block
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError, OverflowError, InvalidShapeParams)


@dataclass(frozen=True)
class DiskMode:
    """The disk block: Wronskian roots up to k_max, the Wronskian at k, or a
    closed-form comparison (plane wave at alpha, or harmonic n)."""

    mode: str  # "roots" | "wronskian" | "compare"
    n: int | None = None
    k_max: float | None = None
    alpha: float | None = None


@dataclass(frozen=True)
class Scenario:
    domain: TrigCurve | CornerDomain | None
    wave: WaveModel | None
    k: float
    q: float
    lambda_grid: tuple
    p_power: float | None
    g0: object  # "saddle" | complex
    quad: QuadOptions
    contour: bool
    disk: DiskMode | None
    out: str | None


def _real(x) -> float:
    # a JSON number: float() would also read true as 1.0 and "2" as 2.0
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"{x!r} is not a JSON number")
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"{v} is not a finite number")
    return v


def _integer(x) -> int:
    v = _real(x)
    if v != int(v):
        raise ValueError(f"{x!r} is not an integer")
    return int(v)


def _reals(xs) -> tuple:
    # a JSON array: a string would decode as its characters
    if not isinstance(xs, list):
        raise TypeError(f"{xs!r} is not a JSON array")
    return tuple(_real(x) for x in xs)


def _exactly(kind: type):
    """A decoder that passes only values of kind: bool() and str() would coerce any value."""

    def decode(v):
        if not isinstance(v, kind):
            raise TypeError(f"{v!r} is not a JSON {'boolean' if kind is bool else 'string'}")
        return v

    return decode


def _complex(pair) -> complex:
    re, im = _reals(pair)
    return complex(re, im)


def _optional(decode):
    return lambda v: None if v is None else decode(v)


def _known(d, *keys: str) -> None:
    """Reject the keys of block d outside keys: a misspelled key would silently take its default."""
    unknown = sorted(str(key) for key in set(d) - set(keys))
    if unknown:
        raise ValueError(f"unknown keys {unknown}; expected {', '.join(keys)}")


def _decode_domain(d) -> TrigCurve | CornerDomain:
    if "builtin" in d:
        _known(d, "builtin", "params")
        return builtin(_exactly(str)(d["builtin"]), *_reals(d.get("params", [])))
    if "corner" in d:
        _known(d, "corner")
        c = d["corner"]
        _known(c, "theta", "a1", "a2")
        return CornerDomain(theta=_real(c["theta"]), a1=_real(c["a1"]), a2=_real(c["a2"]))
    if "a1" in d:
        _known(d, "a1", "b1", "a2", "b2")
        return TrigCurve(
            a1=_reals(d["a1"]), b1=_reals(d.get("b1", [])), a2=_reals(d["a2"]), b2=_reals(d.get("b2", []))
        )
    raise ValueError("domain must give builtin, corner, or Fourier coefficients")


def _decode_wave(w, k: float) -> WaveModel:
    kind = w["kind"]
    if kind == "plane":
        _known(w, "kind", "alpha")
        return PlaneWave(k=k, alpha=_real(w.get("alpha", 0.0)))
    if kind == "plane_combo":
        _known(w, "kind", "terms")
        terms = tuple((_complex(c), _real(alpha)) for c, alpha in w["terms"])
        if not terms:
            raise ValueError("plane_combo needs at least one term")
        return PlaneCombo(k=k, terms=terms)
    if kind == "harmonic":
        _known(w, "kind", "n")
        return CircularHarmonic(k=k, n=_integer(w["n"]))
    if kind == "herglotz":
        _known(w, "kind", "psi")
        psi = tuple((int(n), _complex(c)) for n, c in w["psi"].items())
        # int() would also read "2_0" as 20 and " 2" as 2
        if [str(n) for n, _ in psi] != list(w["psi"]):
            raise ValueError(f"herglotz orders must be plain integers, got {list(w['psi'])}")
        if not psi:
            raise ValueError("herglotz needs a nonempty psi table")
        return HerglotzTrunc(k=k, psi=psi)
    raise ValueError(f"unknown wave kind {kind!r}")


def _decode_disk(d) -> DiskMode:
    mode = d["mode"]
    if mode == "roots":
        _known(d, "mode", "n", "k_max")
        return DiskMode(mode, n=_integer(d["n"]), k_max=_real(d["k_max"]))
    if mode == "compare" and "alpha" in d:
        _known(d, "mode", "alpha")
        return DiskMode(mode, alpha=_real(d["alpha"]))
    if mode in ("compare", "wronskian"):
        _known(d, "mode", "n")
        return DiskMode(mode, n=_integer(d["n"]))
    raise ValueError(f"unknown disk mode {mode!r}")


def _decode_g0(v):
    if v is None:
        return 0j
    return "saddle" if v == "saddle" else _complex(v)


def _decode_quad(qd) -> QuadOptions:
    _known(qd, "tol")
    return QuadOptions(tol=_real(qd.get("tol", 1e-10)))


_REQUIRED = object()
_TOP_KEYS = ("version", "k", "q", "domain", "wave", "lambda_grid", "p", "g0", "quad", "contour", "disk", "out")


def _block(cfg: dict, key: str, decode, default=_REQUIRED):
    """decode(cfg[key]), or default when key is absent; a malformed block is a ConfigError naming key."""
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigError(f"missing config key {key!r}")
        return default
    try:
        return decode(cfg[key])
    except _MALFORMED as e:
        raise ConfigError(f"bad {key}: {type(e).__name__}: {e}") from e


def parse_scenario(cfg: dict) -> Scenario:
    if not isinstance(cfg, dict):
        raise ConfigError("scenario must be a JSON object")
    try:
        _known(cfg, *_TOP_KEYS)
    except ValueError as e:
        raise ConfigError(f"bad config: {e}") from e
    if cfg.get("version") != 1 or isinstance(cfg.get("version"), bool):
        raise ConfigError("config version must be 1")
    k = _block(cfg, "k", _real)
    q = _block(cfg, "q", _real)
    if k <= 0:
        raise ConfigError("k must be positive")
    if q <= 0 or q == 1.0:
        raise ConfigError("q must be positive and different from 1")
    return Scenario(
        domain=_block(cfg, "domain", _optional(_decode_domain), None),
        wave=_block(cfg, "wave", _optional(lambda w: _decode_wave(w, k)), None),
        k=k,
        q=q,
        lambda_grid=_block(cfg, "lambda_grid", _reals, ()),
        p_power=_block(cfg, "p", _optional(_real), None),
        g0=_block(cfg, "g0", _decode_g0, 0j),
        quad=_block(cfg, "quad", _decode_quad, QuadOptions()),
        contour=_block(cfg, "contour", _exactly(bool), False),
        disk=_block(cfg, "disk", _optional(_decode_disk), None),
        out=_block(cfg, "out", _optional(_exactly(str)), None),
    )


def build_domain(s: Scenario):
    if s.domain is None:
        raise ConfigError("scenario has no domain")
    return s.domain


def build_wave(s: Scenario):
    if s.wave is None:
        raise ConfigError("scenario has no wave")
    return s.wave


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


def _grid_and_path(curve: TrigCurve, sp):
    grid = level_region(curve, sp)
    path = build_contour(curve, sp, grid)
    validate_contour(curve, path)
    return grid, path


def cmd_analyze(s: Scenario, out: str | None) -> int:
    curve = _require_curve(s)
    wave = build_wave(s)
    sp = _dominant_saddle(curve)
    _, path = _grid_and_path(curve, sp)
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
    g0, path = s.g0, None
    if g0 == "saddle" or s.contour:
        if not isinstance(dom, TrigCurve):
            raise ConfigError("saddle normalization needs a closed curve")
        sp = _dominant_saddle(dom)
        if g0 == "saddle":
            g0 = sp.g0
        if s.contour:
            _, path = _grid_and_path(dom, sp)
    records = lambda_sweep(dom, wave, s.q, s.lambda_grid, s.p_power, g0, path, s.quad)
    _emit(out, "sweep.csv", sweep_to_csv(records))
    # e^{lam g0} can overflow a double while the normalized residual stays finite
    lost = [f"{float(r.lam)!r}" for r in records if not cmath.isfinite(r.I_raw) and cmath.isfinite(r.resid)]
    if lost:
        print(f"note: unnormalized I is not finite at lam = {', '.join(lost)}, where resid is finite", file=sys.stderr)
    # tol is relative to max(1, |e^{-lam g0} I|); the quadrature's roundoff floor, or a
    # first coarse sum that overstated |I|, can leave a larger achieved error
    loose = [f"{float(r.lam)!r}" for r in records if r.error > s.quad.tol * max(r.lam**s.p_power, abs(r.resid))]
    if loose:
        print(f"note: achieved quadrature error exceeds tol = {s.quad.tol!r} at lam = {', '.join(loose)}", file=sys.stderr)
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
    grid = level_region(curve, sp)
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
    m = s.disk
    circle = builtin("circle", 1.0)
    if m.mode == "roots":
        lines = ["k,abs_C"]
        for kj in nonscattering_wavenumbers(m.n, s.q, m.k_max):
            lines.append(f"{kj!r},{abs(radial_wronskian(m.n, s.q, kj))!r}")
        _emit(out, "disk.csv", "\n".join(lines) + "\n")
        return EXIT_OK
    if m.mode == "wronskian":
        cval = complex(radial_wronskian(m.n, s.q, s.k))
        _emit(out, "disk.csv", "n,k,re_C,im_C\n" + f"{m.n},{s.k!r},{cval.real!r},{cval.imag!r}\n")
        return EXIT_OK
    if not s.lambda_grid:
        raise ConfigError("disk compare needs a lambda_grid")
    lines = ["lambda,re_closed,im_closed,re_quad,im_quad,rel_gap"]
    for lam in s.lambda_grid:
        if m.alpha is not None:
            closed = disk_plane_closed_form(lam, m.alpha, s.k, s.q)
            quad_val = area_integral_oracle(circle, PlaneWave(k=s.k, alpha=m.alpha), s.q, lam, s.quad)
        else:
            closed = disk_herglotz_closed_form(lam, m.n, s.k, s.q)
            quad_val = boundary_integral_I(circle, CircularHarmonic(k=s.k, n=m.n), s.q, lam, None, s.quad)
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
    cc = corner_constants(dom, wave, s.q)
    if s.lambda_grid:
        records = lambda_sweep(dom, wave, s.q, s.lambda_grid, 2.0, 0j, None, s.quad)
        _emit(out, "corner.csv", sweep_to_csv(records))
    _emit(
        out,
        "corner.json",
        _json_text(
            {
                "C": _pair(cc.C),
                "c1_seg": _pair(cc.c1_seg),
                "c2_seg": _pair(cc.c2_seg),
                "theta": dom.theta,
                "verdict": cc.verdict,
            }
        ),
    )
    return EXIT_OK if cc.verdict != "Inconclusive" else EXIT_INCONCLUSIVE


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
