"""Direct quadrature of the boundary integral, the area oracle, and lambda sweeps.

The diagnostic integral over a closed curve x(t), t in [-pi, pi], is
    I(lam) = int [(x2', -x1') . V + i lam g' v + i lt x1' v] e^(lam g + i lt x2) dt
with g = x1 + i x2, v = u(x(t)), V = grad u(x(t)), lt = sqrt(lam^2+k^2 q) - lam.
Real-interval evaluation uses the periodic trapezoid rule; deformed contours
and corner legs use adaptive Gauss panels.  An optional normalization g0 folds
e^(-lam g0) into the exponent so large-lam sweeps never overflow.  A sweep
evaluates the lam-free part of the integrand (curve jets, v and V) once per
node set and reuses it at every lam.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import waves as _waves
from .curves import CornerDomain, TrigCurve, corner_segments, eval_jets
from .czmath import SpectralParams, lambda_tilde
from .errors import (
    InsufficientData,
    OverflowRisk,
    QuadratureNotConverged,
    StarShapeViolated,
)
from .saddle import ContourPath

__all__ = [
    "QuadOptions",
    "SweepRecord",
    "FitResult",
    "boundary_integral_I",
    "boundary_integral_I_byparts",
    "area_integral_oracle",
    "lambda_sweep",
    "fit_decay",
    "sweep_to_csv",
]

_MODES = ("periodic_trapezoid", "panel_gauss")
_EXP_CAP = 700.0
_MAX_TRAP = 1 << 17
_MAX_DEPTH = 14
_RING_N = 32
_RING_R = 0.05
# points per wave call in the area oracle and the W' ring: 64 radii (or 32 ring
# points) times a 131072-node trapezoid would otherwise take gigabytes
_BLOCK_POINTS = 1 << 16


@dataclass(frozen=True)
class QuadOptions:
    mode: str = "periodic_trapezoid"
    nodes: int = 32
    tol: float = 1e-10
    g0: complex | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not 8 <= self.nodes <= 4096:
            raise ValueError(f"nodes must lie in [8, 4096], got {self.nodes}")
        if not 1e-14 <= self.tol <= 1e-4:
            raise ValueError(f"tol must lie in [1e-14, 1e-4], got {self.tol}")


@dataclass(frozen=True)
class SweepRecord:
    lam: float
    I_raw: complex
    resid: complex
    nodes_used: int


@dataclass(frozen=True)
class FitResult:
    limit: complex
    order: float


def _exp_factor(p: SpectralParams, g, x2, g0: complex):
    lt = lambda_tilde(p)
    expo = p.lam * (g - g0) + 1j * lt * np.asarray(x2, dtype=complex)
    worst = float(expo.real.max()) if np.size(expo) else 0.0
    if worst > _EXP_CAP:
        raise OverflowRisk(
            f"exponent lam (Re g - Re g0) reaches {worst:.1f} > {_EXP_CAP:.0f}; "
            "normalize by g0 = g(t0) and deform the contour"
        )
    return np.exp(expo), lt


# The integrand is [A + i lam g' v + i lt x1' v] e^(lam (g - g0) + i lt x2) with
# A = x2' V1 - x1' V2.  Its lam-free node data (x2, g, g', x1', v, A) are computed
# once per node array and kept in a dict that the caller of _integrator owns.


def _curve_nodes(curve: TrigCurve, wave):
    def data(ts: np.ndarray):
        jets = eval_jets(curve, ts, order=1)
        x1, x2 = jets[0]
        x1p, x2p = jets[1]
        s = _waves.sample(wave, (x1, x2))
        V1, V2 = s.V
        return x2, x1 + 1j * x2, x1p + 1j * x2p, x1p, s.v, x2p * V1 - x1p * V2

    return data


def _corner_nodes(slope: float, wave):
    def data(ts: np.ndarray):
        ts = np.asarray(ts, dtype=complex)
        x1, x2 = ts, slope * ts
        s = _waves.sample(wave, (x1, x2))
        V1, V2 = s.V
        return x2, (1.0 + 1j * slope) * ts, 1.0 + 1j * slope, 1.0, s.v, slope * V1 - V2

    return data


def _node_cache(data, memo: dict, piece: int):
    def cached(ts: np.ndarray):
        key = (piece, ts.dtype.str, ts.tobytes())
        if key not in memo:
            memo[key] = data(ts)
        return memo[key]

    return cached


def _lam_step(data, p: SpectralParams, g0: complex):
    def fn(ts: np.ndarray) -> np.ndarray:
        x2, g, gp, x1p, v, A = data(ts)
        E, lt = _exp_factor(p, g, x2, g0)
        return (A + 1j * p.lam * gp * v + 1j * lt * x1p * v) * E

    return fn


def _trapezoid(fn, tol: float, start: int):
    n = max(start, 8)
    prev = None
    while n <= _MAX_TRAP:
        ts = -math.pi + 2.0 * math.pi * np.arange(n) / n
        cur = 2.0 * math.pi / n * complex(fn(ts).sum())
        if prev is not None and abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur, n
        prev = cur
        n *= 2
    raise QuadratureNotConverged(f"trapezoid rule still moving at {_MAX_TRAP} nodes")


_GAUSS_CACHE: dict = {}


def _gauss01(n: int):
    if n not in _GAUSS_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GAUSS_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _GAUSS_CACHE[n]


def _panel(fn, a: complex, b: complex, n: int) -> complex:
    u, w = _gauss01(n)
    zs = a + (b - a) * u
    return (b - a) * complex((fn(zs) * w).sum())


def _adaptive_segment(fn, a, b, n, whole, abs_tol, depth, counter):
    # `whole` is the parent's value of the panel [a, b]
    mid = 0.5 * (a + b)
    left = _panel(fn, a, mid, n)
    right = _panel(fn, mid, b, n)
    counter[0] += 2 * n
    if abs(whole - (left + right)) <= abs_tol:
        return left + right
    if depth >= _MAX_DEPTH:
        raise QuadratureNotConverged(
            f"panel [{a:.4g}, {b:.4g}] disagrees by {abs(whole - left - right):.3g} at max depth"
        )
    return _adaptive_segment(fn, a, mid, n, left, 0.5 * abs_tol, depth + 1, counter) + _adaptive_segment(
        fn, mid, b, n, right, 0.5 * abs_tol, depth + 1, counter
    )


def _panel_chain(fn, endpoints, n, tol):
    segs = list(zip(endpoints[:-1], endpoints[1:]))
    rough = [_panel(fn, a, b, n) for a, b in segs]
    lengths = np.array([abs(b - a) for a, b in segs])
    total_len = lengths.sum()
    abs_tol = tol * max(1.0, abs(sum(rough)))
    counter = [n * len(segs)]
    total = 0.0 + 0.0j
    for (a, b), whole, L in zip(segs, rough, lengths):
        total += _adaptive_segment(fn, a, b, n, whole, abs_tol * L / total_len, 0, counter)
    return total, counter[0]


def _integrator(domain, wave, q: float, path, opts: QuadOptions, memo: dict):
    """lam -> (integral, nodes used); the node data of every piece of the path go to memo."""
    g0 = complex(opts.g0) if opts.g0 is not None else 0.0 + 0.0j
    n_panel = min(max(opts.nodes, 16), 64)

    def params(lam: float) -> SpectralParams:
        return SpectralParams(k=wave.k, q=q, lam=lam)

    if isinstance(domain, CornerDomain):
        # split toward the corner where e^(lam t) concentrates
        legs = [
            (seg.orient, [seg.a, 0.5 * seg.a, 0.25 * seg.a, 0.0], _node_cache(_corner_nodes(seg.slope, wave), memo, i))
            for i, seg in enumerate(corner_segments(domain))
        ]

        def corner(lam: float):
            p = params(lam)
            total = 0.0 + 0.0j
            nodes = 0
            for orient, ends, data in legs:
                val, used = _panel_chain(_lam_step(data, p, g0), ends, n_panel, opts.tol)
                total += orient * val
                nodes += used
            return total, nodes

        return corner

    if not isinstance(domain, TrigCurve):
        raise TypeError(f"unsupported domain {type(domain).__name__}")
    data = _node_cache(_curve_nodes(domain, wave), memo, 0)

    if isinstance(path, ContourPath):
        ends = list(path.waypoints)
    else:
        if path is not None:
            a, b = path
            if abs(a + math.pi) > 1e-12 or abs(b - math.pi) > 1e-12:
                raise ValueError("real-interval path must be the full period (-pi, pi)")
        if opts.mode != "panel_gauss":
            return lambda lam: _trapezoid(_lam_step(data, params(lam), g0), opts.tol, max(opts.nodes, 64))
        ends = list(np.linspace(-math.pi, math.pi, 9))
    return lambda lam: _panel_chain(_lam_step(data, params(lam), g0), ends, n_panel, opts.tol)


def boundary_integral_I(domain, wave, q: float, lam: float, path=None, opts: QuadOptions | None = None) -> complex:
    """The diagnostic integral; with opts.g0 set, returns e^(-lam g0) I(lam)."""
    memo: dict = {}
    try:
        val, _ = _integrator(domain, wave, q, path, opts or QuadOptions(), memo)(lam)
    finally:
        memo.clear()  # a raised error's traceback keeps this frame, not the node data, alive
    return val


def _in_blocks(fn, ts: np.ndarray, points_per_node: int) -> np.ndarray:
    step = max(1, _BLOCK_POINTS // points_per_node)
    return np.concatenate([fn(ts[i : i + step]) for i in range(0, len(ts), step)])


def _w_prime_ring(wave, curve: TrigCurve, ts: np.ndarray) -> np.ndarray:
    """d/dt [i V1 + V2] by Cauchy differentiation on a small ring at each node."""
    theta = 2.0 * math.pi * np.arange(_RING_N) / _RING_N
    ring = _RING_R * np.exp(1j * theta)

    def block(ts: np.ndarray) -> np.ndarray:
        zs = np.asarray(ts, dtype=complex)[:, None] + ring
        x1, x2 = eval_jets(curve, zs.ravel(), order=0)[0]
        V1, V2 = _waves.gradient(wave, (x1, x2))
        wv = (1j * V1 + V2).reshape(zs.shape)
        return (wv * np.exp(-1j * theta)).mean(axis=1) / _RING_R

    return _in_blocks(block, ts, _RING_N)


def boundary_integral_I_byparts(curve: TrigCurve, wave, q: float, lam: float, path=None, opts: QuadOptions | None = None) -> complex:
    """lam I(lam) in the integrated-by-parts form
    int [lam lt (x2' + i x1') v + W' + i lt x2' W] e^(lam g + i lt x2) dt, W = i V1 + V2."""
    if not isinstance(curve, TrigCurve):
        raise TypeError("integration by parts needs a closed curve")
    opts = opts or QuadOptions()
    p = SpectralParams(k=wave.k, q=q, lam=lam)
    g0 = complex(opts.g0) if opts.g0 is not None else 0.0 + 0.0j

    def fn(ts: np.ndarray) -> np.ndarray:
        jets = eval_jets(curve, ts, order=1)
        x1, x2 = jets[0]
        x1p, x2p = jets[1]
        s = _waves.sample(wave, (x1, x2))
        V1, V2 = s.V
        w = 1j * V1 + V2
        wp = _w_prime_ring(wave, curve, ts)
        g = x1 + 1j * x2
        E, lt = _exp_factor(p, g, x2, g0)
        return (p.lam * lt * (x2p + 1j * x1p) * s.v + wp + 1j * lt * x2p * w) * E

    if isinstance(path, ContourPath):
        n_panel = min(max(opts.nodes, 16), 64)
        val, _ = _panel_chain(fn, list(path.waypoints), n_panel, opts.tol)
        return val
    val, _ = _trapezoid(fn, opts.tol, max(opts.nodes, 64))
    return val


def area_integral_oracle(curve: TrigCurve, wave, q: float, lam: float, opts: QuadOptions | None = None) -> complex:
    """Area integral of u e^(i x . xi) over the region via (s,t) -> s x(t).

    Requires the curve star-shaped about the origin: the radial Jacobian
    x1 x2' - x2 x1' must stay positive on a 2048-point sample.
    """
    opts = opts or QuadOptions()
    p = SpectralParams(k=wave.k, q=q, lam=lam)
    lt = lambda_tilde(p)
    xi2 = p.lam + lt

    ts_chk = np.linspace(-math.pi, math.pi, 2048, endpoint=False)
    jets = eval_jets(curve, ts_chk, order=1)
    jac = (jets[0][0] * jets[1][1] - jets[0][1] * jets[1][0]).real
    jmax = float(jac.max())
    # isolated zeros are fine (cusps, boundary touching the origin); sign flips are not
    if jmax <= 0.0 or float(jac.min()) < -1e-12 * jmax:
        raise StarShapeViolated(
            f"radial Jacobian spans [{float(jac.min()):.3g}, {jmax:.3g}]; "
            "curve not star-shaped about 0"
        )

    su, sw = _gauss01(64)

    def block(ts: np.ndarray) -> np.ndarray:
        jets = eval_jets(curve, ts, order=1)
        x1, x2 = jets[0]
        x1p, x2p = jets[1]
        j0 = x1 * x2p - x2 * x1p
        # rows: the 64 Gauss radii s; columns: the nodes
        y1 = su[:, None] * x1
        y2 = su[:, None] * x2
        u = _waves.value(wave, (y1, y2))
        acc = ((sw * su)[:, None] * u * np.exp(p.lam * y1 + 1j * xi2 * y2)).sum(axis=0)
        return acc * j0

    val, _ = _trapezoid(lambda ts: _in_blocks(block, ts, len(su)), opts.tol, max(opts.nodes, 128))
    return val


def lambda_sweep(domain, wave, q: float, lam_grid, p_power: float, g0: complex, path=None, opts: QuadOptions | None = None) -> list[SweepRecord]:
    """resid(lam) = lam^p e^(-lam g0) I(lam), exponential folded into the quadrature.

    Every lam runs the same node sets, so their lam-free integrand data are
    computed once for the whole sweep."""
    grid = [float(x) for x in lam_grid]
    if any(b <= a for a, b in zip(grid[:-1], grid[1:])):
        raise ValueError("lambda grid must be strictly increasing")
    memo: dict = {}
    records = []
    try:
        run = _integrator(domain, wave, q, path, replace(opts or QuadOptions(), g0=complex(g0)), memo)
        for lam in grid:
            val, used = run(lam)
            w = lam * complex(g0)
            if w.real > _EXP_CAP:
                raw = complex(math.inf, math.inf)
            else:
                raw = val * cmath.exp(w)
            records.append(SweepRecord(lam=lam, I_raw=raw, resid=lam**p_power * val, nodes_used=used))
    finally:
        memo.clear()  # a raised error's traceback keeps this frame, not the node data, alive
    return records


def fit_decay(records: list[SweepRecord]) -> FitResult:
    """Least-squares resid = A + B/lam on the last quartile; order from log|resid - A|."""
    if len(records) < 4:
        raise InsufficientData(f"need at least 4 sweep records, got {len(records)}")
    tail = records[-max(4, len(records) // 4):]
    lam = np.array([r.lam for r in tail], dtype=float)
    y = np.array([r.resid for r in tail], dtype=complex)
    mat = np.column_stack([np.ones_like(lam), 1.0 / lam])
    coef, *_ = np.linalg.lstsq(mat, y, rcond=None)
    limit = complex(coef[0])
    dev = np.clip(np.abs(y - limit), 1e-300, None)
    slope = float(np.polyfit(np.log(lam), np.log(dev), 1)[0])
    return FitResult(limit=limit, order=-slope)


def sweep_to_csv(records: list[SweepRecord]) -> str:
    lines = ["lambda,re_I,im_I,re_resid,im_resid,nodes_used"]
    for r in records:
        lines.append(
            f"{float(r.lam)!r},{float(r.I_raw.real)!r},{float(r.I_raw.imag)!r},"
            f"{float(r.resid.real)!r},{float(r.resid.imag)!r},{int(r.nodes_used)}"
        )
    return "\n".join(lines) + "\n"
