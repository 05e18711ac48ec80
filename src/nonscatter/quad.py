"""Direct quadrature of the boundary integral, the area oracle, and lambda sweeps.

The diagnostic integral over a closed curve x(t), t in [-pi, pi], is
    I(lam) = int [(x2', -x1') . V + i lam g' v + i lt x1' v] e^(lam g + i lt x2) dt
with g = x1 + i x2, v = u(x(t)), V = grad u(x(t)), lt = sqrt(lam^2+k^2 q) - lam.
Real-interval evaluation uses the periodic trapezoid rule; deformed contours
and corner legs use adaptive Gauss panels.  lambda_sweep folds its
normalization e^(-lam g0) into the exponent so large-lam sweeps never overflow.

Every integral is one walk over the rule's node arrays that serves a whole
lam grid (a single lam is the one-row case): the Gauss panel tree is walked
depth first, and each visited panel evaluates the lam-free integrand data
(curve jets, v and V) once for every lam still refining there; the trapezoid
rule doubles all lams together and evaluates only the new nodes.  Each lam
keeps its own tolerance and convergence test, so it gets the rule, the value
and the error that it gets alone.

The integrand carries rounding noise of its own: lam (g - g0) + i lt x2 has an
absolute error of about eps (1 + lam (|g| + |g0|) + |lt x2|), which exp turns
into a relative error of f.  So a rule or panel also accepts when its
disagreement is at most its roundoff floor, 32 eps times int |f| (1 + lam (|g|
+ |g0|) + |lt x2|) dt summed from the nodes it has already evaluated; a
tolerance below that noise would otherwise halve panels down to max depth.
Each lam reports its achieved error: the sum, over the panels or the rule it
accepted, of the larger of the disagreement and the floor, so it also covers
the rounding of values that met the tolerance.  It exceeds tol max(1, |value|)
where the floor is above the tolerance, and where the first coarse Gauss sum,
which scales the tolerance of a walk, overstated |value|.

Neither test can see a saddle or corner peak between the nodes: where the
first comparison's nodes nearest the peak see it below eps, its rules agree on
nothing.  Such a lam raises QuadratureNotConverged naming the peak's width,
unless the contour V-turns at the saddle, where the peak's two sides cancel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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
    "area_integral_oracle",
    "lambda_sweep",
    "fit_decay",
    "sweep_to_csv",
]

_EXP_CAP = 700.0
_PANEL = 32  # Gauss nodes per panel
_TRAP = 64  # nodes of the first trapezoid rule (twice that for the area oracle)
_MAX_TRAP = 1 << 17
_MAX_DEPTH = 14
# roundoff floor: c eps times the integrand's noise mass, with c = 32, the least
# power of two under which the builtin plane-wave sweeps converge at tol 1e-14
# and the cardioid's at lam = 1000 (16 left the latter at max depth)
_FLOOR = 32.0 * np.finfo(float).eps
# e^-36 is eps: nodes that see a peak below that cannot see it at all
_BLIND = -math.log(np.finfo(float).eps)
# points per wave call in the area oracle: 64 radii times a 131072-node
# trapezoid would otherwise take gigabytes
_BLOCK_POINTS = 1 << 16


@dataclass(frozen=True)
class QuadOptions:
    tol: float = 1e-10

    def __post_init__(self):
        if not 1e-14 <= self.tol <= 1e-4:
            raise ValueError(f"tol must lie in [1e-14, 1e-4], got {self.tol}")


@dataclass(frozen=True, slots=True)
class SweepRecord:
    """One lam of a sweep.  error is the achieved error of resid: lam^p times the
    sum, over the accepted panels or rule, of the larger of the disagreement and
    the roundoff floor (sweep_to_csv leaves it out)."""

    lam: float
    I_raw: complex
    resid: complex
    nodes_used: int
    error: float = 0.0


@dataclass(frozen=True, slots=True)
class FitResult:
    limit: complex
    order: float


def _overflow(worst: float) -> OverflowRisk:
    return OverflowRisk(
        f"exponent lam (Re g - Re g0) reaches {worst:.1f} > {_EXP_CAP:.0f}; "
        "normalize by g0 = g(t0) and deform the contour"
    )


# The integrand is [A + i lam g' v + i lt x1' v] e^(lam (g - g0) + i lt x2) with
# A = x2' V1 - x1' V2.  Its lam-free node data (x2, g, g', x1', v, A) are computed
# once per node array and serve every lam row of the walk.


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


def _lam_rows(data, lams: np.ndarray, lts: np.ndarray, g0: complex):
    """A walk step: (nodes, rows) -> (prefactor, exponent, noise).  The first two
    have shape (rows, nodes).  The noise (coef, basis), of shapes (rows, 3) and
    (3, nodes), is the exponent's rounding error in units of eps, coef @ basis =
    1 + lam (|g| + |g0|) + lt |x2| (lt > 0)."""
    coefs = np.column_stack([np.ones_like(lams), lams, lts])

    def step(ts: np.ndarray, rows: np.ndarray):
        x2, g, gp, x1p, v, A = data(ts)
        lam, lt = lams[rows, None], lts[rows, None]
        x2 = np.asarray(x2, dtype=complex)
        basis = np.empty((3, len(ts)))
        basis[0] = 1.0
        np.abs(g, out=basis[1])
        basis[1] += abs(g0)
        np.abs(x2, out=basis[2])
        return A + 1j * lam * gp * v + 1j * lt * x1p * v, lam * (g - g0) + 1j * lt * x2, (coefs[rows], basis)

    return step


def _gauss01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


_PANEL_U, _PANEL_W = _gauss01(_PANEL)  # the panels' nodes and weights on [0, 1]


class _Walk:
    """One quadrature pass that serves a grid of lam rows, numbered in increasing lam.

    A step maps (nodes, rows) to the integrand's prefactor, exponent and noise,
    arrays of shape (rows, nodes), or to its values, None and a noise of 1.  The
    walk visits each node array once, for every row still running there, and
    each row keeps its own tolerance, roundoff floor, convergence test, node
    count and achieved error, so its rule is the one it would get alone.  A row
    that fails keeps its first error and stops, and so does every larger row:
    the walk's error is that of its smallest failed row, the one where a
    lam-by-lam loop would have stopped.
    """

    def __init__(self):
        self.stop = math.inf  # rows from here on no longer run
        self.error: Exception | None = None

    def fail(self, row: int, exc: Exception) -> None:
        if row < self.stop:
            self.stop, self.error = row, exc

    def values(self, step, zs: np.ndarray, rows: np.ndarray, pieces: int, weights=None):
        """(rows kept, values of shape (kept, pieces, nodes per piece), noise mass).
        The noise mass of a row is sum_i weights_i |f_i| times the step's noise at
        node i, or None without weights.  The exponent cap is checked per row and
        piece; no row is exponentiated past it."""
        pre, expo, (coef, basis) = step(zs, rows)
        shape = (len(rows), pieces, len(zs) // pieces)
        if expo is not None:
            worst = expo.real.reshape(shape).max(axis=-1)
            over = worst > _EXP_CAP
            if over.any():
                for i in np.flatnonzero(over.any(axis=1)):
                    self.fail(rows[i], _overflow(worst[i, np.argmax(over[i])]))
                keep = rows < self.stop
                rows, pre, expo, coef = rows[keep], pre[keep], expo[keep], coef[keep]
            # E is bound to a name: numpy would compute pre * <temporary> in place as
            # <temporary> * pre, and complex products are fused, so their order shows in the bits
            E = np.exp(expo)
            pre = pre * E
        F = pre.reshape((len(rows),) + shape[1:])
        if weights is None:
            return rows, F, None
        # einsum, not a BLAS product: each row's sum must not depend on how many rows there are
        return rows, F, (np.einsum("rn,kn->rk", np.abs(pre), basis * weights) * coef).sum(axis=-1)

    def trapezoid(self, step, tol: float, n: int, rows: np.ndarray) -> dict:
        """{row: (integral, nodes, error)} from the periodic trapezoid rule on [-pi, pi]
        of n nodes, doubled until two rules agree to within the tolerance or the rule's
        roundoff floor; each doubling evaluates only the new nodes, and M keeps each
        row's noise mass over all nodes so far."""
        rows, F, M = self.values(step, -math.pi + 2.0 * math.pi * np.arange(n) / n, rows, 1, 1.0)
        F = F[:, 0]
        prev: dict = {}
        out = {}
        while rows.size:
            going = []
            h = 2.0 * math.pi / n
            for i, (r, total, m) in enumerate(zip(rows.tolist(), F.sum(axis=-1), M.tolist())):
                cur = h * complex(total)
                miss = abs(cur - prev[r]) if r in prev else math.inf
                floor = _FLOOR * h * m
                if miss <= max(tol * max(1.0, abs(cur)), floor):
                    out[r] = (cur, n, max(miss, floor))
                else:
                    prev[r] = cur
                    going.append(i)
            rows, F, M = rows[going], F[going], M[going]
            n *= 2
            if n > _MAX_TRAP:
                for r in rows.tolist():
                    self.fail(r, QuadratureNotConverged(f"trapezoid rule still moving at {_MAX_TRAP} nodes"))
                break
            if rows.size:
                # the even nodes of the 2n-rule are the n-rule's, bit for bit
                kept, odd, odd_mass = self.values(step, -math.pi + 2.0 * math.pi * np.arange(1, n, 2) / n, rows, 1, 1.0)
                on = np.isin(rows, kept)
                full = np.empty((len(kept), n), dtype=complex)
                full[:, 0::2] = F[on]
                full[:, 1::2] = odd[:, 0]
                rows, F, M = kept, full, M[on] + odd_mass
        return out

    def chain(self, step, ends, tol: float, rows: np.ndarray) -> dict:
        """{row: (integral, nodes used, error)} from adaptive Gauss panels along the
        polyline `ends`, with absolute tolerance tol max(1, |rough sum|) per row."""
        u, w = _PANEL_U, _PANEL_W
        segs = list(zip(ends[:-1], ends[1:]))
        rows, F, _ = self.values(step, np.concatenate([a + (b - a) * u for a, b in segs]), rows, len(segs))
        sums = (F * w).sum(axis=-1)
        lengths = np.array([abs(b - a) for a, b in segs])
        total_len = lengths.sum()
        rough = {r: [(b - a) * complex(x) for (a, b), x in zip(segs, row)] for r, row in zip(rows.tolist(), sums)}
        abs_tol = {r: tol * max(1.0, abs(sum(vals))) for r, vals in rough.items()}
        used = {r: _PANEL * len(segs) for r in rough}
        err = {r: 0.0 for r in rough}
        totals = {r: 0.0 + 0.0j for r in rough}
        for j, ((a, b), L) in enumerate(zip(segs, lengths)):
            live = [r for r in totals if r < self.stop]
            got = self._refine(
                step, a, b, {r: rough[r][j] for r in live}, {r: abs_tol[r] * L / total_len for r in live}, 0, used, err
            )
            totals = {r: totals[r] + v for r, v in got.items()}
        return {r: (v, used[r], err[r]) for r, v in totals.items() if r < self.stop}

    def _refine(self, step, a, b, whole: dict, tol: dict, depth: int, used: dict, err: dict) -> dict:
        """{row: value of the panel [a, b]}, halving it until the halves of each row
        agree with `whole`, that row's value of the panel, to within its tolerance
        or the halves' roundoff floor; each accepted panel adds the larger of its
        disagreement and its floor to err."""
        if not whole:
            return {}
        u, w = _PANEL_U, _PANEL_W
        mid = 0.5 * (a + b)
        zs = np.concatenate([a + (mid - a) * u, mid + (b - mid) * u])
        # both halves are |b - a| / 2 wide
        rows, F, M = self.values(step, zs, np.array(list(whole)), 2, np.concatenate((w, w)))
        sums = (F * w).sum(axis=-1)
        scale = _FLOOR * 0.5 * abs(b - a)
        done = {}
        halves = []
        for r, (s_left, s_right), m in zip(rows.tolist(), sums, M.tolist()):
            left = (mid - a) * complex(s_left)
            right = (b - mid) * complex(s_right)
            used[r] += 2 * _PANEL
            miss = abs(whole[r] - (left + right))
            floor = scale * m
            if miss <= max(tol[r], floor):
                done[r] = left + right
                err[r] += max(miss, floor)
            elif depth >= _MAX_DEPTH:
                self.fail(
                    r,
                    QuadratureNotConverged(
                        f"panel [{a:.4g}, {b:.4g}] disagrees by {miss:.3g} at max depth"
                    ),
                )
            else:
                halves.append((r, left, right))
        halves = [h for h in halves if h[0] < self.stop]
        if halves:
            half_tol = {r: 0.5 * tol[r] for r, _, _ in halves}
            lv = self._refine(step, a, mid, {r: x for r, x, _ in halves}, half_tol, depth + 1, used, err)
            rv = self._refine(step, mid, b, {r: x for r, _, x in halves if r in lv}, half_tol, depth + 1, used, err)
            done.update((r, lv[r] + x) for r, x in rv.items())
        return {r: x for r, x in done.items() if r < self.stop}


def _peak(curve: TrigCurve, path) -> tuple[float, float]:
    """(kappa, d) of the peak of e^(lam (g - g0)) on the path, or (0, 0) when hiding
    it loses nothing.  Re g falls as -kappa (t - t*)^2 / 2 from its top t*,
    so the peak is 1 / sqrt(lam kappa) wide, and d is the larger distance from t* to
    the nearest node on either side of it in the walk's first comparison: the
    halved panels next to the saddle waypoint of a contour (each side must see the
    peak), or the trapezoid rule of 2 _TRAP nodes on the real interval, where t*
    is the top of Re g."""
    if path is not None:
        i = path.i_saddle
        sides = [w - path.t0 for w in (path.waypoints[i - 1], path.waypoints[i + 1])]
        if (sides[0] * sides[1].conjugate()).real > 0.0:
            # a V-turn: both sides leave t0 into one valley, so their peaks cancel
            # and a rule blind to both loses nothing
            return 0.0, 0.0
        x1, x2 = eval_jets(curve, [path.t0], order=2)[2]
        g2 = complex(x1[0] + 1j * x2[0])
        # along the side v, Re g falls at the rate -Re(g'' v^2) / |v|^2; _PANEL_U[0] is the first Gauss node
        peaks = [(-(g2 * v * v).real / abs(v) ** 2, 0.5 * _PANEL_U[0] * abs(v)) for v in sides]
        return max(peaks, key=lambda kd: kd[0] * kd[1] ** 2)
    h = math.pi / _TRAP  # the spacing of the 2 _TRAP-node rule
    ts = -math.pi + 2.0 * math.pi * np.arange(_TRAP) / _TRAP
    (x1, _), (x1p, _), (x1pp, _) = eval_jets(curve, ts, order=2)
    k = int(np.argmax(x1.real))
    kappa = -float(x1pp[k].real)
    if kappa <= 0.0:
        return 0.0, 0.0
    # one Newton step from the top node to t*; d is the spacing less the distance to the nearest node
    off = (ts[k] + float(x1p[k].real) / kappa + math.pi) / h % 1.0
    return kappa, h * (1.0 - min(off, 1.0 - off))


def _integrals(domain, wave, q: float, path, opts: QuadOptions, lams, g0: complex) -> list:
    """[(e^(-lam g0) I(lam), nodes used, achieved error)] for each lam of the increasing list `lams`,
    from one walk; raises the error of the smallest lam that fails."""
    if isinstance(domain, CornerDomain):
        # split toward the corner where e^(lam t) concentrates
        legs = [
            (seg.orient, [seg.a, 0.5 * seg.a, 0.25 * seg.a, 0.0], _corner_nodes(seg.slope, wave))
            for seg in corner_segments(domain)
        ]
    elif not isinstance(domain, TrigCurve):
        raise TypeError(f"unsupported domain {type(domain).__name__}")
    elif isinstance(path, ContourPath):
        legs = [(1, list(path.waypoints), _curve_nodes(domain, wave))]
    elif path is None:
        legs = [(1, None, _curve_nodes(domain, wave))]
    else:
        raise TypeError(f"path must be None or a ContourPath, got {type(path).__name__}")

    walk = _Walk()
    # the peak of e^(lam Re(g - g0)) falls as e^(-lam kappa x^m / m) at a distance x from
    # its top, so it is (lam kappa)^(-1/m) wide; the first comparison's nearest nodes lie d from it
    where, kappa, d, m = "saddle", 0.0, 0.0, 2
    if isinstance(domain, CornerDomain):
        # Re g = t on a leg: the peak at the corner t = 0 falls linearly, and its
        # nearest nodes are those of the halved panel [a / 8, 0], |a| u0 / 8 from it
        where, kappa, m = "corner", 1.0, 1
        d = max(abs(ends[0]) for _, ends, _ in legs) * _PANEL_U[0] / 8.0
    elif lams:
        kappa, d = _peak(domain, path)
    lts = []
    for row, lam in enumerate(lams):
        if lam * kappa * d**m / m > _BLIND:
            width = (lam * kappa) ** (-1.0 / m)
            walk.fail(row, QuadratureNotConverged(
                f"at lam = {lam!r} the {where} peak is {width:.3g} wide, but the first rule's nodes "
                f"nearest it lie {d:.3g} ({d / width:.3g} widths) from it: the rule cannot see it"
            ))
            break
        try:
            lts.append(lambda_tilde(SpectralParams(k=wave.k, q=q, lam=lam)))
        except ValueError as e:
            walk.fail(row, e)
            break
    lam_rows, lt_rows = np.array(lams[: len(lts)], dtype=float), np.array(lts)
    rows = np.arange(len(lts))
    got = []
    for _, ends, data in legs:
        step = _lam_rows(data, lam_rows, lt_rows, g0)
        rows = rows[rows < walk.stop]
        if ends is None:
            got.append(walk.trapezoid(step, opts.tol, _TRAP, rows))
        else:
            got.append(walk.chain(step, ends, opts.tol, rows))
    if walk.error is not None:
        raise walk.error
    if not isinstance(domain, CornerDomain):
        return [got[0][r] for r in range(len(lams))]
    out = []
    for r in range(len(lams)):
        total, nodes, error = 0.0 + 0.0j, 0, 0.0
        for (orient, _, _), leg in zip(legs, got):
            val, used, miss = leg[r]
            total += orient * val
            nodes += used
            error += miss
        out.append((total, nodes, error))
    return out


def boundary_integral_I(domain, wave, q: float, lam: float, path=None, opts: QuadOptions | None = None) -> complex:
    """The diagnostic integral I(lam), on the real interval when path is None.

    For the normalized value e^(-lam g0) I(lam), call lambda_sweep(..., [lam], 0.0, g0)."""
    [(val, _, _)] = _integrals(domain, wave, q, path, opts or QuadOptions(), [lam], 0j)
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

    per_call = _BLOCK_POINTS // len(su)

    def step(ts: np.ndarray, rows: np.ndarray):
        vals = np.concatenate([block(ts[i : i + per_call]) for i in range(0, len(ts), per_call)])
        return vals[None, :], None, (np.ones((1, 1)), np.ones((1, len(ts))))

    walk = _Walk()
    got = walk.trapezoid(step, opts.tol, 2 * _TRAP, np.arange(1))
    if walk.error is not None:
        raise walk.error
    return got[0][0]


def lambda_sweep(domain, wave, q: float, lam_grid, p_power: float, g0: complex, path=None, opts: QuadOptions | None = None) -> list[SweepRecord]:
    """resid(lam) = lam^p e^(-lam g0) I(lam), exponential folded into the quadrature.

    One walk serves the whole grid: each node array is evaluated once, for
    every lam still refining there, and each lam gets the rule it would get
    alone.  A failing sweep raises the error of its smallest failing lam."""
    grid = [float(x) for x in lam_grid]
    if any(b <= a for a, b in zip(grid[:-1], grid[1:])):
        raise ValueError("lambda grid must be strictly increasing")
    records = []
    for lam, (val, used, error) in zip(grid, _integrals(domain, wave, q, path, opts or QuadOptions(), grid, complex(g0))):
        w = lam * complex(g0)
        if w.real > _EXP_CAP:
            raw = complex(math.inf, math.inf)
        else:
            raw = val * cmath.exp(w)
        scale = lam**p_power
        records.append(SweepRecord(lam=lam, I_raw=raw, resid=scale * val, nodes_used=used, error=scale * error))
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
