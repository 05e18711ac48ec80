"""Trigonometric-polynomial boundary curves, complex jets, and corner wedges.

Curves are real trig polynomials x_j(t) = a_j0 + sum_m (a_jm cos mt + b_jm sin mt),
degree M <= 16, so the phase g(t) = x1(t) + i x2(t) is entire.  In w = e^{it}
each x_j is the Laurent polynomial sum_{|m| <= M} c_m w^m with c_0 = a_j0 and
c_{+-m} = (a_jm -+ i b_jm) / 2, and d/dt = i w d/dw multiplies c_m by i m.  Each
TrigCurve builds the table of these coefficients for derivative orders 0..4
once; a jet at complex t is then one exp, a running product for the powers of
w and 1/w, and one matrix product for every order at once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidShapeParams

__all__ = [
    "TrigCurve",
    "CurveJet",
    "CornerDomain",
    "CornerSegment",
    "eval_jet",
    "eval_jets",
    "g_jet",
    "builtin",
    "corner_segments",
]

MAX_DEGREE = 16
_MAX_ORDER = 4


def _coeffs(seq) -> tuple[float, ...]:
    return tuple(float(c) for c in seq)


@dataclass(frozen=True)
class TrigCurve:
    """Closed curve from Fourier coefficients; construction runs advisory checks."""

    a1: tuple[float, ...]
    b1: tuple[float, ...]
    a2: tuple[float, ...]
    b2: tuple[float, ...]
    check: bool = True
    # rows x1^(d), x2^(d) for d = 0..4; columns w^0..w^M, then w^-0..w^-M
    laurent: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = [_coeffs(self.a1), _coeffs(self.b1), _coeffs(self.a2), _coeffs(self.b2)]
        deg = max(len(r) for r in rows) - 1
        if deg > MAX_DEGREE:
            raise InvalidShapeParams(f"trig degree {deg} exceeds {MAX_DEGREE}")
        n = max(deg + 1, 1)
        padded = [r + (0.0,) * (n - len(r)) for r in rows]
        # sin(0 t) carries no information
        padded[1] = (0.0,) + padded[1][1:]
        padded[3] = (0.0,) + padded[3][1:]
        for name, row in zip(("a1", "b1", "a2", "b2"), padded):
            object.__setattr__(self, name, row)
        # at least the columns of w^+-1, which eval_jets always fills
        coeffs = np.zeros((4, max(n, 2)))
        coeffs[:, :n] = padded
        if not np.isfinite(coeffs).all():
            raise InvalidShapeParams("Fourier coefficients must be finite")
        a, b = coeffs[0::2], coeffs[1::2]
        up = 0.5 * (a - 1j * b)
        up[:, 0] = a[:, 0]
        down = 0.5 * (a + 1j * b)
        down[:, 0] = 0.0
        m = np.arange(coeffs.shape[1], dtype=float)
        # (+-i m)^d from exact factors, so that no power of i adds roundoff
        units = (1, 1j, -1, -1j)
        table = [
            np.concatenate([up * (units[d % 4] * m**d), down * (units[-d % 4] * m**d)], axis=1)
            for d in range(_MAX_ORDER + 1)
        ]
        object.__setattr__(self, "laurent", np.concatenate(table))
        if self.check:
            self._advisory_checks()

    def _advisory_checks(self):
        ts = np.linspace(-math.pi, math.pi, 2048, endpoint=False)
        jets = eval_jets(self, ts, order=1)
        x1, x2 = jets[0][0].real, jets[0][1].real
        x1p, x2p = jets[1][0].real, jets[1][1].real
        area = 0.5 * np.mean(x1 * x2p - x2 * x1p) * 2.0 * math.pi
        if area <= 0:
            warnings.warn("curve orientation is not counterclockwise (signed area <= 0)", stacklevel=4)
        if _chords_cross(x1, x2):
            warnings.warn("curve appears to self-intersect on a 2048-point chord sample", stacklevel=4)


def _boxes(lo_x, hi_x, lo_y, hi_y, starts):
    """Bounding boxes (lo_x, hi_x, lo_y, hi_y) of the chord runs that begin at starts."""
    return (
        np.minimum.reduceat(lo_x, starts), np.maximum.reduceat(hi_x, starts),
        np.minimum.reduceat(lo_y, starts), np.maximum.reduceat(hi_y, starts),
    )


def _meet(a, b):
    """Matrix of which boxes of a meet which boxes of b, edges included."""
    return (
        (a[0][:, None] <= b[1][None, :]) & (b[0][None, :] <= a[1][:, None])
        & (a[2][:, None] <= b[3][None, :]) & (b[2][None, :] <= a[3][:, None])
    )


def _chords_cross(x, y) -> bool:
    """Proper-crossing test among the closing chords of the sampled curve.

    The closed polygon splits into maximal sections, runs of chords whose signs
    (rx > 0, ry > 0) stay the same, a zero component counting as not positive.
    Along a section x and y are weakly monotone, so a later chord of a section
    lies in the closed quadrant beyond the end point q of an earlier one: their
    bounding boxes share at most q, and a proper crossing there would put q on
    the later chord, a zero that the strict predicate rejects (for neighbours
    d1 == 0 exactly).  Only chords of different sections are tested then, and
    only where their bounding boxes meet.  Chords are grouped in blocks of
    consecutive samples; the blocks that straddle a section boundary or whose
    box meets another section's box are box-tested against each other, and the
    strict predicate runs on the pairs that meet, unless both blocks lie inside
    one section.  It takes 2^13 chord pairs at a time, so that each temporary
    stays below 128 KiB and is reused rather than page-faulted in.  A closed
    polygon with no section boundary cannot move monotonically, so all its
    chords have zero length and none crosses.  The argument holds in exact
    arithmetic; tests/test_curves.py checks the rounded predicate of the
    pruned pairs against all pairs.
    """
    n, block = len(x), 8
    xy = np.stack((x, y))
    rises = np.diff(xy, axis=1, append=xy[:, :1]) > 0
    key = 2 * rises[0] + rises[1]
    new = key != np.roll(key, 1)
    if not new.any():
        return False
    # start the sample at a section boundary, so that every section is one run
    first = int(np.argmax(new))
    new = np.roll(new, -first)
    ring = np.concatenate((xy[:, first:], xy[:, :first + 1]), axis=1)
    (px, py), (qx, qy) = ring[:, :-1], ring[:, 1:]
    rx, ry = qx - px, qy - py
    sec = np.cumsum(new) - 1
    starts = np.arange(0, n, block)
    chord_box = np.minimum(px, qx), np.maximum(px, qx), np.minimum(py, qy), np.maximum(py, qy)
    box = _boxes(*chord_box, starts)
    # the section of each block, or -1 for a block that straddles a boundary
    own = np.where(sec[starts] == sec[np.minimum(starts + block - 1, n - 1)], sec[starts], -1)
    # which blocks meet the box of a section not their own (a straddling block always does)
    near = _meet(box, _boxes(*chord_box, np.flatnonzero(new))) & (own[:, None] != np.arange(sec[-1] + 1))
    hot = np.flatnonzero(near.any(axis=1))
    hot_box = tuple(b[hot] for b in box)
    bi, bj = (hot[k] for k in np.nonzero(_meet(hot_box, hot_box)))
    # the predicate is symmetric in the two chords, so j >= i suffices
    keep = (bi <= bj) & ((own[bi] != own[bj]) | (own[bi] < 0))
    bi, bj = bi[keep], bj[keep]
    offs = np.arange(block)
    chunk = max(1, 2**13 // block**2)
    for c0 in range(0, len(bi), chunk):
        i = np.minimum(starts[bi[c0:c0 + chunk], None] + offs, n - 1)[:, :, None]
        j = np.minimum(starts[bj[c0:c0 + chunk], None] + offs, n - 1)[:, None, :]
        pxi, pyi, qxi, qyi, rxi, ryi = px[i], py[i], qx[i], qy[i], rx[i], ry[i]
        pxj, pyj, qxj, qyj, rxj, ryj = px[j], py[j], qx[j], qy[j], rx[j], ry[j]
        # d1, d2: endpoints of chord j against the line of chord i
        d1 = rxi * (pyj - pyi) - ryi * (pxj - pxi)
        d2 = rxi * (qyj - pyi) - ryi * (qxj - pxi)
        # d3, d4: endpoints of chord i against the line of chord j
        d3 = rxj * (pyi - pyj) - ryj * (pxi - pxj)
        d4 = rxj * (qyi - pyj) - ryj * (qxi - pxj)
        # strict inequalities drop a chord against itself and its neighbours
        if ((d1 * d2 < 0) & (d3 * d4 < 0)).any():
            return True
    return False


@dataclass(frozen=True)
class CurveJet:
    """Position and derivatives up to 4th order at one complex t, plus the phase jet."""

    t: complex
    x: tuple[complex, complex]
    xp: Optional[tuple[complex, complex]]
    xpp: Optional[tuple[complex, complex]]
    x3: Optional[tuple[complex, complex]]
    x4: Optional[tuple[complex, complex]]
    g: complex
    gp: Optional[complex]
    gpp: Optional[complex]
    g3: Optional[complex]


@dataclass(frozen=True)
class CornerDomain:
    """Wedge with vertex at the origin, opening leftward, bisected by the x1 axis."""

    theta: float
    a1: float
    a2: float

    def __post_init__(self):
        if not (0.0 < self.theta < 0.5 * math.pi):
            raise InvalidShapeParams(f"theta must lie in (0, pi/2), got {self.theta}")
        if not (self.a1 < 0 and self.a2 < 0):
            raise InvalidShapeParams("segment endpoints a1, a2 must be negative")


@dataclass(frozen=True)
class CornerSegment:
    """One straight edge x(t) = (t, slope*t), t running from a (<0) to 0.

    orient is the sign the parametrized integral carries in the counterclockwise
    boundary integral (the upper edge is traversed against its parametrization).
    """

    a: float
    slope: float
    orient: int


def corner_segments(c: CornerDomain) -> tuple[CornerSegment, CornerSegment]:
    m = math.tan(c.theta)
    upper = CornerSegment(a=c.a1, slope=-m, orient=-1)
    lower = CornerSegment(a=c.a2, slope=+m, orient=+1)
    return upper, lower


def eval_jets(curve: TrigCurve, ts, order: int = 3):
    """Jets at every t of ts: list over derivative order d of (x1^(d), x2^(d)), shaped like ts."""
    if not 0 <= order <= _MAX_ORDER:
        raise ValueError(f"order must be in 0..{_MAX_ORDER}, got {order}")
    ts = np.asarray(ts, dtype=complex)
    t = ts.reshape(-1)
    # fold Re t into [-pi, pi] so jets at t and t + 2 pi k collide to ulps
    t = t - 2.0 * math.pi * np.rint(t.real / (2.0 * math.pi))
    # powers[0, m] = w^m and powers[1, m] = w^-m: one exp, then products that double the run
    n = curve.laurent.shape[1] // 2
    powers = np.empty((2, n, t.size), dtype=complex)
    powers[:, 0] = 1.0
    np.exp(np.multiply.outer((1j, -1j), t), out=powers[:, 1])
    k = 1
    while k < n - 1:
        j = min(k, n - 1 - k)
        np.multiply(powers[:, 1:j + 1], powers[:, k:k + 1], out=powers[:, k + 1:k + j + 1])
        k += j
    rows = 2 * order + 2
    vals = (curve.laurent[:rows] @ powers.reshape(2 * n, -1)).reshape((rows,) + ts.shape)
    return [(vals[2 * d], vals[2 * d + 1]) for d in range(order + 1)]


def eval_jet(curve: TrigCurve, t, order: int = 4) -> CurveJet:
    """Jet of the curve (and of g) at one complex t, from eval_jets."""
    arrs = eval_jets(curve, [complex(t)], order)
    pairs = [(complex(p[0][0]), complex(p[1][0])) for p in arrs]
    pairs += [None] * (5 - len(pairs))
    gs = [p[0] + 1j * p[1] if p is not None else None for p in pairs[:4]]
    return CurveJet(
        t=complex(t),
        x=pairs[0],
        xp=pairs[1],
        xpp=pairs[2],
        x3=pairs[3],
        x4=pairs[4],
        g=gs[0],
        gp=gs[1],
        gpp=gs[2],
        g3=gs[3],
    )


def g_jet(curve: TrigCurve, t, order: int = 3) -> tuple[complex, ...]:
    """(g, g', ..., g^(order)) at complex t."""
    arrs = eval_jets(curve, [complex(t)], order)
    return tuple(complex(p[0][0] + 1j * p[1][0]) for p in arrs)


def builtin(name: str, *params: float) -> TrigCurve:
    """Named curves with exact Fourier coefficients (all degree <= 3)."""
    if name == "ellipse":
        if len(params) != 2:
            raise InvalidShapeParams("ellipse needs (a, b)")
        a, b = float(params[0]), float(params[1])
        if not a > b > 0:
            raise InvalidShapeParams(f"ellipse needs a > b > 0, got a={a}, b={b}")
        return TrigCurve(a1=(0.0, a), b1=(0.0,), a2=(0.0,), b2=(0.0, b))
    if name == "circle":
        if len(params) != 1:
            raise InvalidShapeParams("circle needs (r,)")
        r = float(params[0])
        if not r > 0:
            raise InvalidShapeParams(f"circle needs r > 0, got {r}")
        return TrigCurve(a1=(0.0, r), b1=(0.0,), a2=(0.0,), b2=(0.0, r))
    if params:
        raise InvalidShapeParams(f"curve {name!r} takes no shape parameters")
    if name == "cardioid":
        # (1 - cos t)(cos t, sin t)
        return TrigCurve(a1=(-0.5, 1.0, -0.5), b1=(0.0,), a2=(0.0,), b2=(0.0, 1.0, -0.5))
    if name == "deltoid":
        # (2 cos t + cos 2t, 2 sin t - sin 2t)
        return TrigCurve(a1=(0.0, 2.0, 1.0), b1=(0.0,), a2=(0.0,), b2=(0.0, 2.0, -1.0))
    if name == "nonconvex":
        # (2 + cos 2t)(cos t, sin t), expanded by product-to-sum
        return TrigCurve(a1=(0.0, 2.5, 0.0, 0.5), b1=(0.0,), a2=(0.0,), b2=(0.0, 1.5, 0.0, 0.5))
    raise InvalidShapeParams(f"unknown builtin curve {name!r}")
