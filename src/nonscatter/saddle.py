"""Saddle points of the phase, descent-region maps, and admissible contours.

A contour from -pi to pi through a simple saddle t0 is admissible when
Re g(t) < Re g(t0) everywhere on it except at t0 itself.  build_contour
searches the sampled strict-descent region for such a path; the
square-root branch rule reads the direction in which the path arrives at t0
(ContourPath.arrival_angle).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .curves import TrigCurve, eval_jets, g_jet
from .errors import (
    BranchUnresolvable,
    EndpointAboveLevel,
    MarginViolated,
    NoAdmissiblePath,
)

__all__ = [
    "SaddlePoint",
    "LevelSetGrid",
    "ContourPath",
    "ValidationReport",
    "find_saddles",
    "level_region",
    "build_contour",
    "validate_contour",
    "branch_angle",
    "branch_sqrt_neg_g2",
    "grid_to_csv",
    "grid_to_svg",
]

SIMPLE_REL = 1e-8
RESIDUAL_REL = 1e-10
_S_WINDOW = 3.5  # |Im t| of the roots find_saddles polishes
_SADDLE_WINDOW = 1.5  # |Im t| of the saddles find_saddles reports
_RHO = 0.1  # radius of the saddle disc, inside which contours need not clear the margin
_SAMPLES = 2048  # points at which a finished contour is checked


@dataclass(frozen=True)
class SaddlePoint:
    """Zero t0 of g' with cached g(t0), g''(t0), g'''(t0)."""

    t0: complex
    g0: complex
    g2: complex
    g3: complex
    simple: bool


@dataclass
class LevelSetGrid:
    """Sampled field Re g - Re g(t0) on the level_region raster.

    The zero-level polylines are marched on first read of polylines and kept;
    build_contour works from the values alone.
    """

    r: np.ndarray
    s: np.ndarray
    values: np.ndarray

    @functools.cached_property
    def polylines(self) -> list:
        return _march(self.values, self.r, self.s)


@dataclass(frozen=True)
class ContourPath:
    """Polyline -pi -> pi through the saddle waypoint i_saddle, with the margin it clears."""

    waypoints: tuple[complex, ...]
    margin: float
    i_saddle: int

    def __post_init__(self):
        w = tuple(complex(z) for z in self.waypoints)
        object.__setattr__(self, "waypoints", w)
        if len(w) < 3:
            raise ValueError("need at least (-pi, t0, pi)")
        if abs(w[0] - (-math.pi)) > 1e-12 or abs(w[-1] - math.pi) > 1e-12:
            raise ValueError("waypoints must run from -pi to pi")
        if not 0 < self.i_saddle < len(w) - 1:
            raise ValueError("saddle waypoint must be interior")
        if not self.margin > 0:
            raise ValueError("margin must be positive")

    @property
    def t0(self) -> complex:
        return self.waypoints[self.i_saddle]

    def arrival_angle(self) -> float:
        """Direction of motion into the saddle from the preceding waypoint."""
        return cmath.phase(self.t0 - self.waypoints[self.i_saddle - 1])


@dataclass(frozen=True)
class ValidationReport:
    max_excess: float
    worst_t: complex


def _scale(curve: TrigCurve, d: int) -> float:
    """Bound on |d-th derivative of g| on the real axis: sum of m^d times the coefficients."""
    m = np.arange(len(curve.a1), dtype=float)
    tot = m**d * (np.abs(curve.a1) + np.abs(curve.b1) + np.abs(curve.a2) + np.abs(curve.b2))
    return float(max(tot.sum(), 1e-300))


def _gp_poly(curve: TrigCurve) -> np.ndarray:
    """Coefficients of w^M g'(t), w = e^{it}, highest power first, from the curve's Laurent table."""
    n = curve.laurent.shape[1] // 2
    gp = curve.laurent[2] + 1j * curve.laurent[3]
    return np.concatenate([gp[n - 1::-1], gp[n + 1:]])


def _trimmed_roots(p: np.ndarray, rel: float) -> np.ndarray:
    """np.roots of p after dropping end coefficients at or below rel * max|p|.

    A zero leading or trailing coefficient stands for a root at w = infinity
    or w = 0, which no finite t reaches (the circle has only those).
    """
    nz = np.flatnonzero(np.abs(p) > rel * np.abs(p).max())
    return np.roots(p[nz[0]:nz[-1] + 1]) if nz.size else np.empty(0, complex)


def _merge_multiple(curve: TrigCurve, ws: np.ndarray, scale_pp: float) -> list[complex]:
    """Roots w of the g' polynomial as values of t, each multiple root once.

    A root of multiplicity k comes out of np.roots as k copies spread by about
    eps^(1/k); their mean is accurate to roundoff.  Copies within 1e-4 |w| of
    one another are replaced by their mean when g'' vanishes there, so that
    two distinct simple roots that happen to lie close both survive.
    """
    groups: list[list[complex]] = []
    for w in ws:
        for grp in groups:
            if abs(w - grp[0]) <= 1e-4 * abs(grp[0]):
                grp.append(w)
                break
        else:
            groups.append([w])
    out = []
    for grp in groups:
        ts = [-1j * cmath.log(w) for w in grp]
        if len(grp) > 1:
            mean = -1j * cmath.log(sum(grp) / len(grp))
            if abs(g_jet(curve, mean, order=2)[2]) <= SIMPLE_REL * scale_pp:
                ts = [mean]
        out.extend(ts)
    return out


def find_saddles(curve: TrigCurve) -> list[SaddlePoint]:
    """Every zero t0 of g' with |Im t0| <= 1.5, from the companion matrix of w^M g'(t).

    g' is a trigonometric polynomial of degree M, so with w = e^{it} the
    function w^M g'(t) is a polynomial of degree 2M in w and np.roots gives
    all its roots; t = -i log w.  Each root is polished by Newton steps on
    g' (none where g'' vanishes: Newton divides roundoff by roundoff at a
    multiple root) and kept when |Im t| <= _SADDLE_WINDOW.  Re t is reported
    in [-pi, pi].

    Saddles on the seam Re t = +/- pi are excluded: the asymptotics needs an
    interior crossing point, and the seam pair duplicates an interior orbit.
    Roots closer than 1e-8 count once; a root whose g'' is below SIMPLE_REL of
    its scale is reported once, with simple=False.  Sorted by decreasing Re g0,
    then by Re t0 and Im t0 among saddles whose Re g0 agree to 1e-12.
    """
    scale_p = _scale(curve, 1)
    scale_pp = _scale(curve, 2)

    p = _gp_poly(curve)
    eps = np.finfo(float).eps
    # An end term below eps * max|p| * e^(-2 S n) stays under the roundoff of
    # p's largest term wherever e^-S <= |w| <= e^S, so dropping it loses no
    # root there (and keeps np.roots from overflowing).  But np.roots loses
    # the roots near |w| = 1 when an end coefficient sits more than 1/eps
    # below its neighbour, so the roots without ends below eps * max|p| join.
    ws = _trimmed_roots(p, eps * math.exp(-2 * _S_WINDOW * (len(p) - 1)))
    core = _trimmed_roots(p, eps)
    if len(core) < len(ws):
        ws = np.concatenate([ws, core])
    # |Im t| = |log |w||: drop far roots (and w = 0) before any jet can overflow
    with np.errstate(divide="ignore"):
        ws = ws[np.abs(np.log(np.abs(ws))) <= _S_WINDOW]
    found: list[complex] = []
    for z in _merge_multiple(curve, ws, scale_pp):
        for _ in range(3):
            g = g_jet(curve, z, order=2)
            if abs(g[2]) <= SIMPLE_REL * scale_pp:
                break
            z = z - g[1] / g[2]
        r = math.remainder(z.real, 2.0 * math.pi)
        if abs(abs(r) - math.pi) <= 1e-8 or not abs(z.imag) <= _SADDLE_WINDOW:
            continue
        z = complex(r, z.imag)
        if any(abs(z - f) <= 1e-8 for f in found):
            continue
        found.append(z)

    saddles = []
    for z in found:
        g0, g1, g2, g3 = g_jet(curve, z, order=3)
        if abs(g1) > RESIDUAL_REL * scale_p:
            continue
        saddles.append(
            SaddlePoint(t0=z, g0=g0, g2=g2, g3=g3, simple=abs(g2) > SIMPLE_REL * scale_pp)
        )
    # Re g0 to 12 digits of the largest |g0|, so that saddles which symmetry
    # puts on one level are ordered by Re t0, not by the roundoff of Re g0
    quantum = 1e-12 * max((abs(sp.g0) for sp in saddles), default=1.0) or 1.0
    saddles.sort(key=lambda sp: (-round(sp.g0.real / quantum), sp.t0.real, sp.t0.imag))
    return saddles


# marching-squares segments per corner-sign case; bits: 1=bl, 2=br, 4=tr, 8=tl
_MS_CASES = {
    1: (("left", "bottom"),),
    2: (("bottom", "right"),),
    3: (("left", "right"),),
    4: (("right", "top"),),
    6: (("bottom", "top"),),
    7: (("left", "top"),),
    8: (("top", "left"),),
    9: (("top", "bottom"),),
    11: (("top", "right"),),
    12: (("right", "left"),),
    13: (("right", "bottom"),),
    14: (("bottom", "left"),),
}


def _march(values: np.ndarray, r: np.ndarray, s: np.ndarray) -> list:
    ns, nr = values.shape
    pos = values > 0.0
    v = values
    # only cells whose corners mix signs can carry segments
    mix = (
        pos[:-1, :-1].astype(int) + pos[:-1, 1:] + pos[1:, 1:] + pos[1:, :-1]
    )
    cells = np.argwhere((mix > 0) & (mix < 4))

    def edge_point(kind, i, j):
        if kind == "h":
            va, vb = v[i, j], v[i, j + 1]
            tau = va / (va - vb)
            return complex(r[j] + tau * (r[j + 1] - r[j]), s[i])
        va, vb = v[i, j], v[i + 1, j]
        tau = va / (va - vb)
        return complex(r[j], s[i] + tau * (s[i + 1] - s[i]))

    def edge_key(cell_i, cell_j, side):
        if side == "bottom":
            return ("h", cell_i, cell_j)
        if side == "top":
            return ("h", cell_i + 1, cell_j)
        if side == "left":
            return ("v", cell_i, cell_j)
        return ("v", cell_i, cell_j + 1)

    points: dict = {}
    links: dict = {}

    def add_seg(ka, kb):
        for k in (ka, kb):
            if k not in points:
                points[k] = edge_point(*k)
        links.setdefault(ka, []).append(kb)
        links.setdefault(kb, []).append(ka)

    for i, j in cells:
        case = (
            (1 if pos[i, j] else 0)
            | (2 if pos[i, j + 1] else 0)
            | (4 if pos[i + 1, j + 1] else 0)
            | (8 if pos[i + 1, j] else 0)
        )
        if case in _MS_CASES:
            segs = _MS_CASES[case]
        elif case == 5:
            center = 0.25 * (v[i, j] + v[i, j + 1] + v[i + 1, j + 1] + v[i + 1, j])
            segs = (("bottom", "right"), ("top", "left")) if center > 0 else (
                ("left", "bottom"),
                ("right", "top"),
            )
        elif case == 10:
            center = 0.25 * (v[i, j] + v[i, j + 1] + v[i + 1, j + 1] + v[i + 1, j])
            segs = (("left", "bottom"), ("right", "top")) if center > 0 else (
                ("bottom", "right"),
                ("top", "left"),
            )
        else:
            continue
        for sa, sb in segs:
            add_seg(edge_key(i, j, sa), edge_key(i, j, sb))

    # chain segments into polylines: open chains first, then closed loops
    visited = set()
    polylines = []

    def walk(start):
        chain = [start]
        visited.add(start)
        cur = start
        while True:
            nxt = [k for k in links[cur] if k not in visited]
            if not nxt:
                break
            cur = nxt[0]
            visited.add(cur)
            chain.append(cur)
        return chain

    deg1 = [k for k, ls in links.items() if len(ls) == 1]
    for k in deg1:
        if k in visited:
            continue
        chain = walk(k)
        polylines.append(np.array([points[c] for c in chain]))
    for k in links:
        if k in visited:
            continue
        chain = walk(k)
        chain.append(chain[0])  # close the loop
        polylines.append(np.array([points[c] for c in chain]))
    return polylines


def level_region(curve: TrigCurve, sp: SaddlePoint) -> LevelSetGrid:
    """Signed field Re g - Re g(t0) on 481 x 361 samples of [-pi, pi] x [-0.2, 2.5];
    its zero level is marched on demand."""
    if not sp.simple:
        raise ValueError("level_region needs a simple saddle")
    r = np.linspace(-math.pi, math.pi, 481)
    s = np.linspace(-0.2, 2.5, 361)
    # Re[A cos m(r+is) + B sin m(r+is)] = cosh ms (a1 cos mr + b1 sin mr)
    #                                   + sinh ms (a2 sin mr - b2 cos mr)
    m = np.arange(len(curve.a1), dtype=float)
    mr = np.multiply.outer(m, r)
    ms = np.multiply.outer(s, m)
    cos_mr, sin_mr = np.cos(mr), np.sin(mr)
    even = np.asarray(curve.a1)[:, None] * cos_mr + np.asarray(curve.b1)[:, None] * sin_mr
    odd = np.asarray(curve.a2)[:, None] * sin_mr - np.asarray(curve.b2)[:, None] * cos_mr
    # summed and shifted in place: two more grid-sized temporaries would page-fault on every call
    re_g = np.cosh(ms) @ even
    re_g += np.sinh(ms) @ odd
    re_g -= sp.g0.real
    return LevelSetGrid(r=r, s=s, values=re_g)


def _re_g_many(curve: TrigCurve, ts) -> np.ndarray:
    x1, x2 = eval_jets(curve, ts, order=0)[0]
    return x1.real - x2.imag


def _resample(waypoints, n: int) -> np.ndarray:
    """About n points along the polyline, spread over its segments by arc length."""
    w = np.asarray(waypoints, dtype=complex)
    seg = np.abs(np.diff(w))
    total = seg.sum()
    pts = [w[:1]]
    for a, b, L in zip(w[:-1], w[1:], seg):
        k = max(int(round(n * L / total)), 2)
        pts.append(a + (b - a) * np.linspace(0.0, 1.0, k)[1:])
    return np.concatenate(pts)


def _bfs_path(mask: np.ndarray, source, target) -> list | None:
    """Cells (i, j) of the shortest path source -> target over the True cells
    of mask, least in step order; None when target is not reached.

    Steps go up, down, left, right: (i-1, j), (i+1, j), (i, j-1), (i, j+1).
    The search is bounded: it runs on the cells c with |c - source|_1 +
    |c - target|_1 <= B, from B = L + max(64, L // 2) with L = |source -
    target|_1, and doubles the slack B - L until the path it returns has at
    most B steps; the whole grid is the last case.  That path is the one the
    whole grid gives.  Every cell of a shortest path of length D <= B meets the
    bound, so such a cell keeps its true distance to target, and a neighbour
    of it lies at restricted distance d exactly when it lies at true distance
    d.  The walk below therefore takes the same steps.
    """
    if source == target:
        return [source]
    if not mask[target]:
        return None
    ns, nr = mask.shape
    (ai, aj), (bi, bj) = source, target
    span_i, span_j = abs(ai - bi), abs(aj - bj)
    # |c - source|_1 + |c - target|_1 splits into a row part and a column part
    rows, cols = np.arange(ns), np.arange(nr)
    di = np.abs(rows - ai) + np.abs(rows - bi)
    dj = np.abs(cols - aj) + np.abs(cols - bj)
    slack = max(64, (span_i + span_j) // 2)
    while True:
        bound = span_i + span_j + slack
        whole = di.max() + dj.max() <= bound
        i0, i1 = np.flatnonzero(di <= bound - span_j)[[0, -1]] + (0, 1)
        j0, j1 = np.flatnonzero(dj <= bound - span_i)[[0, -1]] + (0, 1)
        sub = mask[i0:i1, j0:j1] & (di[i0:i1, None] + dj[None, j0:j1] <= bound)
        path = _search(sub, (ai - i0, aj - j0), (bi - i0, bj - j0))
        if whole or (path is not None and len(path) <= bound + 1):
            return None if path is None else [(i + i0, j + j0) for i, j in path]
        slack *= 2


def _search(mask: np.ndarray, source, target) -> list | None:
    """_bfs_path on all of mask, for a target that is True and not the source.

    A FIFO queue search from source finds this path: each of its levels holds
    the cells in the lexicographic order of their step sequences, so a cell's
    parent is the one on its least shortest path.  Distances to target grow
    one level at a time until they reach source; the walk from source then
    takes at each cell the first step that lowers the distance.  The source
    counts as open (a queue search expands it either way).
    """
    ns, nr = mask.shape
    w = nr + 2  # a closed one-cell border keeps flat steps inside the grid
    free = np.zeros((ns + 2, w), dtype=bool)
    free[1:-1, 1:-1] = mask
    free = free.ravel()
    src = (source[0] + 1) * w + source[1] + 1
    tgt = (target[0] + 1) * w + target[1] + 1
    free[src] = True
    free[tgt] = False
    dist = np.full(free.size, -1, dtype=np.int32)
    dist[tgt] = 0
    # stamp[c] == k marks cand[k] as the last copy of cell c among the candidates
    stamp = np.empty(free.size, dtype=np.intp)
    steps = np.array([[-w], [w], [-1], [1]])
    frontier = np.array([tgt])
    level = 0
    while dist[src] < 0:
        cand = (steps + frontier).ravel()
        cand = cand[free[cand]]
        if not cand.size:
            return None
        k = np.arange(cand.size)
        stamp[cand] = k
        frontier = cand[stamp[cand] == k]
        free[frontier] = False
        level += 1
        dist[frontier] = level
    out = [src]
    dist = memoryview(dist)  # plain int reads for the walk
    for d in range(level - 1, -1, -1):
        here = out[-1]
        out.append(next(c for c in (here - w, here + w, here - 1, here + 1) if dist[c] == d))
    return [(c // w - 1, c % w - 1) for c in out]


def _components(mask: np.ndarray):
    """connected(a, b): whether True cells a and b of mask lie in one 4-connected component.

    Each row of mask splits into runs of True cells, and a union-find joins
    the runs of adjacent rows that share a column.  _bfs_path(mask, a, b)
    finds a path exactly when connected(a, b).
    """
    ns, nr = mask.shape
    w = nr + 1
    pad = np.zeros((ns, nr + 2), dtype=bool)
    pad[:, 1:-1] = mask
    # key i * w + j of each run's first column and of the column past its last,
    # in row order: runs are k = 0, 1, ... in order of key_lo, and key_hi too
    flips = np.flatnonzero(pad[:, 1:] != pad[:, :-1])
    key_lo, key_hi = flips[::2], flips[1::2]
    # run k shares a column with runs first[k] .. last[k] - 1 of the next row
    first = np.searchsorted(key_hi, key_lo + w, side="right")
    last = np.searchsorted(key_lo, key_hi + w, side="left")
    n_up = np.maximum(last - first, 0)
    below = np.repeat(np.arange(len(key_lo)), n_up)
    above = first[below] + np.arange(below.size) - np.repeat(np.cumsum(n_up) - n_up, n_up)

    root = list(range(len(key_lo)))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for u, v in zip(below.tolist(), above.tolist()):
        root[find(u)] = find(v)
    label = [find(x) for x in range(len(key_lo))]

    def connected(a, b) -> bool:
        if not (mask[a] and mask[b]):
            raise ValueError("connected() takes True cells of the mask")
        ka, kb = np.searchsorted(key_lo, [a[0] * w + a[1], b[0] * w + b[1]], side="right") - 1
        return label[ka] == label[kb]

    return connected


def build_contour(curve: TrigCurve, sp: SaddlePoint, grid: LevelSetGrid) -> ContourPath:
    """Admissible polyline -pi -> pi through sp.t0 inside the sampled descent region.

    The saddle is bridged by short straight probes along the two directions
    where g''(t0) (t - t0)^2 is negative real.  When the two opposite steepest
    directions land in disconnected descent components (inward-cusp geometry),
    both probe legs tilt into the single usable sector and the path V-turns.

    A probe pair is usable when the cell next to -pi and its entry cell, and
    its exit cell and the cell next to pi, lie in one component of the
    descent cells (_components).  Each leg is then the straight chord between
    its ends when Re g stays below the margin along it; otherwise the
    shortest cell path between them (_bfs_path) is smoothed into the longest
    such chords.
    """
    if not sp.simple:
        raise ValueError("build_contour needs a simple saddle")
    t0 = sp.t0
    re_g0 = sp.g0.real
    end_excess = float(_re_g_many(curve, [math.pi + 0j])[0]) - re_g0
    if end_excess >= 0:
        raise EndpointAboveLevel(f"Re g(pi) - Re g(t0) = {end_excess:.3g} >= 0")
    # the margin the path must clear outside the saddle disc
    delta = 1e-3 * abs(float(grid.values.min()))
    if end_excess > -delta:
        raise NoAdmissiblePath("endpoint sits inside the margin band")

    def _finish(waypoints, i_saddle):
        # stored margin = what the path actually achieves, capped by the target
        ts = _resample(waypoints, _SAMPLES)
        exc = _re_g_many(curve, ts) - re_g0
        outside = np.abs(ts - t0) > _RHO
        worst = float(exc[outside].max())
        if worst >= 0.0:
            raise NoAdmissiblePath(f"constructed path re-ascends to excess {worst:.3g}")
        return ContourPath(waypoints=tuple(waypoints), margin=min(delta, 0.999 * (-worst)), i_saddle=i_saddle)

    # real-interval shortcut: real saddle whose axis already descends
    if abs(t0.imag) <= 1e-9:
        ts = np.linspace(-math.pi, math.pi, 2048)
        exc = _re_g_many(curve, ts) - re_g0
        outside = np.abs(ts - t0.real) > _RHO
        tiny = 1e-12 * max(1.0, abs(re_g0))
        if float(exc[outside].max()) < 0.0 and (exc[~outside] <= tiny).all():
            return _finish((-math.pi + 0j, complex(t0.real, 0.0), math.pi + 0j), 1)

    r, s, values = grid.r, grid.s, grid.values
    ns, nr = values.shape
    dr = r[1] - r[0]
    ds = s[1] - s[0]
    h = max(dr, ds)
    mask = values <= -delta
    # cells in the saddle disc are closed; only those in its index box, padded by one cell, can lie in it
    i0, i1 = np.searchsorted(s, [t0.imag - _RHO, t0.imag + _RHO]) + (-1, 1)
    j0, j1 = np.searchsorted(r, [t0.real - _RHO, t0.real + _RHO]) + (-1, 1)
    i0, j0 = max(i0, 0), max(j0, 0)
    tt = r[None, j0:j1] + 1j * s[i0:i1, None]
    mask[i0:i1, j0:j1] &= np.abs(tt - t0) > _RHO

    def node_of(t: complex):
        j = int(round((t.real - r[0]) / dr))
        i = int(round((t.imag - s[0]) / ds))
        if 0 <= i < ns and 0 <= j < nr:
            return (i, j)
        return None

    def nearest_axis_node(r_val: float):
        j = int(round((r_val - r[0]) / dr))
        j = min(max(j, 0), nr - 1)
        i = int(np.argmin(np.abs(s)))
        if mask[i, j]:
            return (i, j)
        col = np.nonzero(mask[:, j])[0]
        if len(col) == 0:
            return None
        i = col[np.argmin(np.abs(s[col]))]
        return (int(i), j)

    start = nearest_axis_node(-math.pi)
    goal = nearest_axis_node(math.pi)
    if start is None or goal is None:
        raise NoAdmissiblePath("no descent cell adjacent to an interval endpoint")

    connected = _components(mask)

    def probe(phi: float):
        length = _RHO + 1.5 * h
        cap = max(4.0 * _RHO, 0.5)
        while length <= cap:
            p = t0 + length * cmath.exp(1j * phi)
            node = node_of(p)
            if node is not None and mask[node]:
                if float(_re_g_many(curve, [p])[0]) - re_g0 <= -delta:
                    return p, node
            length += 0.5 * h
        return None

    phi_steep = 0.5 * (math.pi - cmath.phase(sp.g2))
    attempts = [(phi_steep, phi_steep - math.pi), (phi_steep - math.pi, phi_steep)]
    # V-turn fallbacks: both legs tilted by pi/8 around one steepest direction
    for base_phi in (phi_steep, phi_steep - math.pi):
        cand = (base_phi - math.pi / 8, base_phi + math.pi / 8)
        attempts.append((max(cand, key=math.cos), min(cand, key=math.cos)))  # (exit, entry)

    for exit_phi, entry_phi in attempts:
        pe = probe(exit_phi)
        pn = probe(entry_phi)
        if pe is not None and pn is not None and connected(start, pn[1]) and connected(pe[1], goal):
            break
    else:
        raise NoAdmissiblePath("no steepest-descent probe pair connects the endpoints")
    p_exit, p_entry = pe[0], pn[0]

    last_fail = None  # the last sample found above the margin, on the leg being built

    def first_clear(a: complex, ends) -> int | None:
        """Index of the first b in ends whose chord from a is clear, or None.

        A chord is clear when its samples, the n points np.linspace(0, 1, n)
        puts on it, keep out of the 0.98 _RHO disc and have Re g - Re g(t0) <=
        -0.999 delta.  The sample nearest t0 is one of the two around its
        projection on the chord.  Neighbouring chords tend to fail at the same
        place, so every chord is first tested, in one batch, at its sample
        nearest the last failing one; the first survivor is then checked in
        full, and where it fails screens the rest.  Only samples are tested,
        so the answer is the one a check of every sample in order gives.
        """
        nonlocal last_fail
        e = np.asarray(ends, dtype=complex) - a
        n = (np.abs(e) / h).astype(int) * 2 + 3
        inv = 1.0 / (n - 1)

        def sample(k, c):
            # sample k[i] of chord c[i]
            y = k * inv[c]
            y[k == n[c] - 1] = 1.0
            return a + e[c] * y

        def place(p, c):
            # where p projects on chord c, in samples from its start
            return ((p - a) * e[c].conjugate()).real / np.abs(e[c]) ** 2 * (n[c] - 1)

        live = np.arange(len(e))
        k = np.clip(np.floor(place(t0, live)), 0, n - 2).astype(int)
        far = np.minimum(np.abs(sample(k, live) - t0), np.abs(sample(k + 1, live) - t0)) >= 0.98 * _RHO
        live = live[far]
        while live.size:
            if last_fail is not None:
                k = np.clip(np.rint(place(last_fail, live)), 0, n[live] - 1).astype(int)
                live = live[_re_g_many(curve, sample(k, live)) - re_g0 <= -0.999 * delta]
                if not live.size:
                    break
            c = live[0]
            y = np.arange(n[c]) * inv[c]
            y[-1] = 1.0
            ts = a + e[c] * y
            exc = _re_g_many(curve, ts) - re_g0
            if (exc <= -0.999 * delta).all():
                return int(c)
            last_fail = ts[np.argmax(exc)]
            live = live[1:]
        return None

    def leg(a: complex, b: complex, cell_a, cell_b) -> list:
        """The chord a -> b when it is clear, else the shortest cell path between,
        smoothed into the longest clear chords: from each point, the farthest
        path point whose chord clears (the next point when none does)."""
        nonlocal last_fail
        last_fail = None
        if first_clear(a, [b]) == 0:
            return [a, b]
        cells = np.array(_bfs_path(mask, cell_a, cell_b))
        pts = np.empty(len(cells) + 2, dtype=complex)
        pts[0], pts[-1] = a, b
        pts.real[1:-1], pts.imag[1:-1] = r[cells[:, 1]], s[cells[:, 0]]
        out = [a]
        i, j = 0, len(pts) - 2  # the chord pts[0] -> pts[-1] is not clear
        while i < len(pts) - 1:
            k = first_clear(pts[i], pts[j:i + 1:-1])
            i, j = i + 1 if k is None else j - k, len(pts) - 1
            out.append(complex(pts[i]))
        return out

    leg_in = leg(-math.pi + 0j, p_entry, start, pn[1])
    leg_out = leg(p_exit, math.pi + 0j, pe[1], goal)
    waypoints = tuple(leg_in) + (t0,) + tuple(leg_out)
    return _finish(waypoints, len(leg_in))


def validate_contour(curve: TrigCurve, path: ContourPath) -> ValidationReport:
    """Sample the polyline; outside the _RHO disc Re g - Re g(t0) must stay <= -path.margin,
    inside it must decay at least a fixed fraction of the quadratic rate."""
    delta = path.margin
    t0 = path.t0
    g0, _, g2 = g_jet(curve, t0, order=2)
    re_g0 = g0.real

    ts = _resample(path.waypoints, _SAMPLES)
    exc = _re_g_many(curve, ts) - re_g0
    dist = np.abs(ts - t0)

    outside = dist > _RHO
    if outside.any():
        i_worst = np.argmax(np.where(outside, exc, -np.inf))
        max_excess = float(exc[i_worst])
        if max_excess > -delta:
            raise MarginViolated(
                f"Re g excess {max_excess:.6g} above -delta = {-delta:.6g} at t = {ts[i_worst]:.6g}",
                t=complex(ts[i_worst]),
                excess=max_excess,
            )
    else:
        i_worst = int(np.argmax(exc))
        max_excess = float(exc[i_worst])

    inside = (~outside) & (dist > 1e-3 * _RHO)
    if inside.any():
        bound = -0.05 * abs(g2) * dist[inside] ** 2
        bad = exc[inside] > bound + 1e-12 * max(1.0, abs(re_g0))
        if bad.any():
            tb = ts[inside][bad][0]
            raise MarginViolated(
                f"quadratic decay fails inside the saddle disc at t = {tb:.6g}",
                t=complex(tb),
                excess=float(exc[inside][bad][0]),
            )
    return ValidationReport(max_excess=max_excess, worst_t=complex(ts[i_worst]))


def branch_angle(sp: SaddlePoint, omega: float) -> float:
    """The representative omega0 of arg(-g''(t0)) selected by the contour slope omega.

    omega0 is the unique lift of arg(-g'') in (-pi - 2 omega, pi - 2 omega]; it
    must additionally satisfy |omega0 + 2 omega| <= pi/2.
    """
    z = -sp.g2
    if z.imag == 0.0:
        z = complex(z.real, 0.0)  # kill signed zero so phase(-x) = +pi
    base = cmath.phase(z)
    lo = -math.pi - 2.0 * omega
    hi = math.pi - 2.0 * omega
    m = math.floor((hi - base) / (2.0 * math.pi))
    omega0 = base + 2.0 * math.pi * m
    if not lo < omega0 <= hi:
        raise BranchUnresolvable(f"no lift of arg(-g'') in ({lo:.6g}, {hi:.6g}]")
    if abs(omega0 + 2.0 * omega) > 0.5 * math.pi + 1e-12:
        raise BranchUnresolvable(
            f"|omega0 + 2 omega| = {abs(omega0 + 2 * omega):.6g} exceeds pi/2"
        )
    return omega0


def branch_sqrt_neg_g2(sp: SaddlePoint, omega: float) -> complex:
    """(-g''(t0))^(1/2) on the branch tied to the contour slope omega."""
    omega0 = branch_angle(sp, omega)
    return math.sqrt(abs(sp.g2)) * cmath.exp(0.5j * omega0)


def grid_to_csv(grid: LevelSetGrid) -> str:
    lines = ["r,s,value"]
    for i, sv in enumerate(grid.s):
        row = grid.values[i]
        for j, rv in enumerate(grid.r):
            lines.append(f"{float(rv)!r},{float(sv)!r},{float(row[j])!r}")
    return "\n".join(lines) + "\n"


def grid_to_svg(grid: LevelSetGrid, path: ContourPath | None = None) -> str:
    width, height = 1000, 600
    r_lo, r_hi = float(grid.r[0]), float(grid.r[-1])
    s_lo, s_hi = float(grid.s[0]), float(grid.s[-1])

    def to_px(zs):
        zs = np.asarray(zs, dtype=complex)
        x = (zs.real - r_lo) / (r_hi - r_lo) * width
        y = (1.0 - (zs.imag - s_lo) / (s_hi - s_lo)) * height
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}">'
    ]
    for poly in grid.polylines:
        x, y = to_px(poly)
        pts = " ".join(f"{xi:.2f},{yi:.2f}" for xi, yi in zip(x, y))
        parts.append(f'<polyline fill="none" stroke="black" stroke-width="1" points="{pts}"/>')
    if path is not None:
        x, y = to_px(np.asarray(path.waypoints))
        pts = " ".join(f"{xi:.2f},{yi:.2f}" for xi, yi in zip(x, y))
        parts.append(f'<polyline fill="none" stroke="blue" stroke-width="2" points="{pts}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
