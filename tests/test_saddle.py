import cmath
import hashlib
import math
import tracemalloc
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nonscatter import saddle
from nonscatter.curves import TrigCurve, builtin, eval_jet, eval_jets
from nonscatter.errors import (
    BranchUnresolvable,
    EndpointAboveLevel,
    MarginViolated,
    NoAdmissiblePath,
)
from nonscatter.saddle import (
    ContourPath,
    LevelSetGrid,
    _bfs_path,
    _components,
    branch_angle,
    branch_sqrt_neg_g2,
    build_contour,
    find_saddles,
    grid_to_csv,
    grid_to_svg,
    level_region,
    validate_contour,
)

from conftest import fuzz_sample

PI = math.pi

# float.hex of (waypoints, margin) of the contour of each builtin and
# of each seeded shape in conftest, and the sha256 of the grid_to_svg(grid,
# path) and grid_to_csv(grid) text of two builtins.  The hashes date from
# before build_contour searched on demand; the contours were re-pinned when
# the jets moved to the Laurent model, whose last bits differ (every
# waypoint moved by at most 4.5e-16; the saddles of the symmetric shapes now
# sit exactly on Re t = 0).  Any change to how the contour is found must leave
# every bit in place
_PINNED_CONTOURS = {
    "ellipse": (
        (
            ("-0x1.921fb54442d18p+1", "0x0.0p+0"),
            ("-0x1.ea0657740d5dap-4", "0x1.193ea7aad030ap-1"),
            ("0x0.0p+0", "0x1.193ea7aad030ap-1"),
            ("0x1.ea0657740d5dap-4", "0x1.193ea7aad030ap-1"),
            ("0x1.921fb54442d18p+1", "0x0.0p+0"),
        ),
        "0x1.0463725c86b53p-7",
    ),
    "cardioid": (
        (
            ("-0x1.921fb54442d18p+1", "0x0.0p+0"),
            ("-0x1.acee9f37bebd8p-1", "0x1.6b851eb851eb9p-2"),
            ("-0x1.3aff3cecf0130p-1", "0x1.63d70a3d70a3fp-2"),
            ("-0x1.5c81e15d4afa0p-2", "0x1.0f5c28f5c28f6p-2"),
            ("-0x1.770c7921e4880p-5", "0x1.c4b94eb4c9e80p-4"),
            ("-0x0.0p+0", "0x0.0p+0"),
            ("0x1.770c7921e4882p-5", "0x1.c4b94eb4c9e80p-4"),
            ("0x1.12c8ddffb6314p-1", "0x1.6b851eb851eb9p-2"),
            ("0x1.c109ceae5bae0p-1", "0x1.6b851eb851eb9p-2"),
            ("0x1.921fb54442d18p+1", "0x0.0p+0"),
        ),
        "0x1.43655b63068b2p-9",
    ),
    "nonconvex": (
        (
            ("-0x1.921fb54442d18p+1", "0x0.0p+0"),
            ("-0x1.ea0657740d5dap-4", "0x1.89343903cabe9p-1"),
            ("0x0.0p+0", "0x1.89343903cabe9p-1"),
            ("0x1.ea0657740d5dap-4", "0x1.89343903cabe9p-1"),
            ("0x1.921fb54442d18p+1", "0x0.0p+0"),
        ),
        "0x1.1057a30d2b1e5p-7",
    ),
    "deltoid": (
        (
            ("-0x1.921fb54442d18p+1", "0x0.0p+0"),
            ("0x0.0p+0", "0x0.0p+0"),
            ("0x1.921fb54442d18p+1", "0x0.0p+0"),
        ),
        "0x1.f6fffcbbd25e9p-6",
    ),
    "ellipse-0": (
        (
            ("-0x1.921fb54442d18p+1", "0x0.0p+0"),
            ("-0x1.ea0657740d5dap-4", "0x1.37d92a7b3fdc2p-1"),
            ("0x0.0p+0", "0x1.37d92a7b3fdc2p-1"),
            ("0x1.ea0657740d5dap-4", "0x1.37d92a7b3fdc2p-1"),
            ("0x1.921fb54442d18p+1", "0x0.0p+0"),
        ),
        "0x1.1b9cef9730692p-7",
    ),
    "ellipse-1": (
        (
            ("-0x1.921fb54442d18p+1", "0x0.0p+0"),
            ("-0x1.ea0657740d5dap-4", "0x1.31599e0f11393p-1"),
            ("0x0.0p+0", "0x1.31599e0f11393p-1"),
            ("0x1.ea0657740d5dap-4", "0x1.31599e0f11393p-1"),
            ("0x1.921fb54442d18p+1", "0x0.0p+0"),
        ),
        "0x1.2a284a309d76dp-7",
    ),
    "quartic-0": (
        (
            ("-0x1.921fb54442d18p+1", "0x0.0p+0"),
            ("-0x1.ea0657740d5dap-4", "0x1.72ebdf55550d9p-1"),
            ("0x0.0p+0", "0x1.72ebdf55550d9p-1"),
            ("0x1.ea0657740d5dap-4", "0x1.72ebdf55550d9p-1"),
            ("0x1.921fb54442d18p+1", "0x0.0p+0"),
        ),
        "0x1.0c473bb202efbp-7",
    ),
    "quartic-1": (
        (
            ("-0x1.921fb54442d18p+1", "0x0.0p+0"),
            ("-0x1.ea0657740d5dap-4", "0x1.7eb0c6a9aea90p-1"),
            ("0x0.0p+0", "0x1.7eb0c6a9aea90p-1"),
            ("0x1.ea0657740d5dap-4", "0x1.7eb0c6a9aea90p-1"),
            ("0x1.921fb54442d18p+1", "0x0.0p+0"),
        ),
        "0x1.0e693e18c8c71p-7",
    ),
    "cardioid-0": (
        (
            ("-0x1.921fb54442d18p+1", "0x0.0p+0"),
            ("-0x1.acee9f37bebd8p-1", "0x1.6b851eb851eb9p-2"),
            ("-0x1.3aff3cecf0130p-1", "0x1.63d70a3d70a3fp-2"),
            ("-0x1.5c81e15d4afa0p-2", "0x1.0f5c28f5c28f6p-2"),
            ("-0x1.770c7921e4880p-5", "0x1.c4b94eb4c9e80p-4"),
            ("-0x0.0p+0", "0x0.0p+0"),
            ("0x1.770c7921e4882p-5", "0x1.c4b94eb4c9e80p-4"),
            ("0x1.12c8ddffb6314p-1", "0x1.6b851eb851eb9p-2"),
            ("0x1.c109ceae5bae0p-1", "0x1.6b851eb851eb9p-2"),
            ("0x1.921fb54442d18p+1", "0x0.0p+0"),
        ),
        "0x1.a6081c613a75ap-9",
    ),
    "cardioid-1": (
        (
            ("-0x1.921fb54442d18p+1", "0x0.0p+0"),
            ("-0x1.acee9f37bebd8p-1", "0x1.6b851eb851eb9p-2"),
            ("-0x1.3aff3cecf0130p-1", "0x1.63d70a3d70a3fp-2"),
            ("-0x1.5c81e15d4afa0p-2", "0x1.0f5c28f5c28f6p-2"),
            ("-0x1.770c7921e4880p-5", "0x1.c4b94eb4c9e80p-4"),
            ("-0x0.0p+0", "0x0.0p+0"),
            ("0x1.770c7921e4882p-5", "0x1.c4b94eb4c9e80p-4"),
            ("0x1.12c8ddffb6314p-1", "0x1.6b851eb851eb9p-2"),
            ("0x1.c109ceae5bae0p-1", "0x1.6b851eb851eb9p-2"),
            ("0x1.921fb54442d18p+1", "0x0.0p+0"),
        ),
        "0x1.91a861a163c68p-9",
    ),
    "deltoid-0": (
        (
            ("-0x1.921fb54442d18p+1", "0x0.0p+0"),
            ("0x0.0p+0", "0x0.0p+0"),
            ("0x1.921fb54442d18p+1", "0x0.0p+0"),
        ),
        "0x1.588e123e1910bp-6",
    ),
    "deltoid-1": (
        (
            ("-0x1.921fb54442d18p+1", "0x0.0p+0"),
            ("0x0.0p+0", "0x0.0p+0"),
            ("0x1.921fb54442d18p+1", "0x0.0p+0"),
        ),
        "0x1.0a56a634dc120p-5",
    ),
    "fuzz-27": (
        (
            ("-0x1.921fb54442d18p+1", "0x0.0p+0"),
            ("-0x1.a94825db0e325p+0", "0x1.daa463bc12135p-1"),
            ("-0x1.91c417d209863p+0", "0x1.00f1379f55596p+0"),
            ("-0x1.7a4009c904da1p+0", "0x1.14903d60a1a91p+0"),
            ("0x1.acee9f37bebd0p-3", "0x1.947ae147ae148p-1"),
            ("0x1.921fb54442d18p+1", "0x0.0p+0"),
        ),
        "0x1.06c9f9f6c02f8p-10",
    ),
    "fuzz-41": (
        (
            ("-0x1.921fb54442d18p+1", "0x0.0p+0"),
            ("-0x1.7efe60c11bdb3p+0", "0x1.512e1b9cabbadp+0"),
            ("-0x1.62371e6eff8a0p+0", "0x1.6dee73a465910p+0"),
            ("-0x1.623c6955d13bap+0", "0x1.41e69984d520fp+0"),
            ("-0x1.e28c731eb6950p-3", "0x1.47ae147ae1480p-9"),
            ("0x1.921fb54442d18p+1", "0x0.0p+0"),
        ),
        "0x1.e5c7172cccd91p-9",
    ),
    "fuzz-112": (
        (
            ("-0x1.921fb54442d18p+1", "0x0.0p+0"),
            ("-0x1.5ed1a5bd682ecp+1", "-0x1.984ec4f26f560p-4"),
            ("-0x1.4c4e766b91a91p+1", "-0x1.4c45bbf09ecdfp-4"),
            ("-0x1.3821d5f0a12a6p+1", "-0x1.f2d299deb6398p-5"),
            ("-0x1.203052f974274p-1", "0x1.cf5c28f5c28f7p-2"),
            ("-0x1.0c152382d7368p-2", "0x1.c7ae147ae147bp-2"),
            ("0x1.921fb54442d18p+1", "0x0.0p+0"),
        ),
        "0x1.ecc25a123ef32p-9",
    ),
    "fuzz-218": (
        (
            ("-0x1.921fb54442d18p+1", "0x0.0p+0"),
            ("-0x1.977b344365e6bp+0", "0x1.06d3f41d88ed4p-2"),
            ("-0x1.543979b8997d2p+0", "0x1.e9b0ecd7bf806p-4"),
            ("-0x1.13f0441dc487cp+0", "-0x1.78fa99e882280p-7"),
            ("0x1.4bc08f251d866p+1", "0x1.b851eb851eb88p-4"),
            ("0x1.921fb54442d18p+1", "0x0.0p+0"),
        ),
        "0x1.6e2ec71a7837dp-6",
    ),
    "fuzz-388": (
        (
            ("-0x1.921fb54442d18p+1", "0x0.0p+0"),
            ("-0x1.ca9611038cdcbp-1", "-0x1.96ff9d5c9365cp-3"),
            ("-0x1.432432bafc127p-1", "-0x1.2e8c2f3ee5d63p-1"),
            ("-0x1.1c9a19bf782d8p-1", "-0x1.a10c08a0a8554p-3"),
            ("0x1.02078bc788bdcp+0", "0x1.c000000000001p-2"),
            ("0x1.4f1a6c638d03cp+0", "0x1.c000000000001p-2"),
            ("0x1.921fb54442d18p+1", "0x0.0p+0"),
        ),
        "0x1.05c1a33536aebp-8",
    ),
}
_PINNED_SHA256 = {
    "ellipse": (
        "cd4ca4d09c6b589b906df77be30f95df80e12bd020c623861591d4f63bff3a0b",
        "9204ac62d1cae882d7eea8a9269f9baca3d3e4ac63b893c9c595528980fae02a",
    ),
    "cardioid": (
        "c8a13c18e4844741f2ebbadee23377d679be2bc091e1f5a44ac648dd011f2004",
        "2af2fc48971aca63e87fc3a731aa57895ed4d1bf7e552f3e85c92c459aebefa6",
    ),
}


def test_find_saddles_closed_forms(curves, saddles):
    assert find_saddles(curves["circle"]) == []

    ell = saddles["ellipse"]
    assert abs(ell.t0 - 1j * math.atanh(0.5)) < 1e-10
    assert abs(ell.g0 - math.sqrt(3.0)) < 1e-12

    card = saddles["cardioid"]
    assert abs(card.t0) < 1e-10
    assert abs(card.g2 - 1.0) < 1e-10
    assert abs(card.g3 - 3.0j) < 1e-10

    ncv = saddles["nonconvex"]
    assert abs(ncv.t0 - 0.5j * math.log(2.0 + math.sqrt(7.0))) < 1e-10

    dl = saddles["deltoid"]
    assert abs(dl.t0) < 1e-10
    assert abs(dl.g0 - 3.0) < 1e-12
    assert abs(dl.g2 + 6.0) < 1e-10


def test_find_saddles_full_sets(curves):
    # deltoid has two more critical points at +-2pi/3; nonconvex two off-axis ones
    dl = sorted(find_saddles(curves["deltoid"]), key=lambda s: s.t0.real)
    assert len(dl) == 3
    assert abs(dl[0].t0 - (-2 * PI / 3)) < 1e-10
    assert abs(dl[0].g0 - (-1.5 - 3 * math.sqrt(3) / 2 * 1j)) < 1e-10
    assert abs(dl[2].g0 - (-1.5 + 3 * math.sqrt(3) / 2 * 1j)) < 1e-10

    ncv = find_saddles(curves["nonconvex"])
    assert len(ncv) == 3
    # dominant (largest Re g) listed first
    assert ncv[0].g0.real == max(s.g0.real for s in ncv)
    offaxis = sorted((s for s in ncv if abs(s.t0.real) > 0.1), key=lambda s: s.t0.real)
    s_off = -0.5 * math.log((2.0 + math.sqrt(7.0)) / 3.0)
    assert abs(offaxis[0].t0 - complex(-PI / 2, s_off)) < 1e-10
    assert abs(offaxis[1].t0 - complex(+PI / 2, s_off)) < 1e-10
    # the off-axis pair shares Re g0 = 0 up to roundoff; Re t0 breaks the tie
    assert ncv[1:] == offaxis


def test_saddles_are_true_roots_and_stable(curves, saddles):
    for key, sp in saddles.items():
        jet = eval_jet(curves[key], sp.t0, order=3)
        scale = max(1.0, abs(jet.gpp))
        assert abs(jet.gp) <= 1e-10 * scale
        # one extra Newton step barely moves the root
        step = jet.gp / jet.gpp
        assert abs(step) <= 1e-12
        assert sp.simple
        assert abs(jet.gpp - sp.g2) <= 1e-12 * max(1.0, abs(sp.g2))
        assert abs(jet.g3 - sp.g3) <= 1e-12 * max(1.0, abs(sp.g3))


def _laurent_curve(c):
    """TrigCurve with g(t) = sum_k c[k] e^{ikt} (any complex c gives a real curve)."""
    deg = max(abs(k) for k in c)
    rows = [[0.0] * (deg + 1) for _ in range(4)]
    for m in range(deg + 1):
        cp, cm = complex(c.get(m, 0)), complex(c.get(-m, 0))
        # c_m w^m + c_-m w^-m = (c_m + c_-m) cos mt + i (c_m - c_-m) sin mt
        A, B = (cp, 0j) if m == 0 else (cp + cm, 1j * (cp - cm))
        rows[0][m], rows[1][m], rows[2][m], rows[3][m] = A.real, B.real, A.imag, B.imag
    return TrigCurve(*rows, check=False)


def _reference_saddles(a1, b1, a2, b2):
    """Zeros of g' with |Im t| <= 1.5 off the seam, by mpmath.polyroots at 40 digits.

    x_j' = sum_m m (b_jm cos mt - a_jm sin mt) has the coefficient
    m (b_jm +- i a_jm) / 2 at w^(+-m), w = e^{it}; g' = x1' + i x2'.
    Returns None when the example is too close to a filter edge to compare.
    """
    import mpmath

    deg = len(a1) - 1
    coef = {}
    with mpmath.workdps(40):
        for m in range(1, deg + 1):
            for sgn in (1, -1):
                x1p = m * (mpmath.mpf(b1[m]) + sgn * 1j * mpmath.mpf(a1[m])) / 2
                x2p = m * (mpmath.mpf(b2[m]) + sgn * 1j * mpmath.mpf(a2[m])) / 2
                coef[sgn * m] = x1p + 1j * x2p
        # w^deg g'(t), highest power first, zero ends dropped (roots at 0 and infinity)
        poly = [coef.get(k, mpmath.mpc(0)) for k in range(deg, -deg - 1, -1)]
        while poly and poly[0] == 0:
            poly.pop(0)
        while poly and poly[-1] == 0:
            poly.pop()
        if len(poly) < 2:
            return []
        try:
            ws = mpmath.polyroots(poly, maxsteps=400, extraprec=200)
        except mpmath.libmp.NoConvergence:
            return None
        ts = [complex(-1j * mpmath.log(w)) for w in ws]
    near = [t for t in ts if abs(t.imag) < 2.0]
    if any(abs(p - q) < 1e-6 for i, p in enumerate(near) for q in near[i + 1:]):
        return None
    if any(abs(abs(t.imag) - 1.5) < 1e-6 or abs(abs(t.real) - PI) < 1e-6 for t in near):
        return None
    return [t for t in near if abs(t.imag) <= 1.5]


_coef = st.floats(-2.0, 2.0, allow_subnormal=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(st.lists(_coef, min_size=d + 1, max_size=d + 1), min_size=4, max_size=4)))
# w^2 g' = -e w^4 + i (w^3 + w) / 2 + e, e = 5e-26: the end coefficients sit 1e25 below their neighbours
@example([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 4.838283560688076e-26], [0.0, 1.0, 0.0]])
def test_find_saddles_matches_mpmath_roots(rows):
    # an independent reference: roots of the same polynomial at 40 digits
    a1, b1, a2, b2 = rows
    b1[0] = b2[0] = 0.0
    assume(any(x != 0.0 for row in rows for x in row[1:]))
    want = _reference_saddles(a1, b1, a2, b2)
    assume(want is not None)
    got = [sp.t0 for sp in find_saddles(TrigCurve(a1, b1, a2, b2, check=False))]
    assert len(got) == len(want)
    # reference roots lie 1e-6 apart, so each has one nearest match
    assert sorted(min(range(len(got)), key=lambda i: abs(got[i] - u)) for u in want) == list(range(len(got)))
    for u in want:
        assert min(abs(t - u) for t in got) <= 1e-10


def test_find_saddles_multiple_roots():
    # g = (w - w0)^(k+1) (w - 1/2) / w: g' has a zero of multiplicity k at t = -i log w0
    for t_star in (0.3j, 0.7 + 0.3j, -2.9 - 0.2j, 0j):
        w0 = cmath.exp(1j * t_star)
        for k in (2, 3):
            poly = np.poly1d([1.0, -0.5])
            for _ in range(k + 1):
                poly = poly * np.poly1d([1.0, -w0])
            curve = _laurent_curve({j - 1: c for j, c in enumerate(poly.coeffs[::-1])})
            found = find_saddles(curve)
            at = [sp for sp in found if abs(sp.t0 - t_star) < 1e-3]
            assert len(at) == 1
            assert not at[0].simple
            assert abs(at[0].t0 - t_star) < 1e-10
            assert sum(sp.simple for sp in found) == len(found) - 1


def test_find_saddles_ignores_negligible_end_coefficients(curves):
    # a top coefficient far below roundoff carries no root in the window, and
    # must not overflow the companion matrix
    ell = curves["ellipse"]
    tiny = TrigCurve(a1=ell.a1 + (0.0, 1e-300), b1=ell.b1, a2=ell.a2, b2=ell.b2 + (0.0, 0.0, 3e-310), check=False)
    assert [sp.t0 for sp in find_saddles(tiny)] == [sp.t0 for sp in find_saddles(ell)]
    assert find_saddles(TrigCurve(a1=(2.0,), b1=(), a2=(), b2=(), check=False)) == []


def test_find_saddles_keeps_rect(curves):
    # the one window |Im t| <= 1.5 keeps the deltoid saddles at 0 and +-2pi/3,
    # Re t reported in [-pi, pi]
    third = round(2 * PI / 3, 9)
    assert sorted(round(sp.t0.real, 9) for sp in find_saddles(curves["deltoid"])) == [-third, 0.0, third]
    # nonconvex: one saddle above the real axis, two below
    ncv = find_saddles(curves["nonconvex"])
    assert sorted(sp.t0.imag > 0 for sp in ncv) == [False, False, True]


def test_find_saddles_rect_validation(curves):
    # no rect is taken: the window is fixed
    with pytest.raises(TypeError):
        find_saddles(curves["ellipse"], rect=((-PI, PI), (-5.0, 5.0)))
    # the interior saddle i atanh(b/a) of the ellipse (a, b) is 0.55i at (2, 1),
    # and 1.86i, outside the window, at (1.05, 1)
    assert [sp.t0 for sp in find_saddles(curves["ellipse"])] == pytest.approx([1j * math.atanh(0.5)], abs=1e-12)
    assert find_saddles(builtin("ellipse", 1.05, 1.0)) == []


def _level(curve, sp, t) -> float:
    """Re g(t) - Re g(t0) from the curve's jets, the field level_region samples."""
    x1, x2 = eval_jets(curve, [complex(t)], order=0)[0]
    return float((x1[0] + 1j * x2[0]).real - sp.g0.real)


def test_level_region_shape_and_level(curves, saddles, grids):
    # one raster, 481 x 361 samples of [-pi, pi] x [-0.2, 2.5]
    cv, sp, g = curves["ellipse"], saddles["ellipse"], grids["ellipse"]
    assert g.values.shape == (len(g.s), len(g.r)) == (361, 481)
    assert (g.r[0], g.r[-1], g.s[0], g.s[-1]) == (-PI, PI, -0.2, 2.5)
    assert g.polylines
    # values store Re g(t) - Re g(t0): zero at the saddle
    assert abs(_level(cv, sp, sp.t0)) < 1e-12


def test_level_region_requires_resolution(curves, saddles, grids):
    # the resolution is fixed at 481 x 361 for every curve; a coarser one
    # cannot be asked for
    for g in grids.values():
        assert g.values.shape == (361, 481)
    for kw in ({"nr": 100, "ns": 100}, {"nr": 100}, {"ns": 100}):
        with pytest.raises(TypeError):
            level_region(curves["ellipse"], saddles["ellipse"], **kw)


def test_level_region_rejects_empty_rect_and_oversized_grid(curves, saddles):
    # rect, nr and ns are not taken: an empty rect or an oversized grid is
    # refused before any array is made
    cv, sp = curves["ellipse"], saddles["ellipse"]
    tracemalloc.start()
    try:
        for rect in (((-PI, PI), (0.5, 0.5)), ((1.0, -1.0), (-0.2, 2.5)), ((-PI, PI), (math.nan, 2.5))):
            with pytest.raises(TypeError, match="rect"):
                level_region(cv, sp, rect=rect)
        for nr, ns in ((10**9, 361), (481, 10**9), (4097, 300)):
            with pytest.raises(TypeError):
                level_region(cv, sp, nr=nr, ns=ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_level_region_matches_eval_jets(curves, saddles, grids):
    # the separable product against the termwise jets
    for key, g in grids.items():
        tt = g.r[None, :] + 1j * g.s[:, None]
        x1, x2 = eval_jets(curves[key], tt.ravel(), order=0)[0]
        re_g = (x1 + 1j * x2).real.reshape(tt.shape)
        want = re_g - saddles[key].g0.real
        assert np.abs(g.values - want).max() <= 1e-13 * np.abs(re_g).max()


def _two_products(curve, sp) -> np.ndarray:
    """Reference field: the cosh and sinh products of the whole grid, summed, less Re g0."""
    r, s = np.linspace(-PI, PI, 481), np.linspace(-0.2, 2.5, 361)
    m = np.arange(len(curve.a1), dtype=float)
    mr, ms = np.multiply.outer(m, r), np.multiply.outer(s, m)
    cos_mr, sin_mr = np.cos(mr), np.sin(mr)
    even = np.asarray(curve.a1)[:, None] * cos_mr + np.asarray(curve.b1)[:, None] * sin_mr
    odd = np.asarray(curve.a2)[:, None] * sin_mr - np.asarray(curve.b2)[:, None] * cos_mr
    return np.cosh(ms) @ even + np.sinh(ms) @ odd - sp.g0.real


def test_level_region_row_blocks_keep_the_full_products(curves, saddles, grids):
    # up to degree 4 every bit is the full products', the last block of 361 =
    # 11 * 32 + 9 rows included: the pinned contours of every builtin, seeded
    # and fuzzed shape rest on it
    low = [(grids[key].values, curves[key], saddles[key]) for key in grids]
    for curve in fuzz_sample(777, 150)[:40]:
        sp = next(iter(find_saddles(curve)), None)
        if sp is not None and sp.simple:
            low.append((level_region(curve, sp).values, curve, sp))
    assert len(low) > 50 and {len(curve.a1) for _, curve, _ in low} == {2, 3, 4, 5}
    for values, curve, sp in low:
        assert np.array_equal(values, _two_products(curve, sp))
    # from degree 5 a BLAS may round a row of a product by how many rows the
    # product has; the field then moves by a few ulps of its largest value
    rng = np.random.default_rng(24)
    for degree in range(5, 17):
        side = [rng.uniform(-0.2, 0.2, degree + 1) / np.arange(1, degree + 2) ** 2 for _ in range(4)]
        for row in side:
            row[0] = 0.0
        side[0][1], side[3][1] = 1.0, 0.7
        curve = TrigCurve(*(tuple(row) for row in side))
        sp = find_saddles(curve)[0]
        assert sp.simple
        want = _two_products(curve, sp)
        got = level_region(curve, sp).values
        assert np.abs(got - want).max() <= 8 * np.spacing(np.abs(want).max()), degree


def test_ellipse_zero_level_crosses_real_axis_at_closed_form(grids):
    # crossing at r = +-arccos sqrt(1 - b^2/a^2) for a=2, b=1
    r_star = math.acos(math.sqrt(1 - 0.25))
    crossings = []
    for line in grids["ellipse"].polylines:
        pts = np.asarray(line)
        for p, q in zip(pts[:-1], pts[1:]):
            if p.imag * q.imag <= 0 and abs(p.imag) + abs(q.imag) > 0:
                w = abs(p.imag) / (abs(p.imag) + abs(q.imag))
                crossings.append((1 - w) * p.real + w * q.real)
    assert crossings
    crossings = np.asarray(crossings)
    assert min(abs(crossings - r_star)) < 2e-2
    assert min(abs(crossings + r_star)) < 2e-2


def test_cardioid_zero_level_matches_log_curve(curves, saddles):
    # upper zero level: s = ln(cos r + |sin r|) for |r| < 3pi/4ish
    for r in np.linspace(-0.6, 0.6, 7):
        s = math.log(math.cos(r) + abs(math.sin(r)))
        t = complex(r, s)
        assert abs(_level(curves["cardioid"], saddles["cardioid"], t)) < 1e-12


def test_level_sign_fixture_above_ellipse_saddle(curves, saddles):
    # Re g(1.0i) - Re g(t0) = 2 cosh 1 - sinh 1 - sqrt 3 > 0
    want = 2 * math.cosh(1.0) - math.sinh(1.0) - math.sqrt(3.0)
    got = _level(curves["ellipse"], saddles["ellipse"], 1.0j)
    assert got > 0
    assert got == pytest.approx(want, abs=1e-12)


def test_contour_shapes_and_validation(curves, saddles, grids, paths):
    for key, path in paths.items():
        assert path.waypoints[0] == -PI and path.waypoints[-1] == PI
        assert path.waypoints[path.i_saddle] == pytest.approx(saddles[key].t0, abs=1e-12)
        assert path.margin > 0
        rep = validate_contour(curves[key], path)  # must not raise
        assert rep.max_excess <= -path.margin * 0.999

    # straight crossings for the two convex-side cases
    assert paths["ellipse"].arrival_angle() == pytest.approx(0.0, abs=1e-12)
    assert paths["nonconvex"].arrival_angle() == pytest.approx(0.0, abs=1e-12)
    # deltoid saddle is on the real axis and the real interval already descends
    assert len(paths["deltoid"].waypoints) == 3
    assert all(abs(w.imag) < 1e-12 for w in paths["deltoid"].waypoints)
    # cardioid needs a V-turn into the upper half-plane
    card = paths["cardioid"]
    assert any(w.imag > 0.05 for w in card.waypoints)
    assert abs(card.arrival_angle() + 3 * PI / 8) < 1e-9


def test_contours_and_level_bytes_are_pinned(grids, paths):
    for key, (waypoints, margin) in _PINNED_CONTOURS.items():
        path = paths[key]
        assert tuple((w.real.hex(), w.imag.hex()) for w in path.waypoints) == waypoints, key
        assert path.margin.hex() == margin, key
    for key, (svg, csv) in _PINNED_SHA256.items():
        assert hashlib.sha256(grid_to_svg(grids[key], paths[key]).encode()).hexdigest() == svg, key
        assert hashlib.sha256(grid_to_csv(grids[key]).encode()).hexdigest() == csv, key


# sha256 of the float.hex of every contour the 400-curve fuzz sample builds, in
# sample order: per path its waypoints (real, imag), its margin and i_saddle
_FUZZ_CONTOURS_SHA256 = "41824016a3a4624dca01304c0ea7fdaba1835cb1d9414d606bc3c0aca0f13d4f"


def test_fuzz_sample_outcomes():
    # the ROADMAP's 400-curve fuzz sample, drawn by its recorded generator, meets
    # contour construction with the counts the ROADMAP quotes, and every contour
    # it builds keeps its bits
    outcomes = Counter()
    digest = hashlib.sha256()
    for curve in fuzz_sample(12345, 400):
        simple = [sp for sp in find_saddles(curve) if sp.simple]
        if not simple:
            outcomes["no simple saddle"] += 1
            continue
        try:
            path = build_contour(curve, simple[0], level_region(curve, simple[0]))
            validate_contour(curve, path)
            outcomes["built"] += 1
        except (EndpointAboveLevel, NoAdmissiblePath) as e:
            outcomes[type(e).__name__] += 1
            continue
        words = [x.hex() for w in path.waypoints for x in (w.real, w.imag)] + [path.margin.hex(), str(path.i_saddle)]
        digest.update((" ".join(words) + "\n").encode())
    assert outcomes == {"built": 234, "EndpointAboveLevel": 117, "NoAdmissiblePath": 45, "no simple saddle": 4}
    assert digest.hexdigest() == _FUZZ_CONTOURS_SHA256


def test_fuzzed_contours_take_the_cell_path(curves, saddles, grids, monkeypatch):
    # the pins above cover the cell-path branch on these distinct masks
    calls = []
    monkeypatch.setattr(saddle, "_bfs_path", lambda *args: calls.append(args) or _bfs_path(*args))
    for key in (k for k in curves if k.startswith("fuzz-")):
        calls.clear()
        build_contour(curves[key], saddles[key], grids[key])
        assert calls, key


def test_build_contour_allocates_path_sized_memory(curves, saddles, grids):
    # no grid-sized temporaries: the saddle disc is cut out on its index box
    # and a cell path costs one search, without a parent field
    for key, bound in (("cardioid", 4 << 20), ("ellipse", 3 << 19)):
        tracemalloc.start()
        try:
            build_contour(curves[key], saddles[key], grids[key])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (key, peak)


def test_level_region_allocates_one_field(curves, saddles):
    # the field is the one grid-sized array: its rows are filled in blocks
    for key in ("ellipse", "cardioid", "nonconvex"):
        tracemalloc.start()
        try:
            values = level_region(curves[key], saddles[key]).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * values.nbytes, (key, peak)


def test_contour_waypoint_validation():
    with pytest.raises(ValueError):
        ContourPath(waypoints=(-PI + 0j, 1j), margin=0.1, i_saddle=1)
    with pytest.raises(ValueError):
        ContourPath(waypoints=(-3.0 + 0j, 1j, PI + 0j), margin=0.1, i_saddle=1)
    with pytest.raises(ValueError):
        ContourPath(waypoints=(-PI + 0j, 1j, PI + 0j), margin=0.1, i_saddle=2)
    with pytest.raises(ValueError):
        ContourPath(waypoints=(-PI + 0j, 1j, PI + 0j), margin=-0.1, i_saddle=1)


def test_naive_chord_on_ellipse_is_narrowly_admissible(curves, saddles, paths):
    # straight chords (-pi, t0, pi) stay ~8% under the default margin band
    sp = saddles["ellipse"]
    chord = ContourPath(
        waypoints=(-PI + 0j, sp.t0, PI + 0j),
        margin=paths["ellipse"].margin,
        i_saddle=1,
    )
    rep = validate_contour(curves["ellipse"], chord)
    assert rep.max_excess < -chord.margin
    assert rep.max_excess > -2.0 * chord.margin


def test_detour_path_violates_margin(curves, saddles, paths):
    sp = saddles["ellipse"]
    bad = ContourPath(
        waypoints=(-PI + 0j, 1.0j, sp.t0, PI + 0j),
        margin=paths["ellipse"].margin,
        i_saddle=2,
    )
    with pytest.raises(MarginViolated) as exc:
        validate_contour(curves["ellipse"], bad)
    assert exc.value.excess > 0.17
    assert abs(exc.value.t - 1.0j) < 0.2


def test_endpoint_above_level():
    # mirrored deltoid: saddle at 0 with Re g = -3 while Re g(pi) = +1
    refl = TrigCurve(a1=(0.0, -2.0, -1.0), b1=(), a2=(), b2=(0.0, 2.0, -1.0), check=False)
    sp = [s for s in find_saddles(refl) if abs(s.t0) < 1e-8][0]
    grid = level_region(refl, sp)
    with pytest.raises(EndpointAboveLevel):
        build_contour(refl, sp, grid)


def test_no_admissible_path_when_grid_clipped(curves, saddles, grids):
    # cardioid escape runs upward; a grid clipped to s <= 0.2 has no corridor
    sp, full = saddles["cardioid"], grids["cardioid"]
    rows = full.s <= 0.2
    grid = LevelSetGrid(r=full.r, s=full.s[rows], values=full.values[rows])
    with pytest.raises(NoAdmissiblePath):
        build_contour(curves["cardioid"], sp, grid)


def test_branch_angle_examples(saddles):
    # deltoid: -g'' = 6, straight crossing -> principal sqrt 6
    dl = saddles["deltoid"]
    assert branch_angle(dl, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert branch_sqrt_neg_g2(dl, 0.0) == pytest.approx(math.sqrt(6.0), abs=1e-12)

    # ellipse: -g'' = sqrt 3 > 0
    ell = saddles["ellipse"]
    assert branch_sqrt_neg_g2(ell, 0.0) == pytest.approx(3.0**0.25, abs=1e-12)

    # cardioid: -g'' = -1; leaving at pi/4 lifts arg to -pi, root -i
    card = saddles["cardioid"]
    assert branch_angle(card, PI / 4) == pytest.approx(-PI, abs=1e-12)
    assert branch_sqrt_neg_g2(card, PI / 4) == pytest.approx(-1j, abs=1e-12)
    # arriving at -3pi/8 (the built V-turn) lifts arg to +pi, root +i
    assert branch_angle(card, -3 * PI / 8) == pytest.approx(PI, abs=1e-12)
    assert branch_sqrt_neg_g2(card, -3 * PI / 8) == pytest.approx(1j, abs=1e-12)


def test_branch_flip_on_reversal(saddles):
    for sp in saddles.values():
        for om in (0.0, PI / 4, -3 * PI / 8):
            try:
                a = branch_sqrt_neg_g2(sp, om)
            except BranchUnresolvable:
                continue
            b = branch_sqrt_neg_g2(sp, om + PI)
            assert abs(a + b) < 1e-12 * max(1.0, abs(a))
            assert abs(abs(a) - math.sqrt(abs(sp.g2))) < 1e-12 * max(1.0, abs(a))


def test_branch_unresolvable_on_ascent_direction(saddles):
    # cardioid descent cone is pi/4..3pi/4; a horizontal traversal cannot resolve
    with pytest.raises(BranchUnresolvable):
        branch_sqrt_neg_g2(saddles["cardioid"], 0.0)
    # ellipse descent is horizontal; vertical traversal cannot resolve
    with pytest.raises(BranchUnresolvable):
        branch_sqrt_neg_g2(saddles["ellipse"], PI / 2)


def test_grid_csv_format(grids):
    text = grid_to_csv(grids["ellipse"])
    lines = text.splitlines()
    assert lines[0] == "r,s,value"
    assert len(lines) == 1 + len(grids["ellipse"].r) * len(grids["ellipse"].s)
    r0, s0, v0 = lines[1].split(",")
    assert float(r0) == grids["ellipse"].r[0]
    assert float(s0) == grids["ellipse"].s[0]
    assert math.isfinite(float(v0))


def test_grid_svg_structure(grids, paths):
    svg = grid_to_svg(grids["cardioid"], paths["cardioid"])
    assert svg.startswith("<svg")
    assert 'viewBox="0 0 1000 600"' in svg
    assert svg.count("<polyline") == len(grids["cardioid"].polylines) + 1
    assert 'stroke="blue"' in svg and 'stroke="black"' in svg
    # deterministic output
    assert svg == grid_to_svg(grids["cardioid"], paths["cardioid"])
    no_overlay = grid_to_svg(grids["cardioid"])
    assert 'stroke="blue"' not in no_overlay


def _deque_bfs(mask, a, b=None):
    # reference: FIFO queue BFS, steps up, down, left, right, stopping when b is popped
    ns, nr = mask.shape
    prev = {a: None}
    dq = deque([a])
    while dq:
        cur = dq.popleft()
        if cur == b:
            break
        i, j = cur
        for nxt in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if 0 <= nxt[0] < ns and 0 <= nxt[1] < nr and mask[nxt] and nxt not in prev:
                prev[nxt] = cur
                dq.append(nxt)
    return prev


def _deque_path(mask, a, b):
    prev = _deque_bfs(mask, a, b)
    if b not in prev:
        return None
    out = [b]
    while prev[out[-1]] is not None:
        out.append(prev[out[-1]])
    return out[::-1]


@st.composite
def _mask_and_ends(draw):
    ns = draw(st.integers(1, 40))
    nr = draw(st.integers(1, 50))
    density = draw(st.floats(0.3, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    mask = np.random.default_rng(seed).random((ns, nr)) < density
    a = (draw(st.integers(0, ns - 1)), draw(st.integers(0, nr - 1)))
    b = a if draw(st.booleans()) and draw(st.booleans()) else (
        draw(st.integers(0, ns - 1)), draw(st.integers(0, nr - 1))
    )
    return mask, a, b


@settings(max_examples=150, deadline=None)
@given(_mask_and_ends())
def test_bfs_matches_deque_bfs(case):
    mask, a, b = case
    want = _deque_path(mask, a, b)
    assert _bfs_path(mask, a, b) == want
    if a == b:
        assert want == [a]


@settings(max_examples=40, deadline=None)
@given(_mask_and_ends())
def test_bfs_path_to_any_reached_cell_matches_deque_bfs(case):
    # the search runs back from its target, so each target is its own
    # search: every cell the queue search from a reaches must get its path
    mask, a, _ = case
    for c in _deque_bfs(mask, a):
        assert _bfs_path(mask, a, c) == _deque_path(mask, a, c)


@st.composite
def _walled_mask_and_ends(draw):
    # walls across a 60-100 by 140-180 cell grid every few rows, each with a gap,
    # so that the shortest path runs several times the L1 distance.  In a
    # serpentine the gaps sit at alternate ends and the ends lie beyond the first
    # and last walls, at least 66 columns from either side: |c - a|_1 + |c - b|_1
    # then reaches more than 128 past L1(a, b) on the grid, beyond the first two
    # bounds, and every path is longer than its largest value, so only the whole
    # grid holds one.  Otherwise the gaps fall at random, walls get stray holes
    # and 3 % of the cells close.  One wall may be sealed, and the mask may be
    # transposed (a comb of vertical walls).
    ns, nr = draw(st.integers(60, 100)), draw(st.integers(140, 180))
    gap = draw(st.integers(3, 6))
    serpentine = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = np.ones((ns, nr), dtype=bool)
    walls = range(gap, ns - gap, gap)
    for n, i in enumerate(walls):
        mask[i] = False
        width = int(rng.integers(1, 4))
        at = (0 if n % 2 else nr - width) if serpentine else int(rng.integers(0, nr - width + 1))
        mask[i, at:at + width] = True
        if not serpentine:
            mask[i, rng.integers(0, nr, 2)] = rng.random(2) < 0.3
    sealed = draw(st.booleans()) and draw(st.booleans())
    if sealed:
        mask[walls[int(rng.integers(0, len(walls)))]] = False
    if serpentine:
        a = (int(rng.integers(0, gap)), int(rng.integers(66, nr - 66)))
        b = (int(rng.integers(walls[-1] + 1, ns)), int(rng.integers(66, nr - 66)))
    else:
        mask &= rng.random((ns, nr)) > 0.03
        a, b = ((int(rng.integers(0, ns)), int(rng.integers(0, nr))) for _ in range(2))
    if draw(st.booleans()):
        mask, a, b = mask.T.copy(), a[::-1], b[::-1]
    return mask, a, b, serpentine and not sealed


def _double_wall():
    # a = (50, 45) and b = (50, 55) either side of two walls over rows 10-90 at
    # columns 49 and 51.  Through the gaps at rows 20 and 80 the path is 130 steps
    # long and lies inside the first bound, 74; round the walls it is 92 steps
    # and does not.  Only the second bound finds the shorter one
    mask = np.ones((100, 100), dtype=bool)
    mask[10:91, [49, 51]] = False
    mask[20, 49] = mask[80, 51] = True
    return mask, (50, 45), (50, 55), False


@settings(max_examples=40, deadline=None)
@given(_walled_mask_and_ends())
@example(_double_wall())
def test_bounded_search_widens_to_the_whole_grid(case):
    # the search starts on the cells near the segment a -> b and doubles its bound
    # until the path fits; each path must still be the queue search's
    mask, a, b, long_way = case
    searched = []
    search = saddle._search

    def spy(sub, *ends):
        searched.append(sub.shape)
        return search(sub, *ends)

    saddle._search = spy
    try:
        got = _bfs_path(mask, a, b)
    finally:
        saddle._search = search
    want = _deque_path(mask, a, b)
    assert got == want
    if want is None and mask[b]:
        assert searched[-1] == mask.shape  # only the whole grid can tell that b is out of reach
    if long_way and want is not None:
        # a serpentine path outruns two bounds at least before the whole grid holds it
        assert len(searched) >= 3 and searched[-1] == mask.shape, (len(want), searched)


@settings(max_examples=100, deadline=None)
@given(_mask_and_ends(), st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), min_size=1, max_size=8))
def test_components_match_deque_bfs(case, picks):
    # one connected() answers a run of queries between True cells; each must
    # say whether a fresh queue search from one reaches the other
    mask, a, b = case
    cells = [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))]
    connected = _components(mask)
    for c in (a, b):
        if not mask[c]:
            with pytest.raises(ValueError):
                connected(c, c)
    assume(cells)
    pool = [c for c in (a, b) if mask[c]] + [cells[x % len(cells)] for pair in picks for x in pair]
    for u, v in zip(pool, pool[1:] + pool[:1]):
        assert connected(u, v) == (_deque_path(mask, u, v) is not None)


def _serpentine():
    # 181 full rows, each joined to the next by one cell at alternate ends: one
    # run per row, and a single path through all of them
    mask = np.zeros((361, 481), dtype=bool)
    mask[::2] = True
    mask[1::4, -1] = mask[3::4, 0] = True
    return mask


def _comb():
    # one-cell teeth down every other column, on a spine along the last row that
    # is cut under the middle tooth: 120 teeth either side of a lone one, each
    # tooth a column of runs whose least label is at the top, far from the spine
    mask = np.zeros((361, 481), dtype=bool)
    mask[:, ::2] = True
    mask[-1, 1::2] = True
    mask[-1, 240] = False
    return mask


def _chain():
    # two-cell runs climbing from the bottom-left corner to the top row, each
    # sharing one column with the next: labels go in row order, so the least
    # label sits at the far end of a 361-run chain; a broken step at row 100
    # splits it in two
    mask = np.zeros((361, 481), dtype=bool)
    for i in range(361):
        mask[i, 360 - i:362 - i] = True
    mask[100, 260] = False
    return mask


@pytest.mark.parametrize("make", [_serpentine, _comb, _chain])
def test_components_on_full_size_masks(make):
    # label chains as long as the raster, and a comb that needs a second round
    # (the first leaves each tooth's top run a root, and the roots meet only
    # through the spine): every answer must be the queue search's
    mask = make()
    connected = _components(mask)
    cells = [tuple(int(x) for x in c) for c in np.argwhere(mask)]
    first, last = cells[0], cells[-1]
    assert connected(first, last) == (_deque_path(mask, first, last) is not None)
    reached = _deque_bfs(mask, first)
    rng = np.random.default_rng(len(cells))
    picks = [cells[k] for k in rng.integers(0, len(cells), 200)]
    answers = [connected(first, c) for c in picks]
    assert answers == [c in reached for c in picks]
    if make is not _serpentine:
        assert not all(answers) and any(answers)
