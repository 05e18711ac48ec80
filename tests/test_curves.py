import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonscatter.curves import (
    MAX_DEGREE,
    CornerDomain,
    TrigCurve,
    _chords_cross,
    builtin,
    corner_segments,
    eval_jet,
    eval_jets,
    g_jet,
)
from nonscatter.errors import InvalidShapeParams


def test_builtin_shapes_sample_points():
    ell = builtin("ellipse", 2.0, 1.0)
    j = eval_jet(ell, 0.0, order=0)
    assert j.x[0] == pytest.approx(2.0, abs=1e-15)
    assert j.x[1] == pytest.approx(0.0, abs=1e-15)

    card = builtin("cardioid")
    jp = eval_jet(card, math.pi, order=0)
    assert jp.x[0] == pytest.approx(-2.0, abs=1e-14)
    assert jp.x[1] == pytest.approx(0.0, abs=1e-14)
    assert jp.g == pytest.approx(-2.0, abs=1e-14)

    circ = builtin("circle", 1.0)
    for t in (0.0, 0.7, -2.1):
        jc = eval_jet(circ, t, order=0)
        assert jc.g == pytest.approx(np.exp(1j * t), abs=1e-14)

    dl = builtin("deltoid")
    jd = eval_jet(dl, 0.0, order=2)
    assert jd.gp == pytest.approx(0.0, abs=1e-14)
    assert jd.gpp == pytest.approx(-6.0, abs=1e-13)


def test_builtin_nonconvex_matches_product_form():
    ncv = builtin("nonconvex")
    ts = np.linspace(-math.pi, math.pi, 100, endpoint=False)
    jets = eval_jets(ncv, ts, order=0)
    r = 2.0 + np.cos(2.0 * ts)
    assert np.max(np.abs(jets[0][0] - r * np.cos(ts))) < 1e-13
    assert np.max(np.abs(jets[0][1] - r * np.sin(ts))) < 1e-13


def test_builtin_ellipse_saddle_jet_closed_form():
    # at t0 = i atanh(b/a): g = sqrt(a^2-b^2) scaling, here g = sqrt 3, g'' = -g
    ell = builtin("ellipse", 2.0, 1.0)
    t0 = 1j * math.atanh(0.5)
    j = eval_jet(ell, t0, order=2)
    assert j.g == pytest.approx(math.sqrt(3.0), abs=1e-14)
    assert j.gp == pytest.approx(0.0, abs=1e-14)
    assert j.gpp == pytest.approx(-math.sqrt(3.0), abs=1e-14)


def test_builtin_validation():
    with pytest.raises(InvalidShapeParams):
        builtin("ellipse", 1.0, 2.0)  # requires a > b
    with pytest.raises(InvalidShapeParams):
        builtin("circle", -1.0)
    with pytest.raises(InvalidShapeParams):
        builtin("heptagon")


def test_max_degree_enforced():
    with pytest.raises(InvalidShapeParams):
        TrigCurve(a1=(0.0,) * 18, b1=(), a2=(), b2=(0.0,) * 18)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficient_rejected(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidShapeParams, match="finite"):
            TrigCurve((0.0, bad), (0.0,), (0.0,), (0.0, 1.0))
        with pytest.raises(InvalidShapeParams, match="finite"):
            TrigCurve((0.0, 1.0), (0.0,), (0.0,), (0.0, 1.0, bad), check=False)


def test_jets_match_finite_differences():
    rng = np.random.default_rng(12)
    cv = builtin("nonconvex")
    h = 1e-5
    for t in rng.uniform(-math.pi, math.pi, 25):
        j = eval_jet(cv, t, order=2)
        for comp in (0, 1):
            up = eval_jet(cv, t + h, order=0).x[comp]
            dn = eval_jet(cv, t - h, order=0).x[comp]
            fd1 = (up - dn) / (2 * h)
            assert abs(j.xp[comp] - fd1) < 1e-8
            fd2 = (up - 2 * j.x[comp] + dn) / h**2
            assert abs(j.xpp[comp] - fd2) < 1e-4


def test_jet_periodicity_complex():
    # Re t quantized to the 2^-50 lattice and kept in (-1.7, 1.7) so that
    # t + 2 pi is exactly representable; a generic float t would only measure
    # the rounding of t + 2 pi itself, amplified through the derivatives
    rng = np.random.default_rng(13)
    eps = np.finfo(float).eps
    for name in ("cardioid", "nonconvex"):
        cv = builtin(name)
        for _ in range(50):
            re = round(rng.uniform(-1.7, 1.7) * 2**50) / 2**50
            t = complex(re, rng.uniform(-1, 1))
            a = eval_jet(cv, t, order=4)
            b = eval_jet(cv, t + 2 * math.pi, order=4)
            c = eval_jet(cv, t - 2 * math.pi, order=4)
            for u, v in (
                (a.g, b.g), (a.gp, b.gp), (a.gpp, b.gpp), (a.g3, b.g3), (a.x4[0], b.x4[0]),
                (a.g, c.g), (a.gp, c.gp), (a.gpp, c.gpp), (a.g3, c.g3), (a.x4[1], c.x4[1]),
            ):
                assert abs(u - v) <= 4 * eps * max(1.0, abs(u))


def test_g_jet_consistency():
    cv = builtin("ellipse", 2.0, 1.0)
    t = 0.3 + 0.2j
    j = eval_jet(cv, t, order=3)
    g = g_jet(cv, t, order=3)
    assert g[0] == j.g and g[1] == j.gp and g[2] == j.gpp and g[3] == j.g3
    assert j.g == j.x[0] + 1j * j.x[1]
    assert j.gpp == j.xpp[0] + 1j * j.xpp[1]
    assert len(g_jet(cv, t, order=4)) == 5
    with pytest.raises(ValueError, match="order"):
        g_jet(cv, t, order=6)


def test_cardioid_phase_factorization():
    # g(t) = -(e^{it}-1)^2 / 2 on a complex strip
    rng = np.random.default_rng(14)
    cv = builtin("cardioid")
    for _ in range(100):
        t = complex(rng.uniform(-math.pi, math.pi), rng.uniform(-1, 1))
        g = eval_jet(cv, t, order=0).g
        want = -0.5 * (np.exp(1j * t) - 1.0) ** 2
        assert abs(g - want) <= 1e-12 * max(1.0, abs(want))


def test_eval_jets_vectorized_agrees_with_scalar():
    cv = builtin("deltoid")
    ts = np.array([0.1, -1.2 + 0.4j, 2.9 - 0.1j])
    jets = eval_jets(cv, ts, order=3)
    for i, t in enumerate(ts):
        j = eval_jet(cv, complex(t), order=3)
        assert abs(jets[0][0][i] - j.x[0]) < 1e-14 * max(1.0, abs(j.x[0]))
        assert abs(jets[1][1][i] - j.xp[1]) < 1e-14 * max(1.0, abs(j.xp[1]))
        assert abs(jets[3][0][i] - j.x3[0]) < 1e-13 * max(1.0, abs(j.x3[0]))


def _series_jet(rows, t, d):
    """(x1^(d), x2^(d)) at t term by term from cos(mt + d pi/2) and sin(mt + d pi/2), at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        tm = mpmath.mpc(t.real, t.imag)
        out = []
        for a, b in (rows[0:2], rows[2:4]):
            tot = mpmath.mpc(0)
            for m in range(len(a)):
                ph = m * tm + d * mpmath.pi / 2
                tot += m**d * (a[m] * mpmath.cos(ph) + b[m] * mpmath.sin(ph))
            out.append(complex(tot))
        return out


@st.composite
def _curve_rows(draw):
    deg = draw(st.integers(1, MAX_DEGREE))
    coeff = st.floats(-1.0, 1.0)
    return [draw(st.lists(coeff, min_size=deg + 1, max_size=deg + 1)) for _ in range(4)]


@settings(max_examples=40, deadline=None)
@given(
    _curve_rows(),
    st.lists(st.tuples(st.floats(-math.pi, math.pi), st.floats(-1.5, 1.5)), min_size=1, max_size=4),
    st.integers(0, 4),
)
def test_eval_jets_match_series_oracle(rows, points, order):
    # every jet within 32 eps of the sum of its terms' magnitudes, m^d (|a_m| + |b_m|) cosh(m Im t)
    curve = TrigCurve(*rows, check=False)
    ts = np.array([complex(r, s) for r, s in points])
    jets = eval_jets(curve, ts, order=order)
    eps = np.finfo(float).eps
    m = np.arange(len(rows[0]))
    for i, t in enumerate(ts):
        grow = np.cosh(m * t.imag)
        for d in range(order + 1):
            want = _series_jet(rows, t, d)
            for comp in (0, 1):
                size = np.abs(rows[2 * comp]) + np.abs(rows[2 * comp + 1])
                bound = 32 * eps * float((m**d * size * grow).sum())
                assert abs(jets[d][comp][i] - want[comp]) <= bound, (d, comp, t)


def test_eval_jets_keep_input_shape():
    cv = builtin("deltoid")
    ts = np.array([[0.1, -1.2 + 0.4j, 2.9], [0.5j, -3.0, 1.0 - 1.0j]])
    grid = eval_jets(cv, ts, order=2)
    flat = eval_jets(cv, ts.ravel(), order=2)
    point = eval_jets(cv, np.complex128(-1.2 + 0.4j), order=2)
    for d in range(3):
        for comp in (0, 1):
            assert grid[d][comp].shape == ts.shape and np.iscomplexobj(grid[d][comp])
            assert np.array_equal(grid[d][comp].ravel(), flat[d][comp])
            assert np.shape(point[d][comp]) == () and np.iscomplexobj(point[d][comp])
            assert abs(point[d][comp] - flat[d][comp][1]) <= 1e-14 * max(1.0, abs(flat[d][comp][1]))


def test_orientation_warning_on_clockwise_curve():
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        TrigCurve(a1=(0.0, 1.0), b1=(), a2=(), b2=(0.0, -1.0))  # clockwise circle
    (w,) = [w for w in rec if "counterclockwise" in str(w.message)]
    assert w.filename == __file__


def test_self_intersection_warning():
    # inner-loop limacon x = (1 + 2 cos t)(cos t, sin t) crosses itself
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        TrigCurve(a1=(1.0, 1.0, 1.0), b1=(), a2=(), b2=(0.0, 1.0, 1.0))
    (w,) = [w for w in rec if "intersect" in str(w.message)]
    assert w.filename == __file__


def test_corner_domain_and_segments():
    c = CornerDomain(theta=math.pi / 4, a1=-1.0, a2=-1.0)
    up, lo = corner_segments(c)
    m = math.tan(c.theta)
    assert up.slope == pytest.approx(-m)
    assert lo.slope == pytest.approx(m)
    assert up.orient == -lo.orient
    # upper endpoint sits at (-1, 1) for theta = pi/4
    assert (up.a, up.a * up.slope) == pytest.approx((-1.0, 1.0))
    with pytest.raises(InvalidShapeParams):
        CornerDomain(theta=2.0, a1=-1.0, a2=-1.0)
    with pytest.raises(InvalidShapeParams):
        CornerDomain(theta=0.5, a1=1.0, a2=-1.0)


def test_corner_phase_on_legs():
    c = CornerDomain(theta=math.pi / 3, a1=-0.5, a2=-0.5)
    up, lo = corner_segments(c)
    m = math.tan(c.theta)
    for t in (-0.4, -0.1):
        # g = x1 + i x2 restricted to each leg
        assert complex(t, lo.slope * t) * 1.0 == pytest.approx(t * (1 + 1j * m))
        assert complex(t, up.slope * t) * 1.0 == pytest.approx(t * (1 - 1j * m))


def _chords_cross_all_pairs(x, y):
    # reference: the same strict predicate on every chord pair, 256 rows at a time
    px, py = x, y
    qx, qy = np.roll(x, -1), np.roll(y, -1)
    rx, ry = qx - px, qy - py
    for i0 in range(0, len(x), 256):
        i = slice(i0, i0 + 256)
        d1 = rx[i, None] * (py[None, :] - py[i, None]) - ry[i, None] * (px[None, :] - px[i, None])
        d2 = rx[i, None] * (qy[None, :] - py[i, None]) - ry[i, None] * (qx[None, :] - px[i, None])
        d3 = rx[None, :] * (py[i, None] - py[None, :]) - ry[None, :] * (px[i, None] - px[None, :])
        d4 = rx[None, :] * (qy[i, None] - py[None, :]) - ry[None, :] * (qx[i, None] - px[None, :])
        if ((d1 * d2 < 0) & (d3 * d4 < 0)).any():
            return True
    return False


def _chord_sample(curve):
    ts = np.linspace(-math.pi, math.pi, 2048, endpoint=False)
    jets = eval_jets(curve, ts, order=0)
    return jets[0][0].real, jets[0][1].real


_coeff_rows = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5)


@settings(max_examples=25, deadline=None)
@given(_coeff_rows, _coeff_rows, _coeff_rows, _coeff_rows)
def test_pruned_chord_test_matches_all_pairs(a1, b1, a2, b2):
    x, y = _chord_sample(TrigCurve(a1=a1, b1=b1, a2=a2, b2=b2, check=False))
    assert _chords_cross(x, y) == _chords_cross_all_pairs(x, y)


@st.composite
def _near_simple_rows(draw):
    # the ROADMAP fuzz distribution (zero mean, m = 1 terms of a1 and b2 in
    # [-1, 1], the rest in [-0.3, 0.3]) at degree 1-4; above, the rest in [-0.3/M, 0.3/M]
    deg = draw(st.integers(1, MAX_DEGREE))
    small = 0.3 if deg <= 4 else 0.3 / deg

    def terms(k):
        return draw(st.lists(st.floats(-small, small), min_size=k, max_size=k))

    a1 = [0.0, draw(st.floats(-1.0, 1.0))] + terms(deg - 1)
    b2 = [0.0, draw(st.floats(-1.0, 1.0))] + terms(deg - 1)
    return a1, [0.0] + terms(deg), [0.0] + terms(deg), b2


@settings(max_examples=30, deadline=None)
@given(_near_simple_rows())
def test_pruned_chord_test_matches_all_pairs_near_simple(rows):
    x, y = _chord_sample(TrigCurve(*rows, check=False))
    assert _chords_cross(x, y) == _chords_cross_all_pairs(x, y)


def test_pruned_chord_test_on_fixtures():
    limacon = TrigCurve(a1=(1.0, 1.0, 1.0), b1=(), a2=(), b2=(0.0, 1.0, 1.0), check=False)
    x, y = _chord_sample(limacon)
    assert _chords_cross(x, y) and _chords_cross_all_pairs(x, y)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        TrigCurve(a1=limacon.a1, b1=limacon.b1, a2=limacon.a2, b2=limacon.b2)
    assert any("intersect" in str(w.message) for w in rec)
    simple = (("ellipse", (2.0, 1.0)), ("cardioid", ()), ("deltoid", ()), ("nonconvex", ()), ("circle", (1.0,)))
    for name, params in simple:
        x, y = _chord_sample(builtin(name, *params))
        assert not _chords_cross(x, y) and not _chords_cross_all_pairs(x, y)
    # limacon (1 + a cos t)(cos t, sin t), a = 1.001 and 1.0001: its crossing sits
    # in a loop of about 30 or 9 samples around the turning point at t = pi, so
    # across section boundaries and inside blocks that straddle them; relabelling
    # the polygon cyclically moves where the sample starts against the loop
    for a in (1.001, 1.0001):
        x, y = _chord_sample(TrigCurve(a1=(a / 2, 1.0, a / 2), b1=(), a2=(), b2=(0.0, 1.0, a / 2), check=False))
        for shift in (0, 37, 74, 148):
            xs, ys = np.roll(x, shift), np.roll(y, shift)
            assert _chords_cross(xs, ys) and _chords_cross_all_pairs(xs, ys)
    # every chord of zero length; traced back and forth along the x1 axis
    for rows in (((0.5,), (), (0.25,), ()), ((0.0, 1.0, 0.3), (), (), ())):
        x, y = _chord_sample(TrigCurve(*rows, check=False))
        assert not _chords_cross(x, y) and not _chords_cross_all_pairs(x, y)
    # the circle on the half-step grid holds chords with rx == 0 and with ry == 0
    ts = np.linspace(-math.pi, math.pi, 2048, endpoint=False) + math.pi / 2048
    jets = eval_jets(builtin("circle", 1.0), ts, order=0)
    x, y = jets[0][0].real, jets[0][1].real
    assert (np.roll(x, -1) == x).any() and (np.roll(y, -1) == y).any()
    assert not _chords_cross(x, y) and not _chords_cross_all_pairs(x, y)
