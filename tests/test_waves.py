import cmath
import math

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from nonscatter.czmath import bessel_g, bessel_j
from nonscatter.waves import (
    CircularHarmonic,
    HerglotzTrunc,
    PlaneCombo,
    PlaneWave,
    gradient,
    sample,
    value,
)


def _laplacian(w, x, h=1e-4):
    # 5-point stencil, Richardson against the coarser 2h step (the finer-step
    # variant quadruples the eps/h^2 roundoff floor)
    def lap(step):
        c = value(w, x)
        s = (
            value(w, (x[0] + step, x[1]))
            + value(w, (x[0] - step, x[1]))
            + value(w, (x[0], x[1] + step))
            + value(w, (x[0], x[1] - step))
        )
        return (s - 4 * c) / step**2

    return (4 * lap(h) - lap(2 * h)) / 3


def test_plane_wave_values():
    w = PlaneWave(k=1.0, alpha=0.0)
    assert value(w, (0.0, 0.0)) == pytest.approx(1.0)
    assert value(w, (math.pi / 2, 5.0)) == pytest.approx(1j, abs=1e-14)
    g = gradient(w, (0.3, -0.2))
    assert g[0] == pytest.approx(1j * value(w, (0.3, -0.2)), abs=1e-14)
    assert g[1] == pytest.approx(0.0, abs=1e-15)


def test_plane_wave_never_vanishes_complex():
    rng = np.random.default_rng(21)
    w = PlaneWave(k=2.0, alpha=0.7)
    for _ in range(50):
        x = (complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
        assert abs(value(w, x)) > 0.0


def test_harmonic_matches_polar_form_real_points():
    # h_n = 2 pi i^n e^{i n theta} J_n(k r) away from the origin
    rng = np.random.default_rng(22)
    for n in (0, 1, 3, -2):
        w = CircularHarmonic(k=1.7, n=n)
        for _ in range(25):
            r = rng.uniform(0.2, 3.0)
            th = rng.uniform(-math.pi, math.pi)
            x = (r * math.cos(th), r * math.sin(th))
            want = 2 * math.pi * (1j**n) * cmath.exp(1j * n * th) * bessel_j(n, w.k * r)
            got = value(w, x)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_harmonic_regular_at_origin():
    assert value(CircularHarmonic(k=1.0, n=0), (0.0, 0.0)) == pytest.approx(2 * math.pi)
    assert value(CircularHarmonic(k=1.0, n=3), (0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)
    g = gradient(CircularHarmonic(k=1.0, n=1), (0.0, 0.0))
    # d/dx (x1 + i x2)^1 G_1 -> pi i k (1, i)
    assert g[0] == pytest.approx(math.pi * 1j * 1.0, abs=1e-13)
    assert g[1] == pytest.approx(-math.pi, abs=1e-13)


def test_harmonic_modulus_symmetry():
    rng = np.random.default_rng(23)
    for n in (1, 2, 5):
        wp = CircularHarmonic(k=2.2, n=n)
        wm = CircularHarmonic(k=2.2, n=-n)
        for _ in range(100):
            x = (rng.normal(), rng.normal())
            assert abs(value(wm, x)) == pytest.approx(abs(value(wp, x)), rel=1e-11, abs=1e-13)


def test_helmholtz_residual_all_models():
    rng = np.random.default_rng(24)
    # O(1)-amplitude models: the stencil roundoff floor is ~eps |u| / h^2
    models = [
        PlaneWave(k=1.0, alpha=0.3),
        PlaneCombo(k=1.5, terms=((0.6 + 0.3j, 0.0), (-0.25j, 2.1))),
        CircularHarmonic(k=2.0, n=2),
        HerglotzTrunc(k=1.2, psi=((0, 0.2), (3, 0.1j), (-2, 0.05))),
    ]
    for w in models:
        k = w.k
        for _ in range(25):
            x = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            v = value(w, x)
            lap = _laplacian(w, x)
            assert abs(lap + k * k * v) <= 1e-6 * max(1.0, abs(k * k * v))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(25)
    models = [
        PlaneWave(k=2.0, alpha=-1.1),
        CircularHarmonic(k=1.0, n=4),
        HerglotzTrunc(k=2.0, psi=((1, 1.0), (-1, 2.0))),
    ]
    h = 1e-6
    for w in models:
        for _ in range(20):
            x = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            g = gradient(w, x)
            fd0 = (value(w, (x[0] + h, x[1])) - value(w, (x[0] - h, x[1]))) / (2 * h)
            fd1 = (value(w, (x[0], x[1] + h)) - value(w, (x[0], x[1] - h))) / (2 * h)
            assert abs(g[0] - fd0) < 1e-7 * max(1.0, abs(g[0]))
            assert abs(g[1] - fd1) < 1e-7 * max(1.0, abs(g[1]))


def test_values_are_analytic_in_each_coordinate():
    # Cauchy-Riemann in x1 at complex points: d/d(re) = -i d/d(im)
    w = CircularHarmonic(k=1.3, n=2)
    x = (0.4 + 0.1j, -0.3 + 0.2j)
    h = 1e-6
    d_re = (value(w, (x[0] + h, x[1])) - value(w, (x[0] - h, x[1]))) / (2 * h)
    d_im = (value(w, (x[0] + 1j * h, x[1])) - value(w, (x[0] - 1j * h, x[1]))) / (2 * h)
    assert abs(d_im - 1j * d_re) < 1e-6 * max(1.0, abs(d_re))
    assert abs(gradient(w, x)[0] - d_re) < 1e-7 * max(1.0, abs(d_re))


def test_herglotz_linearity():
    k = 1.4
    x = (0.7, -0.4)
    h1 = HerglotzTrunc(k=k, psi=((1, 1.0),))
    h2 = HerglotzTrunc(k=k, psi=((-3, 1.0),))
    mix = HerglotzTrunc(k=k, psi=((1, 2.0 - 1.0j), (-3, 0.5j)))
    want = (2.0 - 1.0j) * value(h1, x) + 0.5j * value(h2, x)
    assert value(mix, x) == pytest.approx(want, rel=1e-13)
    gw = tuple(
        (2.0 - 1.0j) * a + 0.5j * b for a, b in zip(gradient(h1, x), gradient(h2, x))
    )
    gm = gradient(mix, x)
    assert gm[0] == pytest.approx(gw[0], rel=1e-13)
    assert gm[1] == pytest.approx(gw[1], rel=1e-13)


def test_herglotz_equals_harmonic_sum():
    k = 2.0
    w = HerglotzTrunc(k=k, psi=((0, 0.3), (2, -1.0j)))
    x = (0.5 + 0.2j, 1.0 - 0.1j)
    want = 0.3 * value(CircularHarmonic(k=k, n=0), x) - 1j * value(
        CircularHarmonic(k=k, n=2), x
    )
    assert value(w, x) == pytest.approx(want, rel=1e-12)


def test_sample_bundles_value_and_gradient():
    w = PlaneWave(k=1.0, alpha=0.5)
    x = (1.0 + 0.5j, -2.0)
    s = sample(w, x)
    assert s.v == value(w, x)
    assert s.V == gradient(w, x)


def test_wave_validation():
    with pytest.raises(ValueError):
        PlaneWave(k=0.0, alpha=0.0)
    with pytest.raises(ValueError):
        CircularHarmonic(k=-1.0, n=2)
    with pytest.raises(ValueError):
        HerglotzTrunc(k=1.0, psi=((65, 1.0),))


# --- array evaluation -------------------------------------------------------

_coef = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_k = st.floats(min_value=0.5, max_value=3.0)
_alpha = st.floats(min_value=-math.pi, max_value=math.pi)
_order = st.integers(min_value=-6, max_value=6)

_models = st.one_of(
    st.builds(PlaneWave, k=_k, alpha=_alpha),
    st.builds(PlaneCombo, k=_k, terms=st.lists(st.tuples(_coef, _alpha), min_size=1, max_size=4).map(tuple)),
    st.builds(CircularHarmonic, k=_k, n=_order),
    st.builds(HerglotzTrunc, k=_k, psi=st.dictionaries(_order, _coef, min_size=1, max_size=5).map(lambda d: tuple(d.items()))),
)

_points = st.lists(
    st.tuples(
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=0,
    max_size=10,
).map(lambda pts: (np.array([p[0] for p in pts], dtype=complex), np.array([p[1] for p in pts], dtype=complex)))


def _majorant(w, x):
    """Sums of the moduli of all that the value and the gradient add up, plane
    terms or harmonic terms with their G_m series (G_m(-W) bounds the series of
    G_m(w) termwise for |w| <= W): the size that roundoff is relative to."""
    x1, x2 = x
    k = w.k
    if isinstance(w, (PlaneWave, PlaneCombo)):
        terms = w.terms if isinstance(w, PlaneCombo) else ((1.0, w.alpha),)
        v = sum(abs(c) * abs(cmath.exp(1j * k * (x1 * math.cos(a) + x2 * math.sin(a)))) for c, a in terms)
        return v, k * v
    terms = w.psi if isinstance(w, HerglotzTrunc) else ((w.n, 1.0),)
    big_w = 0.25 * k * k * (abs(x1) ** 2 + abs(x2) ** 2)
    size = abs(x1) + abs(x2)
    v = g = 0.0
    for n, c in terms:
        m = abs(n)
        pref = abs(c) * 2.0 * math.pi * (0.5 * k) ** m
        gm, gm1 = bessel_g(m, -big_w).real, bessel_g(m + 1, -big_w).real
        v += pref * size**m * gm
        g += pref * ((m * size ** (m - 1) * gm if m else 0.0) + size**m * 0.5 * k * k * gm1 * size)
    return v, g


@settings(max_examples=150, deadline=None)
@given(_models, _points)
def test_array_matches_per_point(w, pts):
    x1, x2 = pts
    s = sample(w, (x1, x2))
    assert s.v.shape == x1.shape and s.V[0].shape == x1.shape and s.V[1].shape == x1.shape
    assert np.array_equal(value(w, (x1, x2)), s.v)
    g = gradient(w, (x1, x2))
    assert np.array_equal(g[0], s.V[0]) and np.array_equal(g[1], s.V[1])
    for i in range(len(x1)):
        x = (complex(x1[i]), complex(x2[i]))
        one = sample(w, x)
        assert isinstance(one.v, complex) and isinstance(one.V[0], complex)
        vsize, gsize = _majorant(w, x)
        for arr, pt, size in zip((s.v, s.V[0], s.V[1]), (one.v, one.V[0], one.V[1]), (vsize, gsize, gsize)):
            assert abs(arr[i] - pt) <= 1e-14 * size


@settings(max_examples=150, deadline=None)
@given(_k, _order, _points)
def test_harmonic_matches_scipy_at_complex_points(k, n, pts):
    # h_n = 2 pi i^n (x1 +/- i x2)^|n| (k/2)^|n| J_|n|(kr) / (kr/2)^|n|, whose
    # last factor is even in r = sqrt(x1^2 + x2^2), so no branch is chosen
    x1, x2 = pts
    m = abs(n)
    kr = k * np.sqrt(x1 * x1 + x2 * x2)
    keep = np.abs(kr) > 1e-3
    x1, x2, kr = x1[keep], x2[keep], kr[keep]
    s = x1 + 1j * x2 if n >= 0 else x1 - 1j * x2
    g_ref = sps.jv(m, kr) / (0.5 * kr) ** m
    lead = 2.0 * math.pi * 1j**m * (0.5 * k * s) ** m
    got = value(CircularHarmonic(k=k, n=n), (x1, x2))
    assert np.all(np.abs(got - lead * g_ref) <= 1e-12 * np.abs(lead) * np.maximum(1.0, np.abs(g_ref)))


@settings(max_examples=100, deadline=None)
@given(_models, _points)
def test_helmholtz_residual_at_complex_points(w, pts):
    x1, x2 = pts
    h = 1e-4

    def lap(step):
        c = value(w, (x1, x2))
        s = (
            value(w, (x1 + step, x2))
            + value(w, (x1 - step, x2))
            + value(w, (x1, x2 + step))
            + value(w, (x1, x2 - step))
        )
        return (s - 4 * c) / step**2

    residual = (4 * lap(h) - lap(2 * h)) / 3 + w.k**2 * value(w, (x1, x2))
    for i in range(len(x1)):
        size = _majorant(w, (complex(x1[i]), complex(x2[i])))[0]
        assert abs(residual[i]) <= 1e-6 * max(1.0, w.k**2) * max(1.0, size)
