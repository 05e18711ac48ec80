import cmath
import math
import warnings

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from nonscatter.czmath import (
    SpectralParams,
    bessel_g,
    bessel_j,
    bessel_jp,
    lambda_tilde,
)
from nonscatter.errors import AccuracyEnvelopeExceeded


def test_spectral_params_validation():
    SpectralParams(k=1.0, q=2.0, lam=0.0)
    with pytest.raises(ValueError):
        SpectralParams(k=0.0, q=2.0, lam=1.0)
    with pytest.raises(ValueError):
        SpectralParams(k=1.0, q=1.0, lam=1.0)
    with pytest.raises(ValueError):
        SpectralParams(k=1.0, q=-2.0, lam=1.0)
    with pytest.raises(ValueError):
        SpectralParams(k=1.0, q=2.0, lam=-1.0)


def test_lambda_tilde_values():
    # lam=0 collapses to k sqrt(q); large lam behaves like k^2 q / (2 lam)
    p0 = SpectralParams(k=1.0, q=4.0, lam=0.0)
    assert lambda_tilde(p0) == pytest.approx(2.0, abs=1e-15)
    p = SpectralParams(k=1.0, q=2.0, lam=1e8)
    assert lambda_tilde(p) == pytest.approx(1e-8, rel=1e-8)


def test_lambda_tilde_monotone_and_bounded():
    k, q = 1.3, 3.0
    lams = np.linspace(0.0, 500.0, 2001)
    vals = np.array([lambda_tilde(SpectralParams(k=k, q=q, lam=l)) for l in lams])
    assert vals[0] == pytest.approx(k * math.sqrt(q), abs=1e-14)
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals > 0)
    assert np.all(vals <= k * math.sqrt(q) + 1e-15)


def test_exponent_splitting_identity():
    # e^{i x.xi} = e^{lam g} e^{i lt x2} with g = x1 + i x2 for the area oracle's
    # xi = (-i lam, lam + lt), whose xi.xi = lt (lt + 2 lam) = k^2 q (next test)
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = SpectralParams(k=rng.uniform(0.5, 3.0), q=rng.uniform(1.5, 6.0), lam=rng.uniform(0.0, 40.0))
        lt = lambda_tilde(p)
        x1, x2 = rng.normal(size=2)
        xi = (-1j * p.lam, p.lam + lt)
        lhs = cmath.exp(1j * (x1 * xi[0] + x2 * xi[1]))
        rhs = cmath.exp(p.lam * (x1 + 1j * x2)) * cmath.exp(1j * lt * x2)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_lambda_tilde_conjugate_identity():
    # lt (lt + 2 lam) = k^2 q exactly characterizes lt = sqrt(lam^2+k^2 q) - lam
    rng = np.random.default_rng(11)
    for _ in range(500):
        k = rng.uniform(0.1, 10.0)
        q = rng.uniform(0.1, 10.0)
        if q == 1.0:
            continue
        lam = rng.uniform(0.0, 1000.0)
        lt = lambda_tilde(SpectralParams(k=k, q=q, lam=lam))
        assert lt * (lt + 2.0 * lam) == pytest.approx(k * k * q, rel=1e-13)


# --- Bessel ---

def test_bessel_j_real_reference_values():
    assert abs(bessel_j(0, 1.0) - 0.7651976865579666) < 1e-14
    assert abs(bessel_j(1, 2.0) - 0.5767248077568734) < 1e-14
    assert abs(bessel_j(5, 1.0) - 0.000249757730211234431) < 1e-16
    # zeros of J_1 and J_3
    assert abs(bessel_j(1, 3.8317059702075125)) < 1e-13
    assert abs(bessel_j(3, 6.380161895923984)) < 1e-13


def test_bessel_j_negative_order_reflection():
    for z in (0.7 + 0.2j, 5.0, 30.0 - 2.0j):
        for n in (1, 2, 3, 6):
            want = bessel_j(n, z) * (-1) ** n
            assert abs(bessel_j(-n, z) - want) < 1e-14 * max(1.0, abs(want))
            wantp = bessel_jp(n, z) * (-1) ** n
            assert abs(bessel_jp(-n, z) - wantp) < 1e-14 * max(1.0, abs(wantp))


def test_bessel_j_vs_scipy_grid():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(400):
        n = int(rng.integers(0, 9))
        z = complex(rng.uniform(-60, 60), rng.uniform(-12, 12))
        if abs(z) < 1e-3:
            continue
        ref = sps.jv(n, z)
        got = bessel_j(n, z)
        rel = abs(got - ref) / max(abs(ref), 1e-280)
        worst = max(worst, rel)
    # Miller normalization sheds ~6 digits in the worst corner of the envelope
    assert worst < 5e-10


def test_bessel_jp_vs_scipy_grid():
    rng = np.random.default_rng(43)
    for _ in range(200):
        n = int(rng.integers(0, 7))
        z = complex(rng.uniform(-40, 40), rng.uniform(-8, 8))
        if abs(z) < 1e-3:
            continue
        ref = sps.jvp(n, z)
        got = bessel_jp(n, z)
        assert abs(got - ref) <= 5e-10 * max(1.0, abs(ref))


def test_bessel_recurrence_property():
    # J_{n-1} + J_{n+1} = (2n/z) J_n
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        z = complex(rng.uniform(-50, 50), rng.uniform(-10, 10))
        if abs(z) < 0.1:
            continue
        lhs = bessel_j(n - 1, z) + bessel_j(n + 1, z)
        rhs = (2.0 * n / z) * bessel_j(n, z)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_bessel_derivative_identity():
    # J_{n+1} - J_{n-1} = -2 J_n'
    rng = np.random.default_rng(6)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        z = complex(rng.uniform(-50, 50), rng.uniform(-10, 10))
        if abs(z) < 0.1:
            continue
        lhs = bessel_j(n + 1, z) - bessel_j(n - 1, z)
        rhs = -2.0 * bessel_jp(n, z)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_bessel_envelope_is_enforced():
    assert abs(bessel_j(0, 199.9)) > 0
    with pytest.raises(AccuracyEnvelopeExceeded):
        bessel_j(0, 200.5)
    with pytest.raises(AccuracyEnvelopeExceeded):
        bessel_j(2, 150.0 + 140.0j)


def test_non_finite_arguments_raise_without_warnings():
    # nan fails every |z| <= 200 test, so it is refused before any arithmetic;
    # an infinite w is refused before 2 sqrt(w) can turn it into nan
    from nonscatter.asymptotics import radial_wronskian

    nan = float("nan")
    calls = [
        lambda: bessel_j(0, nan),
        lambda: bessel_g(1, nan),
        lambda: bessel_jp(2, complex(nan, 1.0)),
        lambda: radial_wronskian(0, 4.0, nan),
        lambda: bessel_g(0, math.inf),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in calls:
            with pytest.raises(AccuracyEnvelopeExceeded, match="non-finite"):
                call()


def test_real_axis_values_are_real_beyond_the_cuts():
    # J_n, J_n' and G_n are real on the real axis; past the series cuts
    # (|z| > 8, |w| > 16) no imaginary roundoff is left
    zs = np.array([-150.0, -30.5, 8.5, 12.25, 40.5, 81.0, 199.0])
    ws = np.array([-9000.0, -40.0, 16.5, 300.0, 9999.0])
    s = np.sqrt(ws.astype(complex))
    for n in (0, 1, 3, 7):
        for got, ref in (
            (bessel_j(n, zs), sps.jv(n, zs)),
            (bessel_jp(n, zs), sps.jvp(n, zs)),
            (bessel_g(n, ws), sps.jv(n, 2.0 * s) / s**n),
        ):
            assert (got.imag == 0.0).all(), n
            assert np.all(np.abs(got.real - ref.real) <= 1e-12 * np.maximum(1.0, np.abs(ref))), n
        for z in zs:
            assert bessel_j(n, float(z)).imag == 0.0 and bessel_jp(n, float(z)).imag == 0.0


def test_bessel_g_matches_j():
    # J_n(z) = (z/2)^n G_n(z^2/4), including across the series/backoff split
    for z in (0.3, 2.0 + 1.0j, 9.0, 14.0 - 3.0j, 24.0):
        z = complex(z)
        for n in (0, 1, 4):
            lhs = bessel_j(n, z)
            rhs = (0.5 * z) ** n * bessel_g(n, 0.25 * z * z)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_bessel_g_examples():
    # G_0(0) = 1, G_1(0) = 1, G_1(1) = J_1(2)
    assert abs(bessel_g(0, 0.0) - 1.0) < 1e-15
    assert abs(bessel_g(1, 0.0) - 1.0) < 1e-15
    assert abs(bessel_g(1, 1.0) - 0.5767248077568734) < 1e-13
    with pytest.raises(ValueError):
        bessel_g(-1, 1.0)


def test_bessel_g_entire_no_branch_seam():
    # value must be continuous across the negative real axis of w (sqrt fallback)
    for w0 in (-40.0, -60.0):
        up = bessel_g(2, complex(w0, 1e-9))
        dn = bessel_g(2, complex(w0, -1e-9))
        assert abs(up - dn) <= 1e-8 * max(1.0, abs(up))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_lambda_tilde_hypothesis(k, q, lam):
    if abs(q - 1.0) < 1e-6:
        q += 0.1
    p = SpectralParams(k=k, q=q, lam=lam)
    lt = lambda_tilde(p)
    assert 0.0 < lt <= k * math.sqrt(q) + 1e-12
    assert lt * (lt + 2.0 * lam) == pytest.approx(k * k * q, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=6),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=40.0, allow_nan=False, allow_infinity=False),
)
def test_bessel_conjugation_hypothesis(n, z):
    if abs(z.imag) > 10.0:
        z = complex(z.real, math.copysign(10.0, z.imag))
    lhs = bessel_j(n, z.conjugate())
    rhs = bessel_j(n, z).conjugate()
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


@pytest.mark.parametrize("z", [35j, 40j, 150 + 50j, -200j, 12.0, 7.5 + 2.0j])
def test_bessel_j_off_axis_points(z):
    # J_0 + 2 sum J_2m cancels off the real axis (to zero at 40i and 150+50i);
    # near |z| = 12 the alternating series sheds digits; at high order the
    # series must not stop while its terms still grow
    for n in (0, 1, 2, 7, 20):
        ref = sps.jv(n, z)
        assert abs(bessel_j(n, z) - ref) <= 1e-12 * max(1.0, abs(ref))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=20),
    st.floats(min_value=0.0, max_value=199.999),
    st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_bessel_j_envelope_hypothesis(n, r, theta):
    z = cmath.rect(r, theta)
    ref = sps.jv(n, z)
    assert abs(bessel_j(n, z) - ref) <= 1e-12 * max(1.0, abs(ref))


def _j_from_g(n, w, g):
    # J_n(2 sqrt(w)) = sqrt(w)^n G_n(w); the branch of sqrt cancels
    s = np.sqrt(np.asarray(w, dtype=complex))
    return s**n * g, sps.jv(n, 2.0 * s)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=20),
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=9999.0), st.floats(min_value=-math.pi, max_value=math.pi)),
        min_size=0,
        max_size=8,
    ),
)
def test_bessel_g_envelope_hypothesis(n, polar):
    # scalar and array calls, both sides of the series cut, against scipy;
    # each array element is its scalar call bit for bit
    w = np.array([cmath.rect(r, th) for r, th in polar], dtype=complex)
    arr = bessel_g(n, w)
    assert arr.shape == w.shape and arr.dtype == complex
    for i, wi in enumerate(w):
        one = bessel_g(n, complex(wi))
        assert isinstance(one, complex) and one == arr[i], (n, wi)
        for g in (one, arr[i]):
            got, ref = _j_from_g(n, wi, g)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (n, wi)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=70), min_size=0, max_size=6, unique=True),
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=40.0), st.floats(min_value=-math.pi, max_value=math.pi)),
        min_size=1,
        max_size=8,
    ),
)
def test_bessel_g_orders_share_one_pass(orders, polar):
    # one series pass for several orders gives each order's values bit for bit,
    # on arrays and scalars, with |w| on both sides of the series cut 16
    w = np.array([cmath.rect(r, th) for r, th in polar], dtype=complex)
    together = bessel_g(orders, w)
    assert len(together) == len(orders)
    for m, got in zip(orders, together):
        assert got.shape == w.shape
        assert got.tobytes() == bessel_g(m, w).tobytes(), m
    for wi in w:
        for m, got in zip(orders, bessel_g(orders, complex(wi))):
            assert isinstance(got, complex) and got == bessel_g(m, complex(wi)), (m, wi)


def test_bessel_g_array_shape():
    # each point of an array call is its scalar call bit for bit, on both sides
    # of the series cut |w| = 16
    w = np.array([[0.5, -3.0 + 1.0j, 29.0], [16.5j, 0.0, -100.0]])
    out = bessel_g(3, w)
    assert out.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert out[i, j] == bessel_g(3, complex(w[i, j])), w[i, j]


def test_bessel_g_pinned_past_old_series_cut():
    # |w| = 29 once ran the series, which was off by 1.5e-13 of max(1, |J|)
    got, ref = _j_from_g(2, 29.0, bessel_g(2, 29.0))
    assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref))


def test_bessel_j_and_jp_on_arrays():
    # array calls meet the scalar contract on both sides of the series cut, and
    # each element is its scalar call bit for bit
    rng = np.random.default_rng(11)
    z = (rng.uniform(0.0, 30.0, 40) * np.exp(1j * rng.uniform(-math.pi, math.pi, 40))).reshape(8, 5)
    z[0, 0] = 0.0
    z[0, 1] = 8.0
    z[0, 2] = 8.0 * np.exp(0.3j) * (1.0 + 1e-15)
    for n in (-3, 0, 1, 4):
        j, jp = bessel_j(n, z), bessel_jp(n, z)
        assert j.shape == jp.shape == z.shape
        ref, refp = sps.jv(n, z), sps.jvp(n, z)
        assert np.all(np.abs(j - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
        assert np.all(np.abs(jp - refp) <= 1e-12 * np.maximum(1.0, np.abs(refp)))
        for zi, ji, jpi in zip(z.ravel(), j.ravel(), jp.ravel()):
            assert ji == bessel_j(n, complex(zi)) and jpi == bessel_jp(n, complex(zi)), (n, zi)
    assert bessel_j(2, np.array([])).shape == (0,)
    with pytest.raises(AccuracyEnvelopeExceeded):
        bessel_j(0, np.array([1.0, 200.5]))
