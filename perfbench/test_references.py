"""The benchmark's references against 60-digit mpmath at a few points.

    python -m pytest -q perfbench/test_references.py

The mpmath side is written again from the definitions: waves from their
series and polar forms with gradients by numerical differentiation, saddles
by root finding, and I(lam) by a 60-digit trapezoid or tanh-sinh quadrature.
"""

import math

import pytest

import references as ref

mp = pytest.importorskip("mpmath")
K, Q = 1.0, 2.0

ELLIPSE = ([0.0, 2.0], [0.0], [0.0], [0.0, 1.0])
QUARTIC = ([0.0, 2.5, 0.0, 0.5], [0.0], [0.0], [0.0, 1.5, 0.0, 0.5])
CIRCLE = ([0.0, 1.0], [0.0], [0.0], [0.0, 1.0])
PLANE = {"kind": "plane", "alpha": 0.4}
COMBO = {"kind": "plane_combo", "terms": [[[0.7, 0.2], 1.1], [[-0.3, 0.5], -2.0]]}
HARMONIC = {"kind": "harmonic", "n": -2}
HERGLOTZ = {"kind": "herglotz", "psi": {"0": [1.0, 0.0], "1": [0.2, -0.1], "3": [0.0, 0.3]}}


def _mp_g(m, w):
    # G_m(w) = sum_j (-w)^j / (j! (j+m)!), straight from the series
    return mp.nsum(lambda j: (-w) ** j / (mp.factorial(j) * mp.factorial(j + m)), [0, mp.inf])


def _mp_value(wave, x1, x2):
    u = mp.mpc(0)
    if wave["kind"] in ("plane", "plane_combo"):
        terms = [([1, 0], wave["alpha"])] if wave["kind"] == "plane" else wave["terms"]
        for c, a in terms:
            u += mp.mpc(*c) * mp.exp(1j * K * (x1 * mp.cos(a) + x2 * mp.sin(a)))
        return u
    psi = {wave["n"]: [1, 0]} if wave["kind"] == "harmonic" else {int(n): c for n, c in wave["psi"].items()}
    for n, c in psi.items():
        m = abs(n)
        s = x1 + 1j * x2 if n >= 0 else x1 - 1j * x2
        w = K * K * (x1 * x1 + x2 * x2) / 4
        u += mp.mpc(*c) * 2 * mp.pi * mp.mpc(0, 1) ** m * (K / 2) ** m * s**m * _mp_g(m, w)
    return u


def _mp_curve(coeffs, t):
    a1, b1, a2, b2 = ([mp.mpf(v) for v in c] + [mp.mpf(0)] * (4 - len(c)) for c in coeffs)
    x1 = sum(a1[m] * mp.cos(m * t) + b1[m] * mp.sin(m * t) for m in range(4))
    x2 = sum(a2[m] * mp.cos(m * t) + b2[m] * mp.sin(m * t) for m in range(4))
    x1p = sum(m * (-a1[m] * mp.sin(m * t) + b1[m] * mp.cos(m * t)) for m in range(4))
    x2p = sum(m * (-a2[m] * mp.sin(m * t) + b2[m] * mp.cos(m * t)) for m in range(4))
    return x1, x2, x1p, x2p


def _mp_integrand(x1, x2, x1p, x2p, wave, lam, g0):
    lt = K * K * Q / (mp.sqrt(lam**2 + K * K * Q) + lam)
    u = _mp_value(wave, x1, x2)
    v1 = mp.diff(lambda y: _mp_value(wave, y, x2), x1)
    v2 = mp.diff(lambda y: _mp_value(wave, x1, y), x2)
    pre = (x2p * v1 - x1p * v2) + 1j * lam * (x1p + 1j * x2p) * u + 1j * lt * x1p * u
    return pre * mp.exp(lam * (x1 + 1j * x2 - g0) + 1j * lt * x2)


def _mp_curve_I(coeffs, wave, lam, g0=0, n=128):
    with mp.workdps(60):
        h = 2 * mp.pi / n
        f = [_mp_integrand(*_mp_curve(coeffs, -mp.pi + j * h), wave, mp.mpf(lam), g0) for j in range(n)]
        full, half = h * mp.fsum(f), 2 * h * mp.fsum(f[::2])
        assert abs(full - half) <= mp.mpf("1e-14") * abs(full), "mpmath trapezoid not converged"
        return complex(full)


@pytest.mark.parametrize("wave", [PLANE, COMBO, HARMONIC, HERGLOTZ], ids=lambda w: w["kind"])
def test_wave_values_and_gradients(wave):
    with mp.workdps(60):
        for x1, x2 in ((0.3, -1.2), (2.1, 0.4), (-0.7, 0.0)):
            u, v1, v2 = ref.wave_real(wave, K, [x1], [x2])
            want = _mp_value(wave, mp.mpf(x1), mp.mpf(x2))
            d1 = mp.diff(lambda y: _mp_value(wave, y, mp.mpf(x2)), mp.mpf(x1))
            d2 = mp.diff(lambda y: _mp_value(wave, mp.mpf(x1), y), mp.mpf(x2))
            for got, w in ((u[0], want), (v1[0], d1), (v2[0], d2)):
                assert abs(got - complex(w)) <= 1e-13 * max(1.0, abs(complex(w)))
        z = (mp.mpc(1.2, 0.3), mp.mpc(-0.4, 0.9))
        want = complex(_mp_value(wave, *z))
        assert abs(ref.wave_value(wave, K, complex(z[0]), complex(z[1])) - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize(
    "coeffs, wave, lam, g0",
    [
        (ELLIPSE, PLANE, 3.0, 0.0),
        (ELLIPSE, HERGLOTZ, 10.0, math.sqrt(3.0)),
        (QUARTIC, HARMONIC, 2.0, 0.0),
        (CIRCLE, COMBO, 5.0, 0.0),
    ],
)
def test_curve_trapezoid(coeffs, wave, lam, g0):
    got, mass = ref.curve_I(coeffs, wave, K, Q, lam, g0)
    want = _mp_curve_I(coeffs, wave, lam, g0)
    assert abs(got - want) <= 1e-12 * abs(want) + 1e-14 * mass


def test_cardioid_mpmath_matches_trapezoid():
    coeffs = ([-0.5, 1.0, -0.5], [0.0], [0.0], [0.0, 1.0, -0.5])
    got, mass = ref.curve_I(coeffs, {"kind": "plane", "alpha": -1.3}, K, Q, 10.0)
    want = ref.cardioid_I_mpmath(-1.3, K, Q, 10.0)
    assert abs(got - want) <= 1e-12 * abs(want) + 1e-14 * mass


@pytest.mark.parametrize("wave", [PLANE, HARMONIC], ids=lambda w: w["kind"])
def test_wedge_legs(wave):
    theta, a1, a2, lam = 0.6, -1.1, -0.9, 10.0
    got, _ = ref.wedge_I(theta, a1, a2, wave, K, Q, lam)
    with mp.workdps(60):
        m = mp.tan(theta)
        total = mp.mpc(0)
        for a, slope, orient in ((a1, -m, -1), (a2, m, 1)):
            f = lambda t, s=slope: _mp_integrand(t, s * t, mp.mpf(1), s, wave, mp.mpf(lam), 0)  # noqa: E731
            total += orient * mp.quad(f, [mp.mpf(a), mp.mpf(a) / 4, 0])
    assert abs(got - complex(total)) <= 1e-12 * abs(complex(total))


def _mp_saddle(coeffs, guess):
    with mp.workdps(60):
        g = lambda t: (lambda x: x[0] + 1j * x[1])(_mp_curve(coeffs, t))  # noqa: E731
        t0 = mp.findroot(lambda t: mp.diff(g, t), mp.mpc(guess))
        return t0, g(t0), mp.diff(g, t0, 2), _mp_curve(coeffs, t0)


@pytest.mark.parametrize("wave", [PLANE, COMBO, HARMONIC, HERGLOTZ], ids=lambda w: w["kind"])
def test_ellipse_and_quartic_closed_forms(wave):
    for coeffs, closed_saddle, closed_c1 in (
        (ELLIPSE, ref.ellipse_saddle(2.0, 1.0), ref.ellipse_c1(2.0, 1.0, wave, K, Q)),
        (QUARTIC, ref.quartic_saddle(2.0), ref.quartic_c1(2.0, wave, K, Q)),
    ):
        t0, g0, g2, (x1, x2, _, x2p) = _mp_saddle(coeffs, closed_saddle[0] + 0.05)
        assert abs(complex(t0) - closed_saddle[0]) <= 1e-14
        assert abs(complex(g0) - closed_saddle[1]) <= 1e-14
        with mp.workdps(60):
            c1 = K * K * (Q - 1) * _mp_value(wave, x1, x2) * x2p * mp.sqrt(2 * mp.pi / -g2)
        assert abs(closed_c1 - complex(c1)) <= 1e-13 * abs(complex(c1))


def test_deltoid_saddle():
    for s in (0.6, 1.0, 1.5):
        coeffs = ([0.0, 2 * s, s], [0.0], [0.0], [0.0, 2 * s, -s])
        t0, g0, _, _ = _mp_saddle(coeffs, 0.05j)
        assert abs(complex(t0)) <= 1e-14 and abs(complex(g0) - ref.deltoid_g0(s)) <= 1e-13


@pytest.mark.parametrize("wave", [PLANE, COMBO, HARMONIC, HERGLOTZ], ids=lambda w: w["kind"])
def test_disk_closed_form(wave):
    for lam in (1.0, 6.0):
        want = _mp_curve_I(CIRCLE, wave, lam)
        assert abs(ref.disk_I(wave, K, Q, lam) - want) <= 1e-12 * abs(want)


def test_corner_constant():
    # lam^2 I = C + D/lam + O(lam^-2): Richardson on two large lam removes D
    theta, wave = 0.5, PLANE
    with mp.workdps(60):
        m = mp.tan(theta)

        def scaled(lam):
            total = mp.mpc(0)
            for slope, orient in ((-m, -1), (m, 1)):
                f = lambda t, s=slope: _mp_integrand(t, s * t, mp.mpf(1), s, wave, mp.mpf(lam), 0)  # noqa: E731
                total += orient * mp.quad(f, [-1, -mp.mpf(10) / lam, -mp.mpf(1) / lam, 0])
            return lam**2 * total

        c = 2 * scaled(4000) - scaled(2000)
    want = ref.corner_c(theta, wave, K, Q)
    assert abs(complex(c) - want) <= 1e-5 * abs(want)
