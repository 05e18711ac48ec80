"""Independent references for the benchmark's output checks.

Everything here is written from the defining formulas with numpy and
scipy.special only, and imports nothing from nonscatter.  Curves are given
as the Fourier coefficient lists of a scenario file,
x_j(t) = a_j0 + sum_m (a_jm cos mt + b_jm sin mt); waves as scenario wave
objects ({"kind": "plane", "alpha": ...}, "plane_combo", "harmonic",
"herglotz").  The diagnostic integral is

    I(lam) = int [(x2', -x1') . V + i lam g' u + i lt x1' u] e^(lam g + i lt x2) dt

with g = x1 + i x2 and lt = sqrt(lam^2 + k^2 q) - lam.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import jv, jvp


def lambda_tilde(k: float, q: float, lam: float) -> float:
    """sqrt(lam^2 + k^2 q) - lam in conjugate form."""
    return k * k * q / (math.hypot(lam, k * math.sqrt(q)) + lam)


class Curve:
    """Trigonometric polynomial curve and its first derivative at real t."""

    def __init__(self, a1, b1, a2, b2):
        n = max(len(a1), len(b1), len(a2), len(b2))
        pad = lambda c: np.array(list(c) + [0.0] * (n - len(c)), dtype=float)  # noqa: E731
        self.a1, self.b1, self.a2, self.b2 = pad(a1), pad(b1), pad(a2), pad(b2)
        self.m = np.arange(n, dtype=float)

    def at(self, t):
        mt = np.multiply.outer(np.asarray(t, dtype=float), self.m)
        c, s = np.cos(mt), np.sin(mt)
        x1 = c @ self.a1 + s @ self.b1
        x2 = c @ self.a2 + s @ self.b2
        x1p = (-s * self.m) @ self.a1 + (c * self.m) @ self.b1
        x2p = (-s * self.m) @ self.a2 + (c * self.m) @ self.b2
        return x1, x2, x1p, x2p


def _plane_terms(wave) -> list:
    if wave["kind"] == "plane":
        return [(1.0 + 0j, float(wave["alpha"]))]
    if wave["kind"] == "plane_combo":
        return [(complex(*c), float(a)) for c, a in wave["terms"]]
    return []


def _harmonic_terms(wave) -> list:
    if wave["kind"] == "harmonic":
        return [(int(wave["n"]), 1.0 + 0j)]
    if wave["kind"] == "herglotz":
        return [(int(n), complex(*c)) for n, c in wave["psi"].items()]
    return []


def wave_real(wave, k: float, x1, x2):
    """u, du/dx1, du/dx2 at real points.

    Harmonics h_n = 2 pi i^n e^(i n theta) J_n(k r) in polar form, with
    (d1 + i d2) H_n = -k H_(n+1) and (d1 - i d2) H_n = k H_(n-1) for
    H_n = e^(i n theta) J_n(k r).
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    u = np.zeros(x1.shape, dtype=complex)
    v1 = np.zeros_like(u)
    v2 = np.zeros_like(u)
    for c, alpha in _plane_terms(wave):
        e = c * np.exp(1j * k * (x1 * math.cos(alpha) + x2 * math.sin(alpha)))
        u += e
        v1 += 1j * k * math.cos(alpha) * e
        v2 += 1j * k * math.sin(alpha) * e
    if _harmonic_terms(wave):
        r = np.hypot(x1, x2)
        th = np.arctan2(x2, x1)
        for n, c in _harmonic_terms(wave):
            h = {m: jv(m, k * r) * np.exp(1j * m * th) for m in (n - 1, n, n + 1)}
            pre = c * 2.0 * math.pi * 1j**n
            u += pre * h[n]
            v1 += pre * 0.5 * k * (h[n - 1] - h[n + 1])
            v2 += pre * 0.5j * k * (h[n + 1] + h[n - 1])
    return u, v1, v2


def _g_entire(m: int, w: complex) -> complex:
    # G_m(w) = J_m(2 sqrt w) / sqrt(w)^m, even in sqrt w, G_m(0) = 1/m!
    if w == 0:
        return 1.0 / math.factorial(m)
    s = cmath.sqrt(w)
    return complex(jv(m, 2.0 * s)) / s**m


def wave_value(wave, k: float, x1: complex, x2: complex) -> complex:
    """u at one complex point, harmonics in the entire form (x1 +- i x2)^|n| G_|n|."""
    x1, x2 = complex(x1), complex(x2)
    u = 0j
    for c, alpha in _plane_terms(wave):
        u += c * cmath.exp(1j * k * (x1 * math.cos(alpha) + x2 * math.sin(alpha)))
    for n, c in _harmonic_terms(wave):
        m = abs(n)
        s = x1 + 1j * x2 if n >= 0 else x1 - 1j * x2
        w = 0.25 * k * k * (x1 * x1 + x2 * x2)
        u += c * 2.0 * math.pi * 1j**m * (0.5 * k) ** m * s**m * _g_entire(m, w)
    return u


def _integrand(x1, x2, x1p, x2p, wave, k, q, lam, g0):
    lt = lambda_tilde(k, q, lam)
    u, v1, v2 = wave_real(wave, k, x1, x2)
    g = x1 + 1j * x2
    gp = x1p + 1j * x2p
    pre = (x2p * v1 - x1p * v2) + 1j * lam * gp * u + 1j * lt * x1p * u
    return pre * np.exp(lam * (g - g0) + 1j * lt * x2)


def curve_I(coeffs, wave, k: float, q: float, lam: float, g0: complex = 0j):
    """(e^(-lam g0) I(lam), mass) by the periodic trapezoid rule on [-pi, pi).

    The node count doubles until two rules agree to 1e-14 of the integrand
    mass int |f| dt, which bounds what any double-precision rule can reach.
    """
    curve = Curve(*coeffs)
    prev = None
    n = 64
    while n <= 1 << 16:
        t = -math.pi + 2.0 * math.pi * np.arange(n) / n
        f = _integrand(*curve.at(t), wave, k, q, lam, g0)
        h = 2.0 * math.pi / n
        cur, mass = h * complex(f.sum()), h * float(np.abs(f).sum())
        if prev is not None and abs(cur - prev) <= 1e-14 * mass:
            return cur, mass
        prev = cur
        n *= 2
    raise ArithmeticError("reference trapezoid did not converge")


def wedge_I(theta: float, a1: float, a2: float, wave, k: float, q: float, lam: float):
    """(I(lam), mass) over the two legs of a wedge with vertex 0 opening leftward.

    The upper leg x = (t, -m t), t in [a1, 0], is traversed against its
    parametrization; the lower leg x = (t, m t), t in [a2, 0], along it.
    Composite 32-point Gauss-Legendre, panels halving toward the vertex.
    """
    m = math.tan(theta)
    xg, wg = np.polynomial.legendre.leggauss(32)
    lt = lambda_tilde(k, q, lam)
    total, mass = 0j, 0.0
    for a, slope, orient in ((a1, -m, -1.0), (a2, m, 1.0)):
        ends = [a * 0.5**j for j in range(24)] + [0.0]
        for lo, hi in zip(ends[:-1], ends[1:]):
            t = lo + (hi - lo) * 0.5 * (xg + 1.0)
            u, v1, v2 = wave_real(wave, k, t, slope * t)
            f = ((slope * v1 - v2) + 1j * lam * (1.0 + 1j * slope) * u + 1j * lt * u) * np.exp(
                lam * (1.0 + 1j * slope) * t + 1j * lt * slope * t
            )
            total += orient * 0.5 * (hi - lo) * complex((wg * f).sum())
            mass += 0.5 * (hi - lo) * float((wg * np.abs(f)).sum())
    return total, mass


# ---- closed forms ---------------------------------------------------------


def ellipse_saddle(a: float, b: float):
    """(t0, g0) of x = (a cos t, b sin t): t0 = i atanh(b/a), g0 = sqrt(a^2 - b^2)."""
    return 1j * math.atanh(b / a), math.sqrt(a * a - b * b)


def _c1(u0: complex, x2p: float, neg_g2: float, k: float, q: float) -> complex:
    # leading constant k^2 (q-1) u(x(t0)) x2'(t0) sqrt(2 pi / (-g''(t0))), -g'' > 0
    return k * k * (q - 1.0) * u0 * x2p * math.sqrt(2.0 * math.pi / neg_g2)


def ellipse_c1(a: float, b: float, wave, k: float, q: float) -> complex:
    """C1 of the ellipse: x(t0) = (a^2, i b^2)/d, x2'(t0) = ab/d, -g''(t0) = d = sqrt(a^2 - b^2)."""
    d = math.sqrt(a * a - b * b)
    return _c1(wave_value(wave, k, a * a / d, 1j * b * b / d), a * b / d, d, k, q)


def quartic_saddle(c: float):
    """(t0, g0) of (c + cos 2t)(cos t, sin t).

    With w = e^(it), g = c w + 1/(2w) + w^3/2, and g_w = 0 at
    w0^2 = (sqrt(c^2 + 3) - c)/3, t0 = -i ln w0.
    """
    w0 = math.sqrt((math.sqrt(c * c + 3.0) - c) / 3.0)
    return -1j * math.log(w0), c * w0 + 0.5 / w0 + 0.5 * w0**3


def quartic_c1(c: float, wave, k: float, q: float) -> complex:
    """C1 of the quartic at t0 = i tau: -g''(t0) = 1/w0 + 3 w0^3 with w0 = e^(-tau)."""
    t0, _ = quartic_saddle(c)
    tau = t0.imag
    x1 = (c + 0.5) * math.cosh(tau) + 0.5 * math.cosh(3.0 * tau)
    x2 = 1j * ((c - 0.5) * math.sinh(tau) + 0.5 * math.sinh(3.0 * tau))
    x2p = (c - 0.5) * math.cosh(tau) + 1.5 * math.cosh(3.0 * tau)
    w0 = math.exp(-tau)
    return _c1(wave_value(wave, k, x1, x2), x2p, 1.0 / w0 + 3.0 * w0**3, k, q)


def deltoid_g0(scale: float) -> float:
    """The deltoid s (2 cos t + cos 2t, 2 sin t - sin 2t) has its cusp saddle at t0 = 0, g0 = 3 s."""
    return 3.0 * scale


def deltoid_c2(wave, k: float, q: float) -> complex:
    """Second-order constant of the unit deltoid's outward cusp: sqrt(pi/12) k^2 (q-1) u(3, 0)."""
    return math.sqrt(math.pi / 12.0) * k * k * (q - 1.0) * wave_value(wave, k, 3.0, 0.0)


def corner_c(theta: float, wave, k: float, q: float) -> complex:
    """Corner law constant 2 k^2 m/(1+m^2) (q-1) u(0), m = tan theta: I ~ C / lam^2."""
    m = math.tan(theta)
    return 2.0 * k * k * m / (1.0 + m * m) * (q - 1.0) * wave_value(wave, k, 0.0, 0.0)


def disk_I(wave, k: float, q: float, lam: float) -> complex:
    """I(lam) on the unit circle in closed form, term by term.

    I = k^2 (q-1) int_disk u e^(i y.xi), xi = (-i lam, sqrt(lam^2 + k^2 q)).
    A plane term e^(i k y.eta) gives int_disk e^(y.zeta) = pi G_1(-zeta.zeta/4),
    zeta = i k eta + i xi.  A harmonic term h_n gives, by Jacobi-Anger for
    e^(i y.xi) (|xi| = k sqrt q, e^(i beta) = i lt/(k sqrt q)) and Lommel's
    integral, 4 pi^2 k W_n (-i lt/(k sqrt q))^n with
    W_n = J_n'(k) J_n(k sqrt q) - sqrt q J_n(k) J_n'(k sqrt q).
    """
    lt = lambda_tilde(k, q, lam)
    xi2 = lam + lt
    rq = math.sqrt(q)
    total = 0j
    for c, alpha in _plane_terms(wave):
        z1 = 1j * k * math.cos(alpha) + lam
        z2 = 1j * k * math.sin(alpha) + 1j * xi2
        total += c * k * k * (q - 1.0) * math.pi * _g_entire(1, -0.25 * (z1 * z1 + z2 * z2))
    for n, c in _harmonic_terms(wave):
        wr = jvp(n, k) * jv(n, k * rq) - rq * jv(n, k) * jvp(n, k * rq)
        total += c * 4.0 * math.pi**2 * k * wr * (-1j * lt / (k * rq)) ** n
    return total


def cardioid_I_mpmath(alpha: float, k: float, q: float, lam: float, n: int = 512) -> complex:
    """I(lam) of the cardioid (1 - cos t)(cos t, sin t) and a plane wave, 60-digit trapezoid.

    Checks its own convergence against the n/2-node rule on the even nodes.
    """
    import mpmath as mp

    with mp.workdps(60):
        lam = mp.mpf(lam)
        ca, sa = mp.cos(alpha), mp.sin(alpha)
        lt = k * k * q / (mp.sqrt(lam**2 + k * k * q) + lam)
        h = 2 * mp.pi / n
        terms = []
        for j in range(n):
            t = -mp.pi + j * h
            c, s = mp.cos(t), mp.sin(t)
            x1, x2 = (1 - c) * c, (1 - c) * s
            x1p, x2p = s * (2 * c - 1), s * s + (1 - c) * c
            u = mp.exp(1j * k * (x1 * ca + x2 * sa))
            v1, v2 = 1j * k * ca * u, 1j * k * sa * u
            pre = (x2p * v1 - x1p * v2) + 1j * lam * (x1p + 1j * x2p) * u + 1j * lt * x1p * u
            terms.append(pre * mp.exp(lam * (x1 + 1j * x2) + 1j * lt * x2))
        full = h * mp.fsum(terms)
        half = 2 * h * mp.fsum(terms[::2])
        if abs(full - half) > mp.mpf("1e-12") * abs(full):
            raise ArithmeticError("mpmath cardioid trapezoid not converged")
        return complex(full)
