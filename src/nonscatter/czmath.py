"""Complex-argument Bessel evaluation and the spectral-parameter algebra.

Self-contained J_n for complex z: ascending series for small arguments,
backward (Miller) recurrence beyond, documented envelope |z| <= 200.
Everything here is a pure function of value inputs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import AccuracyEnvelopeExceeded

__all__ = [
    "SpectralParams",
    "TestVector",
    "lambda_tilde",
    "xi_vector",
    "bessel_j",
    "bessel_jp",
    "bessel_g",
]

# series/Miller switchover: the alternating series sheds digits as |z| grows
# (roundoff grows like eps * e^|z|, about 1e-12 of max(1, |J_n|) by |z| = 12),
# while backward recurrence stays near 1e-15 down to |z| = 3
_SERIES_CUT = 8.0
_ENVELOPE = 200.0
_G_SERIES_CUT = 30.0


@dataclass(frozen=True)
class SpectralParams:
    """Wave number k > 0, refractive index q > 0 (q != 1), spectral parameter lam >= 0."""

    k: float
    q: float
    lam: float

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if not self.q > 0 or self.q == 1:
            raise ValueError(f"q must be positive and != 1, got {self.q}")
        if not self.lam >= 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")


@dataclass(frozen=True)
class TestVector:
    """Direction xi in C^2 with xi.xi real, i.e. Re xi orthogonal to Im xi."""

    __test__ = False  # not a pytest class, despite the name

    xi: tuple[complex, complex]

    def __post_init__(self):
        x1, x2 = (complex(self.xi[0]), complex(self.xi[1]))
        object.__setattr__(self, "xi", (x1, x2))
        dot = x1 * x1 + x2 * x2
        scale = abs(x1) ** 2 + abs(x2) ** 2
        if scale > 0 and abs(dot.imag) > 1e-10 * scale:
            raise ValueError("xi.xi must be real: Re xi and Im xi not orthogonal")

    @property
    def dot(self) -> float:
        x1, x2 = self.xi
        return (x1 * x1 + x2 * x2).real


def lambda_tilde(p: SpectralParams) -> float:
    """sqrt(lam^2 + k^2 q) - lam, in the cancellation-free conjugate form."""
    root = math.hypot(p.lam, p.k * math.sqrt(p.q))
    return p.k * p.k * p.q / (root + p.lam)


def xi_vector(p: SpectralParams) -> TestVector:
    """xi = (-i lam, sqrt(lam^2 + k^2 q)); satisfies xi.xi = k^2 q."""
    root = math.hypot(p.lam, p.k * math.sqrt(p.q))
    return TestVector((complex(0.0, -p.lam), complex(root, 0.0)))


def _g_series(n: int, w: complex) -> complex:
    # G_n(w) = sum_m (-w)^m / (m! (m+n)!), Kahan-compensated
    if n <= 128:
        term = 1.0 / float(math.factorial(n))
    else:
        term = math.exp(-math.lgamma(n + 1.0))
    t0 = term
    term = complex(term)
    total = term
    carry = 0.0 + 0.0j
    m = 0
    while True:
        m += 1
        term *= -w / (m * (m + n))
        y = term - carry
        t = total + y
        carry = (t - total) - y
        total = t
        if m > 4 and abs(term) <= 1e-18 * max(t0, abs(total)):
            break
        if m > 500:
            break
    return total


def bessel_g(n: int, w) -> complex:
    """Entire function G_n(w) = sum_m (-w)^m/(m!(m+n)!); J_n(z) = (z/2)^n G_n(z^2/4)."""
    if n < 0:
        raise ValueError(f"bessel_g requires n >= 0, got {n}")
    w = complex(w)
    if abs(w) <= _G_SERIES_CUT:
        return _g_series(n, w)
    # G_n entire and J_n(2s)/s^n even in s, so the sqrt branch cancels
    s = cmath.sqrt(w)
    return bessel_j(n, 2.0 * s) / s**n


def _miller(n: int, z: complex) -> complex:
    # backward recurrence J_{m-1} = (2m/z) J_m - J_{m+1}, normalized by the
    # generating function e^{uz} = J_0 + 2 sum_{m>=1} u^m J_m with u = -i or i
    # chosen so |e^{uz}| = e^{|Im z|}: its terms then add up without the
    # cancellation that J_0 + 2 sum J_2m = 1 suffers off the real axis
    u = -1j if z.imag >= 0 else 1j
    powers = (1.0, u, -1.0, -u)
    az = abs(z)
    start = int(max(n + 20, az + 10.0 * az ** (1.0 / 3.0) + 22.0))
    jp = 0.0 + 0.0j
    jc = 1e-280 + 0.0j
    weighted = 0.0 + 0.0j
    jn = 0.0 + 0.0j
    for m in range(start, 0, -1):
        jm = (2.0 * m / z) * jc - jp
        jp = jc
        jc = jm
        order = m - 1
        if order == n:
            jn = jc
        if order >= 1:
            weighted += powers[order % 4] * jc
        if abs(jc.real) > 1e250 or abs(jc.imag) > 1e250:
            jp *= 1e-250
            jc *= 1e-250
            weighted *= 1e-250
            jn *= 1e-250
    return jn / (jc + 2.0 * weighted) * cmath.exp(u * z)


def bessel_j(n: int, z) -> complex:
    """J_n(z) for complex z, |z| <= 200; negative orders via J_{-n} = (-1)^n J_n."""
    z = complex(z)
    if abs(z) > _ENVELOPE:
        raise AccuracyEnvelopeExceeded(f"|z| = {abs(z):.6g} exceeds the J_n envelope {_ENVELOPE:g}")
    if n < 0:
        val = bessel_j(-n, z)
        return -val if n % 2 else val
    if abs(z) <= _SERIES_CUT:
        if z == 0:
            return complex(1.0) if n == 0 else complex(0.0)
        return (0.5 * z) ** n * _g_series(n, 0.25 * z * z)
    return _miller(n, z)


def bessel_jp(n: int, z) -> complex:
    """dJ_n/dz for complex z in the same envelope."""
    z = complex(z)
    if n < 0:
        val = bessel_jp(-n, z)
        return -val if n % 2 else val
    if abs(z) <= _SERIES_CUT:
        if z == 0:
            return complex(0.5) if n == 1 else complex(0.0)
        w = 0.25 * z * z
        h = 0.5 * z
        lead = 0.5 * n * h ** (n - 1) if n > 0 else 0.0
        return lead * _g_series(n, w) - h ** (n + 1) * _g_series(n + 1, w)
    return 0.5 * (bessel_j(n - 1, z) - bessel_j(n + 1, z))
