"""Complex-argument Bessel evaluation and the spectral-parameter algebra.

Self-contained J_n for complex z: ascending series for small arguments,
backward (Miller) recurrence beyond, documented envelope |z| <= 200.  The
Bessel functions take scalars or numpy arrays; each regime runs vectorized.
Everything here is a pure function of value inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyEnvelopeExceeded

__all__ = [
    "SpectralParams",
    "lambda_tilde",
    "bessel_j",
    "bessel_jp",
    "bessel_g",
]

# series/Miller switchover: the alternating series sheds digits as |z| grows
# (roundoff grows like eps * e^|z|, about 1e-12 of max(1, |J_n|) by |z| = 12),
# while backward recurrence stays near 1e-15 down to |z| = 3
_SERIES_CUT = 8.0
_ENVELOPE = 200.0
# the same switch for G_n(w), w = z^2/4
_G_SERIES_CUT = _SERIES_CUT**2 / 4


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


def lambda_tilde(p: SpectralParams) -> float:
    """sqrt(lam^2 + k^2 q) - lam, in the cancellation-free conjugate form."""
    root = math.hypot(p.lam, p.k * math.sqrt(p.q))
    return p.k * p.k * p.q / (root + p.lam)


def _g_series(orders, w: np.ndarray) -> np.ndarray:
    # G_n(w) = sum_m (-w)^m / (m! (m+n)!) for each n of `orders` at each point of
    # w, as rows of a (len(orders), w.size) array, Kahan-compensated, in one loop
    # over m; each (order, point) pair stops at its own rule and drops out.  Out
    # of place, numpy fuses a product at every length, so no bit depends on the batch
    t0 = np.array([1.0 / float(math.factorial(n)) if n <= 128 else math.exp(-math.lgamma(n + 1.0)) for n in orders])
    out = np.empty((len(orders), w.size), dtype=complex)
    flat = out.reshape(-1)
    pos = np.arange(out.size)
    n = np.repeat(np.asarray(orders, dtype=int), w.size)
    t0 = np.repeat(t0, w.size)
    w = np.tile(w.ravel(), len(orders))
    term = t0.astype(complex)
    total = term.copy()
    carry = np.zeros(w.size, dtype=complex)
    m = 0
    while pos.size:
        m += 1
        term = term * (-w / (m * (m + n)))
        y = term - carry
        t = total + y
        carry = (t - total) - y
        total = t
        if m <= 4:
            continue
        done = np.abs(term) <= 1e-18 * np.maximum(t0, np.abs(total))
        if m > 500:
            done[:] = True
        if done.any():
            flat[pos[done]] = total[done]
            keep = ~done
            pos, n, t0, w, term, total, carry = (a[keep] for a in (pos, n, t0, w, term, total, carry))
    return out


def _miller(orders, z: np.ndarray) -> np.ndarray:
    # J_n(z) for each n >= 0 of `orders` at each point of z, as rows, by backward
    # recurrence J_{m-1} = (2m/z) J_m - J_{m+1} normalized by the generating function
    # e^{uz} = J_0 + 2 sum_{m>=1} u^m J_m, u = -i or i so |e^{uz}| = e^{|Im z|}: no
    # cancellation off the real axis, as J_0 + 2 sum J_2m = 1 suffers.  Each point
    # joins at its own start and is rescaled on its own, so no bit depends on the batch
    az = np.abs(z)
    start = np.fmax(max(orders) + 20, az + 10.0 * az ** (1.0 / 3.0) + 22.0).astype(int)
    by_start = np.argsort(-start, kind="stable")
    z, start = z[by_start], start[by_start]
    u = np.where(z.imag >= 0, -1j, 1j)
    powers = np.array([np.ones_like(u), u, -np.ones_like(u), -u])
    jp = np.zeros(z.size, dtype=complex)
    jc = np.full(z.size, 1e-280 + 0j)
    weighted = np.zeros(z.size, dtype=complex)
    found = np.zeros((len(orders), z.size), dtype=complex)
    for m in range(int(start[0]), 0, -1):
        a = np.searchsorted(-start, -m, side="right")  # the points with start >= m
        jm = (2.0 * m / z[:a]) * jc[:a] - jp[:a]
        jp[:a] = jc[:a]
        jc[:a] = jm
        found[[i for i, n in enumerate(orders) if n == m - 1]] = jc
        if m > 1:
            weighted[:a] = weighted[:a] + powers[(m - 1) % 4, :a] * jm
        big = (np.abs(jm.real) > 1e250) | (np.abs(jm.imag) > 1e250)
        if big.any():
            for arr in (jp[:a], jc[:a], weighted[:a], found.T[:a]):
                arr[big] = arr[big] * 1e-250
    # row by row: a (1, 1) array times a (1,) array is multiplied unfused
    norm = np.exp(u * z) / (jc + 2.0 * weighted)
    out = np.empty_like(found)
    out[:, by_start] = [row * norm for row in found]
    return out


def _split(x, cut: float, series, beyond, orders: int = 1) -> list:
    """series() on the points with |x| <= cut and beyond() on the rest, each on one
    array, for `orders` rows at once: a list of one result per row, complex for a
    scalar x, else an array of its shape.  J_n, J_n' and G_n are real on the real
    axis, so beyond()'s imaginary roundoff there is set to 0.0."""
    arr = np.asarray(x, dtype=complex)
    flat = arr.ravel()
    small = np.abs(flat) <= cut
    out = np.empty((orders, flat.size), dtype=complex)
    if small.any():
        out[:, small] = series(flat[small])
    if not small.all():
        out[:, ~small] = beyond(flat[~small])
        out.imag[:, ~small & (flat.imag == 0.0)] = 0.0
    if arr.ndim == 0:
        return [complex(row[0]) for row in out]
    return list(out.reshape((orders,) + arr.shape))


def _g_miller(orders, w: np.ndarray) -> np.ndarray:
    # G_n entire and J_n(2s)/s^n even in s, so the sqrt branch cancels; one
    # recurrence per order, so each order equals its own call bit for bit
    s = np.sqrt(w)
    _check_envelope(s + s)  # |2 s|; 2.0 * s would turn an infinite s into nan, with a warning
    return np.array([_miller((m,), 2.0 * s)[0] / s**m for m in orders]).reshape(len(orders), w.size)


def bessel_g(n, w):
    """Entire function G_n(w) = sum_m (-w)^m/(m!(m+n)!); J_n(z) = (z/2)^n G_n(z^2/4).

    `w` may be a scalar (returns complex) or an array (returns a complex array
    of its shape): the points with |w| <= 16 run the series as one array, the
    points beyond run Miller recurrence for J_n as one array, with its envelope
    check.  Each point's value is the same bits whatever its batch.  For a
    sequence of orders `n`, returns the list of G_m(w) over m in n, every order
    from the same series pass; each equals bessel_g(m, w) bit for bit.
    """
    single = np.ndim(n) == 0
    orders = [n] if single else list(n)
    if orders and min(orders) < 0:
        raise ValueError(f"bessel_g requires n >= 0, got {min(orders)}")
    vals = _split(w, _G_SERIES_CUT, lambda w: _g_series(orders, w), lambda w: _g_miller(orders, w), len(orders))
    return vals[0] if single else vals


def _check_envelope(z) -> None:
    mod = np.abs(np.asarray(z, dtype=complex))
    inside = mod <= _ENVELOPE  # False at nan as well
    if not inside.all():
        out = mod[~inside]
        if not np.isfinite(out).all():
            raise AccuracyEnvelopeExceeded(f"z is non-finite, outside the J_n envelope |z| <= {_ENVELOPE:g}")
        raise AccuracyEnvelopeExceeded(f"|z| = {out.max():.6g} exceeds the J_n envelope {_ENVELOPE:g}")


def bessel_j(n: int, z):
    """J_n(z) for complex z, |z| <= 200; negative orders via J_{-n} = (-1)^n J_n.

    Scalar or array `z`, as for bessel_g: the series runs on the points with
    |z| <= 8 and Miller recurrence on the points beyond, each as one array."""
    _check_envelope(z)
    if n < 0:
        val = bessel_j(-n, z)
        return -val if n % 2 else val
    return _split(z, _SERIES_CUT, lambda z: (0.5 * z) ** n * _g_series((n,), 0.25 * z * z)[0], lambda z: _miller((n,), z))[0]


def bessel_jp(n: int, z):
    """dJ_n/dz for complex z in the same envelope, scalar or array."""
    _check_envelope(z)
    if n < 0:
        val = bessel_jp(-n, z)
        return -val if n % 2 else val

    def series(z):
        w = 0.25 * z * z
        h = 0.5 * z
        lead = 0.5 * n * h ** (n - 1) if n > 0 else 0.0
        g, g1 = _g_series((n, n + 1), w)
        return lead * g - h ** (n + 1) * g1

    def beyond(z):
        # J_{n-1} and J_{n+1} from one recurrence; J_{-1} = -J_1
        below, above = _miller((abs(n - 1), n + 1), z)
        return 0.5 * ((-below if n == 0 else below) - above)

    return _split(z, _SERIES_CUT, series, beyond)[0]
