"""Incident Helmholtz waves evaluable with gradients at complex points of C^2.

Every variant is entire on C^2 (plane exponentials, or circular harmonics in
the branch-free factorization (x1 +/- i x2)^|n| G_|n|(k^2(x1^2+x2^2)/4)), so
values stay correct at complex curve points, including cusps at the origin.
Non-entire incident fields (point sources, Hankel fields) are unsupported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .czmath import bessel_g

__all__ = [
    "PlaneWave",
    "PlaneCombo",
    "CircularHarmonic",
    "HerglotzTrunc",
    "WaveModel",
    "WaveSample",
    "value",
    "gradient",
    "sample",
]

MAX_HERGLOTZ_ORDER = 64

_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)  # i^n exactly


@dataclass(frozen=True)
class PlaneWave:
    """exp(i k (x1 cos alpha + x2 sin alpha))."""

    k: float
    alpha: float

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError(f"k must be positive, got {self.k}")


@dataclass(frozen=True)
class PlaneCombo:
    """Finite combination sum_j c_j exp(i k x . eta(alpha_j))."""

    k: float
    terms: tuple[tuple[complex, float], ...]

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError(f"k must be positive, got {self.k}")
        object.__setattr__(
            self, "terms", tuple((complex(c), float(a)) for c, a in self.terms)
        )


@dataclass(frozen=True)
class CircularHarmonic:
    """h_n: the Herglotz wave with density e^{i n alpha}; equals 2 pi i^n e^{i n theta} J_n(k r)."""

    k: float
    n: int

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError(f"k must be positive, got {self.k}")


@dataclass(frozen=True)
class HerglotzTrunc:
    """Truncated Herglotz wave sum_n psi_n h_n, |n| <= 64."""

    k: float
    psi: tuple[tuple[int, complex], ...]

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError(f"k must be positive, got {self.k}")
        terms = tuple(sorted((int(n), complex(c)) for n, c in self.psi))
        if terms and max(abs(n) for n, _ in terms) > MAX_HERGLOTZ_ORDER:
            raise ValueError(f"harmonic order beyond |n| <= {MAX_HERGLOTZ_ORDER}")
        object.__setattr__(self, "psi", terms)


WaveModel = Union[PlaneWave, PlaneCombo, CircularHarmonic, HerglotzTrunc]


@dataclass(frozen=True)
class WaveSample:
    """Value v = u(x) and gradient V = grad u(x) at a point, or at an array of points."""

    v: complex
    V: tuple[complex, complex]


def _planes(k: float, terms, x1, x2, grad: bool):
    # sum_j c_j e^{i k x . eta(alpha_j)} and its gradient
    v = 0j
    g1 = 0j
    g2 = 0j
    for c, a in terms:
        e = np.exp(1j * k * (x1 * math.cos(a) + x2 * math.sin(a)))
        v = v + c * e
        if grad:
            g1 = g1 + c * 1j * k * math.cos(a) * e
            g2 = g2 + c * 1j * k * math.sin(a) * e
    return v, g1, g2


def _harmonics(k: float, terms, x1, x2, grad: bool):
    # h_n = 2 pi i^|n| (k/2)^|n| s^|n| G_|n|(w), s = x1 +/- i x2, w = k^2 (x.x)/4;
    # d/dx_j G_m(w) = -G_{m+1}(w) k^2 x_j / 2.  Each distinct order G_m is
    # evaluated once, for +n and -n and for the value and the gradient alike,
    # and all of them in one bessel_g call, which shares its series pass
    w = 0.25 * k * k * (x1 * x1 + x2 * x2)
    orders = {abs(n) for n, _ in terms}
    if grad:
        orders |= {m + 1 for m in orders}
    orders = sorted(orders)
    G = dict(zip(orders, bessel_g(orders, w)))
    v = 0j
    g1 = 0j
    g2 = 0j
    for n, c in terms:
        m = abs(n)
        s = x1 + 1j * x2 if n >= 0 else x1 - 1j * x2
        pref = 2.0 * math.pi * _I_POW[m % 4] * (0.5 * k) ** m
        sm = s**m
        v = v + c * (pref * sm * G[m])
        if grad:
            radial = sm * (0.5 * k * k) * G[m + 1]
            lead = m * s ** (m - 1) * G[m] if m > 0 else 0.0
            sgn = 1j if n >= 0 else -1j
            g1 = g1 + c * (pref * (lead - radial * x1))
            g2 = g2 + c * (pref * (sgn * lead - radial * x2))
    return v, g1, g2


def _fields(w: WaveModel, x, grad: bool):
    """(u, du/dx1, du/dx2) at the points x = (x1, x2), with a converter to the result type."""
    x1, x2 = np.broadcast_arrays(np.asarray(x[0], dtype=complex), np.asarray(x[1], dtype=complex))
    if isinstance(w, PlaneWave):
        out = _planes(w.k, ((1.0, w.alpha),), x1, x2, grad)
    elif isinstance(w, PlaneCombo):
        out = _planes(w.k, w.terms, x1, x2, grad)
    elif isinstance(w, CircularHarmonic):
        out = _harmonics(w.k, ((w.n, 1.0),), x1, x2, grad)
    elif isinstance(w, HerglotzTrunc):
        out = _harmonics(w.k, w.psi, x1, x2, grad)
    else:
        raise TypeError(f"not a wave model: {w!r}")

    def shaped(f):
        # complex for scalar coordinates; an empty sum (0j) fills an array
        if x1.ndim == 0:
            return complex(f)
        return f if np.shape(f) == x1.shape else np.full(x1.shape, f, dtype=complex)

    return out, shaped


def value(w: WaveModel, x):
    """u(x) at (possibly complex) points x = (x1, x2): complex for scalar
    coordinates, a complex array for array coordinates."""
    (v, _, _), shaped = _fields(w, x, grad=False)
    return shaped(v)


def gradient(w: WaveModel, x):
    """grad u(x), componentwise entire in (x1, x2); each component shaped like value's result."""
    (_, g1, g2), shaped = _fields(w, x, grad=True)
    return (shaped(g1), shaped(g2))


def sample(w: WaveModel, x) -> WaveSample:
    (v, g1, g2), shaped = _fields(w, x, grad=True)
    return WaveSample(v=shaped(v), V=(shaped(g1), shaped(g2)))
