"""Leading and second-order constants of the boundary integral, plus closed forms.

The auxiliary amplitude along the curve is
    f(t) = (k^2 q / 2) (x2' + i x1') v + W',   W = i V1 + V2,
with v = u(x(t)) and V = grad u(x(t)).  At a simple saddle of g = x1 + i x2,
    I(lam) = lam^(-3/2) e^(lam g(t0)) [C1 + C2/lam + O(lam^-2)],
    C1 = sqrt(2 pi) f(t0) / root,     root = (-g''(t0))^(1/2) on the contour branch,
    C2 = sqrt(pi/2) [f'' - f' g'''/g'' - i k^2 q g'' x2'(t0) W(t0)] / root^3.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import waves as _waves
from .curves import CornerDomain, TrigCurve, eval_jet, eval_jets
from .czmath import SpectralParams, bessel_g, bessel_j, bessel_jp, lambda_tilde
from .errors import DegenerateCircle, NoRealSolution
from .saddle import ContourPath, SaddlePoint, branch_angle, branch_sqrt_neg_g2

__all__ = [
    "FJet",
    "AsymReport",
    "CornerConstants",
    "f_jet",
    "asym_report",
    "report_to_dict",
    "mu_n",
    "corner_constants",
    "disk_plane_closed_form",
    "disk_herglotz_closed_form",
    "radial_wronskian",
    "nonscattering_wavenumbers",
    "bessel_contour_identity",
]

N_RING = 64
R_CAUCHY = 0.1


@dataclass(frozen=True)
class FJet:
    """f(t0), f'(t0), f''(t0)."""

    f0: complex
    f1: complex
    f2: complex


@dataclass(frozen=True)
class CornerConstants:
    """Per-segment corner amplitudes, the combined jump constant C and its verdict."""

    c1_seg: complex
    c2_seg: complex
    C: complex
    verdict: str  # "ScattersAtCorner" | "Inconclusive"


@dataclass(frozen=True)
class AsymReport:
    C1: complex
    C2: complex | None
    g0: complex
    verdict: str
    omega: float
    omega0: float

    def __post_init__(self):
        if self.verdict not in ("ScattersByC1", "ScattersByC2", "Inconclusive"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "ScattersByC1" and self.C2 is not None:
            raise ValueError("second-order constant must be absent when C1 decides")

    @property
    def order(self) -> float:
        """Decay order of lam^(-order) e^(lam g0) I: 3/2 from C1, 5/2 when C2 is formed."""
        return 1.5 if self.C2 is None else 2.5


def _ring_coeffs(vals: np.ndarray, r: float, orders: int) -> np.ndarray:
    """Taylor coefficients c_0..c_{orders-1} from equispaced ring samples."""
    n = len(vals)
    co = np.fft.fft(vals) / n
    return np.array([co[m] / r**m for m in range(orders)])


def f_jet(curve: TrigCurve, wave, q: float, s: SaddlePoint) -> FJet:
    """Jet of f at the saddle by Cauchy-integral differentiation on a 64-node ring."""
    if not s.simple:
        raise ValueError("f_jet needs a simple saddle")
    k = wave.k
    theta = 2.0 * math.pi * np.arange(N_RING) / N_RING
    ts = s.t0 + R_CAUCHY * np.exp(1j * theta)
    jets = eval_jets(curve, ts, order=1)
    x1, x2 = jets[0]
    x1p, x2p = jets[1]
    sample = _waves.sample(wave, (x1, x2))
    fv = 0.5 * k * k * q * (x2p + 1j * x1p) * sample.v
    wv = 1j * sample.V[0] + sample.V[1]
    cf = _ring_coeffs(fv, R_CAUCHY, 3)
    cw = _ring_coeffs(wv, R_CAUCHY, 4)
    return FJet(
        f0=complex(cf[0] + cw[1]),
        f1=complex(cf[1] + 2.0 * cw[2]),
        f2=complex(2.0 * cf[2] + 6.0 * cw[3]),
    )


def tol_scale(wave, q: float, u0: complex) -> float:
    """Natural size of the constants: k^2 |q-1| max(1, |u(x(t0))|)."""
    return wave.k**2 * abs(q - 1.0) * max(1.0, abs(u0))


def asym_report(curve: TrigCurve, wave, q: float, s: SaddlePoint, path: ContourPath) -> AsymReport:
    """Scattering verdict from C1, then from C2 when C1 vanishes, on the branch of root fixed by
    the direction the contour crosses t0.  Inconclusive never claims nonscattering."""
    omega = path.arrival_angle()
    omega0 = branch_angle(s, omega)
    root = branch_sqrt_neg_g2(s, omega)
    jet = eval_jet(curve, s.t0, order=1)
    x2p = jet.xp[1]
    sample = _waves.sample(wave, jet.x)
    fj = f_jet(curve, wave, q, s)
    k = wave.k
    size = tol_scale(wave, q, sample.v)
    tol = 1e-8 * size
    C1 = k * k * (q - 1.0) * sample.v * x2p * math.sqrt(2.0 * math.pi) / root
    ring = math.sqrt(2.0 * math.pi) * fj.f0 / root
    if abs(C1 - ring) > 1e-9 * max(size, abs(C1)):
        warnings.warn(
            f"C1 cross-check drift {abs(C1 - ring):.3g} (closed {C1:.6g}, ring {ring:.6g})",
            RuntimeWarning,
        )
    if abs(C1) > tol:
        C2, verdict = None, "ScattersByC1"
    else:
        w0 = 1j * sample.V[0] + sample.V[1]
        bracket = fj.f2 - fj.f1 * s.g3 / s.g2 - 1j * k * k * q * s.g2 * x2p * w0
        C2 = math.sqrt(0.5 * math.pi) * bracket / root**3
        verdict = "ScattersByC2" if abs(C2) > tol else "Inconclusive"
    return AsymReport(C1=C1, C2=C2, g0=s.g0, verdict=verdict, omega=omega, omega0=omega0)


def _pair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def report_to_dict(rep: AsymReport) -> dict:
    return {
        "C1": _pair(rep.C1),
        "C2": None if rep.C2 is None else _pair(rep.C2),
        "order": rep.order,
        "g0": _pair(rep.g0),
        "verdict": rep.verdict,
        "branch": {"omega": rep.omega, "omega0": rep.omega0},
    }


def mu_n(n: int) -> float:
    """Axis-ratio-squared at which the second-order ellipse bracket vanishes."""
    n = int(n)
    if n < 5:
        raise NoRealSolution(f"no real axis ratio exists for n = {n}")
    if n == 5:
        raise DegenerateCircle("n = 5 forces the unit ratio, a circle")
    return (n - 2.0 + math.sqrt((n - 5.0) * (n + 1.0))) / 3.0


def _line_coeffs(wave, axis: int, r: float, orders: int, grad_component: int | None = None) -> np.ndarray:
    theta = 2.0 * math.pi * np.arange(N_RING) / N_RING
    zs = r * np.exp(1j * theta)
    x = (zs, 0.0) if axis == 0 else (0.0, zs)
    if grad_component is None:
        vals = _waves.value(wave, x)
    else:
        vals = _waves.gradient(wave, x)[grad_component]
    return _ring_coeffs(vals, r, orders)


def corner_constants(c: CornerDomain, wave, q: float) -> CornerConstants:
    """Per-leg amplitudes at a corner opening 2*theta plus the verdict constant C, at k = wave.k.

    Second partials of u at the origin come from Cauchy differentiation along
    the two coordinate lines and of the x2-derivative along the x1 line.
    """
    k = wave.k
    m = math.tan(c.theta)
    u0 = _waves.value(wave, (0.0, 0.0))
    a_line = _line_coeffs(wave, 0, R_CAUCHY, 3)
    b_line = _line_coeffs(wave, 1, R_CAUCHY, 3)
    d_line = _line_coeffs(wave, 0, R_CAUCHY, 2, grad_component=1)
    u11 = 2.0 * a_line[2]
    u22 = 2.0 * b_line[2]
    u12 = d_line[1]
    hel = u11 + u22 + k * k * u0
    if abs(hel) > 1e-9 * k * k * max(1.0, abs(u0)):
        warnings.warn(f"Helmholtz residual {abs(hel):.3g} at the corner", RuntimeWarning)

    amp = 0.5 * k * k * q * u0
    c1_seg = (amp * (1j - m) + 1j * u11 + (1.0 - 1j * m) * u12 - m * u22) / (1.0 - 1j * m)
    c2_seg = (amp * (1j + m) + 1j * u11 + (1.0 + 1j * m) * u12 + m * u22) / (1.0 + 1j * m)
    C = 2.0 * k * k * m / (1.0 + m * m) * (q - 1.0) * u0

    ident = (2.0 * m / (1.0 + m * m)) * (k * k * q * u0 + u11 + u22)
    if abs((c2_seg - c1_seg) - ident) > 1e-9 * max(abs(ident), k * k * max(1.0, abs(u0))):
        warnings.warn("corner segment identity drift", RuntimeWarning)
    verdict = "ScattersAtCorner" if abs(C) > 1e-8 * tol_scale(wave, q, u0) else "Inconclusive"
    return CornerConstants(c1_seg=complex(c1_seg), c2_seg=complex(c2_seg), C=complex(C), verdict=verdict)


def disk_plane_closed_form(lam: float, alpha: float, k: float, q: float) -> complex:
    """Exact unit-disk integral for a plane wave, branch-free via G1."""
    lt = lambda_tilde(SpectralParams(k=k, q=q, lam=lam))
    cval = (
        -0.5j * k * cmath.exp(1j * alpha) * lam
        + 0.5 * lam * lt
        + 0.25 * k * k
        + 0.5 * lt * k * math.sin(alpha)
        + 0.25 * lt * lt
    )
    return math.pi * bessel_g(1, cval)


def disk_herglotz_closed_form(lam: float, n: int, k: float, q: float) -> complex:
    """Exact unit-disk integral for a single circular-harmonic incident wave."""
    lt = lambda_tilde(SpectralParams(k=k, q=q, lam=lam))
    return 4.0 * math.pi**2 * radial_wronskian(n, q, k) * k * (-1j * lt / (k * math.sqrt(q))) ** n


def radial_wronskian(n: int, q: float, k):
    """J_n'(k) J_n(k sqrt q) - sqrt q J_n(k) J_n'(k sqrt q), for scalar or array k.

    Its zeros in k are the disk's nonscattering wavenumbers for harmonic order n.
    """
    left, right = _wronskian_terms(n, q, k)
    return left - right


def _wronskian_terms(n: int, q: float, k):
    # the two products whose difference is the radial Wronskian
    if not q > 0 or q == 1:
        raise ValueError(f"q must be positive and != 1, got {q}")
    rq = math.sqrt(q)
    return bessel_jp(n, k) * bessel_j(n, k * rq), rq * bessel_j(n, k) * bessel_jp(n, k * rq)


def nonscattering_wavenumbers(n: int, q: float, k_max: float) -> list[float]:
    """Roots of the radial Wronskian below k_max: 0.01-step sign scan, then bisection
    of every bracket at once.  A scan point whose two products are both below the
    normal range gives no sign: their difference is noise, and where they underflow
    (small k, large n) the Wronskian, about c k^(2n-1), has no root."""
    if n < 0:
        raise ValueError("harmonic order must be nonnegative")
    if not k_max <= 100.0:
        raise ValueError(f"k_max must be <= 100 (the scan cap), got {k_max}")
    step = 0.01
    ks = [step]
    while ks[-1] < k_max:
        ks.append(min(ks[-1] + step, k_max))
    ks = np.array(ks)
    left, right = _wronskian_terms(n, q, ks)
    fs = (left - right).real
    resolved = np.maximum(np.abs(left), np.abs(right)) >= np.finfo(float).tiny
    sign = np.sign(fs) * resolved
    # a sign change brackets a root in [lo, hi]; an exact zero is one, lo = hi
    at = np.flatnonzero(((fs == 0.0) & resolved)[:-1] | (sign[:-1] * sign[1:] < 0.0))
    lo = ks[at]
    hi = np.where(fs[at] == 0.0, lo, ks[at + 1])
    live = np.flatnonzero(hi - lo > 1e-10)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        turn = sign[at[live]] * np.sign(radial_wronskian(n, q, mid).real)
        # the root lies below mid, above it, or (turn == 0) at it
        hi[live[turn <= 0.0]] = mid[turn <= 0.0]
        lo[live[turn >= 0.0]] = mid[turn >= 0.0]
        live = live[hi[live] - lo[live] > 1e-10]
    return (0.5 * (lo + hi)).tolist()


def bessel_contour_identity(n: int, a: complex, b: complex) -> tuple[complex, complex]:
    """Unit-circle trapezoid value of (1/2 pi i) contour integral of z^(n-1) e^(az - b/z)
    against its closed form; returns (lhs, rhs)."""
    a = complex(a)
    b = complex(b)
    if abs(a) > 20.0 or abs(b) > 20.0:
        raise ValueError("|a| and |b| must not exceed 20")
    nodes = 512
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    z = np.exp(1j * theta)
    lhs = complex(np.mean(z**n * np.exp(a * z - b / z)))
    if n >= 0:
        rhs = (-b) ** n * bessel_g(n, a * b)
    else:
        rhs = a ** (-n) * bessel_g(-n, a * b)
    return lhs, complex(rhs)
