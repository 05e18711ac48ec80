"""End-to-end certification gate.

Eleven checks, one per test, each printing a single pass/fail line under
pytest -v.  Tolerances are part of the contract and are not to be loosened:
a failing line here means the stated claim did not reproduce as written.

Lines 1 and 3 check large-lam limits lam^p e^(-lam g0) I(lam) -> C, not the
value at one finite lam: the Laplace expansion I = lam^(-p) e^(lam g0)
[C + D/lam + ...] fixes C but nothing bounds D/C, so the limit is taken
with the package's own extractor fit_decay over a lam sweep.  Line 2 checks
that the cardioid's inward-cusp contour V-turns inside one descent sector,
so that lam^(5/2) I decays past C2 instead of levelling off at it, against
an independent mpmath quadrature of I.
"""

import cmath
import math
import time

import numpy as np
import pytest

from nonscatter.asymptotics import (
    asym_report,
    bessel_contour_identity,
    corner_constants,
    disk_herglotz_closed_form,
    disk_plane_closed_form,
    f_jet,
    mu_n,
    nonscattering_wavenumbers,
)
from nonscatter.curves import CornerDomain, builtin, eval_jet, eval_jets
from nonscatter.czmath import SpectralParams, bessel_j, bessel_jp, lambda_tilde
from nonscatter.quad import area_integral_oracle, boundary_integral_I, fit_decay, lambda_sweep
from nonscatter.saddle import build_contour, find_saddles, level_region
from nonscatter.waves import CircularHarmonic, PlaneWave, sample as wave_sample, value as wave_value

K, Q = 1.0, 2.0
PLANE = PlaneWave(k=K, alpha=0.0)
WAVE_MATRIX = (PlaneWave(k=K, alpha=0.0), CircularHarmonic(k=K, n=0), CircularHarmonic(k=K, n=2))
LIMIT_GRID = [10.0, 20.0, 30.0, 40.0]


def test_01_ellipse_first_order_limit(curves, saddles, paths):
    # lam^(3/2) e^(-lam sqrt3) I(lam) -> C1: fit_decay limit within 5%, order 1, sweep in <= 10 s
    cv, sp, path = curves["ellipse"], saddles["ellipse"], paths["ellipse"]
    start = time.perf_counter()
    recs = lambda_sweep(cv, PLANE, Q, LIMIT_GRID, 1.5, sp.g0, path)
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0, f"sweep took {elapsed:.2f} s"
    want = asym_report(cv, PLANE, Q, sp, path).C1
    fit = fit_decay(recs)
    dev = abs(fit.limit / want - 1.0)
    assert dev <= 0.05, f"|limit/C1 - 1| = {dev:.4f} > 0.05"
    assert abs(fit.order - 1.0) <= 0.1, f"approach order {fit.order:.3f}, not 1"


def _cardioid_I_mpmath(lam: float, n: int = 512) -> complex:
    """I(lam) for the cardioid and PLANE by an n-node real-axis trapezoid at 60 digits.

    Written from the defining formula, independent of the package; checks
    its own convergence against the n/2-node rule on the even nodes.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        lam = mp.mpf(lam)
        lt = K * K * Q / (mp.sqrt(lam**2 + K * K * Q) + lam)
        h = 2 * mp.pi / n
        terms = []
        for j in range(n):
            t = -mp.pi + j * h
            c, s = mp.cos(t), mp.sin(t)
            x1, x2 = (1 - c) * c, (1 - c) * s
            x1p, x2p = s * (2 * c - 1), s * s + (1 - c) * c
            u = mp.exp(1j * K * x1)  # plane wave, alpha = 0: V = (i k u, 0)
            pre = x2p * 1j * K * u + 1j * lam * (x1p + 1j * x2p) * u + 1j * lt * x1p * u
            terms.append(pre * mp.exp(lam * (x1 + 1j * x2) + 1j * lt * x2))
        full = h * mp.fsum(terms)
        half = 2 * h * mp.fsum(terms[::2])
        assert abs(full - half) <= mp.mpf("1e-12") * abs(full), "mpmath oracle not converged"
        return complex(full)


def test_02_cusp_second_order_limit_needs_deformation(curves, saddles, paths):
    cv, sp, path = curves["cardioid"], saddles["cardioid"], paths["cardioid"]
    lam = 40.0
    p = SpectralParams(k=K, q=Q, lam=lam)
    lt = lambda_tilde(p)

    # real-axis evaluation must be demonstrably hopeless: >= 10 digits cancel
    n = 4096
    ts = (-math.pi + 2.0 * math.pi * np.arange(n) / n).astype(complex)
    jets = eval_jets(cv, ts, order=1)
    x1, x2 = jets[0]
    x1p, x2p = jets[1]
    g = x1 + 1j * x2
    gp = x1p + 1j * x2p
    mass = 0.0
    for i in range(n):
        s = wave_sample(PLANE, (x1[i], x2[i]))
        pre = (x2p[i] * s.V[0] - x1p[i] * s.V[1]) + 1j * lam * gp[i] * s.v + 1j * lt * x1p[i] * s.v
        mass += abs(pre * np.exp(lam * g[i] + 1j * lt * x2[i]))
    mass *= 2.0 * math.pi / n
    val = boundary_integral_I(cv, PLANE, Q, lam, path)
    cancellation = mass / abs(val)
    assert cancellation >= 1e10, f"cancellation only {cancellation:.3g}"

    # inward cusp: both probe legs at t0 tilt into one descent sector of
    # g2 (t - t0)^2 (a V-turn), so the saddle contributes at no power of lam
    phi_steep = 0.5 * (math.pi - cmath.phase(sp.g2))
    w, i = path.waypoints, path.i_saddle
    offsets = [abs(cmath.phase((w[j] - sp.t0) * cmath.exp(-1j * phi_steep))) for j in (i - 1, i + 1)]
    same_sector = all(o < math.pi / 4 for o in offsets) or all(o > 3 * math.pi / 4 for o in offsets)
    assert same_sector, f"legs {offsets} rad from the steepest direction: not a V-turn"

    # so lam^(5/2) I decays past the crossing-contour constant C2 instead of levelling off at it
    c2_crossing = 3j * math.sqrt(math.pi / 2) * K * K * (Q - 1.0)
    ratio = abs(lam**2.5 * val) / abs(c2_crossing)
    assert ratio <= 0.05, f"|lam^(5/2) I(40)| / |C2| = {ratio:.4f} > 0.05"
    recs = lambda_sweep(cv, PLANE, Q, [20.0, 40.0], 2.5, sp.g0, path)
    drop = abs(recs[1].resid / recs[0].resid)
    assert drop <= 0.05, f"|resid(40)/resid(20)| = {drop:.4f} > 0.05"

    # and the contour value is the true I(40), not a quadrature artefact
    oracle = _cardioid_I_mpmath(lam)
    rel = abs(val - oracle) / abs(oracle)
    assert rel <= 1e-8, f"contour vs mpmath oracle: relative gap {rel:.3g}"


def test_03_deltoid_second_order_limit(curves, saddles):
    # lam^(5/2) e^(-3 lam) I(lam) -> C2 (outward cusp, real axis): fit_decay limit within 5%, order 1
    cv, sp = curves["deltoid"], saddles["deltoid"]
    recs = lambda_sweep(cv, PLANE, Q, LIMIT_GRID, 2.5, sp.g0, None)
    want = math.sqrt(math.pi / 12) * K * K * (Q - 1.0) * wave_value(PLANE, (3.0, 0.0))
    fit = fit_decay(recs)
    dev = abs(fit.limit / want - 1.0)
    assert dev <= 0.05, f"|limit/C2 - 1| = {dev:.4f} > 0.05"
    assert abs(fit.order - 1.0) <= 0.1, f"approach order {fit.order:.3f}, not 1"


def test_04_corner_inverse_square_law():
    dom = CornerDomain(theta=math.pi / 6, a1=-1.0, a2=-1.0)
    want = corner_constants(dom, PLANE, Q).C
    lam = 60.0
    val = boundary_integral_I(dom, PLANE, Q, lam)
    dev = abs(lam**2 * val / want - 1.0)
    assert dev <= 0.05, f"|lam^2 I / C - 1| = {dev:.4f} > 0.05"


def test_05_disk_closed_forms(curves):
    circle = curves["circle"]
    k, q = 3.0, 4.0
    for n in (0, 1, 4):
        for lam in (1.0, 3.0, 10.0):
            closed = disk_herglotz_closed_form(lam, n, k, q)
            qv = boundary_integral_I(circle, CircularHarmonic(k=k, n=n), q, lam)
            rel = abs(qv - closed) / abs(closed)
            assert rel <= 1e-8, (n, lam, rel)
    for alpha in (0.0, 0.3):
        for lam in (1.0, 3.0, 10.0):
            closed = disk_plane_closed_form(lam, alpha, 1.0, 4.0)
            area = area_integral_oracle(circle, PlaneWave(k=1.0, alpha=alpha), 4.0, lam)
            rel = abs(area - closed) / abs(closed)
            assert rel <= 1e-8, (alpha, lam, rel)


def test_06_disk_nonscattering_wavenumbers(curves):
    q = 4.0
    roots = nonscattering_wavenumbers(0, q, 20.0)
    assert len(roots) == 6
    rq = math.sqrt(q)
    for kj in roots:
        wr = bessel_jp(0, kj) * bessel_j(0, kj * rq) - rq * bessel_j(0, kj) * bessel_jp(0, kj * rq)
        assert abs(wr) <= 1e-9, kj
        for lam in (1.0, 5.0):
            val = boundary_integral_I(curves["circle"], CircularHarmonic(k=kj, n=0), q, lam)
            assert abs(val) <= 1e-8 * 4.0 * math.pi**2 * kj, (kj, lam, abs(val))


def test_07_boundary_area_equivalence(curves):
    for key in ("circle", "ellipse", "cardioid", "deltoid", "nonconvex"):
        for wave in WAVE_MATRIX:
            for lam in (1.0, 5.0):
                ival = boundary_integral_I(curves[key], wave, Q, lam)
                aval = area_integral_oracle(curves[key], wave, Q, lam)
                gap = abs(ival - (Q - 1.0) * K * K * aval)
                assert gap <= 1e-6 * max(abs(ival), 1.0), (key, wave, lam, gap)


def test_08_saddle_amplitude_identity(curves, saddles):
    # the saddle-bearing rows of the same matrix; the circle has no saddle
    for key in ("ellipse", "cardioid", "deltoid", "nonconvex"):
        cv, sp = curves[key], saddles[key]
        j = eval_jet(cv, sp.t0, order=1)
        for wave in WAVE_MATRIX:
            u0 = wave_value(wave, j.x)
            want = K * K * (Q - 1.0) * u0 * j.xp[1]
            got = f_jet(cv, wave, Q, sp).f0
            scale = K * K * abs(Q - 1.0) * max(1.0, abs(u0)) * max(1.0, abs(j.xp[1]))
            assert abs(got - want) <= 1e-9 * scale, (key, wave)


def test_09_bessel_ring_identity_random():
    rng = np.random.default_rng(20260815)
    for trial in range(20):
        n = int(rng.integers(-6, 7))
        ra = rng.uniform(1.0, 8.0)
        rb = rng.uniform(max(1.0, ra / 1.5), min(8.0, ra * 1.5))
        pa = rng.uniform(-math.pi, math.pi)
        pb = rng.uniform(-math.pi, math.pi)
        a = ra * cmath.exp(1j * pa)
        b = rb * cmath.exp(1j * pb)
        lhs, rhs = bessel_contour_identity(n, a, b)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs), (trial, n, a, b, abs(lhs - rhs) / abs(rhs))


def test_10_ellipse_next_order_closed_form():
    a, b, n, q = 2.0, 1.0, 3, 2.0
    k = 6.380161895923984 / math.sqrt(a * a + b * b)  # first zero of J_3 at k sqrt(a^2+b^2)
    cv = builtin("ellipse", a, b)
    wave = CircularHarmonic(k=k, n=n)
    sp = find_saddles(cv)[0]
    path = build_contour(cv, sp, level_region(cv, sp))
    got = asym_report(cv, wave, q, sp, path).C2

    bracket = a**4 - (2.0 / 3.0) * (n - 2) * a * a * b * b + b**4
    closed = (
        3.0 * (1j**n) * (2.0 * math.pi) ** 1.5 * (q - 1.0) * k**3 * a * b
        / (2.0 * (a * a + b * b) ** 1.5 * (a * a - b * b) ** 1.25)
        * bracket
        * math.exp(-n * math.atanh(b * b / (a * a)))
        * bessel_j(n + 1, k * math.sqrt(a * a + b * b))
    )
    assert abs(got - closed) <= 1e-6 * abs(closed), abs(got - closed) / abs(closed)

    m6 = mu_n(6)
    a6 = math.sqrt(m6)
    bracket6 = a6**4 - (2.0 / 3.0) * (6 - 2) * a6 * a6 + 1.0
    assert abs(bracket6) <= 1e-12 * a6**4


def test_11_saddle_location_fixtures(curves, saddles):
    assert abs(saddles["ellipse"].t0 - 1j * math.atanh(0.5)) <= 1e-10
    assert abs(saddles["nonconvex"].t0 - 0.5j * math.log(2.0 + math.sqrt(7.0))) <= 1e-10
    assert abs(saddles["cardioid"].t0) <= 1e-10
    assert find_saddles(curves["circle"]) == []
    for key in ("ellipse", "nonconvex", "cardioid", "deltoid"):
        sp = saddles[key]
        j = eval_jet(curves[key], sp.t0, order=2)
        assert abs(j.xp[0] + 1j * j.xp[1]) <= 1e-10  # g'(t0) = 0 after Newton
        assert sp.simple
