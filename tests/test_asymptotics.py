import cmath
import hashlib
import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.optimize as spo
import scipy.special as sps

from nonscatter.asymptotics import (
    asym_report,
    bessel_contour_identity,
    corner_constants,
    disk_herglotz_closed_form,
    disk_plane_closed_form,
    f_jet,
    mu_n,
    nonscattering_wavenumbers,
    radial_wronskian,
    report_to_dict,
    tol_scale,
)
from nonscatter.curves import CornerDomain, builtin, eval_jet
from nonscatter.czmath import SpectralParams, bessel_g, bessel_j, bessel_jp, lambda_tilde
from nonscatter.errors import DegenerateCircle, EndpointAboveLevel, NoAdmissiblePath, NoRealSolution
from nonscatter.saddle import build_contour, find_saddles, level_region, validate_contour
from nonscatter.waves import CircularHarmonic, HerglotzTrunc, PlaneWave, value as wave_value

from conftest import fuzz_sample

PI = math.pi


def test_saddle_amplitude_identity_matrix(curves, saddles):
    # f(t0) = k^2 (q-1) u(x(t0)) x2'(t0), all saddle-bearing builtins x waves x (k,q)
    for key in ("ellipse", "cardioid", "deltoid", "nonconvex"):
        cv, sp = curves[key], saddles[key]
        j = eval_jet(cv, sp.t0, order=1)
        for k, q in ((1.0, 2.0), (1.7, 3.2), (2.4, 0.6)):
            for wave in (PlaneWave(k=k, alpha=0.0), CircularHarmonic(k=k, n=0), CircularHarmonic(k=k, n=3)):
                u0 = wave_value(wave, j.x)
                want = k * k * (q - 1.0) * u0 * j.xp[1]
                got = f_jet(cv, wave, q, sp).f0
                scale = k * k * abs(q - 1.0) * max(1.0, abs(u0)) * max(1.0, abs(j.xp[1]))
                assert abs(got - want) <= 1e-9 * scale, (key, k, q, wave)


def test_c1_two_routes_agree(curves, saddles, paths):
    from nonscatter.saddle import branch_sqrt_neg_g2

    for key in ("ellipse", "nonconvex"):
        cv, sp, path = curves[key], saddles[key], paths[key]
        wave = PlaneWave(k=1.0, alpha=0.4)
        closed = asym_report(cv, wave, 2.0, sp, path).C1
        root = branch_sqrt_neg_g2(sp, path.arrival_angle())
        via_f = math.sqrt(2 * PI) * f_jet(cv, wave, 2.0, sp).f0 / root
        assert abs(closed - via_f) <= 1e-9 * max(1.0, abs(closed))


def test_c1_ellipse_closed_form(curves, saddles, paths):
    # k=1, q=2, alpha=0: C1 = e^{4i/sqrt3} (2/sqrt3) sqrt(2 pi / sqrt 3)
    got = asym_report(curves["ellipse"], PlaneWave(k=1.0, alpha=0.0), 2.0, saddles["ellipse"], paths["ellipse"]).C1
    want = cmath.exp(4j / math.sqrt(3)) * (2 / math.sqrt(3)) * math.sqrt(2 * PI / math.sqrt(3))
    assert abs(got - want) < 1e-12
    assert abs(got - (-1.480675214330743 + 1.6261608820443285j)) < 1e-12


def test_c1_orientation_modulus(curves, saddles, paths):
    # the branch flip under traversal reversal only changes the sign of C1
    from nonscatter.saddle import branch_sqrt_neg_g2

    sp, path = saddles["ellipse"], paths["ellipse"]
    root = branch_sqrt_neg_g2(sp, path.arrival_angle())
    flipped = branch_sqrt_neg_g2(sp, path.arrival_angle() + PI)
    val = asym_report(curves["ellipse"], PlaneWave(k=1.0, alpha=0.0), 2.0, sp, path).C1
    assert flipped == pytest.approx(-root)
    assert abs(val * root) == pytest.approx(abs(val * flipped))


def test_c2_cardioid_value(curves, saddles, paths):
    # plane wave, u(0) = 1: C2 = 3i sqrt(pi/2) k^2 (q-1)
    got = asym_report(curves["cardioid"], PlaneWave(k=1.0, alpha=0.0), 2.0, saddles["cardioid"], paths["cardioid"]).C2
    want = 3j * math.sqrt(PI / 2)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_c2_deltoid_value(curves, saddles, paths):
    # C2 = sqrt(pi/12) k^2 (q-1) u(3, 0)
    k, q = 1.0, 2.0
    wave = PlaneWave(k=k, alpha=0.0)
    got = asym_report(curves["deltoid"], wave, q, saddles["deltoid"], paths["deltoid"]).C2
    want = math.sqrt(PI / 12) * k * k * (q - 1) * cmath.exp(3j * k)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_asym_report_verdicts(curves, saddles, paths):
    ell = asym_report(curves["ellipse"], PlaneWave(k=1.0, alpha=0.0), 2.0, saddles["ellipse"], paths["ellipse"])
    assert ell.verdict == "ScattersByC1"
    assert ell.order == 1.5
    assert ell.C2 is None
    assert ell.omega == paths["ellipse"].arrival_angle()

    card = asym_report(curves["cardioid"], PlaneWave(k=1.0, alpha=0.0), 2.0, saddles["cardioid"], paths["cardioid"])
    assert card.verdict == "ScattersByC2"
    assert card.order == 2.5
    assert abs(card.C1) <= 1e-8 * tol_scale(PlaneWave(k=1.0, alpha=0.0), 2.0, 1.0)
    assert card.C2 is not None

    assert "Nonscattering" not in (ell.verdict, card.verdict)


def test_asym_report_inconclusive_at_degenerate_aspect(curves):
    m6 = mu_n(6)
    a = math.sqrt(m6)
    k = 9.936109524217686 / math.sqrt(m6 + 1.0)  # first zero of J_6 over sqrt(a^2+b^2)
    cv = builtin("ellipse", a, 1.0)
    sp = find_saddles(cv)[0]
    grid = level_region(cv, sp)
    path = build_contour(cv, sp, grid)
    rep = asym_report(cv, CircularHarmonic(k=k, n=6), 2.0, sp, path)
    assert rep.verdict == "Inconclusive"
    assert rep.order == 2.5
    sc = tol_scale(CircularHarmonic(k=k, n=6), 2.0, 0.0)
    assert abs(rep.C1) <= 1e-8 * sc
    assert abs(rep.C2) <= 1e-8 * sc


# sha256 of the reports below, one line of float.hex words per report
_FUZZ_VERDICTS_SHA256 = "29dcaf915b58d50c220378e41ed1f0ade5001605dbb725c13016dd16d3d4844b"
_FIXTURE_VERDICTS_SHA256 = "7649ae73178aa75d33b30e749b58e5e1f26e524081119af7f772e3b004809e81"


def _verdict_words(curve, s, path, wave):
    rep = asym_report(curve, wave, 2.0, s, path)
    c2 = [] if rep.C2 is None else [rep.C2.real.hex(), rep.C2.imag.hex()]
    return [rep.verdict, rep.C1.real.hex(), rep.C1.imag.hex(), *c2, rep.order.hex(), rep.omega.hex(), rep.omega0.hex()]


def test_fuzz_sample_verdicts(curves, saddles, paths):
    # the ROADMAP's 150-curve fuzz sample, curve j under a plane wave at k = 1,
    # alpha_j = -pi + 2 pi j / 150 and q = 2, keeps its verdict counts and the
    # bits of every report; the saddle-bearing fixtures under three waves cover
    # the C2 branch
    outcomes = Counter()
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for j, curve in enumerate(fuzz_sample(777, 150)):
            simple = [sp for sp in find_saddles(curve) if sp.simple]
            if not simple:
                outcomes["no simple saddle"] += 1
                continue
            try:
                path = build_contour(curve, simple[0], level_region(curve, simple[0]))
                validate_contour(curve, path)
            except (EndpointAboveLevel, NoAdmissiblePath) as e:
                outcomes[type(e).__name__] += 1
                continue
            words = _verdict_words(curve, simple[0], path, PlaneWave(k=1.0, alpha=-PI + 2.0 * PI * j / 150))
            outcomes[words[0]] += 1
            digest.update((" ".join(words) + "\n").encode())
    assert outcomes == {"ScattersByC1": 71, "EndpointAboveLevel": 54, "NoAdmissiblePath": 20, "no simple saddle": 5}
    assert digest.hexdigest() == _FUZZ_VERDICTS_SHA256
    fixtures = hashlib.sha256()
    for key in paths:
        for wave in (PlaneWave(k=1.0, alpha=0.0), CircularHarmonic(k=1.0, n=0), CircularHarmonic(k=1.0, n=2)):
            words = _verdict_words(curves[key], saddles[key], paths[key], wave)
            fixtures.update((" ".join([key, *words]) + "\n").encode())
    assert fixtures.hexdigest() == _FIXTURE_VERDICTS_SHA256


def test_report_serialization_round_trip(curves, saddles, paths):
    rep = asym_report(curves["ellipse"], PlaneWave(k=1.0, alpha=0.0), 2.0, saddles["ellipse"], paths["ellipse"])
    d = report_to_dict(rep)
    blob = json.dumps(d, sort_keys=True)
    back = json.loads(blob)
    assert back["verdict"] == "ScattersByC1"
    assert back["C2"] is None
    assert back["order"] == 1.5
    assert back["C1"] == [rep.C1.real, rep.C1.imag]
    assert set(back["branch"]) == {"omega", "omega0"}


def test_mu_n_values():
    assert mu_n(6) == pytest.approx((4 + math.sqrt(7)) / 3, rel=1e-15)
    for n in (7, 9, 12):
        m = mu_n(n)
        assert m > 1
        # root of mu^2 - (2/3)(n-2) mu + 1
        assert m * m - (2.0 / 3.0) * (n - 2) * m + 1.0 == pytest.approx(0.0, abs=1e-12 * m * m)
    with pytest.raises(DegenerateCircle):
        mu_n(5)
    with pytest.raises(NoRealSolution):
        mu_n(3)
    with pytest.raises(NoRealSolution):
        mu_n(0)


def test_corner_constants_examples():
    wave = PlaneWave(k=1.0, alpha=0.0)
    c45 = corner_constants(CornerDomain(theta=PI / 4, a1=-1.0, a2=-1.0), wave, 2.0)
    assert c45.C == pytest.approx(1.0, abs=1e-12)  # 2 tan/(1+tan^2) = 1 at pi/4

    c_pi6 = corner_constants(CornerDomain(theta=PI / 6, a1=-1.0, a2=-1.0), wave, 2.0)
    assert c_pi6.C == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    c_open = corner_constants(CornerDomain(theta=PI / 2 - 1e-4, a1=-1.0, a2=-1.0), wave, 2.0)
    assert abs(c_open.C) < 3e-4  # C -> 0 as the wedge opens flat

    # the README wedges
    for theta in (PI / 6, PI / 4, PI / 3):
        assert corner_constants(CornerDomain(theta=theta, a1=-1.0, a2=-1.0), wave, 2.0).verdict == "ScattersAtCorner"


def test_corner_segment_difference_identity():
    # c2_seg - c1_seg = (2m/(1+m^2)) k^2 (q-1) u(0) once Helmholtz replaces the Laplacian
    rng = np.random.default_rng(31)
    for _ in range(12):
        theta = rng.uniform(0.15, 1.35)
        k = rng.uniform(0.5, 2.5)
        q = rng.uniform(1.3, 5.0)
        wave = rng.choice(
            [
                PlaneWave(k=k, alpha=rng.uniform(-PI, PI)),
                CircularHarmonic(k=k, n=int(rng.integers(0, 4))),
                HerglotzTrunc(k=k, psi=((0, 0.7), (2, 0.4j), (-1, 0.2))),
            ]
        )
        cc = corner_constants(CornerDomain(theta=theta, a1=-1.0, a2=-0.6), wave, q)
        m = math.tan(theta)
        u0 = wave_value(wave, (0.0, 0.0))
        want = (2 * m / (1 + m * m)) * k * k * (q - 1.0) * u0
        scale = max(1.0, k * k * abs(q - 1.0) * max(1.0, abs(u0)))
        assert abs((cc.c2_seg - cc.c1_seg) - want) <= 1e-9 * scale
        assert cc.C == pytest.approx(want if abs(want) else 0.0, abs=1e-9 * scale)


def test_disk_plane_closed_form_small_lambda():
    # lam = 0, k=1, q=4: c = 5/4 + sin(alpha), value pi G_1(c)
    for alpha in (0.0, 0.7, -2.0):
        got = disk_plane_closed_form(0.0, alpha, 1.0, 4.0)
        cval = 1.25 + math.sin(alpha)
        assert got == pytest.approx(PI * bessel_g(1, cval), rel=1e-12)


def test_disk_closed_forms_match_quadrature():
    from nonscatter.quad import area_integral_oracle, boundary_integral_I

    circle = builtin("circle", 1.0)
    # plane wave: closed form equals the scaled area integral
    k, q = 1.0, 4.0
    for lam in (0.0, 1.0, 3.0):
        for alpha in (0.0, 0.9):
            closed = disk_plane_closed_form(lam, alpha, k, q)
            quad = area_integral_oracle(circle, PlaneWave(k=k, alpha=alpha), q, lam)
            assert abs(closed - quad) <= 1e-8 * max(1.0, abs(closed))
    # circular harmonics: closed form vs the boundary integral
    k2, q2 = 1.0, 2.0
    for n in (0, 2):
        for lam in (1.0, 3.0):
            closed = disk_herglotz_closed_form(lam, n, k2, q2)
            quad = boundary_integral_I(circle, CircularHarmonic(k=k2, n=n), q2, lam)
            assert abs(closed - quad) <= 1e-8 * max(1.0, abs(closed))


def test_disk_herglotz_closed_form_structure():
    # 4 pi^2 k [Jn'(k) Jn(k sq) - sq Jn(k) Jn'(k sq)] (-i lt / (k sq))^n ... sq = sqrt q
    k, q, n, lam = 1.3, 2.3, 2, 1.7
    sq = math.sqrt(q)
    lt = lambda_tilde(SpectralParams(k=k, q=q, lam=lam))
    wron = bessel_jp(n, k) * bessel_j(n, k * sq) - sq * bessel_j(n, k) * bessel_jp(n, k * sq)
    want = 4 * PI**2 * k * wron * (-1j * lt / (k * sq)) ** n
    assert disk_herglotz_closed_form(lam, n, k, q) == pytest.approx(want, rel=1e-12)


def test_radial_wronskian_matches_scipy():
    ks = np.linspace(0.05, 30.0, 61)
    for n in range(4):
        for q in (0.5, 2.0, 4.0):
            sq = math.sqrt(q)
            want = sps.jvp(n, ks) * sps.jv(n, ks * sq) - sq * sps.jv(n, ks) * sps.jvp(n, ks * sq)
            got = radial_wronskian(n, q, ks)
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
            assert abs(radial_wronskian(n, q, float(ks[7])) - want[7]) <= 1e-12 * max(1.0, abs(want[7]))


def test_nonscattering_wavenumbers_frozen():
    ks = nonscattering_wavenumbers(0, 4.0, 20.0)
    want = [
        3.384194839559467,
        6.52881221402427,
        9.671255525834699,
        12.813236746378013,
        15.955050048939587,
        19.096784470565794,
    ]
    assert len(ks) == len(want)
    for got, ref in zip(ks, want):
        assert abs(got - ref) < 1e-9
    # each root kills the radial Wronskian
    for kj in ks:
        wr = bessel_jp(0, kj) * bessel_j(0, 2 * kj) - 2 * bessel_j(0, kj) * bessel_jp(0, 2 * kj)
        assert abs(wr) <= 1e-9
    with pytest.raises(ValueError):
        nonscattering_wavenumbers(0, 4.0, 150.0)


def _scipy_wronskian_roots(n, q, k_max):
    # independent oracle: a sign scan of the Wronskian built from scipy, then brentq
    sq = math.sqrt(q)

    def w(k):
        return sps.jvp(n, k) * sps.jv(n, k * sq) - sq * sps.jv(n, k) * sps.jvp(n, k * sq)

    ks = np.linspace(0.005, k_max, int(k_max / 0.005))
    sign = np.sign(w(ks))
    return [spo.brentq(w, ks[i], ks[i + 1], xtol=1e-13) for i in np.flatnonzero(sign[:-1] * sign[1:] < 0)]


@pytest.mark.parametrize("n, q, k_max, count", [(2, 4.0, 100.0, 31), (60, 4.0, 10.0, 0), (100, 4.0, 10.0, 0)])
def test_nonscattering_wavenumbers_match_scipy(n, q, k_max, count):
    # n = 2 scans past the series cut almost everywhere; at n = 60 and 100 both
    # products of the Wronskian underflow to 0.0 at small k, which is no root
    got = nonscattering_wavenumbers(n, q, k_max)
    want = _scipy_wronskian_roots(n, q, k_max)
    assert len(got) == len(want) == count
    for g, r in zip(got, want):
        assert abs(g - r) <= 1e-9, (g, r)


def test_wronskian_input_checks():
    for q in (-4.0, 0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="q must be positive"):
            radial_wronskian(2, q, 3.0)
        with pytest.raises(ValueError, match="q must be positive"):
            nonscattering_wavenumbers(2, q, 10.0)
    for k_max in (math.nan, math.inf, 100.5):
        with pytest.raises(ValueError, match="k_max must be <= 100"):
            nonscattering_wavenumbers(2, 4.0, k_max)


def test_bessel_ring_identity_spot_values():
    for n, a, b in ((0, 1.0, 1.0), (2, 1.5 + 0.5j, 0.7), (-3, 0.9, 1.1 - 0.4j)):
        lhs, rhs = bessel_contour_identity(n, a, b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
    # n = 0, b -> 0 collapses to the plain G_0 series value
    lhs, rhs = bessel_contour_identity(0, 2.0, 1e-30)
    assert rhs == pytest.approx(bessel_g(0, 0.0), rel=1e-10)


def test_tol_scale():
    assert tol_scale(PlaneWave(k=2.0, alpha=0.0), 3.0, 0.5) == pytest.approx(8.0)
    assert tol_scale(PlaneWave(k=2.0, alpha=0.0), 3.0, 5.0) == pytest.approx(40.0)
