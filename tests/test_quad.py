import json
import math
import types

import numpy as np
import pytest

from nonscatter.curves import CornerDomain, TrigCurve, eval_jets
from nonscatter.czmath import SpectralParams, lambda_tilde
from nonscatter.errors import (
    InsufficientData,
    OverflowRisk,
    QuadratureNotConverged,
    StarShapeViolated,
)
from nonscatter.quad import (
    QuadOptions,
    SweepRecord,
    area_integral_oracle,
    boundary_integral_I,
    fit_decay,
    lambda_sweep,
    sweep_to_csv,
)
from nonscatter import waves as _waves
from nonscatter.saddle import ContourPath
from nonscatter.waves import CircularHarmonic, HerglotzTrunc, PlaneCombo, PlaneWave, sample as wave_sample

import plane_refs

PI = math.pi


def test_quad_options_validation():
    QuadOptions(tol=1e-4)
    QuadOptions(tol=1e-14)
    with pytest.raises(TypeError):
        QuadOptions(nodes=64)
    with pytest.raises(ValueError):
        QuadOptions(tol=1e-15)
    with pytest.raises(ValueError):
        QuadOptions(tol=1e-3)


def test_contour_independence(curves, paths):
    # deformation cannot change the value while the exponential stays bounded
    wave = PlaneWave(k=1.0, alpha=0.0)
    for key in ("ellipse", "cardioid", "deltoid"):
        for lam in (2.0, 6.0, 10.0):
            flat = boundary_integral_I(curves[key], wave, 2.0, lam)
            bent = boundary_integral_I(curves[key], wave, 2.0, lam, paths[key])
            assert abs(flat - bent) <= 1e-8 * max(1.0, abs(flat)), (key, lam)


def test_path_must_be_none_or_a_contour(curves):
    # None is the real interval; an interval given as a tuple is refused
    wave = PlaneWave(k=1.0, alpha=0.0)
    for path in ((-PI, PI), (0.0, PI)):
        with pytest.raises(TypeError, match="ContourPath"):
            boundary_integral_I(curves["ellipse"], wave, 2.0, 1.0, path)


def test_g0_normalization_rescales_exactly(curves, saddles):
    wave = PlaneWave(k=1.0, alpha=0.0)
    g0 = saddles["ellipse"].g0
    lam = 5.0
    raw = boundary_integral_I(curves["ellipse"], wave, 2.0, lam)
    [rec] = lambda_sweep(curves["ellipse"], wave, 2.0, [lam], 0.0, g0)
    import cmath

    assert abs(rec.resid * cmath.exp(lam * g0) - raw) <= 1e-9 * max(1.0, abs(raw))


def test_area_oracle_identity(curves):
    # I(lam) = k^2 (q-1) * integral of u e^(i x.xi) over the region
    k, q = 1.0, 2.0
    wave = CircularHarmonic(k=k, n=2)
    for key in ("ellipse", "cardioid"):
        for lam in (1.0, 5.0, 10.0):
            ival = boundary_integral_I(curves[key], wave, q, lam)
            aval = area_integral_oracle(curves[key], wave, q, lam)
            assert abs(ival - k * k * (q - 1.0) * aval) <= 1e-8 * max(1.0, abs(ival)), (key, lam)


def test_area_oracle_rejects_sign_changing_jacobian():
    # circle about (2,0): x1 x2' - x2 x1' = 2 cos t + 1 flips sign
    off = TrigCurve(a1=(2.0, 1.0), b1=(), a2=(), b2=(0.0, 1.0))
    with pytest.raises(StarShapeViolated):
        area_integral_oracle(off, PlaneWave(k=1.0, alpha=0.0), 2.0, 1.0)


def test_area_oracle_tolerates_cusp_touching_origin(curves):
    # cardioid Jacobian has an isolated zero at the cusp, still one-signed
    v = area_integral_oracle(curves["cardioid"], PlaneWave(k=1.0, alpha=0.0), 2.0, 0.0)
    # lam = 0, xi = (0, k sqrt q): plain oscillatory area integral, finite and stable
    assert np.isfinite(v.real) and np.isfinite(v.imag)


def test_overflow_guard_trips_on_unormalized_large_lambda(curves):
    with pytest.raises(OverflowRisk):
        boundary_integral_I(curves["ellipse"], PlaneWave(k=1.0, alpha=0.0), 2.0, 400.0)


def test_overflow_guard_absent_once_normalized(curves, saddles, paths):
    sp = saddles["ellipse"]
    [rec] = lambda_sweep(curves["ellipse"], PlaneWave(k=1.0, alpha=0.0), 2.0, [400.0], 0.0, sp.g0, paths["ellipse"])
    assert np.isfinite(rec.resid.real) and np.isfinite(rec.resid.imag)


def test_normalized_integrand_stays_moderate(curves, saddles, paths):
    # with g0 = g(t0) the peak of the integrand on the descent path is O(|f|)
    key = "cardioid"
    cv, sp, path = curves[key], saddles[key], paths[key]
    k, q, lam = 1.0, 2.0, 200.0
    p = SpectralParams(k=k, q=q, lam=lam)
    lt = lambda_tilde(p)
    wave = PlaneWave(k=k, alpha=0.0)
    worst_int = 0.0
    worst_f = 0.0
    for a, b in zip(path.waypoints[:-1], path.waypoints[1:]):
        ts = a + (b - a) * np.linspace(0.0, 1.0, 160)
        jets = eval_jets(cv, ts, order=1)
        x1, x2 = jets[0]
        x1p, x2p = jets[1]
        g = x1 + 1j * x2
        gp = x1p + 1j * x2p
        for i in range(len(ts)):
            s = wave_sample(wave, (x1[i], x2[i]))
            pre = (x2p[i] * s.V[0] - x1p[i] * s.V[1]) + 1j * lam * gp[i] * s.v + 1j * lt * x1p[i] * s.v
            env = np.exp(lam * (g[i] - sp.g0).real - lt * x2[i].imag)
            worst_int = max(worst_int, abs(pre) * env)
            worst_f = max(worst_f, abs(pre))
    assert worst_int <= 1e3 * worst_f


def test_quadrature_stops_at_roundoff_floor(curves, saddles, paths):
    # at lam = 1000 the integrand's rounding noise lies above tol = 1e-13: the walk
    # stops at its roundoff floor and reports the larger error it reached
    sp, path = saddles["cardioid"], paths["cardioid"]
    wave = PlaneWave(k=1.0, alpha=0.0)
    [fine] = lambda_sweep(curves["cardioid"], wave, 2.0, [1000.0], 0.0, sp.g0, path, QuadOptions(tol=1e-13))
    [plain] = lambda_sweep(curves["cardioid"], wave, 2.0, [1000.0], 0.0, sp.g0, path)
    assert fine.error > 1e-13 * max(1.0, abs(fine.resid))
    assert abs(fine.resid - plain.resid) <= fine.error


def test_plane_waves_converge_within_their_error_of_mpmath(curves, saddles, paths):
    # every builtin plane-wave sweep converges down to the bottom of the documented
    # tolerance range, each value within its reported error of an mpmath value
    mp = pytest.importorskip("mpmath")
    with open(plane_refs.PATH, encoding="utf-8") as fh:
        refs = json.load(fh)
    assert sorted(refs) == sorted(plane_refs.SHAPES)
    for key, data in refs.items():
        curve, sp, path = curves[key], saddles[key], paths[key]
        assert complex(*map(float.fromhex, data["g0"])) == sp.g0, key
        for alpha, want in zip(plane_refs.angles(), data["values"]):
            wave = PlaneWave(k=plane_refs.K, alpha=alpha)
            for tol in (1e-12, 1e-13, 1e-14):
                recs = lambda_sweep(curve, wave, plane_refs.Q, plane_refs.SWEEP_GRID, 0.0, sp.g0, path, QuadOptions(tol=tol))
                with mp.workdps(30):
                    for r, (re, im) in zip(recs, want):
                        assert abs(mp.mpc(re, im) - r.resid) <= r.error, (key, alpha, tol, r.lam)


@pytest.mark.parametrize(
    "kind, lam, width, ok_lam, ok_resid",
    [
        # the 2:1 ellipse's contour, where C1 = -1.4807 + 1.6262i: the 32-node rules
        # on the halved panels next to the saddle lie 8.2e-5 from it
        ("contour", 1e10, 7.6e-6, 1e6, -1.48073 + 1.62623j),
        ("contour", 1e12, 7.6e-7, 1e6, -1.48073 + 1.62623j),
        # the deltoid's real interval, normalized by lam^2.5 e^(-3 lam): the
        # 128-node trapezoid's nodes next to the cusp at t = 0 lie 0.049 from it
        ("interval", 1e5, 1.29e-3, 1e3, -0.5063 + 0.0735j),
        ("interval", 1e7, 1.29e-4, 1e3, -0.5063 + 0.0735j),
    ],
)
def test_sweep_raises_where_its_first_rule_cannot_see_the_peak(curves, saddles, paths, kind, lam, width, ok_lam, ok_resid):
    # these sweeps used to return a confident zero (2.7e-12 with error 3.9e-8, 0
    # with error 0, 1.1e-298, 0): every node of the first rules sees the saddle
    # peak below roundoff, so the rules agree on nothing
    wave = PlaneWave(k=1.0, alpha=0.0)
    if kind == "contour":
        domain, p, g0, path = curves["ellipse"], 1.5, saddles["ellipse"].g0, paths["ellipse"]
    else:
        domain, p, g0, path = curves["deltoid"], 2.5, 3.0, None
    [ok] = lambda_sweep(domain, wave, 2.0, [ok_lam], p, g0, path)
    assert abs(ok.resid - ok_resid) <= 1e-4 + ok.error
    with pytest.raises(QuadratureNotConverged, match=rf"lam = {lam!r} the saddle peak is {width:.3g} wide"):
        lambda_sweep(domain, wave, 2.0, [ok_lam, lam], p, g0, path)


def test_v_turn_sweep_keeps_its_blind_value(curves, saddles, paths):
    # at the cardioid's V-turn both sides of the saddle leave into one valley and
    # their peaks cancel, so the rules' blindness to them costs nothing: the sweep
    # still returns the decayed value, within its error of zero
    wave = PlaneWave(k=1.0, alpha=0.3)
    [rec] = lambda_sweep(curves["cardioid"], wave, 2.0, [6e10], 2.0, saddles["cardioid"].g0, paths["cardioid"])
    assert abs(rec.resid) <= rec.error < 1e-30


@pytest.mark.parametrize("lam", [4e5, 1e6, 1e7])
def test_corner_sweep_raises_where_its_first_rule_cannot_see_the_corner(lam):
    # lam^2 I -> C = 1 on this wedge.  These sweeps used to return -1.6e-16 with
    # error 1.6e-16, 3.7e-60 and exactly 0 with error 0: the corner peak
    # e^(lam t) is 1 / lam wide, and the legs' nodes nearest the corner, in the
    # halved panels [a / 8, 0], lie |a| u0 / 8 = 1.7e-4 from it
    dom, wave = CornerDomain(theta=PI / 4, a1=-1.0, a2=-1.0), PlaneWave(k=1.0, alpha=0.3)
    [ok] = lambda_sweep(dom, wave, 2.0, [1e5], 2.0, 0j)
    assert abs(ok.resid - 0.99990) <= 1e-4 + ok.error
    with pytest.raises(QuadratureNotConverged, match=rf"lam = {lam!r} the corner peak is {1 / lam:.3g} wide"):
        lambda_sweep(dom, wave, 2.0, [1e5, lam], 2.0, 0j)


def test_trapezoid_stops_at_roundoff_floor_of_a_cancelling_sum():
    # (c + cos 2t)(cos t, sin t), c = 2.794, with a two-term plane combination at
    # lam = 6.918: int |f| exceeds |I| about 6.6e6 times, and at tol = 1e-10 the
    # doubling trapezoid used to run to 131072 nodes and raise.  The wave is draw
    # 131 of random.Random(4): per term re c, im c in [-1, 1], then alpha uniform.
    # I is linear in the wave, so the reference sums mpmath plane-wave values
    mp = pytest.importorskip("mpmath")
    c, lam = 2.794, 6.918
    curve = TrigCurve(a1=(0.0, c + 0.5, 0.0, 0.5), b1=(), a2=(), b2=(0.0, c - 0.5, 0.0, 0.5))
    wave = PlaneCombo(
        k=1.0,
        terms=(
            (0.7622371967967703 + 0.9599898086380427j, 2.078388129446237),
            (0.42162125539163386 - 0.12982690356178428j, 1.3663011816854436),
        ),
    )
    [rec] = lambda_sweep(curve, wave, 2.0, [lam], 0.0, 0j)
    assert rec.error > 1e-10 * abs(rec.resid)
    with mp.workdps(40):
        rows, gap = plane_refs.references(
            curve.a1, curve.b1, curve.a2, curve.b2, 0j, 512, [alpha for _, alpha in wave.terms], [lam]
        )
        assert gap <= 1e-20
        want = sum(c * row[0] for (c, _), row in zip(wave.terms, rows))
        assert abs(want - rec.resid) <= rec.error


def test_lambda_sweep_grid_validation(curves):
    wave = PlaneWave(k=1.0, alpha=0.0)
    with pytest.raises(ValueError):
        lambda_sweep(curves["ellipse"], wave, 2.0, [1.0, 1.0, 2.0], 1.5, 0j)
    with pytest.raises(ValueError):
        lambda_sweep(curves["ellipse"], wave, 2.0, [2.0, 1.0], 1.5, 0j)


def test_lambda_sweep_records(curves, saddles, paths):
    sp, path = saddles["ellipse"], paths["ellipse"]
    wave = PlaneWave(k=1.0, alpha=0.0)
    recs = lambda_sweep(curves["ellipse"], wave, 2.0, [2.0, 4.0, 6.0], 1.5, sp.g0, path)
    assert [r.lam for r in recs] == [2.0, 4.0, 6.0]
    for r in recs:
        # resid = lam^p e^(-lam g0) I, I_raw = the unnormalized integral
        flat = boundary_integral_I(curves["ellipse"], wave, 2.0, r.lam)
        assert abs(r.I_raw - flat) <= 1e-7 * max(1.0, abs(flat))
        assert r.nodes_used > 0
        import cmath

        assert abs(r.resid - r.lam**1.5 * cmath.exp(-r.lam * sp.g0) * r.I_raw) <= 1e-9 * max(1.0, abs(r.resid))


def test_lambda_sweep_is_deterministic(curves, saddles, paths):
    # sharing node data across lam changes no bit of any record
    sp, path = saddles["ellipse"], paths["ellipse"]
    wave = PlaneWave(k=1.0, alpha=0.0)
    grid = [2.0, 3.0, 4.0, 5.0]
    first = lambda_sweep(curves["ellipse"], wave, 2.0, grid, 1.5, sp.g0, path)
    again = lambda_sweep(curves["ellipse"], wave, 2.0, grid, 1.5, sp.g0, path)
    assert first == again
    for r in first:
        assert lambda_sweep(curves["ellipse"], wave, 2.0, [r.lam], 1.5, sp.g0, path) == [r]


@pytest.mark.parametrize("key", ["ellipse", "deltoid"])
def test_lambda_sweep_evaluates_each_node_set_once(curves, saddles, paths, monkeypatch, key):
    # the ellipse runs Gauss panels on its contour, the deltoid the real-interval trapezoid
    seen = []

    def counting(wave, x):
        seen.append(np.asarray(x[0]).tobytes())
        return wave_sample(wave, x)

    monkeypatch.setattr(_waves, "sample", counting)
    path = paths[key] if key == "ellipse" else None
    grid = [10.0, 20.0, 40.0, 80.0, 160.0, 320.0]
    recs = lambda_sweep(curves[key], CircularHarmonic(k=1.0, n=2), 2.0, grid, 1.5, saddles[key].g0, path)
    assert len(recs) == len(grid)
    assert seen and len(seen) == len(set(seen))


def test_fit_decay_needs_four_points():
    recs = [SweepRecord(lam=float(i), I_raw=0j, resid=1j / i, nodes_used=8) for i in (1, 2, 3)]
    with pytest.raises(InsufficientData):
        fit_decay(recs)


def test_fit_decay_recovers_planted_limit_and_order():
    A, B = 2.0 - 1.0j, 5.0 + 3.0j
    lams = [10.0 * 2**i for i in range(8)]
    recs = [SweepRecord(lam=l, I_raw=0j, resid=A + B / l, nodes_used=64) for l in lams]
    fit = fit_decay(recs)
    assert abs(fit.limit - A) <= 1e-8
    assert fit.order == pytest.approx(1.0, abs=1e-6)


def test_sweep_to_csv_format():
    recs = [
        SweepRecord(lam=np.float64(2.0), I_raw=complex(np.float64(1.5), -0.25), resid=0.5 + 0j, nodes_used=np.int64(96))
    ]
    text = sweep_to_csv(recs)
    lines = text.strip().split("\n")
    assert lines[0] == "lambda,re_I,im_I,re_resid,im_resid,nodes_used"
    assert "np.float64" not in text and "np.int64" not in text
    cells = lines[1].split(",")
    assert float(cells[0]) == 2.0 and float(cells[1]) == 1.5 and int(cells[5]) == 96


def test_corner_quadrature_approaches_wedge_constant():
    dom = CornerDomain(theta=PI / 6, a1=-1.0, a2=-1.0)
    k, q = 1.0, 2.0
    wave = PlaneWave(k=k, alpha=0.0)
    m = math.tan(PI / 6)
    want = (2 * m / (1 + m * m)) * k * k * (q - 1.0)  # u(0) = 1
    a = boundary_integral_I(dom, wave, q, 40.0)
    assert abs(40.0**2 * a - want) <= 0.1 * abs(want)
    c = boundary_integral_I(dom, wave, q, 80.0)
    assert abs(80.0**2 * c - want) <= 0.05 * abs(want)


_WAVES = {
    "plane": PlaneWave(k=1.0, alpha=0.4),
    "combo": PlaneCombo(k=1.0, terms=((1.0, 0.3), (0.5 - 0.2j, 2.0))),
    "harmonic": CircularHarmonic(k=1.0, n=2),
    "herglotz": HerglotzTrunc(k=1.0, psi=((-2, 0.2j), (0, 1.0), (1, 0.3 - 0.1j))),
}


def _sweep_case(kind, curves, saddles, paths):
    """(domain, path, g0, p, grid, opts) for each kind of path a sweep walks."""
    if kind == "contour":
        return curves["ellipse"], paths["ellipse"], saddles["ellipse"].g0, 1.5, [10.0, 40.0, 160.0], QuadOptions()
    if kind == "trapezoid":
        return curves["deltoid"], None, saddles["deltoid"].g0, 2.5, [2.0, 10.0, 80.0], QuadOptions()
    return CornerDomain(theta=PI / 5, a1=-1.0, a2=-1.2), None, 0j, 2.0, [10.0, 40.0, 160.0], QuadOptions()


@pytest.mark.parametrize("wave_kind", sorted(_WAVES))
@pytest.mark.parametrize("kind", ["contour", "trapezoid", "wedge"])
def test_lambda_sweep_equals_single_lam_calls(curves, saddles, paths, kind, wave_kind):
    # one walk serves the whole grid, and each lam gets the rule it gets alone
    dom, path, g0, p, grid, opts = _sweep_case(kind, curves, saddles, paths)
    wave = _WAVES[wave_kind]
    recs = lambda_sweep(dom, wave, 2.0, grid, p, g0, path, opts)
    if kind in ("contour", "trapezoid"):
        # rows that stop refining at different depths or doublings
        assert len({r.nodes_used for r in recs}) > 1
    for r in recs:
        assert lambda_sweep(dom, wave, 2.0, [r.lam], p, g0, path, opts) == [r], (kind, wave_kind, r.lam)


# the real interval as a contour, normalized by max x1 = 2 of the 2:1 ellipse: from
# lam ~ 5e5 the phase lam x2 turns by radians across a depth-14 Gauss panel, so
# the walk reaches max depth at any tolerance
_REAL_AXIS = ContourPath((-PI, 0.0, PI), 1.0, 1)


def _first_failure(dom, wave, grid, g0, path, opts):
    for lam in grid:
        try:
            lambda_sweep(dom, wave, 2.0, [lam], 1.5, g0, path, opts)
        except Exception as e:  # whatever a lam-by-lam loop would raise
            return e
    return None


@pytest.mark.parametrize("kind", ["max_depth", "overflow"])
def test_failing_sweep_raises_the_first_failing_lam(curves, saddles, paths, kind):
    # larger lams walk alongside until the first fails, yet the sweep raises
    # exactly what a lam-by-lam loop raises: the smallest failing lam's error
    dom, path, opts = curves["ellipse"], _REAL_AXIS, QuadOptions()
    if kind == "max_depth":
        g0, grid = 2.0, [1e5, 5e5, 1e6, 2e6]
    else:
        # lam = 1e6 and 2e6 overflow at the first nodes, since g0 lies 1e-3 below
        # max x1; lam = 5e5 fails later, at max depth, and it is the error the
        # sweep must raise
        g0, grid = 2.0 - 1e-3, [1.0, 5e5, 1e6, 2e6]
        with pytest.raises(OverflowRisk):
            lambda_sweep(dom, PlaneWave(k=1.0, alpha=0.0), 2.0, [1e6], 1.5, g0, path, opts)
    want = _first_failure(dom, PlaneWave(k=1.0, alpha=0.0), grid, g0, path, opts)
    assert want is not None
    with pytest.raises(type(want)) as got:
        lambda_sweep(dom, PlaneWave(k=1.0, alpha=0.0), 2.0, grid, 1.5, g0, path, opts)
    assert str(got.value) == str(want)


def _reachable(roots, skip: set) -> list:
    """Containers, arrays, closures and nonscatter objects reachable from roots."""
    seen, stack, out = set(skip), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        out.append(obj)
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, types.FunctionType):
            stack.extend(c.cell_contents for c in obj.__closure__ or ())
        elif type(obj).__module__.startswith("nonscatter") and hasattr(obj, "__dict__"):
            stack.append(vars(obj))
    return out


@pytest.mark.parametrize("kind", ["max_depth", "overflow"])
def test_failed_sweep_traceback_holds_no_panels(curves, saddles, paths, kind):
    # an error's traceback keeps its frames alive: they may hold the grid, but
    # no panel list, tree or node array larger than one Gauss rule
    dom, wave, opts = curves["ellipse"], PlaneWave(k=1.0, alpha=0.0), QuadOptions()
    if kind == "max_depth":
        path, g0, grid = _REAL_AXIS, 2.0, [1e3, 1e4, 1e5, 5e5, 1e6, 2e6]
    else:
        # lam = 400 overflows on the real-interval trapezoid: lam x1 reaches 800
        path, g0, grid = None, 0j, [10.0, 20.0, 40.0, 80.0, 160.0, 400.0]
    with pytest.raises((QuadratureNotConverged, OverflowRisk)) as info:
        lambda_sweep(dom, wave, 2.0, grid, 1.5, g0, path, opts)
    frames = []
    tb = info.value.__traceback__.tb_next  # past this test's own frame
    while tb is not None:
        frames.append(tb.tb_frame)
        tb = tb.tb_next
    assert frames
    inputs = {id(x) for x in _reachable([dom, wave, grid, path, g0, opts], set())}
    held = _reachable([v for f in frames for v in f.f_locals.values()], inputs)
    arrays = [x for x in held if isinstance(x, np.ndarray)]
    assert all(a.size <= 64 for a in arrays), sorted(a.size for a in arrays)
    containers = [x for x in held if isinstance(x, (list, dict, tuple))]
    assert all(len(x) <= len(grid) for x in containers), sorted(len(x) for x in containers)
