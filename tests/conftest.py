import pytest

from nonscatter.curves import TrigCurve, builtin
from nonscatter.saddle import build_contour, find_saddles, level_region

# heavy pieces (level-set grids, contours) are built once per session;
# everything downstream treats them as read-only

_BUILTINS = {
    "circle": ("circle", (1.0,)),
    "ellipse": ("ellipse", (2.0, 1.0)),
    "cardioid": ("cardioid", ()),
    "deltoid": ("deltoid", ()),
    "nonconvex": ("nonconvex", ()),
}

# certify-range shapes, two per family, with parameters drawn from
# random.Random(8) and rounded: (a cos t, b sin t) with a = p b,
# (p + cos 2t)(cos t, sin t), p (1 - cos t)(cos t, sin t) and
# p (2 cos t + cos 2t, 2 sin t - sin 2t)
_SEEDED = {
    "ellipse-0": ("ellipse", 1.84, 1.277),
    "ellipse-1": ("ellipse", 1.871, 1.299),
    "quartic-0": ("quartic", 1.777),
    "quartic-1": ("quartic", 1.893),
    "cardioid-0": ("cardioid", 1.305),
    "cardioid-1": ("cardioid", 1.242),
    "deltoid-0": ("deltoid", 0.685),
    "deltoid-1": ("deltoid", 1.059),
}


def _seeded(kind, p, b=1.0):
    if kind == "ellipse":
        return TrigCurve(a1=(0.0, p * b), b1=(0.0,), a2=(0.0,), b2=(0.0, b))
    if kind == "quartic":
        return TrigCurve(a1=(0.0, p + 0.5, 0.0, 0.5), b1=(0.0,), a2=(0.0,), b2=(0.0, p - 0.5, 0.0, 0.5))
    if kind == "cardioid":
        return TrigCurve(a1=(-0.5 * p, p, -0.5 * p), b1=(0.0,), a2=(0.0,), b2=(0.0, p, -0.5 * p))
    return TrigCurve(a1=(0.0, 2.0 * p, p), b1=(0.0,), a2=(0.0,), b2=(0.0, 2.0 * p, -p))


@pytest.fixture(scope="session")
def curves():
    out = {key: builtin(name, *params) for key, (name, params) in _BUILTINS.items()}
    out.update((key, _seeded(*args)) for key, args in _SEEDED.items())
    return out


@pytest.fixture(scope="session")
def saddles(curves):
    out = {}
    for key, curve in curves.items():
        if key == "circle":
            continue
        out[key] = find_saddles(curve)[0]
    return out


@pytest.fixture(scope="session")
def grids(curves, saddles):
    return {key: level_region(curves[key], sp) for key, sp in saddles.items()}


@pytest.fixture(scope="session")
def paths(curves, saddles, grids):
    return {key: build_contour(curves[key], saddles[key], grids[key]) for key in saddles}
