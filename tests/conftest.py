import math
import random

import numpy as np
import pytest

from nonscatter.curves import TrigCurve, _chords_cross, builtin, eval_jets
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

# curves of the 400-curve fuzz sample (ROADMAP: random.Random(12345)) whose
# contour legs leave the straight chord for the shortest cell path, each on
# its own descent mask: (a1, b1, a2, b2)
_FUZZED = {
    "fuzz-27": (
        (0.0, 0.5049393897514949),
        (0.0, -0.11971377700696378),
        (0.0, 0.0909716893303511),
        (0.0, 0.6615719066069286),
    ),
    "fuzz-41": (
        (0.0, -0.22268665421838318, -0.13720697881066837),
        (0.0, -0.04284568405803424, -0.045215341424653555),
        (0.0, -0.20741507511850318, 0.11687425824567454),
        (0.0, -0.8338161256504573, -0.1567797927370868),
    ),
    "fuzz-112": (
        (0.0, 0.23983935962693348, 0.21872452629244904),
        (0.0, -0.18301623735335348, 0.09524066943041587),
        (0.0, 0.23626526380790674, -0.17930394967315577),
        (0.0, 0.7835309073209782, 0.18733472738722823),
    ),
    "fuzz-218": (
        (0.0, -0.4426804882957771, -0.24580903625842435, -0.03329988985699023),
        (0.0, -0.24511294985060983, -0.297468656880924, 0.16081477272157674),
        (0.0, 0.1654752695136264, -0.08374006303653184, -0.25868613971631144),
        (0.0, -0.9976823831294954, -0.06071011843020441, 0.10658183527055293),
    ),
    "fuzz-388": (
        (0.0, 0.31362395380215036, -0.15772021817466741),
        (0.0, 0.0901889046410771, 0.11911048069655805),
        (0.0, -0.1550327876867287, -0.060205664878567544),
        (0.0, 0.8334817780692965, -0.11988304006485151),
    ),
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
    out.update((key, TrigCurve(*rows)) for key, rows in _FUZZED.items())
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


def fuzz_sample(seed: int, count: int) -> list:
    """The ROADMAP fuzz sample: the first `count` curves kept from random.Random(seed).

    Each draw takes the degree M in 1..4, then a1[1..M], b2[1..M], b1[1..M] and
    a2[1..M], in that order; the m = 1 terms of a1 and b2 are uniform in [-1, 1],
    every other term in [-0.3, 0.3], and every mean is zero.  A curve is kept
    when its signed area is positive and no two chords of a 4096-point sample cross.
    """
    rng = random.Random(seed)
    ts = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
    kept = []
    while len(kept) < count:
        m = rng.randint(1, 4)
        a1, b2 = ([rng.uniform(-1.0, 1.0) if j == 1 else rng.uniform(-0.3, 0.3) for j in range(1, m + 1)] for _ in range(2))
        b1, a2 = ([rng.uniform(-0.3, 0.3) for _ in range(m)] for _ in range(2))
        curve = TrigCurve(a1=(0.0, *a1), b1=(0.0, *b1), a2=(0.0, *a2), b2=(0.0, *b2), check=False)
        (x1, x2), (x1p, x2p) = ((a.real, b.real) for a, b in eval_jets(curve, ts, order=1))
        if np.mean(x1 * x2p - x2 * x1p) > 0 and not _chords_cross(x1, x2):
            kept.append(curve)
    return kept
