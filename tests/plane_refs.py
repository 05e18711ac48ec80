"""mpmath reference values of e^(-lam g0) I(lam) for plane waves on the builtin curves.

    python tests/plane_refs.py          # rewrites tests/plane_refs.json (a few minutes)

For each of the four builtin curves with a saddle, each of 25 incidence angles
alpha = linspace(-pi, pi, 25) and each lam of SWEEP_GRID, the periodic
trapezoid rule on the real interval is summed in mpmath.  On the real interval
the normalized integrand reaches e^(lam (max x1 - Re g0)) while the value is
small, so the working precision is 40 digits plus the digits that cancel, and
the node count doubles from 2048 until the rule on the even nodes alone agrees
to 1e-24 (times max(1, |value|)); the stored 25-digit values are then exact
for a double comparison.  No nonscatter code enters the integrand or the rule:
only the curve's Fourier coefficients and g0, the saddle value the sweeps
normalize by, come from the package, and g0 is stored so that the test can
check that it is the same double.
"""

import json
import math
import os
import sys

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "plane_refs.json")
K, Q = 1.0, 2.0
SWEEP_GRID = (10.0, 20.0, 40.0, 80.0, 160.0, 320.0)
SHAPES = {"ellipse": ("ellipse", 2.0, 1.0), "cardioid": ("cardioid",), "deltoid": ("deltoid",), "nonconvex": ("nonconvex",)}


def angles() -> list:
    # numpy.linspace(-pi, pi, 25), as doubles
    return [-math.pi + j * (2.0 * math.pi / 24) if j < 24 else math.pi for j in range(25)]


def _series(coeffs, m_max, cos, sin):
    a, b = coeffs
    x = mp.mpf(a[0])
    dx = mp.mpf(0)
    for m in range(1, m_max + 1):
        am = mp.mpf(a[m]) if m < len(a) else mp.mpf(0)
        bm = mp.mpf(b[m]) if m < len(b) else mp.mpf(0)
        x += am * cos[m] + bm * sin[m]
        dx += m * (bm * cos[m] - am * sin[m])
    return x, dx


def references(a1, b1, a2, b2, g0: complex, N: int, alphas=None, lams=SWEEP_GRID) -> tuple:
    """([[value per lam] per angle], worst gap to the half rule) for one curve, N
    nodes, plane waves at alphas (by default angles()); each value is e^(-lam g0) I."""
    m_max = max(len(a1), len(b1), len(a2), len(b2)) - 1
    g0 = mp.mpc(g0.real, g0.imag)
    k, q = mp.mpf(K), mp.mpf(Q)
    lams = [mp.mpf(x) for x in lams]
    lts = [mp.sqrt(lam * lam + k * k * q) - lam for lam in lams]
    dirs = [(mp.cos(mp.mpf(al)), mp.sin(mp.mpf(al))) for al in (angles() if alphas is None else alphas)]
    # per lam: E x2', E x1', E g' at each node, E = e^(lam (g - g0) + i lt x2)
    u = [([], [], []) for _ in lams]
    # per angle: the plane wave e^(i k x . d) at each node
    v = [[] for _ in dirs]
    for j in range(N):
        t = -mp.pi + 2 * mp.pi * j / N
        cos = [mp.cos(m * t) for m in range(m_max + 1)]
        sin = [mp.sin(m * t) for m in range(m_max + 1)]
        x1, x1p = _series((a1, b1), m_max, cos, sin)
        x2, x2p = _series((a2, b2), m_max, cos, sin)
        g, gp = mp.mpc(x1, x2), mp.mpc(x1p, x2p)
        for (ux2, ux1, ug), lam, lt in zip(u, lams, lts):
            E = mp.exp(lam * (g - g0) + 1j * lt * x2)
            ux2.append(E * x2p)
            ux1.append(E * x1p)
            ug.append(E * gp)
        for vs, (c, s) in zip(v, dirs):
            vs.append(mp.exp(1j * k * (x1 * c + x2 * s)))
    out, gap = [], mp.mpf(0)
    for vs, (c, s) in zip(v, dirs):
        row = []
        for (ux2, ux1, ug), lam, lt in zip(u, lams, lts):
            # [i k u (x2' cos - x1' sin) + i lam g' u + i lt x1' u] E, summed
            vals = []
            for step in (1, 2):
                s1 = mp.fdot(vs[::step], ux2[::step])
                s2 = mp.fdot(vs[::step], ux1[::step])
                s3 = mp.fdot(vs[::step], ug[::step])
                vals.append(1j * (2 * mp.pi * step / N) * (k * c * s1 - k * s * s2 + lam * s3 + lt * s2))
            full, half = vals
            gap = max(gap, abs(full - half) / max(1, abs(full)))
            row.append(full)
        out.append(row)
    return out, gap


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from nonscatter.curves import builtin
    from nonscatter.saddle import find_saddles

    data = {}
    for key, args in SHAPES.items():
        curve = builtin(*args)
        g0 = complex(find_saddles(curve)[0].g0)
        top = max(
            sum(a * math.cos(m * t) + b * math.sin(m * t) for m, (a, b) in enumerate(zip(curve.a1, curve.b1)))
            for t in (2 * math.pi * j / 4096 for j in range(4096))
        )
        mp.mp.dps = 40 + math.ceil(max(SWEEP_GRID) * max(0.0, top - g0.real) / math.log(10))
        N = 2048
        while True:
            rows, gap = references(curve.a1, curve.b1, curve.a2, curve.b2, g0, N)
            if gap <= mp.mpf("1e-24"):
                break
            if N >= 8192:
                raise ArithmeticError(f"{key}: the {N}-node rule moved by {mp.nstr(gap, 3)} from the half rule")
            N *= 2
        data[key] = {
            "g0": [g0.real.hex(), g0.imag.hex()],
            "values": [[[mp.nstr(z.real, 25), mp.nstr(z.imag, 25)] for z in row] for row in rows],
        }
        print(f"{key}: {mp.mp.dps} digits, {N} nodes, half-rule gap {mp.nstr(gap, 3)}", flush=True)
    write(data)
    return 0


def write(data: dict) -> None:
    """PATH with one line per curve and angle: six [re, im] pairs, one per lam."""
    blocks = []
    for key, entry in data.items():
        rows = ",\n".join(f"   {json.dumps(row)}" for row in entry["values"])
        blocks.append(f' "{key}": {{\n  "g0": {json.dumps(entry["g0"])},\n  "values": [\n{rows}\n  ]\n }}')
    with open(PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
