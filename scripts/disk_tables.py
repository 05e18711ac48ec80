#!/usr/bin/env python3
"""Disk tables: nonscattering wavenumbers and closed-form cross-checks.

Writes the radial Wronskian roots for n = 0..3 below k_max, and the
closed-form vs quadrature comparison for circular-harmonic incidence.
Usage:
    python scripts/disk_tables.py --out artifacts/disk
"""

import argparse
import os

from nonscatter.asymptotics import disk_herglotz_closed_form, nonscattering_wavenumbers, radial_wronskian
from nonscatter.curves import builtin
from nonscatter.quad import boundary_integral_I
from nonscatter.waves import CircularHarmonic


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="artifacts/disk")
    ap.add_argument("--q", type=float, default=4.0)
    ap.add_argument("--k-max", type=float, default=20.0)
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    q = args.q

    lines = ["n,k,abs_C,abs_I_lam1,abs_I_lam5"]
    circle = builtin("circle", 1.0)
    for n in range(4):
        roots = nonscattering_wavenumbers(n, q, args.k_max)
        print(f"n = {n}: {len(roots)} roots below {args.k_max}")
        for kj in roots:
            cval = radial_wronskian(n, q, kj)
            i1 = abs(boundary_integral_I(circle, CircularHarmonic(k=kj, n=n), q, 1.0))
            i5 = abs(boundary_integral_I(circle, CircularHarmonic(k=kj, n=n), q, 5.0))
            print(f"  k = {kj:.12f}  |C| = {abs(cval):.2e}  |I(1)| = {i1:.2e}  |I(5)| = {i5:.2e}")
            lines.append(f"{n},{kj!r},{abs(cval)!r},{i1!r},{i5!r}")
    with open(os.path.join(args.out, "roots.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    lines = ["n,lambda,rel_gap"]
    k = 3.0
    for n in (0, 1, 4):
        for lam in (1.0, 3.0, 10.0):
            closed = disk_herglotz_closed_form(lam, n, k, q)
            quad = boundary_integral_I(circle, CircularHarmonic(k=k, n=n), q, lam)
            rel = abs(quad - closed) / abs(closed)
            lines.append(f"{n},{lam!r},{rel!r}")
    with open(os.path.join(args.out, "closed_vs_quad.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"closed-form cross-check written to {args.out}/closed_vs_quad.csv")


if __name__ == "__main__":
    main()
