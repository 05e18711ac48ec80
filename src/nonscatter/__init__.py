"""Numerical certification of scattering for incident Helmholtz waves on
planar inhomogeneities: boundary-integral diagnostics, saddle-point
asymptotics, and high-precision quadrature cross-checks."""

from .czmath import SpectralParams, bessel_g, bessel_j, bessel_jp, lambda_tilde
from .curves import CornerDomain, CornerSegment, CurveJet, TrigCurve, builtin, corner_segments, eval_jet, eval_jets, g_jet
from .waves import CircularHarmonic, HerglotzTrunc, PlaneCombo, PlaneWave, WaveSample, gradient, sample, value
from .saddle import (
    ContourPath,
    LevelSetGrid,
    SaddlePoint,
    ValidationReport,
    branch_angle,
    branch_sqrt_neg_g2,
    build_contour,
    find_saddles,
    grid_to_csv,
    grid_to_svg,
    level_region,
    validate_contour,
)
from .asymptotics import (
    AsymReport,
    CornerConstants,
    FJet,
    asym_report,
    bessel_contour_identity,
    corner_constants,
    disk_herglotz_closed_form,
    disk_plane_closed_form,
    f_jet,
    mu_n,
    nonscattering_wavenumbers,
    report_to_dict,
)
from .quad import (
    FitResult,
    QuadOptions,
    SweepRecord,
    area_integral_oracle,
    boundary_integral_I,
    fit_decay,
    lambda_sweep,
    sweep_to_csv,
)
from . import errors

__version__ = "0.1.0"
