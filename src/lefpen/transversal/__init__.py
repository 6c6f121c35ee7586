"""Desk-scale numerical verification of the quantitative deformation and
transversality estimates: cutoff profiles, the radial-map linearization,
Morse-function deformations, and symmetric local perturbations."""

from .cutoff import CutoffProfile, ThresholdError, build_cutoff, min_admissible_k
from .radial import central_difference, power_profile, radial_jacobian, radial_map_check
from .morse import (
    CriticalPoint,
    DeformedMorse,
    MorseModel,
    deform_fd_check,
    deform_grid,
    verify_deform_bounds,
)
from .localtrans import (
    CPoly,
    LocalTransInstance,
    TransversalityCertificate,
    VerificationError,
    ball_grid,
    eta_margin,
    eta_transverse_check,
    find_good_w0,
    random_instance,
    reverify,
    sigma_of,
    solve_w_residual,
)
