"""Numerical laboratory for weighted sub-Laplacians on step-two Metivier groups.

The package computes, at desk scale, everything checkable about the operator
family associated with the weights exp(-N^alpha): group calculus and the
homogeneous norm, the conjugated Schrodinger potential and its two-sided
bounds, quadrature experiments for the ground-state transform and for
central-translate quasi-modes, sparse eigenvalue studies of the truncated
operator, and Monte Carlo thinness measurements of potential sublevel sets.
"""

from .group import (ConditionEstimate, GroupPoint, MetivierStructure,
                    homogeneous_dimension, make_heisenberg, verify_metivier)
from .norms import GammaEstimate, estimate_gamma
from .potential import (Admissibility, PotentialConstants, admissibility,
                        check_sandwich, potential_bounds)
from .forms import (QuadratureGrid, SmoothBump, TranslatedBump, WeylRecord,
                    conjugation_residual, dirichlet_form, weyl_residual, weyl_scan,
                    weyl_sequence)
from .spectral import (Grid3, SparseSymmetricOperator, SpectrumResult,
                       assemble_operator, box_convergence_study,
                       eigen_count_below, lanczos_lowest)
from .sublevel import (ScalingFit, SublevelSpec, ThinnessEstimate,
                       ball_intersection_volume, cylinder_radius, scaling_fit,
                       thinness_integral)

__version__ = "0.1.0"
