"""Slow invariant manifolds of n-dimensional flows via curvature of the flow.

The zero set of phi = det(Xdot, Xddot, ..., X^(n)) carries the slow
invariant manifold of an n-dimensional autonomous system; this package
computes phi and its Lie derivative exactly (Taylor coefficients, node by
node on the rhs expression trees), certifies invariance in the Darboux
sense, extracts zero sets on grids and along trajectories, and cross-checks
the piecewise-linear circuit hyperplanes against the eigenvector-based
tangent-linear-system construction.
"""

from .geometry import (CurvatureSet, DegenerateStackError,
                       curvature1_3d, curvatures, gram_schmidt,
                       det_norm_product_residual, det_multiplicativity_residual,
                       trace_expansion_residual, torsion_3d, wedge)
from .integrate import IntegrationError, Trajectory, integrate
from .jets import DerivStack, derivative_stack
from .manifold import (FactorReport, ManifoldSample, ZeroSet, darboux_residual,
                       factor_check, lie_phi, manifold_sample, phi, phi_scaled,
                       zero_crossings_on_trajectory, zero_set_grid)
from .models import (FixedPoint, ModelDef, ModelError, fixed_points, get_model,
                     load_model, registry)
from .spectral import (Hyperplane, SpectralError, Spectrum,
                       coplanarity_equivalence, darboux_check_plane,
                       hypercoplanarity_check, spectrum_at, tls_hyperplane)

__version__ = "0.1.0"

__all__ = [
    "DerivStack", "derivative_stack",
    "ModelDef", "FixedPoint", "ModelError",
    "fixed_points", "load_model", "get_model", "registry",
    "CurvatureSet", "DegenerateStackError", "gram_schmidt",
    "curvatures", "curvature1_3d", "torsion_3d", "wedge",
    "det_norm_product_residual", "det_multiplicativity_residual", "trace_expansion_residual",
    "ManifoldSample", "ZeroSet", "FactorReport",
    "phi", "lie_phi", "phi_scaled", "darboux_residual", "manifold_sample",
    "zero_set_grid", "zero_crossings_on_trajectory", "factor_check",
    "Trajectory", "IntegrationError", "integrate",
    "Spectrum", "Hyperplane", "SpectralError", "spectrum_at", "tls_hyperplane",
    "darboux_check_plane", "coplanarity_equivalence", "hypercoplanarity_check",
    "__version__",
]
