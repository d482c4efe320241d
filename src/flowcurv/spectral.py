"""Tangent-linear-system spectra and invariant hyperplanes.

At a fixed point of a piecewise-linear system the scroll lies on a
hyperplane through the point whose normal is a left eigenvector of the
Jacobian: Pi(X) = lambda * (X - I) . tY = 0.  The construction needs a real
eigenvalue; it uses the real eigenvalue of largest |Re| (for the 3-D and
4-D circuits that is also the overall dominant one, for the 5-D circuit the
overall dominant eigenvalue is a complex pair and the published plane comes
from the dominant real one).

The coplanarity form of the same statement: the velocity lies in the span
of the slow right eigenvectors exactly where it is orthogonal to the fast
left eigenvector, because the wedge of the slow right eigenvectors is
parallel to the fast left eigenvector.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import det_scaled, vecdot, vecnorm, wedge
from .jets import derivative_stack
from .models import region_box, region_samples

__all__ = [
    "SpectralError", "Spectrum", "Hyperplane",
    "spectrum_at", "tls_hyperplane", "darboux_check_plane",
    "coplanarity_equivalence", "hypercoplanarity_check",
]

_EIG_RESIDUAL_RTOL = 1e-8
# |Im| <= _REAL_RTOL * (1 + |lambda|) counts as real; conjugates pair at that distance
_REAL_RTOL = 1e-9


class SpectralError(ValueError):
    """No usable eigenstructure for the requested construction."""


def _sign_fix(vector):
    """Deterministic sign: the largest-magnitude entry is made positive."""
    idx = int(np.argmax(np.abs(vector)))
    if np.real(vector[idx]) < 0:
        return -vector
    return vector


@dataclass(frozen=True)
class Spectrum:
    """Eigen-decomposition of a Jacobian, ordered by descending |Re|."""

    eigenvalues: np.ndarray         # (n,) complex
    right_eigenvectors: np.ndarray  # (n, n), column i pairs with eigenvalue i
    left_eigenvectors: np.ndarray   # (n, n), column i is tY for eigenvalue i
    jacobian: np.ndarray

    @property
    def fast_eigenvalue(self):
        return self.eigenvalues[0]

    @property
    def left_fast_eigenvector(self):
        return self.left_eigenvectors[:, 0]

    def is_real(self, i):
        lam = self.eigenvalues[i]
        return abs(lam.imag) <= _REAL_RTOL * (1.0 + abs(lam))

    def dominant_real(self):
        """Index of the real eigenvalue with the largest |Re|."""
        for i in range(len(self.eigenvalues)):
            if self.is_real(i):
                return i
        raise SpectralError("no real eigenvalue: no real invariant hyperplane exists")


def spectrum_at(model, x, region=None):
    """Full eigen-decomposition of the Jacobian at `x`.

    Dense nonsymmetric solve; eigenvalues are sorted by descending |Re(λ)|
    (ties broken by |Im| then sign, so the ordering is deterministic), and
    real eigenvectors carry a fixed sign convention.  A near-defective
    Jacobian (eigenvector residual beyond threshold) raises SpectralError.
    """
    return _spectrum(model.jacobian(np.asarray(x, dtype=float), region=region))


def _spectrum(J):
    """The `spectrum_at` decomposition of one Jacobian matrix."""
    if not np.isfinite(J).all():
        raise SpectralError("non-finite Jacobian")
    evals, rights = np.linalg.eig(J)
    order = sorted(range(len(evals)),
                   key=lambda i: (-abs(evals[i].real), abs(evals[i].imag),
                                  -evals[i].imag))
    evals = evals[order]
    rights = rights[:, order]

    evals_t, lefts_raw = np.linalg.eig(J.T)
    lefts = np.empty_like(rights)
    used = set()
    for i, lam in enumerate(evals):
        dist = np.abs(evals_t - lam)
        for k in used:
            dist[k] = np.inf
        j = int(np.argmin(dist))
        used.add(j)
        lefts[:, i] = lefts_raw[:, j]

    n = len(evals)
    for i in range(n):
        lam = evals[i]
        if abs(lam.imag) <= _REAL_RTOL * (1.0 + abs(lam)):
            rights[:, i] = _sign_fix(np.real(rights[:, i]))
            lefts[:, i] = _sign_fix(np.real(lefts[:, i]))
        resid = np.linalg.norm(J @ rights[:, i] - lam * rights[:, i])
        if resid > _EIG_RESIDUAL_RTOL * (abs(lam) + 1.0) * np.linalg.norm(rights[:, i]):
            raise SpectralError(
                f"near-defective Jacobian: eigenvector residual {resid:.3e} "
                f"for eigenvalue {lam}")
    return Spectrum(eigenvalues=evals, right_eigenvectors=rights,
                    left_eigenvectors=lefts, jacobian=J)


def _canonical(normal, offset):
    """Unit-norm normal with the first nonzero coefficient positive."""
    norm = np.linalg.norm(normal)
    normal = normal / norm
    offset = offset / norm
    for c in normal:
        if abs(c) > 1e-14:
            if c < 0:
                normal, offset = -normal, -offset
            break
    return normal, offset


@dataclass(frozen=True)
class Hyperplane:
    """Invariant hyperplane normal . x + offset = 0 through a fixed point.

    Stored canonically (unit normal, first nonzero coefficient positive);
    `eigenvalue` is the real eigenvalue whose left eigenvector is the
    normal, and `display` reproduces the publication normalizations.
    """

    normal: np.ndarray
    offset: float
    base_point: object            # FixedPoint
    eigenvalue: float
    fast_eigenvalue: complex      # largest-|Re| eigenvalue at the base point

    def value(self, x):
        """normal . x + offset at a state (n,) or a batch (n, npts)."""
        rows = np.ascontiguousarray(np.moveaxis(np.asarray(x, dtype=float), 0, -1))
        return vecdot(rows, self.normal) + self.offset

    def display(self, normalization="unit"):
        """Coefficients (c_1..c_n, offset) under a display normalization.

        "unit": the canonical form.  "last1": scaled so the last coefficient
        is 1 (3-D circuit convention).  "lambda-ty": eigenvalue times the
        unit left eigenvector signed so its largest entry is negative (4/5-D
        convention).
        """
        c = np.append(self.normal, self.offset)
        if normalization == "unit":
            return c
        if normalization == "last1":
            if self.normal[-1] == 0:
                raise ValueError("last coefficient is zero; cannot normalize to 1")
            return c / self.normal[-1]
        if normalization == "lambda-ty":
            # eigenvalue times the unit eigenvector whose largest entry is negative
            idx = int(np.argmax(np.abs(self.normal)))
            sigma = -1.0 if self.normal[idx] > 0 else 1.0
            return (self.eigenvalue * sigma) * c
        raise ValueError(f"unknown normalization {normalization!r}")

    def equation(self, normalization="unit"):
        coeffs = self.display(normalization)
        terms = []
        for i, c in enumerate(coeffs[:-1]):
            s = f"{abs(c):.8g}*x{i + 1}"
            terms.append(("- " if c < 0 else ("+ " if terms else "")) + s)
        off = coeffs[-1]
        terms.append(("- " if off < 0 else "+ ") + f"{abs(off):.8g}")
        return " ".join(terms) + " = 0"

    def csv_row(self):
        return list(self.normal) + [self.offset]


def tls_hyperplane(model, fp):
    """Invariant hyperplane of the tangent linear system at a fixed point.

    normal = left eigenvector of the dominant real eigenvalue in the fixed
    point's region, offset = -normal . fp (the plane passes through the
    point).  Raises SpectralError when the Jacobian has no real eigenvalue.
    """
    spec = spectrum_at(model, fp.location, region=fp.region)
    i = spec.dominant_real()
    lam = float(spec.eigenvalues[i].real)
    t_y = np.real(spec.left_eigenvectors[:, i])
    normal, offset = _canonical(t_y, -float(t_y @ fp.location))
    return Hyperplane(normal=normal, offset=offset, base_point=fp,
                      eigenvalue=lam, fast_eigenvalue=complex(spec.eigenvalues[0]))


def darboux_check_plane(model, plane, samples=200, seed=0):
    """Residual of L_V Pi = lambda * Pi at random points of the plane's region.

    Zero (to rounding) throughout the linear region of a PWL model; of at
    most 50 * samples box draws (`region_samples`), those that classify into
    a different region are excluded with a warning.  When every draw is
    excluded, `max` and `mean` are NaN and `count` is 0.
    """
    rng = np.random.default_rng(seed)
    region = plane.base_point.region
    box = region_box(model, region, center=plane.base_point.location)
    x, draws = region_samples(model, rng, samples, [box], (region,), max_draws=50 * samples)
    excluded = draws - x.shape[1]
    if excluded:
        warnings.warn(f"{excluded} region-straddling samples excluded")
    if not x.shape[1]:
        return {"max": float("nan"), "mean": float("nan"), "count": 0,
                "excluded": int(excluded)}
    v = np.ascontiguousarray(model.velocity(x).T)
    lam_pi = plane.eigenvalue * plane.value(x)
    residuals = (np.abs(vecdot(v, plane.normal) - lam_pi)
                 / (1.0 + np.abs(lam_pi) + vecnorm(v)))
    return {"max": float(residuals.max()), "mean": float(residuals.mean()),
            "count": int(len(residuals)), "excluded": int(excluded)}


def _realized_slow_basis(spectrum, skip_index):
    """Real basis of the span of all eigenvectors except `skip_index`.

    Complex-conjugate pairs are replaced by (Re, Im) of one member, the
    standard real realization of their invariant subspace.
    """
    n = len(spectrum.eigenvalues)
    basis = []
    handled = set()
    for i in range(n):
        if i == skip_index or i in handled:
            continue
        lam = spectrum.eigenvalues[i]
        vec = spectrum.right_eigenvectors[:, i]
        if spectrum.is_real(i):
            basis.append(np.real(vec))
            continue
        # find the conjugate partner
        partner = None
        for j in range(n):
            if j in (i, skip_index) or j in handled:
                continue
            if abs(spectrum.eigenvalues[j] - np.conj(lam)) <= _REAL_RTOL * (1.0 + abs(lam)):
                partner = j
                break
        if partner is None:
            raise SpectralError(
                "complex eigenvalue without a conjugate partner in the slow set")
        handled.update({i, partner})
        basis.append(np.real(vec))
        basis.append(np.imag(vec))
    return np.array(basis)


def coplanarity_equivalence(model, x, region=None):
    """Residual pair for the coplanarity and orthogonality slow-manifold forms.

    r1 = |V . (Y_2 ^ ... ^ Y_n)| over the realized slow right eigenvectors,
    r2 = |V . tY_1| against the fast left eigenvector; the two vanish
    together because the slow wedge is parallel to the fast left
    eigenvector.  The fast direction is the dominant real eigenvalue (the
    hyperplane-constructing one).  Returns the residuals with their scales
    and the parallelism defect 1 - |cos| of the two normals.

    Accepts a state (n,) or a batch (n, npts); each value is then a float
    or an (npts,) array.  Each point uses the spectrum of its own Jacobian
    (`spectrum_at`): points whose Jacobians are bitwise equal (all of one
    PWL region) share one decomposition, and a batch equals its points
    taken one at a time bit for bit.
    """
    x = np.asarray(x, dtype=float)
    n = model.dim
    v = np.ascontiguousarray(model.velocity(x, region=region).reshape(n, -1).T)
    J = np.ascontiguousarray(model.jacobian(x, region=region).reshape(n * n, -1).T)
    _, first, inverse = np.unique(J.view(np.uint64), axis=0, return_index=True,
                                  return_inverse=True)
    inverse = inverse.ravel()
    # decomposed in point order, so the first failing point raises
    groups = [(_spectrum(J[first[g]].reshape(n, n)), inverse == g)
              for g in np.argsort(first)]
    out = np.empty((5, len(v)))
    for spec, idx in groups:
        i_fast = spec.dominant_real()
        slow = _realized_slow_basis(spec, i_fast)
        if slow.shape[0] != n - 1:
            raise SpectralError("eigenvalue multiplicity collapse: slow basis incomplete")
        w = wedge(slow)
        # a strided column view, as spectra give it: a dot rounds by its layout
        t_y = np.real(spec.left_eigenvectors[:, i_fast])
        v_norm, w_norm, t_norm = vecnorm(v[idx]), vecnorm(w), vecnorm(t_y)
        out[0, idx] = np.abs(vecdot(v[idx], w))
        out[1, idx] = np.abs(vecdot(v[idx], t_y))
        out[2, idx] = v_norm * w_norm
        out[3, idx] = v_norm * t_norm
        out[4, idx] = 1.0 - abs(w @ t_y) / (w_norm * t_norm)
    out = out.reshape((5,) + x.shape[1:])
    keys = ("r1", "r2", "scale1", "scale2", "parallelism_defect")
    return {k: out[i][()] for i, k in enumerate(keys)}


@dataclass(frozen=True)
class HypercoplanarityResult:
    value_det: float
    value_wedge: float
    agreement_residual: float
    scaled_value: float


def hypercoplanarity_check(model, x, region=None):
    """phi two ways: determinant of the stack vs V . (wedge of the rest).

    The two are the same multilinear expression, so they must agree to
    rounding; the agreement residual is scaled by the stack's Hadamard bound
    (the product of derivative norms), the common magnitude of both routes'
    rounding, so it stays meaningful near phi's zero set.  Both values
    vanish on the TLS plane of the region, where the stack vectors are
    hypercoplanar (spanned by the slow eigenbasis).  A stack with a zero
    derivative scores 0; a non-finite stack gives non-finite values.

    Accepts a state (n,) or a batch (n, npts); the fields are then floats
    or (npts,) arrays, equal bit for bit to the single-point values.
    """
    x = np.asarray(x, dtype=float)
    n = model.dim
    stack = derivative_stack(model, x, n, region=region)
    value_det = det_scaled(stack.matrix())
    # contiguous rows, as a single point's stack has them
    rows = np.ascontiguousarray(np.moveaxis(stack.derivs, -1, 0) if x.ndim > 1 else stack.derivs)
    value_wedge = vecdot(rows[..., 0, :], wedge(rows[..., 1:, :]))
    scale = np.prod(np.linalg.norm(stack.derivs, axis=1), axis=0)

    def scaled(value):
        return np.divide(value, scale, out=np.zeros_like(scale), where=scale != 0.0)

    fields = (value_det, value_wedge, scaled(np.abs(value_det - value_wedge)),
              scaled(np.abs(value_det)))
    if x.ndim == 1:
        fields = tuple(float(f) for f in fields)
    return HypercoplanarityResult(*fields)
