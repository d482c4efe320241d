"""Orthogonalization, generalized curvatures, and determinant identities.

The derivative stack of a trajectory orthogonalizes (Gram-Schmidt, no
normalization) into a moving frame whose norms give the curvatures
kappa_i = |u_{i+1}| / (|u_1| |u_i|).  The same frame underlies the
determinant identities used throughout: |det| equals the product of the
frame norms, det is multiplicative under a matrix map of all columns, and
the column-wise sum of single-column maps picks up a trace factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateStackError", "OrthoBasis", "CurvatureSet",
    "gram_schmidt", "curvatures", "curvature1_3d", "torsion_3d", "wedge",
    "det_scaled",
    "det_norm_product_residual", "det_multiplicativity_residual", "trace_expansion_residual",
]


def det_scaled(matrix):
    """Determinant via partial-pivot LU with power-of-two column equilibration.

    Columns are scaled to unit magnitude before factorization (the exact
    power-of-two scales multiply back losslessly) and the elimination runs
    in extended precision where the platform provides it.  Derivative
    stacks of stiff systems have columns that are both huge and nearly
    parallel; this keeps the Darboux cancellation L_V phi - Tr(J) phi at
    the identity's rounding floor instead of the raw double one.

    A square matrix (..., n, n) gives its determinant.  A bordered matrix
    (..., n, n - 1 + m) with m > 1 gives shape (..., m): the determinant of
    its first n - 1 columns completed by each trailing column in turn, all
    from one elimination, each bit-identical to the square call on that
    completion.  phi and L_V phi are the two completions of d_1..d_{n-1}.
    """
    m = np.asarray(matrix)
    if not np.issubdtype(m.dtype, np.floating):
        m = m.astype(float)
    n, cols = m.shape[-2:]
    if cols < n:
        raise ValueError(f"a {n}-row determinant needs at least {n} columns, got {cols}")
    norms = np.linalg.norm(m.astype(float), axis=-2, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    scale = np.exp2(np.rint(np.log2(safe)))
    dets = _lu_det((m / scale.astype(m.dtype)).astype(np.longdouble))
    scale = scale[..., 0, :]
    out = (dets * (np.prod(scale[..., :n - 1], axis=-1)[..., None]
                   * scale[..., n - 1:])).astype(float)
    if cols == n:
        out = out[..., 0]
    return float(out) if out.ndim == 0 else out


def _lu_det(a):
    """Batched partial-pivot LU determinants of bordered matrices.

    `a` has shape (..., n, n - 1 + m); the result, shape (..., m), holds
    the determinant of the first n - 1 columns completed by each of the m
    trailing columns.  Pivots are searched only in the first n - 1 columns,
    so one elimination serves every completion; m = 1 is the square case.
    """
    batch = a.shape[:-2]
    n, cols = a.shape[-2:]
    a = a.reshape((-1, n, cols)).copy()
    k_pts = a.shape[0]
    rows = np.arange(k_pts)
    det = np.ones(k_pts, dtype=a.dtype)
    for k in range(n - 1):
        piv = k + np.argmax(np.abs(a[:, k:, k]), axis=1)
        swapped = piv != k
        det[swapped] = -det[swapped]
        tmp = a[rows, k, :].copy()
        a[rows, k, :] = a[rows, piv, :]
        a[rows, piv, :] = tmp
        pivot = a[:, k, k].copy()
        det = det * pivot
        divisor = np.where(pivot == 0.0, 1.0, pivot)
        factor = a[:, k + 1:, k] / divisor[:, None]
        a[:, k + 1:, k:] = a[:, k + 1:, k:] - factor[:, :, None] * a[:, k, k:][:, None, :]
    # the last row is each completion's final pivot
    return (det[:, None] * a[:, n - 1, n - 1:]).reshape(batch + (cols - n + 1,))

# Relative rank-loss threshold: below the rounding floor of double arithmetic
# after O(n^2) operations.
DEGENERACY_RTOL = 1e-12


class DegenerateStackError(ValueError):
    """A stack vector lost (almost) all of its norm to the preceding span."""

    def __init__(self, index, norm, input_norm):
        self.index = index
        super().__init__(
            f"vector {index + 1} is linearly dependent on its predecessors "
            f"(|u| = {norm:.3e} vs input {input_norm:.3e})")


@dataclass(frozen=True)
class OrthoBasis:
    """Unnormalized orthogonal frame u_1..u_m with expansion coefficients.

    ``beta`` is lower triangular with unit diagonal: u_i = sum_j beta[i, j] *
    input_j, so u_1 is the first input exactly.
    """

    vectors: np.ndarray  # (m, n)
    beta: np.ndarray     # (m, m)

    @property
    def norms(self):
        return np.linalg.norm(self.vectors, axis=1)


def gram_schmidt(vectors):
    """Orthogonalize an ordered stack of linearly independent vectors.

    Modified Gram-Schmidt with re-orthogonalization passes (same basis as
    the classical projection formula, better rounding); passes repeat until
    the new vector is orthogonal to the frame at working precision, so the
    returned basis honors its contract even just above the rank-loss
    threshold.  Raises `DegenerateStackError` when a vector's orthogonal
    remainder falls below DEGENERACY_RTOL of its input norm (or never
    stabilizes, which is the same thing in noise).
    """
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2:
        raise ValueError("expected a 2-D stack of vectors")
    m, n = v.shape
    if m > n:
        raise ValueError(f"cannot orthogonalize {m} vectors in dimension {n}")
    u = v.copy()
    beta = np.eye(m)
    for i in range(m):
        input_norm = np.linalg.norm(v[i])
        for sweep in range(8):
            for j in range(i):
                denom = u[j] @ u[j]
                coeff = (u[j] @ u[i]) / denom
                u[i] = u[i] - coeff * u[j]
                beta[i] = beta[i] - coeff * beta[j]
            norm = np.linalg.norm(u[i])
            if norm <= DEGENERACY_RTOL * input_norm:
                raise DegenerateStackError(i, norm, input_norm)
            if sweep > 0 and all(
                    abs(u[j] @ u[i]) <= 1e-13 * np.linalg.norm(u[j]) * norm
                    for j in range(i)):
                break
        else:
            raise DegenerateStackError(i, np.linalg.norm(u[i]), input_norm)
    return OrthoBasis(vectors=u, beta=beta)


@dataclass(frozen=True)
class CurvatureSet:
    """Curvatures kappa_1..kappa_{m-1} of a trajectory stack.

    `kappas` are the nonnegative norm ratios; for three-vector stacks in R^3
    the last curvature is additionally reported signed in `torsion` because
    the manifold condition carries the sign of the triple product.
    """

    kappas: np.ndarray
    torsion: float | None = None


def curvatures(stack):
    """Curvatures from a DerivStack or a plain (m, n) array of derivatives."""
    vectors = stack.derivs if hasattr(stack, "derivs") else np.asarray(stack, dtype=float)
    basis = gram_schmidt(vectors)
    norms = basis.norms
    kappas = norms[1:] / (norms[0] * norms[:-1])
    torsion = None
    if vectors.shape == (3, 3):
        torsion = torsion_3d(vectors[0], vectors[1], vectors[2])
    return CurvatureSet(kappas=kappas, torsion=torsion)


def curvature1_3d(v, gamma):
    """First curvature of a space curve: |gamma ^ v| / |v|^3."""
    v = np.asarray(v, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    speed = np.linalg.norm(v)
    if speed == 0.0:
        raise ValueError("curvature is undefined at a fixed point (zero velocity)")
    return np.linalg.norm(np.cross(gamma, v)) / speed ** 3


def torsion_3d(v, gamma, gamma_dot):
    """Signed torsion of a space curve: -gamma_dot . (gamma ^ v) / |gamma ^ v|^2."""
    v = np.asarray(v, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    gamma_dot = np.asarray(gamma_dot, dtype=float)
    cross = np.cross(gamma, v)
    denom = cross @ cross
    if denom == 0.0:
        raise ValueError("torsion is undefined where the first curvature vanishes")
    return -(gamma_dot @ cross) / denom


def wedge(vectors):
    """Generalized cross product of n-1 vectors in R^n.

    Returns w such that v . w = det([v, a_1, ..., a_{n-1}]) (columns) for
    every v; for n = 3 this is the ordinary cross product a_1 x a_2.
    """
    a = np.asarray(vectors, dtype=float)
    k, n = a.shape
    if k != n - 1:
        raise ValueError(f"wedge of {k} vectors needs dimension {k + 1}, got {n}")
    cols = a.T  # (n, n-1)
    w = np.empty(n)
    for i in range(n):
        minor = np.delete(cols, i, axis=0)
        w[i] = (-1.0) ** i * np.linalg.det(minor)
    return w


def det_norm_product_residual(stack):
    """| |det| - prod |u_i| | / max(1, prod |u_i|) for a square stack."""
    m = np.asarray(stack, dtype=float)
    if m.shape[0] != m.shape[1]:
        raise ValueError("identity requires a square stack")
    det = abs(np.linalg.det(m))
    try:
        prod = float(np.prod(gram_schmidt(m).norms))
    except DegenerateStackError:
        prod = 0.0
    return abs(det - prod) / max(1.0, prod)


def det_multiplicativity_residual(J, a):
    """Residual of det(J a_1, ..., J a_n) = det(J) det(a_1, ..., a_n)."""
    J = np.asarray(J, dtype=float)
    a = np.asarray(a, dtype=float)
    lhs = np.linalg.det((J @ a.T).T)
    rhs = np.linalg.det(J) * np.linalg.det(a.T)
    return abs(lhs - rhs) / max(1.0, abs(rhs))


def trace_expansion_residual(J, a):
    """Residual of sum_k det(a_1, .., J a_k, .., a_n) = Tr(J) det(a_1, .., a_n)."""
    J = np.asarray(J, dtype=float)
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    lhs = 0.0
    for k in range(n):
        cols = a.T.copy()
        cols[:, k] = J @ a[k]
        lhs += np.linalg.det(cols)
    rhs = np.trace(J) * np.linalg.det(a.T)
    return abs(lhs - rhs) / max(1.0, abs(rhs))
