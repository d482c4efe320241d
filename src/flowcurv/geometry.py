"""Orthogonalization, generalized curvatures, and determinant identities.

The derivative stack of a trajectory orthogonalizes into a moving frame
(modified Gram-Schmidt with two passes, no normalization: "twice is
enough", Giraud, Langou & Rozloznik 2005) whose norms give the curvatures
kappa_i = |u_{i+1}| / (|u_1| |u_i|).  The same frame underlies the
determinant identities used throughout: |det| equals the product of the
frame norms, det is multiplicative under a matrix map of all columns, and
the column-wise sum of single-column maps picks up a trace factor.  All of
them take one stack or a batch, equal bit for bit to one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateStackError", "OrthoBasis", "CurvatureSet",
    "gram_schmidt", "curvatures", "curvature1_3d", "torsion_3d", "wedge",
    "vecdot", "vecnorm", "det_scaled",
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

    The batch axes move last once, and each column is divided by its scale
    straight into the extended-precision work array, in `_lu_det`'s
    points-last layout.  `DerivStack.matrix` is a transposed view of a
    stack's (order, n, npts) derivatives, which is that layout already, so
    the only copy a stack's columns take is that division.
    """
    m = np.asarray(matrix)
    if not np.issubdtype(m.dtype, np.floating):
        m = m.astype(float)
    n, cols = m.shape[-2:]
    if cols < n:
        raise ValueError(f"a {n}-row determinant needs at least {n} columns, got {cols}")
    columns = np.moveaxis(m, (-1, -2), (0, 1))  # (cols, n, ...)
    # an overflowing column gives a non-finite determinant without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(columns.astype(float), axis=1, keepdims=True)
        safe = np.where(norms > 0.0, norms, 1.0)
        scale = np.exp2(np.rint(np.log2(safe)))
        work = np.empty(columns.shape, dtype=np.longdouble)
        np.divide(columns, scale.astype(m.dtype), out=work)  # rounds in m's dtype, then widens
        dets = _lu_det(work.reshape((cols, n, -1))).reshape((cols - n + 1,) + m.shape[:-2])
        scale = scale[:, 0]
        out = np.moveaxis((dets * (np.prod(scale[:n - 1], axis=0) * scale[n - 1:])).astype(float),
                          0, -1)
    if cols == n:
        out = out[..., 0]
    return float(out) if out.ndim == 0 else out


def _lu_det(a):
    """Batched partial-pivot LU determinants of bordered matrices, points last.

    `a` has shape (cols, n, npts) with cols = n - 1 + m, and a[j, i, p] is
    entry (i, j) of matrix p; it is overwritten.  The result, shape
    (m, npts), holds the determinant of the first n - 1 columns completed
    by each of the m trailing columns.  Pivots are searched only in the
    first n - 1 columns, so one elimination serves every completion; m = 1
    is the square case.  Each step gathers every point's pivot row with one
    index pair, moves row k into its place, and updates only the entries
    right of the pivot column (the eliminated column is never read again),
    so every elementwise operation runs over a contiguous run of points.
    """
    cols, n, npts = a.shape
    points = np.arange(npts)
    det = np.ones(npts, dtype=a.dtype)
    products = np.empty((cols - 1, n - 1, npts), dtype=a.dtype)
    for k in range(n - 1):
        piv = k + np.argmax(np.abs(a[k, k:]), axis=0)
        swapped = piv != k
        det[swapped] = -det[swapped]
        row = a[k:, piv, points]  # each point's pivot row, columns k..
        a[k:, piv, points] = a[k:, k]
        pivot = row[0]
        det = det * pivot
        divisor = np.where(pivot == 0.0, 1.0, pivot)
        factor = a[k, k + 1:] / divisor
        a[k + 1:, k + 1:] -= np.multiply(factor, row[1:, None],
                                         out=products[:cols - k - 1, :n - k - 1])
    # the last row is each completion's final pivot
    return det * a[n - 1:, n - 1]

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

    vectors: np.ndarray  # (..., m, n)
    beta: np.ndarray     # (..., m, m)

    @property
    def norms(self):
        return np.linalg.norm(self.vectors, axis=-1)


def gram_schmidt(vectors):
    """Orthogonalize an ordered stack (m, n), or a batch (..., m, n), of vectors.

    Modified Gram-Schmidt with exactly two passes per vector, which leaves
    the frame orthogonal to working precision (Giraud, Langou & Rozloznik
    2005).  A vector whose remainder after either pass is at most
    DEGENERACY_RTOL of its input norm, or not finite, is degenerate: a
    single stack raises `DegenerateStackError`, a batch gets NaN vectors
    and beta for that stack.
    """
    v = np.asarray(vectors, dtype=float)
    if v.ndim < 2:
        raise ValueError("expected a stack (m, n) of vectors or a batch (..., m, n)")
    m, n = v.shape[-2:]
    if m > n:
        raise ValueError(f"cannot orthogonalize {m} vectors in dimension {n}")
    u = v.reshape((-1, m, n)).copy()
    beta = np.tile(np.eye(m), (u.shape[0], 1, 1))
    # an overflowing stack turns NaN (and counts as degenerate) without warnings
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        input_norms = vecnorm(u)
        for i in range(m):
            for _ in range(2):
                for j in range(i):
                    coeff = vecdot(u[:, j], u[:, i]) / vecdot(u[:, j], u[:, j])
                    u[:, i] -= coeff[:, None] * u[:, j]
                    beta[:, i] -= coeff[:, None] * beta[:, j]
                norm = vecnorm(u[:, i])
                lost = ~(norm > DEGENERACY_RTOL * input_norms[:, i])
                if v.ndim == 2 and lost[0]:
                    raise DegenerateStackError(i, norm[0], input_norms[0, i])
                u[lost] = beta[lost] = np.nan
    return OrthoBasis(vectors=u.reshape(v.shape), beta=beta.reshape(v.shape[:-1] + (m,)))


@dataclass(frozen=True)
class CurvatureSet:
    """Curvatures kappa_1..kappa_{m-1} of a trajectory stack (batch axes in front).

    `kappas` are the nonnegative norm ratios; for three-vector stacks in R^3
    the last curvature is additionally reported signed in `torsion` because
    the manifold condition carries the sign of the triple product.  Both are
    NaN for a degenerate stack of a batch.
    """

    kappas: np.ndarray
    torsion: float | np.ndarray | None = None


def curvatures(stack):
    """Curvatures from a DerivStack (one point or a batch) or an array (..., m, n)."""
    if hasattr(stack, "derivs"):  # a batched DerivStack has its points last
        stack = np.moveaxis(stack.derivs, -1, 0) if stack.derivs.ndim == 3 else stack.derivs
    vectors = np.ascontiguousarray(stack, dtype=float)
    norms = gram_schmidt(vectors).norms
    kappas = norms[..., 1:] / (norms[..., :1] * norms[..., :-1])
    torsion = None
    if vectors.shape[-2:] == (3, 3):
        torsion = np.where(np.isnan(kappas[..., -1]), np.nan, torsion_3d(
            vectors[..., 0, :], vectors[..., 1, :], vectors[..., 2, :]))[()]
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
    """Signed torsion of a space curve: -gamma_dot . (gamma ^ v) / |gamma ^ v|^2,
    of vectors (3,) or batches (..., 3) (NaN in a batch where undefined)."""
    v = np.asarray(v, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cross = np.cross(gamma, v)
        denom = vecdot(cross, cross)
        if np.ndim(denom) == 0 and denom == 0.0:
            raise ValueError("torsion is undefined where the first curvature vanishes")
        return -vecdot(gamma_dot, cross) / denom


def wedge(vectors):
    """Generalized cross product of n-1 vectors in R^n.

    Returns w such that v . w = det([v, a_1, ..., a_{n-1}]) (columns) for
    every v; for n = 3 this is the ordinary cross product a_1 x a_2.
    Accepts one set (n-1, n) or a batch (..., n-1, n) of them; each
    minor's determinant is the same LAPACK call either way, so a batched
    wedge equals the single-set one bit for bit.
    """
    a = np.asarray(vectors, dtype=float)
    k, n = a.shape[-2:]
    if k != n - 1:
        raise ValueError(f"wedge of {k} vectors needs dimension {k + 1}, got {n}")
    cols = np.swapaxes(a, -1, -2)  # (..., n, n-1)
    w = np.empty(a.shape[:-2] + (n,))
    for i in range(n):
        minor = np.delete(cols, i, axis=-2)
        w[..., i] = (-1.0) ** i * np.linalg.det(minor)
    return w


def vecdot(a, b):
    """a . b over the last axis, broadcast over the leading ones.

    Entry i is the 1-D `a[i] @ b[i]` bit for bit: each product is one BLAS
    dot on the rows as they lie in memory.  The dot's rounding depends on
    the rows' strides, so pass the layout the single-point code has (a
    transposed batch of contiguous vectors is not the same computation).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0][()]


def vecnorm(a):
    """Euclidean norm over the last axis, bit for bit `np.linalg.norm` of each vector."""
    a = np.ascontiguousarray(a, dtype=float)  # as norm ravels a 1-D view
    return np.sqrt(vecdot(a, a))


def det_norm_product_residual(stack):
    """| |det| - prod |u_i| | / max(1, prod |u_i|) for square stacks; prod = 0 if degenerate."""
    m = np.asarray(stack, dtype=float)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError("identity requires a square stack")
    det = np.abs(np.linalg.det(m))
    prod = np.prod(gram_schmidt(m.reshape((-1,) + m.shape[-2:])).norms, axis=-1)
    prod = np.where(np.isnan(prod), 0.0, prod).reshape(det.shape)
    return (np.abs(det - prod) / np.maximum(1.0, prod))[()]


def det_multiplicativity_residual(J, a):
    """Residual of det(J a_1, ..., J a_n) = det(J) det(a_1, ..., a_n), batched over (..., n, n)."""
    J = np.asarray(J, dtype=float)
    cols = np.swapaxes(np.asarray(a, dtype=float), -1, -2)
    lhs = np.linalg.det(np.swapaxes(J @ cols, -1, -2))
    rhs = np.linalg.det(J) * np.linalg.det(cols)
    return np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))


def trace_expansion_residual(J, a):
    """Residual of sum_k det(a_1, .., J a_k, .., a_n) = Tr(J) det(a_1, .., a_n), batched."""
    J = np.asarray(J, dtype=float)
    a = np.asarray(a, dtype=float)
    cols = np.swapaxes(a, -1, -2)
    lhs = 0.0
    for k in range(a.shape[-1]):
        mapped = cols.copy()
        mapped[..., k] = (J @ a[..., k, :, None])[..., 0]
        lhs = lhs + np.linalg.det(mapped)
    rhs = np.trace(J, axis1=-2, axis2=-1) * np.linalg.det(cols)
    return np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))
