"""Copies of earlier library code that several test modules pin bits against.

`reference_lu_det` and `reference_det_scaled` are the determinant kernel as
it stood before the elimination moved its batch axis last: a (npts, n,
cols) LU that copies pivot rows with three fancy-indexed assignments and
updates the eliminated column too.  On square matrices they are also the
square-only elimination that the bordered one generalized, bit for bit.
"""

import numpy as np


def reference_lu_det(a):
    """Determinants of bordered matrices (..., n, n - 1 + m), shape (..., m).

    Completion j is the determinant of the first n - 1 columns and column
    n - 1 + j; pivots are searched in the first n - 1 columns only.
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
    return (det[:, None] * a[:, n - 1, n - 1:]).reshape(batch + (cols - n + 1,))


def reference_det_scaled(matrix):
    """`geometry.det_scaled` of matrices (..., n, n - 1 + m), always shape (..., m)."""
    m = np.asarray(matrix)
    n = m.shape[-2]
    norms = np.linalg.norm(m.astype(float), axis=-2, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    scale = np.exp2(np.rint(np.log2(safe)))
    dets = reference_lu_det((m / scale.astype(m.dtype)).astype(np.longdouble))
    scale = scale[..., 0, :]
    return (dets * (np.prod(scale[..., :n - 1], axis=-1)[..., None]
                    * scale[..., n - 1:])).astype(float)
