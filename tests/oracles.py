"""Copies of earlier library code that several test modules pin bits against.

`reference_eval` is the recursive value walk that every expression node
class carried as its own `eval` before a value became the node's Taylor
coefficient 0, and `reference_pwl_value` the pwl branch arithmetic it and
the kernel oracle share.

`reference_lu_det` and `reference_det_scaled` are the determinant kernel as
it stood before the elimination moved its batch axis last: a (npts, n,
cols) LU that copies pivot rows with three fancy-indexed assignments and
updates the eliminated column too.  On square matrices they are also the
square-only elimination that the bordered one generalized, bit for bit.
"""

import numpy as np

from flowcurv import expr as ex


def reference_pwl_value(node, u, branch, j):
    """Coefficient j of pwl node `node` on `branch` (a label or per-point
    labels) at argument coefficient u."""
    a, b = node.a, node.b
    one, offset = (1.0, a) if j == 0 else (0.0, 0.0)
    if isinstance(branch, str):
        if branch == "mid":
            return a * u
        if branch == "pos":
            return b * (u - one) + offset
        return b * (u + one) - offset
    return np.where(branch == "mid", a * u,
                    np.where(branch == "pos", b * (u - one) + offset,
                             b * (u + one) - offset))


def reference_eval(node, state, region=None):
    """The value of `node` at `state`, one recursive call per parent that
    reads a node, each node class's arithmetic written out here."""
    def ev(child):
        return reference_eval(child, state, region)

    if isinstance(node, ex.Const):
        return node.value
    if isinstance(node, ex.Var):
        return state[node.index]
    if isinstance(node, ex.Add):
        return ev(node.left) + ev(node.right)
    if isinstance(node, ex.Sub):
        return ev(node.left) - ev(node.right)
    if isinstance(node, ex.Mul):
        left = ev(node.left)
        # a square (a power's shared node) walks its operand once
        return left * (left if node.right is node.left else ev(node.right))
    if isinstance(node, ex.Neg):
        return -ev(node.arg)
    if isinstance(node, ex.Pow):
        return ev(node.tree)
    if isinstance(node, ex.Pwl):
        u = ev(node.arg)
        return reference_pwl_value(node, u, ex._resolve_branch(node.node_id, u, region), 0)
    if isinstance(node, ex.PwlSlope):
        u = ev(node.pwl.arg)
        # the branch's first Taylor coefficient per unit step of its argument
        branch = ex._resolve_branch(node.pwl.node_id, u, region)
        slope = reference_pwl_value(node.pwl, 1.0, branch, 1)
        return slope if not isinstance(u, np.ndarray) else np.broadcast_to(slope, u.shape).copy()
    raise TypeError(f"no reference value for {type(node).__name__}")


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
