"""Exact trajectory derivatives from Taylor coefficients (jets) in time.

The state's Taylor coefficients c_k along the trajectory through a point
follow the recurrence  c_{k+1} = (rhs coefficient k) / (k + 1).  Each
expression node of the rhs gives its coefficient k from its children's
coefficients 0..k (`expr.Node.taylor`), so every time derivative of the
solution comes out exact up to rounding: no truncation error, no symbolic
differentiation.

Coefficients are scalars for a single point or arrays of shape ``(npts,)``
for a batch of points evaluated together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import TaylorMemo

__all__ = ["DerivStack", "derivative_stack", "MAX_ORDER"]

# The kernel's deepest use is order n + 1 (`manifold_sample`), so a model
# config may have at most MAX_ORDER - 1 = 11 coordinates; the cap keeps
# callers from allocating unbounded coefficient arrays.
MAX_ORDER = 12


@dataclass(frozen=True)
class DerivStack:
    """Time derivatives d_k = X^(k) of the trajectory through one point.

    ``derivs[k - 1]`` is the k-th derivative; shape ``(order, n)`` for a
    single point or ``(order, n, npts)`` for a batch.  ``derivative_stack``
    returns it as a view of its coefficient array, rows 1..order scaled by
    k! in place, so the stack takes no array beyond that one, which the
    caller may own and reuse (its ``out``).
    """

    derivs: np.ndarray
    region: object = field(default=None, compare=False)

    def matrix(self, count=None):
        """First `count` derivatives (all by default) as determinant-ready
        column matrices.

        Returns shape ``(n, count)`` (or ``(npts, n, count)`` for batches)
        with derivative k in column k.
        """
        m = self.derivs[:count]  # (count, n) or (count, n, npts)
        if m.ndim == 2:
            return m.T
        return np.transpose(m, (2, 1, 0))

    def hadamard_scaled(self, value):
        """|value| over the product of the derivative norms (Hadamard scale);
        0.0 for a stack with a zero derivative, NaN where value or scale is
        not finite, so an overflowing stack never reads as a zero."""
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.prod(np.linalg.norm(self.derivs, axis=1), axis=0)
            value = np.abs(value)
            scaled = np.divide(value, scale, out=np.zeros_like(scale), where=scale != 0.0)
        return np.where(np.isfinite(value) & np.isfinite(scale), scaled, np.nan)[()]


def derivative_stack(model, x, order, region=None, out=None):
    """Compute d_1..d_order, the exact time derivatives of the flow at `x`.

    Uses the Taylor-coefficient recurrence: with X(t) = sum c_k t^k the ODE
    gives c_{k+1} = (rhs(X))_k / (k + 1), so coefficient k + 1 needs
    coefficient k of every rhs node, each computed once from the memoized
    lower coefficients of its children.  Derivatives are then d_k = k! c_k.

    For piecewise-linear models the region is classified once at `x` (or
    pinned by the caller) and frozen for the whole stack.

    The coefficients c_0..c_order fill `out` when it is given, an array of
    shape ``(order + 1,) + x.shape`` and x's dtype (a view of a larger
    buffer will do), or a new array otherwise; every entry is written before
    it is read.  The stack's ``derivs`` is ``out[1:]``.  An `out` of another
    shape or dtype raises ``ValueError``: it is never cast.
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError("order must be a positive integer")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds cap {MAX_ORDER}")
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite state")
    if x.ndim not in (1, 2) or x.shape[0] != model.dim:
        raise ValueError(f"state must have shape ({model.dim},) or ({model.dim}, npts)")
    if region is None and model.pwl_args:
        region = model.classify(x.astype(float))

    # coeffs[k] holds c_k for every component (and batch point); the dtype
    # follows the input, so extended-precision states propagate
    shape = (order + 1,) + x.shape
    if out is None:
        coeffs = np.empty(shape, dtype=x.dtype)
    elif out.shape != shape or out.dtype != x.dtype:
        raise ValueError(f"out must have shape {shape} and dtype {x.dtype}, "
                         f"got {out.shape} and {out.dtype}")
    else:
        coeffs = out
    coeffs[0] = x
    memo = TaylorMemo(coeffs, region)
    # an overflowing state gives non-finite derivatives, without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(order):
            for i, e in enumerate(model.rhs_exprs):
                coeffs[k + 1, i] = memo.series(e, k)[k] / (k + 1)
            # a single state's coefficients are scalars, not worth freeing,
            # and the memo goes with the last order
            if x.ndim > 1 and k < order - 1:
                memo.release()

        # d_k = k! c_k, scaled in place, so the stack holds no second array
        fact = 1.0
        for k in range(1, order + 1):
            fact *= k
            coeffs[k] *= fact
    return DerivStack(derivs=coeffs[1:], region=region)
