"""Gram-Schmidt frame, curvatures, and the determinant identities."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowcurv import (DegenerateStackError, curvature1_3d, curvatures,
                      gram_schmidt, det_norm_product_residual,
                      det_multiplicativity_residual, trace_expansion_residual,
                      torsion_3d, wedge)
from flowcurv.geometry import det_scaled

from conftest import assert_same_bits
from oracles import reference_det_scaled, reference_lu_det


def test_already_orthogonal_unchanged():
    v = np.array([[1.0, 0, 0], [0, 1.0, 0]])
    np.testing.assert_array_equal(gram_schmidt(v), v)


def test_single_projection_removal():
    u = gram_schmidt([[1.0, 0.0], [1.0, 1.0]])
    np.testing.assert_allclose(u, [[1, 0], [0, 1]], atol=1e-15)
    # u_1 is the first input exactly
    np.testing.assert_array_equal(u[0], [1.0, 0.0])


# Two accepted stacks close to rank loss, pinned as examples: a second row
# 1e-10 off the first's span, and the first of the near-degenerate 5x5 stacks
# of test_two_pass_frame_matches_adaptive_oracle_near_degeneracy.
PINNED_1E10 = np.array([[0.0, 1e-10, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 3.0, 0.0],
                        [0.0, 0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0, 0.0],
                        [0.0, 1.0, 1.0, 0.0, 0.0]])
PINNED_NEAR_DEGENERATE = np.array([
    [-1.0512243535238837, -0.3619874275365686, 0.8116259196764026,
     -1.2512308147872921, -1.2758971463181288],
    [1.073779434785835, 1.1801655972128011, 1.7434452131360432,
     -0.17687203551915195, 0.9477546410453541],
    [-2.1513637727938897, -1.0774037145011113, 0.592597565239636,
     -1.9564048128490654, -2.463507732092927],
    [0.7056896051316012, -0.4824733156440579, 0.8190838006113762,
     0.9376138570178348, -1.8092151302399992],
    [0.3320635178804922, -0.0148111279589886, 0.003968281252857634,
     -1.121159225824319, -1.2537742691114708]])


@given(arrays(np.float64, (5, 5), elements=st.floats(-10, 10)))
@example(PINNED_1E10)
@example(PINNED_NEAR_DEGENERATE)
@settings(max_examples=60, deadline=None)
def test_frame_orthogonality(v):
    try:
        u = gram_schmidt(v)
    except DegenerateStackError:
        return
    for i in range(5):
        for j in range(i):
            tol = 1e-10 * np.linalg.norm(u[i]) * np.linalg.norm(u[j])
            assert abs(u[i] @ u[j]) <= tol


def test_prefix_span_invariance():
    rng = np.random.default_rng(4)
    for _ in range(50):
        v = rng.standard_normal((4, 6))
        u = gram_schmidt(v)
        for k in range(1, 5):
            # project each input onto span(u_1..u_k) and reconstruct
            for i in range(k):
                proj = sum((u[j] @ v[i]) / (u[j] @ u[j]) * u[j] for j in range(k))
                assert np.linalg.norm(proj - v[i]) <= 1e-10 * np.linalg.norm(v[i])


def test_rank_deficiency_detected():
    with pytest.raises(DegenerateStackError):
        gram_schmidt([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="cannot orthogonalize"):
        gram_schmidt(np.ones((4, 3)))


def test_circle_curvature():
    # circle of radius R: stack d1 = (0, R), d2 = (-R, 0) gives kappa = 1/R
    for R in (0.5, 1.0, 3.0):
        cs = curvatures(np.array([[0.0, R], [-R, 0.0]]))
        assert cs.kappas[0] == pytest.approx(1.0 / R, rel=1e-14)


def test_straight_line_degenerate():
    with pytest.raises(DegenerateStackError):
        curvatures(np.array([[1.0, 0.0], [2.0, 0.0]]))


def test_curvature1_3d_examples():
    assert curvature1_3d([1, 0, 0], [0, 1, 0]) == pytest.approx(1.0, rel=1e-15)
    assert curvature1_3d([2, 0, 0], [4, 0, 0]) == 0.0
    with pytest.raises(ValueError, match="fixed point"):
        curvature1_3d([0, 0, 0], [1, 0, 0])


def test_torsion_3d_examples():
    # planar stack: zero torsion
    assert torsion_3d([1, 0, 0], [0, 1, 0], [1, 1, 0]) == 0.0
    # unit-pitch helix: torsion a/(a^2+b^2) = 1/2
    assert torsion_3d([0, 1, 1], [-1, 0, 0], [0, -1, 0]) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(ValueError, match="torsion"):
        torsion_3d([1, 0, 0], [2, 0, 0], [0, 1, 0])


def test_closed_forms_match_general_formula():
    # kappa_1 and |kappa_2| from the 3-D closed forms vs the norm-ratio route
    rng = np.random.default_rng(10)
    for _ in range(100):
        stack = rng.standard_normal((3, 3))
        try:
            cs = curvatures(stack)
        except DegenerateStackError:
            continue
        v, gamma, gamma_dot = stack
        assert curvature1_3d(v, gamma) == pytest.approx(cs.kappas[0], rel=1e-10)
        assert abs(torsion_3d(v, gamma, gamma_dot)) == pytest.approx(
            cs.kappas[1], rel=1e-10)
        assert cs.torsion == pytest.approx(torsion_3d(v, gamma, gamma_dot), rel=0)


def test_curvature_time_reparametrization_invariance():
    # rescaling time t -> t/s multiplies d_k by s^k; curvatures are geometric
    # quantities and must not change
    rng = np.random.default_rng(2)
    stack = rng.standard_normal((4, 4))
    base = curvatures(stack).kappas
    s = 2.75
    scaled = np.array([stack[k] * s ** (k + 1) for k in range(4)])
    np.testing.assert_allclose(curvatures(scaled).kappas, base, rtol=1e-10)


def test_det_norm_product_identity_examples():
    assert det_norm_product_residual(np.eye(3)) == 0.0
    rng = np.random.default_rng(0)
    worst = max(det_norm_product_residual(rng.standard_normal((4, 4)))
                for _ in range(200))
    assert worst <= 1e-10
    # rank-deficient: both sides zero
    m = np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 0, 1.0]])
    assert det_norm_product_residual(m) <= 1e-15


def test_det_multiplicativity_identity_examples():
    assert det_multiplicativity_residual(np.eye(3), np.eye(3)) == 0.0
    J = np.diag([2.0, 3.0, 4.0])
    assert det_multiplicativity_residual(J, np.eye(3)) <= 1e-15
    rng = np.random.default_rng(1)
    worst = max(det_multiplicativity_residual(rng.standard_normal((5, 5)),
                                      rng.standard_normal((5, 5)))
                for _ in range(200))
    assert worst <= 1e-10


def test_trace_expansion_identity_examples():
    n = 4
    assert trace_expansion_residual(np.eye(n), np.eye(n)) <= 1e-15
    traceless = np.array([[0, 1.0], [1.0, 0]])
    assert trace_expansion_residual(traceless, np.eye(2)) <= 1e-15
    rng = np.random.default_rng(2)
    worst = max(trace_expansion_residual(rng.standard_normal((4, 4)),
                                      rng.standard_normal((4, 4)))
                for _ in range(200))
    assert worst <= 1e-10


def test_wedge_matches_determinant_contraction():
    rng = np.random.default_rng(5)
    for n in (3, 4, 5):
        for _ in range(20):
            a = rng.standard_normal((n - 1, n))
            w = wedge(a)
            v = rng.standard_normal(n)
            det = np.linalg.det(np.column_stack([v] + list(a)))
            assert v @ w == pytest.approx(det, rel=1e-10, abs=1e-12)
    # n = 3: ordinary cross product
    a = rng.standard_normal((2, 3))
    np.testing.assert_allclose(wedge(a), np.cross(a[0], a[1]), rtol=1e-14)


def _normalized_frame(stack):
    u = gram_schmidt(stack)
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _frenet_matrix(stack_at, t, h=1e-6):
    """Coefficients of d(e_i)/dt expanded in the frame (e_j), by central FD."""
    e = _normalized_frame(stack_at(t))
    de = (_normalized_frame(stack_at(t + h)) - _normalized_frame(stack_at(t - h))) / (2 * h)
    return de @ e.T, e


@pytest.mark.parametrize("curve", ["circle", "helix"])
def test_frenet_tridiagonal_structure(curve):
    # differentiating the normalized frame along the curve reproduces the
    # tridiagonal pattern: de_i/dt = v(-kappa_{i-1} e_{i-1} + kappa_i e_{i+1})
    if curve == "circle":
        R, omega = 2.0, 0.7

        def stack_at(t):
            d1 = R * omega * np.array([-np.sin(omega * t), np.cos(omega * t)])
            d2 = R * omega ** 2 * np.array([-np.cos(omega * t), -np.sin(omega * t)])
            return np.array([d1, d2])
    else:
        def stack_at(t):
            d1 = np.array([-np.sin(t), np.cos(t), 1.0])
            d2 = np.array([-np.cos(t), -np.sin(t), 0.0])
            d3 = np.array([np.sin(t), -np.cos(t), 0.0])
            return np.array([d1, d2, d3])

    for t in (0.0, 0.4, 1.3):
        alpha, _ = _frenet_matrix(stack_at, t)
        stack = stack_at(t)
        v = np.linalg.norm(stack[0])
        kappas = curvatures(stack).kappas
        m = len(stack)
        expected = np.zeros((m, m))
        for i in range(m - 1):
            expected[i, i + 1] = v * kappas[i]
            expected[i + 1, i] = -v * kappas[i]
        dominant = v * kappas.max()
        np.testing.assert_allclose(alpha, expected, atol=1e-3 * dominant)


# -- shared elimination for bordered determinants ---------------------------------

def _check_bordered(bordered):
    """Every completion of `bordered` (..., n, n - 1 + m) against the points-first
    square elimination of `oracles`."""
    from flowcurv.geometry import _lu_det
    n, cols = bordered.shape[-2:]
    # the points-last elimination takes (cols, n, npts) and gives (m, npts)
    work = np.transpose(bordered.astype(np.longdouble).reshape((-1, n, cols)), (2, 1, 0))
    lu = _lu_det(work.copy()).T.reshape(bordered.shape[:-2] + (cols - n + 1,))
    dets = det_scaled(bordered)
    for j in range(cols - n + 1):
        square = np.concatenate([bordered[..., :n - 1], bordered[..., n - 1 + j:n + j]],
                                axis=-1)
        assert_same_bits(lu[..., j], reference_lu_det(square.astype(np.longdouble))[..., 0])
        expected = reference_det_scaled(square)[..., 0]
        assert_same_bits(dets[..., j] if cols > n else dets, expected)
        assert_same_bits(det_scaled(square), expected)


def test_bordered_elimination_matches_square_lu_on_random_stacks():
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        for m in (1, 2, 3):
            for batch in ((), (9,), (2, 5)):
                stack = rng.standard_normal(batch + (n, n - 1 + m))
                stack *= 10.0 ** rng.uniform(-30, 30, batch + (1, n - 1 + m))
                _check_bordered(stack)
    # exact ties and zero pivots exercise the swap and zero-divisor paths
    ints = rng.integers(-1, 2, (200, 4, 5))
    for dtype in (float, np.longdouble):
        _check_bordered(ints.astype(dtype))
        _check_bordered(np.zeros((3, 3, 4), dtype=dtype))
    # an integer matrix is taken as float64
    _check_bordered(ints)
    assert_same_bits(det_scaled(ints), det_scaled(ints.astype(float)))


@pytest.mark.parametrize("shape", [(0, 3, 3), (2, 0, 3, 4), (0, 1, 1), (4, 0, 2, 3)])
def test_bordered_elimination_of_an_empty_batch(shape):
    _check_bordered(np.zeros(shape))
    n, cols = shape[-2:]
    expected = shape[:-2] + ((cols - n + 1,) if cols > n else ())
    assert det_scaled(np.zeros(shape)).shape == expected


def test_one_row_determinant_is_the_entry():
    rng = np.random.default_rng(2)
    for batch in ((), (7,), (3, 2)):
        for cols in (1, 2, 4):
            m = rng.standard_normal(batch + (1, cols)) * 10.0 ** rng.uniform(-30, 30)
            _check_bordered(m)
            dets = det_scaled(m)
            np.testing.assert_array_equal(dets, m[..., 0, :] if cols > 1 else m[..., 0, 0])


def test_bordered_elimination_matches_square_lu_on_stiff_stacks(chua5):
    from flowcurv import derivative_stack
    from conftest import in_region_points
    for region in ("neg", "mid", "pos"):
        x = np.array(in_region_points(chua5, region, 200, seed=5)).T
        for dtype in (float, np.longdouble):
            stack = derivative_stack(chua5, x.astype(dtype), 6)
            _check_bordered(stack.matrix(count=6))
            _check_bordered(stack.matrix(count=6)[0])


def test_det_scaled_leaves_its_input_untouched(chua5):
    # only manifold_sample lets the elimination overwrite a stack; det_scaled
    # divides a float64 or a longdouble stack into a work array of its own
    from flowcurv import derivative_stack
    x = np.random.default_rng(6).uniform(-3.0, 3.0, (5, 50))
    for state in (x, x[:, 0]):
        for dtype in (float, np.longdouble):
            derivs = derivative_stack(chua5, state.astype(dtype), 6).derivs
            before = derivs.copy()
            det_scaled(np.moveaxis(derivs, (0, 1), (-1, -2)))
            assert_same_bits(derivs, before)


def test_det_scaled_rejects_short_matrices():
    with pytest.raises(ValueError):
        det_scaled(np.ones((3, 2)))


# -- the two-pass frame against the adaptive one it replaced ----------------------

def _adaptive_gram_schmidt(vectors):
    """Test-only copy of the former frame: MGS sweeps repeated until orthogonal.

    Returns (vectors, sweeps), sweeps being the most any vector used;
    raises DegenerateStackError like the library.
    """
    from flowcurv.geometry import DEGENERACY_RTOL
    v = np.asarray(vectors, dtype=float)
    m, n = v.shape
    u = v.copy()
    sweeps = 0
    for i in range(m):
        input_norm = np.linalg.norm(v[i])
        for sweep in range(8):
            for j in range(i):
                denom = u[j] @ u[j]
                coeff = (u[j] @ u[i]) / denom
                u[i] = u[i] - coeff * u[j]
            norm = np.linalg.norm(u[i])
            if norm <= DEGENERACY_RTOL * input_norm:
                raise DegenerateStackError(i, norm, input_norm)
            if sweep > 0 and all(
                    abs(u[j] @ u[i]) <= 1e-13 * np.linalg.norm(u[j]) * norm
                    for j in range(i)):
                break
        else:
            raise DegenerateStackError(i, np.linalg.norm(u[i]), input_norm)
        sweeps = max(sweeps, sweep + 1)
    return u, sweeps


def _adaptive_kappas(u):
    norms = np.linalg.norm(u, axis=1)
    return norms[1:] / (norms[0] * norms[:-1])


def _adaptive_det_norm_product_residual(m):
    det = abs(np.linalg.det(m))
    try:
        prod = float(np.prod(np.linalg.norm(_adaptive_gram_schmidt(m)[0], axis=1)))
    except DegenerateStackError:
        prod = 0.0
    return abs(det - prod) / max(1.0, prod)


def _loop_det_multiplicativity_residual(J, a):
    lhs = np.linalg.det((J @ a.T).T)
    rhs = np.linalg.det(J) * np.linalg.det(a.T)
    return abs(lhs - rhs) / max(1.0, abs(rhs))


def _loop_trace_expansion_residual(J, a):
    lhs = 0.0
    for k in range(a.shape[0]):
        cols = a.T.copy()
        cols[:, k] = J @ a[k]
        lhs += np.linalg.det(cols)
    rhs = np.trace(J) * np.linalg.det(a.T)
    return abs(lhs - rhs) / max(1.0, abs(rhs))


def _assert_frames_match_oracle(stacks):
    """The batched frame of `stacks` (B, m, n) against the oracle, stack by stack.

    Returns the number of degenerate stacks (NaN in the batch, raising alone).
    """
    frames = gram_schmidt(stacks)
    kappas = curvatures(stacks).kappas
    degenerate = 0
    for b, stack in enumerate(stacks):
        try:
            u, sweeps = _adaptive_gram_schmidt(stack)
        except DegenerateStackError as err:
            degenerate += 1
            assert np.isnan(frames[b]).all()
            assert np.isnan(kappas[b]).all()
            with pytest.raises(DegenerateStackError) as alone:
                gram_schmidt(stack)
            assert str(alone.value) == str(err)
            continue
        assert sweeps == 2
        assert_same_bits(frames[b], u)
        assert_same_bits(kappas[b], _adaptive_kappas(u))
    return degenerate


def test_two_pass_frame_matches_adaptive_oracle_on_curvature_stacks(chua3):
    from flowcurv import derivative_stack, integrate
    traj = integrate(chua3, [0.1, 0.1, 0.1], 50.0)
    stack = derivative_stack(chua3, traj.states.T, 3)
    stacks = np.ascontiguousarray(np.moveaxis(stack.derivs, -1, 0))
    assert stacks.shape == (2756, 3, 3)
    assert _assert_frames_match_oracle(stacks) == 0
    # a DerivStack batch is the same frame as its (npts, m, n) array
    assert_same_bits(curvatures(stack).kappas, curvatures(stacks).kappas)


def test_two_pass_frame_matches_adaptive_oracle_on_verify_identity_draws(models_by_name):
    from flowcurv import verify
    for name, model in models_by_name.items():
        n = model.dim
        draws = np.random.default_rng(0).standard_normal((200, 2, n, n))
        stacks, J = draws[:, 0], draws[:, 1]
        assert _assert_frames_match_oracle(stacks) == 0
        oracle = [
            [_adaptive_det_norm_product_residual(stacks[b]) for b in range(200)],
            [_loop_det_multiplicativity_residual(J[b], stacks[b]) for b in range(200)],
            [_loop_trace_expansion_residual(J[b], stacks[b]) for b in range(200)]]
        batched = [det_norm_product_residual(stacks),
                   det_multiplicativity_residual(J, stacks),
                   trace_expansion_residual(J, stacks)]
        for got, ref in zip(batched, oracle):
            assert_same_bits(got, np.array(ref))
        checks = verify._identity_checks(model, np.random.default_rng(0))
        for check, ref in zip(checks, oracle):
            assert check.residual == max(ref), (name, check.name)


def _near_degenerate_stacks(rng, count, m, n):
    """Random stacks whose vector k sits a relative 1e-13 .. 1e-6 off span(v_1..v_k-1)."""
    stacks = rng.standard_normal((count, m, n))
    for stack in stacks:
        k = int(rng.integers(1, m))
        q = np.linalg.qr(stack[:k].T)[0]
        off = rng.standard_normal(n)
        off -= q @ (q.T @ off)
        base = rng.standard_normal(k) @ stack[:k]
        ratio = 10.0 ** rng.uniform(-13, -6)
        stack[k] = base + ratio * np.linalg.norm(base) * off / np.linalg.norm(off)
    return stacks


@pytest.mark.parametrize("m, n", [(3, 3), (4, 4), (5, 5), (3, 5)])
def test_two_pass_frame_matches_adaptive_oracle_near_degeneracy(m, n):
    stacks = _near_degenerate_stacks(np.random.default_rng(20 + 7 * m + n), 1000, m, n)
    degenerate = _assert_frames_match_oracle(stacks)
    # both verdicts occur: the remainder ratios straddle DEGENERACY_RTOL
    assert 0 < degenerate < len(stacks)


def test_batch_equals_stacks_one_at_a_time():
    rng = np.random.default_rng(8)
    batch = rng.standard_normal((2, 6, 4, 5))
    batch[0, 1, 2] = 3.0 * batch[0, 1, 0]  # parallel vectors
    batch[1, 4, 0] = 0.0                   # a zero first vector: 0/0 downstream
    batch[1, 2, 3] *= 1e300                # an overflowing remainder
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frames = gram_schmidt(batch)
        kappas = curvatures(batch).kappas
        residuals = det_norm_product_residual(batch[..., :4, :4])
    assert frames.shape == batch.shape
    assert kappas.shape == (2, 6, 3) and residuals.shape == (2, 6)
    for idx in np.ndindex(2, 6):
        if idx in ((0, 1), (1, 4), (1, 2)):
            assert np.isnan(frames[idx]).all() and np.isnan(kappas[idx]).all()
            with pytest.raises(DegenerateStackError):
                gram_schmidt(batch[idx])
            with pytest.raises(DegenerateStackError):
                curvatures(batch[idx])
            continue
        assert_same_bits(frames[idx], gram_schmidt(batch[idx]))
        assert_same_bits(kappas[idx], curvatures(batch[idx]).kappas)
    for idx in np.ndindex(2, 6):
        assert residuals[idx] == det_norm_product_residual(batch[idx][:4, :4])


def test_batched_torsion_is_nan_on_degenerate_stacks():
    rng = np.random.default_rng(9)
    batch = rng.standard_normal((5, 3, 3))
    batch[2, 2] = batch[2, 0] - 2.0 * batch[2, 1]  # planar: torsion would be ~0
    cs = curvatures(batch)
    assert np.isnan(cs.torsion[2]) and np.isnan(cs.kappas[2]).all()
    for b in (0, 1, 3, 4):
        one = curvatures(batch[b])
        assert cs.torsion[b] == one.torsion
        assert one.torsion == torsion_3d(*batch[b])
