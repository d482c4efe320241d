"""Exact trajectory derivatives and Frenet curvatures along the double scroll.

Jets turn one right-hand-side definition into every time derivative of the
flow, exact to rounding.  Along an integrated chua3 trajectory this gives
the curvature kappa_1 and torsion kappa_2 of the orbit; for a 3-D system
phi is the numerator of the torsion, so the two share zero set and sign.
"""

import numpy as np

from flowcurv import (curvatures, derivative_stack, get_model, integrate, phi)

model = get_model("chua3-pwl")

x = np.array([1.6, 0.1, -1.9])
stack = derivative_stack(model, x, 4)
print("derivative stack at", x)
for k, d in enumerate(stack.derivs, start=1):
    print(f"  d{k} =", np.array2string(d, precision=6))
J = model.jacobian(x)
print("d_{k+1} = J d_k residuals:",
      [float(np.linalg.norm(stack.derivs[k + 1] - J @ stack.derivs[k]))
       for k in range(3)])

traj = integrate(model, [0.1, 0.1, 0.1], 40.0, rel_tol=1e-10, abs_tol=1e-12)
print(f"\nintegrated {len(traj)} samples, {len(traj.events)} region crossings")

print("\n   t        kappa1      kappa2      phi")
# one batched stack and frame per table; a degenerate stack's kappas are NaN
rows = np.arange(0, len(traj), len(traj) // 12)
cs = curvatures(derivative_stack(model, traj.states[rows].T, 3))
for t, kappas, torsion, p in zip(traj.times[rows], cs.kappas, cs.torsion,
                                 phi(model, traj.states[rows].T)):
    if np.isnan(kappas[0]):
        print(f"{t:7.2f}  (degenerate stack)")
    else:
        print(f"{t:7.2f}  {kappas[0]:10.4f}  {torsion:+10.4f}  {p:+10.3e}")

# the sign of the torsion tracks the sign of phi: kappa_2 is the triple
# product det(Xdot, Xddot, Xdddot) = phi divided by a positive norm factor
xs = traj.states[:: max(1, len(traj) // 200)].T
cs = curvatures(derivative_stack(model, xs, 3))
p = phi(model, xs)
counted = ~np.isnan(cs.kappas[:, 0]) & (p != 0) & (cs.torsion != 0)
signs_match = int(np.sum(np.sign(cs.torsion[counted]) == np.sign(p[counted])))
print(f"\ntorsion sign equals phi sign at {signs_match}/{int(counted.sum())} samples")
