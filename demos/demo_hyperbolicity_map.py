"""Map where the mixture system stays hyperbolic as relative velocity grows.

The symmetric form of the governing equations is hyperbolic wherever the
matrix A = d2G/du2 is positive definite, i.e. wherever -L_rhorho and L_jj,
the density and momentum blocks of the Hessian of the Lagrangian, are.  At
rest (w = 0) the classical stability inequalities on W guarantee this; as
|w| grows, -L_rhorho turns singular at a critical w*, where an eigenvalue of
A = [[-L_rhorho^-1, ...], ...] passes through infinity and changes sign.
This script scans a density box, prints the hyperbolic fraction per w slice,
and locates w* at a reference density pair by repeated batched scans of the
certificate.
"""
import numpy as np

from twofluid import (SeparableAddedMass, SeparableAddedMassParams,
                      critical_relative_velocity, map_hyperbolic_region)

model = SeparableAddedMass(SeparableAddedMassParams(
    gamma1=2.0, gamma2=1.4, a=1.0))

rho1 = np.linspace(0.6, 1.4, 9)
rho2 = np.linspace(0.6, 1.4, 9)
w_slices = [0.0, 0.4, 0.8, 1.2, 1.6]

print("fraction of the density box that is hyperbolic, per w:")
for w in w_slices:
    maps = map_hyperbolic_region(model, rho1, rho2, [w])
    print(f"  w = {w:4.1f}:  hyperbolic {100 * maps.hyperbolic.mean():5.1f}%"
          f"   worst min-eig(A) = {maps.min_eig_A.min():+.3e}")

print()
w_star = critical_relative_velocity(model, 1.2, 0.8, 0.05, -0.1, w_max=5.0)
print(f"critical relative velocity at (rho1, rho2) = (1.2, 0.8): "
      f"w* = {w_star:.6f}")
print("min-eig(A) just below / above w*:")
for w in (0.999 * w_star, 1.001 * w_star):
    maps = map_hyperbolic_region(model, [1.2], [0.8], [w], 0.05, -0.1)
    print(f"  w = {w:.4f}: min-eig(A) = {maps[0].min_eig_A:+.3e}")
