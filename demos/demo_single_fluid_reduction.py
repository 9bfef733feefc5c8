"""Two identical phases with no velocity coupling behave as one fluid.

When both components share the same equation of state, start with equal
velocities and entropies, and the potential has no relative-velocity term,
the mixture equations collapse to plain one-component gas dynamics.  The
script runs the full two-fluid solver on a smooth isentropic pulse and
measures its L1 distance from an independent single-fluid Euler reference
on a refined grid; the distance shrinks at first order.
"""
import math

import numpy as np

from twofluid import (SeparableAddedMass, SeparableAddedMassParams,
                      single_fluid_reduction)

model = SeparableAddedMass(SeparableAddedMassParams(gamma1=1.4, gamma2=1.4))

def rho0(x):
    return 1.0 + 0.1 * np.exp(-100.0 * (x - 0.5) ** 2)

def u0(x):
    return 0.05 * np.exp(-100.0 * (x - 0.5) ** 2)

print("L1 distance of the two-fluid run from the one-fluid reference:")
# one call: the sizes share one integration of the reference
for r in single_fluid_reduction(model, (200, 400, 800), 0.15, rho0=rho0,
                                u0=u0, s0=0.0, ref_n=3200):
    line = (f"  n = {r['n']:4d}:  L1(rho) = {r['l1_rho']:.3e}"
            f"  L1(u) = {r['l1_u']:.3e}")
    if not math.isnan(r["order_rho"]):
        line += f"   order = {r['order_rho']:.2f}"
    print(line)
