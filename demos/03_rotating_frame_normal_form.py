"""Planar rotating-frame system: monodromy spectrum and normal form.

A 2 x 2 system with rotating coefficients, identity argument coupling and a
contracting impulse (factor 1/5 every 2 pi).  The flow of the continuous
part closes up over one period, so the entire period map comes from the
argument coupling and the impulse.  The multipliers land outside the unit
circle: despite the 80% contraction at every impulse, solutions grow.
"""

import numpy as np

import idepcag as pk

system = pk.load_bundled_system("rotation_2x2")
omega = system.omega

Phi = pk.fundamental_matrix(system, 0.0, omega)
print("Phi(2 pi, 0) - I (max entry):", np.abs(Phi - np.eye(2)).max())

X = pk.monodromy(system)
print("\nX(2 pi) =\n", X)
report = pk.analyze(system)
print("multipliers:", report.multipliers)
print("|rho| =", np.abs(report.multipliers), " -> verdict:", report.verdict)
print("Lyapunov exponents:", report.lyapunov)

# Floquet normal form X(t) = Q(t) exp(P t)
P = report.P
print("\nP = (1/2 pi) Log X(2 pi) =\n", P)
print("round trip |exp(2 pi P) - X| =", pk.norm1(pk.expm(P * omega) - X))

residuals = pk.verify_normal_form(system)
print("\nnormal-form residuals")
print("  exp(w P) = X(w):   ", residuals.expm_roundtrip)
print("  Q-equation (FD):   ", residuals.q_equation, "scale", residuals.q_equation_scale)

# X(w) reassembled from fresh integrations at twice the cached step counts:
# the gap estimates the truncation error of the monodromy matrix
refined = next(c for c in pk.structural_residuals(system) if c.name == "monodromy_refined")
print("  X(w) at 2N steps:  ", refined.value, "threshold", refined.threshold)

# sample the periodic factor over one period
print("\n t/2pi   |Q(t)| (1-norm)")
for f in np.linspace(0.0, 1.0, 9):
    q = pk.q_factor(system, P, f * omega)
    print(f" {f:5.3f}   {pk.norm1(q):.6f}")
