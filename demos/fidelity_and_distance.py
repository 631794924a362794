"""Walk through the state layer: fidelity, trace distance, and entropies.

Run:  python3 demos/fidelity_and_distance.py
"""

import numpy as np

from compent import (
    binary_mixture_entropy,
    epr_pairs,
    fidelity,
    g2,
    h_star,
    squashed_trivial_upper,
    trace_distance,
    von_neumann_entropy,
)
from compent.states import random_density_matrix, random_pure_state

rng = np.random.default_rng(0)

print("== fidelity basics ==")
phi = epr_pairs(1)
zero = np.zeros((4, 4), dtype=complex)
zero[0, 0] = 1.0
print(f"F(Phi, Phi)        = {fidelity(phi, phi):.6f}")
print(f"F(Phi, |00><00|)   = {fidelity(phi, zero):.6f}   (overlap 1/2)")

rho = random_density_matrix(4, rng)
sigma = random_density_matrix(4, rng)
f = fidelity(rho, sigma)
td = trace_distance(rho, sigma)
print("\n== Fuchs-van de Graaf sandwich on a random pair ==")
print(f"1 - sqrt(F) = {1 - np.sqrt(f):.6f}  <=  T = {td:.6f}  <=  sqrt(1-F) = {np.sqrt(1 - f):.6f}")

print("\n== entropies ==")
print(f"H(EPR pair)                 = {von_neumann_entropy(phi):.6f}  (pure)")
print(f"H(reduced half)             = {von_neumann_entropy(phi.reduced_a()):.6f}  (maximally mixed)")
print(f"trivial-extension bound     = {squashed_trivial_upper(phi):.6f}  (one EPR pair of correlation)")

print("\n== the scalar functions behind the counterexample chain ==")
for x in (0.0, 0.3, 0.6, 0.9):
    print(f"mixture entropy at overlap {x:.1f}: {binary_mixture_entropy(x):.6f}")
print(f"h_star(0.5) = {h_star(0.5):.6f} equals mixture entropy at 1 - 0.5")
print(f"g2(0) = {g2(0.0)}, g2(1) = {g2(1.0)}, g2(0.25) = {g2(0.25):.6f}")

print("\ntwo random pure states mixed half-half reproduce the closed form:")
psi, chi = random_pure_state(2, rng), random_pure_state(2, rng)
x = abs(np.vdot(psi, chi))
mixed = 0.5 * np.outer(psi, psi.conj()) + 0.5 * np.outer(chi, chi.conj())
print(f"  overlap x = {x:.6f}")
print(f"  spectral entropy   = {von_neumann_entropy(mixed):.12f}")
print(f"  closed-form value  = {binary_mixture_entropy(x):.12f}")
