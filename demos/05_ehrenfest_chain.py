"""
The Ehrenfest chain: exact hitting-time machinery
=================================================

Hypercube SRW projected onto Hamming distance from a reference point is
a birth-death chain on {0..n} with down-rate k/n.  Hitting times of it
have closed forms, and closed forms mean hard oracles: this is the
exactly-solvable corner of the package.
"""

import numpy as np

from extremalclock import ehrenfest

chain = ehrenfest.EhrenfestChain(10)

# E_{l-1} T_l: expected steps to push the distance one level higher.
print("adjacent hitting times, n=10:")
for l in (1, 2, 5, 10):
    print(f"  E_{l - 1} T_{l} = {ehrenfest.expected_hitting_adjacent(chain, l):10.4f}")

# From the reference point, with the d/(1 - 2d/n) bound for d < n/2.
print("\nfrom-zero hitting times vs bound:")
for d in (1, 2, 4):
    e = ehrenfest.expected_hitting_from_zero(chain, d)
    b = ehrenfest.hitting_bound(chain, d)
    print(f"  E_0 T_{d} = {e:8.4f}  bound {b:8.4f}  ok={e <= b}")

# The full hitting-time law, propagated through the chain killed at d;
# parity makes odd entries vanish when d is even.
dist = ehrenfest.hitting_time_distribution(chain, 2, horizon=8)
print(f"\nP(T_2 = k), k<=8: {np.round(dist, 5)}")
window = ehrenfest.hitting_window_probability(chain, 2, 4, 300)
print(f"P(4 < T_2 < 300) = {window:.6f}")

# Simulation agrees with the exact first moment.
acc = ehrenfest.simulate_hitting_time(chain, 2, 20_000, np.random.default_rng(5))
exact = ehrenfest.expected_hitting_from_zero(chain, 2)
print(f"simulated E_0 T_2 = {acc.mean:.4f} +- {acc.sem:.4f} (exact {exact:.4f})")

# Occupation of a distance level over a window, exact vs Monte Carlo.
# The simulation draws only the visits: the first passage to the level,
# then each return to it, one uniform per visit.
occ = ehrenfest.occupation_exact(chain, 2, 40)
sim = ehrenfest.occupation_statistic(chain, 2, 40, 20_000, np.random.default_rng(6))
print(f"occupation of level 2 in 40 steps: exact {occ:.4f}, "
      f"simulated {sim.mean:.4f} +- {sim.sem:.4f}")

# And the projection identity itself: genuine hypercube walks projected
# to distance, in total variation against the exact matrix powers.
tv = ehrenfest.distance_process_check(6, 12, 50_000, np.random.default_rng(7))
print(f"\nmax TV, projected SRW vs exact chain (n=6, 12 steps): {tv:.5f}")
