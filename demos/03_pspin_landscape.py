"""
The p-spin energy landscape on the hypercube
============================================

H_n(x) = n^{(1-p)/2} sum_{i1..ip} J_{i1..ip} x_{i1} ... x_{ip} with
i.i.d. standard Gaussian couplings.  Covariances depend on states only
through the overlap R(x, y) = 1 - 2 dist(x, y)/n:

    E[H(x) H(y)] = n R(x, y)^p.
"""

import numpy as np

from extremalclock import pspin
from extremalclock.stats import MCAccumulator

n, p = 10, 3
inst = pspin.build_instance(n, p, seed=33, beta=1.0, c=0.25)

x = np.ones(n)
h = pspin.hamiltonian(inst, x)
print(f"H(all-ones) = {h:+.4f}, log trap depth log tau = beta H = {pspin.tau(inst, x):.4f}")

# Single-spin flips update H in O(n^{p-1}) work instead of O(n^p); the
# incremental value agrees with recomputation to machine precision.
y = x.copy()
h_y = h
for coord in (0, 3, 7):
    h_y = pspin.delta_flip(inst, y, coord, h_y)
    y[coord] = -y[coord]
h_fresh = pspin.hamiltonian(inst, y)
print(f"after 3 flips: incremental {h_y:+.10f} vs fresh {h_fresh:+.10f} "
      f"(difference {abs(h_y - h_fresh):.1e})")
print(f"overlap R(x, y) = {pspin.overlap(x, y):.3f}")

# Covariance across environments, at a fixed pair of states.
draws = pspin.sample_hamiltonians(n, p, [x, y], 40_000, np.random.default_rng(4))
acc = MCAccumulator.from_values(draws[:, 0] * draws[:, 1])
target = n * pspin.overlap(x, y) ** p
print(f"sample cov {acc.mean:+.4f} +- {acc.sem:.4f}, exact n R^p = {target:+.4f}")

# Instances persist as a 100-byte header: seed + integrity hash, the
# tensor is regenerated on load.
import tempfile, os

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "instance.pspn")
    pspin.save_instance(inst, path)
    again = pspin.load_instance(path, beta=1.0, c=0.25)
    print(f"round trip: file {os.path.getsize(path)} bytes, "
          f"H matches: {pspin.hamiltonian(again, x) == h}")
