"""The p-spin environment on the hypercube and its comparison machinery.

The Hamiltonian is the full i.i.d. coupling-tensor form

    H_n(x) = n^{(1-p)/2} sum_{i_1..i_p} J_{i_1..i_p} x_{i_1} ... x_{i_p},

whose covariance is exactly n * R(x, x')^p with the normalized overlap
R = 1 - 2 dist(x, x')/n.  Trap depths are tau(x) = exp(beta H(x)),
handled exclusively as log tau = beta H.  On top of the environment the
module provides:

* ``make_schedule`` -- the rescaling sequences gamma = n^{-c},
  alpha = gamma/beta, a_n, log c_n = gamma beta n, theta_n = 3 n^2 and
  the sub-block length v_n = round(n^omega);
* ``gaussian_comparison_rhs`` / ``max_cdf_mc`` -- the normal-comparison
  upper bound and the Monte Carlo max-CDF it dominates; with ``minus=``
  one draw per replica serves both matrices, so the max-CDF difference
  comes with a paired SE;
* ``HypercubeSRW`` / ``PSpinEnvironment`` -- the jump-chain model and
  environment oracle consumed by the generic engine, with vectorised
  kernels for p in {2, 3} that advance thousands of replicas per numpy
  pass.  For n <= 20, in a walk long enough to pay for building it, a
  replica is an integer state index, a flip is one XOR and H is one
  lookup in the exact 8 * 2^n-byte energy table
  (``PSpinInstance.energy_table``, no incremental drift), and block
  sums gather the weights exp(beta H - max beta H) of ``weight_table``;
  otherwise the walker carries a contraction field with O(n^{p-1})
  incremental Hamiltonian updates.  Kernels draw and walkers walk: a
  kernel draws each block's flips and then its marks, and either
  walker takes the same flips.

States are length-n numpy vectors with entries +-1 (float for BLAS).
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import math
import struct
import threading
import warnings
from collections import OrderedDict

import numpy as np

from .engine import EnvironmentOracle, JumpChainModel, ScalingSchedule, BlockStats
from .stats import MCAccumulator, prefix_scan

__all__ = [
    "TensorBudgetError",
    "IntegrityError",
    "PSpinInstance",
    "check_tensor_budget",
    "check_schedule",
    "build_instance",
    "hamiltonian",
    "delta_flip",
    "tau",
    "overlap",
    "make_schedule",
    "gaussian_comparison_rhs",
    "max_cdf_mc",
    "save_instance",
    "load_instance",
    "sample_hamiltonians",
    "HypercubeSRW",
    "PSpinEnvironment",
]

GENERATOR_ID = "philox-normal-v1"
DEFAULT_TENSOR_BUDGET = 4 * 1024 ** 3  # bytes
DEFAULT_CACHE_SIZE = 2 ** 22


class TensorBudgetError(MemoryError):
    """Requested coupling tensor exceeds the memory budget."""


class IntegrityError(RuntimeError):
    """Persisted instance does not match its regenerated tensor."""


def _as_spins(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError("spin state must be a 1-d vector")
    if not np.all(np.abs(arr) == 1.0):
        raise ValueError("spin entries must be +-1")
    return arr


class PSpinInstance:
    """Immutable p-spin environment: coupling tensor plus (beta, gamma).

    The tensor is regenerated deterministically from (n, p, seed) by a
    Philox stream, so persistence stores only the header.  Hamiltonian
    values are memoised per visited state in a bounded LRU map held in
    thread-local storage (the instance itself is shareable).  The
    vectorised walkers read H from lazily built derived arrays: the
    field walker from the symmetrised tensor (a p=3 walker takes the
    diagonals it reads as views of it), the table walker, for n <= 20
    walks long enough to pay for it, from the exact table of H at all
    2^n states (``energy_table``, 8 * 2^n bytes, built from the raw
    couplings at any p); its block sums, from that table's weights
    exp(beta H - max beta H) (``weight_table``, another 8 * 2^n bytes,
    not built where beta (max H - min H) exceeds ``_WEIGHT_SPAN``).
    Each is published in one assignment once complete.
    """

    def __init__(self, n: int, p: int, seed: int, tensor: np.ndarray,
                 beta: float = 1.0, c: float = 0.25,
                 cache_size: int = DEFAULT_CACHE_SIZE):
        self.n = n
        self.p = p
        self.seed = seed
        self.tensor = tensor
        self.tensor.setflags(write=False)
        self.beta = float(beta)
        self.c = float(c)
        self.gamma = float(n) ** (-c)
        self.scale = float(n) ** ((1 - p) / 2.0)
        self.cache_size = cache_size
        self._tls = threading.local()
        self._sym = None
        self._table = None
        self._weights = None

    def _cache(self) -> OrderedDict:
        cache = getattr(self._tls, "cache", None)
        if cache is None:
            cache = OrderedDict()
            self._tls.cache = cache
        return cache

    def cache_put(self, key: bytes, value: float) -> None:
        cache = self._cache()
        cache[key] = value
        cache.move_to_end(key)
        if len(cache) > self.cache_size:
            cache.popitem(last=False)

    def cache_get(self, key: bytes):
        cache = self._cache()
        value = cache.get(key)
        if value is not None:
            cache.move_to_end(key)
        return value

    def symmetric_tensor(self) -> np.ndarray:
        """Symmetrised couplings (same Hamiltonian, axis-exchangeable).

        Built lazily; only the field walker needs it, and a p=3 walker
        takes the diagonals it reads as views of it.  Doubles the tensor
        memory while alive.  It is published in one assignment once
        complete, so a thread that sees it set sees all of it; two
        threads racing here both build, and their results are equal.
        """
        if self._sym is None:
            J = self.tensor
            if self.p == 2:
                sym = (J + J.T) / 2.0
            elif self.p == 3:
                acc = np.zeros_like(J)
                for perm in itertools.permutations(range(3)):
                    acc += J.transpose(perm)
                sym = acc / 6.0
            else:
                raise ValueError(f"symmetrised walker kernels support p in {{2,3}}, got {self.p}")
            self._sym = sym
        return self._sym

    def energy_table(self) -> np.ndarray:
        """H at all 2^n states; bit i of the index is set iff x_i = -1.

        Built lazily from the Walsh coefficients of the raw couplings,
        H(x) = scale * sum_A h(A) prod_{i in A} x_i: since x_i^2 = 1,
        J_{i_1..i_p} multiplies the monomial of the indices it holds an
        odd number of times, so h is one bincount of J over the masks
        bit[i_1] ^ ... ^ bit[i_p], at any p.  One in-place fast
        Walsh-Hadamard transform follows.  Takes 8 * 2^n bytes.  The table is
        published in one assignment once complete, so a thread that
        sees it set sees all of it; two threads racing here both build,
        and their tables are equal.
        """
        if self._table is None:
            bit = np.int64(1) << np.arange(self.n, dtype=np.int64)
            mask = bit
            for _ in range(self.p - 1):
                mask = np.bitwise_xor.outer(mask, bit)  # C order, as tensor.ravel()
            coef = np.bincount(mask.ravel(), weights=self.tensor.ravel(),
                               minlength=2 ** self.n)
            _walsh_hadamard(coef)
            coef *= self.scale
            self._table = coef
        return self._table

    def weight_table(self):
        """(top, w) with top = max beta H and w = exp(beta H - top) at all 2^n states.

        Built lazily from ``energy_table``, in place in one 8 * 2^n-byte
        array: w is 1 at the top state, and every entry is at least
        exp(-_WEIGHT_SPAN), far inside the normal range of a double, so
        a linear sum of weights times marks neither underflows nor, at
        most steps times the largest mark, overflows.  Where
        beta * (max H - min H) exceeds ``_WEIGHT_SPAN``, an entry could
        leave the normal range: there w is None and no array is built.
        Published in one assignment once decided, as ``energy_table``
        is; two threads racing here both build, and their results are
        equal.
        """
        if self._weights is None:
            w = np.multiply(self.energy_table(), self.beta)
            top = w.max()
            if top - w.min() <= _WEIGHT_SPAN:
                w -= top
                np.exp(w, out=w)
            else:
                w = None
            self._weights = (top, w)
        return self._weights

    def head_hash(self) -> bytes:
        return hashlib.sha256(self.tensor.ravel()[:64].tobytes()).digest()


def _walsh_hadamard(a: np.ndarray) -> None:
    """Unnormalised fast Walsh-Hadamard transform of a length-2^n array, in place.

    Afterwards a[x] = sum_A a_old[A] (-1)^{popcount(x & A)}: one
    butterfly pass (lo + hi, lo - hi) per bit.
    """
    for i in range(a.size.bit_length() - 1):
        v = a.reshape(-1, 2, 1 << i)
        lo = v[:, 0, :].copy()
        v[:, 0, :] += v[:, 1, :]
        np.subtract(lo, v[:, 1, :], out=v[:, 1, :])


def _tensor_rng(seed: int) -> np.random.Generator:
    # Philox, not engine.stream: GENERATOR_ID pins this stream in the saved header
    return np.random.Generator(np.random.Philox(seed))


def check_tensor_budget(n: int, p: int, memory_budget: int = DEFAULT_TENSOR_BUDGET) -> None:
    """Raise TensorBudgetError when n^p doubles exceed ``memory_budget``.

    The message names the maximum feasible n for this p.
    """
    needed = 8 * n ** p
    if needed > memory_budget:
        max_n = int((memory_budget / 8) ** (1.0 / p))
        raise TensorBudgetError(
            f"tensor for n={n}, p={p} needs {needed} bytes > budget {memory_budget}; "
            f"max feasible n for p={p} is {max_n}"
        )


def build_instance(n: int, p: int, seed: int, beta: float = 1.0, c: float = 0.25,
                   memory_budget: int = DEFAULT_TENSOR_BUDGET) -> PSpinInstance:
    """Draw the n^p i.i.d. standard-Gaussian couplings for size n.

    The covariance E H(x)H(x') = n R^p holds exactly in distribution
    for this construction.  Raises TensorBudgetError with the maximum
    feasible n when n^p doubles exceed ``memory_budget``.
    """
    if n < 2 or p < 2:
        raise ValueError(f"need n >= 2 and p >= 2, got n={n}, p={p}")
    check_tensor_budget(n, p, memory_budget)
    tensor = _tensor_rng(seed).standard_normal(n ** p).reshape((n,) * p)
    return PSpinInstance(n=n, p=p, seed=seed, tensor=tensor, beta=beta, c=c)


def hamiltonian(inst: PSpinInstance, x) -> float:
    """Full tensor contraction H(x), memoised per visited state."""
    arr = _as_spins(x)
    key = arr.tobytes()
    hit = inst.cache_get(key)
    if hit is not None:
        return hit
    sub = inst.tensor
    for _ in range(inst.p):
        sub = sub @ arr
    value = float(inst.scale * sub)
    inst.cache_put(key, value)
    return value


def delta_flip(inst: PSpinInstance, x, coordinate: int, h_old: float) -> float:
    """H of x with one coordinate flipped, at cost O(n^{p-1}).

    Multilinear expansion in the perturbation d = -2 x_k: for every
    nonempty subset of tensor axes pinned to index k, contract the
    remaining axes with x and weight by d^{|subset|}.
    """
    arr = _as_spins(x)
    k = int(coordinate)
    if not 0 <= k < inst.n:
        raise ValueError(f"coordinate {k} out of range for n={inst.n}")
    d = -2.0 * arr[k]
    delta = 0.0
    for r in range(1, inst.p + 1):
        weight = d ** r
        for axes in itertools.combinations(range(inst.p), r):
            index = tuple(k if a in axes else slice(None) for a in range(inst.p))
            sub = inst.tensor[index]
            for _ in range(inst.p - r):
                sub = sub @ arr
            delta += weight * float(sub)
    return h_old + inst.scale * delta


def tau(inst: PSpinInstance, x) -> float:
    """log tau(x) = beta * H(x); trap depths exist only in log form."""
    return inst.beta * hamiltonian(inst, x)


def overlap(x, y) -> float:
    """Normalised overlap 1 - 2 dist(x,y)/n = <x,y>/n."""
    a = _as_spins(x)
    b = _as_spins(y)
    if a.shape != b.shape:
        raise ValueError(f"state lengths differ: {a.shape} vs {b.shape}")
    return float(a @ b) / a.size


def _an_exponent(n: int, c: float) -> float:
    gamma = float(n) ** (-c)
    return gamma * gamma * n / 2.0


def check_schedule(n: int, c: float, beta: float | None = None) -> None:
    """Raise ValueError when c is outside (0, 1/2) or a_n overflows at this
    n, and, with ``beta`` given, when alpha_n = n^{-c} / beta is not in (0, 1].

    a_n carries exp(gamma^2 n / 2) = exp(n^{1-2c} / 2), which overflows a
    double past 700; the message names the largest n that works for c.
    An alpha_n above 1 names the smallest beta that works at this n.
    """
    if not 0.0 < c < 0.5:
        raise ValueError(f"c must lie in (0, 1/2), got {c}")
    exponent = _an_exponent(n, c)
    if exponent > 700.0:
        max_n = int(1400.0 ** (1.0 / (1.0 - 2.0 * c)))
        while _an_exponent(max_n + 1, c) <= 700.0:
            max_n += 1
        while _an_exponent(max_n, c) > 700.0:
            max_n -= 1
        raise ValueError(f"a_n overflows for n={n}, c={c} (gamma^2 n / 2 = {exponent:.3g} "
                         f"> 700); max n for c={c} is {max_n}")
    if beta is None:
        return
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    gamma = float(n) ** (-c)
    if gamma / beta > 1.0:
        raise ValueError(f"alpha_n = n^(-c) / beta = {gamma / beta:.6g} > 1 for n={n}, "
                         f"c={c}, beta={beta}; min beta for n={n} is {gamma!r}")


def make_schedule(n: int, p: int, c: float, beta: float) -> ScalingSchedule:
    """Rescaling schedule for the p-spin SRW at inverse temperature beta.

    gamma = n^{-c}, alpha = gamma/beta, a_n = sqrt(2 pi n) gamma^{-1}
    exp(gamma^2 n / 2), log c_n = gamma beta n, theta_n = 3 n^2, and
    v_n = round(n^omega) with omega the midpoint of (c + 1/2, 1).
    Warns when alpha >= 1 (the asymptotic regime is not entered; the
    schedule type itself rejects alpha > 1).  Raises ValueError where
    ``check_schedule`` does.
    """
    check_schedule(n, c)
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    gamma = float(n) ** (-c)
    alpha = gamma / beta
    if alpha >= 1.0:
        warnings.warn(
            f"alpha_n = {alpha:.6g} >= 1: power transform leaves the subadditive "
            "regime; asymptotic statements do not apply", stacklevel=2)
    a_n = math.sqrt(2.0 * math.pi * n) / gamma * math.exp(_an_exponent(n, c))
    omega = (c + 1.5) / 2.0
    v_n = max(1, int(round(float(n) ** omega)))
    return ScalingSchedule(
        n=n, a_n=a_n, log_c_n=gamma * beta * n, theta_n=3 * n * n,
        alpha_n=alpha, v_n=v_n, p=p, beta=beta, gamma=gamma, c_exponent=c,
    )


# ---------------------------------------------------------------------------
# Gaussian comparison (normal comparison inequality, upper bound form)


def _check_comparison_matrix(delta: np.ndarray, name: str) -> np.ndarray:
    delta = np.asarray(delta, dtype=float)
    if delta.ndim != 2 or delta.shape[0] != delta.shape[1]:
        raise ValueError(f"{name} must be square")
    if not np.all(np.isfinite(delta)):
        raise ValueError(f"{name} must have finite entries")
    # np.allclose's rule (rtol 1e-5) with atol 1e-12, without its overhead
    if not np.all(np.abs(delta - delta.T) <= 1e-12 + 1e-5 * np.abs(delta.T)):
        raise ValueError(f"{name} must be symmetric")
    if not np.all(np.abs(np.diag(delta) - 1.0) <= 1e-12 + 1e-5):
        raise ValueError(f"{name} must have unit diagonal")
    if np.min(np.linalg.eigvalsh(delta)) < -1e-10:
        raise ValueError(f"{name} must be positive semi-definite")
    return delta


def gaussian_comparison_rhs(delta0, delta1, s):
    """Upper bound on P(max H^0 <= s) - P(max H^1 <= s).

    A float ``s`` returns a float.  A 1-d sequence ``s`` validates the
    matrices once and returns an array with one bound per level, each
    equal to a scalar call at that level.

    sum over ordered pairs i != j of (D0_ij - D1_ij)^+ *
    exp(-s^2/(1 + Dmax_ij)) * int_0^1 (1 - (Dh_ij)^2)^{-1/2} dh,
    with Dh the linear interpolation.  The h-integral has the closed
    form (arcsin a - arcsin b)/(a - b) with a = D0_ij and b = D1_ij,
    so each pair contributes 2 exp(-s^2/(1 + a)) (arcsin a - arcsin b)
    where a > b.  Entries with |Dh| reaching 1 on the path make the
    integral singular and are rejected.
    """
    d0 = _check_comparison_matrix(delta0, "delta0")
    d1 = _check_comparison_matrix(delta1, "delta1")
    if d0.shape != d1.shape:
        raise ValueError("covariance matrices must share a shape")
    levels = np.asarray(s, dtype=float)
    if levels.ndim > 1 or levels.size == 0:
        raise ValueError("s must be a float or a non-empty 1-d sequence")
    rows, cols = np.triu_indices(d0.shape[0], k=1)
    a, b = d0[rows, cols], d1[rows, cols]
    live = a > b  # pairs with a positive part (D0 - D1)^+
    # the interpolation path is the segment [b, a]
    singular = live & (np.maximum(np.abs(a), np.abs(b)) >= 1.0)
    if np.any(singular):
        first = np.argmax(singular)
        raise ValueError(f"|interpolated correlation| reaches 1 at entry "
                         f"({rows[first]},{cols[first]}); integral singular")
    a, b = a[live], b[live]
    # ordered pairs (i,j) and (j,i) contribute identically; one row per level
    col = levels.reshape(-1, 1)
    # s^2 overflows to inf past s ~ 1.3e154; exp(-inf) is then the exact bound 0
    with np.errstate(over="ignore"):
        bounds = np.sum(2.0 * np.exp(-col * col / (1.0 + a)) * (np.arcsin(a) - np.arcsin(b)),
                        axis=1)
    return bounds if levels.ndim else float(bounds[0])


def max_cdf_mc(delta, s, reps: int, rng: np.random.Generator, *, minus=None):
    """Monte Carlo estimate of P(max_i H_i <= s) for H ~ N(0, delta).

    A float ``s`` returns one MCAccumulator.  A 1-d sequence ``s``
    shares one set of ``reps`` draws across its levels and returns one
    accumulator per entry, each equal to a scalar call on those draws.

    With ``minus`` (a covariance of the same shape), the estimate is of
    P(max H <= s) - P(max H' <= s) with common random numbers: each
    standard-normal vector z gives H = delta^{1/2} z and
    H' = minus^{1/2} z through symmetric square roots, and every
    accumulator holds the per-replica differences
    1{max H <= s} - 1{max H' <= s}, so its ``sem`` is the paired SE.
    """
    d = _check_comparison_matrix(delta, "delta")
    levels = np.asarray(s, dtype=float)
    if levels.ndim > 1 or levels.size == 0:
        raise ValueError("s must be a float or a non-empty 1-d sequence")
    if minus is None:
        w, v = np.linalg.eigh(d)
        factor = v * np.sqrt(np.clip(w, 0.0, None))
    else:
        d1 = _check_comparison_matrix(minus, "minus")
        if d1.shape != d.shape:
            raise ValueError("covariance matrices must share a shape")
        roots = []
        for mat in (d, d1):
            # symmetric roots: eigh's column signs are arbitrary, so two
            # plain eigen-factors would not couple H and H'
            w, v = np.linalg.eigh(mat)
            roots.append((v * np.sqrt(np.clip(w, 0.0, None))) @ v.T)
        factor = np.vstack(roots)
    accs = [MCAccumulator() for _ in range(levels.size)]
    chunk = 65536
    remaining = reps
    while remaining > 0:
        m = min(chunk, remaining)
        z = rng.standard_normal((m, d.shape[0]))
        # (dim, m) layout per matrix: the max over coordinates is an
        # elementwise max of rows; one row of maxima per matrix
        maxima = (factor @ z.T).reshape(-1, d.shape[0], m).max(axis=1)
        for acc, level in zip(accs, levels.ravel()):
            below = (maxima <= level).astype(float)
            acc.update_many(below[0] - below[1] if minus is not None else below[0])
        remaining -= m
    return accs if levels.ndim else accs[0]


# ---------------------------------------------------------------------------
# persistence: header-only binary format, tensor regenerated from the seed

_MAGIC = b"PSPN"
_HEADER = struct.Struct("<4sIQQQ32s32s")


def save_instance(inst: PSpinInstance, path) -> None:
    """Write the (n, p, seed, generator id, head hash) header.

    The tensor itself is never stored; loading regenerates it and
    checks the hash of the first 64 entries.
    """
    gen = GENERATOR_ID.encode("ascii").ljust(32, b"\0")
    blob = _HEADER.pack(_MAGIC, 1, inst.n, inst.p, inst.seed, gen, inst.head_hash())
    with open(path, "wb") as fh:
        fh.write(blob)


def load_instance(path, beta: float = 1.0, c: float = 0.25,
                  memory_budget: int = DEFAULT_TENSOR_BUDGET) -> PSpinInstance:
    """Regenerate a persisted instance and verify its integrity.

    beta and c are run parameters, not part of the persisted identity.
    """
    with open(path, "rb") as fh:
        blob = fh.read(_HEADER.size)
    if len(blob) != _HEADER.size:
        raise IntegrityError("truncated instance file")
    magic, version, n, p, seed, gen, digest = _HEADER.unpack(blob)
    if magic != _MAGIC or version != 1:
        raise IntegrityError(f"unrecognized instance header {magic!r} v{version}")
    gen_id = gen.rstrip(b"\0").decode("ascii")
    if gen_id != GENERATOR_ID:
        raise IntegrityError(f"unknown tensor generator {gen_id!r}")
    inst = build_instance(int(n), int(p), int(seed), beta=beta, c=c,
                          memory_budget=memory_budget)
    if inst.head_hash() != digest:
        raise IntegrityError("tensor head hash mismatch; generator drift?")
    return inst


def sample_hamiltonians(n: int, p: int, states, reps: int,
                        rng: np.random.Generator) -> np.ndarray:
    """H values at fixed states across `reps` fresh environments.

    Returns a (reps, len(states)) array; column j is H(states[j]) as the
    coupling tensor is redrawn.  Used for covariance verification, where
    building full instances per draw would dominate the cost.
    """
    cols = np.stack([
        # kron(x, x, ..., x) flattens the contraction to one matvec
        _kron_power(_as_spins(x), p) for x in states
    ], axis=1)
    scale = float(n) ** ((1 - p) / 2.0)
    out = np.empty((reps, len(states)))
    done = 0
    while done < reps:
        m = min(4096, reps - done)
        draws = rng.standard_normal((m, n ** p))
        out[done:done + m] = scale * (draws @ cols)
        done += m
    return out


def _kron_power(x: np.ndarray, p: int) -> np.ndarray:
    out = x
    for _ in range(p - 1):
        out = np.kron(out, x)
    return out


# ---------------------------------------------------------------------------
# jump-chain model with vectorised kernels


class PSpinEnvironment(EnvironmentOracle):
    """Environment oracle wrapping an instance: log tau = beta H, C = 2^n."""

    def __init__(self, inst: PSpinInstance):
        self.inst = inst
        self.log_C = inst.n * math.log(2.0)

    def log_tau(self, x) -> float:
        return tau(self.inst, x)


class _BatchWalker:
    """Synchronous SRW replicas with incremental Hamiltonian tracking.

    The walker for n > 20, where the energy table would exceed 8 MB,
    and for walks too short to pay for building the table.  Holds R
    spin rows plus the contraction field F that makes each flip an
    O(n) (p=2) or O(n^2) (p=3) update; ``H`` is current after every
    walk.  ``walk`` applies a block of flips a row at a time, with its
    per-step (R, n) temporaries in scratch arrays the walker keeps.
    Any R may be handed over: p=3's (rows, n, n) temporaries, in
    building F and at every step, go through ``slab`` rows at a time,
    and each row's arithmetic is the same whatever R is.
    Drift from incremental updates is bounded by steps * machine
    epsilon relative to the contraction magnitude, negligible for
    block lengths 3n^2 at desk scale.
    """

    def __init__(self, inst: PSpinInstance, x0: np.ndarray):
        self.inst = inst
        self.X = np.array(x0, dtype=float, copy=True)
        if self.X.ndim != 2 or self.X.shape[1] != inst.n:
            raise ValueError("start states must form an (R, n) array")
        self.S = inst.symmetric_tensor()
        if inst.p == 3:
            self.slab = max(256, _SLAB_ELEMS // (inst.n * inst.n))
            self.S_kkl = np.einsum("kkl->kl", self.S)  # views of the diagonals
            self.S_lll = np.einsum("lll->l", self.S)
        self._scratch = None
        self._recompute()

    def _recompute(self) -> None:
        inst, X = self.inst, self.X
        # einsum, not a BLAS GEMM: at R = 4000, n = 18 a threaded GEMM
        # leaves OpenBLAS workers spinning, and on 2 CPUs that slowed
        # the rest of a verify run by about 35 ms per call
        if inst.p == 2:
            self.F = np.einsum("rj,ij->ri", X, self.S)
        else:
            # F[r, i] = sum_{j,l} S[i,j,l] x_j x_l
            self.F = np.empty(X.shape)
            for s in range(0, len(X), self.slab):
                rs = slice(s, s + self.slab)
                np.einsum("rij,rj->ri", np.einsum("rl,ijl->rij", X[rs], self.S), X[rs],
                          out=self.F[rs])
        self.K = np.einsum("ri,ri->r", self.F, self.X)
        self.H = inst.scale * self.K

    @property
    def R(self) -> int:
        return self.X.shape[0]

    def walk(self, flips: np.ndarray, out: np.ndarray) -> None:
        """Flip coordinate flips[i, r] of row r at step i; out[i] = H after step i."""
        if self._scratch is None:
            R, n = self.X.shape
            # rows, then (R, n) gathers and field updates, then p=3's (n, n) slices of one slab
            self._scratch = (np.arange(R), np.empty((R, n)), np.empty((R, n)),
                             np.empty((min(R, self.slab), n, n)) if self.inst.p == 3 else None)
        for k, h in zip(flips, out):
            self._step(k, *self._scratch)
            np.multiply(self.inst.scale, self.K, out=h)
        self.H = out[-1].copy()

    def _step(self, k, rows, G, T, M) -> None:
        S, F, X = self.S, self.F, self.X
        d = -2.0 * X[rows, k]  # bounds-checks k, so the takes may skip it
        # mode="clip": with "raise", take copies into a fresh array before out
        if self.inst.p == 2:
            dk = 2.0 * d * F[rows, k] + d * d * S[k, k]
            np.take(S, k, axis=0, out=G, mode="clip")  # S[k_r, :]
            G *= d[:, None]
            F += G
        else:
            a = F[rows, k]
            np.take(self.S_kkl, k, axis=0, out=G, mode="clip")  # S[k_r, k_r, :]
            b = np.einsum("rl,rl->r", G, X)
            c3 = self.S_lll[k]
            dk = 3.0 * d * a + 3.0 * d * d * b + d ** 3 * c3
            for s in range(0, len(k), self.slab):
                rs = slice(s, s + self.slab)
                Ms = M[:len(k[rs])]
                np.take(S.transpose(1, 0, 2), k[rs], axis=0, out=Ms, mode="clip")  # S[:, k_r, :]
                np.einsum("ril,rl->ri", Ms, X[rs], out=T[rs])
            T *= (2.0 * d)[:, None]
            G *= (d * d)[:, None]
            T += G
            F += T
        self.K += dk
        X[rows, k] += d

    def restrict(self, keep: np.ndarray) -> "_BatchWalker":
        w = copy.copy(self)  # shares inst, S and the diagonal views
        w.X, w.F, w.K, w.H = self.X[keep], self.F[keep], self.K[keep], self.H[keep]
        w._scratch = None
        return w


class _TableWalker:
    """Synchronous SRW replicas that read H off the instance's energy table.

    The walker at n <= 20 for walks long enough to pay for the table,
    with ``_BatchWalker``'s interface.  A replica is an int64 state
    index (bit i set iff x_i = -1).  ``path`` takes a whole block of
    flips at once and returns the state indices after every step, the
    prefix XOR of the flipped bits (seeded with the start indices) down
    the steps; ``walk`` gathers their H, so H is exact at every step,
    with no incremental drift.  ``X`` and ``H`` are read off the
    current indices on demand.
    """

    def __init__(self, inst: PSpinInstance, x0: np.ndarray):
        X = np.asarray(x0, dtype=float)
        if X.ndim != 2 or X.shape[1] != inst.n:
            raise ValueError("start states must form an (R, n) array")
        self.n = inst.n
        self.table = inst.energy_table()
        self.bits = np.int64(1) << np.arange(self.n, dtype=np.int64)
        self.idx = (X < 0.0).astype(np.int64) @ self.bits

    @property
    def R(self) -> int:
        return self.idx.shape[0]

    @property
    def H(self) -> np.ndarray:
        return self.table[self.idx]

    @property
    def X(self) -> np.ndarray:
        return 1.0 - 2.0 * ((self.idx[:, None] >> np.arange(self.n)) & 1)

    def path(self, flips: np.ndarray) -> np.ndarray:
        """Flip coordinate flips[i, r] of row r at step i; return the indices after every step."""
        idx = self.bits[flips]
        idx[0] ^= self.idx
        prefix_scan(np.bitwise_xor, idx)
        self.idx = idx[-1].copy()
        return idx

    def walk(self, flips: np.ndarray, out: np.ndarray) -> None:
        """Flip coordinate flips[i, r] of row r at step i; out[i] = H after step i."""
        # every index is below 2^n; "raise" would copy into a fresh array before out
        np.take(self.table, self.path(flips), out=out, mode="clip")

    def restrict(self, keep: np.ndarray) -> "_TableWalker":
        w = object.__new__(_TableWalker)
        w.n, w.table, w.bits = self.n, self.table, self.bits
        w.idx = self.idx[keep]
        return w


def _negate_odd(X: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Negate in place each entry of X whose flat index ``cells`` holds an odd number of times."""
    odd = np.bincount(cells, minlength=X.size).reshape(X.shape) % 2 == 1
    return np.negative(X, out=X, where=odd)


def _states_before(walker, flips: np.ndarray, sel: np.ndarray, j: np.ndarray) -> np.ndarray:
    """States of the rows ``sel`` before step j[c] of the block ``flips`` just walked.

    Row c's state is its state after the block with the coordinates
    flipped an odd number of times in its flips[j[c]:] toggled back.
    """
    X = walker.restrict(sel).X
    m, n = X.shape
    later = flips[:, sel] + np.arange(m) * n  # coordinate i of row c is c * n + i
    undone = np.arange(len(flips))[:, None] >= j
    return _negate_odd(X, later[undone])


# The table walker serves n <= 20 (8 * 2^n bytes of energies, at most
# 8 MB), and only a walk that pays for the table.  Measured on one core
# (n 12..20, R 200..2000): the build costs about 2 ns per entry and
# butterfly pass (n passes over 2^n entries), and each replica-step on
# the table saves at least 45 ns (p=2) or 400 ns (p=3) over the field
# walker.
_TABLE_MAX_N = 20
_TABLE_BUILD_NS = 2.0
_TABLE_SAVED_NS = {2: 45.0, 3: 400.0}

# A p=3 field walker holds its (rows, n, n) temporaries for at most
# max(256, _SLAB_ELEMS // n^2) rows at a time: 16 MB of doubles up to
# n = 88.
_SLAB_ELEMS = 2_000_000

# The kernels draw and walk a block of steps at a time, and buffer its
# (steps, R) values (beta H or weights, and marks), at most this many
# doubles each.  2^17 added 7.5 MB to the peak memory of a 45 MB p=3
# landscape benchmark run, 2^14 about 0.5 MB.
_BLOCK_ELEMS = 2 ** 14

# weight_table is built only where beta * (max H - min H) is at most
# this: its smallest entry, exp(-600) ~ 3e-261, times a mark (rarely
# below 1e-20) stays some 27 decades above the smallest normal double.
_WEIGHT_SPAN = 600.0


def _walker(inst: PSpinInstance, x0: np.ndarray, work: int):
    """A walker for the rows of x0, in a call that walks ``work`` replica-steps in all.

    The table walker when n <= 20 and the steps it saves outweigh
    building the table, the field walker otherwise.  The choice depends
    on (n, p, work) alone, never on whether the table already exists,
    so a shared instance gives the same results at any thread count.
    """
    n = inst.n
    if n <= _TABLE_MAX_N and \
            work * _TABLE_SAVED_NS[inst.p] >= _TABLE_BUILD_NS * n * 2 ** n:
        return _TableWalker(inst, x0)
    return _BatchWalker(inst, x0)


class HypercubeSRW(JumpChainModel):
    """Simple random walk on {-1,+1}^n with uniform invariant measure.

    Implements the generic jump-chain interface with array-valued batch
    sampling, plus vectorised kernels (block statistics, two-time
    overlaps, batched rates) for p in {2, 3} p-spin environments of the
    same n.  ``vectorises(env)`` says whether env is such an
    environment; the kernels assume it is, and engine calls them only
    then, running its reference loops for every other environment.
    """

    period = 2

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self._log_pi = -n * math.log(2.0)

    def initial_state(self, rng):
        return rng.integers(0, 2, self.n).astype(float) * 2.0 - 1.0

    def next_state(self, x, rng):
        # no +-1 scan, which costs more than the flip: the chain's own
        # states need no check
        out = np.array(x, dtype=float)
        k = int(rng.integers(self.n))
        out[k] = -out[k]
        return out

    def log_pi(self, x) -> float:
        return self._log_pi

    def overlap(self, x, y) -> float:
        return overlap(x, y)

    def sample_stationary(self, reps: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, 2, (reps, self.n)).astype(float) * 2.0 - 1.0

    def step_batch(self, states: np.ndarray, rng: np.random.Generator,
                   steps: int = 1) -> np.ndarray:
        """Advance every row `steps` SRW flips, drawn as one (steps, R) array."""
        X = np.array(states, dtype=float, copy=True)
        R, n = X.shape
        flips = rng.integers(0, n, (steps, R))
        return _negate_odd(X, (flips + np.arange(R) * n).ravel())

    def vectorises(self, env) -> bool:
        """True when env is a p in {2, 3} p-spin environment on this hypercube.

        Such an environment has C = 2^n = 1/pi, so log lambda^{-1} =
        beta H - log C - log pi is exactly beta H: the kernels read beta H
        as the log inverse rate.
        """
        return isinstance(env, PSpinEnvironment) and env.inst.p in (2, 3) \
            and env.inst.n == self.n

    def batch_log_inv_rates(self, env, states) -> np.ndarray:
        """log lambda^{-1} = beta H at each given state."""
        # no steps are walked, so no table is built for these rates
        return env.inst.beta * _walker(env.inst, np.asarray(states, dtype=float), 0).H

    def block_statistics(self, env, theta: int, reps: int, rng: np.random.Generator,
                         starts=None, want_max: bool = False,
                         want_end: bool = False) -> BlockStats:
        """Block sums (and maxima) of beta H + log(mark), a block of steps at a time.

        Same contract as ``engine.generic_block_statistics``.  Each block
        draws its flips, then its marks.  On the table walker, when the
        instance has a ``weight_table`` (top, w), each block adds
        w * mark at the walked indices to a linear running sum, and the
        log-sum is top + log(sum) at the end.  Otherwise each block
        joins the running log-sum as shift + log(sum(exp(a - shift) *
        mark)), with a its beta H and shift their largest per replica.
        The maxima are read off beta H either way.
        """
        inst = env.inst
        x0 = self.sample_stationary(reps, rng) if starts is None \
            else np.asarray(starts, dtype=float)
        walker = _walker(inst, x0, reps * theta)
        top, w = inst.weight_table() if isinstance(walker, _TableWalker) else (None, None)
        # the running log-sum, or on the weights the running linear sum
        ls = np.full(reps, -math.inf) if w is None else np.zeros(reps)
        lm = np.full(reps, -math.inf) if want_max else None
        rows = min(theta, max(1, _BLOCK_ELEMS // reps))
        a = np.empty((rows, reps))  # beta H (or weight) after each step in the block
        e = np.empty((rows, reps))  # and its mark
        for j in range(0, theta, rows):
            r = min(rows, theta - j)
            ar, er = a[:r], e[:r]
            flips = rng.integers(0, self.n, (r, reps))
            rng.standard_exponential(out=er)
            if w is None:
                walker.walk(flips, ar)
                ar *= inst.beta
                shift = ar.max(0)
                s = (np.exp(ar - shift) * er).sum(0)
                np.logaddexp(ls, shift + np.log(s), out=ls)
            else:
                idx = walker.path(flips)
                np.take(w, idx, out=ar, mode="clip")
                ar *= er
                ls += ar.sum(0)
                if want_max:
                    np.take(walker.table, idx, out=ar, mode="clip")
                    ar *= inst.beta
            if want_max:
                np.maximum(lm, (ar + np.log(er)).max(0), out=lm)
        if w is not None:
            ls = top + np.log(ls)
        return BlockStats(log_sums=ls, log_maxes=lm,
                          end_states=walker.X if want_end else None)

    def correlation_overlaps(self, env, log_levels, pairs, reps: int,
                             rng: np.random.Generator, step_budget: int) -> np.ndarray:
        """Two-time overlaps of ``reps`` stationary walks, a block of steps at a time.

        Same contract as ``engine.generic_correlation_overlaps``; step i
        owns the state before flip i.  The running log-sum of a block is
        the ``logaddexp`` prefix scan of its terms down the steps
        (``stats.prefix_scan``), seeded with the sum before it.  Each
        level passed in a block gives its rows' first steps past it as
        an ``argmax`` of the level mask.  Rows past the largest level
        leave the walk at the end of their block; no block runs past
        ``step_budget``.
        """
        inst, n = env.inst, self.n
        levels = np.asarray(log_levels, dtype=float)
        walker = _walker(inst, self.sample_stationary(reps, rng), reps * step_budget)
        states = np.full((reps, len(levels), n), np.nan)  # the state at each level
        passed = np.zeros(reps, dtype=np.intp)  # levels each walker row has passed
        cum = np.full(reps, -math.inf)
        alive = np.arange(reps)  # output row of each walker row
        # flat buffers: an (r, R) view of a prefix stays contiguous as R shrinks
        size = max(_BLOCK_ELEMS, reps)
        terms = np.empty(size + reps)
        marks = np.empty(size)
        done = 0
        while done < step_budget:
            R = walker.R
            r = min(step_budget - done, max(1, _BLOCK_ELEMS // R))
            K = rng.integers(0, n, (r, R))
            E = rng.standard_exponential(out=marks[:r * R].reshape(r, R))
            h = terms[:(r + 1) * R].reshape(r + 1, R)
            h[0] = walker.H
            walker.walk(K, h[1:])
            S = h[:r]  # H before each flip, then the running log-sum
            S *= inst.beta
            S += np.log(E, out=E)
            np.logaddexp(cum, S[0], out=S[0])
            prefix_scan(np.logaddexp, S)
            cum = S[-1].copy()
            done += r
            now = np.searchsorted(levels, cum)  # levels below the running sum
            if not np.any(now > passed):
                continue
            for level in range(passed.min(), now.max()):
                cross = (passed <= level) & (now > level)
                if np.any(cross):
                    j = np.argmax(S[:, cross] > levels[level], axis=0)
                    states[alive[cross], level] = _states_before(walker, K, cross, j)
            passed, keep = now, now < len(levels)
            if np.all(keep):
                continue
            if not np.any(keep):
                break
            walker = walker.restrict(keep)
            alive, cum, passed = alive[keep], cum[keep], passed[keep]
        first, last = np.asarray(pairs).T
        return np.einsum("rci,rci->rc", states[:, first], states[:, last]) / n
