"""Orbit generation on the circle with companion counting sequences.

Points are B-bit fixed-point fractions: each step adds a pre-rounded step
image exactly mod 2**B, so the accumulated error after n steps is at most
n * 2**(-B+2) (stored on the orbit).  Orbits and reduced orbits store their
points as (n+1, ceil(B/64)) uint64 limb arrays (`multirot.fixedpoint`).
Word strategies and reduced orbits are summed in numpy by
`fixedpoint.accumulate`; only the greedy strategy, whose every step depends
on the last point, runs a per-point loop.  Completed orbits are immutable
and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import floor, lcm

import numpy as np

from ..errors import GuardError, UsageError
from .. import fixedpoint
from ..fixedpoint import fp_from_fraction
from ..table import chunk_bounds
from .steps import StepSystem
from .strategies import GreedyAvoid, Strategy

# Points take 8 * ceil(B/64) bytes each: 160 MB at the guard for 128 bits (the
# greedy strategy also holds a Python int per point, ~50 bytes, until it packs).
MAX_ORBIT_N = 10**7


@dataclass(frozen=True, eq=False)
class Orbit:
    steps: StepSystem
    bits: int
    omega: np.ndarray            # shape (n,), uint8 symbols 1..ell
    points: np.ndarray           # (n+1, ceil(bits/64)) uint64 limbs, x_0 = 0
    strategy_descriptor: str
    seed: int | None
    error_bound: Fraction        # n * 2**(-bits+2)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.omega)

    @property
    def ell(self) -> int:
        return self.steps.ell

    def counts(self) -> np.ndarray:
        """N_i(k) for k = 0..n, shape (n+1, ell), exact integers."""
        if "counts" not in self._cache:
            out = np.zeros((self.n + 1, self.ell), dtype=np.int64)
            for i in range(self.ell):
                out[1:, i] = np.cumsum(self.omega == i + 1)
            self._cache["counts"] = out
        return self._cache["counts"]

    def tau(self) -> np.ndarray:
        """tau(k) = N_2(k); defined only for two-step systems."""
        if self.ell != 2:
            raise UsageError("tau is defined only for ell = 2")
        return self.counts()[:, 1]

    def bvec(self) -> np.ndarray:
        """b_j(k) = sum_i p_ij N_i(k), shape (n+1, r)."""
        if "bvec" not in self._cache:
            p = np.asarray(self.steps.p, dtype=np.int64).reshape(self.ell, self.steps.r)
            self._cache["bvec"] = self.counts() @ p
        return self._cache["bvec"]

    def top64(self) -> np.ndarray:
        """Points truncated to 64-bit fixed point (uint64): a view of the first limb."""
        return self.points[:, 0]

    def point(self, k: int) -> int:
        """x_k as a B-bit integer."""
        return fixedpoint.to_int(self.points[k], self.bits)

    def point_fraction(self, k: int) -> Fraction:
        return Fraction(self.point(k), 1 << self.bits)


def _forbidden_bounds(strategy: GreedyAvoid, bits: int) -> tuple[int, int] | None:
    if strategy.forbidden_lo is None:
        return None
    lo = fp_from_fraction(strategy.forbidden_lo, bits)
    hi = fp_from_fraction(strategy.forbidden_hi, bits)
    return lo, hi


def generate_orbit(
    steps: StepSystem,
    strategy: Strategy,
    n: int,
    bits: int = 128,
    seed: int | None = None,
) -> Orbit:
    """Length-n orbit with x_0 = 0, deterministic given (strategy, seed)."""
    if bits < 64:
        raise UsageError("bits must be >= 64")
    if n < 1:
        raise UsageError("n must be >= 1")
    if n > MAX_ORBIT_N:
        raise GuardError(f"orbit length n={n} exceeds the guard of {MAX_ORBIT_N}")
    if steps.ell < 2:
        raise UsageError("orbit generation needs at least two steps")
    fp_steps = steps.fixed_point_steps(bits)
    rng = np.random.default_rng(seed) if seed is not None else None

    if not strategy.adaptive:
        omega = strategy.materialize(n, steps.ell, rng)
        points = fixedpoint.accumulate(omega, fp_steps, bits)
    else:
        assert isinstance(strategy, GreedyAvoid)
        mask = (1 << bits) - 1
        omega_arr = np.empty(n, dtype=np.uint8)
        values = [0] * (n + 1)
        forb = _forbidden_bounds(strategy, bits)
        cell_shift = bits - strategy.cell_bits
        occupied = bytearray(1 << strategy.cell_bits)
        occupied[0] = 1
        x = 0
        ell = steps.ell
        for k in range(n):
            best = None
            best_key = None
            for i in range(ell):
                cand = (x + fp_steps[i]) & mask
                if forb is None:
                    in_forb = 0
                else:
                    lo, hi = forb
                    if lo <= hi:
                        in_forb = 1 if lo < cand < hi else 0
                    else:
                        in_forb = 1 if (cand > lo or cand < hi) else 0
                new_cell = 0 if occupied[cand >> cell_shift] else 1
                key = (in_forb, new_cell, i)
                if best_key is None or key < best_key:
                    best_key = key
                    best = cand
            x = best
            omega_arr[k] = best_key[2] + 1
            occupied[x >> cell_shift] = 1
            values[k + 1] = x
        omega = omega_arr
        points = fixedpoint.pack(values, bits)

    return Orbit(
        steps=steps,
        bits=bits,
        omega=omega,
        points=points,
        strategy_descriptor=strategy.descriptor(),
        seed=seed,
        error_bound=Fraction(n, 1 << (bits - 2)),
    )


def first_forbidden_violation(orbit: Orbit, lo: Fraction, hi: Fraction) -> int | None:
    """Index of the first orbit point inside the open interval, or None.

    Avoiding orbits are not guaranteed to exist for every parameter choice,
    so greedy runs report their first violation instead of asserting one
    away.  Points are compared at 64-bit resolution.
    """
    top = orbit.top64()
    lo64 = np.uint64(fp_from_fraction(lo, 64))
    hi64 = np.uint64(fp_from_fraction(hi, 64))
    if lo64 <= hi64:
        mask = (top > lo64) & (top < hi64)
    else:
        mask = (top > lo64) | (top < hi64)
    if not mask.any():
        return None
    return int(np.argmax(mask))


# -- tau discrepancy ---------------------------------------------------------

@dataclass(frozen=True)
class TauDiscrepancyReport:
    n: int
    pairs_sampled: int
    max_pair_defect: int                 # max |tau(n+m) - tau(n) - tau(m)| over samples
    tau_estimate: Fraction               # tau(n_max) / n_max
    max_dev_half_toward_zero: int        # max |tau(k) - <k tau>| (nearest, half toward 0)
    max_dev_integer_part: int            # max |tau(k) - [k tau]|
    bound: int | None = None
    below_bound: bool | None = None


def tau_discrepancy(
    orbit: Orbit, bound: int | None = None, samples: int = 4096, seed: int = 0
) -> TauDiscrepancyReport:
    """Exact integer statistics of the tau counting function (ell = 2 only).

    Diagnostic: the subadditivity-defect bound is a conditional statement,
    so this reports measured maxima and, when `bound` is given, whether the
    sampled defects stayed strictly below it.
    """
    tau = orbit.tau()
    n = orbit.n
    rng = np.random.default_rng(seed)
    high = max(n, 2)  # n = 1 has no pairs: every draw is (1, 1), dropped below
    ns = rng.integers(1, high, size=samples, dtype=np.int64)
    ms = rng.integers(1, high, size=samples, dtype=np.int64)
    keep = ns + ms <= n
    ns, ms = ns[keep], ms[keep]
    defects = np.abs(tau[ns + ms] - tau[ns] - tau[ms])
    max_defect = int(defects.max()) if defects.size else 0

    p, q = int(tau[n]), n
    dev_half = dev_int = 0
    for start, stop in chunk_bounds(n + 1):
        base, rem = np.divmod(np.arange(start, stop, dtype=np.int64) * p, q)
        dev = tau[start:stop] - base
        dev_int = max(dev_int, int(np.abs(dev).max()))
        dev -= 2 * rem > q  # tau minus the nearest integer, halves toward zero
        dev_half = max(dev_half, int(np.abs(dev).max()))

    return TauDiscrepancyReport(
        n=n,
        pairs_sampled=int(ns.size),
        max_pair_defect=max_defect,
        tau_estimate=Fraction(p, q),
        max_dev_half_toward_zero=dev_half,
        max_dev_integer_part=dev_int,
        bound=bound,
        below_bound=(max_defect < bound) if bound is not None else None,
    )


# -- reduced orbit -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReducedOrbit:
    xtilde: np.ndarray                   # limb array, same bits and shape as the source orbit
    bits: int
    shift_index: int                     # r0 (0-based)
    shift_amount: int                    # M
    betas_star: tuple[Fraction, ...]
    qstar: tuple[Fraction, ...]
    observed_diffs: tuple[Fraction, ...]  # distinct values of x_n - x~_n (exact)

    def top64(self) -> np.ndarray:
        """x~ truncated to 64-bit fixed point (uint64): a view of the first limb."""
        return self.xtilde[:, 0]


def reduced_orbit(
    orbit: Orbit, shift_index: int | None = None, shift_amount: int | None = None
) -> ReducedOrbit:
    """The beta-part sequence x~_n = sum_j b_j(n) beta*_j mod 1.

    The basis shift beta_{r0} -> beta_{r0} + M leaves x~ unchanged mod 1
    (b_{r0} M is an integer) but moves its rational complement: the return
    value records the observed set of x_n - x~_n, all of which are of the
    form sum_i q*_i N_i(n) mod 1 with q*_i = q_i - M p_{i,r0}.
    """
    steps = orbit.steps
    if steps.r == 0:
        raise UsageError("reduced orbit undefined: all steps rational (r = 0)")
    bvec = orbit.bvec()
    if shift_index is None:
        shift_index = int(np.abs(bvec[-1]).argmax())
    if not (0 <= shift_index < steps.r):
        raise UsageError("shift_index out of range")
    beta_vals = steps.beta_values()
    if shift_amount is None:
        shift_amount = floor(1 + sum(abs(b) for b in beta_vals)) + 1

    betas_star = tuple(
        b + (shift_amount if j == shift_index else 0) for j, b in enumerate(beta_vals)
    )
    qstar = tuple(
        qi - shift_amount * steps.p[i][shift_index] for i, qi in enumerate(steps.q)
    )

    bits = orbit.bits
    # per-symbol exact increment sum_j p_ij beta*_j, rounded once
    deltas = []
    for i in range(steps.ell):
        d = sum((Fraction(steps.p[i][j]) * betas_star[j] for j in range(steps.r)), Fraction(0))
        deltas.append(fp_from_fraction(d, bits))
    xtilde = fixedpoint.accumulate(orbit.omega, deltas, bits)

    # exact difference values sum_i q*_i N_i(n) mod 1
    denom = lcm(*(qi.denominator for qi in qstar))
    nums = np.array([int(qi * denom) for qi in qstar], dtype=np.int64)
    counts = orbit.counts()
    raw = (counts @ nums) % denom
    observed = tuple(sorted(Fraction(int(v), denom) for v in np.unique(raw)))

    return ReducedOrbit(
        xtilde=xtilde,
        bits=bits,
        shift_index=shift_index,
        shift_amount=shift_amount,
        betas_star=betas_star,
        qstar=qstar,
        observed_diffs=observed,
    )
