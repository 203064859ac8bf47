"""Symbol-selection strategies for orbit generation.

Word-valued strategies (explicit, periodic, seeded random) materialize the
whole symbol sequence up front; the generator picks the adaptive greedy-avoid
strategy's symbols one step at a time, then sums them like any word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..errors import GuardError, UsageError

# Greedy cells get one score byte each; 2**24 already outnumber an orbit's 10**7
# points.  At the cap a greedy orbit of 10**7 points at 128 bits, forbidden
# interval (2/5, 3/5), took 7.8-9.4 s (two runs) and 193 MB peak RSS (own
# process, 2-core x86_64, Python 3.11, numpy 2.4).
MAX_CELL_BITS = 24


class Strategy:
    adaptive = False

    def descriptor(self) -> str:
        raise NotImplementedError

    def materialize(self, n: int, ell: int, rng: np.random.Generator | None) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class ExplicitWord(Strategy):
    word: tuple[int, ...]  # symbols 1..ell

    def descriptor(self) -> str:
        shown = "".join(map(str, self.word[:32]))
        return f"word:{shown}{'...' if len(self.word) > 32 else ''}"

    def materialize(self, n, ell, rng=None):
        if len(self.word) < n:
            raise UsageError(f"explicit word of length {len(self.word)} shorter than n={n}")
        w = np.asarray(self.word[:n], dtype=np.uint8)
        if w.size and (w.min() < 1 or w.max() > ell):
            raise UsageError("word symbols must lie in 1..ell")
        return w


@dataclass(frozen=True)
class PeriodicWord(Strategy):
    word: tuple[int, ...]

    def descriptor(self) -> str:
        return f"periodic:{''.join(map(str, self.word))}"

    def materialize(self, n, ell, rng=None):
        if not self.word:
            raise UsageError("periodic word must be nonempty")
        base = np.asarray(self.word, dtype=np.uint8)
        if base.min() < 1 or base.max() > ell:
            raise UsageError("word symbols must lie in 1..ell")
        reps = -(-n // base.size)
        return np.tile(base, reps)[:n]


@dataclass(frozen=True)
class RandomSymbols(Strategy):
    def descriptor(self) -> str:
        return "random"

    def materialize(self, n, ell, rng):
        if rng is None:
            raise UsageError("random strategy requires a seed")
        return rng.integers(1, ell + 1, size=n, dtype=np.uint8)


@dataclass(frozen=True)
class GreedyAvoid(Strategy):
    """Avoid a forbidden interval; prefer already-occupied dyadic cells.

    At each step the symbol chosen minimizes, in order: membership of the
    candidate point in the forbidden interval, the number of newly occupied
    cells at resolution 2**-cell_bits (0 or 1), then the symbol index.
    """

    forbidden_lo: Fraction | None = None  # None means empty forbidden set
    forbidden_hi: Fraction | None = None
    cell_bits: int = 20  # 0..MAX_CELL_BITS

    adaptive = True

    def __post_init__(self):
        bits = self.cell_bits
        if type(bits) is not int or bits < 0:
            raise UsageError(f"greedy_avoid cell_bits must be an integer >= 0, got {bits!r}")
        if bits > MAX_CELL_BITS:
            raise GuardError(f"greedy_avoid cell_bits={bits} exceeds the guard of {MAX_CELL_BITS}")

    def descriptor(self) -> str:
        if self.forbidden_lo is None:
            return "greedy-avoid:empty"
        return f"greedy-avoid:({self.forbidden_lo},{self.forbidden_hi})"


# The keys each strategy type reads besides "type".
STRATEGY_KEYS = {"word": {"word"}, "periodic": {"word"}, "random": set(),
                 "greedy_avoid": {"lo", "hi", "cell_bits"}}


def parse_strategy(spec: dict) -> Strategy:
    """Strategy from its config-dict form (see the cli module schema); a key its type
    does not read is refused."""
    kind = spec.get("type")
    if isinstance(kind, str) and kind in STRATEGY_KEYS:
        unknown = set(spec) - STRATEGY_KEYS[kind] - {"type"}
        if unknown:
            raise UsageError(f"unknown {kind} strategy keys: {sorted(unknown)}")
    if kind == "word":
        return ExplicitWord(tuple(int(c) for c in str(spec["word"])))
    if kind == "periodic":
        return PeriodicWord(tuple(int(c) for c in str(spec["word"])))
    if kind == "random":
        return RandomSymbols()
    if kind == "greedy_avoid":
        lo, hi = spec.get("lo"), spec.get("hi")
        ends = (None, None) if lo is None and hi is None else (Fraction(str(lo)), Fraction(str(hi)))
        return GreedyAvoid(*ends, spec.get("cell_bits", 20))
    raise UsageError(f"unknown strategy type {kind!r}")

