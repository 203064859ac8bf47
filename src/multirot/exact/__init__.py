"""Exact arithmetic over Q and declared-basis reals, with independence tests."""

from .commensurability import (
    CommensurabilityOutcome,
    CommensurabilityWitness,
    commensurability_witness,
    log_vector,
)
from .independence import (
    IndependenceVerdict,
    q_independent_mod1,
    qplus_independent_mod1,
    rank_span,
    witness_combination,
)
from .primes import exponent_vector, factorize
from .symbolic import BUILTIN_VALUES, BasisEntry, BasisTable, SymbolicReal, builtin_table

__all__ = [
    "BasisEntry",
    "BasisTable",
    "SymbolicReal",
    "BUILTIN_VALUES",
    "builtin_table",
    "rank_span",
    "qplus_independent_mod1",
    "q_independent_mod1",
    "witness_combination",
    "IndependenceVerdict",
    "commensurability_witness",
    "CommensurabilityWitness",
    "CommensurabilityOutcome",
    "log_vector",
    "factorize",
    "exponent_vector",
]
