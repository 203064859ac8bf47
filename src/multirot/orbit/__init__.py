"""Circle orbits under multiple rotation steps, with counting sequences."""

from .generate import (
    Orbit,
    ReducedOrbit,
    TauDiscrepancyReport,
    first_forbidden_violation,
    generate_orbit,
    reduced_orbit,
    tau_discrepancy,
)
from .io import read_orb1, write_orb1, write_orbit_csv
from .steps import StepSystem, build_step_system, steps_from_values
from .strategies import (
    ExplicitWord,
    GreedyAvoid,
    PeriodicWord,
    RandomSymbols,
    Strategy,
    parse_strategy,
)

__all__ = [
    "StepSystem",
    "build_step_system",
    "steps_from_values",
    "Orbit",
    "generate_orbit",
    "first_forbidden_violation",
    "tau_discrepancy",
    "TauDiscrepancyReport",
    "reduced_orbit",
    "ReducedOrbit",
    "Strategy",
    "ExplicitWord",
    "PeriodicWord",
    "RandomSymbols",
    "GreedyAvoid",
    "parse_strategy",
    "write_orb1",
    "read_orb1",
    "write_orbit_csv",
]
