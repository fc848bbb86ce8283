"""Online enumeration of minimal unsatisfiable subsets with check accounting.

The enumerators run on any `SatOracle`; `CnfOracle` (from `parse_dimacs`) is
the domain the package ships. Every name below has a caller in the package
or in the benchmark.
"""

from .core import (
    ConstraintSet,
    DimacsParseError,
    InstanceSatisfiableError,
    MusError,
    MusRecord,
    PreconditionError,
    UniverseMismatchError,
)
from .oracles import (
    CnfOracle,
    SatOracle,
    is_mus,
    parse_dimacs,
)
from .session import EnumerationResult, RemusConfig, choose_p, enumerate_marco, enumerate_remus, shrink
from .unexplored import UnexploredMap

__version__ = "0.1.0"

__all__ = [
    "CnfOracle",
    "ConstraintSet",
    "DimacsParseError",
    "EnumerationResult",
    "InstanceSatisfiableError",
    "MusError",
    "MusRecord",
    "PreconditionError",
    "RemusConfig",
    "SatOracle",
    "UniverseMismatchError",
    "UnexploredMap",
    "choose_p",
    "enumerate_marco",
    "enumerate_remus",
    "is_mus",
    "parse_dimacs",
    "shrink",
]
