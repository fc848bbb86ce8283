"""Online enumeration of minimal unsatisfiable subsets with check accounting."""

from .core import (
    ConstraintSet,
    DimacsParseError,
    InstanceSatisfiableError,
    MonotonicityError,
    MusError,
    MusRecord,
    PreconditionError,
    UniverseMismatchError,
)
from .oracles import (
    CnfOracle,
    SatOracle,
    TableOracle,
    bruteforce_all_muses,
    is_mus,
    parse_dimacs,
)
from .remus import choose_p, enumerate_marco, enumerate_remus
from .session import EnumerationResult, RemusConfig
from .shrink import shrink
from .unexplored import UnexploredMap

__version__ = "0.1.0"

__all__ = [
    "CnfOracle",
    "ConstraintSet",
    "DimacsParseError",
    "EnumerationResult",
    "InstanceSatisfiableError",
    "MonotonicityError",
    "MusError",
    "MusRecord",
    "PreconditionError",
    "RemusConfig",
    "SatOracle",
    "TableOracle",
    "UniverseMismatchError",
    "UnexploredMap",
    "bruteforce_all_muses",
    "choose_p",
    "enumerate_marco",
    "enumerate_remus",
    "is_mus",
    "parse_dimacs",
    "shrink",
]
