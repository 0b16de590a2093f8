"""Linear-time 3-coloring of triangle-free plane graphs.

Submodules: embedding (rotation-system kernel), multigram (reducible
configurations), reducer (reductions + coloring extension), solver
(worklist engine), oracle (brute-force ground truth), generators and
instances (inputs), graphio (text format), cli (driver).
"""

__version__ = "0.1.0"

from .embedding import DEGREE_CAP, PlaneGraph, build, validate
from .graphio import parse, serialize
from .multigram import Multigram, admissible, find_secure_with_pivot, is_secure
from .reducer import ReductionRecord, extend, reduce, unwind
from .solver import Solver, SolverStats, three_color

__all__ = [
    "DEGREE_CAP", "PlaneGraph", "build", "validate",
    "parse", "serialize",
    "Multigram", "admissible", "find_secure_with_pivot", "is_secure",
    "ReductionRecord", "extend", "reduce", "unwind",
    "Solver", "SolverStats", "three_color",
    "__version__",
]
