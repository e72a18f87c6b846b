"""Horn-clause satisfiability by recursive forward chaining.

The pipeline: parse formula text (or DIMACS CNF), convert to an
equivalent conjunction of clauses, rewrite clauses as implications, then
saturate from {verum} to the least fixpoint.  Satisfiability is decided
by whether falsum entered the final set, which also reads off the least
model.  A brute-force truth-table oracle provides independent ground
truth for testing.
"""

from . import formula, horn, normalform, oracle, parsing, solver
from .formula import *
from .horn import *
from .normalform import *
from .oracle import *
from .parsing import *
from .solver import *

__version__ = "0.1.0"

__all__ = [
    *formula.__all__,
    *normalform.__all__,
    *horn.__all__,
    *solver.__all__,
    *oracle.__all__,
    *parsing.__all__,
]
