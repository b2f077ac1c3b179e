"""Exact polynomial certificates for knot character varieties.

Sparse exact polynomial arithmetic, SL2 trace calculus over two-generator
groups, character-variety structure for two-bridge and pretzel knots, and
the quantum-torus recurrence picture with its t = -1 specialization.
"""

from .exactpoly import (AlignmentError, InexactDivisionError, LaurentInputError,
                        MultiPoly, RationalFunction, exact_div,
                        is_squarefree_in, newton_polygon, poly_gcd,
                        rational_normalize, resultant_in, squarefree_part_in)
from .pretzel import PretzelKnot
from .qtorus import (act, alpha_unknot, annihilation_check, epsilon_eval,
                     jones_unknot, qt_mul, qt_sigma, qt_text,
                     sigma_symmetry_factor)
from .report import VerificationReport, all_passed, sort_reports
from .sl2trace import (FreeWord, chebyshev_s, chebyshev_t, reduce_word,
                       trace_poly, word_from_string, word_to_string)
from .twobridge import TwoBridgeKnot, all_knots, character_polynomial

__version__ = "0.1.0"

__all__ = [
    "AlignmentError", "FreeWord", "InexactDivisionError", "LaurentInputError",
    "MultiPoly", "PretzelKnot", "RationalFunction", "TwoBridgeKnot",
    "VerificationReport", "act", "all_knots", "all_passed", "alpha_unknot",
    "annihilation_check", "character_polynomial", "chebyshev_s", "chebyshev_t",
    "epsilon_eval", "exact_div", "is_squarefree_in", "jones_unknot",
    "newton_polygon", "poly_gcd", "qt_mul", "qt_sigma", "qt_text",
    "rational_normalize", "reduce_word", "resultant_in",
    "sigma_symmetry_factor", "sort_reports", "squarefree_part_in",
    "trace_poly", "word_from_string", "word_to_string", "__version__",
]
