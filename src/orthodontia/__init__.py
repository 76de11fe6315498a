"""Exact Schubert and Grothendieck polynomial computations.

The library provides:

- immutable one-line-notation permutations with the usual statistics
  (:mod:`orthodontia.permutation`),
- an exact integer-coefficient sparse polynomial ring
  (:mod:`orthodontia.polynomial`),
- the four divided-difference operator families acting on it
  (:mod:`orthodontia.operators`),
- column diagrams, Rothe diagrams and the orthodontia algorithm
  (:mod:`orthodontia.diagram`),
- the polynomial constructors: recursive Schubert/Grothendieck
  polynomials, their ascending operator formulas, sorting machinery and
  the transition (Monk-type) expansion (:mod:`orthodontia.grothendieck`),
- support and degree analysis (:mod:`orthodontia.analysis`),
- a command-line front end (:mod:`orthodontia.cli`).
"""

from orthodontia.permutation import (
    Permutation,
    from_one_line,
    identity,
    longest_element,
    symmetric_group,
)
from orthodontia.polynomial import (
    DivisionRemainderError,
    Monomial,
    Polynomial,
    RankMismatchError,
    exact_divide_monomial,
    fundamental_weight,
    monomial_divides,
)
from orthodontia.operators import (
    demazure,
    demazure_lascoux,
    divided_difference,
    isobaric,
)
from orthodontia.diagram import (
    Diagram,
    OrthodontiaError,
    OrthodonticSequence,
    diagram_monomial,
    is_strongly_separated,
    orthodontia,
    rothe_diagram,
    sort_columns,
    upper_closure,
)
from orthodontia.grothendieck import (
    PrimaryColumnData,
    RankOverflowError,
    dominant_grothendieck,
    fallen_boxes,
    grothendieck_recursive,
    is_dominant,
    is_sorted_permutation,
    monk_terms,
    orthodontia_grothendieck,
    orthodontia_schubert,
    os_predecessor,
    primary_column_data,
    schubert_recursive,
    sigma,
    sort_permutation,
    unsort_factor,
)
from orthodontia.analysis import (
    DegreeReport,
    SupportVectors,
    check_conjecture,
    check_divisibility,
    degree_report,
    exponent_change_check,
    support_vectors,
)

__version__ = "0.1.0"

__all__ = [
    "Permutation",
    "from_one_line",
    "identity",
    "longest_element",
    "symmetric_group",
    "Monomial",
    "Polynomial",
    "RankMismatchError",
    "DivisionRemainderError",
    "exact_divide_monomial",
    "fundamental_weight",
    "monomial_divides",
    "divided_difference",
    "demazure",
    "isobaric",
    "demazure_lascoux",
    "Diagram",
    "OrthodonticSequence",
    "OrthodontiaError",
    "rothe_diagram",
    "orthodontia",
    "upper_closure",
    "diagram_monomial",
    "is_strongly_separated",
    "sort_columns",
    "PrimaryColumnData",
    "RankOverflowError",
    "schubert_recursive",
    "grothendieck_recursive",
    "orthodontia_schubert",
    "orthodontia_grothendieck",
    "is_dominant",
    "dominant_grothendieck",
    "primary_column_data",
    "sigma",
    "sort_permutation",
    "is_sorted_permutation",
    "monk_terms",
    "unsort_factor",
    "fallen_boxes",
    "os_predecessor",
    "DegreeReport",
    "SupportVectors",
    "check_divisibility",
    "degree_report",
    "exponent_change_check",
    "support_vectors",
    "check_conjecture",
]
