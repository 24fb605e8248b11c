"""hwfib: exact-arithmetic toolkit for Hantzsche-Wendt groups and their
Fibonacci presentations.

The package constructs Hantzsche-Wendt candidate groups as affine isometry
groups in the standard diagonal form, classifies them (holonomy, translation
lattice, crystallographic and torsion-freeness tests), builds the quotient
map from the Fibonacci group F(n-1, 2n) onto any such group, and verifies
every step by machine-checkable exact computation: the one-dimensional side
symbolically over integer linear forms, the n-dimensional side over exact
rationals.
"""

from .exact import (
    Rational,
    format_rational,
    parse_rational,
    rational,
    smith_normal_form,
)
from .isometry import (
    DiagIsometry,
    apply,
    component,
    compose,
    direct_sum,
    inverse,
    rotational_part,
)
from .fpgroup import (
    GenImages,
    Presentation,
    RelatorReport,
    Word,
    abelianization,
    concat,
    evaluate,
    fibonacci_presentation,
    free_reduce,
    gen,
    relator_matrix,
    shift,
    verify_relators,
    word,
    word_from_ints,
    word_inverse,
    word_to_ints,
)
from .hwgroup import (
    Classification,
    HWCandidate,
    Lattice,
    build_candidate,
    candidate_count,
    candidate_from_index,
    candidate_from_json_dict,
    candidate_to_json_dict,
    classify,
    cyclic_hw,
    enumerate_candidates,
    is_crystallographic,
    is_hantzsche_wendt,
    is_torsion_free,
    translation_lattice,
)
from .epimorphism import (
    SymSequence,
    VerificationReport,
    build_epimorphism,
    build_epimorphism_by_components,
    component_images,
    symbolic_sequence,
    verify_addrel,
    verify_main_theorem,
    verify_periodicity,
)

__version__ = "0.1.0"
