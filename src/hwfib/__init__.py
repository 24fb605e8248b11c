"""hwfib: exact-arithmetic toolkit for Hantzsche-Wendt groups and their
Fibonacci presentations.

The package constructs Hantzsche-Wendt candidate groups as affine isometry
groups in the standard diagonal form, classifies them (holonomy, translation
lattice, crystallographic and torsion-freeness tests), builds the quotient
map from the Fibonacci group F(n-1, 2n) onto any such group, and verifies
every step by machine-checkable exact computation: the one-dimensional side
symbolically over integer linear forms, and the n-dimensional side once per
dimension, on generic translations packed into ints, a certificate that
covers every candidate of that dimension.
"""

from .exact import smith_normal_form
from .isometry import DiagIsometry
from .fpgroup import (
    GenImages,
    Presentation,
    Word,
    abelianization,
    evaluate,
    fibonacci_presentation,
    free_reduce,
    relator_matrix,
    shift,
    verify_relators,
    word,
    word_inverse,
)
from .hwgroup import (
    Classification,
    HWCandidate,
    Lattice,
    candidate_count,
    candidate_from_index,
    candidate_from_json_dict,
    candidate_to_json_dict,
    classify,
    cyclic_hw,
    translation_lattice,
)
from .epimorphism import (
    SymSequence,
    VerificationReport,
    build_epimorphism,
    symbolic_checks,
    symbolic_sequence,
    verify_addrel,
    verify_main_theorem,
    verify_periodicity,
)

__version__ = "0.1.0"
