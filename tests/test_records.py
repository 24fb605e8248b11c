"""Value semantics of the package's record types: equality and hash by the
tuple of their fields, in the order the fields were declared, pickling, and
the validation of their public constructors."""

import pickle
from fractions import Fraction

import pytest

from hwfib.epimorphism import (
    SymSequence,
    VerificationReport,
    build_epimorphism,
    symbolic_sequence,
    verify_main_theorem,
)
from hwfib.fpgroup import (
    GenImages,
    Presentation,
    fibonacci_presentation,
)
from hwfib.hwgroup import (
    Classification,
    HWCandidate,
    Lattice,
    classify,
    cyclic_hw,
)
from hwfib.isometry import DiagIsometry

from _oracles import lattice_from_scaled

F = Fraction


def _zero3():
    return HWCandidate(3, [(0, 0, 0), (0, 0, 0)])


# class: (fields in declaration order, a builder, a builder of an unequal value)
RECORDS = {
    DiagIsometry: (
        ("signs", "translation"),
        lambda: DiagIsometry((1, -1), (F(1, 2), 3)),
        lambda: DiagIsometry((1, -1), (F(1, 2), 4)),
    ),
    HWCandidate: (("dim", "units"), lambda: cyclic_hw(3), lambda: cyclic_hw(5)),
    Classification: (
        ("crystallographic", "torsion_free", "holonomy_order",
         "orientation_preserving", "hantzsche_wendt"),
        lambda: classify(cyclic_hw(3)),
        lambda: classify(_zero3()),
    ),
    Lattice: (
        ("dim", "den", "basis"),
        lambda: lattice_from_scaled(3, [[2, 2, 0], [0, 4, 0], [0, 0, 4]], 4),
        lambda: lattice_from_scaled(3, [[2, 2, 0], [0, 4, 0], [0, 0, 2]], 4),
    ),
    Presentation: (
        ("generator_count", "relators"),
        lambda: fibonacci_presentation(2, 6),
        lambda: fibonacci_presentation(2, 5),
    ),
    GenImages: (
        ("images",),
        lambda: build_epimorphism(cyclic_hw(3)),
        lambda: build_epimorphism(_zero3()),
    ),
    SymSequence: (("n", "k", "terms"), lambda: symbolic_sequence(5, 1), lambda: symbolic_sequence(5, 2)),
    VerificationReport: (
        ("candidate", "classification", "relators_trivial", "surjective"),
        lambda: verify_main_theorem(cyclic_hw(3)),
        lambda: verify_main_theorem(_zero3()),
    ),
}


def _fields(value, names):
    return tuple(getattr(value, name) for name in names)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_compare_and_hash_by_their_fields(cls):
    names, make, make_other = RECORDS[cls]
    a, b, other = make(), make(), make_other()
    assert type(a) is cls and a is not b
    assert a == b and hash(a) == hash(b) == hash(_fields(a, names))
    assert a != other and _fields(a, names) != _fields(other, names)
    assert a != _fields(a, names)  # a value of another type is never equal
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_pickle_round_trip(cls):
    names, make, _ = RECORDS[cls]
    value = make()
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert type(copy) is cls and copy == value
        assert _fields(copy, names) == _fields(value, names)


def test_packed_isometry_keeps_int_entries_through_pickle():
    g = DiagIsometry._normal((-1,), (3 << 40,))
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and type(copy.translation[0]) is int


@pytest.mark.parametrize("make", [
    lambda: DiagIsometry((0, 1), (0, 0)),
    lambda: DiagIsometry((1, -1), (0,)),
    lambda: HWCandidate(4, [(0,) * 4] * 3),
    lambda: HWCandidate(5, [(0,) * 5] * 2),
    lambda: HWCandidate(3, [(0, 0), (0, 0, 0)]),
    lambda: HWCandidate(3, [(F(1, 3), 0, 0), (0, 0, 0)]),
    lambda: Presentation(-1, ()),
    lambda: Presentation(2, (((-1, 1),),)),
    lambda: Presentation(2, (((2, 1),),)),
    lambda: Presentation(2, (((2, 1), (2, -1)),)),
    lambda: Presentation(2, (((0, 2),),)),
    lambda: GenImages(()),
    lambda: GenImages((DiagIsometry.identity(1), DiagIsometry.identity(2))),
], ids=[
    "sign-0", "sign-length", "even-dim", "generator-count", "translation-length",
    "third-integer", "negative-count", "negative-generator", "unknown-generator",
    "cancelled-unknown-generator", "exponent-2",
    "no-images", "mixed-dims",
])
def test_public_constructors_reject_bad_input(make):
    with pytest.raises(ValueError):
        make()
