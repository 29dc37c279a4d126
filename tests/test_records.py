"""The record types' contract: fields, construction, validation, repr, equality and immutability.

The state goldens of ``test_cosets.py`` hash the repr of closed tables, so
the reprs are pinned byte for byte.
"""

import pytest

from wordrace import (
    Alphabet, Budget, DyckFactor, EqualityCertificate, FinitenessCertificate, MalformedWordError,
    MultiplicationTable, Outcome,
)
from wordrace.certcheck import EqualityDocument, FinitenessDocument
from wordrace.oracle import CorpusGroup, TableGroup, is_identity_z, zn_table

Z2 = MultiplicationTable(((0, 1), (1, 0)))
EQ = EqualityCertificate(factors=(DyckFactor(b"", 0, 1),), target=b"\x00\x00")
FIN = FinitenessCertificate(Z2, (b"",), "words", {0: 1}, {}, {})


def test_reprs():
    assert repr(Z2) == "MultiplicationTable(cells=((0, 1), (1, 0)))"
    assert repr(Alphabet(("a", "b"))) == "Alphabet(generators=('a', 'b'))"
    assert repr(EQ) == (
        "EqualityCertificate(factors=(DyckFactor(conjugator=b'', relator_index=0, sign=1),), target=b'\\x00\\x00')"
    )
    assert repr(Outcome("equal", EQ, 3, 2)) == (
        f"Outcome(verdict='equal', certificate={EQ!r}, steps_equal_arm=3, steps_finite_arm=2)"
    )
    assert repr(Budget(5, quantum=2)) == "Budget(max_total_steps=5, quantum=2)"


FROZEN = [
    pytest.param(Alphabet(("a",)), "generators", id="Alphabet"),
    pytest.param(Budget(), "quantum", id="Budget"),
    pytest.param(Z2, "cells", id="MultiplicationTable"),
    pytest.param(TableGroup(Z2, (1,)), "images", id="TableGroup"),
    pytest.param(EQ, "target", id="EqualityCertificate"),
    pytest.param(FIN, "table", id="FinitenessCertificate"),
    pytest.param(Outcome("equal", EQ, 3, 2), "verdict", id="Outcome"),
    pytest.param(EqualityDocument("0" * 64, EQ), "digest", id="EqualityDocument"),
    pytest.param(FinitenessDocument("0" * 64, b"\x00", FIN, {}, {}), "target", id="FinitenessDocument"),
    pytest.param(CorpusGroup("Z", "generators: a\n", is_identity_z), "name", id="CorpusGroup"),
]


@pytest.mark.parametrize("record,field", FROZEN)
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("record,field", FROZEN)
def test_records_keep_no_instance_dict(record, field):
    assert not hasattr(record, "__dict__")


def test_keyword_and_positional_construction():
    assert Budget() == Budget(1_000_000, 1) == Budget(max_total_steps=1_000_000, quantum=1)
    assert Budget(None).max_total_steps is None
    assert Alphabet(generators=("a",)).generators == ("a",)
    assert TableGroup(table=Z2, images=(1,)).images == (1,)
    out = Outcome(verdict="equal", certificate=EQ, steps_equal_arm=3, steps_finite_arm=2)
    assert (out.verdict, out.certificate, out.steps_equal_arm, out.steps_finite_arm) == ("equal", EQ, 3, 2)
    assert FIN.coverage == {0: 1} and FIN.mode == "words"


def test_validation_errors():
    with pytest.raises(MalformedWordError, match="duplicate generator 'a'"):
        Alphabet(("a", "a"))
    with pytest.raises(MalformedWordError, match="1..26 generators, got 0"):
        Alphabet(())
    with pytest.raises(ValueError, match="quantum must be >= 1"):
        Budget(quantum=0)
    with pytest.raises(ValueError, match="budget must be >= 0"):
        Budget(-1)
    with pytest.raises(ValueError, match="do not generate"):
        TableGroup(zn_table(4), (2,))


def test_tables_compare_and_hash_by_cells():
    same = MultiplicationTable(tuple(tuple(row) for row in [[0, 1], [1, 0]]))
    assert same == Z2 and hash(same) == hash(Z2)
    assert {Z2: "C2"}[same] == "C2"
    assert Z2 != zn_table(3)
    assert FinitenessCertificate(same, (b"",), "words", {0: 1}, {}, {}) == FIN


def test_replace_validates_like_the_constructor():
    # A namedtuple's _make and _replace build with tuple.__new__ unless routed through the constructor.
    with pytest.raises(ValueError, match="quantum must be >= 1"):
        Budget()._replace(quantum=0)
    with pytest.raises(MalformedWordError, match="duplicate generator 'a'"):
        Alphabet(("a",))._replace(generators=("a", "a"))
    with pytest.raises(ValueError, match="do not generate"):
        TableGroup(zn_table(4), (1,))._replace(images=(2,))
    assert Budget()._replace(quantum=2) == Budget(quantum=2)
