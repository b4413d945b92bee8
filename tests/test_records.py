"""Value semantics of the library's records.

The records are namedtuples, and `Subspace` is a slotted class with
caches.  Each is built from its fields by its constructor, which runs
its checks; equal fields give equal records, and the immutable ones hash
alike and refuse assignment.  `ColoringTable`, `ArrowResult` and
`VerifyResult` carry dicts, so only their equality is asserted.
"""

import pytest

from qramsey import (AFFINE, VECTOR, ArrowInstance, BasisSet, ColoringTable,
                     ConfigFamily, ExtractionFailure, HostSpec, LinearMap,
                     Line, Subspace, arrow_holds, arrow_structure,
                     build_base_host, build_product_host, enumerate_subspaces,
                     extract_monochromatic_copy, full_space,
                     induced_host_verify, line_embedding, make_field, span)
from qramsey.construction import bundle_text
from qramsey.space import _unchecked_subspace

from affine_maps import affine_map


def build_records() -> dict:
    """One record of each type, by type name."""
    f = make_field(2)
    amb = full_space(f, VECTOR, 2)
    fam = ConfigFamily(amb, tuple(enumerate_subspaces(amb, 1)[:1]))
    spec = HostSpec(2, VECTOR, 1, 2, 1, fam, 2, 1)
    base = build_base_host(spec)
    host = build_product_host(base, 1)
    line = Line(1, (0,), ())
    inst = ArrowInstance(2, VECTOR, 2, 2, 1, 2)
    coloring = {m.key(): 0 for m in host.members}
    records = [amb, BasisSet(VECTOR, f, amb.basis_points()), base.projection,
               line, ColoringTable(host.space.key(), coloring), inst,
               arrow_structure(inst), arrow_holds(inst), fam,
               induced_host_verify(host.space, host.members, fam, 2), spec,
               base, host, line_embedding(host, line),
               extract_monochromatic_copy(host, coloring),
               ExtractionFailure("line_search", "no line", line, (0,))]
    return {type(r).__name__: r for r in records}


RECORDS = build_records()
UNHASHABLE = {"ColoringTable", "ArrowResult", "VerifyResult"}
FROZEN = sorted(set(RECORDS) - UNHASHABLE)


def fields_of(record) -> tuple:
    if isinstance(record, Subspace):
        return (record.mode, record.field, record.ambient_len,
                record.direction, record.basepoint)
    return tuple(record)


def test_every_record_type_is_covered():
    assert len(RECORDS) == 16


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_give_equal_records(name):
    record = RECORDS[name]
    again = type(record)(*fields_of(record))
    assert again is not record
    assert again == record and not again != record
    if name not in UNHASHABLE:
        assert hash(again) == hash(record)


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment(name):
    record = RECORDS[name]
    field = "mode" if name == "Subspace" else record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_subspace_caches_stay_out_of_equality():
    f = make_field(2)
    filled = Subspace(VECTOR, f, 3, (b"\x01\x00\x01", b"\x00\x01\x01"))
    fresh = Subspace(*fields_of(filled))
    filled.key()
    filled.pivots()
    assert filled._key is not None and filled._pivot_rows is not None
    assert fresh._key is None and fresh._pivot_rows is None
    preset = _unchecked_subspace(filled.mode, filled.field, filled.ambient_len,
                                 filled.rows, "a preset key")
    for other in (fresh, preset):
        assert other == filled and hash(other) == hash(filled)
    assert Subspace(VECTOR, f, 3, (b"\x01\x00\x01",)) != filled
    with pytest.raises(AttributeError):
        filled._key = None
    with pytest.raises(AttributeError):
        del filled.direction


def test_host_spec_word_len_zero_is_refused():
    host = RECORDS["ProductHost"]
    with pytest.raises(ValueError, match="word_len must be at least 1"):
        HostSpec(*host.spec[:-1], word_len=0)
    # bundle_text writes the spec resolved to the host's word length, a
    # copy that the spec's constructor checks
    with pytest.raises(ValueError, match="word_len must be at least 1"):
        "".join(bundle_text(host._replace(word_len=0)))


def test_records_store_tuples_whatever_sequence_they_get():
    # a list of rows, points or columns is stored as a tuple, so the record
    # equals, and hashes as, the one built from the tuple
    f = make_field(3)
    rows = [b"\x01\x00\x02", b"\x00\x01\x01"]
    # an affine map's columns as it stores them, in a list
    lifted = list(affine_map(f, 2, 3, rows, b"\x01\x01\x01").columns)
    pairs = [
        (Subspace(VECTOR, f, 3, rows), Subspace(VECTOR, f, 3, tuple(rows))),
        (Subspace(AFFINE, f, 3, rows[1:], b"\x02\x00\x00"),
         Subspace(AFFINE, f, 3, tuple(rows[1:]), b"\x02\x00\x00")),
        (BasisSet(VECTOR, f, rows), BasisSet(VECTOR, f, tuple(rows))),
        (LinearMap(VECTOR, f, 2, 3, rows), LinearMap(VECTOR, f, 2, 3, tuple(rows))),
        (LinearMap(AFFINE, f, 2, 3, lifted), LinearMap(AFFINE, f, 2, 3, tuple(lifted))),
    ]
    for from_list, from_tuple in pairs:
        assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    stored = [pairs[0][0].rows, pairs[1][0].rows, pairs[2][0].points,
              pairs[3][0].columns, pairs[4][0].columns]
    assert all(type(v) is tuple for v in stored)
    line = Subspace(VECTOR, f, 2, [b"\x01\x00"])
    assert line == span(f, VECTOR, [b"\x01\x00"])
    assert hash(line) == hash(span(f, VECTOR, [b"\x01\x00"]))
