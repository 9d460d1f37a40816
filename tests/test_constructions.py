import numpy as np
import pytest

from circhad import (
    admissible_negative_counts,
    c2c2_matrix,
    c2c8_matrix,
    circulant_c4,
    cyclic_group,
    is_hadamard,
    is_regular,
    is_rg_matrix,
    kronecker_extend,
    quaternion_c2_matrix,
    recover_listing,
    trivial_construction,
    with_recovered_listing,
)
from circhad.constructions import _C2C8_SHA256, _C2C8_TEXT, _parse_display

ALL_FAMILIES = [circulant_c4, c2c2_matrix, c2c8_matrix, quaternion_c2_matrix]


@pytest.mark.parametrize("factory", ALL_FAMILIES)
def test_shipped_constructions_are_hadamard_and_regular(factory):
    construction = factory()
    assert is_hadamard(construction.matrix).is_hadamard
    assert is_regular(construction.matrix)
    assert construction.matrix.size == construction.group.order


def test_circulant_c4_details():
    c4 = circulant_c4()
    report = is_hadamard(c4.matrix)
    assert report.negatives_per_row == [1, 1, 1, 1]
    assert set(report.negatives_per_row) <= admissible_negative_counts(4)
    assert is_rg_matrix(c4.matrix, c4.group, c4.listing)
    assert c4.matrix.entries[0].tolist() == [1, 1, 1, -1]


def test_c2c2_matrix_is_symmetric_and_rg():
    c = c2c2_matrix()
    assert np.array_equal(c.matrix.entries, c.matrix.entries.T)
    assert is_rg_matrix(c.matrix, c.group, c.listing)
    assert recover_listing(c.matrix, c.group) is not None


@pytest.mark.parametrize("factory", [c2c8_matrix, quaternion_c2_matrix])
def test_16x16_displays_have_six_negatives_per_line(factory):
    entries = factory().matrix.entries
    assert set((entries == -1).sum(axis=1)) == {6}
    assert set((entries == -1).sum(axis=0)) == {6}
    assert 6 in admissible_negative_counts(16)


def test_c2c8_recovered_listing_is_sound():
    c = with_recovered_listing(c2c8_matrix())
    assert c.listing is not None
    assert is_rg_matrix(c.matrix, c.group, c.listing)


def test_c2c8_is_not_circulant():
    # no listing over the plain cyclic group reproduces the pattern
    assert recover_listing(c2c8_matrix().matrix, cyclic_group(16)) is None


def test_quaternion_c2_recovered_listing_is_sound():
    c = with_recovered_listing(quaternion_c2_matrix())
    assert is_rg_matrix(c.matrix, c.group, c.listing)


def test_display_checksum_guard():
    with pytest.raises(RuntimeError):
        _parse_display(_C2C8_TEXT.replace("+", "-", 1), _C2C8_SHA256)


def test_kronecker_c4_by_c4():
    ext = kronecker_extend(circulant_c4(), circulant_c4())
    assert ext.size == 16
    assert ext.group.name == "C4xC4"
    assert is_hadamard(ext.matrix).is_hadamard
    assert is_rg_matrix(ext.matrix, ext.group, ext.listing)


def test_kronecker_with_trivial_is_identity():
    c4 = circulant_c4()
    ext = kronecker_extend(c4, trivial_construction())
    assert np.array_equal(ext.matrix.entries, c4.matrix.entries)
    ext = kronecker_extend(trivial_construction(), c4)
    assert np.array_equal(ext.matrix.entries, c4.matrix.entries)


def test_kronecker_requires_listings():
    with pytest.raises(ValueError):
        kronecker_extend(c2c8_matrix(), circulant_c4())


def test_kronecker_gram_identity_up_to_256():
    base = with_recovered_listing(c2c8_matrix())
    c4 = circulant_c4()
    ext = kronecker_extend(kronecker_extend(base, c4), c4)
    assert ext.size == 256
    entries = ext.matrix.entries.astype(np.int64)  # int8 products would wrap at 256
    g = entries @ entries.T
    assert np.array_equal(g, 256 * np.eye(256, dtype=np.int64))
    assert is_rg_matrix(ext.matrix, ext.group, ext.listing)


def test_c4_factor_replaceable_by_c2c2():
    base = with_recovered_listing(c2c8_matrix())
    via_c4 = kronecker_extend(base, circulant_c4())
    via_klein = kronecker_extend(base, c2c2_matrix())
    assert via_c4.size == via_klein.size == 64
    assert is_hadamard(via_klein.matrix).is_hadamard
    assert is_rg_matrix(via_klein.matrix, via_klein.group, via_klein.listing)


def test_trivial_construction():
    t = trivial_construction()
    assert t.size == 1
    assert is_hadamard(t.matrix).is_hadamard
