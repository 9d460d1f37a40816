import hashlib

import numpy as np
import pytest

from circhad import (
    NamedConstruction,
    SignMatrix,
    admissible_negative_counts,
    c2c2_matrix,
    c2c8_matrix,
    circulant_c4,
    cyclic_group,
    is_hadamard,
    is_regular,
    is_rg_matrix,
    kronecker_extend,
    natural_listing,
    quaternion_c2_matrix,
    recover_listing,
    with_recovered_listing,
)
from circhad.constructions import _C2C8_TEXT, _Q8C2_TEXT
from circhad.signs import to_text

ALL_FAMILIES = [circulant_c4, c2c2_matrix, c2c8_matrix, quaternion_c2_matrix]

# sha256 of each 16x16 transcription's rows without spaces, joined by newlines
DISPLAY_SHA256 = {
    "c2c8": "a6d1fa90bbd6d27f24dcffdd65887ccd5cc3f5543b47253582fc9d795603ebfe",
    "q8c2": "5109ab6c1c6b6066564ea6b2e54a2a8546e1feae31487c5e84b33f5261c953b2",
}


def display_sha256(text):
    return hashlib.sha256(text.replace(" ", "").encode()).hexdigest()


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
    for name, text, factory in (("c2c8", _C2C8_TEXT, c2c8_matrix),
                                ("q8c2", _Q8C2_TEXT, quaternion_c2_matrix)):
        assert display_sha256(text) == DISPLAY_SHA256[name]
        # the matrix built is the literal, sign for sign
        assert "\n".join(to_text(factory().matrix.entries)) == text.replace(" ", "")
        # one flipped sign changes the digest
        assert display_sha256(text.replace("+", "-", 1)) != DISPLAY_SHA256[name]


def test_kronecker_c4_by_c4():
    ext = kronecker_extend(circulant_c4(), circulant_c4())
    assert ext.size == 16
    assert ext.group.name == "C4xC4"
    assert is_hadamard(ext.matrix).is_hadamard
    assert is_rg_matrix(ext.matrix, ext.group, ext.listing)


def test_kronecker_with_trivial_is_identity():
    c4 = circulant_c4()
    group = cyclic_group(1)
    trivial = NamedConstruction("trivial", group, SignMatrix(np.ones((1, 1), dtype=np.int8)),
                                natural_listing(group))
    ext = kronecker_extend(c4, trivial)
    assert np.array_equal(ext.matrix.entries, c4.matrix.entries)
    ext = kronecker_extend(trivial, c4)
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
