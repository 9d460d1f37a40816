import numpy as np
import pytest

from circhad import canonicalize
from circhad.signs import MASK_BITS, all_signs, from_text, masks_to_rows, row_to_mask, to_text
from sign_reference import mask_to_signs, mask_to_string, rows_reference, signs_reference


def sample_masks(m):
    # every mask for small m; otherwise the extremes, bit m-1 alone, and random masks
    if m <= 8:
        return list(range(1 << m))
    full = (1 << m) - 1
    rng = np.random.default_rng(m)
    randoms = [int(x) for x in rng.integers(0, 1 << 62, 40, dtype=np.uint64)]
    randoms += [int(x) | (1 << (m - 1)) for x in randoms]
    return [0, 1, full, full ^ 1, 1 << (m - 1)] + [x & full for x in randoms]


# the mask reader changes word above 16 and 32 bits
@pytest.mark.parametrize("m", [1, 2, 16, 17, 32, 33, 63, 64])
def test_mask_row_text_round_trips(m):
    masks = sample_masks(m)
    if m == 64:
        assert any(mask >> 63 for mask in masks)
    rows = masks_to_rows(np.array(masks, dtype=np.uint64), m)
    assert rows.dtype == np.int8
    assert rows.shape == (len(masks), m)
    assert rows.tolist() == [mask_to_signs(mask, m).tolist() for mask in masks]
    assert [row_to_mask(row) for row in rows] == masks
    texts = to_text(rows)
    assert texts == [mask_to_string(mask, m) for mask in masks]
    assert texts == rows_reference(rows)
    parsed = np.array([from_text(text) for text in texts])
    assert parsed.dtype == np.int8
    assert np.array_equal(parsed, signs_reference(texts))
    assert np.array_equal(parsed, rows)


def test_empty_mask_list_gives_no_rows():
    rows = masks_to_rows(np.array([], dtype=np.uint64), 5)
    assert rows.shape == (0, 5)
    assert to_text(rows) == []


def test_row_to_mask_takes_lists_and_whole_floats():
    assert row_to_mask([1, 1, 1, -1]) == 0b0001
    assert row_to_mask([-1.0, 1.0, -1.0]) == 0b101
    assert row_to_mask([]) == 0


@pytest.mark.parametrize("bad", [[1, 0, -1], [1, 1.5], [1, 257], [[1, 2]]])
def test_row_to_mask_refuses_non_signs(bad):
    with pytest.raises(ValueError, match="row entries must all be"):
        row_to_mask(bad)


def test_row_to_mask_refuses_rows_wider_than_a_mask():
    assert row_to_mask([-1] * MASK_BITS) == (1 << MASK_BITS) - 1
    with pytest.raises(ValueError, match="at most 64 entries"):
        row_to_mask([1] * (MASK_BITS + 1))


def test_all_signs_checks_values_as_given():
    assert all_signs([[1, -1], [-1.0, 1.0]])
    assert all_signs([])
    for bad in (0, 1.5, -1.9, 255, 257, -257):
        assert not all_signs([1, bad])


def test_from_text_is_int8():
    assert from_text("+-+").tolist() == [1, -1, 1]
    assert from_text("+-+").dtype == np.int8


@pytest.mark.parametrize("m", [1, 5, 17, 64])
def test_canonicalize_returns_int64(m):
    rng = np.random.default_rng(m)
    row = rng.choice([1, -1], m)
    canon = canonicalize(row)
    assert canon.dtype == np.int64
    assert canon.shape == (m,)
    # the smallest mask over all rotations and negations, by brute force
    orbit = [np.roll(sign * row, k) for sign in (1, -1) for k in range(m)]
    best = min(orbit, key=lambda r: rows_reference([r])[0])
    assert canon.tolist() == best.tolist()
