"""±1 rows in their three forms: int8 arrays, '+'/'-' text and uint64 bitmasks.

Text is converted as uint8 character codes: '+' is 43 = 44 - 1 and '-' is
45 = 44 - (-1) modulo 256, so one subtraction from 44 turns codes into signs
and signs back into codes, a whole matrix at a time.

A row of length m <= 64 is held by the mask whose bit (m-1-i) is set when
row[i] is -1, so lexicographic order on rows ('+' before '-') is numeric order
on masks. Every function that takes ±1 values checks them as given, before
any integer cast.
"""

from __future__ import annotations

import numpy as np

MASK_BITS = 64

_PLUS, _MINUS = np.uint8(ord("+")), np.uint8(ord("-"))
_CODE_PIVOT = np.uint8(44)  # '+' + 1 == '-' - 1


def all_signs(values) -> bool:
    """True iff every value is +1 or -1 as given, before any integer cast.

    Checking before the cast keeps 1.5 (truncated to 1) and 257 (wrapped to 1
    by int8) out. One boolean mask at a time, so no n x n integer temporary is made.
    """
    a = np.asarray(values)
    return np.count_nonzero(a == 1) + np.count_nonzero(a == -1) == a.size


def from_codes(codes: np.ndarray) -> np.ndarray:
    """int8 ±1 of a uint8 array of '+'/'-' codes, converted in place and returned as a view."""
    np.subtract(_CODE_PIVOT, codes, out=codes)
    return codes.view(np.int8)


def to_codes(rows: np.ndarray, out: np.ndarray) -> None:
    """Write the '+'/'-' codes of an int8 array of already checked ±1 values into `out` (uint8)."""
    np.subtract(_CODE_PIVOT, rows.view(np.uint8), out=out)


def from_text(text: str) -> np.ndarray:
    """int8 +1 for each '+' and -1 for each '-' of a string of those two characters."""
    return from_codes(np.frombuffer(text.encode("ascii"), dtype=np.uint8).copy())


def to_text(rows: np.ndarray) -> list[str]:
    """One '+'/'-' string per row of a 2-D ±1 array: '+' for +1, '-' for any other value."""
    chars = np.where(rows == 1, _PLUS, _MINUS)
    return [row.tobytes().decode("ascii") for row in chars]


def mask_signs(masks: np.ndarray, count: int) -> np.ndarray:
    """Row s of the (count, len(masks)) int8 result is the sign of bit s of each uint64 mask.

    A set bit is -1. This is the one reader of mask bits. The shifts run on the
    narrowest words that hold `count` bits: uint16 up to 16, uint32 up to 32,
    else the whole uint64 masks. The signs are formed in place: one more
    temporary raised the benchmark's serial search peak RSS.
    """
    word = np.uint16 if count <= 16 else np.uint32 if count <= 32 else np.uint64
    bits = masks.astype(word, copy=False) >> np.arange(count, dtype=word)[:, None]
    bits &= word(1)
    signs = bits.astype(np.int8)
    signs *= -2
    signs += 1
    return signs


def masks_to_rows(masks: np.ndarray, m: int) -> np.ndarray:
    """int8 sign matrix (len(masks) x m) from uint64 row bitmasks, as a transposed view."""
    return mask_signs(masks, m)[::-1].T
