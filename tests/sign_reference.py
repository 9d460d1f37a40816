"""Per-bit reference conversions between ±1 rows, bitmasks and '+'/'-' text.

Bit (m-1-i) of a mask is set when row[i] is -1. These loops are independent
of `circhad.signs`, which the tests hold to them.
"""

import numpy as np


def mask_to_signs(mask: int, m: int) -> np.ndarray:
    return np.array([-1 if (mask >> (m - 1 - i)) & 1 else 1 for i in range(m)], dtype=np.int64)


def signs_to_mask(row) -> tuple[int, int]:
    mask = 0
    for value in row:
        mask = (mask << 1) | (1 if value == -1 else 0)
    return mask, len(row)


def mask_to_string(mask: int, m: int) -> str:
    return "".join("-" if (mask >> (m - 1 - i)) & 1 else "+" for i in range(m))


def signs_reference(rows):
    # the per-character conversions the vectorised ones replace
    return np.array([[1 if ch == "+" else -1 for ch in row] for row in rows], dtype=np.int64)


def rows_reference(entries):
    return ["".join("+" if v == 1 else "-" for v in row) for row in entries]
