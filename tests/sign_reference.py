"""Per-bit reference conversions between ±1 rows, bitmasks and '+'/'-' text, and
the per-pair signs of a row's blocks.

Bit (m-1-i) of a mask is set when row[i] is -1. These loops are independent
of `circhad.signs` and `circhad.blocks`, which the tests hold to them.
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


def same_kind_pairs(row, kind):
    """{(i, j): (difference, sign)} over the ordered pairs of distinct blocks of `kind`.

    Read off the entries of a natural-order row of length 4n: block k is
    (row[k], row[k+2n]), even when the two agree; the pair's difference is
    (j - i) mod 2n, and its sign row[i]*row[j], negated for an odd pair that
    wraps (j < i).
    """
    row = [int(v) for v in row]
    m2 = len(row) // 2
    wrap = -1 if kind == "odd" else 1
    blocks = [k for k in range(m2) if (row[k] == row[k + m2]) == (kind == "even")]
    return {(i, j): ((j - i) % m2, row[i] * row[j] * (wrap if j < i else 1))
            for i in blocks for j in blocks if i != j}
