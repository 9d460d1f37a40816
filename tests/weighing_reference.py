"""Brute-force counts of weighing rows: the non-zero rows x in {-1, 0, 1}^v whose
periodic (PAF) or negacyclic (NAF) autocorrelation is zero at every shift.

PAF_x(s) is the sum over i of x_i x_{(i+s) mod v}; NAF_x(s) is the same sum
with each term that wraps past the end negated. A row with zero PAF is the first
row of a circulant weighing matrix CW(v, w), where w is its number of non-zero
entries, and a row with zero NAF is that of a negacyclic one, NW(v, w). All 3^v
rows are tried, so this is a reference for small v only.

    python tests/weighing_reference.py 6 14

prints the counts for v = 6 to 14.
"""

import sys

import numpy as np

CHUNK = 3 ** 10  # rows per block, so no more than 3^10 x v entries are held at once


def zero_autocorrelation_weights(v: int, wrap: int) -> dict[int, int]:
    """{weight: rows} of the non-zero rows of length v whose autocorrelation is zero at
    every shift 1..v-1, with wrapped terms multiplied by `wrap`: +1 for PAF, -1 for NAF."""
    powers = 3 ** np.arange(v, dtype=np.int64)
    counts: dict[int, int] = {}
    for start in range(0, 3 ** v, CHUNK):
        index = np.arange(start, min(start + CHUNK, 3 ** v), dtype=np.int64)
        rows = (index[:, None] // powers % 3 - 1).astype(np.int8)  # base-3 digits as -1, 0, 1
        keep = rows.any(axis=1)
        for s in range(1, v):
            shifted = np.roll(rows, -s, axis=1)  # column i holds x_{(i+s) mod v}
            shifted[:, v - s:] *= wrap
            keep &= (rows * shifted).sum(axis=1, dtype=np.int64) == 0
        weights, found = np.unique(np.count_nonzero(rows[keep], axis=1), return_counts=True)
        for weight, n in zip(weights.tolist(), found.tolist()):
            counts[weight] = counts.get(weight, 0) + n
    return dict(sorted(counts.items()))


if __name__ == "__main__":
    low, high = (int(arg) for arg in sys.argv[1:3])
    for v in range(low, high + 1):
        print(v, "PAF", zero_autocorrelation_weights(v, 1), "NAF", zero_autocorrelation_weights(v, -1))
