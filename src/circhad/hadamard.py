"""Exact Hadamard/regularity verification and the counting constraints behind it.

Every verdict here is exact. Matrices are stored as int8 +-1 entries, which
hold every value exactly; sums over them (row and column sums, negative
counts) are taken in int64, and products go through float32. The gram product
is the ground-truth oracle; it runs as float32 BLAS products, which are exact
because every entry and partial sum of a +-1 gram product is an integer of
magnitude at most n, and float32 holds every integer up to 2^24 exactly; an
n x n matrix with n > 2^24 would not fit in memory. `is_hadamard` multiplies
tiles of GRAM_BLOCK_ROWS rows, each converted to float32 as it is used, and
only the tiles on or above the diagonal of the symmetric product, so no
float32 copy of the whole matrix is made.
The periodic autocorrelation view of circulants is a fast equivalent route that
the tests cross-check against it rather than trust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .groupring import as_sign_array
from .signs import all_signs

# Rows of a tile of the gram product that `is_hadamard` computes at once.
GRAM_BLOCK_ROWS = 128


def gram(m) -> np.ndarray:
    """M * M^T over exact integers."""
    f = as_sign_array(m).astype(np.float32)
    # Exact in any summation order: every partial sum is an integer of
    # magnitude <= n <= 2^24.
    return (f @ f.T).astype(np.int64)


@dataclass
class GramReport:
    size: int
    is_hadamard: bool
    diagonal_values: set[int]
    max_off_diagonal: int
    row_sums: list[int] = field(repr=False)
    col_sums: list[int] = field(repr=False)
    negatives_per_row: list[int] = field(repr=False)


def is_hadamard(m) -> GramReport:
    """Full gram report; the flag is true iff M M^T equals size * identity."""
    arr = as_sign_array(m)
    n = arr.shape[0]
    diag: set[int] = set()
    max_off = 0
    for start in range(0, n, GRAM_BLOCK_ROWS):
        rows = arr[start : start + GRAM_BLOCK_ROWS].astype(np.float32)
        # M M^T is symmetric, so the tiles from the diagonal on hold every
        # entry up to transposition. Exact in any summation order: every
        # partial sum is an integer of magnitude <= n <= 2^24.
        g = rows @ rows.T
        diag.update(map(int, np.diagonal(g).tolist()))
        np.fill_diagonal(g, 0)
        max_off = max(max_off, int(g.max()), int(-g.min()))
        for other in range(start + GRAM_BLOCK_ROWS, n, GRAM_BLOCK_ROWS):
            g = rows @ arr[other : other + GRAM_BLOCK_ROWS].astype(np.float32).T
            max_off = max(max_off, int(g.max()), int(-g.min()))
    row_sums = arr.sum(axis=1, dtype=np.int64)
    return GramReport(
        size=n,
        is_hadamard=(diag == {n} and max_off == 0),
        diagonal_values=diag,
        max_off_diagonal=max_off,
        row_sums=row_sums.tolist(),
        col_sums=arr.sum(axis=0, dtype=np.int64).tolist(),
        # a row of r entries -1 sums to n - 2r
        negatives_per_row=((n - row_sums) // 2).tolist(),
    )


def paf(row) -> np.ndarray:
    """Periodic autocorrelation: paf[s] = sum_k row[k]*row[(k+s) mod m].

    paf[0] = m, and the circulant built on the row is Hadamard iff every other
    entry is zero.
    """
    if not all_signs(row):
        raise ValueError("row entries must all be +1 or -1")
    row = np.asarray(row, dtype=np.int64)
    if row.ndim != 1:
        raise ValueError(f"a row must be 1-D, got shape {row.shape}")
    return _autocorrelation(row)


def _autocorrelation(x, wrap: int = 1, lags: int | None = None) -> np.ndarray:
    """int64 sum_k x[k]*x[k+s] for s below `lags` (default L); a wrapped product is times `wrap`."""
    x = np.asarray(x, dtype=np.int64)
    if x.size == 0:  # np.correlate refuses empty input
        return x
    return np.correlate(np.concatenate([x, wrap * x[: (lags or x.size) - 1]]), x, "valid")


def paf_is_flat(row) -> bool:
    p = paf(row)
    return bool(np.all(p[1:] == 0))


def admissible_negative_counts(m: int) -> set[int]:
    """Possible per-row negative counts for a regular orthogonal-row sign matrix.

    Row/column regularity plus orthogonality force r = (m +- sqrt(m)) / 2, so the
    set is empty unless m is a perfect square. For m = 4n this is {2n - sqrt(n),
    2n + sqrt(n)}.
    """
    if m < 1:
        raise ValueError(f"order must be positive, got {m}")
    root = math.isqrt(m)
    if root * root != m:
        return set()
    counts = set()
    for sign in (-1, 1):
        num = m + sign * root
        if num % 2 == 0:
            counts.add(num // 2)
    return counts


def is_regular(m) -> bool:
    """True iff all row sums and all column sums share one common value."""
    arr = as_sign_array(m)
    sums = np.concatenate([arr.sum(axis=1, dtype=np.int64), arr.sum(axis=0, dtype=np.int64)])
    return bool(np.all(sums == sums[0]))
