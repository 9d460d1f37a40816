"""Pure-Python enumeration kernel; the readable reference twin of `_npkernel`.

Rows of length m are bitmasks: bit (m-1-i) is set when row[i] is -1, so
lexicographic order on rows equals numeric order on masks. A partition is the
set of masks sharing their top `depth` bits, its prefix. `scan_partitions`
scans any sorted list of partitions in one recursive walk from the empty row,
which assigns row entries left to right, keeping incremental autocorrelation
sums, a negative count and block balance counters. Above `depth` it enters only
the children on some pending prefix's path, so the prefixes share their common
entries, and it yields each partition's result once its subtree is done; a
prefix pruned inside itself is never opened and is yielded empty. Every entry
goes through the same step: each candidate bit is pruned by the row-sum window,
the balance quota and the autocorrelation bound. So a leaf has passed every
filter at every entry, the last one included. The bounds are monotone along
prefixes, so results do not depend on how the space is partitioned, the full
row included.
"""

from __future__ import annotations

import bisect

import numpy as np

from ..signs import masks_to_rows

BACKEND = "python"

_HASH_MULT = 0x9E3779B97F4A7C15
_U64 = (1 << 64) - 1


def crosscheck_selected(mask: int, threshold: int) -> bool:
    """Deterministic per-mask sampling rule shared by both kernels."""
    return ((mask * _HASH_MULT) & _U64) >> 32 < threshold


def scan_partitions(
    m: int,
    prefixes: list[int],
    depth: int,
    row_sum_on: bool,
    adm_mask: int,
    balance_on: bool,
    paf_prefix_on: bool,
    cc_threshold: int,
):
    """Scan the subtrees under each of the sorted `prefixes` at `depth`.

    Yields (prefix, reached, found_masks, sampled_masks) for every prefix, in order:
      reached       rows passing the enabled row_sum/balance filters and not
                    removed by the (enabled) incremental autocorrelation bound
      found_masks   masks among those whose full autocorrelation is flat
      sampled_masks uint64 array of the reached masks that `crosscheck_selected`
                    picks, in ascending order; the search engine, not the
                    kernel, compares their gram verdicts with `found_masks`
    """
    half = m // 2
    nshift = half
    track_balance = balance_on and m % 4 == 0
    quota = m // 4

    r = [0] * m
    partial = [0] * (nshift + 1)
    reached = 0
    found: list[int] = []
    cc_masks: list[int] = []

    def assign(k: int, negative: bool) -> None:
        r[k] = -1 if negative else 1
        for s in range(1, min(k, nshift) + 1):
            partial[s] += r[k - s] * r[k]

    def on_path(k: int, child: int) -> bool:
        """Some pending prefix starts with `child`, the first k+1 entries of a row."""
        shift = depth - 1 - k
        i = bisect.bisect_left(prefixes, child << shift)
        return i < len(prefixes) and prefixes[i] >> shift == child

    def descend(k: int, mask: int, negs: int, evens: int, odds: int):
        nonlocal reached, found, cc_masks
        if k == depth:
            reached, found, cc_masks = 0, [], []
        if k == m:
            # entry m-1's window and quota already admitted only admissible, balanced rows
            reached += 1
            if cc_threshold and crosscheck_selected(mask, cc_threshold):
                cc_masks.append(mask)
            if all(partial[s] + sum(r[i] * r[i + s - m] for i in range(m - s, m)) == 0
                   for s in range(1, nshift + 1)):
                found.append(mask)
        else:
            unassigned = partial[:]  # restored after each child
            for bit in (0, 1):
                if k < depth and not on_path(k, (mask << 1) | bit):
                    continue
                negs2 = negs + bit
                if row_sum_on and not (adm_mask >> negs2) & ((1 << (m - k)) - 1):
                    continue
                assign(k, bool(bit))
                evens2, odds2 = evens, odds
                if track_balance and k >= half:
                    if r[k - half] == r[k]:
                        evens2 += 1
                    else:
                        odds2 += 1
                balanced = evens2 <= quota and odds2 <= quota
                if balanced and not (paf_prefix_on and _bound_violated(partial, k, m, nshift)):
                    yield from descend(k + 1, (mask << 1) | bit, negs2, evens2, odds2)
                partial[:] = unassigned
        if k == depth:
            yield mask, reached, found, np.array(cc_masks, dtype=np.uint64)

    walk = descend(0, 0, 0, 0, 0)
    entry = next(walk, None) if prefixes else None
    for prefix in prefixes:
        if entry and entry[0] == prefix:
            yield entry
            entry = next(walk, None)
        else:
            yield prefix, 0, [], np.empty(0, dtype=np.uint64)


def _bound_violated(partial, k, m, nshift) -> bool:
    # After assigning index k, shift s has k+1-s settled products of the m total;
    # a flat autocorrelation is impossible once |partial| exceeds what is left.
    for s in range(1, min(k, nshift) + 1):
        p = partial[s]
        remaining = m - (k + 1 - s)
        if p > remaining or -p > remaining:
            return True
    return False


# Largest order whose gram entries and partial sums all fit in int8.
GRAM_INT8_ORDER_LIMIT = 127
# Masks whose circulants are multiplied out at once.
GRAM_CHUNK = 4096


def gram_hadamard_batch(masks: np.ndarray, m: int) -> np.ndarray:
    """Ground-truth gram verdict for each mask: circulant M satisfies MM^T = mI.

    Builds the actual circulant and multiplies it out; deliberately never uses
    the autocorrelation shortcut it is meant to check. The circulants are int8
    and `np.einsum` multiplies and accumulates them in int8, which is exact:
    every entry and partial sum is an integer of magnitude at most m <= 64,
    below int8's 127. Orders above 127 are refused rather than wrapped.
    """
    if m > GRAM_INT8_ORDER_LIMIT:
        raise ValueError(f"int8 gram products need order <= {GRAM_INT8_ORDER_LIMIT}, got {m}")
    verdicts = np.empty(len(masks), dtype=bool)
    circ_idx = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
    target = m * np.eye(m, dtype=np.int8)
    for start in range(0, len(masks), GRAM_CHUNK):
        rows = masks_to_rows(masks[start : start + GRAM_CHUNK], m)
        circs = rows[:, circ_idx]
        grams = np.einsum("bij,bkj->bik", circs, circs)
        verdicts[start : start + len(rows)] = np.all(grams == target, axis=(1, 2))
    return verdicts
