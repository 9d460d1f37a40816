"""Vectorised enumeration kernel: `_pykernel`'s scan, one tree level at a time.

The frontier of a subtree scan is held as arrays with one entry per node: the
mask, the signs assigned so far, the partial autocorrelations, the negative
count and the even-block count (a node's odd blocks are the rest of the blocks
it has set). At each level the row-sum window, the balance quota and the
autocorrelation bound of `_pykernel` are applied to both children of every
node as boolean masks, and only the surviving children are built. Child 0 of a
node sits before child 1, so both kernels reach the same rows in the same order.

A frontier larger than `FRONTIER_CAP` is split in two and the first half is
finished before the second is started, so at most about m * FRONTIER_CAP nodes
are held at once.
"""

from __future__ import annotations

import numpy as np

from . import _pykernel

BACKEND = "numpy"
FRONTIER_CAP = 1024

_HASH_MULT = np.uint64(_pykernel._HASH_MULT)
_SIGN = np.array([1, -1], dtype=np.int8)  # sign of an entry, indexed by its bit
_BOTH_BITS = np.array([0, 1], dtype=np.uint8)


def scan_subtree(
    m: int,
    prefix: int,
    depth: int,
    row_sum_on: bool,
    adm_mask: int,
    balance_on: bool,
    paf_prefix_on: bool,
    cc_threshold: int,
):
    """Enumerate the masks under (prefix, depth); see `_pykernel.scan_subtree`."""
    half = m // 2
    nshift = half
    track_balance = balance_on and m % 4 == 0
    quota = m // 4
    # window[k, v]: some admissible count is still reachable from v negatives
    # once entry k is set, with m-k-1 entries left
    widths = (np.int64(1) << np.arange(m, 0, -1, dtype=np.int64)) - 1
    window = (np.int64(adm_mask) >> np.arange(m + 1, dtype=np.int64)) & widths[:, None] != 0

    def assign(nodes, k: int, bits: np.ndarray) -> None:
        """Set entry k of every node in place; bits[i] is node i's new bit."""
        masks, signs, partial, negs, evens = nodes
        r = _SIGN[bits]
        signs[:, k] = r
        shifts = min(k, nshift)
        # column s-1 of partial holds shift s, which pairs entry k with entry k-s
        partial[:, :shifts] += signs[:, k - shifts : k][:, ::-1] * r[:, None]
        negs += bits
        if track_balance and k >= half:
            evens += signs[:, k - half] == r
        nodes[0] = (masks << np.uint64(1)) | bits

    def children(nodes, k: int) -> np.ndarray:
        """keep[i, b]: the child of node i with bit b at entry k survives pruning."""
        _, signs, partial, negs, evens = nodes
        keep = np.ones((len(negs), 2), dtype=bool)
        if row_sum_on:
            keep &= window[k, negs[:, None] + _BOTH_BITS]
        if track_balance and k >= half:
            plus_is_even = signs[:, k - half] == 1
            child_evens = evens[:, None] + np.stack([plus_is_even, ~plus_is_even], axis=1)
            keep &= (child_evens <= quota) & (k + 1 - half - child_evens <= quota)
        shifts = min(k, nshift)
        if paf_prefix_on and shifts:
            remaining = m - k - 1 + np.arange(1, shifts + 1)
            step = signs[:, k - shifts : k][:, ::-1]
            part = partial[:, :shifts]
            keep[:, 0] &= np.all(np.abs(part + step) <= remaining, axis=1)
            keep[:, 1] &= np.all(np.abs(part - step) <= remaining, axis=1)
        return keep

    # The fixed prefix is installed without prune checks, as in _pykernel.
    nodes = [
        np.zeros(1, dtype=np.uint64),
        np.zeros((1, m), dtype=np.int8),
        np.zeros((1, nshift), dtype=np.int16),
        np.zeros(1, dtype=np.int16),
        np.zeros(1, dtype=np.int16),
    ]
    for k in range(depth):
        assign(nodes, k, np.array([(prefix >> (depth - 1 - k)) & 1], dtype=np.uint8))

    reached = 0
    found = [np.zeros(0, dtype=np.uint64)]
    cc_masks = [np.zeros(0, dtype=np.uint64)]
    cc_flat = [np.zeros(0, dtype=bool)]
    pending = [(depth, nodes)]
    while pending:
        k, nodes = pending.pop()
        while k < m and len(nodes[0]):
            survivors = np.flatnonzero(children(nodes, k))  # child b of node i is 2i+b
            nodes = [a.take(survivors >> 1, axis=0) for a in nodes]
            assign(nodes, k, (survivors & 1).astype(np.uint8))
            k += 1
            if len(nodes[0]) > FRONTIER_CAP:
                cut = len(nodes[0]) // 2
                pending.append((k, [a[cut:] for a in nodes]))
                nodes = [a[:cut] for a in nodes]
        if k < m:
            continue
        masks, signs, partial, negs, evens = nodes
        ok = np.ones(len(masks), dtype=bool)
        if row_sum_on:
            ok &= window[m - 1, negs]  # a window one count wide: negs itself is admissible
        if track_balance:
            ok &= evens == quota  # a leaf has set all 2 * quota blocks
        masks, signs, partial = masks[ok], signs[ok], partial[ok]
        reached += len(masks)
        flat = np.ones(len(masks), dtype=bool)
        for s in range(1, nshift + 1):
            wrap = np.einsum("ij,ij->i", signs[:, m - s :], signs[:, :s], dtype=np.int64)
            flat &= partial[:, s - 1] + wrap == 0
        found.append(masks[flat])
        if cc_threshold:
            picked = (masks * _HASH_MULT) >> np.uint64(32) < np.uint64(cc_threshold)
            cc_masks.append(masks[picked])
            cc_flat.append(flat[picked])

    sampled = np.concatenate(cc_masks)
    mismatches = 0
    if len(sampled):
        verdicts = _pykernel.gram_hadamard_batch(sampled, m)
        mismatches = int(np.count_nonzero(verdicts != np.concatenate(cc_flat)))
    return reached, np.concatenate(found).tolist(), len(sampled), mismatches
